package exps

import (
	"sync/atomic"

	"virtover/internal/obs"
	"virtover/internal/xen"
)

// obsReg is the package-wide observability registry. Experiment entry
// points consult it whenever a caller did not pass an explicit registry,
// which lets the cmd binaries instrument whole studies (figures, corpus
// builds, reports) without threading a registry through every generator
// signature. Nil — the default — keeps everything uninstrumented.
var obsReg atomic.Pointer[obs.Registry]

// SetObservability installs reg as the package-wide registry used by
// experiment runs that were not given one explicitly. Pass nil to disable.
// Safe for concurrent use; campaigns already running keep the registry
// they resolved at start.
func SetObservability(reg *obs.Registry) {
	obsReg.Store(reg)
}

// observability resolves an explicit registry against the package default.
func observability(explicit *obs.Registry) *obs.Registry {
	if explicit != nil {
		return explicit
	}
	return obsReg.Load()
}

// jrnl is the package-wide run journal (nil — the default — disables it).
var jrnl atomic.Pointer[obs.Journal]

// SetJournal installs j as the process's run journal: prediction cells
// and model fits in this package emit wide events to it, and — via
// xen.SetDefaultJournal — every engine constructed from here on emits
// step-window events. Pass nil to disable. This is the one call a cmd's
// -journal flag makes.
func SetJournal(j *obs.Journal) {
	jrnl.Store(j)
	xen.SetDefaultJournal(j)
}

// SetProfiler installs p as the process-default shard-phase profiler
// (xen.SetDefaultProfiler): engines constructed from here on time their
// demand/exchange/resolve/emit phases and the meter kernel per shard into
// p. Pass nil to disable.
func SetProfiler(p *obs.ShardProfiler) {
	xen.SetDefaultProfiler(p)
}

// journal returns the package-wide run journal (nil when disabled).
func journal() *obs.Journal {
	return jrnl.Load()
}

// errText renders an error for a journal field ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
