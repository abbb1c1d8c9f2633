// Package sampling is the unified sample-sink pipeline of the simulator:
// the engine pushes one Sample per domain per step into attached Sinks, and
// every downstream consumer — the measurement-tool emulation, trace
// recording, streaming statistics, campaign analyses, controllers — is a
// Sink (or a small chain of them). This mirrors the paper's method, where a
// single synchronized 1 Hz script feeds every analysis, and replaces the
// per-consumer snapshot loops the code base grew out of.
//
// A Sink chain is composed from small stages:
//
//	engine ──▶ Decimate ──▶ Meter (adds tool noise) ──▶ Fanout ─┬─▶ CSVSink
//	                                                            ├─▶ StreamAggregator
//	                                                            └─▶ StatSink / CDFSink
//
// Samples arrive in a deterministic order: PMs in cluster order, and within
// a PM the guests in arena order followed by Domain-0, the hypervisor and
// the host row. Consumers may rely on that order (the trace writer does —
// no sorting required), and on Time being non-decreasing with all samples
// of one step delivered before the next step begins.
//
// # Batched delivery
//
// Delivery is batched: the engine assembles one reusable []Sample per step
// (arena order, backing array preallocated at attach time) and hands it to
// each sink's ConsumeBatch — one dispatch per step instead of one per
// sample. The batch contract:
//
//   - a batch holds samples of a single step, in emission order;
//   - a step may be delivered as several batches (a Filter forwards the
//     kept runs), but the samples of one (PM, step) group are only split
//     when a filter drops part of the group;
//   - the batch slice is reused by its producer: sinks must not retain it
//     (copy the samples out if they outlive ConsumeBatch).
//
// Producers may assemble a batch in parallel — the sharded engine fills
// disjoint pre-sliced segments of its step batch from several goroutines.
// For plain Sinks delivery is still a single ConsumeBatch call per step on
// the stepping goroutine, after assembly completes: those sinks never see
// concurrency, partial assembly, or an order that depends on the
// producer's parallelism. Sinks that additionally implement
// ShardedBatchSink (sharded.go) opt into receiving the PM-disjoint
// segments concurrently, bracketed by a Begin/Finish pair whose ordered
// merge reproduces the serial result bit for bit.
package sampling

import (
	"errors"

	"virtover/internal/obs"
	"virtover/internal/units"
)

// Kind identifies the domain a sample describes.
type Kind uint8

// The four domain kinds, in per-PM emission order (guests first, host last).
const (
	KindGuest Kind = iota
	KindDom0
	KindHypervisor
	KindHost
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindGuest:
		return "guest"
	case KindDom0:
		return "dom0"
	case KindHypervisor:
		return "hypervisor"
	case KindHost:
		return "host"
	default:
		return "unknown"
	}
}

// Canonical domain labels for non-guest rows, shared by the engine emitter
// and the trace format.
const (
	LabelDom0       = "Domain-0"
	LabelHypervisor = "hypervisor"
	LabelHost       = "host"
)

// Sample is one per-step, per-domain utilization reading. Ground-truth
// samples come straight from the engine; measured samples have passed
// through the monitor's tool emulation. Sample is a value type: sinks may
// retain it freely (but not the batch slice it arrived in).
type Sample struct {
	// Time is the simulation time in seconds at the end of the step.
	Time float64
	// PMID is the hosting PM's dense arena ID; PM is its name.
	PMID int
	PM   string
	// VMID is the guest's dense arena ID for KindGuest samples, -1
	// otherwise.
	VMID int
	// Domain is the guest name for KindGuest, else one of the Label
	// constants.
	Domain string
	Kind   Kind
	// Util is the domain's utilization. Hypervisor samples carry CPU only.
	Util units.Vector
}

// Sink consumes a sample stream one step-batch at a time. The slice obeys
// the batch contract in the package comment: emission order, one step per
// batch, and the backing array belongs to the producer — implementations
// must not retain it past the call. ConsumeBatch must not block for long:
// the engine calls it synchronously on the simulation hot path.
// Implementations that can fail (e.g. writers) should record the first
// error internally and expose it from a Flush or Err method.
type Sink interface {
	ConsumeBatch([]Sample)
}

// Fanout delivers every batch to each member sink in attach order,
// synchronously. It also implements ShardedBatchSink (sharded.go), so a
// sharded producer can feed a mixed population: members with a sharded
// path consume segments in parallel, the rest are fed the step from the
// merged segments at the merge. Members see the same per-step sample order
// either way.
type Fanout struct {
	sinks []Sink
	ss    []ShardedBatchSink // nil where the member has no sharded path
	on    []bool             // member accepted the current sharded step
	segs  [][]Sample
}

// NewFanout builds a fanout over sinks (attach order is delivery order).
// The members' sharded views are resolved once, here.
func NewFanout(sinks ...Sink) *Fanout {
	f := &Fanout{
		sinks: sinks,
		ss:    make([]ShardedBatchSink, len(sinks)),
		on:    make([]bool, len(sinks)),
	}
	for i, s := range sinks {
		f.ss[i], _ = s.(ShardedBatchSink)
	}
	return f
}

// ConsumeBatch implements Sink: each member gets the whole batch in one
// dispatch.
func (f *Fanout) ConsumeBatch(batch []Sample) {
	for _, k := range f.sinks {
		k.ConsumeBatch(batch)
	}
}

// Err surfaces member errors in attach order, probing each sink for the
// pipeline's `Err() error` convention (e.g. trace.CSVSink) and joining the
// non-nil results with errors.Join.
func (f *Fanout) Err() error {
	var errs []error
	for _, s := range f.sinks {
		if e, ok := s.(interface{ Err() error }); ok {
			if err := e.Err(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Filter forwards the samples Keep accepts to Next. The optional Kept and
// Dropped counters (nil-safe no-ops when unset) record the filter's pass
// ratio; monitor.Script wires them when observability is enabled. Every
// method has a pointer receiver, so a Filter is attached as *Filter and
// its serial and sharded paths can never come apart.
type Filter struct {
	Keep func(Sample) bool
	Next Sink

	Kept    *obs.Counter
	Dropped *obs.Counter

	// Sharded-delivery state (sharded.go).
	nss    ShardedBatchSink
	nssRes bool
	shBuf  [][]Sample
}

// ConsumeBatch implements Sink. Kept samples are forwarded as maximal
// contiguous sub-slices of the incoming batch — no copying, and a filter
// that keeps whole PM groups (the monitored-PM filter does) hands each
// group downstream in a single dispatch.
func (f *Filter) ConsumeBatch(batch []Sample) {
	kept := 0
	start := -1
	for i := range batch {
		if f.Keep(batch[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			kept += i - start
			f.Next.ConsumeBatch(batch[start:i])
			start = -1
		}
	}
	if start >= 0 {
		kept += len(batch) - start
		f.Next.ConsumeBatch(batch[start:])
	}
	f.countBatch(kept, len(batch))
}

// countBatch records one batch's keep/drop split (no-op with nil counters).
func (f *Filter) countBatch(kept, total int) {
	f.Kept.Add(uint64(kept))
	f.Dropped.Add(uint64(total - kept))
}

// Decimator forwards every Nth simulation step (all of that step's samples)
// and drops the rest, implementing the measurement script's sampling
// interval. The first forwarded step is the Nth one seen, matching a script
// that samples after every N engine steps.
type Decimator struct {
	every   int
	next    Sink
	nss     ShardedBatchSink // sharded view of next, nil if none (sharded.go)
	step    int
	curTime float64
	started bool
	keep    bool

	kept    *obs.Counter // steps forwarded
	dropped *obs.Counter // steps decimated away
}

// Instrument attaches keep/drop step counters (nil-safe): every step
// decision increments exactly one of them, so kept+dropped equals the
// steps observed and dropped/(kept+dropped) is the decimation ratio.
func (d *Decimator) Instrument(kept, dropped *obs.Counter) {
	d.kept, d.dropped = kept, dropped
}

// Decimate builds a Decimator; every < 1 is treated as 1 (forward all).
func Decimate(every int, next Sink) *Decimator {
	if every < 1 {
		every = 1
	}
	nss, _ := next.(ShardedBatchSink)
	return &Decimator{every: every, next: next, nss: nss}
}

// ConsumeBatch implements Sink: one step decision per batch (all samples
// of a batch share the step time), then at most one forward.
func (d *Decimator) ConsumeBatch(batch []Sample) {
	if len(batch) == 0 {
		return
	}
	d.observeStep(batch[0].Time)
	if d.keep {
		d.next.ConsumeBatch(batch)
	}
}

// observeStep advances the step counter when t starts a new step and
// refreshes the keep decision.
func (d *Decimator) observeStep(t float64) {
	if !d.started || t != d.curTime {
		d.started = true
		d.curTime = t
		d.step++
		d.keep = d.step%d.every == 0
		if d.keep {
			d.kept.Inc()
		} else {
			d.dropped.Inc()
		}
	}
}

// Reset clears the step parity so the decimator can be reused for a fresh
// run: the next step seen counts as step 1 again. monitor.Script calls it
// when (re)attaching, so back-to-back runs never inherit phase from a
// previous campaign.
func (d *Decimator) Reset() {
	d.step, d.curTime, d.started, d.keep = 0, 0, false, false
}

// Counter counts samples per kind; useful in tests and sanity checks.
type Counter struct {
	Total  int
	ByKind [4]int
}

// ConsumeBatch implements Sink.
func (c *Counter) ConsumeBatch(batch []Sample) {
	c.Total += len(batch)
	for i := range batch {
		if k := int(batch[i].Kind); k < len(c.ByKind) {
			c.ByKind[batch[i].Kind]++
		}
	}
}
