package xen

import "fmt"

// Warm-start snapshot forking. A scenario run that settles before it
// measures repeats the same construction and warm-up every time it is
// requested. A ForkSource builds that prefix ONCE — construct the cluster,
// warm the engine, capture its EngineState — and then stamps out engines
// by rebuilding the (cheap, deterministic) topology and restoring the
// captured state into it. Because capture/restore is bit-exact and the
// engine's stepping is shard-deterministic, a forked run's trace is
// byte-identical to the same run simulated from scratch, at every shard
// count and GOMAXPROCS (make fork-determinism pins this). The estimation
// service's scenario cache is the user: warmed scenarios are keyed by
// scenario.PrefixKey and run with Scenario.RunForked.

// Forkable is implemented by stateful workload sources whose evolving
// state lives outside the engine — the jittered lookbusy generators of
// internal/workload — and must travel with an EngineState for a fork to
// replay the exact continuation. ForkState captures the state (a
// self-contained value; implementations return something cheap like a
// simrand.State), RestoreForkState rewinds a freshly built instance to it.
// RestoreForkState must accept exactly the values its own ForkState
// produces; the fork layer passes them back verbatim, index-aligned with
// the ForkBuild.Aux order the builder listed them in.
type Forkable interface {
	ForkState() any
	RestoreForkState(any)
}

// ForkBuild is one deterministic construction of a run's world: the
// cluster (topology, VM configs, attached workload sources), the stateful
// sources that need capture/restore alongside the engine (Aux, in a fixed
// order), and an arbitrary caller payload (Data) handed back verbatim from
// Fork — typically the PM handles and application objects the measured
// phase needs.
type ForkBuild struct {
	Cluster *Cluster
	Aux     []Forkable
	Data    any

	// Warm, when non-nil, replaces the default settle phase
	// (Engine.Advance(warmup)) while the prefix is being captured — use it
	// when the warm-up includes scripted events such as live migrations.
	// It must itself be deterministic. Fork ignores it: forks replay the
	// captured state instead of re-warming.
	Warm func(e *Engine, warmup int) error
}

// ForkSource is a warmed prefix: one fully constructed engine advanced
// through its warm-up, captured, and ready to be forked into any number of
// engines. The builder function must be deterministic — every call
// constructs an identical world (same topology in the same order, same
// seeds, same source wiring) — because each Fork re-runs it;
// only the *dynamic* state (EngineState plus Aux states) is carried over
// from the warmed original. A ForkSource is immutable after construction
// and safe for concurrent Fork calls.
type ForkSource struct {
	build func() (ForkBuild, error)
	calib Calibration
	seed  int64
	state EngineState
	aux   []any
	hash  uint64
}

// NewForkSource builds the prefix: it constructs the world once, runs
// warmup engine steps with no sinks attached (the settle phase is never
// measured), captures the engine and Aux state, and discards the engine.
// warmup < 0 is treated as 0. The construction engine uses the process
// default shard count; forks do too, and the captured state is valid at
// any shard count either way.
func NewForkSource(build func() (ForkBuild, error), calib Calibration, seed int64, warmup int) (*ForkSource, error) {
	if build == nil {
		return nil, fmt.Errorf("xen: NewForkSource needs a build function")
	}
	if warmup < 0 {
		warmup = 0
	}
	b, err := build()
	if err != nil {
		return nil, fmt.Errorf("xen: NewForkSource: %w", err)
	}
	if b.Cluster == nil {
		return nil, fmt.Errorf("xen: NewForkSource: build returned a nil cluster")
	}
	e := NewEngine(b.Cluster, calib, seed)
	defer e.Close()
	if b.Warm != nil {
		if err := b.Warm(e, warmup); err != nil {
			return nil, fmt.Errorf("xen: NewForkSource: warm-up: %w", err)
		}
	} else {
		e.Advance(warmup)
	}
	f := &ForkSource{build: build, calib: calib, seed: seed, state: e.CaptureState()}
	f.hash = f.state.Hash()
	if len(b.Aux) > 0 {
		f.aux = make([]any, len(b.Aux))
		for i, a := range b.Aux {
			f.aux[i] = a.ForkState()
		}
	}
	return f, nil
}

// Fork stamps out one engine: it rebuilds the world, restores the captured
// engine and Aux state into it, and returns the warmed engine together
// with the build's Data payload. The engine starts exactly where the
// prefix's warm-up ended; the caller attaches its sinks, runs the measured
// phase, and must Close the engine when done. Forks are independent — each
// owns its own cluster, sources and RNG stream — so any number may run
// concurrently.
func (f *ForkSource) Fork() (*Engine, any, error) {
	b, err := f.build()
	if err != nil {
		return nil, nil, fmt.Errorf("xen: Fork: %w", err)
	}
	if len(b.Aux) != len(f.aux) {
		return nil, nil, fmt.Errorf("xen: Fork: build returned %d forkables, prefix captured %d (builder not deterministic?)", len(b.Aux), len(f.aux))
	}
	e := NewEngine(b.Cluster, f.calib, f.seed)
	if err := e.RestoreStateInto(&f.state); err != nil {
		e.Close()
		return nil, nil, fmt.Errorf("xen: Fork: %w", err)
	}
	for i, a := range b.Aux {
		a.RestoreForkState(f.aux[i])
	}
	return e, b.Data, nil
}

// State returns a deep copy of the captured post-warm-up engine state.
func (f *ForkSource) State() EngineState { return f.state.Clone() }

// StateHash returns the FNV-1a digest of the captured state — the prefix's
// determinism witness (equal for identically built prefixes).
func (f *ForkSource) StateHash() uint64 { return f.hash }

// MemBytes approximates the prefix's cached footprint (the engine state;
// Aux states are assumed small next to it).
func (f *ForkSource) MemBytes() int { return f.state.MemBytes() }
