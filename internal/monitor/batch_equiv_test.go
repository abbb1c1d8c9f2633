package monitor

import (
	"fmt"
	"math"
	"testing"

	"virtover/internal/sampling"
	"virtover/internal/xen"
)

// oneByOne re-delivers every batch one sample at a time — the finest cut
// the batch contract allows — so every stage downstream runs its
// per-sample state machine instead of its whole-group fast path.
type oneByOne struct{ next sampling.Sink }

func (o oneByOne) ConsumeBatch(b []sampling.Sample) {
	for i := range b {
		o.next.ConsumeBatch(b[i : i+1])
	}
}

// recSink records every sample it sees, with no sharded path, so every
// chain variant terminates identically.
type recSink struct{ samples []sampling.Sample }

func (r *recSink) ConsumeBatch(b []sampling.Sample) { r.samples = append(r.samples, b...) }

// equivEngine builds a seeded 3-PM cluster with uneven guest counts and
// time-varying workloads, plus process noise, so the streams exercise
// every branch of the pipeline (multi-guest groups, single-guest, empty).
// The engine steps with the given shard count.
func equivEngine(seed int64, shards int) (*xen.Engine, []*xen.PM) {
	cl := xen.NewCluster()
	pms := []*xen.PM{cl.AddPM("pmA"), cl.AddPM("pmB"), cl.AddPM("pmC")}
	load := func(base, amp, phase float64) xen.Source {
		return xen.SourceFunc(func(t float64) xen.Demand {
			return xen.Demand{
				CPU:      base + amp*math.Sin(t/7+phase),
				MemMB:    100 + 10*math.Cos(t/11+phase),
				IOBlocks: 20 + 5*math.Sin(t/5+phase),
				Flows:    []xen.Flow{{Kbps: 300 + 100*math.Cos(t/13+phase)}},
			}
		})
	}
	for i := 0; i < 3; i++ { // pmA: three guests
		cl.AddVM(pms[0], fmt.Sprintf("a%d", i), 512).SetSource(load(30, 10, float64(i)))
	}
	cl.AddVM(pms[1], "b0", 512).SetSource(load(55, 20, 4)) // pmB: one guest
	// pmC stays empty: its groups are just Dom-0 / hypervisor / host.
	calib := xen.DefaultCalibration()
	calib.ProcessNoiseRel = 0.01
	return xen.NewEngineWithOptions(cl, calib, seed, xen.EngineOptions{Shards: shards}), pms
}

// chainComposition is one sink chain built in front of a terminal sink.
type chainComposition struct {
	name  string
	build func(terminal sampling.Sink) sampling.Sink
}

// chainCompositions returns the chain shapes the equivalence tests run:
// a bare meter, decimated meters, a PM filter that drops whole groups, a
// filter that splits every group, and a fanout behind the meter.
func chainCompositions(seed int64) []chainComposition {
	return []chainComposition{
		{"meter", func(next sampling.Sink) sampling.Sink {
			return NewMeter(DefaultNoise(), seed, next)
		}},
		{"decimate2-meter", func(next sampling.Sink) sampling.Sink {
			return sampling.Decimate(2, NewMeter(DefaultNoise(), seed, next))
		}},
		{"decimate3-filterPM-meter", func(next sampling.Sink) sampling.Sink {
			return sampling.Decimate(3, &sampling.Filter{
				Keep: func(s sampling.Sample) bool { return s.PMID != 1 },
				Next: NewMeter(DefaultNoise(), seed, next),
			})
		}},
		{"filter-host-only", func(next sampling.Sink) sampling.Sink {
			return &sampling.Filter{
				Keep: func(s sampling.Sample) bool { return s.Kind == sampling.KindHost },
				Next: next,
			}
		}},
		{"meter-fanout", func(next sampling.Sink) sampling.Sink {
			return NewMeter(DefaultNoise(), seed, sampling.NewFanout(next, &sampling.Counter{}))
		}},
	}
}

// runComposition drives one chain composition over the equivalence
// cluster and returns the terminal's stream. With split set, the engine's
// batches are re-delivered one sample at a time.
func runComposition(seed int64, shards, steps int, tc chainComposition, split bool) []sampling.Sample {
	e, _ := equivEngine(seed, shards)
	defer e.Close()
	rec := &recSink{}
	chain := tc.build(rec)
	if split {
		chain = oneByOne{chain}
	}
	e.AttachSink(chain)
	e.Advance(steps)
	return rec.samples
}

// sameStream fails the test unless got is bit-identical to want.
func sameStream(t *testing.T, what string, want, got []sampling.Sample) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("campaign produced no samples")
	}
	if len(got) != len(want) {
		t.Fatalf("%s emitted %d samples, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d differs:\n  got:       %+v\n  reference: %+v",
				what, i, got[i], want[i])
		}
	}
}

// TestBatchScalarEquivalence: for every chain composition, whole-step
// batches and the same steps cut into one-sample batches (the Meter's and
// Filter's per-sample paths) must produce bit-identical sample streams
// from identical seeded campaigns.
func TestBatchScalarEquivalence(t *testing.T) {
	const seed = 97
	const steps = 40
	for _, tc := range chainCompositions(seed) {
		t.Run(tc.name, func(t *testing.T) {
			whole := runComposition(seed, 1, steps, tc, false)
			split := runComposition(seed, 1, steps, tc, true)
			sameStream(t, "one-sample batches", whole, split)
		})
	}
}

// TestScriptRunTwiceSameDecimation pins the Decimator.Reset contract at the
// Script level: two consecutive Run calls on one engine must both sample on
// their own interval grid, yielding equally sized series — the second run
// must not inherit step parity from the first.
func TestScriptRunTwiceSameDecimation(t *testing.T) {
	e, pms := equivEngine(5, 1)
	sc := Script{IntervalSteps: 3, Samples: 7, Noise: DefaultNoise(), Seed: 13}
	for i := 0; i < 2; i++ {
		series, err := sc.Run(e, pms[:1])
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != sc.Samples {
			t.Fatalf("run %d produced %d samples, want %d", i+1, len(series), sc.Samples)
		}
		// The interval grid restarts relative to the run's first step: the
		// gap between consecutive samples is always IntervalSteps seconds.
		for j := 1; j < len(series); j++ {
			if dt := series[j][0].Time - series[j-1][0].Time; dt != float64(sc.IntervalSteps) {
				t.Fatalf("run %d: sample gap %v at %d, want %d", i+1, dt, j, sc.IntervalSteps)
			}
		}
	}
}
