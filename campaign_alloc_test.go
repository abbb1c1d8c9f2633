package virtover_test

import (
	"io"
	"testing"

	"virtover/internal/monitor"
	"virtover/internal/sampling"
	"virtover/internal/trace"
)

// TestMeteredCampaignStepAllocs is the metered-step allocation gate, split
// by pipeline terminal because the two have different steady states:
//
//   - streaming: engine emit, decimate, meter (all tools, noise), stream
//     aggregation and CSV trace writing retain nothing, so the batched
//     pipeline holds a measured simulated second at 0 allocations; the cap
//     of 5 leaves headroom for runtime-internal noise only.
//
//   - collector: the series-retaining Collector necessarily allocates per
//     step — one guest map per PM plus the step's row — but each of those
//     is pre-sized from the previous steps (guestHint/rowHint), so the
//     paper-sized 7 PM x 4 guest cluster costs ~16 allocations per step.
//     The cap of 18 is the gate that catches the pre-sizing regressing
//     (the un-dieted Collector measured 25 here).
//
// BenchmarkCampaignStepMetered records the collector number in
// BENCH_stats.json; this test is what fails the build when it drifts.
func TestMeteredCampaignStepAllocs(t *testing.T) {
	t.Run("streaming", func(t *testing.T) {
		e := benchCampaignCluster()
		agg := monitor.NewStreamAggregator()
		csv := trace.NewCSVSink(io.Discard)
		script := monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: 7}
		detach, err := script.Attach(e, nil, sampling.NewFanout(agg, csv))
		if err != nil {
			t.Fatal(err)
		}
		defer detach()
		// Warm up: lazily created per-PM instruments, grown scratch buffers
		// and the P2 quantile estimators (which buffer their first 5
		// observations) all settle within a few steps.
		e.Advance(10)
		if allocs := testing.AllocsPerRun(100, func() { e.Advance(1) }); allocs > 5 {
			t.Fatalf("streaming metered step allocates %.1f times, want <= 5", allocs)
		}
		if err := csv.Flush(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("collector", func(t *testing.T) {
		e := benchCampaignCluster()
		col := monitor.NewCollector()
		script := monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: 7}
		detach, err := script.Attach(e, nil, col)
		if err != nil {
			t.Fatal(err)
		}
		defer detach()
		// Warm up the instruments and the collector's sizing hints.
		e.Advance(10)
		if allocs := testing.AllocsPerRun(100, func() { e.Advance(1) }); allocs > 18 {
			t.Fatalf("collector metered step allocates %.1f times, want <= 18", allocs)
		}
		if got := len(col.Series()); got < 100 {
			t.Fatalf("collector retained %d steps, want >= 100", got)
		}
	})
}
