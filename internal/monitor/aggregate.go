package monitor

import (
	"fmt"
	"sort"
	"strings"

	"virtover/internal/sampling"
)

// StreamAggregator folds an unbounded measurement stream into O(1)-memory
// summaries per PM and metric, built on the sampling package's online
// estimators (Welford moments plus P² percentiles). Long monitoring
// campaigns (hours of 1 Hz samples) use it instead of retaining the full
// series. It is a sampling.Sink: attach it (behind a Meter) to the engine
// to aggregate live, or feed it recorded measurements via Observe.
//
// It also implements sampling.ShardedBatchSink: since sharded segments are
// PM-disjoint, each pmAgg is touched by exactly one worker and the
// estimators fold in place with no synchronization. Only samples for PMs
// without an estimator bundle yet (the first step of a campaign, or a PM
// added mid-run) are staged per shard and folded at the merge, in shard
// order — so estimator creation order, and every order-sensitive fold,
// matches the serial path exactly.
type StreamAggregator struct {
	pms map[string]*pmAgg

	pend   [][]sampling.Sample // per-shard samples awaiting a new pmAgg
	shards int
}

// MetricSummary is the exported snapshot of one metric's stream.
type MetricSummary = sampling.Summary

// pmAgg summarizes one PM's stream.
type pmAgg struct {
	pmCPU, pmIO, pmBW, pmMem *sampling.Stat
	dom0CPU, hypCPU          *sampling.Stat
}

func newPMAgg() *pmAgg {
	return &pmAgg{
		pmCPU: sampling.NewStat(), pmIO: sampling.NewStat(),
		pmBW: sampling.NewStat(), pmMem: sampling.NewStat(),
		dom0CPU: sampling.NewStat(), hypCPU: sampling.NewStat(),
	}
}

// NewStreamAggregator creates an empty aggregator.
func NewStreamAggregator() *StreamAggregator {
	return &StreamAggregator{pms: make(map[string]*pmAgg)}
}

func (a *StreamAggregator) agg(pm string) *pmAgg {
	agg := a.pms[pm]
	if agg == nil {
		agg = newPMAgg()
		a.pms[pm] = agg
	}
	return agg
}

// ConsumeBatch implements sampling.Sink over measured samples: Dom0,
// hypervisor, and host rows feed the per-PM streams (guest rows are
// ignored — the host row already carries the indirect sums). The per-PM
// estimator bundle is looked up once per run of same-PM samples (batches
// arrive grouped by PM, so that is one map probe per PM per step).
func (a *StreamAggregator) ConsumeBatch(batch []sampling.Sample) {
	var agg *pmAgg
	var pm string
	for i := range batch {
		s := &batch[i]
		if s.Kind == sampling.KindGuest {
			continue
		}
		if agg == nil || s.PM != pm {
			pm = s.PM
			agg = a.agg(pm)
		}
		agg.fold(s)
	}
}

// fold adds one non-guest sample to the PM's estimators. It is the single
// fold shared by the serial and sharded paths.
func (agg *pmAgg) fold(s *sampling.Sample) {
	switch s.Kind {
	case sampling.KindDom0:
		agg.dom0CPU.Add(s.Util.CPU)
	case sampling.KindHypervisor:
		agg.hypCPU.Add(s.Util.CPU)
	case sampling.KindHost:
		agg.pmCPU.Add(s.Util.CPU)
		agg.pmMem.Add(s.Util.Mem)
		agg.pmIO.Add(s.Util.IO)
		agg.pmBW.Add(s.Util.BW)
	}
}

// BeginShardStep implements sampling.ShardedBatchSink.
func (a *StreamAggregator) BeginShardStep(shape sampling.ShardShape) bool {
	if len(a.pend) < shape.Shards {
		pend := make([][]sampling.Sample, shape.Shards)
		copy(pend, a.pend)
		a.pend = pend
	}
	a.shards = shape.Shards
	for s := 0; s < shape.Shards; s++ {
		a.pend[s] = a.pend[s][:0]
	}
	return true
}

// ConsumeShard implements sampling.ShardedBatchSink: known PMs fold into
// their estimators right on the worker (the map is only read here —
// estimator creation is deferred to the merge); unknown PMs are staged.
func (a *StreamAggregator) ConsumeShard(shard int, seg []sampling.Sample) {
	var agg *pmAgg
	var pm string
	known := false
	for i := range seg {
		s := &seg[i]
		if s.Kind == sampling.KindGuest {
			continue
		}
		if !known || s.PM != pm {
			pm = s.PM
			agg = a.pms[pm]
			known = true
		}
		if agg == nil {
			a.pend[shard] = append(a.pend[shard], *s)
			continue
		}
		agg.fold(s)
	}
}

// FinishShardStep implements sampling.ShardedBatchSink: staged samples of
// newly seen PMs replay through the serial path in shard order, creating
// their estimators in PM order exactly as the serial step would.
func (a *StreamAggregator) FinishShardStep() {
	for s := 0; s < a.shards; s++ {
		a.ConsumeBatch(a.pend[s])
		a.pend[s] = a.pend[s][:0]
	}
}

// Observe folds one measurement into the stream by replaying it through
// the sink interface.
func (a *StreamAggregator) Observe(m Measurement) {
	PushSeries([][]Measurement{{m}}, a)
}

// ObserveSeries folds a whole recorded series through the sink interface.
func (a *StreamAggregator) ObserveSeries(series [][]Measurement) {
	PushSeries(series, a)
}

// PMSummary is the per-PM snapshot.
type PMSummary struct {
	PM                       string
	PMCPU, PMMem, PMIO, PMBW MetricSummary
	Dom0CPU, HypCPU          MetricSummary
}

// Summary returns per-PM summaries sorted by PM name.
func (a *StreamAggregator) Summary() []PMSummary {
	names := make([]string, 0, len(a.pms))
	for n := range a.pms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]PMSummary, 0, len(names))
	for _, n := range names {
		agg := a.pms[n]
		out = append(out, PMSummary{
			PM:      n,
			PMCPU:   agg.pmCPU.Summary(),
			PMMem:   agg.pmMem.Summary(),
			PMIO:    agg.pmIO.Summary(),
			PMBW:    agg.pmBW.Summary(),
			Dom0CPU: agg.dom0CPU.Summary(),
			HypCPU:  agg.hypCPU.Summary(),
		})
	}
	return out
}

// Render prints the summaries as a table.
func (a *StreamAggregator) Render() string {
	var b strings.Builder
	for _, s := range a.Summary() {
		fmt.Fprintf(&b, "%s (%d samples)\n", s.PM, s.PMCPU.N)
		row := func(name, unit string, m MetricSummary) {
			fmt.Fprintf(&b, "  %-10s mean %9.2f  std %8.2f  p50 %9.2f  p90 %9.2f  p99 %9.2f  [%s]\n",
				name, m.Mean, m.Std, m.P50, m.P90, m.P99, unit)
		}
		row("pm cpu", "%", s.PMCPU)
		row("pm mem", "MB", s.PMMem)
		row("pm io", "blk/s", s.PMIO)
		row("pm bw", "Kb/s", s.PMBW)
		row("dom0 cpu", "%", s.Dom0CPU)
		row("hyp cpu", "%", s.HypCPU)
	}
	return b.String()
}
