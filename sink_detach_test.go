package virtover_test

import (
	"io"
	"testing"

	"virtover/internal/cloudscale"
	"virtover/internal/monitor"
	"virtover/internal/sampling"
	"virtover/internal/trace"
	"virtover/internal/units"
)

// TestDetachSinkBuiltinStages attaches every built-in pipeline stage to a
// serial and a sharded engine, steps it, and detaches it again. DetachSink
// finds the sink by identity, which panics for a sink of an uncomparable
// type; every built-in stage is a pointer, so none may panic, and a
// detached stage must receive nothing more.
func TestDetachSinkBuiltinStages(t *testing.T) {
	ctl, err := cloudscale.NewHotspotController(cloudscale.DefaultHotspotConfig(
		cloudscale.Placer{Policy: cloudscale.VOU, Capacity: units.V(225, 2048, 5000, 1e6)}))
	if err != nil {
		t.Fatal(err)
	}
	hostCPU := sampling.SelectKind(sampling.KindHost, units.CPU)
	stages := []struct {
		name string
		sink func(probe *sampling.Counter) sampling.Sink
	}{
		{"Decimator", func(p *sampling.Counter) sampling.Sink { return sampling.Decimate(1, p) }},
		{"Filter", func(p *sampling.Counter) sampling.Sink {
			return &sampling.Filter{Keep: func(sampling.Sample) bool { return true }, Next: p}
		}},
		{"Meter", func(p *sampling.Counter) sampling.Sink {
			return monitor.NewMeter(monitor.DefaultNoise(), 3, p)
		}},
		{"Collector", func(*sampling.Counter) sampling.Sink { return monitor.NewCollector() }},
		{"StreamAggregator", func(*sampling.Counter) sampling.Sink { return monitor.NewStreamAggregator() }},
		{"StatSink", func(*sampling.Counter) sampling.Sink { return sampling.NewStatSink(hostCPU) }},
		{"CDFSink", func(*sampling.Counter) sampling.Sink { return sampling.NewCDFSink(hostCPU) }},
		{"Counter", func(p *sampling.Counter) sampling.Sink { return p }},
		{"Fanout", func(p *sampling.Counter) sampling.Sink {
			return sampling.NewFanout(p, sampling.NewStatSink(hostCPU))
		}},
		{"CSVSink", func(*sampling.Counter) sampling.Sink { return trace.NewCSVSink(io.Discard) }},
		{"HotspotSink", func(*sampling.Counter) sampling.Sink { return cloudscale.NewHotspotSink(ctl) }},
	}
	for _, shards := range []int{1, 2} {
		for _, st := range stages {
			e := benchCampaignClusterSharded(shards)
			probe := &sampling.Counter{}
			s := st.sink(probe)
			e.AttachSink(s)
			e.Advance(2)
			e.DetachSink(s)
			seen := probe.Total
			e.Advance(2)
			if probe.Total != seen {
				t.Errorf("shards=%d %s: received %d samples after DetachSink", shards, st.name, probe.Total-seen)
			}
			e.Close()
		}
	}
}
