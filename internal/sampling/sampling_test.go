package sampling

import (
	"math"
	"testing"

	"virtover/internal/units"
)

// emit pushes n steps of a two-domain stream (one guest + one host row per
// step) into sink, one batch per step.
func emit(sink Sink, steps int) {
	for i := 0; i < steps; i++ {
		t := float64(i + 1)
		sink.ConsumeBatch([]Sample{
			{Time: t, PMID: 0, PM: "pm1", VMID: 0, Domain: "vm1",
				Kind: KindGuest, Util: units.V(float64(10+i), 100, 1, 10)},
			{Time: t, PMID: 0, PM: "pm1", VMID: -1, Domain: LabelHost,
				Kind: KindHost, Util: units.V(float64(20+i), 200, 2, 20)},
		})
	}
}

func TestFanoutDeliversToAll(t *testing.T) {
	var a, b Counter
	emit(NewFanout(&a, &b), 3)
	if a.Total != 6 || b.Total != 6 {
		t.Fatalf("fanout totals = %d, %d; want 6, 6", a.Total, b.Total)
	}
	if a.ByKind[KindGuest] != 3 || a.ByKind[KindHost] != 3 {
		t.Fatalf("fanout kinds = %v", a.ByKind)
	}
}

func TestFilter(t *testing.T) {
	var c Counter
	f := &Filter{Keep: func(s Sample) bool { return s.Kind == KindHost }, Next: &c}
	emit(f, 4)
	if c.Total != 4 || c.ByKind[KindGuest] != 0 {
		t.Fatalf("filter passed %d samples (%v), want 4 host rows", c.Total, c.ByKind)
	}
}

func TestDecimatorForwardsEveryNthStep(t *testing.T) {
	var c Counter
	emit(Decimate(3, &c), 10)
	// Steps 3, 6, 9 forwarded, two samples each.
	if c.Total != 6 {
		t.Fatalf("decimated total = %d, want 6", c.Total)
	}
	var rb recordBatch
	emit(Decimate(2, &rb), 5)
	var times []float64
	for _, s := range rb.samples {
		if s.Kind == KindHost {
			times = append(times, s.Time)
		}
	}
	want := []float64{2, 4}
	if len(times) != len(want) {
		t.Fatalf("decimated host times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("decimated host times = %v, want %v", times, want)
		}
	}
}

func TestDecimatorEveryOneKeepsAll(t *testing.T) {
	var c Counter
	emit(Decimate(0, &c), 4)
	if c.Total != 8 {
		t.Fatalf("every<1 total = %d, want all 8", c.Total)
	}
}

func TestStatSinkSummary(t *testing.T) {
	s := NewStatSink(SelectKind(KindHost, units.CPU))
	emit(s, 100)
	sum := s.Summary()
	if sum.N != 100 {
		t.Fatalf("N = %d, want 100", sum.N)
	}
	// Host CPU ramps 20..119: mean 69.5.
	if math.Abs(sum.Mean-69.5) > 1e-9 {
		t.Errorf("mean = %v, want 69.5", sum.Mean)
	}
	if sum.Min != 20 || sum.Max != 119 {
		t.Errorf("min/max = %v/%v, want 20/119", sum.Min, sum.Max)
	}
	if math.Abs(sum.P50-69.5) > 3 {
		t.Errorf("p50 = %v, want ~69.5", sum.P50)
	}
}

func TestSelectors(t *testing.T) {
	smp := Sample{PM: "pm2", Domain: "vmX", Kind: KindGuest, Util: units.V(7, 8, 9, 10)}
	if v, ok := SelectKind(KindGuest, units.Mem)(smp); !ok || v != 8 {
		t.Errorf("SelectKind = %v, %v", v, ok)
	}
	if _, ok := SelectKind(KindHost, units.Mem)(smp); ok {
		t.Error("SelectKind matched wrong kind")
	}
	if v, ok := SelectPM("pm2", KindGuest, units.BW)(smp); !ok || v != 10 {
		t.Errorf("SelectPM = %v, %v", v, ok)
	}
	if _, ok := SelectPM("pm1", KindGuest, units.BW)(smp); ok {
		t.Error("SelectPM matched wrong PM")
	}
	if v, ok := SelectDomain("vmX", units.CPU)(smp); !ok || v != 7 {
		t.Errorf("SelectDomain = %v, %v", v, ok)
	}
}

func TestCDFSink(t *testing.T) {
	c := NewCDFSink(SelectKind(KindGuest, units.CPU))
	emit(c, 10)
	if len(c.Values()) != 10 {
		t.Fatalf("CDF values = %d, want 10", len(c.Values()))
	}
	cdf := c.CDF()
	// Guest CPU ramps 10..19; everything is <= 19.
	if got := cdf.At(19); got != 1 {
		t.Errorf("CDF at max = %v, want 1", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindGuest: "guest", KindDom0: "dom0",
		KindHypervisor: "hypervisor", KindHost: "host", Kind(99): "unknown"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
