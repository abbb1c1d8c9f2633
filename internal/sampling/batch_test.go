package sampling

import (
	"testing"

	"virtover/internal/units"
)

// recordBatch records samples and the batch boundaries it observed.
type recordBatch struct {
	samples []Sample
	batches []int // lengths of ConsumeBatch calls
}

func (r *recordBatch) ConsumeBatch(b []Sample) {
	r.samples = append(r.samples, b...)
	r.batches = append(r.batches, len(b))
}

// stepBatch builds one step's batch: g guests plus dom0/hyp/host on one PM.
func stepBatch(t float64, pmID int, g int) []Sample {
	b := make([]Sample, 0, g+3)
	for i := 0; i < g; i++ {
		b = append(b, Sample{Time: t, PMID: pmID, PM: "pm", VMID: i,
			Domain: string(rune('a' + i)), Kind: KindGuest, Util: units.V(float64(i), 0, 0, 0)})
	}
	b = append(b, Sample{Time: t, PMID: pmID, PM: "pm", VMID: -1, Domain: LabelDom0, Kind: KindDom0})
	b = append(b, Sample{Time: t, PMID: pmID, PM: "pm", VMID: -1, Domain: LabelHypervisor, Kind: KindHypervisor})
	b = append(b, Sample{Time: t, PMID: pmID, PM: "pm", VMID: -1, Domain: LabelHost, Kind: KindHost})
	return b
}

func sameSamples(t *testing.T, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFilterBatchForwardsKeptRuns(t *testing.T) {
	var rb recordBatch
	f := &Filter{Keep: func(s Sample) bool { return s.Kind != KindGuest }, Next: &rb}
	b := stepBatch(1, 0, 3)
	f.ConsumeBatch(b)
	// Guests dropped; the dom0/hyp/host run forwarded as one sub-batch.
	if len(rb.batches) != 1 || rb.batches[0] != 3 {
		t.Fatalf("batch boundaries = %v, want [3]", rb.batches)
	}
	sameSamples(t, rb.samples, b[3:])

	// A filter keeping everything forwards the whole batch in one dispatch.
	rb = recordBatch{}
	all := &Filter{Keep: func(Sample) bool { return true }, Next: &rb}
	all.ConsumeBatch(b)
	if len(rb.batches) != 1 || rb.batches[0] != len(b) {
		t.Fatalf("batch boundaries = %v, want [%d]", rb.batches, len(b))
	}
}

// TestFilterBatchScalarNext: an isolated kept sample (the host row, with
// everything around it dropped) reaches Next as a one-sample batch.
func TestFilterBatchScalarNext(t *testing.T) {
	var rb recordBatch
	f := &Filter{Keep: func(s Sample) bool { return s.Kind == KindHost }, Next: &rb}
	b := stepBatch(2, 0, 2)
	f.ConsumeBatch(b)
	sameSamples(t, rb.samples, b[len(b)-1:])
	if len(rb.batches) != 1 || rb.batches[0] != 1 {
		t.Fatalf("batch boundaries = %v, want [1]", rb.batches)
	}
}

// TestDecimatorBatchMatchesScalar: a step delivered sample by sample (as
// one-sample batches, which the batch contract allows) is decimated
// exactly like the same step delivered whole.
func TestDecimatorBatchMatchesScalar(t *testing.T) {
	for _, every := range []int{1, 2, 3, 5} {
		var viaBatch, viaSplit recordBatch
		db := Decimate(every, &viaBatch)
		ds := Decimate(every, &viaSplit)
		for step := 1; step <= 12; step++ {
			b := stepBatch(float64(step), 0, 2)
			db.ConsumeBatch(b)
			for i := range b {
				ds.ConsumeBatch(b[i : i+1])
			}
		}
		sameSamples(t, viaBatch.samples, viaSplit.samples)
		// The batch path makes one keep decision and one dispatch per kept
		// step.
		if want := 12 / every; len(viaBatch.batches) != want {
			t.Fatalf("every=%d: %d forwarded batches, want %d", every, len(viaBatch.batches), want)
		}
	}
}

// A decimator reused across runs must not inherit step parity: Reset
// restores the fresh behavior.
func TestDecimatorResetClearsParity(t *testing.T) {
	var c Counter
	d := Decimate(3, &c)
	// First run stops mid-cycle: 4 steps, only step 3 forwarded.
	for step := 1; step <= 4; step++ {
		d.ConsumeBatch(stepBatch(float64(step), 0, 0))
	}
	if c.Total != 3 {
		t.Fatalf("first run forwarded %d samples, want 3", c.Total)
	}
	d.Reset()
	c = Counter{}
	// Second run re-feeds the same times; without Reset the stale curTime
	// and parity would shift which steps are kept.
	for step := 1; step <= 6; step++ {
		d.ConsumeBatch(stepBatch(float64(step), 0, 0))
	}
	if c.Total != 6 { // steps 3 and 6, three samples each
		t.Fatalf("after Reset forwarded %d samples, want 6", c.Total)
	}
}

// TestFanoutBatchMixedSinks: on the serial path every member — with a
// sharded path or without — gets the whole batch in one dispatch.
func TestFanoutBatchMixedSinks(t *testing.T) {
	var rb recordBatch
	var c Counter
	cdf := NewCDFSink(SelectKind(KindGuest, units.CPU))
	b := stepBatch(1, 0, 2)
	NewFanout(&rb, cdf, &c).ConsumeBatch(b)
	sameSamples(t, rb.samples, b)
	if len(rb.batches) != 1 {
		t.Fatalf("member saw %d dispatches, want 1", len(rb.batches))
	}
	if got := cdf.Values(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("sharded-capable member values = %v, want [0 1]", got)
	}
	if c.Total != len(b) {
		t.Fatalf("counter total = %d, want %d", c.Total, len(b))
	}
}

func TestCounterBatch(t *testing.T) {
	var c Counter
	c.ConsumeBatch(stepBatch(1, 0, 3))
	if c.Total != 6 || c.ByKind[KindGuest] != 3 || c.ByKind[KindHost] != 1 {
		t.Fatalf("counter = %+v", c)
	}
}

func TestStatAndCDFSinkBatch(t *testing.T) {
	stat := NewStatSink(SelectKind(KindGuest, units.CPU))
	cdf := NewCDFSink(SelectKind(KindGuest, units.CPU))
	for step := 1; step <= 5; step++ {
		b := stepBatch(float64(step), 0, 3) // guest CPUs 0,1,2 each step
		stat.ConsumeBatch(b)
		cdf.ConsumeBatch(b)
	}
	if sum := stat.Summary(); sum.N != 15 || sum.Min != 0 || sum.Max != 2 {
		t.Fatalf("stat summary = %+v", sum)
	}
	if len(cdf.Values()) != 15 {
		t.Fatalf("cdf retained %d values, want 15", len(cdf.Values()))
	}
}
