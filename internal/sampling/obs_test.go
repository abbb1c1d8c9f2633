package sampling

import (
	"fmt"
	"testing"

	"virtover/internal/obs"
)

func hostBatch(t float64, n int) []Sample {
	b := make([]Sample, n)
	for i := range b {
		b[i] = Sample{Time: t, PMID: i, PM: fmt.Sprintf("pm%d", i), Kind: KindHost}
	}
	return b
}

// TestDecimatorCounters: every step decision increments exactly one of the
// keep/drop counters, once per step regardless of batch size.
func TestDecimatorCounters(t *testing.T) {
	reg := obs.NewRegistry()
	kept := reg.Counter("kept", "")
	dropped := reg.Counter("dropped", "")
	var out Counter
	d := Decimate(3, &out)
	d.Instrument(kept, dropped)
	for step := 1; step <= 9; step++ {
		d.ConsumeBatch(hostBatch(float64(step), 4))
	}
	if kept.Value() != 3 || dropped.Value() != 6 {
		t.Errorf("kept/dropped = %d/%d, want 3/6", kept.Value(), dropped.Value())
	}
	if out.Total != 3*4 {
		t.Errorf("forwarded samples = %d, want 12", out.Total)
	}
	// A step split into one-sample batches still counts once.
	d2 := Decimate(2, &out)
	d2.Instrument(kept, dropped)
	for step := 1; step <= 4; step++ {
		for i := 0; i < 3; i++ {
			d2.ConsumeBatch([]Sample{{Time: float64(step), PMID: i}})
		}
	}
	if kept.Value() != 3+2 || dropped.Value() != 6+2 {
		t.Errorf("after split-batch run kept/dropped = %d/%d, want 5/8", kept.Value(), dropped.Value())
	}
}

// TestFilterCounters: each sample counts once on whichever side of the
// filter it lands, however the step is cut into batches.
func TestFilterCounters(t *testing.T) {
	reg := obs.NewRegistry()
	var out Counter
	f := &Filter{
		Keep:    func(s Sample) bool { return s.PMID == 1 },
		Next:    &out,
		Kept:    reg.Counter("kept", ""),
		Dropped: reg.Counter("dropped", ""),
	}
	f.ConsumeBatch(hostBatch(1, 4)) // PMIDs 0..3: keeps exactly PMID 1
	f.ConsumeBatch([]Sample{{Time: 2, PMID: 1}})
	f.ConsumeBatch([]Sample{{Time: 2, PMID: 2}})
	if f.Kept.Value() != 2 || f.Dropped.Value() != 4 {
		t.Errorf("kept/dropped = %d/%d, want 2/4", f.Kept.Value(), f.Dropped.Value())
	}
	if out.Total != 2 {
		t.Errorf("forwarded = %d, want 2", out.Total)
	}
}

// fixedErrSink is a failable sink with a preset error, following the
// pipeline's Err() convention.
type fixedErrSink struct{ err error }

func (e *fixedErrSink) ConsumeBatch([]Sample) {}
func (e *fixedErrSink) Err() error            { return e.err }
