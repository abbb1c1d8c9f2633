package exps

import (
	"testing"

	"virtover/internal/core"
	"virtover/internal/stats"
)

func coefCIDigest(d *bitsDigest, ci *stats.CoefCI) {
	d.f64s(ci.Point...)
	d.f64s(ci.Lo...)
	d.f64s(ci.Hi...)
	d.u64(uint64(ci.B))
}

// TestBootstrapOLSGolden pins the coefficient bootstrap to the bit: the
// report's CoefficientCIs call on the paper-size training corpus, plus two
// small hand-built designs that drive the rank-deficient (ridge fallback)
// path, once on every replicate and once on a resample-dependent subset.
func TestBootstrapOLSGolden(t *testing.T) {
	single, _, err := TrainingCorpus(1, PaperReportConfig(1).SamplesPerRun)
	if err != nil {
		t.Fatal(err)
	}
	cis, err := core.CoefficientCIs(single, 100, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	d := newBitsDigest()
	for _, ci := range cis {
		coefCIDigest(d, ci)
	}
	if got, want := d.hex(), "aa877c71ab46309eeb3c68e6a8e1e465a082a45c7de337cf99301f8bcb973cc0"; got != want {
		t.Errorf("CoefficientCIs digest %s, want %s", got, want)
	}

	// zero: a constant-zero column makes every replicate rank deficient.
	// rare: an indicator set on two of twelve rows vanishes from some
	// resamples only, so QR and the ridge fallback interleave.
	var zero, rare [][]float64
	var ys []float64
	for i := 0; i < 12; i++ {
		x := float64(i%5) + 0.25*float64(i)
		ind := 0.0
		if i < 2 {
			ind = 1
		}
		zero = append(zero, []float64{x, 0})
		rare = append(rare, []float64{x, ind})
		ys = append(ys, 3+1.5*x+2*ind+0.1*float64(i%3))
	}
	d = newBitsDigest()
	for _, xs := range [][][]float64{zero, rare} {
		ci, err := stats.BootstrapOLS(xs, ys, true, 100, 0.9, 100)
		if err != nil {
			t.Fatal(err)
		}
		coefCIDigest(d, ci)
	}
	if got, want := d.hex(), "e9a1da0c41364296d8cf3ac13dd3530da4d6c6f2f0f9c6f6dceda3502fe78ef2"; got != want {
		t.Errorf("rank-deficient bootstrap digest %s, want %s", got, want)
	}
}
