package core

import (
	"math"
	"testing"

	"virtover/internal/stats"
	"virtover/internal/units"
)

// driftRows is a well-conditioned, strictly positive coefficient matrix:
// predictions stay positive over the feature ranges below, so the
// nonnegativity clamp in predictTarget never distorts the linearity the
// tests rely on.
func driftRows(scale float64) [NumTargets]Row {
	return [NumTargets]Row{
		TargetDom0CPU: {1 * scale, 0.10 * scale, 0.002 * scale, 0.05 * scale, 0.001 * scale},
		TargetHypCPU:  {0.5 * scale, 0.05 * scale, 0.001 * scale, 0.02 * scale, 0.0005 * scale},
		TargetPMMem:   {30 * scale, 0.01 * scale, 1.0 * scale, 0.0, 0.0},
		TargetPMIO:    {2 * scale, 0.0, 0.0, 1.1 * scale, 0.0},
		TargetPMBW:    {5 * scale, 0.0, 0.0, 0.0, 1.05 * scale},
	}
}

// driftSamples generates n exactly-linear single-VM samples under rows:
// every target is rows[t].Apply(VMSum), so a model with A == rows has zero
// residual on every sample. The feature walk is a deterministic LCG.
func driftSamples(rows [NumTargets]Row, n int, seed uint64) []Sample {
	out := make([]Sample, n)
	state := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / float64(1<<24) // [0,1)
	}
	for i := range out {
		v := units.V(10+80*next(), 64+400*next(), 5+60*next(), 50+900*next())
		out[i] = Sample{
			N:       1,
			VMSum:   v,
			Dom0CPU: rows[TargetDom0CPU].Apply(v),
			HypCPU:  rows[TargetHypCPU].Apply(v),
			PM: units.V(0,
				rows[TargetPMMem].Apply(v),
				rows[TargetPMIO].Apply(v),
				rows[TargetPMBW].Apply(v)),
		}
	}
	return out
}

// TestCompareOnWindowIdentical: identical models tie exactly — every
// paired delta is zero, so the interval collapses to [0,0] and the drift
// rule keeps the incumbent.
func TestCompareOnWindowIdentical(t *testing.T) {
	m := &Model{A: driftRows(1)}
	samples := driftSamples(driftRows(1), 40, 7)
	rep, err := CompareOnWindow(m, m, samples, DriftOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanDelta != 0 || rep.Lo != 0 || rep.Hi != 0 {
		t.Errorf("identical models: delta=%v CI=[%v,%v], want all zero", rep.MeanDelta, rep.Lo, rep.Hi)
	}
	if rep.Significant {
		t.Error("identical models must not be significant drift")
	}
	if rep.Conf != 0.9 || rep.B != 200 {
		t.Errorf("defaults: conf=%v b=%d, want 0.9 and 200", rep.Conf, rep.B)
	}
}

// TestCompareOnWindowDrift: the window was generated by the challenger's
// exact coefficients, so the challenger has zero residual on every sample
// while the incumbent (fitted to a scaled-up world) misses every one —
// the advantage is uniformly positive and the CI must clear zero.
func TestCompareOnWindowDrift(t *testing.T) {
	incumbent := &Model{A: driftRows(1.5)}
	challenger := &Model{A: driftRows(1)}
	samples := driftSamples(driftRows(1), 40, 11)

	rep, err := CompareOnWindow(incumbent, challenger, samples, DriftOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChallengerMAE > 1e-9 {
		t.Errorf("challenger MAE = %v on its own exact data, want ~0", rep.ChallengerMAE)
	}
	if rep.IncumbentMAE <= 1 {
		t.Errorf("incumbent MAE = %v, want clearly positive", rep.IncumbentMAE)
	}
	if !rep.Significant || rep.Lo <= 0 {
		t.Errorf("drift not detected: CI=[%v,%v] significant=%v", rep.Lo, rep.Hi, rep.Significant)
	}
	if math.Abs(rep.MeanDelta-rep.IncumbentMAE) > 1e-9 {
		t.Errorf("MeanDelta %v should equal IncumbentMAE %v when the challenger is exact", rep.MeanDelta, rep.IncumbentMAE)
	}
	if rep.Lo > rep.MeanDelta || rep.Hi < rep.MeanDelta {
		t.Errorf("point %v outside its own CI [%v,%v]", rep.MeanDelta, rep.Lo, rep.Hi)
	}

	// Reversed roles: the incumbent is exact, the challenger worse. The
	// advantage is uniformly negative — never significant.
	rev, err := CompareOnWindow(challenger, incumbent, samples, DriftOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rev.Significant || rev.Hi > 0 {
		t.Errorf("worse challenger reported as drift: CI=[%v,%v]", rev.Lo, rev.Hi)
	}
}

// TestCompareOnWindowDeterministic: same inputs, same seed, same report.
func TestCompareOnWindowDeterministic(t *testing.T) {
	incumbent := &Model{A: driftRows(1.2)}
	challenger := &Model{A: driftRows(1)}
	samples := driftSamples(driftRows(1), 30, 5)
	a, err := CompareOnWindow(incumbent, challenger, samples, DriftOptions{B: 100, Conf: 0.95, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompareOnWindow(incumbent, challenger, samples, DriftOptions{B: 100, Conf: 0.95, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	c, err := CompareOnWindow(incumbent, challenger, samples, DriftOptions{B: 100, Conf: 0.95, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.Lo == c.Lo && a.Hi == c.Hi {
		t.Error("different seeds produced identical bootstrap bounds (suspicious)")
	}
}

// TestCompareOnWindowErrors: nil models, empty windows and out-of-range
// confidence are rejected.
func TestCompareOnWindowErrors(t *testing.T) {
	m := &Model{A: driftRows(1)}
	samples := driftSamples(driftRows(1), 10, 1)
	if _, err := CompareOnWindow(nil, m, samples, DriftOptions{}); err == nil {
		t.Error("nil incumbent accepted")
	}
	if _, err := CompareOnWindow(m, nil, samples, DriftOptions{}); err == nil {
		t.Error("nil challenger accepted")
	}
	if _, err := CompareOnWindow(m, m, nil, DriftOptions{}); err == nil {
		t.Error("empty window accepted")
	}
	for _, conf := range []float64{-0.5, 1, 1.5, math.NaN()} {
		if _, err := CompareOnWindow(m, m, samples, DriftOptions{Conf: conf}); err == nil {
			t.Errorf("confidence %v accepted", conf)
		}
	}
}

// TestDriftMeanBootstrapMatchesOLS: the drift rule's direct mean bootstrap
// agrees with the intercept-only bootstrap regression it replaced (kept
// here as the reference) on a fixed corpus of noisy windows of 64..663
// samples. Both draw the same resampling indices, so Lo, Hi and the mean
// differ only by summation order — within 1e-11 relative to the larger of
// the value and the mean absolute delta — and the drift decision is the
// same on every window.
func TestDriftMeanBootstrapMatchesOLS(t *testing.T) {
	const windows = 120
	state := uint64(99)
	noise := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40)/float64(1<<24) - 0.5
	}
	var worst float64
	significant := 0
	for w := 0; w < windows; w++ {
		n := 64 + (w*211)%600
		samples := driftSamples(driftRows(1), n, uint64(w+1))
		for i := range samples {
			samples[i].Dom0CPU += 4 * noise()
			samples[i].PM.BW += 20 * noise()
		}
		incumbent := &Model{A: driftRows(1 + 0.003*float64(w%7-3))}
		challenger := &Model{A: driftRows(1 + 0.003*float64((w/7)%7-3))}
		opt := DriftOptions{Seed: int64(w)}
		rep, err := CompareOnWindow(incumbent, challenger, samples, opt)
		if err != nil {
			t.Fatal(err)
		}

		d := make([]float64, n)
		xs := make([][]float64, n)
		var scale float64
		for i, s := range samples {
			d[i] = absResidual(incumbent, s) - absResidual(challenger, s)
			xs[i] = []float64{}
			scale += math.Abs(d[i]) / float64(n)
		}
		ref, err := stats.BootstrapOLS(xs, d, true, 200, 0.9, opt.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if ref.B != rep.B {
			t.Errorf("window %d: B = %d, reference kept %d replicates", w, rep.B, ref.B)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"mean", rep.MeanDelta, ref.Point[0]},
			{"lo", rep.Lo, ref.Lo[0]},
			{"hi", rep.Hi, ref.Hi[0]},
		} {
			var rel float64
			if c.got != c.want {
				rel = math.Abs(c.got-c.want) / math.Max(scale, math.Max(math.Abs(c.got), math.Abs(c.want)))
			}
			worst = math.Max(worst, rel)
			if rel > 1e-11 {
				t.Errorf("window %d (n=%d): %s = %v, reference %v (relative %.3g)", w, n, c.name, c.got, c.want, rel)
			}
		}
		if rep.Significant != (ref.Lo[0] > 0) {
			t.Errorf("window %d (n=%d): Significant = %v, reference Lo %v", w, n, rep.Significant, ref.Lo[0])
		}
		if rep.Significant {
			significant++
		}
	}
	t.Logf("worst relative difference %.3g; %d of %d windows significant", worst, significant, windows)
	if significant == 0 || significant == windows {
		t.Errorf("%d of %d windows significant: the corpus must exercise both decisions", significant, windows)
	}
}
