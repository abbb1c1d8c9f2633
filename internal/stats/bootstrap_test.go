package stats

import (
	"math"
	"testing"
)

func TestBootstrapCoversTruth(t *testing.T) {
	xs, ys := genLinearData(300, []float64{2.5, -0.8}, 4, 1.0, 21)
	ci, err := BootstrapOLS(xs, ys, true, 200, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	truth := []float64{4, 2.5, -0.8}
	for j, v := range truth {
		if !ci.Contains(j, v) {
			t.Errorf("coefficient %d: CI [%v, %v] misses truth %v", j, ci.Lo[j], ci.Hi[j], v)
		}
		if ci.Lo[j] > ci.Point[j] || ci.Hi[j] < ci.Point[j] {
			t.Errorf("coefficient %d: point %v outside its own CI", j, ci.Point[j])
		}
	}
	if ci.B < 100 {
		t.Errorf("replicates = %d, want most of 200", ci.B)
	}
}

func TestBootstrapWidthShrinksWithN(t *testing.T) {
	small := func(n int) float64 {
		xs, ys := genLinearData(n, []float64{3}, 1, 2.0, 33)
		ci, err := BootstrapOLS(xs, ys, true, 150, 0.9, 5)
		if err != nil {
			t.Fatal(err)
		}
		return ci.Width(1)
	}
	wSmall := small(40)
	wBig := small(1000)
	if wBig >= wSmall {
		t.Errorf("CI width should shrink with n: n=40 -> %v, n=1000 -> %v", wSmall, wBig)
	}
}

func TestBootstrapValidation(t *testing.T) {
	xs, ys := genLinearData(20, []float64{1}, 0, 0.1, 3)
	if _, err := BootstrapOLS(xs, ys[:10], true, 50, 0.9, 1); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := BootstrapOLS(xs, ys, true, 50, 0, 1); err == nil {
		t.Error("conf=0 should fail")
	}
	if _, err := BootstrapOLS(xs, ys, true, 50, 1, 1); err == nil {
		t.Error("conf=1 should fail")
	}
	if _, err := BootstrapOLS(xs, ys, true, 50, math.NaN(), 1); err == nil {
		t.Error("conf=NaN should fail")
	}
	if _, err := BootstrapOLS(nil, nil, true, 50, 0.9, 1); err == nil {
		t.Error("empty data should fail")
	}
}

func TestBootstrapDefaultReplicates(t *testing.T) {
	xs, ys := genLinearData(60, []float64{2}, 0, 0.5, 9)
	ci, err := BootstrapOLS(xs, ys, true, 0, 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ci.B < 100 {
		t.Errorf("default replicates should be ~200, got %d", ci.B)
	}
	if ci.Conf != 0.95 {
		t.Errorf("conf = %v, want 0.95", ci.Conf)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs, ys := genLinearData(50, []float64{1.5}, 2, 0.3, 11)
	a, err := BootstrapOLS(xs, ys, true, 100, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapOLS(xs, ys, true, 100, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Lo {
		if a.Lo[j] != b.Lo[j] || a.Hi[j] != b.Hi[j] {
			t.Fatal("same seed must reproduce intervals")
		}
	}
}

func TestBootstrapMean(t *testing.T) {
	xs, _ := genLinearData(80, []float64{1}, 0, 1, 17)
	d := make([]float64, len(xs))
	for i, x := range xs {
		d[i] = x[0] - 0.3
	}
	mean, lo, hi, err := BootstrapMean(d, 0, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mean != Mean(d) {
		t.Errorf("mean = %v, want Mean = %v", mean, Mean(d))
	}
	if !(lo < mean && mean < hi) {
		t.Errorf("CI [%v, %v] does not bracket the mean %v", lo, hi, mean)
	}
	m2, lo2, hi2, err := BootstrapMean(d, 200, 0.9, 5)
	if err != nil || m2 != mean || lo2 != lo || hi2 != hi {
		t.Errorf("B=0 should select 200 replicates and reproduce under the same seed")
	}

	for _, conf := range []float64{0, 1, -0.5, math.NaN()} {
		if _, _, _, err := BootstrapMean(d, 50, conf, 1); err == nil {
			t.Errorf("conf=%v should fail", conf)
		}
	}
	if _, _, _, err := BootstrapMean(nil, 50, 0.9, 1); err == nil {
		t.Error("empty data should fail")
	}
}
