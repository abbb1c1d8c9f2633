package core

import (
	"fmt"
	"math"
	"testing"

	"virtover/internal/simrand"
	"virtover/internal/stats"
	"virtover/internal/units"
)

// referenceTrain is Train's OLS path written as five independent
// stats.OLS fits per stage over per-sample feature rows: the definition
// the factor-once path must reproduce bit for bit.
func referenceTrain(single, multi []Sample) (*Model, error) {
	fit := func(samples []Sample, y func(Sample, Target) float64) ([NumTargets]Row, error) {
		var rows [NumTargets]Row
		xs := make([][]float64, len(samples))
		for i, s := range samples {
			xs[i] = []float64{s.VMSum.CPU, s.VMSum.Mem, s.VMSum.IO, s.VMSum.BW}
		}
		ys := make([]float64, len(samples))
		for _, t := range Targets() {
			for i, s := range samples {
				ys[i] = y(s, t)
			}
			f, err := stats.OLS(xs, ys, true)
			if err != nil {
				return rows, err
			}
			copy(rows[t][:], f.Coef)
		}
		return rows, nil
	}
	a, err := fit(single, Sample.target)
	if err != nil {
		return nil, err
	}
	m := &Model{A: a}
	if len(multi) == 0 {
		return m, nil
	}
	m.O, err = fit(multi, func(s Sample, t Target) float64 {
		return (s.target(t) - m.A[t].Apply(s.VMSum)) / Alpha(s.N)
	})
	if err != nil {
		return nil, err
	}
	m.HasO = true
	return m, nil
}

// noisyCorpus draws n samples with N VMs each from a random coefficient
// set plus multiplicative noise. zeroIO zeroes the IO feature on every
// sample, which leaves the design's IO column empty, so QR finds it rank
// deficient and OLS falls back to ridge-stabilized normal equations.
func noisyCorpus(rng *simrand.Source, n, vms int, zeroIO bool) []Sample {
	var rows [NumTargets]Row
	for t := range rows {
		for j := range rows[t] {
			rows[t][j] = rng.Uniform(0, 2)
		}
	}
	out := make([]Sample, n)
	for i := range out {
		v := units.V(rng.Uniform(0, 100*float64(vms)), rng.Uniform(0, 512), rng.Uniform(0, 90), rng.Uniform(0, 1300))
		if zeroIO {
			v.IO = 0
		}
		y := func(t Target) float64 { return rng.Jitter(rows[t].Apply(v), 0.05) }
		out[i] = Sample{
			N: vms, VMSum: v,
			Dom0CPU: y(TargetDom0CPU), HypCPU: y(TargetHypCPU),
			PM: units.V(0, y(TargetPMMem), y(TargetPMIO), y(TargetPMBW)),
		}
	}
	return out
}

func sameBits(a, b [NumTargets]Row) bool {
	for t := range a {
		for j := range a[t] {
			if math.Float64bits(a[t][j]) != math.Float64bits(b[t][j]) {
				return false
			}
		}
	}
	return true
}

// TestTrainMatchesPerTargetOLS pins the factor-once OLS path: on random
// corpora of every size from exactly determined up, with and without a
// co-location stage, and with an all-zero feature column in either stage
// (forcing the ridge fallback), Train's coefficients equal five separate
// stats.OLS fits per stage, bit for bit.
func TestTrainMatchesPerTargetOLS(t *testing.T) {
	rng := simrand.New(20150901)
	for _, n := range []int{5, 6, 9, 64, 512, 1000} {
		for _, c := range []struct {
			multi              bool
			zeroSingle, zeroCo bool
		}{{}, {multi: true}, {zeroSingle: true}, {multi: true, zeroCo: true}, {multi: true, zeroSingle: true, zeroCo: true}} {
			name := fmt.Sprintf("n%d/%+v", n, c)
			single := noisyCorpus(rng, n, 1, c.zeroSingle)
			var multi []Sample
			if c.multi {
				for _, vms := range []int{2, 3, 5} {
					multi = append(multi, noisyCorpus(rng, n, vms, c.zeroCo)...)
				}
			}
			got, err := Train(single, multi, FitOptions{})
			if err != nil {
				t.Fatalf("%s: Train: %v", name, err)
			}
			want, err := referenceTrain(single, multi)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if got.HasO != want.HasO || !sameBits(got.A, want.A) || !sameBits(got.O, want.O) {
				t.Fatalf("%s: Train differs from per-target OLS\ngot  %v\nwant %v", name, got, want)
			}
		}
	}
}

// TestTrainTooFewSamples keeps OLS's shape error on both stages.
func TestTrainTooFewSamples(t *testing.T) {
	rng := simrand.New(3)
	if _, err := Train(noisyCorpus(rng, 4, 1, false), nil, FitOptions{}); err == nil {
		t.Error("Train on 4 single samples: want an error")
	}
	if _, err := Train(noisyCorpus(rng, 50, 1, false), noisyCorpus(rng, 4, 2, false), FitOptions{}); err == nil {
		t.Error("Train on 4 multi samples: want an error")
	}
}
