package core

import (
	"errors"
	"fmt"

	"virtover/internal/stats"
)

// Model comparison for drift detection: the continuously-learning
// estimation service (internal/serve) periodically refits a challenger
// model per tenant from that tenant's live telemetry window and must
// decide whether the challenger is a real improvement — drift in the
// tenant's workload — or just noise. The decision is a percentile
// bootstrap confidence interval on the mean paired per-sample residual
// advantage of the challenger over the incumbent (stats.BootstrapMean).
// That kernel draws the same resampling indices as an intercept-only
// bootstrap regression, whose intercept is the sample mean, but sums each
// replicate directly instead of refitting it, so it runs on every refit at
// the cost of B passes over the window.

// DriftOptions configures CompareOnWindow. The zero value selects the
// documented defaults.
type DriftOptions struct {
	// B is the number of bootstrap replicates (<= 0 selects 200).
	B int
	// Conf is the two-sided confidence level of the interval (0 selects
	// 0.9). Higher confidence swaps less eagerly.
	Conf float64
	// Seed drives the bootstrap resampling. Comparisons are deterministic
	// in (samples, models, B, Conf, Seed).
	Seed int64
}

func (o DriftOptions) withDefaults() (DriftOptions, error) {
	if o.B <= 0 {
		o.B = 200
	}
	if o.Conf == 0 {
		o.Conf = 0.9
	}
	if !(o.Conf > 0 && o.Conf < 1) {
		return o, fmt.Errorf("core: %w: drift confidence %v out of (0,1)", ErrBadOptions, o.Conf)
	}
	return o, nil
}

// DriftReport is the outcome of one incumbent-vs-challenger comparison.
type DriftReport struct {
	// IncumbentMAE and ChallengerMAE are each model's mean absolute
	// residual per sample, summed across the five targets.
	IncumbentMAE, ChallengerMAE float64
	// MeanDelta is the mean paired advantage: per-sample incumbent
	// absolute residual minus challenger absolute residual. Positive
	// means the challenger fits the window better.
	MeanDelta float64
	// Lo and Hi bound MeanDelta at confidence Conf (percentile
	// bootstrap, B replicates).
	Lo, Hi float64
	Conf   float64
	B      int
	// Significant reports Lo > 0: the challenger beats the incumbent on
	// the whole interval, i.e. the tenant's workload has drifted away
	// from what the incumbent was fitted on.
	Significant bool
}

// absResidual is a model's absolute residual on one sample, summed across
// the five fitted targets (PM CPU is derived, not fitted, and excluded).
func absResidual(m *Model, s Sample) float64 {
	p := m.PredictSample(s)
	r := abs(p.Dom0CPU - s.Dom0CPU)
	r += abs(p.HypCPU - s.HypCPU)
	r += abs(p.PM.Mem - s.PM.Mem)
	r += abs(p.PM.IO - s.PM.IO)
	r += abs(p.PM.BW - s.PM.BW)
	return r
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// CompareOnWindow scores challenger against incumbent on a shared
// evaluation window and bootstraps a confidence interval on the mean
// paired residual advantage. The report's Significant field is the
// service's drift rule: swap only when the interval's lower bound clears
// zero. Note the comparison is in-sample for the challenger (it was
// typically fitted on this very window), which biases mildly toward
// swapping; the CI gate is what keeps noise-level "improvements" from
// churning the served model.
func CompareOnWindow(incumbent, challenger *Model, samples []Sample, opt DriftOptions) (*DriftReport, error) {
	if incumbent == nil || challenger == nil {
		return nil, errors.New("core: CompareOnWindow: nil model")
	}
	if len(samples) == 0 {
		return nil, errors.New("core: CompareOnWindow: no samples")
	}
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(samples)
	d := make([]float64, n)
	rep := &DriftReport{Conf: opt.Conf}
	for i, s := range samples {
		ri := absResidual(incumbent, s)
		rc := absResidual(challenger, s)
		rep.IncumbentMAE += ri
		rep.ChallengerMAE += rc
		d[i] = ri - rc
	}
	rep.IncumbentMAE /= float64(n)
	rep.ChallengerMAE /= float64(n)

	rep.MeanDelta, rep.Lo, rep.Hi, err = stats.BootstrapMean(d, opt.B, opt.Conf, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: CompareOnWindow: %w", err)
	}
	rep.B = opt.B
	rep.Significant = rep.Lo > 0
	return rep, nil
}
