package exps

import (
	"context"
	"fmt"
	"math"

	"virtover/internal/cloudscale"
	"virtover/internal/monitor"
	"virtover/internal/xen"
)

// This file hosts the elastic-scaling experiment around CloudScale's core
// mechanism [8]: a VM with a periodic demand pattern is capped online by a
// Scaler; tight caps save reservation, mispredictions starve the guest.
// The experiment compares static provisioning against the sliding-window
// and FFT-signature predictors.

// ScalingPolicy selects how the cap is driven.
type ScalingPolicy int

// Scaling policies for the experiment.
const (
	// ScaleStaticPeak reserves the guest's peak demand permanently.
	ScaleStaticPeak ScalingPolicy = iota
	// ScaleStaticMean reserves the mean demand permanently.
	ScaleStaticMean
	// ScaleSlidingWindow runs the Scaler with the max(mean,last) predictor.
	ScaleSlidingWindow
	// ScaleSignature runs the Scaler with the FFT-signature predictor.
	ScaleSignature
)

// String names the policy.
func (p ScalingPolicy) String() string {
	switch p {
	case ScaleStaticPeak:
		return "static-peak"
	case ScaleStaticMean:
		return "static-mean"
	case ScaleSlidingWindow:
		return "sliding-window"
	case ScaleSignature:
		return "fft-signature"
	default:
		return fmt.Sprintf("ScalingPolicy(%d)", int(p))
	}
}

// ScalingResult summarizes one policy's run.
type ScalingResult struct {
	Policy ScalingPolicy
	// ViolationRate is the fraction of intervals where the guest's true
	// demand exceeded its cap (SLA violation).
	ViolationRate float64
	// MeanReservation is the mean CPU cap held (% VCPU) — the resource the
	// provider must set aside.
	MeanReservation float64
	// MeanDemand is the workload's true mean demand, for reference.
	MeanDemand float64
	// Efficiency is MeanDemand / MeanReservation (1 = no waste).
	Efficiency float64
}

// ScalingConfig tunes the experiment's workload: a periodic CPU demand
// swinging mid +/- amp with the given period, measured for duration
// seconds. Square waves (bursty on/off phases, CloudScale's motivating
// pattern) reward anticipation; sine waves are gentler.
type ScalingConfig struct {
	Mid, Amp float64
	Period   float64
	// Square selects an on/off pattern instead of a sine.
	Square   bool
	Duration int
	Padding  float64
	Seed     int64
}

// DefaultScalingConfig is a bursty 20-80% on/off pattern, run long enough
// for the signature predictor to accumulate the three periods it needs
// before engaging.
func DefaultScalingConfig(seed int64) ScalingConfig {
	return ScalingConfig{Mid: 50, Amp: 30, Period: 60, Square: true, Duration: 900, Padding: 0.10, Seed: seed}
}

// ScalingExperiment runs every policy against the same workload.
func ScalingExperiment(cfg ScalingConfig) ([]ScalingResult, error) {
	return scalingExperiment(context.Background(), cfg)
}

// scalingExperiment runs the policies on the campaign pool, each on its
// own engine, and returns their results in policy order.
func scalingExperiment(ctx context.Context, cfg ScalingConfig) ([]ScalingResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 900
	}
	policies := []ScalingPolicy{ScaleStaticPeak, ScaleStaticMean, ScaleSlidingWindow, ScaleSignature}
	out := make([]ScalingResult, len(policies))
	err := runParallelCtx(ctx, len(policies), func(jctx context.Context, i int) error {
		r, err := runScalingOnce(jctx, cfg, policies[i])
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func runScalingOnce(ctx context.Context, cfg ScalingConfig, policy ScalingPolicy) (ScalingResult, error) {
	demandAt := func(t float64) float64 {
		if cfg.Square {
			if math.Mod(t, cfg.Period) < cfg.Period/2 {
				return cfg.Mid + cfg.Amp
			}
			return cfg.Mid - cfg.Amp
		}
		return cfg.Mid + cfg.Amp*math.Sin(2*math.Pi*t/cfg.Period)
	}
	cl := xen.NewCluster()
	pm := cl.AddPM("pm1")
	vm := cl.AddVM(pm, "guest", 512)
	vm.SetSource(xen.SourceFunc(func(t float64) xen.Demand {
		return xen.Demand{CPU: demandAt(t)}
	}))
	e := xen.NewEngine(cl, xen.DefaultCalibration(), cfg.Seed)
	defer e.Close()
	// Attach the measurement pipeline once; the control loop advances the
	// engine a step at a time and polls the collector for the latest row.
	col := monitor.NewCollector()
	script := monitor.Script{IntervalSteps: 1, Noise: monitor.DefaultNoise(), Seed: cfg.Seed + 5}
	detach, err := script.Attach(e, []*xen.PM{pm}, col)
	if err != nil {
		return ScalingResult{}, err
	}
	defer detach()

	var scaler *cloudscale.Scaler
	switch policy {
	case ScaleSlidingWindow:
		f := cloudscale.NewPredictor()
		f.Padding = cfg.Padding
		sc := cloudscale.DefaultScalerConfig(f)
		var err error
		scaler, err = cloudscale.NewScaler(sc)
		if err != nil {
			return ScalingResult{}, err
		}
	case ScaleSignature:
		f := cloudscale.NewSignaturePredictor()
		f.Padding = cfg.Padding
		sc := cloudscale.DefaultScalerConfig(f)
		var err error
		scaler, err = cloudscale.NewScaler(sc)
		if err != nil {
			return ScalingResult{}, err
		}
	case ScaleStaticPeak:
		vm.SetCPUCap(cfg.Mid + cfg.Amp + 1)
	case ScaleStaticMean:
		vm.SetCPUCap(cfg.Mid)
	}

	var violations int
	var capSum, demandSum float64
	for step := 0; step < cfg.Duration; step++ {
		tDemand := demandAt(e.Now()) // demand the guest will request this step
		if err := e.AdvanceContext(ctx, 1); err != nil {
			return ScalingResult{}, err
		}
		cap := vm.CPUCap()
		if cap <= 0 {
			cap = 100
		}
		if tDemand > cap {
			violations++
		}
		capSum += cap
		demandSum += tDemand
		if scaler != nil {
			m := col.Latest()[0]
			next := scaler.Step("guest", m.VMs["guest"])
			vm.SetCPUCap(next)
		}
	}
	n := float64(cfg.Duration)
	res := ScalingResult{
		Policy:          policy,
		ViolationRate:   float64(violations) / n,
		MeanReservation: capSum / n,
		MeanDemand:      demandSum / n,
	}
	if res.MeanReservation > 0 {
		res.Efficiency = res.MeanDemand / res.MeanReservation
	}
	return res, nil
}

// RenderScaling prints the comparison table.
func RenderScaling(results []ScalingResult) string {
	out := fmt.Sprintf("%-16s %14s %18s %12s\n", "policy", "violations(%)", "reservation(%cpu)", "efficiency")
	for _, r := range results {
		out += fmt.Sprintf("%-16s %14.1f %18.1f %12.2f\n",
			r.Policy, 100*r.ViolationRate, r.MeanReservation, r.Efficiency)
	}
	return out
}
