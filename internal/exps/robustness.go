package exps

import (
	"context"
	"runtime"
	"slices"

	"virtover/internal/core"
	"virtover/internal/monitor"
	"virtover/internal/stats"
	"virtover/internal/workload"
	"virtover/internal/xen"
)

// This file hosts the robustness experiment behind the paper's choice of
// least-median-of-squares regression [24]: real measurement tools glitch —
// xentop and top occasionally report absurd spikes when a sampling
// interval straddles a scheduling boundary — and a model fitted by plain
// OLS chases those spikes while LMS ignores them.

// RobustnessResult compares OLS- and LMS-fitted models trained on a
// glitchy measurement corpus, evaluated on clean held-out measurements.
type RobustnessResult struct {
	// GlitchProb is the per-reading outlier probability used for training.
	GlitchProb float64
	// OLSDom0MAE / LMSDom0MAE: mean absolute Dom0-CPU error on the clean
	// evaluation set, in CPU points.
	OLSDom0MAE, LMSDom0MAE float64
	// OLSPMCPUErr / LMSPMCPUErr: mean relative PM-CPU error in percent.
	OLSPMCPUErr, LMSPMCPUErr float64
	// Train and eval set sizes.
	TrainN, EvalN int
}

// glitchyCorpus builds a single-VM training corpus under a glitchy noise
// profile.
func glitchyCorpus(ctx context.Context, seed int64, samplesPerRun int, glitchProb float64) ([]core.Sample, error) {
	noise := monitor.DefaultNoise()
	noise.OutlierProb = glitchProb
	noise.OutlierMul = 5
	return ladderCorpus(ctx, seed, samplesPerRun, &noise, true)
}

// ladderCorpus runs one single-VM campaign per Table II workload level,
// seeded seed + kind*1000 + level and measured under noise (nil selects
// the default profile), on the campaign pool, and concatenates the
// samples in ladder order. skipSaturated drops the runs that show the
// CPU-saturation squeeze (see IsSaturatedRun).
func ladderCorpus(ctx context.Context, seed int64, samplesPerRun int, noise *monitor.NoiseProfile, skipSaturated bool) ([]core.Sample, error) {
	var scenarios []MicroScenario
	for _, k := range workload.Kinds() {
		for lvl := 0; lvl < len(workload.Levels(k)); lvl++ {
			scenarios = append(scenarios, MicroScenario{
				N: 1, Kind: k, LevelIdx: lvl,
				Samples: samplesPerRun,
				Seed:    seed + int64(k)*1000 + int64(lvl),
				Noise:   noise,
			})
		}
	}
	calib := xen.DefaultCalibration()
	perRun := make([][]core.Sample, len(scenarios))
	err := runParallelCtx(ctx, len(scenarios), func(jctx context.Context, i int) error {
		avg, series, err := RunMicroContext(jctx, scenarios[i])
		if err != nil {
			return err
		}
		if !skipSaturated || !IsSaturatedRun(avg, calib) {
			perRun[i] = core.SamplesFromSeries(series)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perRun...), nil
}

// RobustnessExperiment trains single-VM models with OLS and LMS on a
// corpus measured by glitch-prone tools, then scores both on a clean
// corpus. glitchProb <= 0 defaults to 0.08 (about one reading in twelve).
func RobustnessExperiment(seed int64, samplesPerRun int, glitchProb float64) (RobustnessResult, error) {
	return robustnessExperiment(context.Background(), seed, samplesPerRun, glitchProb)
}

func robustnessExperiment(ctx context.Context, seed int64, samplesPerRun int, glitchProb float64) (RobustnessResult, error) {
	if glitchProb <= 0 {
		glitchProb = 0.08
	}
	if samplesPerRun <= 0 {
		samplesPerRun = 30
	}
	train, err := glitchyCorpus(ctx, seed, samplesPerRun, glitchProb)
	if err != nil {
		return RobustnessResult{}, err
	}
	clean, err := glitchyCorpus(ctx, seed+777, samplesPerRun, 0)
	if err != nil {
		return RobustnessResult{}, err
	}

	ols, err := core.TrainSingle(train, core.FitOptions{Method: core.MethodOLS})
	if err != nil {
		return RobustnessResult{}, err
	}
	// All cores are safe here: the LMS kernel fits bit-identically at any
	// worker count, so parallelism changes latency only.
	lms, err := core.TrainSingle(train, core.FitOptions{
		Method: core.MethodLMS,
		LMS:    stats.LMSOptions{Subsamples: 400, Seed: seed + 5, Workers: runtime.GOMAXPROCS(0)},
	})
	if err != nil {
		return RobustnessResult{}, err
	}

	res := RobustnessResult{GlitchProb: glitchProb, TrainN: len(train), EvalN: len(clean)}
	for _, s := range clean {
		po := ols.PredictSample(s)
		pl := lms.PredictSample(s)
		res.OLSDom0MAE += abs(po.Dom0CPU - s.Dom0CPU)
		res.LMSDom0MAE += abs(pl.Dom0CPU - s.Dom0CPU)
		if s.PM.CPU > 1 {
			res.OLSPMCPUErr += 100 * abs(po.PM.CPU-s.PM.CPU) / s.PM.CPU
			res.LMSPMCPUErr += 100 * abs(pl.PM.CPU-s.PM.CPU) / s.PM.CPU
		}
	}
	if res.EvalN > 0 {
		k := 1 / float64(res.EvalN)
		res.OLSDom0MAE *= k
		res.LMSDom0MAE *= k
		res.OLSPMCPUErr *= k
		res.LMSPMCPUErr *= k
	}
	return res, nil
}
