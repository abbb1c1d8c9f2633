package exps

import (
	"context"
	"fmt"
	"slices"

	"virtover/internal/core"
	"virtover/internal/monitor"
	"virtover/internal/workload"
	"virtover/internal/xen"
)

// This file quantifies the paper's Section III-B argument for building
// single-resource-intensive benchmarks: training the overhead model on
// coupled multi-resource tools (httperf, iperf, Fibonacci burners) leaves
// the regression ill-conditioned — every tool knob moves CPU, bandwidth
// and I/O together, so the per-resource coefficients are not separately
// identified and the fitted model extrapolates poorly.

// IsolationResult compares a model trained on the isolated Table II
// ladders against a model trained on coupled-tool sweeps of comparable
// size, both evaluated on the same diverse held-out workload points.
type IsolationResult struct {
	// Dom0 CPU mean absolute errors on the held-out set, in CPU points.
	IsolatedDom0MAE, CoupledDom0MAE float64
	// PM BW mean absolute errors, Kb/s.
	IsolatedBWMAE, CoupledBWMAE float64
	EvalN                       int
}

// toolRun is one single-VM campaign driven by an arbitrary source.
type toolRun struct {
	src  xen.Source
	seed int64
}

// runToolScenario measures one VM driven by an arbitrary source.
func runToolScenario(ctx context.Context, src xen.Source, samples int, seed int64) ([]core.Sample, error) {
	cl := xen.NewCluster()
	pm := cl.AddPM("pm1")
	vm := cl.AddVM(pm, "vm1", 512)
	vm.SetSource(src)
	e := xen.NewEngine(cl, xen.DefaultCalibration(), seed)
	defer e.Close()
	script := monitor.Script{IntervalSteps: 1, Samples: samples, Noise: monitor.DefaultNoise(), Seed: seed + 1000}
	series, err := script.RunContext(ctx, e, []*xen.PM{pm})
	if err != nil {
		return nil, err
	}
	return core.SamplesFromSeries(series), nil
}

// toolCorpus runs the campaigns on the campaign pool and concatenates
// their samples in run order.
func toolCorpus(ctx context.Context, runs []toolRun, samplesPerRun int) ([]core.Sample, error) {
	perRun := make([][]core.Sample, len(runs))
	err := runParallelCtx(ctx, len(runs), func(jctx context.Context, i int) error {
		ss, err := runToolScenario(jctx, runs[i].src, samplesPerRun, runs[i].seed)
		perRun[i] = ss
		return err
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perRun...), nil
}

// coupledCorpus sweeps httperf request rates, iperf rates and Fibonacci
// duty cycles — the related-work training diet.
func coupledCorpus(ctx context.Context, seed int64, samplesPerRun int) ([]core.Sample, error) {
	// Seeds are fixed in one serial pass: each tool's workload seed reads
	// tag before add increments it for the campaign seed.
	var runs []toolRun
	tag := int64(0)
	add := func(src xen.Source) {
		tag++
		runs = append(runs, toolRun{src: src, seed: seed + tag*31})
	}
	prof := workload.DefaultHttperfProfile()
	for _, rate := range []float64{5, 25, 60, 110, 160} {
		add(workload.Httperf(rate, prof, workload.Options{JitterRel: 0.01, Seed: seed + tag}))
	}
	for _, mbps := range []float64{0.05, 0.3, 0.7, 1.28} {
		add(workload.Iperf(mbps, workload.Options{JitterRel: 0.01, Seed: seed + tag}))
	}
	for _, duty := range []float64{0.1, 0.35, 0.6, 0.85} {
		add(workload.Fibonacci(duty, workload.Options{JitterRel: 0.01, Seed: seed + tag}))
	}
	return toolCorpus(ctx, runs, samplesPerRun)
}

// evalCorpus holds diverse held-out mixes neither diet has seen.
func evalCorpus(ctx context.Context, seed int64, samplesPerRun int) ([]core.Sample, error) {
	mixes := []xen.Demand{
		{CPU: 70, IOBlocks: 5, Flows: []xen.Flow{{Kbps: 60}}},
		{CPU: 10, IOBlocks: 60, Flows: []xen.Flow{{Kbps: 900}}},
		{CPU: 45, MemMB: 30, IOBlocks: 25, Flows: []xen.Flow{{Kbps: 300}}},
		{CPU: 5, MemMB: 45, Flows: []xen.Flow{{Kbps: 1200}}},
		{CPU: 88, Flows: []xen.Flow{{Kbps: 20}}},
	}
	runs := make([]toolRun, len(mixes))
	for i, d := range mixes {
		runs[i] = toolRun{src: xen.SourceFunc(func(float64) xen.Demand { return d }), seed: seed + int64(i)*17}
	}
	return toolCorpus(ctx, runs, samplesPerRun)
}

// IsolationExperiment trains single-VM models on both diets and scores
// them on the shared held-out mixes.
func IsolationExperiment(seed int64, samplesPerRun int, opt core.FitOptions) (IsolationResult, error) {
	return isolationExperiment(context.Background(), seed, samplesPerRun, opt)
}

func isolationExperiment(ctx context.Context, seed int64, samplesPerRun int, opt core.FitOptions) (IsolationResult, error) {
	if samplesPerRun <= 0 {
		samplesPerRun = 30
	}
	iso, err := ladderCorpus(ctx, seed, samplesPerRun, nil, false)
	if err != nil {
		return IsolationResult{}, err
	}
	coup, err := coupledCorpus(ctx, seed, samplesPerRun)
	if err != nil {
		return IsolationResult{}, err
	}
	eval, err := evalCorpus(ctx, seed+999, samplesPerRun)
	if err != nil {
		return IsolationResult{}, err
	}
	isoModel, err := core.TrainSingle(iso, opt)
	if err != nil {
		return IsolationResult{}, fmt.Errorf("isolated fit: %w", err)
	}
	coupModel, err := core.TrainSingle(coup, opt)
	if err != nil {
		return IsolationResult{}, fmt.Errorf("coupled fit: %w", err)
	}
	res := IsolationResult{EvalN: len(eval)}
	for _, s := range eval {
		pi := isoModel.PredictSample(s)
		pc := coupModel.PredictSample(s)
		res.IsolatedDom0MAE += abs(pi.Dom0CPU - s.Dom0CPU)
		res.CoupledDom0MAE += abs(pc.Dom0CPU - s.Dom0CPU)
		res.IsolatedBWMAE += abs(pi.PM.BW - s.PM.BW)
		res.CoupledBWMAE += abs(pc.PM.BW - s.PM.BW)
	}
	if res.EvalN > 0 {
		k := 1 / float64(res.EvalN)
		res.IsolatedDom0MAE *= k
		res.CoupledDom0MAE *= k
		res.IsolatedBWMAE *= k
		res.CoupledBWMAE *= k
	}
	return res, nil
}
