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

// This file hosts the heterogeneous-configuration extension experiment
// (the paper's future work, Section VII): VMs with diverse VCPU counts on
// one PM, a training corpus carrying configuration features, and a
// head-to-head of the base Eq. 1-3 model against the configuration-aware
// model.

// HeteroScenario is one heterogeneous campaign: guests with individual
// VCPU counts, each driven by a CPU workload at a fraction of its own
// capacity plus optional BW / IO / memory load. FracSpread staggers the
// guests' CPU fractions so co-located guests are not perfectly correlated
// (which would leave the co-location regression ill-conditioned).
type HeteroScenario struct {
	// VCPUs lists the guests' VCPU counts (len = number of guests).
	VCPUs []int
	// CPUFrac is the mean CPU target as a fraction (0..1) of each guest's
	// capacity (100% x VCPUs).
	CPUFrac float64
	// FracSpread staggers per-guest fractions across [CPUFrac*(1-spread),
	// CPUFrac*(1+spread)].
	FracSpread float64
	// BWMbps is each guest's external bandwidth stream (staggered like the
	// CPU fraction).
	BWMbps float64
	// IOBlocks is each guest's disk workload in blocks/s.
	IOBlocks float64
	// MemMB is each guest's memory workload.
	MemMB float64
	// Samples and Seed as in MicroScenario.
	Samples int
	Seed    int64
}

// spreadFactor returns guest i's staggering multiplier.
func (sc HeteroScenario) spreadFactor(i int) float64 {
	n := len(sc.VCPUs)
	if n <= 1 || sc.FracSpread <= 0 {
		return 1
	}
	return 1 - sc.FracSpread + 2*sc.FracSpread*float64(i)/float64(n-1)
}

// RunHetero executes the scenario and returns per-sample configuration
// samples.
func RunHetero(sc HeteroScenario) ([]core.ConfigSample, error) {
	return runHetero(context.Background(), sc)
}

// runHetero is RunHetero with cancellation: the campaign aborts within one
// engine step of ctx cancel and returns ctx.Err().
func runHetero(ctx context.Context, sc HeteroScenario) ([]core.ConfigSample, error) {
	if len(sc.VCPUs) == 0 {
		return nil, fmt.Errorf("exps: hetero scenario needs at least one guest")
	}
	samples := sc.Samples
	if samples <= 0 {
		samples = 60
	}
	cl := xen.NewCluster()
	pm := cl.AddPM("pm1")
	extra := 0
	for i, v := range sc.VCPUs {
		if v < 1 {
			v = 1
		}
		extra += v - 1
		vm := cl.AddVMConfig(pm, fmt.Sprintf("vm%d", i+1), 512, v, 0)
		k := sc.spreadFactor(i)
		cpuTarget := sc.CPUFrac * k * 100 * float64(v)
		parts := []xen.Source{
			workload.New(workload.CPU, cpuTarget, workload.Options{JitterRel: 0.01, Seed: sc.Seed + int64(i)}),
			workload.New(workload.BW, sc.BWMbps*k, workload.Options{JitterRel: 0.01, Seed: sc.Seed + 100 + int64(i)}),
		}
		if sc.IOBlocks > 0 {
			parts = append(parts, workload.New(workload.IO, sc.IOBlocks*k, workload.Options{JitterRel: 0.01, Seed: sc.Seed + 200 + int64(i)}))
		}
		if sc.MemMB > 0 {
			parts = append(parts, workload.New(workload.MEM, sc.MemMB*k, workload.Options{JitterRel: 0.01, Seed: sc.Seed + 300 + int64(i)}))
		}
		vm.SetSource(workload.Combine(parts...))
	}
	e := xen.NewEngine(cl, xen.DefaultCalibration(), sc.Seed)
	defer e.Close()
	script := monitor.Script{IntervalSteps: 1, Samples: samples, Noise: monitor.DefaultNoise(), Seed: sc.Seed + 1000}
	series, err := script.RunContext(ctx, e, []*xen.PM{pm})
	if err != nil {
		return nil, err
	}
	// Runs in the saturation-squeeze regime carry no usable information for
	// the linear model (see IsSaturatedRun).
	if avg := monitor.Average(series); len(avg) > 0 && IsSaturatedRun(avg[0], xen.DefaultCalibration()) {
		return nil, nil
	}
	out := make([]core.ConfigSample, 0, samples)
	for _, s := range core.SamplesFromSeries(series) {
		out = append(out, core.ConfigSample{Sample: s, ExtraVCPUs: extra})
	}
	return out, nil
}

// HeteroCorpus builds a training corpus over diverse VM configurations:
// single guests with 1, 2 and 4 VCPUs across CPU fractions and BW levels,
// plus mixed-configuration co-locations.
func HeteroCorpus(seed int64, samplesPerRun int) (single, multi []core.ConfigSample, err error) {
	return heteroCorpus(context.Background(), seed, samplesPerRun)
}

func heteroCorpus(ctx context.Context, seed int64, samplesPerRun int) (single, multi []core.ConfigSample, err error) {
	// A dense fraction grid matters: high-VCPU guests saturate the host at
	// high fractions and those runs are filtered out, so the surviving
	// (fraction, VCPUs) combinations must still pin down the per-VCPU
	// convexity.
	fracs := []float64{0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}
	bws := []float64{0.001, 0.32, 1.28}
	// IO and memory side-load cycles de-collinearize the io/mem feature
	// columns, which pure CPU+BW campaigns would leave constant.
	ios := []float64{0, 20, 55}
	mems := []float64{0, 15, 45}
	var scenarios []HeteroScenario
	tag := int64(0)
	add := func(sc HeteroScenario) {
		tag++
		sc.Samples = samplesPerRun
		sc.Seed = seed + tag*37
		scenarios = append(scenarios, sc)
	}
	for _, v := range []int{1, 2, 4} {
		for fi, f := range fracs {
			for bi, bw := range bws {
				add(HeteroScenario{
					VCPUs: []int{v}, CPUFrac: f, BWMbps: bw,
					IOBlocks: ios[(fi+bi)%len(ios)],
					MemMB:    mems[(fi+2*bi)%len(mems)],
				})
			}
		}
	}
	// Fixed-absolute-CPU runs: the same guest CPU total on 1, 2 and 4
	// VCPUs. These separate the per-VCPU features from the utilization
	// features, which fraction sweeps alone leave nearly collinear.
	for _, v := range []int{1, 2, 4} {
		for mi, mc := range []float64{20, 45, 70, 90} {
			add(HeteroScenario{
				VCPUs: []int{v}, CPUFrac: mc / (100 * float64(v)),
				BWMbps:   bws[mi%len(bws)],
				IOBlocks: ios[mi%len(ios)],
			})
		}
	}
	for _, cfg := range [][]int{{1, 2}, {2, 2}, {1, 1, 2}, {1, 4}} {
		for fi, f := range fracs[:5] { // higher fractions saturate the pool
			for bi, bw := range bws {
				add(HeteroScenario{
					VCPUs: cfg, CPUFrac: f, FracSpread: 0.4, BWMbps: bw,
					IOBlocks: ios[(fi+2*bi)%len(ios)],
					MemMB:    mems[(fi+bi)%len(mems)],
				})
			}
		}
	}
	perRun, err := runHeteros(ctx, scenarios)
	if err != nil {
		return nil, nil, err
	}
	for _, ss := range perRun {
		for _, s := range ss {
			if s.N == 1 {
				single = append(single, s)
			} else {
				multi = append(multi, s)
			}
		}
	}
	return single, multi, nil
}

// runHeteros runs the scenarios on the campaign pool and returns each
// one's samples in its index-addressed slot.
func runHeteros(ctx context.Context, scenarios []HeteroScenario) ([][]core.ConfigSample, error) {
	perRun := make([][]core.ConfigSample, len(scenarios))
	err := runParallelCtx(ctx, len(scenarios), func(jctx context.Context, i int) error {
		ss, err := runHetero(jctx, scenarios[i])
		perRun[i] = ss
		return err
	})
	return perRun, err
}

// HeteroComparison holds the head-to-head result of the base model vs the
// configuration-aware model on held-out heterogeneous deployments.
type HeteroComparison struct {
	// MAE of the Dom0-CPU and hypervisor-CPU predictions, in CPU points.
	BaseDom0MAE, ConfigDom0MAE float64
	BaseHypMAE, ConfigHypMAE   float64
	// Eval set size.
	N int
}

// HeteroExperiment trains both models on the heterogeneous corpus and
// evaluates them on held-out mixed-configuration scenarios. A light ridge
// penalty is applied unless the caller requests a specific estimator: the
// co-location residual fits are otherwise ill-conditioned on this corpus.
func HeteroExperiment(seed int64, samplesPerRun int, opt core.FitOptions) (HeteroComparison, error) {
	return heteroExperiment(context.Background(), seed, samplesPerRun, opt)
}

func heteroExperiment(ctx context.Context, seed int64, samplesPerRun int, opt core.FitOptions) (HeteroComparison, error) {
	if opt.Method == core.MethodOLS && opt.Ridge == 0 {
		opt.Ridge = 1.0
	}
	single, multi, err := heteroCorpus(ctx, seed, samplesPerRun)
	if err != nil {
		return HeteroComparison{}, err
	}
	baseSingle := make([]core.Sample, len(single))
	for i, s := range single {
		baseSingle[i] = s.Sample
	}
	baseMulti := make([]core.Sample, len(multi))
	for i, s := range multi {
		baseMulti[i] = s.Sample
	}
	base, err := core.Train(baseSingle, baseMulti, opt)
	if err != nil {
		return HeteroComparison{}, err
	}
	cfgModel, err := core.TrainConfig(single, multi, opt)
	if err != nil {
		return HeteroComparison{}, err
	}

	// Held-out evaluation: configurations and fractions not in the corpus.
	held := []HeteroScenario{
		{VCPUs: []int{3}, CPUFrac: 0.45, BWMbps: 0.5, IOBlocks: 10},
		{VCPUs: []int{2, 1}, CPUFrac: 0.5, FracSpread: 0.3, BWMbps: 0.2, MemMB: 25},
		{VCPUs: []int{4, 1}, CPUFrac: 0.2, FracSpread: 0.2, BWMbps: 0.8},
		{VCPUs: []int{2, 2, 1}, CPUFrac: 0.25, FracSpread: 0.5, BWMbps: 0.1, IOBlocks: 30},
	}
	for i := range held {
		held[i].Samples = samplesPerRun
		held[i].Seed = seed + 9000 + int64(i)*13
	}
	perRun, err := runHeteros(ctx, held)
	if err != nil {
		return HeteroComparison{}, err
	}
	eval := slices.Concat(perRun...)

	cmp := HeteroComparison{N: len(eval)}
	for _, s := range eval {
		bp := base.PredictSample(s.Sample)
		cp := cfgModel.PredictSample(s)
		cmp.BaseDom0MAE += abs(bp.Dom0CPU - s.Dom0CPU)
		cmp.ConfigDom0MAE += abs(cp.Dom0CPU - s.Dom0CPU)
		cmp.BaseHypMAE += abs(bp.HypCPU - s.HypCPU)
		cmp.ConfigHypMAE += abs(cp.HypCPU - s.HypCPU)
	}
	if cmp.N > 0 {
		k := 1 / float64(cmp.N)
		cmp.BaseDom0MAE *= k
		cmp.ConfigDom0MAE *= k
		cmp.BaseHypMAE *= k
		cmp.ConfigHypMAE *= k
	}
	return cmp, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
