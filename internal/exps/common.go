// Package exps reproduces every table and figure of the paper's
// measurement study and evaluation. Each figure has a generator returning
// structured series plus a text renderer; cmd binaries and the benchmark
// harness call these generators.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table I    — measurement-tool capability matrix (internal/monitor)
//	Table II   — workload intensity ladders
//	Table III  — overhead-definition matrix
//	Fig. 2-4   — micro-benchmark utilizations for 1/2/4 co-located VMs
//	Fig. 5     — intra-PM bandwidth workload
//	Fig. 7-9   — RUBiS trace-driven prediction-error CDFs
//	Fig. 10    — VOA vs VOU placement performance
package exps

import (
	"context"
	"fmt"
	"math"
	"strings"

	"virtover/internal/core"
	"virtover/internal/monitor"
	"virtover/internal/obs"
	"virtover/internal/viz"
	"virtover/internal/workload"
	"virtover/internal/xen"
)

// Series is one plotted curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced figure: an identifier matching the paper, axis
// labels, and one or more series.
type Figure struct {
	ID     string // e.g. "2(a)"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Plot draws the figure as an ASCII line chart.
func (f Figure) Plot() string {
	series := make([]viz.Series, len(f.Series))
	for i, s := range f.Series {
		series[i] = viz.Series{Name: s.Name, X: s.X, Y: s.Y}
	}
	return viz.Chart(series, viz.Options{
		Title:  fmt.Sprintf("Figure %s: %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
	})
}

// Render draws the figure as an aligned text table, one x-row per line.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-24s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	fmt.Fprintf(&b, "    [%s]\n", f.YLabel)
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&b, "%-24.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%16.4g", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MicroScenario describes one micro-benchmark campaign: N identical VMs on
// one PM running the same Table II workload level, measured by the script
// at 1 Hz from the first simulated second, with no settle phase.
type MicroScenario struct {
	N        int
	Kind     workload.Kind
	LevelIdx int
	// Samples is the number of 1-second samples (paper: 120).
	Samples int
	// Seed drives simulator noise, workload jitter and tool noise.
	Seed int64
	// IntraPMTarget, when true, points the BW workload of the first VM at a
	// co-located idle VM instead of an external host (Figure 5). Only the
	// first VM sends.
	IntraPMTarget bool
	// Noise overrides the measurement-tool noise profile (nil selects
	// monitor.DefaultNoise). The robustness experiment uses this to inject
	// tool glitches.
	Noise *monitor.NoiseProfile
	// Obs, when non-nil, instruments the campaign's engine and sample
	// pipeline on that registry. Nil falls back to the package-wide
	// registry set via SetObservability (itself nil by default).
	Obs *obs.Registry
}

// RunMicro executes the scenario and returns the averaged measurement (what
// the paper reports) plus the raw per-sample series (used for model
// training). It is RunMicroContext under context.Background().
func RunMicro(sc MicroScenario) (monitor.Measurement, [][]monitor.Measurement, error) {
	return RunMicroContext(context.Background(), sc)
}

// RunMicroContext is RunMicro with cancellation: the campaign's engine
// checks ctx before every step, so cancellation aborts the run within one
// engine step and the error satisfies errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded). The measured series of a canceled run is
// discarded.
func RunMicroContext(ctx context.Context, sc MicroScenario) (monitor.Measurement, [][]monitor.Measurement, error) {
	if sc.N <= 0 {
		return monitor.Measurement{}, nil, fmt.Errorf("exps: scenario needs N >= 1, got %d", sc.N)
	}
	if sc.IntraPMTarget && sc.N < 2 {
		return monitor.Measurement{}, nil, fmt.Errorf("exps: intra-PM scenario needs N >= 2")
	}
	samples := sc.Samples
	if samples <= 0 {
		samples = 120
	}
	cl, pm := microBuild(sc)
	e := xen.NewEngine(cl, xen.DefaultCalibration(), sc.Seed)
	defer e.Close()
	noise := monitor.DefaultNoise()
	if sc.Noise != nil {
		noise = *sc.Noise
	}
	reg := observability(sc.Obs)
	e.Instrument(reg)
	script := monitor.Script{IntervalSteps: 1, Samples: samples, Noise: noise, Seed: sc.Seed + 1000, Obs: reg}
	series, err := script.RunContext(ctx, e, []*xen.PM{pm})
	if err != nil {
		return monitor.Measurement{}, nil, err
	}
	return monitor.Average(series)[0], series, nil
}

// microBuild constructs a micro-benchmark world: N identical VMs on one PM
// running the scenario's Table II workload. It returns the measured PM.
func microBuild(sc MicroScenario) (*xen.Cluster, *xen.PM) {
	cl := xen.NewCluster()
	pm := cl.AddPM("pm1")
	vms := make([]*xen.VM, sc.N)
	for i := range vms {
		vms[i] = cl.AddVM(pm, fmt.Sprintf("vm%d", i+1), 512)
	}
	opt := workload.Options{JitterRel: 0.01, Seed: sc.Seed + 17}
	if sc.IntraPMTarget {
		opt.BWTarget = vms[1].Name
		vms[0].SetSource(workload.NewLevel(sc.Kind, sc.LevelIdx, opt))
	} else {
		for i, vm := range vms {
			o := opt
			o.Seed = sc.Seed + 17 + int64(i)
			vm.SetSource(workload.NewLevel(sc.Kind, sc.LevelIdx, o))
		}
	}
	return cl, pm
}

// IsSaturatedRun reports whether a run-averaged measurement shows the
// CPU-saturation squeeze of Section IV-B: Dom0 and the hypervisor pinned
// simultaneously at their squeezed plateaus (23.4% / 12.0%) on a heavily
// loaded host. Samples from such runs do not follow the linear overhead
// relationship of Eq. 1-3 (the plateaus are scheduler artifacts, not
// workload responses), so the corpus builders exclude those runs; feeding
// them to the regression corrupts the coefficients.
//
// Both plateaus together are the discriminator: either value alone is
// crossed legitimately on the way up (e.g. Dom0 passes 23.4% under
// bandwidth load while the hypervisor stays near 3%).
func IsSaturatedRun(avg monitor.Measurement, calib xen.Calibration) bool {
	const tol = 1.2
	return avg.Host.CPU > 150 &&
		math.Abs(avg.Dom0.CPU-calib.Dom0SatCPU) < tol &&
		math.Abs(avg.HypervisorCPU-calib.HypSatCPU) < tol
}

// TrainingCorpus runs the full micro-benchmark study (every workload
// family, every Table II level, N in {1,2,4}) and splits the per-sample
// measurements into single-VM and multi-VM model samples, which is exactly
// the data the paper derives its model from (Section V). Runs showing the
// CPU-saturation squeeze (see IsSaturatedRun) are excluded: the linear
// model only describes the unsaturated regime.
func TrainingCorpus(seed int64, samplesPerRun int) (single, multi []core.Sample, err error) {
	return trainingCorpusCtx(context.Background(), seed, samplesPerRun)
}

func trainingCorpusCtx(ctx context.Context, seed int64, samplesPerRun int) (single, multi []core.Sample, err error) {
	calib := xen.DefaultCalibration()
	var scenarios []MicroScenario
	for _, n := range []int{1, 2, 4} {
		for _, k := range workload.Kinds() {
			for lvl := 0; lvl < len(workload.Levels(k)); lvl++ {
				scenarios = append(scenarios, MicroScenario{
					N: n, Kind: k, LevelIdx: lvl,
					Samples: samplesPerRun,
					Seed:    seed + int64(n)*100000 + int64(k)*1000 + int64(lvl),
				})
			}
		}
	}
	// Campaigns are independent simulations: run them on all cores and
	// flatten in scenario order so the corpus is deterministic.
	perRun := make([][]core.Sample, len(scenarios))
	err = runParallelCtx(ctx, len(scenarios), func(jctx context.Context, i int) error {
		avg, series, rerr := RunMicroContext(jctx, scenarios[i])
		if rerr != nil {
			return rerr
		}
		if IsSaturatedRun(avg, calib) {
			return nil
		}
		perRun[i] = core.SamplesFromSeries(series)
		return nil
	})
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

// FitModel builds the training corpus and fits the overhead model.
// samplesPerRun <= 0 selects a fast default (30) that already yields tight
// fits; the paper's 120 works too and is used by cmd/fitmodel. It is
// FitModelContext under context.Background().
func FitModel(seed int64, samplesPerRun int, opt core.FitOptions) (*core.Model, error) {
	return FitModelContext(context.Background(), seed, samplesPerRun, opt)
}

// FitModelContext is FitModel with cancellation: the corpus campaigns stop
// dispatching when ctx is canceled, every in-flight campaign aborts within
// one engine step, and the error is ctx.Err(). The fitted coefficients for
// an uncanceled run are bit-identical to FitModel's for the same seed and
// options.
func FitModelContext(ctx context.Context, seed int64, samplesPerRun int, opt core.FitOptions) (*core.Model, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if samplesPerRun <= 0 {
		samplesPerRun = 30
	}
	m, _, err := fitModelCorpus(ctx, seed, samplesPerRun, opt)
	return m, err
}

// fitModelCorpus builds the training corpus, fits the overhead model on
// it and emits the journal's "fit" event, whose duration covers both. It
// also returns the corpus's single-VM part, for callers that reuse it.
func fitModelCorpus(ctx context.Context, seed int64, samplesPerRun int, opt core.FitOptions) (*core.Model, []core.Sample, error) {
	jr := journal()
	var ft0, fa0 int64
	if jr.Enabled() {
		ft0, fa0 = jr.Now(), jr.AllocBytes()
	}
	var m *core.Model
	single, multi, err := trainingCorpusCtx(ctx, seed, samplesPerRun)
	if err == nil {
		m, err = core.Train(single, multi, opt)
	}
	if jr.Enabled() {
		method := "ols"
		if opt.Method == core.MethodLMS {
			method = "lms"
		}
		jr.Emit(&obs.Event{Type: "fit", Method: method, Samples: samplesPerRun,
			DurNanos: jr.Now() - ft0, AllocBytes: jr.AllocBytes() - fa0, Err: errText(err)})
	}
	return m, single, err
}
