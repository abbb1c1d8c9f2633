package exps

import (
	"context"
	"fmt"
	"math"

	"virtover/internal/core"
	"virtover/internal/monitor"
	"virtover/internal/obs"
	"virtover/internal/rubis"
	"virtover/internal/stats"
	"virtover/internal/xen"
)

// PredictionResult holds the per-sample relative prediction errors (in
// percent) of one trace-driven run at a fixed client count, for the four
// panels of Figures 7-9: PM1 (web tier) and PM2 (DB tier) CPU and BW.
type PredictionResult struct {
	Clients int
	PM1CPU  []float64
	PM2CPU  []float64
	PM1BW   []float64
	PM2BW   []float64
}

// DefaultClientCounts is the paper's RUBiS load ladder.
func DefaultClientCounts() []int { return []int{300, 400, 500, 600, 700} }

// DefaultWarmupSteps is the historical settle phase of the trace-driven
// runs: five engine steps for the closed loop to reach steady state before
// the monitor script attaches. It was an inline constant before the
// WarmupSteps option existed, so option structs treat 0 as this value.
const DefaultWarmupSteps = 5

// PredictionOptions parameterizes PredictionExperimentOpts. The zero
// value of every field selects the historical default, so existing traces
// and goldens are preserved.
type PredictionOptions struct {
	// Sets is the number of independent RUBiS applications (1-3 for
	// Figures 7-9). Required, >= 1.
	Sets int
	// Clients is the client-count ladder; nil selects DefaultClientCounts.
	Clients []int
	// Duration is the measured seconds per client count; < 1 selects the
	// paper's 600.
	Duration int
	// Seed drives the deployment, workloads and measurement noise.
	Seed int64
	// WarmupSteps is the settle phase before measurement: 0 selects
	// DefaultWarmupSteps, negative disables the warm-up.
	WarmupSteps int
}

// PredictionExperiment reproduces the trace-driven evaluation of Section
// VI-A: `sets` independent RUBiS applications, each with its web tier on
// PM1 and its DB tier on PM2 (Figure 6 topology; sets = 1, 2, 3 yield
// Figures 7, 8, 9). For every client count the system runs `duration`
// seconds; each second the monitor script measures both PMs, the model
// predicts the PM utilizations from the measured guest utilizations, and
// the relative errors |p-m|/m against the measured PM values are recorded.
func PredictionExperiment(model *core.Model, sets int, clients []int, duration int, seed int64) ([]PredictionResult, error) {
	return PredictionExperimentContext(context.Background(), model, sets, clients, duration, seed)
}

// PredictionExperimentContext is PredictionExperiment with cancellation:
// the per-client-count deployments stop dispatching on ctx cancel and
// in-flight runs abort within one engine step.
func PredictionExperimentContext(ctx context.Context, model *core.Model, sets int, clients []int, duration int, seed int64) ([]PredictionResult, error) {
	return PredictionExperimentOpts(ctx, model, PredictionOptions{
		Sets: sets, Clients: clients, Duration: duration, Seed: seed,
	})
}

// PredictionExperimentOpts is the options-struct form of the experiment,
// and the one that exposes WarmupSteps. Every client count is its own
// independent run, as in the paper: the Figure 6 deployment is built,
// settled for the warm-up steps and measured on one engine, with the
// client counts running in parallel. Cancellation reaches the warm-up as
// well as the measured phase. Each run emits one journal "cell" event,
// flushed in client-count order.
func PredictionExperimentOpts(ctx context.Context, model *core.Model, opt PredictionOptions) ([]PredictionResult, error) {
	if model == nil {
		return nil, fmt.Errorf("exps: PredictionExperiment needs a model")
	}
	if opt.Sets < 1 {
		return nil, fmt.Errorf("exps: sets must be >= 1, got %d", opt.Sets)
	}
	if opt.Duration < 1 {
		opt.Duration = 600 // the paper's 10-minute interval
	}
	if len(opt.Clients) == 0 {
		opt.Clients = DefaultClientCounts()
	}
	warmup := effectiveWarmup(opt.WarmupSteps)
	out := make([]PredictionResult, len(opt.Clients))
	// Each run stages its "cell" event into its own journal lane; flushing
	// after the barrier appends them in client-count order, so a parallel
	// experiment's journal reads the same as a serial one.
	jr := journal()
	st := jr.NewStage(len(opt.Clients))
	err := runParallelCtx(ctx, len(opt.Clients), func(jctx context.Context, ci int) error {
		var ct0, ca0 int64
		if jr.Enabled() {
			ct0, ca0 = jr.Now(), jr.AllocBytes()
		}
		seed := opt.Seed + int64(ci)*7919
		res, rerr := runPrediction(jctx, model, opt.Sets, opt.Clients[ci], warmup, opt.Duration, seed)
		out[ci] = res
		st.Emit(ci, &obs.Event{Type: "cell", Step: int64(ci + 1),
			DurNanos: jr.Now() - ct0, AllocBytes: jr.AllocBytes() - ca0, Err: errText(rerr)})
		return rerr
	})
	st.Flush()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// effectiveWarmup resolves a WarmupSteps option: 0 (the zero value)
// selects DefaultWarmupSteps, negative disables the warm-up entirely.
func effectiveWarmup(w int) int {
	switch {
	case w == 0:
		return DefaultWarmupSteps
	case w < 0:
		return 0
	default:
		return w
	}
}

// rubisDeployment holds the two PM handles of a Figure 6 deployment that
// the monitor script measures.
type rubisDeployment struct {
	pm1, pm2 *xen.PM
}

// rubisBuild constructs the Figure 6 deployment: `sets` RUBiS pairs, web
// tiers on PM1, DB tiers on PM2.
func rubisBuild(sets, clientCount int, seed int64) (*xen.Cluster, *rubisDeployment) {
	cl := xen.NewCluster()
	d := &rubisDeployment{pm1: cl.AddPM("pm1"), pm2: cl.AddPM("pm2")}
	for i := 0; i < sets; i++ {
		webName := fmt.Sprintf("web%d", i+1)
		dbName := fmt.Sprintf("db%d", i+1)
		web := cl.AddVM(d.pm1, webName, 256)
		db := cl.AddVM(d.pm2, dbName, 256)
		app := rubis.New(rubis.Config{
			Profile: rubis.DefaultProfile(),
			Clients: rubis.ConstClients(float64(clientCount)),
			WebVM:   webName,
			DBVM:    dbName,
			Seed:    seed + int64(i)*101,
		})
		app.BindVMs(web, db)
		web.SetSource(app.WebSource())
		db.SetSource(app.DBSource())
	}
	return cl, d
}

// runRUBiS builds the Figure 6 deployment, settles it for warmup steps and
// records duration seconds of both PMs with the monitor script.
func runRUBiS(ctx context.Context, sets, clientCount, warmup, duration int, seed int64) ([][]monitor.Measurement, error) {
	cl, d := rubisBuild(sets, clientCount, seed)
	e := xen.NewEngine(cl, xen.DefaultCalibration(), seed)
	defer e.Close()
	if err := e.AdvanceContext(ctx, warmup); err != nil {
		return nil, err
	}
	script := monitor.Script{IntervalSteps: 1, Samples: duration, Noise: monitor.DefaultNoise(), Seed: seed + 555}
	return script.RunContext(ctx, e, []*xen.PM{d.pm1, d.pm2})
}

// runPrediction runs one client count and scores the model's PM
// predictions against the measured PM utilizations.
func runPrediction(ctx context.Context, model *core.Model, sets, clientCount, warmup, duration int, seed int64) (PredictionResult, error) {
	series, err := runRUBiS(ctx, sets, clientCount, warmup, duration, seed)
	if err != nil {
		return PredictionResult{}, err
	}

	res := PredictionResult{Clients: clientCount}
	for _, row := range series {
		for pmIdx, m := range row {
			pred := model.Predict(m.GuestList())
			cpuErr := relErrPct(pred.PM.CPU, m.Host.CPU)
			bwErr := relErrPct(pred.PM.BW, m.Host.BW)
			if pmIdx == 0 {
				res.PM1CPU = append(res.PM1CPU, cpuErr)
				res.PM1BW = append(res.PM1BW, bwErr)
			} else {
				res.PM2CPU = append(res.PM2CPU, cpuErr)
				res.PM2BW = append(res.PM2BW, bwErr)
			}
		}
	}
	return res, nil
}

// relErrPct is the paper's prediction-error metric |p-m|/m in percent.
func relErrPct(p, m float64) float64 {
	if math.Abs(m) < 1e-9 {
		return 0
	}
	return 100 * math.Abs(p-m) / math.Abs(m)
}

// TraceErrors holds per-sample relative prediction errors (percent) for
// one PM of a recorded trace.
type TraceErrors struct {
	PM       string
	CPU, Mem []float64
	IO, BW   []float64
}

// EvaluateSeries applies the model offline to a recorded measurement
// series (e.g. one read back from a trace CSV): for every sample and PM it
// predicts the host utilization from the recorded guest utilizations and
// scores it against the recorded host values. PMs with no guests are
// skipped. Results are keyed by PM name.
func EvaluateSeries(model *core.Model, series [][]monitor.Measurement) (map[string]*TraceErrors, error) {
	if model == nil {
		return nil, fmt.Errorf("exps: EvaluateSeries needs a model")
	}
	out := make(map[string]*TraceErrors)
	for _, row := range series {
		for _, m := range row {
			if len(m.VMs) == 0 {
				continue
			}
			pred := model.Predict(m.GuestList())
			te := out[m.PM]
			if te == nil {
				te = &TraceErrors{PM: m.PM}
				out[m.PM] = te
			}
			te.CPU = append(te.CPU, relErrPct(pred.PM.CPU, m.Host.CPU))
			te.Mem = append(te.Mem, relErrPct(pred.PM.Mem, m.Host.Mem))
			te.IO = append(te.IO, relErrPct(pred.PM.IO, m.Host.IO))
			te.BW = append(te.BW, relErrPct(pred.PM.BW, m.Host.BW))
		}
	}
	return out, nil
}

// RecordRUBiSTrace runs the Figure 6 deployment (sets of RUBiS pairs, web
// tiers on PM1, DB tiers on PM2) at a fixed client count, settled for
// DefaultWarmupSteps, and returns the raw measurement series, for writing
// to a trace file and replaying offline.
func RecordRUBiSTrace(sets, clientCount, duration int, seed int64) ([][]monitor.Measurement, error) {
	if sets < 1 {
		return nil, fmt.Errorf("exps: RecordRUBiSTrace needs sets >= 1")
	}
	if duration < 1 {
		duration = 120
	}
	return runRUBiS(context.Background(), sets, clientCount, DefaultWarmupSteps, duration, seed)
}

// PredictionFigures turns experiment results into the four CDF panels of
// Figure `figID` (7, 8 or 9): (a) PM1 CPU, (b) PM2 CPU, (c) PM1 BW,
// (d) PM2 BW, one curve per client count. CDF curves are sampled on a
// common error grid up to gridMax percent.
func PredictionFigures(figID string, results []PredictionResult, gridMax float64, gridPoints int) []Figure {
	if gridPoints < 2 {
		gridPoints = 17
	}
	if gridMax <= 0 {
		gridMax = 8
	}
	grid := make([]float64, gridPoints)
	for i := range grid {
		grid[i] = gridMax * float64(i) / float64(gridPoints-1)
	}
	panel := func(suffix, title string, pick func(PredictionResult) []float64) Figure {
		f := Figure{
			ID:     figID + suffix,
			Title:  title,
			XLabel: "Prediction Error (%)",
			YLabel: "CDF of prediction error (%)",
		}
		for _, r := range results {
			cdf := stats.NewCDF(pick(r))
			s := Series{Name: fmt.Sprintf("%d", r.Clients), X: grid, Y: make([]float64, len(grid))}
			for i, x := range grid {
				s.Y[i] = 100 * cdf.At(x)
			}
			f.Series = append(f.Series, s)
		}
		return f
	}
	return []Figure{
		panel("(a)", "PM1 CPU prediction", func(r PredictionResult) []float64 { return r.PM1CPU }),
		panel("(b)", "PM2 CPU prediction", func(r PredictionResult) []float64 { return r.PM2CPU }),
		panel("(c)", "PM1 bandwidth prediction", func(r PredictionResult) []float64 { return r.PM1BW }),
		panel("(d)", "PM2 bandwidth prediction", func(r PredictionResult) []float64 { return r.PM2BW }),
	}
}

// ErrorP90 summarizes a result: the 90th-percentile prediction error per
// panel, the paper's headline accuracy statistic ("90% of the predictions
// have prediction errors smaller than ...").
type ErrorP90 struct {
	Clients                      int
	PM1CPU, PM2CPU, PM1BW, PM2BW float64
}

// P90Summary computes the 90th-percentile errors of each run.
func P90Summary(results []PredictionResult) []ErrorP90 {
	out := make([]ErrorP90, len(results))
	for i, r := range results {
		out[i] = ErrorP90{
			Clients: r.Clients,
			PM1CPU:  stats.Percentile(r.PM1CPU, 90),
			PM2CPU:  stats.Percentile(r.PM2CPU, 90),
			PM1BW:   stats.Percentile(r.PM1BW, 90),
			PM2BW:   stats.Percentile(r.PM2BW, 90),
		}
	}
	return out
}
