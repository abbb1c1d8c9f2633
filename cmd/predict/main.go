// Command predict reproduces the trace-driven evaluation of Section VI-A:
// it fits the overhead model from the micro-benchmark study, deploys 1, 2
// or 3 RUBiS applications across two PMs (web tiers on PM1, DB tiers on
// PM2), and prints the prediction-error CDFs of Figures 7, 8 or 9 plus the
// 90th-percentile error summary.
//
// Usage:
//
//	predict -fig 7|8|9 [-duration SECONDS] [-seed S] [-method ols|lms]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"virtover"
	"virtover/internal/core"
	"virtover/internal/exps"
	"virtover/internal/obs/cli"
	"virtover/internal/trace"
)

var app = cli.New("predict")

func main() {
	var (
		fig       = flag.Int("fig", 7, "figure to reproduce: 7 (one VM/PM), 8 (two), 9 (three)")
		duration  = flag.Int("duration", 600, "measured seconds per client count (paper: 10 minutes)")
		seed      = flag.Int64("seed", 1, "random seed")
		method    = flag.String("method", "ols", "model fitting method: ols or lms")
		trainN    = flag.Int("train-samples", 60, "samples per training campaign")
		traceFile = flag.String("trace", "", "replay a recorded trace CSV (from cmd/xensim) instead of simulating")
		plot      = flag.Bool("plot", false, "draw ASCII CDF charts instead of numeric tables")
		modelFile = flag.String("model", "", "load a fitted model JSON (from cmd/fitmodel -out) instead of training")
		warmup    = flag.Int("warmup", 0, "settle steps before each measured run (0 selects the default 5, negative disables); each client count builds and settles its own deployment")
	)
	app.Parse()

	sets := map[int]int{7: 1, 8: 2, 9: 3}[*fig]
	if sets == 0 {
		app.Fatalf("unknown figure %d (have 7, 8, 9)", *fig)
	}
	opt := virtover.FitOptions{}
	if *method == "lms" {
		opt.Method = virtover.MethodLMS
	} else if *method != "ols" {
		app.Fatalf("unknown method %q", *method)
	}

	var model *virtover.Model
	if *modelFile != "" {
		f, err := os.Open(*modelFile)
		app.Check(err)
		model, err = core.LoadModel(f)
		f.Close()
		app.Check(err)
		fmt.Printf("loaded model from %s\n", *modelFile)
	} else {
		fmt.Printf("fitting the overhead model from the micro-benchmark study (%s)...\n", *method)
		var err error
		model, err = virtover.FitModel(*seed, *trainN, opt)
		app.Check(err)
	}

	if *traceFile != "" {
		replayTrace(model, *traceFile)
		return
	}
	fmt.Printf("running %d RUBiS set(s), clients 300..700, %d s each...\n\n", sets, *duration)
	results, err := virtover.PredictionExperimentOpts(context.Background(), model, virtover.PredictionOptions{
		Sets: sets, Duration: *duration, Seed: *seed + 99, WarmupSteps: *warmup,
	})
	app.Check(err)
	for _, f := range virtover.PredictionFigures(fmt.Sprint(*fig), results, 8, 17) {
		if *plot {
			fmt.Println(f.Plot())
		} else {
			fmt.Println(f.Render())
		}
	}

	fmt.Println("90th-percentile prediction errors (%):")
	fmt.Printf("%10s %10s %10s %10s %10s\n", "clients", "PM1 CPU", "PM2 CPU", "PM1 BW", "PM2 BW")
	for _, r := range results {
		fmt.Printf("%10d %10.2f %10.2f %10.2f %10.2f\n",
			r.Clients,
			virtover.Percentile(r.PM1CPU, 90),
			virtover.Percentile(r.PM2CPU, 90),
			virtover.Percentile(r.PM1BW, 90),
			virtover.Percentile(r.PM2BW, 90))
	}
}

// replayTrace evaluates the model offline against a recorded trace CSV.
func replayTrace(model *virtover.Model, path string) {
	f, err := os.Open(path)
	app.Check(err)
	defer f.Close()
	series, err := trace.Read(f)
	app.Check(err)
	errsByPM, err := exps.EvaluateSeries(model, series)
	app.Check(err)
	names := make([]string, 0, len(errsByPM))
	for n := range errsByPM {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("offline replay of %s (%d samples):\n", path, len(series))
	fmt.Printf("%8s %12s %12s %12s %12s   [90th-percentile error %%]\n", "PM", "CPU", "Mem", "IO", "BW")
	for _, n := range names {
		te := errsByPM[n]
		fmt.Printf("%8s %12.2f %12.2f %12.2f %12.2f\n", n,
			virtover.Percentile(te.CPU, 90),
			virtover.Percentile(te.Mem, 90),
			virtover.Percentile(te.IO, 90),
			virtover.Percentile(te.BW, 90))
	}
}
