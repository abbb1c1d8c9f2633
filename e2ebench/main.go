// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of three workloads against the program's packages in-process and
// prints, as its last line, one JSON object with the run's correctness
// and metrics:
//
//	go run . --workload report-paper --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing traced.
// --trace 1 is a separate run that records spans around the calls into
// each layer (exps, core, xen, monitor, trace, serve) for all three
// workloads, writes them under .bench_build/spans, and prints the
// per-layer metrics. README.md lists every metric and what moves it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named traffic mix: measure runs it untraced for the
// end-to-end metrics, traced runs its traced pass for the per-layer ones.
type workload struct {
	name    string
	why     string
	measure func(b *bench) error
	traced  func(b *bench) error
}

var workloads = []workload{
	{"report-paper", "the whole reproduction: paper-size report runs, each with a cold warm-prefix cache",
		measureReport, tracedReport},
	{"sim-datacenter", "engine step, meter and CSV trace encoding over a 1000-PM fleet; fitting and serve idle",
		measureSim, tracedSim},
	{"serve-learn", "open-loop ingest, estimates and refit sweeps on the estimation service; xen and monitor idle",
		measureServe, tracedServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: report-paper, sim-datacenter or serve-learn")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: traced per-layer run")
	tiny := fs.Bool("tiny", false, "tiny inputs, for the smoke test")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	pin := fs.Bool("pin", false, "print the pinned output digests of the current code and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := printPins(stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}

	b := newBench(*seed, time.Duration(*seconds*float64(time.Second)), *tiny, stdout)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d: %s\n", w.name, *seed, *seconds, *traceFlag, w.why)
	defs := endToEnd
	var err error
	if *traceFlag == 0 {
		err = w.measure(b)
	} else {
		defs = perLayer
		err = runTraced(b, w, *spanDir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := b.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// runTraced runs the traced pass of every workload, the named one first,
// each for the run's seconds, then prints each layer's self time and
// writes the spans out. Every pass gets the full seconds because the
// serve-learn schedule (sweep cadence, drift midpoint) scales with them.
func runTraced(b *bench, first *workload, spanDir string) error {
	order := []*workload{first}
	for i := range workloads {
		if &workloads[i] != first {
			order = append(order, &workloads[i])
		}
	}
	b.spans = newTracer()
	for _, w := range order {
		fmt.Fprintf(b.out, "traced pass %s\n", w.name)
		if err := w.traced(b); err != nil {
			return fmt.Errorf("traced pass %s: %w", w.name, err)
		}
	}

	self := b.spans.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "self %s %.3f ms\n", n, ms(self[n]))
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", first.name, b.seed))
	if err := b.spans.write(path); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans written to %s\n", path)
	return nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}
