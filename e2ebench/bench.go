package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef names one metric of the result line and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics every untraced run prints, whatever the
// workload. Each workload gives them its own unit of work; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"peak_live_heap_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A traced run covers
// all three workloads, so one run gives the whole table.
var perLayer = []metricDef{
	// report-paper
	{"report_s", "s"},
	{"exps.micro_ms", "ms"},
	{"exps.model_fit_ms", "ms"},
	{"exps.prediction_ms", "ms"},
	{"exps.placement_ms", "ms"},
	{"exps.robustness_ms", "ms"},
	{"exps.isolation_ms", "ms"},
	{"exps.hetero_ms", "ms"},
	{"exps.scaling_ms", "ms"},
	{"exps.mitigation_ms", "ms"},
	{"exps.admission_ms", "ms"},
	{"core.coefficient_cis_ms", "ms"},
	{"report.alloc_mb_per_op", "MB"},
	{"report.coverage_ratio", "ratio"},
	{"report.fig789_order_mismatch", "count"},
	{"report.trace_overhead_ratio", "ratio"},
	{"xen.engine_steps", "count"},
	{"xen.fork_hit_ratio", "ratio"},
	// sim-datacenter
	{"sim_pm_steps_per_s", "1/s"},
	{"xen.step_us", "us"},
	{"monitor.meter_us_per_step", "us"},
	{"trace.csv_us_per_step", "us"},
	{"sim.alloc_mb_per_op", "MB"},
	{"sampling.samples_per_step", "count"},
	{"trace.bytes_per_step", "B"},
	{"sim.trace_overhead_ratio", "ratio"},
	// serve-learn
	{"estimate_p50_ms", "ms"},
	{"estimate_p99_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"refit_sweep_s", "s"},
	{"estimate_err_p90_pct", "%"},
	{"fail_ratio", "ratio"},
	{"serve.alloc_mb_per_op", "MB"},
	{"serve.ingest_us_per_line", "us"},
	{"serve.ingest_direct_us_per_line", "us"},
	{"serve.refit_ms_per_tenant", "ms"},
	{"core.train_ms", "ms"},
	{"core.compare_ms", "ms"},
	{"core.predict_us", "us"},
	{"serve.swap_ratio", "ratio"},
	{"serve.refits", "count"},
	{"serve.swaps", "count"},
	{"serve.rejected_429", "count"},
	{"gen.late_p99_ms", "ms"},
	{"serve.trace_overhead_ratio", "ratio"},
}

// bench carries one invocation's settings and collects its results.
type bench struct {
	seed  int64
	dur   time.Duration
	tiny  bool
	out   io.Writer // human-readable lines, before the result line
	spans *tracer   // nil in untraced runs

	attempted, failed int64
	checks            []check
	metrics           map[string]float64
}

// check is one output-correctness check and whether it held.
type check struct {
	name   string
	ok     bool
	detail string
}

func newBench(seed int64, dur time.Duration, tiny bool, out io.Writer) *bench {
	return &bench{seed: seed, dur: dur, tiny: tiny, out: out, metrics: map[string]float64{}}
}

// check records a correctness check and prints it.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	c := check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
	b.checks = append(b.checks, c)
	state := "ok"
	if !ok {
		state = "FAIL"
	}
	fmt.Fprintf(b.out, "check %s %s %s\n", c.name, state, c.detail)
}

// set records a metric value and prints it with its unit.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = v
	fmt.Fprintf(b.out, "metric %s %s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the result line from the metrics named in defs. A
// metric that is missing or not finite makes the run incorrect.
func (b *bench) result(defs []metricDef) (result, error) {
	r := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	r.Correct = len(b.checks) > 0 && b.failed == 0 && b.attempted > 0
	for _, c := range b.checks {
		r.Correct = r.Correct && c.ok
	}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks). xs is sorted in place. Empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heapSampleEvery is how often a heapPeak reads the live heap. A paper-size
// report collects every few tens of milliseconds, so this sees each
// collection's figure.
const heapSampleEvery = 5 * time.Millisecond

// heapPeak tracks the live heap during a measured loop: the bytes the last
// collection found reachable, read every heapSampleEvery. It keeps the peak
// of each op, the most the program held live at any collection during it.
// Unlike peak RSS it counts no garbage that waits to be collected or
// returned to the OS.
type heapPeak struct {
	mu         sync.Mutex
	cur        uint64 // peak since the last op ended
	peaks      []float64
	stop, done chan struct{}
}

// startHeapPeak collects once, so the first reading is what the process
// holds after set-up rather than set-up's garbage, and starts sampling.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{cur: liveHeap(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapPeak) observe() {
	v := liveHeap()
	h.mu.Lock()
	h.cur = max(h.cur, v)
	h.mu.Unlock()
}

// opDone closes the current op's window and records its peak in MB.
func (h *heapPeak) opDone() {
	v := liveHeap()
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(max(h.cur, v))/1e6)
	h.cur = v
	h.mu.Unlock()
}

// finish stops sampling and returns the median of the per-op peaks.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.peaks)
}

// liveHeap returns the heap bytes the last collection marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setMemory records peak_live_heap_mb from h and prints the process's
// peak RSS, which follows the collector's timing, as an informational line.
func (b *bench) setMemory(h *heapPeak) error {
	b.set("peak_live_heap_mb", h.finish(), "MB")
	rss, err := rssPeakMB()
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "metric rss_peak_mb %g MB\n", rss)
	return nil
}

// setups runs a set-up n times and returns the last set-up's product and
// the median duration in seconds. Every other product is released with
// drop.
func setups[T any](n int, build func() (T, error), drop func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			if i > 0 {
				drop(last)
			}
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			drop(last)
		}
		last = v
	}
	return last, median(times), nil
}

// writeJSONLine marshals v onto w as one line.
func writeJSONLine(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
