package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"virtover/internal/core"
	"virtover/internal/obs"
	"virtover/internal/serve"
	"virtover/internal/units"
)

// serve-learn: an open loop against an in-process estimation service
// (default options, with a metrics registry as servd installs one, and the
// background refit loop off) over loopback HTTP with at most serveConns
// client connections. Set-up seeds every tenant's window through
// POST /v1/ingest and runs the seed sweep. The timed run mixes fixed-rate
// ingest batches, fixed-rate tenant estimates and Server.RefitNow sweeps
// at servd's default refit interval. The load follows from two targets:
// every tenant's window is refilled once per refit interval, so each
// sweep fits on fresh telemetry, and every tenant asks for one estimate a
// second, the paper's monitoring interval. At the midpoint a fixed
// quarter of the tenants switch to a second ground-truth coefficient set,
// so the drift rule sees both keeps and swaps. Requests are timed from
// when they were due.

const (
	serveConns    = 2
	serveWindow   = 512 // the service's default window
	serveSetups   = 3
	linesPerBatch = 100
	serveNoiseRel = 0.03
	// estimatesPerTenantS is each tenant's estimate rate, per second.
	estimatesPerTenantS = 1
	// tinyRefitInterval is the sweep cadence of the 1-second smoke run,
	// which would otherwise see no sweep at all.
	tinyRefitInterval = 250 * time.Millisecond
)

// refitInterval is the sweep cadence: servd's default RefitInterval. The
// run must last more than three intervals, so that one sweep fits on a
// window refilled wholly after the midpoint and can see the drift.
func refitInterval(b *bench) (time.Duration, error) {
	iv := tinyRefitInterval
	if !b.tiny {
		o, err := serve.Options{}.Normalize()
		if err != nil {
			return 0, err
		}
		iv = o.RefitInterval
	}
	if b.dur <= 3*iv {
		return 0, fmt.Errorf("--seconds must exceed three refit intervals (%v)", 3*iv)
	}
	return iv, nil
}

func serveTenants(b *bench) int {
	if b.tiny {
		return 8
	}
	return 128
}

// seedSamples is how many samples set-up ingests per tenant.
func seedSamples(b *bench) int {
	if b.tiny {
		return 64
	}
	return serveWindow
}

// truthA and truthB are the two ground-truth coefficient sets; each
// tenant scales them by its own factor. Targets are linear in the guest
// utilization plus serveNoiseRel relative noise.
var (
	truthA = [core.NumTargets]core.Row{
		core.TargetDom0CPU: {1, 0.10, 0.002, 0.05, 0.001},
		core.TargetHypCPU:  {0.5, 0.05, 0.001, 0.02, 0.0005},
		core.TargetPMMem:   {30, 0.01, 1.0, 0, 0},
		core.TargetPMIO:    {2, 0, 0, 1.1, 0},
		core.TargetPMBW:    {5, 0, 0, 0, 1.05},
	}
	truthB = [core.NumTargets]core.Row{
		core.TargetDom0CPU: {3, 0.16, 0.002, 0.09, 0.003},
		core.TargetHypCPU:  {1.5, 0.08, 0.001, 0.03, 0.001},
		core.TargetPMMem:   {40, 0.01, 1.1, 0, 0},
		core.TargetPMIO:    {3, 0, 0, 1.3, 0},
		core.TargetPMBW:    {8, 0, 0, 0, 1.2},
	}
)

// population is the generated tenant set: names, per-tenant coefficient
// scale, and which tenants switch truth at the midpoint.
type population struct {
	ids   []string
	scale []float64
	rng   *rand.Rand
}

func newPopulation(b *bench) *population {
	p := &population{rng: rand.New(rand.NewSource(b.seed))}
	for i := 0; i < serveTenants(b); i++ {
		p.ids = append(p.ids, fmt.Sprintf("tenant-%03d", i))
		p.scale = append(p.scale, 0.8+0.4*p.rng.Float64())
	}
	return p
}

// switches reports whether tenant t moves to truthB at the midpoint.
func switches(t int) bool { return t%4 == 0 }

// truth returns tenant t's noise-free target for row r at guest v.
func (p *population) truth(t int, late bool, tgt core.Target, v units.Vector) float64 {
	rows := truthA
	if late && switches(t) {
		rows = truthB
	}
	return p.scale[t] * rows[tgt].Apply(v)
}

func (p *population) guest() units.Vector {
	r := p.rng
	return units.V(10+80*r.Float64(), 64+400*r.Float64(), 5+60*r.Float64(), 50+900*r.Float64())
}

// sample draws one noisy telemetry sample for tenant t.
func (p *population) sample(t int, late bool) core.Sample {
	v := p.guest()
	noisy := func(tgt core.Target) float64 {
		return p.truth(t, late, tgt, v) * (1 + serveNoiseRel*p.rng.NormFloat64())
	}
	return core.Sample{
		N: 1, VMSum: v,
		Dom0CPU: noisy(core.TargetDom0CPU), HypCPU: noisy(core.TargetHypCPU),
		PM: units.V(0, noisy(core.TargetPMMem), noisy(core.TargetPMIO), noisy(core.TargetPMBW)),
	}
}

// wireVector and wireLine are the ingest wire form, written here from
// the documented API rather than the package's own types.
type wireVector struct {
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
	IO  float64 `json:"io"`
	BW  float64 `json:"bw"`
}

func toWire(v units.Vector) wireVector { return wireVector{v.CPU, v.Mem, v.IO, v.BW} }

type wireLine struct {
	Tenant  string     `json:"tenant"`
	N       int        `json:"n"`
	VMSum   wireVector `json:"vmSum"`
	Dom0CPU float64    `json:"dom0CPU"`
	HypCPU  float64    `json:"hypCPU"`
	PM      wireVector `json:"pm"`
}

func appendLine(buf *bytes.Buffer, tenant string, s core.Sample) {
	raw, _ := json.Marshal(wireLine{tenant, s.N, toWire(s.VMSum), s.Dom0CPU, s.HypCPU, toWire(s.PM)})
	buf.Write(raw)
	buf.WriteByte('\n')
}

// Events of the open loop.
const (
	evIngest = iota
	evEstimate
)

// event is one request of the open loop. The schedule fixes due, kind,
// late and traced; the generator draws the rest from the seed just before
// the request is due, so the harness does not hold the whole run's request
// bodies in memory while the service's peak heap is measured.
type event struct {
	due    time.Duration
	kind   int
	late   bool // due after the midpoint
	traced bool // every other request of each kind, in traced runs
	tenant int
	body   []byte
	lines  int
	guest  units.Vector
}

// schedule is one open-loop run's timetable.
type schedule struct {
	dur        time.Duration
	events     []event // in due order
	sweepEvery time.Duration
}

// newSchedule lays out dur of traffic: ingest batches at the rate that
// refills every tenant's window once per refit interval, and
// estimatesPerTenantS estimates per tenant and second, offset by half an
// estimate gap so they do not fall due together with the batches.
func newSchedule(tenants int, dur, interval time.Duration) schedule {
	s := schedule{dur: dur, sweepEvery: interval}
	ingestGap := time.Duration(linesPerBatch * float64(interval) / float64(tenants*serveWindow))
	estGap := time.Duration(float64(time.Second) / float64(tenants*estimatesPerTenantS))
	nIngest, nEst := int(dur/ingestGap), int(dur/estGap)
	i, e := 0, 0
	for i < nIngest || e < nEst {
		ev := event{kind: evEstimate, due: time.Duration(e)*estGap + estGap/2, traced: e%2 == 0}
		if i < nIngest && (e >= nEst || time.Duration(i)*ingestGap <= ev.due) {
			ev = event{kind: evIngest, due: time.Duration(i) * ingestGap, traced: i%2 == 0, lines: linesPerBatch}
			i++
		} else {
			e++
		}
		ev.late = ev.due >= dur/2
		s.events = append(s.events, ev)
	}
	return s
}

// fill draws ev's tenant, guest and body.
func (p *population) fill(ev *event) {
	if ev.kind == evEstimate {
		ev.tenant = p.rng.Intn(len(p.ids))
		ev.guest = p.guest()
		ev.body, _ = json.Marshal(map[string][]wireVector{"guests": {toWire(ev.guest)}})
		return
	}
	var buf bytes.Buffer
	for l := 0; l < ev.lines; l++ {
		t := p.rng.Intn(len(p.ids))
		appendLine(&buf, p.ids[t], p.sample(t, ev.late))
	}
	ev.body = buf.Bytes()
}

// seedBodies returns one ingest body per tenant that fills its window.
func seedBodies(b *bench, p *population) [][]byte {
	out := make([][]byte, len(p.ids))
	for t, id := range p.ids {
		var buf bytes.Buffer
		for i := 0; i < seedSamples(b); i++ {
			appendLine(&buf, id, p.sample(t, false))
		}
		out[t] = buf.Bytes()
	}
	return out
}

// service is one running estimation service and its client.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	// refitErrs counts refits the service abandoned on a fit or drift
	// comparison error. RefitNow reports those as keeps and returns no
	// error, so this counter is the only place they show.
	refitErrs *obs.Counter
}

// startService starts the server on loopback, seeds every tenant's window
// over HTTP and runs the seed sweep.
func startService(bodies [][]byte) (*service, error) {
	reg := obs.NewRegistry()
	srv, err := serve.NewServer(serve.Options{RefitInterval: -1, Obs: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
		base:      "http://" + ln.Addr().String(),
		refitErrs: reg.Counter("serve_refit_errors_total", ""),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for t, body := range bodies {
		code, resp, err := s.post("/v1/ingest", body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, resp)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("seed tenant %d: %w", t, err)
		}
	}
	refits, swaps, err := srv.RefitNow(context.Background())
	if n := s.refitErrs.Value(); err == nil && n > 0 {
		err = fmt.Errorf("seed sweep abandoned %d refits on errors", n)
	}
	if err == nil && (refits != len(bodies) || swaps != len(bodies)) {
		err = fmt.Errorf("seed sweep fitted %d/%d tenants (%d published)", refits, len(bodies), swaps)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// close stops the HTTP server and the service and waits for both.
func (s *service) close() {
	ctx := context.Background()
	_ = s.hs.Shutdown(ctx)
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	s.client.CloseIdleConnections()
	_ = s.srv.Shutdown(ctx)
}

// loopStats is what one open-loop run measured.
type loopStats struct {
	estWait, estWaitTraced, ingestWait []float64 // ms
	estErrPct                          []float64
	late                               []float64 // generator lateness, ms
	sweepMS, refitPerTenant            []float64
	refits, swaps, refitErrors         int
	attempted, failed, rejected429     int64
	backwards, unparsed                int64
	allocBytes                         uint64
}

// runLoop runs sched against s. With a tracer, every sweep and every
// request marked traced is recorded as a span carrying the request's
// index as its id; the other half stay untraced, so one loop gives both
// the traced and the untraced latency. A non-nil heap closes an op after
// every sweep.
func runLoop(s *service, p *population, sched schedule, tr *tracer, heap *heapPeak) loopStats {
	var (
		st     loopStats
		floor  = make([]atomic.Uint64, len(p.ids))
		jobs   = make(chan int, len(sched.events)) // one slot per event, so the generator never blocks
		mu     sync.Mutex
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		sweepW sync.WaitGroup
	)
	a0 := totalAlloc()
	t0 := time.Now()

	// Sweeper: Server.RefitNow on a fixed cadence; an overrunning sweep
	// delays the next one rather than overlapping it.
	sweepW.Add(1)
	go func() {
		defer sweepW.Done()
		for k := 1; ; k++ {
			due := time.Duration(k) * sched.sweepEvery
			if due >= sched.dur {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Until(t0.Add(due))):
			}
			id := tr.start("serve.Server.RefitNow", -1, 0)
			e0 := s.refitErrs.Value()
			ts := time.Now()
			refits, swaps, err := s.srv.RefitNow(context.Background())
			d := time.Since(ts)
			tr.end(id)
			if heap != nil {
				heap.opDone()
			}
			errs := int(s.refitErrs.Value() - e0)
			refits -= errs // RefitNow counts an abandoned refit as a keep
			mu.Lock()
			st.attempted++
			if err != nil || errs > 0 {
				st.failed++
			}
			st.sweepMS = append(st.sweepMS, ms(d))
			if refits > 0 {
				st.refitPerTenant = append(st.refitPerTenant, ms(d)/float64(refits))
			}
			st.refits += refits
			st.swaps += swaps
			st.refitErrors += errs
			mu.Unlock()
		}
	}()

	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var my loopStats
			for i := range jobs {
				ev := &sched.events[i]
				my.attempted++
				ok := doEvent(s, p, ev, t0, tr, uint64(i), floor, &my)
				ev.body = nil
				if !ok {
					my.failed++
				}
			}
			mu.Lock()
			st.estWait = append(st.estWait, my.estWait...)
			st.estWaitTraced = append(st.estWaitTraced, my.estWaitTraced...)
			st.ingestWait = append(st.ingestWait, my.ingestWait...)
			st.estErrPct = append(st.estErrPct, my.estErrPct...)
			st.attempted += my.attempted
			st.failed += my.failed
			st.rejected429 += my.rejected429
			st.backwards += my.backwards
			st.unparsed += my.unparsed
			mu.Unlock()
		}()
	}

	// Generator: draw each event's inputs, then release it at its due time.
	for i := range sched.events {
		p.fill(&sched.events[i])
		due := t0.Add(sched.events[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.late = append(st.late, ms(time.Since(due)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if d := time.Until(t0.Add(sched.dur)); d > 0 {
		time.Sleep(d)
	}
	close(stop)
	sweepW.Wait()
	st.allocBytes = totalAlloc() - a0
	return st
}

type estimateReply struct {
	Dom0CPU      *float64 `json:"dom0CPU"`
	ModelVersion uint64   `json:"modelVersion"`
	ModelHash    string   `json:"modelHash"`
}

type ingestReply struct {
	Accepted *int `json:"accepted"`
}

// doEvent sends one request and checks its reply; it returns false when
// the request failed, was refused or answered wrongly.
func doEvent(s *service, p *population, ev *event, t0 time.Time, tr *tracer, req uint64, floor []atomic.Uint64, st *loopStats) bool {
	path, name := "/v1/ingest", "serve.POST /v1/ingest"
	var snap uint64
	if ev.kind == evEstimate {
		path, name = "/v1/tenants/"+p.ids[ev.tenant]+"/estimate", "serve.POST /v1/tenants/{id}/estimate"
		snap = floor[ev.tenant].Load()
	}
	traced := tr != nil && ev.traced
	id := -1
	if traced {
		id = tr.start(name, -1, req)
	}
	code, raw, err := s.post(path, ev.body)
	done := time.Now()
	tr.end(id)
	wait := ms(done.Sub(t0.Add(ev.due)))
	if code == http.StatusTooManyRequests {
		st.rejected429++
	}
	if err != nil || code != http.StatusOK {
		return false
	}
	if ev.kind == evIngest {
		var r ingestReply
		if json.Unmarshal(raw, &r) != nil || r.Accepted == nil || *r.Accepted != ev.lines {
			st.unparsed++
			return false
		}
		st.ingestWait = append(st.ingestWait, wait)
		return true
	}
	var r estimateReply
	if json.Unmarshal(raw, &r) != nil || r.Dom0CPU == nil || r.ModelVersion == 0 || r.ModelHash == "" {
		st.unparsed++
		return false
	}
	if r.ModelVersion < snap {
		st.backwards++
		return false
	}
	for {
		cur := floor[ev.tenant].Load()
		if r.ModelVersion <= cur || floor[ev.tenant].CompareAndSwap(cur, r.ModelVersion) {
			break
		}
	}
	truth := p.truth(ev.tenant, ev.late, core.TargetDom0CPU, ev.guest)
	if traced {
		st.estWaitTraced = append(st.estWaitTraced, wait)
	} else {
		st.estWait = append(st.estWait, wait)
	}
	st.estErrPct = append(st.estErrPct, 100*math.Abs(*r.Dom0CPU-truth)/truth)
	return true
}

// checkLoop records the loop's correctness checks.
func checkLoop(b *bench, st loopStats, swapsNeeded bool) {
	b.attempted += st.attempted
	b.failed += st.failed
	b.check("serve_replies", st.failed == 0,
		"%d of %d requests and sweeps failed, were refused (%d x 429), answered wrongly (%d unparsed) or abandoned refits (%d)",
		st.failed, st.attempted, st.rejected429, st.unparsed, st.refitErrors)
	b.check("model_versions_monotonic", st.backwards == 0, "%d estimates saw a model version go backwards", st.backwards)
	if swapsNeeded {
		b.check("drift_keeps_and_swaps", st.swaps > 0 && st.refits > st.swaps,
			"%d refits: %d swaps, %d keeps", st.refits, st.swaps, st.refits-st.swaps)
	}
}

func measureServe(b *bench) error {
	interval, err := refitInterval(b)
	if err != nil {
		return err
	}
	p := newPopulation(b)
	bodies := seedBodies(b, p)
	sched := newSchedule(len(p.ids), b.dur, interval)
	s, setupS, err := setups(serveSetups, func() (*service, error) { return startService(bodies) }, (*service).close)
	if err != nil {
		return err
	}
	bodies = nil
	heap := startHeapPeak()
	st := runLoop(s, p, sched, nil, heap)
	err = b.setMemory(heap)
	s.close()
	if err != nil {
		return err
	}
	checkLoop(b, st, true)
	if len(st.estWait) == 0 || len(st.sweepMS) == 0 {
		return fmt.Errorf("no estimates or sweeps completed")
	}

	b.set("setup_s", setupS, "s")
	b.set("op_ms", median(st.sweepMS), "ms")
	b.set("alloc_mb_per_op", float64(st.allocBytes)/1e6/float64(len(st.sweepMS)), "MB")
	printServeE2E(b, st)
	return nil
}

// printServeE2E prints the service's own end-to-end figures.
func printServeE2E(b *bench, st loopStats) {
	fmt.Fprintf(b.out, "metric estimate_p50_ms %g ms (%d estimates)\n", quantile(st.estWait, 0.5), len(st.estWait))
	fmt.Fprintf(b.out, "metric estimate_p99_ms %g ms\n", quantile(st.estWait, 0.99))
	fmt.Fprintf(b.out, "metric ingest_p99_ms %g ms (%d batches)\n", quantile(st.ingestWait, 0.99), len(st.ingestWait))
	fmt.Fprintf(b.out, "metric refit_sweep_s %g s (%d sweeps, ms: %.1f)\n", median(st.sweepMS)/1e3, len(st.sweepMS), st.sweepMS)
	fmt.Fprintf(b.out, "metric estimate_err_p90_pct %g %%\n", quantile(st.estErrPct, 0.9))
	fmt.Fprintf(b.out, "metric fail_ratio %g ratio\n", float64(st.failed)/float64(st.attempted))
	fmt.Fprintf(b.out, "metric gen.late_p99_ms %g ms\n", quantile(st.late, 0.99))
	fmt.Fprintf(b.out, "metric serve.refits %d count, serve.swaps %d count\n", st.refits, st.swaps)
}

// tracedServe runs the open loop with every other request traced, then
// times the layers directly: Server.Ingest on decoded samples, and
// core.Train, core.CompareOnWindow and Model.Predict on tenant windows.
func tracedServe(b *bench) error {
	interval, err := refitInterval(b)
	if err != nil {
		return err
	}
	p := newPopulation(b)
	s, err := startService(seedBodies(b, p))
	if err != nil {
		return err
	}
	st := runLoop(s, p, newSchedule(len(p.ids), b.dur, interval), b.spans, nil)
	checkLoop(b, st, false)
	directUS, err := tracedIngest(b, s, p)
	s.close()
	if err != nil {
		return err
	}
	trainMS, compareMS, predictUS, err := tracedCore(b, p)
	if err != nil {
		return err
	}
	if len(st.estWait) == 0 || len(st.estWaitTraced) == 0 || len(st.sweepMS) == 0 {
		return fmt.Errorf("no estimates or sweeps completed")
	}
	var perLine []float64
	for _, d := range b.spans.durations("serve.POST /v1/ingest") {
		perLine = append(perLine, d/1e3/linesPerBatch)
	}

	b.set("estimate_p50_ms", quantile(st.estWait, 0.5), "ms")
	b.set("estimate_p99_ms", quantile(st.estWait, 0.99), "ms")
	b.set("ingest_p99_ms", quantile(st.ingestWait, 0.99), "ms")
	b.set("refit_sweep_s", median(st.sweepMS)/1e3, "s")
	b.set("estimate_err_p90_pct", quantile(st.estErrPct, 0.9), "%")
	b.set("fail_ratio", float64(st.failed)/float64(st.attempted), "ratio")
	b.set("serve.alloc_mb_per_op", float64(st.allocBytes)/1e6/float64(len(st.sweepMS)), "MB")
	b.set("serve.ingest_us_per_line", median(perLine), "us")
	b.set("serve.ingest_direct_us_per_line", directUS, "us")
	b.set("serve.refit_ms_per_tenant", median(st.refitPerTenant), "ms")
	b.set("core.train_ms", trainMS, "ms")
	b.set("core.compare_ms", compareMS, "ms")
	b.set("core.predict_us", predictUS, "us")
	b.set("serve.swap_ratio", float64(st.swaps)/math.Max(float64(st.refits), 1), "ratio")
	b.set("serve.refits", float64(st.refits), "count")
	b.set("serve.swaps", float64(st.swaps), "count")
	b.set("serve.rejected_429", float64(st.rejected429), "count")
	b.set("gen.late_p99_ms", quantile(st.late, 0.99), "ms")
	b.set("serve.trace_overhead_ratio", median(st.estWaitTraced)/median(st.estWait), "ratio")
	return nil
}

// tracedIngest times Server.Ingest on already-decoded samples and
// returns the median microseconds per sample.
func tracedIngest(b *bench, s *service, p *population) (float64, error) {
	const calls, per = 200, linesPerBatch
	var perLine []float64
	for c := 0; c < calls; c++ {
		t := p.rng.Intn(len(p.ids))
		batch := make([]core.Sample, per)
		for i := range batch {
			batch[i] = p.sample(t, false)
		}
		var n int
		d, err := b.spans.timed("serve.Server.Ingest", -1, func(int) error {
			var err error
			n, err = s.srv.Ingest(p.ids[t], batch)
			return err
		})
		b.attempted++
		if err != nil || n != per {
			b.failed++
			return 0, fmt.Errorf("Server.Ingest applied %d of %d: %v", n, per, err)
		}
		perLine = append(perLine, float64(d)/1e3/per)
	}
	return median(perLine), nil
}

// tracedCore times the refit's kernels on full tenant windows: a
// challenger fit, the drift comparison against an incumbent fitted on an
// earlier window, and single-guest predictions.
func tracedCore(b *bench, p *population) (trainMS, compareMS, predictUS float64, err error) {
	const tenants, predicts = 16, 1000
	var train, compare, predict []float64
	window := func(t int) []core.Sample {
		w := make([]core.Sample, serveWindow)
		for i := range w {
			w[i] = p.sample(t, false)
		}
		return w
	}
	for k := 0; k < tenants; k++ {
		t := k % len(p.ids)
		old, cur := window(t), window(t)
		incumbent, err := core.Train(old, nil, core.FitOptions{})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("train incumbent: %w", err)
		}
		var challenger *core.Model
		d, err := b.spans.timed("core.Train", -1, func(int) error {
			var err error
			challenger, err = core.Train(cur, nil, core.FitOptions{})
			return err
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("core.Train: %w", err)
		}
		train = append(train, ms(d))
		d, err = b.spans.timed("core.CompareOnWindow", -1, func(int) error {
			_, err := core.CompareOnWindow(incumbent, challenger, cur, core.DriftOptions{B: 200, Conf: 0.9, Seed: int64(k + 1)})
			return err
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("core.CompareOnWindow: %w", err)
		}
		compare = append(compare, ms(d))
		guests := []units.Vector{p.guest()}
		var sink float64
		d, _ = b.spans.timed("core.Model.Predict x1000", -1, func(int) error {
			for i := 0; i < predicts; i++ {
				sink += challenger.Predict(guests).Dom0CPU
			}
			return nil
		})
		if math.IsNaN(sink) {
			return 0, 0, 0, fmt.Errorf("prediction is NaN")
		}
		predict = append(predict, float64(d)/1e3/predicts)
	}
	b.attempted += tenants
	return median(train), median(compare), median(predict), nil
}
