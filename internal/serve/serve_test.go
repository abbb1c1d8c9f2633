package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"virtover/internal/core"
	"virtover/internal/exps"
	"virtover/internal/monitor"
	"virtover/internal/obs"
	"virtover/internal/scenario"
)

const fitSpec = `{"seed": 11, "samples": 2, "method": "ols"}`

func estimateBody(seed int64) string {
	return fmt.Sprintf(`{
	  "model": {"seed": %d, "samples": 2, "method": "ols"},
	  "guests": [{"cpu": 50, "mem": 128, "io": 20, "bw": 400}]
	}`, seed)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, data
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockPool occupies every worker and fills the queue with blocking tasks,
// deterministically saturating the pool. It returns the release function.
func blockPool(t *testing.T, s *Server) (release func()) {
	t.Helper()
	releaseC := make(chan struct{})
	started := make(chan struct{}, s.opt.Workers)
	var wg sync.WaitGroup
	for i := 0; i < s.opt.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.execute(context.Background(), func(context.Context) {
				started <- struct{}{}
				<-releaseC
			})
		}()
	}
	for i := 0; i < s.opt.Workers; i++ {
		<-started
	}
	for i := 0; i < s.opt.Queue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.execute(context.Background(), func(context.Context) {})
		}()
	}
	waitFor(t, "queue to fill", func() bool {
		return s.m.queueDepth.Value() == int64(s.opt.Queue)
	})
	var once sync.Once
	return func() {
		once.Do(func() {
			close(releaseC)
			wg.Wait()
		})
	}
}

// TestServeEndToEnd drives the service over HTTP with more concurrent
// clients than pool capacity: a deterministically saturated pool answers
// 429 with Retry-After, clients that honor the hint all finish, the model
// cache serves repeats, and the serve_* metrics are populated.
func TestServeEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustServer(t, Options{Workers: 4, Queue: 2, CacheSize: 8, Obs: reg})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Phase 1: saturate the pool (4 executing + 2 queued), then prove the
	// next request is rejected, not queued unboundedly.
	release := blockPool(t, s)
	resp, body := postJSON(t, ts.URL+"/v1/estimate", estimateBody(11))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool answered %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body = %s, want a queue-full error", body)
	}
	release()

	// Phase 2: 24 concurrent clients against the 4-worker pool. Clients
	// honor 429 by retrying; every one must eventually succeed.
	const clients = 24
	var (
		mu        sync.Mutex
		retried   int
		cacheHits int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				resp, body := postJSON(t, ts.URL+"/v1/estimate", estimateBody(11))
				if resp.StatusCode == http.StatusTooManyRequests {
					if attempt > 500 {
						t.Errorf("client %d: still 429 after %d attempts", c, attempt)
						return
					}
					mu.Lock()
					retried++
					mu.Unlock()
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
					return
				}
				var er estimateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if er.PM.CPU <= 50 {
					t.Errorf("client %d: PM CPU %.2f should exceed the guest's 50%%", c, er.PM.CPU)
				}
				mu.Lock()
				if er.CacheHit {
					cacheHits++
				}
				mu.Unlock()
				return
			}
		}(c)
	}
	wg.Wait()

	// One more identical request is a guaranteed cache hit.
	resp, body = postJSON(t, ts.URL+"/v1/estimate", estimateBody(11))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.CacheHit {
		t.Error("repeat estimate should be served from the model cache")
	}

	// Metrics: the latency histogram and cache counters are populated and
	// exposed on /metrics.
	if s.m.latency.Count() == 0 {
		t.Error("latency histogram is empty")
	}
	if s.m.cacheMisses.Value() == 0 || s.m.cacheHits.Value() == 0 {
		t.Errorf("cache counters: hits=%d misses=%d, want both > 0",
			s.m.cacheHits.Value(), s.m.cacheMisses.Value())
	}
	if s.m.rejected.Value() == 0 {
		t.Error("rejected counter is zero despite the saturated-pool 429")
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"serve_request_latency_ns_count",
		"serve_model_cache_hits_total",
		"serve_model_cache_misses_total",
		"serve_requests_rejected_total",
		"serve_queue_depth",
		"serve_requests_inflight",
	} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// The cache lists the one fitted model.
	lresp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	ldata, err := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var models modelsResponse
	if err := json.Unmarshal(ldata, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0].Seed != 11 {
		t.Errorf("models = %+v, want the one seed-11 model", models.Models)
	}
}

// TestServeFitDeterminism: the bytes served by /v1/fit are bit-identical
// to a library fit of the same inputs written with SaveModel.
func TestServeFitDeterminism(t *testing.T) {
	s := mustServer(t, Options{Workers: 2, Queue: 4})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, served := postJSON(t, ts.URL+"/v1/fit", fitSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("first fit X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}

	m, err := exps.FitModel(11, 2, core.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var lib bytes.Buffer
	if err := core.SaveModel(&lib, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, lib.Bytes()) {
		t.Errorf("served fit differs from library fit:\nserved:  %s\nlibrary: %s", served, lib.Bytes())
	}

	// The cached repeat serves the same bytes.
	resp, repeat := postJSON(t, ts.URL+"/v1/fit", fitSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat fit X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(served, repeat) {
		t.Error("cached fit served different bytes")
	}
}

// TestServeShutdownDrains: Shutdown rejects new requests with 503 but
// waits for admitted work to finish.
func TestServeShutdownDrains(t *testing.T) {
	s := mustServer(t, Options{Workers: 2, Queue: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	inWork := make(chan struct{})
	release := make(chan struct{})
	execDone := make(chan error, 1)
	go func() {
		execDone <- s.execute(context.Background(), func(context.Context) {
			close(inWork)
			<-release
		})
	}()
	<-inWork

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()

	// Once draining, new compute requests answer 503.
	waitFor(t, "draining 503", func() bool {
		resp, _ := postJSON(t, ts.URL+"/v1/estimate", estimateBody(11))
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	select {
	case <-shutDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	default:
	}

	close(release)
	if err := <-execDone; err != nil {
		t.Errorf("in-flight request failed during drain: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown = %v", err)
	}
}

// TestServeBadRequests: malformed inputs answer 400 with field-naming
// messages; none of them consume pool capacity.
func TestServeBadRequests(t *testing.T) {
	s := mustServer(t, Options{Workers: 1, Queue: 1})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		path, body, want string
	}{
		{"/v1/fit", `{"seed": 1, "sede": 2}`, "unknown field"},
		{"/v1/fit", `{"version": 2, "seed": 1}`, "unsupported version 2"},
		{"/v1/fit", `{"seed": 1, "method": "magic"}`, `unknown method "magic"`},
		{"/v1/fit", `{"seed": 1, "method": "lms", "ridge": 0.1}`, "ridge"},
		{"/v1/estimate", `{"model": {"seed": 1}, "guests": []}`, "at least one guest"},
		{"/v1/scenario/run", `{"version": 1, "pms": [], "vms": []}`, "at least one PM"},
		{"/v1/scenario/run",
			`{"pms": [{"name": "a"}], "vms": [{"name": "v", "pm": "a", "workload": {"kind": "cpuu"}}]}`,
			`vms[0].workload.kind: unknown kind "cpuu"`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.path, c.body, resp.StatusCode, body)
			continue
		}
		var er errorEnvelope
		if err := json.Unmarshal(body, &er); err != nil {
			t.Errorf("%s: non-JSON error body %s", c.path, body)
			continue
		}
		if er.Error.Code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", c.path, er.Error.Code)
		}
		if !strings.Contains(er.Error.Message, c.want) {
			t.Errorf("%s: error %q should contain %q", c.path, er.Error.Message, c.want)
		}
	}
}

// TestServeScenarioRun: the service accepts the scenario envelope and
// returns run averages.
func TestServeScenarioRun(t *testing.T) {
	s := mustServer(t, Options{Workers: 2, Queue: 2})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/scenario/run", `{
	  "version": 1, "seed": 7, "duration": 10,
	  "pms": [{"name": "pm1"}],
	  "vms": [{"name": "web", "pm": "pm1",
	           "workload": {"kind": "mix", "cpu": 40, "ioBlocks": 10}}]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var run scenarioRunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Samples != 10 || len(run.Average) != 1 {
		t.Fatalf("samples=%d averages=%d, want 10 and 1", run.Samples, len(run.Average))
	}
	web := run.Average[0].VMs["web"]
	if web.CPU < 30 || web.CPU > 50 {
		t.Errorf("web CPU = %.2f, want ~40", web.CPU)
	}
}

// TestServeFitCoalescing: 24 concurrent identical /v1/fit requests run
// exactly one fit. The pool's single worker is blocked while the clients
// arrive, so every request demonstrably overlaps: one becomes the leader
// (queued behind the blocker), the other 23 coalesce onto its in-flight
// fitCall without consuming queue or worker capacity.
func TestServeFitCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustServer(t, Options{Workers: 1, Queue: 4, Obs: reg})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the only worker so the leader's fit cannot start yet.
	inWork := make(chan struct{})
	release := make(chan struct{})
	blockDone := make(chan struct{})
	go func() {
		defer close(blockDone)
		_ = s.execute(context.Background(), func(context.Context) {
			close(inWork)
			<-release
		})
	}()
	<-inWork

	const clients = 24
	type result struct {
		status int
		xcache string
		body   []byte
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/fit", `{"seed": 23, "samples": 2}`)
			results[c] = result{resp.StatusCode, resp.Header.Get("X-Cache"), body}
		}(c)
	}
	// All but the leader must be waiting on the in-flight call before the
	// worker is released — proof they coalesced rather than queued.
	waitFor(t, "23 coalesced waiters", func() bool {
		return s.m.coalesced.Value() == clients-1
	})
	close(release)
	wg.Wait()
	<-blockDone

	var leaders int
	for c, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", c, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("client %d served different bytes", c)
		}
		if r.xcache == "miss" {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d clients report X-Cache miss, want exactly the 1 leader", leaders)
	}
	if misses := s.m.cacheMisses.Value(); misses != 1 {
		t.Errorf("training pipeline ran %d times for %d identical requests, want 1", misses, clients)
	}
	if co := s.m.coalesced.Value(); co != clients-1 {
		t.Errorf("serve_coalesced = %d, want %d", co, clients-1)
	}
}

// TestServeScenarioFork: a warmed scenario settles once — the second
// identical request forks from the cached prefix — and the served trace is
// byte-identical to the library's RunContext on the same scenario.
func TestServeScenarioFork(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustServer(t, Options{Workers: 2, Queue: 2, Obs: reg})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	doc := `{
	  "version": 1, "seed": 19, "duration": 8, "warmupSteps": 5,
	  "pms": [{"name": "pm1"}],
	  "vms": [{"name": "web", "pm": "pm1",
	           "workload": {"kind": "cpu", "level": 40, "jitter": 0.1}}]
	}`
	resp1, body1 := postJSON(t, ts.URL+"/v1/scenario/run", doc)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/scenario/run", doc)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("forked rerun served different bytes than the cold run")
	}

	// The warmed prefix is cached under the scenario's content address.
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.forks.Get(sc.PrefixKey()); !ok {
		t.Fatal("warmed prefix not in the fork cache")
	}
	if s.forks.Len() != 1 {
		t.Errorf("fork cache holds %d prefixes, want 1", s.forks.Len())
	}

	// Byte-identical to the library path: same averages as RunContext.
	series, err := sc.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var run scenarioRunResponse
	if err := json.Unmarshal(body1, &run); err != nil {
		t.Fatal(err)
	}
	want := monitor.Average(series)
	if len(run.Average) != len(want) {
		t.Fatalf("%d averages, want %d", len(run.Average), len(want))
	}
	for i, m := range want {
		got := run.Average[i]
		if got.PM != m.PM || got.Host != toVectorJSON(m.Host) ||
			got.HypervisorCPU != m.HypervisorCPU || got.Dom0 != toVectorJSON(m.Dom0) {
			t.Errorf("PM %s: served average diverges from the library run", m.PM)
		}
		for name, v := range m.VMs {
			if got.VMs[name] != toVectorJSON(v) {
				t.Errorf("VM %s: served %v, library %v", name, got.VMs[name], toVectorJSON(v))
			}
		}
	}
}

// TestModelCacheLRU exercises eviction order and promotion.
func TestModelCacheLRU(t *testing.T) {
	c := newModelCache(2)
	k := func(seed int64) modelKey { return modelKey{Seed: seed, Samples: 2} }
	m := &core.Model{}
	c.Add(k(1), m)
	c.Add(k(2), m)
	if _, ok := c.Get(k(1)); !ok { // promotes 1 over 2
		t.Fatal("k1 missing")
	}
	c.Add(k(3), m) // evicts 2
	if _, ok := c.Get(k(2)); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("k1 should have survived (recently used)")
	}
	keys := c.Keys()
	if len(keys) != 2 {
		t.Fatalf("cache holds %d keys, want 2", len(keys))
	}
}

// TestServeRequestTimeout: a deadline shorter than the run yields 504 and
// the simulation aborts rather than running to completion.
func TestServeRequestTimeout(t *testing.T) {
	s := mustServer(t, Options{Workers: 1, Queue: 1, RequestTimeout: time.Millisecond})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/scenario/run", `{
	  "seed": 7, "duration": 100000,
	  "pms": [{"name": "pm1"}],
	  "vms": [{"name": "web", "pm": "pm1", "workload": {"kind": "cpu", "level": 40}}]
	}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
}
