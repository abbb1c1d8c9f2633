// Package serve is the continuously-learning overhead-estimation service:
// the library's fitting and prediction pipeline behind an HTTP/JSON API,
// grown from a request/response fitter into a streaming system that keeps
// per-tenant models fresh under live telemetry.
//
// Architecture (DESIGN.md §11 and §16 have the full walkthrough):
//
//	request path:  listener -> bounded queue -> worker pool -> engine / fitter -> model cache
//	learning path: POST /v1/ingest -> per-tenant ring windows -> refit loop
//	               -> drift rule (bootstrap CI) -> atomic hot model swap
//
// Every compute endpoint funnels through one bounded task queue drained by
// a fixed worker pool, so a burst of requests degrades into queueing and
// then into fast 429 rejections (with Retry-After) instead of unbounded
// goroutine and memory growth. Fitted models are cached in a keyed LRU —
// fits are deterministic, so identical (seed, samples, method, ridge)
// requests are served from memory.
//
// The streaming side holds one bounded ring window of training samples
// per tenant (fixed memory per tenant; the tenant population itself is
// LRU-bounded, evicting the idlest) and a background loop that refits a
// challenger model per dirty tenant, compares it to the incumbent with
// core.CompareOnWindow's bootstrap drift rule, and publishes winners with
// a single atomic pointer swap — tenant-scoped estimates never observe a
// stale or partially-written coefficient set.
//
// Request contexts carry per-request deadlines and flow into the
// simulation engine, which checks cancellation every step; a disconnected
// or timed-out client aborts its run within one engine step. Shutdown
// stops admitting work, halts the refit loop, and drains what is in
// flight. Every error response, on every endpoint, is the unified
// envelope {"error":{"code","message","requestId"}}.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"virtover/internal/core"
	"virtover/internal/obs"
	"virtover/internal/xen"
)

// ErrQueueFull is returned (and mapped to HTTP 429) when the task queue
// has no room for another request.
var ErrQueueFull = errors.New("serve: queue full")

// errDraining is mapped to HTTP 503 once Shutdown has begun.
var errDraining = errors.New("serve: shutting down")

// ErrBadConfig is wrapped by every Options validation failure from
// Normalize and NewServer.
var ErrBadConfig = errors.New("serve: invalid options")

// Options configures a Server. The zero value selects the documented
// defaults; Normalize is the single place defaults and validation live,
// so call sites never hand-fill zero values.
type Options struct {
	// Workers is the number of concurrent compute workers (default 4).
	// Each in-flight fit or scenario run occupies one worker.
	Workers int
	// Queue is the number of requests that may wait for a worker beyond
	// those executing (default 16). When the queue is full new compute
	// requests are rejected with 429 and a Retry-After hint.
	Queue int
	// CacheSize bounds the fitted-model LRU cache (default 32 models).
	CacheSize int
	// ForkCacheSize bounds the warmed-scenario prefix cache (default 16
	// sources). A scenario with warmupSteps settles once; repeated
	// /v1/scenario/run requests for the same prefix (PrefixKey) fork their
	// measured phase from the cached snapshot instead of re-settling.
	ForkCacheSize int
	// RequestTimeout is the per-request compute deadline (default 30s).
	// It caps r.Context(), so both client disconnects and slow runs
	// cancel the underlying simulation.
	RequestTimeout time.Duration

	// Window bounds each tenant's telemetry ring window (default 512
	// samples). Older samples are overwritten, so per-tenant memory is
	// fixed.
	Window int
	// MaxTenants bounds the tenant population (default 1024). Beyond it,
	// the least-recently-ingesting tenant is evicted — window, model and
	// all — so total streaming memory is MaxTenants x Window samples.
	MaxTenants int
	// RefitInterval is the background refit loop's sweep period (default
	// 5s). Negative disables the loop entirely; drive refits with
	// Server.RefitNow instead (tests and embeddings do this for
	// determinism).
	RefitInterval time.Duration
	// Refit configures the challenger fits (method, ridge, LMS knobs).
	// The zero value is plain OLS.
	Refit core.FitOptions
	// DriftBootstrap is the bootstrap replicate count of the drift rule
	// (default 200).
	DriftBootstrap int
	// DriftConf is the drift rule's confidence level (default 0.9).
	// Higher swaps less eagerly.
	DriftConf float64
	// IngestMaxLines bounds the samples accepted per /v1/ingest batch
	// (default 4096); the overflow answers 413 under the partial-accept
	// contract.
	IngestMaxLines int
	// IngestMaxBytes bounds the /v1/ingest request body (default 1 MiB).
	IngestMaxBytes int64

	// Obs receives the service metrics (serve_* series) and is exposed on
	// GET /metrics. Nil disables instrumentation (and /metrics serves an
	// empty document).
	Obs *obs.Registry
	// Journal receives one wide event per request ("serve"), ingest batch
	// ("ingest") and tenant refit ("refit"), plus the fork cache's
	// build/hit events. Nil disables journaling.
	Journal *obs.Journal
	// Log receives request-level diagnostics. Nil discards them.
	Log *slog.Logger
}

// Normalize returns a copy of o with every unset knob replaced by its
// documented default and the remaining fields validated. Defaults:
// Workers 4, Queue 16, CacheSize 32, ForkCacheSize 16, RequestTimeout
// 30s, Window 512, MaxTenants 1024, RefitInterval 5s, DriftBootstrap
// 200, DriftConf 0.9, IngestMaxLines 4096, IngestMaxBytes 1 MiB.
// Zero and negative integer knobs select the default (except
// RefitInterval, where negative means "no background loop"); errors wrap
// ErrBadConfig. Normalize is idempotent, and NewServer applies it, so
// callers normally never invoke it themselves.
func (o Options) Normalize() (Options, error) {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Queue <= 0 {
		o.Queue = 16
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 32
	}
	if o.ForkCacheSize <= 0 {
		o.ForkCacheSize = 16
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 512
	}
	if o.MaxTenants <= 0 {
		o.MaxTenants = 1024
	}
	if o.RefitInterval == 0 {
		o.RefitInterval = 5 * time.Second
	}
	if o.DriftBootstrap <= 0 {
		o.DriftBootstrap = 200
	}
	if o.DriftConf == 0 {
		o.DriftConf = 0.9
	}
	if o.DriftConf <= 0 || o.DriftConf >= 1 {
		return o, fmt.Errorf("%w: DriftConf %v out of (0,1)", ErrBadConfig, o.DriftConf)
	}
	if o.IngestMaxLines <= 0 {
		o.IngestMaxLines = 4096
	}
	if o.IngestMaxBytes <= 0 {
		o.IngestMaxBytes = 1 << 20
	}
	if err := o.Refit.Validate(); err != nil {
		return o, fmt.Errorf("%w: Refit: %v", ErrBadConfig, err)
	}
	if o.Log == nil {
		o.Log = slog.New(discardHandler{})
	}
	return o, nil
}

// discardHandler drops every record; it stands in for a nil Options.Log.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// task is one unit of compute admitted to the pool. The worker runs do
// under the request context and closes done; a canceled context skips the
// work (the waiting handler has already given up).
type task struct {
	ctx  context.Context
	do   func(ctx context.Context)
	done chan struct{}
}

// Server is the estimation service. It implements http.Handler; mount it
// on an http.Server (see cmd/servd) or an httptest.Server.
type Server struct {
	opt     Options
	mux     *http.ServeMux
	tasks   chan *task
	cache   *modelCache
	forks   *xen.ForkCache
	tenants *tenantRegistry
	refit   *refitter
	log     *slog.Logger
	jr      *obs.Journal

	fitMu sync.Mutex
	fits  map[modelKey]*fitCall // in-flight fits, keyed like the cache

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup // requests admitted past the draining check
	workers  sync.WaitGroup // worker goroutines
	stopOnce sync.Once
	drained  chan struct{} // closed when the pool has fully stopped

	m serveMetrics
}

// serveMetrics holds the service's instruments. All are nil-safe no-ops
// when Options.Obs is nil.
type serveMetrics struct {
	reg           *obs.Registry
	requests      *obs.Counter
	rejected      *obs.Counter
	errs          *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	coalesced     *obs.Counter
	inflight      *obs.Gauge
	queueDepth    *obs.Gauge
	latency       *obs.Histogram
	ingestSamples *obs.Counter
	ingestBatches *obs.Counter
	refits        *obs.Counter
	swaps         *obs.Counter
	refitErrs     *obs.Counter
}

// NewServer builds the service, starts its worker pool and — unless
// RefitInterval is negative — the background refit loop. Call Shutdown to
// drain and stop both. The one failure mode is invalid options
// (errors.Is(err, ErrBadConfig)).
func NewServer(opt Options) (*Server, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return nil, err
	}
	reg := opt.Obs
	s := &Server{
		opt:     opt,
		tasks:   make(chan *task, opt.Queue),
		cache:   newModelCache(opt.CacheSize),
		forks:   xen.NewForkCache(opt.ForkCacheSize),
		tenants: newTenantRegistry(opt.MaxTenants, opt.Window),
		fits:    map[modelKey]*fitCall{},
		log:     opt.Log,
		jr:      opt.Journal,
		drained: make(chan struct{}),
		m: serveMetrics{
			reg:           reg,
			requests:      reg.Counter("serve_requests_total", "API requests received"),
			rejected:      reg.Counter("serve_requests_rejected_total", "requests rejected with 429 (queue full)"),
			errs:          reg.Counter("serve_request_errors_total", "requests answered with an error status"),
			cacheHits:     reg.Counter("serve_model_cache_hits_total", "fit requests served from the model cache"),
			cacheMisses:   reg.Counter("serve_model_cache_misses_total", "fit requests that ran the training pipeline"),
			coalesced:     reg.Counter("serve_coalesced_total", "identical concurrent fits collapsed onto one in-flight run"),
			inflight:      reg.Gauge("serve_requests_inflight", "requests currently admitted (queued or executing)"),
			queueDepth:    reg.Gauge("serve_queue_depth", "tasks waiting for a worker"),
			latency:       reg.Histogram("serve_request_latency_ns", "wall time per compute request, admission to response"),
			ingestSamples: reg.Counter("serve_ingest_samples_total", "telemetry samples accepted into tenant windows"),
			ingestBatches: reg.Counter("serve_ingest_batches_total", "ingest batches parsed (including partially accepted ones)"),
			refits:        reg.Counter("serve_refits_total", "per-tenant challenger refits completed"),
			swaps:         reg.Counter("serve_swaps_total", "hot model swaps published (seed fits and drift-triggered)"),
			refitErrs:     reg.Counter("serve_refit_errors_total", "refits abandoned by fit or drift-comparison errors"),
		},
	}
	if reg != nil {
		s.forks.Instrument(reg) // fork_* series alongside the serve_* ones
		s.tenants.instrument(reg)
	}
	s.forks.SetJournal(opt.Journal) // "fork" events alongside the "serve" ones
	s.workers.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	s.refit = newRefitter(s, opt.RefitInterval)
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// worker drains the task queue. Tasks whose request context is already
// canceled are skipped: their handler has stopped waiting.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.tasks {
		s.m.queueDepth.Add(-1)
		if t.ctx.Err() == nil {
			t.do(t.ctx)
		}
		close(t.done)
	}
}

// execute admits one compute closure to the pool and waits for it (or for
// ctx). It returns ErrQueueFull without blocking when the queue is full,
// errDraining after Shutdown began, and ctx.Err() when the caller's
// context ends first — in which case the closure may still run briefly but
// observes the canceled context and aborts within one engine step.
func (s *Server) execute(ctx context.Context, do func(ctx context.Context)) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errDraining
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	t := &task{ctx: ctx, do: do, done: make(chan struct{})}
	select {
	case s.tasks <- t:
		s.m.queueDepth.Add(1)
	default:
		s.m.rejected.Inc()
		return ErrQueueFull
	}
	select {
	case <-t.done:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown stops admitting requests, halts the refit loop, waits for
// admitted requests to finish (handlers return only after their response
// is written), then stops the worker pool. It returns ctx.Err() if ctx
// expires first; the pool keeps draining in the background in that case.
// Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	s.stopOnce.Do(func() {
		go func() {
			s.refit.stopLoop() // no more background swaps
			s.inflight.Wait()  // no admitted request remains -> no more sends
			close(s.tasks)
			s.workers.Wait()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
