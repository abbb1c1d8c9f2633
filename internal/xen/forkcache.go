package xen

import (
	"container/list"
	"sync"

	"virtover/internal/obs"
)

// ForkCache is a content-addressed cache of warmed prefixes:
// key -> *ForkSource, bounded LRU, with singleflight build collapsing so N
// concurrent requests for the same not-yet-built prefix run one warm-up.
//
// The key is the caller's content address of everything the prefix depends
// on: topology and VM configs, workload parameters, warm-up length, seed —
// and a schema version token, bumped whenever the builder's meaning
// changes (new topology-generation semantics, recalibrated constants), so
// stale entries can never be served across a code change. Engine shard
// count and GOMAXPROCS are deliberately NOT part of the key: traces are
// bit-identical at every value, exactly like FitOptions.Workers in the
// serve layer's model cache.
//
// All methods are safe for concurrent use.
type ForkCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *forkEntry
	byKey   map[string]*list.Element
	pending map[string]*forkBuildCall
	bytes   int

	m  forkMetrics
	jr *obs.Journal // run journal for per-lookup "fork" events (SetJournal)
}

type forkEntry struct {
	key string
	src *ForkSource
}

// forkBuildCall is one in-flight prefix build other callers wait on.
type forkBuildCall struct {
	done chan struct{}
	src  *ForkSource
	err  error
}

// forkMetrics holds the cache's instruments; nil-safe no-ops until
// Instrument is called.
type forkMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	evicted   *obs.Counter
	bytes     *obs.Gauge
	entries   *obs.Gauge
}

// NewForkCache creates a cache bounded to max prefixes (max <= 0 selects
// 32).
func NewForkCache(max int) *ForkCache {
	if max <= 0 {
		max = 32
	}
	return &ForkCache{
		max:     max,
		order:   list.New(),
		byKey:   map[string]*list.Element{},
		pending: map[string]*forkBuildCall{},
	}
}

// Instrument registers the cache's metrics in reg: fork_hits_total /
// fork_misses_total (prefix lookups), fork_builds_coalesced_total
// (requests that waited on another caller's in-flight build),
// fork_evictions_total, and the fork_bytes / fork_entries gauges tracking
// the cached states' approximate footprint. A nil registry detaches the
// cache from any previously installed registry.
func (c *ForkCache) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.m = forkMetrics{}
		return
	}
	c.m = forkMetrics{
		hits:      reg.Counter("fork_hits_total", "warm-prefix cache hits"),
		misses:    reg.Counter("fork_misses_total", "warm-prefix cache misses (prefix built)"),
		coalesced: reg.Counter("fork_builds_coalesced_total", "prefix requests that joined an in-flight build"),
		evicted:   reg.Counter("fork_evictions_total", "warm prefixes evicted by the LRU bound"),
		bytes:     reg.Gauge("fork_bytes", "approximate bytes of cached warm-prefix states"),
		entries:   reg.Gauge("fork_entries", "warm prefixes currently cached"),
	}
	c.m.bytes.Set(int64(c.bytes))
	c.m.entries.Set(int64(c.order.Len()))
}

// Get returns the cached prefix for key, promoting it to most recently
// used.
func (c *ForkCache) Get(key string) (*ForkSource, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*forkEntry).src, true
}

// GetOrBuild returns the cached prefix for key, building it with build on
// a miss. Concurrent callers for the same missing key are collapsed: one
// runs build, the rest wait and share the result (or the error — failed
// builds are not cached, so a later call retries). hit reports whether the
// prefix came from the cache without this call (or the call it joined)
// building it.
func (c *ForkCache) GetOrBuild(key string, build func() (*ForkSource, error)) (src *ForkSource, hit bool, err error) {
	c.mu.Lock()
	jr := c.jr
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		c.m.hits.Inc()
		c.mu.Unlock()
		if jr.Enabled() {
			jr.Emit(&obs.Event{Type: "fork", Prefix: key, Cache: "hit"})
		}
		return el.Value.(*forkEntry).src, true, nil
	}
	if call, ok := c.pending[key]; ok {
		c.m.coalesced.Inc()
		c.mu.Unlock()
		<-call.done
		if jr.Enabled() {
			jr.Emit(&obs.Event{Type: "fork", Prefix: key, Cache: "coalesced", Err: errText(call.err)})
		}
		return call.src, call.err == nil, call.err
	}
	call := &forkBuildCall{done: make(chan struct{})}
	c.pending[key] = call
	c.m.misses.Inc()
	c.mu.Unlock()

	var bt0, ba0 int64
	if jr.Enabled() {
		bt0, ba0 = jr.Now(), jr.AllocBytes()
	}
	call.src, call.err = build()
	if jr.Enabled() {
		jr.Emit(&obs.Event{Type: "fork", Prefix: key, Cache: "build",
			DurNanos: jr.Now() - bt0, AllocBytes: jr.AllocBytes() - ba0, Err: errText(call.err)})
	}

	c.mu.Lock()
	delete(c.pending, key)
	if call.err == nil {
		c.addLocked(key, call.src)
	}
	c.mu.Unlock()
	close(call.done)
	return call.src, false, call.err
}

// errText renders an error for a journal field ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// addLocked inserts a freshly built prefix, evicting least recently used
// entries beyond the bound. The pending-build map guarantees key is not
// cached yet.
func (c *ForkCache) addLocked(key string, src *ForkSource) {
	c.byKey[key] = c.order.PushFront(&forkEntry{key: key, src: src})
	c.bytes += src.MemBytes()
	for c.order.Len() > c.max {
		last := c.order.Back()
		ent := last.Value.(*forkEntry)
		c.order.Remove(last)
		delete(c.byKey, ent.key)
		c.bytes -= ent.src.MemBytes()
		c.m.evicted.Inc()
	}
	c.m.bytes.Set(int64(c.bytes))
	c.m.entries.Set(int64(c.order.Len()))
}

// Len returns the number of cached prefixes.
func (c *ForkCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the approximate footprint of the cached states.
func (c *ForkCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
