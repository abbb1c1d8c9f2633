package obs

import (
	"bufio"
	"io"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
)

// Journal is the run journal: an append-only stream of wide events — one
// JSON object per line — recording what the process actually did (engine
// step-windows, campaign grid cells, fork-cache builds and hits, LMS fits,
// serve requests) with enough context to join the lines after the fact.
// It is the same design move the paper makes for Xen: one structured
// reading per unit of work, wide enough that "which shard was the
// straggler" or "which request triggered the cold fit" is a query over the
// artifact, not a re-run.
//
// Like the rest of this package, the disabled state is a nil *Journal:
// every method is a no-op on a nil receiver, so instrumented call sites
// pay one predictable nil check and zero allocations when journaling is
// off. When enabled, Emit hand-encodes the event into a buffer reused
// across calls and appends it to a buffered writer under a mutex, so the
// steady state allocates nothing either.
//
// Determinism: events carry no shard counts, goroutine identities or
// sequence numbers, and every zero-valued field is omitted from the
// encoding. Under an injected constant Clock and alloc probe the stream is
// therefore byte-identical at any shard count and GOMAXPROCS — the golden
// fixture in internal/monitor pins that contract.
type Journal struct {
	clock  Clock
	alloc  func() int64
	window int

	mu      sync.Mutex
	bw      *bufio.Writer
	closer  io.Closer // the writer, when it wants closing too
	scratch []byte
	err     error
	events  atomic.Uint64
}

// JournalOption configures a Journal.
type JournalOption func(*Journal)

// WithJournalClock replaces the real monotonic clock used for timestamps
// and durations. A constant clock normalizes every timing field, which is
// how the golden tests make the stream reproducible.
func WithJournalClock(c Clock) JournalOption {
	return func(j *Journal) { j.clock = c }
}

// WithAllocProbe replaces the allocation probe (cumulative heap bytes
// allocated by the process) used for per-event alloc deltas. Tests inject
// a constant to normalize the field.
func WithAllocProbe(f func() int64) JournalOption {
	return func(j *Journal) { j.alloc = f }
}

// WithStepWindow sets how many engine steps are coalesced into one "step"
// event (default DefaultStepWindow). Smaller windows buy temporal
// resolution with journal size and per-step probe cost — the alloc probe
// (a runtime/metrics read) runs twice per window, so at window 1 it runs
// twice per engine step.
func WithStepWindow(n int) JournalOption {
	return func(j *Journal) {
		if n > 0 {
			j.window = n
		}
	}
}

// DefaultStepWindow is the engine-step coalescing window used when
// WithStepWindow is not given. 16 keeps the journaled step's overhead
// under the 10% acceptance bound (BenchmarkEngineCampaignStepJournaled)
// while still resolving phase drift over a few hundred steps.
const DefaultStepWindow = 16

// defaultAllocProbe reads cumulative heap allocation via runtime/metrics
// with a preallocated sample slice, so reading it does not itself
// allocate.
func defaultAllocProbe() func() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	return func() int64 {
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
}

// NewJournal builds a journal appending JSONL events to w. The journal
// owns buffering; call Close (or Flush) to push buffered lines out. If w
// is an io.Closer, Close closes it too.
func NewJournal(w io.Writer, opts ...JournalOption) *Journal {
	j := &Journal{bw: bufio.NewWriter(w), window: DefaultStepWindow}
	for _, o := range opts {
		o(j)
	}
	if j.clock == nil {
		j.clock = realClock()
	}
	if j.alloc == nil {
		j.alloc = defaultAllocProbe()
	}
	j.closer, _ = w.(io.Closer)
	return j
}

// Enabled reports whether the journal records anything — the one branch
// hot paths take before reading clocks or probes that would otherwise be
// wasted.
func (j *Journal) Enabled() bool { return j != nil }

// Now returns the journal's clock reading, or 0 when disabled.
func (j *Journal) Now() int64 {
	if j == nil {
		return 0
	}
	return j.clock()
}

// AllocBytes returns the journal's allocation-probe reading (cumulative
// process heap bytes), or 0 when disabled. Deltas between two readings
// around an event are process-wide: exact for serially executed work, an
// attribution hint when events overlap.
func (j *Journal) AllocBytes() int64 {
	if j == nil {
		return 0
	}
	return j.alloc()
}

// StepWindow returns how many engine steps one "step" event coalesces
// (0 when disabled).
func (j *Journal) StepWindow() int {
	if j == nil {
		return 0
	}
	return j.window
}

// Events returns how many events have been written (0 when disabled).
func (j *Journal) Events() uint64 {
	if j == nil {
		return 0
	}
	return j.events.Load()
}

// Emit appends one event line. Safe for concurrent use; the line is
// written atomically with respect to other Emit and Stage flushes. After
// a write error the journal goes quiet and Err reports the first failure.
func (j *Journal) Emit(e *Event) {
	if j == nil {
		return
	}
	ts := j.clock()
	j.mu.Lock()
	if j.err == nil {
		j.scratch = appendEvent(j.scratch[:0], ts, e)
		if _, err := j.bw.Write(j.scratch); err != nil {
			j.err = err
		} else {
			j.events.Add(1)
		}
	}
	j.mu.Unlock()
}

// Flush pushes buffered lines to the underlying writer.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = j.bw.Flush()
	}
	return j.err
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and, when the underlying writer is an io.Closer, closes
// it. A nil journal closes cleanly.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.Flush()
	if j.closer != nil {
		if cerr := j.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Event is one wide journal line. The zero value of every field means
// "absent" and is omitted from the encoding, so emitters fill only what
// applies: a step event has no request ID, a serve event no shard
// breakdown. Field meanings by event type are tabulated in DESIGN.md §15.
type Event struct {
	Type           string  // "step", "cell", "fork", "fit", "serve", "ingest", "refit"
	Step           int64   // engine step index at window end
	Steps          int     // steps coalesced into this window
	SimTime        float64 // simulated seconds at window end
	DurNanos       int64   // wall time spent in the unit of work
	AllocBytes     int64   // process heap bytes allocated across it
	Samples        int     // samples emitted (step), per run (fit), accepted (ingest) or in the window (refit)
	Tenants        int     // distinct tenants touched by an ingest batch
	MaxShardNanos  int64   // slowest shard's time in the window
	MeanShardNanos int64   // mean shard time in the window
	Straggler      int     // slowest shard id (with MaxShardNanos)
	Name           string  // cell name, serve path
	Prefix         string  // scenario prefix key (fork)
	Cache          string  // disposition: hit | miss | build | coalesced
	Method         string  // fit method (ols | lms)
	RequestID      string  // serve request correlation id
	Status         int     // serve HTTP status
	Err            string  // error text, when the unit failed
}

// appendEvent encodes e as one JSON line. Fields appear in a fixed order
// and zero values are skipped, which keeps lines compact and — crucially —
// makes the encoding independent of how many shards or procs produced the
// numbers when the timing fields are normalized.
func appendEvent(dst []byte, ts int64, e *Event) []byte {
	dst = append(dst, '{')
	first := true
	dst = appendIntField(dst, &first, "ts", ts)
	dst = appendStrField(dst, &first, "type", e.Type)
	dst = appendIntField(dst, &first, "step", e.Step)
	dst = appendIntField(dst, &first, "steps", int64(e.Steps))
	dst = appendFloatField(dst, &first, "sim", e.SimTime)
	dst = appendIntField(dst, &first, "durNs", e.DurNanos)
	dst = appendIntField(dst, &first, "allocB", e.AllocBytes)
	dst = appendIntField(dst, &first, "samples", int64(e.Samples))
	dst = appendIntField(dst, &first, "tenants", int64(e.Tenants))
	if e.MaxShardNanos != 0 {
		dst = appendIntField(dst, &first, "shardMaxNs", e.MaxShardNanos)
		dst = appendIntField(dst, &first, "shardMeanNs", e.MeanShardNanos)
		dst = appendKey(dst, &first, "straggler")
		dst = strconv.AppendInt(dst, int64(e.Straggler), 10)
	}
	dst = appendStrField(dst, &first, "name", e.Name)
	dst = appendStrField(dst, &first, "prefix", e.Prefix)
	dst = appendStrField(dst, &first, "cache", e.Cache)
	dst = appendStrField(dst, &first, "method", e.Method)
	dst = appendStrField(dst, &first, "req", e.RequestID)
	dst = appendIntField(dst, &first, "status", int64(e.Status))
	dst = appendStrField(dst, &first, "err", e.Err)
	return append(dst, '}', '\n')
}

func appendKey(dst []byte, first *bool, key string) []byte {
	if *first {
		*first = false
	} else {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

func appendIntField(dst []byte, first *bool, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = appendKey(dst, first, key)
	return strconv.AppendInt(dst, v, 10)
}

func appendFloatField(dst []byte, first *bool, key string, v float64) []byte {
	if v == 0 {
		return dst
	}
	dst = appendKey(dst, first, key)
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func appendStrField(dst []byte, first *bool, key string, s string) []byte {
	if s == "" {
		return dst
	}
	dst = appendKey(dst, first, key)
	return appendJSONString(dst, s)
}

// appendJSONString quotes s with the minimal escaping JSON requires.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// Stage is a set of single-writer staging lanes in front of a journal.
// Concurrent producers — one per lane, no lock, no coordination — encode
// events into their own lane; Flush then appends the lanes in lane order
// under the journal's lock. Campaign grids use one lane per grid cell, so
// cell events land in grid order no matter how the scheduler interleaved
// the cells: staging is what keeps a parallel run's journal deterministic.
type Stage struct {
	j     *Journal
	lanes []stageLane
}

// stageLane is one producer's buffer, padded so adjacent lanes do not
// share a cache line while their owners append concurrently.
type stageLane struct {
	buf []byte
	_   [40]byte
}

// NewStage returns a stage with n lanes, or nil — itself a no-op — when
// the journal is disabled.
func (j *Journal) NewStage(n int) *Stage {
	if j == nil || n <= 0 {
		return nil
	}
	return &Stage{j: j, lanes: make([]stageLane, n)}
}

// Emit encodes e into the given lane. Each lane must have at most one
// writer at a time; distinct lanes need no synchronization.
func (st *Stage) Emit(lane int, e *Event) {
	if st == nil || lane < 0 || lane >= len(st.lanes) {
		return
	}
	ts := st.j.clock()
	l := &st.lanes[lane]
	l.buf = appendEvent(l.buf, ts, e)
}

// Flush appends every staged event to the journal in lane order and
// resets the lanes. Call it after the producers are done (or from a
// single goroutine that has observed their completion).
func (st *Stage) Flush() {
	if st == nil {
		return
	}
	j := st.j
	j.mu.Lock()
	for i := range st.lanes {
		l := &st.lanes[i]
		if len(l.buf) == 0 {
			continue
		}
		if j.err == nil {
			if _, err := j.bw.Write(l.buf); err != nil {
				j.err = err
			} else {
				j.events.Add(countLines(l.buf))
			}
		}
		l.buf = l.buf[:0]
	}
	j.mu.Unlock()
}

func countLines(b []byte) uint64 {
	var n uint64
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}
