package sampling

// Sharded batch delivery.
//
// A sharded producer (the engine's worker pool) assembles one step batch in
// PM-disjoint segments, one per shard, and can hand each segment to a sink
// *while still on the worker that produced it* — the shard that steps a PM
// range also meters it (the affinity invariant, DESIGN.md §13). A sink opts
// in by implementing ShardedBatchSink on top of its Sink path. The protocol
// per step:
//
//  1. BeginShardStep(shape) on the stepping goroutine, before any segment
//     exists. The sink sizes per-shard scratch and returns whether it
//     accepts sharded delivery this step. Returning false must leave the
//     sink ready for a plain ConsumeBatch of the merged batch instead —
//     producers fall back to the serial path for sinks that decline.
//  2. ConsumeShard(s, seg) exactly once per shard s in [0, shape.Shards),
//     possibly with an empty segment, possibly concurrently from several
//     goroutines. Segments are disjoint sub-slices of one step batch:
//     concatenated in ascending shard order they equal the merged batch,
//     and the PMs of different segments are disjoint. The sink may only
//     write per-shard state here (plus atomic instruments); the slice stays
//     valid until FinishShardStep returns but must not be retained after.
//  3. FinishShardStep() on the stepping goroutine, after every ConsumeShard
//     happened-before it. The sink folds its per-shard partials in
//     ascending shard order — the ordered single-writer merge — so its
//     observable state afterwards must be exactly what one ConsumeBatch of
//     the merged batch would have produced. Bit-exactly: Welford moments,
//     P² percentiles and every other float fold are order-sensitive, and
//     ascending shard order *is* the serial order.
//
// Selectors, Keep funcs and other user callbacks reached from ConsumeShard
// must be safe for concurrent use (pure functions are).
//
// Producers resolve the sharded view with a type assertion,
// s.(ShardedBatchSink), once per attached sink.
type ShardedBatchSink interface {
	Sink
	// BeginShardStep opens one sharded step. False declines (this step):
	// the producer will deliver the merged batch via ConsumeBatch instead.
	BeginShardStep(shape ShardShape) bool
	// ConsumeShard ingests shard s's segment. Called exactly once per
	// shard between Begin and Finish, concurrently or not.
	ConsumeShard(shard int, seg []Sample)
	// FinishShardStep merges the per-shard partials in shard order.
	FinishShardStep()
}

// ShardShape describes one sharded step delivery.
type ShardShape struct {
	// Shards is the number of segments the step batch is split into.
	Shards int
	// Time is the step's sample time (all samples of the step carry it).
	Time float64
	// MaxPMID is the largest PM arena ID that can appear in the step, so
	// sinks with dense pmID-indexed state can pre-size it once instead of
	// growing from concurrent ConsumeShard calls.
	MaxPMID int
}

// BeginShardStep implements ShardedBatchSink: the decimator makes its one
// per-step keep decision here and declines the whole sharded step when the
// step is decimated away (the fallback ConsumeBatch re-observes the same
// step time, which is idempotent, and drops the batch) or when Next has no
// sharded path.
func (d *Decimator) BeginShardStep(shape ShardShape) bool {
	d.observeStep(shape.Time)
	if !d.keep || d.nss == nil {
		return false
	}
	return d.nss.BeginShardStep(shape)
}

// ConsumeShard implements ShardedBatchSink (pass-through on kept steps).
func (d *Decimator) ConsumeShard(shard int, seg []Sample) {
	d.nss.ConsumeShard(shard, seg)
}

// FinishShardStep implements ShardedBatchSink.
func (d *Decimator) FinishShardStep() { d.nss.FinishShardStep() }

// BeginShardStep implements ShardedBatchSink.
func (f *Filter) BeginShardStep(shape ShardShape) bool {
	if !f.nssRes {
		f.nss, _ = f.Next.(ShardedBatchSink)
		f.nssRes = true
	}
	if f.nss == nil || !f.nss.BeginShardStep(shape) {
		return false
	}
	if len(f.shBuf) < shape.Shards {
		buf := make([][]Sample, shape.Shards)
		copy(buf, f.shBuf)
		f.shBuf = buf
	}
	return true
}

// ConsumeShard implements ShardedBatchSink: the kept samples of a segment
// are forwarded as one sub-segment, through the incoming slice itself when
// everything is kept (the common monitored-PM case — shard segments hold
// whole PM groups) and through a reused per-shard copy otherwise. The
// Kept/Dropped counters are atomic, so concurrent shards may add to them.
func (f *Filter) ConsumeShard(shard int, seg []Sample) {
	kept := 0
	for i := range seg {
		if f.Keep(seg[i]) {
			kept++
		}
	}
	f.countBatch(kept, len(seg))
	if kept == len(seg) {
		f.nss.ConsumeShard(shard, seg)
		return
	}
	buf := f.shBuf[shard][:0]
	for i := range seg {
		if f.Keep(seg[i]) {
			buf = append(buf, seg[i])
		}
	}
	f.shBuf[shard] = buf
	f.nss.ConsumeShard(shard, buf)
}

// FinishShardStep implements ShardedBatchSink.
func (f *Filter) FinishShardStep() { f.nss.FinishShardStep() }

// growShardBufs sizes a per-shard float buffer table for a new step:
// `shards` buffers, each truncated to length zero with capacity kept.
func growShardBufs(bufs [][]float64, shards int) [][]float64 {
	if len(bufs) < shards {
		grown := make([][]float64, shards)
		copy(grown, bufs)
		bufs = grown
	}
	for i := 0; i < shards; i++ {
		bufs[i] = bufs[i][:0]
	}
	return bufs
}

// BeginShardStep implements ShardedBatchSink.
func (s *StatSink) BeginShardStep(shape ShardShape) bool {
	s.shv = growShardBufs(s.shv, shape.Shards)
	s.shards = shape.Shards
	return true
}

// ConsumeShard implements ShardedBatchSink: selected values are staged in a
// per-shard buffer; the estimator itself is order-sensitive and only
// touched by the merge.
func (s *StatSink) ConsumeShard(shard int, seg []Sample) {
	buf := s.shv[shard]
	for i := range seg {
		if x, ok := s.sel(seg[i]); ok {
			buf = append(buf, x)
		}
	}
	s.shv[shard] = buf
}

// FinishShardStep implements ShardedBatchSink: folds the staged values in
// shard order, which is the serial sample order.
func (s *StatSink) FinishShardStep() {
	for sh := 0; sh < s.shards; sh++ {
		for _, x := range s.shv[sh] {
			s.stat.Add(x)
		}
	}
}

// BeginShardStep implements ShardedBatchSink.
func (c *CDFSink) BeginShardStep(shape ShardShape) bool {
	c.shv = growShardBufs(c.shv, shape.Shards)
	c.shards = shape.Shards
	return true
}

// ConsumeShard implements ShardedBatchSink.
func (c *CDFSink) ConsumeShard(shard int, seg []Sample) {
	buf := c.shv[shard]
	for i := range seg {
		if x, ok := c.sel(seg[i]); ok {
			buf = append(buf, x)
		}
	}
	c.shv[shard] = buf
}

// FinishShardStep implements ShardedBatchSink: appends the staged values in
// shard order, preserving the serial arrival order of Values.
func (c *CDFSink) FinishShardStep() {
	for sh := 0; sh < c.shards; sh++ {
		c.values = append(c.values, c.shv[sh]...)
	}
}

// BeginShardStep implements ShardedBatchSink. It accepts when at least one
// member does; members that decline (or have no sharded path) are fed
// serially at FinishShardStep.
func (f *Fanout) BeginShardStep(shape ShardShape) bool {
	any := false
	for i, ss := range f.ss {
		on := ss != nil && ss.BeginShardStep(shape)
		f.on[i] = on
		any = any || on
	}
	if !any {
		return false
	}
	if len(f.segs) < shape.Shards {
		f.segs = make([][]Sample, shape.Shards)
	}
	for i := range f.segs {
		f.segs[i] = nil
	}
	return true
}

// ConsumeShard implements ShardedBatchSink: sharded members consume the
// segment now (on the producing worker); the segment reference is kept for
// the serial members' merge-time feed. Writes are per-shard disjoint.
func (f *Fanout) ConsumeShard(shard int, seg []Sample) {
	f.segs[shard] = seg
	for i, on := range f.on {
		if on {
			f.ss[i].ConsumeShard(shard, seg)
		}
	}
}

// FinishShardStep implements ShardedBatchSink: members merge (or are fed
// the step's segments in ascending shard order) in attach order, matching
// ConsumeBatch's per-step member ordering.
func (f *Fanout) FinishShardStep() {
	for i := range f.sinks {
		if f.on[i] {
			f.ss[i].FinishShardStep()
			continue
		}
		for _, seg := range f.segs {
			if len(seg) > 0 {
				f.sinks[i].ConsumeBatch(seg)
			}
		}
	}
	for i := range f.segs {
		f.segs[i] = nil
	}
}
