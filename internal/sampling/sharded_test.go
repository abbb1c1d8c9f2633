package sampling

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"virtover/internal/units"
)

// groupFor builds one canonical PM group (guest, Dom0, hypervisor, host) at
// the given time with PM-distinct utilizations.
func groupFor(pm int, t float64) []Sample {
	base := float64(pm + 1)
	return []Sample{
		{Time: t, PMID: pm, PM: "pm", VMID: 0, Domain: "g0", Kind: KindGuest, Util: units.V(10*base, 100, 5, 50)},
		{Time: t, PMID: pm, PM: "pm", VMID: -1, Domain: LabelDom0, Kind: KindDom0, Util: units.V(3*base, 400, 0, 0)},
		{Time: t, PMID: pm, PM: "pm", VMID: -1, Domain: LabelHypervisor, Kind: KindHypervisor, Util: units.V(base, 0, 0, 0)},
		{Time: t, PMID: pm, PM: "pm", VMID: -1, Domain: LabelHost, Kind: KindHost, Util: units.V(14*base, 500, 5, 50)},
	}
}

// shardedStep feeds a ShardedBatchSink one step of nPM groups split into
// the given shard count, the way the engine does: contiguous PM ranges,
// one ConsumeShard per shard, each on its own goroutine (so the race
// detector checks the per-shard state), then the merge on the caller's.
func shardedStep(t *testing.T, ss ShardedBatchSink, shards, nPM int, time float64) bool {
	t.Helper()
	if !ss.BeginShardStep(ShardShape{Shards: shards, Time: time, MaxPMID: nPM - 1}) {
		return false
	}
	per := (nPM + shards - 1) / shards
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		var seg []Sample
		for pm := s * per; pm < (s+1)*per && pm < nPM; pm++ {
			seg = append(seg, groupFor(pm, time)...)
		}
		wg.Add(1)
		go func(s int, seg []Sample) {
			defer wg.Done()
			ss.ConsumeShard(s, seg)
		}(s, seg)
	}
	wg.Wait()
	ss.FinishShardStep()
	return true
}

// serialStep builds the equivalent merged batch.
func serialStep(nPM int, time float64) []Sample {
	var batch []Sample
	for pm := 0; pm < nPM; pm++ {
		batch = append(batch, groupFor(pm, time)...)
	}
	return batch
}

// TestShardedBatchSinkImplementers pins which built-in stages opt into
// sharded delivery: the stat sinks and the chain stages do, Counter does
// not (the fanout tests rely on it as a serial-only member).
func TestShardedBatchSinkImplementers(t *testing.T) {
	sel := SelectKind(KindHost, units.CPU)
	for name, s := range map[string]Sink{
		"StatSink":  NewStatSink(sel),
		"CDFSink":   NewCDFSink(sel),
		"Filter":    &Filter{Keep: func(Sample) bool { return true }, Next: &Counter{}},
		"Decimator": Decimate(2, &Counter{}),
		"Fanout":    NewFanout(),
	} {
		if _, ok := s.(ShardedBatchSink); !ok {
			t.Errorf("%s should expose the sharded contract", name)
		}
	}
	var c Sink = &Counter{}
	if _, ok := c.(ShardedBatchSink); ok {
		t.Error("Counter must not appear sharded")
	}
}

// TestStatAndCDFShardedMatchSerial folds the same 3-step stream through the
// serial and sharded paths at several shard counts and requires identical
// summaries and value sequences.
func TestStatAndCDFShardedMatchSerial(t *testing.T) {
	const nPM = 7
	sel := SelectKind(KindHost, units.CPU)
	serStat, serCDF := NewStatSink(sel), NewCDFSink(sel)
	for step := 1; step <= 3; step++ {
		b := serialStep(nPM, float64(step))
		serStat.ConsumeBatch(b)
		serCDF.ConsumeBatch(b)
	}
	for _, shards := range []int{1, 2, 3, 8} {
		shStat, shCDF := NewStatSink(sel), NewCDFSink(sel)
		for step := 1; step <= 3; step++ {
			if !shardedStep(t, shStat, shards, nPM, float64(step)) ||
				!shardedStep(t, shCDF, shards, nPM, float64(step)) {
				t.Fatalf("shards=%d: sink declined a sharded step", shards)
			}
		}
		if serStat.Summary() != shStat.Summary() {
			t.Errorf("shards=%d: stat summary differs from serial", shards)
		}
		if !reflect.DeepEqual(serCDF.Values(), shCDF.Values()) {
			t.Errorf("shards=%d: CDF values differ from serial", shards)
		}
	}
}

// TestFilterShardedMatchesSerial checks the pointer-Filter's sharded path:
// the kept sub-stream (and kept/dropped counters) must match the serial
// filter, including the pass-through fast path when a segment keeps all.
func TestFilterShardedMatchesSerial(t *testing.T) {
	keepOdd := func(s Sample) bool { return s.PMID%2 == 1 }
	const nPM = 6

	serOut := NewCDFSink(SelectKind(KindHost, units.CPU))
	ser := &Filter{Keep: keepOdd, Next: serOut}
	for step := 1; step <= 2; step++ {
		ser.ConsumeBatch(serialStep(nPM, float64(step)))
	}

	shOut := NewCDFSink(SelectKind(KindHost, units.CPU))
	sh := &Filter{Keep: keepOdd, Next: shOut}
	for step := 1; step <= 2; step++ {
		if !shardedStep(t, sh, 3, nPM, float64(step)) {
			t.Fatal("filter declined a sharded step with a sharded next")
		}
	}
	if !reflect.DeepEqual(serOut.Values(), shOut.Values()) {
		t.Error("filtered sharded stream differs from serial")
	}

	// A keep-everything filter must pass segments through unchanged.
	allOut := NewCDFSink(SelectKind(KindHost, units.CPU))
	all := &Filter{Keep: func(Sample) bool { return true }, Next: allOut}
	shardedStep(t, all, 2, nPM, 1)
	ref := NewCDFSink(SelectKind(KindHost, units.CPU))
	ref.ConsumeBatch(serialStep(nPM, 1))
	if !reflect.DeepEqual(ref.Values(), allOut.Values()) {
		t.Error("keep-all sharded filter altered the stream")
	}
}

// TestDecimatorShardedDropsAndCascades: the decimator must decline dropped
// steps (no downstream work at all) and cascade accepted steps to a sharded
// next, keeping exactly the serial keep-every-Nth semantics.
func TestDecimatorShardedDropsAndCascades(t *testing.T) {
	const nPM = 4
	serOut := NewStatSink(SelectKind(KindHost, units.CPU))
	ser := Decimate(2, serOut)
	for step := 1; step <= 6; step++ {
		ser.ConsumeBatch(serialStep(nPM, float64(step)))
	}

	shOut := NewStatSink(SelectKind(KindHost, units.CPU))
	sh := Decimate(2, shOut)
	accepted := 0
	for step := 1; step <= 6; step++ {
		if shardedStep(t, sh, 2, nPM, float64(step)) {
			accepted++
		} else {
			// Declined (dropped) steps fall back to the merged path, which
			// must also drop them — feed it to prove idempotence.
			sh.ConsumeBatch(serialStep(nPM, float64(step)))
		}
	}
	if accepted != 3 {
		t.Errorf("decimator accepted %d of 6 steps at interval 2, want 3", accepted)
	}
	if serOut.Summary() != shOut.Summary() {
		t.Error("decimated sharded stream differs from serial")
	}
}

// TestFanoutShardedMixedMembers: sharded-capable members get live
// segments, serial members get the same stream replayed in ascending shard
// order at the merge; both must equal the serial reference.
func TestFanoutShardedMixedMembers(t *testing.T) {
	const nPM = 5
	sel := SelectKind(KindHost, units.CPU)
	shardedMember := NewCDFSink(sel)
	serialMember := &Counter{}
	fan := NewFanout(shardedMember, serialMember)

	for step := 1; step <= 2; step++ {
		if !shardedStep(t, fan, 2, nPM, float64(step)) {
			t.Fatal("fanout declined despite a sharded-capable member")
		}
	}

	ref := NewCDFSink(sel)
	refCount := &Counter{}
	for step := 1; step <= 2; step++ {
		b := serialStep(nPM, float64(step))
		ref.ConsumeBatch(b)
		refCount.ConsumeBatch(b)
	}
	if !reflect.DeepEqual(ref.Values(), shardedMember.Values()) {
		t.Error("sharded member's stream differs from serial")
	}
	if serialMember.Total != refCount.Total || serialMember.ByKind != refCount.ByKind {
		t.Errorf("serial member saw %+v, want %+v", serialMember, refCount)
	}
}

// TestFanoutErrJoins: Err must join every failing member, in attach
// order, and report nil when no member failed.
func TestFanoutErrJoins(t *testing.T) {
	errA, errB := errors.New("sink A failed"), errors.New("sink B failed")
	fan := NewFanout(
		&fixedErrSink{err: errA},
		&Counter{},
		&fixedErrSink{},
		&fixedErrSink{err: errB},
	)
	err := fan.Err()
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("Err() = %v, want both member errors joined", err)
	}
	if got, want := err.Error(), "sink A failed\nsink B failed"; got != want {
		t.Errorf("Err() = %q, want %q (attach order)", got, want)
	}
	if err := NewFanout(&fixedErrSink{}, &Counter{}).Err(); err != nil {
		t.Errorf("healthy fanout Err() = %v, want nil", err)
	}
}
