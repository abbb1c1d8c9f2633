package xen

// layout is the engine's struct-of-arrays image of the cluster topology.
// Guests occupy contiguous "slots" in PM-major order (the emission order:
// PMs in cluster order, within a PM the guests in arena order), and every
// per-guest quantity the step kernel touches lives in a parallel column
// indexed by slot. The per-PM step kernel then reduces to cache-linear
// sweeps over [pmStart[p], pmEnd[p]) instead of chasing *VM pointers, and
// a shard owns a contiguous slot range, so the parallel phases write
// disjoint column segments without synchronization.
//
// The layout is rebuilt only when Cluster.Generation changes (VM/PM
// added, removed, or migrated); steady-state steps reuse it untouched.
// Mutable per-VM configuration (VCPUs, Weight, the credit-scheduler cap,
// the memory cap) is refreshed into its columns every step by the demand
// phase, so controllers may adjust those knobs between Advance calls
// without invalidating the layout.
type layout struct {
	gen   uint64
	built bool

	// ---- per-PM columns (indexed by PM id = position in Cluster.PMs) ----

	pmStart  []int32 // first guest slot of the PM
	pmEnd    []int32 // one past its last guest slot
	noiseOff []int32 // offset into the per-step noise column (see noiseDraws)
	batchOff []int32 // offset into the per-step sample batch

	// ---- per-guest columns (indexed by slot) ----

	vms    []*VM   // slot -> VM, for util write-back and emission
	pmOf   []int32 // slot -> hosting PM id
	vcpus  []int32
	weight []float64
	capCPU []float64
	memCap []float64

	// slotOf maps VM arena ID -> slot (-1 for retired IDs).
	slotOf []int32

	nGuests int
	nNoise  int // total noise draws one step consumes
	nBatch  int // samples one step emits (guests + 3 rows per PM)

	// Shard partition: shard s owns PMs [shardLo[s], shardHi[s]) and the
	// corresponding guest slots [slotLo[s], slotHi[s]). Ranges are
	// contiguous, ascending, and balanced by guest count. Empty shards have
	// shardLo == shardHi.
	shards           int
	shardLo, shardHi []int32
	slotLo, slotHi   []int32
}

// SampledBefore reports whether a serial engine step samples a's workload
// demand before b's: guests are sampled in slot order, PMs in cluster
// order and, on one PM, guests in PM.VMs order. Sources whose demands
// depend on each other within a step use it to reproduce the serial order
// when shards sample them in parallel. A removed VM is not sampled, so it
// is never before another.
func SampledBefore(a, b *VM) bool {
	if a.pm == nil || b.pm == nil {
		return false
	}
	if a.pm != b.pm {
		return a.pm.id < b.pm.id
	}
	for _, vm := range a.pm.VMs {
		switch vm {
		case a:
			return true
		case b:
			return false
		}
	}
	return false
}

// noiseDraws returns the number of process-noise draws one step spends on
// a PM hosting n guests, mirroring the exact draw order of the resolve
// kernel: 4 per guest (CPU, mem, IO, BW) then Dom0 CPU, Dom0 mem,
// hypervisor, PM IO, PM BW — or 4 total for an idle PM (Dom0 CPU,
// hypervisor, PM IO, PM BW).
func noiseDraws(n int) int {
	if n == 0 {
		return 4
	}
	return 4*n + 5
}

// growI32 returns s with length n, reallocating only when capacity grows.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growF64 returns s with length n, reallocating only when capacity grows.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// rebuild derives the SoA layout from the cluster's current topology and
// partitions its PMs across shards. It allocates only when the topology
// outgrows the previous layout's capacity.
func (l *layout) rebuild(cl *Cluster, shards int) {
	nPM := len(cl.PMs)
	nG := 0
	for _, pm := range cl.PMs {
		nG += len(pm.VMs)
	}
	l.pmStart = growI32(l.pmStart, nPM)
	l.pmEnd = growI32(l.pmEnd, nPM)
	l.noiseOff = growI32(l.noiseOff, nPM)
	l.batchOff = growI32(l.batchOff, nPM)
	if cap(l.vms) < nG {
		l.vms = make([]*VM, nG)
	}
	l.vms = l.vms[:nG]
	l.pmOf = growI32(l.pmOf, nG)
	l.vcpus = growI32(l.vcpus, nG)
	l.weight = growF64(l.weight, nG)
	l.capCPU = growF64(l.capCPU, nG)
	l.memCap = growF64(l.memCap, nG)
	l.slotOf = growI32(l.slotOf, cl.NumVMIDs())
	for i := range l.slotOf {
		l.slotOf[i] = -1
	}

	slot, noise, batch := 0, 0, 0
	for p, pm := range cl.PMs {
		l.pmStart[p] = int32(slot)
		for _, vm := range pm.VMs {
			l.vms[slot] = vm
			l.pmOf[slot] = int32(p)
			l.slotOf[vm.id] = int32(slot)
			slot++
		}
		l.pmEnd[p] = int32(slot)
		l.noiseOff[p] = int32(noise)
		noise += noiseDraws(len(pm.VMs))
		l.batchOff[p] = int32(batch)
		batch += len(pm.VMs) + 3
	}
	l.nGuests = nG
	l.nNoise = noise
	l.nBatch = batch
	l.partition(cl, shards)
	l.gen = cl.gen
	l.built = true
}

// partition splits the PM index space into `shards` contiguous ranges,
// greedily balanced by a per-PM weight of guests+1 (so fleets with many
// idle PMs still spread). The split is a pure function of the topology
// and the shard count; since the step's merge discipline makes the output
// independent of shard boundaries anyway, only load balance is at stake.
func (l *layout) partition(cl *Cluster, shards int) {
	nPM := len(cl.PMs)
	if shards < 1 {
		shards = 1
	}
	l.shardLo = growI32(l.shardLo, shards)
	l.shardHi = growI32(l.shardHi, shards)
	l.slotLo = growI32(l.slotLo, shards)
	l.slotHi = growI32(l.slotHi, shards)
	total := l.nGuests + nPM
	pm := 0
	var done int
	for s := 0; s < shards; s++ {
		l.shardLo[s] = int32(pm)
		// Shard s takes PMs until it crosses its cumulative share.
		target := (total * (s + 1)) / shards
		for pm < nPM && done < target {
			done += int(l.pmEnd[pm]-l.pmStart[pm]) + 1
			pm++
		}
		l.shardHi[s] = int32(pm)
	}
	// Any leftover (integer rounding) lands on the last shard.
	if pm < nPM {
		l.shardHi[shards-1] = int32(nPM)
	}
	for s := 0; s < shards; s++ {
		if l.shardLo[s] == l.shardHi[s] {
			l.slotLo[s], l.slotHi[s] = 0, 0
			continue
		}
		l.slotLo[s] = l.pmStart[l.shardLo[s]]
		l.slotHi[s] = l.pmEnd[l.shardHi[s]-1]
	}
	l.shards = shards
}
