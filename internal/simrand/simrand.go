// Package simrand provides the deterministic randomness used by the
// simulator and experiment harness.
//
// All stochastic behaviour in the reproduction — workload jitter, measurement
// noise injected by the emulated monitoring tools, placement shuffles — flows
// through a *Source seeded explicitly by the caller, so every experiment is
// reproducible bit-for-bit given its seed. Nothing in this module reads the
// wall clock.
//
// Stream contract: a Source seeded with s emits exactly what
// rand.New(rand.NewSource(s)) from math/rand emits, draw for draw, so every
// seed recorded in the repository keeps its meaning. The package keeps that
// contract by porting math/rand's generator (rng.go) rather than wrapping
// it: Float64, Intn and Int63 copy rand.Rand's formulas onto the ported
// source, Bounded is a prepared Intn, and NormFloat64, ExpFloat64, Perm
// and Shuffle run rand.Rand itself over the same source.
// TestStreamMatchesMathRand checks the contract over hundreds of seeds.
package simrand

import (
	"math/bits"
	"math/rand"
)

// State is a serializable snapshot of a Source: the seed it was created
// with and the number of raw draws consumed since. Restore rebuilds the
// exact generator state from it (see Source.State).
type State struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// Source is a seeded random source with the distributions the simulator
// needs. It is not safe for concurrent use; give each goroutine its own
// Source via Split.
//
// Every distribution bottoms out in 64-bit draws from gen, which counts
// them, so (seed, draws) is a complete, serializable description of the
// source's state: re-seeding and replaying that many raw draws restores it
// exactly.
type Source struct {
	gen  rngSource
	rng  *rand.Rand // over &gen: the distributions not copied here
	seed int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	s.gen.Seed(seed)
	s.rng = rand.New(&s.gen)
	return s
}

// State captures the source's current state for later Restore. The
// snapshot is O(1); Restore replays the recorded number of raw draws, so
// restoring a long-lived source costs time linear in its history.
func (s *Source) State() State {
	return State{Seed: s.seed, Draws: s.gen.draws}
}

// Restore rebuilds a Source in exactly the state captured by State: the
// restored source emits the same continuation stream, bit for bit.
func Restore(st State) *Source {
	s := New(st.Seed)
	s.SetState(st)
	return s
}

// SetState rewinds the source in place to a captured state, emitting the
// same continuation stream a fresh Restore would — but without allocating.
// A source already on the target seed and at or behind the target position
// just replays raw draws forward: since every distribution method bottoms
// out in counted generator reads, (seed, draws) pins the stream exactly,
// and skipping the re-seed is safe. That is the fork layer's hot path —
// freshly rebuilt sources arrive here seeded and at draw zero. Otherwise
// the generator is re-seeded (which resets the draw count) first.
func (s *Source) SetState(st State) {
	if s.seed != st.Seed || s.gen.draws > st.Draws {
		s.seed = st.Seed
		s.gen.Seed(st.Seed)
	}
	for s.gen.draws < st.Draws {
		s.gen.Uint64()
	}
}

// Draws returns the number of raw draws consumed since the last seeding —
// the replay cost of restoring this source's current State.
func (s *Source) Draws() uint64 { return s.gen.draws }

// Split derives an independent child source. The child's stream is a pure
// function of the parent's state at the time of the call, preserving
// determinism while decoupling consumption orders.
func (s *Source) Split() *Source {
	return New(s.gen.Int63())
}

// Float64 returns a uniform sample in [0,1): rand.Rand.Float64, including
// its resample when the rounded quotient is 1.
func (s *Source) Float64() float64 {
again:
	f := float64(s.gen.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Intn returns a uniform sample in [0,n). It panics if n <= 0. The draws
// are rand.Rand.Intn's: Int31n below 2^31 (mask for powers of two,
// otherwise reject above the largest multiple of n, then take the
// remainder) and Int63n above.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is rand.Rand.Int31n for n > 0.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.gen.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.gen.Int63() >> 32)
	for v > max {
		v = int32(s.gen.Int63() >> 32)
	}
	return v % n
}

// int63n is rand.Rand.Int63n for n > 0.
func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.gen.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.gen.Int63()
	for v > max {
		v = s.gen.Int63()
	}
	return v % n
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return s.gen.Int63() }

// Bounded is a prepared uniform draw over [0,n): Next returns what
// Intn(n) would, consuming the same draws, with Int31n's rejection
// threshold computed once and the remainder taken by Lemire's exact
// 32-bit fastmod (two multiplies) instead of a division. It is for loops
// that draw many indices below one bound, such as bootstrap resampling.
type Bounded struct {
	gen *rngSource
	n   uint64
	m   uint64 // (2^64−1)/n + 1, the fastmod multiplier
	max uint64 // largest accepted 31-bit draw
}

// Bounded prepares draws over [0,n) from s. It panics unless
// 1 <= n <= 2^31−1, the range where Intn takes the Int31n path. For a
// power of two the threshold is 2^31−1 and the remainder equals
// Int31n's mask, so one path serves every n.
func (s *Source) Bounded(n int) Bounded {
	if n <= 0 || n > int32max {
		panic("simrand: Bounded argument out of [1, 2^31-1]")
	}
	return Bounded{
		gen: &s.gen,
		n:   uint64(n),
		m:   ^uint64(0)/uint64(n) + 1,
		max: (1 << 31) - 1 - (1<<31)%uint64(n),
	}
}

// Next returns the next uniform sample in [0,n).
func (b Bounded) Next() int {
	for {
		// rand.Rand.Int31: the top 31 bits of a 63-bit draw.
		v := b.gen.Uint64() << 1 >> 33
		if v <= b.max {
			r, _ := bits.Mul64(b.m*v, b.n)
			return int(r)
		}
	}
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation. A non-positive sigma returns mean exactly (useful for switching
// noise off in tests).
func (s *Source) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.rng.NormFloat64()
}

// NormFloat64 returns a standard-normal sample. It consumes the stream
// exactly as Normal and Jitter do, so callers may pre-draw a batch of
// normals and apply them later without changing the sequence.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// Jitter returns x perturbed by multiplicative Gaussian noise:
// x * (1 + N(0, rel)). rel <= 0 returns x unchanged.
func (s *Source) Jitter(x, rel float64) float64 {
	if rel <= 0 {
		return x
	}
	return x * (1 + rel*s.rng.NormFloat64())
}

// Uniform returns a uniform sample in [lo, hi). It panics if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("simrand: Uniform with hi < lo")
	}
	return lo + (hi-lo)*s.rng.Float64()
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Exponential returns a sample from an exponential distribution with the
// given mean. A non-positive mean returns 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}
