package sim

import (
	"math"
	"math/rand"
)

// Source derives independent, named random streams from a single root
// seed. Each subsystem asks for its own stream ("mac.backoff.3",
// "fading", "app.cbr.1", ...) so that adding randomness to one subsystem
// never perturbs the draws seen by another — experiments stay comparable
// across code changes.
type Source struct {
	seed uint64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed} }

// Seed returns the root seed.
func (s *Source) Seed() uint64 { return s.seed }

// Reseed re-roots the source at a new seed, the arena-reuse equivalent
// of constructing a fresh Source. Hash-based draws (Hash64, HashNorm)
// pick up the new seed immediately; streams handed out by Stream were
// seeded from the old root and stay on it, so every holder of a derived
// stream must re-derive it after Reseed (the per-subsystem Reset
// methods do).
func (s *Source) Reseed(seed uint64) { s.seed = seed }

// Stream returns a deterministic pseudo-random stream named name.
// Streams with distinct names are statistically independent; calling
// Stream twice with the same name returns identically-seeded (but
// separate) streams.
func (s *Source) Stream(name string) *rand.Rand {
	return s.StreamFor(KeyFor(name))
}

// A StreamKey is a stream name in pre-hashed form. Subsystems that
// re-derive their stream on every arena reset (one per station, every
// replication) hold the key from construction so the reset skips the
// name formatting and hashing.
type StreamKey uint64

// KeyFor returns the key naming name: StreamFor(KeyFor(name)) and
// Stream(name) yield identically-seeded streams. The key is the 64-bit
// FNV-1a hash of the name's bytes.
func KeyFor(name string) StreamKey { return fnv1a(name) }

// KeyForBytes is KeyFor of a name held in a byte slice: KeyForBytes(b)
// equals KeyFor(string(b)). It keeps no reference to b, so a caller can
// format a per-station name into a stack buffer (an address's AppendTo
// after a fixed prefix) and hash it without allocating.
func KeyForBytes(name []byte) StreamKey { return fnv1a(name) }

// fnv1a is the 64-bit FNV-1a hash, bit for bit hash/fnv's New64a.
func fnv1a[T string | []byte](name T) StreamKey {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return StreamKey(h)
}

// StreamFor returns the stream named by k.
func (s *Source) StreamFor(k StreamKey) *rand.Rand {
	return rand.New(rand.NewSource(s.streamSeed(k)))
}

// Stream is a named random stream held by value in its owner and
// created at its first draw. A math/rand generator is a 4.9 KB table
// that takes microseconds to seed; a city-scale network names one
// backoff and one ISN stream per station, and only the stations that
// contend or dial ever draw from theirs, so a Stream costs the rest
// nothing. A stream is a pure function of (root seed, key), and the
// root seed changes only at Reseed, after which the owner calls Reset,
// so drawing from a Stream yields exactly what StreamFor(key) yields
// under the same root.
//
// In parallel mode the generator is created and drawn from by its
// station's region goroutine alone; the source's root seed is only
// read there.
type Stream struct {
	src *Source
	key StreamKey
	r   *rand.Rand
}

// Lazy returns the stream named by k, not yet created.
func (s *Source) Lazy(k StreamKey) Stream { return Stream{src: s, key: k} }

// Rand returns the stream's generator, creating it at the first call.
func (st *Stream) Rand() *rand.Rand {
	if st.r == nil {
		st.r = st.src.StreamFor(st.key)
	}
	return st.r
}

// Reset re-roots the stream at src's current root seed, as if it were
// src.Lazy(key) again: a generator already created is reseeded in place,
// without allocating, and one never created stays uncreated.
func (st *Stream) Reset(src *Source) {
	st.src = src
	if st.r != nil {
		st.r.Seed(src.streamSeed(st.key))
	}
}

func (s *Source) streamSeed(k StreamKey) int64 {
	return int64(splitmix64(s.seed ^ uint64(k)))
}

// Hash64 deterministically mixes the root seed with the given words.
// It is the basis for stateless stochastic processes such as per-link
// block fading, where the value for (link, epoch) must be reproducible
// without storing history.
func (s *Source) Hash64(words ...uint64) uint64 {
	x := s.seed
	for _, w := range words {
		x = splitmix64(x ^ w)
	}
	return splitmix64(x)
}

// HashFloat01 maps Hash64 output to a uniform float64 in [0,1).
func (s *Source) HashFloat01(words ...uint64) float64 {
	return float64(s.Hash64(words...)>>11) / (1 << 53)
}

// HashNorm returns a standard normal deviate that is a pure function of
// (seed, words): the Box-Muller transform applied to two hashed uniforms.
// The two uniforms are Hash64(words..., C1) and Hash64(words..., C2) for
// two mixing constants; the shared words prefix of the chain is folded
// once and extended per constant, which is arithmetic-identical to the
// two full Hash64 calls while keeping the variadic slice on the stack —
// this runs once per (link, fade-epoch) on the medium's hot path, where
// an append-per-call heap allocation used to dominate the profile.
// HashNorm is HashNormCut with the cut off.
func (s *Source) HashNorm(words ...uint64) float64 {
	z, _ := s.HashNormCut(math.Inf(1), words...)
	return z
}

// HashNormCut is HashNorm for a caller that needs the deviate z only if
// it can reach some threshold k > 0, and decides that from the two
// uniforms before any transcendental math. In z = √(−2 ln u1)·cos 2πu2
// the radius reaches k only if u1 ≤ exp(−k²/2), and the cosine is
// negative for u2 strictly inside (1/4, 3/4). u1Max must be at least
// exp(−k²/2); a draw whose (clamped) u1 exceeds it, or whose u2 lies in
// that open interval, is certainly below k, and HashNormCut returns
// (0, false) for it. Every other draw returns (HashNorm(words...),
// true), bit for bit. u1Max = +Inf disables both tests.
func (s *Source) HashNormCut(u1Max float64, words ...uint64) (float64, bool) {
	x := s.seed
	for _, w := range words {
		x = splitmix64(x ^ w)
	}
	u1 := float64(splitmix64(splitmix64(x^0x9e3779b97f4a7c15))>>11) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	if u1 > u1Max {
		return 0, false
	}
	u2 := float64(splitmix64(splitmix64(x^0xbf58476d1ce4e5b9))>>11) / (1 << 53)
	if u2 > 0.25 && u2 < 0.75 && !math.IsInf(u1Max, 1) {
		return 0, false
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2), true
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit hash
// used to decorrelate derived seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
