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
	// epoch counts the source's Reseeds. A Stream whose generator was
	// seeded under an older epoch re-roots at its next draw.
	epoch uint64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed} }

// Seed returns the root seed.
func (s *Source) Seed() uint64 { return s.seed }

// Reseed re-roots the source at a new seed, the arena-reuse equivalent
// of constructing a fresh Source, even when seed is the current one.
// Hash-based draws (Hash64, HashNorm) pick up the new seed
// immediately, and so does every Stream (see Lazy) at its next draw.
// Generators handed out by Stream and StreamFor were seeded from the
// old root and stay on it.
func (s *Source) Reseed(seed uint64) {
	s.seed = seed
	s.epoch++
}

// Stream returns a deterministic pseudo-random stream named name.
// Streams with distinct names are statistically independent; calling
// Stream twice with the same name returns identically-seeded (but
// separate) streams.
func (s *Source) Stream(name string) *rand.Rand {
	return s.StreamFor(KeyFor(name))
}

// A StreamKey is a stream name in pre-hashed form. A Stream holds its
// key from construction, so re-rooting it after every Reseed (one per
// station that draws, every replication) skips the name formatting and
// hashing.
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
// nothing.
//
// A stream is a pure function of (root seed, key), and it follows its
// source's root by itself: the first draw after a Reseed re-seeds the
// generator in place, without allocating, as if the owner had called
// src.Lazy(key) again. So drawing from a Stream yields exactly what
// StreamFor(key) yields under the current root, and its owner needs no
// reset for it — which is what lets a network Reset skip the stations
// a run never touched.
//
// In parallel mode the generator is created and drawn from by its
// station's region goroutine alone; the source's root seed and epoch
// are only read there.
type Stream struct {
	src *Source
	key StreamKey
	g   *generator // nil until the first draw
}

// generator is a Stream's math/rand generator and the source epoch it
// was last seeded under. The epoch lives here, not in the Stream, so a
// stream that never draws costs its owner three words.
type generator struct {
	rand.Rand
	epoch uint64
}

// Lazy returns the stream named by k, not yet created.
func (s *Source) Lazy(k StreamKey) Stream { return Stream{src: s, key: k} }

// Rand returns the stream's generator, creating it at the first call
// and re-seeding it at the first call after each Reseed of its source.
func (st *Stream) Rand() *rand.Rand {
	if g := st.g; g != nil && g.epoch == st.src.epoch {
		return &g.Rand
	}
	return st.reroot()
}

// reroot seeds the generator from the source's current root.
func (st *Stream) reroot() *rand.Rand {
	seed := st.src.streamSeed(st.key)
	if st.g == nil {
		st.g = &generator{Rand: *rand.New(rand.NewSource(seed))}
	} else {
		st.g.Seed(seed)
	}
	st.g.epoch = st.src.epoch
	return &st.g.Rand
}

func (s *Source) streamSeed(k StreamKey) int64 {
	return int64(splitmix64(s.seed ^ uint64(k)))
}

// Hash64 deterministically mixes the root seed with the given words.
// It is the basis for stateless stochastic processes such as per-link
// block fading, where the value for (link, epoch) must be reproducible
// without storing history.
func (s *Source) Hash64(words ...uint64) uint64 {
	return splitmix64(uint64(s.Chain(words...)))
}

// HashFloat01 maps Hash64 output to a uniform float64 in [0,1).
func (s *Source) HashFloat01(words ...uint64) float64 {
	return float64(s.Hash64(words...)>>11) / (1 << 53)
}

// A HashChain is the state of the chain every hash draw folds its words
// through: the root seed, then one splitmix64 per word. A caller whose
// draws share their leading words folds that prefix once, with Chain,
// and continues from it: s.Chain(p...).NormCut(u1Max, w...) is
// s.HashNormCut(u1Max, p..., w...) bit for bit.
type HashChain uint64

// Chain returns the chain state after folding words over the root seed.
func (s *Source) Chain(words ...uint64) HashChain { return HashChain(s.seed).fold(words) }

// fold returns the chain state after folding words onto c.
func (c HashChain) fold(words []uint64) HashChain {
	x := uint64(c)
	for _, w := range words {
		x = splitmix64(x ^ w)
	}
	return HashChain(x)
}

// HashNorm returns a standard normal deviate that is a pure function of
// (seed, words): the Box-Muller transform applied to two hashed uniforms.
// The two uniforms are Hash64(words..., C1) and Hash64(words..., C2) for
// two mixing constants; the words are folded once and the chain extended
// per constant, which is arithmetic-identical to the two full Hash64
// calls. HashNorm is HashNormCut with the cut off.
func (s *Source) HashNorm(words ...uint64) float64 {
	z, _ := s.HashNormCut(math.Inf(1), words...)
	return z
}

// HashNormCut is HashNorm for a caller that needs the deviate z only if
// it can reach some threshold k > 0; see HashChain.NormCut, which it
// runs from the root seed.
func (s *Source) HashNormCut(u1Max float64, words ...uint64) (float64, bool) {
	return HashChain(s.seed).NormCut(u1Max, words...)
}

// NormCut folds words onto c and draws HashNorm's deviate from the
// result, deciding from the two uniforms, before any transcendental
// math, whether it can reach some threshold k > 0. In
// z = √(−2 ln u1)·cos 2πu2 the radius reaches k only if
// u1 ≤ exp(−k²/2), and the cosine is negative for u2 strictly inside
// (1/4, 3/4). u1Max must be at least exp(−k²/2); a draw whose (clamped)
// u1 exceeds it, or whose u2 lies in that open interval, is certainly
// below k, and NormCut returns (0, false) for it. Every other draw
// returns the deviate and true. u1Max = +Inf disables both tests. This
// runs once per (link, fade epoch) on the medium's hot path; the words
// stay on the stack.
func (c HashChain) NormCut(u1Max float64, words ...uint64) (float64, bool) {
	x := uint64(c.fold(words))
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
