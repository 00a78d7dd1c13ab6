package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewSource(42).Stream("mac.backoff")
	b := NewSource(42).Stream("mac.backoff")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identically named streams diverged")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("a")
	b := src.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different names produced %d identical draws", same)
	}
}

func TestSeedChangesStreams(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	if a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestHash64Deterministic(t *testing.T) {
	s := NewSource(7)
	if s.Hash64(1, 2, 3) != s.Hash64(1, 2, 3) {
		t.Fatal("Hash64 not deterministic")
	}
	if s.Hash64(1, 2, 3) == s.Hash64(3, 2, 1) {
		t.Fatal("Hash64 ignores word order")
	}
}

func TestHashFloat01Range(t *testing.T) {
	s := NewSource(7)
	f := func(a, b uint64) bool {
		v := s.HashFloat01(a, b)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: HashNorm produces values with approximately standard-normal
// moments when aggregated over many inputs.
func TestHashNormMoments(t *testing.T) {
	s := NewSource(123)
	const n = 20000
	var sum, sumSq float64
	for i := uint64(0); i < n; i++ {
		v := s.HashNorm(i)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("variance = %f, want ~1", variance)
	}
}

func TestHashNormDeterministic(t *testing.T) {
	s := NewSource(9)
	if s.HashNorm(5, 6) != s.HashNorm(5, 6) {
		t.Fatal("HashNorm not deterministic")
	}
}

func TestHashFloat01Uniformity(t *testing.T) {
	s := NewSource(99)
	const n = 10000
	buckets := make([]int, 10)
	for i := uint64(0); i < n; i++ {
		buckets[int(s.HashFloat01(i)*10)]++
	}
	for i, c := range buckets {
		if c < n/10-300 || c > n/10+300 {
			t.Fatalf("bucket %d has %d entries, want ~%d", i, c, n/10)
		}
	}
}

// TestHashNormCut pins the early-exit Box–Muller draw: with a bound
// u1Max = exp(−k²/2) every draw it keeps is HashNorm's (the same call
// with the cut off), and every draw it rejects is below k. It also checks the two facts about the hashed uniforms the
// rejections rest on: on the 2^−53 grid the uniforms live on, the
// computed cos 2πu2 is never positive strictly inside (1/4, 3/4), and
// the computed radius √(−2 ln u1) stays below k once u1 exceeds the
// bound.
func TestHashNormCut(t *testing.T) {
	s := NewSource(77)
	for _, k := range []float64{0.01, 0.5, 1, 2, 3.5, 5, 7.99} {
		u1Max := math.Exp(-k * k / 2)
		kept := 0
		for i := uint64(0); i < 20000; i++ {
			want := s.HashNorm(0xfade, i, math.Float64bits(k))
			z, ok := s.HashNormCut(u1Max, 0xfade, i, math.Float64bits(k))
			switch {
			case ok && math.Float64bits(z) != math.Float64bits(want):
				t.Fatalf("k=%v: kept draw %v, HashNorm %v", k, z, want)
			case !ok && want >= k:
				t.Fatalf("k=%v: rejected a draw of %v", k, want)
			case ok:
				kept++
			}
		}
		if kept == 20000 {
			t.Fatalf("k=%v: the cut rejected nothing", k)
		}
	}

	const ulp = 1.0 / (1 << 53)
	for i := 1; i <= 1<<17; i++ {
		for _, u2 := range []float64{0.25 + float64(i)*ulp, 0.75 - float64(i)*ulp, 0.5 + float64(i-1<<16)*ulp} {
			if c := math.Cos(2 * math.Pi * u2); c > 0 {
				t.Fatalf("cos(2π·%v) = %v > 0 inside (1/4, 3/4)", u2, c)
			}
		}
	}
	// Just above exp(−k²/2) the computed radius can still round to k
	// itself (k = 6 does), which is why callers widen the bound by a
	// relative 1e-9 (phy.Fading.EpochCutBound).
	for _, k := range []float64{1e-4, 0.1, 1, 2.5, 4, 6, 7.999} {
		u1 := math.Exp(-k*k/2) * (1 + 1e-9)
		for i := 0; i < 1000; i++ {
			if r := math.Sqrt(-2 * math.Log(u1)); r >= k {
				t.Fatalf("k=%v: radius %v at u1 %v above the widened bound", k, r, u1)
			}
			u1 = math.Nextafter(u1, 2)
		}
	}
}

// refHashNormCut is the early-exit Box–Muller draw written out whole,
// every word folded from the root seed: the reference the chain-continued
// draws are held to.
func refHashNormCut(seed uint64, u1Max float64, words []uint64) (float64, bool) {
	x := seed
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

// TestChainNormCutMatchesHashNormCut splits random word lists at every
// point into a prefix folded once by Chain and a rest passed to
// NormCut, over random seeds and bounds (the cut off, exp(−k²/2) for
// random k, random uniforms, 0 and negative): each continued draw must
// equal HashNormCut over the whole list, and both the reference fold,
// bit for bit and in the keep decision.
func TestChainNormCutMatchesHashNormCut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kept, cut := 0, 0
	for i := 0; i < 20000; i++ {
		s := NewSource(rng.Uint64())
		words := make([]uint64, rng.Intn(6))
		for j := range words {
			words[j] = rng.Uint64()
		}
		var u1Max float64
		switch i % 5 {
		case 0:
			u1Max = math.Inf(1)
		case 1:
			k := 8 * rng.Float64()
			u1Max = math.Exp(-k * k / 2)
		case 2:
			u1Max = rng.Float64()
		case 3:
			u1Max = 0
		default:
			u1Max = -rng.Float64()
		}
		want, wantOK := refHashNormCut(s.Seed(), u1Max, words)
		if wantOK {
			kept++
		} else {
			cut++
		}
		z, ok := s.HashNormCut(u1Max, words...)
		if ok != wantOK || math.Float64bits(z) != math.Float64bits(want) {
			t.Fatalf("seed %#x words %#x u1Max %v: HashNormCut (%v, %v), reference (%v, %v)",
				s.Seed(), words, u1Max, z, ok, want, wantOK)
		}
		for p := 0; p <= len(words); p++ {
			z, ok := s.Chain(words[:p]...).NormCut(u1Max, words[p:]...)
			if ok != wantOK || math.Float64bits(z) != math.Float64bits(want) {
				t.Fatalf("seed %#x words %#x split at %d u1Max %v: continued draw (%v, %v), reference (%v, %v)",
					s.Seed(), words, p, u1Max, z, ok, want, wantOK)
			}
		}
	}
	if kept == 0 || cut == 0 {
		t.Fatalf("kept %d draws and cut %d: want both", kept, cut)
	}
}

// TestKeyForIsFNV1a pins KeyFor and KeyForBytes to hash/fnv's 64-bit
// FNV-1a, the hash every stream name was keyed with before.
func TestKeyForIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "a", "mac.backoff.02:11:00:00:00:01", "tcp.iss.10.255.255.254", "routing.dsdv.10.0.1.0"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		want := StreamKey(h.Sum64())
		if got := KeyFor(name); got != want {
			t.Errorf("KeyFor(%q) = %#x, want %#x", name, got, want)
		}
		if got := KeyForBytes([]byte(name)); got != want {
			t.Errorf("KeyForBytes(%q) = %#x, want %#x", name, got, want)
		}
	}
}

// TestLazyStreamMatchesStreamFor checks that a Stream draws exactly what
// StreamFor does under the current root: when first created, and after
// a Reseed, whether or not it had drawn before the Reseed. A stream
// created under seed A and never drawn from draws B's stream after
// Reseed(B); one that has drawn rewinds to the start of its stream when
// the source is re-rooted at the same seed. After the first draw, no
// draw allocates, re-seeds included.
func TestLazyStreamMatchesStreamFor(t *testing.T) {
	src := NewSource(42)
	k := KeyFor("x")
	drawn, idle := src.Lazy(k), src.Lazy(k)
	expect := func(what string, st *Stream, seed uint64) {
		t.Helper()
		ref := NewSource(seed).StreamFor(k)
		for i := 0; i < 10; i++ {
			if got, want := st.Rand().Uint64(), ref.Uint64(); got != want {
				t.Fatalf("%s, draw %d: %#x, want %#x", what, i, got, want)
			}
		}
	}
	expect("first draws", &drawn, 42)
	src.Reseed(7)
	if idle.g != nil {
		t.Fatal("Reseed created a stream that had never drawn")
	}
	expect("after Reseed(7), a used stream", &drawn, 7)
	expect("after Reseed(7), a stream created under 42", &idle, 7)
	src.Reseed(7)
	expect("after a second Reseed(7), a used stream", &drawn, 7)

	allocs := testing.AllocsPerRun(20, func() {
		src.Reseed(src.Seed() + 1)
		drawn.Rand().Uint64()
		idle.Rand().Uint64()
	})
	if allocs != 0 {
		t.Errorf("re-seeding draws allocate %.1f objects, want 0", allocs)
	}
}
