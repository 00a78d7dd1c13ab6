package sim

import (
	"hash/fnv"
	"math"
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
// StreamFor does under the same root, both when first created and after
// a Reseed and Reset, whether or not it had drawn before the Reseed.
func TestLazyStreamMatchesStreamFor(t *testing.T) {
	src := NewSource(42)
	k := KeyFor("x")
	drawn, idle := src.Lazy(k), src.Lazy(k)
	ref := src.StreamFor(k)
	for i := 0; i < 10; i++ {
		if got, want := drawn.Rand().Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d: %#x, want %#x", i, got, want)
		}
	}
	src.Reseed(7)
	drawn.Reset(src)
	idle.Reset(src)
	if idle.r != nil {
		t.Fatal("Reset created a stream that had never drawn")
	}
	ref = src.StreamFor(k)
	for i := 0; i < 10; i++ {
		want := ref.Uint64()
		if got := drawn.Rand().Uint64(); got != want {
			t.Fatalf("after Reseed, draw %d of a used stream: %#x, want %#x", i, got, want)
		}
	}
	ref = src.StreamFor(k)
	for i := 0; i < 10; i++ {
		if got, want := idle.Rand().Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after Reseed, draw %d of a fresh stream: %#x, want %#x", i, got, want)
		}
	}
}
