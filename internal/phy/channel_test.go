package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"adhocsim/internal/sim"
)

func TestLogDistanceRoundTrip(t *testing.T) {
	l := LogDistance{RefLossDB: 40, Exponent: 3}
	f := func(d float64) bool {
		d = 1 + math.Mod(math.Abs(d), 500)
		loss := l.LossDB(d)
		back := l.RangeFor(loss)
		return math.Abs(back-d) < 1e-6*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogDistanceClampsBelowReference(t *testing.T) {
	l := LogDistance{RefLossDB: 40, Exponent: 3}
	if l.LossDB(0.1) != l.LossDB(1) {
		t.Error("loss below 1 m should clamp to reference loss")
	}
	if l.LossDB(0) != 40 {
		t.Errorf("LossDB(0) = %v, want 40", l.LossDB(0))
	}
}

func TestLogDistanceMonotone(t *testing.T) {
	l := LogDistance{RefLossDB: 40, Exponent: 3}
	prev := l.LossDB(1)
	for d := 2.0; d <= 300; d += 1 {
		cur := l.LossDB(d)
		if cur <= prev {
			t.Fatalf("path loss not increasing at %v m", d)
		}
		prev = cur
	}
}

func TestDefaultProfileCalibration(t *testing.T) {
	p := DefaultProfile()
	// Median ranges must land on the paper's Table 3 estimates.
	tests := []struct {
		rate Rate
		want float64
		tol  float64
	}{
		{Rate11, 30, 0.5},
		{Rate5_5, 70, 0.5},
		{Rate2, 95, 0.5},
		{Rate1, 120, 0.5},
	}
	for _, tt := range tests {
		if got := p.MedianRange(tt.rate); math.Abs(got-tt.want) > tt.tol {
			t.Errorf("MedianRange(%v) = %.1f m, want %.1f m", tt.rate, got, tt.want)
		}
	}
	// PCS range must exceed every data range (paper §2).
	cs := p.CarrierSenseRange()
	if cs < 150 || cs > 250 {
		t.Errorf("CarrierSenseRange = %.1f m, want ~190 m", cs)
	}
	for _, r := range Rates {
		if p.MedianRange(r) >= cs {
			t.Errorf("TX range at %v exceeds PCS range", r)
		}
	}
}

func TestSensitivityOrdering(t *testing.T) {
	p := DefaultProfile()
	// Higher rates require stronger signals (shorter range).
	for i := 1; i < 4; i++ {
		if p.SensitivityDBm[i] <= p.SensitivityDBm[i-1] {
			t.Errorf("sensitivity[%d]=%v not above sensitivity[%d]=%v",
				i, p.SensitivityDBm[i], i-1, p.SensitivityDBm[i-1])
		}
		if p.SINRRequiredDB[i] <= p.SINRRequiredDB[i-1] {
			t.Errorf("SINR requirement not increasing with rate")
		}
	}
	// CCA threshold must be below (more sensitive than) every decode
	// sensitivity, and PLCP detect at the 1 Mbit/s sensitivity.
	if p.CCAThresholdDBm >= p.SensitivityDBm[0] {
		t.Error("CCA threshold should be below 1 Mbit/s sensitivity")
	}
	if p.PLCPDetectDBm != p.SensitivityDBm[Rate1.Index()] {
		t.Error("PLCP detect should equal 1 Mbit/s sensitivity")
	}
}

func TestLossProbabilityShape(t *testing.T) {
	p := DefaultProfile()
	for _, r := range Rates {
		median := p.MedianRange(r)
		if got := p.LossProbability(r, median); math.Abs(got-0.5) > 0.01 {
			t.Errorf("loss at median range of %v = %.3f, want 0.5", r, got)
		}
		if got := p.LossProbability(r, median/2); got > 0.05 {
			t.Errorf("loss at half median range of %v = %.3f, want < 0.05", r, got)
		}
		if got := p.LossProbability(r, median*2); got < 0.95 {
			t.Errorf("loss at double median range of %v = %.3f, want > 0.95", r, got)
		}
	}
	// Monotone in distance.
	for _, r := range Rates {
		prev := -1.0
		for d := 5.0; d < 300; d += 5 {
			cur := p.LossProbability(r, d)
			if cur < prev {
				t.Fatalf("loss probability decreasing at %v m for %v", d, r)
			}
			prev = cur
		}
	}
	// At any distance, higher rates lose more.
	for d := 10.0; d < 200; d += 10 {
		for i := 1; i < len(Rates); i++ {
			if p.LossProbability(Rates[i], d) < p.LossProbability(Rates[i-1], d)-1e-9 {
				t.Fatalf("at %v m, %v loses less than %v", d, Rates[i], Rates[i-1])
			}
		}
	}
}

func TestLossProbabilityNoFading(t *testing.T) {
	p := DefaultProfile()
	p.Fading.SigmaDB = 0
	r := Rate11
	median := p.MedianRange(r)
	if got := p.LossProbability(r, median-1); got != 0 {
		t.Errorf("loss just inside range = %v, want 0", got)
	}
	if got := p.LossProbability(r, median+1); got != 1 {
		t.Errorf("loss just outside range = %v, want 1", got)
	}
}

func TestFadingDeterminismAndEpochs(t *testing.T) {
	src := sim.NewSource(7)
	f := Fading{SigmaDB: 4, Coherence: 100 * time.Millisecond}
	a := f.ShadowDB(src, 1, 2, 10*time.Millisecond)
	b := f.ShadowDB(src, 1, 2, 20*time.Millisecond)
	if a != b {
		t.Error("shadowing changed within one coherence epoch")
	}
	c := f.ShadowDB(src, 1, 2, 150*time.Millisecond)
	if a == c {
		t.Error("shadowing identical across epochs (coincidence ~impossible)")
	}
}

func TestFadingAsymmetricByDefault(t *testing.T) {
	src := sim.NewSource(7)
	f := Fading{SigmaDB: 4, Coherence: time.Second}
	if f.ShadowDB(src, 1, 2, 0) == f.ShadowDB(src, 2, 1, 0) {
		t.Error("asymmetric fading returned symmetric values")
	}
	f.Symmetric = true
	if f.ShadowDB(src, 1, 2, 0) != f.ShadowDB(src, 2, 1, 0) {
		t.Error("symmetric fading differs by direction")
	}
}

func TestFadingZeroSigma(t *testing.T) {
	src := sim.NewSource(7)
	f := Fading{SigmaDB: 0, Coherence: time.Second}
	if f.ShadowDB(src, 1, 2, 0) != 0 {
		t.Error("zero sigma must produce zero shadowing")
	}
}

func TestFadingMoments(t *testing.T) {
	src := sim.NewSource(11)
	f := Fading{SigmaDB: 4, Coherence: time.Millisecond}
	var sum, sumSq float64
	const n = 5000
	for i := 0; i < n; i++ {
		v := f.ShadowDB(src, 1, 2, time.Duration(i)*time.Millisecond)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.3 {
		t.Errorf("shadowing mean = %.2f dB, want ~0", mean)
	}
	if math.Abs(sd-4) > 0.3 {
		t.Errorf("shadowing σ = %.2f dB, want ~4", sd)
	}
}

func TestWeatherApply(t *testing.T) {
	base := DefaultProfile()
	damp := WeatherDamp.Apply(base)
	if damp.PathLoss.Exponent <= base.PathLoss.Exponent {
		t.Error("damp weather must raise the path-loss exponent")
	}
	if damp.Fading.SigmaDB <= base.Fading.SigmaDB {
		t.Error("damp weather must raise σ")
	}
	// Base profile untouched.
	if base.PathLoss.Exponent != 3.0 {
		t.Error("Apply mutated the base profile")
	}
	// Damp day: shorter range at the same sensitivity.
	if damp.MedianRange(Rate1) >= base.MedianRange(Rate1) {
		t.Error("damp weather should shorten the 1 Mbit/s range")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := DefaultProfile()
	q := p.Clone()
	q.TxPowerDBm = 0
	if p.TxPowerDBm == 0 {
		t.Error("Clone shares state with original")
	}
}

func TestDBmConversions(t *testing.T) {
	if got := DBmToMilliwatt(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("DBmToMilliwatt(0) = %v", got)
	}
	if got := DBmToMilliwatt(10); math.Abs(got-10) > 1e-9 {
		t.Errorf("DBmToMilliwatt(10) = %v", got)
	}
	f := func(dbm float64) bool {
		dbm = math.Mod(dbm, 100)
		return math.Abs(MilliwattToDBm(DBmToMilliwatt(dbm))-dbm) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(MilliwattToDBm(0), -1) {
		t.Error("MilliwattToDBm(0) should be -Inf")
	}
}

// dbmSeeds are the special and boundary inputs of DBmToMilliwatt: the
// dBm values whose y = dbm/10 hits one of math.Pow's special cases
// (NaN, ±Inf, ±0, 1, ±0.5, |y| ≥ 2^63), fractional parts on either side
// of the 0.5 fold, results that are subnormal (y in (−323.3, −307.6))
// or that underflow or overflow, subnormal inputs, and the float64
// extremes.
var dbmSeeds = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	10, 5, -5, -10, 20, 2.5, 7.5, 5.000000000000001, 4.999999999999999,
	-3075, -3076, -3077, -3080, -3103, -3200, -3233, -3234, -3239, -3240, -3300, -4000, -1e6,
	3080, 3082.5, 3082.6, 3090, 4000, 1e6,
	10 * (1 << 62), 10 * (1 << 63), -10 * (1 << 63), 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1p-1030,
	-123.456789, -99.9, 15, -15, 25, 70.00000000000001,
}

func checkDBmToMilliwatt(t *testing.T, dbm float64) {
	t.Helper()
	got, want := DBmToMilliwatt(dbm), math.Pow(10, dbm/10)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("DBmToMilliwatt(%v) [bits %#016x] = %v [%#016x], math.Pow(10, dbm/10) = %v [%#016x]",
			dbm, math.Float64bits(dbm), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestDBmToMilliwattMatchesPow checks DBmToMilliwatt against
// math.Pow(10, dbm/10) bit for bit: on the boundary seeds, on a sweep
// over −400…+60 dBm at a 1/1024 dB step (each point also one ulp either
// side), on uniform random values over that range and the subnormal
// results, and on random bit patterns (every float64 class, NaN
// payloads included).
func TestDBmToMilliwattMatchesPow(t *testing.T) {
	for _, dbm := range dbmSeeds {
		checkDBmToMilliwatt(t, dbm)
	}
	for i := -400 * 1024; i <= 60*1024; i++ {
		dbm := float64(i) / 1024
		checkDBmToMilliwatt(t, dbm)
		checkDBmToMilliwatt(t, math.Nextafter(dbm, math.Inf(1)))
		checkDBmToMilliwatt(t, math.Nextafter(dbm, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200000; i++ {
		checkDBmToMilliwatt(t, -400+460*rng.Float64())
		checkDBmToMilliwatt(t, -3076-170*rng.Float64())
		checkDBmToMilliwatt(t, math.Float64frombits(rng.Uint64()))
	}
}

// FuzzDBmToMilliwatt hunts for a dBm value where DBmToMilliwatt and
// math.Pow(10, dbm/10) differ in any bit.
func FuzzDBmToMilliwatt(f *testing.F) {
	for _, dbm := range dbmSeeds {
		f.Add(dbm)
	}
	f.Fuzz(checkDBmToMilliwatt)
}

// BenchmarkDBmToMilliwatt measures one conversion over powers spread
// across the −100…0 dBm the medium converts.
func BenchmarkDBmToMilliwatt(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := make([]float64, 1024)
	for i := range in {
		in[i] = -100 * rng.Float64()
	}
	for i := 0; b.Loop(); i++ {
		DBmToMilliwatt(in[i&1023])
	}
}

// TestShadowDBComposition pins the bit-identity contract the medium's
// link-gain cache depends on: ShadowDB must equal exactly (not just
// approximately) the static component plus the epoch component, for
// every combination of enabled components and link orientation. A
// single ULP of drift here would break the cached-vs-direct golden
// equivalence.
func TestShadowDBComposition(t *testing.T) {
	src := sim.NewSource(0xfeed)
	fadings := []Fading{
		{SigmaDB: 4, Coherence: 50 * time.Millisecond},
		{SigmaDB: 4, Coherence: 50 * time.Millisecond, Symmetric: true},
		{StaticSigmaDB: 4},
		{SigmaDB: 3, StaticSigmaDB: 4, Coherence: 20 * time.Millisecond},
		{SigmaDB: 2, Coherence: 0}, // no coherence: single epoch forever
		{},                         // disabled entirely
	}
	times := []time.Duration{0, 7 * time.Millisecond, 50 * time.Millisecond,
		123 * time.Millisecond, 9 * time.Second}
	for _, f := range fadings {
		for _, now := range times {
			for _, link := range [][2]uint64{{1, 2}, {2, 1}, {17, 900}, {900, 17}} {
				tx, rx := link[0], link[1]
				direct := f.ShadowDB(src, tx, rx, now)
				composed := f.StaticShadowDB(src, tx, rx)
				composed += f.EpochShadowDB(src, tx, rx, f.FadeEpoch(now))
				if f.SigmaDB == 0 && f.StaticSigmaDB == 0 {
					if direct != 0 {
						t.Fatalf("disabled fading returned %v", direct)
					}
					continue
				}
				if direct != composed {
					t.Fatalf("fading %+v link %d->%d at %v: ShadowDB %v != static+epoch %v",
						f, tx, rx, now, direct, composed)
				}
			}
		}
	}
}

// TestFadeEpochBoundaries checks the epoch function against the direct
// division the pre-refactor ShadowDB used.
func TestFadeEpochBoundaries(t *testing.T) {
	f := Fading{SigmaDB: 4, Coherence: 50 * time.Millisecond}
	for _, tc := range []struct {
		now  time.Duration
		want uint64
	}{
		{0, 0}, {49 * time.Millisecond, 0}, {50 * time.Millisecond, 1},
		{99 * time.Millisecond, 1}, {100 * time.Millisecond, 2},
		{5 * time.Second, 100},
	} {
		if got := f.FadeEpoch(tc.now); got != tc.want {
			t.Errorf("FadeEpoch(%v) = %d, want %d", tc.now, got, tc.want)
		}
	}
	noCoherence := Fading{SigmaDB: 4}
	if got := noCoherence.FadeEpoch(time.Hour); got != 0 {
		t.Errorf("zero-coherence epoch = %d, want 0", got)
	}
}

// TestLinearizeMatchesDirect pins the cached linear threshold table
// against the direct conversions the medium used to perform per call:
// every entry must be the bit-identical output of DBmToMilliwatt.
func TestLinearizeMatchesDirect(t *testing.T) {
	for _, p := range []*Profile{DefaultProfile(), TestbedProfile(),
		WeatherDamp.Apply(DefaultProfile())} {
		l := p.Linearize()
		if l.NoiseFloorMW != DBmToMilliwatt(p.NoiseFloorDBm) {
			t.Errorf("%s: NoiseFloorMW %v != direct %v", p.Name, l.NoiseFloorMW, DBmToMilliwatt(p.NoiseFloorDBm))
		}
		if l.CCAThresholdMW != DBmToMilliwatt(p.CCAThresholdDBm) {
			t.Errorf("%s: CCAThresholdMW %v != direct %v", p.Name, l.CCAThresholdMW, DBmToMilliwatt(p.CCAThresholdDBm))
		}
		for i, s := range p.SensitivityDBm {
			if l.SensitivityMW[i] != DBmToMilliwatt(s) {
				t.Errorf("%s: SensitivityMW[%d] %v != direct %v", p.Name, i, l.SensitivityMW[i], DBmToMilliwatt(s))
			}
		}
	}
}

// TestLinearNoiseFloorDBm pins the cached dBm form of the linear noise
// floor for every built-in profile, bit for bit: it must be
// MilliwattToDBm of NoiseFloorMW's exact bits, the value the medium's
// lock and verdict tests computed per call before the cache, and for
// the built-in -100 dBm floors that round trip lands back on -100.
func TestLinearNoiseFloorDBm(t *testing.T) {
	for _, p := range []*Profile{DefaultProfile(), TestbedProfile(), CityProfile(),
		WeatherClear.Apply(DefaultProfile()), WeatherDamp.Apply(DefaultProfile())} {
		l := p.Linearize()
		if got, want := math.Float64bits(l.NoiseFloorDBm), math.Float64bits(MilliwattToDBm(l.NoiseFloorMW)); got != want {
			t.Errorf("%s: NoiseFloorDBm bits %#x, want MilliwattToDBm(NoiseFloorMW) %#x", p.Name, got, want)
		}
		if got := math.Float64bits(l.NoiseFloorDBm); got != 0xc059000000000000 {
			t.Errorf("%s: NoiseFloorDBm bits %#x, want %#x (-100 dBm)", p.Name, got, uint64(0xc059000000000000))
		}
	}
}

// checkFadeCut runs one EpochShadowAbove decision and holds it to its
// contract: a rejection must mean that the full composition the medium
// would have summed, base + (static + EpochShadowDB), lands below the
// cut; an acceptance must return EpochShadowDB's exact bits. Both run
// from transmitter tx's folded fade chain, so EpochShadowDB is first
// held to the draw folded whole from the root seed, over the link's
// orientation. It reports whether the draw was accepted.
func checkFadeCut(t *testing.T, seed, tx, rx, epoch uint64, symmetric bool, sigma, base, static, cut float64) bool {
	t.Helper()
	f := Fading{SigmaDB: sigma, Coherence: time.Second, Symmetric: symmetric}
	src := sim.NewSource(seed)
	u1Max := f.EpochCutBound(cut - (base + static))
	got, above := f.EpochShadowAbove(NewFadeChain(src, tx), rx, epoch, u1Max)
	want := f.EpochShadowDB(src, tx, rx, epoch)
	a, b := f.orient(tx, rx)
	if ref := sigma * clampNorm(src.HashNorm(0xfade, a, b, epoch)); sigma != 0 && math.Float64bits(want) != math.Float64bits(ref) {
		t.Fatalf("seed %d link %d->%d epoch %d σ=%v: EpochShadowDB %v, root-folded draw %v",
			seed, tx, rx, epoch, sigma, want, ref)
	}
	if !above {
		if p := base + (static + want); !(p < cut) {
			t.Fatalf("seed %d link %d->%d epoch %d σ=%v: rejected (u1Max %v), but base %v + (static %v + fade %v) = %v clears the cut %v",
				seed, tx, rx, epoch, sigma, u1Max, base, static, want, p, cut)
		}
		return false
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("seed %d link %d->%d epoch %d σ=%v: accepted fade %v, EpochShadowDB %v",
			seed, tx, rx, epoch, sigma, got, want)
	}
	return true
}

// TestFadeCutConservative sweeps fade-free margins from well above the
// cut to far below it, over many links and epochs: every rejection is
// sound, every acceptance exact, and the cut does reject most draws
// whose margin is a few σ under the cut.
func TestFadeCutConservative(t *testing.T) {
	const sigma, cut = 2.0, -120.0
	rejected, draws := 0, 0
	for _, below := range []float64{-10, -1e-9, 0, 1e-9, 2e-9, 0.5, 2, 5, 9, 15.999, 16, 16.001, 40} {
		for link := uint64(0); link < 400; link++ {
			for epoch := uint64(0); epoch < 4; epoch++ {
				above := checkFadeCut(t, 3, link, link*7+1, epoch, link%2 == 0, sigma, cut-below-1.5, 1.5, cut)
				if below >= 5 {
					draws++
					if !above {
						rejected++
					}
				}
			}
		}
	}
	if rejected < draws*9/10 {
		t.Fatalf("cut rejected %d of %d draws at least 2.5σ under the cut, want at least 90%%", rejected, draws)
	}
}

// FuzzFadeCutConservative hunts for a seed, link, epoch, σ and power
// budget where the fade cut rejects a link whose full composition
// clears the cut, or accepts one with other bits than EpochShadowDB.
// Inputs outside the physical range (non-finite, |power| over 1000 dB,
// σ outside (0, 100]) are skipped.
func FuzzFadeCutConservative(f *testing.F) {
	const cut = -120.0
	f.Add(uint64(1), uint64(2), uint64(3), uint64(0), false, 2.0, cut-2e-9, 0.0, cut)      // need just above 0
	f.Add(uint64(1), uint64(2), uint64(3), uint64(0), true, 2.0, cut-16+1e-9, 0.0, cut)    // k just below 8
	f.Add(uint64(7), uint64(9), uint64(4), uint64(5), false, 2.0, cut-16+2e-9, 0.0, cut)   // k a hair under 8
	f.Add(uint64(7), uint64(9), uint64(4), uint64(5), false, 1e-12, cut-1e-6, 0.0, cut)    // tiny σ
	f.Add(uint64(5), uint64(4), uint64(9), uint64(1), true, 1e-300, cut-1, 0.0, cut)       // vanishing σ
	f.Add(uint64(42), uint64(10), uint64(11), uint64(12), false, 4.0, -130.0, 3.0, cut)    // a static draw
	f.Add(uint64(42), uint64(11), uint64(10), uint64(12), true, 3.0, -110.0, -4.0, -100.0) // above the cut
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), false, 100.0, -400.0, 0.0, cut)      // huge σ
	f.Fuzz(func(t *testing.T, seed, tx, rx, epoch uint64, symmetric bool, sigma, base, static, cut float64) {
		for _, v := range []float64{base, static, cut} {
			if !(math.Abs(v) <= 1000) {
				return
			}
		}
		if !(sigma > 0 && sigma <= 100) {
			return
		}
		checkFadeCut(t, seed, tx, rx, epoch, symmetric, sigma, base, static, cut)
	})
}
