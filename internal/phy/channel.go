package phy

import (
	"math"
	"time"

	"adhocsim/internal/sim"
)

// LogDistance is the deterministic component of the propagation model:
// path loss in dB grows as 10·n·log10(d) past a 1 m reference loss.
// Outdoor open-field measurements (the paper's setting) are well described
// by exponents n ≈ 2.7–3.5.
type LogDistance struct {
	RefLossDB float64 // loss at 1 m, dB
	Exponent  float64 // path-loss exponent n
}

// LossDB returns the mean path loss in dB at distance d meters. Distances
// below 1 m are clamped to the reference distance.
func (l LogDistance) LossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return l.RefLossDB + 10*l.Exponent*math.Log10(d)
}

// RangeFor returns the distance at which the mean path loss equals
// lossDB: the inverse of LossDB.
func (l LogDistance) RangeFor(lossDB float64) float64 {
	return math.Pow(10, (lossDB-l.RefLossDB)/(10*l.Exponent))
}

// Fading models time-varying log-normal shadowing as per-directed-link
// block fading: within one coherence epoch the shadowing offset of a link
// is constant; across epochs it is redrawn i.i.d. N(0, σ²). The offset is
// a pure function of (seed, link, epoch), so the process needs no stored
// state and is exactly reproducible.
//
// This is the substitute for the paper's outdoor radio channel: the paper
// reports that "the physical channel has time-varying and asymmetric
// propagation properties" (§2) and "high variability in the channel
// conditions during the same experiment" (footnote 4). Directed links
// fade independently (asymmetry); σ and the coherence time set how fast
// conditions swing.
type Fading struct {
	SigmaDB   float64       // time-varying shadowing standard deviation, dB
	Coherence time.Duration // epoch length; <=0 disables time variation
	Symmetric bool          // if true, both directions of a link share the fade
	// StaticSigmaDB adds a per-directed-link offset drawn once per run:
	// persistent location-dependent channel asymmetry (antenna placement,
	// ground multipath). Zero by default; DESIGN.md ("The EIFS-asymmetry
	// mechanism", point 3) discusses it as a model of the testbed's fixed
	// asymmetries.
	StaticSigmaDB float64
}

// MaxShadowSigmas bounds each normal shadowing deviate to ±8σ. Measured
// shadowing distributions have bounded support — a draw eight standard
// deviations out is not a physical channel state but a numerical
// artifact of the Box-Muller tail — and a hard bound is what makes the
// fading process spatially indexable: it caps the power any transmission
// can deliver at a given distance, so the medium can derive a finite
// relevance radius (Profile.ReachRange) and skip all radios beyond it
// without ever disagreeing with an exhaustive per-radio evaluation. The
// truncation is statistically invisible (P(|z| > 8) ≈ 1.2e-15 per draw).
const MaxShadowSigmas = 8

// clampNorm truncates a standard normal deviate to ±MaxShadowSigmas.
func clampNorm(z float64) float64 {
	if z > MaxShadowSigmas {
		return MaxShadowSigmas
	}
	if z < -MaxShadowSigmas {
		return -MaxShadowSigmas
	}
	return z
}

// orient maps a directed link to the key its shadowing draws hash
// over: the link itself, or the sorted pair under Symmetric fading.
func (f Fading) orient(tx, rx uint64) (uint64, uint64) {
	if f.Symmetric && tx > rx {
		return rx, tx
	}
	return tx, rx
}

// StaticShadowDB returns the persistent per-link shadowing component in
// dB: the offset drawn once per run for the directed link tx→rx, or 0
// when StaticSigmaDB is disabled. It is a pure function of (seed, link),
// which is what lets the medium cache it per link for the lifetime of a
// run without ever disagreeing with a fresh computation.
func (f Fading) StaticShadowDB(src *sim.Source, tx, rx uint64) float64 {
	if f.StaticSigmaDB == 0 {
		return 0
	}
	a, b := f.orient(tx, rx)
	return f.StaticSigmaDB * clampNorm(src.HashNorm(0x57a71c, a, b))
}

// FadeEpoch returns the coherence epoch that governs the time-varying
// shadowing component at simulated time now. Within one epoch every
// link's dynamic fade is constant — the invariant the medium's
// link-gain cache keys on.
func (f Fading) FadeEpoch(now time.Duration) uint64 {
	if f.Coherence > 0 {
		return uint64(now / f.Coherence)
	}
	return 0
}

// EpochShadowDB returns the time-varying shadowing component in dB for
// the directed link tx→rx during the given coherence epoch, or 0 when
// SigmaDB is disabled. Like StaticShadowDB it is a pure function of
// (seed, link, epoch), so caching the value for the duration of the
// epoch is bit-identical to recomputing it per arrival.
func (f Fading) EpochShadowDB(src *sim.Source, tx, rx, epoch uint64) float64 {
	db, _ := f.EpochShadowAbove(src, tx, rx, epoch, float32(math.Inf(1)))
	return db
}

// fadeCutGuardDB is the round-off guard EpochCutBound takes off a
// link's margin under the cut: the link-power composition sums three
// terms of at most a few hundred dB, whose rounding errors are some
// thirteen orders of magnitude smaller, so a 1e-9 dB guard keeps every
// rejection sound without costing a measurable share of them.
const fadeCutGuardDB = 1e-9

// EpochCutBound returns the first-uniform bound EpochShadowAbove takes
// for a link whose fade-free power lies belowDB under a receiver's
// power cut. The epoch fade must then reach need = belowDB −
// fadeCutGuardDB, i.e. its standard deviate must reach k = need/σ, for
// the link to clear the cut:
//
//   - need ≤ 0 (or a σ that is not positive and finite): any fade may
//     clear it; the result, +Inf, disables the cut.
//   - k ≥ MaxShadowSigmas: no clamped deviate reaches it; the result,
//     −1, rejects every draw.
//   - otherwise exp(−k²/2), the Box–Muller bound of sim.HashNormCut,
//     widened by a relative 1e-9 against the round-off of the Log and
//     Sqrt the real draw takes and rounded up to float32.
//
// The bound depends only on the link's geometry, its static draw and
// the receiver's fixed cut, so the medium computes it once per link.
func (f Fading) EpochCutBound(belowDB float64) float32 {
	need := belowDB - fadeCutGuardDB
	if !(need > 0) || !(f.SigmaDB > 0) || math.IsInf(f.SigmaDB, 1) {
		return float32(math.Inf(1))
	}
	k := need / f.SigmaDB
	if k >= MaxShadowSigmas {
		return -1
	}
	u := math.Exp(-k*k/2) * (1 + 1e-9)
	b := float32(u)
	if float64(b) < u {
		b = math.Nextafter32(b, float32(math.Inf(1)))
	}
	return b
}

// EpochShadowAbove is EpochShadowDB for a link that matters only if its
// epoch fade can lift it over a cut, given that cut's EpochCutBound
// u1Max. It returns (0, false) without the transcendental math when
// the fade certainly falls short of the cut, and otherwise
// (EpochShadowDB(src, tx, rx, epoch), true), bit for bit: the same
// orientation, the same hashed words, the same Box–Muller draw
// (EpochShadowDB is this call with u1Max = +Inf, the cut off).
func (f Fading) EpochShadowAbove(src *sim.Source, tx, rx, epoch uint64, u1Max float32) (float64, bool) {
	if f.SigmaDB == 0 {
		return 0, true
	}
	if u1Max < 0 {
		return 0, false
	}
	a, b := f.orient(tx, rx)
	z, ok := src.HashNormCut(float64(u1Max), 0xfade, a, b, epoch)
	if !ok {
		return 0, false
	}
	return f.SigmaDB * clampNorm(z), true
}

// ShadowDB returns the shadowing offset in dB for the directed link
// tx→rx at simulated time now. The offset is bounded by ±MaxShadowDB.
// It composes StaticShadowDB and EpochShadowDB — the same components,
// summed in the same order, as the medium's link-gain cache, so cached
// and direct computations are bit-identical (TestShadowDBComposition
// pins this).
func (f Fading) ShadowDB(src *sim.Source, tx, rx uint64, now time.Duration) float64 {
	if f.SigmaDB == 0 && f.StaticSigmaDB == 0 {
		return 0
	}
	db := f.StaticShadowDB(src, tx, rx)
	db += f.EpochShadowDB(src, tx, rx, f.FadeEpoch(now))
	return db
}

// MaxShadowDB returns the largest shadowing offset ShadowDB can ever
// produce for this fading model: the bound that turns "could this frame
// matter at that receiver?" into a pure distance test.
func (f Fading) MaxShadowDB() float64 {
	return MaxShadowSigmas * (math.Abs(f.SigmaDB) + math.Abs(f.StaticSigmaDB))
}

// Profile is the complete radio model of one class of 802.11b NIC plus
// environment: transmit power, path loss, fading, receiver sensitivity
// per rate, SINR requirements per rate, and carrier-sense thresholds.
//
// The zero value is not useful; start from DefaultProfile and adjust.
type Profile struct {
	Name string

	TxPowerDBm    float64 // cards transmit at constant power (§2)
	NoiseFloorDBm float64

	PathLoss LogDistance
	Fading   Fading

	// SensitivityDBm[rate.Index()] is the minimum mean received power for
	// a frame at that rate to be decodable.
	SensitivityDBm [4]float64

	// SINRRequiredDB[rate.Index()] is the minimum signal-to-
	// (interference+noise) ratio for successful decoding at that rate.
	// Higher rates need denser constellations and hence more margin.
	SINRRequiredDB [4]float64

	// PLCPDetectDBm is the minimum power at which a receiver can lock
	// onto the PLCP preamble (always sent at 1 Mbit/s). Locked-but-
	// undecodable frames end with a PHY error, which triggers EIFS at
	// the MAC — a key mechanism in the paper's four-node asymmetries.
	PLCPDetectDBm float64

	// CCAThresholdDBm is the energy-detect threshold of physical carrier
	// sense. It is lower (more sensitive) than any decode sensitivity,
	// which is why PCS_range > TX_range (§2 of the paper).
	CCAThresholdDBm float64

	// CaptureMarginDB: during PLCP lock, a newcomer frame this many dB
	// stronger than the currently locked frame steals the receiver
	// (message-in-message capture). Set very high to disable.
	CaptureMarginDB float64
}

// DefaultProfile returns the calibrated radio model used by all paper
// reproductions. Calibration targets (median, i.e. 50 % packet loss,
// ranges — Table 3 of the paper):
//
//	11 Mbit/s  ≈  30 m   (paper: 30 m)
//	5.5 Mbit/s ≈  70 m   (paper: 70 m)
//	2 Mbit/s   ≈  95 m   (paper: 90–100 m)
//	1 Mbit/s   ≈ 120 m   (paper: 110–130 m)
//
// and PCS_range ≈ 190 m (energy detect), comfortably above every data
// range, as the paper's four-node experiments require.
func DefaultProfile() *Profile {
	p := &Profile{
		Name:          "dlink-dwl650-outdoor",
		TxPowerDBm:    15,
		NoiseFloorDBm: -100,
		PathLoss:      LogDistance{RefLossDB: 40, Exponent: 3.0},
		Fading: Fading{
			SigmaDB:   4,
			Coherence: 50 * time.Millisecond,
		},
		SINRRequiredDB:  [4]float64{4, 7, 9, 12}, // 1, 2, 5.5, 11 Mbit/s
		CaptureMarginDB: 10,
	}
	p.CalibrateRanges([4]float64{120, 95, 70, 30})
	p.PLCPDetectDBm = p.SensitivityDBm[Rate1.Index()]
	p.CCAThresholdDBm = p.rxPowerAt(190)
	return p
}

// TestbedProfile returns the radio model used for the paper's
// four-station experiments (§3.3): DefaultProfile plus a static
// per-link shadowing component. The paper explains its Figure 7
// unfairness by "the asymmetric condition that exists on the channel";
// the static component models exactly that — persistent, link-specific
// gain offsets from antenna placement and ground multipath — while the
// total shadowing variance stays at the default 4 dB² scale.
//
// Which session wins is a property of the drawn offsets (i.e. of the
// run seed), just as it was a property of the field on the measurement
// day; see DESIGN.md ("The EIFS-asymmetry mechanism", point 3).
func TestbedProfile() *Profile {
	p := DefaultProfile()
	p.Name = "dlink-dwl650-outdoor-asymmetric"
	p.Fading.SigmaDB = 3
	p.Fading.StaticSigmaDB = 4
	return p
}

// CityProfile returns the radio model of the city-scale presets: the
// default NIC in a denser urban environment. Street-level clutter
// steepens the path-loss exponent to 3.5, and the many small scatterers
// average the shadowing down to σ = 2 dB; the sensitivities are
// recalibrated to the same Table 3 median ranges, so link budgets at
// preset distances match the outdoor model while power decays much
// faster beyond them.
//
// That faster decay is the point at scale: the relevance radius — the
// distance the medium's spatial index must search around every
// transmitter, priced by ReachRange at the irrelevance threshold —
// collapses from ~17 km under DefaultProfile to ~1.5 km here. On a
// 100 000-station field the outdoor model would make every transmission
// consider a large fraction of the city; under this profile it touches
// only its own few blocks.
func CityProfile() *Profile {
	p := &Profile{
		Name:          "dlink-dwl650-city",
		TxPowerDBm:    15,
		NoiseFloorDBm: -100,
		PathLoss:      LogDistance{RefLossDB: 40, Exponent: 3.5},
		Fading: Fading{
			SigmaDB: 2,
			// Static city stations: shadowing decorrelation is driven by
			// scatterer motion alone, not by the terminal moving through
			// the fade field, so the fade holds for ~half a second rather
			// than the outdoor model's 50 ms. (This is also what keeps
			// per-link fade redraws off the 100k hot path: one redraw per
			// link per half second instead of twenty.)
			Coherence: 500 * time.Millisecond,
		},
		SINRRequiredDB:  [4]float64{4, 7, 9, 12}, // 1, 2, 5.5, 11 Mbit/s
		CaptureMarginDB: 10,
	}
	p.CalibrateRanges([4]float64{120, 95, 70, 30})
	p.PLCPDetectDBm = p.SensitivityDBm[Rate1.Index()]
	// PCS_range is pinned at the same 190 m as the outdoor model (the
	// threshold lands lower in dBm because loss at 190 m is higher), so
	// the PCS_range > TX_range ordering the paper's experiments rest on
	// holds here too.
	p.CCAThresholdDBm = p.rxPowerAt(190)
	return p
}

// CalibrateRanges sets the per-rate sensitivities so that the median
// transmission range of each rate equals ranges (meters, indexed like
// Rate.Index: 1, 2, 5.5, 11 Mbit/s).
func (p *Profile) CalibrateRanges(ranges [4]float64) {
	for i, d := range ranges {
		p.SensitivityDBm[i] = p.TxPowerDBm - p.PathLoss.LossDB(d)
	}
}

// rxPowerAt returns the mean received power at distance d.
func (p *Profile) rxPowerAt(d float64) float64 {
	return p.TxPowerDBm - p.PathLoss.LossDB(d)
}

// MeanRxPowerDBm returns the mean (fade-free) received power in dBm at
// distance d meters from a transmitter using this profile.
func (p *Profile) MeanRxPowerDBm(d float64) float64 { return p.rxPowerAt(d) }

// RxPowerDBm returns the instantaneous received power for the directed
// link tx→rx at distance d and time now, including the current shadowing
// epoch.
func (p *Profile) RxPowerDBm(src *sim.Source, tx, rx uint64, d float64, now time.Duration) float64 {
	return p.rxPowerAt(d) + p.Fading.ShadowDB(src, tx, rx, now)
}

// MedianRange returns the distance at which the mean received power
// equals the sensitivity of rate r: the 50 %-loss distance, i.e. the
// paper's "transmission range" estimate for that rate.
func (p *Profile) MedianRange(r Rate) float64 {
	return p.PathLoss.RangeFor(p.TxPowerDBm - p.SensitivityDBm[r.Index()])
}

// CarrierSenseRange returns the distance at which the mean received power
// equals the CCA energy-detect threshold (the median PCS_range).
func (p *Profile) CarrierSenseRange() float64 {
	return p.PathLoss.RangeFor(p.TxPowerDBm - p.CCAThresholdDBm)
}

// ReachRange returns the maximum distance at which a transmission from
// this profile can arrive with instantaneous power ≥ thresholdDBm, under
// the most favorable shadowing draw the fading model admits
// (Fading.MaxShadowDB). Beyond this distance the received power is
// certainly below the threshold, whatever the fade — the guarantee the
// medium's spatial index is built on. The returned distance carries a
// small guard band (+0.1 %, +1 m) so that floating-point round-off in
// the loss/range inversion can never exclude a boundary receiver that a
// direct power computation would include.
func (p *Profile) ReachRange(thresholdDBm float64) float64 {
	d := p.PathLoss.RangeFor(p.TxPowerDBm + p.Fading.MaxShadowDB() - thresholdDBm)
	return d*1.001 + 1
}

// LossProbability returns the analytic probability that a frame at rate r
// is lost at distance d due to shadowing alone (no interference): the
// probability that the faded power falls below the rate's sensitivity.
func (p *Profile) LossProbability(r Rate, d float64) float64 {
	if p.Fading.SigmaDB == 0 && p.Fading.StaticSigmaDB == 0 {
		if p.rxPowerAt(d) >= p.SensitivityDBm[r.Index()] {
			return 0
		}
		return 1
	}
	margin := p.rxPowerAt(d) - p.SensitivityDBm[r.Index()]
	sigma := math.Hypot(p.Fading.SigmaDB, p.Fading.StaticSigmaDB)
	// P(X < -margin), X ~ N(0, σ) — the Gaussian Q-function.
	return 0.5 * math.Erfc(margin/(sigma*math.Sqrt2))
}

// Clone returns a deep copy of the profile, convenient for deriving
// weather variants without mutating the shared default.
func (p *Profile) Clone() *Profile {
	q := *p
	return &q
}

// Weather describes a day's channel conditions for the Figure 4
// experiment (1 Mbit/s transmission range measured on two different
// days). Wetter/worse days attenuate faster and swing more.
type Weather struct {
	Name          string
	ExponentDelta float64 // added to the path-loss exponent
	SigmaDeltaDB  float64 // added to the shadowing σ
}

// Standard weather profiles for the Figure 4 reproduction. The paper's
// curves for 06/12/2002 and 09/12/2002 differ by roughly 20 m at the
// same loss level; a small exponent shift reproduces that spread.
var (
	WeatherClear = Weather{Name: "2002-12-06 (clear)", ExponentDelta: 0, SigmaDeltaDB: 0}
	WeatherDamp  = Weather{Name: "2002-12-09 (damp)", ExponentDelta: 0.25, SigmaDeltaDB: 1}
)

// Apply returns a copy of profile p with the weather adjustment applied.
// Sensitivities are untouched: weather changes the channel, not the NIC.
func (w Weather) Apply(p *Profile) *Profile {
	q := p.Clone()
	q.Name = p.Name + "/" + w.Name
	q.PathLoss.Exponent += w.ExponentDelta
	q.Fading.SigmaDB += w.SigmaDeltaDB
	return q
}

// Linear holds a Profile's threshold quantities precomputed in linear
// mW. The medium's hot receive path sums energies in linear
// scale, and before PR 4 it converted the *constant* dB-scale
// thresholds (noise floor, CCA energy-detect, per-rate sensitivities)
// through math.Pow on every busy-check and decode verdict. Linearize
// computes each value exactly once through the same DBmToMilliwatt the
// direct code path used, so a cached table entry is bit-identical to
// the on-the-fly conversion it replaces (TestLinearizeMatchesDirect
// pins this).
type Linear struct {
	// NoiseFloorMW is DBmToMilliwatt(Profile.NoiseFloorDBm).
	NoiseFloorMW float64
	// CCAThresholdMW is DBmToMilliwatt(Profile.CCAThresholdDBm).
	CCAThresholdMW float64
	// SensitivityMW[rate.Index()] is the per-rate decode sensitivity in
	// mW, DBmToMilliwatt(Profile.SensitivityDBm[i]).
	SensitivityMW [4]float64
}

// Linearize precomputes the profile's linear-scale threshold table.
// Call it after the profile is fully configured: the table is a
// snapshot, not a view, so later threshold edits do not propagate
// (the medium takes its snapshot at radio attach time, matching the
// existing rule that profiles are configured before attach).
func (p *Profile) Linearize() Linear {
	l := Linear{
		NoiseFloorMW:   DBmToMilliwatt(p.NoiseFloorDBm),
		CCAThresholdMW: DBmToMilliwatt(p.CCAThresholdDBm),
	}
	for i, s := range p.SensitivityDBm {
		l.SensitivityMW[i] = DBmToMilliwatt(s)
	}
	return l
}

// DBmToMilliwatt converts dBm to linear mW. The medium runs it once per
// link that survives its irrelevance cut per fan-out rebuild, and its
// fan-out memo keeps the result beside the dBm value.
func DBmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattToDBm converts linear mW to dBm.
func MilliwattToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}
