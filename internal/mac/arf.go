package mac

import "adhocsim/internal/phy"

// arf is Automatic Rate Fallback (Kamerman & Monteban's scheme, the one
// shipped in WaveLAN-II and most early 802.11b firmware), the "dynamic
// rate switching" the paper's §2 sets aside and its ablation bench
// compares against fixed rates. A MAC with Config.ARF holds one inline
// and rewinds it on Reset:
//
//   - after arfUpAfter consecutive successes, probe the next higher rate;
//   - after arfDownAfter consecutive failures, fall back one rate;
//   - a failure on the first frame after an upgrade (the probe) drops
//     straight back down.
//
// Bytes hold it: the streaks are only read below their thresholds (at
// the top rate the success count runs on unread until a failure clears
// it), and a MAC carries it inline whether or not ARF is on.
type arf struct {
	idx       uint8 // index into phy.Rates
	successes uint8
	failures  uint8
	probing   bool // first frame after an upgrade
}

const (
	arfUpAfter   = 10 // consecutive successes before probing up
	arfDownAfter = 2  // consecutive failures before falling back
)

// newARF returns fallback state starting at the given rate.
func newARF(start phy.Rate) arf { return arf{idx: uint8(start.Index())} }

// rate returns the rate to use for the next MSDU.
func (a *arf) rate() phy.Rate { return phy.Rates[a.idx] }

// onSuccess records a completed MSDU at the current rate.
func (a *arf) onSuccess() {
	a.probing = false
	a.failures = 0
	a.successes++
	if a.successes >= arfUpAfter && int(a.idx) < len(phy.Rates)-1 {
		a.idx++
		a.successes = 0
		a.probing = true
	}
}

// onFailure records a failed transmission attempt at the current rate.
func (a *arf) onFailure() {
	a.successes = 0
	if a.probing {
		// The probe at the higher rate failed: fall back immediately.
		a.probing = false
		a.down()
		return
	}
	a.failures++
	if a.failures >= arfDownAfter {
		a.failures = 0
		a.down()
	}
}

func (a *arf) down() {
	if a.idx > 0 {
		a.idx--
	}
}
