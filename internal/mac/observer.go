package mac

import "adhocsim/internal/frame"

// TxOutcome describes the fate of one transmission event for a data
// MSDU, as reported to the MAC's transmit observers. Two kinds of event
// are reported, the same two that drive rate fallback (Config.ARF):
//
//   - a completed MSDU (Success && Final): the frame was acknowledged,
//     or was a broadcast and left the air;
//   - a failed attempt (!Success): one transmission attempt ended in a
//     CTS or ACK timeout. Final is additionally set when that failure
//     drove the MSDU past its retry limit and out of the pipeline.
//
// Beacons are not reported. Control-plane MSDUs queued through
// SendControl are reported with Control set; rate fallback ignores them.
type TxOutcome struct {
	// To is the MSDU's link-layer destination — for routing protocols,
	// the next hop whose link just proved itself alive or dead.
	To frame.Addr
	// Success reports a completed MSDU; false is a failed attempt.
	Success bool
	// Final reports that the MSDU left the transmit pipeline: delivered,
	// or dropped at the retry limit. A Final failure is the MAC-level
	// signal that the link to To is broken.
	Final bool
	// Control marks MSDUs queued via SendControl (pinned basic-rate
	// control traffic, e.g. routing advertisements), which are not
	// subject to rate adaptation.
	Control bool
}

// TxObserver receives transmit outcomes. Multiple observers can
// subscribe to one MAC (AddTxObserver); routing link-failure detection
// is one.
type TxObserver interface {
	ObserveTx(TxOutcome)
}

// AddTxObserver subscribes an observer to this MAC's transmit outcomes.
// Subscriptions are construction-time wiring: they survive Reset, like
// the delivery callback. Observers are notified in subscription order,
// after rate fallback has taken the outcome in.
func (m *MAC) AddTxObserver(o TxObserver) { m.txObservers = append(m.txObservers, o) }

// notifyTx feeds a transmit outcome for pkt to rate fallback, unless
// pkt is control traffic, and then to every observer. Beacons are
// excluded from both.
func (m *MAC) notifyTx(pkt *msdu, success, final bool) {
	if pkt.isBeacon {
		return
	}
	if m.cfg.ARF && !pkt.pinned {
		if success {
			m.arf.onSuccess()
		} else {
			m.arf.onFailure()
		}
	}
	if len(m.txObservers) == 0 {
		return
	}
	o := TxOutcome{To: pkt.to, Success: success, Final: final, Control: pkt.pinned}
	for _, obs := range m.txObservers {
		obs.ObserveTx(o)
	}
}
