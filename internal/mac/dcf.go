package mac

import (
	"time"

	"adhocsim/internal/frame"
	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
	"adhocsim/internal/trace"
)

// This file contains the DCF engine: channel-access bookkeeping (physical
// CCA + NAV + interframe spaces), the backoff procedure, the transmit
// paths (basic access and RTS/CTS), SIFS-spaced responses, timeouts, and
// the receive dispatch.
//
// Event/timer discipline:
//
//   - resumeEv fires when the channel has stayed available for a full
//     IFS (DIFS, or EIFS after a PHY error); it starts/resumes backoff.
//     At a quiet station (idle, no backoff drawn, nothing to send) that
//     resume would do nothing, so the wait is a sim.Mark, resumeMark,
//     instead: it reserves the event's key and counts in Fired where the
//     event would have fired, but nothing is queued. Every re-arm,
//     channelBusy and PowerDown withdraw it; a frame that arrives during
//     the wait re-arms a real resume through kick, at the same instant.
//   - slotEv is the backoff countdown: one sim.Countdown entry for all
//     the remaining slots, firing when the last one elapses. Like
//     resumeEv it is cancelled the instant the channel becomes
//     unavailable (CCA busy or NAV set); channelBusy first reads Left,
//     the slots still owed, back into m.backoff. The countdown fires,
//     freezes and counts its slots in Fired exactly as a chain of
//     one-slot events would (DESIGN.md, "Backoff without slot events").
//   - sifsEv carries SIFS-spaced actions (CTS/ACK responses, the data
//     frame of an RTS/CTS exchange) and is never cancelled by busy
//     channel: the standard sends these regardless of carrier state.
//   - timeoutEv guards stWaitCTS/stWaitACK.
//
// Every timer is scheduled as a sim.Action of a pointer-conversion type
// over MAC (slotTick, resumeTimer, ...): converting m costs nothing and
// the type's Act calls back into it, so arming a timer allocates no
// closure and no method value, and a station carries no per-timer
// storage beyond its Event handles.

// timers -----------------------------------------------------------------

type (
	slotTick     MAC // the last backoff slot elapsed
	resumeTimer  MAC // the IFS after an idle edge elapsed
	navTimer     MAC // the NAV expired
	ctsTimer     MAC // no CTS arrived
	ackTimer     MAC // no ACK arrived
	sifsResponse MAC // send the pending CTS/ACK
	sifsData     MAC // send the data frame of an RTS/CTS exchange
	beaconTimer  MAC // the target beacon time (plus jitter) arrived
)

func (t *slotTick) Act() {
	m := (*MAC)(t)
	m.backoff = 0
	m.tickSlot()
}

func (t *sifsData) Act() {
	if m := (*MAC)(t); !m.radio.Transmitting() {
		m.txAttempt()
	}
}

func (t *resumeTimer) Act() {
	m := (*MAC)(t)
	m.resumeEv = sim.Event{} // fired: cancelling it later need not look it up
	m.resume()
}
func (t *navTimer) Act()     { (*MAC)(t).maybeAvailable() }
func (t *ctsTimer) Act()     { (*MAC)(t).ctsTimeout() }
func (t *ackTimer) Act()     { (*MAC)(t).ackTimeout() }
func (t *sifsResponse) Act() { (*MAC)(t).sendResponse() }
func (t *beaconTimer) Act()  { (*MAC)(t).beacon() }

// channel availability ------------------------------------------------

// CCAChanged implements medium.Handler.
func (m *MAC) CCAChanged(busy bool) {
	if m.down {
		return // crashed: PowerUp re-reads carrier sense directly
	}
	if busy {
		m.channelBusy()
	} else {
		m.maybeAvailable()
	}
}

// channelBusy suspends contention the instant the channel stops being
// available.
func (m *MAC) channelBusy() {
	m.available = false
	m.cancelResume()
	if m.slotEv.Pending() {
		m.backoff = m.sched.Left(m.slotEv) // freeze the countdown
		m.sched.Cancel(m.slotEv)
	}
	// A frame that was eligible for immediate access loses that
	// eligibility the moment the medium turns busy before it got out.
	if m.current != nil {
		m.current.needsBackoff = true
	}
}

// maybeAvailable re-evaluates availability after CCA went idle or the
// NAV expired. Availability requires both physical and virtual carrier
// sense to be clear.
func (m *MAC) maybeAvailable() {
	if m.radio.CCABusy() {
		return
	}
	now := m.sched.Now()
	if m.nav > now {
		// Virtually busy: wait out the NAV.
		m.navEv = m.sched.Reschedule(m.navEv, m.nav, (*navTimer)(m))
		return
	}
	m.available = true
	m.availSince = now
	m.armResume(now + m.ifs())
}

// ifs returns the interframe space the station currently owes before
// resuming contention: EIFS while the most recent reception ended in a
// PHY error, DIFS otherwise. Per the standard, EIFS persists across
// busy periods until an error-free frame is received.
func (m *MAC) ifs() time.Duration {
	if m.lastRxError && !m.cfg.DisableEIFS {
		return phy.EIFS()
	}
	return phy.DIFS
}

// setNAV raises the virtual carrier sense until the absolute time t.
func (m *MAC) setNAV(t time.Duration) {
	now := m.sched.Now()
	if t <= m.nav || t <= now {
		return
	}
	m.nav = t
	m.Counters.NAVUpdates++
	if m.available {
		m.channelBusy()
	}
	m.navEv = m.sched.Reschedule(m.navEv, m.nav, (*navTimer)(m))
}

// armResume arms the IFS wait to end at t: a resume event, or a mark at
// a quiet station, where resume would find nothing to do.
func (m *MAC) armResume(t time.Duration) {
	m.cancelResume()
	if m.st == stIdle && m.backoff < 0 && m.current == nil && len(m.queue) == 0 {
		m.resumeMark = m.sched.Mark(t)
		return
	}
	m.resumeEv = m.sched.AtAction(t, (*resumeTimer)(m))
}

// cancelResume withdraws the pending IFS wait, event or mark, and
// zeroes both handles, so that the next withdrawal costs nothing.
func (m *MAC) cancelResume() {
	m.sched.Cancel(m.resumeEv)
	m.sched.Unmark(m.resumeMark)
	m.resumeEv, m.resumeMark = sim.Event{}, sim.Mark{}
}

// scheduleResumeIfAvailable re-arms contention after a wait state ends
// (success, timeout, drop): if the channel is already available the IFS
// may be partially or fully elapsed.
func (m *MAC) scheduleResumeIfAvailable() {
	if !m.available {
		return // the next idle edge will arm the resume
	}
	now := m.sched.Now()
	if t := m.availSince + m.ifs(); t > now {
		m.armResume(t)
		return
	}
	m.resume()
}

// backoff procedure ----------------------------------------------------

// resume runs when the channel has been available for a full IFS. It
// draws a backoff if one is needed and starts the slot countdown; frames
// that arrived on an idle channel transmit without backoff (the
// standard's immediate-access rule).
func (m *MAC) resume() {
	if !m.available || m.radio.Transmitting() {
		return
	}
	if m.slotEv.Pending() {
		return // countdown already running; don't double-tick
	}
	if m.st != stContend && !(m.st == stIdle && m.backoff >= 0) {
		return // transmitting or waiting for a response: no contention
	}
	if m.backoff < 0 {
		if m.current == nil {
			return
		}
		if !m.current.needsBackoff {
			m.txAttempt()
			return
		}
		m.backoff = m.rng.Rand().Intn(m.cw)
	}
	m.tickSlot()
}

// tickSlot counts the remaining backoff slots down while the channel
// stays available, transmitting when none are left. While the countdown
// runs, m.backoff holds the count it started from; channelBusy writes
// back what is left when it freezes.
func (m *MAC) tickSlot() {
	if m.backoff == 0 {
		m.backoff = -1
		if m.current != nil {
			m.txAttempt()
		}
		return
	}
	m.slotEv = m.sched.Countdown(phy.SlotTime, m.backoff, (*slotTick)(m))
}

// transmit paths -------------------------------------------------------

// usesRTS reports whether pkt is sent under RTS/CTS protection.
func (m *MAC) usesRTS(pkt *msdu) bool {
	return !pkt.to.IsGroup() && len(pkt.payload) >= m.cfg.RTSThreshold
}

// controlRate returns the basic rate used for the control frames that
// accompany a data frame at the given rate.
func (m *MAC) controlRate(dataRate phy.Rate) phy.Rate { return phy.ControlRate(dataRate) }

// txAttempt transmits the current MSDU's next frame: the RTS if the
// handshake is still owed, otherwise the data frame itself.
func (m *MAC) txAttempt() {
	pkt := m.current
	if pkt == nil {
		return
	}
	// The data rate is (re-)selected per attempt so that rate fallback
	// (Config.ARF) adapts retransmissions, as real ARF firmware does.
	// Beacons and pinned control frames keep their fixed basic rate.
	if !pkt.isBeacon && !pkt.pinned {
		pkt.rate = m.DataRate()
	}
	if m.usesRTS(pkt) && !pkt.ctsOK {
		m.txRTS(pkt)
		return
	}
	m.txData(pkt)
}

func (m *MAC) txRTS(pkt *msdu) {
	ctrl := m.controlRate(pkt.rate)
	dataAir := phy.DataTime(pkt.rate, len(pkt.payload))
	// Duration covers the rest of the exchange: CTS + DATA + ACK + 3 SIFS.
	dur := 3*phy.SIFS + phy.CTSTime(ctrl) + dataAir + phy.ACKTime(ctrl)
	rts := &frame.Frame{
		Type:     frame.TypeRTS,
		Addr1:    pkt.to,
		Addr2:    m.cfg.Address,
		Duration: dur,
	}
	m.st = stTxRTS
	m.Counters.RTSTx++
	m.radio.Transmit(rts, ctrl)
}

func (m *MAC) txData(pkt *msdu) {
	f := &frame.Frame{
		Type:    frame.TypeData,
		Addr1:   pkt.to,
		Addr2:   m.cfg.Address,
		Addr3:   m.cfg.BSSID,
		Seq:     pkt.seq,
		Retry:   pkt.shortRetry+pkt.longRetry > 0,
		Payload: pkt.payload,
	}
	if pkt.isBeacon {
		f.Type = frame.TypeBeacon
		m.Counters.BeaconTx++
	}
	if f.NeedsACK() {
		f.Duration = phy.SIFS + phy.ACKTime(m.controlRate(pkt.rate))
	}
	m.st = stTxData
	m.Counters.DataTx++
	if f.Retry {
		m.Counters.DataRetx++
	}
	m.radio.Transmit(f, pkt.rate)
}

// TxDone implements medium.Handler: our frame left the air.
func (m *MAC) TxDone() {
	if m.down {
		return // a frame in the air when the station crashed: discard its outcome
	}
	if m.respInFlight {
		m.respInFlight = false
		return
	}
	switch m.st {
	case stTxRTS:
		m.st = stWaitCTS
		ctrl := m.controlRate(m.current.rate)
		timeout := phy.SIFS + phy.CTSTime(ctrl) + phy.SlotTime + 2*phy.PropDelay
		m.timeoutEv = m.sched.Reschedule(m.timeoutEv, m.sched.Now()+timeout, (*ctsTimer)(m))
	case stTxData:
		pkt := m.current
		if pkt != nil && !pkt.to.IsGroup() {
			m.st = stWaitACK
			ctrl := m.controlRate(pkt.rate)
			timeout := phy.SIFS + phy.ACKTime(ctrl) + phy.SlotTime + 2*phy.PropDelay
			m.timeoutEv = m.sched.Reschedule(m.timeoutEv, m.sched.Now()+timeout, (*ackTimer)(m))
			return
		}
		// Broadcast and beacon frames complete without acknowledgement.
		m.txSuccess()
	}
}

// outcome paths ---------------------------------------------------------

func (m *MAC) txSuccess() {
	m.notifyTx(m.current, true, true)
	m.Counters.TxSuccess++
	m.sched.Cancel(m.timeoutEv)
	m.cw = phy.CWMin
	m.recycle(m.current)
	m.current = nil
	m.st = stIdle
	// Post-transmission backoff (mandatory per the standard); it also
	// spaces back-to-back frames of a saturated queue, which is the
	// CWmin/2 term of the paper's Equation (1).
	m.backoff = m.rng.Rand().Intn(m.cw)
	m.popNext()
	m.scheduleResumeIfAvailable()
}

func (m *MAC) ctsTimeout() {
	m.Counters.CTSTimeouts++
	m.txFail(true)
}

func (m *MAC) ackTimeout() {
	m.Counters.ACKTimeouts++
	// Failures of unprotected data count against the short retry limit;
	// RTS-protected data counts against the long limit.
	m.txFail(!m.usesRTS(m.current))
}

// txFail handles a failed attempt: double the contention window, bump
// the appropriate retry counter, drop the MSDU past its limit, and
// contend again.
func (m *MAC) txFail(short bool) {
	pkt := m.current
	if pkt == nil {
		return
	}
	m.sched.Cancel(m.timeoutEv)
	if short {
		pkt.shortRetry++
	} else {
		pkt.longRetry++
	}
	pkt.ctsOK = false // a retry re-arms RTS protection
	pkt.needsBackoff = true

	exceeded := pkt.shortRetry > m.cfg.ShortRetryLimit || pkt.longRetry > m.cfg.LongRetryLimit
	m.notifyTx(pkt, false, exceeded)
	if exceeded {
		m.Counters.TxDrops++
		m.current = nil
		m.st = stIdle
		m.cw = phy.CWMin
	} else {
		m.st = stContend
		m.cw = min(2*m.cw, phy.CWMax)
	}
	m.backoff = m.rng.Rand().Intn(m.cw)
	if m.tr.Enabled(trace.LevelDebug) {
		verdict := "retry"
		if exceeded {
			verdict = "drop"
		}
		m.tr.Debugf("mac %v: tx fail to %v (short=%v retries %d/%d) %s, cw=%d backoff=%d",
			m.cfg.Address, pkt.to, short, pkt.shortRetry, pkt.longRetry, verdict, m.cw, m.backoff)
	}
	if exceeded {
		m.recycle(pkt)
		m.popNext()
	}
	m.scheduleResumeIfAvailable()
}

// popNext moves the head of the queue into the transmit pipeline and
// notifies the upper layer that queue space opened up.
func (m *MAC) popNext() {
	if m.current != nil || len(m.queue) == 0 {
		return
	}
	m.current = m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue[len(m.queue)-1] = nil
	m.queue = m.queue[:len(m.queue)-1]
	m.current.needsBackoff = true
	m.st = stContend
	if m.queueSpace != nil {
		m.queueSpace()
	}
}

// kick starts service for newly queued traffic when the pipeline is
// idle. A frame that arrives to an idle pipeline on a channel that is
// already available transmits after the residual DIFS without backoff
// (immediate access); otherwise it contends normally.
func (m *MAC) kick() {
	if m.st != stIdle || m.current != nil || len(m.queue) == 0 {
		return
	}
	immediate := m.backoff < 0 && m.available
	m.popNext()
	if !immediate {
		m.scheduleResumeIfAvailable()
		return
	}
	m.current.needsBackoff = false
	now := m.sched.Now()
	if t := m.availSince + m.ifs(); t > now {
		m.armResume(t)
		return
	}
	m.txAttempt()
}

// SIFS responses --------------------------------------------------------

// scheduleResponse queues a control response (ACK or CTS) or the data
// frame of an RTS exchange to be transmitted one SIFS from now,
// regardless of carrier state, as the standard requires.
func (m *MAC) scheduleResponse(f *frame.Frame, rate phy.Rate) {
	m.pendingResp, m.respRate = f, rate
	m.sifsEv = m.sched.Reschedule(m.sifsEv, m.sched.Now()+phy.SIFS, (*sifsResponse)(m))
}

// sendResponse transmits the response scheduleResponse queued, one SIFS
// after the frame it answers.
func (m *MAC) sendResponse() {
	resp := m.pendingResp
	m.pendingResp = nil
	if resp == nil || m.radio.Transmitting() {
		return
	}
	if m.cfg.DeferResponses && (m.radio.CCABusy() || m.nav > m.sched.Now()) {
		m.Counters.RespSuppressed++
		return
	}
	m.respInFlight = true
	switch resp.Type {
	case frame.TypeACK:
		m.Counters.ACKTx++
	case frame.TypeCTS:
		m.Counters.CTSTx++
	}
	m.radio.Transmit(resp, m.respRate)
}

// receive dispatch -------------------------------------------------------

// RxEnd implements medium.Handler: a locked reception finished.
func (m *MAC) RxEnd(f *frame.Frame, rate phy.Rate, rssiDBm float64, ok bool) {
	if m.down {
		return // crashed radios never lock, but gate defensively
	}
	if !ok {
		m.phyError()
		return
	}
	// An error-free reception terminates any standing EIFS obligation.
	m.lastRxError = false
	m.lastRxRSSI = rssiDBm
	now := m.sched.Now()
	if f.Addr1 != m.cfg.Address {
		// Third party traffic: honour its channel reservation.
		if f.Duration > 0 {
			m.setNAV(now + f.Duration)
		}
		switch f.Type {
		case frame.TypeBeacon:
			m.Counters.RxBeacon++
			if m.beaconSeen != nil {
				m.beaconSeen(f.Addr2)
			}
			if f.Addr1.IsBroadcast() {
				return
			}
		case frame.TypeData:
			if f.Addr1.IsBroadcast() {
				m.deliverUp(f)
				return
			}
		}
		m.Counters.RxForOthers++
		return
	}

	switch f.Type {
	case frame.TypeData:
		m.Counters.RxData++
		ack := &frame.Frame{Type: frame.TypeACK, Addr1: f.Addr2}
		m.scheduleResponse(ack, m.controlRate(rate))
		m.deliverUp(f)
	case frame.TypeRTS:
		m.Counters.RxRTS++
		// Respond only if our NAV is idle (standard rule): otherwise the
		// requesting station's exchange would collide with a reservation
		// we have already honoured.
		if m.nav <= now {
			cts := &frame.Frame{
				Type:     frame.TypeCTS,
				Addr1:    f.Addr2,
				Duration: f.Duration - phy.CTSTime(rate) - phy.SIFS,
			}
			m.scheduleResponse(cts, rate)
		}
	case frame.TypeCTS:
		m.Counters.RxCTS++
		if m.st == stWaitCTS {
			m.sched.Cancel(m.timeoutEv)
			m.current.ctsOK = true
			m.st = stSIFSData
			m.sifsEv = m.sched.Reschedule(m.sifsEv, now+phy.SIFS, (*sifsData)(m))
		}
	case frame.TypeACK:
		m.Counters.RxACK++
		if m.st == stWaitACK {
			m.txSuccess()
		}
	}
}

// phyError handles a locked-but-undecodable reception: the MAC must
// defer by EIFS instead of DIFS before resuming contention. EIFS is the
// mechanism that penalizes stations which can hear a session's data
// frames but not decode its (basic-rate) control frames — central to the
// paper's four-node asymmetries.
func (m *MAC) phyError() {
	m.Counters.PHYErrors++
	if m.cfg.DisableEIFS {
		return // ablation: treat the error as plain energy (DIFS rules)
	}
	m.Counters.EIFSDeferrals++
	m.lastRxError = true
	if !m.available {
		return
	}
	// Restart the deferral from the error: the station owes a full EIFS
	// of continuous availability before contending again.
	m.availSince = m.sched.Now()
	m.armResume(m.availSince + m.ifs())
}

// deliverUp hands a received MSDU to the upper layer, suppressing
// duplicates created by lost ACKs (same source and sequence with the
// retry flag set).
func (m *MAC) deliverUp(f *frame.Frame) {
	src := f.Addr2
	if last, seen := m.rxSeq[src]; f.Retry && seen && last == f.Seq {
		m.Counters.RxDup++
		return
	}
	if m.rxSeq == nil {
		m.rxSeq = make(map[frame.Addr]uint16)
	}
	m.rxSeq[src] = f.Seq
	if m.deliver != nil {
		m.deliver(f.Payload, src)
	}
}
