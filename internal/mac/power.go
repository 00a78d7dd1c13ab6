package mac

import (
	"errors"

	"adhocsim/internal/phy"
	"adhocsim/internal/sim"
)

// This file implements station crash/restart for the fault-injection
// engine: PowerDown tears the MAC back to a cold stack mid-run and
// PowerUp brings it back, both as ordinary scheduler events so faulted
// runs stay bit-identical across kernels. The split from Reset matters:
// Reset rewinds a whole network to t=0 between replications, while a
// power cycle happens at a live instant on a live channel — state the
// peers keep (their duplicate-suppression caches, their routes through
// us) is beyond our reach, and the restart must coexist with it.

// ErrDown is returned by Send/SendControl while the station is crashed.
var ErrDown = errors.New("mac: station is down")

// Down reports whether the MAC is powered down (crashed station).
func (m *MAC) Down() bool { return m.down }

// PowerDown crashes the station's MAC: every pending timer is
// cancelled, the transmit queue and pipeline are discarded, and the
// DCF state machine returns to idle. Frames lost here are the crash's
// data loss — nothing is preserved for the restart, exactly as a real
// power loss wipes driver state. The caller powers the radio down
// separately (medium.Radio.PowerDown), after this call, so the
// CCAChanged edge a dropped lock may produce is already gated.
//
// The MAC's own sequence counter deliberately survives: peers hold our
// pre-crash sequence numbers in their duplicate-suppression caches, and
// restarting from zero would make them silently eat our first frames
// after the restart. Received-side duplicate state is cleared — that is
// the stack state a crash genuinely loses.
func (m *MAC) PowerDown() {
	if m.down {
		return
	}
	m.Touch()
	m.down = true
	m.cancelResume()
	m.sched.Cancel(m.slotEv)
	m.sched.Cancel(m.navEv)
	m.sched.Cancel(m.timeoutEv)
	m.sched.Cancel(m.sifsEv)
	m.sched.Cancel(m.beaconEv)
	m.resumeEv, m.slotEv, m.navEv = sim.Event{}, sim.Event{}, sim.Event{}
	m.timeoutEv, m.sifsEv, m.beaconEv = sim.Event{}, sim.Event{}, sim.Event{}
	m.flushPipeline()
	m.st = stIdle
	m.cw = phy.CWMin
	m.backoff = -1
	m.nav = 0
	m.lastRxError = false
	m.pendingResp = nil
	m.respRate = 0
	m.respInFlight = false
	clear(m.rxSeq)
	m.lastRxRSSI = 0
}

// PowerUp restarts a crashed MAC. The radio must already be powered up
// (medium.Radio.PowerUp) so carrier sense reads the live channel. The
// tail mirrors Attach exactly — channel-state initialization, then
// beacon arming — so a restarted station re-enters the IBSS the same
// way a freshly attached one joins it. Saturating sources blocked on
// ErrDown are re-kicked through the queue-space callback.
func (m *MAC) PowerUp() {
	if !m.down {
		return
	}
	m.down = false
	m.available = !m.radio.CCABusy()
	m.availSince = m.sched.Now()
	if m.cfg.BeaconInterval > 0 {
		m.scheduleBeacon()
	}
	if m.queueSpace != nil {
		m.queueSpace()
	}
}
