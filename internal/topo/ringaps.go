package topo

import (
	"fmt"

	"repro/internal/aps"
)

// RingAPS is the per-node BLSR ring switch state machine, the ring
// generalisation of the linear GR-253 controller in internal/aps. The
// K1/K2 bytes are reinterpreted per GR-1230: the K1 upper nibble is the
// request code (the same codes as linear APS), the K1 lower nibble the
// *destination node ID*, the K2 upper nibble the *source node ID*, K2
// bit 3 the long/short path indicator, and the K2 low bits the bridge
// status. A node detecting a dead incoming span wraps immediately
// (working traffic bridged onto the opposite rotation's protection
// slots) and signals the far end of the failed span on both the short
// path (the dead fibre, best effort) and the long path around the
// ring; intermediate nodes relay long-path requests. Squelching: a
// wrap node inserts AIS for any circuit whose endpoints are no longer
// connected by surviving spans, so a ring split by two failures can
// never misconnect traffic (GR-1230's squelch tables, computed from
// the learned failed-span map).
type RingAPS struct {
	Node int // this node's ring ID (0..15)
	N    int // ring size
	// WTR is the wait-to-restore: how long a locally-detected failure
	// must stay clear before the wrap is released (revertive).
	WTR int64
	// KTTL is the sustain window in ticks for far-end and relayed K
	// state: a request stops holding state this long after its source
	// stops sending it.
	KTTL int64

	wrapped  [2]bool  // by outgoing rotation: that span is declared dead
	localSF  [2]bool  // by incoming rotation: local defect (held through WTR)
	wtrUntil [2]int64 // by incoming rotation: WTR expiry, 0 when idle
	farUntil [2]int64 // by wrapped rotation: far-end request sustain deadline
	relay    [2]relayState
	failed   map[int]int64 // east-span index -> known-failed until tick
	now      int64         // last Advance tick

	Wraps  uint64
	OnWrap func(now int64, rot Rotation, on bool)
}

type relayState struct {
	k1, k2 byte
	until  int64
}

// K2 path/status encoding.
const (
	k2LongPath        = 0x08 // bit 3: request travelled the long path
	k2BridgedSwitched = 0x02
)

// NewRingAPS returns a machine for node id on a ring of n nodes.
func NewRingAPS(id, n int, wtr int64) *RingAPS {
	return &RingAPS{Node: id, N: n, WTR: wtr, KTTL: 32, failed: make(map[int]int64)}
}

// Wrapped reports whether the node's outgoing span on rot is declared
// dead, i.e. its working traffic is bridged onto the opposite
// rotation's protection slots.
func (ra *RingAPS) Wrapped(rot Rotation) bool { return ra.wrapped[rot] }

// farNode returns the far end of the incoming span on rot.
func (ra *RingAPS) farNode(rot Rotation) int {
	if rot == East {
		return (ra.Node - 1 + ra.N) % ra.N
	}
	return (ra.Node + 1) % ra.N
}

// nextNode returns the node the outgoing span on rot heads to.
func (ra *RingAPS) nextNode(rot Rotation) int {
	if rot == East {
		return (ra.Node + 1) % ra.N
	}
	return (ra.Node - 1 + ra.N) % ra.N
}

// inSpan returns the east-span index of the fibre pair feeding the
// incoming rotation.
func (ra *RingAPS) inSpan(rot Rotation) int {
	if rot == East {
		return (ra.Node - 1 + ra.N) % ra.N
	}
	return ra.Node
}

// spanBetween returns the east-span index of the fibre pair joining a
// and b, or -1 when they are not adjacent.
func (ra *RingAPS) spanBetween(a, b int) int {
	switch {
	case (a+1)%ra.N == b:
		return a
	case (b+1)%ra.N == a:
		return b
	}
	return -1
}

func (ra *RingAPS) markFailed(span int, now int64) {
	if span >= 0 {
		ra.failed[span] = now + ra.KTTL
	}
}

func (ra *RingAPS) clearFailed(span int) {
	delete(ra.failed, span)
}

// FailedSpans returns the east-span indexes currently known failed.
func (ra *RingAPS) FailedSpans(now int64) []int {
	var out []int
	for sp, until := range ra.failed {
		if until > now {
			out = append(out, sp)
		}
	}
	return out
}

// Reachable reports whether nodes a and b are still connected by
// surviving spans (either way around the ring). Wrap-time squelching
// keys on this: an unreachable endpoint means the circuit must carry
// AIS, never somebody else's wrapped traffic.
func (ra *RingAPS) Reachable(a, b int, now int64) bool {
	bad := func(span int) bool {
		until, ok := ra.failed[span]
		return ok && until > now
	}
	for i, steps := a, 0; steps < ra.N; steps++ { // east walk
		if i == b {
			return true
		}
		if bad(i) {
			break
		}
		i = (i + 1) % ra.N
	}
	for i, steps := a, 0; steps < ra.N; steps++ { // west walk
		if i == b {
			return true
		}
		if bad((i - 1 + ra.N) % ra.N) {
			break
		}
		i = (i - 1 + ra.N) % ra.N
	}
	return false
}

// setWrap flips a wrap state.
func (ra *RingAPS) setWrap(rot Rotation, on bool, now int64) {
	if ra.wrapped[rot] == on {
		return
	}
	ra.wrapped[rot] = on
	if on {
		ra.Wraps++
	}
	if ra.OnWrap != nil {
		ra.OnWrap(now, rot, on)
	}
}

// ReceiveK processes one K1/K2 pair observed on the incoming span of a
// rotation. Call every tick with the deframer's current accepted pair
// (K bytes are a continuous signal; absence lets held state age out).
func (ra *RingAPS) ReceiveK(rot Rotation, k1, k2 byte, now int64) {
	req, dest := aps.ParseK1(k1)
	src := int(k2 >> 4)
	sustains := req == aps.ReqSignalFail || req == aps.ReqSignalDegrade ||
		req == aps.ReqForcedSwitch || req == aps.ReqLockout || req == aps.ReqWaitToRestore
	if dest != ra.Node {
		// A long-path request in transit: relay it on the same rotation
		// and learn the failed span it reports.
		ra.relay[rot] = relayState{k1: k1, k2: k2, until: now + ra.KTTL}
		if sp := ra.spanBetween(src, dest); sp >= 0 {
			if sustains {
				ra.markFailed(sp, now)
			} else if req == aps.ReqNoRequest {
				ra.clearFailed(sp)
			}
		}
		return
	}
	// Addressed to us: only requests from an adjacent node matter — the
	// far end of one of our own spans reporting it dead or recovered.
	sp := ra.spanBetween(src, ra.Node)
	if sp < 0 {
		return
	}
	var wr Rotation // rotation of our outgoing span on the failed fibre
	if src == (ra.Node+1)%ra.N {
		wr = East
	} else {
		wr = West
	}
	if sustains {
		ra.setWrap(wr, true, now)
		ra.farUntil[wr] = now + ra.KTTL
		ra.markFailed(sp, now)
		return
	}
	if req == aps.ReqNoRequest {
		if ra.farUntil[wr] != 0 {
			ra.farUntil[wr] = now // expires on the next Advance
		}
		ra.clearFailed(sp)
	}
}

// Advance runs one tick of the state machine given the local incoming
// span defect states.
func (ra *RingAPS) Advance(now int64, sfEast, sfWest bool) {
	ra.now = now
	sf := [2]bool{sfEast, sfWest}
	for r := East; r <= West; r++ {
		wr := r.Opp() // incoming-r failure kills our outgoing opp(r) span
		switch {
		case sf[r]:
			ra.localSF[r] = true
			ra.wtrUntil[r] = 0
			ra.markFailed(ra.inSpan(r), now)
			ra.setWrap(wr, true, now)
		case ra.localSF[r]:
			// Cleared: hold the switch through wait-to-restore, then
			// revert.
			if ra.wtrUntil[r] == 0 {
				ra.wtrUntil[r] = now + ra.WTR
			}
			if now >= ra.wtrUntil[r] {
				ra.localSF[r] = false
				ra.wtrUntil[r] = 0
			} else {
				ra.markFailed(ra.inSpan(r), now)
			}
		}
		if ra.wrapped[wr] && !ra.localSF[r] &&
			(ra.farUntil[wr] == 0 || now >= ra.farUntil[wr]) {
			ra.setWrap(wr, false, now)
			ra.farUntil[wr] = 0
		}
	}
	for sp, until := range ra.failed {
		if now >= until {
			delete(ra.failed, sp)
		}
	}
}

// TxK returns the K1/K2 pair to transmit on the outgoing span of a
// rotation this tick: the node's own long-path request first, then its
// short-path request (into the dead fibre, best effort), then any
// unexpired relayed request, else idle.
func (ra *RingAPS) TxK(rot Rotation) (k1, k2 byte) {
	now := ra.now
	if ra.localSF[rot] || ra.wtrUntil[rot] > 0 {
		// Our incoming span on rot is dead (or in WTR): the long path to
		// its far end leaves on this same rotation.
		return ra.reqK(rot, true)
	}
	if o := rot.Opp(); ra.localSF[o] || ra.wtrUntil[o] > 0 {
		// Short-path copy straight at the far end over the dead fibre.
		return ra.reqK(o, false)
	}
	if ra.relay[rot].until > now {
		return ra.relay[rot].k1, ra.relay[rot].k2
	}
	k1 = aps.K1(aps.ReqNoRequest, ra.nextNode(rot))
	k2 = byte(ra.Node&0x0F) << 4
	return k1, k2
}

// reqK builds this node's own request toward the far end of the
// failed incoming span on rot.
func (ra *RingAPS) reqK(rot Rotation, long bool) (k1, k2 byte) {
	req := aps.ReqSignalFail
	if !ra.sfNow(rot) {
		req = aps.ReqWaitToRestore
	}
	k1 = aps.K1(req, ra.farNode(rot))
	k2 = byte(ra.Node&0x0F) << 4
	if long {
		k2 |= k2LongPath
	}
	k2 |= k2BridgedSwitched
	return k1, k2
}

// sfNow reports whether the incoming-rot failure is still present (as
// opposed to held only by WTR).
func (ra *RingAPS) sfNow(rot Rotation) bool {
	return ra.localSF[rot] && ra.wtrUntil[rot] == 0
}

// String renders the machine state for traces.
func (ra *RingAPS) String() string {
	return fmt.Sprintf("node %d wrapped[e=%v w=%v] sf[e=%v w=%v]",
		ra.Node, ra.wrapped[East], ra.wrapped[West], ra.localSF[East], ra.localSF[West])
}
