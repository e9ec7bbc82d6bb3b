package gigapos

import "repro/internal/topo"

// RingLink is the ring-aware endpoint: a full PPP Link whose line
// octets ride a circuit on a topo.Ring instead of a dedicated fibre
// pair. The ring layer supplies protection (the UPSR path selector or
// a BLSR ring switch); the RingLink bridges its outcomes into the
// link-layer machinery — a selector movement records a failover for
// the SLO evaluator and dumps the flight recorder, and a squelched
// circuit (both paths dead) escalates to the supervisor exactly like
// a dual line failure on a ProtectedLink.
//
// Drive pattern, once per tick, after Ring.Tick:
//
//	ring.Tick(now)
//	rl.Advance(now) // protocol timers, then port exchange
type RingLink struct {
	*Link
	Port *topo.Port

	rxBuf []byte
}

// ringRestartPeriod is the default LCP/IPCP restart timer for ring
// endpoints. A circuit crosses pass-through nodes store-and-forward,
// so the control round trip is several ticks — far beyond the RFC
// default of 3 — and the timer must outlast it or negotiation
// livelocks retiring every ID before its Ack returns.
const ringRestartPeriod = 64

// NewRingLink builds a link over a ring circuit endpoint, armed per
// cfg.Observe. Every selector movement records the outage it healed
// as the SLO failover duration and dumps the black box (no-ops while
// unarmed).
func NewRingLink(cfg LinkConfig, port *topo.Port) *RingLink {
	if cfg.RestartPeriod == 0 {
		cfg.RestartPeriod = ringRestartPeriod
	}
	rl := &RingLink{Link: NewLink(cfg), Port: port}
	prev := port.OnDown
	port.OnDown = func(now int64, down bool) {
		if prev != nil {
			prev(now, down)
		}
		if down {
			rl.Link.trace("ring-squelch", rl.Port.Circ.Name, 1, now)
			rl.Link.NotifyDefects(AlarmServiceAffecting)
		} else {
			rl.Link.trace("ring-squelch", rl.Port.Circ.Name, 0, now)
			rl.Link.NotifyDefects(0)
		}
	}
	prevSwitch := port.OnSwitch
	port.OnSwitch = func(now int64, from, to topo.Rotation, outage int64) {
		if prevSwitch != nil {
			prevSwitch(now, from, to, outage)
		}
		rl.Link.noteSwitch("ring-switch", to.String(), int64(to), outage)
	}
	return rl
}

// Advance runs the link's protocol timers, then exchanges line octets
// with the ring port: transmit output into the add queue, drain the
// selected drop stream into the receiver.
func (rl *RingLink) Advance(now int64) {
	rl.Link.Advance(now)
	if out := rl.Link.Output(); len(out) > 0 {
		rl.Port.Send(out)
	}
	rl.rxBuf = rl.Port.Recv(rl.rxBuf[:0])
	if len(rl.rxBuf) > 0 {
		rl.Link.Input(rl.rxBuf)
	}
}
