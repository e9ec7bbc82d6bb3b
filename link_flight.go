package gigapos

import "repro/internal/flight"

// This file arms a Link with the flight recorder (internal/flight):
// per-frame latency stamping on the transmit and receive fast paths,
// the black-box wire/event rings, capture triggers (supervisor
// restart, defect escalation, APS switch, FCS-error burst), and the
// per-link SLO evaluator. Everything here follows the fast-path rules
// of DESIGN.md §8: the armed steady state allocates nothing, and the
// transmit side pays only a pipe-ring store plus one atomic add per
// datagram.

// Default FCS-error burst trigger: eight damaged frames inside 128
// ticks dumps the black box once per burst.
const (
	flightBurstWindow    = 128
	flightBurstThreshold = 8
)

// flightState is a Link's armed recorder plus the trigger and SLO
// plumbing around it.
type flightState struct {
	rec *flight.Recorder
	// peer is the recorder of the link whose transmissions we receive;
	// deliveries here complete that pipe. Set by Observe.Peer.
	peer *flight.Recorder
	slo  *flight.SLO

	burst    flight.BurstDetector
	failover int64 // last protection-switch duration in ticks
}

// armFlight builds the link's recorder from o.Flight, its SLO
// evaluator when o.SLO is set, and the pairing with o.Peer. The
// recorder's register dump gains the link's protocol state.
func (l *Link) armFlight(o *Observe) {
	fl := &flightState{
		rec:   flight.NewRecorder(o.Registry, o.FlightName, *o.Flight),
		burst: flight.BurstDetector{Window: flightBurstWindow, Threshold: flightBurstThreshold},
	}
	l.fl = fl
	fl.rec.RegDump = func(dst []flight.RegSample) []flight.RegSample {
		dst = append(dst,
			flight.RegSample{Name: "rx_frames", Value: l.RxFrames},
			flight.RegSample{Name: "rx_errors", Value: l.RxErrors},
			flight.RegSample{Name: "lcp_state", Value: uint64(l.lcpA.State())},
			flight.RegSample{Name: "ipcp_state", Value: uint64(l.ipcpA.State())})
		if l.sup != nil {
			dst = append(dst,
				flight.RegSample{Name: "supervisor_restarts", Value: l.sup.Restarts},
				flight.RegSample{Name: "supervisor_outages", Value: l.sup.DefectOutages})
		}
		return dst
	}
	if p := o.Peer; p != nil && p.fl != nil {
		fl.peer, p.fl.peer = p.fl.rec, fl.rec
	}
	if o.SLO != nil {
		l.armSLO(o)
	}
}

// Flight returns the link's recorder (nil when unarmed).
func (l *Link) Flight() *flight.Recorder {
	if l.fl == nil {
		return nil
	}
	return l.fl.rec
}

// SLO returns the link's SLO evaluator (nil when none is armed).
func (l *Link) SLO() *flight.SLO {
	if l.fl == nil {
		return nil
	}
	return l.fl.slo
}

// armSLO attaches the SLO evaluator o names to an armed link. The
// objectives read the receive direction: frames the peer tagged for
// us, losses the matcher declared, the end-to-end p99 into this link,
// and the most recent protection-switch duration. Sampled on every
// Advance.
func (l *Link) armSLO(o *Observe) {
	fl := l.fl
	s := flight.NewSLO(o.Registry, o.SLOName, *o.SLO, flight.Sources{
		Frames: func() uint64 {
			if fl.peer != nil {
				return fl.peer.Tracked()
			}
			return 0
		},
		Errors: func() uint64 {
			// Damaged tracked frames surface as matcher losses too (the
			// departure never matches), so the lost counter alone covers
			// both drop and corruption without double counting.
			if fl.peer != nil {
				return fl.peer.Lost()
			}
			return 0
		},
		P99: func() int64 {
			if fl.peer != nil {
				return fl.peer.P99()
			}
			return 0
		},
		Failover: func() int64 { return fl.failover },
	})
	fl.slo = s
	s.OnAlarm = func(objective string) {
		l.trace("slo-alarm", objective, s.WorstBurnMilli(), 0)
	}
}

// noteSwitch records one protection switch on an armed link: the
// outage it healed becomes the SLO's failover sample, and the switch
// is traced and dumps the black box under reason. RingLink and
// ProtectedLink hook their selectors to it at construction.
func (l *Link) noteSwitch(reason, detail string, to, ticks int64) {
	if l.fl == nil {
		return
	}
	l.fl.failover = ticks
	l.trace(reason, detail, to, ticks)
	l.fl.rec.Trigger(reason)
}

// serviceFlight runs once per Advance: expire overdue departures,
// advance the recorder clock, re-evaluate the SLO.
func (l *Link) serviceFlight(now int64) {
	fl := l.fl
	fl.rec.SetNow(now)
	fl.rec.Expire(now)
	if fl.slo != nil {
		fl.slo.Sample(now)
	}
}

// flightNoteError feeds the FCS-burst detector; crossing the threshold
// dumps the black box once per burst.
func (l *Link) flightNoteError() {
	fl := l.fl
	if fl == nil {
		return
	}
	if fl.burst.Note(l.now) {
		l.trace("fcs-burst", "", int64(fl.burst.Threshold), fl.burst.Window)
		fl.rec.Trigger("fcs-burst")
	}
}

// flightArrive completes the peer's departure pipe for one delivered
// datagram (no-op while unarmed or unjoined).
func (l *Link) flightArrive() {
	if fl := l.fl; fl != nil && fl.peer != nil {
		fl.peer.Arrive(l.now)
	}
}

// flightTrigger dumps the black box for a named trigger (no-op while
// unarmed).
func (l *Link) flightTrigger(reason string) {
	if l.fl != nil {
		l.fl.rec.Trigger(reason)
	}
}
