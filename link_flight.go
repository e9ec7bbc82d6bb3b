package gigapos

import (
	"fmt"

	"repro/internal/aps"
	"repro/internal/flight"
	"repro/internal/telemetry"
)

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
	// deliveries here complete that pipe. Set by JoinFlight.
	peer *flight.Recorder
	slo  *flight.SLO

	burst    flight.BurstDetector
	failover int64 // last protection-switch duration in ticks
}

// ArmFlight attaches a flight recorder to the link. Arm before
// traffic, from the owning goroutine; pair both ends with JoinFlight
// so end-to-end latency resolves. The recorder's register dump gains
// the link's protocol state.
func (l *Link) ArmFlight(rec *flight.Recorder) {
	l.fl = &flightState{
		rec:   rec,
		burst: flight.BurstDetector{Window: flightBurstWindow, Threshold: flightBurstThreshold},
	}
	prev := rec.RegDump
	rec.RegDump = func(dst []flight.RegSample) []flight.RegSample {
		if prev != nil {
			dst = prev(dst)
		}
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
}

// Flight returns the link's armed recorder (nil when unarmed).
func (l *Link) Flight() *flight.Recorder {
	if l.fl == nil {
		return nil
	}
	return l.fl.rec
}

// JoinFlight pairs two armed links so each side's deliveries complete
// the other side's departure pipe — the end-to-end latency span.
func JoinFlight(a, z *Link) {
	if a.fl == nil || z.fl == nil {
		return
	}
	a.fl.peer = z.fl.rec
	z.fl.peer = a.fl.rec
}

// FlightSLO attaches an SLO evaluator to an armed link, registered in
// reg under name. The objectives read the receive direction: frames
// the peer tagged for us, losses the matcher declared, the end-to-end
// p99 into this link, and the most recent protection-switch duration.
// Sampled on every Advance.
func (l *Link) FlightSLO(reg *telemetry.Registry, name string, cfg flight.SLOConfig) *flight.SLO {
	if l.fl == nil {
		return nil
	}
	fl := l.fl
	s := flight.NewSLO(reg, name, cfg, flight.Sources{
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
	return s
}

// FlightSetFailover records a protection-switch duration for the SLO's
// failover objective (ProtectedLink.ArmFlight wires this to the APS
// controller).
func (l *Link) FlightSetFailover(ticks int64) {
	if l.fl != nil {
		l.fl.failover = ticks
	}
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

// ArmFlight arms the underlying link and additionally dumps the black
// box on every APS selector movement, recording the switch duration
// for the SLO's failover objective.
func (pl *ProtectedLink) ArmFlight(rec *flight.Recorder) {
	pl.Link.ArmFlight(rec)
	prev := pl.Ctrl.OnSwitch
	pl.Ctrl.OnSwitch = func(e aps.SwitchEvent) {
		if prev != nil {
			prev(e)
		}
		pl.Link.FlightSetFailover(e.Duration)
		pl.Link.trace("aps-switch", e.Trigger.String(), int64(e.To), e.Duration)
		pl.Link.flightTrigger("aps-switch")
	}
}

// ArmFlight arms every port with recorders and SLO evaluators (series
// labelled portN_a / portN_z) and returns the /slo board aggregating
// them. Call before Run; captures and exemplars may be inspected
// between Runs. On a loopback engine both ends arm and the SLO on each
// pair's z side covers the a→z direction; a remote-role engine (z nil)
// arms its single local end, and when that end's transport carries a
// freeze side channel the recorder is also joined to it for
// cross-process capture correlation (TransportPort.ArmCorrelation).
func (e *Engine) ArmFlight(reg *telemetry.Registry, cfg flight.Config) *flight.Board {
	board := flight.NewBoard()
	i := 0
	for _, s := range e.shards {
		for _, p := range s.ports {
			ra := flight.NewRecorder(reg, fmt.Sprintf("port%d_a", i), cfg)
			p.a.ArmFlight(ra)
			board.Attach(ra)
			if p.tpa != nil {
				p.tpa.ArmCorrelation(ra)
			}
			if p.z != nil {
				rz := flight.NewRecorder(reg, fmt.Sprintf("port%d_z", i), cfg)
				p.z.ArmFlight(rz)
				JoinFlight(p.a, p.z)
				board.Attach(rz)
				if p.tpz != nil {
					p.tpz.ArmCorrelation(rz)
				}
				if slo := p.z.FlightSLO(reg, fmt.Sprintf("port%d", i), flight.SLOConfig{}); slo != nil {
					board.AttachSLO(slo)
				}
			}
			i++
		}
	}
	return board
}
