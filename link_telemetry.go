package gigapos

import (
	"repro/internal/flight"
	"repro/internal/lcp"
	"repro/internal/telemetry"
)

// Observe arms a component's observability at construction: it is the
// package's one arming surface. LinkConfig.Observe arms a Link,
// RingLink or ProtectedLink; EngineConfig.Observe arms an Engine. Every
// field is optional, and a nil bundle leaves the component unarmed: its
// hot path then pays only nil checks. Each constructor wires its own
// extras once (protection-switch hooks, APS and deframer probes,
// capture correlation, transport series), so there is no ordering rule.
type Observe struct {
	// Registry receives the exported series; nil exports none.
	Registry *telemetry.Registry
	// Tracer receives structured events (state transitions, supervisor
	// actions, echo timeouts); nil emits none.
	Tracer *telemetry.Tracer
	// Name labels the component's own series: link=Name on a Link (a
	// ProtectedLink adds aps_* and Name_working / Name_protect), and
	// engine=Name on an Engine. A Link with no Name exports no protocol
	// series and emits no events.
	Name string

	// Flight, when non-nil, arms the flight recorder, named FlightName
	// on a Link (its flight_* series carry link=FlightName, and so do
	// its capture file names). An Engine arms every endpoint, named
	// port<i>_a / port<i>_z, and collects them on its Board.
	Flight     *flight.Config
	FlightName string
	// SLO, when non-nil alongside Flight, attaches an SLO evaluator to
	// the receive direction, named SLOName on a Link. An Engine ignores
	// it: it puts one with default objectives, named port<i>, on the z
	// side of every loopback port.
	SLO     *flight.SLOConfig
	SLOName string
	// Peer is the Link at the other end of the line. When both ends
	// carry a recorder, each side's deliveries complete the other's
	// departure pipe: the end-to-end latency span. Name it on the
	// second link of a pair.
	Peer *Link
}

// arm arms the link per o; NewLink calls it last, once the
// optional machinery (VJ, LQM, supervisor) the probes read exists.
func (l *Link) arm(o *Observe) {
	if o == nil {
		return
	}
	if o.Registry != nil && o.Name != "" {
		l.instrument(o.Registry, o.Tracer, o.Name)
	}
	if o.Flight != nil {
		l.armFlight(o)
	}
}

// trace emits a structured event on the link's tracer (no-op while
// uninstrumented) and mirrors it into the flight recorder's black-box
// ring when one is armed, so captures carry the protocol history that
// led up to the trigger.
func (l *Link) trace(name, detail string, v1, v2 int64) {
	if l.fl != nil {
		l.fl.rec.Event(l.now, name, detail, v1, v2)
	}
	if l.tracer != nil {
		l.tracer.Emit(l.now, l.traceScope, name, detail, v1, v2)
	}
}

// instrument exports the link's protocol counters to reg — every
// series labelled {link=name} — and emits structured events (LCP/IPCP
// state transitions, supervisor actions, echo timeouts) to tr, which
// may be nil to disable tracing.
func (l *Link) instrument(reg *telemetry.Registry, tr *telemetry.Tracer, name string) {
	lbl := telemetry.L("link", name)
	type tap struct {
		c    *telemetry.Counter
		read func() uint64
	}
	taps := []tap{
		{reg.Counter("link_rx_frames_total", "HDLC frames accepted by the endpoint.", lbl),
			func() uint64 { return l.RxFrames }},
		{reg.Counter("link_rx_errors_total", "Damaged or undecodable frames (FCS failures included).", lbl),
			func() uint64 { return l.RxErrors }},
		{reg.Counter("link_protocol_rejects_total", "Protocol-Reject packets sent.", lbl),
			func() uint64 { return l.ProtocolRejects }},
		{reg.Counter("link_echo_timeouts_total", "Dead-peer teardowns from unanswered echoes.", lbl),
			func() uint64 { return l.EchoTimeouts }},
		{reg.Counter("link_auth_failures_total", "Authentication phase failures.", lbl),
			func() uint64 { return l.AuthFailures }},
		{reg.Counter("link_lcp_tx_packets_total", "LCP control packets sent.", lbl),
			func() uint64 { return l.lcpA.TxPackets }},
		{reg.Counter("link_lcp_rx_packets_total", "LCP control packets received.", lbl),
			func() uint64 { return l.lcpA.RxPackets }},
		{reg.Counter("link_lcp_timeouts_total", "LCP restart-timer expiries.", lbl),
			func() uint64 { return l.lcpA.Timeouts }},
	}
	gauges := []struct {
		g    *telemetry.Gauge
		read func() int64
	}{
		{reg.Gauge("link_lcp_state", "LCP automaton state (RFC 1661 ordinal).", lbl),
			func() int64 { return int64(l.lcpA.State()) }},
		{reg.Gauge("link_ipcp_state", "IPCP automaton state (RFC 1661 ordinal).", lbl),
			func() int64 { return int64(l.ipcpA.State()) }},
	}
	if l.vjTx != nil {
		taps = append(taps,
			tap{reg.Counter("link_vj_out_ip_total", "Datagrams sent uncompressible (TYPE_IP).", lbl),
				func() uint64 { return l.vjTx.OutIP }},
			tap{reg.Counter("link_vj_out_uncompressed_total", "Datagrams sent as VJ UNCOMPRESSED_TCP.", lbl),
				func() uint64 { return l.vjTx.OutUncompressed }},
			tap{reg.Counter("link_vj_out_compressed_total", "Datagrams sent as VJ COMPRESSED_TCP (hits).", lbl),
				func() uint64 { return l.vjTx.OutCompressed }},
			tap{reg.Counter("link_vj_saved_octets_total", "Header octets elided by VJ compression.", lbl),
				func() uint64 { return l.vjTx.SavedOctets }})
	}
	if l.monitor != nil {
		taps = append(taps,
			tap{reg.Counter("link_lqm_reports_out_total", "Link-Quality-Reports emitted.", lbl),
				func() uint64 { return uint64(l.monitor.OutLQRs) }},
			tap{reg.Counter("link_lqm_reports_in_total", "Link-Quality-Reports received.", lbl),
				func() uint64 { return uint64(l.monitor.InLQRs) }},
			tap{reg.Counter("link_lqm_rtt_samples_total", "Completed report round-trip measurements.", lbl),
				func() uint64 { return l.monitor.RTTSamples }})
		gauges = append(gauges,
			struct {
				g    *telemetry.Gauge
				read func() int64
			}{reg.Gauge("link_lqm_rtt", "Last report round-trip (virtual time units).", lbl),
				func() int64 { return l.monitor.LastRTT }},
			struct {
				g    *telemetry.Gauge
				read func() int64
			}{reg.Gauge("link_lqm_quality", "Quality verdict: 0 unknown, 1 good, 2 bad.", lbl),
				func() int64 { return int64(l.monitor.Quality()) }})
	}
	if l.sup != nil {
		taps = append(taps,
			tap{reg.Counter("link_supervisor_restarts_total", "Supervised re-open attempts.", lbl),
				func() uint64 { return l.sup.Restarts }},
			tap{reg.Counter("link_supervisor_recoveries_total", "Returns to Opened after an outage.", lbl),
				func() uint64 { return l.sup.Recoveries }},
			tap{reg.Counter("link_supervisor_defect_outages_total", "Service-affecting defect windows.", lbl),
				func() uint64 { return l.sup.DefectOutages }},
			tap{reg.Counter("link_supervisor_lqm_restarts_total", "Restarts from Bad quality verdicts.", lbl),
				func() uint64 { return l.sup.LQMRestarts }})
	}

	l.tracer, l.traceScope = tr, "link:"+name
	l.telSync = func() {
		for _, t := range taps {
			t.c.Set(t.read())
		}
		for _, g := range gauges {
			g.g.Set(g.read())
		}
	}

	lcpTrans := reg.Counter("link_lcp_transitions_total", "LCP automaton state transitions.", lbl)
	l.lcpA.OnTransition = func(from, to lcp.State) {
		lcpTrans.Inc()
		l.trace("lcp-transition", from.String()+"->"+to.String(), int64(from), int64(to))
	}
	ipcpTrans := reg.Counter("link_ipcp_transitions_total", "IPCP automaton state transitions.", lbl)
	l.ipcpA.OnTransition = func(from, to lcp.State) {
		ipcpTrans.Inc()
		l.trace("ipcp-transition", from.String()+"->"+to.String(), int64(from), int64(to))
	}
	l.telSync()
}
