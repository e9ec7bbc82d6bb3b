package scenario

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	gigapos "repro"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// RunConfig parameterises one execution of a scenario.
type RunConfig struct {
	// CaptureDir receives .p5fr flight captures ("" keeps captures in
	// memory only — failure reports then cannot point at files).
	CaptureDir string
}

// Result is the graded outcome of a run.
type Result struct {
	Scenario     string
	Pass         bool
	Failures     []Failure
	Circuits     []CircuitReport
	BringUpTicks int64
	Resyncs      uint64 // span alignment reacquisitions after traffic start
	// CapturePaths lists every .p5fr written during the run (failure
	// triggers and protection-switch dumps alike), oldest first.
	CapturePaths []string
	Board        flight.BoardJSON
}

// Failure is one violated assertion.
type Failure struct {
	Circuit string // "" for global assertions
	Msg     string
}

// CircuitReport is the measured behaviour of one circuit.
type CircuitReport struct {
	Name                 string
	Sent, Received       int
	Corrupted, Lost      int
	SwitchesA, SwitchesB uint64
	FailoverA, FailoverB int64 // outage healed by the last switch, per end
	RenegA, RenegB       int   // LCP Opened→down edges after bring-up
	DownA, DownB         bool  // squelched at end of run
	AlarmA, AlarmB       bool  // SLO alarm state at end of run
}

// Summary renders a one-line digest for logs.
func (c CircuitReport) Summary() string {
	return fmt.Sprintf("%s: sent=%d recv=%d corrupt=%d lost=%d switches=%d/%d failover=%d/%d reneg=%d/%d down=%v/%v alarm=%v/%v",
		c.Name, c.Sent, c.Received, c.Corrupted, c.Lost,
		c.SwitchesA, c.SwitchesB, c.FailoverA, c.FailoverB,
		c.RenegA, c.RenegB, c.DownA, c.DownB, c.AlarmA, c.AlarmB)
}

// dist decodes the traffic mix specification.
func (t TrafficSpec) dist() (netsim.SizeDist, string, error) {
	mix := t.Mix
	if mix == "" {
		mix = "imix"
	}
	switch {
	case mix == "imix":
		return netsim.IMIX{}, mix, nil
	case strings.HasPrefix(mix, "fixed:"):
		n, err := strconv.Atoi(mix[len("fixed:"):])
		if err != nil || n < 12 {
			return nil, mix, fmt.Errorf("scenario: bad traffic mix %q (want fixed:N, N ≥ 12)", mix)
		}
		return netsim.Fixed(n), mix, nil
	case strings.HasPrefix(mix, "uniform:"):
		parts := strings.Split(mix[len("uniform:"):], ":")
		if len(parts) == 2 {
			lo, err1 := strconv.Atoi(parts[0])
			hi, err2 := strconv.Atoi(parts[1])
			if err1 == nil && err2 == nil && lo >= 12 && hi >= lo {
				return netsim.Uniform{Min: lo, Max: hi}, mix, nil
			}
		}
		return nil, mix, fmt.Errorf("scenario: bad traffic mix %q (want uniform:MIN:MAX)", mix)
	}
	return nil, mix, fmt.Errorf("scenario: unknown traffic mix %q", mix)
}

// endpoint is one side of a circuit under test.
type endpoint struct {
	link *gigapos.RingLink
	rec  *flight.Recorder
	slo  *flight.SLO

	wasOpen bool
	reneg   int

	// Verification state for the traffic arriving here.
	expect  map[uint32][]byte // seq -> expected payload
	seq     uint32            // next seq this end will send
	recv    int
	corrupt int
	sent    int
}

// circuitRun is a circuit plus its two endpoints (a at spec.A, b at
// spec.B).
type circuitRun struct {
	spec CircuitSpec
	a, b *endpoint
}

// Run builds the scenario's ring, brings the links up, injects the
// scripted faults under load, and grades the assertions. The error
// return covers only structural problems (bad document, bring-up
// timeout is a Failure, not an error).
func (s *Scenario) Run(rc RunConfig) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	mode, _ := s.Ring.mode()
	ring, err := topo.NewRing(topo.Config{
		Nodes:        s.Ring.Nodes,
		Slots:        s.Ring.Slots,
		Mode:         mode,
		Delay:        s.Ring.Delay,
		Jitter:       s.Ring.Jitter,
		ReorderEvery: s.Ring.ReorderEvery,
		Seed:         s.Ring.Seed,
		WTR:          s.Ring.WTR,
		AISThreshold: s.Ring.AISThreshold,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Scenario: s.Name}
	reg := telemetry.NewRegistry()
	board := flight.NewBoard()
	sloCfg := flight.SLOConfig{
		Window:              s.SLO.Window,
		FrameLossTarget:     s.SLO.FrameLossTarget,
		P99BudgetTicks:      s.SLO.P99BudgetTicks,
		FailoverBudgetTicks: s.SLO.FailoverBudgetTicks,
		AlarmBurn:           s.SLO.AlarmBurn,
	}
	notePath := func(c *flight.Capture) {
		if c.Path != "" {
			res.CapturePaths = append(res.CapturePaths, c.Path)
		}
	}

	var runs []*circuitRun
	for i, cs := range s.Circuits {
		pa, pb, err := ring.AddCircuit(topo.Circuit{Name: cs.Name, A: cs.A, B: cs.B, Slot: cs.Slot})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		mk := func(port *topo.Port, sub string, magic uint32, ip byte) *endpoint {
			cfg := gigapos.LinkConfig{
				Magic:         magic,
				IPAddr:        [4]byte{10, byte(i), 0, ip},
				Supervise:     s.Links.Supervise,
				RestartPeriod: s.Links.RestartPeriod,
			}
			ep := &endpoint{
				link:   gigapos.NewRingLink(cfg, port),
				expect: make(map[uint32][]byte),
			}
			ep.rec = flight.NewRecorder(reg, cs.Name+"_"+sub, flight.Config{Dir: rc.CaptureDir})
			ep.rec.OnCapture = notePath
			ep.link.ArmFlight(ep.rec)
			board.Attach(ep.rec)
			return ep
		}
		cr := &circuitRun{
			spec: cs,
			a:    mk(pa, "a", 0xA0000000+uint32(i)*2, 1),
			b:    mk(pb, "b", 0xB0000000+uint32(i)*2, 2),
		}
		gigapos.JoinFlight(cr.a.link.Link, cr.b.link.Link)
		cr.a.slo = cr.a.link.FlightSLO(reg, cs.Name+"_a", sloCfg)
		cr.b.slo = cr.b.link.FlightSLO(reg, cs.Name+"_b", sloCfg)
		board.AttachSLO(cr.a.slo)
		board.AttachSLO(cr.b.slo)
		runs = append(runs, cr)
	}

	// Bring-up: every link must reach the network phase on the clean
	// ring before the chaos starts.
	budget := s.BringUpBudget
	if budget == 0 {
		budget = 4000
	}
	for _, cr := range runs {
		for _, ep := range []*endpoint{cr.a, cr.b} {
			ep.link.Open()
			ep.link.Up()
		}
	}
	now := int64(0)
	ready := false
	for ; now < budget; now++ {
		ring.Tick(now)
		ready = true
		for _, cr := range runs {
			cr.a.link.Advance(now)
			cr.b.link.Advance(now)
			ready = ready && cr.a.link.IPReady() && cr.b.link.IPReady()
		}
		if ready {
			now++
			break
		}
	}
	if !ready {
		res.Failures = append(res.Failures, Failure{Msg: fmt.Sprintf("bring-up: links not IP-ready within %d ticks", budget)})
		s.failCaptures(res, runs)
		res.Board = board.Snapshot()
		return res, nil
	}
	t0 := now
	res.BringUpTicks = t0
	for _, cr := range runs {
		cr.a.wasOpen, cr.b.wasOpen = true, true
	}

	// Compile span impairments into per-span fault scripts anchored at
	// traffic start (the injector position starts at zero when the
	// script is installed, and every span moves one frame per tick).
	fb := int64(ring.Cfg.Level.FrameBytes())
	scripts := map[*topo.Span]*fault.Script{}
	spanScript := func(sp *topo.Span) *fault.Script {
		if scripts[sp] == nil {
			scripts[sp] = &fault.Script{}
		}
		return scripts[sp]
	}
	var actions []Event // node-fail / node-restore, fired at runtime
	for _, e := range s.Events {
		ticks := e.Ticks
		if ticks == 0 {
			ticks = s.Duration - e.At
		}
		switch e.Action {
		case "cut", "noise":
			uv, vu, err := ring.SpansBetween(e.Between[0], e.Between[1])
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
			}
			for si, sp := range []*topo.Span{uv, vu} {
				sc := spanScript(sp)
				if e.Action == "cut" {
					sc.LOS(e.At*fb, int(ticks*fb))
				} else {
					sc.Noise(e.At*fb, int(ticks*fb), e.Rate, e.Seed+uint64(si)+1)
				}
			}
		default:
			actions = append(actions, e)
		}
	}
	for sp, sc := range scripts {
		sort.SliceStable(sc.Ops, func(i, j int) bool { return sc.Ops[i].At < sc.Ops[j].At })
		sp.SetScript(sc)
	}
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })

	resyncBase := sumResyncs(ring)

	// Traffic: a deterministic size mix, both directions of every
	// circuit, payloads sequence-stamped so corruption and loss are
	// separable on receipt.
	dist, _, err := s.Traffic.dist()
	if err != nil {
		return nil, err
	}
	interval := s.Traffic.Interval
	if interval == 0 {
		interval = 2
	}
	drain := s.Traffic.Drain
	if drain == 0 {
		drain = 100
	}
	if drain >= s.Duration {
		drain = s.Duration / 2
	}
	seed := s.Traffic.Seed
	if seed == 0 {
		seed = 1
	}
	sizes := netsim.NewRand(seed)

	nextAction := 0
	var rxScratch []gigapos.Datagram
	for t := int64(0); t < s.Duration; t++ {
		now = t0 + t
		for nextAction < len(actions) && actions[nextAction].At == t {
			e := actions[nextAction]
			nextAction++
			switch e.Action {
			case "node-fail":
				ring.Node(e.Node).Failed = true
			case "node-restore":
				ring.Node(e.Node).Failed = false
			}
		}
		ring.Tick(now)
		for ci, cr := range runs {
			for di, ep := range []*endpoint{cr.a, cr.b} {
				ep.link.Advance(now)
				if open := ep.link.Opened(); ep.wasOpen && !open {
					ep.reneg++
					ep.wasOpen = false
				} else if open {
					ep.wasOpen = true
				}
				// Send toward the peer; the peer's endpoint verifies.
				if t < s.Duration-drain && t%interval == int64((ci+di))%interval {
					peer := cr.b
					if di == 1 {
						peer = cr.a
					}
					d := mkDatagram(byte(ci), byte(di), ep.seq, dist.Next(sizes))
					if err := ep.link.SendIPv4(d); err == nil {
						peer.expect[ep.seq] = d
						ep.seq++
						ep.sent++
					}
				}
				rxScratch = ep.link.ReceivedInto(rxScratch[:0])
				for _, d := range rxScratch {
					ep.verify(d.Payload)
				}
			}
		}
	}

	// Grade the run.
	for _, cr := range runs {
		rep := CircuitReport{
			Name:      cr.spec.Name,
			Sent:      cr.a.sent + cr.b.sent,
			Received:  cr.a.recv + cr.b.recv,
			Corrupted: cr.a.corrupt + cr.b.corrupt,
			Lost:      len(cr.a.expect) + len(cr.b.expect),
			SwitchesA: cr.a.link.Port.Switches,
			SwitchesB: cr.b.link.Port.Switches,
			FailoverA: cr.a.link.Port.LastFailover,
			FailoverB: cr.b.link.Port.LastFailover,
			RenegA:    cr.a.reneg,
			RenegB:    cr.b.reneg,
			DownA:     cr.a.link.Port.Down(),
			DownB:     cr.b.link.Port.Down(),
			AlarmA:    cr.a.slo.Alarmed(),
			AlarmB:    cr.b.slo.Alarmed(),
		}
		res.Circuits = append(res.Circuits, rep)
	}
	res.Resyncs = sumResyncs(ring) - resyncBase
	s.grade(res)
	if len(res.Failures) > 0 {
		s.failCaptures(res, runs)
	}
	res.Pass = len(res.Failures) == 0
	res.Board = board.Snapshot()
	return res, nil
}

// grade evaluates the assertion block against the measured reports.
func (s *Scenario) grade(res *Result) {
	byName := map[string]*CircuitReport{}
	for i := range res.Circuits {
		byName[res.Circuits[i].Name] = &res.Circuits[i]
	}
	fail := func(circuit, format string, args ...any) {
		res.Failures = append(res.Failures, Failure{Circuit: circuit, Msg: fmt.Sprintf(format, args...)})
	}
	for _, a := range s.Assert.Circuits {
		rep := byName[a.Circuit]
		if rep == nil {
			continue // Validate already rejects unknown names
		}
		switches := rep.SwitchesA + rep.SwitchesB
		if a.Switches != nil && switches != *a.Switches {
			fail(a.Circuit, "selector switches = %d, want exactly %d", switches, *a.Switches)
		}
		if a.MaxSwitches != nil && switches > *a.MaxSwitches {
			fail(a.Circuit, "selector switches = %d, want ≤ %d", switches, *a.MaxSwitches)
		}
		if a.MaxFailoverTicks != nil {
			fo := rep.FailoverA
			if rep.FailoverB > fo {
				fo = rep.FailoverB
			}
			if fo > *a.MaxFailoverTicks {
				fail(a.Circuit, "protection switch healed a %d-tick outage, budget %d", fo, *a.MaxFailoverTicks)
			}
		}
		if a.LCPRenegotiations != nil && rep.RenegA+rep.RenegB != *a.LCPRenegotiations {
			fail(a.Circuit, "LCP renegotiations = %d, want %d", rep.RenegA+rep.RenegB, *a.LCPRenegotiations)
		}
		if a.Corrupted != nil && rep.Corrupted != *a.Corrupted {
			fail(a.Circuit, "corrupted datagrams = %d, want %d", rep.Corrupted, *a.Corrupted)
		}
		if a.MinDeliveryRatio != nil {
			ratio := 1.0
			if rep.Sent > 0 {
				ratio = float64(rep.Received) / float64(rep.Sent)
			}
			if ratio < *a.MinDeliveryRatio {
				fail(a.Circuit, "delivery ratio %.3f (%d of %d), want ≥ %.3f", ratio, rep.Received, rep.Sent, *a.MinDeliveryRatio)
			}
		}
		if a.Down != nil {
			down := rep.DownA || rep.DownB
			if down != *a.Down {
				fail(a.Circuit, "squelched = %v (a=%v b=%v), want %v", down, rep.DownA, rep.DownB, *a.Down)
			}
		}
		if a.SLOGreen != nil && *a.SLOGreen && (rep.AlarmA || rep.AlarmB) {
			fail(a.Circuit, "SLO alarm raised (a=%v b=%v), want green", rep.AlarmA, rep.AlarmB)
		}
	}
	if s.Assert.MinResyncs != nil && res.Resyncs < *s.Assert.MinResyncs {
		fail("", "span resyncs = %d, want ≥ %d", res.Resyncs, *s.Assert.MinResyncs)
	}
}

// failCaptures dumps the black box of every failing circuit (or all of
// them for global failures) so the report can point at .p5fr files.
func (s *Scenario) failCaptures(res *Result, runs []*circuitRun) {
	failing := map[string]bool{}
	global := false
	for _, f := range res.Failures {
		if f.Circuit == "" {
			global = true
		} else {
			failing[f.Circuit] = true
		}
	}
	for _, cr := range runs {
		if !global && !failing[cr.spec.Name] {
			continue
		}
		cr.a.rec.Trigger("scenario-fail")
		cr.b.rec.Trigger("scenario-fail")
	}
}

// sumResyncs totals frame-alignment reacquisitions over every span.
func sumResyncs(r *topo.Ring) uint64 {
	var n uint64
	for rot := topo.East; rot <= topo.West; rot++ {
		for i := 0; i < r.Nodes(); i++ {
			n += r.Span(rot, i).Deframer().ResyncCount
		}
	}
	return n
}

// mkDatagram builds a sequence-stamped pseudo-IPv4 datagram: circuit
// and direction tags plus a seq number, then a pattern derived from the
// seq so any delivered corruption is detectable.
func mkDatagram(circuit, dir byte, seq uint32, size int) []byte {
	if size < 12 {
		size = 12
	}
	d := make([]byte, size)
	d[0] = 0x45
	d[1] = circuit
	d[2] = dir
	binary.BigEndian.PutUint32(d[4:8], seq)
	for i := 8; i < size; i++ {
		d[i] = patternByte(seq, i)
	}
	return d
}

func patternByte(seq uint32, i int) byte {
	return byte((uint32(i)*131 + seq*31 + 7) % 251)
}

// verify grades one delivered datagram against the sender's ledger.
func (ep *endpoint) verify(payload []byte) {
	if len(payload) < 8 || payload[0] != 0x45 {
		ep.corrupt++
		return
	}
	seq := binary.BigEndian.Uint32(payload[4:8])
	want, ok := ep.expect[seq]
	if !ok {
		ep.corrupt++ // unknown or duplicate seq: damaged beyond matching
		return
	}
	delete(ep.expect, seq)
	ep.recv++
	if !bytes.Equal(payload, want) {
		ep.corrupt++
	}
}
