package gigapos

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/prof"
	"repro/internal/sonet"
	"repro/internal/telemetry"
)

// TestChaosSoakFlightRecorder is the armed counterpart of the chaos
// soak: a supervised pair rides an STM-1 section through two LOS line
// cuts and a corruption burst with the flight recorder attached on both
// ends and live IPv4 traffic flowing a→b. The headline assertions are
// the black-box bookkeeping invariants — every supervisor restart and
// every defect outage dumped exactly one capture, every capture file on
// disk decodes losslessly back to its in-memory twin — plus a live
// latency observatory: the e2e histogram carries resolvable exemplars,
// the per-stage histograms sampled real frames, and the SLO evaluator
// burned budget through the outage windows.
func TestChaosSoakFlightRecorder(t *testing.T) {
	const fb = 2430 // STM-1 frame bytes; one frame per direction per tick

	cfg := LinkConfig{
		EchoPeriod: 8, EchoMisses: 2,
		Supervise: true, RetryMin: 8, RetryMax: 128,
	}
	cfg.Magic, cfg.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0xBBBB, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)

	// Arm before traffic: recorders on both ends, paired so deliveries
	// at b complete a's departure pipe, with an SLO on the receive side.
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	fcfg := flight.Config{Dir: dir, Horizon: 256}
	ra := flight.NewRecorder(reg, "soak_a", fcfg)
	rb := flight.NewRecorder(reg, "soak_b", fcfg)
	a.ArmFlight(ra)
	b.ArmFlight(rb)
	JoinFlight(a, b)
	slo := b.FlightSLO(reg, "soak", flight.SLOConfig{})

	// SONET carry a→b with the fault injector in the middle; b→a is a
	// clean direct line (same topology as the unarmed soak).
	var aQueue, bQueue []byte
	fa := sonet.NewFramer(sonet.STM1, func() (byte, bool) {
		if len(aQueue) == 0 {
			return 0, false
		}
		by := aQueue[0]
		aQueue = aQueue[1:]
		return by, true
	})
	dfB := sonet.NewDeframer(sonet.STM1, func(by byte) { bQueue = append(bQueue, by) })
	dfB.Defects.OnEvent = func(sonet.DefectEvent) {
		b.NotifyDefects(uint32(dfB.Defects.Active()))
	}

	var script fault.Script
	script.LOS(120*fb, 120*fb)           // line cut #1: 120 frames
	script.Corrupt(400*fb+300, 48, 0x0F) // scorched octets mid-recovery era
	script.LOS(480*fb, 60*fb)            // line cut #2: 60 frames
	inj := fault.NewInjector(script)

	payload := make([]byte, 64)
	payload[0] = 0x45
	var sent, delivered int
	now := int64(0)
	tickOnce := func(impair bool) {
		now++
		a.Advance(now)
		b.Advance(now)
		if a.IPReady() {
			if err := a.SendIPv4(payload); err == nil {
				sent++
			}
		}
		aQueue = append(aQueue, a.Output()...)
		frame := fa.NextFrame()
		if impair {
			frame = inj.Apply(frame)
		}
		dfB.Feed(frame)
		if len(bQueue) > 0 {
			b.Input(bQueue)
			bQueue = nil
		}
		delivered += len(b.Received())
		if out := b.Output(); len(out) > 0 {
			a.Input(out)
		}
	}

	a.Open()
	b.Open()
	a.Up()
	b.Up()
	for i := 0; i < 30; i++ {
		tickOnce(false)
	}
	if !a.IPReady() || !b.IPReady() {
		t.Fatal("links did not open on the clean line")
	}

	for i := 0; i < 640; i++ {
		tickOnce(true)
	}
	if !inj.Done() {
		t.Fatalf("script not fully fired at pos %d", inj.Pos())
	}
	healBudget := 0
	for !(a.IPReady() && b.IPReady()) {
		tickOnce(false)
		healBudget++
		if healBudget > 400 {
			t.Fatalf("links did not heal within budget: a=%v b=%v",
				a.lcpA.State(), b.lcpA.State())
		}
	}
	// Let the loss horizon retire anything cut down by the second LOS.
	for i := 0; i < 300; i++ {
		tickOnce(false)
	}

	// Black-box invariant: exactly one capture per trigger, on both
	// ends. a is blind to the defects (its receive line is clean), so
	// its captures are all echo-driven supervisor restarts; b dumps once
	// per defect outage and once per restart.
	supA, supB := a.Supervisor(), b.Supervisor()
	if supA.Restarts == 0 || supB.Restarts == 0 {
		t.Fatalf("soak produced no restarts (a=%d b=%d) — scenario did not bite",
			supA.Restarts, supB.Restarts)
	}
	if got := ra.CapturesFor("supervisor-restart"); got != supA.Restarts {
		t.Errorf("a: %d supervisor-restart captures, want %d (one per restart)", got, supA.Restarts)
	}
	if got := rb.CapturesFor("supervisor-restart"); got != supB.Restarts {
		t.Errorf("b: %d supervisor-restart captures, want %d (one per restart)", got, supB.Restarts)
	}
	if supB.DefectOutages != 2 {
		t.Errorf("b saw %d defect outages, want 2 (one per LOS window)", supB.DefectOutages)
	}
	if got := rb.CapturesFor("defect-outage"); got != supB.DefectOutages {
		t.Errorf("b: %d defect-outage captures, want %d (one per outage)", got, supB.DefectOutages)
	}
	if ra.LastErr() != nil || rb.LastErr() != nil {
		t.Fatalf("capture write errors: a=%v b=%v", ra.LastErr(), rb.LastErr())
	}

	// Every capture landed on disk and decodes losslessly.
	files, err := filepath.Glob(filepath.Join(dir, "*.p5fr"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(files), int(ra.Captures()+rb.Captures()); got != want {
		t.Errorf("%d capture files on disk, want %d", got, want)
	}
	for _, c := range append(ra.Recent(), rb.Recent()...) {
		rc, err := flight.ReadFile(filepath.Join(dir, c.Filename()))
		if err != nil {
			t.Fatalf("%s: %v", c.Filename(), err)
		}
		if rc.Link != c.Link || rc.Reason != c.Reason || rc.Seq != c.Seq || rc.Now != c.Now {
			t.Errorf("%s: header mismatch after round trip: %+v", c.Filename(), rc)
		}
		if !bytes.Equal(rc.RxWire, c.RxWire) || !bytes.Equal(rc.TxWire, c.TxWire) {
			t.Errorf("%s: wire rings not byte-identical after round trip", c.Filename())
		}
		if len(rc.Events) != len(c.Events) || len(rc.Regs) != len(c.Regs) {
			t.Errorf("%s: events/regs truncated: %d/%d events, %d/%d regs",
				c.Filename(), len(rc.Events), len(c.Events), len(rc.Regs), len(c.Regs))
		}
	}

	// Latency observatory: the a→b pipe tracked the soak's datagrams,
	// the LOS windows surfaced as losses, and the e2e histogram carries
	// at least one exemplar that resolves to a concrete tagged frame.
	if ra.Tracked() == 0 || delivered == 0 {
		t.Fatalf("no traffic observed: tracked=%d delivered=%d", ra.Tracked(), delivered)
	}
	if ra.Lost() == 0 {
		t.Error("two line cuts produced no tracked losses")
	}
	exs := ra.Exemplars()
	if len(exs) == 0 {
		t.Fatal("e2e histogram has no exemplars")
	}
	for _, ex := range exs {
		if ex.ID == 0 || ex.ID > ra.Tracked() {
			t.Errorf("exemplar frame id %d not resolvable (tracked %d)", ex.ID, ra.Tracked())
		}
		if ex.Value < 0 {
			t.Errorf("exemplar latency %d < 0", ex.Value)
		}
	}
	if ra.StageHistogram(prof.StageEncode).Count() == 0 {
		t.Error("encode stage histogram sampled nothing")
	}
	if rb.StageHistogram(prof.StageTokenize).Count() == 0 {
		t.Error("tokenize stage histogram sampled nothing")
	}

	// SLO evaluator: the outage loss (percent-scale against a 0.1%
	// objective) must have burned budget and tripped the alarm.
	if slo.WorstBurnMilli() <= 0 {
		t.Errorf("worst burn %d milli after two line cuts, want > 0", slo.WorstBurnMilli())
	}
	if !slo.Alarmed() {
		t.Error("SLO never alarmed through the outage windows")
	}

	// The series all land in the shared registry exposition, and the
	// /slo board document round-trips through its JSON codec.
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		`flight_frames_tracked_total{link="soak_a"}`,
		`flight_captures_total{link="soak_b"}`,
		`slo_worst_burn_rate{slo="soak"}`,
		`slo_error_budget_remaining{slo="soak"}`,
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %s", want)
		}
	}
	board := flight.NewBoard()
	board.Attach(ra)
	board.Attach(rb)
	board.AttachSLO(slo)
	var js bytes.Buffer
	if err := board.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	doc, err := flight.ReadBoard(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.SLOs) != 1 || doc.SLOs[0].Name != "soak" || !doc.SLOs[0].Alarm {
		t.Errorf("board SLO row wrong: %+v", doc.SLOs)
	}
	if len(doc.Links) != 2 || doc.Links[0].Tracked != ra.Tracked() {
		t.Errorf("board link rows wrong: %+v", doc.Links)
	}

	t.Logf("sent=%d delivered=%d tracked=%d lost=%d p99=%d ticks; captures a=%d b=%d; worst burn=%d milli",
		sent, delivered, ra.Tracked(), ra.Lost(), ra.P99(),
		ra.Captures(), rb.Captures(), slo.WorstBurnMilli())
}

// TestLinkSteadyStateZeroAllocFlightArmed re-runs the PR-4 zero-alloc
// invariant with the flight recorder armed on both ends: tagging,
// FIFO matching, exemplar upkeep, wire-ring taps and sampled stage
// stamps must all ride the steady-state path without allocating.
func TestLinkSteadyStateZeroAllocFlightArmed(t *testing.T) {
	a, z := newTestPair(t, LinkConfig{}, LinkConfig{})
	a.ArmFlight(flight.NewRecorder(nil, "za", flight.Config{}))
	z.ArmFlight(flight.NewRecorder(nil, "zz", flight.Config{}))
	JoinFlight(a, z)

	payload := make([]byte, 512)
	batch := [][]byte{payload, payload, payload, payload}
	var rx []Datagram
	now := int64(1000)
	step := func() {
		now++
		a.Advance(now)
		z.Advance(now)
		if _, err := a.SendIPv4Batch(batch); err != nil {
			t.Fatalf("SendIPv4Batch: %v", err)
		}
		z.Input(a.Output())
		rx = z.ReceivedInto(rx[:0])
	}
	// Warm every buffer (and the exemplar store) to steady state.
	for i := 0; i < 16; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("armed steady-state link step allocates %.1f times per run, want 0", avg)
	}
	fr := a.Flight()
	if fr.Tracked() == 0 || fr.InFlight() != 0 {
		t.Fatalf("recorder did not track the run: tracked=%d inflight=%d", fr.Tracked(), fr.InFlight())
	}
	if fr.Lost() != 0 {
		t.Fatalf("loopback run recorded %d losses", fr.Lost())
	}
	if len(fr.Exemplars()) == 0 {
		t.Fatal("no exemplars after a tracked run")
	}
}
