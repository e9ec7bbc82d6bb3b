package gigapos

import (
	"testing"

	"repro/internal/aps"
	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/p5"
	"repro/internal/sonet"
)

// TestChaosSoakLinkSelfHealing is the deterministic chaos soak of the
// self-healing stack: two supervised PPP endpoints ride an STM-1
// section whose a→b direction suffers a scripted fault scenario — byte
// slips, a frame truncation, a duplication, two timed LOS line cuts —
// with mild Gilbert-Elliott burst noise layered on top. The link must
// return to Opened after every outage within bounded virtual time, the
// supervisor's exponential backoff must be visible in its retry
// timestamps, and the OAM defect counters must reconcile exactly
// against the injected script.
func TestChaosSoakLinkSelfHealing(t *testing.T) {
	const fb = 2430 // STM-1 frame bytes; one frame per direction per tick

	cfg := LinkConfig{
		EchoPeriod: 8, EchoMisses: 2,
		Supervise: true, RetryMin: 8, RetryMax: 128,
	}
	cfg.Magic, cfg.IPAddr = 0xAAAA, [4]byte{10, 0, 0, 1}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0xBBBB, [4]byte{10, 0, 0, 2}
	b := NewLink(cfg)

	// SONET carry a→b with the fault injector in the middle.
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

	// Physical-layer supervision: defect transitions drive both the P5
	// OAM alarm register and the PPP supervisor.
	dfB.Defects.OnEvent = func(sonet.DefectEvent) {
		b.NotifyDefects(uint32(dfB.Defects.Active()))
	}
	oam := &p5.OAM{Regs: p5.NewRegs()}
	oam.AttachSection(dfB)

	// The fault scenario, pinned to absolute line-octet offsets.
	var script fault.Script
	script.Insert(40*fb+1000, 0x55)      // byte slip (late)
	script.Delete(70*fb+500, 1)          // byte slip (early)
	script.Truncate(100*fb+1200, fb)     // frame truncation
	script.Duplicate(130*fb+17, 16)      // duplication
	script.LOS(170*fb, 150*fb)           // line cut #1: 150 frames
	script.Insert(360*fb+99, 0xAA, 0x55) // double slip mid-recovery era
	script.LOS(520*fb, 60*fb)            // line cut #2: 60 frames
	script.Corrupt(640*fb+300, 32, 0x0F) // a scorched run of octets
	inj := fault.NewInjector(script)
	inj.Model = &channel.GilbertElliott{
		PGoodToBad: 2e-6, PBadToGood: 0.1,
		BERGood: 0, BERBad: 0.05,
		Rand: netsim.NewRand(0xC0FFEE),
	}

	now := int64(0)
	tickOnce := func(impair bool) {
		now++
		a.Advance(now)
		b.Advance(now)
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
		// b→a is a clean direct line.
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
	if !a.Opened() || !b.Opened() || !a.IPReady() || !b.IPReady() {
		t.Fatal("links did not open on the clean line")
	}

	// The soak: run the scripted scenario, then verify bounded-time
	// recovery after it ends.
	sawOutage := false
	for i := 0; i < 720; i++ {
		tickOnce(true)
		if !b.Opened() {
			sawOutage = true
		}
	}
	if !inj.Done() {
		t.Fatalf("script not fully fired: %d ops left at pos %d", len(script.Ops)-inj.Stats.OpsFired, inj.Pos())
	}
	if !sawOutage {
		t.Fatal("two LOS windows produced no outage — scenario did not bite")
	}
	healBudget := 0
	for !(a.Opened() && b.Opened() && a.IPReady() && b.IPReady()) {
		tickOnce(false)
		healBudget++
		if healBudget > 400 {
			t.Fatalf("links did not heal within budget: a=%v b=%v alarms=%v",
				a.lcpA.State(), b.lcpA.State(), oam.Alarms())
		}
	}

	// Every outage recovered: two service-affecting windows were
	// reported and the supervisor logged a recovery for each loss of
	// Opened it saw.
	supB := b.Supervisor()
	if supB.DefectOutages != 2 {
		t.Errorf("b saw %d defect outages, want 2 (one per LOS window)", supB.DefectOutages)
	}
	if supB.Recoveries < 2 {
		t.Errorf("b recovered %d times, want >= 2", supB.Recoveries)
	}
	supA := a.Supervisor()
	if supA.Recoveries < 1 {
		t.Errorf("a recovered %d times, want >= 1", supA.Recoveries)
	}

	// Exponential backoff visible in the retry timestamps: a is blind
	// to the far-end defects (its receive line is clean), so during the
	// long line cut its attempts must space out.
	if len(supA.RetryTimes) < 2 {
		t.Fatalf("a retried %d times; backoff not observable", len(supA.RetryTimes))
	}
	grew := false
	for i := 2; i < len(supA.RetryTimes); i++ {
		if supA.RetryTimes[i]-supA.RetryTimes[i-1] > supA.RetryTimes[i-1]-supA.RetryTimes[i-2] {
			grew = true
		}
	}
	if len(supA.RetryTimes) > 2 && !grew {
		t.Errorf("retry gaps never grew: %v", supA.RetryTimes)
	}

	// OAM/defect reconciliation against the injected script.
	mon := dfB.Defects
	if got := mon.Raises(sonet.DefLOS); got != 2 {
		t.Errorf("LOS raises = %d, want exactly 2 (the scripted line cuts)", got)
	}
	if got := mon.Clears(sonet.DefLOS); got != 2 {
		t.Errorf("LOS clears = %d, want 2", got)
	}
	if inj.Stats.LOSWindows != 2 || inj.Stats.LOSOctets != 210*fb {
		t.Errorf("injector LOS stats %d/%d, want 2 windows, %d octets",
			inj.Stats.LOSWindows, inj.Stats.LOSOctets, 210*fb)
	}
	if inj.Stats.Inserted != 3 || inj.Stats.Deleted != uint64(1+fb-1200) || inj.Stats.Duplicated != 16 {
		t.Errorf("injector slip stats: ins=%d del=%d dup=%d", inj.Stats.Inserted, inj.Stats.Deleted, inj.Stats.Duplicated)
	}
	raises, clears := mon.Transitions()
	if got := uint64(oam.Read(p5.RegDefectRaise)); got != raises {
		t.Errorf("OAM raise counter %d != monitor %d", got, raises)
	}
	if got := uint64(oam.Read(p5.RegDefectClear)); got != clears {
		t.Errorf("OAM clear counter %d != monitor %d", got, clears)
	}
	if got := uint64(oam.Read(p5.RegResyncs)); got != dfB.ResyncCount {
		t.Errorf("OAM resync counter %d != deframer %d", got, dfB.ResyncCount)
	}
	if alarms := oam.Alarms(); alarms != 0 {
		t.Errorf("alarm register %v after full recovery", alarms)
	}

	// The healed link carries traffic end to end.
	payload := []byte{0x45, 0, 0, 20, 1, 2, 3, 4}
	if err := a.SendIPv4(payload); err != nil {
		t.Fatal(err)
	}
	delivered := false
	for i := 0; i < 40 && !delivered; i++ {
		tickOnce(false)
		for _, d := range b.Received() {
			if string(d.Payload) == string(payload) {
				delivered = true
			}
		}
	}
	if !delivered {
		t.Fatal("healed link did not deliver traffic")
	}
	t.Logf("scenario %q: b outages=%d recoveries=%d; a retries at %v; OAM raises=%d clears=%d resyncs=%d",
		script.String(), supB.DefectOutages, supB.Recoveries, supA.RetryTimes,
		oam.Read(p5.RegDefectRaise), oam.Read(p5.RegDefectClear), oam.Read(p5.RegResyncs))
}

// TestChaosSoakDualLineProtection is the protected-pair counterpart of
// the chaos soak: a 1+1 group rides two scripted fault scenarios, one
// per line, that cut, corrupt, and slip each line in turn but never
// take both down at once. The APS layer must absorb every event — the
// headline assertion is that the PPP session never drops and the
// self-healing supervisor never acts (zero LCP restarts, zero defect
// outages) while at least one line of the pair is up.
func TestChaosSoakDualLineProtection(t *testing.T) {
	const fb = 2430
	const wtr = 40
	p := newProtectedPair(t, ProtectionConfig{
		APS: aps.Config{Bidirectional: true, Revertive: true, WaitToRestore: wtr},
	})
	a, b := p.a, p.b

	// Per-line scripts, pinned to absolute line-octet offsets. The
	// service-affecting windows are disjoint across the two lines:
	// whenever one line is dark the other is clean.
	var w, pr fault.Script
	w.LOS(50*fb, 70*fb)              // working cut #1 (frames 50-119)
	w.Insert(260*fb+9, 0x55)         // byte slip: working loses alignment
	w.LOS(300*fb, 40*fb)             // working cut #2 (frames 300-339)
	pr.Corrupt(150*fb+100, 64, 0xFF) // standby line parity burst
	pr.LOS(180*fb, 60*fb)            // protect cut while working is clean
	pr.LOS(400*fb, 50*fb)            // protect cut #2, selector on working
	pair := fault.NewPair(w, pr)
	p.impairW = func(f []byte) []byte { return pair.Apply(0, f) }
	p.impairP = func(f []byte) []byte { return pair.Apply(1, f) }

	for i := 0; i < 40; i++ {
		p.tick()
	}
	if !a.Opened() || !b.Opened() || !a.IPReady() || !b.IPReady() {
		t.Fatal("links did not open on the clean pair")
	}

	// Soak with live traffic: one deterministic datagram per tick a→b.
	var seq uint32
	var delivered, corrupted int
	for i := 0; i < 520; i++ {
		seq++
		pl := make([]byte, 32)
		pl[0] = 0x45
		pl[4], pl[5], pl[6], pl[7] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		for j := 8; j < len(pl); j++ {
			pl[j] = byte(seq) ^ byte(j)*11
		}
		if err := a.SendIPv4(pl); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		p.tick()
		for _, d := range b.Received() {
			if len(d.Payload) != 32 {
				corrupted++
				continue
			}
			s := uint32(d.Payload[4])<<24 | uint32(d.Payload[5])<<16 |
				uint32(d.Payload[6])<<8 | uint32(d.Payload[7])
			ok := d.Payload[0] == 0x45 && s >= 1 && s <= seq
			for j := 8; ok && j < len(d.Payload); j++ {
				ok = d.Payload[j] == byte(s)^byte(j)*11
			}
			if !ok {
				corrupted++
				continue
			}
			delivered++
		}
		// The whole point of 1+1: the session layer never sees any of it.
		if !b.Opened() || !b.IPReady() {
			t.Fatalf("session dropped at tick %d with one line still up", p.now)
		}
	}
	if !pair.Done() {
		t.Fatalf("scripts not fully fired: working=%q protect=%q", w.String(), pr.String())
	}

	// Ride out the last wait-to-restore; the revertive group ends home.
	for i := 0; i < wtr+60; i++ {
		p.tick()
	}
	if b.Active() != aps.Working || a.Active() != aps.Working {
		t.Fatalf("group did not revert: a=%v b=%v", a.Active(), b.Active())
	}

	// Zero LCP restarts while >= 1 line was up — on both ends.
	for name, l := range map[string]*ProtectedLink{"a": a, "b": b} {
		sup := l.Supervisor()
		if sup.Restarts != 0 || sup.DefectOutages != 0 || sup.Recoveries != 0 {
			t.Errorf("%s supervisor acted during protected chaos: %+v", name, sup)
		}
	}
	if corrupted != 0 {
		t.Errorf("%d corrupted datagrams delivered", corrupted)
	}
	// Two working cuts each force a failover and a revert; protect-line
	// events must not add spurious selector flaps beyond the slip's.
	if b.Ctrl.ToProtect < 2 {
		t.Errorf("ToProtect = %d, want >= 2 (two working-line cuts)", b.Ctrl.ToProtect)
	}
	if b.Ctrl.Switches < 4 {
		t.Errorf("Switches = %d, want >= 4 (each cut out and back)", b.Ctrl.Switches)
	}
	lost := int(seq) - delivered
	t.Logf("sent=%d delivered=%d lost=%d switches=%d toProtect=%d standbyDiscarded=%d",
		seq, delivered, lost, b.Ctrl.Switches, b.Ctrl.ToProtect, b.DiscardedStandbyOctets)
	if lost > int(seq)/10 {
		t.Errorf("lost %d of %d datagrams; switch windows should cost far less", lost, seq)
	}
}
