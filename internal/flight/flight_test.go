package flight

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prof"
	"repro/internal/telemetry"
)

func testCfg() Config {
	n := int64(0)
	return Config{Clock: func() int64 { n += 1000; return n }}
}

func TestPipeMatchesFIFO(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	id1 := r.Depart(10)
	id2 := r.Depart(11)
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d,%d", id1, id2)
	}
	lat, ok := r.Arrive(12)
	if !ok || lat != 2 {
		t.Fatalf("first arrival lat=%d ok=%v, want 2", lat, ok)
	}
	lat, ok = r.Arrive(15)
	if !ok || lat != 4 {
		t.Fatalf("second arrival lat=%d ok=%v, want 4", lat, ok)
	}
	if _, ok := r.Arrive(16); ok {
		t.Fatal("arrival with empty pipe matched")
	}
	if r.Tracked() != 2 || r.Lost() != 0 {
		t.Fatalf("tracked=%d lost=%d", r.Tracked(), r.Lost())
	}
}

func TestPipeHorizonCountsLoss(t *testing.T) {
	cfg := testCfg()
	cfg.Horizon = 100
	r := NewRecorder(nil, "a", cfg)
	r.Depart(0)   // will expire
	r.Depart(950) // still live at 1000
	r.Expire(1000)
	if r.Lost() != 1 {
		t.Fatalf("lost = %d, want 1", r.Lost())
	}
	lat, ok := r.Arrive(1000)
	if !ok || lat != 50 {
		t.Fatalf("lat=%d ok=%v, want 50 (matched the live departure)", lat, ok)
	}

	// Flush retires everything still in flight.
	r.Depart(1001)
	r.Depart(1002)
	r.Flush()
	if r.Lost() != 3 || r.InFlight() != 0 {
		t.Fatalf("after flush lost=%d inflight=%d", r.Lost(), r.InFlight())
	}
}

func TestPipeOverflowRetiresOldest(t *testing.T) {
	cfg := testCfg()
	cfg.PipeDepth = 4
	r := NewRecorder(nil, "a", cfg)
	for i := 0; i < 6; i++ {
		r.Depart(int64(i))
	}
	if r.Lost() != 2 || r.InFlight() != 4 {
		t.Fatalf("lost=%d inflight=%d, want 2/4", r.Lost(), r.InFlight())
	}
	// Oldest live departure is #3 (at=2).
	lat, ok := r.Arrive(10)
	if !ok || lat != 8 {
		t.Fatalf("lat=%d ok=%v, want 8", lat, ok)
	}
}

func TestExemplarsResolve(t *testing.T) {
	r := NewRecorder(nil, "a", testCfg())
	r.Depart(0)
	r.Depart(0)
	r.Arrive(1)   // fast frame
	r.Arrive(100) // slow frame, bucket le=128
	ex, ok := r.Exemplar(100)
	if !ok {
		t.Fatal("no exemplar for the slow bucket")
	}
	if ex.ID != 2 || ex.Value != 100 || ex.At != 100 || ex.LE != 128 {
		t.Fatalf("exemplar = %+v", ex)
	}
	all := r.Exemplars()
	if len(all) != 2 {
		t.Fatalf("exemplars = %d, want 2", len(all))
	}
	// A slow frame (≥ SlowTicks) leaves a black-box event carrying its ID.
	found := false
	for _, e := range r.Events() {
		if e.Name == "slow-frame" && e.V1 == 2 && e.V2 == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-frame event for frame 2 in %v", r.Events())
	}
}

func TestByteRingInvariant(t *testing.T) {
	var r byteRing
	r.buf = make([]byte, 8)
	r.write([]byte("abc"))
	base, data := r.snapshot()
	if base != 0 || string(data) != "abc" {
		t.Fatalf("base=%d data=%q", base, data)
	}
	r.write([]byte("defghij")) // 10 total, wraps
	base, data = r.snapshot()
	if base != 2 || string(data) != "cdefghij" {
		t.Fatalf("after wrap base=%d data=%q", base, data)
	}
	// Oversized write keeps only the tail and stays aligned.
	r.write(bytes.Repeat([]byte("x"), 20))
	r.write([]byte("YZ"))
	base, data = r.snapshot()
	if base != 24 || string(data) != "xxxxxxYZ" {
		t.Fatalf("after oversize base=%d data=%q", base, data)
	}
}

// TestStageSeriesSpeakProfVocabulary pins the recorder's stage
// histograms to the prof names it stamps — encode and tokenize only —
// and the sampling to 1 span in 8 per stage — interleaved encode and
// tokenize spans must not alias onto one stage — each span costing the
// two clock reads around it.
func TestStageSeriesSpeakProfVocabulary(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(reg, "a", testCfg())
	for i := 0; i < 16; i++ {
		r.Begin(prof.StageEncode)
		r.Stamp(prof.StageEncode)
		r.Begin(prof.StageTokenize)
		r.Stamp(prof.StageTokenize)
	}
	snap := reg.Snapshot("t")
	for _, st := range []string{"encode", "tokenize"} {
		series := `flight_stage_latency_ns_count{link="a",stage="` + st + `"}`
		if v, ok := snap.Get(series); !ok || v != 2 {
			t.Errorf("%s = %v (ok=%v), want 2", series, v, ok)
		}
		if v, _ := snap.Get(`flight_stage_latency_ns_sum{link="a",stage="` + st + `"}`); v != 2000 {
			t.Errorf("%s sum = %v ns, want 2000 (one 1000 ns clock step per span)", st, v)
		}
	}
	for _, gone := range []string{
		`flight_stage_latency_ns_count{link="a",stage="fcs"}`,
		`flight_wire_octets_total{dir="tx",link="a"}`,
	} {
		if _, ok := snap.Get(gone); ok {
			t.Errorf("series %s still exported", gone)
		}
	}
	if r.StageHistogram(prof.StageDrain) != nil {
		t.Error("recorder exposes a histogram for a stage it never stamps")
	}
}

func TestCaptureRoundTripByteIdentical(t *testing.T) {
	c := &Capture{
		Link:   "b",
		Reason: "supervisor-restart",
		Seq:    3,
		Now:    4242,
		WallNs: 1234567890,
		RxBase: 9000,
		RxWire: []byte{0x7E, 0xFF, 0x03, 0x00, 0x21, 0x45, 0x7D, 0x5E, 0x7E},
		TxBase: 100,
		TxWire: []byte{0x7E, 0x01, 0x02},
		Events: []telemetry.Event{
			{Seq: 1, At: 10, Scope: "b", Name: "restart", Detail: "backoff", V1: 2, V2: 8},
			{Seq: 2, At: 11, Scope: "b", Name: "capture", Detail: "supervisor-restart"},
		},
		Regs: []RegSample{{Name: "rx_frames", Value: 77}, {Name: "alarm", Value: 0x30}},
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RxWire, c.RxWire) || !bytes.Equal(got.TxWire, c.TxWire) {
		t.Fatalf("wire stream not byte-identical:\n got %x / %x\nwant %x / %x",
			got.RxWire, got.TxWire, c.RxWire, c.TxWire)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}

	// Re-encoding the decoded capture is byte-identical too.
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encode differs from original encoding")
	}
}

func TestCaptureDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a capture")); err == nil {
		t.Fatal("bad magic accepted")
	}
	c := &Capture{Link: "a", Reason: "oam"}
	data, _ := c.Encode()
	if _, err := Decode(data[:len(data)-1]); err == nil {
		t.Fatal("truncated capture accepted")
	}
	// Unknown sections are skipped, not fatal.
	var w sectionWriter
	w.buf = append(w.buf, data...)
	w.section(0x7FFF, []byte("future extension"))
	got, err := Decode(w.buf)
	if err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	if got.Link != "a" || got.Reason != "oam" {
		t.Fatalf("meta lost around unknown section: %+v", got)
	}
}

func TestCaptureFileAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()
	cfg.Dir = dir
	r := NewRecorder(nil, "w0", cfg)
	r.TapRx([]byte{0x7E, 0x11, 0x22, 0x7E})
	r.SetNow(99)
	c := r.Trigger("fcs-burst")
	if err := r.LastErr(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, c.Filename())
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RxWire, []byte{0x7E, 0x11, 0x22, 0x7E}) || got.Now != 99 || got.Reason != "fcs-burst" {
		t.Fatalf("file capture = %+v", got)
	}
	// No temp litter.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".p5fr-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestTriggerBookkeeping(t *testing.T) {
	cfg := testCfg()
	cfg.RecentCaptures = 2
	r := NewRecorder(nil, "a", cfg)
	r.RegDump = func(dst []RegSample) []RegSample {
		return append(dst, RegSample{Name: "x", Value: 1})
	}
	seen := 0
	r.OnCapture = func(c *Capture) { seen++ }
	r.Trigger("oam")
	r.Trigger("oam")
	r.Trigger("aps-switch")
	if r.Captures() != 3 || r.CapturesFor("oam") != 2 || r.CapturesFor("aps-switch") != 1 {
		t.Fatalf("counts: total=%d oam=%d aps=%d", r.Captures(), r.CapturesFor("oam"), r.CapturesFor("aps-switch"))
	}
	if seen != 3 {
		t.Fatalf("OnCapture fired %d times", seen)
	}
	rec := r.Recent()
	if len(rec) != 2 || rec[0].Seq != 2 || rec[1].Seq != 3 {
		t.Fatalf("recent ring not bounded oldest-out: %d entries", len(rec))
	}
	if len(rec[1].Regs) != 1 || rec[1].Regs[0].Name != "x" {
		t.Fatalf("RegDump not applied: %+v", rec[1].Regs)
	}
}

// TestTriggerProfilerHook: the Config.Profiler hook observes every
// capture after OnCapture and after the capture file is written, so a
// runtime profile snapshot can land next to the .p5fr evidence.
func TestTriggerProfilerHook(t *testing.T) {
	cfg := testCfg()
	cfg.Dir = t.TempDir()
	order := []string{}
	cfg.Profiler = func(c *Capture) {
		if c.Reason != "aps-switch" {
			t.Errorf("profiler saw reason %q", c.Reason)
		}
		order = append(order, "profiler")
	}
	r := NewRecorder(nil, "a", cfg)
	r.OnCapture = func(c *Capture) { order = append(order, "capture") }
	c := r.Trigger("aps-switch")
	if len(order) != 2 || order[0] != "capture" || order[1] != "profiler" {
		t.Fatalf("hook order = %v, want [capture profiler]", order)
	}
	// The .p5fr file exists by the time the profiler runs, so tagged
	// snapshots written beside it always pair up.
	if c.Path == "" {
		t.Error("capture file not on disk before the profiler hook ran")
	}
}

func TestBurstDetectorFiresOncePerBurst(t *testing.T) {
	b := BurstDetector{Window: 10, Threshold: 3}
	if b.Note(0) || b.Note(1) {
		t.Fatal("fired below threshold")
	}
	if !b.Note(2) {
		t.Fatal("did not fire at threshold")
	}
	if b.Note(3) || b.Note(4) {
		t.Fatal("re-fired inside the same burst")
	}
	// Quiet period re-arms.
	if b.Note(100) || b.Note(101) {
		t.Fatal("fired below threshold after re-arm")
	}
	if !b.Note(102) {
		t.Fatal("did not fire on second burst")
	}
}

func TestSLOBurnRates(t *testing.T) {
	var frames, errors uint64
	var p99, fo int64
	alarms := []string{}
	s := NewSLO(nil, "b", SLOConfig{Window: 80, FrameLossTarget: 0.01, P99BudgetTicks: 8, FailoverBudgetTicks: 400, AlarmBurn: 4},
		Sources{
			Frames:   func() uint64 { return frames },
			Errors:   func() uint64 { return errors },
			P99:      func() int64 { return p99 },
			Failover: func() int64 { return fo },
		})
	s.OnAlarm = func(obj string) { alarms = append(alarms, obj) }

	// Clean window: 1000 frames, no loss.
	s.Sample(0)
	frames = 1000
	s.Sample(100)
	if s.WorstBurnMilli() != 0 || s.Alarmed() {
		t.Fatalf("clean window burn=%d alarmed=%v", s.WorstBurnMilli(), s.Alarmed())
	}

	// 5% loss against a 1% target → loss burn 5, alarm fires once.
	frames, errors = 2000, 50
	s.Sample(200)
	if got := s.WorstBurnMilli(); got < 4000 {
		t.Fatalf("loss burn = %dm, want ≥ 4000m", got)
	}
	if !s.Alarmed() || len(alarms) != 1 || alarms[0] != "frame_loss" {
		t.Fatalf("alarm state: %v %v", s.Alarmed(), alarms)
	}
	doc := s.snapshot()
	if !doc.Alarm || doc.LossBurn < 4 {
		t.Fatalf("snapshot = %+v", doc)
	}
	if doc.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v, want 0 (2.5x overspent)", doc.BudgetRemaining)
	}

	// Loss stops; after the window rolls past the errored span the
	// burn decays and the alarm clears with hysteresis.
	for at := int64(300); at <= 900; at += 10 {
		frames += 100
		s.Sample(at)
	}
	if s.WorstBurnMilli() >= 4000 || s.Alarmed() {
		t.Fatalf("burn did not decay: %dm alarmed=%v", s.WorstBurnMilli(), s.Alarmed())
	}
	if len(alarms) != 1 {
		t.Fatalf("alarm edge fired %d times", len(alarms))
	}

	// Latency and failover objectives burn independently.
	p99, fo = 16, 800
	s.Sample(1000)
	doc = s.snapshot()
	if doc.P99Burn != 2 || doc.FailoverBurn != 2 {
		t.Fatalf("p99 burn=%v failover burn=%v, want 2/2", doc.P99Burn, doc.FailoverBurn)
	}
}

func TestBoardSnapshotAndJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(reg, "port0", testCfg())
	r.Depart(0)
	r.Arrive(3)
	s := NewSLO(reg, "port0", SLOConfig{}, Sources{Frames: r.Tracked, Errors: r.Lost, P99: r.P99})
	s.Sample(10)
	b := NewBoard()
	b.Attach(r)
	b.AttachSLO(s)

	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadBoard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.SLOs) != 1 || len(doc.Links) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Links[0].Link != "port0" || doc.Links[0].Tracked != 1 || len(doc.Links[0].Exemplars) != 1 {
		t.Fatalf("link entry = %+v", doc.Links[0])
	}
	if doc.SLOs[0].Name != "port0" || doc.SLOs[0].WindowTicks != 2048 {
		t.Fatalf("slo entry = %+v", doc.SLOs[0])
	}

	// The registered gauges flatten into a scrape.
	snap := reg.Snapshot("t")
	if _, ok := snap.Get(`slo_worst_burn_rate{slo="port0"}`); !ok {
		t.Fatal("slo_worst_burn_rate not registered")
	}
	if v, ok := snap.Get(`flight_frames_tracked_total{link="port0"}`); !ok || v != 1 {
		t.Fatalf("flight_frames_tracked_total = %v %v", v, ok)
	}
}

func TestExemplarOverflowBucketLE(t *testing.T) {
	cfg := testCfg()
	cfg.Horizon = 1 << 40 // keep the matcher from declaring it lost first
	r := NewRecorder(nil, "a", cfg)
	r.Depart(0)
	r.Arrive(100000) // beyond the last finite bound
	ex, ok := r.Exemplar(100000)
	if !ok || ex.LE != math.MaxInt64 {
		t.Fatalf("overflow exemplar = %+v ok=%v", ex, ok)
	}
	// And the histogram's p99 clamps to the highest finite bound.
	if got := r.P99(); got != E2EBounds[len(E2EBounds)-1] {
		t.Fatalf("p99 = %d, want clamp to %d", got, E2EBounds[len(E2EBounds)-1])
	}
}
