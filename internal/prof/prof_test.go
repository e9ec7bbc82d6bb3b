package prof

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// fakeClock advances a fixed step per read, making stamp arithmetic
// exact.
type fakeClock struct{ now, step int64 }

func (c *fakeClock) read() int64 { c.now += c.step; return c.now }

func TestShardProfileStampArithmetic(t *testing.T) {
	c := &fakeClock{step: 10}
	col := New(nil, "t", 1, Config{SampleShift: -1, Clock: c.read})
	p := col.Shard(0)

	p.StepStart()         // clock = 10
	p.Stamp(StageControl) // 20 → +10
	p.Stamp(StageEncode)  // 30 → +10
	p.Stamp(StageEncode)  // 40 → +10 (second stamp accumulates)
	p.StepEnd()           // no clock read: step cost = last-start = 30
	if got := p.StageNs(StageControl); got != 10 {
		t.Errorf("control ns = %d, want 10", got)
	}
	if got := p.StageNs(StageEncode); got != 20 {
		t.Errorf("encode ns = %d, want 20", got)
	}
	if got := p.StageCount(StageEncode); got != 2 {
		t.Errorf("encode count = %d, want 2", got)
	}
	if got := p.RecentStepNs(); len(got) != 1 || got[0] != 30 {
		t.Errorf("step ring = %v, want [30]", got)
	}
	if p.SampledSteps() != 1 || p.Steps() != 1 {
		t.Errorf("sampled=%d steps=%d, want 1/1", p.SampledSteps(), p.Steps())
	}
}

func TestShardProfileSampling(t *testing.T) {
	c := &fakeClock{step: 1}
	col := New(nil, "t", 1, Config{SampleShift: 2, Clock: c.read}) // 1 in 4
	p := col.Shard(0)
	for i := 0; i < 16; i++ {
		p.StepStart()
		p.Stamp(StageEncode)
		p.StepEnd()
	}
	if p.Steps() != 16 {
		t.Fatalf("steps = %d, want 16", p.Steps())
	}
	if p.SampledSteps() != 4 {
		t.Errorf("sampled = %d, want 4 (1 in 2^2)", p.SampledSteps())
	}
}

func TestCollectorJoinBarrierAndImbalance(t *testing.T) {
	c := &fakeClock{step: 100}
	col := New(nil, "t", 2, Config{SampleShift: -1, Clock: c.read})
	a, b := col.Shard(0), col.Shard(1)

	a.BatchStart() // clock 100
	a.BatchEnd()   // 200: busy 100
	b.BatchStart() // 300
	b.BatchEnd()   // 400: busy 100
	col.Join()     // join = 500

	// Shard a finished at 200, waited 300; shard b finished at 400,
	// waited 100.
	if got := a.StageNs(StageBarrier); got != 300 {
		t.Errorf("shard 0 barrier ns = %d, want 300", got)
	}
	if got := b.StageNs(StageBarrier); got != 100 {
		t.Errorf("shard 1 barrier ns = %d, want 100", got)
	}
	if a.StageCount(StageBarrier) != 1 || b.StageCount(StageBarrier) != 1 {
		t.Error("barrier join counts not 1/1")
	}
	// Equal busy times → zero imbalance.
	if sum := col.Summary(); sum.ImbalancePerMille != 0 {
		t.Errorf("imbalance = %d‰, want 0", sum.ImbalancePerMille)
	}
}

// TestNilShardProfileIsNoop pins the one disarmed state: a shard
// without a profile holds a nil *ShardProfile, and every worker-loop
// call on it is a no-op.
func TestNilShardProfileIsNoop(t *testing.T) {
	var p *ShardProfile
	p.BatchStart()
	p.StepStart()
	p.Stamp(StageEncode)
	p.StepEnd()
	p.BatchEnd()
}

func TestCollectorTelemetryMirrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := &fakeClock{step: 10}
	col := New(reg, "mirror", 1, Config{SampleShift: -1, Clock: c.read})
	p := col.Shard(0)
	p.BatchStart()
	p.StepStart()
	p.Stamp(StageEncode)
	p.StepEnd()
	p.BatchEnd()
	col.Join()

	snap := reg.Snapshot("t")
	if v, ok := snap.Get(`prof_stage_ns_total{engine="mirror",shard="0",stage="encode"}`); !ok || v != 10 {
		t.Errorf("encode mirror = %v (ok=%v), want 10", v, ok)
	}
	if v, ok := snap.Get(`prof_sampled_steps_total{engine="mirror"}`); !ok || v != 1 {
		t.Errorf("sampled mirror = %v (ok=%v), want 1", v, ok)
	}
	if _, ok := snap.Get(`prof_barrier_wait_ns_total{engine="mirror",shard="0"}`); !ok {
		t.Error("barrier mirror missing")
	}
}

func TestStepRingLapsAndHistogramSync(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := &fakeClock{step: 1000}
	col := New(reg, "ring", 1, Config{SampleShift: -1, RingSize: 4, Clock: c.read})
	p := col.Shard(0)
	for i := 0; i < 10; i++ {
		p.StepStart()
		p.Stamp(StageEncode)
		p.StepEnd()
	}
	if got := len(p.RecentStepNs()); got != 4 {
		t.Fatalf("ring retains %d entries, want 4", got)
	}
	col.Sync()
	snap := reg.Snapshot("t")
	// Only the retained window is observable after a lap.
	if v, _ := snap.Get(`prof_step_ns_count{engine="ring"}`); v != 4 {
		t.Errorf("histogram count = %v, want 4 (retained window)", v)
	}
	// A second sync with no new steps adds nothing.
	col.Sync()
	snap = reg.Snapshot("t")
	if v, _ := snap.Get(`prof_step_ns_count{engine="ring"}`); v != 4 {
		t.Errorf("histogram count after idle sync = %v, want 4", v)
	}
}

func TestSessionWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	s, err := StartSession(dir, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A little labelled work so the CPU profile has something to hold.
	Do("phase", "test", func() {
		x := 0
		for i := 0; i < 1_000_000; i++ {
			x += i
		}
		_ = x
	})
	files, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"cpu.pprof": true, "heap.pprof": true,
		"allocs.pprof": true, "mutex.pprof": true, "block.pprof": true,
		"goroutine.pprof": true}
	for _, f := range files {
		delete(want, f)
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile", f)
		}
	}
	for f := range want {
		t.Errorf("session did not report %s", f)
	}
}

func TestWriteSnapshotTagged(t *testing.T) {
	dir := t.TempDir()
	files, err := WriteSnapshot(dir, "flight-oam")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("wrote %d profiles, want 5: %v", len(files), files)
	}
	for _, f := range files {
		if filepath.Ext(f) != ".pprof" {
			t.Errorf("unexpected file %s", f)
		}
		if got := f[:11]; got != "flight-oam-" {
			t.Errorf("file %s not tagged flight-oam-", f)
		}
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}
