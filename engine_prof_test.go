package gigapos

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/prof"
	"repro/internal/telemetry"
)

// TestEngineProfileStageAccounting arms the observatory on a small
// engine and checks that every stage of the worker loop gets charged,
// the barrier accounting runs at each Run join, and the telemetry
// series come out labelled per shard and stage.
func TestEngineProfileStageAccounting(t *testing.T) {
	e := NewEngine(EngineConfig{Links: 4, Shards: 2, PayloadSize: 256, Batch: 4})
	defer e.Close()
	reg := telemetry.NewRegistry()
	col := e.ArmProfile(reg, "test", prof.Config{SampleShift: -1}) // stamp every step
	if !e.BringUp(512).Ready {
		t.Fatal("engine bring-up failed")
	}
	e.Run(64)

	sum := col.Summary()
	if sum.Sampled == 0 {
		t.Fatal("no steps were sampled with SampleShift=-1")
	}
	for _, st := range []prof.Stage{prof.StageControl, prof.StageEncode,
		prof.StageLine, prof.StageTokenize, prof.StageDrain, prof.StageDeliver} {
		if sum.StageCount[st] == 0 {
			t.Errorf("stage %v: no stamps", st)
		}
	}
	if sum.StageCount[prof.StageBarrier] == 0 {
		t.Error("no barrier joins accounted")
	}

	snap := reg.Snapshot("prof")
	for _, series := range []string{
		`prof_stage_ns_total{engine="test",shard="0",stage="encode"}`,
		`prof_stage_ns_total{engine="test",shard="1",stage="tokenize"}`,
		`prof_stage_samples_total{engine="test",shard="0",stage="drain"}`,
		`prof_barrier_wait_ns_total{engine="test",shard="0"}`,
		`prof_barrier_joins_total{engine="test",shard="1"}`,
		`prof_sampled_steps_total{engine="test"}`,
		`prof_shard_imbalance{engine="test"}`,
	} {
		if _, ok := snap.Get(series); !ok {
			t.Errorf("series %s missing from snapshot", series)
		}
	}
	if v, _ := snap.Get(`prof_sampled_steps_total{engine="test"}`); v == 0 {
		t.Error("prof_sampled_steps_total = 0")
	}
	// The step-cost histogram flattens into _bucket/_sum/_count.
	if v, _ := snap.Get(`prof_step_ns_count{engine="test"}`); v == 0 {
		t.Error("prof_step_ns histogram took no observations")
	}
}

// TestEngineProfileDisarmedZeroSamples is the hot-path guard: an
// engine that was never armed holds nil shard profiles — the only
// disarmed state — and runs without reading a profile clock; arming
// must take no sample until the next Run, and then take samples. The
// injected clock counts its own calls to prove it.
func TestEngineProfileDisarmedZeroSamples(t *testing.T) {
	var calls atomic.Int64
	clock := func() int64 { return calls.Add(1) }
	e := NewEngine(EngineConfig{Links: 2, Shards: 2, PayloadSize: 128, Batch: 2})
	defer e.Close()
	e.Run(128)
	if e.Profile() != nil {
		t.Fatal("unarmed engine has a profile collector")
	}
	e.ArmProfile(nil, "guard", prof.Config{SampleShift: -1, Clock: clock})
	if n := calls.Load(); n != 0 {
		t.Fatalf("arming took %d clock samples, want 0", n)
	}
	// Sanity: the armed engine takes samples, so the zero above means
	// "not yet run", not "disconnected".
	e.Run(8)
	if calls.Load() == 0 {
		t.Fatal("armed engine took no clock samples — the guard test is vacuous")
	}
}

// TestEngineProfiledSteadyZeroAlloc pins the armed steady state at
// zero allocations per Run — stage accounting must ride the existing
// zero-alloc fast path without touching the garbage collector, even
// when stamping every step.
func TestEngineProfiledSteadyZeroAlloc(t *testing.T) {
	e := NewEngine(EngineConfig{Links: 2, Shards: 1, PayloadSize: 256, Batch: 4})
	defer e.Close()
	reg := telemetry.NewRegistry()
	e.ArmProfile(reg, "zeroalloc", prof.Config{SampleShift: -1})
	if !e.BringUp(512).Ready {
		t.Fatal("engine bring-up failed")
	}
	e.Run(64) // settle buffers and lap the step ring once
	allocs := testing.AllocsPerRun(50, func() { e.Run(1) })
	if allocs != 0 {
		t.Fatalf("armed steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestEngineProfileSummaryString smoke-tests the report rendering the
// p5sim -prof mode prints.
func TestEngineProfileSummaryString(t *testing.T) {
	e := NewEngine(EngineConfig{Links: 1, PayloadSize: 128, Batch: 2})
	defer e.Close()
	col := e.ArmProfile(nil, "s", prof.Config{SampleShift: -1})
	if !e.BringUp(512).Ready {
		t.Fatal("engine bring-up failed")
	}
	e.Run(16)
	s := col.Summary().String()
	for _, want := range []string{"encode", "tokenize", "barrier", "sampled="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
