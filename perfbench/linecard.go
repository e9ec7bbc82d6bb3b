package main

import (
	"bytes"
	"fmt"
	"runtime"

	gigapos "repro"
	"repro/internal/prof"
	"repro/internal/transport"
)

// linecard: the sharded Engine with 8 loopback link pairs, Shards =
// nproc, carrying the engine's own 512-octet traffic both ways. Per-frame
// cost, Link.Advance and sharding dominate; the byte kernels run their
// fast paths on clean octets. The engine makes its own payload, so the
// seed does not change this workload.

const (
	linecardLinks = 8
	linecardSize  = 512 // datagram octets (EngineConfig.PayloadSize)
	linecardBatch = 8   // datagrams per endpoint per step
	linecardChunk = 8   // engine steps per Run call
	// linecardFrames is what every step must deliver: a batch from
	// each end of every pair.
	linecardFrames = 2 * linecardLinks * linecardBatch
)

type linecardSpec struct{ shards int }

func newLinecard(uint64) *linecardSpec { return &linecardSpec{shards: runtime.NumCPU()} }

func (s *linecardSpec) config() gigapos.EngineConfig {
	return gigapos.EngineConfig{Links: linecardLinks, Shards: s.shards, PayloadSize: linecardSize, Batch: linecardBatch}
}

func (s *linecardSpec) setup() (runner, error) {
	e := gigapos.NewEngine(s.config())
	if res := e.BringUp(1024); !res.Ready {
		e.Close()
		return nil, fmt.Errorf("engine bring-up: %v", res)
	}
	return &engineRunner{e: e, shards: s.shards, last: e.Stats()}, nil
}

// wire records the a→z stream of one engine port by carrying it over an
// in-process pipe whose sending end keeps a copy of every chunk.
func (s *linecardSpec) wire() ([][]byte, error) {
	rec := &recorder{}
	cfg := s.config()
	cfg.Links, cfg.Shards = 1, 1
	cfg.Transport = func(int) (a, z transport.LineTransport) {
		pa, pz := transport.NewPipePair()
		rec.LineTransport = pa
		return rec, pz
	}
	e := gigapos.NewEngine(cfg)
	defer e.Close()
	if res := e.BringUp(1024); !res.Ready {
		return nil, fmt.Errorf("engine bring-up: %v", res)
	}
	rec.on = true
	e.Run(64)
	return rec.chunks, nil
}

// recorder keeps a copy of every chunk sent while on.
type recorder struct {
	transport.LineTransport
	on     bool
	chunks [][]byte
}

func (r *recorder) Send(p []byte) error {
	if r.on {
		r.chunks = append(r.chunks, bytes.Clone(p))
	}
	return r.LineTransport.Send(p)
}

type engineRunner struct {
	e      *gigapos.Engine
	shards int
	last   gigapos.EngineStats

	// The traced phase arms the engine's own stage profile, which
	// times the Link calls inside each shard worker.
	prof  *prof.Collector
	armed gigapos.EngineStats // stats when the profile was armed
}

func (r *engineRunner) step(t *tally) {
	if t.tr != nil && r.prof == nil {
		r.prof = r.e.ArmProfile(nil, "perfbench", prof.Config{SampleShift: -1})
		r.armed = r.last
	}
	t0 := clock()
	r.e.Run(linecardChunk)
	t1 := clock()
	t.tr.end(spRun, t0, linecardChunk)
	st := r.e.Stats()
	got := st.Datagrams - r.last.Datagrams
	pay := st.PayloadBytes - r.last.PayloadBytes
	t.attempted += linecardChunk * linecardFrames
	t.line += st.LineBytes - r.last.LineBytes
	r.last = st
	if got != linecardChunk*linecardFrames || pay != got*linecardSize {
		t.fail(fmt.Sprintf("%d steps delivered %d datagrams of %d octets, want %d of %d",
			linecardChunk, got, pay, linecardChunk*linecardFrames, linecardChunk*linecardFrames*linecardSize))
		return
	}
	t.delivered += got
	t.payload += pay
	// Every datagram is sent and delivered within one engine step, so
	// the step's wall time is each one's send-to-delivery time.
	for i := 0; i < linecardChunk; i++ {
		t.observe((t1 - t0) / linecardChunk)
	}
}

func (r *engineRunner) settle(t *tally) {
	if r.last.RxErrors != 0 {
		t.fail(fmt.Sprintf("%d damaged frames inside the engine", r.last.RxErrors))
	}
}

func (r *engineRunner) layers(t *tally, m map[string]float64) {
	m["link.rx_errors"] = float64(r.last.RxErrors)
	if t.tr == nil || r.prof == nil {
		return
	}
	steps := float64(r.last.Steps - r.armed.Steps)
	m["engine.step_us"] = t.tr.spans[spRun].perUnit() / 1e3
	m["engine.frames_per_step"] = ratio(float64(r.last.Datagrams-r.armed.Datagrams), steps)

	// Stage costs are summed per shard step; one shard step visits
	// links/shards ports, and a port step advances two links, sends and
	// drains a batch at each, and moves both directions' wire octets.
	s := r.prof.Summary()
	portSteps := float64(s.Sampled) * linecardLinks / float64(r.shards)
	sampledLine := float64(r.last.LineBytes-r.armed.LineBytes) * ratio(float64(s.Sampled), float64(s.Steps))
	m["link.advance_ns"] = ratio(float64(s.StageNs[prof.StageControl]), 2*portSteps)
	m["link.send_ns_per_dgram"] = ratio(float64(s.StageNs[prof.StageEncode]), 2*linecardBatch*portSteps)
	m["link.output_ns"] = ratio(float64(s.StageNs[prof.StageLine]), float64(s.StageCount[prof.StageLine]))
	m["link.input_ns_per_kb"] = ratio(float64(s.StageNs[prof.StageTokenize]), sampledLine/1e3)
	m["link.drain_ns_per_dgram"] = ratio(float64(s.StageNs[prof.StageDrain]), 2*linecardBatch*portSteps)
}

func (r *engineRunner) close() { r.e.Close() }
