package main

import (
	"bytes"
	"fmt"

	"repro/internal/p5"
	"repro/internal/ppp"
)

// rtl-p5: the cycle-accurate 32-bit P5 loopback system fed seeded IMIX
// at 2% escapes in batches, drained after every batch. All the work is
// in the rtl kernel and the p5 units, which no other workload touches.
// Simulated statistics must repeat exactly for a seed.

const (
	rtlWidth = 4   // octets per datapath word: the 32-bit P5
	rtlPool  = 480 // a multiple of the IMIX block and of rtlBatch
	rtlBatch = 16  // datagrams queued per batch
	// rtlFill is the 32-bit transmitter's idle→first-line-word fill in
	// cycles: the Control and CRC stages, then the paper's 4-cycle
	// Escape Generate sorter. (The 8-bit system fills in 4 in all.)
	rtlFill      = 2 + 4
	rtlMaxCycles = 1 << 22
)

type rtlSpec struct{ pool [][]byte }

func newRTL(seed uint64) *rtlSpec { return &rtlSpec{pool: imixPool(seed, rtlPool)} }

func (s *rtlSpec) setup() (runner, error) {
	return &rtlRunner{sys: p5.NewSystem(rtlWidth), pool: s.pool}, nil
}

// wire encodes the same datagrams with the software transmit path, so
// the kernel replays see this workload's frames.
func (s *rtlSpec) wire() ([][]byte, error) { return encodePool(s.pool, rtlBatch) }

type rtlRunner struct {
	sys  *p5.System
	pool [][]byte
	next int
	rx   []p5.RxFrame

	// Per pass over the pool: simulated cycles, line words and payload
	// octets. Every pass must repeat the first exactly.
	passCycles, passWords, passPayload int64
	first                              [3]int64
	passes                             int
	rxErrors                           uint64
	fill                               int64 // last measured fill latency
	simCycles, simNs                   int64 // since the last layers call
}

func (r *rtlRunner) step(t *tally) {
	sys := r.sys
	batch := r.pool[r.next : r.next+rtlBatch]
	for _, d := range batch {
		sys.Send(p5.TxJob{Protocol: ppp.ProtoIPv4, Payload: d})
	}
	t.attempted += rtlBatch
	c0, w0 := sys.Sim.Now(), sys.Line.Words
	t0 := clock()
	seen := 0
	for sys.Busy() && sys.Sim.Now()-c0 < rtlMaxCycles {
		sys.Cycle()
		// Stamp each frame as the receiver hands it over.
		if q := len(sys.Rx.Control.Queue); q > seen {
			now := clock()
			for ; seen < q; seen++ {
				t.observe(now - t0)
			}
		}
	}
	cycles, words := sys.Sim.Now()-c0, int64(sys.Line.Words-w0)
	t.tr.end(spCycle, t0, int(cycles))
	r.simCycles += cycles
	r.simNs += clock() - t0
	t.line += uint64(words * rtlWidth)
	r.fill = sys.FillLatency
	if r.fill != rtlFill {
		t.fail(fmt.Sprintf("fill latency %d cycles, want %d", r.fill, rtlFill))
	}

	r.rx = sys.ReceivedInto(r.rx[:0])
	var pay int64
	j := 0
	for _, f := range r.rx {
		if f.Err != nil {
			r.rxErrors++
			continue
		}
		for j < len(batch) && !bytes.Equal(f.Frame.Payload, batch[j]) {
			j++
		}
		if j == len(batch) || f.Frame.Protocol != ppp.ProtoIPv4 {
			t.fail("delivered frame matches none sent")
			continue
		}
		t.delivered++
		pay += int64(len(batch[j]))
		j++
	}
	t.payload += uint64(pay)
	if len(r.rx) != rtlBatch || r.rxErrors != 0 {
		t.fail(fmt.Sprintf("batch of %d delivered %d frames (%d errored so far)", rtlBatch, len(r.rx), r.rxErrors))
	}

	r.passCycles += cycles
	r.passWords += words
	r.passPayload += pay
	if r.next += rtlBatch; r.next == len(r.pool) {
		r.next = 0
		got := [3]int64{r.passCycles, r.passWords, r.passPayload}
		if r.passes == 0 {
			r.first = got
		} else if got != r.first {
			t.fail(fmt.Sprintf("pass %d simulated %v (cycles, words, octets), first pass %v", r.passes, got, r.first))
		}
		r.passes++
		r.passCycles, r.passWords, r.passPayload = 0, 0, 0
	}
}

func (r *rtlRunner) settle(t *tally) {}

func (r *rtlRunner) layers(t *tally, m map[string]float64) {
	m["p5.fill_latency_cycles"] = float64(r.fill)
	m["p5.rx_errors"] = float64(r.rxErrors)
	if r.passes > 0 {
		m["p5.bits_per_cycle"] = ratio(float64(r.first[2]*8), float64(r.first[0]))
		m["p5.line_utilisation"] = ratio(float64(r.first[1]), float64(r.first[0]))
	}
	if tr := t.tr; tr != nil {
		m["rtl.ns_per_cycle"] = tr.spans[spCycle].perUnit()
	} else {
		m["rtl.sim_kcycles_per_s"] = ratio(float64(r.simCycles), float64(r.simNs)) * 1e6
	}
	r.simCycles, r.simNs = 0, 0
}

func (r *rtlRunner) close() {}
