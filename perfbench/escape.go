package main

import (
	"bytes"
	"fmt"

	gigapos "repro"
	"repro/internal/netsim"
)

// worstcase-escape: one in-process Link pair carrying seeded 1500-octet
// datagrams at 50% flag/escape density a→z, encoded and decoded in the
// same loop. HDLC stuffing and the tokenizer's escape path dominate;
// the engine and transport are bypassed.

const (
	escapeSize    = 1500
	escapeDensity = 0.5
	escapePool    = 256 // datagrams generated per seed, sent round-robin
	escapeBatch   = 8   // datagrams per SendIPv4Batch
)

type escapeSpec struct {
	pool [][]byte
	// flipEvery, when non-zero, corrupts one a→z wire octet every
	// flipEvery steps (the negative test's fault).
	flipEvery int
}

func newEscape(seed uint64) *escapeSpec {
	g := netsim.NewGen(seed, netsim.Fixed(escapeSize), escapeDensity)
	pool := make([][]byte, escapePool)
	for i := range pool {
		pool[i] = g.Next()
	}
	return &escapeSpec{pool: pool}
}

// newLinkPair builds two Links wired back to back and brings them up
// through LCP and IPCP in virtual time. It returns the pair and the
// virtual time reached.
func newLinkPair() (a, z *gigapos.Link, now int64, err error) {
	a = gigapos.NewLink(gigapos.LinkConfig{Magic: 0xB0000001, IPAddr: [4]byte{10, 8, 0, 1}})
	z = gigapos.NewLink(gigapos.LinkConfig{Magic: 0xB0000002, IPAddr: [4]byte{10, 8, 0, 2}})
	a.Open()
	a.Up()
	z.Open()
	z.Up()
	for now = 1; now <= 1024; now++ {
		a.Advance(now)
		z.Advance(now)
		z.Input(a.Output())
		a.Input(z.Output())
		if a.IPReady() && z.IPReady() {
			return a, z, now, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("link pair not IP-ready after %d ticks", now)
}

func (s *escapeSpec) setup() (runner, error) {
	a, z, now, err := newLinkPair()
	if err != nil {
		return nil, err
	}
	return &pairRunner{a: a, z: z, now: now, pool: s.pool, flipEvery: s.flipEvery}, nil
}

func (s *escapeSpec) wire() ([][]byte, error) { return encodePool(s.pool, escapeBatch) }

// encodePool runs pool through a fresh Link pair's transmit side in
// batches and returns the a→z wire stream, one chunk per Output.
func encodePool(pool [][]byte, batch int) ([][]byte, error) {
	a, _, _, err := newLinkPair()
	if err != nil {
		return nil, err
	}
	var chunks [][]byte
	for i := 0; i < len(pool); i += batch {
		if _, err := a.SendIPv4Batch(pool[i:min(i+batch, len(pool))]); err != nil {
			return nil, err
		}
		chunks = append(chunks, bytes.Clone(a.Output()))
	}
	return chunks, nil
}

type pairRunner struct {
	a, z      *gigapos.Link
	now       int64
	pool      [][]byte
	next      int
	rx        []gigapos.Datagram
	flipEvery int
	steps     int
}

func (r *pairRunner) step(t *tally) {
	tr := t.tr
	r.now++
	r.steps++
	c := tr.begin()
	r.a.Advance(r.now)
	r.z.Advance(r.now)
	tr.end(spAdvance, c, 2)

	batch := r.pool[r.next : r.next+escapeBatch]
	r.next = (r.next + escapeBatch) % len(r.pool)
	t.attempted += uint64(len(batch))
	sendAt := clock()
	sent, _ := r.a.SendIPv4Batch(batch)
	c = tr.end(spSend, sendAt, sent)
	out := r.a.Output()
	c = tr.end(spOutput, c, 1)
	t.line += uint64(len(out))
	if r.flipEvery > 0 && r.steps%r.flipEvery == 0 && len(out) > 0 {
		out[len(out)/2] ^= 0x01
	}
	r.z.Input(out)
	c = tr.end(spInput, c, len(out))
	r.rx = r.z.ReceivedInto(r.rx[:0])
	tr.end(spDrain, c, len(r.rx))
	done := clock()

	// Control traffic back to a (none once both ends are opened).
	if back := r.z.Output(); len(back) > 0 {
		t.line += uint64(len(back))
		r.a.Input(back)
	}
	// Every datagram of the batch must arrive, in order, byte-identical;
	// a lost one is skipped over, so only it counts as failed.
	j := 0
	for i := range r.rx {
		for j < sent && !bytes.Equal(r.rx[i].Payload, batch[j]) {
			j++
		}
		if j == sent {
			t.fail("delivered datagram matches none sent")
			continue
		}
		t.delivered++
		t.payload += uint64(len(batch[j]))
		t.observe(done - sendAt)
		j++
	}
	if len(r.rx) != sent {
		t.fail(fmt.Sprintf("sent %d datagrams, %d delivered", sent, len(r.rx)))
	}
}

func (r *pairRunner) settle(t *tally) {
	if n := r.a.RxErrors + r.z.RxErrors; n != 0 {
		t.fail(fmt.Sprintf("%d damaged frames on the in-process line", n))
	}
}

func (r *pairRunner) layers(t *tally, m map[string]float64) {
	m["link.rx_errors"] = float64(r.a.RxErrors + r.z.RxErrors)
	if tr := t.tr; tr != nil {
		m["link.advance_ns"] = tr.spans[spAdvance].perUnit()
		m["link.send_ns_per_dgram"] = tr.spans[spSend].perUnit()
		m["link.output_ns"] = tr.spans[spOutput].perCall()
		m["link.input_ns_per_kb"] = tr.spans[spInput].perUnit() * 1e3
		m["link.drain_ns_per_dgram"] = tr.spans[spDrain].perUnit()
	}
}

func (r *pairRunner) close() {}
