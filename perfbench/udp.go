package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	gigapos "repro"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// udp-closed-loop: two supervised Links on TransportPorts over one real
// UDP socket pair on 127.0.0.1 — the host loopback interface, not a
// real link. Seeded IMIX at 2% escapes flows a→z with a fixed window of
// datagrams in flight; each carries its sequence number and counts only
// when it is delivered byte-identical. Syscalls, the socket reader
// goroutines and small-frame cost dominate.

const (
	udpWindow   = 8    // datagrams in flight
	udpPool     = 1200 // a multiple of the 12-datagram IMIX block
	udpDensity  = 0.02
	udpTick     = int64(100 * time.Microsecond) // wall time per virtual tick
	udpLossWait = int64(200 * time.Millisecond) // loop time in flight without progress: lost
	udpTurnMax  = int64(time.Millisecond)       // the most one loop turn adds to that wait
	udpBringUp  = int64(10 * time.Second)
	udpSeqAt    = 12 // the sequence number overwrites the IPv4 source address
)

type udpSpec struct {
	pool [][]byte
	// wrap, when set, interposes on the a side's transport (the
	// negative test's fault injector).
	wrap func(transport.LineTransport) transport.LineTransport
}

func newUDP(seed uint64) *udpSpec { return &udpSpec{pool: imixPool(seed, udpPool)} }

// imixBlock is the simple IMIX — 7×40, 4×576 and 1×1500 octets — in a
// fixed interleaved order.
var imixBlock = [12]int{40, 576, 40, 40, 576, 40, 1500, 40, 576, 40, 40, 576}

// imixPool generates n seeded datagrams at 2% escapes (n a multiple of
// 12), sized block by block in imixBlock's order. The seed sets the
// contents; the sizes and their order are the same for every seed, so
// neither the mean size — which sets goodput where per-frame cost
// dominates — nor the queueing order behind a 1500-octet frame, which
// sets latency on rtl-p5, varies with it.
func imixPool(seed uint64, n int) [][]byte {
	g := netsim.NewGen(seed, nil, udpDensity)
	pool := make([][]byte, n)
	for i := range pool {
		g.Size = netsim.Fixed(imixBlock[i%len(imixBlock)])
		pool[i] = g.Next()
	}
	return pool
}

func (s *udpSpec) wire() ([][]byte, error) { return encodePool(s.pool, udpWindow) }

func (s *udpSpec) setup() (runner, error) {
	// Keepalives run every 10 ms for the RTT samples; dead-peer
	// detection is pushed out to 10 s so a descheduled process is never
	// mistaken for a cut line.
	cfg := transport.Config{KeepalivePeriod: 100, KeepaliveMisses: 1000, RetryMin: 8, RetryMax: 64}
	ln, err := transport.NewUDP(transport.UDPConfig{Config: cfg, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	dl, err := transport.NewUDP(transport.UDPConfig{Config: cfg, DialAddr: ln.LocalAddr().String()})
	if err != nil {
		ln.Close()
		return nil, err
	}
	var ta transport.LineTransport = ln
	if s.wrap != nil {
		ta = s.wrap(ln)
	}
	// RestartPeriod must exceed the socket round trip in ticks, or every
	// Configure-Ack arrives after its request's ID has been retired. At
	// 500 ticks (50 ms) it does so with a wide margin: at 24 ticks, with
	// both CPUs busy, bring-up never converged.
	la := gigapos.NewLink(gigapos.LinkConfig{Magic: 0xC0000001, IPAddr: [4]byte{10, 9, 0, 1},
		Supervise: true, RetryMin: 8, RetryMax: 64, RestartPeriod: 500})
	lz := gigapos.NewLink(gigapos.LinkConfig{Magic: 0xC0000002, IPAddr: [4]byte{10, 9, 0, 2},
		Supervise: true, RetryMin: 8, RetryMax: 64, RestartPeriod: 500})
	for _, l := range []*gigapos.Link{la, lz} {
		l.Open()
		l.Up()
	}
	r := &udpRunner{ln: ln, dl: dl, pa: gigapos.NewTransportPort(la, ta), pz: gigapos.NewTransportPort(lz, dl),
		base: clock(), pool: s.pool}
	for !(la.IPReady() && lz.IPReady()) {
		if clock()-r.base > udpBringUp {
			r.close()
			return nil, fmt.Errorf("links not IP-ready over UDP after %v", time.Duration(udpBringUp))
		}
		now := r.tick()
		r.pa.Tick(now)
		r.pz.Tick(now)
		runtime.Gosched()
	}
	return r, nil
}

type udpRunner struct {
	ln, dl *transport.UDP
	pa, pz *gigapos.TransportPort
	base   int64
	pool   [][]byte
	buf    []byte

	sent, next uint64 // next sequence number to send; oldest in flight
	sendAt     [udpWindow]int64
	// waited is the loop time spent since the last progress with
	// datagrams in flight; lastTurn is the clock of the previous turn.
	// A turn adds at most udpTurnMax, so a loop that was descheduled —
	// by the host or by Go — while the datagrams sat in the socket does
	// not have them declared lost before the reader has run again.
	waited, lastTurn int64
	delivered        uint64
	rx               []gigapos.Datagram
}

// tick maps wall time onto the links' virtual clock.
func (r *udpRunner) tick() int64 { return (clock()-r.base)/udpTick + 1 }

func (r *udpRunner) step(t *tally) { r.exchange(t, true) }

// exchange runs one loop turn: refill the window, flush both ports,
// poll both, and check what z delivered.
func (r *udpRunner) exchange(t *tally, send bool) {
	tr := t.tr
	now := r.tick()
	c := tr.begin()
	r.pa.Link.Advance(now)
	r.pz.Link.Advance(now)
	tr.end(spAdvance, c, 2)
	for send && r.sent-r.next < udpWindow {
		d := r.pool[r.sent%udpPool]
		r.buf = append(r.buf[:0], d...)
		binary.BigEndian.PutUint32(r.buf[udpSeqAt:], uint32(r.sent))
		t.attempted++
		at := clock()
		if err := r.pa.Link.SendIPv4(r.buf); err != nil {
			break // refused: attempted, never delivered
		}
		tr.end(spSend, at, 1)
		r.sendAt[r.sent%udpWindow] = at
		if r.sent == r.next {
			r.waited = 0
		}
		r.sent++
	}
	c = tr.begin()
	t.line += uint64(r.pa.Flush() + r.pz.Flush())
	c = tr.end(spFlush, c, 2)
	na, nz := r.pa.Poll(now), r.pz.Poll(now)
	c = tr.end(spPoll, c, 2)
	if tr != nil {
		tr.polls += 2
		tr.emptyPolls += int64(btoi(na == 0) + btoi(nz == 0))
	}
	r.rx = r.pz.Link.ReceivedInto(r.rx[:0])
	tr.end(spDrain, c, len(r.rx))
	done := clock()
	turn := min(done-r.lastTurn, udpTurnMax)
	r.lastTurn = done
	for i := range r.rx {
		r.deliver(t, r.rx[i].Payload, done)
	}
	// The loop spins rather than yields while it waits: a Gosched per
	// empty poll halves goodput, as the reader goroutines then wait
	// behind the scheduler.
	if len(r.rx) == 0 && r.sent > r.next {
		if r.waited += turn; r.waited > udpLossWait {
			r.next, r.waited = r.sent, 0 // the whole window is lost
		}
	}
}

// deliver checks one datagram z received. The transport drops reordered
// chunks, so arrivals are in sequence order: anything skipped over is
// lost, and counts as failed by never being delivered.
func (r *udpRunner) deliver(t *tally, p []byte, now int64) {
	if len(p) < udpSeqAt+4 {
		t.fail("runt datagram delivered")
		return
	}
	off := binary.BigEndian.Uint32(p[udpSeqAt:]) - uint32(r.next)
	if uint64(off) >= r.sent-r.next {
		return // arrived after it was declared lost: it stays lost
	}
	seq := r.next + uint64(off)
	r.next, r.waited = seq+1, 0
	want := r.pool[seq%udpPool]
	if !bytes.Equal(p[:udpSeqAt], want[:udpSeqAt]) || !bytes.Equal(p[udpSeqAt+4:], want[udpSeqAt+4:]) {
		t.fail(fmt.Sprintf("datagram %d delivered with different bytes", seq))
		return
	}
	r.delivered++
	t.delivered++
	t.payload += uint64(len(p))
	t.observe(now - r.sendAt[seq%udpWindow])
}

func (r *udpRunner) settle(t *tally) {
	for r.sent > r.next {
		r.exchange(t, false)
	}
	if n := r.ln.Stats().Resets + r.dl.Stats().Resets; n != 0 {
		t.fail(fmt.Sprintf("%d transport resets", n))
	}
}

func (r *udpRunner) layers(t *tally, m map[string]float64) {
	sa, sz := r.ln.Stats(), r.dl.Stats()
	m["link.rx_errors"] = float64(r.pa.Link.RxErrors + r.pz.Link.RxErrors)
	m["transport.chunks_per_dgram"] = ratio(float64(sa.TxChunks), float64(r.delivered))
	m["transport.queue_high_water"] = float64(max(sa.QueueHighWater, sz.QueueHighWater))
	m["transport.tx_dropped"] = float64(sa.TxDropped + sz.TxDropped)
	m["transport.rx_dropped"] = float64(sa.RxDropped + sz.RxDropped)
	m["transport.resets"] = float64(sa.Resets + sz.Resets)
	// Data flows a→z, so z (the dialer) holds the one-way samples.
	m["transport.oneway_p50_us"] = float64(r.dl.Latency().OneWayP50US)
	m["transport.rtt_p50_us"] = float64(r.ln.Latency().RTTP50US)
	if tr := t.tr; tr != nil {
		m["link.advance_ns"] = tr.spans[spAdvance].perUnit()
		m["link.send_ns_per_dgram"] = tr.spans[spSend].perUnit()
		m["link.drain_ns_per_dgram"] = tr.spans[spDrain].perUnit()
		m["transport.flush_ns"] = tr.spans[spFlush].perUnit()
		m["transport.poll_ns"] = tr.spans[spPoll].perUnit()
		m["transport.empty_poll_share"] = ratio(float64(tr.emptyPolls), float64(tr.polls))
	}
}

func (r *udpRunner) close() {
	r.ln.Close()
	r.dl.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
