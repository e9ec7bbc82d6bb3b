package topo

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sonet"
)

// The test traffic alphabet cycles 1..113: never zero (LOS fill),
// never 0x7E (idle flags) and never 0xFF (AIS), so impairments and
// fill are separable from payload by value.
const alphabet = 113

type pattern struct{ next byte }

func (p *pattern) fill(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if p.next == 0 {
			p.next = 1
		}
		out[i] = p.next
		p.next++
		if p.next > alphabet {
			p.next = 1
		}
	}
	return out
}

// analyse filters a drop stream into payload and counts fill, AIS,
// out-of-alphabet corruption, and sequence breaks (positions where the
// payload does not continue the cyclic counter).
type analysis struct {
	payload         []byte
	fill, ais, junk int
	breaks          int
	sinceBreak      int // payload octets since the last break
}

func analyse(stream []byte) *analysis {
	a := &analysis{}
	var prev byte
	for _, b := range stream {
		switch {
		case b == idleOctet:
			a.fill++
		case b == aisOctet:
			a.ais++
		case b == 0 || b > alphabet:
			a.junk++
		default:
			if prev != 0 {
				want := prev + 1
				if want > alphabet {
					want = 1
				}
				if b != want {
					a.breaks++
					a.sinceBreak = 0
				}
			}
			prev = b
			a.payload = append(a.payload, b)
			a.sinceBreak++
		}
	}
	return a
}

// run drives the ring for ticks, feeding perTick pattern octets into
// src each tick and collecting dst's drop stream.
func run(t *testing.T, r *Ring, src, dst *Port, pat *pattern, from, ticks int64, perTick int) []byte {
	t.Helper()
	var got []byte
	for now := from; now < from+ticks; now++ {
		src.Send(pat.fill(perTick))
		r.Tick(now)
		got = dst.Recv(got)
	}
	return got
}

func TestUPSRCleanRingDelivers(t *testing.T) {
	r, err := NewRing(Config{Nodes: 4, Mode: UPSR})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(Circuit{Name: "a-b", A: 0, B: 2, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	var pat pattern
	got := analyse(run(t, r, pa, pb, &pat, 0, 50, 256))
	if len(got.payload) < 40*256 {
		t.Fatalf("delivered %d payload octets of ~%d sent", len(got.payload), 50*256)
	}
	if got.breaks != 0 || got.junk != 0 || got.ais != 0 {
		t.Fatalf("clean ring: breaks=%d junk=%d ais=%d", got.breaks, got.junk, got.ais)
	}
	if pb.Down() || pb.Switches != 0 {
		t.Fatalf("clean ring: down=%v switches=%d", pb.Down(), pb.Switches)
	}
	if pa.Down() {
		t.Fatal("clean ring: reverse direction down")
	}
}

func TestUPSRDelayedJitteredRingDelivers(t *testing.T) {
	r, err := NewRing(Config{Nodes: 4, Mode: UPSR, Delay: 3, Jitter: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(Circuit{Name: "a-b", A: 0, B: 2, Slot: 1})
	if err != nil {
		t.Fatal(err)
	}
	var pat pattern
	got := analyse(run(t, r, pa, pb, &pat, 0, 80, 256))
	if got.breaks != 0 || got.junk != 0 {
		t.Fatalf("jittered ring: breaks=%d junk=%d", got.breaks, got.junk)
	}
	if len(got.payload) < 50*256 {
		t.Fatalf("delivered only %d payload octets", len(got.payload))
	}
}

// cutBoth installs LOS scripts covering both directions of the fibre
// between u and v from tick from for the given duration (0 = to end).
func cutBoth(t *testing.T, r *Ring, u, v int, from, ticks int64) {
	t.Helper()
	uv, vu, err := r.SpansBetween(u, v)
	if err != nil {
		t.Fatal(err)
	}
	fb := int64(r.Cfg.Level.FrameBytes())
	for _, s := range []*Span{uv, vu} {
		var sc fault.Script
		sc.LOS(from*fb, int(ticks*fb))
		s.SetScript(&sc)
	}
}

func TestUPSRSingleCutSwitchesHitless(t *testing.T) {
	r, err := NewRing(Config{Nodes: 4, Mode: UPSR})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(Circuit{Name: "a-b", A: 0, B: 2, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the fibre between 1 and 2 — on the East path 0→1→2 — from
	// tick 100 to the end of the run.
	const cutAt = 100
	cutBoth(t, r, 1, 2, cutAt, 10000)

	var pat pattern
	var got []byte
	for now := int64(0); now < 400; now++ {
		pa.Send(pat.fill(256))
		r.Tick(now)
		got = pb.Recv(got)
		if pb.Down() {
			t.Fatalf("tick %d: single cut squelched the circuit", now)
		}
	}
	if pb.Switches != 1 {
		t.Fatalf("switches = %d, want 1", pb.Switches)
	}
	if pb.Selected() != West {
		t.Fatalf("selected %v after East-path cut", pb.Selected())
	}
	if d := pb.LastSwitchAt - cutAt; d < 0 || d > 400 {
		t.Fatalf("switch at %+d ticks from the cut, budget 400", d)
	}
	a := analyse(got)
	if a.junk != 0 {
		t.Fatalf("%d corrupted payload octets delivered", a.junk)
	}
	if a.breaks > 4 {
		t.Fatalf("%d stream breaks, want the cut's splice only", a.breaks)
	}
	if a.sinceBreak < 50*256 {
		t.Fatalf("only %d contiguous octets since the last break — traffic did not stabilise on the protect path", a.sinceBreak)
	}
}

func TestUPSRDualCutSquelchesIsolatedNode(t *testing.T) {
	r, err := NewRing(Config{Nodes: 4, Mode: UPSR})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(Circuit{Name: "main", A: 0, B: 2, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	qa, qb, err := r.AddCircuit(Circuit{Name: "doomed", A: 1, B: 3, Slot: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the fibres 2↔3 and 3↔0: node 3 is isolated.
	cutBoth(t, r, 2, 3, 100, 10000)
	cutBoth(t, r, 3, 0, 100, 10000)

	var patP, patQ pattern
	var gotB []byte
	for now := int64(0); now < 600; now++ {
		pa.Send(patP.fill(256))
		qa.Send(patQ.fill(256))
		r.Tick(now)
		gotB = pb.Recv(gotB)
		qb.Recv(nil)
	}
	if !qa.Down() {
		t.Fatal("circuit to the isolated node not squelched at the surviving end")
	}
	if pb.Down() || pa.Down() {
		t.Fatal("surviving circuit went down")
	}
	a := analyse(gotB)
	if a.junk != 0 {
		t.Fatalf("surviving circuit delivered %d corrupted octets", a.junk)
	}
	if a.breaks > 4 {
		t.Fatalf("surviving circuit saw %d breaks", a.breaks)
	}
	if a.sinceBreak < 50*256 {
		t.Fatalf("surviving circuit not stable after the cuts: %d contiguous octets", a.sinceBreak)
	}
}

func TestUPSRNodeFailureSwitchesAroundIt(t *testing.T) {
	r, err := NewRing(Config{Nodes: 4, Mode: UPSR})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(Circuit{Name: "a-b", A: 0, B: 2, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	var pat pattern
	var got []byte
	for now := int64(0); now < 400; now++ {
		if now == 100 {
			r.Node(1).Failed = true
		}
		pa.Send(pat.fill(256))
		r.Tick(now)
		got = pb.Recv(got)
	}
	if pb.Down() {
		t.Fatal("node failure on one path squelched a dual-fed circuit")
	}
	if pb.Switches != 1 || pb.Selected() != West {
		t.Fatalf("switches=%d selected=%v", pb.Switches, pb.Selected())
	}
	a := analyse(got)
	if a.junk != 0 || a.sinceBreak < 50*256 {
		t.Fatalf("junk=%d contiguous=%d", a.junk, a.sinceBreak)
	}
}

func TestBLSRSpanCutWrapsAndDelivers(t *testing.T) {
	r, err := NewRing(Config{Nodes: 4, Mode: BLSR, WTR: 50})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(Circuit{Name: "a-b", A: 0, B: 2, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	const cutAt = 150
	cutBoth(t, r, 1, 2, cutAt, 10000)

	var pat pattern
	var got []byte
	var wrappedAt int64 = -1
	for now := int64(0); now < 800; now++ {
		pa.Send(pat.fill(256))
		r.Tick(now)
		got = pb.Recv(got)
		if wrappedAt < 0 && r.Node(1).RingAPS().Wrapped(East) && r.Node(2).RingAPS().Wrapped(West) {
			wrappedAt = now
		}
	}
	if wrappedAt < 0 {
		t.Fatal("ring never wrapped at the failure-adjacent nodes")
	}
	if d := wrappedAt - cutAt; d > 400 {
		t.Fatalf("wrap took %d ticks, budget 400", d)
	}
	if pb.Down() {
		t.Fatal("wrapped circuit reported down")
	}
	a := analyse(got)
	if a.junk != 0 {
		t.Fatalf("%d corrupted octets through the wrap", a.junk)
	}
	if a.sinceBreak < 50*256 {
		t.Fatalf("traffic did not stabilise through the wrap: %d contiguous octets", a.sinceBreak)
	}
	// The far pair of nodes stays unwrapped (ring switch, not span).
	if r.Node(0).RingAPS().Wrapped(East) || r.Node(3).RingAPS().Wrapped(West) {
		t.Fatal("nodes away from the failure wrapped")
	}
}

func TestBLSRDualCutSquelchesUnreachable(t *testing.T) {
	r, err := NewRing(Config{Nodes: 4, Mode: BLSR, WTR: 50})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := r.AddCircuit(Circuit{Name: "doomed", A: 0, B: 3, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Isolate node 3 entirely.
	cutBoth(t, r, 2, 3, 150, 10000)
	cutBoth(t, r, 3, 0, 150, 10000)
	var pat pattern
	for now := int64(0); now < 800; now++ {
		pa.Send(pat.fill(128))
		r.Tick(now)
		pb.Recv(nil)
		pa.Recv(nil)
	}
	if !pa.Down() {
		t.Fatal("circuit to an isolated node not squelched under BLSR")
	}
	if ok := r.Node(1).RingAPS().Reachable(0, 3, r.Now()); ok {
		t.Fatal("node 1 still believes 3 reachable after learning both cuts")
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(Config{Nodes: 1}); err == nil {
		t.Fatal("accepted a 1-node ring")
	}
	if _, err := NewRing(Config{Nodes: 4, Slots: 7}); err == nil {
		t.Fatal("accepted a slot count that does not divide the payload")
	}
	r, err := NewRing(Config{Nodes: 4, Mode: BLSR})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddCircuit(Circuit{A: 0, B: 2, Slot: 3}); err == nil {
		t.Fatal("BLSR accepted a circuit on protection capacity")
	}
	if _, _, err := r.AddCircuit(Circuit{A: 0, B: 0, Slot: 0}); err == nil {
		t.Fatal("accepted a self-circuit")
	}
	if _, _, err := r.AddCircuit(Circuit{A: 0, B: 2, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.AddCircuit(Circuit{A: 1, B: 3, Slot: 0}); err == nil {
		t.Fatal("accepted a double-provisioned slot")
	}
	_ = sonet.STM1
}
