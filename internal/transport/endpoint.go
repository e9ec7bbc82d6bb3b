package transport

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// endpoint is the socket-independent core of a line transport, embedded
// by UDP and TCP: the mutex and flags, the counters, the bounded send
// queue with epoch/seq stamping, the pooled receive queue behind the
// peer's epoch and sequence cursor, liveness and the keepalive
// schedule, the latency meter and the freeze box. Everything here is
// guarded by mu; the socket files keep only socket I/O.
//
// The seam to the socket is the four per-socket differences and no
// others: how queued records leave (kick), whether a path to the peer
// exists (linked), what a keepalive give-up does beyond marking the
// peer dead (hangUp), and what a new peer epoch means to the socket
// (resync, where UDP latches its return path and counts the
// reconnection; TCP counts reconnections on connection install).
type endpoint struct {
	cfg      Config
	listener bool

	mu     sync.Mutex
	closed bool
	muted  bool
	st     Stats

	sq chunkQueue
	rq rxQueue

	epoch uint32
	seq   uint64

	peerEpoch uint32
	gotEpoch  bool
	peerSeq   uint64

	alive   bool
	rxCount uint64
	tickNow int64

	kaNext   int64
	kaLastRx uint64
	kaMisses int

	lm meter
	fz freezeBox

	// replyBuf is preallocated so answering a probe never allocates.
	replyBuf [HeaderLen + KeepaliveReplyLen]byte

	// linked reports that a path to the peer exists: a known peer
	// address on UDP, an installed connection on TCP.
	linked bool
	// kick makes the queued records leave: UDP writes them inline,
	// TCP wakes its writer. Called with mu held.
	kick func()
	// hangUp, when set, runs after the peer is given up on (TCP drops
	// the connection so the dialer re-dials). Called with mu held.
	hangUp func()
	// resync, when set, runs when an arrival opens a new peer epoch;
	// restart reports that an earlier epoch was known. Called with mu
	// held.
	resync func(restart bool)
}

// init readies the core: a fresh random epoch, the meter and the queue
// bound. kick is the socket's egress hook.
func (e *endpoint) init(cfg Config, listener bool, kick func()) {
	e.cfg = cfg
	e.listener = listener
	e.epoch = uint32(time.Now().UnixNano()) | 1
	e.lm = newMeter(cfg.LatencySampleShift)
	e.sq.limit = cfg.queueLimit()
	e.kick = kick
}

// push queues one encoded record and kicks it toward the socket.
func (e *endpoint) push(rec []byte) {
	e.sq.push(rec)
	e.kick()
}

// Send splits p into MaxChunk-sized records and queues them; a UDP
// endpoint with a known peer flushes them inline, so in the steady
// state a Send is its own batched syscall burst, while TCP hands them
// to its writer goroutine.
func (e *endpoint) Send(p []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	maxChunk := e.cfg.maxChunk()
	for len(p) > 0 {
		n := min(len(p), maxChunk)
		e.seq++
		wall := int64(0)
		if e.lm.stampWall(e.seq) {
			wall = time.Now().UnixNano()
		}
		buf := AppendHeader(e.sq.get(), TypeData, n, e.epoch, e.seq, e.tickNow, wall)
		e.sq.push(append(buf, p[:n]...))
		p = p[n:]
	}
	e.kick()
	return nil
}

// Recv appends the record payloads received since the previous Recv.
func (e *endpoint) Recv(dst [][]byte) [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append(dst, e.rq.drain()...)
}

// Mute simulates a line cut at this endpoint: while muted nothing is
// written to the socket — data holds in the bounded queue (oldest
// dropped), keepalive probes are suppressed — and everything received
// is discarded before liveness accounting, so both ends' dead-peer
// detection sees a genuinely dark line. The chaos adapter drives this
// for scripted blackout windows.
func (e *endpoint) Mute(on bool) {
	e.mu.Lock()
	e.muted = on
	e.kick()
	e.mu.Unlock()
}

// Up reports dead-peer status: true while a path to the peer exists,
// the peer has been heard from, and keepalive has not given up on it.
func (e *endpoint) Up() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.linked && e.alive && !e.closed
}

// Stats returns a snapshot of the endpoint's counters.
func (e *endpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.st
	st.TxDropped += e.sq.dropped // write errors + queue overflow drops
	st.QueueDepth = len(e.sq.bufs)
	st.QueueHighWater = e.sq.highWater
	return st
}

// SendFreeze queues a capture-correlation freeze toward the peer.
func (e *endpoint) SendFreeze(info FreezeInfo) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.fz.queue(info)
	e.flushFreeze(e.tickNow)
}

// Freezes appends and returns the freezes received since the last call.
func (e *endpoint) Freezes(dst []FreezeInfo) []FreezeInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fz.drain(dst)
}

// CorrelationLeader reports whether this end assigns shared incident
// IDs (epoch comparison; the listener wins ties).
func (e *endpoint) CorrelationLeader() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return leader(e.epoch, e.peerEpoch, e.gotEpoch, e.listener)
}

// Latency returns the endpoint's latency summary.
func (e *endpoint) Latency() Latency {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lm.latency()
}

// LatencyHist returns the live latency histograms (µs).
func (e *endpoint) LatencyHist() (oneWay, jitter, rtt *telemetry.Histogram) {
	return e.lm.oneWay, e.lm.jitter, e.lm.rtt
}

// reject counts an arrival whose header failed to decode. A
// version-skewed peer fails here on every record and never marks the
// line alive — keepalive supervision reports it dead, RxBadVersion
// names the cause.
func (e *endpoint) reject(err error) {
	if err == ErrBadVersion {
		e.st.RxBadVersion++
	}
	e.st.RxDropped++
}

// receive is the one handler for every arrival, called with mu held:
// h, payload and derr are the decoded record and rxWall its receive
// wall clock. It returns the answer to a keepalive probe (nil when
// none is due); the socket sends it back toward the probe's source.
// The answer aliases a buffer reused by the next call.
func (e *endpoint) receive(h Header, payload []byte, derr error, rxWall int64) []byte {
	if e.muted {
		// The line is cut: what arrives anyway is lost in the dark
		// window, invisible even to liveness accounting.
		e.st.RxDropped++
		return nil
	}
	if derr != nil {
		e.reject(derr)
		return nil
	}
	e.rxCount++
	e.alive = true
	if !e.gotEpoch || h.Epoch != e.peerEpoch {
		// A new peer, or the peer restarted: resynchronise the cursor.
		if e.resync != nil {
			e.resync(e.gotEpoch)
		}
		e.gotEpoch, e.peerEpoch, e.peerSeq = true, h.Epoch, 0
	}
	e.lm.noteTick(h.Tick, e.tickNow)
	switch h.Type {
	case TypeKeepalive:
		// Answer with the NTP triple: t1 echoed from the probe's wall
		// stamp, t2 our receive clock, t3 our transmit clock.
		if h.Wall == 0 {
			return nil
		}
		reply := AppendHeader(e.replyBuf[:0], TypeKeepaliveReply, KeepaliveReplyLen,
			e.epoch, e.seq, e.tickNow, 0)
		return AppendKeepaliveReplyPayload(reply, h.Wall, rxWall, time.Now().UnixNano())
	case TypeKeepaliveReply:
		if t1, t2, t3, err := DecodeKeepaliveReply(payload); err == nil {
			e.lm.noteReply(t1, t2, t3, rxWall)
		}
		return nil
	case TypeFreeze:
		if inc, trigTick, trigWall, reason, err := DecodeFreeze(payload); err == nil {
			e.fz.note(FreezeInfo{Incident: inc, Reason: reason, Tick: trigTick, WallNs: trigWall})
		}
		return nil
	}
	if h.Seq <= e.peerSeq {
		// Duplicate, reordered behind the delivery cursor, or replayed
		// after a reconnect race: a stale chunk spliced into the HDLC
		// stream would corrupt framing, so it is dropped (loss PPP
		// already absorbs).
		e.st.RxDropped++
		return nil
	}
	e.peerSeq = h.Seq
	e.lm.noteData(h.Wall, rxWall)
	e.rq.push(e.rq.get(payload))
	e.st.RxChunks++
	e.st.RxBytes += uint64(len(payload))
	return nil
}

// lose declares the peer dead: Up turns false, a reset is counted and
// the socket's hangUp runs. Callers hold mu.
func (e *endpoint) lose() {
	e.alive = false
	e.st.Resets++
	if e.hangUp != nil {
		e.hangUp()
	}
}

// keepalive runs one step of the keepalive schedule at tick now: a
// silent period is counted, KeepaliveMisses of them in a row give the
// peer up, and a probe is queued while a path exists. Callers hold mu.
func (e *endpoint) keepalive(now int64) {
	period := e.cfg.KeepalivePeriod
	if period <= 0 {
		return
	}
	if e.kaNext == 0 {
		e.kaNext = now + period
		e.kaLastRx = e.rxCount
		return
	}
	if now < e.kaNext {
		return
	}
	e.kaNext = now + period
	if e.rxCount == e.kaLastRx {
		e.kaMisses++
		e.st.KeepaliveMisses++
		if e.kaMisses >= e.cfg.keepaliveMisses() && e.alive {
			e.lose()
		}
	} else {
		e.kaMisses = 0
	}
	e.kaLastRx = e.rxCount
	if e.linked && !e.muted {
		// The probe's wall stamp is the NTP t1 origin.
		e.push(AppendHeader(e.sq.get(), TypeKeepalive, 0, e.epoch, e.seq, now, time.Now().UnixNano()))
		e.st.KeepaliveProbes++
	}
}

// flushFreeze queues one due pending freeze. Retries are gated on the
// line being alive, so a freeze raised during a blackout, or while
// disconnected, waits the dark window out instead of exhausting its
// tries into it. Callers hold mu.
func (e *endpoint) flushFreeze(now int64) {
	fi := e.fz.due(now, e.alive && e.linked && !e.muted, e.cfg.KeepalivePeriod)
	if fi == nil {
		return
	}
	n := freezeFixedLen + min(len(fi.Reason), freezeReasonMax)
	buf := AppendHeader(e.sq.get(), TypeFreeze, n, e.epoch, e.seq, now, 0)
	e.push(AppendFreezePayload(buf, fi.Incident, fi.Tick, fi.WallNs, fi.Reason))
}
