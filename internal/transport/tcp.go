package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP is the stream socket transport: the same wire records as UDP,
// concatenated on a connection. The stream gives ordering and
// reliability; what this layer adds is *supervision* — a listener that
// accepts replacement connections (newest wins), a dialer that re-dials
// with capped exponential backoff and seeded jitter, a writer goroutine
// that batches queued records into one writev (net.Buffers) so a
// stalled peer blocks only itself while the bounded queue drops oldest,
// and keepalive probes whose misses reset the connection so dead peers
// are re-dialed instead of trusted forever.
type TCP struct {
	endpoint
	dialAddr string
	ln       net.Listener
	cond     *sync.Cond

	conn    net.Conn
	connGen int
	everUp  bool

	dialing bool
	retryAt int64
	bo      backoff
}

// TCPConfig places a TCP endpoint.
type TCPConfig struct {
	Config
	// ListenAddr, when non-empty, accepts connections on this address
	// (the server role); a newly accepted connection replaces the
	// current one.
	ListenAddr string
	// DialAddr, when non-empty, is dialed (and re-dialed, with capped
	// jittered backoff) from the Tick loop.
	DialAddr string
}

// dialTimeout bounds one TCP connect attempt (wall clock — dials run
// on their own goroutine, off the tick loop).
const dialTimeout = 2 * time.Second

// NewTCP opens a TCP line endpoint: a listener starts its accept loop,
// a dialer arms an immediate first attempt at the next Tick.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if (cfg.ListenAddr == "") == (cfg.DialAddr == "") {
		return nil, fmt.Errorf("transport: TCP needs exactly one of ListenAddr or DialAddr")
	}
	t := &TCP{dialAddr: cfg.DialAddr, bo: newBackoff(cfg.Config)}
	t.cond = sync.NewCond(&t.mu)
	t.init(cfg.Config, cfg.ListenAddr != "", t.cond.Broadcast)
	t.hangUp = t.hangUpLocked
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
		t.ln = ln
		go t.acceptLoop()
	}
	go t.writer()
	return t, nil
}

// LocalAddr returns the listener's bound address (nil for a dialer).
func (t *TCP) LocalAddr() net.Addr {
	if t.ln == nil {
		return nil
	}
	return t.ln.Addr()
}

// acceptLoop installs each accepted connection, newest wins.
func (t *TCP) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		t.install(c)
	}
}

// install makes c the active connection, replacing (and counting a
// reset for) any previous one, and starts its reader.
func (t *TCP) install(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		if n := envBuffer(t.cfg.ReadBuffer, "P5_SOCK_RBUF"); n > 0 {
			tc.SetReadBuffer(n)
		}
		if n := envBuffer(t.cfg.WriteBuffer, "P5_SOCK_WBUF"); n > 0 {
			tc.SetWriteBuffer(n)
		}
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	if t.conn != nil {
		t.conn.Close()
		t.st.Resets++
	}
	t.conn = c
	t.connGen++
	gen := t.connGen
	t.linked = true
	t.alive = true
	t.kaMisses = 0
	if t.everUp {
		t.st.Reconnects++
	}
	t.everUp = true
	t.bo.reset()
	t.retryAt = 0
	t.kick()
	t.mu.Unlock()
	go t.reader(c, gen)
}

// dropConn retires c after a read or write error, unless a newer
// connection has already replaced it.
func (t *TCP) dropConn(c net.Conn, gen int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.connGen == gen && t.conn == c {
		t.lose()
	}
}

// hangUpLocked closes the connection of a lost peer (read/write error,
// keepalive give-up): the dialer schedules a jittered re-dial, the
// listener waits for the next accept. It is the core's hangUp.
func (t *TCP) hangUpLocked() {
	t.conn.Close()
	t.conn = nil
	t.linked = false
	if t.dialAddr != "" {
		t.retryAt = t.tickNow + t.bo.next()
	}
}

// reader parses wire records off c until it fails. A magic mismatch is
// a stream desync: the connection is reset rather than resynchronised.
func (t *TCP) reader(c net.Conn, gen int) {
	var hdr [HeaderLen]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			t.dropConn(c, gen)
			return
		}
		h, err := DecodeHeader(hdr[:])
		if err != nil {
			// A version-skewed peer resets on its first record and never
			// comes up — the clean rejection path, counted so fleet
			// scrapes can name the cause.
			t.mu.Lock()
			t.reject(err)
			t.mu.Unlock()
			t.dropConn(c, gen)
			return
		}
		if cap(payload) < h.Len {
			payload = make([]byte, 0, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(c, payload); err != nil {
			t.dropConn(c, gen)
			return
		}
		rxWall := time.Now().UnixNano()
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		// A muted line keeps parsing the stream to stay record-aligned.
		if reply := t.receive(h, payload, nil, rxWall); reply != nil {
			// Answer through the send queue: t3 is already stamped, so
			// writer-queue delay lands in the measured RTT — honest for
			// a stream transport, where queued data delays everything
			// else too.
			t.push(append(t.sq.get(), reply...))
		}
		t.mu.Unlock()
	}
}

// writer drains the send queue into writev batches, one goroutine for
// the transport's lifetime.
func (t *TCP) writer() {
	batch := make([][]byte, 0, 32)
	for {
		t.mu.Lock()
		for !t.closed && (t.conn == nil || t.muted || len(t.sq.bufs) == 0) {
			t.cond.Wait()
		}
		if t.closed {
			t.mu.Unlock()
			return
		}
		c, gen := t.conn, t.connGen
		batch = t.sq.drainInto(batch[:0], 32)
		t.mu.Unlock()

		nb := make(net.Buffers, len(batch))
		var payload uint64
		copy(nb, batch)
		for _, b := range batch {
			payload += uint64(len(b) - HeaderLen)
		}
		_, err := nb.WriteTo(c)

		t.mu.Lock()
		if err != nil {
			t.st.TxDropped += uint64(len(batch))
		} else {
			t.st.TxChunks += uint64(len(batch))
			t.st.TxBytes += payload
		}
		for _, b := range batch {
			t.sq.put(b)
		}
		t.mu.Unlock()
		if err != nil {
			t.dropConn(c, gen)
		}
	}
}

// Tick schedules dial attempts and runs pending freeze transmission
// and, while connected, keepalive accounting.
func (t *TCP) Tick(now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tickNow = now
	if t.closed {
		return
	}
	if t.dialAddr != "" && !t.linked && !t.dialing && now >= t.retryAt {
		t.dialing = true
		go t.dial()
	}
	t.flushFreeze(now)
	if !t.linked {
		t.kaNext = 0 // re-arm the schedule on the next connection
		return
	}
	t.keepalive(now)
}

// dial runs one connect attempt off the tick loop.
func (t *TCP) dial() {
	c, err := net.DialTimeout("tcp", t.dialAddr, dialTimeout)
	t.mu.Lock()
	t.dialing = false
	if err != nil {
		t.retryAt = t.tickNow + t.bo.next()
	}
	t.mu.Unlock()
	if err == nil {
		t.install(c) // closes c if the transport closed meanwhile
	}
}

// Close shuts down the listener, the connection, the writer and the
// readers.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conn := t.conn
	t.conn = nil
	t.linked = false
	t.kick()
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	if conn != nil {
		conn.Close()
	}
	return nil
}
