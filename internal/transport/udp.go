package transport

import (
	"fmt"
	"net"
	"net/netip"
	"time"
)

// UDP is the datagram socket transport: one chunk of wire octets per
// UDP datagram, each stamped with the wire header so the receiver can
// discard duplicated, reordered and foreign datagrams before they
// scramble the HDLC stream. Loss is accepted (PPP's FCS and the
// tokenizer's flag resync absorb it); ordering is enforced by dropping
// stale sequence numbers.
//
// A UDP endpoint runs in one of two roles, the gateway/client split:
// a listener binds ListenAddr and latches its peer from the first
// valid datagram (re-latching whenever the peer's epoch changes, so a
// restarted or rebound dialer reconnects transparently); a dialer
// binds an ephemeral port and sends to DialAddr. Keepalive probes flow
// both ways; dead-peer detection is symmetric. Probes double as the
// NTP-style clock-offset exchange (the peer answers each with a
// TypeKeepaliveReply), and sampled data headers carry a transmit wall
// stamp, so the endpoint measures one-way latency, jitter, RTT and
// clock offset against its peer (LatencyMeter). It also carries the
// capture-correlation freeze channel (Freezer).
type UDP struct {
	endpoint
	conn *net.UDPConn
	peer netip.AddrPort
	// src is the source of the arrival being handled; a new peer epoch
	// latches it as the listener's return path.
	src      netip.AddrPort
	flushTmp [][]byte
}

// UDPConfig places a UDP endpoint.
type UDPConfig struct {
	Config
	// ListenAddr, when non-empty, binds this address (the listener
	// role). The peer address is learned from the first valid datagram.
	ListenAddr string
	// DialAddr, when non-empty, is the peer address (the dialer role).
	// With ListenAddr empty the local port is ephemeral.
	DialAddr string
}

// NewUDP opens a UDP line endpoint and starts its reader.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if cfg.ListenAddr == "" && cfg.DialAddr == "" {
		return nil, fmt.Errorf("transport: UDP needs ListenAddr or DialAddr")
	}
	var laddr *net.UDPAddr
	var err error
	if cfg.ListenAddr != "" {
		if laddr, err = net.ResolveUDPAddr("udp", cfg.ListenAddr); err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: bind: %w", err)
	}
	if n := envBuffer(cfg.ReadBuffer, "P5_SOCK_RBUF"); n > 0 {
		conn.SetReadBuffer(n)
	}
	if n := envBuffer(cfg.WriteBuffer, "P5_SOCK_WBUF"); n > 0 {
		conn.SetWriteBuffer(n)
	}
	t := &UDP{conn: conn}
	t.init(cfg.Config, cfg.DialAddr == "", t.flushLocked)
	t.resync = t.latch
	if cfg.DialAddr != "" {
		raddr, err := net.ResolveUDPAddr("udp", cfg.DialAddr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: dial %s: %w", cfg.DialAddr, err)
		}
		t.peer, t.linked = raddr.AddrPort(), true
	}
	go t.reader()
	return t, nil
}

// LocalAddr returns the bound socket address (useful with ":0").
func (t *UDP) LocalAddr() net.Addr { return t.conn.LocalAddr() }

// flushLocked writes every queued record to the peer (no-op while the
// peer is unknown or the line is muted — the bounded queue holds, and
// drops oldest). It is the core's kick.
func (t *UDP) flushLocked() {
	if t.muted || !t.linked || len(t.sq.bufs) == 0 {
		return
	}
	t.flushTmp = t.sq.drainInto(t.flushTmp[:0], 0)
	for _, buf := range t.flushTmp {
		_, err := t.conn.WriteToUDPAddrPort(buf, t.peer)
		switch {
		case buf[5] != TypeData:
			// Probes and freezes (octet 5 is the record type) are line
			// housekeeping, not chunks: they stay out of the counters.
		case err != nil:
			t.st.TxDropped++
		default:
			t.st.TxChunks++
			t.st.TxBytes += uint64(len(buf) - HeaderLen)
		}
		t.sq.put(buf)
	}
}

// latch runs on a new peer epoch: the listener latches (or re-latches)
// its return path to the arrival's source, and a restarted or rebound
// peer counts as a reconnection.
func (t *UDP) latch(restart bool) {
	if restart {
		t.st.Reconnects++
	}
	if t.listener {
		t.peer, t.linked = t.src, true
	}
}

// Tick runs keepalive probing, dead-peer accounting and pending freeze
// transmission, and flushes anything still queued.
func (t *UDP) Tick(now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.tickNow = now
	t.flushLocked()
	t.flushFreeze(now)
	t.keepalive(now)
}

// reader is the receive goroutine: it hands each datagram to the core
// and answers keepalive probes straight to their source, which keeps
// the exchange alive even before the return path is latched.
func (t *UDP) reader() {
	buf := make([]byte, 65536)
	for {
		n, addr, err := t.conn.ReadFromUDPAddrPort(buf)
		rxWall := time.Now().UnixNano()
		h, payload, derr := DecodeDatagram(buf[:n])
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		if err == nil {
			t.src = addr
			if reply := t.receive(h, payload, derr, rxWall); reply != nil {
				t.conn.WriteToUDPAddrPort(reply, addr)
			}
		}
		t.mu.Unlock()
	}
}

// Close shuts the socket down and stops the reader.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	return t.conn.Close()
}
