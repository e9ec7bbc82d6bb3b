// Package flight is the always-on flight recorder and per-frame latency
// observatory. Where internal/telemetry answers "how much, how often",
// flight answers "where did the time go, and what was on the wire when
// it went wrong":
//
//   - a per-frame latency pipe: datagrams are tagged when they depart a
//     link's transmit path and matched FIFO at the far end, feeding an
//     end-to-end latency histogram (virtual ticks) with *exemplars* —
//     the concrete frame ID, arrival time and trace-ring sequence
//     behind each bucket, so a p99 spike resolves to a real frame;
//   - sampled per-stage wall-clock stamps at 1 span in 8 per stage,
//     bounding overhead, on prof's stage vocabulary (prof.Stage):
//     encode spans one datagram's SendIPv4/SendIPv4Batch, tokenize one
//     whole Link.Input call — the spans the engine profile charges to
//     the same names;
//   - a black-box recorder: bounded rings of recent received raw HDLC
//     wire bytes, structured events and register snapshots, dumped
//     atomically to a self-describing capture file (capture.go) on
//     defect escalation, APS switch, FCS-error burst, supervisor
//     restart or an explicit OAM register write;
//   - an SLO evaluator (slo.go) turning the recorded series into
//     rolling error budgets and burn-rate gauges.
//
// Steady-state cost is deliberately asymmetric: the transmit path pays
// one ring store, one atomic add and the sampled stamp per frame (no
// wire copy), keeping the zero-alloc encode benchmark within its
// overhead gate; the receive path adds the wire-ring memcpy and the
// FIFO match. Nothing on either path allocates.
//
// Ownership follows the Link rules (DESIGN.md §8): Depart/Arrive/TapRx
// and Trigger must be called from the goroutine that owns the link (or
// while the simulation is quiesced); the histograms and counters behind
// them are atomic and the exemplar store is mutex-protected, so HTTP
// scrapes and the /slo board are safe at any time.
package flight

import (
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/prof"
	"repro/internal/telemetry"
)

// stages are the prof stages a link stamps into its recorder.
var stages = []prof.Stage{prof.StageEncode, prof.StageTokenize}

// stageSampleShift picks 1 in 2^3 spans of each stamped stage.
const stageSampleShift = 3

// E2EBounds are the end-to-end latency histogram bounds, in virtual
// ticks (1 tick = one 125 µs frame slot in the SONET-paced sims).
var E2EBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// StageBounds are the per-stage latency histogram bounds, in
// wall-clock nanoseconds.
var StageBounds = []int64{250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 1000000}

// Config sizes a Recorder. The zero value is usable: every field has a
// working default.
type Config struct {
	// WireBytes is the per-direction raw wire ring capacity in octets
	// (default 8192, rounded up to a power of two).
	WireBytes int
	// Events is the event ring capacity (default 256).
	Events int
	// PipeDepth bounds the in-flight frame matcher (default 1024,
	// rounded up to a power of two). When it overflows the oldest
	// departure is counted lost.
	PipeDepth int
	// Horizon is the age in ticks after which an unmatched departure
	// is declared lost (default 1024).
	Horizon int64
	// SlowTicks is the end-to-end latency at or above which an arrival
	// emits a slow-frame event into the black box (default 32).
	SlowTicks int64
	// Dir, when non-empty, is the directory capture files are written
	// to (one file per trigger). Empty keeps captures in memory only.
	Dir string
	// RecentCaptures bounds the in-memory capture list (default 8).
	RecentCaptures int
	// Clock supplies wall-clock nanoseconds for stage stamps (default
	// time.Now().UnixNano).
	Clock func() int64
	// Profiler, when set, observes every capture after it is recorded
	// (and after any capture file is written), so a runtime profile
	// snapshot can land next to the .p5fr evidence — p5sim -prof wires
	// this to prof.WriteSnapshot. Called on the triggering goroutine;
	// runs after OnCapture.
	Profiler func(*Capture)
}

func (c Config) withDefaults() Config {
	if c.WireBytes <= 0 {
		c.WireBytes = 8192
	}
	if c.Events <= 0 {
		c.Events = 256
	}
	if c.PipeDepth <= 0 {
		c.PipeDepth = 1024
	}
	if c.Horizon <= 0 {
		c.Horizon = 1024
	}
	if c.SlowTicks <= 0 {
		c.SlowTicks = 32
	}
	if c.RecentCaptures <= 0 {
		c.RecentCaptures = 8
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Exemplar is the concrete frame behind a latency bucket: enough to
// find the frame again in the trace ring and the wire dump.
type Exemplar struct {
	// LE is the bucket's inclusive upper bound in ticks;
	// math.MaxInt64 marks the overflow (+Inf) bucket.
	LE int64 `json:"le"`
	// ID is the frame's departure sequence number (1-based per link).
	ID uint64 `json:"id"`
	// Value is the observed end-to-end latency in ticks.
	Value int64 `json:"value"`
	// At is the arrival virtual time.
	At int64 `json:"at"`
	// Seq is the black-box event sequence current at arrival, linking
	// the exemplar into the trace ring.
	Seq uint64 `json:"seq"`
}

type departure struct {
	id uint64
	at int64
}

// byteRing is a bounded ring over a raw octet stream. Invariant:
// buf[i%len(buf)] holds stream byte i for i in [n-len(buf), n).
type byteRing struct {
	buf []byte
	n   uint64 // total stream bytes ever written
}

func (r *byteRing) write(p []byte) {
	size := len(r.buf)
	if size == 0 || len(p) == 0 {
		r.n += uint64(len(p))
		return
	}
	if len(p) > size {
		r.n += uint64(len(p) - size)
		p = p[len(p)-size:]
	}
	off := int(r.n % uint64(size))
	k := copy(r.buf[off:], p)
	if k < len(p) {
		copy(r.buf, p[k:])
	}
	r.n += uint64(len(p))
}

// snapshot returns the retained octets oldest-first plus the stream
// offset of the first returned byte.
func (r *byteRing) snapshot() (base uint64, data []byte) {
	size := uint64(len(r.buf))
	if size == 0 || r.n == 0 {
		return r.n, nil
	}
	if r.n <= size {
		return 0, append([]byte(nil), r.buf[:r.n]...)
	}
	start := r.n % size
	data = make([]byte, 0, size)
	data = append(data, r.buf[start:]...)
	data = append(data, r.buf[:start]...)
	return r.n - size, data
}

// Recorder is one link's flight recorder: latency pipe, stage
// histograms, wire/event black box and capture trigger. Obtain one
// with NewRecorder and arm it on a Link.
type Recorder struct {
	name string
	cfg  Config

	// FIFO departure matcher. Single-writer: owned by the link's
	// goroutine (Depart on TX, Arrive driven by the peer's RX — the
	// same goroutine in every deployment here).
	ring   []departure
	mask   uint64
	head   uint64 // oldest live entry
	tail   uint64 // next free slot
	nextID uint64

	e2e *telemetry.Histogram
	// One sampler per stamped stage: with a shared one, a link whose
	// encode and tokenize spans per step summed to a multiple of 8
	// would pick the same span every time and never the other stage.
	stamp   [prof.NumStages]prof.Sampler
	stage   [prof.NumStages]*telemetry.Histogram // nil for stages not stamped
	tracked *telemetry.Counter
	lost    *telemetry.Counter
	capsC   *telemetry.Counter
	wireRx  *telemetry.Counter

	exMu sync.Mutex
	ex   []Exemplar // one slot per e2e bucket, zero ID = empty

	rx     byteRing
	events *telemetry.Tracer

	now int64 // latest virtual time seen (SetNow)

	capMu    sync.Mutex
	recent   []*Capture
	capSeq   uint64
	byReason map[string]uint64
	lastErr  error

	// Correlate, when set, stamps correlation metadata onto every
	// capture — incident ID, clock/tick offset estimates, peer trigger
	// context — before the capture file is written, so the .p5fr a
	// distributed trigger leaves behind carries everything p5trace
	// -join needs. The TransportPort wires this to its freeze channel.
	// Set before arming; called on the triggering goroutine.
	Correlate func(*Capture)
	// OnCapture, when set, observes every capture after it is recorded
	// (the OAM block raises its interrupt here). Set before arming.
	OnCapture func(*Capture)
	// RegDump, when set, appends register snapshots to each capture.
	// Set before arming; called on the triggering goroutine.
	RegDump func([]RegSample) []RegSample
}

// NewRecorder builds a recorder named for its link and registers its
// series (flight_* family, labelled link=name) in reg. reg may be nil
// for an unexposed recorder (tests, tools).
func NewRecorder(reg *telemetry.Registry, name string, cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	depth := pow2(cfg.PipeDepth)
	lk := telemetry.L("link", name)
	r := &Recorder{
		name:     name,
		cfg:      cfg,
		ring:     make([]departure, depth),
		mask:     uint64(depth - 1),
		ex:       make([]Exemplar, len(E2EBounds)+1),
		events:   telemetry.NewTracer(cfg.Events),
		byReason: make(map[string]uint64),
		e2e: reg.Histogram("flight_e2e_latency_ticks",
			"end-to-end frame latency, departure to delivery, virtual ticks", E2EBounds, lk),
		tracked: reg.Counter("flight_frames_tracked_total", "frames tagged at departure", lk),
		lost:    reg.Counter("flight_frames_lost_total", "tagged frames never delivered (horizon or overflow)", lk),
		capsC:   reg.Counter("flight_captures_total", "black-box captures triggered", lk),
		wireRx:  reg.Counter("flight_wire_octets_total", "raw wire octets through the black box", lk, telemetry.L("dir", "rx")),
	}
	r.rx.buf = make([]byte, pow2(cfg.WireBytes))
	for _, s := range stages {
		r.stamp[s] = prof.NewSampler(stageSampleShift, cfg.Clock)
		r.stage[s] = reg.Histogram("flight_stage_latency_ns",
			"sampled per-stage frame latency, wall-clock ns", StageBounds, lk, telemetry.L("stage", s.String()))
	}
	return r
}

// Name returns the link name the recorder was built for.
func (r *Recorder) Name() string { return r.name }

// SetNow records the link's virtual time; captures and events are
// stamped with the latest value.
func (r *Recorder) SetNow(now int64) { r.now = now }

// Depart tags one transmitted frame at virtual time now and returns
// its frame ID. When the pipe is full the oldest in-flight entry is
// retired as lost.
func (r *Recorder) Depart(now int64) uint64 {
	if r.tail-r.head > r.mask {
		r.head++
		r.lost.Inc()
	}
	r.nextID++
	r.ring[r.tail&r.mask] = departure{id: r.nextID, at: now}
	r.tail++
	r.tracked.Add(1)
	return r.nextID
}

// Arrive matches one delivered frame FIFO against the oldest live
// departure, observes the end-to-end latency and updates the bucket
// exemplar. Departures older than the horizon are retired as lost
// first. Returns the matched latency in ticks, or ok=false when
// nothing was in flight.
func (r *Recorder) Arrive(now int64) (lat int64, ok bool) {
	r.expire(now)
	if r.head == r.tail {
		return 0, false
	}
	d := r.ring[r.head&r.mask]
	r.head++
	lat = now - d.at
	if lat < 0 {
		lat = 0
	}
	r.e2e.Observe(lat)
	r.noteExemplar(d.id, lat, now)
	if lat >= r.cfg.SlowTicks {
		r.events.Emit(now, r.name, "slow-frame", "", int64(d.id), lat)
	}
	return lat, true
}

// Expire retires departures older than the horizon as lost. Arrive
// does this implicitly; call it from the link's periodic service so
// losses surface during quiet periods too.
func (r *Recorder) Expire(now int64) { r.expire(now) }

func (r *Recorder) expire(now int64) {
	for r.head != r.tail {
		d := r.ring[r.head&r.mask]
		if now-d.at <= r.cfg.Horizon {
			return
		}
		r.head++
		r.lost.Inc()
	}
}

// Flush retires every in-flight departure as lost — the transport was
// reset, nothing tagged before this point can arrive anymore.
func (r *Recorder) Flush() {
	for r.head != r.tail {
		r.head++
		r.lost.Inc()
	}
}

// InFlight returns the number of tagged, unmatched departures.
func (r *Recorder) InFlight() int { return int(r.tail - r.head) }

// Tracked returns the total tagged departures.
func (r *Recorder) Tracked() uint64 { return r.tracked.Value() }

// Lost returns the total departures retired without a match.
func (r *Recorder) Lost() uint64 { return r.lost.Value() }

// P99 returns the current end-to-end p99 latency estimate in ticks.
func (r *Recorder) P99() int64 { return r.e2e.Quantile(0.99) }

func (r *Recorder) noteExemplar(id uint64, lat int64, at int64) {
	i := 0
	for i < len(E2EBounds) && lat > E2EBounds[i] {
		i++
	}
	le := int64(math.MaxInt64)
	if i < len(E2EBounds) {
		le = E2EBounds[i]
	}
	r.exMu.Lock()
	r.ex[i] = Exemplar{LE: le, ID: id, Value: lat, At: at, Seq: r.events.Total()}
	r.exMu.Unlock()
}

// Exemplars returns the populated bucket exemplars, lowest bucket
// first.
func (r *Recorder) Exemplars() []Exemplar {
	r.exMu.Lock()
	defer r.exMu.Unlock()
	out := make([]Exemplar, 0, len(r.ex))
	for _, e := range r.ex {
		if e.ID != 0 {
			out = append(out, e)
		}
	}
	return out
}

// Exemplar returns the exemplar for the bucket a latency of v ticks
// falls in, if one has been recorded.
func (r *Recorder) Exemplar(v int64) (Exemplar, bool) {
	i := 0
	for i < len(E2EBounds) && v > E2EBounds[i] {
		i++
	}
	r.exMu.Lock()
	defer r.exMu.Unlock()
	e := r.ex[i]
	return e, e.ID != 0
}

// Begin opens one span of stage s (encode or tokenize); 1 span in 8
// of each stage is timed.
func (r *Recorder) Begin(s prof.Stage) { r.stamp[s].Begin() }

// Stamp closes the span of stage s that Begin opened and, when it was
// picked, charges its wall-clock ns to the stage histogram.
func (r *Recorder) Stamp(s prof.Stage) {
	if ns, ok := r.stamp[s].Lap(); ok {
		r.stage[s].Observe(ns)
		r.stamp[s].End()
	}
}

// StageHistogram exposes a stage's histogram (for boards and tests);
// nil for a stage the recorder does not stamp.
func (r *Recorder) StageHistogram(s prof.Stage) *telemetry.Histogram { return r.stage[s] }

// TapRx records received raw wire octets into the black box.
func (r *Recorder) TapRx(p []byte) {
	r.rx.write(p)
	r.wireRx.Add(uint64(len(p)))
}

// Event records one structured event into the black box ring.
func (r *Recorder) Event(at int64, name, detail string, v1, v2 int64) {
	r.events.Emit(at, r.name, name, detail, v1, v2)
}

// Events returns the retained black-box events, oldest first.
func (r *Recorder) Events() []telemetry.Event { return r.events.Events() }

// Trigger dumps the black box: wire rings, event ring and register
// snapshot are captured atomically into a Capture, appended to the
// bounded in-memory list, written to Config.Dir (when set) and handed
// to OnCapture. Must run on the owning goroutine (or quiesced sim).
func (r *Recorder) Trigger(reason string) *Capture {
	r.capMu.Lock()
	r.capSeq++
	seq := r.capSeq
	r.byReason[reason]++
	r.capMu.Unlock()

	c := &Capture{
		Link:   r.name,
		Reason: reason,
		Seq:    seq,
		Now:    r.now,
		WallNs: r.cfg.Clock(),
	}
	c.RxBase, c.RxWire = r.rx.snapshot()
	c.Events = r.events.Events()
	if r.RegDump != nil {
		c.Regs = r.RegDump(c.Regs)
	}
	r.capsC.Inc()
	if r.Correlate != nil {
		r.Correlate(c)
	}

	var err error
	if r.cfg.Dir != "" {
		err = c.WriteFile(r.cfg.Dir)
	}
	r.capMu.Lock()
	r.recent = append(r.recent, c)
	if len(r.recent) > r.cfg.RecentCaptures {
		r.recent = r.recent[len(r.recent)-r.cfg.RecentCaptures:]
	}
	r.lastErr = err
	r.capMu.Unlock()

	r.events.Emit(r.now, r.name, "capture", reason, int64(seq), int64(len(c.RxWire)))
	if r.OnCapture != nil {
		r.OnCapture(c)
	}
	if r.cfg.Profiler != nil {
		r.cfg.Profiler(c)
	}
	return c
}

// AdoptIncident back-stamps a shared incident ID onto the most recent
// correlatable capture when a peer's freeze ping lands within the loss
// horizon. Three cases resolve, newest-first within the horizon:
//
//  1. An uncorrelated capture with the freeze's reason — a correlation
//     follower held its Incident at 0 for exactly this (or the local
//     trigger simply raced the ping); adopt the ID onto it.
//  2. Failing that, the newest uncorrelated capture of any reason.
//  3. A same-reason capture that already minted its own ID locally
//     (crossed pings: both ends triggered for one symmetric event and
//     both thought they led). The pair converges deterministically on
//     the smaller ID — the end holding the larger rewrites, the other
//     ignores the ping. Either way the ping is consumed.
//
// An on-disk capture is rewritten in place so the file pair matches.
// Returns false when no capture qualified (the caller should trigger a
// fresh peer capture instead). Must run on the owning goroutine, like
// Trigger.
func (r *Recorder) AdoptIncident(incident uint64, reason string, peerNow, peerWall int64) bool {
	r.capMu.Lock()
	var target, fallback, crossed *Capture
	for i := len(r.recent) - 1; i >= 0; i-- {
		c := r.recent[i]
		if r.now-c.Now > r.cfg.Horizon {
			continue
		}
		if c.Incident == 0 {
			if c.Reason == reason {
				target = c
				break
			}
			if fallback == nil {
				fallback = c
			}
			continue
		}
		if crossed == nil && !c.FromPeer && c.Reason == reason && c.Incident != incident {
			crossed = c
		}
	}
	if target == nil {
		target = fallback
	}
	if target == nil {
		if crossed == nil {
			r.capMu.Unlock()
			return false
		}
		if incident >= crossed.Incident {
			// The peer holds the larger ID and converges to ours.
			r.capMu.Unlock()
			return true
		}
		target = crossed
	}
	target.Incident = incident
	target.PeerNow = peerNow
	target.PeerWallNs = peerWall
	path := target.Path
	r.capMu.Unlock()

	if path != "" {
		err := target.WriteFile(filepath.Dir(path))
		r.capMu.Lock()
		r.lastErr = err
		r.capMu.Unlock()
	}
	r.events.Emit(r.now, r.name, "incident-adopted", target.Reason, int64(target.Seq), int64(incident))
	return true
}

// Captures returns the total number of triggers since arming.
func (r *Recorder) Captures() uint64 {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return r.capSeq
}

// CapturesFor returns how many captures a given trigger reason
// produced.
func (r *Recorder) CapturesFor(reason string) uint64 {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return r.byReason[reason]
}

// Recent returns the bounded in-memory capture list, oldest first.
func (r *Recorder) Recent() []*Capture {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return append([]*Capture(nil), r.recent...)
}

// LastErr returns the most recent capture-file write error, if any.
func (r *Recorder) LastErr() error {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	return r.lastErr
}

// BurstDetector fires once per burst when Threshold events land inside
// a sliding Window of ticks — the FCS-error-burst capture trigger.
type BurstDetector struct {
	// Window is the burst window in ticks.
	Window int64
	// Threshold is the number of events within Window that constitutes
	// a burst.
	Threshold int

	start int64
	count int
	fired bool
}

// Note records one event at virtual time now and reports whether this
// event completed a fresh burst. After firing, the detector re-arms
// when a new window opens.
func (b *BurstDetector) Note(now int64) bool {
	if b.count == 0 || now-b.start > b.Window {
		b.start = now
		b.count = 0
		b.fired = false
	}
	b.count++
	if !b.fired && b.count >= b.Threshold {
		b.fired = true
		return true
	}
	return false
}
