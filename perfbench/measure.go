package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// epoch anchors clock: every host timestamp in the benchmark is
// monotonic nanoseconds since process start.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// cpuNs returns the process's user+sys CPU time in nanoseconds, every
// thread included.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// A runner is one set-up instance of a workload, ready to carry
// traffic.
type runner interface {
	// step moves one unit of traffic, checks every datagram it
	// delivered against what was sent, and accounts both into t.
	step(t *tally)
	// settle ends a phase: it waits for datagrams still in flight and
	// checks the runner's invariants, counting broken ones in t.bad.
	settle(t *tally)
	// layers adds the per-layer metrics of the phase just settled,
	// traced or not, to m.
	layers(t *tally, m map[string]float64)
	close()
}

// tally accounts one measured phase. A datagram is attempted when it is
// offered to the system and delivered only when it arrives intact;
// everything else counts as failed. Only delivered octets count as
// payload.
type tally struct {
	attempted, delivered uint64
	payload, line        uint64 // delivered payload octets; wire octets moved
	bad                  uint64 // failed checks: wrong bytes, broken invariants
	notes                []string

	lat       reservoir // send-to-delivery wall time per datagram, ns
	window    reservoir // the same, current window only
	recording bool      // false during warm-up
	tr        *tracer   // nil in an untraced phase
}

// fail records a broken check.
func (t *tally) fail(note string) {
	t.bad++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, note)
	}
}

// observe records one latency sample once warm-up is over.
func (t *tally) observe(ns int64) {
	if t.recording {
		t.lat.add(ns)
		t.window.add(ns)
	}
}

// reservoir keeps a uniform sample of at most reservoirSize values
// (Algorithm R), so a long run's percentiles need bounded memory.
type reservoir struct {
	buf  []int64
	seen uint64
	rng  uint64
}

const reservoirSize = 1 << 16

func newReservoir() reservoir {
	return reservoir{buf: make([]int64, 0, reservoirSize), rng: 0x9E3779B97F4A7C15}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.seen; j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

func (r *reservoir) reset() { r.buf, r.seen = r.buf[:0], 0 }

// quantileUS returns the nearest-rank q-quantile in µs (NaN when empty).
// It sorts the sample in place, which allocates nothing inside a
// measured phase; call it only once the sample is complete.
func (r *reservoir) quantileUS(q float64) float64 {
	if len(r.buf) == 0 {
		return math.NaN()
	}
	slices.Sort(r.buf)
	i := int(q*float64(len(r.buf))+0.5) - 1
	i = max(0, min(i, len(r.buf)-1))
	return float64(r.buf[i]) / 1e3
}

// Spans of the traced phase: host time inside one public call, summed.
const (
	spAdvance = iota // Link.Advance
	spSend           // Link.SendIPv4 / SendIPv4Batch
	spOutput         // Link.Output
	spInput          // Link.Input
	spDrain          // Link.ReceivedInto
	spFlush          // TransportPort.Flush
	spPoll           // TransportPort.Poll
	spRun            // Engine.Run
	spCycle          // System.Cycle
	numSpans
)

// span accumulates the time spent in one kind of call and the units of
// work (datagrams, octets, steps, cycles) those calls covered.
type span struct{ ns, calls, units int64 }

func (s span) perCall() float64 { return ratio(float64(s.ns), float64(s.calls)) }
func (s span) perUnit() float64 { return ratio(float64(s.ns), float64(s.units)) }

// tracer times calls into the layers. All methods accept a nil
// receiver, which is the untraced phase: they then read no clock.
type tracer struct {
	spans      [numSpans]span
	polls      int64
	emptyPolls int64
}

// begin returns the clock to time the next call from.
func (tr *tracer) begin() int64 {
	if tr == nil {
		return 0
	}
	return clock()
}

// end charges the time since t0 to span k with the units the call
// covered, and returns the clock so the next call can start from it.
func (tr *tracer) end(k int, t0 int64, units int) int64 {
	if tr == nil {
		return 0
	}
	now := clock()
	s := &tr.spans[k]
	s.ns += now - t0
	s.calls++
	s.units += int64(units)
	return now
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase is the outcome of one measured phase.
type phase struct {
	tally
	goodput, line, cpuPerKB float64 // medians over the phase's calm windows
	p50, p95, p99           float64 // µs
	allocPerDgram           float64
	gcCycles                uint32
	heapInuseMB             float64
	calm, windows           int     // windows the medians are taken over, of all
	stealPct                float64 // CPU time stolen from the machine, % of its CPU time
	rssMB                   float64 // peak resident set sampled at every window's end
}

func (p *phase) deliveredPct() float64 {
	return 100 * ratio(float64(p.delivered), float64(p.attempted))
}

// window is one measured slice of a phase.
type window struct {
	goodput, line, cpuPerKB, p50, p95 float64
	steal                             int64 // ticks stolen from the machine's CPUs
}

// windowLen is the target length of a measured window: short enough
// that many windows see no steal at all on a busy host.
const windowLen = 50 * time.Millisecond

// measure drives r for d: a warm-up tenth, then equal windows of about
// windowLen (at least 10). Goodput, line rate, CPU cost and the latency
// p50 and p95 are taken per window. They are reported as medians across the calm windows:
// the tenth of windows (ties included) in which the hypervisor stole
// the least CPU time from this machine. On a shared host the steal,
// not the code, otherwise sets most of the run-to-run spread; the
// windows are chosen by an outside signal, never by their own figures.
// p99 is taken over the whole phase.
func measure(r runner, d time.Duration, tr *tracer) phase {
	windows := max(10, int(d*9/10/windowLen))
	var p phase
	t := &p.tally
	t.tr = tr
	// Allocated before the baseline below, so not charged to the workload.
	t.lat, t.window = newReservoir(), newReservoir()
	ws := make([]window, 0, windows)
	steal, rss := openProcNumber("/proc/stat", 8), openProcNumber("/proc/self/statm", 2)
	defer steal.close()
	defer rss.close()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC

	start := clock()
	warm := start + int64(d)/10
	for clock() < warm {
		r.step(t)
	}
	t.recording = true
	win := (start + int64(d) - clock()) / int64(windows)
	m0, s0 := clock(), steal.read()
	for i := 0; i < windows; i++ {
		t.window.reset()
		w0, c0, st0, pay0, line0 := clock(), cpuNs(), steal.read(), t.payload, t.line
		end := w0 + win
		for clock() < end {
			r.step(t)
		}
		w1, c1, st1 := clock(), cpuNs(), steal.read()
		p.rssMB = max(p.rssMB, float64(rss.read()*int64(os.Getpagesize()))/1e6)
		sec := float64(w1-w0) / 1e9
		ws = append(ws, window{
			goodput:  float64(t.payload-pay0) * 8 / sec / 1e9,
			line:     float64(t.line-line0) * 8 / sec / 1e9,
			cpuPerKB: ratio(float64(c1-c0), float64(t.payload-pay0)/1e3),
			p50:      t.window.quantileUS(0.50), // NaN when no datagram arrived
			p95:      t.window.quantileUS(0.95),
			steal:    st1 - st0,
		})
	}
	// Steal is counted in USER_HZ (100 Hz) ticks summed over CPUs.
	p.stealPct = 100 * ratio(float64(steal.read()-s0)*1e7, float64(clock()-m0)*float64(runtime.NumCPU()))
	r.settle(t)
	runtime.ReadMemStats(&ms)

	calm := calmWindows(ws)
	p.calm, p.windows = len(calm), len(ws)
	field := func(f func(w window) float64) float64 {
		var v []float64
		for _, w := range calm {
			if x := f(w); !math.IsNaN(x) {
				v = append(v, x)
			}
		}
		return median(v)
	}
	p.goodput = field(func(w window) float64 { return w.goodput })
	p.line = field(func(w window) float64 { return w.line })
	p.cpuPerKB = field(func(w window) float64 { return w.cpuPerKB })
	p.p50 = field(func(w window) float64 { return w.p50 })
	p.p95 = field(func(w window) float64 { return w.p95 })
	if p.p99 = t.lat.quantileUS(0.99); math.IsNaN(p.p99) {
		p.p99 = 0
	}
	p.allocPerDgram = ratio(float64(ms.TotalAlloc-alloc0), float64(t.delivered))
	p.gcCycles = ms.NumGC - gc0
	p.heapInuseMB = float64(ms.HeapInuse) / 1e6
	return p
}

// calmWindows returns the windows whose steal is at most that of the
// tenth mark — all of them where the host reports no steal.
func calmWindows(ws []window) []window {
	st := make([]int64, len(ws))
	for i, w := range ws {
		st[i] = w.steal
	}
	slices.Sort(st)
	limit := st[len(st)/10]
	var calm []window
	for _, w := range ws {
		if w.steal <= limit {
			calm = append(calm, w)
		}
	}
	return calm
}

// procNumber reads one number from the first line of a /proc file:
// the steal column of /proc/stat (CPU time the hypervisor stole from
// the machine, in ticks) or the resident pages in /proc/self/statm. It
// reads into a fixed buffer, so a measured phase allocates nothing.
// Where the file is missing it reads 0: no steal, so every window is
// calm, and no resident-set figure.
type procNumber struct {
	f   *os.File
	nth int // 1-based index among the line's numbers
	buf [256]byte
}

func openProcNumber(path string, nth int) *procNumber {
	f, _ := os.Open(path)
	return &procNumber{f: f, nth: nth}
}

func (p *procNumber) read() int64 {
	if p.f == nil {
		return 0
	}
	n, _ := p.f.ReadAt(p.buf[:], 0)
	field, v, in := 0, int64(0), false
	for _, c := range p.buf[:n] {
		if c >= '0' && c <= '9' {
			if !in {
				in, v = true, 0
				field++
			}
			v = v*10 + int64(c-'0')
			continue
		}
		if in && field == p.nth {
			return v
		}
		in = false
		if c == '\n' {
			break
		}
	}
	return 0
}

func (p *procNumber) close() {
	if p.f != nil {
		p.f.Close()
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeSetup builds the workload repeatedly — at least minSetups times
// and for at least minSetupTime, at most maxSetups — and returns the
// last instance with the median build time in seconds.
func timeSetup(setup func() (runner, error)) (runner, float64, error) {
	const minSetups, maxSetups, minSetupTime = 21, 200001, int64(time.Second)
	// Preallocated so the growth of this slice does not move max_rss_mb.
	ds := make([]float64, 0, maxSetups)
	var r runner
	start := clock()
	for len(ds) < maxSetups && (len(ds) < minSetups || clock()-start < minSetupTime) {
		if r != nil {
			r.close()
		}
		t0 := clock()
		var err error
		if r, err = setup(); err != nil {
			return nil, 0, err
		}
		ds = append(ds, float64(clock()-t0)/1e9)
	}
	return r, median(ds), nil
}
