// Command perfbench is the repository's benchmark: four seeded,
// closed-loop workloads driven through the public API of the P5 stack,
// every delivered datagram checked against what was sent. An untraced
// run prints the end-to-end metrics; a separate traced run prints the
// per-layer metrics and the tracing overhead. README.md describes the
// workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// spec is a workload with its inputs generated from the seed.
type spec interface {
	// setup builds one instance ready to carry traffic: construction
	// plus link bring-up. setup_s times it.
	setup() (runner, error)
	// wire returns the workload's a→z wire stream for the kernel
	// replays, one chunk per link Output.
	wire() ([][]byte, error)
}

type workload struct {
	name string
	// inProcess workloads must lose nothing: any loss fails the run.
	inProcess bool
	make      func(seed uint64) spec
}

var workloads = []workload{
	{"linecard", true, func(s uint64) spec { return newLinecard(s) }},
	{"worstcase-escape", true, func(s uint64) spec { return newEscape(s) }},
	{"udp-closed-loop", false, func(s uint64) spec { return newUDP(s) }},
	{"rtl-p5", true, func(s uint64) spec { return newRTL(s) }},
}

type metric struct{ name, unit string }

// endToEnd is printed by the untraced run, perLayer by the traced run.
// BENCHMARK.json lists the same names and units.
var endToEnd = []metric{
	{"goodput_gbps", "Gb/s"},
	{"line_gbps", "Gb/s"},
	{"cpu_ns_per_kb", "ns/KB"},
	{"latency_p50_us", "us"},
	{"delivered_pct", "%"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metric{
	{"crc.ns_per_kb", "ns/KB"},
	{"hdlc.stuff_ns_per_kb", "ns/KB"},
	{"hdlc.tokenize_ns_per_kb", "ns/KB"},
	{"hdlc.expansion", "ratio"},
	{"ppp.append_ns_per_frame", "ns/frame"},
	{"ppp.decode_ns_per_frame", "ns/frame"},
	{"link.advance_ns", "ns"},
	{"link.send_ns_per_dgram", "ns/dgram"},
	{"link.output_ns", "ns"},
	{"link.input_ns_per_kb", "ns/KB"},
	{"link.drain_ns_per_dgram", "ns/dgram"},
	{"link.rx_errors", "count"},
	{"engine.step_us", "us"},
	{"engine.frames_per_step", "count"},
	{"engine.scaling_x", "x"},
	{"transport.flush_ns", "ns"},
	{"transport.poll_ns", "ns"},
	{"transport.empty_poll_share", "ratio"},
	{"transport.chunks_per_dgram", "ratio"},
	{"transport.queue_high_water", "count"},
	{"transport.tx_dropped", "count"},
	{"transport.rx_dropped", "count"},
	{"transport.resets", "count"},
	{"transport.oneway_p50_us", "us"},
	{"transport.rtt_p50_us", "us"},
	{"rtl.ns_per_cycle", "ns"},
	{"rtl.sim_kcycles_per_s", "kcycles/s"},
	{"p5.fill_latency_cycles", "cycles"},
	{"p5.line_utilisation", "ratio"},
	{"p5.bits_per_cycle", "bits/cycle"},
	{"p5.rx_errors", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_inuse_mb", "MB"},
	{"runtime.alloc_bytes_per_dgram", "B/dgram"},
	{"e2e.loss_pct", "%"},
	{"e2e.latency_p95_us", "us"},
	{"e2e.latency_p99_us", "us"},
	{"trace.goodput_overhead_pct", "%"},
	{"trace.cpu_overhead_pct", "%"},
	{"host.steal_pct", "%"},
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed uint64
	metrics           map[string]float64
	notes             []string // failed checks
}

// add folds a phase's accounting into the result.
func (r *result) add(p *phase, inProcess bool) {
	r.attempted += p.attempted
	if p.attempted > p.delivered {
		r.failed += p.attempted - p.delivered
		if inProcess {
			p.fail(fmt.Sprintf("%d of %d datagrams lost in process", p.attempted-p.delivered, p.attempted))
		}
	}
	if p.bad > 0 {
		r.correct = false
		r.notes = append(r.notes, p.notes...)
	}
}

// run sets the workload up and measures it for d. Untraced, it reports
// the end-to-end metrics; traced, the per-layer ones.
func run(sp spec, inProcess bool, d time.Duration, traced bool, out io.Writer) (*result, error) {
	r, setupS, err := timeSetup(sp.setup)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	// Return the set-up loop's garbage to the OS, so max_rss_mb shows
	// the workload's own footprint rather than the set-up churn.
	debug.FreeOSMemory()
	res := &result{correct: true, metrics: map[string]float64{}}
	if !traced {
		p := measure(r, d, nil)
		res.add(&p, inProcess)
		for k, v := range endToEndOf(&p) {
			res.metrics[k] = v
		}
		res.metrics["setup_s"] = setupS
		res.metrics["max_rss_mb"] = p.rssMB
		fmt.Fprintf(out, "latency samples=%d p95=%.3f us p99=%.3f us (reported only)\n", p.lat.seen, p.p95, p.p99)
		fmt.Fprintf(out, "calm windows %d of %d; CPU time stolen by the hypervisor %.2f%%\n", p.calm, p.windows, p.stealPct)
		return res, nil
	}

	// The traced run: an untraced phase for the overhead baseline, the
	// traced phase, then the kernel replays (and, on linecard, the
	// shards=1 baseline for engine.scaling_x).
	m := res.metrics
	a := measure(r, d*3/10, nil)
	res.add(&a, inProcess)
	r.layers(&a.tally, m)
	b := measure(r, d*3/10, &tracer{})
	res.add(&b, inProcess)
	r.layers(&b.tally, m)
	rest := d - 2*(d*3/10)

	if lc, ok := sp.(*linecardSpec); ok && lc.shards > 1 {
		one, err := (&linecardSpec{shards: 1}).setup()
		if err != nil {
			return nil, fmt.Errorf("shards=1 setup: %w", err)
		}
		c := measure(one, rest/2, nil)
		one.close()
		res.add(&c, inProcess)
		m["engine.scaling_x"] = ratio(a.goodput, c.goodput)
		rest -= rest / 2
	}
	chunks, err := sp.wire()
	if err != nil {
		return nil, fmt.Errorf("recording wire sample: %w", err)
	}
	s, err := newSample(chunks)
	if err != nil {
		return nil, err
	}
	replayKernels(s, rest, m)

	m["runtime.gc_cycles"] = float64(a.gcCycles)
	m["runtime.heap_inuse_mb"] = a.heapInuseMB
	m["runtime.alloc_bytes_per_dgram"] = a.allocPerDgram
	m["e2e.loss_pct"] = 100 - a.deliveredPct()
	m["e2e.latency_p95_us"] = a.p95
	m["e2e.latency_p99_us"] = a.p99
	m["trace.goodput_overhead_pct"] = 100 * ratio(a.goodput-b.goodput, a.goodput)
	m["trace.cpu_overhead_pct"] = 100 * ratio(b.cpuPerKB-a.cpuPerKB, a.cpuPerKB)
	m["host.steal_pct"] = a.stealPct

	// Tracing overhead: each end-to-end metric untraced and traced.
	ea, eb := endToEndOf(&a), endToEndOf(&b)
	fmt.Fprintf(out, "tracing overhead (untraced phase vs traced phase of this run):\n")
	for _, e := range endToEnd {
		if va, ok := ea[e.name]; ok {
			fmt.Fprintf(out, "  %-16s untraced %12.4f  traced %12.4f %-6s (%+.1f%%)\n",
				e.name, va, eb[e.name], e.unit, 100*ratio(eb[e.name]-va, va))
		}
	}
	fmt.Fprintf(out, "  %-16s untraced %12.4f  traced %12.4f %-6s\n", "max_rss_mb", a.rssMB, b.rssMB, "MB")
	fmt.Fprintf(out, "  setup_s %.6f s (one set-up for both phases)\n", setupS)
	return res, nil
}

// endToEndOf returns the phase's end-to-end metrics that are measured
// per phase.
func endToEndOf(p *phase) map[string]float64 {
	return map[string]float64{
		"goodput_gbps":   p.goodput,
		"line_gbps":      p.line,
		"cpu_ns_per_kb":  p.cpuPerKB,
		"latency_p50_us": p.p50,
		"delivered_pct":  p.deliveredPct(),
	}
}

// fingerprint describes the host. Results with different fingerprints
// are never compared.
func fingerprint() (desc, id string) {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	desc = fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	h := fnv.New32a()
	io.WriteString(h, desc)
	return desc, fmt.Sprintf("%08x", h.Sum32())
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every metric of the run's set by name and unit, then
// the result line. A metric of a layer the workload bypasses reads 0.
func report(out io.Writer, res *result, set []metric) error {
	jr := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range set {
		v := res.metrics[m.name]
		jr.Metrics[m.name] = jsonMetric{v, m.unit}
		fmt.Fprintf(out, "%-32s %16.6f %s\n", m.name, v, m.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "check failed: %s\n", n)
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func main() {
	name := flag.String("workload", "", "workload: linecard, worstcase-escape, udp-closed-loop or rtl-p5")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds (1-60)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	desc, id := fingerprint()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "host %s fingerprint=%s\n", desc, id)
	if w.name == "udp-closed-loop" {
		fmt.Fprintf(out, "network: UDP over the host loopback interface (127.0.0.1), not a real link\n")
	}
	res, err := run(w.make(*seed), w.inProcess, time.Duration(*seconds)*time.Second, *trace == 1, out)
	if err == nil {
		set := endToEnd
		if *trace == 1 {
			set = perLayer
		}
		err = report(out, res, set)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
