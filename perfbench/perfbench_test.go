package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/hdlc"
	"repro/internal/ppp"
	"repro/internal/transport"
)

// smokeTime is how long each smoke run measures.
const smokeTime = 600 * time.Millisecond

// runReport runs sp and returns the result and the printed report.
func runReport(t *testing.T, sp spec, inProcess, traced bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(sp, inProcess, smokeTime, traced, &out)
	if err != nil {
		t.Fatal(err)
	}
	set := endToEnd
	if traced {
		set = perLayer
	}
	if err := report(&out, res, set); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// checkReport asserts that every metric of set prints with its unit and
// that the last line is the result object with exactly its four keys.
func checkReport(t *testing.T, out string, set []metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	var metrics map[string]jsonMetric
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(set) {
		t.Errorf("%d metrics printed, want %d", len(metrics), len(set))
	}
	for _, m := range set {
		got, ok := metrics[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %+v (present %v), want a finite value in %s", m.name, got, ok, m.unit)
		}
		if !strings.Contains(out, m.name) {
			t.Errorf("metric %s missing from the report lines", m.name)
		}
	}
}

// TestSmoke runs every workload briefly on two seeds, untraced and
// traced, and checks every named metric prints with its unit and every
// delivery check passes.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				res, out := runReport(t, w.make(seed), w.inProcess, false)
				checkReport(t, out, endToEnd)
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Errorf("seed %d: correct=%v attempted=%d failed=%d %v", seed, res.correct, res.attempted, res.failed, res.notes)
				}
				for _, m := range endToEnd {
					if res.metrics[m.name] <= 0 {
						t.Errorf("seed %d: %s = %v, want > 0", seed, m.name, res.metrics[m.name])
					}
				}
			}
			res, out := runReport(t, w.make(1), w.inProcess, true)
			checkReport(t, out, perLayer)
			if !res.correct {
				t.Errorf("traced run failed its checks: %v", res.notes)
			}
			if !strings.Contains(out, "tracing overhead") {
				t.Error("traced run does not report its overhead")
			}
		})
	}
}

// TestTracedInvariants pins the per-layer values that must hold exactly.
func TestTracedInvariants(t *testing.T) {
	lc, _ := runReport(t, newLinecard(1), true, true)
	if got := lc.metrics["engine.frames_per_step"]; got != linecardFrames {
		t.Errorf("engine.frames_per_step = %v, want %d", got, linecardFrames)
	}
	if got := lc.metrics["link.rx_errors"]; got != 0 {
		t.Errorf("linecard link.rx_errors = %v", got)
	}
	// Simulated statistics repeat exactly for a seed.
	a, _ := runReport(t, newRTL(5), true, true)
	b, _ := runReport(t, newRTL(5), true, true)
	for _, k := range []string{"p5.bits_per_cycle", "p5.line_utilisation", "p5.fill_latency_cycles", "hdlc.expansion"} {
		if a.metrics[k] != b.metrics[k] || a.metrics[k] == 0 {
			t.Errorf("%s = %v then %v, want the same nonzero value", k, a.metrics[k], b.metrics[k])
		}
	}
	if got := a.metrics["p5.fill_latency_cycles"]; got != rtlFill {
		t.Errorf("p5.fill_latency_cycles = %v, want %d", got, rtlFill)
	}
}

// TestLossCountsNotGoodput flips one wire octet every other step of the
// in-process pair: each damaged frame must show as a failed datagram,
// and only intact deliveries may count as payload.
func TestLossCountsNotGoodput(t *testing.T) {
	sp := newEscape(1)
	sp.flipEvery = 2
	r, err := sp.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	p := measure(r, smokeTime, nil)
	steps := r.(*pairRunner).steps
	lost := p.attempted - p.delivered
	if lost < uint64(steps/2) || lost > uint64(steps) {
		t.Errorf("%d datagrams lost over %d steps with a flip every 2nd, want %d..%d", lost, steps, steps/2, steps)
	}
	if p.payload != p.delivered*escapeSize {
		t.Errorf("payload %d octets for %d intact deliveries of %d", p.payload, p.delivered, escapeSize)
	}
	if p.bad == 0 {
		t.Error("in-process loss was not flagged as a failed check")
	}
	res := &result{correct: true}
	res.add(&p, true)
	if res.correct || res.failed != lost {
		t.Errorf("result correct=%v failed=%d, want false and %d", res.correct, res.failed, lost)
	}
	if pct := p.deliveredPct(); pct >= 100 {
		t.Errorf("delivered_pct = %v with losses", pct)
	}
}

// TestSocketLossIsLossNotFailure drops chunks on the UDP line with the
// fault adapter: the lost datagrams must count as failed (loss_pct)
// and not as payload, while the run stays correct, since a socket may
// lose traffic.
func TestSocketLossIsLossNotFailure(t *testing.T) {
	sp := newUDP(1)
	sp.wrap = func(inner transport.LineTransport) transport.LineTransport {
		return fault.WrapTransport(inner).Randomize(7, 0.05, 0, 0)
	}
	r, err := sp.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	p := measure(r, smokeTime, nil)
	u := r.(*udpRunner)
	if p.delivered == 0 || p.attempted <= p.delivered {
		t.Fatalf("5%% chunk drop: attempted %d, delivered %d", p.attempted, p.delivered)
	}
	if p.delivered != u.delivered || p.payload == 0 {
		t.Errorf("delivered %d (runner counted %d) carrying %d octets", p.delivered, u.delivered, p.payload)
	}
	res := &result{correct: true}
	res.add(&p, false)
	if !res.correct || res.failed != p.attempted-p.delivered {
		t.Errorf("correct=%v failed=%d, want true and %d: %v", res.correct, res.failed, p.attempted-p.delivered, res.notes)
	}
	if pct := p.deliveredPct(); pct >= 100 {
		t.Errorf("delivered_pct = %v with losses", pct)
	}
}

// TestWireSampleReencodes checks each workload's recorded wire stream
// against the replay framing: re-encoding the decoded frames of every
// chunk with replayConfig must give the chunk back byte for byte.
func TestWireSampleReencodes(t *testing.T) {
	for _, w := range workloads {
		chunks, err := w.make(3).wire()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newSample(chunks); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i, c := range chunks {
			tk := hdlc.Tokenizer{FCS: replayConfig.FCS}
			var dst []byte
			for _, tok := range tk.Feed(nil, c) {
				var f ppp.Frame
				if err := ppp.DecodeVerifiedBodyInto(&f, tok.Body, replayConfig); err != nil {
					t.Fatalf("%s chunk %d: %v", w.name, i, err)
				}
				dst = ppp.AppendFrame(dst, &f, replayConfig, true)
			}
			if !bytes.Equal(dst, c) {
				t.Fatalf("%s chunk %d: re-encoding differs from the recorded stream", w.name, i)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i := range bj.Workloads {
		if i < len(workloads) && bj.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, bj.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metric
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, want %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d is %s %s, want %s %s", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
