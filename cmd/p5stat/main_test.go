package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fixtureServer serves a registry snapshot and trace the way p5sim
// does, with counters that advance on every /metrics scrape so the
// interval mode has a delta to show.
func fixtureServer(t *testing.T) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	cycles := reg.Counter("p5_cycles_total", "clock")
	busy := reg.Counter("p5_unit_busy_cycles_total", "busy", telemetry.L("unit", "framer"))
	occ := reg.Counter("p5_wire_occupied_cycles_total", "occ", telemetry.L("wire", "tx.line"))
	stall := reg.Counter("p5_wire_stalls_total", "stall", telemetry.L("wire", "tx.line"))
	xfer := reg.Counter("p5_wire_transfers_total", "xfer", telemetry.L("wire", "tx.line"))
	frames := reg.Counter("p5_tx_frames_total", "frames")
	depth := reg.Gauge("p5_tx_sorter_occupancy", "fifo")
	depth.Set(3)
	tr.Emit(100, "sonet", "defect-raise", "LOS", 4, 4)
	advance := func() {
		cycles.Add(1000)
		busy.Add(600)
		occ.Add(250)
		stall.Add(40)
		xfer.Add(900)
		frames.Add(10)
	}
	advance()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg.WritePrometheus(w)
		advance()
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) { tr.WriteJSON(w) })
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write([]byte(`{
		 "slos": [{"name": "port0", "window_ticks": 2048, "loss_target": 0.001,
		  "p99_budget_ticks": 8, "failover_budget_ticks": 400,
		  "loss_burn": 5.25, "p99_burn": 0.5, "failover_burn": 0,
		  "worst_burn": 5.25, "budget_remaining": 0.4, "p99_ticks": 4, "alarm": true}],
		 "links": [{"link": "port0_a", "tracked": 900, "lost": 3, "in_flight": 2,
		  "p99_ticks": 4, "captures": 1,
		  "exemplars": [{"le": 4, "id": 117, "value": 3, "at": 5000, "seq": 116},
		   {"le": 9223372036854775807, "id": 903, "value": 700, "at": 9000, "seq": 902}]}]}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, reg
}

func TestSLOBoardReport(t *testing.T) {
	srv, _ := fixtureServer(t)
	var out bytes.Buffer
	if err := run(&out, srv.URL, 0, 0, false, true, true, false, ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"slo board:",
		"port0", "5.25", "40.0%", "ALARM", // burn, budget remaining, alarm flag
		"port0_a", "900", // link row: tracked
		"exemplars port0_a:",
		"117",  // resolvable frame id
		"+Inf", // overflow bucket rendered symbolically
	} {
		if !strings.Contains(got, want) {
			t.Errorf("slo report missing %q:\n%s", want, got)
		}
	}
}

func TestSLOWithoutExemplarsOmitsThem(t *testing.T) {
	srv, _ := fixtureServer(t)
	var out bytes.Buffer
	if err := run(&out, srv.URL, 0, 0, false, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "exemplars ") {
		t.Errorf("-slo alone leaked exemplar rows:\n%s", out.String())
	}
}

func TestSnapshotReport(t *testing.T) {
	srv, _ := fixtureServer(t)
	var out bytes.Buffer
	if err := run(&out, srv.URL, 0, 0, true, false, false, false, ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"p5: 1000 cycles",
		"framer", "60.0", // busy% = 600/1000
		"tx.line", "25.0", "4.0", // occ%, stall%
		"p5_tx_frames_total",
		"defect-raise", // -events trailer
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestIntervalDeltaReport(t *testing.T) {
	srv, _ := fixtureServer(t)
	var out bytes.Buffer
	if err := run(&out, srv.URL, time.Millisecond, 2, false, false, false, false, ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Each window advances by exactly one step, so the delta equals the
	// per-scrape increment, not the lifetime total.
	if !strings.Contains(got, "p5: 1000 cycles") {
		t.Errorf("window delta not computed:\n%s", got)
	}
	if strings.Count(got, "--- window") != 2 {
		t.Errorf("want 2 window reports:\n%s", got)
	}
	if !strings.Contains(got, "rate/s") {
		t.Errorf("interval report missing rate column:\n%s", got)
	}
}

// TestBenchTrendMode pins the -bench contract the verify gate relies
// on: OK exit on clean trends, a named benchmark in the error when one
// regresses, markdown side output, and a no-op on fresh checkouts.
func TestBenchTrendMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_1.json", `{"benchmarks":[
		{"name":"BenchmarkA","ns_per_op":1000},
		{"name":"BenchmarkGone","ns_per_op":50}]}`)

	// One snapshot: nothing to diff, success.
	var out bytes.Buffer
	if err := runBench(&out, dir, 10, ""); err != nil {
		t.Fatalf("single snapshot: %v", err)
	}
	if !strings.Contains(out.String(), "need 2") {
		t.Errorf("single-snapshot note missing:\n%s", out.String())
	}

	// Clean pair with churn: still success, churn annotated.
	write("BENCH_2.json", `{"benchmarks":[
		{"name":"BenchmarkA","ns_per_op":1010},
		{"name":"BenchmarkNew","ns_per_op":70}]}`)
	out.Reset()
	md := filepath.Join(dir, "TREND.md")
	if err := runBench(&out, dir, 10, md); err != nil {
		t.Fatalf("clean pair: %v", err)
	}
	for _, want := range []string{"new      BenchmarkNew", "gone     BenchmarkGone", "trend: OK"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("clean report missing %q:\n%s", want, out.String())
		}
	}
	if b, err := os.ReadFile(md); err != nil || !strings.Contains(string(b), "# Benchmark trend") {
		t.Errorf("markdown report: err=%v body=%q", err, b)
	}

	// Regressed pair: error names the benchmark.
	write("BENCH_3.json", `{"benchmarks":[{"name":"BenchmarkA","ns_per_op":2000}]}`)
	out.Reset()
	err := runBench(&out, dir, 10, "")
	if err == nil {
		t.Fatal("regression did not fail")
	}
	if !strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("regression error does not name the benchmark: %v", err)
	}
}

func TestReplayTraceFile(t *testing.T) {
	tr := telemetry.NewTracer(16)
	tr.Emit(1, "link:a", "restart", "", 40, 8)
	tr.Emit(9, "link:a", "recovered", "", 1, 0)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, "", 0, 0, false, false, false, false, path); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "trace: 2 events") ||
		!strings.Contains(got, "link:a/restart") ||
		!strings.Contains(got, "link:a/recovered") {
		t.Errorf("replay output:\n%s", got)
	}
}

// TestTransportTable renders the -transport column set from a
// socket-backed run's transport_* series.
func TestTransportTable(t *testing.T) {
	reg := telemetry.NewRegistry()
	lbl := telemetry.L("line", "port0_a")
	reg.Gauge("transport_up", "live", lbl).Set(1)
	reg.Counter("transport_tx_chunks_total", "tx", lbl).Add(120)
	reg.Counter("transport_rx_chunks_total", "rx", lbl).Add(118)
	reg.Counter("transport_reconnects_total", "reconn", lbl).Add(2)
	reg.Counter("transport_resets_total", "resets", lbl).Add(3)
	reg.Counter("transport_keepalive_probes_total", "probes", lbl).Add(40)
	reg.Counter("transport_keepalive_misses_total", "misses", lbl).Add(5)
	reg.Counter("transport_tx_dropped_total", "txd", lbl).Add(7)
	reg.Counter("transport_rx_dropped_total", "rxd", lbl).Add(1)
	reg.Gauge("transport_queue_depth", "q", lbl).Set(4)
	reg.Gauge("transport_queue_high_water", "qhw", lbl).Set(11)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg.WritePrometheus(w)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var out bytes.Buffer
	if err := run(&out, srv.URL, 0, 0, false, false, false, true, ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	i := strings.Index(got, "transport lines:")
	if i < 0 {
		t.Fatalf("no transport table:\n%s", got)
	}
	row := ""
	for _, line := range strings.Split(got[i:], "\n") {
		if strings.Contains(line, "port0_a") {
			row = line
			break
		}
	}
	if row == "" {
		t.Fatalf("no port0_a row:\n%s", got)
	}
	for _, want := range []string{"up", "120", "118", "2", "3", "40", "5", "7", "1", "4", "11"} {
		if !strings.Contains(row, want) {
			t.Errorf("row %q missing %q", row, want)
		}
	}

	// Without any transport series the table degrades to a note.
	empty := telemetry.NewRegistry()
	emux := http.NewServeMux()
	emux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		empty.WritePrometheus(w)
	})
	esrv := httptest.NewServer(emux)
	defer esrv.Close()
	out.Reset()
	if err := run(&out, esrv.URL, 0, 0, false, false, false, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no transport_* series") {
		t.Errorf("empty run output: %q", out.String())
	}
}

// TestStalledEndpointErrorsInsteadOfHanging points every p5stat fetch
// at a server that accepts the request and never answers: each must
// come back with an error once the scrape client's timeout expires,
// rather than blocking p5stat forever.
func TestStalledEndpointErrorsInsteadOfHanging(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	fetches := map[string]func() error{
		"scrape": func() error { _, err := scrape(srv.URL + "/metrics"); return err },
		"slo":    func() error { return dumpSLO(&bytes.Buffer{}, srv.URL, true) },
		"trace":  func() error { return dumpTrace(&bytes.Buffer{}, srv.URL) },
	}
	errs := make(chan error, len(fetches))
	for name, fetch := range fetches {
		go func(name string, fetch func() error) {
			if err := fetch(); err == nil {
				errs <- fmt.Errorf("%s: stalled endpoint returned no error", name)
				return
			}
			errs <- nil
		}(name, fetch)
	}
	deadline := time.After(30 * time.Second)
	for range fetches {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			t.Fatal("p5stat fetch still blocked on a stalled endpoint after 30s")
		}
	}
}
