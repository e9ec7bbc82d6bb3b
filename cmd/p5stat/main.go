// Command p5stat renders a columnar per-stage utilisation and stall
// report from a running p5sim telemetry endpoint — the software
// equivalent of watching the pipeline's occupancy LEDs. It attaches to
// the Prometheus exposition at /metrics (shared with any ordinary
// scraper), groups series by instrument prefix (p5, p5tx, p5rx,
// sonet), and derives busy and stall percentages from the cycle
// counters.
//
// With -interval the endpoint is rescraped periodically and each
// report shows the delta window, so live runs read as rates rather
// than lifetime totals. With -events the structured trace at /trace is
// dumped after the tables; -replay FILE formats a saved JSON trace
// (the /trace or telemetry.WriteJSON format) without attaching to
// anything. With -slo the error-budget board at /slo is rendered after
// the tables (burn rates, budget remaining, alarms, per-link loss);
// -exemplars adds each link's latency exemplars — bucket upper bound,
// frame id, and the tick it was observed — so a p99 outlier resolves
// to a concrete frame.
//
// With -transport the per-line transport table is rendered after the
// stage tables (socket-backed p5sim runs export the transport_* series):
// liveness, chunk counters, reconnects and resets, keepalive probe and
// miss counts, and send-queue backpressure high-water marks.
//
// With -bench p5stat leaves the live endpoint alone and becomes the
// bench trend analyser: it loads every BENCH_*.json snapshot from -dir
// (written by scripts/bench.sh), prints the per-benchmark time series
// with a regression verdict for the two newest snapshots, and exits
// non-zero naming the worst regressed benchmark when any ns/op grew
// more than -trend-pct. -md FILE additionally writes a markdown trend
// report. Benchmarks appearing or disappearing between snapshots are
// annotated, never an error; fewer than two snapshots is a no-op.
//
// With -fleet ADDR,ADDR,... p5stat becomes the fleet board: every
// address's /metrics and /status are scraped, merged under per-instance
// labels, and rendered as one columnar view — instance identity
// (health, uptime, wire version, armed subsystems), per-line transport
// state with one-way latency p50/p99 and RTT p50, and the SLO
// burn-rate/alarm rows across all instances. Unreachable instances
// render as DOWN rows instead of failing the board.
//
// Usage:
//
//	p5stat [-url http://127.0.0.1:8080] [-interval 2s] [-n 5] [-events] [-slo] [-exemplars] [-transport]
//	p5stat -fleet 127.0.0.1:8080,127.0.0.1:8081
//	p5stat -replay trace.json
//	p5stat -bench [-dir .] [-trend-pct 10] [-md TREND.md]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/flight"
	"repro/internal/obsnet"
	"repro/internal/telemetry"
	"repro/internal/trend"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "p5sim telemetry endpoint base URL")
	interval := flag.Duration("interval", 0, "rescrape period (0 = one snapshot report)")
	count := flag.Int("n", 0, "stop after this many interval reports (0 = run until killed)")
	events := flag.Bool("events", false, "dump the structured event trace from /trace after the report")
	transportTab := flag.Bool("transport", false, "render the per-line transport table (liveness, reconnects, keepalive misses, queue high-water) from the transport_* series")
	slo := flag.Bool("slo", false, "render the error-budget board from /slo after the report")
	exemplars := flag.Bool("exemplars", false, "with the /slo board, list each link's latency exemplars")
	replay := flag.String("replay", "", "format events from a saved JSON trace file instead of attaching")
	fleet := flag.String("fleet", "", "comma-separated telemetry addresses; render the cross-instance fleet board instead of attaching to one endpoint")
	bench := flag.Bool("bench", false, "analyse BENCH_*.json trend snapshots instead of attaching")
	dir := flag.String("dir", ".", "with -bench, directory holding the BENCH_*.json snapshots")
	trendPct := flag.Float64("trend-pct", 10, "with -bench, ns/op growth beyond this percent is a regression")
	md := flag.String("md", "", "with -bench, also write a markdown trend report to this file")
	flag.Parse()

	if *bench {
		if err := runBench(os.Stdout, *dir, *trendPct, *md); err != nil {
			fmt.Fprintln(os.Stderr, "p5stat:", err)
			os.Exit(1)
		}
		return
	}
	if *fleet != "" {
		if err := runFleet(os.Stdout, *fleet); err != nil {
			fmt.Fprintln(os.Stderr, "p5stat:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *url, *interval, *count, *events, *slo, *exemplars, *transportTab, *replay); err != nil {
		fmt.Fprintln(os.Stderr, "p5stat:", err)
		os.Exit(1)
	}
}

// runFleet is the fleet-board mode: scrape every listed instance and
// render the cross-instance board. A fully dark fleet is an error (a
// typo'd address list should not exit 0); partial reachability is the
// board's job to show.
func runFleet(w io.Writer, addrList string) error {
	var addrs []string
	for _, a := range strings.Split(addrList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-fleet: no addresses")
	}
	instances := obsnet.ScrapeAll(addrs)
	if err := obsnet.WriteFleetBoard(w, instances); err != nil {
		return err
	}
	alive := 0
	for _, in := range instances {
		if in.Err == nil {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("no instance reachable (%d scraped)", len(instances))
	}
	return nil
}

// runBench is the trend-analytics mode. A regression is an error — the
// message names the worst benchmark so CI fails with a culprit, not
// just a threshold.
func runBench(w io.Writer, dir string, tolPct float64, mdPath string) error {
	snaps, err := trend.Load(dir)
	if err != nil {
		return err
	}
	r := trend.Analyze(snaps, tolPct)
	if err := r.WriteText(w); err != nil {
		return err
	}
	if mdPath != "" {
		f, err := os.Create(mdPath)
		if err != nil {
			return err
		}
		if err := r.WriteMarkdown(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trend: markdown report written to %s\n", mdPath)
	}
	if len(r.Regressions) > 0 {
		worst := r.Regressions[0]
		return fmt.Errorf("bench regression: %s %+.1f%% (%.0f -> %.0f ns/op, tolerance %g%%)",
			worst.Name, worst.DeltaPct, worst.OldNs, worst.NewNs, tolPct)
	}
	return nil
}

func run(w io.Writer, url string, interval time.Duration, count int, events, slo, exemplars, transportTab bool, replay string) error {
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return err
		}
		defer f.Close()
		evs, err := telemetry.ReadEvents(f)
		if err != nil {
			return fmt.Errorf("%s: %v", replay, err)
		}
		writeEvents(w, evs)
		return nil
	}

	cur, err := scrape(url + "/metrics")
	if err != nil {
		return err
	}
	trailers := func() error {
		if transportTab {
			writeTransport(w, cur)
		}
		if events {
			if err := dumpTrace(w, url); err != nil {
				return err
			}
		}
		if slo || exemplars {
			return dumpSLO(w, url, exemplars)
		}
		return nil
	}
	if interval <= 0 {
		report(w, cur, nil, 0)
		return trailers()
	}
	for i := 0; count == 0 || i < count; i++ {
		time.Sleep(interval)
		prev := cur
		if cur, err = scrape(url + "/metrics"); err != nil {
			return err
		}
		fmt.Fprintf(w, "--- window %s ---\n", interval)
		report(w, cur, prev, interval.Seconds())
	}
	return trailers()
}

// dumpSLO renders the /slo error-budget board: per-objective burn
// rates and, with exemplars, the concrete frames behind the latency
// histogram's slow buckets.
func dumpSLO(w io.Writer, base string, exemplars bool) error {
	body, err := obsnet.Get(base + "/slo")
	if err != nil {
		return err
	}
	doc, err := flight.ReadBoard(bytes.NewReader(body))
	if err != nil {
		return err
	}
	writeBoard(w, doc, exemplars)
	return nil
}

func writeBoard(w io.Writer, doc flight.BoardJSON, exemplars bool) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	if len(doc.SLOs) > 0 {
		fmt.Fprintln(w, "slo board:")
		fmt.Fprintln(tw, "\tslo\tloss burn\tp99 burn\tfailover burn\tworst\tbudget left\tp99 ticks\talarm\t")
		for _, s := range doc.SLOs {
			alarm := "-"
			if s.Alarm {
				alarm = "ALARM"
			}
			fmt.Fprintf(tw, "\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f%%\t%d\t%s\t\n",
				s.Name, s.LossBurn, s.P99Burn, s.FailoverBurn, s.WorstBurn,
				100*s.BudgetRemaining, s.P99Ticks, alarm)
		}
		tw.Flush()
	}
	if len(doc.Links) > 0 {
		fmt.Fprintln(tw, "\tlink\ttracked\tlost\tin flight\tp99 ticks\tcaptures\t")
		for _, l := range doc.Links {
			fmt.Fprintf(tw, "\t%s\t%d\t%d\t%d\t%d\t%d\t\n",
				l.Link, l.Tracked, l.Lost, l.InFlight, l.P99Ticks, l.Captures)
		}
		tw.Flush()
	}
	if !exemplars {
		return
	}
	for _, l := range doc.Links {
		if len(l.Exemplars) == 0 {
			continue
		}
		fmt.Fprintf(w, "exemplars %s:\n", l.Link)
		fmt.Fprintln(tw, "\tbucket ≤\tlatency\tframe id\tat tick\t")
		for _, ex := range l.Exemplars {
			le := fmt.Sprintf("%d", ex.LE)
			if ex.LE == math.MaxInt64 {
				le = "+Inf"
			}
			fmt.Fprintf(tw, "\t%s\t%d\t%d\t%d\t\n", le, ex.Value, ex.ID, ex.At)
		}
		tw.Flush()
	}
}

// writeTransport renders the per-line transport table from the
// transport_* series family (exported by socket-backed p5sim runs):
// liveness, chunk counters, connection churn, keepalive health,
// send-queue backpressure, and wire-level latency (one-way p50/p99 from
// the sampled wall stamps, RTT p50 from keepalive probes), one row per
// line label.
func writeTransport(w io.Writer, cur []telemetry.Series) {
	type row struct{ vals map[string]float64 }
	rows := map[string]*row{}
	names := []string{}
	for _, s := range cur {
		if !strings.HasPrefix(s.Name, "transport_") {
			continue
		}
		line := s.Label("line")
		if line == "" {
			continue
		}
		r := rows[line]
		if r == nil {
			r = &row{vals: map[string]float64{}}
			rows[line] = r
			names = append(names, line)
		}
		r.vals[s.Name] = s.Value
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "transport: no transport_* series (not a socket-backed run?)")
		return
	}
	sort.Strings(names)
	// Latency columns come from the per-line histograms rather than the
	// flattened gauge map — quantiles need the bucket structure.
	quant := func(line, name string, q float64) string {
		v, ok := telemetry.SeriesQuantile(cur, name, q, telemetry.L("line", line))
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	fmt.Fprintln(w, "transport lines:")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "\tline\tup\ttx\trx\toneway-p50µs\toneway-p99µs\trtt-p50µs\treconn\tresets\tprobes\tmisses\ttx-drop\trx-drop\tq\tq-hw\t")
	for _, n := range names {
		v := rows[n].vals
		up := "down"
		if v["transport_up"] == 1 {
			up = "up"
		}
		fmt.Fprintf(tw, "\t%s\t%s\t%.0f\t%.0f\t%s\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t\n",
			n, up,
			v["transport_tx_chunks_total"], v["transport_rx_chunks_total"],
			quant(n, "transport_oneway_latency_us", 0.50),
			quant(n, "transport_oneway_latency_us", 0.99),
			quant(n, "transport_rtt_us", 0.50),
			v["transport_reconnects_total"], v["transport_resets_total"],
			v["transport_keepalive_probes_total"], v["transport_keepalive_misses_total"],
			v["transport_tx_dropped_total"], v["transport_rx_dropped_total"],
			v["transport_queue_depth"], v["transport_queue_high_water"])
	}
	tw.Flush()
}

// scrape fetches and parses one Prometheus exposition.
func scrape(url string) ([]telemetry.Series, error) {
	body, err := obsnet.Get(url)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseText(bytes.NewReader(body))
}

func dumpTrace(w io.Writer, base string) error {
	body, err := obsnet.Get(base + "/trace")
	if err != nil {
		return err
	}
	evs, err := telemetry.ReadEvents(bytes.NewReader(body))
	if err != nil {
		return err
	}
	writeEvents(w, evs)
	return nil
}

func writeEvents(w io.Writer, evs []telemetry.Event) {
	fmt.Fprintf(w, "trace: %d events\n", len(evs))
	for _, e := range evs {
		fmt.Fprintln(w, " ", e.String())
	}
}

// report renders the per-prefix stage tables. prev (from an earlier
// scrape) turns counters into window deltas; elapsed > 0 adds a
// per-second rate column.
func report(w io.Writer, cur, prev []telemetry.Series, elapsed float64) {
	prevVal := map[string]float64{}
	for _, s := range prev {
		prevVal[s.Full] = s.Value
	}
	// delta is the windowed value of one series: counters (by the
	// _total naming convention) are differenced against the previous
	// scrape; gauges always show the instantaneous value.
	delta := func(s telemetry.Series) float64 {
		if strings.HasSuffix(s.Name, "_total") {
			return s.Value - prevVal[s.Full]
		}
		return s.Value
	}

	byPrefix := map[string][]telemetry.Series{}
	for _, s := range cur {
		p := s.Name
		if i := strings.IndexByte(p, '_'); i > 0 {
			p = p[:i]
		}
		byPrefix[p] = append(byPrefix[p], s)
	}
	prefixes := make([]string, 0, len(byPrefix))
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)

	for _, p := range prefixes {
		group := byPrefix[p]
		cycles := 0.0
		var units, wires, rest []telemetry.Series
		for _, s := range group {
			switch {
			case s.Name == p+"_cycles_total":
				cycles = delta(s)
			case s.Name == p+"_unit_busy_cycles_total":
				units = append(units, s)
			case strings.HasPrefix(s.Name, p+"_wire_"):
				wires = append(wires, s)
			default:
				rest = append(rest, s)
			}
		}
		if cycles > 0 {
			fmt.Fprintf(w, "%s: %.0f cycles\n", p, cycles)
		} else {
			fmt.Fprintf(w, "%s:\n", p)
		}
		pct := func(v float64) string {
			if cycles <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*v/cycles)
		}

		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
		if len(units) > 0 {
			fmt.Fprintln(tw, "\tunit\tbusy%\t")
			sort.Slice(units, func(i, j int) bool { return units[i].Label("unit") < units[j].Label("unit") })
			for _, s := range units {
				fmt.Fprintf(tw, "\t%s\t%s\t\n", s.Label("unit"), pct(delta(s)))
			}
		}
		if len(wires) > 0 {
			// Regroup the three wire families by wire name.
			type wireRow struct{ occ, stall, xfer float64 }
			rows := map[string]*wireRow{}
			names := []string{}
			at := func(n string) *wireRow {
				if rows[n] == nil {
					rows[n] = &wireRow{}
					names = append(names, n)
				}
				return rows[n]
			}
			for _, s := range wires {
				n := s.Label("wire")
				switch s.Name {
				case p + "_wire_occupied_cycles_total":
					at(n).occ = delta(s)
				case p + "_wire_stalls_total":
					at(n).stall = delta(s)
				case p + "_wire_transfers_total":
					at(n).xfer = delta(s)
				}
			}
			sort.Strings(names)
			fmt.Fprintln(tw, "\twire\tocc%\tstall%\ttransfers\t")
			for _, n := range names {
				r := rows[n]
				fmt.Fprintf(tw, "\t%s\t%s\t%s\t%.0f\t\n", n, pct(r.occ), pct(r.stall), r.xfer)
			}
		}
		if len(rest) > 0 {
			if elapsed > 0 {
				fmt.Fprintln(tw, "\tseries\tvalue\trate/s\t")
			} else {
				fmt.Fprintln(tw, "\tseries\tvalue\t")
			}
			for _, s := range rest {
				v := delta(s)
				if elapsed > 0 {
					fmt.Fprintf(tw, "\t%s\t%g\t%.1f\t\n", s.Full, v, v/elapsed)
				} else {
					fmt.Fprintf(tw, "\t%s\t%g\t\n", s.Full, v)
				}
			}
		}
		tw.Flush()
	}
}
