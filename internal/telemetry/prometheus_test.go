package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// HELP/TYPE headers once per family, registration order, label
// rendering, histogram flattening. Regenerate with `go test -update`.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("p5_tx_frames_total", "Frames pushed by the framer.").Add(42)
	r.Counter("p5_wire_transfers_total", "Words accepted across a wire.", L("wire", "framer.crc")).Add(9)
	r.Gauge("p5_fifo_highwater", "", L("unit", "escape_gen")).Set(12)
	r.GaugeFunc("p5_clock_mhz", "Modelled line clock.", func() float64 { return 155.52 })
	h := r.Histogram("p5_sink_gap_cycles", "Inter-word gap at the sink.", []int64{1, 2, 4})
	for _, v := range []int64{1, 3, 10} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// FuzzParseText feeds arbitrary text to the scrape-side parser, which
// obsnet and p5stat run on remote /metrics bodies: no input may panic,
// and a parsed series' family name prefixes its full series. Each input
// also drives a small registry — its printable octets as a label
// value, its length and first octets as sample values — through
// WritePrometheus and back through ParseText, which must reproduce
// every value.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		if series, err := ParseText(strings.NewReader(in)); err == nil {
			for _, s := range series {
				if !strings.HasPrefix(s.Full, s.Name) {
					t.Fatalf("series %q: name %q is not its prefix", s.Full, s.Name)
				}
			}
		}

		label := strings.Map(func(r rune) rune {
			if r < 0x20 || r > 0x7E {
				return -1
			}
			return r
		}, in)
		gauge := int64(0)
		for i := 0; i < len(in) && i < 4; i++ {
			gauge = gauge<<8 | int64(in[i])
		}
		r := NewRegistry()
		r.Counter("a_total", "help a").Add(uint64(len(in)))
		r.Gauge("b", "", L("k", label)).Set(-gauge)
		h := r.Histogram("c", "", []int64{64, 128})
		for i := 0; i < len(in); i++ {
			h.Observe(int64(in[i]))
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		series, err := ParseText(&buf)
		if err != nil {
			t.Fatalf("own exposition rejected: %v\n%s", err, buf.String())
		}
		got := map[string]Series{}
		for _, s := range series {
			got[s.Name] = s
		}
		if s := got["a_total"]; s.Value != float64(len(in)) {
			t.Errorf("a_total = %v, want %d", s.Value, len(in))
		}
		if s := got["b"]; s.Value != float64(-gauge) || s.Label("k") != label {
			t.Errorf("b = %+v, want %d with k=%q", s, -gauge, label)
		}
		if s := got["c_count"]; s.Value != float64(len(in)) {
			t.Errorf("c_count = %v, want %d", s.Value, len(in))
		}
	})
}
