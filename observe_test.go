package gigapos

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// seriesOf renders reg's /metrics exposition and returns its series —
// name plus label block, values dropped — each prefixed with component.
func seriesOf(t *testing.T, component string, reg *telemetry.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(parsed))
	for _, s := range parsed {
		out = append(out, component+" "+s.Full)
	}
	return out
}

// observedSeries arms one of each observable component through its
// Observe bundle, runs it briefly, and returns every exported series.
func observedSeries(t *testing.T) []string {
	var all []string
	fcfg := &flight.Config{}

	// A supervised, LQM- and VJ-enabled Link pair: both ends export
	// their protocol series and carry a recorder; b adds the SLO.
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	cfg := LinkConfig{Supervise: true, LQMPeriod: 5, WantVJ: true, AllowVJ: true}
	cfg.Magic, cfg.IPAddr = 0x1111, [4]byte{10, 0, 0, 1}
	cfg.Observe = &Observe{Registry: reg, Tracer: tr, Name: "link_a", Flight: fcfg, FlightName: "rec_a"}
	a := NewLink(cfg)
	cfg.Magic, cfg.IPAddr = 0x2222, [4]byte{10, 0, 0, 2}
	cfg.Observe = &Observe{Registry: reg, Tracer: tr, Name: "link_b", Flight: fcfg, FlightName: "rec_b",
		SLO: &flight.SLOConfig{}, SLOName: "slo_b", Peer: a}
	b := NewLink(cfg)
	a.Open()
	a.Up()
	b.Open()
	b.Up()
	for now := int64(1); now <= 64; now++ {
		tick(a, b, now, false)
	}
	all = append(all, seriesOf(t, "link", reg)...)

	// A ProtectedLink: link, APS and per-line deframer probes plus a
	// recorder.
	reg = telemetry.NewRegistry()
	pl := NewProtectedLink(LinkConfig{Magic: 0x3333, Observe: &Observe{
		Registry: reg, Tracer: tr, Name: "prot", Flight: fcfg, FlightName: "prot_rec"}}, ProtectionConfig{})
	for now := int64(1); now <= 8; now++ {
		pl.Advance(now)
		w, p := pl.NextFrames()
		pl.FeedWorking(w)
		pl.FeedProtect(p)
	}
	all = append(all, seriesOf(t, "protected", reg)...)

	// A loopback Engine and a Pipe-backed one: engine counters, every
	// endpoint's recorder, the z-side SLOs, and the transport series.
	for _, tc := range []struct {
		component string
		pipes     bool
	}{{"engine-loopback", false}, {"engine-transport", true}} {
		reg = telemetry.NewRegistry()
		ecfg := EngineConfig{Links: 3, Shards: 2, PayloadSize: 64, Batch: 2,
			Observe: &Observe{Registry: reg, Name: "lc", Flight: fcfg}}
		if tc.pipes {
			ecfg.Transport = func(int) (transport.LineTransport, transport.LineTransport) {
				return transport.NewPipePair()
			}
		}
		e := NewEngine(ecfg)
		if !e.BringUp(512).Ready {
			e.Close()
			t.Fatalf("%s: bring-up failed", tc.component)
		}
		e.Run(16)
		all = append(all, seriesOf(t, tc.component, reg)...)
		e.Close()
	}
	sort.Strings(all)
	return all
}

// TestObserveSeriesGolden pins the /metrics series names and label
// sets each armed component exports. testdata/observe_series.golden
// was captured from the per-method arming API that Observe replaced,
// so construction-time arming must export exactly the same set.
func TestObserveSeriesGolden(t *testing.T) {
	got := observedSeries(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "observe_series.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	inGot := make(map[string]bool, len(got))
	for _, s := range got {
		inGot[s] = true
	}
	inWant := make(map[string]bool, len(want))
	for _, s := range want {
		inWant[s] = true
		if !inGot[s] {
			t.Errorf("missing series: %s", s)
		}
	}
	for _, s := range got {
		if !inWant[s] {
			t.Errorf("unexpected series: %s", s)
		}
	}
}

// TestTransportPortCorrelation pins when NewTransportPort joins the
// link's recorder to capture correlation: only for an armed link over
// a transport with a freeze side channel (UDP), never over Pipe and
// never for an unarmed link.
func TestTransportPortCorrelation(t *testing.T) {
	ln, dl := udpPair(t, transport.Config{})
	armed := func(name string) *Link {
		return NewLink(LinkConfig{Observe: &Observe{Flight: &flight.Config{}, FlightName: name}})
	}
	pa, pz := transport.NewPipePair()
	for _, tc := range []struct {
		name string
		p    *TransportPort
		want bool
	}{
		{"armed over UDP", NewTransportPort(armed("udp"), ln), true},
		{"armed over Pipe", NewTransportPort(armed("pipe"), pa), false},
		{"unarmed over UDP", NewTransportPort(NewLink(LinkConfig{}), dl), false},
		{"unarmed over Pipe", NewTransportPort(NewLink(LinkConfig{}), pz), false},
	} {
		rec := tc.p.Link.Flight()
		correlated := rec != nil && rec.Correlate != nil
		if correlated != tc.want || (tc.p.fz != nil) != tc.want {
			t.Errorf("%s: correlated=%v (freeze channel %v), want %v", tc.name, correlated, tc.p.fz != nil, tc.want)
		}
	}
}
