package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// modeSeries runs every p5sim mode that serves /metrics — with -flight
// where the mode honours it — and returns each scrape's series names
// and label sets (values dropped), prefixed with the mode.
func modeSeries(t *testing.T) []string {
	var mu sync.Mutex
	var all []string
	collect := func(mode string, cfg simConfig) error {
		cfg.telemetryAddr = "127.0.0.1:0"
		cfg.scrape = func(base string) {
			series := seriesMap(t, base)
			mu.Lock()
			defer mu.Unlock()
			for s := range series {
				all = append(all, mode+" "+s)
			}
		}
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			return fmt.Errorf("%s: %v\n%s", mode, err, out.String())
		}
		return nil
	}
	for _, m := range []struct {
		mode string
		cfg  simConfig
	}{
		{"loopback", simConfig{width: 32, frames: 20, size: "imix"}},
		{"sonet", simConfig{width: 32, frames: 20, size: "imix", sonetMode: true}},
		{"protect", simConfig{protectMode: true, cutFrames: 30, flightDir: t.TempDir()}},
		{"engine", simConfig{engineLinks: 4, engineShards: 2, frames: 50, size: "256", flightDir: t.TempDir()}},
	} {
		if err := collect(m.mode, m.cfg); err != nil {
			t.Fatal(err)
		}
	}

	// The two halves of -listen/-dial, each scraped after its run.
	addr := fmt.Sprintf("127.0.0.1:%d", freeUDPPort(t))
	common := simConfig{frames: 100, size: "imix", engineLinks: 1, flightDir: t.TempDir()}
	common.net = netConfig{proto: "udp", keepalive: 64, tickUS: 20}
	lcfg, dcfg := common, common
	lcfg.net.listen, dcfg.net.dial = addr, addr
	dcfg.flightDir = t.TempDir()
	lerr := make(chan error, 1)
	go func() { lerr <- collect("listen", lcfg) }()
	if err := collect("dial", dcfg); err != nil {
		t.Fatal(err)
	}
	if err := <-lerr; err != nil {
		t.Fatal(err)
	}
	sort.Strings(all)
	return all
}

// TestModeSeriesGolden pins the /metrics series set of every mode.
// testdata/mode_series.golden was captured from the per-method arming
// API that the single Observe bundle replaced, so the modes must
// export exactly the same series names and labels.
func TestModeSeriesGolden(t *testing.T) {
	got := modeSeries(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "mode_series.golden"))
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
