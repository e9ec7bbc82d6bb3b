#!/bin/sh
# verify.sh — the repo's full verification gate:
#   go vet, gofmt, go build, go test -race, the perfbench module's vet
#   and tests, the flight-recorder and stage-profile overhead gates,
#   the chaos/transport smokes, a 30s differential fuzz of the fused RX
#   kernel (FUSED_FUZZTIME overrides),
#   a decode-throughput floor vs the newest BENCH_*.json snapshot, the
#   benchmark trend gate, and a short fuzz smoke of every Fuzz* target
#   (5s each by default; FUZZTIME overrides).
#
# Usage: ./scripts/verify.sh   (or: make verify)
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-5s}"

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files are not gofmt-clean:"
    printf '%s\n' "$unformatted"
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race (telemetry concurrency gate) =="
# The telemetry registry/tracer promise lock-free concurrent scraping;
# run their concurrency tests under the race detector first and with
# more iterations so a probe-side data race fails loudly before the
# full suite runs.
go test -race -count 2 ./internal/telemetry

echo "== go test -race (transport concurrency gate) =="
# The endpoint core's state is shared by the UDP reader, the TCP
# reader, writer and dialer goroutines and the owning tick loop; run
# the transport package twice under the race detector on its own.
go test -race -count 2 ./internal/transport

echo "== go test -race =="
go test -race ./...

echo "== perfbench module (vet + tests) =="
# perfbench is a nested module (repro/perfbench), so the root
# ./... patterns never build it; vet and test it on its own so an API
# change it depends on fails here rather than in the benchmark run.
(cd perfbench && go vet ./... && go test ./...)

echo "== flight recorder overhead gate =="
# The armed encode benchmark must stay zero-alloc and within
# FLIGHT_OVERHEAD_PCT (default 5) percent of the unarmed baseline —
# the recorder's contract is an invisible transmit fast path.
FLIGHT_BENCHTIME="${FLIGHT_BENCHTIME:-5000x}"
bench_out=$(go test -run '^$' -bench '^BenchmarkLinkEncodeSteady(Flight)?$' \
    -benchtime "$FLIGHT_BENCHTIME" -count 3 -benchmem .)
printf '%s\n' "$bench_out"
printf '%s\n' "$bench_out" | awk -v tol="${FLIGHT_OVERHEAD_PCT:-5}" '
$1 ~ /^BenchmarkLinkEncodeSteady(-[0-9]+)?$/ {
    if (nb == 0 || $3 < base) base = $3     # best-of-count: noise floor
    nb++
}
$1 ~ /^BenchmarkLinkEncodeSteadyFlight(-[0-9]+)?$/ {
    if (na == 0 || $3 < armed) armed = $3
    na++
    if ($(NF-1) + 0 != 0) { bad_allocs = $(NF-1) }
}
END {
    if (nb == 0 || na == 0) { print "flight gate: benchmark output missing"; exit 1 }
    if (bad_allocs != "") { printf "flight gate: armed allocs/op = %s, want 0\n", bad_allocs; exit 1 }
    if (armed > base * (1 + tol / 100)) {
        printf "flight gate: armed %.0f ns/op vs base %.0f ns/op exceeds %s%%\n", armed, base, tol
        exit 1
    }
    printf "flight gate: OK (armed %.0f ns/op vs base %.0f ns/op, 0 allocs, tol %s%%)\n", armed, base, tol
}'

echo "== stage-profile overhead gate =="
# The armed engine benchmark (stage cost accounting, default 1-in-32
# sampling) must stay zero-alloc and within PROF_OVERHEAD_PCT
# (default 8) percent of the disarmed baseline at shards=1 — the
# observatory's contract is that watching the hot path does not bend
# it. The stamp cost itself is ~0.01% of a step (E17); the ns/op
# tolerance exists to catch armed-path pathologies, and is set to what
# best-of-count floors actually converge to on a steal-prone host —
# the fused RX kernel halved the step time (E18), so the same absolute
# wall noise is now a larger fraction of it. The allocs/op == 0
# assertion below is exact and carries the gate.
PROF_BENCHTIME="${PROF_BENCHTIME:-2000x}"
prof_out=$(go test -run '^$' \
    -bench '^BenchmarkEngineAggregate(Profiled)?$/^links=8$/^shards=1$' \
    -benchtime "$PROF_BENCHTIME" -count "${PROF_GATE_COUNT:-6}" -benchmem .)
printf '%s\n' "$prof_out"
printf '%s\n' "$prof_out" | awk -v tol="${PROF_OVERHEAD_PCT:-8}" '
$1 ~ /^BenchmarkEngineAggregate\/links=8\/shards=1(-[0-9]+)?$/ {
    if (nb == 0 || $3 < base) base = $3     # best-of-count: noise floor
    nb++
}
$1 ~ /^BenchmarkEngineAggregateProfiled\/links=8\/shards=1(-[0-9]+)?$/ {
    if (na == 0 || $3 < armed) armed = $3
    na++
    if ($(NF-1) + 0 != 0) { bad_allocs = $(NF-1) }
}
END {
    if (nb == 0 || na == 0) { print "prof gate: benchmark output missing"; exit 1 }
    if (bad_allocs != "") { printf "prof gate: armed allocs/op = %s, want 0\n", bad_allocs; exit 1 }
    if (armed > base * (1 + tol / 100)) {
        printf "prof gate: armed %.0f ns/op vs base %.0f ns/op exceeds %s%%\n", armed, base, tol
        exit 1
    }
    printf "prof gate: OK (armed %.0f ns/op vs base %.0f ns/op, 0 allocs, tol %s%%)\n", armed, base, tol
}'

echo "== armed latency-tracing gate =="
# The distributed-observatory steady state — real UDP loopback pair,
# v2 latency-tracing header, flight recorders and capture correlation
# armed — must stay exactly 0 allocs/op: tracing rides the pooled
# buffers or it does not ship.
LAT_BENCHTIME="${LAT_BENCHTIME:-5000x}"
lat_out=$(go test -run '^$' -bench '^BenchmarkTransportUDPSteady$' \
    -benchtime "$LAT_BENCHTIME" -count 3 -benchmem .)
printf '%s\n' "$lat_out"
printf '%s\n' "$lat_out" | awk '
/--- FAIL/ { failed = 1 }
$1 ~ /^BenchmarkTransportUDPSteady(-[0-9]+)?$/ && $NF == "allocs/op" {
    n++
    if ($(NF-1) + 0 != 0) { bad_allocs = $(NF-1) }
}
END {
    if (failed) { print "latency gate: benchmark run FAILed"; exit 1 }
    if (n == 0) { print "latency gate: benchmark output missing"; exit 1 }
    if (bad_allocs != "") { printf "latency gate: armed allocs/op = %s, want 0\n", bad_allocs; exit 1 }
    printf "latency gate: OK (%d runs, 0 allocs/op with tracing + correlation armed)\n", n
}'

echo "== chaos scenario smoke =="
# Run the committed protection drills end-to-end through the p5sim
# -scenario mode: a failed SLO assertion makes p5sim exit non-zero
# and names the .p5fr captures, failing this gate.
scen_bin="$(mktemp -d)/p5sim"
go build -o "$scen_bin" ./cmd/p5sim
for drill in fiber-cut dual-cut noise-resync; do
    echo "-- scenarios/$drill.json"
    "$scen_bin" -scenario "scenarios/$drill.json"
done

echo "== transport chaos smoke (two p5sim processes over UDP loopback) =="
# Two p5sim halves interconnect over real UDP sockets; a 250-tick
# stall window is scripted on the listener's line. Keepalive probes
# keep flowing through a stall, so both halves must ride it out and
# resynchronise losslessly: zero LCP renegotiations, zero rx errors.
net_port=$((20000 + $$ % 20000))
net_dir="$(dirname "$scen_bin")"
"$scen_bin" -listen "127.0.0.1:$net_port" -engine 2 -frames 3000 \
    -net-stall 500:750 > "$net_dir/netA.log" 2>&1 &
net_pid=$!
sleep 1
"$scen_bin" -dial "127.0.0.1:$net_port" -engine 2 -frames 3000 \
    > "$net_dir/netZ.log" 2>&1
wait "$net_pid"
cat "$net_dir/netA.log" "$net_dir/netZ.log"
for log in "$net_dir/netA.log" "$net_dir/netZ.log"; do
    grep '^NET-REPORT ' "$log" | awk '{
        for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
        if (v["delivered"] + 0 == 0) { print "transport smoke: nothing delivered"; exit 1 }
        if (v["renegotiations"] + 0 != 0) {
            printf "transport smoke: %s LCP renegotiations riding the stall, want 0\n", v["renegotiations"]; exit 1
        }
        if (v["rx_errors"] + 0 != 0) { printf "transport smoke: rx_errors=%s, want 0\n", v["rx_errors"]; exit 1 }
        found = 1
    }
    END { if (!found) { print "transport smoke: no NET-REPORT line"; exit 1 } }'
done
echo "transport smoke: OK (stall ridden out, zero renegotiations)"

echo "== distributed fleet smoke (two instances, one board, correlated captures) =="
# Two p5sim instances interconnect over UDP with flight recorders and
# telemetry endpoints armed; a scripted blackout cuts the line mid-run.
# The gate asserts the three distributed-observatory claims end to end:
# `p5stat -fleet` renders both instances in one board, the blackout
# yields exactly one transport-los capture per end, and the pair shares
# an incident ID that `p5trace -join` merges into one timeline.
fleet_port=$((21000 + $$ % 20000))
tport_a=$((fleet_port + 211))
tport_z=$((fleet_port + 212))
fdir_a="$net_dir/flightA"
fdir_z="$net_dir/flightZ"
mkdir -p "$fdir_a" "$fdir_z"
go build -o "$net_dir/p5stat" ./cmd/p5stat
go build -o "$net_dir/p5trace" ./cmd/p5trace
"$scen_bin" -listen "127.0.0.1:$fleet_port" -engine 1 -frames 3000 \
    -net-blackout 500:1100 -flight "$fdir_a" \
    -telemetry "127.0.0.1:$tport_a" > "$net_dir/fleetA.log" 2>&1 &
fleet_a_pid=$!
sleep 1
"$scen_bin" -dial "127.0.0.1:$fleet_port" -engine 1 -frames 3000 \
    -flight "$fdir_z" \
    -telemetry "127.0.0.1:$tport_z" > "$net_dir/fleetZ.log" 2>&1 &
fleet_z_pid=$!
# The -telemetry endpoints serve forever; poll for the reports, scrape,
# then kill both halves.
fleet_up=0
for _ in $(seq 1 120); do
    if grep -q '^NET-REPORT ' "$net_dir/fleetA.log" 2>/dev/null &&
       grep -q '^NET-REPORT ' "$net_dir/fleetZ.log" 2>/dev/null; then
        fleet_up=1
        break
    fi
    sleep 1
done
if [ "$fleet_up" != 1 ]; then
    echo "fleet smoke: instances never reported"
    cat "$net_dir/fleetA.log" "$net_dir/fleetZ.log"
    exit 1
fi
cat "$net_dir/fleetA.log" "$net_dir/fleetZ.log"
"$net_dir/p5stat" -fleet "127.0.0.1:$tport_a,127.0.0.1:$tport_z" > "$net_dir/fleet-board.txt"
cat "$net_dir/fleet-board.txt"
for want in "127.0.0.1:$tport_a" "127.0.0.1:$tport_z" "wire v2" "oneway-p50" "port0"; do
    grep -q -- "$want" "$net_dir/fleet-board.txt" || {
        echo "fleet smoke: board is missing \"$want\""
        exit 1
    }
done
kill "$fleet_a_pid" "$fleet_z_pid" 2>/dev/null || true
wait "$fleet_a_pid" "$fleet_z_pid" 2>/dev/null || true
los_a=$(ls "$fdir_a"/*transport-los.p5fr 2>/dev/null | wc -l)
los_z=$(ls "$fdir_z"/*transport-los.p5fr 2>/dev/null | wc -l)
if [ "$los_a" -ne 1 ] || [ "$los_z" -ne 1 ]; then
    echo "fleet smoke: transport-los captures A=$los_a Z=$los_z, want exactly 1 each"
    ls -l "$fdir_a" "$fdir_z"
    exit 1
fi
"$net_dir/p5trace" -join "$fdir_a"/*transport-los.p5fr "$fdir_z"/*transport-los.p5fr \
    > "$net_dir/fleet-join.txt"
cat "$net_dir/fleet-join.txt"
grep -q '^incident ' "$net_dir/fleet-join.txt" || {
    echo "fleet smoke: joined timeline missing incident header"
    exit 1
}
echo "fleet smoke: OK (one board, one correlated capture pair, joined timeline)"
rm -rf "$(dirname "$scen_bin")"

echo "== fused decode fuzz smoke (${FUSED_FUZZTIME:-30s}) =="
# The fused single-pass destuff+CRC kernel is gated by its differential
# fuzzer: a longer dedicated run than the generic smoke below, because
# this target compares two live decoder implementations (span-fused vs
# byte-at-a-time reference) and any divergence is a correctness bug in
# the receive hot path.
go test -run '^$' -fuzz '^FuzzFusedDecode$' \
    -fuzztime "${FUSED_FUZZTIME:-30s}" ./internal/hdlc

echo "== decode throughput floor gate =="
# The fused RX kernel's headline number must not regress: run the
# steady-state decode benchmark live and compare its MB/s against the
# newest BENCH_*.json snapshot. More than DECODE_FLOOR_PCT (default 20)
# percent below the snapshot fails. With no snapshot this is a no-op.
# The default matches the host's observed same-day wall-clock spread
# (996-1218 MB/s under steal, ~20% around the mean): the snapshot may
# catch a fast phase and this gate a slow one. It still fails on any
# real kernel regression; the deterministic 0 allocs/op gates above
# are the noise-immune protection.
snap=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1)
if [ -n "$snap" ]; then
    snap_mbs=$(grep -o '"name": "BenchmarkLinkDecodeSteady"[^}]*' "$snap" |
        grep -o '"MB_per_s": [0-9.]*' | awk '{print $2}')
    if [ -n "$snap_mbs" ]; then
        DECODE_BENCHTIME="${DECODE_BENCHTIME:-5000x}"
        dec_out=$(go test -run '^$' -bench '^BenchmarkLinkDecodeSteady$' \
            -benchtime "$DECODE_BENCHTIME" -count 3 -benchmem .)
        printf '%s\n' "$dec_out"
        printf '%s\n' "$dec_out" | awk -v snap="$snap_mbs" \
            -v tol="${DECODE_FLOOR_PCT:-20}" -v file="$snap" '
        $1 ~ /^BenchmarkLinkDecodeSteady(-[0-9]+)?$/ {
            for (i = 2; i < NF; i++)
                if ($(i + 1) == "MB/s" && $i + 0 > best) best = $i + 0
        }
        END {
            if (best == 0) { print "decode floor: benchmark output missing MB/s"; exit 1 }
            floor = snap * (1 - tol / 100)
            if (best < floor) {
                printf "decode floor: %.0f MB/s vs snapshot %.0f MB/s (%s) exceeds -%s%%\n", \
                    best, snap, file, tol
                exit 1
            }
            printf "decode floor: OK (%.0f MB/s vs snapshot %.0f MB/s in %s, tol %s%%)\n", \
                best, snap, file, tol
        }'
    else
        echo "decode floor: no BenchmarkLinkDecodeSteady in $snap, skipping"
    fi
else
    echo "decode floor: no BENCH_*.json snapshot, skipping"
fi

echo "== benchmark trend =="
# Compare the two newest BENCH_*.json snapshots; >10% ns/op regression
# fails. With fewer than two snapshots this is a no-op.
./scripts/bench-trend

echo "== fuzz smoke ($FUZZTIME per target) =="
# Each fuzz target must run alone: `go test -fuzz` accepts only one
# match per package invocation.
go list ./... | while read -r pkg; do
    dir=$(go list -f '{{.Dir}}' "$pkg")
    targets=$(grep -ho 'func Fuzz[A-Za-z0-9_]*' "$dir"/*_test.go 2>/dev/null |
        sed 's/func //' | sort -u) || true
    [ -n "$targets" ] || continue
    for t in $targets; do
        echo "-- $pkg $t"
        go test -run '^$' -fuzz "^${t}\$" -fuzztime "$FUZZTIME" "$pkg"
    done
done

echo "verify: OK"
