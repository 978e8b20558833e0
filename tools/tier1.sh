#!/usr/bin/env bash
# Tier-1 verification gate: release build, full workspace test suite, and
# lint-clean clippy. Run from anywhere; exits non-zero on the first failure.
#
#   tools/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release --workspace =="
# --workspace matters: the root manifest is both a workspace and a package,
# so a bare `cargo build` only builds `deadline-gpu` and its dependencies —
# leaving the lax-bench release binaries the smoke steps below run stale.
cargo build --release --workspace

echo "== tier1: quickstart example smoke run =="
# Examples are compiled by clippy --all-targets but were never *executed*;
# run the doorstep one end-to-end so a broken public API fails the gate.
cargo run --release --example quickstart > /dev/null

echo "== tier1: scheduling_story example (Figure 3, Gantt from the probe bus) =="
# The one caller of a job-lifecycle probe observer: run it and pin the
# story's outcome (RR misses the long job, LAX meets every deadline).
STORY="$(cargo run --release --example scheduling_story)"
[ "$(echo "$STORY" | grep -c 'story jobs on time')" = 2 ]
echo "$STORY" | grep 'story jobs on time' | sed -n 1p | grep -q '4/5$'
echo "$STORY" | grep 'story jobs on time' | sed -n 2p | grep -q '5/5$'
echo "$STORY" | grep -q '^gantt: one column'
echo "   RR keeps 4/5 story jobs on time, LAX 5/5"

echo "== tier1: cargo test -q (workspace) =="
cargo test --workspace -q

echo "== tier1: benchmark package tests =="
# The benchmark is its own package (the perf gate), so the workspace build
# never compiles it, yet it links the lax_bench API: build and test it here
# so an API edit cannot break it unseen.
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== tier1: cargo clippy -D warnings (workspace, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: rustfmt --check (fleet module, job stream and binaries) =="
# The fleet module, the job stream, the suite and three binaries are kept
# rustfmt-clean under the root rustfmt.toml; the rest of the tree is not
# formatted yet.
rustfmt --check --edition 2021 crates/bench/src/cluster/*.rs \
    crates/bench/src/bin/cluster.rs crates/bench/src/bin/chaos.rs \
    crates/bench/src/bin/dag.rs crates/workloads/src/stream.rs crates/workloads/src/suite.rs

echo "== tier1: fault-sweep smoke + kill-and-resume byte-identity =="
FAULTS_BIN=target/release/faults
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
# Run A: an uninterrupted smoke sweep (2 schedulers x 2 intensities).
"$FAULTS_BIN" --smoke --jobs 2 --out "$TMP/a.txt" --ckpt "$TMP/a.ckpt"
# Run B: start the same sweep, SIGKILL it mid-flight, then finish it with
# --resume from whatever the checkpoint captured. The artifact must come
# out byte-identical to run A regardless of where the kill landed.
"$FAULTS_BIN" --smoke --jobs 1 --out "$TMP/b.txt" --ckpt "$TMP/b.ckpt" &
BPID=$!
sleep 0.2
kill -9 "$BPID" 2>/dev/null || true
wait "$BPID" 2>/dev/null || true
"$FAULTS_BIN" --smoke --jobs 2 --resume --out "$TMP/b.txt" --ckpt "$TMP/b.ckpt"
cmp "$TMP/a.txt" "$TMP/b.txt"
echo "   resumed fault sweep is byte-identical"

echo "== tier1: device trace smoke (Chrome trace + metrics CSV) =="
TRACE_BIN=target/release/trace
"$TRACE_BIN" "RR:IPV6:low:j8:s1" --out "$TMP/trace.json" --csv "$TMP/metrics.csv"
# The binary validates the trace itself before writing; double-check with an
# independent parser and make sure the metrics series actually landed.
python3 -m json.tool "$TMP/trace.json" > /dev/null
[ -s "$TMP/metrics.csv" ]
head -1 "$TMP/metrics.csv" | grep -q "time_us"
head -1 "$TMP/metrics.csv" | grep -q "dram_bw_util"
echo "   trace JSON parses and metrics CSV is populated"

echo "== tier1: cluster smoke + worker-count byte-identity =="
CLUSTER_BIN=target/release/cluster
# A small fleet (4 devices, 4k jobs, all four routing policies). Per-device
# seeds hash from the workload cell — never the worker thread — so the SLO
# table must come out byte-identical for any --jobs N.
"$CLUSTER_BIN" --smoke --jobs 1 --out "$TMP/cl1.txt"
"$CLUSTER_BIN" --smoke --jobs 8 --out "$TMP/cl8.txt"
cmp "$TMP/cl1.txt" "$TMP/cl8.txt"
# The table must carry the tail tiers and one row per policy, and the
# attainment column must parse as a probability.
grep -q "p999_us" "$TMP/cl1.txt"
grep -q "attain" "$TMP/cl1.txt"
grep -qE '\bRR\b' "$TMP/cl1.txt"
grep -qE '\bLL\b' "$TMP/cl1.txt"
python3 - "$TMP/cl1.txt" <<'EOF'
import sys
header, rows = None, 0
for line in open(sys.argv[1]):
    cols = line.split()
    if not cols or line.startswith(("#", "-")):
        continue
    if header is None:
        header = cols
        continue
    rows += 1
    attain = float(cols[header.index("attain")])
    assert 0.0 <= attain <= 1.0, attain
assert rows >= 4, rows
EOF
echo "   cluster SLO table parses and is byte-identical across worker counts"

echo "== tier1: chaos smoke + conservation + kill-and-resume byte-identity =="
CHAOS_BIN=target/release/chaos
# The robustness grid (4 devices, 2k jobs, intensities 0 and 1, all four
# routing policies). Fault plans hash from the workload cell and intensity
# — never the policy or worker thread — so the table must be byte-identical
# for any --jobs N.
"$CHAOS_BIN" --smoke --jobs 1 --out "$TMP/ch1.txt"
"$CHAOS_BIN" --smoke --jobs 8 --out "$TMP/ch8.txt"
cmp "$TMP/ch1.txt" "$TMP/ch8.txt"
# Kill a run mid-grid and finish it with --resume: byte-identical artifact.
"$CHAOS_BIN" --smoke --jobs 1 --out "$TMP/chb.txt" --ckpt "$TMP/chb.ckpt" &
CPID=$!
sleep 0.2
kill -9 "$CPID" 2>/dev/null || true
wait "$CPID" 2>/dev/null || true
"$CHAOS_BIN" --smoke --jobs 8 --resume --out "$TMP/chb.txt" --ckpt "$TMP/chb.ckpt"
cmp "$TMP/ch1.txt" "$TMP/chb.txt"
# Every row must conserve jobs (done + rejected + shed + lost == jobs) and
# report a probability-valued attainment.
python3 - "$TMP/ch1.txt" <<'EOF'
import sys
header, rows = None, 0
for line in open(sys.argv[1]):
    cols = line.split()
    if not cols or line.startswith(("#", "-")):
        continue
    if header is None:
        header = cols
        continue
    rows += 1
    get = lambda name: int(cols[header.index(name)])
    assert get("done") + get("rejected") + get("shed") + get("lost") == get("jobs"), cols
    attain = float(cols[header.index("attain")])
    assert 0.0 <= attain <= 1.0, attain
assert rows >= 8, rows
EOF
echo "   chaos grid conserves jobs and is byte-identical across workers and resume"

echo "== tier1: resume from a corrupt checkpoint (no panic, clean artifact) =="
# One corrupt block per store, keyed by a real smoke cell: an empty job-fate
# field (sweep store) and a sketch bucket index past the largest a finite
# sample can reach (fleet store). Both used to panic the parsers. Resuming
# must drop the bad block, rerun that cell and write the clean artifact.
printf 'lax-bench-checkpoint v2\ncell RR:IPV6:high:j8:s20210301\nscheduler A\nsummary 1 0 0 0 0 0 1\njob 0 0 0  0 b\nend\n' \
    > "$TMP/bad_sweep.ckpt"
"$FAULTS_BIN" --smoke --jobs 2 --resume --out "$TMP/fbad.txt" --ckpt "$TMP/bad_sweep.ckpt" \
    2> "$TMP/fbad.err"
if grep -q "panicked" "$TMP/fbad.err"; then
    echo "faults panicked on a corrupt checkpoint" >&2
    exit 1
fi
cmp "$TMP/a.txt" "$TMP/fbad.txt"
{
    echo 'lax-bench-cluster-checkpoint v3'
    echo 'cell LL:HYBRID:high:d4:j2000:s20210301'
    echo 'fidelity fast'
    echo 'summary 400 133 0 267 267 0 0 0 28692795 534'
    echo 'misses 133 0 0 0 0 0 0'
    echo 'devices 74 69 62 62'
    echo 'sketch 0 41312e61fdf3b645 40863e90b9af7201 40bb3a54d242e6be'
    echo 'buckets 18446744073709551615:1'
    echo 'end'
} > "$TMP/bad_fleet.ckpt"
"$CHAOS_BIN" --smoke --jobs 2 --resume --out "$TMP/chbad.txt" --ckpt "$TMP/bad_fleet.ckpt" \
    2> "$TMP/chbad.err"
if grep -q "panicked" "$TMP/chbad.err"; then
    echo "chaos panicked on a corrupt checkpoint" >&2
    exit 1
fi
cmp "$TMP/ch1.txt" "$TMP/chbad.txt"
echo "   corrupt checkpoint blocks are dropped and rerun; artifacts match the clean runs"

echo "== tier1: a resume under other knobs re-runs the cell =="
# A fleet checkpoint key names the cell and every non-default knob. Leave a
# checkpoint behind at retry budget 0 (the bad cell fails the run after the
# good one is recorded), then resume the good cell at the default budget:
# it must re-run, not restore the budget-0 report.
GOOD=LL:HYBRID:high:d4:j2000:s20210301:f1
if "$CHAOS_BIN" --retry-budget 0 --ckpt "$TMP/knobs.ckpt" --out "$TMP/knobs0.txt" \
    "$GOOD" NOPE:HYBRID:high:d4:j2000:s20210301 2> /dev/null; then
    echo "a grid with an unknown policy unexpectedly succeeded" >&2
    exit 1
fi
"$CHAOS_BIN" --resume --ckpt "$TMP/knobs.ckpt" --out "$TMP/knobs_resumed.txt" "$GOOD"
"$CHAOS_BIN" --out "$TMP/knobs_clean.txt" "$GOOD"
cmp "$TMP/knobs_resumed.txt" "$TMP/knobs_clean.txt"
echo "   the resumed default-knob cell equals a clean run"

echo "== tier1: committed fleet grids regenerate byte-identically =="
# results/cluster.txt and results/chaos.txt are behavioural contracts: each
# binary's default grid (12 cluster cells of 1M jobs each, 36 chaos cells)
# must come out byte for byte as committed.
"$CLUSTER_BIN" --out "$TMP/grid/cluster.txt"
cmp "$TMP/grid/cluster.txt" results/cluster.txt
"$CHAOS_BIN" --out "$TMP/grid/chaos.txt"
cmp "$TMP/grid/chaos.txt" results/chaos.txt
echo "   regenerated cluster.txt and chaos.txt match the committed artifacts"

echo "== tier1: Table 1 regenerates byte-identically (calibration drift) =="
# results/table1.txt prints every calibrated kernel's fitted isolated time,
# so any change to the calibration or to the device timing model it fits
# against shows here. `all` writes into the results/ of its working
# directory, so it runs from an empty one.
ALL_BIN="$PWD/target/release/all"
mkdir "$TMP/table1"
(cd "$TMP/table1" && "$ALL_BIN" table1 2> /dev/null)
cmp "$TMP/table1/results/table1.txt" results/table1.txt
echo "   regenerated table1.txt matches the committed artifact"

echo "== tier1: EXPERIMENTS.md is what its builder makes of results/ =="
# EXPERIMENTS.md embeds the committed results/*.txt tables through its
# template. Rebuild it, compare against the saved copy, and put the copy
# back either way, so a stale artifact fails here instead of silently
# rewriting the document on the next rebuild.
cp EXPERIMENTS.md "$TMP/EXPERIMENTS.md"
python3 tools/build_experiments_md.py > /dev/null
EXP_STATUS=0
cmp EXPERIMENTS.md "$TMP/EXPERIMENTS.md" || EXP_STATUS=$?
cp "$TMP/EXPERIMENTS.md" EXPERIMENTS.md
if [ "$EXP_STATUS" != 0 ]; then
    echo "tools/build_experiments_md.py would change EXPERIMENTS.md" >&2
    exit 1
fi
echo "   EXPERIMENTS.md matches its template and results/"

echo "== tier1: fleet memory does not grow with job count =="
# Every fleet cell streams its arrivals through a bounded buffer, so four
# times the jobs must peak at about the same resident set: a fault-free
# cell, and a cell seeded from its own fault intensity, whose plan's span a
# draw-only replay of the stream finds. The faulty cell is LL, not RR: an
# overloaded RR cell holds every booking that would outlive its device's
# next crash, real in-flight state that grows with its queue depth. Each
# cell runs as its own child; its peak comes from the kernel's ru_maxrss.
python3 - "$CLUSTER_BIN" "$TMP" <<'EOF'
import os, subprocess, sys
cluster, tmp = sys.argv[1], sys.argv[2]
for family in ("RR:HYBRID:high:d16:j{}:s1", "LL:HYBRID:high:d16:j{}:s1:f1"):
    peaks = []
    for n in (1000000, 4000000):
        cell = family.format(n)
        child = subprocess.Popen([cluster, cell, "--out", f"{tmp}/mem/{n}.txt"],
                                 stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, (cell, status)
        peaks.append(usage.ru_maxrss / 1024)  # ru_maxrss is in KiB on Linux
        print(f"   {cell}: peak RSS {peaks[-1]:.1f} MB")
    assert peaks[1] <= peaks[0] + 16, f"{cell}: {peaks[1] - peaks[0]:.1f} MB above 1M jobs"
EOF
echo "   fleet peak RSS is flat from 1M to 4M jobs"

echo "== tier1: DAG sweep smoke + kill-and-resume + worker byte-identity =="
DAG_BIN=target/release/dag
# The graph-structured grid (2 schedulers x FANOUT x low rate). DAG cell
# seeds exclude the scheduler and worker count, so the table must come out
# byte-identical for any --jobs N and across a kill-and-resume.
"$DAG_BIN" --smoke --jobs 1 --out "$TMP/dag1.txt" --ckpt "$TMP/dag1.ckpt"
"$DAG_BIN" --smoke --jobs 8 --out "$TMP/dag8.txt" --ckpt "$TMP/dag8.ckpt"
cmp "$TMP/dag1.txt" "$TMP/dag8.txt"
"$DAG_BIN" --smoke --jobs 1 --out "$TMP/dagb.txt" --ckpt "$TMP/dagb.ckpt" &
DPID=$!
sleep 0.2
kill -9 "$DPID" 2>/dev/null || true
wait "$DPID" 2>/dev/null || true
"$DAG_BIN" --smoke --jobs 8 --resume --out "$TMP/dagb.txt" --ckpt "$TMP/dagb.ckpt"
cmp "$TMP/dag1.txt" "$TMP/dagb.txt"
grep -q "FANOUT" "$TMP/dag1.txt"
echo "   DAG sweep is byte-identical across worker counts and resume"

echo "== tier1: scenario files parse and a DAG scenario runs end-to-end =="
# Every committed scenario file must validate (typed errors, no panics)...
for f in examples/scenarios/*.json; do
    "$DAG_BIN" --check --scenario-file "$f"
done
# ...and the inline-DAG one must run end-to-end, byte-identically for any
# worker count (cells are seeded from the file, never the thread).
"$DAG_BIN" --scenario-file examples/scenarios/fanout-diamond.json --jobs 1 --out "$TMP/sf1.txt"
"$DAG_BIN" --scenario-file examples/scenarios/fanout-diamond.json --jobs 8 --out "$TMP/sf8.txt"
cmp "$TMP/sf1.txt" "$TMP/sf8.txt"
grep -q "fanout-diamond" "$TMP/sf1.txt"
# The fleet-mode file expands into ordinary cluster cells: same bytes for
# any worker count.
"$CLUSTER_BIN" --scenario-file examples/scenarios/ipa-fleet.json --jobs 1 --out "$TMP/sff1.txt"
"$CLUSTER_BIN" --scenario-file examples/scenarios/ipa-fleet.json --jobs 8 --out "$TMP/sff8.txt"
cmp "$TMP/sff1.txt" "$TMP/sff8.txt"
grep -q "ipa-fleet" "$TMP/sff1.txt"
# Without --out a scenario file's report goes to stdout: run from an empty
# directory, neither binary may create results/ (nor any other file).
SCENARIO_FILES="$PWD/examples/scenarios"
RELEASE="$PWD/target/release"
mkdir "$TMP/sf_stdout"
(cd "$TMP/sf_stdout" \
    && "$RELEASE/cluster" --scenario-file "$SCENARIO_FILES/ipa-fleet.json" > ../sf_cl.txt \
    && "$RELEASE/dag" --scenario-file "$SCENARIO_FILES/fanout-diamond.json" > ../sf_dag.txt) \
    2> /dev/null
if [ -n "$(ls -A "$TMP/sf_stdout")" ]; then
    echo "a scenario-file run without --out wrote into its working directory" >&2
    exit 1
fi
cmp "$TMP/sf_cl.txt" "$TMP/sff1.txt"
cmp "$TMP/sf_dag.txt" "$TMP/sf1.txt"
# A malformed file must exit non-zero with a typed diagnosis, not panic.
echo '{"name": 3}' > "$TMP/bad.json"
if "$DAG_BIN" --check --scenario-file "$TMP/bad.json" 2> "$TMP/bad.err"; then
    echo "malformed scenario file unexpectedly accepted" >&2
    exit 1
fi
grep -q "must be a string" "$TMP/bad.err"
if grep -q "panicked" "$TMP/bad.err"; then
    echo "malformed scenario file panicked instead of failing typed" >&2
    exit 1
fi
echo "   scenario files validate, run deterministically, and fail typed"

echo "== tier1: perf smoke (batched-vs-reference digest + throughput floor) =="
PERFSMOKE_BIN=target/release/perfsmoke
# One HYBRID cell (the slowest workload family) run on both memory paths:
# the two reports must be identical — the analytic-batching bit-identity
# contract, gated strictly — and the fast path must clear a deliberately
# generous events/sec floor (timed loosely: the box this runs on shares
# its single core with other work, so only a ~2x miss can trip it).
"$PERFSMOKE_BIN" "RR:HYBRID:medium:j64:s20210301" --floor 3000000
echo "   batched == reference and throughput floor cleared"

echo "== tier1: fleet trace smoke (fleet Chrome trace + SLO telemetry) =="
# The same binary traces a fleet cell: a small faulty fleet with retries and
# shedding, so the trace carries health spans, retry instants and a
# populated miss breakdown.
FLEET_CELL="LL:HYBRID:high:d4:j2000:s7:f1"
for workers in 1 8; do
    "$TRACE_BIN" "$FLEET_CELL" --retry-budget 2 --shed --jobs "$workers" \
        --out "$TMP/fleet$workers.json" --csv "$TMP/fleet$workers.csv" \
        --series-json "$TMP/fleet_series$workers.json"
done
# Every artifact is byte-identical for any worker count.
cmp "$TMP/fleet1.json" "$TMP/fleet8.json"
cmp "$TMP/fleet1.csv" "$TMP/fleet8.csv"
cmp "$TMP/fleet_series1.json" "$TMP/fleet_series8.json"
# The binary validates both JSON artifacts before writing; double-check with
# an independent parser and make sure the telemetry series landed.
python3 -m json.tool "$TMP/fleet1.json" > /dev/null
python3 -m json.tool "$TMP/fleet_series1.json" > /dev/null
head -1 "$TMP/fleet1.csv" | grep -q "attain"
head -1 "$TMP/fleet1.csv" | grep -q "devices_up"
# Per-window attainment must parse as a probability (empty means no
# completions landed in that window).
python3 - "$TMP/fleet1.csv" <<'EOF'
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1])))
assert rows, "telemetry CSV has no windows"
for row in rows:
    if row["attain"]:
        assert 0.0 <= float(row["attain"]) <= 1.0, row
EOF
# A zero telemetry window is a typed error, not a panic.
if "$TRACE_BIN" "$FLEET_CELL" --window-us 0 --out "$TMP/w0.json" 2> "$TMP/w0.err"; then
    echo "trace accepted --window-us 0" >&2
    exit 1
fi
if grep -q "panicked" "$TMP/w0.err"; then
    echo "trace panicked on --window-us 0" >&2
    exit 1
fi
grep -q -- "--window-us" "$TMP/w0.err"
echo "   fleet trace and series parse and match across worker counts; attainment is a probability"

echo "== tier1: a bad command line fails typed and writes nothing =="
# Every binary reads its command line through one parser: a flag without
# its value, a misspelt flag, an unknown artifact or a zero worker count
# is an error naming the culprit, raised before anything is written. So is
# a trace flag given for the other kind of cell, a grid flag given with a
# scenario file, and a malformed cell string, which prints its message
# rather than its `Debug` form. Each runs in an empty directory, which a
# stray write would leave non-empty.
BIN_DIR="$PWD/target/release"
mkdir "$TMP/argv"
while read -r culprit cmd; do
    # $cmd splits into the binary and its arguments on purpose.
    # shellcheck disable=SC2086
    if (cd "$TMP/argv" && "$BIN_DIR"/$cmd) > /dev/null 2> "$TMP/argv.err"; then
        echo "\`$cmd\` unexpectedly succeeded" >&2
        exit 1
    fi
    # A typed error prints its message, never a `Debug` struct.
    if grep -q "panicked\|ParseScenarioError {" "$TMP/argv.err" \
        || ! grep -qF -- "$culprit" "$TMP/argv.err"; then
        echo "\`$cmd\` must name \`$culprit\` in a message, without panicking:" >&2
        cat "$TMP/argv.err" >&2
        exit 1
    fi
    if [ -n "$(ls -A "$TMP/argv")" ]; then
        echo "\`$cmd\` wrote a file before failing" >&2
        exit 1
    fi
done <<'ARGV'
--out cluster --smoke --out
--resum all --resum
fig99 all fig99
--jobs faults --jobs 0
--csv trace --csv
--window-us trace RR:IPV6:low:j8:s1 --window-us 5
--watch trace LL:HYBRID:high:d4:j200:s1 --watch 3
`d0` cluster LL:HYBRID:high:d0:j8:s1
fields trace RR:IPV6:low:j8
--smoke dag --scenario-file examples/scenarios/fanout-diamond.json --smoke
ARGV
echo "   bad command lines exit non-zero, name the culprit and write nothing"

echo "== tier1: OK =="
