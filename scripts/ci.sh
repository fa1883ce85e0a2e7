#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   scripts/ci.sh            # build + test + lint
#
# Keep this in sync with ROADMAP.md's "tier-1" definition.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
# The root package's tests do not cover the member crates' unit suites
# (asketch-parallel, the serve socket/codec suites, asketch-durable).
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

CORES="$(nproc 2>/dev/null || echo 1)"

echo "==> throughput bench smoke (batched vs scalar gate)"
# The smoke writes to a temp file: the committed BENCH_throughput.json is
# the full-sweep baseline and must not be overwritten by a smoke run.
THROUGHPUT_SMOKE="$(mktemp)"
BASELINE_TMP="$(mktemp)"
# Likewise the concurrent and recovery smokes: the committed
# BENCH_concurrent.json and BENCH_recovery.json are not smoke runs.
CONCURRENT_SMOKE="$(mktemp)"
RECOVERY_SMOKE="$(mktemp)"
trap 'rm -f "$THROUGHPUT_SMOKE" "$BASELINE_TMP" "$CONCURRENT_SMOKE" "$RECOVERY_SMOKE"' EXIT
cargo run -q -p asketch-bench --release --bin throughput -- --smoke --out "$THROUGHPUT_SMOKE"
cargo run -q -p asketch-bench --release --bin throughput -- \
    --validate "$THROUGHPUT_SMOKE" --min-speedup 1.5

echo "==> concurrent runtime smoke (wait-free read + shard-scaling gate)"
# The wait-free gate (measured reader_blocked == 0 on every row) is
# unconditional.
# The 4-shard vs 1-shard scaling gate needs real cores to mean anything:
# on fewer than 4 CPUs the shard workers time-slice one core and the full
# 2.0x bar is physically unreachable, so we hold the line at 1.2x there
# (pipelining + smaller per-shard tables still must win) and say so loudly.
if [ "$CORES" -ge 4 ]; then
    MIN_SCALING=2.0
else
    MIN_SCALING=1.2
    echo "WARNING: only $CORES CPU(s); relaxing 4-shard scaling gate to ${MIN_SCALING}x" \
         "(full bar is 2.0x on >=4 cores)"
fi
cargo run -q -p asketch-bench --release --bin throughput -- \
    --concurrent --smoke --out "$CONCURRENT_SMOKE"
cargo run -q -p asketch-bench --release --bin throughput -- \
    --validate-concurrent "$CONCURRENT_SMOKE" --min-scaling "$MIN_SCALING"

echo "==> bench regression gate (fresh smoke vs committed baseline) + layout gate"
# Compare the smoke artifact from the step above to the committed baseline
# row-by-row and fail on any >15% updates_per_ms loss.
# Timing comparisons need a core to itself: on a single CPU the bench
# time-slices against the rest of CI and 15% is pure scheduler noise, so we
# skip the timing gate there — loudly — but still validate the committed
# layout artifact (a pure JSON-contents check, no re-measurement).
if ! git show HEAD:BENCH_throughput.json > "$BASELINE_TMP" 2>/dev/null; then
    echo "WARNING: no committed BENCH_throughput.json baseline; skipping regression gate"
elif [ "$CORES" -lt 2 ]; then
    echo "WARNING: only $CORES CPU(s); skipping throughput regression gate" \
         "(timings on a time-sliced core are not comparable)"
else
    cargo run -q -p asketch-bench --release --bin throughput -- \
        --regress "$BASELINE_TMP" "$THROUGHPUT_SMOKE" --tolerance 0.15
fi
cargo run -q -p asketch-bench --release --bin throughput -- \
    --validate-layout BENCH_layout.json --min-layout-speedup 1.3

echo "==> durability: recovery bench gate"
# WAL-on ingest overhead at fsync=interval must stay within budget and
# replay must beat half of live batched ingest. Group commit + key-width
# packing + dwell-coalesced background fsyncs brought the measured floor
# down to ~5% even on one CPU, so the bar is 15% where durability work
# can overlap ingest and 25% on a single time-sliced core (background
# fsyncs there steal the only core, and scheduler noise is real).
if [ "$CORES" -ge 2 ]; then
    MAX_OVERHEAD=0.15
else
    MAX_OVERHEAD=0.25
    echo "WARNING: only $CORES CPU(s); relaxing WAL overhead gate to ${MAX_OVERHEAD}" \
         "(full bar is 0.15 on >=2 cores, where durability work overlaps ingest)"
fi
cargo run -q -p asketch-bench --release --bin throughput -- \
    --recovery --smoke --out "$RECOVERY_SMOKE"
cargo run -q -p asketch-bench --release --bin throughput -- \
    --validate-recovery "$RECOVERY_SMOKE" --max-overhead "$MAX_OVERHEAD"

echo "==> durability: crash-injection recovery smoke (SIGKILL loop)"
# Every trial SIGKILLs a durable ingest child at a random point and
# asserts deduped recovery equals the independently recomputed durable
# prefix exactly (raw recovery may only over-count). Full bar is 25
# trials (the committed acceptance run); CI smokes a short loop so the
# gate stays fast while still crossing every fsync policy.
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --trials 6 --keys 200000

echo "==> durability: storage-chaos sweep (injected faults + bit-rot scrub)"
# Deterministic in-process fault injection at a fixed seed: every fault
# kind (EIO, ENOSPC, short write, fsync failure, torn rename) as both a
# transient blip (must be retried away) and a persistent fault (must
# engage disk-sick degraded mode with the right typed class), across all
# three fsync policies, plus live bit-rot trials the integrity scrubber
# must detect and quarantine at 100%. The sweep regenerates
# BENCH_faults.json; the validate gate then re-checks the artifact
# (full grid present, no lost acked write, no escaped panic).
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --faults --seed 1592598550 --out BENCH_faults.json
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --validate-faults BENCH_faults.json

echo "==> serving survivability: network-chaos sweep (exactly-once over reconnects)"
# Seeded TCP fault injection (reset, stall, partial-write, partition)
# between a resilient session client and a durable serve child that is
# SIGKILL-restarted mid-stream behind the proxy. Every trial must end
# with the live estimates AND the offline dedup recovery exactly equal
# to the acked oracle — zero lost acks, zero duplicates. Full bar is 4
# seeds per fault x policy cell (32 trials, the committed acceptance
# run); CI smokes a reduced grid. The proxy, client, and both server
# generations need to overlap in time: on one CPU the stall/partition
# windows stretch under time-slicing, so run the minimum grid there
# loudly rather than flake.
if [ "$CORES" -ge 2 ]; then
    NET_SEEDS=2
else
    NET_SEEDS=1
    echo "WARNING: only $CORES CPU(s); reducing net-chaos smoke to 1 seed per cell" \
         "(full bar is 4 seeds per cell = 32 trials, the committed BENCH_chaos.json run)"
fi
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --net-chaos --net-seeds "$NET_SEEDS" --seed 1592598550 --out BENCH_chaos_smoke.json
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --validate-chaos BENCH_chaos_smoke.json
# The committed full-sweep artifact must stay valid too (pure JSON
# check: full grid, every trial exact, restarts + reconnects + replays
# all exercised — no re-measurement).
cargo run -q -p asketch-bench --release --bin crash_recovery -- \
    --validate-chaos BENCH_chaos.json
rm -f BENCH_chaos_smoke.json

echo "==> serving layer smoke (exact networked counts + open-loop load gate)"
# The smoke first proves exactness over real sockets on an ephemeral port:
# one write connection streams a skewed workload (arrival order matters to
# the filter) while reader connections hammer estimates, then post-SYNC
# every distinct key's networked answer must equal a local runtime fed the
# identical stream. It then sweeps {connections x read_frac} open-loop and
# the gate holds: zero shed under the Block policy, zero blocked reads
# (wait-free reads under live UPDATE traffic), a read-p99 ceiling, and an
# aggregate QPS floor. The floor is hardware-aware: the open-loop target
# needs cores for the server, the writer thread, and the load generator to
# overlap; on a starved box we lower the target and the bar together.
if [ "$CORES" -ge 4 ]; then
    SERVE_TARGET_QPS=30000
    SERVE_MIN_QPS=15000
else
    SERVE_TARGET_QPS=10000
    SERVE_MIN_QPS=4000
    echo "WARNING: only $CORES CPU(s); relaxing serving QPS floor to ${SERVE_MIN_QPS}" \
         "(full bar is 15000 on >=4 cores)"
fi
cargo run -q -p asketch-bench --release --bin serving -- \
    --smoke --target-qps "$SERVE_TARGET_QPS" --out BENCH_serving_smoke.json
cargo run -q -p asketch-bench --release --bin serving -- \
    --validate-serving BENCH_serving_smoke.json --min-qps "$SERVE_MIN_QPS" --max-p99-ms 200
# The committed full-sweep artifact must stay structurally valid too
# (pure JSON-contents check, no re-measurement, so no QPS bar).
cargo run -q -p asketch-bench --release --bin serving -- \
    --validate-serving BENCH_serving.json --min-qps 1 --max-p99-ms 1000000

echo "==> serving regression gate (working-tree artifact vs committed baseline)"
# Row-by-row comparison (matched on io_model, connections, read_frac,
# target_qps) of the working-tree BENCH_serving.json against the committed
# baseline: >15% achieved-QPS loss or read-p99 rise on any matched row
# fails, so a PR that regenerates the artifact cannot silently regress it.
# Timing comparisons need an unshared core — on one CPU the numbers are
# scheduler noise, so skip loudly (same rule as the throughput gate).
SERVING_BASELINE_TMP="$(mktemp)"
if ! git show HEAD:BENCH_serving.json > "$SERVING_BASELINE_TMP" 2>/dev/null; then
    echo "WARNING: no committed BENCH_serving.json baseline; skipping serving regression gate"
elif [ "$CORES" -lt 2 ]; then
    echo "WARNING: only $CORES CPU(s); skipping serving regression gate" \
         "(timings on a time-sliced core are not comparable)"
else
    cargo run -q -p asketch-bench --release --bin serving -- \
        --regress "$SERVING_BASELINE_TMP" BENCH_serving.json --tolerance 0.15
fi
rm -f "$SERVING_BASELINE_TMP" BENCH_serving_smoke.json

echo "==> serving many-connection smoke (accept fan-out + exact accounting)"
# 512 concurrent connections against both io_models; every accepted key
# must be accounted for exactly at the post-sync barrier. Needs a core
# for the server beside the 512 worker threads: on one CPU the thread
# storm is all scheduler pressure and no signal, so run a token count
# there — loudly — to keep the code path exercised.
if [ "$CORES" -ge 2 ]; then
    MANY_CONNS=512
else
    MANY_CONNS=64
    echo "WARNING: only $CORES CPU(s); reducing many-connection smoke to ${MANY_CONNS}" \
         "(full bar is 512 connections on >=2 cores)"
fi
cargo run -q -p asketch-bench --release --bin serving -- --many-conns "$MANY_CONNS"

echo "==> ThreadSanitizer pass (concurrent runtime, nightly-only)"
# TSan needs nightly + rust-src (-Zbuild-std). Skip gracefully when the
# toolchain can't do it.
if rustup run nightly rustc --version >/dev/null 2>&1 \
   && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'rust-src (installed)'; then
    RUSTFLAGS="-Zsanitizer=thread" \
    RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
        -p asketch-parallel --release -- seqlock concurrent
else
    echo "SKIP: nightly toolchain with rust-src not available; ThreadSanitizer pass not run"
fi

echo "==> ci.sh: all green"
