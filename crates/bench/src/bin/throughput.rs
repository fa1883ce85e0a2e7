//! Persistent ingest-throughput benchmark: sweeps Zipf skew × filter kind ×
//! sketch backend × batch size and writes machine-readable results to
//! `BENCH_throughput.json` (see `DESIGN.md` for the schema).
//!
//! ```text
//! cargo run -p asketch-bench --release --bin throughput            # full sweep
//! cargo run -p asketch-bench --release --bin throughput -- --smoke # CI smoke
//! throughput --validate BENCH_throughput.json --min-speedup 1.5    # CI gate
//! ```
//!
//! `batch_size == 1` is the scalar baseline (a plain `update` loop); larger
//! sizes go through the batched kernels (`insert_batch`), which hoist hash
//! evaluation and issue software prefetches across the batch. The validator
//! checks both the JSON shape and that some batched configuration at the
//! smoke skew beats its scalar baseline by the requested factor.
//!
//! The `--concurrent` mode instead sweeps the sharded concurrent runtime
//! (read fraction × shard count × skew, against an offline SPMD baseline)
//! and writes `BENCH_concurrent.json`; `--validate-concurrent` gates that
//! artifact: the measured `reader_blocked` count (reads whose seqlock
//! retry delta exceeded [`READ_RETRY_BOUND`], sampled per read while
//! workers publish concurrently) must be zero everywhere, and the 4-shard
//! mixed 90/10 run must beat 1 shard by `--min-scaling`.
//!
//! The `--layout` mode sweeps sketch memory layout (row-major Count-Min vs
//! the cache-line-blocked backend, DESIGN.md §11) over skew × byte budget ×
//! batch size and writes `BENCH_layout.json` with measured throughput,
//! observed error, and a per-row one-sidedness check; `--validate-layout`
//! gates that artifact (see [`validate_layout`]).
//!
//! The `--recovery` mode sweeps the durable runtime (DESIGN.md §12): WAL-on
//! ingest at each fsync policy against a no-durability baseline, plus timed
//! snapshot-load + WAL-replay recovery of the crashed state, and writes
//! `BENCH_recovery.json`; `--validate-recovery` gates that artifact (WAL
//! overhead at `fsync=interval` within `--max-overhead`, replay at least
//! `--min-replay-ratio` of the same row's live ingest rate).
//!
//! `--regress OLD NEW` compares two throughput artifacts row-by-row and
//! fails when any configuration present in both lost more than
//! `--tolerance` (default 15%) of its `updates_per_ms`.
//!
//! Every sweep rewrites its JSON artifact after **each** completed row, so
//! a panic (or a kill) mid-sweep still leaves a well-formed partial
//! artifact on disk instead of losing the finished measurements.

use std::fmt::Write as _;
use std::time::Instant;

use asketch::filter::{FilterKind, VectorFilter};
use asketch::{ASketch, AsketchBuilder, DurabilityOptions, FsyncPolicy};
use asketch_durable::recover_kernel;
use asketch_parallel::{hash_shards, ConcurrentASketch, ConcurrentConfig, SpmdGroup};
use eval_metrics::artifact::{git_commit, json_f64};
use eval_metrics::{observed_error_pct, EstimatePair};
use sketches::{BlockedCountMin, BlockedCountMin32, CountMin, Fcm, FrequencyEstimator};
use streamgen::{query, ExactCounter, StreamSpec};

/// Total synopsis budget. Deliberately larger than L2 so the sketch's
/// counter rows live in L3/DRAM and the prefetch pipeline has latency to
/// hide — the regime the batched kernels target.
const TOTAL_BYTES: usize = 1 << 26;
const DEPTH: usize = 8;
const FILTER_ITEMS: usize = 32;
const SEED: u64 = 0x5EED_2016;
const QUERY_COUNT: usize = 2_000;
/// The skew the CI smoke gate checks (paper's real-world midpoint).
const SMOKE_SKEW: f64 = 1.1;

#[derive(Clone, Copy)]
struct RunConfig {
    skew: f64,
    /// `None` = raw sketch (no filter in front).
    filter: Option<FilterKind>,
    backend: Backend,
    batch_size: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    CountMin,
    Fcm,
    /// Cache-line-blocked Count-Min (DESIGN.md §11): one 64-byte bucket per
    /// key, probed at [`BLOCKED_DEPTH`].
    Blocked,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::CountMin => "count-min",
            Backend::Fcm => "fcm",
            Backend::Blocked => "blocked",
        }
    }
}

/// Probe depth for the blocked backend: `DEPTH` clamped to half an `i64`
/// line (matches [`AsketchBuilder::blocked_depth`] at `depth = 8`).
const BLOCKED_DEPTH: usize = if DEPTH < BlockedCountMin::SLOTS / 2 {
    DEPTH
} else {
    BlockedCountMin::SLOTS / 2
};

fn filter_name(f: Option<FilterKind>) -> &'static str {
    match f {
        None => "none",
        Some(FilterKind::Vector) => "vector",
        Some(FilterKind::StrictHeap) => "strict-heap",
        Some(FilterKind::RelaxedHeap) => "relaxed-heap",
        Some(FilterKind::StreamSummary) => "stream-summary",
    }
}

struct RunResult {
    cfg: RunConfig,
    updates_per_ms: f64,
    estimate_p50_ns: u64,
    estimate_p99_ns: u64,
}

/// Ingest + query-latency measurement for one constructed estimator.
fn measure<E: FrequencyEstimator>(
    build: impl Fn() -> E,
    stream: &[u64],
    queries: &[u64],
    batch: usize,
) -> (f64, u64, u64) {
    // Best of three independent ingest passes (fresh estimator each), which
    // suppresses scheduler/tenant noise on shared hosts without changing
    // what is measured — the same policy as the repro harness.
    const MEASURE_PASSES: usize = 3;
    let mut best_per_ms = 0.0f64;
    let mut est = None;
    for _ in 0..MEASURE_PASSES {
        let mut fresh = build();
        let t0 = Instant::now();
        if batch <= 1 {
            for &k in stream {
                fresh.update(k, 1);
            }
        } else {
            for part in stream.chunks(batch) {
                fresh.insert_batch(part);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        best_per_ms = best_per_ms.max(stream.len() as f64 / (elapsed * 1e3));
        est = Some(fresh);
    }
    let est = est.expect("at least one pass");
    let updates_per_ms = best_per_ms;

    let mut lat: Vec<u64> = Vec::with_capacity(queries.len());
    for &q in queries {
        let t = Instant::now();
        std::hint::black_box(est.estimate(q));
        lat.push(t.elapsed().as_nanos() as u64);
    }
    lat.sort_unstable();
    let p50 = lat[lat.len() / 2];
    let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
    (updates_per_ms, p50, p99)
}

fn run_one(cfg: RunConfig, stream: &[u64], queries: &[u64]) -> RunResult {
    let builder = AsketchBuilder {
        total_bytes: TOTAL_BYTES,
        depth: DEPTH,
        filter_items: FILTER_ITEMS,
        filter_kind: cfg.filter.unwrap_or(FilterKind::RelaxedHeap),
        seed: SEED,
    };
    let (updates_per_ms, p50, p99) = match (cfg.filter, cfg.backend) {
        (None, Backend::CountMin) => measure(
            || CountMin::with_byte_budget(SEED, DEPTH, TOTAL_BYTES).expect("budget fits"),
            stream,
            queries,
            cfg.batch_size,
        ),
        (None, Backend::Fcm) => measure(
            || {
                Fcm::with_byte_budget(SEED, DEPTH, TOTAL_BYTES, Some(FILTER_ITEMS))
                    .expect("budget fits")
            },
            stream,
            queries,
            cfg.batch_size,
        ),
        (Some(_), Backend::CountMin) => measure(
            || builder.build_count_min().expect("budget fits"),
            stream,
            queries,
            cfg.batch_size,
        ),
        (Some(_), Backend::Fcm) => measure(
            || builder.build_fcm().expect("budget fits"),
            stream,
            queries,
            cfg.batch_size,
        ),
        (None, Backend::Blocked) => measure(
            || {
                BlockedCountMin::with_byte_budget(SEED, BLOCKED_DEPTH, TOTAL_BYTES)
                    .expect("budget fits")
            },
            stream,
            queries,
            cfg.batch_size,
        ),
        (Some(_), Backend::Blocked) => measure(
            || builder.build_blocked().expect("budget fits"),
            stream,
            queries,
            cfg.batch_size,
        ),
    };
    RunResult {
        cfg,
        updates_per_ms,
        estimate_p50_ns: p50,
        estimate_p99_ns: p99,
    }
}

/// Hand-rolled writer (no JSON dependency in this workspace): one result
/// object per line, which the validator below relies on.
fn write_json(
    path: &str,
    smoke: bool,
    stream_len: usize,
    distinct: u64,
    results: &[RunResult],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"commit\": \"{}\",", git_commit());
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"config\": {{\"stream_len\": {stream_len}, \"distinct\": {distinct}, \
         \"total_bytes\": {TOTAL_BYTES}, \"depth\": {DEPTH}, \
         \"filter_items\": {FILTER_ITEMS}, \"seed\": {SEED}}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"skew\": {}, \"filter\": \"{}\", \"backend\": \"{}\", \
             \"batch_size\": {}, \"updates_per_ms\": {}, \
             \"estimate_p50_ns\": {}, \"estimate_p99_ns\": {}}}{comma}",
            json_f64(r.cfg.skew),
            filter_name(r.cfg.filter),
            r.cfg.backend.name(),
            r.cfg.batch_size,
            json_f64(r.updates_per_ms),
            r.estimate_p50_ns,
            r.estimate_p99_ns,
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Pull `"key": value` out of a single result line. The writer emits one
/// object per line, so line-scoped scanning is unambiguous.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Validate the JSON artifact: schema fields present, every result line
/// complete, and the batched kernels beating the scalar baseline by
/// `min_speedup` for at least one configuration at the smoke skew.
fn validate(path: &str, min_speedup: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"schema_version\"",
        "\"commit\"",
        "\"config\"",
        "\"results\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    // (skew, filter, backend) -> (scalar updates/ms, best batched updates/ms)
    let mut groups: std::collections::HashMap<String, (f64, f64)> =
        std::collections::HashMap::new();
    let mut rows = 0usize;
    for line in text.lines().filter(|l| l.contains("\"batch_size\"")) {
        rows += 1;
        let get =
            |k: &str| field(line, k).ok_or_else(|| format!("result row missing \"{k}\": {line}"));
        let skew: f64 = get("skew")?.parse().map_err(|e| format!("bad skew: {e}"))?;
        let filter = get("filter")?.to_string();
        let backend = get("backend")?.to_string();
        let batch: usize = get("batch_size")?
            .parse()
            .map_err(|e| format!("bad batch_size: {e}"))?;
        let per_ms: f64 = get("updates_per_ms")?
            .parse()
            .map_err(|e| format!("bad updates_per_ms: {e}"))?;
        get("estimate_p50_ns")?;
        get("estimate_p99_ns")?;
        if per_ms <= 0.0 {
            return Err(format!("non-positive updates_per_ms: {line}"));
        }
        let entry = groups
            .entry(format!("{skew}/{filter}/{backend}"))
            .or_insert((0.0, 0.0));
        if batch == 1 {
            entry.0 = per_ms;
        } else {
            entry.1 = entry.1.max(per_ms);
        }
    }
    if rows == 0 {
        return Err("no result rows".to_string());
    }
    let smoke_key = format!("{SMOKE_SKEW}/");
    let mut best = 0.0f64;
    let mut best_group = String::new();
    for (key, &(scalar, batched)) in groups.iter().filter(|(k, _)| k.starts_with(&smoke_key)) {
        if scalar > 0.0 && batched / scalar > best {
            best = batched / scalar;
            best_group = key.clone();
        }
    }
    if best < min_speedup {
        return Err(format!(
            "batched/scalar speedup {best:.2}x (best group \"{best_group}\") \
             below required {min_speedup:.2}x at skew {SMOKE_SKEW}"
        ));
    }
    println!(
        "OK: {rows} rows, best batched speedup {best:.2}x ({best_group}) >= {min_speedup:.2}x"
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Concurrent runtime sweep (`--concurrent` / `--validate-concurrent`)
// ---------------------------------------------------------------------------

/// The mixed read fraction the CI scaling gate checks (90% writes / 10%
/// reads).
const GATE_READ_FRAC: f64 = 0.1;

/// Aggregate sketch budget for the concurrent sweep, split across shards.
/// Much smaller than the batched-kernel sweep's budget: the runtime
/// checkpoints whole-kernel clones into its replay journal, so the kernel
/// must be sized for cloning (the regime the runtime targets), not for the
/// prefetch pipeline's DRAM-latency study.
const CONC_TOTAL_BYTES: usize = 1 << 20;

/// Per-read retry budget for the wait-freedom gate. A wait-free read
/// retries only when an entire publish cycle laps it mid-read, so any
/// single read needing more than this many retry loops means the reader
/// was made to wait on writer progress — i.e. the read path is no longer
/// wait-free in practice (as it would be if a lock or a
/// spin-on-odd-sequence wait sneaked in). `reader_blocked` counts such
/// reads, *measured* per read by the bench driver (the sole reader, so
/// the delta of the owning shard's retry counter across one `estimate`
/// call is exact), concurrently with live worker publishes.
const READ_RETRY_BOUND: u64 = 8;

/// One sweep mode: drives a (shards, read_frac, skew) cell over the shared
/// stream/query sets and reports a result row.
type ConcRun = fn(usize, f64, f64, &[u64], &[u64]) -> ConcRow;

struct ConcRow {
    mode: &'static str,
    skew: f64,
    shards: usize,
    read_frac: f64,
    ops_per_ms: f64,
    writes: u64,
    reads: u64,
    reader_retries: u64,
    /// Reads that exceeded [`READ_RETRY_BOUND`] seqlock retries, summed
    /// over every measurement pass (the gate is `== 0`, so every pass
    /// counts even though throughput reports only the best one).
    reader_blocked: u64,
    max_occupancy: f64,
    restarts: u64,
}

/// Per-shard kernel for the concurrent sweep: exact vector filter in front
/// of a Count-Min slice of the shared byte budget, so the aggregate
/// synopsis stays comparable across shard counts.
fn conc_kernel(shard: usize, shards: usize) -> ASketch<VectorFilter, CountMin> {
    let per_shard = (CONC_TOTAL_BYTES / shards).max(1 << 14);
    ASketch::new(
        VectorFilter::new(FILTER_ITEMS),
        CountMin::with_byte_budget(SEED ^ shard as u64, DEPTH, per_shard).expect("budget fits"),
    )
}

/// Runtime tuning for the sweep: journal checkpoints are whole-kernel
/// clones, so space them an order of magnitude further apart than the
/// supervision default to keep snapshot traffic off the measured path.
fn conc_config(shards: usize) -> ConcurrentConfig {
    let mut cfg = ConcurrentConfig {
        shards,
        ..ConcurrentConfig::default()
    };
    cfg.supervision.checkpoint_interval = 16_384;
    cfg
}

/// Drive one mixed read/write run against the live concurrent runtime: the
/// driver interleaves wait-free `QueryHandle` reads into the write stream
/// at `read_frac` (reads / total ops), then syncs. Wall-clock covers the
/// whole mixed run including the final sync barrier.
fn run_concurrent_one(
    shards: usize,
    read_frac: f64,
    skew: f64,
    stream: &[u64],
    queries: &[u64],
) -> ConcRow {
    let cfg = conc_config(shards);
    let reads_per_write = if read_frac >= 1.0 {
        0.0
    } else {
        read_frac / (1.0 - read_frac)
    };
    const MEASURE_PASSES: usize = 2;
    let mut best_per_ms = 0.0f64;
    let mut reads = 0u64;
    let mut retries = 0u64;
    let mut blocked = 0u64;
    let mut occupancy = 0.0f64;
    let mut restarts = 0u64;
    for _ in 0..MEASURE_PASSES {
        let mut rt = ConcurrentASketch::spawn(cfg.clone(), |i| conc_kernel(i, shards));
        let handle = rt.query_handle();
        let partition = handle.partition();
        let mut credit = 0.0f64;
        let mut pass_reads = 0u64;
        let mut qi = 0usize;
        let mut acc = 0i64;
        let midpoint = stream.len() / 2;
        let mut mid_occupancy = 0.0f64;
        let t0 = Instant::now();
        for (i, &k) in stream.iter().enumerate() {
            rt.insert(k);
            credit += reads_per_write;
            while credit >= 1.0 {
                let key = queries[qi];
                let shard = partition.shard_of(key);
                let retries_before = handle.shard(shard).reader_retries();
                acc = acc.wrapping_add(handle.estimate(key));
                if handle.shard(shard).reader_retries() - retries_before > READ_RETRY_BOUND {
                    blocked += 1;
                }
                qi = (qi + 1) % queries.len();
                credit -= 1.0;
                pass_reads += 1;
            }
            if i == midpoint {
                // Sample queue occupancy while the run is actually hot;
                // after sync() the queues are drained by definition.
                mid_occupancy = rt.health().max_occupancy();
            }
        }
        rt.sync();
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        let total_ops = stream.len() as u64 + pass_reads;
        let per_ms = total_ops as f64 / (elapsed * 1e3);
        let health = rt.health();
        if per_ms > best_per_ms {
            best_per_ms = per_ms;
            reads = pass_reads;
            retries = health.total_reader_retries();
            occupancy = mid_occupancy;
            restarts = health.total_restarts();
        }
        drop(rt);
    }
    ConcRow {
        mode: "concurrent",
        skew,
        shards,
        read_frac,
        ops_per_ms: best_per_ms,
        writes: stream.len() as u64,
        reads,
        reader_retries: retries,
        reader_blocked: blocked,
        max_occupancy: occupancy,
        restarts,
    }
}

/// Offline SPMD baseline for the same mixed volume: key-partitioned batch
/// ingest (`ingest_keyed`) followed by the read volume answered through
/// `SpmdGroup::estimate_batch`. Reads here happen *after* ingest — the
/// baseline cannot serve them mid-stream, which is exactly the gap the
/// concurrent runtime closes.
fn run_spmd_one(
    shards: usize,
    read_frac: f64,
    skew: f64,
    stream: &[u64],
    queries: &[u64],
) -> ConcRow {
    let keyed = hash_shards(stream, shards);
    let (group, ingest_ns, report) =
        SpmdGroup::ingest_keyed(&keyed, |i| conc_kernel(i, shards), 3).expect("clean ingest");
    let reads_wanted = if read_frac >= 1.0 {
        0
    } else {
        (stream.len() as f64 * read_frac / (1.0 - read_frac)).round() as usize
    };
    let mut batch: Vec<u64> = Vec::with_capacity(reads_wanted);
    while batch.len() < reads_wanted {
        let take = (reads_wanted - batch.len()).min(queries.len());
        batch.extend_from_slice(&queries[..take]);
    }
    let t0 = Instant::now();
    let answers = group.estimate_batch(&batch);
    let query_ns = t0.elapsed().as_nanos();
    std::hint::black_box(answers.len());
    let total_ops = stream.len() as u64 + reads_wanted as u64;
    let total_ns = ingest_ns + query_ns;
    ConcRow {
        mode: "spmd-batch",
        skew,
        shards,
        read_frac,
        ops_per_ms: total_ops as f64 / (total_ns as f64 / 1e6),
        writes: stream.len() as u64,
        reads: reads_wanted as u64,
        reader_retries: 0,
        // Offline reads run after ingest with exclusive access: there is
        // no concurrent publish to race, hence zero by definition here.
        reader_blocked: 0,
        max_occupancy: 0.0,
        restarts: report.recovered.len() as u64,
    }
}

fn write_concurrent_json(
    path: &str,
    smoke: bool,
    stream_len: usize,
    distinct: u64,
    rows: &[ConcRow],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"commit\": \"{}\",", git_commit());
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"config\": {{\"stream_len\": {stream_len}, \"distinct\": {distinct}, \
         \"total_bytes\": {CONC_TOTAL_BYTES}, \"depth\": {DEPTH}, \
         \"filter_items\": {FILTER_ITEMS}, \"seed\": {SEED}}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"skew\": {}, \"shards\": {}, \"read_frac\": {}, \
             \"ops_per_ms\": {}, \"writes\": {}, \"reads\": {}, \
             \"reader_retries\": {}, \"reader_blocked\": {}, \
             \"max_occupancy\": {}, \"restarts\": {}}}{comma}",
            r.mode,
            json_f64(r.skew),
            r.shards,
            json_f64(r.read_frac),
            json_f64(r.ops_per_ms),
            r.writes,
            r.reads,
            r.reader_retries,
            r.reader_blocked,
            json_f64(r.max_occupancy),
            r.restarts,
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Validate `BENCH_concurrent.json`: schema shape, strictly zero
/// retry-bound-exceeding reads (`reader_blocked`, measured per read by the
/// sweep — see [`READ_RETRY_BOUND`]) on every row, and the 4-shard mixed
/// 90/10 run beating the 1-shard run at the smoke skew by `min_scaling`.
fn validate_concurrent(path: &str, min_scaling: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"schema_version\"",
        "\"commit\"",
        "\"config\"",
        "\"results\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    let mut rows = 0usize;
    // shards -> ops/ms for the gated (concurrent, smoke skew, 90/10) rows.
    let mut gate: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for line in text.lines().filter(|l| l.contains("\"mode\"")) {
        rows += 1;
        let get =
            |k: &str| field(line, k).ok_or_else(|| format!("result row missing \"{k}\": {line}"));
        let mode = get("mode")?.to_string();
        let skew: f64 = get("skew")?.parse().map_err(|e| format!("bad skew: {e}"))?;
        let shards: usize = get("shards")?
            .parse()
            .map_err(|e| format!("bad shards: {e}"))?;
        let read_frac: f64 = get("read_frac")?
            .parse()
            .map_err(|e| format!("bad read_frac: {e}"))?;
        let per_ms: f64 = get("ops_per_ms")?
            .parse()
            .map_err(|e| format!("bad ops_per_ms: {e}"))?;
        let blocked: u64 = get("reader_blocked")?
            .parse()
            .map_err(|e| format!("bad reader_blocked: {e}"))?;
        get("reader_retries")?;
        get("restarts")?;
        if per_ms <= 0.0 {
            return Err(format!("non-positive ops_per_ms: {line}"));
        }
        if blocked != 0 {
            return Err(format!(
                "reader_blocked = {blocked}; the read path must stay wait-free: {line}"
            ));
        }
        if mode == "concurrent"
            && (skew - SMOKE_SKEW).abs() < 1e-9
            && (read_frac - GATE_READ_FRAC).abs() < 1e-9
        {
            gate.insert(shards, per_ms);
        }
    }
    if rows == 0 {
        return Err("no result rows".to_string());
    }
    let one = *gate
        .get(&1)
        .ok_or("missing 1-shard concurrent 90/10 row at the smoke skew")?;
    let four = *gate
        .get(&4)
        .ok_or("missing 4-shard concurrent 90/10 row at the smoke skew")?;
    let scaling = four / one;
    if scaling < min_scaling {
        return Err(format!(
            "4-shard/1-shard mixed 90/10 scaling {scaling:.2}x below required \
             {min_scaling:.2}x at skew {SMOKE_SKEW}"
        ));
    }
    println!(
        "OK: {rows} rows, reader_blocked = 0 everywhere, 4-shard/1-shard mixed \
         90/10 scaling {scaling:.2}x >= {min_scaling:.2}x"
    );
    Ok(())
}

fn run_concurrent_sweep(smoke: bool, out_path: &str) {
    let (stream_len, distinct) = if smoke {
        (1 << 19, 1 << 15)
    } else {
        (1 << 20, 1 << 16)
    };
    let skews: &[f64] = if smoke {
        &[SMOKE_SKEW]
    } else {
        &[SMOKE_SKEW, 1.5]
    };
    let shard_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };
    let read_fracs: &[f64] = if smoke {
        &[GATE_READ_FRAC]
    } else {
        &[0.0, GATE_READ_FRAC, 0.5]
    };
    let mut rows = Vec::new();
    for &skew in skews {
        let spec = StreamSpec {
            len: stream_len,
            distinct: distinct as u64,
            skew,
            seed: SEED,
        };
        let stream = spec.materialize();
        let queries = query::sample_from_stream(SEED, &stream, QUERY_COUNT);
        for &shards in shard_counts {
            for &read_frac in read_fracs {
                let runs: [ConcRun; 2] = [run_concurrent_one, run_spmd_one];
                for run in runs {
                    let r = run(shards, read_frac, skew, &stream, &queries);
                    eprintln!(
                        "mode={} skew={skew} shards={shards} read_frac={read_frac}: \
                         {:.0} ops/ms ({} writes, {} reads, {} retries, {} restarts)",
                        r.mode, r.ops_per_ms, r.writes, r.reads, r.reader_retries, r.restarts,
                    );
                    rows.push(r);
                    // Flush after every row: a panic mid-sweep keeps the
                    // finished rows in a well-formed partial artifact.
                    write_concurrent_json(out_path, smoke, stream_len, distinct as u64, &rows)
                        .expect("write results");
                }
            }
        }
    }
    eprintln!("wrote {out_path} ({} rows)", rows.len());
}

// ---------------------------------------------------------------------------
// Memory-layout sweep (`--layout` / `--validate-layout`)
// ---------------------------------------------------------------------------

/// The speedup the layout gate demands from the blocked backend over
/// row-major Count-Min on low-skew (`z <= 1.0`) rows at equal byte budget.
const LAYOUT_MIN_SPEEDUP: f64 = 1.3;

/// The layout sweep benchmarks the narrow-cell blocked variant
/// ([`sketches::BlockedCountMin32`], 16 `i32` cells per line) at this probe
/// depth. Sixteen slots per line drop the in-line cover probability for two
/// colliding keys to `1/C(16,4)` (vs `1/C(8,4)` for `i64` lines), which is
/// what keeps the blocked error within the gate's `2x` of Count-Min at low
/// skew; depth 4 keeps the slot-derivation loop off the critical path. The
/// runtime builder wires the `i64` variant instead — its counters carry no
/// stream-mass bound, the right default outside a benchmark harness.
const LAYOUT_BLOCKED_DEPTH: usize = 4;

struct LayoutRow {
    skew: f64,
    backend: &'static str,
    batch_size: usize,
    budget_bytes: usize,
    depth: usize,
    cell_bits: usize,
    updates_per_ms: f64,
    observed_error_pct: f64,
    one_sided: bool,
}

/// Ingest best-of-3 (fresh estimator per pass), then compute observed error
/// and a one-sidedness check over the query set from the final pass.
fn layout_measure<E: FrequencyEstimator>(
    build: impl Fn() -> E,
    stream: &[u64],
    queries: &[u64],
    truth: &ExactCounter,
    batch: usize,
) -> (f64, f64, bool) {
    const MEASURE_PASSES: usize = 3;
    let mut best_per_ms = 0.0f64;
    let mut est = None;
    for _ in 0..MEASURE_PASSES {
        let mut fresh = build();
        let t0 = Instant::now();
        if batch <= 1 {
            for &k in stream {
                fresh.update(k, 1);
            }
        } else {
            for part in stream.chunks(batch) {
                fresh.insert_batch(part);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        best_per_ms = best_per_ms.max(stream.len() as f64 / (elapsed * 1e3));
        est = Some(fresh);
    }
    let est = est.expect("at least one pass");
    let mut one_sided = true;
    let pairs: Vec<EstimatePair> = queries
        .iter()
        .map(|&q| {
            let t = truth.count(q);
            let e = est.estimate(q);
            one_sided &= e >= t;
            EstimatePair {
                estimated: e,
                truth: t,
            }
        })
        .collect();
    let err = observed_error_pct(&pairs).unwrap_or(0.0);
    (best_per_ms, err, one_sided)
}

fn run_layout_sweep(smoke: bool, out_path: &str) {
    let (stream_len, distinct) = if smoke {
        (1 << 20, 1 << 16)
    } else {
        (1 << 21, 1 << 17)
    };
    let skews: &[f64] = if smoke { &[0.6, 1.4] } else { &[0.6, 1.0, 1.4] };
    let budgets: &[usize] = if smoke {
        &[1 << 22]
    } else {
        &[1 << 22, 1 << 26]
    };
    let batches: &[usize] = &[1, 256];
    let mut rows = Vec::new();
    for &skew in skews {
        let spec = StreamSpec {
            len: stream_len,
            distinct,
            skew,
            seed: SEED,
        };
        let stream = spec.materialize();
        let truth = ExactCounter::from_keys(&stream);
        let queries = query::sample_from_stream(SEED, &stream, QUERY_COUNT);
        for &budget in budgets {
            for &batch_size in batches {
                let cm = layout_measure(
                    || CountMin::with_byte_budget(SEED, DEPTH, budget).expect("budget fits"),
                    &stream,
                    &queries,
                    &truth,
                    batch_size,
                );
                let bl = layout_measure(
                    || {
                        BlockedCountMin32::with_byte_budget(SEED, LAYOUT_BLOCKED_DEPTH, budget)
                            .expect("budget fits")
                    },
                    &stream,
                    &queries,
                    &truth,
                    batch_size,
                );
                for (backend, depth, cell_bits, (per_ms, err, one_sided)) in [
                    ("count-min", DEPTH, 64, cm),
                    ("blocked", LAYOUT_BLOCKED_DEPTH, 32, bl),
                ] {
                    eprintln!(
                        "layout skew={skew} budget={budget} batch={batch_size} \
                         backend={backend}: {per_ms:.0} updates/ms, err={err:.3}%, \
                         one_sided={one_sided}"
                    );
                    rows.push(LayoutRow {
                        skew,
                        backend,
                        batch_size,
                        budget_bytes: budget,
                        depth,
                        cell_bits,
                        updates_per_ms: per_ms,
                        observed_error_pct: err,
                        one_sided,
                    });
                    // Flush after every row: a panic mid-sweep keeps the
                    // finished rows in a well-formed partial artifact.
                    write_layout_json(out_path, smoke, stream_len, distinct, &rows)
                        .expect("write results");
                }
            }
        }
    }
    eprintln!("wrote {out_path} ({} rows)", rows.len());
}

fn write_layout_json(
    path: &str,
    smoke: bool,
    stream_len: usize,
    distinct: u64,
    rows: &[LayoutRow],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"commit\": \"{}\",", git_commit());
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"config\": {{\"stream_len\": {stream_len}, \"distinct\": {distinct}, \
         \"depth\": {DEPTH}, \"blocked_depth\": {LAYOUT_BLOCKED_DEPTH}, \"seed\": {SEED}}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"skew\": {}, \"backend\": \"{}\", \"batch_size\": {}, \
             \"budget_bytes\": {}, \"depth\": {}, \"cell_bits\": {}, \
             \"updates_per_ms\": {}, \"observed_error_pct\": {}, \
             \"one_sided\": {}}}{comma}",
            json_f64(r.skew),
            r.backend,
            r.batch_size,
            r.budget_bytes,
            r.depth,
            r.cell_bits,
            json_f64(r.updates_per_ms),
            json_f64(r.observed_error_pct),
            r.one_sided,
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Validate `BENCH_layout.json`: schema shape; `one_sided` true on every
/// row; and per (skew, budget, batch) cell the blocked backend must (a)
/// beat Count-Min's `updates_per_ms` by `min_speedup` whenever
/// `skew <= 1.0`, and (b) keep `observed_error_pct` within
/// `2 x Count-Min + 0.05` points on every row.
fn validate_layout(path: &str, min_speedup: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"schema_version\"",
        "\"commit\"",
        "\"config\"",
        "\"results\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    // (skew, budget, batch) -> (count-min row, blocked row) as
    // (updates_per_ms, observed_error_pct).
    type Cell = (Option<(f64, f64)>, Option<(f64, f64)>);
    let mut cells: std::collections::HashMap<String, Cell> = std::collections::HashMap::new();
    let mut rows = 0usize;
    for line in text.lines().filter(|l| l.contains("\"budget_bytes\"")) {
        rows += 1;
        let get =
            |k: &str| field(line, k).ok_or_else(|| format!("result row missing \"{k}\": {line}"));
        let skew: f64 = get("skew")?.parse().map_err(|e| format!("bad skew: {e}"))?;
        let backend = get("backend")?.to_string();
        let batch: usize = get("batch_size")?
            .parse()
            .map_err(|e| format!("bad batch_size: {e}"))?;
        let budget: usize = get("budget_bytes")?
            .parse()
            .map_err(|e| format!("bad budget_bytes: {e}"))?;
        get("depth")?;
        let per_ms: f64 = get("updates_per_ms")?
            .parse()
            .map_err(|e| format!("bad updates_per_ms: {e}"))?;
        let err: f64 = get("observed_error_pct")?
            .parse()
            .map_err(|e| format!("bad observed_error_pct: {e}"))?;
        let one_sided = get("one_sided")?;
        if per_ms <= 0.0 {
            return Err(format!("non-positive updates_per_ms: {line}"));
        }
        if one_sided != "true" {
            return Err(format!("one-sidedness violated: {line}"));
        }
        let cell = cells
            .entry(format!("skew {skew} / budget {budget} / batch {batch}"))
            .or_insert((None, None));
        match backend.as_str() {
            "count-min" => cell.0 = Some((per_ms, err)),
            "blocked" => cell.1 = Some((per_ms, err)),
            other => return Err(format!("unknown backend \"{other}\": {line}")),
        }
    }
    if rows == 0 {
        return Err("no result rows".to_string());
    }
    let mut gated = 0usize;
    let mut worst_speedup = f64::INFINITY;
    for (key, (cm, bl)) in &cells {
        let (cm_ms, cm_err) = cm.ok_or(format!("{key}: missing count-min row"))?;
        let (bl_ms, bl_err) = bl.ok_or(format!("{key}: missing blocked row"))?;
        if bl_err > 2.0 * cm_err + 0.05 {
            return Err(format!(
                "{key}: blocked error {bl_err:.3}% exceeds 2x count-min {cm_err:.3}% + 0.05"
            ));
        }
        let skew: f64 = key
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(format!("unparseable cell key {key}"))?;
        if skew <= 1.0 {
            gated += 1;
            let speedup = bl_ms / cm_ms;
            worst_speedup = worst_speedup.min(speedup);
            if speedup < min_speedup {
                return Err(format!(
                    "{key}: blocked speedup {speedup:.2}x below required {min_speedup:.2}x"
                ));
            }
        }
    }
    if gated == 0 {
        return Err("no z <= 1.0 cells to gate".to_string());
    }
    println!(
        "OK: {rows} rows, one-sided everywhere, blocked error within 2x count-min, \
         worst low-skew speedup {worst_speedup:.2}x >= {min_speedup:.2}x ({gated} gated cells)"
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Durability / recovery sweep (`--recovery` / `--validate-recovery`)
// ---------------------------------------------------------------------------

/// Ingest-overhead budget for the WAL at `fsync=interval`: the durable
/// runtime must keep at least `1 - 0.25` of the no-durability throughput.
const RECOVERY_MAX_OVERHEAD: f64 = 0.25;

/// Replay-speed floor: recovering a shard (snapshot load + WAL replay)
/// must restore keys at no less than half that row's live ingest rate.
const RECOVERY_MIN_REPLAY_RATIO: f64 = 0.5;

/// Shard count for the recovery sweep (matches the crash harness).
const RECOVERY_SHARDS: usize = 2;

/// Router batch for the recovery sweep. WAL appends (and their periodic
/// fsyncs) run on the caller's ship path, so their cost is amortized per
/// batch: at 256-key batches an ext4 fsync every 32 batches costs more
/// than the 25% overhead budget allows, while the WAL's *byte* volume
/// (8 B/key) is batch-independent. 1024-key batches keep the same
/// durability semantics (a batch is still the WAL record unit) at a
/// per-key fsync cost the budget is meant to measure.
const RECOVERY_BATCH: usize = 1024;

struct RecoveryRow {
    mode: &'static str,
    fsync: &'static str,
    skew: f64,
    keys: u64,
    ingest_updates_per_ms: f64,
    /// Per-chunk insert latency over the ingest pass that won best
    /// throughput, in microseconds (chunk = 4096 keys). Group commit and
    /// deferred fsync exist to flatten the *tail*, so the sweep records
    /// it, not just the mean implied by updates/ms.
    ingest_p50_us: f64,
    ingest_p99_us: f64,
    recover_ms: f64,
    recovered_keys: u64,
    replay_keys_per_ms: f64,
    wal_records: u64,
    replayed_keys: u64,
    snapshot_keys: u64,
}

/// Batched ingest through the concurrent runtime; wall-clock includes the
/// final `sync` barrier (and, for durable runtimes, the WAL barrier), so
/// every measured key is applied — and durable — when the clock stops.
fn recovery_ingest(
    stream: &[u64],
    opts: Option<&DurabilityOptions>,
) -> (
    f64,
    (f64, f64),
    Option<ConcurrentASketch<VectorFilter, CountMin>>,
) {
    let mut cfg = conc_config(RECOVERY_SHARDS);
    cfg.batch = RECOVERY_BATCH;
    // Checkpoints feed the background snapshotter whole-kernel clones;
    // space them out so the sweep measures steady-state WAL cost (plus a
    // realistic handful of snapshots), not snapshot serialization.
    cfg.supervision.checkpoint_interval = 262_144;
    let shards = RECOVERY_SHARDS;
    let t0 = Instant::now();
    let mut rt = match opts {
        None => ConcurrentASketch::spawn(cfg, |i| conc_kernel(i, shards)),
        Some(o) => {
            ConcurrentASketch::spawn_durable(cfg, o, |i| conc_kernel(i, shards))
                .expect("spawn durable runtime")
                .0
        }
    };
    let mut chunk_ns: Vec<u64> = Vec::with_capacity(stream.len() / 4096 + 1);
    for part in stream.chunks(4096) {
        let tc = Instant::now();
        rt.insert_batch(part);
        chunk_ns.push(tc.elapsed().as_nanos() as u64);
    }
    rt.sync();
    if opts.is_some() {
        rt.wal_checkpoint().expect("durability barrier");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let per_ms = stream.len() as f64 / (elapsed * 1e3);
    chunk_ns.sort_unstable();
    let p50_us = chunk_ns[chunk_ns.len() / 2] as f64 / 1e3;
    let p99_us = chunk_ns[(chunk_ns.len() * 99 / 100).min(chunk_ns.len() - 1)] as f64 / 1e3;
    if opts.is_some() {
        (per_ms, (p50_us, p99_us), Some(rt))
    } else {
        drop(rt);
        (per_ms, (p50_us, p99_us), None)
    }
}

fn run_recovery_one(
    mode: &'static str,
    fsync: Option<(&'static str, FsyncPolicy)>,
    skew: f64,
    stream: &[u64],
    dir: &std::path::Path,
) -> RecoveryRow {
    const MEASURE_PASSES: usize = 3;
    let mut best = 0.0f64;
    let mut best_lat = (0.0f64, 0.0f64);
    let mut recover_ms = 0.0f64;
    let mut recovered_keys = 0u64;
    let mut wal_records = 0u64;
    let mut replayed_keys = 0u64;
    let mut snapshot_keys = 0u64;
    let mut replay_per_ms = 0.0f64;
    for _ in 0..MEASURE_PASSES {
        let _ = std::fs::remove_dir_all(dir);
        let opts = fsync.map(|(_, policy)| DurabilityOptions::new(dir).fsync(policy));
        let (per_ms, lat, rt) = recovery_ingest(stream, opts.as_ref());
        if per_ms > best {
            best = per_ms;
            best_lat = lat;
        }
        let Some(rt) = rt else { continue };
        // Simulate the crash: drop without `finish`, so the final snapshot
        // is never written and recovery must replay the WAL suffix past
        // whatever the background snapshotter got to.
        drop(rt);
        let opts = opts.expect("durable pass has options");
        let t0 = Instant::now();
        let mut pass_keys = 0u64;
        let mut pass_wal = 0u64;
        let mut pass_replayed = 0u64;
        let mut pass_snap = 0u64;
        for shard in 0..RECOVERY_SHARDS {
            let (kernel, report) = recover_kernel(&opts.shard_dir(shard), true, || {
                conc_kernel(shard, RECOVERY_SHARDS)
            })
            .expect("recovery completes");
            std::hint::black_box(&kernel);
            let snap = report.snapshot.map_or(0, |m| m.ops);
            pass_snap += snap;
            pass_keys += snap + report.replayed_keys;
            pass_wal += report.wal_records;
            pass_replayed += report.replayed_keys;
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let pass_rate = pass_keys as f64 / ms;
        if pass_rate > replay_per_ms {
            replay_per_ms = pass_rate;
            recover_ms = ms;
            recovered_keys = pass_keys;
            wal_records = pass_wal;
            replayed_keys = pass_replayed;
            snapshot_keys = pass_snap;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    RecoveryRow {
        mode,
        fsync: fsync.map_or("none", |(name, _)| name),
        skew,
        keys: stream.len() as u64,
        ingest_updates_per_ms: best,
        ingest_p50_us: best_lat.0,
        ingest_p99_us: best_lat.1,
        recover_ms,
        recovered_keys,
        replay_keys_per_ms: replay_per_ms,
        wal_records,
        replayed_keys,
        snapshot_keys,
    }
}

fn write_recovery_json(
    path: &str,
    smoke: bool,
    stream_len: usize,
    distinct: u64,
    rows: &[RecoveryRow],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    // v2: rows carry per-chunk ingest latency (ingest_p50_us/ingest_p99_us).
    let _ = writeln!(out, "  \"schema_version\": 2,");
    let _ = writeln!(out, "  \"commit\": \"{}\",", git_commit());
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"config\": {{\"stream_len\": {stream_len}, \"distinct\": {distinct}, \
         \"total_bytes\": {CONC_TOTAL_BYTES}, \"depth\": {DEPTH}, \
         \"shards\": {RECOVERY_SHARDS}, \"filter_items\": {FILTER_ITEMS}, \
         \"seed\": {SEED}}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"fsync\": \"{}\", \"skew\": {}, \"keys\": {}, \
             \"ingest_updates_per_ms\": {}, \"ingest_p50_us\": {}, \
             \"ingest_p99_us\": {}, \"recover_ms\": {}, \
             \"recovered_keys\": {}, \"replay_keys_per_ms\": {}, \
             \"wal_records\": {}, \"replayed_keys\": {}, \"snapshot_keys\": {}}}{comma}",
            r.mode,
            r.fsync,
            json_f64(r.skew),
            r.keys,
            json_f64(r.ingest_updates_per_ms),
            json_f64(r.ingest_p50_us),
            json_f64(r.ingest_p99_us),
            json_f64(r.recover_ms),
            r.recovered_keys,
            json_f64(r.replay_keys_per_ms),
            r.wal_records,
            r.replayed_keys,
            r.snapshot_keys,
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn run_recovery_sweep(smoke: bool, out_path: &str) {
    let stream_len = if smoke { 1 << 19 } else { 1 << 20 };
    let distinct = 1u64 << 16;
    let spec = StreamSpec {
        len: stream_len,
        distinct,
        skew: SMOKE_SKEW,
        seed: SEED,
    };
    let stream = spec.materialize();
    let dir = std::env::temp_dir().join(format!("asketch-bench-recovery-{}", std::process::id()));
    let modes: [(&'static str, Option<(&'static str, FsyncPolicy)>); 3] = [
        ("baseline", None),
        ("durable", Some(("interval", FsyncPolicy::Interval(32)))),
        ("durable", Some(("per-batch", FsyncPolicy::PerBatch))),
    ];
    let mut rows = Vec::new();
    for (mode, fsync) in modes {
        let r = run_recovery_one(mode, fsync, SMOKE_SKEW, &stream, &dir);
        eprintln!(
            "recovery mode={mode} fsync={}: ingest {:.0} updates/ms \
             (chunk p50 {:.0}us p99 {:.0}us), recover \
             {:.1}ms ({} keys, {:.0} keys/ms replay, {} WAL records)",
            r.fsync,
            r.ingest_updates_per_ms,
            r.ingest_p50_us,
            r.ingest_p99_us,
            r.recover_ms,
            r.recovered_keys,
            r.replay_keys_per_ms,
            r.wal_records,
        );
        rows.push(r);
        // Flush after every row: a panic mid-sweep keeps finished rows.
        write_recovery_json(out_path, smoke, stream_len, distinct, &rows).expect("write results");
    }
    eprintln!("wrote {out_path} ({} rows)", rows.len());
}

/// Validate `BENCH_recovery.json`: schema shape; the `fsync=interval`
/// durable ingest within `max_overhead` of the no-durability baseline;
/// every durable row recovered a non-empty state with replay throughput at
/// least `min_replay_ratio` of that row's own live ingest rate.
fn validate_recovery(path: &str, max_overhead: f64, min_replay_ratio: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"schema_version\"",
        "\"commit\"",
        "\"config\"",
        "\"results\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    let mut rows = 0usize;
    let mut baseline: Option<f64> = None;
    let mut interval: Option<f64> = None;
    let mut worst_replay = f64::INFINITY;
    for line in text.lines().filter(|l| l.contains("\"fsync\"")) {
        rows += 1;
        let get =
            |k: &str| field(line, k).ok_or_else(|| format!("result row missing \"{k}\": {line}"));
        let mode = get("mode")?.to_string();
        let fsync = get("fsync")?.to_string();
        let ingest: f64 = get("ingest_updates_per_ms")?
            .parse()
            .map_err(|e| format!("bad ingest_updates_per_ms: {e}"))?;
        let recovered: u64 = get("recovered_keys")?
            .parse()
            .map_err(|e| format!("bad recovered_keys: {e}"))?;
        let replay: f64 = get("replay_keys_per_ms")?
            .parse()
            .map_err(|e| format!("bad replay_keys_per_ms: {e}"))?;
        let keys: u64 = get("keys")?.parse().map_err(|e| format!("bad keys: {e}"))?;
        let p50: f64 = get("ingest_p50_us")?
            .parse()
            .map_err(|e| format!("bad ingest_p50_us: {e}"))?;
        let p99: f64 = get("ingest_p99_us")?
            .parse()
            .map_err(|e| format!("bad ingest_p99_us: {e}"))?;
        get("wal_records")?;
        get("replayed_keys")?;
        if ingest <= 0.0 {
            return Err(format!("non-positive ingest_updates_per_ms: {line}"));
        }
        if p50 <= 0.0 || p99 < p50 {
            return Err(format!(
                "implausible ingest latency percentiles (p50 {p50}us, p99 {p99}us): {line}"
            ));
        }
        match mode.as_str() {
            "baseline" => baseline = Some(ingest),
            "durable" => {
                if recovered != keys {
                    return Err(format!(
                        "durable row recovered {recovered} of {keys} keys — \
                         crash recovery lost acknowledged writes: {line}"
                    ));
                }
                let ratio = replay / ingest;
                worst_replay = worst_replay.min(ratio);
                if ratio < min_replay_ratio {
                    return Err(format!(
                        "replay {replay:.0} keys/ms is only {ratio:.2}x of live \
                         ingest {ingest:.0} (need {min_replay_ratio:.2}x): {line}"
                    ));
                }
                if fsync == "interval" {
                    interval = Some(ingest);
                }
            }
            other => return Err(format!("unknown mode \"{other}\": {line}")),
        }
    }
    if rows == 0 {
        return Err("no result rows".to_string());
    }
    let base = baseline.ok_or("missing baseline (no-durability) row")?;
    let wal = interval.ok_or("missing durable fsync=interval row")?;
    let overhead = 1.0 - wal / base;
    if overhead > max_overhead {
        return Err(format!(
            "WAL ingest overhead {:.1}% at fsync=interval exceeds the {:.1}% budget \
             ({wal:.0} vs baseline {base:.0} updates/ms)",
            overhead * 100.0,
            max_overhead * 100.0
        ));
    }
    println!(
        "OK: {rows} rows, WAL overhead {:.1}% <= {:.1}% at fsync=interval, full state \
         recovered everywhere, worst replay ratio {worst_replay:.2}x >= {min_replay_ratio:.2}x",
        overhead.max(0.0) * 100.0,
        max_overhead * 100.0
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Regression comparison (`--regress OLD NEW`)
// ---------------------------------------------------------------------------

/// Compare two `BENCH_throughput.json` artifacts: for every
/// (skew, filter, backend, batch_size) row present in both, the fresh
/// `updates_per_ms` must be at least `(1 - tolerance)` of the baseline.
/// Rows only in one file are reported but don't fail (sweep shapes grow
/// across PRs). Improvements never fail.
fn regress(baseline_path: &str, fresh_path: &str, tolerance: f64) -> Result<(), String> {
    let parse = |path: &str| -> Result<std::collections::HashMap<String, f64>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let mut rows = std::collections::HashMap::new();
        for line in text.lines().filter(|l| l.contains("\"batch_size\"")) {
            let get = |k: &str| {
                field(line, k).ok_or_else(|| format!("{path}: row missing \"{k}\": {line}"))
            };
            let key = format!(
                "skew {} / filter {} / backend {} / batch {}",
                get("skew")?,
                get("filter")?,
                get("backend")?,
                get("batch_size")?
            );
            let per_ms: f64 = get("updates_per_ms")?
                .parse()
                .map_err(|e| format!("{path}: bad updates_per_ms: {e}"))?;
            rows.insert(key, per_ms);
        }
        if rows.is_empty() {
            return Err(format!("{path}: no result rows"));
        }
        Ok(rows)
    };
    let base = parse(baseline_path)?;
    let fresh = parse(fresh_path)?;
    let mut compared = 0usize;
    let mut worst_ratio = f64::INFINITY;
    let mut worst_key = String::new();
    for (key, &b) in &base {
        let Some(&f) = fresh.get(key) else { continue };
        compared += 1;
        let ratio = f / b;
        if ratio < worst_ratio {
            worst_ratio = ratio;
            worst_key = key.clone();
        }
        if ratio < 1.0 - tolerance {
            return Err(format!(
                "{key}: fresh {f:.0} updates/ms is {:.1}% below baseline {b:.0} \
                 (tolerance {:.0}%)",
                (1.0 - ratio) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    if compared == 0 {
        return Err("no overlapping rows between baseline and fresh artifacts".to_string());
    }
    let only_base = base.len() - compared;
    let only_fresh = fresh.len().saturating_sub(compared);
    println!(
        "OK: {compared} rows compared (worst {worst_ratio:.2}x at \"{worst_key}\"), \
         {only_base} baseline-only, {only_fresh} fresh-only, tolerance {:.0}%",
        tolerance * 100.0
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut concurrent = false;
    let mut layout = false;
    let mut recovery = false;
    let mut out_path: Option<String> = None;
    let mut validate_path: Option<String> = None;
    let mut validate_concurrent_path: Option<String> = None;
    let mut validate_layout_path: Option<String> = None;
    let mut validate_recovery_path: Option<String> = None;
    let mut regress_paths: Option<(String, String)> = None;
    let mut min_speedup = 1.5f64;
    let mut min_scaling = 2.0f64;
    let mut min_layout_speedup = LAYOUT_MIN_SPEEDUP;
    let mut max_overhead = RECOVERY_MAX_OVERHEAD;
    let mut min_replay_ratio = RECOVERY_MIN_REPLAY_RATIO;
    let mut tolerance = 0.15f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--concurrent" => concurrent = true,
            "--layout" => layout = true,
            "--recovery" => recovery = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).expect("--out needs a path").clone());
            }
            "--validate" => {
                i += 1;
                validate_path = Some(args.get(i).expect("--validate needs a path").clone());
            }
            "--validate-concurrent" => {
                i += 1;
                validate_concurrent_path = Some(
                    args.get(i)
                        .expect("--validate-concurrent needs a path")
                        .clone(),
                );
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = args
                    .get(i)
                    .expect("--min-speedup needs a value")
                    .parse()
                    .expect("min-speedup must be a number");
            }
            "--min-scaling" => {
                i += 1;
                min_scaling = args
                    .get(i)
                    .expect("--min-scaling needs a value")
                    .parse()
                    .expect("min-scaling must be a number");
            }
            "--validate-layout" => {
                i += 1;
                validate_layout_path =
                    Some(args.get(i).expect("--validate-layout needs a path").clone());
            }
            "--validate-recovery" => {
                i += 1;
                validate_recovery_path = Some(
                    args.get(i)
                        .expect("--validate-recovery needs a path")
                        .clone(),
                );
            }
            "--max-overhead" => {
                i += 1;
                max_overhead = args
                    .get(i)
                    .expect("--max-overhead needs a value")
                    .parse()
                    .expect("max-overhead must be a number");
            }
            "--min-replay-ratio" => {
                i += 1;
                min_replay_ratio = args
                    .get(i)
                    .expect("--min-replay-ratio needs a value")
                    .parse()
                    .expect("min-replay-ratio must be a number");
            }
            "--min-layout-speedup" => {
                i += 1;
                min_layout_speedup = args
                    .get(i)
                    .expect("--min-layout-speedup needs a value")
                    .parse()
                    .expect("min-layout-speedup must be a number");
            }
            "--regress" => {
                let old = args
                    .get(i + 1)
                    .expect("--regress needs BASELINE and FRESH paths")
                    .clone();
                let new = args
                    .get(i + 2)
                    .expect("--regress needs BASELINE and FRESH paths")
                    .clone();
                i += 2;
                regress_paths = Some((old, new));
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("tolerance must be a number");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: throughput [--smoke] [--concurrent] [--layout] [--recovery] \
                     [--out FILE] \
                     [--validate FILE [--min-speedup X]] \
                     [--validate-concurrent FILE [--min-scaling X]] \
                     [--validate-layout FILE [--min-layout-speedup X]] \
                     [--validate-recovery FILE [--max-overhead X] [--min-replay-ratio X]] \
                     [--regress BASELINE FRESH [--tolerance X]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = validate_concurrent_path {
        match validate_concurrent(&path, min_scaling) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("BENCH_concurrent.json validation failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = validate_layout_path {
        match validate_layout(&path, min_layout_speedup) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("BENCH_layout.json validation failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = validate_recovery_path {
        match validate_recovery(&path, max_overhead, min_replay_ratio) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("BENCH_recovery.json validation failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some((base, fresh)) = regress_paths {
        match regress(&base, &fresh, tolerance) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("throughput regression check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = validate_path {
        match validate(&path, min_speedup) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("BENCH_throughput.json validation failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if recovery {
        let out = out_path.unwrap_or_else(|| "BENCH_recovery.json".to_string());
        run_recovery_sweep(smoke, &out);
        return;
    }
    if layout {
        let out = out_path.unwrap_or_else(|| "BENCH_layout.json".to_string());
        run_layout_sweep(smoke, &out);
        return;
    }
    if concurrent {
        let out = out_path.unwrap_or_else(|| "BENCH_concurrent.json".to_string());
        run_concurrent_sweep(smoke, &out);
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_throughput.json".to_string());

    let (stream_len, distinct) = if smoke {
        (1 << 21, 1 << 22)
    } else {
        (1 << 22, 1 << 18)
    };
    let skews: &[f64] = if smoke {
        &[SMOKE_SKEW]
    } else {
        &[0.8, SMOKE_SKEW, 1.5]
    };
    let filters: &[Option<FilterKind>] = if smoke {
        &[None, Some(FilterKind::RelaxedHeap)]
    } else {
        &[
            None,
            Some(FilterKind::Vector),
            Some(FilterKind::StrictHeap),
            Some(FilterKind::RelaxedHeap),
            Some(FilterKind::StreamSummary),
        ]
    };
    let backends: &[Backend] = if smoke {
        &[Backend::CountMin, Backend::Blocked]
    } else {
        &[Backend::CountMin, Backend::Fcm, Backend::Blocked]
    };
    let batches: &[usize] = if smoke {
        &[1, 256, 1024]
    } else {
        &[1, 64, 256, 1024]
    };

    let mut results = Vec::new();
    for &skew in skews {
        let spec = StreamSpec {
            len: stream_len,
            distinct,
            skew,
            seed: SEED,
        };
        let stream = spec.materialize();
        let queries = query::sample_from_stream(SEED, &stream, QUERY_COUNT);
        for &filter in filters {
            for &backend in backends {
                for &batch_size in batches {
                    let cfg = RunConfig {
                        skew,
                        filter,
                        backend,
                        batch_size,
                    };
                    let r = run_one(cfg, &stream, &queries);
                    eprintln!(
                        "skew={skew} filter={} backend={} batch={batch_size}: \
                         {:.0} updates/ms, est p50={}ns p99={}ns",
                        filter_name(filter),
                        backend.name(),
                        r.updates_per_ms,
                        r.estimate_p50_ns,
                        r.estimate_p99_ns,
                    );
                    results.push(r);
                    // Flush after every row: a panic mid-sweep keeps the
                    // finished rows in a well-formed partial artifact.
                    write_json(&out_path, smoke, stream_len, distinct, &results)
                        .expect("write results");
                }
            }
        }
    }
    eprintln!("wrote {out_path} ({} rows)", results.len());
}
