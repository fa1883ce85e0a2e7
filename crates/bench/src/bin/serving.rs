//! Open-loop load generator + CI gate for the network serving layer
//! (`crates/serve`), in the same artifact/validate shape as the other
//! harness bins:
//!
//! ```text
//! serving                                   # full sweep -> BENCH_serving.json
//! serving --smoke                           # small sweep + exact-count check
//! serving --io-model reactor|threaded|both  # which engines to sweep
//! serving --conns 1,8 --fracs 0.5 --duration-ms 2000   # subset sweep
//! serving --many-conns 512                  # many-connection smoke
//! serving --validate-serving BENCH_serving.json \
//!         [--min-qps X] [--max-p99-ms X]    # CI gate
//! serving --regress OLD.json NEW.json [--tolerance 0.15]  # perf gate
//! ```
//!
//! The sweep runs an in-process [`asketch_serve::Server`] on an ephemeral
//! port and drives it over real sockets, one row per
//! `{connections × read_frac}` cell. Each connection is **open-loop**: a
//! sender thread issues requests on a fixed schedule derived from the
//! target rate — never waiting for responses (pipelining) — while a
//! receiver thread drains replies and measures latency against the
//! *scheduled* send time, so queueing delay is charged to the server, not
//! hidden by a stalled sender (coordinated omission).
//!
//! The smoke additionally proves exactness over the wire: one write
//! connection streams a skewed workload in deterministic order (the
//! ASketch filter is order-dependent) with concurrent readers hammering
//! estimates, then after SYNC every distinct key's networked answer must
//! equal a local runtime fed the identical stream.
//!
//! Each sweep cell runs per io_model (the epoll reactor and the
//! thread-per-connection fallback share every other knob), and every row
//! ends with a SYNC barrier on a control connection: the row records the
//! number of write ops acknowledged over the wire (`writes_sent`) and
//! the runtime's post-barrier routed total (`synced_routed`) — the two
//! must agree exactly, or the row itself is a correctness bug.
//!
//! The gate (`--validate-serving`) holds four lines: a hardware-aware
//! aggregate-QPS floor, `updates_shed == 0` + `reader_blocked == 0` on
//! every row (Block policy backpressure + wait-free reads under live
//! writes), `writes_sent == synced_routed` on every row, and a read-p99
//! ceiling. `--regress OLD NEW` compares two artifacts row-by-row
//! (matched on io_model/connections/read_frac/target_qps) and fails on
//! a >tolerance achieved-QPS drop or read-p99 rise.

use std::fmt::Write as _;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use asketch::filter::VectorFilter;
use asketch::ASketch;
use asketch_parallel::{BackpressurePolicy, ConcurrentASketch, ConcurrentConfig};
use asketch_serve::{
    decode_response, encode_request, Client, IoModel, Request, Response, ServeConfig, Server,
};
use eval_metrics::artifact::{git_commit, json_f64};
use sketches::CountMin;
use streamgen::{ExactCounter, StreamSpec};

const SEED: u64 = 0x5EED_2016;
const SHARDS: usize = 4;
const DEPTH: usize = 4;
const FILTER_ITEMS: usize = 32;
const TOTAL_BYTES: usize = 1 << 22;
const DISTINCT: u64 = 16_384;
const SKEW: f64 = 1.1;

fn kernel(shard: usize) -> ASketch<VectorFilter, CountMin> {
    let per_shard = (TOTAL_BYTES / SHARDS).max(1 << 14);
    ASketch::new(
        VectorFilter::new(FILTER_ITEMS),
        CountMin::with_byte_budget(SEED ^ shard as u64, DEPTH, per_shard).expect("budget fits"),
    )
}

fn runtime() -> ConcurrentASketch<VectorFilter, CountMin> {
    let mut cfg = ConcurrentConfig {
        shards: SHARDS,
        ..ConcurrentConfig::default()
    };
    cfg.supervision.checkpoint_interval = 16_384;
    ConcurrentASketch::spawn(cfg, kernel)
}

fn spawn_server(io_model: IoModel) -> Server<VectorFilter, CountMin> {
    let cfg = ServeConfig {
        ingest_queue: 1024,
        policy: BackpressurePolicy::Block,
        io_model,
        ..ServeConfig::default()
    };
    Server::spawn(cfg, runtime()).expect("bind ephemeral port")
}

/// The io_models this build can actually run (`Reactor` degrades to the
/// threaded engine off Linux, so sweeping it twice would double-count).
fn sweepable_models(requested: &str) -> Vec<IoModel> {
    match requested {
        "reactor" => vec![IoModel::Reactor],
        "threaded" => vec![IoModel::Threaded],
        _ => {
            if IoModel::Reactor.effective() == IoModel::Reactor {
                vec![IoModel::Reactor, IoModel::Threaded]
            } else {
                vec![IoModel::Threaded]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Open-loop connection driver
// ---------------------------------------------------------------------------

/// One scheduled operation: when it was due, and whether it was a read.
#[derive(Clone, Copy)]
struct OpTicket {
    scheduled: Instant,
    is_read: bool,
}

/// Latencies (ns, scheduled-send to response) split by op class.
#[derive(Default)]
struct ConnLatencies {
    reads: Vec<u64>,
    writes: Vec<u64>,
}

/// Drive one connection open-loop for `duration` at `rate` ops/s. The
/// sender pipelines requests on its schedule; the receiver pairs replies
/// FIFO with tickets (per-connection ordering is the protocol guarantee).
fn drive_connection(
    addr: std::net::SocketAddr,
    rate: f64,
    duration: Duration,
    read_frac: f64,
    keys: Vec<u64>,
    shed_seen: Arc<AtomicU64>,
) -> ConnLatencies {
    let stream = TcpStream::connect(addr).expect("loadgen connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    let (ticket_tx, ticket_rx) = mpsc::channel::<OpTicket>();
    let receiver = std::thread::spawn(move || {
        let mut lat = ConnLatencies::default();
        let mut prefix = [0u8; 4];
        while let Ok(ticket) = ticket_rx.recv() {
            if reader.read_exact(&mut prefix).is_err() {
                break;
            }
            let len = u32::from_le_bytes(prefix) as usize;
            let mut payload = vec![0u8; len];
            if reader.read_exact(&mut payload).is_err() {
                break;
            }
            let ns = ticket.scheduled.elapsed().as_nanos() as u64;
            match decode_response(&payload) {
                Ok(Response::Error { .. }) => {
                    shed_seen.fetch_add(1, Ordering::Relaxed);
                }
                Ok(_) => {
                    if ticket.is_read {
                        lat.reads.push(ns);
                    } else {
                        lat.writes.push(ns);
                    }
                }
                Err(_) => break,
            }
        }
        lat
    });

    let interval = Duration::from_secs_f64(1.0 / rate.max(1.0));
    let start = Instant::now();
    let mut frame = Vec::new();
    let mut i = 0usize;
    loop {
        let scheduled = start + interval.mul_f64(i as f64);
        if scheduled.duration_since(start) >= duration {
            break;
        }
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let key = keys[i % keys.len()];
        // Deterministic read/write mix: golden-ratio hash of the op index
        // against the read fraction.
        let mix = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let is_read = (mix as f64 / (1u64 << 24) as f64) < read_frac;
        let req = if is_read {
            Request::Estimate(key)
        } else {
            Request::Update(key)
        };
        frame.clear();
        encode_request(&req, &mut frame);
        if writer.write_all(&frame).is_err() {
            break;
        }
        // Flush whenever the pipeline is about to go idle: if the next
        // scheduled op is already due, keep batching (bounded at 16 ops)
        // so a saturated sender still amortizes the syscall; if it is in
        // the future, holding frames in the buffer until the burst ends
        // would charge that scheduling gap to the server as a latency
        // floor Nagle usually gets blamed for.
        let next_due = start + interval.mul_f64((i + 1) as f64);
        if (i % 16 == 15 || next_due > Instant::now()) && writer.flush().is_err() {
            break;
        }
        ticket_tx
            .send(OpTicket { scheduled, is_read })
            .expect("receiver alive");
        i += 1;
    }
    let _ = writer.flush();
    drop(ticket_tx); // receiver drains exactly the sent ops, then exits
    receiver.join().expect("receiver thread")
}

// ---------------------------------------------------------------------------
// Sweep rows
// ---------------------------------------------------------------------------

struct Row {
    io_model: &'static str,
    connections: usize,
    read_frac: f64,
    target_qps: f64,
    achieved_qps: f64,
    total_ops: usize,
    read_p50_us: f64,
    read_p99_us: f64,
    read_p999_us: f64,
    write_p50_us: f64,
    write_p99_us: f64,
    write_p999_us: f64,
    writes_sent: u64,
    synced_routed: u64,
    updates_shed: u64,
    reader_blocked: u64,
    reader_retries: u64,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1_000.0
}

fn run_row(
    io_model: IoModel,
    connections: usize,
    read_frac: f64,
    target_qps: f64,
    duration: Duration,
) -> Row {
    let server = spawn_server(io_model);
    let addr = server.addr();
    let spec = StreamSpec {
        len: 65_536,
        distinct: DISTINCT,
        skew: SKEW,
        seed: SEED,
    };
    let stream = spec.materialize();
    let shed_seen = Arc::new(AtomicU64::new(0));
    let per_conn_rate = target_qps / connections as f64;

    let t0 = Instant::now();
    let drivers: Vec<_> = (0..connections)
        .map(|c| {
            // Disjoint rotations of the same skewed key stream per
            // connection: same key universe, different arrival order.
            let mut keys = stream.clone();
            keys.rotate_left((c * stream.len()) / connections.max(1));
            let shed = Arc::clone(&shed_seen);
            std::thread::spawn(move || {
                drive_connection(addr, per_conn_rate, duration, read_frac, keys, shed)
            })
        })
        .collect();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for d in drivers {
        let lat = d.join().expect("driver thread");
        reads.extend(lat.reads);
        writes.extend(lat.writes);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let total_ops = reads.len() + writes.len();
    reads.sort_unstable();
    writes.sort_unstable();

    // Exactness rides every perf row: each acked write carried exactly
    // one key, so after a SYNC barrier the runtime's routed total must
    // equal the number of write OKs the drivers counted.
    let writes_sent = writes.len() as u64;
    let synced_routed = Client::connect(addr)
        .expect("control connect")
        .sync()
        .expect("control sync");

    let gauge = server.stats();
    server.shutdown();
    Row {
        io_model: io_model.effective().name(),
        connections,
        read_frac,
        target_qps,
        achieved_qps: total_ops as f64 / elapsed.max(1e-9),
        total_ops,
        read_p50_us: percentile_us(&reads, 0.50),
        read_p99_us: percentile_us(&reads, 0.99),
        read_p999_us: percentile_us(&reads, 0.999),
        write_p50_us: percentile_us(&writes, 0.50),
        write_p99_us: percentile_us(&writes, 0.99),
        write_p999_us: percentile_us(&writes, 0.999),
        writes_sent,
        synced_routed,
        updates_shed: gauge.updates_shed + shed_seen.load(Ordering::Relaxed),
        reader_blocked: gauge.reader_blocked,
        reader_retries: gauge.reader_retries,
    }
}

// ---------------------------------------------------------------------------
// Smoke exactness: networked answers == local runtime, mid-read-storm
// ---------------------------------------------------------------------------

/// Returns the number of distinct keys checked; panics (nonzero exit) on
/// any networked-vs-local mismatch.
fn smoke_exactness(io_model: IoModel) -> usize {
    let server = spawn_server(io_model);
    let addr = server.addr();
    let spec = StreamSpec {
        len: 120_000,
        distinct: DISTINCT,
        skew: SKEW,
        seed: SEED ^ 0xDEAD,
    };
    let stream = spec.materialize();
    let truth = ExactCounter::from_keys(&stream);

    // Local reference fed the identical ordered stream.
    let mut reference = runtime();
    reference.insert_batch(&stream);
    reference.sync();
    let ref_handle = reference.query_handle();

    // Readers hammer estimates while the single write connection streams.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("reader connect");
                let keys: Vec<u64> = (0..512u64).map(|i| i * 31 + r).collect();
                let mut served = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let vals = c.estimate_batch(&keys).expect("live read");
                    assert_eq!(vals.len(), keys.len());
                    served += vals.len() as u64;
                }
                served
            })
        })
        .collect();

    let mut writer = Client::connect(addr).expect("writer connect");
    for chunk in stream.chunks(2_048) {
        assert_eq!(
            writer.update_batch(chunk).expect("update"),
            chunk.len() as u32
        );
    }
    let routed = writer.sync().expect("sync barrier");
    assert_eq!(routed, stream.len() as u64, "sync lost writes");
    stop.store(true, Ordering::Release);
    let reads_served: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(reads_served > 0, "readers never got a response");

    // Post-sync: every distinct key, exact over the wire.
    let keys: Vec<u64> = truth.iter().map(|(k, _)| k).collect();
    let over_wire = writer.estimate_batch(&keys).expect("estimate batch");
    let mut mismatches = 0usize;
    for (i, &key) in keys.iter().enumerate() {
        if over_wire[i] != ref_handle.estimate(key) {
            eprintln!(
                "MISMATCH key {key}: wire {} local {}",
                over_wire[i],
                ref_handle.estimate(key)
            );
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches, 0,
        "networked counts diverged from local runtime"
    );

    let (_, health, gauge) = server.shutdown();
    assert_eq!(health.total_routed(), stream.len() as u64);
    assert_eq!(gauge.updates_shed, 0, "Block policy shed");
    assert_eq!(
        gauge.reader_blocked, 0,
        "reads blocked under live writes (retries={})",
        gauge.reader_retries
    );
    let _ = reference.finish();
    println!(
        "smoke exactness OK ({}): {} distinct keys, {} live reads, reader_retries={}",
        io_model.effective().name(),
        keys.len(),
        reads_served,
        gauge.reader_retries
    );
    keys.len()
}

// ---------------------------------------------------------------------------
// Many-connection smoke
// ---------------------------------------------------------------------------

/// N concurrent connections (one worker thread each) against one server:
/// all sockets open before the first write, every worker streams batches
/// and reads live estimates, then a control SYNC must account for every
/// accepted key exactly. Proves accept fan-out, per-reactor connection
/// bookkeeping, and cross-connection staging at counts far beyond the
/// latency sweep's.
fn many_conns_smoke(n: usize, io_model: IoModel) {
    const BATCHES: usize = 4;
    const BATCH: usize = 128;
    let server = spawn_server(io_model);
    let addr = server.addr();
    let barrier = Arc::new(std::sync::Barrier::new(n));
    let workers: Vec<_> = (0..n)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connect");
                barrier.wait(); // every socket open before anyone writes
                let keys: Vec<u64> = (0..BATCH as u64)
                    .map(|i| i.wrapping_mul(31).wrapping_add(c as u64))
                    .collect();
                for _ in 0..BATCHES {
                    assert_eq!(
                        client.update_batch(&keys).expect("worker update"),
                        BATCH as u32
                    );
                }
                let est = client.estimate(c as u64 % 64).expect("worker estimate");
                assert!(est >= 0);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    let routed = Client::connect(addr)
        .expect("control connect")
        .sync()
        .expect("control sync");
    let expected = (n * BATCHES * BATCH) as u64;
    assert_eq!(routed, expected, "post-sync count across {n} connections");
    let stats = server.stats();
    assert!(stats.connections_accepted > n as u64);
    let (_, health, gauge) = server.shutdown();
    assert_eq!(health.total_routed(), expected);
    assert_eq!(gauge.updates_shed, 0, "Block policy shed");
    assert_eq!(gauge.protocol_errors, 0);
    println!(
        "many-conns smoke OK ({}): {n} connections, {expected} keys routed exactly",
        io_model.effective().name()
    );
}

// ---------------------------------------------------------------------------
// Artifact + gate
// ---------------------------------------------------------------------------

fn write_json(path: &str, smoke: bool, exact_keys: usize, rows: &[Row]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 2,");
    let _ = writeln!(out, "  \"commit\": \"{}\",", git_commit());
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"config\": {{\"shards\": {SHARDS}, \"policy\": \"block\", \"depth\": {DEPTH}, \
         \"filter_items\": {FILTER_ITEMS}, \"total_bytes\": {TOTAL_BYTES}, \
         \"distinct\": {DISTINCT}, \"skew\": {SKEW}, \"seed\": {SEED}}},"
    );
    let _ = writeln!(out, "  \"exact_keys_checked\": {exact_keys},");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"io_model\": \"{}\", \"connections\": {}, \"read_frac\": {}, \
             \"target_qps\": {}, \
             \"achieved_qps\": {}, \"total_ops\": {}, \
             \"read_p50_us\": {}, \"read_p99_us\": {}, \"read_p999_us\": {}, \
             \"write_p50_us\": {}, \"write_p99_us\": {}, \"write_p999_us\": {}, \
             \"writes_sent\": {}, \"synced_routed\": {}, \
             \"updates_shed\": {}, \"reader_blocked\": {}, \"reader_retries\": {}}}{comma}",
            r.io_model,
            r.connections,
            json_f64(r.read_frac),
            json_f64(r.target_qps),
            json_f64(r.achieved_qps),
            r.total_ops,
            json_f64(r.read_p50_us),
            json_f64(r.read_p99_us),
            json_f64(r.read_p999_us),
            json_f64(r.write_p50_us),
            json_f64(r.write_p99_us),
            json_f64(r.write_p999_us),
            r.writes_sent,
            r.synced_routed,
            r.updates_shed,
            r.reader_blocked,
            r.reader_retries,
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Pull `"key": value` out of a single result line (one object per line).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Validate `BENCH_serving.json`: schema shape; `updates_shed == 0` and
/// `reader_blocked == 0` on every row (Block backpressure + wait-free
/// reads); `writes_sent == synced_routed` on every row (exact accounting
/// through the staging/mega-batch path); best aggregate QPS over the
/// floor; read p99 under the ceiling on every row that served reads.
fn validate_serving(path: &str, min_qps: f64, max_p99_ms: f64) -> Result<(), String> {
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
    let mut best_qps = 0.0f64;
    let mut worst_p99_us = 0.0f64;
    for line in text.lines().filter(|l| l.contains("\"achieved_qps\"")) {
        rows += 1;
        let get =
            |k: &str| field(line, k).ok_or_else(|| format!("result row missing \"{k}\": {line}"));
        let qps: f64 = get("achieved_qps")?
            .parse()
            .map_err(|e| format!("bad achieved_qps: {e}"))?;
        let target: f64 = get("target_qps")?
            .parse()
            .map_err(|e| format!("bad target_qps: {e}"))?;
        let read_frac: f64 = get("read_frac")?
            .parse()
            .map_err(|e| format!("bad read_frac: {e}"))?;
        let p99: f64 = get("read_p99_us")?
            .parse()
            .map_err(|e| format!("bad read_p99_us: {e}"))?;
        let shed: u64 = get("updates_shed")?
            .parse()
            .map_err(|e| format!("bad updates_shed: {e}"))?;
        let blocked: u64 = get("reader_blocked")?
            .parse()
            .map_err(|e| format!("bad reader_blocked: {e}"))?;
        let writes_sent: u64 = get("writes_sent")?
            .parse()
            .map_err(|e| format!("bad writes_sent: {e}"))?;
        let synced: u64 = get("synced_routed")?
            .parse()
            .map_err(|e| format!("bad synced_routed: {e}"))?;
        get("total_ops")?;
        get("io_model")?;
        if shed != 0 {
            return Err(format!("updates shed under Block policy: {line}"));
        }
        if blocked != 0 {
            return Err(format!("reader blocked (reads not wait-free): {line}"));
        }
        if writes_sent != synced {
            return Err(format!(
                "acked writes ({writes_sent}) != post-sync routed ({synced}): {line}"
            ));
        }
        if qps <= 0.0 {
            return Err(format!("non-positive achieved_qps: {line}"));
        }
        best_qps = best_qps.max(qps);
        // The latency ceiling only applies to rows that kept up with
        // their schedule: an oversaturated (ceiling) row measures peak
        // throughput, and its open-loop latencies are queueing delay by
        // construction.
        if read_frac > 0.0 && qps >= 0.98 * target {
            worst_p99_us = worst_p99_us.max(p99);
        }
    }
    if rows == 0 {
        return Err("no result rows".to_string());
    }
    if best_qps < min_qps {
        return Err(format!(
            "best achieved QPS {best_qps:.0} below required {min_qps:.0}"
        ));
    }
    let max_p99_us = max_p99_ms * 1_000.0;
    if worst_p99_us > max_p99_us {
        return Err(format!(
            "read p99 {worst_p99_us:.0}us exceeds ceiling {max_p99_us:.0}us"
        ));
    }
    println!(
        "OK: {rows} rows, best QPS {best_qps:.0} >= {min_qps:.0}, \
         worst read p99 {worst_p99_us:.0}us <= {max_p99_us:.0}us, \
         zero shed, zero blocked reads, exact post-sync counts"
    );
    Ok(())
}

/// Extract `(match_key, achieved_qps, read_p99_us)` per result row. Rows
/// from pre-io_model artifacts (schema 1) match as "threaded" — that is
/// the engine those artifacts measured.
fn regress_rows(text: &str) -> Vec<(String, f64, f64)> {
    text.lines()
        .filter(|l| l.contains("\"achieved_qps\""))
        .filter_map(|line| {
            let io = field(line, "io_model").unwrap_or("threaded");
            let key = format!(
                "io={io} conns={} frac={} target={}",
                field(line, "connections")?,
                field(line, "read_frac")?,
                field(line, "target_qps")?,
            );
            let qps: f64 = field(line, "achieved_qps")?.parse().ok()?;
            let p99: f64 = field(line, "read_p99_us")?.parse().ok()?;
            Some((key, qps, p99))
        })
        .collect()
}

/// Sub-100us p99s are scheduler jitter at these row durations; a relative
/// gate alone would flag 60us -> 75us as a regression.
const REGRESS_P99_SLACK_US: f64 = 100.0;

/// Row-by-row perf gate between two artifacts: rows matched on
/// `(io_model, connections, read_frac, target_qps)` must not lose more
/// than `tolerance` achieved QPS nor gain more than `tolerance` read p99
/// (plus a small absolute slack). Rows present in only one artifact are
/// reported but not failed — sweeps may legitimately grow or shrink.
fn regress(old_path: &str, new_path: &str, tolerance: f64) -> Result<(), String> {
    let old_text =
        std::fs::read_to_string(old_path).map_err(|e| format!("read {old_path}: {e}"))?;
    let new_text =
        std::fs::read_to_string(new_path).map_err(|e| format!("read {new_path}: {e}"))?;
    let old_rows = regress_rows(&old_text);
    let new_rows = regress_rows(&new_text);
    if old_rows.is_empty() {
        return Err(format!("no result rows in {old_path}"));
    }
    let mut matched = 0usize;
    let mut failures = Vec::new();
    for (key, old_qps, old_p99) in &old_rows {
        let Some((_, new_qps, new_p99)) = new_rows.iter().find(|(k, _, _)| k == key) else {
            println!("  (row {key} absent in {new_path}; skipped)");
            continue;
        };
        matched += 1;
        if *new_qps < old_qps * (1.0 - tolerance) {
            failures.push(format!(
                "{key}: achieved_qps {new_qps:.0} fell below {old_qps:.0} by more than \
                 {:.0}%",
                tolerance * 100.0
            ));
        }
        if *new_p99 > old_p99 * (1.0 + tolerance) + REGRESS_P99_SLACK_US {
            failures.push(format!(
                "{key}: read_p99_us {new_p99:.0} rose above {old_p99:.0} by more than \
                 {:.0}% (+{REGRESS_P99_SLACK_US:.0}us slack)",
                tolerance * 100.0
            ));
        }
    }
    if matched == 0 {
        return Err(format!(
            "no comparable rows between {old_path} and {new_path}"
        ));
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    println!(
        "OK: {matched} rows within ±{:.0}% (qps and read p99) of {old_path}",
        tolerance * 100.0
    );
    Ok(())
}

// ---------------------------------------------------------------------------

fn parse_list<T: std::str::FromStr>(s: &str, flag: &str) -> Vec<T> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad {flag} element {p:?}"))
        })
        .collect()
}

fn flag_value(args: &[String], i: &mut usize, name: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| panic!("{name} needs a value"))
        .clone()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_serving.json".to_string();
    let mut validate_path: Option<String> = None;
    let mut regress_paths: Option<(String, String)> = None;
    let mut tolerance = 0.15f64;
    let mut min_qps = 10_000.0f64;
    let mut max_p99_ms = 200.0f64;
    let mut target_qps: Option<f64> = None;
    let mut io_model_arg = "both".to_string();
    let mut conns_override: Option<Vec<usize>> = None;
    let mut fracs_override: Option<Vec<f64>> = None;
    let mut duration_override: Option<Duration> = None;
    let mut many_conns: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        macro_rules! value {
            ($name:literal) => {
                flag_value(&args, &mut i, $name)
            };
        }
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = value!("--out"),
            "--validate-serving" => validate_path = Some(value!("--validate-serving")),
            "--regress" => {
                let old = value!("--regress");
                let new = value!("--regress");
                regress_paths = Some((old, new));
            }
            "--tolerance" => tolerance = value!("--tolerance").parse().expect("bad --tolerance"),
            "--min-qps" => min_qps = value!("--min-qps").parse().expect("bad --min-qps"),
            "--max-p99-ms" => {
                max_p99_ms = value!("--max-p99-ms").parse().expect("bad --max-p99-ms");
            }
            "--target-qps" => {
                target_qps = Some(value!("--target-qps").parse().expect("bad --target-qps"));
            }
            "--io-model" => {
                io_model_arg = value!("--io-model");
                if !matches!(io_model_arg.as_str(), "reactor" | "threaded" | "both") {
                    eprintln!("bad --io-model {io_model_arg} (reactor|threaded|both)");
                    std::process::exit(2);
                }
            }
            "--conns" => conns_override = Some(parse_list(&value!("--conns"), "--conns")),
            "--fracs" => fracs_override = Some(parse_list(&value!("--fracs"), "--fracs")),
            "--duration-ms" => {
                duration_override = Some(Duration::from_millis(
                    value!("--duration-ms").parse().expect("bad --duration-ms"),
                ));
            }
            "--many-conns" => {
                many_conns = Some(value!("--many-conns").parse().expect("bad --many-conns"));
            }
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: serving [--smoke] [--out FILE] \
                     [--io-model reactor|threaded|both] [--conns A,B] [--fracs X,Y] \
                     [--duration-ms N] [--target-qps X] [--many-conns N] \
                     [--validate-serving FILE [--min-qps X] [--max-p99-ms X]] \
                     [--regress OLD NEW [--tolerance X]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = validate_path {
        if let Err(e) = validate_serving(&path, min_qps, max_p99_ms) {
            eprintln!("serving validation FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some((old, new)) = regress_paths {
        if let Err(e) = regress(&old, &new, tolerance) {
            eprintln!("serving regression gate FAILED:\n{e}");
            std::process::exit(1);
        }
        return;
    }

    let models = sweepable_models(&io_model_arg);

    if let Some(n) = many_conns {
        for &m in &models {
            many_conns_smoke(n, m);
        }
        return;
    }

    // Exactness first (smoke only): a perf artifact from a wrong server
    // is worthless.
    let mut exact_keys = 0;
    if smoke {
        for &m in &models {
            exact_keys = smoke_exactness(m);
        }
    }

    let (conns, fracs, duration, qps): (Vec<usize>, Vec<f64>, Duration, f64) = if smoke {
        (
            conns_override.unwrap_or_else(|| vec![2, 4]),
            fracs_override.unwrap_or_else(|| vec![0.5, 0.9]),
            duration_override.unwrap_or(Duration::from_millis(1_500)),
            target_qps.unwrap_or(30_000.0),
        )
    } else {
        (
            conns_override.unwrap_or_else(|| vec![1, 4, 8]),
            fracs_override.unwrap_or_else(|| vec![0.1, 0.5, 0.9]),
            duration_override.unwrap_or(Duration::from_secs(4)),
            target_qps.unwrap_or(60_000.0),
        )
    };

    // Cell list: the rate-controlled latency grid, plus (full runs only)
    // one deliberately oversaturated cell per model at the sweep's widest
    // connection count — the throughput ceiling the io_models are
    // ultimately compared on.
    let mut cells: Vec<(usize, f64, f64)> = Vec::new();
    for &c in &conns {
        for &f in &fracs {
            cells.push((c, f, qps));
        }
    }
    if !smoke {
        let wide = conns.iter().copied().max().unwrap_or(8);
        cells.push((wide, 0.5, 400_000.0));
    }

    let mut rows = Vec::new();
    for &m in &models {
        for &(c, f, cell_qps) in &cells {
            let row = run_row(m, c, f, cell_qps, duration);
            println!(
                "io={} conns={c} read_frac={f:.1}: {:.0} qps (target {:.0}), \
                 read p50/p99/p999 = {:.0}/{:.0}/{:.0} us, \
                 write p50/p99 = {:.0}/{:.0} us, \
                 writes {}=={} routed, shed={} blocked={}",
                row.io_model,
                row.achieved_qps,
                row.target_qps,
                row.read_p50_us,
                row.read_p99_us,
                row.read_p999_us,
                row.write_p50_us,
                row.write_p99_us,
                row.writes_sent,
                row.synced_routed,
                row.updates_shed,
                row.reader_blocked,
            );
            assert_eq!(
                row.writes_sent, row.synced_routed,
                "acked writes lost before the sync barrier"
            );
            rows.push(row);
        }
    }
    write_json(&out_path, smoke, exact_keys, &rows).expect("write artifact");
    println!("wrote {out_path}");
}
