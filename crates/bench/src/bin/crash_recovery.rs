//! `crash_recovery` — SIGKILL crash-injection harness for the durable
//! sharded runtime (DESIGN.md §12), plus the storage-chaos harness for
//! the self-healing durability layer (DESIGN.md §13).
//!
//! ```text
//! crash_recovery [--trials N] [--keys N] [--seed S] [--dir PATH]
//! crash_recovery --faults [--keys N] [--seed S] [--dir PATH] [--out BENCH_faults.json]
//! crash_recovery --validate-faults BENCH_faults.json
//! crash_recovery child <dir> <fsync> <keys> <ckpt-every>   # internal
//! ```
//!
//! Each trial spawns *this same binary* in `child` mode as a separate
//! process. The child ingests a deterministic key sequence through
//! [`ConcurrentASketch::spawn_durable`], periodically calling
//! [`wal_checkpoint`](ConcurrentASketch::wal_checkpoint) and appending the
//! acknowledged prefix length to an fsynced ack file. The harness sleeps a
//! pseudo-random interval, delivers SIGKILL, then recovers every shard
//! directory twice:
//!
//! * `dedup = true` — the recovered estimate of every key must equal the
//!   **exact** count of the durable prefix (snapshot `ops` + replayed WAL
//!   keys), computed independently from the deterministic sequence. The
//!   key space is smaller than the filter capacity, so ASketch answers are
//!   exact and the comparison is `==`, not `>=`.
//! * `dedup = false` — at-least-once replay: every estimate must be `>=`
//!   the exact durable count (one-sided over-count only).
//!
//! In both runs the durable prefix must cover everything the child's ack
//! file acknowledged before the kill — a checkpointed write never
//! disappears. The fsync policy cycles per trial (per-batch, interval,
//! off) so all three disk-pressure modes face the kill. Exits non-zero on
//! the first trial whose recovery violates any of the above.
//!
//! `--faults` runs the **storage-chaos sweep** instead: every
//! [`FaultKind`] × {transient, persistent} × all three fsync policies,
//! injected in-process through a [`FaultVfs`] (a scripted fault plan
//! cannot cross the SIGKILL process boundary), plus live bit-rot trials
//! that corrupt published snapshots and assert the integrity scrubber
//! detects and quarantines 100% of them. Each trial asserts: no acked
//! durable write is lost, no panic escapes, transient faults are retried
//! away (runtime ends healthy, every key durable), persistent faults
//! engage disk-sick degraded mode with the right typed [`ErrorClass`]
//! while ingest stays exact. Results land in `BENCH_faults.json`;
//! `--validate-faults` re-checks the committed artifact in CI.

use std::io::{BufRead as _, Write as _};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asketch::filter::VectorFilter;
use asketch::{ASketch, DurabilityOptions, FsyncPolicy};
use asketch_durable::vfs::{self as storage_vfs, FaultKind, FaultPlan, FaultVfs, Vfs};
use asketch_durable::{
    recover_kernel, scrub_shard_dir, DurabilityError, ErrorClass, StoragePolicy,
};
use asketch_parallel::{
    BackpressurePolicy, ConcurrentASketch, ConcurrentConfig, KeyPartition, SupervisionConfig,
};
use asketch_serve::{
    ChaosConfig, ChaosProxy, FaultKind as NetFault, ResilientClient, RetryPolicy, ServeConfig,
    Server,
};
use eval_metrics::artifact::git_commit;
use sketches::CountMin;

/// Distinct keys in the child's round-robin stream. Must stay below
/// [`FILTER_ITEMS`] so every key lives in the filter and estimates are
/// exact (the harness asserts `==`, not just `>=`).
const DISTINCT: u64 = 64;
const FILTER_ITEMS: usize = 64;
const SHARDS: usize = 2;
const SEED: u64 = 0x5EED_2016;
/// Keys between `wal_checkpoint` barriers (and ack-file appends).
const CKPT_EVERY: u64 = 4096;

fn kernel(shard: usize) -> ASketch<VectorFilter, CountMin> {
    ASketch::new(
        VectorFilter::new(FILTER_ITEMS),
        CountMin::new(SEED ^ shard as u64, 4, 4096).expect("valid geometry"),
    )
}

fn config() -> ConcurrentConfig {
    ConcurrentConfig {
        shards: SHARDS,
        batch: 64,
        ..ConcurrentConfig::default()
    }
}

/// The deterministic child stream: key `i % DISTINCT` at position `i`.
fn key_at(i: u64) -> u64 {
    i % DISTINCT
}

fn parse_fsync(s: &str) -> FsyncPolicy {
    match s {
        "per-batch" => FsyncPolicy::PerBatch,
        "interval" => FsyncPolicy::Interval(8),
        "off" => FsyncPolicy::Off,
        other => {
            eprintln!("unknown fsync policy: {other}");
            std::process::exit(2);
        }
    }
}

fn fsync_name(trial: usize) -> &'static str {
    ["per-batch", "interval", "off"][trial % 3]
}

// ---------------------------------------------------------------------------
// Child mode: ingest, checkpoint, ack — until killed or done.
// ---------------------------------------------------------------------------

fn run_child(dir: &Path, fsync: FsyncPolicy, keys: u64) -> ! {
    std::fs::create_dir_all(dir).expect("create trial dir");
    let opts = DurabilityOptions::new(dir).fsync(fsync);
    let (mut rt, _reports) = match ConcurrentASketch::spawn_durable(config(), &opts, kernel) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("child: spawn_durable failed: {e}");
            std::process::exit(3);
        }
    };
    let mut acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("acks.log"))
        .expect("open ack file");
    for i in 0..keys {
        rt.insert(key_at(i));
        if (i + 1) % CKPT_EVERY == 0 {
            match rt.wal_checkpoint() {
                Ok(routed) => {
                    assert_eq!(routed, i + 1, "checkpoint must cover every insert");
                    // The ack line is written (and fsynced) only after the
                    // WAL barrier: everything acknowledged here must
                    // survive a SIGKILL delivered at any later instant.
                    writeln!(acks, "{routed}").expect("append ack");
                    acks.sync_data().expect("fsync ack");
                }
                Err(e) => {
                    eprintln!("child: wal_checkpoint failed: {e}");
                    std::process::exit(3);
                }
            }
        }
    }
    let (_kernels, health) = rt.finish_with_health();
    if health.any_durability_degraded() {
        eprintln!("child: durability degraded during clean run");
        std::process::exit(3);
    }
    // Clean completion: the final snapshot covers the whole stream.
    writeln!(acks, "{keys}").expect("append ack");
    acks.sync_data().expect("fsync ack");
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// Harness mode: spawn child, SIGKILL it, verify recovery.
// ---------------------------------------------------------------------------

/// Last complete (newline-terminated, parseable) ack line, or 0. A kill
/// can land mid-`writeln!`, so a torn final line is expected and ignored.
fn read_acked(dir: &Path) -> u64 {
    let Ok(text) = std::fs::read_to_string(dir.join("acks.log")) else {
        return 0;
    };
    let Some(end) = text.rfind('\n') else {
        return 0;
    };
    text[..end]
        .lines()
        .filter_map(|l| l.trim().parse::<u64>().ok())
        .next_back()
        .unwrap_or(0)
}

/// Exact per-key counts of shard `shard`'s durable prefix: the first
/// `durable_keys` keys of the deterministic stream that route to `shard`.
/// Errors if the prefix would exceed what the child could have shipped.
fn expected_counts(
    shard: usize,
    part: &KeyPartition,
    durable_keys: u64,
    total_keys: u64,
) -> Result<Vec<i64>, String> {
    let mut counts = vec![0i64; DISTINCT as usize];
    let mut taken = 0u64;
    let mut i = 0u64;
    while taken < durable_keys {
        if i >= total_keys {
            return Err(format!(
                "shard {shard}: durable prefix {durable_keys} keys exceeds the \
                 {total_keys}-key stream — recovery invented updates"
            ));
        }
        let k = key_at(i);
        if part.shard_of(k) == shard {
            counts[k as usize] += 1;
            taken += 1;
        }
        i += 1;
    }
    Ok(counts)
}

/// Verify one killed (or cleanly finished) trial directory. Returns the
/// total durable key count plus a human-readable summary line, or the
/// first violation.
fn verify_trial(dir: &Path, total_keys: u64) -> Result<(u64, String), String> {
    let acked = read_acked(dir);
    let part = KeyPartition::new(SHARDS);
    // Per-shard share of the globally acked prefix.
    let mut acked_per_shard = [0u64; SHARDS];
    for i in 0..acked {
        acked_per_shard[part.shard_of(key_at(i))] += 1;
    }
    let opts = DurabilityOptions::new(dir);
    let mut durable_total = 0u64;
    let mut torn = 0usize;
    let mut rejected = 0usize;
    for (shard, &acked_here) in acked_per_shard.iter().enumerate() {
        let shard_dir = opts.shard_dir(shard);
        let (exact, report) = recover_kernel(&shard_dir, true, || kernel(shard))
            .map_err(|e| format!("shard {shard}: dedup recovery failed: {e}"))?;
        let durable = report.snapshot.map_or(0, |m| m.ops) + report.replayed_keys;
        durable_total += durable;
        torn += usize::from(report.torn.is_some());
        rejected += report.rejected_snapshots.len();
        if durable < acked_here {
            return Err(format!(
                "shard {shard}: durable prefix {durable} keys < acked {acked_here} — \
                 an acknowledged write was lost"
            ));
        }
        let expected = expected_counts(shard, &part, durable, total_keys)?;
        for k in 0..DISTINCT {
            if part.shard_of(k) != shard {
                continue;
            }
            let est = exact.estimate(k);
            if est != expected[k as usize] {
                return Err(format!(
                    "shard {shard} key {k}: dedup recovery estimate {est} != exact \
                     durable count {} (prefix {durable} keys)",
                    expected[k as usize]
                ));
            }
        }
        // Second pass, at-least-once: replays everything intact, including
        // records the snapshot already covers — may only over-count.
        let (raw, _raw_report) = recover_kernel(&shard_dir, false, || kernel(shard))
            .map_err(|e| format!("shard {shard}: raw recovery failed: {e}"))?;
        for k in 0..DISTINCT {
            if part.shard_of(k) != shard {
                continue;
            }
            let est = raw.estimate(k);
            if est < expected[k as usize] {
                return Err(format!(
                    "shard {shard} key {k}: raw recovery estimate {est} < exact \
                     durable count {} — at-least-once under-counted",
                    expected[k as usize]
                ));
            }
        }
    }
    Ok((
        durable_total,
        format!(
            "acked {acked}, durable {durable_total} keys, {torn} torn tail(s), \
             {rejected} rejected snapshot(s)"
        ),
    ))
}

fn run_harness(trials: usize, keys: u64, seed: u64, base: &Path) -> ! {
    let exe = std::env::current_exe().expect("current_exe");
    let mut rng = seed | 1;
    let mut failures = 0usize;
    let mut kills = 0usize;
    for trial in 0..trials {
        let dir = base.join(format!("trial-{trial:03}"));
        let _ = std::fs::remove_dir_all(&dir);
        let fsync = fsync_name(trial);
        let mut child = Command::new(&exe)
            .arg("child")
            .arg(&dir)
            .arg(fsync)
            .arg(keys.to_string())
            .arg(CKPT_EVERY.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn child");
        // Splitmix-style step; the kill lands anywhere from process start
        // (before the runtime exists) to past clean completion.
        rng = rng
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        let sleep_ms = (rng >> 33) % 120;
        std::thread::sleep(Duration::from_millis(sleep_ms));
        let killed = child.try_wait().expect("poll child").is_none();
        if killed {
            child.kill().expect("SIGKILL child");
            kills += 1;
        }
        let status = child.wait().expect("reap child");
        if !killed && !status.success() {
            eprintln!("trial {trial}: FAIL — child errored before the kill: {status}");
            failures += 1;
            continue;
        }
        match verify_trial(&dir, keys) {
            Ok((_durable, summary)) => {
                let how = if killed { "killed" } else { "completed" };
                println!("trial {trial}: ok ({fsync}, {how} after {sleep_ms}ms; {summary})");
                let _ = std::fs::remove_dir_all(&dir);
            }
            Err(e) => {
                eprintln!("trial {trial}: FAIL ({fsync}, slept {sleep_ms}ms): {e}");
                eprintln!("trial {trial}: state kept in {}", dir.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures}/{trials} crash-injection trials FAILED");
        std::process::exit(1);
    }
    println!(
        "all {trials} crash-injection trials passed ({kills} mid-run kills, \
         {} clean completions)",
        trials - kills
    );
    std::process::exit(0);
}

// ---------------------------------------------------------------------------
// Storage-chaos mode (`--faults` / `--validate-faults`, DESIGN.md §13).
// ---------------------------------------------------------------------------

/// Keys between checkpoint barriers in fault trials (smaller than the
/// kill harness's so faults interleave with many ack points).
const FAULT_CKPT: u64 = 2048;
/// Per-trial wall-clock budget for async fault surfacing (snapshotter
/// faults are promoted to the caller lazily, at checkpoint barriers).
const FAULT_DEADLINE: Duration = Duration::from_secs(20);

/// Runtime config for fault trials: frequent worker checkpoints so the
/// background snapshotter (and therefore the rename/sync fault paths)
/// gets exercised within a short trial.
fn faults_config() -> ConcurrentConfig {
    ConcurrentConfig {
        shards: SHARDS,
        batch: 64,
        supervision: SupervisionConfig {
            checkpoint_interval: 1024,
            ..SupervisionConfig::default()
        },
        ..ConcurrentConfig::default()
    }
}

/// The `ErrorClass` a persistently injected fault must degrade with.
fn expected_class(kind: FaultKind) -> ErrorClass {
    match kind {
        FaultKind::Enospc => ErrorClass::NoSpace,
        _ => ErrorClass::Io,
    }
}

/// One row of `BENCH_faults.json`.
struct FaultRow {
    kind: String,
    mode: &'static str,
    fsync: &'static str,
    keys: u64,
    acked: u64,
    durable: u64,
    injected: u64,
    retries: u64,
    degraded_shards: usize,
    error_class: String,
    rot_injected: u64,
    rot_detected: u64,
    quarantined: u64,
    panicked: bool,
    passed: bool,
    detail: String,
}

/// Stats a trial body hands back on success.
#[derive(Default)]
struct TrialStats {
    keys: u64,
    acked: u64,
    durable: u64,
    injected: u64,
    retries: u64,
    degraded_shards: usize,
    error_class: String,
    rot_injected: u64,
    rot_detected: u64,
    quarantined: u64,
}

/// Check every shard kernel against the exact counts of the full
/// deterministic stream — ingest must stay correct (and, with the key
/// space inside the filter, exact) even after degrading.
fn check_kernels_exact(
    kernels: &[ASketch<VectorFilter, CountMin>],
    inserted: u64,
) -> Result<(), String> {
    let part = KeyPartition::new(SHARDS);
    let mut expect = vec![0i64; DISTINCT as usize];
    for i in 0..inserted {
        expect[key_at(i) as usize] += 1;
    }
    for (shard, kernel) in kernels.iter().enumerate() {
        for key in 0..DISTINCT {
            if part.shard_of(key) != shard {
                continue;
            }
            let est = kernel.estimate(key);
            if est != expect[key as usize] {
                return Err(format!(
                    "shard {shard} key {key}: live estimate {est} != exact count {} \
                     after {inserted} inserts — ingest corrupted by the storage fault",
                    expect[key as usize]
                ));
            }
        }
    }
    Ok(())
}

/// One injected-fault trial: ingest through a scripted [`FaultVfs`],
/// checkpointing (and acking) every [`FAULT_CKPT`] keys.
///
/// * `transient` faults are isolated single-op failures — the runtime
///   must retry them away, end healthy, and leave **every** key durable.
/// * `persistent` faults repeat forever from a scripted op — the runtime
///   must degrade with the right typed class, keep counting exactly, and
///   never lose an acked write.
fn fault_trial_body(
    kind: FaultKind,
    persistent: bool,
    fsync: &'static str,
    dir: &Path,
    seed: u64,
    max_keys: u64,
) -> Result<TrialStats, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create trial dir: {e}"))?;
    let plan = if persistent {
        // Let the healthy prefix land first (for write faults, past the
        // first acked checkpoint) so "no acked write lost" has teeth.
        let from = match kind {
            FaultKind::Eio | FaultKind::Enospc | FaultKind::ShortWrite => 40,
            FaultKind::FsyncFail => 34,
            FaultKind::TornRename => 2,
        };
        FaultPlan::new(seed).fail_from(kind, from)
    } else {
        // Isolated single-op failures, spaced so a rollback write after
        // one never lands on the next trigger.
        FaultPlan::new(seed)
            .fail_once(kind, 2)
            .fail_once(kind, 9)
            .fail_once(kind, 23)
    };
    let fault = Arc::new(FaultVfs::over_real(plan));
    let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
    let opts = DurabilityOptions::new(dir)
        .fsync(parse_fsync(fsync))
        .vfs(vfs)
        .policy(StoragePolicy {
            retries: 3,
            retry_backoff: Duration::ZERO,
        })
        .scrub_interval(None);
    let (mut rt, _reports) = ConcurrentASketch::spawn_durable(faults_config(), &opts, kernel)
        .map_err(|e| format!("spawn_durable: {e}"))?;
    let mut acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("acks.log"))
        .map_err(|e| format!("open ack file: {e}"))?;
    let mut inserted = 0u64;
    let mut acked = 0u64;
    let mut failure: Option<DurabilityError> = None;
    let deadline = Instant::now() + FAULT_DEADLINE;
    loop {
        for _ in 0..FAULT_CKPT {
            rt.insert(key_at(inserted));
            inserted += 1;
        }
        match rt.wal_checkpoint() {
            Ok(n) => {
                if n != inserted {
                    return Err(format!("checkpoint covered {n} of {inserted} inserts"));
                }
                acked = n;
                writeln!(acks, "{n}").map_err(|e| format!("append ack: {e}"))?;
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
        // Transient plans are done once every scripted fault has fired;
        // persistent plans run until the fault surfaces at a barrier
        // (snapshotter faults are promoted lazily). Past `max_keys` we
        // keep ingesting small chunks so worker checkpoints keep driving
        // the snapshotter toward the scripted rename/sync ops.
        if !persistent && fault.injected() >= 3 {
            break;
        }
        if inserted >= max_keys {
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let mut error_class = String::new();
    if persistent {
        let e = failure.as_ref().ok_or_else(|| {
            format!(
                "persistent {} fault never engaged degraded mode \
                 ({} injected, {inserted} keys)",
                kind.name(),
                fault.injected()
            )
        })?;
        let want = expected_class(kind);
        if e.class() != want {
            return Err(format!(
                "degraded with class {:?}, expected {want:?} ({e})",
                e.class()
            ));
        }
        error_class = e.class().name().to_string();
        // Disk-sick degraded mode: persistence is off, ingest must not be.
        for _ in 0..4 * FAULT_CKPT {
            rt.insert(key_at(inserted));
            inserted += 1;
        }
    } else if let Some(e) = failure {
        return Err(format!(
            "transient {} fault degraded the runtime: {e}",
            kind.name()
        ));
    }
    let injected = fault.injected();
    let (kernels, health) = rt.finish_with_health();
    check_kernels_exact(&kernels, inserted)?;
    let degraded_shards = health.degraded_durability_shards();
    let retries = health.total_storage_retries();
    if persistent {
        if degraded_shards == 0 {
            return Err("checkpoint failed but no shard gauge reports degraded mode".into());
        }
        let gauge_class = health
            .first_durability_error()
            .map(|f| f.class.clone())
            .unwrap_or_default();
        if gauge_class != error_class {
            return Err(format!(
                "health reports fault class {gauge_class:?}, checkpoint error was \
                 {error_class:?} — typed error lost on the way to the gauges"
            ));
        }
    } else {
        if health.any_durability_degraded() || degraded_shards > 0 {
            return Err("transient fault left a shard in degraded mode".into());
        }
        if injected == 0 {
            return Err(format!(
                "transient {} plan never fired within {inserted} keys — \
                 the fault path went unexercised",
                kind.name()
            ));
        }
        if retries == 0 {
            return Err(format!(
                "{injected} transient fault(s) injected but no retry was counted"
            ));
        }
    }
    // Recover from the surviving on-disk state with a clean backend.
    let (durable, _summary) = verify_trial(dir, inserted)?;
    if !persistent && durable < inserted {
        return Err(format!(
            "transient trial: only {durable} of {inserted} keys durable after a \
             clean finish"
        ));
    }
    Ok(TrialStats {
        keys: inserted,
        acked,
        durable,
        injected,
        retries,
        degraded_shards,
        error_class,
        ..TrialStats::default()
    })
}

/// One live bit-rot trial: ingest until every shard has published a
/// snapshot, flip a byte in the newest snapshot of each shard, and
/// assert `scrub_now` detects and quarantines **all** of them without
/// degrading the runtime — then finish, re-scrub offline (must be
/// clean), and recover exactly.
fn bitrot_trial_body(fsync: &'static str, dir: &Path, max_keys: u64) -> Result<TrialStats, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create trial dir: {e}"))?;
    let opts = DurabilityOptions::new(dir)
        .fsync(parse_fsync(fsync))
        .scrub_interval(None);
    let (mut rt, _reports) = ConcurrentASketch::spawn_durable(faults_config(), &opts, kernel)
        .map_err(|e| format!("spawn_durable: {e}"))?;
    let mut acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("acks.log"))
        .map_err(|e| format!("open ack file: {e}"))?;
    let mut inserted = 0u64;
    let mut acked;
    let deadline = Instant::now() + FAULT_DEADLINE;
    loop {
        for _ in 0..FAULT_CKPT {
            rt.insert(key_at(inserted));
            inserted += 1;
        }
        acked = rt
            .wal_checkpoint()
            .map_err(|e| format!("wal_checkpoint: {e}"))?;
        writeln!(acks, "{acked}").map_err(|e| format!("append ack: {e}"))?;
        let health = rt.health();
        if health.shards.iter().all(|g| g.snapshot_seq > 0) {
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "no snapshot published on every shard within {inserted} keys"
            ));
        }
        if inserted >= max_keys {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Flip one mid-file byte in the newest snapshot of every shard.
    let mut rot_injected = 0u64;
    for shard in 0..SHARDS {
        let shard_dir = opts.shard_dir(shard);
        let newest = std::fs::read_dir(&shard_dir)
            .map_err(|e| format!("read shard dir: {e}"))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".bin"))
            })
            .max();
        let path = newest
            .ok_or_else(|| format!("shard {shard}: snapshot_seq > 0 but no snapshot file"))?;
        let mut bytes = std::fs::read(&path).map_err(|e| format!("read snapshot: {e}"))?;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).map_err(|e| format!("write rot: {e}"))?;
        rot_injected += 1;
    }
    let reports = rt.scrub_now();
    let rot_detected: u64 = reports.iter().map(|r| r.corrupt_found()).sum();
    let quarantined: u64 = reports.iter().map(|r| r.quarantined.len() as u64).sum();
    if rot_detected != rot_injected {
        return Err(format!(
            "scrubber detected {rot_detected} of {rot_injected} injected bit-rot \
             corruptions — detection must be 100%"
        ));
    }
    if quarantined != rot_injected {
        return Err(format!(
            "scrubber quarantined {quarantined} of {rot_injected} corrupt snapshots"
        ));
    }
    let health = rt.health();
    if health.any_durability_degraded() {
        return Err("bit-rot wrongly engaged disk-sick degraded mode".into());
    }
    if health.total_quarantined() != rot_injected {
        return Err(format!(
            "quarantine gauge reads {} after {rot_injected} quarantines",
            health.total_quarantined()
        ));
    }
    // Keep ingesting so fresh snapshots replace the quarantined ones.
    for _ in 0..4 {
        for _ in 0..FAULT_CKPT {
            rt.insert(key_at(inserted));
            inserted += 1;
        }
        acked = rt
            .wal_checkpoint()
            .map_err(|e| format!("wal_checkpoint after scrub: {e}"))?;
        writeln!(acks, "{acked}").map_err(|e| format!("append ack: {e}"))?;
    }
    let (kernels, health) = rt.finish_with_health();
    check_kernels_exact(&kernels, inserted)?;
    let retries = health.total_storage_retries();
    // A quiesced offline re-scrub must find nothing: the rot was
    // quarantined and the final snapshots are fresh.
    let real = storage_vfs::real();
    for shard in 0..SHARDS {
        let report = scrub_shard_dir(&real, &opts.shard_dir(shard), None)
            .map_err(|e| format!("offline scrub: {e}"))?;
        if report.corrupt_found() != 0 {
            return Err(format!(
                "offline re-scrub still finds {} corrupt artifact(s) on shard {shard}",
                report.corrupt_found()
            ));
        }
    }
    let (durable, _summary) = verify_trial(dir, inserted)?;
    if durable < inserted {
        return Err(format!(
            "bit-rot trial: only {durable} of {inserted} keys durable after a \
             clean finish with a quarantined snapshot"
        ));
    }
    Ok(TrialStats {
        keys: inserted,
        acked,
        durable,
        retries,
        rot_injected,
        rot_detected,
        quarantined,
        ..TrialStats::default()
    })
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn write_faults_json(
    path: &Path,
    rows: &[FaultRow],
    max_keys: u64,
    seed: u64,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"bench\": \"storage-faults\",");
    let _ = writeln!(out, "  \"commit\": \"{}\",", git_commit());
    let _ = writeln!(
        out,
        "  \"config\": {{\"shards\": {SHARDS}, \"distinct\": {DISTINCT}, \
         \"ckpt_every\": {FAULT_CKPT}, \"max_keys\": {max_keys}, \"seed\": {seed}, \
         \"retries\": 3}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"kind\": \"{}\", \"mode\": \"{}\", \"fsync\": \"{}\", \
             \"keys\": {}, \"acked\": {}, \"durable\": {}, \"injected\": {}, \
             \"retries\": {}, \"degraded_shards\": {}, \"error_class\": \"{}\", \
             \"rot_injected\": {}, \"rot_detected\": {}, \"quarantined\": {}, \
             \"panicked\": {}, \"passed\": {}, \"detail\": \"{}\"}}{}",
            r.kind,
            r.mode,
            r.fsync,
            r.keys,
            r.acked,
            r.durable,
            r.injected,
            r.retries,
            r.degraded_shards,
            json_escape(&r.error_class),
            r.rot_injected,
            r.rot_detected,
            r.quarantined,
            r.panicked,
            r.passed,
            json_escape(&r.detail),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Turn a trial closure's outcome into a row, catching panics — an
/// escaped panic is itself a violation the sweep must record.
fn run_one_trial(
    kind: String,
    mode: &'static str,
    fsync: &'static str,
    body: impl FnOnce() -> Result<TrialStats, String>,
) -> FaultRow {
    let (stats, panicked, passed, detail) = match std::panic::catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(stats)) => (stats, false, true, String::new()),
        Ok(Err(e)) => (TrialStats::default(), false, false, e),
        Err(payload) => (TrialStats::default(), true, false, panic_text(payload)),
    };
    FaultRow {
        kind,
        mode,
        fsync,
        keys: stats.keys,
        acked: stats.acked,
        durable: stats.durable,
        injected: stats.injected,
        retries: stats.retries,
        degraded_shards: stats.degraded_shards,
        error_class: stats.error_class,
        rot_injected: stats.rot_injected,
        rot_detected: stats.rot_detected,
        quarantined: stats.quarantined,
        panicked,
        passed,
        detail,
    }
}

fn run_faults(max_keys: u64, seed: u64, base: &Path, out: &Path) -> ! {
    const FSYNCS: [&str; 3] = ["per-batch", "interval", "off"];
    let mut rows: Vec<FaultRow> = Vec::new();
    let mut failures = 0usize;
    let mut record = |row: FaultRow, dir: &Path| {
        if row.passed {
            println!(
                "fault trial {:<12} {:<10} {:<9} ok ({} keys, acked {}, durable {}, \
                 {} injected, {} retries, {} degraded, {} quarantined)",
                row.kind,
                row.mode,
                row.fsync,
                row.keys,
                row.acked,
                row.durable,
                row.injected,
                row.retries,
                row.degraded_shards,
                row.quarantined
            );
            let _ = std::fs::remove_dir_all(dir);
        } else {
            eprintln!(
                "fault trial {:<12} {:<10} {:<9} FAIL{}: {}",
                row.kind,
                row.mode,
                row.fsync,
                if row.panicked { " (panicked)" } else { "" },
                row.detail
            );
            eprintln!("  state kept in {}", dir.display());
            failures += 1;
        }
        rows.push(row);
    };
    for (i, &kind) in FaultKind::ALL.iter().enumerate() {
        for &persistent in &[false, true] {
            let mode = if persistent {
                "persistent"
            } else {
                "transient"
            };
            for (j, &fsync) in FSYNCS.iter().enumerate() {
                let dir = base.join(format!("fault-{}-{mode}-{fsync}", kind.name()));
                let trial_seed = seed
                    ^ ((i as u64 + 1) << 8)
                    ^ ((persistent as u64) << 16)
                    ^ ((j as u64 + 1) << 24);
                let row = run_one_trial(kind.name().to_string(), mode, fsync, || {
                    fault_trial_body(kind, persistent, fsync, &dir, trial_seed, max_keys)
                });
                record(row, &dir);
            }
        }
    }
    for &fsync in FSYNCS.iter() {
        let dir = base.join(format!("bitrot-{fsync}"));
        let row = run_one_trial("bit-rot".to_string(), "bit-rot", fsync, || {
            bitrot_trial_body(fsync, &dir, max_keys)
        });
        record(row, &dir);
    }
    let total = rows.len();
    if let Err(e) = write_faults_json(out, &rows, max_keys, seed) {
        eprintln!("write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({total} trials)", out.display());
    if failures > 0 {
        eprintln!("{failures}/{total} storage-chaos trials FAILED");
        std::process::exit(1);
    }
    println!("all {total} storage-chaos trials passed");
    std::process::exit(0);
}

/// Pull `"key": value` out of a single result line (the writer emits one
/// object per line, so line-scoped scanning is unambiguous).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Validate a committed `BENCH_faults.json`: every trial passed without
/// a panic, the full kind × mode × fsync grid is covered, transient
/// rows retried without degrading, persistent rows degraded with the
/// kind's expected class, and bit-rot rows show 100% scrub detection.
fn validate_faults(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"schema_version\"",
        "\"bench\": \"storage-faults\"",
        "\"commit\"",
        "\"results\"",
    ] {
        if !text.contains(key) {
            return Err(format!("{path}: missing {key}"));
        }
    }
    let mut seen: Vec<(String, String, String)> = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"kind\"")) {
        let get =
            |k: &str| field(line, k).ok_or_else(|| format!("{path}: row missing \"{k}\": {line}"));
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse::<u64>()
                .map_err(|e| format!("{path}: bad \"{k}\": {e}: {line}"))
        };
        let kind = get("kind")?.to_string();
        let mode = get("mode")?.to_string();
        let fsync = get("fsync")?.to_string();
        if get("panicked")? != "false" {
            return Err(format!(
                "{path}: a panic escaped trial {kind}/{mode}/{fsync}: {}",
                get("detail")?
            ));
        }
        if get("passed")? != "true" {
            return Err(format!(
                "{path}: trial {kind}/{mode}/{fsync} failed: {}",
                get("detail")?
            ));
        }
        let (acked, durable) = (num("acked")?, num("durable")?);
        if durable < acked {
            return Err(format!(
                "{path}: {kind}/{mode}/{fsync}: durable {durable} < acked {acked} — \
                 an acknowledged write was lost"
            ));
        }
        match mode.as_str() {
            "transient" => {
                if num("degraded_shards")? != 0 {
                    return Err(format!("{path}: transient {kind}/{fsync} degraded a shard"));
                }
                if num("injected")? == 0 || num("retries")? == 0 {
                    return Err(format!(
                        "{path}: transient {kind}/{fsync} exercised no fault/retry"
                    ));
                }
            }
            "persistent" => {
                if num("degraded_shards")? == 0 {
                    return Err(format!("{path}: persistent {kind}/{fsync} never degraded"));
                }
                let want = if kind == "enospc" { "no-space" } else { "io" };
                let class = get("error_class")?;
                if class != want {
                    return Err(format!(
                        "{path}: persistent {kind}/{fsync} degraded with class \
                         {class:?}, expected {want:?}"
                    ));
                }
            }
            "bit-rot" => {
                let (rot, detected) = (num("rot_injected")?, num("rot_detected")?);
                if rot == 0 || detected != rot || num("quarantined")? != rot {
                    return Err(format!(
                        "{path}: bit-rot/{fsync}: {detected}/{rot} detected, \
                         {} quarantined — scrub detection must be 100%",
                        num("quarantined")?
                    ));
                }
            }
            other => return Err(format!("{path}: unknown trial mode {other:?}")),
        }
        seen.push((kind, mode, fsync));
    }
    for kind in FaultKind::ALL {
        for mode in ["transient", "persistent"] {
            for fsync in ["per-batch", "interval", "off"] {
                let want = (kind.name().to_string(), mode.to_string(), fsync.to_string());
                if !seen.contains(&want) {
                    return Err(format!(
                        "{path}: sweep missing trial {}/{mode}/{fsync}",
                        kind.name()
                    ));
                }
            }
        }
    }
    for fsync in ["per-batch", "interval", "off"] {
        let want = (
            "bit-rot".to_string(),
            "bit-rot".to_string(),
            fsync.to_string(),
        );
        if !seen.contains(&want) {
            return Err(format!("{path}: sweep missing bit-rot trial at {fsync}"));
        }
    }
    println!(
        "{path}: {} storage-chaos trials validated (full kind x mode x fsync grid)",
        seen.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Network-chaos mode (`--net-chaos` / `--validate-chaos`, DESIGN.md §17).
// ---------------------------------------------------------------------------

/// Batches each net-chaos trial pushes through the proxy.
const NET_BATCHES: u64 = 60;
/// Keys per sequenced batch.
const NET_BATCH: u64 = 64;

/// The four network fault modes a trial grid covers.
const NET_FAULTS: [NetFault; 4] = [
    NetFault::Reset,
    NetFault::Stall,
    NetFault::PartialWrite,
    NetFault::Partition,
];

fn net_fault_name(f: NetFault) -> &'static str {
    match f {
        NetFault::None => "none",
        NetFault::Reset => "reset",
        NetFault::Stall => "stall",
        NetFault::PartialWrite => "partial-write",
        NetFault::Partition => "partition",
    }
}

/// `serve-child` mode: a durable sharded runtime behind the network
/// server, recovering from whatever `dir` already holds. Prints
/// `listening <addr>` then parks forever — the harness ends it with
/// SIGKILL only, so every shutdown this child ever sees is a crash.
fn run_serve_child(dir: &Path, policy: &str) -> ! {
    std::fs::create_dir_all(dir).expect("create trial dir");
    let opts = DurabilityOptions::new(dir).fsync(FsyncPolicy::Interval(8));
    let (rt, _reports) = match ConcurrentASketch::spawn_durable(config(), &opts, kernel) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("serve-child: spawn_durable failed: {e}");
            std::process::exit(3);
        }
    };
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ingest_queue: 64,
        policy: match policy {
            "block" => BackpressurePolicy::Block,
            "shed" => BackpressurePolicy::InlineFallback,
            other => {
                eprintln!("serve-child: unknown policy {other:?}");
                std::process::exit(2);
            }
        },
        // Low enough that bursts exercise OVERLOADED sheds, high enough
        // that the retrying client always gets through.
        admission_high_water: 8,
        ..ServeConfig::default()
    };
    let server = match Server::spawn(cfg, rt) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-child: bind failed: {e}");
            std::process::exit(3);
        }
    };
    println!("listening {}", server.addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Spawn a serve child over `dir` and scrape its bound address.
fn spawn_serve(
    exe: &Path,
    dir: &Path,
    policy: &'static str,
) -> Result<(Child, std::net::SocketAddr), String> {
    let mut child = Command::new(exe)
        .arg("serve-child")
        .arg(dir)
        .arg(policy)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn serve-child: {e}"))?;
    let stdout = child.stdout.take().ok_or("serve-child stdout missing")?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(l)) => {
                if let Some(rest) = l.strip_prefix("listening ") {
                    break rest
                        .trim()
                        .parse::<std::net::SocketAddr>()
                        .map_err(|e| format!("bad listen addr {rest:?}: {e}"))?;
                }
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("serve-child exited before binding".to_string());
            }
        }
    };
    Ok((child, addr))
}

/// One row of `BENCH_chaos.json`.
struct NetRow {
    fault: &'static str,
    policy: &'static str,
    seed: u64,
    keys: u64,
    batches: u64,
    restarts: u64,
    reconnects: u64,
    replays: u64,
    duplicate_acks: u64,
    sheds_retried: u64,
    faulted_conns: u64,
    exact: bool,
    panicked: bool,
    passed: bool,
    detail: String,
}

#[derive(Default)]
struct NetTrialStats {
    keys: u64,
    restarts: u64,
    reconnects: u64,
    replays: u64,
    duplicate_acks: u64,
    sheds_retried: u64,
    faulted_conns: u64,
    exact: bool,
}

/// Offline recovery check: dedup-recover every shard directory and
/// compare against the exact oracle counts of everything the client
/// acked. The final `SYNC` barrier fsynced the WALs, so equality — not
/// just `>=` — must hold even though the server died by SIGKILL.
fn verify_net_offline(dir: &Path, oracle: &[i64]) -> Result<(), String> {
    let part = KeyPartition::new(SHARDS);
    let opts = DurabilityOptions::new(dir);
    for shard in 0..SHARDS {
        let shard_dir = opts.shard_dir(shard);
        let (exact, _report) = recover_kernel(&shard_dir, true, || kernel(shard))
            .map_err(|e| format!("shard {shard}: dedup recovery failed: {e}"))?;
        for k in 0..DISTINCT {
            if part.shard_of(k) != shard {
                continue;
            }
            let est = exact.estimate(k);
            if est != oracle[k as usize] {
                return Err(format!(
                    "shard {shard} key {k}: offline recovery estimate {est} != oracle \
                     {} — acked writes were lost or duplicated on disk",
                    oracle[k as usize]
                ));
            }
        }
    }
    Ok(())
}

/// One network-chaos trial: drive sequenced batches from a
/// [`ResilientClient`] through a seeded [`ChaosProxy`] into a durable
/// serve child, SIGKILL + restart the server mid-stream (repointing the
/// proxy like a VIP), finish with a `SYNC` barrier, then assert the live
/// estimates and the offline-recovered state both equal the exact
/// oracle — zero acked writes lost, zero duplicates.
fn net_trial_body(
    fault: NetFault,
    policy: &'static str,
    trial_seed: u64,
    dir: &Path,
    exe: &Path,
) -> Result<NetTrialStats, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut server, addr) = spawn_serve(exe, dir, policy)?;
    let chaos_cfg = ChaosConfig {
        seed: trial_seed,
        fault,
        fault_rate: 128,
        budget_max: 16 * 1024,
        stall: Duration::from_millis(500),
    };
    let proxy = ChaosProxy::start("127.0.0.1:0", addr, chaos_cfg)
        .map_err(|e| format!("start proxy: {e}"))?;
    let retry = RetryPolicy {
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        op_deadline: Duration::from_secs(60),
        // Shorter than the proxy's stall window so blackholed
        // connections surface as timeouts, not hangs.
        read_timeout: Duration::from_millis(250),
        max_reconnects: 100_000,
        retry_sheds: true,
        jitter_seed: trial_seed,
    };
    let mut client = ResilientClient::new(proxy.addr().to_string(), trial_seed | 1, retry);
    let mut oracle = vec![0i64; DISTINCT as usize];
    let mut sent = 0u64;
    let mut restarts = 0u64;
    let result: Result<(), String> = (|| {
        for batch_n in 0..NET_BATCHES {
            let keys: Vec<u64> = (0..NET_BATCH)
                .map(|_| {
                    let k = key_at(sent);
                    sent += 1;
                    k
                })
                .collect();
            client
                .update_batch(&keys)
                .map_err(|e| format!("batch {batch_n}: {e}"))?;
            // The ack is the contract: once update_batch returns Ok the
            // keys count toward the oracle, whatever happens next.
            for &k in &keys {
                oracle[k as usize] += 1;
            }
            if batch_n + 1 == NET_BATCHES / 2 {
                // Crash the server mid-stream; acked-but-unfsynced
                // batches must survive via client replay + dedup.
                server.kill().map_err(|e| format!("SIGKILL server: {e}"))?;
                let _ = server.wait();
                let (s, new_addr) = spawn_serve(exe, dir, policy)?;
                server = s;
                proxy.retarget(new_addr);
                restarts += 1;
            }
        }
        // Durability + visibility barrier, then the end-to-end check.
        client.sync().map_err(|e| format!("final sync: {e}"))?;
        let all_keys: Vec<u64> = (0..DISTINCT).collect();
        let estimates = client
            .estimate_batch(&all_keys)
            .map_err(|e| format!("final estimates: {e}"))?;
        for k in 0..DISTINCT as usize {
            if estimates[k] != oracle[k] {
                return Err(format!(
                    "key {k}: live estimate {} != oracle {} — \
                     {} lost or duplicated acked updates end-to-end",
                    estimates[k],
                    oracle[k],
                    (estimates[k] - oracle[k]).abs()
                ));
            }
        }
        Ok(())
    })();
    let stats = client.stats();
    let faulted_conns = proxy
        .stats()
        .faulted
        .load(std::sync::atomic::Ordering::Relaxed);
    let _ = server.kill();
    let _ = server.wait();
    result?;
    // The server is dead (SIGKILL); the synced on-disk state must still
    // reproduce the oracle exactly under dedup recovery.
    verify_net_offline(dir, &oracle)?;
    Ok(NetTrialStats {
        keys: sent,
        restarts,
        reconnects: u64::from(stats.reconnects),
        replays: stats.replays,
        duplicate_acks: stats.duplicate_acks,
        sheds_retried: stats.sheds_retried,
        faulted_conns,
        exact: true,
    })
}

fn write_chaos_json(path: &Path, rows: &[NetRow], seed: u64) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"bench\": \"net-chaos\",");
    let _ = writeln!(out, "  \"commit\": \"{}\",", git_commit());
    let _ = writeln!(
        out,
        "  \"config\": {{\"shards\": {SHARDS}, \"distinct\": {DISTINCT}, \
         \"batches\": {NET_BATCHES}, \"batch\": {NET_BATCH}, \"seed\": {seed}, \
         \"fault_rate\": 128, \"restarts_per_trial\": 1}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"fault\": \"{}\", \"policy\": \"{}\", \"seed\": {}, \
             \"keys\": {}, \"batches\": {}, \"restarts\": {}, \"reconnects\": {}, \
             \"replays\": {}, \"duplicate_acks\": {}, \"sheds_retried\": {}, \
             \"faulted_conns\": {}, \"exact\": {}, \"panicked\": {}, \
             \"passed\": {}, \"detail\": \"{}\"}}{}",
            r.fault,
            r.policy,
            r.seed,
            r.keys,
            r.batches,
            r.restarts,
            r.reconnects,
            r.replays,
            r.duplicate_acks,
            r.sheds_retried,
            r.faulted_conns,
            r.exact,
            r.panicked,
            r.passed,
            json_escape(&r.detail),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// The full survivability sweep: every fault kind × both backpressure
/// policies × `seeds_per_cell` seeds, one SIGKILL restart per trial.
fn run_net_chaos(seeds_per_cell: u64, seed: u64, base: &Path, out: &Path) -> ! {
    let exe = std::env::current_exe().expect("current_exe");
    let mut rows: Vec<NetRow> = Vec::new();
    let mut failures = 0usize;
    for &fault in NET_FAULTS.iter() {
        for &policy in &["block", "shed"] {
            for s in 0..seeds_per_cell {
                let trial_seed = seed ^ (s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let name = net_fault_name(fault);
                let dir = base.join(format!("net-{name}-{policy}-{s}"));
                let started = Instant::now();
                let (stats, panicked, passed, detail) =
                    match std::panic::catch_unwind(AssertUnwindSafe(|| {
                        net_trial_body(fault, policy, trial_seed, &dir, &exe)
                    })) {
                        Ok(Ok(stats)) => (stats, false, true, String::new()),
                        Ok(Err(e)) => (NetTrialStats::default(), false, false, e),
                        Err(payload) => {
                            (NetTrialStats::default(), true, false, panic_text(payload))
                        }
                    };
                let row = NetRow {
                    fault: name,
                    policy,
                    seed: trial_seed,
                    keys: stats.keys,
                    batches: NET_BATCHES,
                    restarts: stats.restarts,
                    reconnects: stats.reconnects,
                    replays: stats.replays,
                    duplicate_acks: stats.duplicate_acks,
                    sheds_retried: stats.sheds_retried,
                    faulted_conns: stats.faulted_conns,
                    exact: stats.exact,
                    panicked,
                    passed,
                    detail,
                };
                if row.passed {
                    println!(
                        "net trial {name:<13} {policy:<5} seed {s} ok in {:>5}ms \
                         ({} keys, {} restart(s), {} reconnect(s), {} replay(s), \
                         {} dup ack(s), {} shed(s), {} faulted conn(s))",
                        started.elapsed().as_millis(),
                        row.keys,
                        row.restarts,
                        row.reconnects,
                        row.replays,
                        row.duplicate_acks,
                        row.sheds_retried,
                        row.faulted_conns
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                } else {
                    eprintln!(
                        "net trial {name:<13} {policy:<5} seed {s} FAIL{}: {}",
                        if row.panicked { " (panicked)" } else { "" },
                        row.detail
                    );
                    eprintln!("  state kept in {}", dir.display());
                    failures += 1;
                }
                rows.push(row);
            }
        }
    }
    let total = rows.len();
    if let Err(e) = write_chaos_json(out, &rows, seed) {
        eprintln!("write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({total} trials)", out.display());
    if failures > 0 {
        eprintln!("{failures}/{total} net-chaos trials FAILED");
        std::process::exit(1);
    }
    println!("all {total} net-chaos trials passed (exactly-once held under every fault)");
    std::process::exit(0);
}

/// Validate a committed `BENCH_chaos.json`: every trial passed with
/// exact end-to-end counts, the fault × policy grid is fully covered,
/// every trial survived a restart and at least one reconnect, and the
/// sweep as a whole exercised replay (otherwise the window logic went
/// untested and "exactly-once" is vacuous).
fn validate_chaos(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"schema_version\"",
        "\"bench\": \"net-chaos\"",
        "\"commit\"",
        "\"results\"",
    ] {
        if !text.contains(key) {
            return Err(format!("{path}: missing {key}"));
        }
    }
    let mut seen: Vec<(String, String)> = Vec::new();
    let mut total_replays = 0u64;
    let mut total_dups = 0u64;
    for line in text.lines().filter(|l| l.contains("\"fault\"")) {
        let get =
            |k: &str| field(line, k).ok_or_else(|| format!("{path}: row missing \"{k}\": {line}"));
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse::<u64>()
                .map_err(|e| format!("{path}: bad \"{k}\": {e}: {line}"))
        };
        let fault = get("fault")?.to_string();
        let policy = get("policy")?.to_string();
        if get("panicked")? != "false" {
            return Err(format!(
                "{path}: a panic escaped trial {fault}/{policy}: {}",
                get("detail")?
            ));
        }
        if get("passed")? != "true" || get("exact")? != "true" {
            return Err(format!(
                "{path}: trial {fault}/{policy} failed: {}",
                get("detail")?
            ));
        }
        if num("restarts")? == 0 {
            return Err(format!(
                "{path}: {fault}/{policy} never crash-restarted the server"
            ));
        }
        if num("reconnects")? == 0 {
            return Err(format!(
                "{path}: {fault}/{policy} never reconnected — the fault path went \
                 unexercised"
            ));
        }
        total_replays += num("replays")?;
        total_dups += num("duplicate_acks")?;
        seen.push((fault, policy));
    }
    if seen.len() < 8 {
        return Err(format!(
            "{path}: only {} trials — the 4-fault x 2-policy grid needs at least 8",
            seen.len()
        ));
    }
    for fault in ["reset", "stall", "partial-write", "partition"] {
        for policy in ["block", "shed"] {
            let want = (fault.to_string(), policy.to_string());
            if !seen.contains(&want) {
                return Err(format!("{path}: sweep missing trial {fault}/{policy}"));
            }
        }
    }
    if total_replays == 0 {
        return Err(format!(
            "{path}: no trial replayed a batch — the replay window went untested"
        ));
    }
    println!(
        "{path}: {} net-chaos trials validated (full fault x policy grid, \
         {total_replays} replays, {total_dups} duplicate acks absorbed)",
        seen.len()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        if args.len() != 3 {
            eprintln!("usage: crash_recovery serve-child <dir> <block|shed>");
            std::process::exit(2);
        }
        let policy: &'static str = match args[2].as_str() {
            "block" => "block",
            "shed" => "shed",
            other => {
                eprintln!("unknown policy: {other}");
                std::process::exit(2);
            }
        };
        run_serve_child(Path::new(&args[1]), policy);
    }
    if args.first().map(String::as_str) == Some("child") {
        if args.len() != 5 {
            eprintln!("usage: crash_recovery child <dir> <fsync> <keys> <ckpt-every>");
            std::process::exit(2);
        }
        let keys: u64 = args[3].parse().expect("keys must be a number");
        // ckpt-every is fixed at compile time; the arg exists so harness
        // and child can never silently disagree on the protocol.
        let ckpt: u64 = args[4].parse().expect("ckpt-every must be a number");
        assert_eq!(ckpt, CKPT_EVERY, "harness/child checkpoint mismatch");
        run_child(Path::new(&args[1]), parse_fsync(&args[2]), keys);
    }
    let mut trials = 25usize;
    let mut keys: Option<u64> = None;
    let mut seed = SEED;
    let mut dir: Option<PathBuf> = None;
    let mut faults = false;
    let mut net_chaos = false;
    let mut net_seeds = 4u64;
    let mut out: Option<PathBuf> = None;
    let mut validate_path: Option<String> = None;
    let mut validate_chaos_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--faults" => faults = true,
            "--net-chaos" => net_chaos = true,
            "--net-seeds" => {
                i += 1;
                net_seeds = args
                    .get(i)
                    .expect("--net-seeds needs a value")
                    .parse()
                    .expect("net-seeds must be a number");
            }
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(args.get(i).expect("--out needs a path")));
            }
            "--validate-faults" => {
                i += 1;
                validate_path = Some(args.get(i).expect("--validate-faults needs a path").clone());
            }
            "--validate-chaos" => {
                i += 1;
                validate_chaos_path =
                    Some(args.get(i).expect("--validate-chaos needs a path").clone());
            }
            "--trials" => {
                i += 1;
                trials = args
                    .get(i)
                    .expect("--trials needs a value")
                    .parse()
                    .expect("trials must be a number");
            }
            "--keys" => {
                i += 1;
                keys = Some(
                    args.get(i)
                        .expect("--keys needs a value")
                        .parse()
                        .expect("keys must be a number"),
                );
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be a number");
            }
            "--dir" => {
                i += 1;
                dir = Some(PathBuf::from(args.get(i).expect("--dir needs a path")));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: crash_recovery [--trials N] [--keys N] [--seed S] [--dir PATH]\n\
                     \x20      crash_recovery --faults [--keys N] [--seed S] [--dir PATH] \
                     [--out BENCH_faults.json]\n\
                     \x20      crash_recovery --net-chaos [--net-seeds N] [--seed S] \
                     [--dir PATH] [--out BENCH_chaos.json]\n\
                     \x20      crash_recovery --validate-faults BENCH_faults.json\n\
                     \x20      crash_recovery --validate-chaos BENCH_chaos.json"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(path) = validate_path {
        if let Err(e) = validate_faults(&path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    if let Some(path) = validate_chaos_path {
        if let Err(e) = validate_chaos(&path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    let base = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("asketch-crash-{}", std::process::id()))
    });
    if net_chaos {
        let out = out.unwrap_or_else(|| PathBuf::from("BENCH_chaos.json"));
        run_net_chaos(net_seeds, seed, &base, &out);
    }
    if faults {
        let out = out.unwrap_or_else(|| PathBuf::from("BENCH_faults.json"));
        run_faults(keys.unwrap_or(65_536), seed, &base, &out);
    }
    run_harness(trials, keys.unwrap_or(400_000), seed, &base);
}
