//! Concurrent sharded ASketch runtime: key-partitioned worker threads with
//! wait-free point queries served *during* ingest.
//!
//! # Architecture
//!
//! [`ConcurrentASketch`] owns N long-lived worker threads. Each worker owns
//! a full sequential `ASketch` kernel for one **key partition**
//! ([`KeyPartition`]): every key hashes to exactly one shard, so per-key
//! semantics are *exactly* those of the sequential algorithm run over that
//! key's sub-stream — not a sum of per-kernel over-estimates like the SPMD
//! combine. The caller routes keys through a [`KeyRouter`], accumulating
//! per-shard batches (the PR-2 `update_batch` hot path) before sending them
//! over the same supervised link as the pipelines ([`crate::supervisor`]):
//! journaled sequence numbers, worker checkpoints, bounded restarts with
//! exponential backoff, and a degraded inline mode once the restart budget
//! is spent. No failure mode loses or double-counts an update: a restore
//! replays the journal on top of the last checkpoint.
//!
//! # Wait-free concurrent reads
//!
//! The headline property: point queries are served **concurrently with
//! ingest**, and readers never take a lock and never block a writer.
//! Each shard exposes a [`ShardSnapshot`]:
//!
//! * an exact filter snapshot behind a double-buffered seqlock
//!   ([`FilterSnapshot`]) — filter hits answer the key's `new_count`,
//!   matching the sequential filter-hit answer at the publish instant;
//! * a lock-free sketch replica ([`sketches::SharedView`]) for keys outside
//!   the filter.
//!
//! Workers republish the filter every [`ConcurrentConfig::publish_interval`]
//! applied keys and the sketch view every
//! [`ConcurrentConfig::view_interval`] applied keys (and always at sync /
//! shutdown). [`QueryHandle`]s are `Clone + Send + Sync` and can be handed
//! to any number of reader threads.
//!
//! # Staleness bound (in ops)
//!
//! A reader's answer for key `k` reflects the owning worker's state at the
//! last publish, which lags the *routed* stream by at most
//!
//! ```text
//! publish_interval                     (filter-resident keys)
//! view_interval                        (sketch-resident keys)
//!   + queue_capacity * batch           (batches queued, not yet applied)
//!   + batch - 1                        (keys buffered in the router)
//! ```
//!
//! ops for that shard. On insert-only streams every published count is
//! monotone non-decreasing and never exceeds the quiesced true estimate, so
//! staleness is one-sided: a concurrent read never over-reports a key
//! beyond what the sequential ASketch would answer at quiesce. After
//! [`ConcurrentASketch::sync`] returns, reads are exact (equal to the
//! sequential algorithm over the routed prefix).
//!
//! # Single-writer enforcement across fail-over
//!
//! [`FilterSnapshot`] (and the shared sketch view) tolerate exactly one
//! publisher at a time, but fail-over can *abandon* a wedged worker that
//! is still alive: it keeps draining its buffered channel and publishing,
//! while a replacement is spawned into the same snapshot. To keep the
//! single-writer invariant under that race, every publish goes through a
//! **writer-generation gate** on the snapshot: publishers hold a
//! writer-side mutex for the duration of a publish and compare their
//! generation against the snapshot's; fail-over bumps the generation
//! (waiting out any in-flight publish — the critical section is a bounded
//! memory copy, never user estimator code) before the replacement starts,
//! so a stale writer's later publishes are dropped. Readers never touch
//! the gate — the read path stays wait-free.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::channel::{self, Receiver, Sender};

use asketch::{ASketch, DurabilityError, DurabilityOptions, Filter, FilterItem, RecoveryReport};
use asketch_durable::snapshot::{prune_snapshots_with, write_snapshot_sessions_with, SnapshotMeta};
use asketch_durable::vfs::Vfs;
use asketch_durable::wal::{list_segments_with, sync_segment_with};
use asketch_durable::{
    recover_kernel_with, scrub_shard_dir, FsyncPolicy, ScrubReport, StoragePolicy, WalWriter,
};
use eval_metrics::{ShardGauge, ShardedHealth, StorageFault};
use sketches::persist::Persist;
use sketches::traits::{FrequencyEstimator, Tuple, UpdateEstimate};
use sketches::SharedView;

use crate::affinity;
use crate::router::KeyRouter;
use crate::seqlock::FilterSnapshot;
use crate::session::{SessionOutcome, SessionTable};
use crate::spmd::KeyPartition;
use crate::supervisor::{
    join_by, CheckpointClock, FromWorker, Supervised, SupervisionConfig, Worker, WorkerOp,
};

/// Tunables for the concurrent sharded runtime.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Number of worker shards (key partitions).
    pub shards: usize,
    /// Keys accumulated per shard before a batch message is sent.
    pub batch: usize,
    /// Applied keys between filter snapshot publishes on a worker.
    pub publish_interval: u64,
    /// Applied keys between sketch view publishes on a worker (a view
    /// publish copies the whole counter table, so it runs coarser than the
    /// 32-item filter publish).
    pub view_interval: u64,
    /// Pin each shard worker to core `shard % cores` and herd background
    /// threads (snapshotter, scrubber, WAL syncer) onto the last core.
    /// Best-effort (see [`crate::affinity`]); off by default so CI
    /// containers with masked cpusets behave identically.
    pub pin_workers: bool,
    /// Most sessions tracked by the exactly-once ingest table (both the
    /// in-memory [`SessionTable`] and each shard's persisted mark map);
    /// past the cap the least-recently-touched session is evicted and its
    /// unacked retries degrade to at-least-once (see [`crate::session`]).
    pub session_cap: usize,
    /// Channel, journal, backpressure, restart, and timeout parameters,
    /// shared with the pipeline runtime.
    pub supervision: SupervisionConfig,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            batch: 256,
            publish_interval: 1024,
            view_interval: 8192,
            pin_workers: false,
            session_cap: 1024,
            supervision: SupervisionConfig::default(),
        }
    }
}

/// The reader-visible face of one shard: seqlock-published exact filter
/// snapshot plus the lock-free sketch view, with publish epochs.
pub struct ShardSnapshot<S: SharedView> {
    filter: FilterSnapshot,
    view: S::View,
    view_epoch: AtomicU64,
    /// Writer-generation gate (see the module docs): the current writer's
    /// generation, held for the duration of every publish so fail-over can
    /// retire an abandoned-but-alive worker without racing its replacement.
    /// Readers never touch this.
    writer_gen: Mutex<u64>,
}

impl<S: SharedView> ShardSnapshot<S> {
    /// Wait-free point query against the last published state: filter hit
    /// answers exactly, otherwise the sketch view answers one-sidedly.
    pub fn query(&self, key: u64) -> i64 {
        match self.filter.query(key) {
            Some(count) => count,
            None => S::view_estimate(&self.view, key),
        }
    }

    /// Wait-free point queries for a **group** of keys owned by this
    /// shard, paying one seqlock-stable filter read for the whole group
    /// instead of one per key. `scratch` is the caller's reusable table
    /// buffer; each `(slot, key)` pair writes its answer to `out[slot]`,
    /// so callers that grouped a batch by shard get order preservation
    /// for free.
    ///
    /// All keys in one group are answered against the *same* published
    /// filter state (a per-key loop could straddle a publish); like
    /// [`query`](Self::query), filter hits are exact at that publish and
    /// sketch-view misses are one-sided.
    pub fn query_group(
        &self,
        group: &[(usize, u64)],
        scratch: &mut Vec<FilterItem>,
        out: &mut [i64],
    ) {
        self.filter.read_table(scratch);
        for &(slot, key) in group {
            let hit = scratch
                .iter()
                .find(|item| item.key == key)
                .map(|item| item.new_count);
            out[slot] = match hit {
                Some(count) => count,
                None => S::view_estimate(&self.view, key),
            };
        }
    }

    /// Wait-free snapshot of this shard's published filter items (its
    /// heavy hitters), read in one seqlock-stable session into `out`.
    /// Returns the publish epoch.
    pub fn filter_items(&self, out: &mut Vec<FilterItem>) -> u64 {
        self.filter.read_table(out)
    }

    /// Applied-op count at the last filter publish (staleness clock).
    pub fn filter_epoch(&self) -> u64 {
        self.filter.epoch()
    }

    /// Applied-op count at the last sketch view publish.
    pub fn view_epoch(&self) -> u64 {
        self.view_epoch.load(Ordering::Acquire)
    }

    /// Seqlock reader retries on this shard (0 in steady state; a retry is
    /// not a block — the reader re-reads immediately).
    pub fn reader_retries(&self) -> u64 {
        self.filter.retries()
    }

    /// Claim the publish gate iff `gen` is still the current writer
    /// generation; a stale writer (abandoned by fail-over) gets `None` and
    /// must drop its publish. Holding the guard serializes publishers.
    fn begin_publish(&self, gen: u64) -> Option<MutexGuard<'_, u64>> {
        let guard = self
            .writer_gen
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (*guard == gen).then_some(guard)
    }

    /// Retire the current writer: wait out any in-flight publish, bump the
    /// generation so the old writer's future publishes no-op, and return
    /// the generation the replacement must publish under.
    fn retire_writer(&self) -> u64 {
        let mut guard = self
            .writer_gen
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *guard += 1;
        *guard
    }
}

/// Publish the kernel's filter into the snapshot, stamped with the
/// kernel's applied-op count. Dropped if `gen` is no longer the
/// snapshot's writer generation.
fn publish_filter<F: Filter, S: SharedView + UpdateEstimate>(
    kernel: &ASketch<F, S>,
    snap: &ShardSnapshot<S>,
    buf: &mut Vec<FilterItem>,
    gen: u64,
) {
    kernel.snapshot_filter_into(buf);
    let Some(_writer) = snap.begin_publish(gen) else {
        return;
    };
    snap.filter.publish(buf, kernel.ops_applied());
}

/// Publish the kernel's sketch into the snapshot's shared view. Dropped if
/// `gen` is no longer the snapshot's writer generation.
fn publish_view<F: Filter, S: SharedView + UpdateEstimate>(
    kernel: &ASketch<F, S>,
    snap: &ShardSnapshot<S>,
    gen: u64,
) {
    let Some(_writer) = snap.begin_publish(gen) else {
        return;
    };
    kernel.sketch().store_view(&snap.view);
    snap.view_epoch
        .store(kernel.ops_applied(), Ordering::Release);
}

/// Messages from the router to a shard worker. Shutdown is the channel
/// disconnecting, so a dead worker shows up as `Disconnected` on any send.
enum ToShard {
    /// One batch of keys owned by this shard, under one journal sequence.
    Batch { seq: u64, keys: Vec<u64> },
    /// Publish everything and reply with the applied-op count (barrier).
    Sync { reply: Sender<u64> },
}

/// Convert a typed durability error into the health-gauge form: the
/// stable class name for programmatic branching plus the display detail.
fn storage_fault(e: &DurabilityError) -> StorageFault {
    StorageFault {
        class: e.class().name().to_string(),
        detail: e.to_string(),
    }
}

/// Run `op` under the storage policy: transient (retryable-class) faults
/// sleep the exponential backoff and retry up to `policy.retries` times,
/// counting each retry into `retries`; a persistent or non-retryable
/// fault is returned for the caller to degrade on.
fn with_storage_retries<T>(
    policy: &StoragePolicy,
    retries: &AtomicU64,
    mut op: impl FnMut() -> Result<T, DurabilityError>,
) -> Result<T, DurabilityError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt < policy.retries => {
                attempt += 1;
                retries.fetch_add(1, Ordering::Relaxed);
                let backoff = policy.backoff_for(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Scrubber state shared between one shard's caller-side durability
/// state, the background scrubber thread, and the snapshotter.
#[derive(Default)]
struct ScrubShared {
    /// Completed scrub passes over this shard's directory.
    passes: AtomicU64,
    /// Corrupt artifacts found (snapshots + sealed WAL segments).
    corrupt_found: AtomicU64,
    /// Snapshots renamed to `.corrupt`.
    quarantined: AtomicU64,
    /// Set when a quarantine removed a snapshot from the recovery set:
    /// the next checkpoint must produce a fresh snapshot, and WAL pruning
    /// is suspended until it lands (the WAL is the only full copy).
    snap_needed: AtomicBool,
}

impl ScrubShared {
    /// Fold one finished scrub pass into the shared counters.
    fn absorb(&self, report: &ScrubReport) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.corrupt_found
            .fetch_add(report.corrupt_found(), Ordering::Relaxed);
        self.quarantined
            .fetch_add(report.quarantined.len() as u64, Ordering::Relaxed);
        if report.wants_fresh_snapshot() {
            self.snap_needed.store(true, Ordering::Release);
        }
    }
}

/// One scrub pass over a shard directory from the background thread: the
/// active WAL segment (highest base sequence) is skipped — only the live
/// writer knows its true tail, and sealed segments are the ones whose
/// damage is real. Directory-level failures are swallowed: scrubbing is
/// advisory and must never take the runtime down.
fn scrub_pass(vfs: &Arc<dyn Vfs>, dir: &Path, shared: &ScrubShared) {
    let active = list_segments_with(vfs, dir)
        .ok()
        .and_then(|segs| segs.last().map(|(_, p)| p.clone()));
    if let Ok(report) = scrub_shard_dir(vfs, dir, active.as_deref()) {
        shared.absorb(&report);
    }
}

/// One background snapshot: a kernel clone to serialize, checksum, and
/// rotate, entirely off the ingest path.
struct SnapshotJob<K> {
    dir: PathBuf,
    meta: SnapshotMeta,
    kernel: K,
    /// Session high-water marks as of `meta.wal_seq` (never the live
    /// table — marks durable only *past* the gate would dedup replayed
    /// retries against records a torn tail lost).
    sessions: Vec<(u64, u64)>,
    keep: usize,
    busy: Arc<AtomicBool>,
    snapped_seq: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    vfs: Arc<dyn Vfs>,
    policy: StoragePolicy,
    retries: Arc<AtomicU64>,
    /// First persistent snapshot-write failure, promoted to shard
    /// degradation by the caller thread on its next durable operation.
    fatal: Arc<Mutex<Option<DurabilityError>>>,
    scrub: Arc<ScrubShared>,
}

/// One deferred WAL fsync for the background syncer thread: the segment
/// to make durable plus the owning shard's retry/fatal plumbing. Sent
/// when the writer defers an [`FsyncPolicy::Interval`] sync off the
/// ingest path (`fdatasync` flushes the inode's dirty pages regardless
/// of which descriptor wrote them, so the syncer uses its own handle).
struct SyncJob {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    policy: StoragePolicy,
    retries: Arc<AtomicU64>,
    /// First persistent background-fsync failure, promoted to shard
    /// degradation by the caller thread on its next durable operation.
    fatal: Arc<Mutex<Option<DurabilityError>>>,
}

/// Execute one deferred fsync under the storage policy; a persistent
/// failure parks the typed error for the owning shard to degrade on.
fn run_sync_job(job: &SyncJob) {
    let synced = with_storage_retries(&job.policy, &job.retries, || {
        sync_segment_with(&job.vfs, &job.path)
    });
    if let Err(e) = synced {
        job.fatal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(e);
    }
}

/// Monomorphized snapshot writer (`write_snapshot_sessions_with`), kept
/// as a plain fn pointer so the non-`Persist`-bounded `finish` path can
/// still write the final snapshot.
type SnapshotWriteFn<K> =
    fn(&Arc<dyn Vfs>, &Path, SnapshotMeta, &K, &[(u64, u64)]) -> Result<PathBuf, DurabilityError>;

/// Per-shard durability state: the WAL appender on the caller's ship path
/// plus the handles feeding the shared background snapshotter thread.
///
/// The WAL sequence space is `wal_base + journal_seq`, so sequence numbers
/// stay strictly monotone *across restarts*: `wal_base` is the highest
/// sequence recovered from disk at spawn, and the in-session journal
/// counts from 1.
struct DurableShard<K> {
    shard_idx: usize,
    dir: PathBuf,
    wal: WalWriter,
    wal_base: u64,
    keep: usize,
    /// Job sender feeding the shared snapshotter thread. `None` once
    /// [`close_snapshots`](Self::close_snapshots) ran at shutdown: the
    /// snapshotter exits when every shard's sender has dropped, and
    /// `finish` joins it **before** writing final snapshots so no
    /// background job can race the final write on the same directory.
    snap_tx: Option<Sender<SnapshotJob<K>>>,
    /// Set while a snapshot job for this shard is in flight; checkpoints
    /// arriving meanwhile skip their snapshot (the WAL covers the gap), so
    /// the ingest path pays at most one extra kernel clone per completed
    /// snapshot write.
    busy: Arc<AtomicBool>,
    /// WAL-space sequence covered by the last *completed* snapshot; the
    /// caller prunes covered WAL segments when this advances.
    snapped_seq: Arc<AtomicU64>,
    snap_errors: Arc<AtomicU64>,
    /// `snapped_seq` value at the last prune, to prune only on change.
    pruned_seq: u64,
    /// Writes the shard's snapshots (see [`SnapshotWriteFn`]).
    write: SnapshotWriteFn<K>,
    /// Whether spawn restored state from disk (snapshot or WAL).
    recovered: bool,
    /// Keys replayed from the WAL at spawn.
    replayed_keys: u64,
    /// Records appended this session.
    wal_records: u64,
    /// Storage backend (the real filesystem, or a fault-injecting one).
    vfs: Arc<dyn Vfs>,
    /// Retry/degrade policy for storage faults.
    policy: StoragePolicy,
    /// WAL operations retried after a transient fault.
    wal_retries: AtomicU64,
    /// Job sender feeding the background WAL-syncer thread (deferred
    /// interval fsyncs). `None` for non-deferring configs and after
    /// [`close_snapshots`](Self::close_snapshots) at shutdown.
    sync_tx: Option<Sender<SyncJob>>,
    /// Deferred fsyncs retried on the WAL-syncer thread.
    bg_sync_retries: Arc<AtomicU64>,
    /// Interval fsyncs handed to the background syncer this session.
    deferred_fsyncs: u64,
    /// Snapshot writes retried on the snapshotter thread.
    snap_retries: Arc<AtomicU64>,
    /// First persistent snapshotter failure, promoted to `degraded` here.
    snap_fatal: Arc<Mutex<Option<DurabilityError>>>,
    /// Session annotations appended this session and not yet folded into
    /// a snapshot's mark table: `(wal_seq, session_id, client_seq)` in
    /// WAL order. Drained up to the gate at every scheduled snapshot, so
    /// the queue holds at most one checkpoint interval of batches.
    pending_ann: VecDeque<(u64, u64, u64)>,
    /// Session high-water marks as of the last snapshot gate, carried
    /// across restarts via the snapshot's session section (seeded from
    /// the `RecoveryReport` at spawn — WAL pruning must not lose marks).
    snap_sessions: HashMap<u64, u64>,
    /// Eviction cap for `snap_sessions` (mirrors the in-memory table).
    session_cap: usize,
    /// Scrubber state shared with the background scrub thread.
    scrub: Arc<ScrubShared>,
    /// **Disk-sick degraded mode**: set when a storage fault survived the
    /// retry budget (or was structural). The WAL and snapshotting stop;
    /// ingest continues and stays correct/one-sided; the typed error is
    /// preserved so callers can branch on its class (`ENOSPC` vs
    /// corruption) through health and `wal_checkpoint`.
    degraded: Option<DurabilityError>,
}

impl<K> DurableShard<K> {
    /// Promote a persistent snapshotter-thread failure into disk-sick
    /// degraded mode (checked on every durable operation, so the caller
    /// thread notices within one batch).
    fn check_snapshotter(&mut self) {
        if self.degraded.is_some() {
            return;
        }
        let fatal = self
            .snap_fatal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(e) = fatal {
            self.degraded = Some(e);
        }
    }

    /// Whether the snapshotter has hit a persistent failure that this
    /// shard has not yet promoted to `degraded` (health must not lag the
    /// snapshotter by a batch).
    fn has_pending_fatal(&self) -> bool {
        self.snap_fatal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// The degrading fault in gauge form, if any.
    fn fault_gauge(&self) -> Option<StorageFault> {
        if let Some(e) = &self.degraded {
            return Some(storage_fault(e));
        }
        self.snap_fatal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(storage_fault)
    }

    /// Append one shipped batch to the WAL (journal seq space) and prune
    /// segments behind the last completed background snapshot.
    ///
    /// Storage faults follow the policy: the record write rolls back to
    /// the last committed length and is retried with backoff (same
    /// sequence — replay dedups nothing because nothing was committed);
    /// the fsync and roll phases are idempotent and retried in place. A
    /// fault that survives the budget degrades the shard.
    fn append(&mut self, seq: u64, keys: &[u64], ann: Option<(u64, u64)>) {
        self.check_snapshotter();
        if self.degraded.is_some() {
            return;
        }
        let wal_seq = self.wal_base + seq;
        let result = if self.wal.group_commit_enabled() {
            self.append_grouped(wal_seq, keys, ann)
        } else {
            self.append_immediate(wal_seq, keys, ann)
        };
        if let Err(e) = result {
            self.degraded = Some(e);
            return;
        }
        // The annotation is durable with the record; queue it for the
        // next snapshot's session-mark table.
        if let Some((sid, cseq)) = ann {
            self.pending_ann.push_back((wal_seq, sid, cseq));
        }
        // An interval fsync the writer deferred goes to the background
        // syncer so ingest never waits on writeback. The active segment
        // is the only one that can carry a deferral — rolling fsyncs the
        // old segment inline — and `wal_checkpoint`'s inline `sync()`
        // still covers it, so the ack barrier is unchanged.
        if self.wal.take_deferred_sync() {
            self.deferred_fsyncs += 1;
            if let Some(tx) = &self.sync_tx {
                let _ = tx.send(SyncJob {
                    path: self.wal.active_segment().to_path_buf(),
                    vfs: Arc::clone(&self.vfs),
                    policy: self.policy,
                    retries: Arc::clone(&self.bg_sync_retries),
                    fatal: Arc::clone(&self.snap_fatal),
                });
            }
        }
        self.wal_records += 1;
        // While a quarantine has the WAL as the only full copy, pruning
        // is suspended until a fresh snapshot lands.
        if self.scrub.snap_needed.load(Ordering::Acquire) {
            return;
        }
        let snapped = self.snapped_seq.load(Ordering::Acquire);
        if snapped > self.pruned_seq {
            self.wal.prune_covered(snapped);
            self.pruned_seq = snapped;
        }
    }

    /// The pre-group-commit append path: one write (+ policy fsync) per
    /// record.
    ///
    /// The record phase cannot use the generic retry helper verbatim: a
    /// failed write is rolled back to the committed length before any
    /// retry, and when that rollback *also* failed the writer is
    /// poisoned — retrying would just report the poisoning instead of
    /// the root cause (e.g. ENOSPC), so break out on the original error.
    fn append_immediate(
        &mut self,
        wal_seq: u64,
        keys: &[u64],
        ann: Option<(u64, u64)>,
    ) -> Result<(), DurabilityError> {
        let mut attempt = 0u32;
        loop {
            match self.wal.append_record_annotated(wal_seq, keys, ann) {
                Ok(()) => break,
                Err(e) => {
                    if !e.is_retryable() || self.wal.is_poisoned() || attempt >= self.policy.retries
                    {
                        return Err(e);
                    }
                    attempt += 1;
                    self.wal_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.policy.backoff_for(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
        with_storage_retries(&self.policy, &self.wal_retries, || self.wal.policy_sync())?;
        with_storage_retries(&self.policy, &self.wal_retries, || self.wal.maybe_roll())
    }

    /// The group-commit append path: stage (pure buffering, no I/O),
    /// flush when a group bound is hit, apply the fsync policy per
    /// flushed group, maybe roll. The flush phase mirrors the immediate
    /// path's retry shape — a failed flush rolls back and *keeps* the
    /// staged group so the retry rewrites the identical bytes, but a
    /// failed rollback poisons the writer and must surface the root
    /// cause, not the poisoning.
    fn append_grouped(
        &mut self,
        wal_seq: u64,
        keys: &[u64],
        ann: Option<(u64, u64)>,
    ) -> Result<(), DurabilityError> {
        self.wal.stage_record_annotated(wal_seq, keys, ann)?;
        let mut attempt = 0u32;
        loop {
            match self.wal.flush_due() {
                Ok(()) => break,
                Err(e) => {
                    if !e.is_retryable() || self.wal.is_poisoned() || attempt >= self.policy.retries
                    {
                        return Err(e);
                    }
                    attempt += 1;
                    self.wal_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.policy.backoff_for(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
        with_storage_retries(&self.policy, &self.wal_retries, || {
            self.wal.group_policy_sync()
        })?;
        with_storage_retries(&self.policy, &self.wal_retries, || self.wal.maybe_roll())
    }

    /// Hand a checkpointed kernel to the snapshotter unless one is already
    /// in flight for this shard (the clone is only paid when a job is
    /// actually scheduled).
    fn schedule_snapshot(&mut self, seq: u64, ops: u64, kernel: &K)
    where
        K: Clone,
    {
        self.check_snapshotter();
        if self.snap_tx.is_none() {
            return;
        }
        if self.degraded.is_some() || self.busy.swap(true, Ordering::AcqRel) {
            return;
        }
        let wal_seq = self.wal_base + seq;
        // Fold only once the job is definitely enqueued, and only marks
        // durable at or below the gate: a mark ahead of the snapshot's
        // WAL coverage would dedup retries whose records a crash lost.
        self.fold_sessions_upto(wal_seq);
        let job = SnapshotJob {
            dir: self.dir.clone(),
            meta: SnapshotMeta {
                shard: self.shard_idx as u64,
                wal_seq,
                ops,
            },
            kernel: kernel.clone(),
            sessions: self.sessions_vec(),
            keep: self.keep,
            busy: Arc::clone(&self.busy),
            snapped_seq: Arc::clone(&self.snapped_seq),
            errors: Arc::clone(&self.snap_errors),
            vfs: Arc::clone(&self.vfs),
            policy: self.policy,
            retries: Arc::clone(&self.snap_retries),
            fatal: Arc::clone(&self.snap_fatal),
            scrub: Arc::clone(&self.scrub),
        };
        let sent = self
            .snap_tx
            .as_ref()
            .expect("sender checked above")
            .send(job);
        if sent.is_err() {
            self.busy.store(false, Ordering::Release);
        }
    }

    /// `wal.sync()` under the storage policy's retry budget, with the
    /// append paths' poison handling: the flush inside `sync` rolls a
    /// failed write back, and when that rollback *also* failed the
    /// writer is poisoned — a generic retry would then report the
    /// poisoning instead of the root cause (e.g. a full disk), so break
    /// out on the original error.
    fn sync_with_retries(&mut self) -> Result<(), DurabilityError> {
        let mut attempt = 0u32;
        loop {
            match self.wal.sync() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if !e.is_retryable() || self.wal.is_poisoned() || attempt >= self.policy.retries
                    {
                        return Err(e);
                    }
                    attempt += 1;
                    self.wal_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.policy.backoff_for(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
    }

    /// Max-fold every pending session annotation whose WAL sequence is at
    /// or below `gate` into the persistent mark table, then enforce the
    /// eviction cap (stalest mark — the lowest client seq — goes first).
    fn fold_sessions_upto(&mut self, gate: u64) {
        while let Some(&(wal_seq, sid, cseq)) = self.pending_ann.front() {
            if wal_seq > gate {
                break;
            }
            self.pending_ann.pop_front();
            let hwm = self.snap_sessions.entry(sid).or_insert(0);
            *hwm = (*hwm).max(cseq);
        }
        while self.snap_sessions.len() > self.session_cap {
            let Some((&evict, _)) = self.snap_sessions.iter().min_by_key(|&(_, &c)| c) else {
                break;
            };
            self.snap_sessions.remove(&evict);
        }
    }

    /// The persistent mark table in snapshot-section form (sorted by
    /// session id for deterministic bytes).
    fn sessions_vec(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.snap_sessions.iter().map(|(&s, &c)| (s, c)).collect();
        v.sort_unstable();
        v
    }

    /// Drop this shard's background-job senders (snapshots + deferred
    /// fsyncs). Once every shard has closed, the snapshotter and WAL
    /// syncer drain their queues and exit, making their joins bounded —
    /// shutdown calls this on all shards before joining either thread.
    fn close_snapshots(&mut self) {
        self.snap_tx = None;
        self.sync_tx = None;
    }

    /// Final snapshot + WAL prune on clean shutdown: after this, recovery
    /// needs only the snapshot (the WAL is fully covered). A degraded
    /// shard skips it entirely — its durable prefix on disk is already
    /// the best state it can promise, and writing through a sick disk
    /// could corrupt that.
    fn finalize(&mut self, kernel: &K, ops: u64) {
        self.check_snapshotter();
        if self.degraded.is_some() {
            return;
        }
        let _ = self.wal.sync();
        let meta = SnapshotMeta {
            shard: self.shard_idx as u64,
            wal_seq: self.wal.last_seq(),
            ops,
        };
        // The final snapshot covers the whole WAL, so every pending
        // annotation is at or below its gate.
        self.fold_sessions_upto(u64::MAX);
        let sessions = self.sessions_vec();
        if (self.write)(&self.vfs, &self.dir, meta, kernel, &sessions).is_ok() {
            prune_snapshots_with(&self.vfs, &self.dir, self.keep);
            self.wal.prune_covered(meta.wal_seq);
        } else {
            self.snap_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Sentinel in the shared pinned-core slot meaning "not pinned".
const UNPINNED: usize = usize::MAX;

/// How long the background WAL syncer dwells after a deferred-fsync
/// request before issuing it, coalescing every request (across all
/// shards) that lands in the window into one fsync per segment. Bounds
/// the extra crash-window a deferral can accumulate beyond the interval
/// policy itself.
const WAL_SYNC_DWELL: Duration = Duration::from_millis(10);

/// The shard-worker loop: apply batches through the sequential kernel,
/// publish snapshots on their intervals, checkpoint for the journal, and
/// publish one final time when the channel disconnects.
fn run_shard_worker<F, S>(
    mut kernel: ASketch<F, S>,
    rx: Receiver<ToShard>,
    out: Sender<FromWorker<ASketch<F, S>, Infallible>>,
    snap: Arc<ShardSnapshot<S>>,
    gen: u64,
    cfg: ConcurrentConfig,
    pin: Option<(usize, Arc<AtomicUsize>)>,
) -> ASketch<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    if let Some((core, slot)) = pin {
        if affinity::pin_current_thread(core).is_ok() {
            slot.store(core, Ordering::Release);
        }
    }
    let publish_interval = cfg.publish_interval.max(1);
    let view_interval = cfg.view_interval.max(1);
    let mut clock = CheckpointClock::new(&cfg.supervision);
    let mut items: Vec<FilterItem> = Vec::new();
    let mut tuples: Vec<Tuple> = Vec::with_capacity(cfg.batch);
    let (mut since_pub, mut since_view) = (0u64, 0u64);
    // Fresh (or respawned) worker: make the snapshot reflect this kernel
    // immediately so readers never regress behind a restart.
    publish_filter(&kernel, &snap, &mut items, gen);
    publish_view(&kernel, &snap, gen);
    while let Ok(msg) = rx.recv() {
        match msg {
            ToShard::Batch { seq, keys } => {
                tuples.clear();
                tuples.extend(keys.iter().map(|&k| (k, 1i64)));
                kernel.update_batch(&tuples);
                let n = keys.len() as u64;
                since_pub += n;
                since_view += n;
                if since_pub >= publish_interval {
                    since_pub = 0;
                    publish_filter(&kernel, &snap, &mut items, gen);
                }
                if since_view >= view_interval {
                    since_view = 0;
                    publish_view(&kernel, &snap, gen);
                }
                clock.tick(seq, n, &kernel, &out);
            }
            ToShard::Sync { reply } => {
                publish_filter(&kernel, &snap, &mut items, gen);
                publish_view(&kernel, &snap, gen);
                let _ = reply.send(kernel.ops_applied());
            }
        }
    }
    // Channel disconnected: final publish so handles outlive the runtime
    // (dropped if this worker was abandoned and its generation retired).
    publish_filter(&kernel, &snap, &mut items, gen);
    publish_view(&kernel, &snap, gen);
    kernel
}

/// The core a pinned worker for `shard_idx` targets, `None` when pinning
/// is off.
fn worker_core(cfg: &ConcurrentConfig, shard_idx: usize) -> Option<usize> {
    cfg.pin_workers
        .then(|| shard_idx % affinity::available_cores())
}

/// What one shard adds to its supervised link: the snapshot its worker
/// publishes into, the writer generation it publishes under, and where
/// the worker runs.
struct ShardWorker<S: SharedView> {
    shard_idx: usize,
    snap: Arc<ShardSnapshot<S>>,
    /// The snapshot's current writer generation: held by the live worker
    /// (or the inline kernel once degraded), bumped whenever a restored
    /// kernel takes over.
    writer_gen: u64,
    /// Core the live worker pinned itself to ([`UNPINNED`] when pinning
    /// is off, failed, or the worker hasn't started yet). Written by the
    /// worker thread at startup, read by the gauge.
    pinned: Arc<AtomicUsize>,
    cfg: ConcurrentConfig,
}

impl<S: SharedView + UpdateEstimate> ShardWorker<S> {
    /// Publish `kernel`'s filter and sketch view under this generation.
    fn publish<F: Filter>(&self, kernel: &ASketch<F, S>) {
        let mut items = Vec::new();
        publish_filter(kernel, &self.snap, &mut items, self.writer_gen);
        publish_view(kernel, &self.snap, self.writer_gen);
    }
}

impl<F, S> Worker<ASketch<F, S>> for ShardWorker<S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    type Msg = ToShard;
    type Note = Infallible;

    fn spawn(
        &mut self,
        kernel: ASketch<F, S>,
        rx: Receiver<ToShard>,
        out: Sender<FromWorker<ASketch<F, S>, Infallible>>,
        _cfg: &SupervisionConfig,
    ) -> JoinHandle<ASketch<F, S>> {
        let pin =
            worker_core(&self.cfg, self.shard_idx).map(|core| (core, Arc::clone(&self.pinned)));
        self.pinned.store(UNPINNED, Ordering::Release);
        let snap = Arc::clone(&self.snap);
        let gen = self.writer_gen;
        let cfg = self.cfg.clone();
        std::thread::spawn(move || run_shard_worker(kernel, rx, out, snap, gen, cfg, pin))
    }

    fn ops(msg: &ToShard, mut op: impl FnMut(u64, i64)) {
        if let ToShard::Batch { keys, .. } = msg {
            for &key in keys {
                op(key, 1);
            }
        }
    }

    /// Retire the old writer before anything republishes: an abandoned
    /// worker that is still alive keeps draining its channel and
    /// publishing, and the gate drops those stale publishes instead of
    /// letting them race the replacement (torn pairs, epoch regression).
    /// The restored kernel covers everything routed, so its publish never
    /// moves an epoch backwards; a respawned worker publishes it again on
    /// entry.
    fn restored(&mut self, kernel: &ASketch<F, S>) {
        self.writer_gen = self.snap.retire_writer();
        self.publish(kernel);
    }
}

/// Caller-side state of one shard: its supervised worker link (or the
/// degraded inline kernel), durability state, and routed-key count.
struct ShardState<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    sup: Supervised<ASketch<F, S>, ShardWorker<S>>,
    /// Durability state (WAL + snapshot scheduling); `None` for a
    /// non-durable runtime.
    durable: Option<DurableShard<ASketch<F, S>>>,
    routed: u64,
}

impl<F, S> ShardState<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    fn new(
        shard_idx: usize,
        kernel: ASketch<F, S>,
        cfg: &ConcurrentConfig,
        durable: Option<DurableShard<ASketch<F, S>>>,
    ) -> Self {
        let mut items = Vec::new();
        kernel.snapshot_filter_into(&mut items);
        let snap = Arc::new(ShardSnapshot {
            filter: FilterSnapshot::new(kernel.filter().capacity().max(items.len())),
            view: kernel.sketch().new_view(),
            view_epoch: AtomicU64::new(kernel.ops_applied()),
            writer_gen: Mutex::new(0),
        });
        snap.filter.publish(&items, kernel.ops_applied());
        let worker = ShardWorker {
            shard_idx,
            snap,
            writer_gen: 0,
            pinned: Arc::new(AtomicUsize::new(UNPINNED)),
            cfg: cfg.clone(),
        };
        Self {
            sup: Supervised::spawn(kernel, cfg.supervision.clone(), worker),
            durable,
            routed: 0,
        }
    }

    fn snap(&self) -> &Arc<ShardSnapshot<S>> {
        &self.sup.worker().snap
    }

    /// Harvest queued checkpoints; they prune the replay journal and
    /// (durable runtimes) schedule a background snapshot from the
    /// checkpointed kernel — the snapshot clone rides the checkpoint clone
    /// the worker already paid for, and serialization happens on the
    /// snapshotter thread, never here.
    fn harvest(&mut self) {
        let durable = &mut self.durable;
        self.sup.harvest(|seq, kernel| {
            if let Some(d) = durable.as_mut() {
                d.schedule_snapshot(seq, kernel.ops_applied(), kernel);
            }
        });
    }

    /// Ship one full batch to this shard's worker: WAL and journal first
    /// (so no failure mode can lose it), then send under the backpressure
    /// policy. The WAL record piggybacks on the journal's sequence number
    /// — one durable record per batch, written before the batch can reach
    /// the worker, so the on-disk log is always a prefix-or-equal of what
    /// any worker has applied.
    fn ship(&mut self, keys: Vec<u64>) {
        self.ship_annotated(keys, None);
    }

    /// [`ship`](Self::ship) with an optional exactly-once session
    /// annotation `(session_id, client_seq)` riding the batch's WAL
    /// record: the mark becomes durable atomically with the keys it
    /// covers, so crash replay can never dedup a write it lost (or
    /// re-apply one it kept).
    fn ship_annotated(&mut self, keys: Vec<u64>, ann: Option<(u64, u64)>) {
        self.routed += keys.len() as u64;
        let seq = self.sup.next_seq();
        if let Some(d) = self.durable.as_mut() {
            d.append(seq, &keys, ann);
        }
        if let Some((kernel, worker)) = self.sup.inline_mut() {
            // Degraded: apply inline and republish so readers keep seeing
            // fresh state.
            kernel.insert_batch(&keys);
            worker.publish(kernel);
            return;
        }
        self.harvest();
        self.sup.ship(seq, ToShard::Batch { seq, keys });
    }

    /// Barrier against this shard: every routed batch applied and
    /// published. A degraded shard has already published inline.
    fn sync(&mut self) {
        let synced = self
            .sup
            .round_trip(WorkerOp::Sync, |reply| ToShard::Sync { reply });
        if synced.is_some() {
            self.harvest();
        }
    }

    fn gauge(&self, shard: usize) -> ShardGauge {
        let worker = self.sup.worker();
        let stats = self.sup.stats();
        let pinned = worker.pinned.load(Ordering::Acquire);
        ShardGauge {
            shard,
            queue_depth: self.sup.queue_len(),
            queue_capacity: self.sup.config().queue_capacity,
            routed_ops: self.routed,
            published_epoch: worker.snap.filter_epoch(),
            view_epoch: worker.snap.view_epoch(),
            reader_retries: worker.snap.reader_retries(),
            restarts: stats.restarts,
            worker_failures: stats.worker_failures,
            degraded: stats.degraded,
            recovered: self.durable.as_ref().is_some_and(|d| d.recovered),
            replayed_keys: self.durable.as_ref().map_or(0, |d| d.replayed_keys),
            wal_records: self.durable.as_ref().map_or(0, |d| d.wal_records),
            snapshot_seq: self
                .durable
                .as_ref()
                .map_or(0, |d| d.snapped_seq.load(Ordering::Acquire)),
            durability_degraded: self
                .durable
                .as_ref()
                .is_some_and(|d| d.degraded.is_some() || d.has_pending_fatal()),
            wal_retries: self.durable.as_ref().map_or(0, |d| {
                d.wal_retries.load(Ordering::Relaxed) + d.bg_sync_retries.load(Ordering::Relaxed)
            }),
            snapshot_retries: self
                .durable
                .as_ref()
                .map_or(0, |d| d.snap_retries.load(Ordering::Relaxed)),
            last_durability_error: self.durable.as_ref().and_then(DurableShard::fault_gauge),
            scrub_passes: self
                .durable
                .as_ref()
                .map_or(0, |d| d.scrub.passes.load(Ordering::Relaxed)),
            scrub_corruptions: self
                .durable
                .as_ref()
                .map_or(0, |d| d.scrub.corrupt_found.load(Ordering::Relaxed)),
            snapshots_quarantined: self
                .durable
                .as_ref()
                .map_or(0, |d| d.scrub.quarantined.load(Ordering::Relaxed)),
            wal_group_commits: self.durable.as_ref().map_or(0, |d| d.wal.group_commits()),
            wal_deferred_fsyncs: self.durable.as_ref().map_or(0, |d| d.deferred_fsyncs),
            pinned_core: (pinned != UNPINNED).then_some(pinned),
        }
    }
}

/// A cloneable, thread-safe handle for concurrent point queries against a
/// [`ConcurrentASketch`]'s published snapshots.
///
/// Reads are wait-free: no lock, no channel round trip, no writer stall.
/// Answers reflect each shard's last publish (see the module-level
/// staleness bound); handles stay valid (and frozen at the final state)
/// after the runtime finishes.
pub struct QueryHandle<S: SharedView> {
    snaps: Arc<Vec<Arc<ShardSnapshot<S>>>>,
    partition: KeyPartition,
}

impl<S: SharedView> Clone for QueryHandle<S> {
    fn clone(&self) -> Self {
        Self {
            snaps: Arc::clone(&self.snaps),
            partition: self.partition,
        }
    }
}

impl<S: SharedView> QueryHandle<S> {
    /// Wait-free point query: exact for filter-resident keys (at the last
    /// publish), one-sided via the sketch view otherwise.
    pub fn estimate(&self, key: u64) -> i64 {
        self.snaps[self.partition.shard_of(key)].query(key)
    }

    /// Point queries for a batch of keys, in order.
    ///
    /// Keys are grouped by owning shard **once per batch**: the partition
    /// is resolved exactly once per key and each shard's group is answered
    /// under a single seqlock-stable filter read
    /// ([`ShardSnapshot::query_group`]), so a pipelined `ESTIMATE_BATCH`
    /// does not re-acquire the snapshot per element. Results are
    /// positionally identical to calling [`estimate`](Self::estimate) on
    /// each key in order (differentially tested across every filter kind).
    pub fn estimate_batch(&self, keys: &[u64]) -> Vec<i64> {
        // Tiny batches: grouping buys nothing over the direct path.
        if keys.len() <= 2 {
            return keys.iter().map(|&k| self.estimate(k)).collect();
        }
        let shards = self.partition.shards();
        let mut groups: Vec<Vec<(usize, u64)>> = vec![Vec::new(); shards];
        for (slot, &key) in keys.iter().enumerate() {
            groups[self.partition.shard_of(key)].push((slot, key));
        }
        let mut out = vec![0i64; keys.len()];
        let mut scratch = Vec::new();
        for (shard, group) in groups.iter().enumerate() {
            if !group.is_empty() {
                self.snaps[shard].query_group(group, &mut scratch, &mut out);
            }
        }
        out
    }

    /// Wait-free top-k over the published filter snapshots: each shard's
    /// filter holds its partition's heavy hitters with exact counts, keys
    /// are owned by exactly one shard (no duplicates to merge), so the
    /// global answer is the k largest of the union. Ordered by count
    /// descending, ties by key ascending. Subject to the same staleness
    /// bound as point queries; exact after a `sync`.
    pub fn top_k(&self, k: usize) -> Vec<(u64, i64)> {
        let mut items: Vec<(u64, i64)> = Vec::new();
        let mut scratch = Vec::new();
        for snap in self.snaps.iter() {
            snap.filter_items(&mut scratch);
            items.extend(scratch.iter().map(|it| (it.key, it.new_count)));
        }
        items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items.truncate(k);
        items
    }

    /// The key partition (for callers that co-locate work by shard).
    pub fn partition(&self) -> KeyPartition {
        self.partition
    }

    /// Per-shard snapshot access (epochs, retries).
    pub fn shard(&self, shard: usize) -> &ShardSnapshot<S> {
        &self.snaps[shard]
    }

    /// Oldest filter publish epoch across shards.
    pub fn min_filter_epoch(&self) -> u64 {
        self.snaps
            .iter()
            .map(|s| s.filter_epoch())
            .min()
            .unwrap_or(0)
    }

    /// Total seqlock reader retries across shards (0 in steady state).
    pub fn reader_retries(&self) -> u64 {
        self.snaps.iter().map(|s| s.reader_retries()).sum()
    }
}

/// The concurrent sharded runtime. See the module docs.
pub struct ConcurrentASketch<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    shards: Vec<ShardState<F, S>>,
    router: KeyRouter,
    snaps: Arc<Vec<Arc<ShardSnapshot<S>>>>,
    cfg: ConcurrentConfig,
    /// Per-session per-shard high-water marks for exactly-once sequenced
    /// ingest ([`insert_sessioned`](Self::insert_sessioned)); bounded by
    /// [`ConcurrentConfig::session_cap`] with LRU eviction. Durable
    /// runtimes seed it from recovery and persist it piggyback on WAL
    /// records and snapshots.
    sessions: SessionTable,
    /// Background snapshot writer (durable runtimes only); exits when the
    /// last shard's job sender drops, joined in `finish`.
    snapshotter: Option<JoinHandle<()>>,
    /// Background WAL fsync thread (durable runtimes only): runs the
    /// interval fsyncs the writers defer so ingest never blocks on
    /// writeback. Exits when the last shard's job sender drops; joined in
    /// `finish` before the final snapshots.
    wal_syncer: Option<JoinHandle<()>>,
    /// Background integrity scrubber (durable runtimes with a scrub
    /// interval only): stop flag + thread, joined in `finish`.
    scrubber: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl<F, S> ConcurrentASketch<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    /// Spawn `cfg.shards` workers, shard `i` owning the kernel built by
    /// `make_kernel(i)`.
    ///
    /// # Panics
    /// Panics if `cfg.shards == 0`.
    pub fn spawn(cfg: ConcurrentConfig, make_kernel: impl Fn(usize) -> ASketch<F, S>) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let shards: Vec<ShardState<F, S>> = (0..cfg.shards)
            .map(|i| ShardState::new(i, make_kernel(i), &cfg, None))
            .collect();
        let snaps = Arc::new(shards.iter().map(|s| Arc::clone(s.snap())).collect());
        let router = KeyRouter::new(KeyPartition::new(cfg.shards), cfg.batch.max(1));
        let sessions = SessionTable::new(cfg.session_cap);
        Self {
            shards,
            router,
            snaps,
            cfg,
            sessions,
            snapshotter: None,
            wal_syncer: None,
            scrubber: None,
        }
    }

    /// Route one key to its owning shard (batched; a full batch is shipped
    /// immediately).
    #[inline]
    pub fn insert(&mut self, key: u64) {
        if let Some((shard, batch)) = self.router.push(key) {
            self.shards[shard].ship(batch);
        }
    }

    /// Route a slice of keys.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        for &key in keys {
            self.insert(key);
        }
    }

    /// Ship pre-partitioned mega-batches straight to their shards,
    /// bypassing the router's per-key accumulation: `batches[i]` goes to
    /// shard `i` whole — one journal sequence, one WAL record, and one
    /// channel send per non-empty shard batch, however many network
    /// requests were coalesced into it. The caller owns partitioning
    /// (via [`KeyPartition::shard_of`] from [`partition`](Self::partition))
    /// and per-shard key order; within a shard this is equivalent to
    /// routing the same keys through [`insert_batch`](Self::insert_batch).
    /// Shipped batches are drained to empty; empty slots are untouched.
    ///
    /// # Panics
    /// Panics if `batches.len()` differs from the shard count; debug
    /// builds also assert every key is in its owning shard's batch.
    pub fn insert_sharded(&mut self, batches: &mut [Vec<u64>]) {
        assert_eq!(batches.len(), self.shards.len(), "one batch slot per shard");
        for (shard, batch) in batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            debug_assert!(
                batch
                    .iter()
                    .all(|&k| self.router.partition().shard_of(k) == shard),
                "mis-partitioned key in shard {shard} batch"
            );
            let keys = std::mem::take(batch);
            self.shards[shard].ship(keys);
        }
    }

    /// All-or-nothing [`insert_sharded`](Self::insert_sharded): ship only
    /// if every targeted shard's channel has room under `max_depth`
    /// in-flight batches (capacity-clamped). Returns `false` — leaving
    /// every batch untouched for the caller to retry or shed — when any
    /// target is backed up. The probe-then-ship pair is race-free because
    /// `&mut self` is the sole producer and workers only drain.
    ///
    /// # Panics
    /// Same contract as [`insert_sharded`](Self::insert_sharded).
    pub fn try_insert_sharded(&mut self, batches: &mut [Vec<u64>], max_depth: usize) -> bool {
        assert_eq!(batches.len(), self.shards.len(), "one batch slot per shard");
        let room = batches
            .iter()
            .enumerate()
            .all(|(shard, batch)| batch.is_empty() || self.shards[shard].sup.has_room(max_depth));
        if room {
            self.insert_sharded(batches);
        }
        room
    }

    /// Session handshake for exactly-once sequenced ingest: register (or
    /// touch) `session_id`, lift every shard mark to at least
    /// `resume_seq` (the client's claimed floor), and return the highest
    /// client sequence that is **fully applied** across shards — the
    /// client may discard everything at or below it and must replay the
    /// rest, which [`insert_sessioned`](Self::insert_sessioned) dedups
    /// shard-by-shard.
    pub fn hello(&mut self, session_id: u64, resume_seq: u64) -> u64 {
        let shards = self.shards.len();
        self.sessions.hello(session_id, resume_seq, shards)
    }

    /// Exactly-once [`insert_sharded`](Self::insert_sharded): apply one
    /// client write (`session_id`, strictly increasing `seq`) at most
    /// once per shard. Shards whose session mark already covers `seq`
    /// skip their part (a retry of an acked-or-applied write); the rest
    /// ship with the `(session_id, seq)` annotation riding their WAL
    /// record so the dedup decision survives crash+replay. Batches are
    /// drained whether shipped or deduped.
    ///
    /// Client sequences must be issued in order per session; replaying a
    /// suffix of unacked writes (in order, any number of times) is the
    /// supported retry shape and never double-counts.
    ///
    /// # Panics
    /// Same contract as [`insert_sharded`](Self::insert_sharded).
    pub fn insert_sessioned(
        &mut self,
        session_id: u64,
        seq: u64,
        batches: &mut [Vec<u64>],
    ) -> SessionOutcome {
        assert_eq!(batches.len(), self.shards.len(), "one batch slot per shard");
        let hwms = self.sessions.touch(session_id, batches.len());
        let mut applied = 0usize;
        let mut any_nonempty = false;
        let mut shipped = false;
        for (shard, batch) in batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            any_nonempty = true;
            if hwms[shard] >= seq {
                batch.clear();
                continue;
            }
            debug_assert!(
                batch
                    .iter()
                    .all(|&k| self.router.partition().shard_of(k) == shard),
                "mis-partitioned key in shard {shard} batch"
            );
            let keys = std::mem::take(batch);
            applied += keys.len();
            shipped = true;
            self.shards[shard].ship_annotated(keys, Some((session_id, seq)));
        }
        // Every shard's in-memory mark advances — including shards that
        // received no keys this seq — so a later retry of the same seq is
        // a full duplicate. Only shards that wrote a record advance
        // durably; after a crash the replayed retry re-partitions
        // identically, so the unmarked shards see only parts they never
        // applied.
        for h in hwms.iter_mut() {
            *h = (*h).max(seq);
        }
        SessionOutcome {
            applied,
            duplicate: any_nonempty && !shipped,
            degraded: self.durability_degraded(),
        }
    }

    /// All-or-nothing [`insert_sessioned`](Self::insert_sessioned):
    /// admission-probe the channel of every shard that would actually
    /// receive keys (non-empty and not deduped) and return `None` —
    /// batches untouched, marks unmoved — when any is backed up past
    /// `max_depth` in-flight batches. A write the marks fully cover is
    /// applied as a duplicate regardless of backpressure: dedup is free
    /// and the client needs the ack.
    ///
    /// # Panics
    /// Same contract as [`insert_sharded`](Self::insert_sharded).
    pub fn try_insert_sessioned(
        &mut self,
        session_id: u64,
        seq: u64,
        batches: &mut [Vec<u64>],
        max_depth: usize,
    ) -> Option<SessionOutcome> {
        assert_eq!(batches.len(), self.shards.len(), "one batch slot per shard");
        let hwms = self.sessions.touch(session_id, batches.len());
        let room = batches.iter().enumerate().all(|(shard, batch)| {
            batch.is_empty() || hwms[shard] >= seq || self.shards[shard].sup.has_room(max_depth)
        });
        if !room {
            return None;
        }
        Some(self.insert_sessioned(session_id, seq, batches))
    }

    /// Deepest shard channel across shards, in in-flight batches — the
    /// admission-control signal serving layers compare against their
    /// high-water mark.
    pub fn max_queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.sup.queue_len())
            .max()
            .unwrap_or(0)
    }

    /// Whether any shard has lost durability (disk-sick degraded mode or
    /// a pending background fault): writes are still applied one-sidedly
    /// but may not survive a crash, so serving acks should carry a
    /// `DEGRADED` flag.
    pub fn durability_degraded(&self) -> bool {
        self.shards.iter().any(|s| {
            s.durable
                .as_ref()
                .is_some_and(|d| d.degraded.is_some() || d.has_pending_fatal())
        })
    }

    /// Sessions currently tracked by the exactly-once table.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Flush every router partial to its shard.
    fn flush_router(&mut self) {
        for shard in 0..self.shards.len() {
            let partial = self.router.take(shard);
            if !partial.is_empty() {
                self.shards[shard].ship(partial);
            }
        }
    }

    /// Barrier: every key routed so far is applied and published. After
    /// this returns, [`QueryHandle`] answers are exact (equal to the
    /// sequential ASketch over each shard's sub-stream).
    pub fn sync(&mut self) {
        self.flush_router();
        for shard in 0..self.shards.len() {
            self.shards[shard].sync();
        }
    }

    /// A wait-free concurrent query handle (cheap; clone freely across
    /// reader threads).
    pub fn query_handle(&self) -> QueryHandle<S> {
        QueryHandle {
            snaps: Arc::clone(&self.snaps),
            partition: self.router.partition(),
        }
    }

    /// Point query from the owning thread: reads the same published
    /// snapshots as [`QueryHandle`] (subject to the same staleness bound;
    /// call [`sync`](Self::sync) first for exact answers).
    pub fn estimate(&self, key: u64) -> i64 {
        self.snaps[self.router.partition().shard_of(key)].query(key)
    }

    /// The key partition used for routing and query ownership.
    pub fn partition(&self) -> KeyPartition {
        self.router.partition()
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ConcurrentConfig {
        &self.cfg
    }

    /// Per-shard health gauges: queue depth/occupancy, publish epochs,
    /// reader retries, restart/fault counters.
    pub fn health(&self) -> ShardedHealth {
        ShardedHealth {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.gauge(i))
                .collect(),
            reactors: Vec::new(),
        }
    }

    /// Shut every worker down and return the per-shard kernels (shard
    /// order). Never hangs: a healthy worker is joined (publishing its
    /// final state on the way out); a panicked or wedged one is replaced by
    /// its journal reconstruction. Durable shards write a final snapshot
    /// covering everything routed and prune their WAL behind it.
    pub fn finish(self) -> Vec<ASketch<F, S>> {
        self.finish_with_health().0
    }

    /// [`finish`](Self::finish), also returning the post-teardown health
    /// gauges. After a graceful shutdown every queue-depth gauge reads
    /// exactly zero — nothing residual, nothing underflowed — even when a
    /// wedged worker had to be abandoned.
    ///
    /// # Shutdown ordering (durable runtimes)
    ///
    /// 1. flush the router and spill queues, drain checkpoints;
    /// 2. join (or abandon-and-reconstruct) every shard worker;
    /// 3. stop and join the **scrubber**, close every snapshot-job sender
    ///    and join the **snapshotter** — every queued/in-flight background
    ///    snapshot completes or fails *now*, deterministically;
    /// 4. only then write each shard's **final snapshot** and prune its
    ///    WAL behind it.
    ///
    /// Step 3 must precede step 4: a background job still in flight would
    /// otherwise race the final write on the same shard directory — when
    /// the last checkpoint's sequence equals the final sequence both
    /// writers share one tmp path, and a torn "newest" snapshot whose WAL
    /// was pruned behind it silently drops acked writes at next recovery.
    pub fn finish_with_health(mut self) -> (Vec<ASketch<F, S>>, ShardedHealth) {
        self.flush_router();
        let mut kernels = Vec::with_capacity(self.shards.len());
        for st in self.shards.iter_mut() {
            // A worker that panicked or stays wedged past the shutdown
            // timeout is replaced by its journal reconstruction, republished
            // under a retired writer generation so an abandoned worker's
            // final publish cannot land after it.
            st.harvest();
            kernels.push(st.sup.finish());
        }
        // Quiesce the background threads BEFORE the final snapshots (see
        // the shutdown-ordering doc above). The scrubber goes first so a
        // mid-pass quarantine can't race the final writes either; then
        // every job sender closes and the snapshotter drains its queue and
        // exits — both joins are bounded (short stop-flag ticks, bounded
        // retry backoff per job).
        if let Some((stop, handle)) = self.scrubber.take() {
            stop.store(true, Ordering::Release);
            let _ = handle.join();
        }
        for st in self.shards.iter_mut() {
            if let Some(d) = st.durable.as_mut() {
                d.close_snapshots();
            }
        }
        if let Some(handle) = self.snapshotter.take() {
            let _ = handle.join();
        }
        // The WAL syncer drains its deferred fsyncs and exits the same
        // way; joining it before `finalize` keeps each shard's caller the
        // sole toucher of its segments during the final snapshot + prune.
        if let Some(handle) = self.wal_syncer.take() {
            let _ = handle.join();
        }
        // Final snapshots: each shard's caller is now the *sole* writer to
        // its directory, and any persistent snapshotter failure parked by
        // a drained job is promoted (finalize → check_snapshotter) before
        // the shard decides whether writing through the disk is safe.
        for (st, kernel) in self.shards.iter_mut().zip(&kernels) {
            if let Some(d) = st.durable.as_mut() {
                d.finalize(kernel, kernel.ops_applied());
            }
        }
        // Gauges while durability state is still attached (so WAL/recovery
        // counters — now reflecting every *completed* background snapshot
        // — survive into the final health), then drop it.
        let health = ShardedHealth {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.gauge(i))
                .collect(),
            reactors: Vec::new(),
        };
        for st in self.shards.iter_mut() {
            st.durable = None;
        }
        (kernels, health)
    }

    /// Durability barrier: flush router partials into the WAL and fsync
    /// every shard's log regardless of fsync policy. When it returns
    /// `Ok(n)`, all `n` keys routed so far survive a crash of this
    /// process. Returns the first recorded WAL failure, if durability was
    /// lost. No-op (beyond the router flush) on non-durable runtimes.
    ///
    /// # Errors
    /// The first WAL I/O failure across shards.
    pub fn wal_checkpoint(&mut self) -> Result<u64, DurabilityError> {
        self.flush_router();
        let mut total = 0u64;
        for st in self.shards.iter_mut() {
            total += st.routed;
            if let Some(d) = st.durable.as_mut() {
                d.check_snapshotter();
                if let Some(e) = &d.degraded {
                    return Err(e.clone());
                }
                let synced = d.sync_with_retries();
                if let Err(e) = synced {
                    d.degraded = Some(e.clone());
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    /// Run one synchronous integrity-scrub pass over every shard
    /// directory, exactly as the background scrubber would (the active
    /// WAL segment is taken from the live writer, so sealed-segment
    /// coverage is exact). Returns one [`ScrubReport`] per shard, in
    /// shard order; non-durable shards produce empty reports.
    ///
    /// Deterministic tests and operator tooling call this instead of
    /// waiting out [`DurabilityOptions::scrub_interval`].
    pub fn scrub_now(&mut self) -> Vec<ScrubReport> {
        self.shards
            .iter_mut()
            .map(|st| {
                let Some(d) = st.durable.as_mut() else {
                    return ScrubReport::default();
                };
                let active = d.wal.active_segment().to_path_buf();
                match scrub_shard_dir(&d.vfs, &d.dir, Some(&active)) {
                    Ok(report) => {
                        d.scrub.absorb(&report);
                        report
                    }
                    Err(_) => ScrubReport::default(),
                }
            })
            .collect()
    }
}

impl<F, S> ConcurrentASketch<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
    ASketch<F, S>: Persist,
{
    /// Spawn a **durable** runtime rooted at `opts.dir`: each shard first
    /// recovers its kernel from the latest valid snapshot plus a
    /// sequence-gated WAL replay (see `asketch-durable`), then runs
    /// exactly like [`spawn`](Self::spawn) with two additions — every
    /// shipped batch is appended to the shard's WAL *before* it can reach
    /// the worker, and worker checkpoints feed a shared background
    /// snapshotter thread that writes checksummed snapshots and prunes
    /// covered WAL segments without ever blocking ingest or readers.
    ///
    /// Returns the runtime plus one [`RecoveryReport`] per shard so
    /// callers can assert on (or log) what recovery found: rejected
    /// corrupt snapshots, torn WAL tails, and replayed/deduped records.
    ///
    /// # Errors
    /// Unrecoverable durability failures: I/O errors walking or creating
    /// the shard directories and structurally damaged WALs
    /// ([`DurabilityError::OutOfOrder`]). Corrupt snapshots and torn WAL
    /// tails are *not* errors — they are skipped/truncated and reported.
    ///
    /// # Panics
    /// Panics if `cfg.shards == 0`.
    pub fn spawn_durable(
        cfg: ConcurrentConfig,
        opts: &DurabilityOptions,
        make_kernel: impl Fn(usize) -> ASketch<F, S>,
    ) -> Result<(Self, Vec<RecoveryReport>), DurabilityError> {
        assert!(cfg.shards > 0, "need at least one shard");
        // With pinning on, every background thread (snapshotter, WAL
        // syncer, scrubber) is herded onto the last core so writeback
        // and serialization stalls stay off the ingest cores.
        let bg_core = cfg
            .pin_workers
            .then(|| affinity::available_cores().saturating_sub(1));
        let (snap_tx, snap_rx) = channel::unbounded::<SnapshotJob<ASketch<F, S>>>();
        let snapshotter = std::thread::spawn(move || {
            if let Some(core) = bg_core {
                let _ = affinity::pin_current_thread(core);
            }
            while let Ok(job) = snap_rx.recv() {
                let written = with_storage_retries(&job.policy, &job.retries, || {
                    write_snapshot_sessions_with(
                        &job.vfs,
                        &job.dir,
                        job.meta,
                        &job.kernel,
                        &job.sessions,
                    )
                });
                match written {
                    Ok(_) => {
                        prune_snapshots_with(&job.vfs, &job.dir, job.keep);
                        job.snapped_seq.store(job.meta.wal_seq, Ordering::Release);
                        // A fresh snapshot replaces whatever the scrubber
                        // quarantined; WAL pruning may resume.
                        job.scrub.snap_needed.store(false, Ordering::Release);
                    }
                    Err(e) => {
                        job.errors.fetch_add(1, Ordering::Relaxed);
                        // Persistent failure: park the typed error for the
                        // caller thread to promote to degraded mode.
                        job.fatal
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(e);
                    }
                }
                job.busy.store(false, Ordering::Release);
            }
        });
        // Deferred interval fsyncs run here, off the ingest path.
        // `fdatasync` is cumulative — the newest request for a segment
        // covers every older one — so the syncer dwells briefly after the
        // first request and coalesces everything that arrives in the
        // window into one fsync per distinct segment. Under steady ingest
        // (shards requesting every few ms) this turns a train of
        // per-shard fsyncs into a handful per dwell window, which matters
        // on starved hosts where each fsync steals the core from ingest.
        // The dwell widens Interval's crash window by at most
        // WAL_SYNC_DWELL beyond the deferral itself; the `sync`/
        // `wal_checkpoint` ack barrier stays inline and is unaffected.
        let (sync_tx, sync_rx) = channel::unbounded::<SyncJob>();
        let wal_syncer = std::thread::spawn(move || {
            if let Some(core) = bg_core {
                let _ = affinity::pin_current_thread(core);
            }
            while let Ok(first) = sync_rx.recv() {
                let mut pending: Vec<SyncJob> = vec![first];
                let deadline = Instant::now() + WAL_SYNC_DWELL;
                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match sync_rx.recv_timeout(deadline - now) {
                        Ok(next) => {
                            if let Some(p) = pending.iter_mut().find(|p| p.path == next.path) {
                                *p = next;
                            } else {
                                pending.push(next);
                            }
                        }
                        Err(_) => break,
                    }
                }
                for job in &pending {
                    run_sync_job(job);
                }
            }
        });
        let mut reports = Vec::with_capacity(cfg.shards);
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut scrub_targets = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let dir = opts.shard_dir(i);
            let (kernel, report) =
                recover_kernel_with(&opts.vfs, &dir, opts.dedup, || make_kernel(i))?;
            let mut wal = WalWriter::create_with(
                Arc::clone(&opts.vfs),
                &dir,
                report.last_seq,
                opts.fsync,
                opts.segment_bytes,
            )?;
            // Interval fsyncs defer to the background syncer; PerBatch
            // stays inline — its contract is "durable when append
            // returns", which a deferral would silently break.
            let defer = matches!(opts.fsync, FsyncPolicy::Interval(_));
            wal.set_group_commit(opts.group_commit, defer);
            let scrub = Arc::new(ScrubShared::default());
            scrub_targets.push((dir.clone(), Arc::clone(&scrub)));
            let durable = DurableShard {
                shard_idx: i,
                dir,
                wal,
                wal_base: report.last_seq,
                keep: opts.snapshot_keep,
                snap_tx: Some(snap_tx.clone()),
                busy: Arc::new(AtomicBool::new(false)),
                snapped_seq: Arc::new(AtomicU64::new(report.snapshot.map_or(0, |m| m.wal_seq))),
                snap_errors: Arc::new(AtomicU64::new(0)),
                pruned_seq: 0,
                write: write_snapshot_sessions_with::<ASketch<F, S>>,
                recovered: report.snapshot.is_some() || report.wal_records > 0,
                replayed_keys: report.replayed_keys,
                wal_records: 0,
                vfs: Arc::clone(&opts.vfs),
                policy: opts.policy,
                wal_retries: AtomicU64::new(0),
                sync_tx: defer.then(|| sync_tx.clone()),
                bg_sync_retries: Arc::new(AtomicU64::new(0)),
                deferred_fsyncs: 0,
                snap_retries: Arc::new(AtomicU64::new(0)),
                snap_fatal: Arc::new(Mutex::new(None)),
                scrub,
                pending_ann: VecDeque::new(),
                snap_sessions: report.sessions.iter().copied().collect(),
                session_cap: cfg.session_cap.max(1),
                degraded: None,
            };
            reports.push(report);
            shards.push(ShardState::new(i, kernel, &cfg, Some(durable)));
        }
        drop(snap_tx);
        drop(sync_tx);
        let scrubber = opts.scrub_interval.map(|interval| {
            let stop = Arc::new(AtomicBool::new(false));
            let thread_stop = Arc::clone(&stop);
            let vfs = Arc::clone(&opts.vfs);
            let handle = std::thread::spawn(move || {
                if let Some(core) = bg_core {
                    let _ = affinity::pin_current_thread(core);
                }
                // Sleep in short slices so shutdown never waits out a long
                // scrub interval.
                let tick = Duration::from_millis(10).min(interval);
                let mut next = Instant::now() + interval;
                while !thread_stop.load(Ordering::Acquire) {
                    if Instant::now() < next {
                        std::thread::sleep(tick);
                        continue;
                    }
                    for (dir, shared) in &scrub_targets {
                        scrub_pass(&vfs, dir, shared);
                    }
                    next = Instant::now() + interval;
                }
            });
            (stop, handle)
        });
        let snaps = Arc::new(shards.iter().map(|s| Arc::clone(s.snap())).collect());
        let router = KeyRouter::new(KeyPartition::new(cfg.shards), cfg.batch.max(1));
        // Seed the in-memory session table from what recovery found so a
        // client reconnecting after a crash+restart deduplicates exactly
        // as it would have against the pre-crash process.
        let mut sessions = SessionTable::new(cfg.session_cap);
        for (shard, report) in reports.iter().enumerate() {
            for &(sid, hwm) in &report.sessions {
                sessions.seed(sid, shard, hwm, cfg.shards);
            }
        }
        Ok((
            Self {
                shards,
                router,
                snaps,
                cfg,
                sessions,
                snapshotter: Some(snapshotter),
                wal_syncer: Some(wal_syncer),
                scrubber,
            },
            reports,
        ))
    }
}

impl<F, S> Drop for ConcurrentASketch<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    /// Best-effort teardown for runtimes dropped without
    /// [`finish`](Self::finish): disconnect every worker and wait a bounded
    /// time. Never hangs, never panics.
    fn drop(&mut self) {
        // Stop the scrubber promptly; dropping the handle detaches the
        // thread, which exits at its next (short) stop-flag check.
        if let Some((stop, _handle)) = self.scrubber.take() {
            stop.store(true, Ordering::Release);
        }
        // Disconnect every worker first so all shards wind down in
        // parallel under one deadline.
        let handles: Vec<JoinHandle<ASketch<F, S>>> = self
            .shards
            .iter_mut()
            .filter_map(|s| s.sup.disconnect())
            .collect();
        let deadline = Instant::now() + self.cfg.supervision.shutdown_timeout;
        for handle in handles {
            let _ = join_by(handle, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyEstimator};
    use crate::supervisor::BackpressurePolicy;
    use asketch::filter::VectorFilter;
    use sketches::CountMin;

    fn stream(len: usize) -> Vec<u64> {
        let mut x = 0x5EED_2016u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match x % 10 {
                    0..=5 => x % 8,             // heavy keys
                    _ => 100 + (x >> 16) % 512, // tail
                }
            })
            .collect()
    }

    fn kernel(seed: u64) -> ASketch<VectorFilter, CountMin> {
        ASketch::new(
            VectorFilter::new(16),
            CountMin::new(seed, 4, 1 << 12).unwrap(),
        )
    }

    /// Sequential reference: each shard's sub-stream through its own
    /// sequential kernel, queried at the owner.
    fn sequential_reference(
        stream: &[u64],
        partition: KeyPartition,
        make: impl Fn(usize) -> ASketch<VectorFilter, CountMin>,
    ) -> Vec<ASketch<VectorFilter, CountMin>> {
        let mut kernels: Vec<_> = (0..partition.shards()).map(&make).collect();
        for &key in stream {
            kernels[partition.shard_of(key)].insert(key);
        }
        kernels
    }

    #[test]
    fn sync_makes_queries_exactly_sequential() {
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 64,
            publish_interval: 256,
            view_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let data = stream(40_000);
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(10 + i as u64));
        rt.insert_batch(&data);
        rt.sync();
        let reference = sequential_reference(&data, rt.partition(), |i| kernel(10 + i as u64));
        let p = rt.partition();
        let handle = rt.query_handle();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            let expect = reference[p.shard_of(key)].estimate(key);
            assert_eq!(handle.estimate(key), expect, "key {key} diverges post-sync");
            assert_eq!(rt.estimate(key), expect, "owner query diverges for {key}");
        }
        // Finish and compare the final kernels per key as well.
        let kernels = rt.finish();
        for &key in &keys {
            let shard = p.shard_of(key);
            assert_eq!(
                kernels[shard].estimate(key),
                reference[shard].estimate(key),
                "finished kernel diverges for {key}"
            );
        }
        // Handles stay valid (frozen at final state) after finish.
        for &key in keys.iter().take(50) {
            assert_eq!(
                handle.estimate(key),
                reference[p.shard_of(key)].estimate(key)
            );
        }
    }

    /// The reactor's bypass path must be indistinguishable from routing
    /// the same stream through the router: pre-partition the stream into
    /// per-shard mega-batches (order preserved within each shard, as the
    /// serving layer does), ship via `insert_sharded`, and compare every
    /// distinct key against the sequential reference.
    #[test]
    fn insert_sharded_matches_routed_ingest_exactly() {
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 64,
            publish_interval: 256,
            view_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let data = stream(40_000);
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(10 + i as u64));
        let p = rt.partition();
        // Coalesce in chunks, as a reactor would across wakeups.
        let mut staging: Vec<Vec<u64>> = vec![Vec::new(); p.shards()];
        for chunk in data.chunks(7_777) {
            for &key in chunk {
                staging[p.shard_of(key)].push(key);
            }
            rt.insert_sharded(&mut staging);
            assert!(staging.iter().all(Vec::is_empty), "batches drain on ship");
        }
        rt.sync();
        let reference = sequential_reference(&data, p, |i| kernel(10 + i as u64));
        let handle = rt.query_handle();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                handle.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "key {key} diverges via the sharded bypass"
            );
        }
        let health = rt.health();
        assert_eq!(health.total_routed(), data.len() as u64);
        rt.finish();
    }

    /// `try_insert_sharded` is all-or-nothing: with a worker wedged (slow
    /// kernel) and a depth bound of 1, the probe refuses while a batch is
    /// in flight and leaves the staging buffers untouched; accepted books
    /// stay exact (total routed == keys accepted).
    #[test]
    fn try_insert_sharded_is_all_or_nothing_under_depth_bound() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 64,
            publish_interval: 16,
            view_interval: 64,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(30 + i as u64));
        let p = rt.partition();
        let mut accepted = 0u64;
        let mut refused = 0u64;
        let mut staging: Vec<Vec<u64>> = vec![Vec::new(); p.shards()];
        for round in 0..200u64 {
            for i in 0..500u64 {
                let key = round * 1_000 + i;
                staging[p.shard_of(key)].push(key);
            }
            let staged: u64 = staging.iter().map(|b| b.len() as u64).sum();
            if rt.try_insert_sharded(&mut staging, 1) {
                accepted += staged;
                assert!(staging.iter().all(Vec::is_empty), "shipped batches drain");
            } else {
                refused += 1;
                assert_eq!(
                    staging.iter().map(|b| b.len() as u64).sum::<u64>(),
                    staged,
                    "a refused flush must leave staging untouched"
                );
                for b in staging.iter_mut() {
                    b.clear(); // caller sheds
                }
            }
        }
        rt.sync();
        assert_eq!(
            rt.health().total_routed(),
            accepted,
            "books must balance: accepted keys and only accepted keys routed \
             ({refused} flushes refused)"
        );
        rt.finish();
    }

    #[test]
    fn blocked_backend_slots_into_the_runtime() {
        // The cache-line-blocked backend implements the same SharedView /
        // UpdateEstimate surface as CountMin, so it must drop into the
        // sharded runtime unchanged — and answer exactly like the
        // sequential blocked kernel over each shard's sub-stream once
        // sync() has drained and published.
        use sketches::BlockedCountMin;
        let blocked = |seed: u64| {
            ASketch::new(
                VectorFilter::new(16),
                BlockedCountMin::new(seed, 4, 1 << 9).unwrap(),
            )
        };
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 64,
            publish_interval: 256,
            view_interval: 1024,
            ..ConcurrentConfig::default()
        };
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, |i| blocked(20 + i as u64));
        rt.insert_batch(&data);
        rt.sync();
        let p = rt.partition();
        let mut reference: Vec<_> = (0..p.shards()).map(|i| blocked(20 + i as u64)).collect();
        for &key in &data {
            reference[p.shard_of(key)].insert(key);
        }
        let handle = rt.query_handle();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            let expect = reference[p.shard_of(key)].estimate(key);
            assert_eq!(handle.estimate(key), expect, "key {key} diverges post-sync");
            assert_eq!(rt.estimate(key), expect, "owner query diverges for {key}");
        }
        let kernels = rt.finish();
        for &key in &keys {
            let shard = p.shard_of(key);
            assert_eq!(
                kernels[shard].estimate(key),
                reference[shard].estimate(key),
                "finished blocked kernel diverges for {key}"
            );
        }
    }

    #[test]
    fn concurrent_reads_never_block_and_stay_one_sided() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 32,
            publish_interval: 64,
            view_interval: 256,
            ..ConcurrentConfig::default()
        };
        // Collision-free for the heavy key: one-sidedness becomes exactness
        // once quiesced; mid-ingest reads must be monotone and bounded.
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(99 + i as u64));
        let handle = rt.query_handle();
        let heavy = 7u64;
        let total = 60_000usize;
        let reader = std::thread::spawn(move || {
            let mut last = 0i64;
            let mut observations = 0u64;
            loop {
                let est = handle.estimate(heavy);
                assert!(est >= last, "estimate regressed: {est} < {last}");
                assert!(est <= total as i64, "read above quiesced truth");
                last = est;
                observations += 1;
                if est >= total as i64 {
                    return (observations, handle.reader_retries());
                }
                std::thread::yield_now();
            }
        });
        for _ in 0..total {
            rt.insert(heavy);
        }
        rt.sync();
        let (observations, retries) = reader.join().unwrap();
        assert!(observations > 0);
        // Wait-free: readers take zero locks, so a retry is the only
        // contention artifact possible, and it costs one immediate re-read
        // — it can never exceed the number of successful observations.
        assert!(
            retries <= observations,
            "retries ({retries}) outnumber reads ({observations})"
        );
        assert_eq!(rt.estimate(heavy), total as i64);
    }

    #[test]
    fn worker_panic_restarts_and_loses_nothing() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                queue_capacity: 8,
                checkpoint_interval: 64,
                max_restarts: 3,
                restart_backoff: Duration::from_millis(1),
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let make = |i: usize| {
            ASketch::new(
                VectorFilter::new(8),
                FaultyEstimator::new(
                    CountMin::new(50 + i as u64, 4, 1 << 12).unwrap(),
                    FaultPlan::panic_at(300).with_message("injected shard crash"),
                ),
            )
        };
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        // A router blocked on a full channel sees the dead worker at once
        // (its receiver drops), so fail-over never waits out the default
        // 30 s `send_timeout`.
        let started = Instant::now();
        rt.insert_batch(&data);
        rt.sync();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(10),
            "fail-over stalled for {took:?}"
        );
        let health = rt.health();
        assert!(
            health.total_restarts() >= 1,
            "fault plan must trigger at least one restart: {health:?}"
        );
        assert!(!health.any_degraded(), "restart budget not exhausted");
        // Checkpoint + journal replay: still exactly sequential per key.
        let p = rt.partition();
        let mut reference: Vec<_> = (0..2)
            .map(|i| {
                ASketch::new(
                    VectorFilter::new(8),
                    CountMin::new(50 + i as u64, 4, 1 << 12).unwrap(),
                )
            })
            .collect();
        for &key in &data {
            reference[p.shard_of(key)].insert(key);
        }
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "post-restart divergence for key {key}"
            );
        }
    }

    #[test]
    fn stale_writer_generation_publish_is_dropped() {
        let mut k = kernel(1);
        for _ in 0..10 {
            k.insert(42);
        }
        let snap = ShardSnapshot::<CountMin> {
            filter: FilterSnapshot::new(16),
            view: k.sketch().new_view(),
            view_epoch: AtomicU64::new(0),
            writer_gen: Mutex::new(0),
        };
        let mut buf = Vec::new();
        publish_filter(&k, &snap, &mut buf, 0);
        publish_view(&k, &snap, 0);
        assert_eq!(snap.query(42), 10);
        assert_eq!(snap.filter_epoch(), 10);
        assert_eq!(snap.view_epoch(), 10);

        // Fail-over retires generation 0; the old writer keeps running.
        assert_eq!(snap.retire_writer(), 1);
        for _ in 0..10 {
            k.insert(42);
        }
        publish_filter(&k, &snap, &mut buf, 0);
        publish_view(&k, &snap, 0);
        assert_eq!(snap.query(42), 10, "stale publish must be dropped");
        assert_eq!(snap.filter_epoch(), 10);
        assert_eq!(snap.view_epoch(), 10);
        assert!(snap.begin_publish(0).is_none());

        // The replacement writer publishes under the new generation.
        publish_filter(&k, &snap, &mut buf, 1);
        publish_view(&k, &snap, 1);
        assert_eq!(snap.query(42), 20);
        assert_eq!(snap.filter_epoch(), 20);
        assert_eq!(snap.view_epoch(), 20);
    }

    /// The review scenario for timeout fail-over: the first worker wedges
    /// (injected sleep inside the sketch) long enough for the send path to
    /// time out and abandon it *alive*. The abandoned thread then drains
    /// its buffered channel and publishes at intervals and on disconnect —
    /// racing the respawned worker on the same snapshot unless the
    /// generation gate drops its publishes. A concurrent reader asserts
    /// the published epochs never regress, the depth gauge must not wrap,
    /// and post-sync answers must still be exactly sequential.
    #[test]
    fn abandoned_wedged_worker_cannot_corrupt_snapshots() {
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 8,
            publish_interval: 16,
            view_interval: 64,
            supervision: SupervisionConfig {
                queue_capacity: 2,
                backpressure: BackpressurePolicy::Block,
                checkpoint_interval: 64,
                send_timeout: Duration::from_millis(10),
                max_restarts: 3,
                restart_backoff: Duration::from_millis(1),
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        // Wedge for 100ms on the 200th sketch op; the restored clone is
        // disarmed (FaultPlan disarms on clone), so exactly one worker
        // ever wedges.
        let make = |_: usize| {
            ASketch::new(
                VectorFilter::new(8),
                FaultyEstimator::new(
                    CountMin::new(7, 4, 1 << 12).unwrap(),
                    FaultPlan::slow_updates(200, Duration::from_millis(100)),
                ),
            )
        };
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        let handle = rt.query_handle();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut last_filter, mut last_view) = (0u64, 0u64);
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let fe = handle.shard(0).filter_epoch();
                    let ve = handle.shard(0).view_epoch();
                    assert!(
                        fe >= last_filter,
                        "filter epoch regressed: {fe} < {last_filter}"
                    );
                    assert!(ve >= last_view, "view epoch regressed: {ve} < {last_view}");
                    last_filter = fe;
                    last_view = ve;
                    observations += 1;
                    std::thread::yield_now();
                }
                observations
            })
        };
        rt.insert_batch(&data);
        rt.sync();
        let health = rt.health();
        assert!(
            health.total_restarts() >= 1,
            "the wedge must force at least one timeout fail-over: {health:?}"
        );
        assert!(!health.any_degraded());
        // Depth gauge must be fresh, not wrapped by the abandoned worker.
        for g in &health.shards {
            assert_eq!(g.queue_depth, 0, "gauge corrupted: {g:?}");
        }
        stop.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
        // Per-key answers still exactly sequential after the abandonment.
        let reference = {
            let mut k = ASketch::new(VectorFilter::new(8), CountMin::new(7, 4, 1 << 12).unwrap());
            for &key in &data {
                k.insert(key);
            }
            k
        };
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference.estimate(key),
                "post-abandonment divergence for key {key}"
            );
        }
    }

    #[test]
    fn health_gauges_report_activity() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 8,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(3 + i as u64));
        let data = stream(5_000);
        rt.insert_batch(&data);
        rt.sync();
        let health = rt.health();
        assert_eq!(health.shards.len(), 2);
        assert_eq!(health.total_routed(), 5_000);
        assert!(!health.any_degraded());
        for g in &health.shards {
            assert_eq!(g.queue_depth, 0, "sync barrier must drain the queue");
            assert!(g.published_epoch > 0, "filter must have been published");
            assert!(g.view_epoch > 0, "view must have been published");
            assert_eq!(g.restarts, 0);
        }
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let mut rt = ConcurrentASketch::spawn(
            ConcurrentConfig {
                shards: 2,
                ..ConcurrentConfig::default()
            },
            |i| kernel(i as u64),
        );
        rt.insert_batch(&stream(1_000));
        drop(rt);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ConcurrentASketch::spawn(
            ConcurrentConfig {
                shards: 0,
                ..ConcurrentConfig::default()
            },
            |i| kernel(i as u64),
        );
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("asketch-conc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn durable_clean_shutdown_then_restart_recovers_exactly() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("clean");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::Interval(4));
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 32,
            publish_interval: 128,
            view_interval: 512,
            supervision: SupervisionConfig {
                checkpoint_interval: 256,
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let data = stream(20_000);
        let (mut rt, reports) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(70 + i as u64))
                .unwrap();
        assert!(
            reports
                .iter()
                .all(|r| r.snapshot.is_none() && r.wal_records == 0),
            "fresh directory must recover nothing"
        );
        rt.insert_batch(&data);
        rt.sync();
        let (kernels, health) = rt.finish_with_health();
        for g in &health.shards {
            assert!(g.wal_records > 0, "WAL must have been written: {g:?}");
            assert!(!g.durability_degraded, "durability lost: {g:?}");
            assert_eq!(g.queue_depth, 0, "gauge residue after finish: {g:?}");
        }
        // Cold restart: recovery must reproduce the finished kernels
        // exactly (snapshot base + dedup-gated WAL replay).
        let (rt2, reports2) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(70 + i as u64)).unwrap();
        assert!(
            reports2.iter().all(|r| r.snapshot.is_some()),
            "clean shutdown must leave a final snapshot: {reports2:?}"
        );
        let p = rt2.partition();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                kernels[p.shard_of(key)].estimate(key),
                "recovered state diverges for key {key}"
            );
        }
        for g in &rt2.health().shards {
            assert!(g.recovered, "restart must report recovery: {g:?}");
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_unclean_drop_recovers_acked_writes_from_wal() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("dirty");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::PerBatch);
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 128,
            view_interval: 512,
            supervision: SupervisionConfig {
                checkpoint_interval: 128,
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let data = stream(12_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(30 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        let acked = rt.wal_checkpoint().unwrap();
        assert_eq!(acked, 12_000, "every key must be durable after the barrier");
        // Simulated crash: drop without finish — no final snapshot, only
        // background snapshots (if any landed) plus the fsynced WAL.
        drop(rt);
        let (rt2, reports) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(30 + i as u64)).unwrap();
        assert!(
            reports.iter().map(|r| r.wal_records).sum::<u64>() > 0,
            "the WAL must hold the unsnapshotted tail: {reports:?}"
        );
        let p = rt2.partition();
        let reference = sequential_reference(&data, p, |i| kernel(30 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "dedup recovery diverges from the sequential reference for {key}"
            );
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`VfsFile`] whose first write stalls: stretches the background
    /// snapshotter's in-flight window so `finish` can land mid-snapshot.
    struct StallFile {
        inner: Box<dyn VfsFile>,
        delay: Duration,
        armed: bool,
    }

    impl VfsFile for StallFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            if self.armed {
                self.armed = false;
                std::thread::sleep(self.delay);
            }
            self.inner.write_all(buf)
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.inner.sync_data()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
    }

    /// Delegating backend that stalls every snapshot `.tmp` write on its
    /// first byte. Regression harness for the shutdown ordering documented
    /// on [`ConcurrentASketch::finish_with_health`]: with the old
    /// finalize-before-join order, the final snapshot raced the stalled
    /// background job on the same tmp path.
    struct SlowSnapVfs {
        inner: Arc<dyn Vfs>,
        delay: Duration,
        snap_writes: AtomicU64,
    }

    impl SlowSnapVfs {
        fn new(delay: Duration) -> Self {
            Self {
                inner: asketch_durable::vfs::real(),
                delay,
                snap_writes: AtomicU64::new(0),
            }
        }
    }

    impl Vfs for SlowSnapVfs {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.open_append(path)
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            let file = self.inner.create_truncate(path)?;
            if path.extension().is_some_and(|e| e == "tmp") {
                self.snap_writes.fetch_add(1, Ordering::Release);
                return Ok(Box::new(StallFile {
                    inner: file,
                    delay: self.delay,
                    armed: true,
                }));
            }
            Ok(file)
        }
        fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.open_write(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove_file(path)
        }
        fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
            self.inner.read_dir(dir)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.sync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// Shutdown-ordering regression (ISSUE 7 satellite): finish a durable
    /// runtime while a background snapshot is provably mid-write and the
    /// scrubber thread is live. The durable prefix must cover every acked
    /// write after a cold restart, the shard directory must hold no torn
    /// `.tmp` residue, and an offline scrub must find nothing.
    #[test]
    fn finish_mid_snapshot_keeps_every_acked_write_durable() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("midsnap");
        let slow = Arc::new(SlowSnapVfs::new(Duration::from_millis(300)));
        let vfs: Arc<dyn Vfs> = Arc::clone(&slow) as Arc<dyn Vfs>;
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            // Both background threads live, exactly the server's shape.
            .scrub_interval(Some(Duration::from_millis(20)));
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 32,
            publish_interval: 128,
            view_interval: 512,
            supervision: SupervisionConfig {
                // 4096 keys / interval 1024: the last checkpoint's sequence
                // can equal the final sequence — the tmp-path collision case.
                checkpoint_interval: 1024,
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let data = stream(4_096);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(90 + i as u64))
                .unwrap();
        // Deterministic scheduling: the first half crosses two checkpoint
        // intervals, and `sync` harvests those checkpoints, which hands
        // the (stalled) snapshot to the background thread before the rest
        // of the stream is routed.
        let (first, rest) = data.split_at(data.len() / 2);
        rt.insert_batch(first);
        rt.sync();
        rt.insert_batch(rest);
        let acked = rt.wal_checkpoint().unwrap();
        assert_eq!(acked, 4_096, "every routed key must be acked durable");
        // Wait until the snapshotter is provably inside a `.tmp` write (the
        // counter bumps before the stalled first byte), then finish while
        // it sleeps.
        let deadline = Instant::now() + Duration::from_secs(10);
        while slow.snap_writes.load(Ordering::Acquire) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            slow.snap_writes.load(Ordering::Acquire) >= 1,
            "a background snapshot must have been scheduled"
        );
        let (kernels, health) = rt.finish_with_health();
        let g = &health.shards[0];
        assert!(!g.durability_degraded, "clean disk, clean shutdown: {g:?}");
        // No torn tmp residue: the background job was joined, its tmp
        // either renamed away or cleaned up, before the final snapshot.
        let shard_dir = opts.shard_dir(0);
        for entry in std::fs::read_dir(&shard_dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "torn snapshot tmp left behind: {name}"
            );
        }
        // Offline scrub of the quiesced directory: nothing corrupt.
        let clean = asketch_durable::vfs::real();
        let report = scrub_shard_dir(&clean, &shard_dir, None).unwrap();
        assert_eq!(
            report.corrupt_found(),
            0,
            "mid-snapshot finish tore durable state: {report:?}"
        );
        // Cold restart over the clean backend: the durable prefix covers
        // every acked write exactly.
        let opts2 = DurabilityOptions::new(&dir).scrub_interval(None);
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts2, |i| kernel(90 + i as u64)).unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                kernels[0].estimate(key),
                "acked write lost across the mid-snapshot shutdown for key {key}"
            );
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Graceful-shutdown gauge invariant (and its hardest case): a wedged
    /// worker abandoned *during finish* left batches queued; the final
    /// health must read exactly zero queue depth — neither the residual
    /// count nor an underflow wrap from the abandoned worker's drain.
    #[test]
    fn queue_depth_gauge_is_exactly_zero_after_finish() {
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                queue_capacity: 64,
                checkpoint_interval: 1 << 20,
                shutdown_timeout: Duration::from_millis(50),
                max_restarts: 3,
                restart_backoff: Duration::from_millis(1),
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let make = |_: usize| {
            ASketch::new(
                VectorFilter::new(8),
                FaultyEstimator::new(
                    CountMin::new(7, 4, 1 << 12).unwrap(),
                    FaultPlan::slow_updates(200, Duration::from_millis(600)),
                ),
            )
        };
        let data = stream(600);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        rt.insert_batch(&data);
        // Finish while the worker is wedged mid-queue: it gets abandoned
        // with batches still queued on its channel.
        let (kernels, health) = rt.finish_with_health();
        let g = &health.shards[0];
        assert!(
            g.worker_failures >= 1,
            "the wedge must force an abandonment: {g:?}"
        );
        assert_eq!(g.queue_depth, 0, "gauge must drain to exactly zero: {g:?}");
        assert!(g.queue_depth <= g.queue_capacity, "underflow wrap: {g:?}");
        assert_eq!(g.routed_ops, 600);
        // And the journal restore still makes the kernel exact.
        let reference = {
            let mut k = ASketch::new(VectorFilter::new(8), CountMin::new(7, 4, 1 << 12).unwrap());
            for &key in &data {
                k.insert(key);
            }
            k
        };
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(kernels[0].estimate(key), reference.estimate(key));
        }
    }

    use asketch_durable::vfs::{FaultKind, FaultPlan as StorageFaultPlan, FaultVfs, VfsFile};
    use asketch_durable::ErrorClass;

    /// One-shard durable config with tight intervals so every fault test
    /// exercises the WAL on a handful of batches.
    fn faulty_cfg() -> ConcurrentConfig {
        ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                checkpoint_interval: 1 << 30, // no background snapshots unless asked
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn transient_wal_fault_retries_and_stays_durable() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("transient");
        // Exactly one write op fails (the first WAL append); the rollback
        // and the retried append succeed, so durability survives.
        let fault = Arc::new(FaultVfs::over_real(
            StorageFaultPlan::new(7).fail_once(FaultKind::Eio, 0),
        ));
        let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            .scrub_interval(None);
        let data = stream(4_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| kernel(80 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        let acked = rt
            .wal_checkpoint()
            .expect("transient fault must not surface");
        assert_eq!(acked, 4_000);
        assert_eq!(fault.injected(), 1, "the scripted fault must have fired");
        let health = rt.health();
        let g = &health.shards[0];
        assert!(
            !g.durability_degraded,
            "one transient fault must not degrade"
        );
        assert!(g.wal_retries >= 1, "the retry must be counted: {g:?}");
        assert!(g.last_durability_error.is_none());
        let (kernels, _) = rt.finish_with_health();
        // Cold restart over the clean backend: nothing acked was lost.
        let opts2 = DurabilityOptions::new(&dir).scrub_interval(None);
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts2, |i| kernel(80 + i as u64))
                .unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt2.estimate(key), kernels[0].estimate(key), "key {key}");
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_enospc_degrades_with_typed_error_and_correct_counts() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("enospc");
        // Every write op fails with ENOSPC from the fourth on: the WAL
        // rollback also fails (poisoning the writer), and the degraded
        // error must still carry the NoSpace class — callers distinguish
        // a full disk from corruption programmatically.
        let fault = Arc::new(FaultVfs::over_real(
            StorageFaultPlan::new(7).fail_from(FaultKind::Enospc, 3),
        ));
        let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            .policy(StoragePolicy {
                retries: 2,
                retry_backoff: Duration::ZERO,
            })
            .scrub_interval(None);
        let data = stream(6_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| kernel(81 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        rt.sync();
        let err = rt
            .wal_checkpoint()
            .expect_err("persistent ENOSPC must surface");
        assert_eq!(err.class(), ErrorClass::NoSpace, "typed root cause: {err}");
        let health = rt.health();
        let g = &health.shards[0];
        assert!(g.durability_degraded, "disk-sick mode must engage: {g:?}");
        assert!(health.any_durability_degraded());
        assert_eq!(health.degraded_durability_shards(), 1);
        assert_eq!(
            g.last_durability_error.as_ref().map(|f| f.class.as_str()),
            Some("no-space"),
            "gauge carries the class, not a string to parse: {g:?}"
        );
        // Ingest stays correct and one-sided while degraded.
        let reference = {
            let mut k = kernel(81);
            for &key in &data {
                k.insert(key);
            }
            k
        };
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt.estimate(key), reference.estimate(key), "key {key}");
        }
        let (kernels, final_health) = rt.finish_with_health();
        assert!(final_health.shards[0].durability_degraded);
        for &key in &keys {
            assert_eq!(kernels[0].estimate(key), reference.estimate(key));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`VfsFile`] whose writes always fail with one OS error code;
    /// everything else delegates (so `set_len` rollbacks succeed and the
    /// failure stays retryable → degrade, not poison).
    struct FailWriteFile {
        inner: Box<dyn VfsFile>,
        raw_os: i32,
    }

    impl VfsFile for FailWriteFile {
        fn write_all(&mut self, _: &[u8]) -> std::io::Result<()> {
            Err(std::io::Error::from_raw_os_error(self.raw_os))
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.inner.sync_data()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
    }

    /// Path-keyed fault backend: WAL appends under `shard-0000` fail with
    /// `EIO`, under `shard-0001` with `ENOSPC`, persistently. One
    /// [`FaultVfs`] plan cannot deterministically hand *different* classes
    /// to different shards, so this drives the multi-class health
    /// regression directly.
    struct ClassedShardVfs {
        inner: Arc<dyn Vfs>,
    }

    impl Vfs for ClassedShardVfs {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            let file = self.inner.open_append(path)?;
            let p = path.to_string_lossy();
            let raw_os = if p.contains("shard-0000") {
                5 // EIO
            } else if p.contains("shard-0001") {
                28 // ENOSPC
            } else {
                return Ok(file);
            };
            Ok(Box::new(FailWriteFile {
                inner: file,
                raw_os,
            }))
        }
        fn create_truncate(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.create_truncate(path)
        }
        fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.inner.open_write(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove_file(path)
        }
        fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
            self.inner.read_dir(dir)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.sync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// Multi-class degradation regression (ISSUE 7 satellite): two shards
    /// degrade with *distinct* `DurabilityError` classes and the health
    /// must carry both — the HEALTH frame reports per-shard classes and
    /// alarms on the worst, instead of the lossy first-shard-wins summary
    /// hiding `ENOSPC` behind `EIO`.
    #[test]
    fn two_shards_degraded_with_distinct_classes_both_surface_in_health() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("twoclass");
        let vfs: Arc<dyn Vfs> = Arc::new(ClassedShardVfs {
            inner: asketch_durable::vfs::real(),
        });
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            .policy(StoragePolicy {
                retries: 1,
                retry_backoff: Duration::ZERO,
            })
            .scrub_interval(None);
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                checkpoint_interval: 1 << 30,
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let data = stream(2_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(95 + i as u64)).unwrap();
        rt.insert_batch(&data);
        rt.sync();
        let health = rt.health();
        assert_eq!(health.degraded_durability_shards(), 2, "{health:?}");
        // The historical summary is lossy: shard 0's EIO wins, the ENOSPC
        // on shard 1 vanishes.
        assert_eq!(
            health.first_durability_error().map(|f| f.class.as_str()),
            Some("io")
        );
        // The per-shard view keeps both classes, keyed by shard.
        let errors = health.durability_errors();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0].0, 0);
        assert_eq!(errors[0].1.class, "io");
        assert_eq!(errors[1].0, 1);
        assert_eq!(errors[1].1.class, "no-space");
        // And the worst-class summary ranks exhaustion over plain I/O.
        let (worst_shard, worst) = health.worst_durability_error().unwrap();
        assert_eq!(worst_shard, 1);
        assert_eq!(worst.class, "no-space");
        // Counting stays exact on both degraded shards.
        let p = rt.partition();
        let reference = sequential_reference(&data, p, |i| kernel(95 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt.estimate(key), reference[p.shard_of(key)].estimate(key));
        }
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_fsync_failure_degrades_without_losing_counts() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("fsyncfail");
        let fault = Arc::new(FaultVfs::over_real(
            StorageFaultPlan::new(7).fail_from(FaultKind::FsyncFail, 0),
        ));
        let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .vfs(vfs)
            .policy(StoragePolicy {
                retries: 1,
                retry_backoff: Duration::ZERO,
            })
            .scrub_interval(None);
        let data = stream(3_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| kernel(82 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        rt.sync();
        assert!(rt.wal_checkpoint().is_err(), "fsync can never succeed");
        let health = rt.health();
        assert!(health.shards[0].durability_degraded);
        assert!(
            health.shards[0].wal_retries >= 1,
            "the failed fsync must have been retried: {:?}",
            health.shards[0]
        );
        // Counting is unaffected by the sick disk.
        let reference = {
            let mut k = kernel(82);
            for &key in &data {
                k.insert(key);
            }
            k
        };
        let (kernels, _) = rt.finish_with_health();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(kernels[0].estimate(key), reference.estimate(key));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_now_quarantines_bitrot_and_triggers_fresh_snapshot() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("scrubnow");
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .scrub_interval(None); // driven by scrub_now, deterministically
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                checkpoint_interval: 512, // frequent background snapshots
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let data = stream(8_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(83 + i as u64)).unwrap();
        rt.insert_batch(&data);
        rt.sync();
        // Wait for a background snapshot to land.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.health().shards[0].snapshot_seq == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let shard_dir = opts.shard_dir(0);
        let snaps = asketch_durable::list_snapshots(&shard_dir).unwrap();
        assert!(!snaps.is_empty(), "a background snapshot must have landed");
        // Bit-rot the newest snapshot on disk.
        let victim = &snaps.last().unwrap().1;
        let mut bytes = std::fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(victim, &bytes).unwrap();

        let reports = rt.scrub_now();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].quarantined.len(),
            1,
            "the scrubber must detect and quarantine the rot: {:?}",
            reports[0]
        );
        assert!(reports[0].wants_fresh_snapshot());
        assert!(!victim.exists(), "corrupt snapshot renamed to .corrupt");
        let g = &rt.health().shards[0];
        assert_eq!(g.scrub_passes, 1);
        assert_eq!(g.scrub_corruptions, 1);
        assert_eq!(g.snapshots_quarantined, 1);
        assert!(!g.durability_degraded, "bit-rot is repaired, not degrading");

        // More ingest drives a checkpoint → a fresh snapshot replaces the
        // quarantined one and re-arms WAL pruning.
        rt.insert_batch(&data);
        rt.sync();
        let (kernels, health) = rt.finish_with_health();
        assert!(
            health.shards[0].snapshot_seq > 0
                || !asketch_durable::list_snapshots(&shard_dir)
                    .unwrap()
                    .is_empty(),
            "a fresh snapshot must exist after the quarantine"
        );
        // A second scrub of the quiesced directory finds nothing.
        let vfs = asketch_durable::vfs::real();
        let report = scrub_shard_dir(&vfs, &shard_dir, None).unwrap();
        assert_eq!(report.corrupt_found(), 0, "post-recovery state is clean");
        // Cold restart: recovery ignores the `.corrupt` file and lands on
        // the finished state exactly.
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(faulty_cfg(), &opts, |i| kernel(83 + i as u64))
                .unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt2.estimate(key), kernels[0].estimate(key), "key {key}");
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_scrubber_thread_finds_rot_on_its_own() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("scrubbg");
        let opts = DurabilityOptions::new(&dir)
            .fsync(FsyncPolicy::PerBatch)
            .scrub_interval(Some(Duration::from_millis(30)));
        let cfg = ConcurrentConfig {
            shards: 1,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                checkpoint_interval: 512,
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let data = stream(8_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(84 + i as u64)).unwrap();
        rt.insert_batch(&data);
        rt.sync();
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.health().shards[0].snapshot_seq == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let shard_dir = opts.shard_dir(0);
        let snaps = asketch_durable::list_snapshots(&shard_dir).unwrap();
        assert!(!snaps.is_empty());
        let victim = &snaps.last().unwrap().1;
        let mut bytes = std::fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(victim, &bytes).unwrap();
        // The background thread must find and quarantine it by itself.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.health().shards[0].snapshots_quarantined == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let g = &rt.health().shards[0];
        assert!(g.scrub_passes >= 1, "scrubber must have run: {g:?}");
        assert_eq!(g.snapshots_quarantined, 1, "rot must be quarantined: {g:?}");
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Chaos: a tiny shard channel under a panicking worker. The channel
    /// fills (Full → backpressure policy), the panic abandons batches
    /// still queued in it, and fail-over replaces the channel wholesale —
    /// the journal restore covers the stranded batches, so nothing is lost
    /// and nothing is applied twice (the generation-check discipline).
    #[test]
    fn full_queue_backpressure_with_worker_panic_stays_exact() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                queue_capacity: 4, // 4 in-flight batches — fills constantly
                checkpoint_interval: 64,
                max_restarts: 3,
                restart_backoff: Duration::from_millis(1),
                send_timeout: Duration::from_millis(50),
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let make = |i: usize| {
            ASketch::new(
                VectorFilter::new(8),
                FaultyEstimator::new(
                    CountMin::new(140 + i as u64, 4, 1 << 12).unwrap(),
                    FaultPlan::panic_at(500).with_message("injected full-queue crash"),
                ),
            )
        };
        let data = stream(30_000);
        let mut rt = ConcurrentASketch::spawn(cfg, make);
        rt.insert_batch(&data);
        rt.sync();
        let health = rt.health();
        assert!(
            health.total_restarts() >= 1,
            "fault plan must trigger at least one restart: {health:?}"
        );
        assert!(!health.any_degraded(), "restart budget not exhausted");
        let p = rt.partition();
        let mut reference: Vec<_> = (0..2)
            .map(|i| {
                ASketch::new(
                    VectorFilter::new(8),
                    CountMin::new(140 + i as u64, 4, 1 << 12).unwrap(),
                )
            })
            .collect();
        for &key in &data {
            reference[p.shard_of(key)].insert(key);
        }
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "post-restart divergence for key {key}"
            );
        }
    }

    /// Pinning is best-effort: with `pin_workers` on, the runtime must
    /// behave identically whether or not the host lets `taskset` through,
    /// and the per-shard gauge must report a coherent outcome.
    #[test]
    fn pinned_workers_are_best_effort_and_exact() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            pin_workers: true,
            ..ConcurrentConfig::default()
        };
        let data = stream(10_000);
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(300 + i as u64));
        rt.insert_batch(&data);
        rt.sync();
        let cores = affinity::available_cores();
        for g in &rt.health().shards {
            if let Some(core) = g.pinned_core {
                assert_eq!(core, g.shard % cores, "worker pinned to the wrong core");
            }
        }
        let p = rt.partition();
        let reference = sequential_reference(&data, p, |i| kernel(300 + i as u64));
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(rt.estimate(key), reference[p.shard_of(key)].estimate(key));
        }
    }

    /// Group commit + deferred fsync surface through health, the deferred
    /// fsyncs actually run (no fatal parked), and the ack barrier still
    /// holds: after `wal_checkpoint` a reopened runtime answers exactly.
    #[test]
    fn group_commit_defers_fsyncs_and_survives_reopen() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("groupdefer");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::Interval(8));
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 16,
            publish_interval: 64,
            view_interval: 256,
            supervision: SupervisionConfig {
                checkpoint_interval: 1 << 30,
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        let data = stream(20_000);
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(400 + i as u64))
                .unwrap();
        rt.insert_batch(&data);
        rt.sync();
        let acked = rt.wal_checkpoint().unwrap();
        assert_eq!(acked, data.len() as u64);
        let health = rt.health();
        assert!(
            health.total_group_commits() >= 2,
            "records must coalesce into groups: {health:?}"
        );
        assert!(
            health.total_deferred_fsyncs() >= 1,
            "interval fsyncs must defer to the background syncer: {health:?}"
        );
        assert!(
            !health.any_durability_degraded(),
            "background fsyncs must not park a fatal: {health:?}"
        );
        let kernels = rt.finish();
        let (rt2, _) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(400 + i as u64)).unwrap();
        let mut keys: Vec<u64> = data.clone();
        keys.sort_unstable();
        keys.dedup();
        let p = rt2.partition();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                kernels[p.shard_of(key)].estimate(key),
                "reopen divergence for key {key}"
            );
        }
        drop(rt2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Split one client batch into per-shard slots for `insert_sessioned`.
    fn partitioned(p: KeyPartition, keys: &[u64]) -> Vec<Vec<u64>> {
        let mut slots = vec![Vec::new(); p.shards()];
        for &k in keys {
            slots[p.shard_of(k)].push(k);
        }
        slots
    }

    #[test]
    fn sessioned_retries_are_deduped_exactly_once() {
        let cfg = ConcurrentConfig {
            shards: 3,
            batch: 8,
            publish_interval: 16,
            view_interval: 64,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(i as u64));
        let p = rt.partition();
        assert_eq!(rt.hello(42, 0), 0);
        let batches: Vec<Vec<u64>> = (0..6u64)
            .map(|i| (0..5).map(|j| i * 3 + j % 4).collect())
            .collect();
        for (i, batch) in batches.iter().enumerate() {
            let seq = i as u64 + 1;
            let out = rt.insert_sessioned(42, seq, &mut partitioned(p, batch));
            assert_eq!(out.applied, batch.len());
            assert!(!out.duplicate);
            // Retry storm: the same seq any number of times is a no-op.
            for _ in 0..3 {
                let retry = rt.insert_sessioned(42, seq, &mut partitioned(p, batch));
                assert_eq!(retry.applied, 0, "retry of seq {seq} re-applied keys");
                assert!(retry.duplicate);
            }
        }
        // Replay the entire window once more, in order.
        for (i, batch) in batches.iter().enumerate() {
            let out = rt.insert_sessioned(42, i as u64 + 1, &mut partitioned(p, batch));
            assert_eq!(out.applied, 0);
        }
        rt.sync();
        let all: Vec<u64> = batches.iter().flatten().copied().collect();
        let reference = sequential_reference(&all, p, |i| kernel(i as u64));
        let mut keys = all.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "retries double-counted key {key}"
            );
        }
        rt.finish();
    }

    #[test]
    fn sessioned_marks_survive_restart_and_still_dedup() {
        use asketch::FsyncPolicy;
        let dir = tmp_dir("sess");
        let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::PerBatch);
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 8,
            publish_interval: 16,
            view_interval: 64,
            ..ConcurrentConfig::default()
        };
        let batches: Vec<Vec<u64>> = (0..4u64).map(|i| vec![i, i + 1, 7]).collect();
        let (mut rt, _) =
            ConcurrentASketch::spawn_durable(cfg.clone(), &opts, |i| kernel(50 + i as u64))
                .unwrap();
        let p = rt.partition();
        rt.hello(9, 0);
        for (i, batch) in batches.iter().enumerate() {
            let out = rt.insert_sessioned(9, i as u64 + 1, &mut partitioned(p, batch));
            assert_eq!(out.applied, batch.len());
        }
        rt.sync();
        rt.wal_checkpoint().unwrap();
        rt.finish();
        // Restart: the client reconnects knowing nothing was acked past
        // seq 2 (say) and replays 3 and 4 — plus a stale retry of 1.
        let (mut rt2, reports) =
            ConcurrentASketch::spawn_durable(cfg, &opts, |i| kernel(50 + i as u64)).unwrap();
        assert!(
            reports.iter().any(|r| !r.sessions.is_empty()),
            "recovery must surface the session marks: {reports:?}"
        );
        let resumable = rt2.hello(9, 0);
        assert_eq!(
            resumable, 4,
            "all four writes were durable before the restart"
        );
        for (i, batch) in batches.iter().enumerate() {
            let out = rt2.insert_sessioned(9, i as u64 + 1, &mut partitioned(p, batch));
            assert_eq!(out.applied, 0, "replayed seq {} re-applied", i + 1);
            assert!(out.duplicate);
        }
        // A genuinely new write still lands.
        let fresh = vec![3u64, 7];
        let out = rt2.insert_sessioned(9, 5, &mut partitioned(p, &fresh));
        assert_eq!(out.applied, fresh.len());
        rt2.sync();
        let mut all: Vec<u64> = batches.iter().flatten().copied().collect();
        all.extend_from_slice(&fresh);
        let reference = sequential_reference(&all, p, |i| kernel(50 + i as u64));
        let mut keys = all.clone();
        keys.sort_unstable();
        keys.dedup();
        for &key in &keys {
            assert_eq!(
                rt2.estimate(key),
                reference[p.shard_of(key)].estimate(key),
                "post-restart replay double-counted key {key}"
            );
        }
        rt2.finish();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_insert_sessioned_acks_duplicates_even_when_backed_up() {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 4,
            ..ConcurrentConfig::default()
        };
        let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(i as u64));
        let p = rt.partition();
        let batch = vec![1u64, 2, 3, 4];
        let out = rt
            .try_insert_sessioned(5, 1, &mut partitioned(p, &batch), usize::MAX)
            .expect("channel has room");
        assert_eq!(out.applied, batch.len());
        // With a zero-depth probe a *fresh* write may be shed, but a
        // fully-deduped retry must still come back as an ack — the
        // client needs it and dedup ships nothing.
        let dup = rt
            .try_insert_sessioned(5, 1, &mut partitioned(p, &batch), usize::MAX)
            .expect("duplicate must be admitted");
        assert!(dup.duplicate);
        assert_eq!(rt.session_count(), 1);
        rt.finish();
    }

    mod session_proptests {
        use super::*;
        use streamgen::prop::{check, Gen};

        /// One step of a client's life: issue the next write, replay the
        /// unacked window (a reconnect), or observe a sync barrier's acks
        /// (trim the window).
        enum Op {
            Advance(Vec<u64>),
            Replay,
            Trim,
        }

        fn op(g: &mut Gen) -> Op {
            match g.any::<u64>() % 6 {
                0..=2 => {
                    let n = 1 + g.any::<u64>() % 5;
                    Op::Advance((0..n).map(|_| g.any::<u64>() % 12).collect())
                }
                3 | 4 => Op::Replay,
                _ => Op::Trim,
            }
        }

        /// Session-seq dedup is idempotent under arbitrary retry
        /// interleavings: whatever mix of advances, whole-window
        /// replays, and ack-trims the client performs, every issued
        /// batch counts exactly once.
        #[test]
        fn sessioned_dedup_is_idempotent_under_retries() {
            check("sessioned_dedup_is_idempotent_under_retries", 24, |g| {
                let ops = g.vec(1..40, op);
                let cfg = ConcurrentConfig {
                    shards: 2,
                    batch: 4,
                    publish_interval: 8,
                    view_interval: 32,
                    ..ConcurrentConfig::default()
                };
                let mut rt = ConcurrentASketch::spawn(cfg, |i| kernel(i as u64));
                let p = rt.partition();
                rt.hello(1, 0);
                let mut next_seq = 1u64;
                let mut unacked: Vec<(u64, Vec<u64>)> = Vec::new();
                let mut issued: Vec<u64> = Vec::new();
                for op in &ops {
                    match op {
                        Op::Advance(batch) => {
                            let seq = next_seq;
                            next_seq += 1;
                            issued.extend_from_slice(batch);
                            unacked.push((seq, batch.clone()));
                            rt.insert_sessioned(1, seq, &mut partitioned(p, batch));
                        }
                        Op::Replay => {
                            for (seq, batch) in unacked.clone() {
                                let out = rt.insert_sessioned(1, seq, &mut partitioned(p, &batch));
                                assert_eq!(out.applied, 0, "replay re-applied seq {}", seq);
                            }
                        }
                        Op::Trim => unacked.clear(),
                    }
                }
                rt.sync();
                let reference = sequential_reference(&issued, p, |i| kernel(i as u64));
                let mut keys = issued.clone();
                keys.sort_unstable();
                keys.dedup();
                for &key in &keys {
                    assert_eq!(
                        rt.estimate(key),
                        reference[p.shard_of(key)].estimate(key),
                        "key {} not counted exactly once",
                        key
                    );
                }
                rt.finish();
            });
        }
    }
}
