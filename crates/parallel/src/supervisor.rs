//! Supervision shared by the pipeline and sharded runtimes: typed errors,
//! backpressure/restart policy, runtime health, the checkpoint/replay
//! journal that makes worker faults *lossless*, and `Supervised`, the one
//! supervised worker link every runtime drives.
//!
//! # Fault model
//!
//! The worker owns the only authoritative copy of its kernel, so a worker
//! panic would normally lose every shipped update. The link avoids that
//! with a checkpoint + journal protocol:
//!
//! * every counting message shipped to the worker carries a monotonically
//!   increasing sequence number and is also recorded in a caller-side
//!   [`Journal`];
//! * every `checkpoint_interval` counting ops the worker clones its kernel
//!   and sends `(last_applied_seq, snapshot)` back on the (never
//!   blocking, unbounded) reply channel;
//! * on receiving a checkpoint the caller prunes journal entries with
//!   `seq <= last_applied_seq`.
//!
//! After a fault, `snapshot + replay(journal)` reconstructs *exactly* the
//! state the worker would have reached had it applied every shipped
//! message: entries at or below the checkpoint's sequence number are
//! inside the snapshot, entries above it are replayed once. No update is
//! lost and none is double counted, so the one-sided estimate guarantee
//! survives every failure mode. Journal memory is bounded by the
//! checkpoint interval plus the channel capacity.
//!
//! # The link
//!
//! `Supervised` owns the bounded channel to the worker, the caller-side
//! spill, the journal, the restart budget and the inline kernel of
//! degraded mode. A runtime supplies only what differs through
//! `Worker`: the worker loop it spawns, which counting ops a message
//! carries, and a hook for when a journal-restored kernel takes over.
//! Shutdown is a disconnect: dropping the sender lets the worker drain
//! what is queued and return its kernel. Every timeout names the
//! operation that waited ([`WorkerOp`]).

use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sketches::traits::Supervisable;

use crate::channel::{self, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError};

/// What the caller does when the bounded forward queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the caller until the worker drains the queue. Simple, exact,
    /// and memory-bounded; the producing thread stalls under overload.
    #[default]
    Block,
    /// Never block on a full queue: divert the update to a bounded
    /// caller-side spill buffer that is flushed opportunistically on later
    /// channel interactions. FIFO order toward the worker is preserved
    /// (once anything is spilled, subsequent updates queue behind it) and
    /// point queries cover spilled-but-unsent mass, so estimates remain
    /// one-sided. If the spill buffer itself fills, the caller degrades to
    /// blocking — updates are *never* dropped.
    InlineFallback,
}

/// Tunables for a supervised pipeline runtime.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Capacity of the bounded caller → worker channel.
    pub queue_capacity: usize,
    /// Reaction to a full forward queue.
    pub backpressure: BackpressurePolicy,
    /// Capacity of the caller-side spill buffer used by
    /// [`BackpressurePolicy::InlineFallback`].
    pub spill_capacity: usize,
    /// Counting messages between worker checkpoints (snapshots shipped
    /// back to the caller). Smaller values shrink the replay journal and
    /// the recovery window at the cost of more cloning.
    pub checkpoint_interval: u64,
    /// How long a point-query round trip may take before it counts as a
    /// timeout.
    pub estimate_timeout: Duration,
    /// How long a blocking send (full-queue wait under
    /// [`BackpressurePolicy::Block`] or a synchronous spill flush) or a
    /// sync barrier round trip may wait before the worker is declared
    /// wedged.
    /// Kept separate from [`estimate_timeout`](Self::estimate_timeout)
    /// because a healthy-but-slow worker legitimately needs worst-case
    /// *queue-drain* time here (e.g. a long checkpoint clone of a large
    /// sketch), which can far exceed a reasonable query-latency bound.
    pub send_timeout: Duration,
    /// Extra attempts for a timed-out estimate round trip before the
    /// worker is declared wedged and failed over.
    pub estimate_retries: u32,
    /// Worker respawns allowed before the runtime stays in degraded
    /// inline mode for good.
    pub max_restarts: u32,
    /// Base delay before a worker respawn; doubles per restart (capped at
    /// 32x).
    pub restart_backoff: Duration,
    /// Upper bound on how long `finish`/`Drop` wait for the worker to
    /// exit before abandoning the thread and reconstructing the sketch
    /// from the journal. Guarantees teardown never hangs.
    pub shutdown_timeout: Duration,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block,
            spill_capacity: 8192,
            checkpoint_interval: 1024,
            estimate_timeout: Duration::from_secs(2),
            send_timeout: Duration::from_secs(30),
            estimate_retries: 2,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(5),
            shutdown_timeout: Duration::from_secs(5),
        }
    }
}

impl SupervisionConfig {
    /// Backoff before restart number `restart` (1-based): exponential in
    /// the restart count, capped at 32x the base.
    pub(crate) fn backoff_for(&self, restart: u64) -> Duration {
        let exp = restart.saturating_sub(1).min(5) as u32;
        self.restart_backoff * (1u32 << exp)
    }
}

/// A blocking operation on a worker link, named by the timeout it raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOp {
    /// A send waiting for room on a full queue (blocking backpressure or
    /// a synchronous spill flush).
    Send,
    /// A sync barrier round trip.
    Sync,
    /// A point-query round trip.
    Estimate,
    /// Waiting for the worker to drain its queue and exit.
    Shutdown,
}

impl std::fmt::Display for WorkerOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkerOp::Send => "blocking send to the worker",
            WorkerOp::Sync => "sync round trip",
            WorkerOp::Estimate => "estimate round trip",
            WorkerOp::Shutdown => "worker shutdown",
        })
    }
}

/// Typed failures surfaced by the supervised runtimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The worker thread panicked; the payload is the panic message.
    WorkerPanicked(String),
    /// The worker's channel disconnected without a panic payload.
    Disconnected,
    /// A blocking operation on the worker link ran out of time (after
    /// retries, where the operation has any).
    Timeout(WorkerOp),
    /// An SPMD shard kept panicking after every permitted attempt.
    ShardFailed {
        /// Index of the failing shard.
        shard: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Panic message of the last attempt.
        payload: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::WorkerPanicked(p) => write!(f, "sketch worker panicked: {p}"),
            PipelineError::Disconnected => write!(f, "sketch worker channel disconnected"),
            PipelineError::Timeout(op) => write!(f, "{op} timed out"),
            PipelineError::ShardFailed {
                shard,
                attempts,
                payload,
            } => {
                write!(
                    f,
                    "SPMD shard {shard} failed after {attempts} attempts: {payload}"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Counters describing a supervised pipeline run; the observability
/// surface the chaos tests (and operators) assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Counting messages shipped to the worker (tuples for the ASketch
    /// pipeline, batches for the H-UDAF pipeline).
    pub forwarded: u64,
    /// Filter ⇄ sketch exchanges applied (ASketch pipeline only).
    pub exchanges: u64,
    /// Times the bounded forward queue was found full.
    pub queue_full_events: u64,
    /// Updates diverted to the spill buffer under
    /// [`BackpressurePolicy::InlineFallback`].
    pub spilled: u64,
    /// Updates applied on the caller in degraded inline mode.
    pub inline_updates: u64,
    /// Request round trips (estimates, sync barriers) that timed out,
    /// retries included.
    pub estimate_timeouts: u64,
    /// Worker faults observed (panic, disconnect, or wedge).
    pub worker_failures: u64,
    /// Worker respawns performed.
    pub restarts: u64,
    /// Checkpoints received from the worker.
    pub checkpoints: u64,
    /// Whether the runtime is currently in degraded inline mode.
    pub degraded: bool,
}

/// Condensed liveness/fault view derived from [`PipelineStats`] plus the
/// most recent error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Whether updates are currently applied inline on the caller.
    pub degraded: bool,
    /// Worker respawns performed so far.
    pub restarts: u64,
    /// Worker faults observed so far.
    pub worker_failures: u64,
    /// Human-readable description of the most recent fault, if any.
    pub last_error: Option<String>,
}

/// The caller-side checkpoint + replay journal (see module docs).
///
/// Entries are `(seq, key, delta)`; several entries may share one `seq`
/// when a single message carries a batch.
#[derive(Debug)]
pub(crate) struct Journal<S> {
    snapshot: S,
    snapshot_seq: u64,
    next_seq: u64,
    entries: VecDeque<(u64, u64, i64)>,
}

impl<S: Supervisable> Journal<S> {
    /// Start journaling against `snapshot` (the worker's initial state).
    pub fn new(snapshot: S) -> Self {
        Self {
            snapshot,
            snapshot_seq: 0,
            next_seq: 1,
            entries: VecDeque::new(),
        }
    }

    /// Sequence number of the snapshot currently held.
    #[cfg(test)]
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Reserve the next sequence number for a message whose ops are then
    /// recorded individually via [`Journal::record_at`].
    pub fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Record one `(key, delta)` op and return its sequence number.
    #[cfg(test)]
    pub fn record(&mut self, key: u64, delta: i64) -> u64 {
        let seq = self.next_seq();
        self.entries.push_back((seq, key, delta));
        seq
    }

    /// Record one pair of a batch under an already reserved `seq`.
    pub fn record_at(&mut self, seq: u64, key: u64, delta: i64) {
        debug_assert!(seq < self.next_seq);
        self.entries.push_back((seq, key, delta));
    }

    /// Drop the most recently recorded entry (it was diverted away from
    /// the worker before being sent). Only valid immediately after the
    /// matching [`Journal::record`].
    #[cfg(test)]
    pub fn unrecord(&mut self, seq: u64) {
        if let Some(&(last, _, _)) = self.entries.back() {
            if last == seq {
                self.entries.pop_back();
            }
        }
    }

    /// Install a newer snapshot from the worker and prune covered entries.
    pub fn on_checkpoint(&mut self, seq: u64, snapshot: S) {
        if seq < self.snapshot_seq {
            return; // stale (can happen right after a restart)
        }
        self.snapshot = snapshot;
        self.snapshot_seq = seq;
        while self.entries.front().is_some_and(|&(s, _, _)| s <= seq) {
            self.entries.pop_front();
        }
    }

    /// Reconstruct the full worker state: snapshot plus one replay of
    /// every journaled op above the snapshot's sequence number.
    pub fn restore(&self) -> S {
        let mut sketch = self.snapshot.clone();
        for &(seq, key, delta) in &self.entries {
            if seq > self.snapshot_seq {
                sketch.update(key, delta);
            }
        }
        sketch
    }

    /// Re-baseline after a restart: `base` becomes the snapshot covering
    /// every sequence number assigned so far, and the entry log empties.
    pub fn reset(&mut self, base: S) {
        self.snapshot = base;
        self.snapshot_seq = self.next_seq - 1;
        self.entries.clear();
    }

    /// Number of journaled (not yet checkpoint-covered) entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Traffic from a supervised worker back to its caller.
pub(crate) enum FromWorker<K, N> {
    /// A snapshot of the worker's kernel, tagged with the last journal
    /// sequence it applied. Prunes the caller's journal.
    Checkpoint { seq: u64, snapshot: K },
    /// Runtime-specific traffic (the ASketch pipeline's promotion
    /// suggestions).
    Note(N),
}

/// Worker-side checkpoint cadence: every `checkpoint_interval` counting
/// ops the worker ships a clone of its kernel back to the caller.
pub(crate) struct CheckpointClock {
    interval: u64,
    since: u64,
}

impl CheckpointClock {
    pub fn new(cfg: &SupervisionConfig) -> Self {
        Self {
            interval: cfg.checkpoint_interval.max(1),
            since: 0,
        }
    }

    /// Count `ops` counting ops applied under `seq`, shipping a checkpoint
    /// once one is due.
    pub fn tick<K: Clone, N>(
        &mut self,
        seq: u64,
        ops: u64,
        kernel: &K,
        out: &Sender<FromWorker<K, N>>,
    ) {
        self.since += ops;
        if self.since >= self.interval {
            self.since = 0;
            // The caller may already be gone during teardown.
            let _ = out.send(FromWorker::Checkpoint {
                seq,
                snapshot: kernel.clone(),
            });
        }
    }
}

/// What a runtime supplies to its [`Supervised`] link.
pub(crate) trait Worker<K> {
    /// Messages from the caller to the worker.
    type Msg: Send + 'static;
    /// Runtime-specific replies that ride beside checkpoints.
    type Note: Send + 'static;

    /// Start a worker thread that owns `kernel`, applies messages from
    /// `rx` until the channel disconnects, reports on `out`, and returns
    /// its kernel.
    fn spawn(
        &mut self,
        kernel: K,
        rx: Receiver<Self::Msg>,
        out: Sender<FromWorker<K, Self::Note>>,
        cfg: &SupervisionConfig,
    ) -> JoinHandle<K>;

    /// Every `(key, delta)` counting op `msg` carries; they are journaled
    /// before `msg` is shipped.
    fn ops(msg: &Self::Msg, op: impl FnMut(u64, i64));

    /// A kernel rebuilt from checkpoint + journal is about to replace the
    /// worker's, whether respawned, kept inline, or returned by `finish`.
    fn restored(&mut self, _kernel: &K) {}
}

/// The channel endpoints and join handle of a live worker.
struct Link<K, M, N> {
    tx: Sender<M>,
    rx: Receiver<FromWorker<K, N>>,
    handle: JoinHandle<K>,
}

/// Wait until `deadline` for `handle`'s thread to exit, then join it.
/// `None` if it is still running: the thread is abandoned, and it exits
/// once it reaches its disconnected channel.
pub(crate) fn join_by<K>(
    handle: JoinHandle<K>,
    deadline: Instant,
) -> Option<std::thread::Result<K>> {
    while !handle.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.is_finished().then(|| handle.join())
}

/// One supervised worker link: the bounded channel to a worker thread,
/// the caller-side spill, the replay journal, bounded restarts, and the
/// inline kernel once the restart budget is spent (see the module docs).
///
/// Callers check [`inline_mut`](Self::inline_mut) first: a degraded link
/// applies updates inline and ships nothing.
pub(crate) struct Supervised<K: Supervisable, W: Worker<K>> {
    /// The live worker; `None` once degraded (or finished).
    link: Option<Link<K, W::Msg, W::Note>>,
    /// The kernel applied on the caller in degraded mode.
    inline: Option<K>,
    /// Caller-side FIFO used by [`BackpressurePolicy::InlineFallback`].
    spill: VecDeque<W::Msg>,
    journal: Journal<K>,
    cfg: SupervisionConfig,
    stats: PipelineStats,
    last_error: Option<PipelineError>,
    worker: W,
}

impl<K: Supervisable, W: Worker<K>> Supervised<K, W> {
    /// Start a worker owning `kernel`.
    pub fn spawn(kernel: K, cfg: SupervisionConfig, mut worker: W) -> Self {
        let journal = Journal::new(kernel.clone());
        let link = Self::start(&mut worker, kernel, &cfg);
        Self {
            link: Some(link),
            inline: None,
            spill: VecDeque::new(),
            journal,
            cfg,
            stats: PipelineStats::default(),
            last_error: None,
            worker,
        }
    }

    fn start(worker: &mut W, kernel: K, cfg: &SupervisionConfig) -> Link<K, W::Msg, W::Note> {
        let (tx, rx) = channel::bounded(cfg.queue_capacity);
        // Replies are unbounded: the worker must never block on the
        // caller, and the caller drains them on every touch.
        let (out_tx, out_rx) = channel::unbounded();
        let handle = worker.spawn(kernel, rx, out_tx, cfg);
        Link {
            tx,
            rx: out_rx,
            handle,
        }
    }

    /// Whether a worker is up (not degraded, not finished).
    pub fn is_live(&self) -> bool {
        self.link.is_some()
    }

    /// The inline kernel and the worker hooks once degraded; `None` while
    /// a worker is up.
    pub fn inline_mut(&mut self) -> Option<(&mut K, &W)> {
        let kernel = self.inline.as_mut()?;
        Some((kernel, &self.worker))
    }

    /// The runtime's worker hooks.
    pub fn worker(&self) -> &W {
        &self.worker
    }

    /// The supervision parameters.
    pub fn config(&self) -> &SupervisionConfig {
        &self.cfg
    }

    /// Runtime counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Runtime counters, for the runtime-specific ones (forwards,
    /// exchanges, inline updates).
    pub fn stats_mut(&mut self) -> &mut PipelineStats {
        &mut self.stats
    }

    /// The most recent worker fault, if any.
    pub fn last_error(&self) -> Option<&PipelineError> {
        self.last_error.as_ref()
    }

    /// Condensed health view.
    pub fn health(&self) -> RuntimeHealth {
        RuntimeHealth {
            degraded: self.stats.degraded,
            restarts: self.stats.restarts,
            worker_failures: self.stats.worker_failures,
            last_error: self.last_error.as_ref().map(|e| e.to_string()),
        }
    }

    /// Messages queued on the channel and not yet taken by the worker (0
    /// when no worker is up). Tops out at `queue_capacity`.
    pub fn queue_len(&self) -> usize {
        self.link.as_ref().map_or(0, |l| l.tx.len())
    }

    /// Whether one more shipped message stays within `bound` queued
    /// messages (clamped to the channel's capacity). A degraded link
    /// applies inline, so it always has room; a non-empty spill means the
    /// channel is already backed up past its capacity.
    pub fn has_room(&self, bound: usize) -> bool {
        if self.link.is_none() {
            return true;
        }
        self.spill.is_empty() && self.queue_len() < bound.min(self.cfg.queue_capacity).max(1)
    }

    /// Reserve the next journal sequence number for a message.
    pub fn next_seq(&mut self) -> u64 {
        self.journal.next_seq()
    }

    /// Journal every counting op of `msg` under `seq` (reserved with
    /// [`next_seq`](Self::next_seq)), then ship it under the backpressure
    /// policy. No failure mode can lose it: a fail-over replays it from
    /// the journal.
    pub fn ship(&mut self, seq: u64, msg: W::Msg) {
        debug_assert!(self.link.is_some(), "a degraded link applies inline");
        let journal = &mut self.journal;
        W::ops(&msg, |key, delta| journal.record_at(seq, key, delta));
        // FIFO: anything spilled earlier goes first, so wire order always
        // matches journal order.
        //
        // `worker_failures` doubles as a fail-over generation counter: if
        // the flush fails over, `msg` (already journaled) is folded into
        // the restored kernel, whether the link then degraded or
        // *restarted* (journal re-baselined past `seq`). Either way `msg`
        // must be abandoned here, or the new worker would apply it twice.
        let generation = self.stats.worker_failures;
        self.flush_spill_try();
        if self.stats.worker_failures != generation || self.link.is_none() {
            return;
        }
        if !self.spill.is_empty() {
            self.push_spill(msg);
            return;
        }
        let Some(link) = self.link.as_ref() else {
            return;
        };
        match link.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(m)) => {
                self.stats.queue_full_events += 1;
                match self.cfg.backpressure {
                    BackpressurePolicy::Block => {
                        self.send_sync(m);
                    }
                    BackpressurePolicy::InlineFallback => self.push_spill(m),
                }
            }
            Err(TrySendError::Disconnected(_)) => self.fail_over(PipelineError::Disconnected),
        }
    }

    /// Best-effort send of a message that carries no counting op: dropped
    /// if anything is spilled or the queue is full.
    pub fn offer(&mut self, msg: W::Msg) {
        if let (Some(link), true) = (self.link.as_ref(), self.spill.is_empty()) {
            let _ = link.tx.try_send(msg);
        }
    }

    /// Flush as much of the spill queue as fits without blocking.
    pub fn flush_spill_try(&mut self) {
        while let Some(msg) = self.spill.pop_front() {
            let Some(link) = self.link.as_ref() else {
                return;
            };
            match link.tx.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(m)) => {
                    self.spill.push_front(m);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    // The message is journaled; the restore covers it.
                    self.fail_over(PipelineError::Disconnected);
                    return;
                }
            }
        }
    }

    /// Flush the whole spill queue, waiting for channel space; a worker
    /// that stays wedged past the send timeout is failed over (the journal
    /// keeps every spilled op either way).
    fn flush_spill_sync(&mut self) {
        while let Some(msg) = self.spill.pop_front() {
            if !self.send_sync(msg) {
                return;
            }
        }
    }

    /// Append to the spill queue, degrading to a synchronous flush when
    /// the spill itself is full: memory stays bounded, nothing is dropped.
    fn push_spill(&mut self, msg: W::Msg) {
        if self.spill.len() >= self.cfg.spill_capacity.max(1) {
            // Generation check, as in `ship`: a fail-over during the flush
            // already folded the journaled `msg` into the restore.
            let generation = self.stats.worker_failures;
            self.flush_spill_sync();
            if self.stats.worker_failures != generation || self.link.is_none() {
                return;
            }
        }
        self.stats.spilled += 1;
        self.spill.push_back(msg);
    }

    /// Blocking send bounded by the send timeout; a worker that stays
    /// wedged past it, or whose channel is gone, is failed over. Returns
    /// whether `msg` was sent.
    fn send_sync(&mut self, msg: W::Msg) -> bool {
        let Some(link) = self.link.as_ref() else {
            return false;
        };
        match link.tx.send_timeout(msg, self.cfg.send_timeout) {
            Ok(()) => true,
            Err(SendTimeoutError::Timeout(_)) => {
                self.fail_over(PipelineError::Timeout(WorkerOp::Send));
                false
            }
            Err(SendTimeoutError::Disconnected(_)) => {
                self.fail_over(PipelineError::Disconnected);
                false
            }
        }
    }

    /// Take everything the worker sent back. Each checkpoint is shown to
    /// `on_checkpoint` (durable shards schedule snapshots from it) and
    /// then prunes the journal; notes are returned in arrival order.
    pub fn harvest(&mut self, mut on_checkpoint: impl FnMut(u64, &K)) -> Vec<W::Note> {
        let mut notes = Vec::new();
        let Some(link) = self.link.as_ref() else {
            return notes;
        };
        while let Ok(msg) = link.rx.try_recv() {
            match msg {
                FromWorker::Checkpoint { seq, snapshot } => {
                    self.stats.checkpoints += 1;
                    on_checkpoint(seq, &snapshot);
                    self.journal.on_checkpoint(seq, snapshot);
                }
                FromWorker::Note(note) => notes.push(note),
            }
        }
        notes
    }

    /// Timed request/reply round trip: flush the spill so the answer
    /// covers every shipped op, send the request `make` builds around a
    /// reply sender, and wait for the reply. Estimates wait
    /// `estimate_timeout` and retry `estimate_retries` times; a sync
    /// barrier waits `send_timeout` once. A dead or wedged worker is
    /// failed over and the round trip repeated against its replacement.
    /// `None` once degraded: the caller answers from the inline kernel.
    pub fn round_trip<T>(&mut self, op: WorkerOp, make: impl Fn(Sender<T>) -> W::Msg) -> Option<T> {
        let (timeout, retries) = match op {
            WorkerOp::Estimate => (self.cfg.estimate_timeout, self.cfg.estimate_retries),
            _ => (self.cfg.send_timeout, 0),
        };
        // Bounded: every pass that fails consumes a restart or degrades.
        loop {
            self.flush_spill_sync();
            let link = self.link.as_ref()?;
            let mut timeouts = 0u32;
            let error = loop {
                let (reply_tx, reply_rx) = channel::bounded(1);
                let lost = match link.tx.send_timeout(make(reply_tx), timeout) {
                    Ok(()) => match reply_rx.recv_timeout(timeout) {
                        Ok(v) => return Some(v),
                        Err(RecvTimeoutError::Timeout) => false,
                        Err(RecvTimeoutError::Disconnected) => true,
                    },
                    Err(SendTimeoutError::Timeout(_)) => false,
                    Err(SendTimeoutError::Disconnected(_)) => true,
                };
                if lost {
                    break PipelineError::Disconnected;
                }
                self.stats.estimate_timeouts += 1;
                timeouts += 1;
                if timeouts > retries {
                    break PipelineError::Timeout(op);
                }
            };
            self.fail_over(error);
        }
    }

    /// Point query against the worker's kernel: an estimate round trip
    /// (see [`round_trip`](Self::round_trip)) while a worker is up, the
    /// inline kernel once degraded.
    pub fn estimate(&mut self, key: u64, make: impl Fn(Sender<i64>) -> W::Msg) -> i64 {
        match self.round_trip(WorkerOp::Estimate, make) {
            Some(v) => v,
            None => self
                .inline
                .as_ref()
                .expect("a degraded link keeps its inline kernel")
                .estimate(key),
        }
    }

    /// Tear down the failed worker, rebuild its kernel from checkpoint +
    /// journal, and respawn it (restart budget permitting, after backoff)
    /// or keep it inline for good. Idempotent once degraded.
    fn fail_over(&mut self, error: PipelineError) {
        let Some(link) = self.link.take() else { return };
        self.stats.worker_failures += 1;
        // Checkpoints already queued tighten the journal, so the replay
        // below is as short as possible.
        while let Ok(msg) = link.rx.try_recv() {
            if let FromWorker::Checkpoint { seq, snapshot } = msg {
                self.stats.checkpoints += 1;
                self.journal.on_checkpoint(seq, snapshot);
            }
        }
        drop(link.tx);
        // Give a just-panicked thread a beat to unwind so its payload can
        // be harvested; a wedged thread is abandoned (it exits once it
        // reaches the disconnected channel).
        if !link.handle.is_finished() {
            std::thread::sleep(Duration::from_millis(2));
        }
        let error = match join_by(link.handle, Instant::now()) {
            Some(Err(payload)) => PipelineError::WorkerPanicked(panic_message(payload)),
            _ => error,
        };
        self.last_error = Some(error);
        // Spilled-but-unsent messages are journaled; the restore replays
        // them, so the spill itself can go.
        self.spill.clear();
        let restored = self.journal.restore();
        self.worker.restored(&restored);
        if self.stats.restarts < u64::from(self.cfg.max_restarts) {
            self.stats.restarts += 1;
            let backoff = self.cfg.backoff_for(self.stats.restarts);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            self.journal.reset(restored.clone());
            self.link = Some(Self::start(&mut self.worker, restored, &self.cfg));
            self.stats.degraded = false;
        } else {
            self.stats.degraded = true;
            self.inline = Some(restored);
        }
    }

    /// Drop the sender so the worker drains what is queued and exits.
    /// Returns its join handle (`None` when no worker is up), so a runtime
    /// with several links can wind them all down under one deadline.
    pub fn disconnect(&mut self) -> Option<JoinHandle<K>> {
        self.link.take().map(|link| link.handle)
    }

    /// Wind the link down and return the kernel, within
    /// `shutdown_timeout`: the spill is flushed, the worker disconnected
    /// and joined. A worker that panicked or stays wedged is replaced by
    /// the journal reconstruction and counted as a failure. Never hangs.
    pub fn finish(&mut self) -> K {
        self.flush_spill_sync();
        let Some(handle) = self.disconnect() else {
            return match self.inline.take() {
                Some(kernel) => kernel,
                None => self.journal.restore(),
            };
        };
        let error = match join_by(handle, Instant::now() + self.cfg.shutdown_timeout) {
            Some(Ok(kernel)) => return kernel,
            Some(Err(payload)) => PipelineError::WorkerPanicked(panic_message(payload)),
            None => PipelineError::Timeout(WorkerOp::Shutdown),
        };
        self.stats.worker_failures += 1;
        self.stats.degraded = true;
        self.last_error = Some(error);
        let kernel = self.journal.restore();
        self.worker.restored(&kernel);
        kernel
    }
}

impl<K: Supervisable, W: Worker<K>> Drop for Supervised<K, W> {
    /// Bounded teardown for links dropped without `finish`: disconnect and
    /// wait up to `shutdown_timeout`, abandoning a wedged worker. Never
    /// hangs, never panics.
    fn drop(&mut self) {
        if let Some(handle) = self.disconnect() {
            let _ = join_by(handle, Instant::now() + self.cfg.shutdown_timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches::{CountMin, FrequencyEstimator};

    fn cms() -> CountMin {
        CountMin::new(3, 4, 1 << 10).unwrap()
    }

    #[test]
    fn restore_replays_everything_past_snapshot() {
        let mut j = Journal::new(cms());
        let mut live = cms();
        for k in 0..100u64 {
            let key = k % 7;
            j.record(key, 1);
            live.update(key, 1);
            if k == 49 {
                // Worker checkpoints after applying the first 50 ops.
                j.on_checkpoint(50, live.clone());
            }
        }
        let restored = j.restore();
        for key in 0..7u64 {
            assert_eq!(restored.estimate(key), live.estimate(key), "key {key}");
        }
    }

    #[test]
    fn checkpoint_prunes_and_bounds_memory() {
        let mut j = Journal::new(cms());
        for _ in 0..1_000 {
            j.record(1, 1);
        }
        assert_eq!(j.len(), 1_000);
        let mut snap = cms();
        snap.update(1, 900);
        j.on_checkpoint(900, snap);
        assert_eq!(j.len(), 100);
        assert_eq!(j.restore().estimate(1), 1_000);
    }

    #[test]
    fn stale_checkpoint_is_ignored() {
        let mut j = Journal::new(cms());
        j.record(5, 2);
        let mut snap = cms();
        snap.update(5, 2);
        j.on_checkpoint(1, snap);
        j.on_checkpoint(0, cms()); // stale: must not roll the snapshot back
        assert_eq!(j.restore().estimate(5), 2);
    }

    #[test]
    fn unrecord_drops_only_the_latest() {
        let mut j = Journal::new(cms());
        let a = j.record(1, 1);
        j.unrecord(a + 1); // wrong seq: no-op
        assert_eq!(j.len(), 1);
        j.unrecord(a);
        assert_eq!(j.len(), 0);
        assert_eq!(j.restore().estimate(1), 0);
    }

    #[test]
    fn reset_rebaselines() {
        let mut j = Journal::new(cms());
        j.record(3, 4);
        let restored = j.restore();
        assert_eq!(restored.estimate(3), 4);
        j.reset(restored);
        assert_eq!(j.len(), 0);
        assert_eq!(j.snapshot_seq(), 1);
        assert_eq!(j.restore().estimate(3), 4);
        // New entries replay on top of the new baseline.
        j.record(3, 1);
        assert_eq!(j.restore().estimate(3), 5);
    }

    #[test]
    fn batch_entries_share_a_seq() {
        let mut j = Journal::new(cms());
        let seq = j.next_seq();
        j.record_at(seq, 1, 2);
        j.record_at(seq, 2, 3);
        let mut snap = cms();
        snap.update(1, 2);
        snap.update(2, 3);
        j.on_checkpoint(seq, snap);
        assert_eq!(j.len(), 0);
        assert_eq!(j.restore().estimate(1), 2);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = SupervisionConfig::default();
        assert_eq!(cfg.backoff_for(1), cfg.restart_backoff);
        assert_eq!(cfg.backoff_for(3), cfg.restart_backoff * 4);
        assert_eq!(cfg.backoff_for(100), cfg.restart_backoff * 32);
    }

    #[test]
    fn error_display_is_informative() {
        let e = PipelineError::WorkerPanicked("boom".into());
        assert!(e.to_string().contains("boom"));
        let e = PipelineError::ShardFailed {
            shard: 2,
            attempts: 3,
            payload: "x".into(),
        };
        assert!(e.to_string().contains("shard 2"));
        for (op, word) in [
            (WorkerOp::Send, "send"),
            (WorkerOp::Sync, "sync"),
            (WorkerOp::Estimate, "estimate"),
            (WorkerOp::Shutdown, "shutdown"),
        ] {
            let shown = PipelineError::Timeout(op).to_string();
            assert!(shown.contains(word), "{op:?}: {shown}");
            assert!(shown.contains("timed out"), "{op:?}: {shown}");
        }
    }
}
