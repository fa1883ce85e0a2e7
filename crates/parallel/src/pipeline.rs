//! Pipeline parallelism (paper §6.2) under supervision: the filter runs on
//! the caller's core, the sketch on a dedicated worker thread, with message
//! passing replacing shared-memory access — and the runtime survives the
//! worker misbehaving.
//!
//! The caller (the paper's core `C0`) owns the filter and consumes input
//! tuples; on a filter miss the tuple is *forwarded* to the worker (`C1`)
//! together with the filter's current minimum count, and `C0` immediately
//! moves on to the next tuple — the source of the pipeline speedup. When
//! `C1` sees an estimate exceeding the last minimum it received, it sends
//! the item back for *promotion*; `C0` applies the promotion when it next
//! touches the channel, demoting its minimum item's pending mass to `C1`.
//!
//! Because promotion decisions are made against a slightly stale minimum,
//! the filter's content can lag the sequential algorithm's by a few
//! messages; the one-sided estimate guarantee is unaffected (estimates only
//! ever *gain* over-count from staleness, never lose mass) and the paper
//! accepts the same relaxation.
//!
//! # Fault tolerance
//!
//! The forward channel is **bounded** ([`SupervisionConfig::queue_capacity`])
//! so a slow worker exerts backpressure instead of growing an unbounded
//! queue. On a full queue the caller either blocks
//! ([`BackpressurePolicy::Block`]) or spills into a bounded caller-side
//! FIFO that is flushed opportunistically
//! ([`BackpressurePolicy::InlineFallback`]); either way no update is ever
//! dropped.
//!
//! Every counting op shipped to the worker is recorded in a replay
//! [`Journal`](crate::supervisor) keyed by sequence number; the worker
//! periodically ships back `Clone` checkpoints tagged with the last applied
//! sequence, which prune the journal. If the worker panics, wedges, or its
//! channel disconnects, the caller reconstructs the exact sketch state as
//! *checkpoint + replay of journal entries past the checkpoint*, then either
//! respawns the worker (bounded restarts with exponential backoff) or — once
//! the restart budget is spent — degrades to running the sequential ASketch
//! algorithm inline on the caller. Estimates keep their one-sided guarantee
//! through every transition because the journal replays precisely the ops
//! the lost worker had not yet folded into a checkpoint: no loss, no double
//! count.

use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::channel::{self, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError};

use asketch::filter::Filter;
use sketches::traits::Supervisable;

use crate::supervisor::{
    panic_message, BackpressurePolicy, Journal, PipelineError, PipelineStats, RuntimeHealth,
    SupervisionConfig,
};

/// Messages from the filter core to the sketch core.
///
/// Counting messages carry the journal sequence number the caller assigned
/// to them; the worker tags its checkpoints with the last sequence it
/// applied, which is what lets the caller prune the journal safely.
enum ToSketch {
    /// A tuple that missed the filter, with the filter's current minimum.
    Forward {
        key: u64,
        u: i64,
        filter_min: i64,
        seq: u64,
    },
    /// A batch of filter misses, each with the filter minimum observed when
    /// it missed. All items share one journal sequence number (each pair is
    /// journaled individually via `Journal::record_at`), exactly like the
    /// holistic-UDAF pipeline's batch message.
    ForwardBatch {
        items: Vec<(u64, i64, i64)>,
        seq: u64,
    },
    /// Pending mass of a demoted filter item.
    Demote { key: u64, pending: i64, seq: u64 },
    /// Negative update for an unmonitored key (Appendix A path).
    Subtract { key: u64, amount: i64, seq: u64 },
    /// The caller accepted a promotion: clear the worker's recently-suggested
    /// ring so new suggestions can flow.
    Promoted,
    /// Answer a point query (channel round-trip keeps FIFO ordering with
    /// preceding forwards, so the estimate covers them).
    Estimate { key: u64, reply: Sender<i64> },
    /// Stop and return the sketch.
    Shutdown,
}

/// Messages from the sketch core back to the filter core.
enum FromSketch<S> {
    /// A promotion suggestion: `key`'s estimate exceeded the filter minimum.
    Promote { key: u64, est: i64 },
    /// A periodic snapshot of the sketch, tagged with the last applied
    /// journal sequence. Prunes the caller's replay journal.
    Checkpoint { seq: u64, snapshot: S },
}

/// Small ring of recently suggested keys, so a hot run of one key (or a few)
/// yields one promotion message, not thousands. Cleared when the caller
/// reports an accepted exchange (the filter minimum has changed and
/// previously rejected keys may now qualify) and aged out every
/// [`RECENT_TTL_OPS`] counting ops, so a key whose suggestion the caller
/// *rejected* is re-suggested once its estimate keeps growing instead of
/// being suppressed until eight newer suggestions displace it.
struct RecentKeys {
    keys: [u64; 8],
    len: usize,
    next: usize,
}

impl RecentKeys {
    fn new() -> Self {
        Self {
            keys: [0; 8],
            len: 0,
            next: 0,
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.keys[..self.len].contains(&key)
    }

    fn push(&mut self, key: u64) {
        self.keys[self.next] = key;
        self.next = (self.next + 1) % self.keys.len();
        self.len = (self.len + 1).min(self.keys.len());
    }

    fn clear(&mut self) {
        self.len = 0;
        self.next = 0;
    }
}

/// The channel endpoints and join handle of a live worker.
struct WorkerLink<S> {
    tx: Sender<ToSketch>,
    rx: Receiver<FromSketch<S>>,
    handle: JoinHandle<S>,
}

/// Counting ops between forced clears of the recently-suggested ring.
const RECENT_TTL_OPS: u64 = 256;

/// The sketch-core loop: apply counting messages, suggest promotions,
/// answer estimates, and ship checkpoints every `checkpoint_interval`
/// counting ops.
fn run_worker<S: Supervisable>(
    mut sketch: S,
    rx: Receiver<ToSketch>,
    out: Sender<FromSketch<S>>,
    checkpoint_interval: u64,
) -> S {
    let mut recent = RecentKeys::new();
    let mut since_checkpoint = 0u64;
    let mut since_recent_clear = 0u64;
    while let Ok(msg) = rx.recv() {
        // Counting arms yield the sequence they applied plus how many
        // counting ops it covered; a checkpoint tagged with the sequence
        // tells the caller which journal prefix is covered.
        let applied_seq = match msg {
            ToSketch::Forward {
                key,
                u,
                filter_min,
                seq,
            } => {
                let est = sketch.update_and_estimate(key, u);
                if est > filter_min && !recent.contains(key) {
                    recent.push(key);
                    // Ignore send failures during teardown.
                    let _ = out.send(FromSketch::Promote { key, est });
                }
                Some((seq, 1))
            }
            ToSketch::ForwardBatch { items, seq } => {
                let ops = items.len() as u64;
                // Warm the sketch's cache lines for the whole batch up
                // front; the per-item promote checks still need individual
                // post-update estimates, so the updates stay sequential.
                let keys: Vec<u64> = items.iter().map(|&(k, _, _)| k).collect();
                sketch.prime(&keys);
                for &(key, u, filter_min) in &items {
                    let est = sketch.update_and_estimate(key, u);
                    if est > filter_min && !recent.contains(key) {
                        recent.push(key);
                        let _ = out.send(FromSketch::Promote { key, est });
                    }
                }
                Some((seq, ops))
            }
            ToSketch::Demote { key, pending, seq } => {
                sketch.update(key, pending);
                Some((seq, 1))
            }
            ToSketch::Subtract { key, amount, seq } => {
                sketch.update(key, -amount);
                Some((seq, 1))
            }
            ToSketch::Promoted => {
                recent.clear();
                None
            }
            ToSketch::Estimate { key, reply } => {
                let _ = reply.send(sketch.estimate(key));
                None
            }
            ToSketch::Shutdown => break,
        };
        if let Some((seq, ops)) = applied_seq {
            since_checkpoint += ops;
            if since_checkpoint >= checkpoint_interval {
                since_checkpoint = 0;
                let _ = out.send(FromSketch::Checkpoint {
                    seq,
                    snapshot: sketch.clone(),
                });
            }
            since_recent_clear += ops;
            if since_recent_clear >= RECENT_TTL_OPS {
                since_recent_clear = 0;
                recent.clear();
            }
        }
    }
    sketch
}

fn spawn_worker<S: Supervisable>(sketch: S, cfg: &SupervisionConfig) -> WorkerLink<S> {
    let (tx, rx) = channel::bounded::<ToSketch>(cfg.queue_capacity);
    // Replies (promotions + checkpoints) are unbounded: the worker must
    // never block on the caller, and the caller drains this channel on
    // every touch.
    let (out_tx, out_rx) = channel::unbounded::<FromSketch<S>>();
    let interval = cfg.checkpoint_interval.max(1);
    let handle = std::thread::spawn(move || run_worker(sketch, rx, out_tx, interval));
    WorkerLink {
        tx,
        rx: out_rx,
        handle,
    }
}

/// Pipeline-parallel ASketch: filter on the caller thread, sketch on a
/// supervised worker thread.
///
/// Public counting/query API matches the sequential `ASketch`; on worker
/// failure the pipeline transparently restores state from checkpoint +
/// journal and keeps answering (see the module docs). Inspect
/// [`stats`](Self::stats) / [`health`](Self::health) to observe faults.
pub struct PipelineASketch<F: Filter, S: Supervisable> {
    /// `Option` only so `finish`/`Drop` can move it out; always `Some`
    /// while the pipeline is live.
    filter: Option<F>,
    /// The live worker; `None` once degraded to inline mode.
    link: Option<WorkerLink<S>>,
    /// The inline sketch used in degraded mode; `None` while a worker is up.
    inline: Option<S>,
    /// Caller-side FIFO spill used by [`BackpressurePolicy::InlineFallback`].
    spill: VecDeque<ToSketch>,
    journal: Journal<S>,
    cfg: SupervisionConfig,
    stats: PipelineStats,
    last_error: Option<PipelineError>,
}

impl<F: Filter, S: Supervisable> PipelineASketch<F, S> {
    /// Spawn the sketch worker and assemble the pipeline with default
    /// supervision parameters.
    pub fn spawn(filter: F, sketch: S) -> Self {
        Self::spawn_with(filter, sketch, SupervisionConfig::default())
    }

    /// Spawn with explicit supervision parameters.
    pub fn spawn_with(filter: F, sketch: S, cfg: SupervisionConfig) -> Self {
        let journal = Journal::new(sketch.clone());
        let link = spawn_worker(sketch, &cfg);
        Self {
            filter: Some(filter),
            link: Some(link),
            inline: None,
            spill: VecDeque::new(),
            journal,
            cfg,
            stats: PipelineStats::default(),
            last_error: None,
        }
    }

    #[inline]
    fn filter_ref(&self) -> &F {
        self.filter.as_ref().expect("filter present while live")
    }

    #[inline]
    fn filter_mut(&mut self) -> &mut F {
        self.filter.as_mut().expect("filter present while live")
    }

    /// Tear down the failed worker, reconstruct the sketch from checkpoint +
    /// journal, and either respawn (restart budget permitting) or degrade to
    /// inline mode. Idempotent once degraded.
    fn fail_over(&mut self, err: Option<PipelineError>) {
        let Some(link) = self.link.take() else { return };
        self.stats.worker_failures += 1;

        // Harvest any checkpoints already queued: they tighten the journal
        // so the replay below is as short as possible.
        while let Ok(msg) = link.rx.try_recv() {
            if let FromSketch::Checkpoint { seq, snapshot } = msg {
                self.stats.checkpoints += 1;
                self.journal.on_checkpoint(seq, snapshot);
            }
        }
        drop(link.tx);

        // Give a just-panicked thread a beat to unwind so we can harvest
        // the payload; a genuinely wedged thread is abandoned (it exits on
        // its own when it next touches the disconnected channel).
        let mut finished = link.handle.is_finished();
        if !finished {
            std::thread::sleep(Duration::from_millis(2));
            finished = link.handle.is_finished();
        }
        let error = if finished {
            match link.handle.join() {
                Err(payload) => PipelineError::WorkerPanicked(panic_message(payload)),
                Ok(_) => err.unwrap_or(PipelineError::Disconnected),
            }
        } else {
            err.unwrap_or(PipelineError::EstimateTimeout)
        };
        self.last_error = Some(error);

        // Spilled-but-unsent messages are already journaled; the restore
        // below replays them, so the spill queue itself can go.
        self.spill.clear();
        let restored = self.journal.restore();

        if self.stats.restarts < u64::from(self.cfg.max_restarts) {
            self.stats.restarts += 1;
            let backoff = self.cfg.backoff_for(self.stats.restarts);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            self.journal.reset(restored.clone());
            self.link = Some(spawn_worker(restored, &self.cfg));
            self.stats.degraded = false;
        } else {
            self.stats.degraded = true;
            self.inline = Some(restored);
        }
    }

    /// Flush as much of the spill queue as fits without blocking.
    fn flush_spill_try(&mut self) {
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
                    // The message is journaled; fail_over's restore covers it.
                    self.fail_over(None);
                    return;
                }
            }
        }
    }

    /// Flush the whole spill queue, waiting for channel space; a worker that
    /// stays wedged past the timeout is failed over (the journal preserves
    /// every spilled op, so nothing is lost either way).
    fn flush_spill_sync(&mut self) {
        while let Some(msg) = self.spill.pop_front() {
            let Some(link) = self.link.as_ref() else {
                return;
            };
            match link.tx.send_timeout(msg, self.cfg.send_timeout) {
                Ok(()) => {}
                Err(SendTimeoutError::Timeout(_)) => {
                    self.fail_over(Some(PipelineError::EstimateTimeout));
                    return;
                }
                Err(SendTimeoutError::Disconnected(_)) => {
                    self.fail_over(None);
                    return;
                }
            }
        }
    }

    /// Append to the spill queue, degrading to a synchronous flush when the
    /// spill itself is full — memory stays bounded and nothing is dropped.
    fn push_spill(&mut self, msg: ToSketch) {
        if self.spill.len() >= self.cfg.spill_capacity.max(1) {
            // Generation check, not just `link.is_none()`: a fail-over during
            // the flush folds the journaled `msg` into the restored sketch
            // even when the worker is *restarted* (link `Some` again), so the
            // in-flight `msg` must be abandoned or it would double-count.
            let generation = self.stats.worker_failures;
            self.flush_spill_sync();
            if self.stats.worker_failures != generation || self.link.is_none() {
                return;
            }
        }
        self.stats.spilled += 1;
        self.spill.push_back(msg);
    }

    /// Ship one counting op to the worker, honouring the backpressure policy
    /// and journaling it first so no failure mode can lose it. In degraded
    /// mode the op is applied inline instead.
    fn ship_counting(&mut self, key: u64, delta: i64, build: impl FnOnce(u64) -> ToSketch) {
        if self.link.is_none() {
            self.stats.inline_updates += 1;
            self.inline
                .as_mut()
                .expect("degraded mode has an inline sketch")
                .update(key, delta);
            return;
        }
        let seq = self.journal.record(key, delta);
        let msg = build(seq);
        // FIFO discipline: anything spilled earlier goes first, so sequence
        // order on the wire always matches journal order.
        //
        // `worker_failures` doubles as a fail-over generation counter: if the
        // flush fails over, `msg` (already journaled) is folded into the
        // restored sketch — whether the runtime then degraded (`link` now
        // `None`) or *restarted* (`link` `Some` again, journal re-baselined
        // past `seq`). Either way `msg` must be abandoned here, or the new
        // worker would apply it a second time.
        let generation = self.stats.worker_failures;
        self.flush_spill_try();
        if self.stats.worker_failures != generation || self.link.is_none() {
            return; // failed over during the flush; the restore covers `msg`
        }
        if !self.spill.is_empty() {
            self.push_spill(msg);
            return;
        }
        let sent = self
            .link
            .as_ref()
            .expect("worker link checked above")
            .tx
            .try_send(msg);
        match sent {
            Ok(()) => {}
            Err(TrySendError::Full(m)) => {
                self.stats.queue_full_events += 1;
                match self.cfg.backpressure {
                    BackpressurePolicy::Block => self.send_sync(m),
                    BackpressurePolicy::InlineFallback => self.push_spill(m),
                }
            }
            Err(TrySendError::Disconnected(_)) => self.fail_over(None),
        }
    }

    /// Ship a batch of filter misses as one message, journaling every item
    /// under a shared sequence number first (mirrors the holistic-UDAF
    /// pipeline's batch shipping). In degraded mode each item runs through
    /// the sequential overflow path inline instead.
    fn ship_forward_batch(&mut self, items: Vec<(u64, i64, i64)>) {
        if items.is_empty() {
            return;
        }
        if self.link.is_none() {
            for (key, u, _) in items {
                self.degraded_overflow(key, u);
            }
            return;
        }
        self.stats.forwarded += items.len() as u64;
        let seq = self.journal.next_seq();
        for &(key, u, _) in &items {
            self.journal.record_at(seq, key, u);
        }
        let msg = ToSketch::ForwardBatch { items, seq };
        // Same generation discipline as `ship_counting`: a fail-over during
        // the flush folds the journaled batch into the restored sketch, so
        // the in-flight `msg` must be abandoned whether the runtime degraded
        // or restarted.
        let generation = self.stats.worker_failures;
        self.flush_spill_try();
        if self.stats.worker_failures != generation || self.link.is_none() {
            return;
        }
        if !self.spill.is_empty() {
            self.push_spill(msg);
            return;
        }
        let sent = self
            .link
            .as_ref()
            .expect("worker link checked above")
            .tx
            .try_send(msg);
        match sent {
            Ok(()) => {}
            Err(TrySendError::Full(m)) => {
                self.stats.queue_full_events += 1;
                match self.cfg.backpressure {
                    BackpressurePolicy::Block => self.send_sync(m),
                    BackpressurePolicy::InlineFallback => self.push_spill(m),
                }
            }
            Err(TrySendError::Disconnected(_)) => self.fail_over(None),
        }
    }

    /// Blocking send with a wedge bound: waits for queue space up to the
    /// send timeout, then declares the worker wedged and fails over.
    fn send_sync(&mut self, msg: ToSketch) {
        let Some(link) = self.link.as_ref() else {
            return;
        };
        match link.tx.send_timeout(msg, self.cfg.send_timeout) {
            Ok(()) => {}
            Err(SendTimeoutError::Timeout(_)) => {
                self.fail_over(Some(PipelineError::EstimateTimeout));
            }
            Err(SendTimeoutError::Disconnected(_)) => self.fail_over(None),
        }
    }

    /// Drain everything the worker has sent back: checkpoints prune the
    /// journal, promotion suggestions are applied against current filter
    /// state.
    fn drain_worker_msgs(&mut self) {
        let mut promotes: Vec<(u64, i64)> = Vec::new();
        let mut checkpoints: Vec<(u64, S)> = Vec::new();
        {
            let Some(link) = self.link.as_ref() else {
                return;
            };
            while let Ok(msg) = link.rx.try_recv() {
                match msg {
                    FromSketch::Promote { key, est } => promotes.push((key, est)),
                    FromSketch::Checkpoint { seq, snapshot } => checkpoints.push((seq, snapshot)),
                }
            }
        }
        for (seq, snapshot) in checkpoints {
            self.stats.checkpoints += 1;
            self.journal.on_checkpoint(seq, snapshot);
        }
        for (key, est) in promotes {
            self.apply_promotion(key, est);
        }
    }

    /// Re-check a promotion suggestion against the *current* filter state
    /// and apply it if it still holds.
    fn apply_promotion(&mut self, key: u64, suggested_est: i64) {
        if self.filter_ref().query(key).is_some() {
            return;
        }
        let Some(min) = self.filter_ref().min_count() else {
            return;
        };
        if suggested_est <= min {
            return;
        }
        // The suggested estimate is stale: the hot key has usually received
        // further forwards since the suggestion was made. Fetch a fresh
        // estimate — FIFO ordering guarantees it covers every update this
        // core has issued — so the filter count never starts below the
        // sketch's mass for the key.
        let fresh = self.backend_estimate(key);
        if fresh <= min {
            return;
        }
        let evicted = self
            .filter_mut()
            .evict_min()
            .expect("filter non-empty: min_count succeeded");
        if evicted.pending() > 0 {
            let (dkey, pending) = (evicted.key, evicted.pending());
            self.ship_counting(dkey, pending, |seq| ToSketch::Demote {
                key: dkey,
                pending,
                seq,
            });
        }
        self.filter_mut().insert(key, fresh, fresh);
        self.stats.exchanges += 1;
        // Best-effort: let the worker clear its recently-suggested ring.
        if self.spill.is_empty() {
            if let Some(link) = self.link.as_ref() {
                let _ = link.tx.try_send(ToSketch::Promoted);
            }
        }
    }

    /// Estimate for a key not monitored by the filter: round-trip to the
    /// worker with timeout + retry, failing over (and answering inline) if
    /// the worker never responds. In degraded mode, answers from the inline
    /// sketch directly.
    fn backend_estimate(&mut self, key: u64) -> i64 {
        loop {
            if self.link.is_none() {
                return self
                    .inline
                    .as_ref()
                    .expect("degraded mode has an inline sketch")
                    .estimate(key);
            }
            // All queued counting ops must precede the estimate so the
            // answer covers them.
            self.flush_spill_sync();
            if self.link.is_none() {
                continue;
            }
            let mut failure: Option<Option<PipelineError>> = None;
            let mut timeouts = 0u32;
            loop {
                let link = self.link.as_ref().expect("worker link checked above");
                let (reply_tx, reply_rx) = channel::bounded(1);
                let sent = link.tx.send_timeout(
                    ToSketch::Estimate {
                        key,
                        reply: reply_tx,
                    },
                    self.cfg.estimate_timeout,
                );
                match sent {
                    Ok(()) => match reply_rx.recv_timeout(self.cfg.estimate_timeout) {
                        Ok(v) => return v,
                        Err(RecvTimeoutError::Timeout) => {
                            self.stats.estimate_timeouts += 1;
                            timeouts += 1;
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            failure = Some(None);
                        }
                    },
                    Err(SendTimeoutError::Timeout(_)) => {
                        self.stats.estimate_timeouts += 1;
                        timeouts += 1;
                    }
                    Err(SendTimeoutError::Disconnected(_)) => {
                        failure = Some(None);
                    }
                }
                if let Some(err) = failure {
                    self.fail_over(err);
                    break;
                }
                if timeouts > self.cfg.estimate_retries {
                    self.fail_over(Some(PipelineError::EstimateTimeout));
                    break;
                }
            }
            // Failed over: either a fresh worker is up (retry the round
            // trip against it) or we are degraded (answered at loop top).
        }
    }

    /// Process one tuple (Algorithm 1 with the sketch path asynchronous).
    pub fn update(&mut self, key: u64, u: i64) {
        if u <= 0 {
            // `i64::MIN` has no positive negation: saturate instead of
            // overflowing, so debug and release builds agree.
            let amount = u.checked_neg().unwrap_or(i64::MAX);
            if amount > 0 {
                self.delete(key, amount);
            }
            return;
        }
        if !self.spill.is_empty() {
            self.flush_spill_try();
        }
        if self.filter_mut().update_existing(key, u).is_some() {
            return;
        }
        if !self.filter_ref().is_full() {
            self.filter_mut().insert(key, u, 0);
            return;
        }
        if self.link.is_none() {
            self.degraded_overflow(key, u);
            return;
        }
        let filter_min = self
            .filter_ref()
            .min_count()
            .expect("full filter non-empty");
        self.stats.forwarded += 1;
        self.ship_counting(key, u, |seq| ToSketch::Forward {
            key,
            u,
            filter_min,
            seq,
        });
        self.drain_worker_msgs();
    }

    /// Process a batch of tuples, coalescing consecutive filter misses into
    /// one [`ToSketch::ForwardBatch`] message instead of one message per
    /// miss — the per-tuple channel and journal overhead is what caps the
    /// pipeline's ingest rate on low-skew streams.
    ///
    /// Semantics match a loop of [`update`](Self::update) up to promotion
    /// timing: each miss is forwarded with the filter minimum observed when
    /// *it* missed, deletes flush the pending batch first so wire order
    /// equals arrival order, and worker replies are drained once per batch
    /// rather than once per miss. Promotions therefore land with slightly
    /// coarser granularity — the same stale-minimum relaxation the pipeline
    /// already accepts (see the module docs).
    pub fn update_batch(&mut self, tuples: &[(u64, i64)]) {
        /// Caller-side coalescing bound; keeps a single message's journal
        /// footprint and worker latency bite bounded.
        const FLUSH_AT: usize = 64;
        let mut misses: Vec<(u64, i64, i64)> = Vec::new();
        for &(key, u) in tuples {
            if u <= 0 {
                // Deletions must observe every earlier forward in arrival
                // order, so the pending batch goes first.
                let batch = std::mem::take(&mut misses);
                self.ship_forward_batch(batch);
                let amount = u.checked_neg().unwrap_or(i64::MAX);
                if amount > 0 {
                    self.delete(key, amount);
                }
                continue;
            }
            if self.filter_mut().update_existing(key, u).is_some() {
                continue;
            }
            if !self.filter_ref().is_full() {
                self.filter_mut().insert(key, u, 0);
                continue;
            }
            if self.link.is_none() {
                let batch = std::mem::take(&mut misses);
                self.ship_forward_batch(batch);
                self.degraded_overflow(key, u);
                continue;
            }
            let filter_min = self
                .filter_ref()
                .min_count()
                .expect("full filter non-empty");
            misses.push((key, u, filter_min));
            if misses.len() >= FLUSH_AT {
                let batch = std::mem::take(&mut misses);
                self.ship_forward_batch(batch);
            }
        }
        self.ship_forward_batch(misses);
        self.drain_worker_msgs();
    }

    /// Degraded-mode overflow path: the full sequential exchange check
    /// (Algorithm 1) runs inline on the caller.
    fn degraded_overflow(&mut self, key: u64, u: i64) {
        self.stats.inline_updates += 1;
        let inline = self
            .inline
            .as_mut()
            .expect("degraded mode has an inline sketch");
        let est = inline.update_and_estimate(key, u);
        let filter = self.filter.as_mut().expect("filter present while live");
        let min = filter.min_count().expect("full filter non-empty");
        if est > min {
            let evicted = filter.evict_min().expect("filter non-empty");
            if evicted.pending() > 0 {
                inline.update(evicted.key, evicted.pending());
            }
            filter.insert(key, est, est);
            self.stats.exchanges += 1;
        }
    }

    /// Convenience: `update(key, 1)`.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        self.update(key, 1);
    }

    /// Appendix-A deletion across the pipeline.
    ///
    /// A non-positive `amount` is a documented no-op: zero-amount deletes
    /// are common in generated workloads and must not abort the stream.
    pub fn delete(&mut self, key: u64, amount: i64) {
        if amount <= 0 {
            return;
        }
        match self.filter_mut().subtract(key, amount) {
            None => self.ship_counting(key, -amount, |seq| ToSketch::Subtract { key, amount, seq }),
            Some(0) => {}
            Some(remainder) => self.ship_counting(key, -remainder, |seq| ToSketch::Subtract {
                key,
                amount: remainder,
                seq,
            }),
        }
        // Harvest checkpoints (and promotions) here too: a delete-heavy
        // workload journals every shipped op, so without this drain the
        // journal and the unbounded reply channel would grow without bound.
        self.drain_worker_msgs();
    }

    /// Point query. Filter hits answer locally; misses go through
    /// [`backend_estimate`](Self::backend_estimate) (worker round-trip with
    /// timeout + retry, or the inline sketch when degraded).
    pub fn estimate(&mut self, key: u64) -> i64 {
        self.drain_worker_msgs();
        if let Some(c) = self.filter_ref().query(key) {
            return c;
        }
        self.backend_estimate(key)
    }

    /// Number of promotions applied so far.
    pub fn exchanges(&self) -> u64 {
        self.stats.exchanges
    }

    /// Number of tuples forwarded to the sketch core.
    pub fn forwarded(&self) -> u64 {
        self.stats.forwarded
    }

    /// Runtime counters (forwards, exchanges, queue-full events, spills,
    /// failures, restarts, checkpoints, degraded flag).
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Condensed health view: degraded flag, restart/failure counts, and
    /// the most recent error rendered as a string.
    pub fn health(&self) -> RuntimeHealth {
        RuntimeHealth {
            degraded: self.stats.degraded,
            restarts: self.stats.restarts,
            worker_failures: self.stats.worker_failures,
            last_error: self.last_error.as_ref().map(|e| e.to_string()),
        }
    }

    /// The most recent worker fault, if any.
    pub fn last_error(&self) -> Option<&PipelineError> {
        self.last_error.as_ref()
    }

    /// `true` once the restart budget is spent and updates run inline.
    pub fn is_degraded(&self) -> bool {
        self.stats.degraded
    }

    /// The supervision parameters this pipeline runs with.
    pub fn config(&self) -> &SupervisionConfig {
        &self.cfg
    }

    /// Recover the sketch from whatever state the worker is in: clean join
    /// when healthy, journal reconstruction when panicked or wedged. Bounded
    /// by [`SupervisionConfig::shutdown_timeout`] — never hangs.
    fn recover_sketch(&mut self) -> S {
        self.drain_worker_msgs();
        if self.link.is_some() {
            self.flush_spill_sync();
        }
        let Some(link) = self.link.take() else {
            return match self.inline.take() {
                Some(s) => s,
                None => self.journal.restore(),
            };
        };
        let _ = link
            .tx
            .send_timeout(ToSketch::Shutdown, self.cfg.send_timeout);
        drop(link.tx);
        let deadline = std::time::Instant::now() + self.cfg.shutdown_timeout;
        while !link.handle.is_finished() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if link.handle.is_finished() {
            match link.handle.join() {
                Ok(sketch) => sketch,
                Err(payload) => {
                    self.stats.worker_failures += 1;
                    self.stats.degraded = true;
                    self.last_error = Some(PipelineError::WorkerPanicked(panic_message(payload)));
                    self.journal.restore()
                }
            }
        } else {
            // Wedged past the deadline: abandon the thread (it exits when it
            // next touches the disconnected channel) and reconstruct.
            self.stats.worker_failures += 1;
            self.stats.degraded = true;
            self.last_error = Some(PipelineError::EstimateTimeout);
            self.journal.restore()
        }
    }

    /// Shut the worker down and return `(filter, sketch)`.
    ///
    /// Never hangs: a healthy worker is joined, a panicked or wedged one is
    /// replaced by the journal reconstruction (check
    /// [`health`](Self::health) before calling if you need to know which).
    pub fn finish(mut self) -> (F, S) {
        let sketch = self.recover_sketch();
        let filter = self.filter.take().expect("filter present until finish");
        (filter, sketch)
    }
}

impl<F: Filter, S: Supervisable> Drop for PipelineASketch<F, S> {
    /// Best-effort teardown for pipelines dropped without
    /// [`finish`](Self::finish): ask the worker to stop, wait a bounded
    /// time, and abandon it if wedged. Never hangs, never panics.
    fn drop(&mut self) {
        if let Some(link) = self.link.take() {
            let _ = link.tx.try_send(ToSketch::Shutdown);
            drop(link.tx);
            let deadline = std::time::Instant::now() + self.cfg.shutdown_timeout;
            while !link.handle.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if link.handle.is_finished() {
                let _ = link.handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyEstimator};
    use asketch::filter::RelaxedHeapFilter;
    use sketches::{CountMin, FrequencyEstimator};

    fn pipeline(cap: usize) -> PipelineASketch<RelaxedHeapFilter, CountMin> {
        PipelineASketch::spawn(
            RelaxedHeapFilter::new(cap),
            CountMin::new(7, 4, 1 << 12).unwrap(),
        )
    }

    #[test]
    fn heavy_items_exact_in_filter() {
        let mut p = pipeline(4);
        for _ in 0..10_000 {
            p.insert(1);
        }
        assert_eq!(p.estimate(1), 10_000);
        assert_eq!(p.forwarded(), 0);
    }

    #[test]
    fn overflow_reaches_sketch() {
        let mut p = pipeline(2);
        p.insert(1);
        p.insert(2);
        for _ in 0..100 {
            p.insert(3);
        }
        assert!(p.estimate(3) >= 100, "must cover all 100 inserts");
        let (filter, sketch) = p.finish();
        // Key 3's mass lives in the filter (if promoted) or in the sketch.
        let covered = filter.query(3).unwrap_or_else(|| sketch.estimate(3));
        assert!(covered >= 100);
    }

    #[test]
    fn promotion_happens_for_hot_overflow() {
        let mut p = pipeline(2);
        p.insert(1);
        p.insert(2);
        for i in 0..5_000u64 {
            p.insert(100); // hot key hammering the sketch
            p.insert(1000 + i % 3); // churn so promotes drain
        }
        // Give the worker a moment, then drain.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let est = p.estimate(100);
        assert!(est >= 5_000);
        assert!(p.exchanges() >= 1, "hot key must be promoted");
    }

    #[test]
    fn one_sided_guarantee_across_pipeline() {
        let mut p = pipeline(8);
        let mut truth = std::collections::HashMap::new();
        let mut x = 17u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let key = match x % 10 {
                0..=4 => x % 3,
                _ => 50 + x % 500,
            };
            p.insert(key);
            *truth.entry(key).or_insert(0i64) += 1;
        }
        for (&key, &t) in &truth {
            let est = p.estimate(key);
            assert!(est >= t, "pipeline under-counts key {key}: {est} < {t}");
        }
    }

    #[test]
    fn deletions_route_correctly() {
        let mut p = pipeline(2);
        for _ in 0..10 {
            p.insert(1); // in filter
        }
        p.delete(1, 3);
        assert_eq!(p.estimate(1), 7);
        p.insert(2);
        for _ in 0..5 {
            p.insert(3); // overflows
        }
        let before = p.estimate(3);
        p.update(3, -2);
        assert_eq!(p.estimate(3), before - 2);
    }

    #[test]
    fn finish_returns_components() {
        let mut p = pipeline(2);
        p.insert(1);
        let (filter, sketch) = p.finish();
        assert_eq!(filter.len(), 1);
        assert_eq!(sketch.estimate(1), 0, "key 1 stayed in the filter");
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let mut p = pipeline(2);
        p.insert(1);
        drop(p); // must join cleanly
    }

    #[test]
    fn update_with_i64_min_saturates_instead_of_overflowing() {
        let mut p = pipeline(2);
        for _ in 0..10 {
            p.insert(1);
        }
        // `-i64::MIN` overflows; must behave identically (saturating
        // delete) in debug and release instead of panicking in one.
        p.update(1, i64::MIN);
        assert!(p.estimate(1) < 10);
        p.update(42, i64::MIN); // unmonitored key: same, via the sketch path
        p.insert(2);
        assert_eq!(p.estimate(2), 1);
    }

    #[test]
    fn delete_heavy_workload_harvests_checkpoints() {
        let cfg = SupervisionConfig {
            queue_capacity: 64,
            checkpoint_interval: 16,
            ..SupervisionConfig::default()
        };
        let mut p = PipelineASketch::spawn_with(
            RelaxedHeapFilter::new(2),
            CountMin::new(7, 4, 1 << 12).unwrap(),
            cfg,
        );
        // Heavy residents pin the filter minimum high, so key 3 is never
        // promoted: every insert forwards and every delete ships.
        for _ in 0..2_000 {
            p.insert(1);
            p.insert(2);
        }
        for _ in 0..1_000 {
            p.insert(3); // overflows: journaled + shipped
        }
        let after_inserts = p.stats().checkpoints;
        // Deletes of an unmonitored key ship journaled Subtract ops; the
        // delete path itself must harvest the worker's checkpoints so the
        // journal and reply channel stay bounded on delete-only streams.
        for _ in 0..999 {
            p.delete(3, 1);
        }
        std::thread::sleep(Duration::from_millis(20));
        p.delete(3, 1); // final delete drains everything pending
        let st = p.stats();
        assert!(
            st.checkpoints > after_inserts + 30,
            "delete path must prune the journal via checkpoints: \
             {after_inserts} before deletes, {st:?}"
        );
        assert_eq!(p.estimate(3), 0);
    }

    #[test]
    fn zero_and_negative_amount_delete_is_noop() {
        let mut p = pipeline(2);
        for _ in 0..10 {
            p.insert(1);
        }
        p.delete(1, 0);
        p.delete(1, -5);
        p.delete(42, 0); // unmonitored key: must not ship anything either
        assert_eq!(p.estimate(1), 10);
        assert_eq!(p.estimate(42), 0);
    }

    #[test]
    fn stats_surface_reports_activity() {
        let mut p = pipeline(2);
        // Heavy filter residents keep min_count above key 3's count, so
        // key 3 is never promoted and all 50 inserts are forwarded.
        for _ in 0..100 {
            p.insert(1);
            p.insert(2);
        }
        for _ in 0..50 {
            p.insert(3);
        }
        let _ = p.estimate(3);
        let st = p.stats();
        assert!(st.forwarded >= 50);
        assert!(!st.degraded);
        assert_eq!(st.worker_failures, 0);
        let h = p.health();
        assert!(!h.degraded);
        assert!(h.last_error.is_none());
    }

    #[test]
    fn inline_fallback_spills_and_stays_exact() {
        let cfg = SupervisionConfig {
            queue_capacity: 4,
            backpressure: BackpressurePolicy::InlineFallback,
            spill_capacity: 64,
            checkpoint_interval: 32,
            ..SupervisionConfig::default()
        };
        let sketch = FaultyEstimator::new(
            CountMin::new(7, 4, 1 << 12).unwrap(),
            FaultPlan::slow_updates(1, Duration::from_micros(300)),
        );
        let mut p = PipelineASketch::spawn_with(RelaxedHeapFilter::new(2), sketch, cfg);
        p.insert(1);
        p.insert(2);
        for _ in 0..500 {
            p.insert(3); // slow worker: queue fills, caller spills
        }
        assert!(p.estimate(3) >= 500, "no update may be dropped");
        let st = p.stats();
        assert!(st.queue_full_events > 0, "slow worker must fill the queue");
        assert!(st.spilled > 0, "fallback policy must spill");
        assert!(!st.degraded);
        let (filter, sketch) = p.finish();
        let covered = filter.query(3).unwrap_or_else(|| sketch.estimate(3));
        assert!(covered >= 500);
    }

    #[test]
    fn block_policy_counts_queue_full_without_spilling() {
        let cfg = SupervisionConfig {
            queue_capacity: 4,
            backpressure: BackpressurePolicy::Block,
            checkpoint_interval: 32,
            ..SupervisionConfig::default()
        };
        let sketch = FaultyEstimator::new(
            CountMin::new(7, 4, 1 << 12).unwrap(),
            FaultPlan::slow_updates(1, Duration::from_micros(300)),
        );
        let mut p = PipelineASketch::spawn_with(RelaxedHeapFilter::new(2), sketch, cfg);
        p.insert(1);
        p.insert(2);
        for _ in 0..300 {
            p.insert(3);
        }
        assert!(p.estimate(3) >= 300);
        let st = p.stats();
        assert!(st.queue_full_events > 0);
        assert_eq!(st.spilled, 0, "Block policy never spills");
    }

    #[test]
    fn worker_panic_restarts_and_preserves_counts() {
        let cfg = SupervisionConfig {
            queue_capacity: 8,
            checkpoint_interval: 16,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(1),
            ..SupervisionConfig::default()
        };
        let sketch = FaultyEstimator::new(
            CountMin::new(7, 4, 1 << 12).unwrap(),
            FaultPlan::panic_at(40).with_message("injected worker crash"),
        );
        let mut p = PipelineASketch::spawn_with(RelaxedHeapFilter::new(2), sketch, cfg);
        // Heavy filter residents keep min_count high, so the forwarded key
        // is never promoted and every insert of 3 reaches the worker.
        for _ in 0..1_000 {
            p.insert(1);
            p.insert(2);
        }
        for _ in 0..400 {
            p.insert(3); // op 40 on the worker panics mid-stream
        }
        assert!(p.estimate(3) >= 400, "restore + replay must lose nothing");
        let st = p.stats();
        assert!(st.worker_failures >= 1, "panic must be observed");
        assert!(st.restarts >= 1, "worker must be respawned");
        assert!(!st.degraded, "restart budget not exhausted");
        let h = p.health();
        assert!(
            h.last_error.as_deref().unwrap_or("").contains("injected"),
            "panic payload must be captured: {:?}",
            h.last_error
        );
    }

    #[test]
    fn batched_updates_stay_one_sided_with_mixed_deltas() {
        let mut p = pipeline(8);
        let mut truth = std::collections::HashMap::new();
        let mut x = 29u64;
        let mut batch = Vec::new();
        for _ in 0..30_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let key = match x % 10 {
                0..=4 => x % 3,
                _ => 50 + x % 500,
            };
            // Mostly inserts, occasional deletes of a known-heavy key so
            // the batch path exercises its flush-before-delete ordering.
            let delta = if x.is_multiple_of(97) { -1 } else { 1 };
            let key = if delta < 0 { x % 3 } else { key };
            batch.push((key, delta));
            let t = truth.entry(key).or_insert(0i64);
            *t = (*t + delta).max(0);
            if batch.len() == 257 {
                p.update_batch(&batch);
                batch.clear();
            }
        }
        p.update_batch(&batch);
        for (&key, &t) in &truth {
            let est = p.estimate(key);
            assert!(est >= t, "batched pipeline under-counts {key}: {est} < {t}");
        }
    }

    #[test]
    fn batched_resident_keys_stay_exact() {
        let mut p = pipeline(4);
        let tuples: Vec<(u64, i64)> = (0..4_000u64).map(|i| (i % 4, 1)).collect();
        p.update_batch(&tuples);
        for key in 0..4u64 {
            assert_eq!(p.estimate(key), 1_000, "filter-resident key {key}");
        }
        assert_eq!(p.forwarded(), 0, "no resident key may be forwarded");
    }

    #[test]
    fn batched_forwards_survive_worker_panic() {
        let cfg = SupervisionConfig {
            queue_capacity: 8,
            checkpoint_interval: 16,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(1),
            ..SupervisionConfig::default()
        };
        let sketch = FaultyEstimator::new(
            CountMin::new(7, 4, 1 << 12).unwrap(),
            FaultPlan::panic_at(40).with_message("injected batch crash"),
        );
        let mut p = PipelineASketch::spawn_with(RelaxedHeapFilter::new(2), sketch, cfg);
        // Heavy residents pin min_count high so key 3 always forwards.
        let mut tuples: Vec<(u64, i64)> = Vec::new();
        for _ in 0..1_000 {
            tuples.push((1, 1));
            tuples.push((2, 1));
        }
        for _ in 0..400 {
            tuples.push((3, 1)); // the worker panics mid-batch-stream
        }
        p.update_batch(&tuples);
        assert!(
            p.estimate(3) >= 400,
            "per-item journal entries must replay the lost batch"
        );
        let st = p.stats();
        assert!(st.worker_failures >= 1, "panic must be observed");
        assert!(!st.degraded, "restart budget not exhausted");
    }

    #[test]
    fn batched_promotion_happens_for_hot_overflow() {
        let mut p = pipeline(2);
        let mut tuples: Vec<(u64, i64)> = vec![(1, 1), (2, 1)];
        for i in 0..5_000u64 {
            tuples.push((100, 1)); // hot key hammering the sketch
            tuples.push((1000 + i % 3, 1)); // churn so promotes drain
        }
        for chunk in tuples.chunks(512) {
            p.update_batch(chunk);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        let est = p.estimate(100);
        assert!(est >= 5_000);
        assert!(p.exchanges() >= 1, "hot key must be promoted via batches");
    }

    #[test]
    fn restart_budget_exhaustion_degrades_but_keeps_counting() {
        let cfg = SupervisionConfig {
            queue_capacity: 8,
            checkpoint_interval: 16,
            max_restarts: 0, // first fault degrades immediately
            ..SupervisionConfig::default()
        };
        let mut plan = FaultPlan::panic_at(25);
        plan.rearm_on_clone = false;
        let sketch = FaultyEstimator::new(CountMin::new(7, 4, 1 << 12).unwrap(), plan);
        let mut p = PipelineASketch::spawn_with(RelaxedHeapFilter::new(2), sketch, cfg);
        // Keep min_count high so key 3 stays on the forward path (see
        // worker_panic_restarts_and_preserves_counts).
        for _ in 0..1_000 {
            p.insert(1);
            p.insert(2);
        }
        for _ in 0..200 {
            p.insert(3);
        }
        // Updates continue after degradation, estimates stay one-sided.
        assert!(p.estimate(3) >= 200);
        assert!(p.is_degraded());
        let st = p.stats();
        assert_eq!(st.restarts, 0);
        assert!(st.inline_updates > 0, "degraded mode must count inline");
        let (filter, sketch) = p.finish();
        let covered = filter.query(3).unwrap_or_else(|| sketch.estimate(3));
        assert!(covered >= 200);
    }
}
