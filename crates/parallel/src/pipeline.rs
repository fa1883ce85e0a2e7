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
//! The worker runs on the supervised link of [`crate::supervisor`], shared
//! with the H-UDAF pipeline and the sharded runtime. The forward channel is
//! **bounded** ([`SupervisionConfig::queue_capacity`]) so a slow worker
//! exerts backpressure instead of growing an unbounded queue. On a full
//! queue the caller either blocks
//! ([`BackpressurePolicy::Block`](crate::BackpressurePolicy::Block)) or
//! spills into a bounded caller-side FIFO that is flushed opportunistically
//! ([`BackpressurePolicy::InlineFallback`](crate::BackpressurePolicy::InlineFallback));
//! either way no update is ever dropped.
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

use std::thread::JoinHandle;

use crate::channel::{Receiver, Sender};

use asketch::filter::Filter;
use sketches::traits::Supervisable;

use crate::supervisor::{
    CheckpointClock, FromWorker, PipelineError, PipelineStats, RuntimeHealth, Supervised,
    SupervisionConfig, Worker,
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
    /// it missed. All items share one journal sequence number, exactly
    /// like the holistic-UDAF pipeline's batch message.
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
}

/// A promotion suggestion from the sketch core: `key`'s estimate exceeded
/// the filter minimum it was forwarded with.
struct Promote {
    key: u64,
    est: i64,
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

/// Counting ops between forced clears of the recently-suggested ring.
const RECENT_TTL_OPS: u64 = 256;

/// The sketch core: applies counting messages, suggests promotions,
/// answers estimates.
struct SketchWorker;

impl<S: Supervisable> Worker<S> for SketchWorker {
    type Msg = ToSketch;
    type Note = Promote;

    fn spawn(
        &mut self,
        sketch: S,
        rx: Receiver<ToSketch>,
        out: Sender<FromWorker<S, Promote>>,
        cfg: &SupervisionConfig,
    ) -> JoinHandle<S> {
        let clock = CheckpointClock::new(cfg);
        std::thread::spawn(move || run_worker(sketch, rx, out, clock))
    }

    fn ops(msg: &ToSketch, mut op: impl FnMut(u64, i64)) {
        match *msg {
            ToSketch::Forward { key, u, .. } => op(key, u),
            ToSketch::ForwardBatch { ref items, .. } => {
                for &(key, u, _) in items {
                    op(key, u);
                }
            }
            ToSketch::Demote { key, pending, .. } => op(key, pending),
            ToSketch::Subtract { key, amount, .. } => op(key, -amount),
            ToSketch::Promoted | ToSketch::Estimate { .. } => {}
        }
    }
}

/// The sketch-core loop: apply counting messages, suggest promotions,
/// answer estimates, and checkpoint on the clock.
fn run_worker<S: Supervisable>(
    mut sketch: S,
    rx: Receiver<ToSketch>,
    out: Sender<FromWorker<S, Promote>>,
    mut clock: CheckpointClock,
) -> S {
    let mut recent = RecentKeys::new();
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
                    let _ = out.send(FromWorker::Note(Promote { key, est }));
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
                        let _ = out.send(FromWorker::Note(Promote { key, est }));
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
        };
        if let Some((seq, ops)) = applied_seq {
            clock.tick(seq, ops, &sketch, &out);
            since_recent_clear += ops;
            if since_recent_clear >= RECENT_TTL_OPS {
                since_recent_clear = 0;
                recent.clear();
            }
        }
    }
    sketch
}

/// Pipeline-parallel ASketch: filter on the caller thread, sketch on a
/// supervised worker thread.
///
/// Public counting/query API matches the sequential `ASketch`; on worker
/// failure the pipeline transparently restores state from checkpoint +
/// journal and keeps answering (see the module docs). Inspect
/// [`stats`](Self::stats) / [`health`](Self::health) to observe faults.
pub struct PipelineASketch<F: Filter, S: Supervisable> {
    filter: F,
    sup: Supervised<S, SketchWorker>,
}

impl<F: Filter, S: Supervisable> PipelineASketch<F, S> {
    /// Spawn the sketch worker and assemble the pipeline with default
    /// supervision parameters.
    pub fn spawn(filter: F, sketch: S) -> Self {
        Self::spawn_with(filter, sketch, SupervisionConfig::default())
    }

    /// Spawn with explicit supervision parameters.
    pub fn spawn_with(filter: F, sketch: S, cfg: SupervisionConfig) -> Self {
        Self {
            filter,
            sup: Supervised::spawn(sketch, cfg, SketchWorker),
        }
    }

    /// Ship one counting op to the worker (the link journals it first, so
    /// no failure mode can lose it). In degraded mode the op is applied
    /// inline instead.
    fn ship_counting(&mut self, key: u64, delta: i64, build: impl FnOnce(u64) -> ToSketch) {
        if let Some((inline, _)) = self.sup.inline_mut() {
            inline.update(key, delta);
            self.sup.stats_mut().inline_updates += 1;
            return;
        }
        let seq = self.sup.next_seq();
        self.sup.ship(seq, build(seq));
    }

    /// Ship a batch of filter misses as one message under one sequence
    /// number (mirrors the holistic-UDAF pipeline's batch shipping). In
    /// degraded mode each item runs through the sequential overflow path
    /// inline instead.
    fn ship_forward_batch(&mut self, items: Vec<(u64, i64, i64)>) {
        if items.is_empty() {
            return;
        }
        if !self.sup.is_live() {
            for (key, u, _) in items {
                self.degraded_overflow(key, u);
            }
            return;
        }
        self.sup.stats_mut().forwarded += items.len() as u64;
        let seq = self.sup.next_seq();
        self.sup.ship(seq, ToSketch::ForwardBatch { items, seq });
    }

    /// Drain everything the worker has sent back: checkpoints prune the
    /// journal, promotion suggestions are applied against current filter
    /// state.
    fn drain_worker_msgs(&mut self) {
        for Promote { key, est } in self.sup.harvest(|_, _| {}) {
            self.apply_promotion(key, est);
        }
    }

    /// Re-check a promotion suggestion against the *current* filter state
    /// and apply it if it still holds.
    fn apply_promotion(&mut self, key: u64, suggested_est: i64) {
        if self.filter.query(key).is_some() {
            return;
        }
        let Some(min) = self.filter.min_count() else {
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
            .filter
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
        self.filter.insert(key, fresh, fresh);
        self.sup.stats_mut().exchanges += 1;
        // Best-effort: let the worker clear its recently-suggested ring.
        self.sup.offer(ToSketch::Promoted);
    }

    /// Estimate for a key not monitored by the filter: a worker round trip
    /// with timeout + retry (failing over if the worker never responds),
    /// or the inline sketch when degraded.
    fn backend_estimate(&mut self, key: u64) -> i64 {
        self.sup
            .estimate(key, |reply| ToSketch::Estimate { key, reply })
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
        self.sup.flush_spill_try();
        if self.filter.update_existing(key, u).is_some() {
            return;
        }
        if !self.filter.is_full() {
            self.filter.insert(key, u, 0);
            return;
        }
        if !self.sup.is_live() {
            self.degraded_overflow(key, u);
            return;
        }
        let filter_min = self.filter.min_count().expect("full filter non-empty");
        self.sup.stats_mut().forwarded += 1;
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
            if self.filter.update_existing(key, u).is_some() {
                continue;
            }
            if !self.filter.is_full() {
                self.filter.insert(key, u, 0);
                continue;
            }
            if !self.sup.is_live() {
                let batch = std::mem::take(&mut misses);
                self.ship_forward_batch(batch);
                self.degraded_overflow(key, u);
                continue;
            }
            let filter_min = self.filter.min_count().expect("full filter non-empty");
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
        let (inline, _) = self
            .sup
            .inline_mut()
            .expect("degraded mode has an inline sketch");
        let est = inline.update_and_estimate(key, u);
        let min = self.filter.min_count().expect("full filter non-empty");
        let exchanged = est > min;
        if exchanged {
            let evicted = self.filter.evict_min().expect("filter non-empty");
            if evicted.pending() > 0 {
                inline.update(evicted.key, evicted.pending());
            }
            self.filter.insert(key, est, est);
        }
        let stats = self.sup.stats_mut();
        stats.inline_updates += 1;
        stats.exchanges += u64::from(exchanged);
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
        match self.filter.subtract(key, amount) {
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
        if let Some(c) = self.filter.query(key) {
            return c;
        }
        self.backend_estimate(key)
    }

    /// Number of promotions applied so far.
    pub fn exchanges(&self) -> u64 {
        self.sup.stats().exchanges
    }

    /// Number of tuples forwarded to the sketch core.
    pub fn forwarded(&self) -> u64 {
        self.sup.stats().forwarded
    }

    /// Runtime counters (forwards, exchanges, queue-full events, spills,
    /// failures, restarts, checkpoints, degraded flag).
    pub fn stats(&self) -> PipelineStats {
        self.sup.stats()
    }

    /// Condensed health view: degraded flag, restart/failure counts, and
    /// the most recent error rendered as a string.
    pub fn health(&self) -> RuntimeHealth {
        self.sup.health()
    }

    /// The most recent worker fault, if any.
    pub fn last_error(&self) -> Option<&PipelineError> {
        self.sup.last_error()
    }

    /// `true` once the restart budget is spent and updates run inline.
    pub fn is_degraded(&self) -> bool {
        self.sup.stats().degraded
    }

    /// The supervision parameters this pipeline runs with.
    pub fn config(&self) -> &SupervisionConfig {
        self.sup.config()
    }

    /// Shut the worker down and return `(filter, sketch)`.
    ///
    /// Never hangs: a healthy worker is joined, a panicked or wedged one is
    /// replaced by the journal reconstruction (check
    /// [`health`](Self::health) before calling if you need to know which).
    pub fn finish(mut self) -> (F, S) {
        self.drain_worker_msgs();
        let sketch = self.sup.finish();
        (self.filter, sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyEstimator};
    use crate::supervisor::BackpressurePolicy;
    use asketch::filter::RelaxedHeapFilter;
    use sketches::{CountMin, FrequencyEstimator};
    use std::time::Duration;

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
