//! Pipeline-parallel Holistic UDAF ("Parallel Hollistic UDAFs" in the
//! paper's Figure 12): the low-level aggregation table runs on the caller's
//! core and each wholesale flush is shipped to a sketch worker as one batch
//! message, so the table core "can immediately start processing next items
//! from the input stream" while the sketch absorbs the batch.
//!
//! The worker runs on the same supervised link as
//! [`PipelineASketch`](crate::PipelineASketch) ([`crate::supervisor`]): a
//! bounded batch channel with a configurable
//! [`BackpressurePolicy`](crate::BackpressurePolicy), a caller-side replay
//! journal pruned by worker checkpoints, bounded restarts with backoff on
//! worker panic, and a permanent inline degraded mode once the restart
//! budget is spent. Every batch is journaled before it is shipped, so no
//! failure mode can lose or double-count a flush.

use std::convert::Infallible;
use std::thread::JoinHandle;

use crate::channel::{Receiver, Sender};

use sketches::lookup;
use sketches::traits::Supervisable;
use sketches::CountMin;

use crate::supervisor::{
    CheckpointClock, FromWorker, PipelineStats, RuntimeHealth, Supervised, SupervisionConfig,
    Worker,
};

/// Messages to the sketch worker.
enum Msg {
    /// A flushed batch of `(key, count)` aggregates; all items share one
    /// journal sequence number.
    Batch { batch: Vec<(u64, i64)>, seq: u64 },
    /// Point-query round trip.
    Estimate { key: u64, reply: Sender<i64> },
}

const EMPTY_KEY: u64 = u64::MAX;

#[inline]
fn canon(key: u64) -> u64 {
    if key == EMPTY_KEY {
        EMPTY_KEY - 1
    } else {
        key
    }
}

/// The sketch worker: applies flushed batches and answers estimates.
struct BatchWorker;

impl<S: Supervisable> Worker<S> for BatchWorker {
    type Msg = Msg;
    type Note = Infallible;

    fn spawn(
        &mut self,
        sketch: S,
        rx: Receiver<Msg>,
        out: Sender<FromWorker<S, Infallible>>,
        cfg: &SupervisionConfig,
    ) -> JoinHandle<S> {
        let clock = CheckpointClock::new(cfg);
        std::thread::spawn(move || run_worker(sketch, rx, out, clock))
    }

    fn ops(msg: &Msg, mut op: impl FnMut(u64, i64)) {
        if let Msg::Batch { batch, .. } = msg {
            for &(key, count) in batch {
                op(key, count);
            }
        }
    }
}

fn run_worker<S: Supervisable>(
    mut sketch: S,
    rx: Receiver<Msg>,
    out: Sender<FromWorker<S, Infallible>>,
    mut clock: CheckpointClock,
) -> S {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch { batch, seq } => {
                // Batched kernel: tuned backends hoist hashing and prefetch
                // across the batch instead of taking one cache-miss chain
                // per item.
                sketch.update_batch(&batch);
                clock.tick(seq, batch.len() as u64, &sketch, &out);
            }
            Msg::Estimate { key, reply } => {
                let _ = reply.send(sketch.estimate(key));
            }
        }
    }
    sketch
}

/// Holistic UDAF with the sketch on a supervised worker thread.
///
/// Generic over any [`Supervisable`] sketch; defaults to [`CountMin`], the
/// configuration of the paper's Figure 12.
pub struct PipelineHUdaf<S: Supervisable = CountMin> {
    ids: Vec<u64>,
    counts: Vec<i64>,
    fill: usize,
    sup: Supervised<S, BatchWorker>,
    flushes: u64,
}

impl<S: Supervisable> PipelineHUdaf<S> {
    /// Spawn the sketch worker with a `table_items`-slot front table and
    /// default supervision parameters.
    ///
    /// # Panics
    /// Panics if `table_items == 0`.
    pub fn spawn(sketch: S, table_items: usize) -> Self {
        Self::spawn_with(sketch, table_items, SupervisionConfig::default())
    }

    /// Spawn with explicit supervision parameters.
    ///
    /// # Panics
    /// Panics if `table_items == 0`.
    pub fn spawn_with(sketch: S, table_items: usize, cfg: SupervisionConfig) -> Self {
        assert!(table_items > 0, "table must hold at least one item");
        Self {
            ids: vec![EMPTY_KEY; table_items],
            counts: vec![0; table_items],
            fill: 0,
            sup: Supervised::spawn(sketch, cfg, BatchWorker),
            flushes: 0,
        }
    }

    /// Ship one flushed batch (journaled first by the link). In degraded
    /// mode the batch is applied inline.
    fn ship_batch(&mut self, batch: Vec<(u64, i64)>) {
        if let Some((inline, _)) = self.sup.inline_mut() {
            inline.update_batch(&batch);
            self.sup.stats_mut().inline_updates += batch.len() as u64;
            return;
        }
        self.sup.stats_mut().forwarded += 1;
        let seq = self.sup.next_seq();
        self.sup.ship(seq, Msg::Batch { batch, seq });
    }

    /// Ship the whole table to the sketch core and clear it.
    fn flush(&mut self) {
        if self.fill == 0 {
            return;
        }
        let batch: Vec<(u64, i64)> = (0..self.fill)
            .map(|i| (self.ids[i], self.counts[i]))
            .collect();
        for i in 0..self.fill {
            self.ids[i] = EMPTY_KEY;
            self.counts[i] = 0;
        }
        self.fill = 0;
        self.flushes += 1;
        self.ship_batch(batch);
        self.sup.harvest(|_, _| {});
    }

    /// Ingest one tuple.
    pub fn update(&mut self, key: u64, delta: i64) {
        let key = canon(key);
        if let Some(i) = lookup::find_key(&self.ids[..self.fill], key) {
            self.counts[i] += delta;
            return;
        }
        if self.fill == self.ids.len() {
            self.flush();
        }
        let i = self.fill;
        self.ids[i] = key;
        self.counts[i] = delta;
        self.fill += 1;
    }

    /// Convenience: `update(key, 1)`.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        self.update(key, 1);
    }

    /// Point query: sketch estimate (round trip, FIFO-ordered behind all
    /// shipped batches) plus any count still pending in the local table.
    /// A worker that never answers is failed over and the restored sketch
    /// answers.
    pub fn estimate(&mut self, key: u64) -> i64 {
        let key = canon(key);
        self.sup.harvest(|_, _| {});
        let pending = lookup::find_key(&self.ids[..self.fill], key).map_or(0, |i| self.counts[i]);
        self.sup.estimate(key, |reply| Msg::Estimate { key, reply }) + pending
    }

    /// Wholesale flushes performed so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Runtime counters (batches shipped, queue-full events, spills,
    /// failures, restarts, checkpoints, degraded flag).
    pub fn stats(&self) -> PipelineStats {
        self.sup.stats()
    }

    /// Condensed health view.
    pub fn health(&self) -> RuntimeHealth {
        self.sup.health()
    }

    /// `true` once the restart budget is spent and batches apply inline.
    pub fn is_degraded(&self) -> bool {
        self.sup.stats().degraded
    }

    /// Shut down and return the sketch (never hangs; see
    /// [`health`](Self::health) for what happened on the way out).
    pub fn finish(mut self) -> S {
        self.flush();
        self.sup.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyEstimator};
    use sketches::FrequencyEstimator;
    use std::time::Duration;

    fn pipeline(table: usize) -> PipelineHUdaf {
        PipelineHUdaf::spawn(CountMin::new(3, 4, 1 << 12).unwrap(), table)
    }

    #[test]
    fn aggregates_runs_locally() {
        let mut p = pipeline(8);
        for _ in 0..500 {
            p.insert(7);
        }
        assert_eq!(p.flush_count(), 0);
        assert_eq!(p.estimate(7), 500);
    }

    #[test]
    fn flush_ships_batches() {
        let mut p = pipeline(2);
        p.insert(1);
        p.insert(2);
        p.insert(3); // forces a flush of {1,2}
        assert_eq!(p.flush_count(), 1);
        assert_eq!(p.estimate(1), 1);
        assert_eq!(p.estimate(3), 1);
        assert_eq!(p.stats().forwarded, p.flush_count());
    }

    #[test]
    fn one_sided_across_pipeline() {
        let mut p = pipeline(4);
        let mut truth = std::collections::HashMap::new();
        let mut x = 5u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let key = x % 300;
            p.insert(key);
            *truth.entry(key).or_insert(0i64) += 1;
        }
        for (&key, &t) in &truth {
            assert!(p.estimate(key) >= t, "under-count for {key}");
        }
    }

    #[test]
    fn finish_flushes_remainder() {
        let mut p = pipeline(8);
        p.insert(9);
        let sketch = p.finish();
        assert_eq!(sketch.estimate(9), 1);
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let mut p = pipeline(4);
        for i in 0..100 {
            p.insert(i);
        }
        drop(p);
    }

    #[test]
    fn worker_panic_recovers_without_losing_batches() {
        let cfg = SupervisionConfig {
            queue_capacity: 4,
            checkpoint_interval: 8,
            max_restarts: 2,
            restart_backoff: Duration::from_millis(1),
            ..SupervisionConfig::default()
        };
        let sketch = FaultyEstimator::new(
            CountMin::new(3, 4, 1 << 12).unwrap(),
            FaultPlan::panic_at(13).with_message("hudaf crash"),
        );
        let mut p = PipelineHUdaf::spawn_with(sketch, 2, cfg);
        let mut truth = std::collections::HashMap::new();
        for i in 0..600u64 {
            let key = i % 7;
            p.insert(key);
            *truth.entry(key).or_insert(0i64) += 1;
        }
        for (&key, &t) in &truth {
            assert!(p.estimate(key) >= t, "under-count for {key} after crash");
        }
        let st = p.stats();
        assert!(st.worker_failures >= 1);
        assert!(st.restarts >= 1);
        assert!(!st.degraded);
    }

    #[test]
    fn degraded_mode_keeps_aggregating() {
        let cfg = SupervisionConfig {
            queue_capacity: 4,
            checkpoint_interval: 8,
            max_restarts: 0,
            ..SupervisionConfig::default()
        };
        let sketch = FaultyEstimator::new(
            CountMin::new(3, 4, 1 << 12).unwrap(),
            FaultPlan::panic_at(5),
        );
        let mut p = PipelineHUdaf::spawn_with(sketch, 2, cfg);
        for i in 0..300u64 {
            p.insert(i % 5);
        }
        for key in 0..5u64 {
            assert!(p.estimate(key) >= 60, "under-count for {key} degraded");
        }
        assert!(p.is_degraded());
        let sketch = p.finish();
        assert!(sketch.estimate(0) >= 60);
    }
}
