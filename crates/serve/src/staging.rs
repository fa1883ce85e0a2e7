//! Cross-connection shard-affine staging for the reactor data plane.
//!
//! Every reactor thread owns one [`Staging`]: UPDATE/UPDATE_BATCH keys
//! from *all* of its connections are partitioned straight into per-shard
//! buckets as they are decoded, then flushed as one mega-batch through
//! [`ConcurrentASketch::insert_sharded`] — one journal sequence and one
//! channel send per shard per flush, instead of one per request frame.
//!
//! Flushing comes in two strengths matching the two backpressure
//! policies:
//!
//! - [`Staging::flush_blocking`] always ships (under
//!   [`asketch_parallel::BackpressurePolicy::Block`] a full channel blocks
//!   the reactor briefly; under `InlineFallback` overflow spills). Used
//!   by the Block policy, by SYNC barriers, and at shutdown — staged
//!   keys that were acknowledged are never dropped.
//! - [`Staging::try_flush`] is all-or-nothing against the runtime's
//!   in-flight depth bound ([`ConcurrentASketch::try_insert_sharded`]):
//!   either every bucket ships or none does and the buckets are left
//!   untouched, which is what gives the shed policy its exact
//!   whole-frame accounting.

use asketch::Filter;
use asketch_parallel::{ConcurrentASketch, KeyPartition};
use sketches::{SharedView, UpdateEstimate};

/// Per-reactor staging buffers: one key bucket per runtime shard.
pub(crate) struct Staging {
    partition: KeyPartition,
    per_shard: Vec<Vec<u64>>,
    staged: usize,
    bound: usize,
    mega_batches: u64,
    mega_batch_keys: u64,
}

impl Staging {
    /// Empty staging over `partition`, flushed at `bound` staged keys.
    pub(crate) fn new(partition: KeyPartition, bound: usize) -> Self {
        Self {
            partition,
            per_shard: vec![Vec::new(); partition.shards()],
            staged: 0,
            bound: bound.max(1),
            mega_batches: 0,
            mega_batch_keys: 0,
        }
    }

    /// Partition `keys` into the shard buckets, preserving arrival order
    /// within each shard (per-key application order is what exactness
    /// depends on; cross-shard order is already unordered by design).
    pub(crate) fn stage(&mut self, keys: impl Iterator<Item = u64>) {
        for key in keys {
            self.per_shard[self.partition.shard_of(key)].push(key);
            self.staged += 1;
        }
    }

    /// Keys currently staged across all buckets.
    pub(crate) fn staged(&self) -> usize {
        self.staged
    }

    /// True when nothing is staged.
    pub(crate) fn is_empty(&self) -> bool {
        self.staged == 0
    }

    /// The configured flush threshold, in keys.
    pub(crate) fn bound(&self) -> usize {
        self.bound
    }

    /// True once the staged total has reached the flush threshold.
    pub(crate) fn at_bound(&self) -> bool {
        self.staged >= self.bound
    }

    /// Mega-batch counters: `(flushes, keys_flushed)`.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.mega_batches, self.mega_batch_keys)
    }

    /// Ship everything staged. Never loses keys: the runtime's own
    /// backpressure policy decides between blocking and spilling.
    pub(crate) fn flush_blocking<F, S>(&mut self, rt: &mut ConcurrentASketch<F, S>)
    where
        F: Filter + Clone + Send + 'static,
        S: SharedView + UpdateEstimate + Clone + Send + 'static,
    {
        if self.staged == 0 {
            return;
        }
        rt.insert_sharded(&mut self.per_shard);
        self.mega_batches += 1;
        self.mega_batch_keys += self.staged as u64;
        self.staged = 0;
    }

    /// Ship everything staged iff every non-empty bucket's shard has room
    /// under `max_depth` in-flight batches. On `false` nothing moved —
    /// the staged keys are still here, untouched.
    pub(crate) fn try_flush<F, S>(
        &mut self,
        rt: &mut ConcurrentASketch<F, S>,
        max_depth: usize,
    ) -> bool
    where
        F: Filter + Clone + Send + 'static,
        S: SharedView + UpdateEstimate + Clone + Send + 'static,
    {
        if self.staged == 0 {
            return true;
        }
        if !rt.try_insert_sharded(&mut self.per_shard, max_depth) {
            return false;
        }
        self.mega_batches += 1;
        self.mega_batch_keys += self.staged as u64;
        self.staged = 0;
        true
    }

    /// Drop everything staged (shed path: the buckets hold exactly one
    /// not-yet-acknowledged frame). Returns how many keys were dropped.
    pub(crate) fn shed(&mut self) -> usize {
        let dropped = self.staged;
        for bucket in &mut self.per_shard {
            bucket.clear();
        }
        self.staged = 0;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asketch::filter::VectorFilter;
    use asketch::ASketch;
    use asketch_parallel::{BackpressurePolicy, ConcurrentConfig, SupervisionConfig};
    use sketches::CountMin;

    fn runtime(policy: BackpressurePolicy) -> ConcurrentASketch<VectorFilter, CountMin> {
        let cfg = ConcurrentConfig {
            shards: 2,
            batch: 32,
            supervision: SupervisionConfig {
                backpressure: policy,
                ..SupervisionConfig::default()
            },
            ..ConcurrentConfig::default()
        };
        ConcurrentASketch::spawn(cfg, |shard| {
            ASketch::new(
                VectorFilter::new(16),
                CountMin::with_byte_budget(shard as u64 + 1, 4, 1 << 14).expect("budget fits"),
            )
        })
    }

    #[test]
    fn stage_flush_preserves_every_key_and_counts_mega_batches() {
        let mut rt = runtime(BackpressurePolicy::Block);
        let mut staging = Staging::new(rt.partition(), 64);
        staging.stage((0..1000u64).map(|i| i % 37));
        assert_eq!(staging.staged(), 1000);
        assert!(staging.at_bound());
        staging.flush_blocking(&mut rt);
        assert!(staging.is_empty());
        assert_eq!(staging.counters(), (1, 1000));
        rt.sync();
        assert_eq!(rt.health().total_routed(), 1000);
        let handle = rt.query_handle();
        assert!(handle.estimate(5) >= (1000 / 37) as i64);
        rt.finish();
    }

    #[test]
    fn shed_clears_buckets_without_routing() {
        let mut rt = runtime(BackpressurePolicy::InlineFallback);
        let mut staging = Staging::new(rt.partition(), 16);
        staging.stage(0..40u64);
        assert_eq!(staging.shed(), 40);
        assert!(staging.is_empty());
        staging.stage(0..8u64);
        staging.flush_blocking(&mut rt);
        rt.sync();
        assert_eq!(rt.health().total_routed(), 8);
        rt.finish();
    }
}
