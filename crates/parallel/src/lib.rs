//! # asketch-parallel — supervised multi-core execution of ASketch
//!
//! The parallel configurations of paper §6, run under a fault-tolerant
//! supervision layer:
//!
//! * [`pipeline::PipelineASketch`] — §6.2 pipeline parallelism: filter and
//!   sketch on separate cores connected by bounded [`channel`]s.
//! * [`pipeline_hudaf::PipelineHUdaf`] — Figure 12's parallel holistic
//!   UDAF: batch pre-aggregation in front of a supervised sketch worker.
//! * [`spmd::SpmdGroup`] — §6.3 SPMD parallelism: one full counting kernel
//!   per core, commutative query combine, per-shard panic containment.
//!   [`spmd::hash_shards`] adds a key-partitioned variant whose per-key
//!   queries are owner-exact instead of summed.
//! * [`concurrent::ConcurrentASketch`] — a long-lived key-partitioned
//!   runtime: per-shard worker threads each running the full sequential
//!   ASketch over their key class, with **wait-free point queries served
//!   during ingest** through seqlock-published filter snapshots
//!   ([`seqlock::FilterSnapshot`]) and lock-free sketch views. Per-key
//!   answers after a [`concurrent::ConcurrentASketch::sync`] barrier are
//!   *exactly* the sequential algorithm's.
//!   [`concurrent::ConcurrentASketch::spawn_durable`] adds crash
//!   durability: per-shard write-ahead logs on the ship path, checksummed
//!   background snapshots off the checkpoint path, and
//!   recover-on-spawn with sequence-gated dedup (see `asketch-durable`).
//!
//! The supervision layer ([`supervisor`]) is one supervised worker link,
//! driven by both pipelines and every concurrent shard. It provides bounded
//! backpressure with a configurable [`BackpressurePolicy`], checkpoint +
//! journal state recovery on worker panic, bounded restarts with
//! exponential backoff, a permanent inline degraded mode, and observable
//! [`PipelineStats`]/[`RuntimeHealth`] (per-shard gauges for the concurrent
//! runtime surface through `eval_metrics::ShardedHealth`). The [`fault`]
//! module ships a reusable fault-injection harness ([`FaultyEstimator`])
//! used by the chaos tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affinity;
pub mod channel;
pub mod concurrent;
pub mod fault;
pub mod pipeline;
pub mod pipeline_hudaf;
pub mod router;
pub mod seqlock;
pub mod session;
pub mod spmd;
pub mod supervisor;

pub use concurrent::{ConcurrentASketch, ConcurrentConfig, QueryHandle, ShardSnapshot};
pub use fault::{FaultPlan, FaultyEstimator};
pub use pipeline::PipelineASketch;
pub use pipeline_hudaf::PipelineHUdaf;
pub use router::KeyRouter;
pub use seqlock::FilterSnapshot;
pub use session::{SessionOutcome, SessionTable};
pub use spmd::{
    hash_shards, round_robin_shards, KeyPartition, KeyShards, ShardRecovery, SpmdGroup, SpmdReport,
};
pub use supervisor::{
    BackpressurePolicy, PipelineError, PipelineStats, RuntimeHealth, SupervisionConfig, WorkerOp,
};
