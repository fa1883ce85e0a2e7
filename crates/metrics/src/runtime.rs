//! Runtime health gauges for the concurrent sharded runtime: per-shard
//! queue depth/occupancy, publish epochs, reader retries, and fault
//! counters, with workspace-wide aggregates.
//!
//! Lives in `eval-metrics` (not `asketch-parallel`) so benchmarks and
//! operator tooling can consume the gauges without linking the runtime,
//! and so the JSON shape is owned by the same crate that owns the other
//! measurement types.

/// A storage fault surfaced through health: the machine-readable error
/// class (from `asketch-durable`'s `ErrorClass`) plus the human-readable
/// detail. Carried as data — not a stringified error — so operators and
/// harnesses can branch on `class` (`"no-space"` vs `"corruption"` vs
/// `"io"`) programmatically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFault {
    /// Stable error-class name (e.g. `"io"`, `"no-space"`, `"corruption"`,
    /// `"truncated"`, `"invalid-state"`).
    pub class: String,
    /// Full display form of the underlying typed error.
    pub detail: String,
}

impl StorageFault {
    /// Severity rank of the fault's class, for worst-first aggregation
    /// across shards. Structural damage outranks resource exhaustion,
    /// which outranks plain I/O; unknown classes rank lowest. The exact
    /// numbers are an ordering, not an interface — compare, don't persist.
    pub fn severity(&self) -> u8 {
        match self.class.as_str() {
            "corruption" => 7,
            "out-of-order" => 6,
            "truncated" => 5,
            "unsupported-format" => 4,
            "invalid-state" => 3,
            "no-space" => 2,
            "io" => 1,
            _ => 0,
        }
    }
}

/// Point-in-time health of one shard of the concurrent runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardGauge {
    /// Shard index (the key-partition class this worker owns).
    pub shard: usize,
    /// Batches currently queued toward the worker (sent, not yet applied).
    pub queue_depth: usize,
    /// Capacity of the bounded worker queue, for occupancy math.
    pub queue_capacity: usize,
    /// Keys routed to this shard so far.
    pub routed_ops: u64,
    /// Applied-op count at the shard's last filter snapshot publish; the
    /// reader-visible staleness clock.
    pub published_epoch: u64,
    /// Applied-op count at the shard's last sketch view publish.
    pub view_epoch: u64,
    /// Seqlock reader retries observed on this shard's snapshot
    /// (0 in steady state; readers never block either way).
    pub reader_retries: u64,
    /// Worker respawns performed for this shard.
    pub restarts: u64,
    /// Worker faults observed for this shard.
    pub worker_failures: u64,
    /// Whether the shard currently applies updates inline on the caller.
    pub degraded: bool,
    /// Whether the shard's kernel was restored from durable state
    /// (snapshot and/or WAL) when the runtime spawned.
    pub recovered: bool,
    /// Keys replayed from the WAL during that recovery.
    pub replayed_keys: u64,
    /// WAL batch records appended by this shard in the current session.
    pub wal_records: u64,
    /// WAL sequence number covered by the shard's last completed
    /// background snapshot (0 before the first snapshot lands).
    pub snapshot_seq: u64,
    /// Whether the shard is in **disk-sick degraded mode**: a storage
    /// fault persisted past the retry budget, so the WAL and snapshotting
    /// are off while ingest continues (counting stays correct and
    /// one-sided; persistence stops until a restart).
    pub durability_degraded: bool,
    /// WAL operations retried after a transient storage fault (appends,
    /// fsyncs, and rolls; each backoff-then-retry counts once).
    pub wal_retries: u64,
    /// Snapshot writes retried after a transient storage fault on the
    /// background snapshotter thread.
    pub snapshot_retries: u64,
    /// The fault that degraded this shard (or the snapshotter's persistent
    /// failure), `None` while healthy.
    pub last_durability_error: Option<StorageFault>,
    /// Integrity-scrub passes completed over this shard's directory.
    pub scrub_passes: u64,
    /// Corrupt artifacts (snapshots + sealed WAL segments) the scrubber
    /// has found on this shard.
    pub scrub_corruptions: u64,
    /// Corrupt snapshots the scrubber renamed to `.corrupt`.
    pub snapshots_quarantined: u64,
    /// WAL commit groups flushed by this shard (each coalesces one or
    /// more staged records into a single vectored write).
    pub wal_group_commits: u64,
    /// Interval-policy fsyncs handed to the background WAL syncer thread
    /// instead of blocking the worker.
    pub wal_deferred_fsyncs: u64,
    /// Core this shard's worker successfully pinned itself to, `None`
    /// when pinning is off, unsupported, or failed (best-effort).
    pub pinned_core: Option<usize>,
}

impl ShardGauge {
    /// Queue occupancy in `[0, 1]` (`0` when the queue has no capacity).
    pub fn occupancy(&self) -> f64 {
        if self.queue_capacity == 0 {
            0.0
        } else {
            self.queue_depth as f64 / self.queue_capacity as f64
        }
    }
}

/// Health of every shard of a concurrent runtime, plus aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedHealth {
    /// Per-shard gauges, indexed by shard.
    pub shards: Vec<ShardGauge>,
    /// Per-reactor serving I/O gauges. The runtime itself always leaves
    /// this empty; the serving layer fills it in when an epoll-reactor
    /// front door sits above this runtime, so one health snapshot carries
    /// the whole ingest path (absent from gauges predating the reactor).
    pub reactors: Vec<crate::serving::ReactorGauge>,
}

impl ShardedHealth {
    /// Total keys routed across all shards.
    pub fn total_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.routed_ops).sum()
    }

    /// Total reader retries across all shards.
    pub fn total_reader_retries(&self) -> u64 {
        self.shards.iter().map(|s| s.reader_retries).sum()
    }

    /// Total worker restarts across all shards.
    pub fn total_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Whether any shard is running degraded (inline on the caller).
    pub fn any_degraded(&self) -> bool {
        self.shards.iter().any(|s| s.degraded)
    }

    /// Whether any shard is in disk-sick degraded mode (WAL/snapshotting
    /// off after a persistent storage fault).
    pub fn any_durability_degraded(&self) -> bool {
        self.shards.iter().any(|s| s.durability_degraded)
    }

    /// Number of shards in disk-sick degraded mode.
    pub fn degraded_durability_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.durability_degraded).count()
    }

    /// Total storage-fault retries across shards (WAL + snapshotter).
    pub fn total_storage_retries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.wal_retries + s.snapshot_retries)
            .sum()
    }

    /// The first shard-degrading storage fault, if any shard holds one.
    ///
    /// **Lossy by construction**: when several shards degrade with
    /// *different* classes, whichever shard sorts first wins and the rest
    /// are hidden. Kept for single-fault call sites; anything reporting
    /// health outward (the serving HEALTH frame, operator tooling) must
    /// use [`durability_errors`](Self::durability_errors) for the full
    /// per-shard picture or
    /// [`worst_durability_error`](Self::worst_durability_error) for a
    /// one-line summary that never under-reports severity.
    pub fn first_durability_error(&self) -> Option<&StorageFault> {
        self.shards
            .iter()
            .find_map(|s| s.last_durability_error.as_ref())
    }

    /// Every shard-degrading storage fault, as `(shard index, fault)` in
    /// shard order. Nothing is collapsed: two shards degraded with
    /// distinct classes (say `ENOSPC` on one, `EIO` on another) both
    /// appear, so per-shard reporting (the HEALTH frame) stays faithful.
    pub fn durability_errors(&self) -> Vec<(usize, &StorageFault)> {
        self.shards
            .iter()
            .filter_map(|s| s.last_durability_error.as_ref().map(|f| (s.shard, f)))
            .collect()
    }

    /// The most severe shard-degrading storage fault across shards, by
    /// [`StorageFault::severity`], with its shard index. Ties go to the
    /// lowest shard. This is the summary line a HEALTH consumer should
    /// alarm on: unlike
    /// [`first_durability_error`](Self::first_durability_error) it can
    /// never hide a corruption behind a plain I/O error on an
    /// earlier shard.
    pub fn worst_durability_error(&self) -> Option<(usize, &StorageFault)> {
        let mut worst: Option<(usize, &StorageFault)> = None;
        for (shard, fault) in self
            .shards
            .iter()
            .filter_map(|s| s.last_durability_error.as_ref().map(|f| (s.shard, f)))
        {
            if worst.is_none_or(|(_, w)| fault.severity() > w.severity()) {
                worst = Some((shard, fault));
            }
        }
        worst
    }

    /// Total corrupt artifacts found by the integrity scrubber.
    pub fn total_scrub_corruptions(&self) -> u64 {
        self.shards.iter().map(|s| s.scrub_corruptions).sum()
    }

    /// Total snapshots quarantined by the integrity scrubber.
    pub fn total_quarantined(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshots_quarantined).sum()
    }

    /// Total keys replayed from WALs at spawn, across shards.
    pub fn total_replayed_keys(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed_keys).sum()
    }

    /// Total WAL commit groups flushed across shards.
    pub fn total_group_commits(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_group_commits).sum()
    }

    /// Total fsyncs deferred to the background WAL syncer across shards.
    pub fn total_deferred_fsyncs(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_deferred_fsyncs).sum()
    }

    /// Highest queue occupancy across shards (hot-shard indicator under
    /// skewed key partitions).
    pub fn max_occupancy(&self) -> f64 {
        self.shards
            .iter()
            .map(ShardGauge::occupancy)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_handles_zero_capacity() {
        let g = ShardGauge::default();
        assert_eq!(g.occupancy(), 0.0);
        let g = ShardGauge {
            queue_depth: 3,
            queue_capacity: 4,
            ..ShardGauge::default()
        };
        assert!((g.occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn aggregates_sum_and_detect_degraded() {
        let health = ShardedHealth {
            shards: vec![
                ShardGauge {
                    shard: 0,
                    routed_ops: 10,
                    reader_retries: 1,
                    restarts: 2,
                    queue_depth: 1,
                    queue_capacity: 8,
                    ..ShardGauge::default()
                },
                ShardGauge {
                    shard: 1,
                    routed_ops: 5,
                    degraded: true,
                    queue_depth: 6,
                    queue_capacity: 8,
                    ..ShardGauge::default()
                },
            ],
            reactors: Vec::new(),
        };
        assert_eq!(health.total_routed(), 15);
        assert_eq!(health.total_reader_retries(), 1);
        assert_eq!(health.total_restarts(), 2);
        assert!(health.any_degraded());
        assert!((health.max_occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn durability_aggregates_expose_typed_faults() {
        let health = ShardedHealth {
            shards: vec![
                ShardGauge {
                    shard: 0,
                    wal_retries: 3,
                    snapshot_retries: 1,
                    scrub_passes: 2,
                    scrub_corruptions: 1,
                    snapshots_quarantined: 1,
                    ..ShardGauge::default()
                },
                ShardGauge {
                    shard: 1,
                    durability_degraded: true,
                    last_durability_error: Some(StorageFault {
                        class: "no-space".into(),
                        detail: "wal append: disk full".into(),
                    }),
                    ..ShardGauge::default()
                },
            ],
            reactors: Vec::new(),
        };
        assert!(health.any_durability_degraded());
        assert_eq!(health.degraded_durability_shards(), 1);
        assert_eq!(health.total_storage_retries(), 4);
        assert_eq!(health.total_scrub_corruptions(), 1);
        assert_eq!(health.total_quarantined(), 1);
        assert_eq!(
            health.first_durability_error().map(|f| f.class.as_str()),
            Some("no-space"),
            "callers can branch on the class without string-parsing"
        );
    }

    fn fault(class: &str) -> StorageFault {
        StorageFault {
            class: class.into(),
            detail: format!("test fault: {class}"),
        }
    }

    /// Multi-shard degradation with *distinct* classes must not collapse:
    /// `first_durability_error` hides the worse class behind whichever
    /// shard sorts first (the historical lossy behavior), while the new
    /// accessors keep every shard's class and rank the worst correctly.
    #[test]
    fn multi_shard_faults_surface_per_shard_and_worst_class() {
        let health = ShardedHealth {
            shards: vec![
                ShardGauge {
                    shard: 0,
                    durability_degraded: true,
                    last_durability_error: Some(fault("io")),
                    ..ShardGauge::default()
                },
                ShardGauge {
                    shard: 1,
                    durability_degraded: true,
                    last_durability_error: Some(fault("no-space")),
                    ..ShardGauge::default()
                },
                ShardGauge {
                    shard: 2,
                    ..ShardGauge::default()
                },
            ],
            reactors: Vec::new(),
        };
        // The lossy summary: reports "io" and hides the ENOSPC entirely.
        assert_eq!(
            health.first_durability_error().map(|f| f.class.as_str()),
            Some("io")
        );
        // Full per-shard picture, in shard order, healthy shards omitted.
        let per_shard = health.durability_errors();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(per_shard[0].0, 0);
        assert_eq!(per_shard[0].1.class, "io");
        assert_eq!(per_shard[1].0, 1);
        assert_eq!(per_shard[1].1.class, "no-space");
        // Worst-first summary: no-space (resource exhaustion) outranks io.
        let (shard, worst) = health.worst_durability_error().unwrap();
        assert_eq!(shard, 1);
        assert_eq!(worst.class, "no-space");
    }

    #[test]
    fn severity_ranks_structural_damage_over_exhaustion_over_io() {
        let ranked = [
            "corruption",
            "out-of-order",
            "truncated",
            "unsupported-format",
            "invalid-state",
            "no-space",
            "io",
            "anything-unknown",
        ];
        for pair in ranked.windows(2) {
            assert!(
                fault(pair[0]).severity() > fault(pair[1]).severity(),
                "{} must outrank {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn worst_durability_error_ties_pick_the_lowest_shard() {
        let health = ShardedHealth {
            shards: vec![
                ShardGauge {
                    shard: 0,
                    last_durability_error: Some(fault("io")),
                    ..ShardGauge::default()
                },
                ShardGauge {
                    shard: 1,
                    last_durability_error: Some(fault("io")),
                    ..ShardGauge::default()
                },
            ],
            reactors: Vec::new(),
        };
        assert_eq!(health.worst_durability_error().unwrap().0, 0);
        let empty = ShardedHealth::default();
        assert!(empty.worst_durability_error().is_none());
        assert!(empty.durability_errors().is_empty());
    }
}
