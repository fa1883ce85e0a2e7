//! The serving front door: config, whole-server counters, and the
//! [`Server`] facade that runs one of two I/O engines over a single
//! [`ConcurrentASketch`] runtime.
//!
//! # I/O models
//!
//! - [`IoModel::Reactor`] (default on Linux) — the event-driven data
//!   plane in [`crate::reactor`]: N epoll reactor threads own disjoint
//!   nonblocking connection sets, decode frames in place, coalesce
//!   UPDATE keys **across connections** into per-shard staging buffers
//!   flushed straight into the runtime's shard channels (one journal
//!   seq + one send per shard mega-batch), and answer reads on the
//!   reactor thread from the wait-free [`QueryHandle`] snapshots.
//! - [`IoModel::Threaded`] — the portable thread-per-connection engine
//!   in [`crate::threaded`]: blocking sockets, a bounded ingest channel,
//!   and one writer thread owning the runtime.
//!
//! Both engines speak the same protocol with the same ordering
//! (per-connection pipelining), backpressure ([`BackpressurePolicy`] —
//! under the reactor it guards the staging buffer instead of a channel),
//! and shutdown (drain every accepted write) semantics; the socket-level
//! integration suite runs unmodified against either. See DESIGN.md §14
//! (protocol/semantics) and §16 (reactor architecture).

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asketch::{ASketch, Filter};
use asketch_parallel::{BackpressurePolicy, ConcurrentASketch, QueryHandle};
use eval_metrics::{ServerGauge, ShardedHealth};
use sketches::{SharedView, UpdateEstimate};

use crate::frame::{ErrorCode, HealthInfoWire, ReactorHealthWire, Response, ShardHealthWire};

/// Which I/O engine drives the sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// Event-driven epoll reactor (Linux only; falls back to
    /// [`IoModel::Threaded`] elsewhere).
    Reactor,
    /// Portable thread-per-connection engine.
    Threaded,
}

impl Default for IoModel {
    /// Reactor on Linux, threaded elsewhere.
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            IoModel::Reactor
        } else {
            IoModel::Threaded
        }
    }
}

impl IoModel {
    /// Stable lowercase name (artifact rows, flags).
    pub fn name(&self) -> &'static str {
        match self {
            IoModel::Reactor => "reactor",
            IoModel::Threaded => "threaded",
        }
    }

    /// The model that will actually run on this platform: `Reactor`
    /// degrades to `Threaded` off Linux.
    pub fn effective(&self) -> Self {
        if *self == IoModel::Reactor && !cfg!(target_os = "linux") {
            IoModel::Threaded
        } else {
            *self
        }
    }
}

/// Serving-layer tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, CI smoke).
    pub addr: String,
    /// Ingest backpressure depth, in batches. Threaded engine: capacity
    /// of the command queue between connection threads and the writer.
    /// Reactor engine: the bound on in-flight mega-batches per shard
    /// channel that the shed policy probes before accepting more.
    pub ingest_queue: usize,
    /// What ingest saturation does to an UPDATE: `Block` (TCP
    /// backpressure) or `InlineFallback` (shed with an error frame).
    pub policy: BackpressurePolicy,
    /// Per-read seqlock retry budget for the wait-free gauge: a read
    /// whose retry delta exceeds this counts as `reader_blocked`.
    pub read_retry_bound: u64,
    /// Print a per-connection [`eval_metrics::ConnectionGauge`] summary
    /// on disconnect.
    pub log_disconnects: bool,
    /// Which I/O engine to run. [`IoModel::Reactor`] silently runs the
    /// threaded engine on non-Linux platforms.
    pub io_model: IoModel,
    /// Reactor thread count (reactor model only). `0` = auto: half the
    /// available cores, clamped to `[1, 4]`.
    pub reactors: usize,
    /// Staging-buffer key bound per reactor (reactor model only): a
    /// wakeup flushes once this many UPDATE keys are staged (and always
    /// at end of wakeup). `0` = auto (16384 keys).
    pub staging_keys: usize,
    /// Queue-depth admission high-water mark for writes, in in-flight
    /// batches per shard. Past it, writes (sequenced or not) are shed
    /// with `ERROR OVERLOADED{retry_after_ms}` while wait-free reads
    /// keep serving. `0` = disabled (the default: hot path unchanged).
    pub admission_high_water: usize,
    /// Maximum simultaneously-served connections. New connections past
    /// the cap are answered with one `ERROR OVERLOADED` frame and
    /// closed. `0` = unlimited.
    pub max_connections: usize,
    /// Idle-session eviction: a connection with no traffic for this long
    /// is closed. `0` = disabled.
    pub idle_timeout_ms: u64,
    /// Slowloris reaper: a connection holding a *partial frame* (bytes
    /// buffered but no complete frame) for longer than this is answered
    /// with `ERROR MALFORMED` and closed. `0` = disabled; the default
    /// (10s) tolerates legitimately slow frame dribble.
    pub partial_frame_timeout_ms: u64,
    /// How long graceful shutdown keeps draining pending response bytes
    /// to connected peers.
    pub drain_ms: u64,
    /// Bound on tracked ingest sessions (exactly-once dedup state);
    /// least-recently-active sessions are evicted past it.
    pub session_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            ingest_queue: 1024,
            policy: BackpressurePolicy::Block,
            read_retry_bound: 64,
            log_disconnects: false,
            io_model: IoModel::default(),
            reactors: 0,
            staging_keys: 0,
            admission_high_water: 0,
            max_connections: 0,
            idle_timeout_ms: 0,
            partial_frame_timeout_ms: 10_000,
            drain_ms: 500,
            session_cap: 1024,
        }
    }
}

impl ServeConfig {
    /// Resolved reactor-thread count.
    pub(crate) fn reactor_count(&self) -> usize {
        if self.reactors > 0 {
            return self.reactors;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (cores / 2).clamp(1, 4)
    }

    /// Resolved staging-buffer key bound.
    pub(crate) fn staging_bound(&self) -> usize {
        if self.staging_keys > 0 {
            self.staging_keys
        } else {
            16384
        }
    }
}

/// Live whole-server counters (atomics; [`ServerStats::gauge`] snapshots
/// them into the serializable [`ServerGauge`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_active: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) updates_ingested: AtomicU64,
    pub(crate) estimates_served: AtomicU64,
    pub(crate) topk_served: AtomicU64,
    pub(crate) updates_shed: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) reader_retries: AtomicU64,
    pub(crate) reader_blocked: AtomicU64,
}

impl ServerStats {
    /// Snapshot the live counters.
    pub fn gauge(&self) -> ServerGauge {
        ServerGauge {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            updates_ingested: self.updates_ingested.load(Ordering::Relaxed),
            estimates_served: self.estimates_served.load(Ordering::Relaxed),
            topk_served: self.topk_served.load(Ordering::Relaxed),
            updates_shed: self.updates_shed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            reader_retries: self.reader_retries.load(Ordering::Relaxed),
            reader_blocked: self.reader_blocked.load(Ordering::Relaxed),
        }
    }
}

/// What an engine hands back when the runtime finishes: the per-shard
/// kernels and the runtime's final health.
pub(crate) type Finished<F, S> = (Vec<ASketch<F, S>>, ShardedHealth);

enum Engine<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    Threaded(crate::threaded::ThreadedEngine<F, S>),
    #[cfg(target_os = "linux")]
    Reactor(crate::reactor::ReactorEngine<F, S>),
}

/// A running serving instance over one [`ConcurrentASketch`] runtime.
pub struct Server<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    handle: QueryHandle<S>,
    engine: Engine<F, S>,
}

impl<F, S> Server<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    /// Bind `cfg.addr` and start serving `rt` with the configured
    /// [`IoModel`]. Returns once the listener is accepting (the bound
    /// address is [`Server::addr`]).
    ///
    /// # Errors
    /// Socket bind/configure failures (reactor model: epoll/eventfd
    /// creation failures too).
    pub fn spawn(cfg: ServeConfig, rt: ConcurrentASketch<F, S>) -> io::Result<Self> {
        let listener = std::net::TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let handle = rt.query_handle();
        let engine = match cfg.io_model.effective() {
            IoModel::Threaded => Engine::Threaded(crate::threaded::ThreadedEngine::spawn(
                listener,
                cfg,
                rt,
                Arc::clone(&stats),
                handle.clone(),
            )),
            #[cfg(target_os = "linux")]
            IoModel::Reactor => Engine::Reactor(crate::reactor::ReactorEngine::spawn(
                listener,
                cfg,
                rt,
                Arc::clone(&stats),
                handle.clone(),
            )?),
            #[cfg(not(target_os = "linux"))]
            IoModel::Reactor => unreachable!("effective() degrades Reactor off Linux"),
        };
        Ok(Self {
            addr,
            stats,
            handle,
            engine,
        })
    }

    /// The bound listening address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn stats(&self) -> ServerGauge {
        self.stats.gauge()
    }

    /// A wait-free query handle onto the served runtime (for in-process
    /// validation alongside network clients).
    pub fn query_handle(&self) -> QueryHandle<S> {
        self.handle.clone()
    }

    /// Graceful shutdown: stop accepting, drain every accepted write
    /// through the runtime, then finish it. Returns the finished
    /// kernels, the runtime's final health (reactor model: with the
    /// per-reactor I/O gauges attached), and the server counters.
    pub fn shutdown(mut self) -> (Vec<ASketch<F, S>>, ShardedHealth, ServerGauge) {
        let (kernels, health) = match &mut self.engine {
            Engine::Threaded(t) => t.finish(),
            #[cfg(target_os = "linux")]
            Engine::Reactor(r) => r.finish(),
        };
        (kernels, health, self.stats.gauge())
    }
}

/// Retry hint carried on shed/refused frames, in milliseconds. A small
/// constant: the queues this guards drain in single-digit milliseconds,
/// and clients jitter their own backoff on top.
pub(crate) const RETRY_AFTER_MS: u32 = 25;

/// The canonical "engine is gone" error response.
pub(crate) fn shutting_down() -> Response {
    Response::Error {
        code: ErrorCode::ShuttingDown,
        detail: "server shutting down".to_string(),
        retry_after_ms: RETRY_AFTER_MS,
    }
}

/// The canonical admission-shed error response.
pub(crate) fn overloaded(detail: &str) -> Response {
    Response::Error {
        code: ErrorCode::Overloaded,
        detail: detail.to_string(),
        retry_after_ms: RETRY_AFTER_MS,
    }
}

/// Encode `resp` and push it at a just-accepted socket best-effort, then
/// drop the socket (refusal path: drain cap and shutdown races). Failures
/// are ignored — the peer learns from the close either way.
pub(crate) fn refuse(sock: std::net::TcpStream, resp: &Response) {
    use std::io::Write;
    let mut buf = Vec::new();
    crate::frame::encode_response(resp, &mut buf);
    let _ = sock.set_write_timeout(Some(std::time::Duration::from_millis(100)));
    let mut sock = sock;
    let _ = sock.write_all(&buf);
    let _ = sock.flush();
    let _ = sock.shutdown(std::net::Shutdown::Both);
}

/// Project runtime health + server counters into the wire form. Per-shard
/// fault classes are carried individually — two shards degraded with
/// different classes both report their own — and the worst class is
/// ranked by severity, never by shard order. Reactor I/O gauges (when the
/// event-driven engine filled them in) ride along per reactor.
pub(crate) fn health_wire(health: &ShardedHealth, stats: &ServerStats) -> HealthInfoWire {
    let worst = health.worst_durability_error();
    HealthInfoWire {
        total_routed: health.total_routed(),
        reader_retries: stats.reader_retries.load(Ordering::Relaxed),
        updates_shed: stats.updates_shed.load(Ordering::Relaxed),
        worst_fault_shard: worst.map(|(shard, _)| shard as u32),
        worst_fault_class: worst.map(|(_, f)| f.class.clone()).unwrap_or_default(),
        shards: health
            .shards
            .iter()
            .map(|g| ShardHealthWire {
                inline_degraded: g.degraded,
                durability_degraded: g.durability_degraded,
                fault_class: g
                    .last_durability_error
                    .as_ref()
                    .map(|f| f.class.clone())
                    .unwrap_or_default(),
            })
            .collect(),
        reactors: health
            .reactors
            .iter()
            .map(|r| ReactorHealthWire {
                connections: r.connections,
                wakeups: r.wakeups,
                frames_in: r.frames_in,
                read_syscalls: r.read_syscalls,
                write_syscalls: r.write_syscalls,
                bytes_read: r.bytes_read,
                bytes_written: r.bytes_written,
                mega_batches: r.mega_batches,
                mega_batch_keys: r.mega_batch_keys,
                staging_bound: r.staging_bound,
            })
            .collect(),
    }
}
