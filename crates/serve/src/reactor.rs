//! The event-driven serving data plane (Linux): N epoll reactor threads
//! own disjoint nonblocking connection sets and drive the whole
//! request/response cycle without per-connection threads.
//!
//! # Wakeup anatomy
//!
//! One `epoll_wait` wakeup on a reactor:
//!
//! 1. **Adopt** — new sockets the acceptor round-robined into this
//!    reactor's inbox (eventfd-signalled) are registered, level-triggered.
//! 2. **Read + decode** — each readable connection is drained with
//!    vectored reads (bounded per connection per wakeup, so one firehose
//!    cannot starve its neighbours), and complete frames are decoded **in
//!    place** ([`decode_request_ref`]) from the connection buffer.
//!    Reads (`ESTIMATE`/`ESTIMATE_BATCH`/`TOPK`) are answered immediately
//!    from the wait-free [`QueryHandle`] seqlock snapshots; write keys are
//!    partitioned into the reactor's cross-connection [`Staging`]
//!    buckets. Responses are appended to the connection's gather buffer —
//!    nothing touches the socket yet.
//! 3. **Flush** — staged keys ship to the runtime as one mega-batch per
//!    shard ([`ConcurrentASketch::insert_sharded`]): one journal sequence
//!    and one channel send per shard per wakeup instead of one per frame.
//! 4. **Write** — each touched connection's responses go out in a single
//!    write syscall. Short writes arm `EPOLLOUT` and resume exactly where
//!    they stopped next wakeup.
//!
//! # Ordering, backpressure, durability
//!
//! *Ordering*: frames are decoded and answered sequentially per
//! connection, and the gather buffer preserves append order across
//! partial writes — response order equals request order under pipelining,
//! exactly as in the threaded engine.
//!
//! *Backpressure*: under [`BackpressurePolicy::Block`] the staging flush
//! blocks until the shard channels accept the batch; reads are bounded
//! per wakeup, so a flooding client fills its kernel buffers and stalls
//! (end-to-end TCP backpressure, zero shed). Under `InlineFallback` an
//! arriving frame that cannot fit probes the runtime's in-flight depth
//! ([`ConcurrentASketch::try_insert_sharded`], all-or-nothing) and the
//! frame is shed whole with `ERROR overloaded` when there is no room —
//! accepted keys are never dropped, shed keys are never staged, so the
//! books stay exact.
//!
//! *Durability*: the staging flush runs **before** the write pass, and
//! `insert_sharded` journals before it sends — so by the time an `OK`
//! reaches a client, its keys have a journal sequence and a queue slot
//! (at least as strong as the threaded engine's accepted-queue
//! guarantee). SYNC flushes this reactor's staging, then runs the
//! runtime barrier + WAL checkpoint under the core lock.
//!
//! # The core lock
//!
//! The runtime lives in an `Arc<Mutex<Option<..>>>` shared by the
//! reactors. The mutex serializes flushes, which is what keeps the
//! runtime's router single-writer with N reactor threads; it is taken
//! once per mega-batch (not per frame), so it is far off the hot path.
//! Shutdown joins the reactors first (each does a final blocking flush),
//! then takes the runtime out and finishes it with its documented
//! shutdown ordering.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asketch::Filter;
use asketch_parallel::{BackpressurePolicy, ConcurrentASketch, KeyPartition, QueryHandle};
use eval_metrics::{ConnectionGauge, ReactorGauge, ShardedHealth};
use sketches::{SharedView, UpdateEstimate};

use crate::conn::{Conn, ReadProgress, OUT_HIGH_WATER, OUT_LOW_WATER, READ_CHUNK};
use crate::frame::{
    decode_request_ref, encode_response, ErrorCode, RequestRef, Response, MAX_FRAME,
};
use crate::server::{
    health_wire, overloaded, refuse, shutting_down, Finished, ServeConfig, ServerStats,
};
use crate::staging::Staging;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Vectored reads per connection per wakeup: bounds how much one
/// connection can monopolize a wakeup (level-triggered epoll re-reports
/// anything left unread).
const MAX_READS_PER_WAKEUP: usize = 4;

/// Idle `epoll_wait` timeout; wakes are eventfd-driven, this only bounds
/// how stale the stop-flag check can get.
const IDLE_TIMEOUT_MS: i32 = 200;

/// How often the idle/slowloris reaper sweeps a reactor's connections.
const REAP_INTERVAL: Duration = Duration::from_millis(100);

/// Live per-reactor I/O counters, shared so any reactor can snapshot the
/// whole set for a HEALTH frame.
#[derive(Default)]
struct GaugeCells {
    connections: AtomicU64,
    wakeups: AtomicU64,
    frames_in: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    mega_batches: AtomicU64,
    mega_batch_keys: AtomicU64,
    staging_bound: AtomicU64,
}

impl GaugeCells {
    fn snapshot(&self, reactor: usize) -> ReactorGauge {
        ReactorGauge {
            reactor,
            connections: self.connections.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            read_syscalls: self.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: self.write_syscalls.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            mega_batches: self.mega_batches.load(Ordering::Relaxed),
            mega_batch_keys: self.mega_batch_keys.load(Ordering::Relaxed),
            staging_bound: self.staging_bound.load(Ordering::Relaxed),
        }
    }
}

/// The acceptor→reactor handoff: accepted sockets parked under a mutex,
/// an eventfd to lift the reactor out of `epoll_wait`.
struct Inbox {
    incoming: Mutex<Vec<TcpStream>>,
    wake: EventFd,
}

/// The shared, reactor-flushed runtime. `None` once shutdown took it.
type IngestCore<F, S> = Arc<Mutex<Option<ConcurrentASketch<F, S>>>>;

/// The running reactor engine behind the [`crate::Server`] facade.
pub(crate) struct ReactorEngine<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    stop: Arc<AtomicBool>,
    /// Set before `stop` during graceful shutdown: the acceptor answers
    /// new connections with one `SHUTTING_DOWN` frame and closes them
    /// while the reactors drain.
    draining: Arc<AtomicBool>,
    /// Final acceptor exit flag, set after the reactors joined.
    accept_stop: Arc<AtomicBool>,
    core: IngestCore<F, S>,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    inboxes: Arc<Vec<Inbox>>,
    gauges: Arc<Vec<GaugeCells>>,
}

impl<F, S> ReactorEngine<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    /// Start serving `rt` on an already-bound nonblocking `listener`.
    ///
    /// # Errors
    /// epoll/eventfd creation or thread-spawn failures.
    pub(crate) fn spawn(
        listener: TcpListener,
        cfg: ServeConfig,
        rt: ConcurrentASketch<F, S>,
        stats: Arc<ServerStats>,
        handle: QueryHandle<S>,
    ) -> io::Result<Self> {
        let n = cfg.reactor_count();
        let partition = rt.partition();
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::new(AtomicBool::new(false));
        let core: IngestCore<F, S> = Arc::new(Mutex::new(Some(rt)));

        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            inboxes.push(Inbox {
                incoming: Mutex::new(Vec::new()),
                wake: EventFd::new()?,
            });
        }
        let inboxes = Arc::new(inboxes);

        let gauges: Arc<Vec<GaugeCells>> = Arc::new(
            (0..n)
                .map(|_| {
                    let cells = GaugeCells::default();
                    cells
                        .staging_bound
                        .store(cfg.staging_bound() as u64, Ordering::Relaxed);
                    cells
                })
                .collect(),
        );

        let mut reactors = Vec::with_capacity(n);
        for idx in 0..n {
            let reactor = Reactor {
                idx,
                epoll: Epoll::new()?,
                stop: Arc::clone(&stop),
                core: Arc::clone(&core),
                inboxes: Arc::clone(&inboxes),
                gauges: Arc::clone(&gauges),
                handle: handle.clone(),
                stats: Arc::clone(&stats),
                cfg: cfg.clone(),
                staging: Staging::new(partition, cfg.staging_bound()),
                partition,
                max_depth: cfg.ingest_queue.max(1),
                conns: Vec::new(),
                free: Vec::new(),
                touched: Vec::new(),
                scratch: Box::new([0u8; READ_CHUNK]),
                last_reap: Instant::now(),
            };
            let t = std::thread::Builder::new()
                .name(format!("serve-reactor-{idx}"))
                .spawn(move || reactor.run())?;
            reactors.push(t);
        }

        let acceptor = {
            let accept_stop = Arc::clone(&accept_stop);
            let draining = Arc::clone(&draining);
            let stats = Arc::clone(&stats);
            let inboxes = Arc::clone(&inboxes);
            let max_connections = cfg.max_connections;
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || {
                    let mut next = 0usize;
                    while !accept_stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((sock, _peer)) => {
                                if draining.load(Ordering::Acquire) {
                                    refuse(sock, &shutting_down());
                                    continue;
                                }
                                if max_connections > 0
                                    && stats.connections_active.load(Ordering::Relaxed)
                                        >= max_connections as u64
                                {
                                    refuse(sock, &overloaded("connection cap reached"));
                                    continue;
                                }
                                let _ = sock.set_nodelay(true);
                                if sock.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                                let inbox = &inboxes[next % inboxes.len()];
                                next = next.wrapping_add(1);
                                inbox
                                    .incoming
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(sock);
                                inbox.wake.wake();
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(_) => break,
                        }
                    }
                })?
        };

        Ok(Self {
            stop,
            draining,
            accept_stop,
            core,
            acceptor: Some(acceptor),
            reactors,
            inboxes,
            gauges,
        })
    }

    /// Graceful shutdown: enter the drain phase (new connections get one
    /// `SHUTTING_DOWN` frame), let every reactor drain its connections
    /// and blocking-flush its staging, then stop the acceptor, take the
    /// runtime and finish it. The returned health carries the final
    /// per-reactor I/O gauges.
    pub(crate) fn finish(&mut self) -> Finished<F, S> {
        // Drain phase: a client reconnecting while the reactors wind
        // down gets a typed refusal at the socket, not a silent drop.
        self.draining.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        for inbox in self.inboxes.iter() {
            inbox.wake.wake();
        }
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
        self.accept_stop.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let rt = self
            .core
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match rt {
            Some(rt) => {
                let (kernels, mut health) = rt.finish_with_health();
                health.reactors = self
                    .gauges
                    .iter()
                    .enumerate()
                    .map(|(i, g)| g.snapshot(i))
                    .collect();
                (kernels, health)
            }
            None => (Vec::new(), ShardedHealth::default()),
        }
    }
}

impl<F, S> Drop for ReactorEngine<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    /// Best-effort teardown when dropped without a graceful finish:
    /// signal stop and wake the reactors; they flush and wind down on
    /// their own, and the runtime drops with the last core reference.
    fn drop(&mut self) {
        self.draining.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        self.accept_stop.store(true, Ordering::Release);
        for inbox in self.inboxes.iter() {
            inbox.wake.wake();
        }
    }
}

/// One reactor thread's state: its epoll instance, its connection slab,
/// and its cross-connection staging.
struct Reactor<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    idx: usize,
    epoll: Epoll,
    stop: Arc<AtomicBool>,
    core: IngestCore<F, S>,
    inboxes: Arc<Vec<Inbox>>,
    gauges: Arc<Vec<GaugeCells>>,
    handle: QueryHandle<S>,
    stats: Arc<ServerStats>,
    cfg: ServeConfig,
    staging: Staging,
    /// The runtime's key partition, for sessioned writes (which bypass
    /// staging and apply per frame with session dedup).
    partition: KeyPartition,
    max_depth: usize,
    /// Connection slab; epoll token = slot + 1 (token 0 is the eventfd).
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots that produced output this wakeup (write-pass worklist).
    touched: Vec<usize>,
    scratch: Box<[u8; READ_CHUNK]>,
    /// Last idle/slowloris reaper sweep.
    last_reap: Instant,
}

impl<F, S> Reactor<F, S>
where
    F: Filter + Clone + Send + 'static,
    S: SharedView + UpdateEstimate + Clone + Send + 'static,
{
    fn run(mut self) {
        if self
            .epoll
            .add(self.inboxes[self.idx].wake.raw_fd(), EPOLLIN, 0)
            .is_err()
        {
            return;
        }
        let mut events = vec![EpollEvent::zeroed(); 256];
        loop {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            // Mid-wakeup state never survives: staging flushes and
            // touched drains at the end of every wakeup, so the idle
            // timeout only bounds stop-flag staleness.
            let n = match self.epoll.wait(&mut events, IDLE_TIMEOUT_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.gauges[self.idx]
                .wakeups
                .fetch_add(1, Ordering::Relaxed);
            for ev in &events[..n] {
                let token = ev.token();
                if token == 0 {
                    self.inboxes[self.idx].wake.drain();
                    self.adopt_incoming();
                } else {
                    self.handle_conn_event((token - 1) as usize, ev.mask());
                }
            }
            // Flush BEFORE the write pass: an OK that reaches a socket is
            // always backed by journaled, queued keys.
            self.flush_blocking();
            if self.last_reap.elapsed() >= REAP_INTERVAL {
                self.reap();
            }
            self.write_pass();
        }
        self.shutdown_drain();
    }

    /// Register sockets the acceptor handed to this reactor.
    fn adopt_incoming(&mut self) {
        let sockets: Vec<TcpStream> = self.inboxes[self.idx]
            .incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for sock in sockets {
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let mut conn = Conn::new(sock);
            conn.interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(conn.sock().as_raw_fd(), conn.interest, (slot + 1) as u64)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.stats
                .connections_active
                .fetch_add(1, Ordering::Relaxed);
            self.gauges[self.idx]
                .connections
                .fetch_add(1, Ordering::Relaxed);
            self.conns[slot] = Some(conn);
        }
    }

    /// React to one epoll event on a connection.
    fn handle_conn_event(&mut self, slot: usize, mask: u32) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let mut alive = mask & EPOLLERR == 0;
        if alive && mask & EPOLLIN != 0 && !conn.read_parked && !conn.closing {
            alive = self.read_and_process(&mut conn);
        } else if alive && mask & (EPOLLHUP | EPOLLRDHUP) != 0 && !conn.closing {
            // Peer hung up with nothing readable: drain what we owe,
            // then close.
            conn.closing = true;
        }
        if !alive {
            self.close_conn(slot, conn);
            return;
        }
        if !conn.touched {
            conn.touched = true;
            self.touched.push(slot);
        }
        self.conns[slot] = Some(conn);
    }

    /// Drain the socket (bounded) and process every complete frame.
    /// Returns `false` when the transport is unusable.
    fn read_and_process(&mut self, conn: &mut Conn) -> bool {
        for _ in 0..MAX_READS_PER_WAKEUP {
            match conn.read_some(&mut self.scratch) {
                ReadProgress::Data(n) => {
                    conn.last_activity = Instant::now();
                    let cells = &self.gauges[self.idx];
                    cells.read_syscalls.fetch_add(1, Ordering::Relaxed);
                    cells.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                    self.process_frames(conn);
                    if conn.closing || conn.read_parked {
                        break;
                    }
                    if n < READ_CHUNK {
                        break;
                    }
                }
                ReadProgress::Eof => {
                    // Complete frames were already answered after each
                    // read; whatever remains is a torn frame and is
                    // deliberately not applied. Deliver what we owe,
                    // then close.
                    conn.closing = true;
                    break;
                }
                ReadProgress::WouldBlock => break,
                ReadProgress::Broken => return false,
            }
        }
        true
    }

    /// Decode and answer every complete frame in `conn.buf`, in place.
    fn process_frames(&mut self, conn: &mut Conn) {
        // Move the buffers out so the borrow of `buf` inside
        // `decode_request_ref` leaves `self`/`conn` free for staging,
        // stats, and the query handle.
        let buf = std::mem::take(&mut conn.buf);
        let mut out = std::mem::take(&mut conn.out);
        let mut off = 0usize;
        while buf.len() - off >= 4 {
            let declared = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
            if declared > MAX_FRAME {
                // Framing is unrecoverable: answer why, then close once
                // the answer drains.
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.gauge.protocol_errors += 1;
                let resp = Response::Error {
                    code: ErrorCode::TooLarge,
                    detail: format!("declared frame length {declared} exceeds {MAX_FRAME}"),
                    retry_after_ms: 0,
                };
                encode_response(&resp, &mut out);
                self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                conn.gauge.frames_out += 1;
                conn.closing = true;
                off = buf.len();
                break;
            }
            let len = declared as usize;
            if buf.len() - off - 4 < len {
                break; // partial frame; resume after the next read
            }
            let payload = &buf[off + 4..off + 4 + len];
            off += 4 + len;
            self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
            self.gauges[self.idx]
                .frames_in
                .fetch_add(1, Ordering::Relaxed);
            conn.gauge.frames_in += 1;
            let resp = match decode_request_ref(payload) {
                Ok(req) => self.answer(req, &mut conn.gauge, &mut conn.session),
                Err(e) => {
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.gauge.protocol_errors += 1;
                    Response::Error {
                        code: e.code(),
                        detail: e.detail(),
                        retry_after_ms: 0,
                    }
                }
            };
            encode_response(&resp, &mut out);
            self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
            conn.gauge.frames_out += 1;
        }
        conn.buf = buf;
        conn.out = out;
        conn.consume(off);
        if conn.closing {
            conn.buf.clear();
        }
    }

    /// Answer one decoded request. Reads come straight off the snapshot
    /// handle; writes go through the staging path under the configured
    /// backpressure policy.
    fn answer(
        &mut self,
        req: RequestRef<'_>,
        gauge: &mut ConnectionGauge,
        session: &mut Option<u64>,
    ) -> Response {
        match req {
            RequestRef::Update(key) => self.ingest(1, std::iter::once(key), gauge),
            RequestRef::UpdateBatch(keys) => self.ingest(keys.len(), keys.iter(), gauge),
            RequestRef::Hello {
                session_id,
                resume_seq,
            } => self.hello_session(session, session_id, resume_seq),
            RequestRef::UpdateSeq { seq, key } => {
                self.ingest_sessioned(*session, seq, std::iter::once(key), gauge)
            }
            RequestRef::UpdateBatchSeq { seq, keys } => {
                self.ingest_sessioned(*session, seq, keys.iter(), gauge)
            }
            RequestRef::Estimate(key) => {
                let before = self.handle.reader_retries();
                let value = self.handle.estimate(key);
                self.track_read(self.handle.reader_retries() - before, 1, gauge);
                Response::Value(value)
            }
            RequestRef::EstimateBatch(keys) => {
                let owned = keys.to_vec();
                let before = self.handle.reader_retries();
                let values = self.handle.estimate_batch(&owned);
                self.track_read(
                    self.handle.reader_retries() - before,
                    owned.len() as u64,
                    gauge,
                );
                Response::Values(values)
            }
            RequestRef::TopK(k) => {
                let items = self.handle.top_k((k as usize).min(1 << 16));
                self.stats.topk_served.fetch_add(1, Ordering::Relaxed);
                Response::TopKItems(items)
            }
            RequestRef::Health => self.health(),
            RequestRef::Sync => self.sync(),
        }
    }

    /// Stage one write frame's keys under the backpressure policy.
    fn ingest(
        &mut self,
        n: usize,
        keys: impl Iterator<Item = u64>,
        gauge: &mut ConnectionGauge,
    ) -> Response {
        if self.cfg.admission_high_water > 0 && self.admission_over() {
            return self.shed_frame(gauge);
        }
        match self.cfg.policy {
            BackpressurePolicy::Block => {
                self.staging.stage(keys);
                if self.staging.at_bound() {
                    self.flush_blocking();
                }
            }
            BackpressurePolicy::InlineFallback => {
                if self.staging.staged() + n > self.staging.bound() {
                    // Make room first; all-or-nothing against the
                    // in-flight depth bound.
                    self.try_flush();
                    if !self.staging.is_empty() {
                        // Still no room for already-accepted keys: this
                        // frame is shed whole, never staged.
                        return self.shed_frame(gauge);
                    }
                    if n > self.staging.bound() {
                        // Oversized frame: stage it alone and ship
                        // all-or-nothing right now.
                        self.staging.stage(keys);
                        if !self.try_flush() {
                            // Staging holds exactly this frame; dropping
                            // it keeps the books whole-frame exact.
                            self.staging.shed();
                            return self.shed_frame(gauge);
                        }
                        return self.accepted(n, gauge);
                    }
                }
                self.staging.stage(keys);
            }
        }
        self.accepted(n, gauge)
    }

    fn accepted(&self, n: usize, gauge: &mut ConnectionGauge) -> Response {
        self.stats
            .updates_ingested
            .fetch_add(n as u64, Ordering::Relaxed);
        gauge.updates += n as u64;
        Response::Ok(n as u32)
    }

    fn shed_frame(&self, gauge: &mut ConnectionGauge) -> Response {
        self.stats.updates_shed.fetch_add(1, Ordering::Relaxed);
        gauge.shed += 1;
        overloaded("ingest queue full; batch shed")
    }

    /// Queue-depth admission probe: true when the runtime's deepest
    /// shard queue has backed up past the configured high-water mark.
    /// Only consulted when `admission_high_water > 0`, so the default
    /// hot path never takes this lock per frame.
    fn admission_over(&self) -> bool {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(rt) => rt.max_queue_depth() >= self.cfg.admission_high_water,
            None => false,
        }
    }

    /// HELLO handshake: register the session on this connection, fold
    /// the client's resume floor into the runtime's session table, and
    /// answer the sequence the client may safely resume after.
    fn hello_session(
        &mut self,
        conn_session: &mut Option<u64>,
        session_id: u64,
        resume_seq: u64,
    ) -> Response {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(rt) = guard.as_mut() else {
            return shutting_down();
        };
        let applied = rt.hello(session_id, resume_seq);
        *conn_session = Some(session_id);
        Response::HelloAck {
            applied_seq: applied,
        }
    }

    /// One sequenced write: partition, then apply under the core lock
    /// with per-shard session dedup — bypassing the cross-connection
    /// staging so the (session, seq) annotation rides the exact shard
    /// batches this frame produced. Duplicates are always admitted even
    /// when backed up: dedup ships nothing, and the retrying client
    /// needs the ack.
    fn ingest_sessioned(
        &mut self,
        session: Option<u64>,
        seq: u64,
        keys: impl Iterator<Item = u64>,
        gauge: &mut ConnectionGauge,
    ) -> Response {
        let Some(sid) = session else {
            return Response::Error {
                code: ErrorCode::Malformed,
                detail: "sequenced update before HELLO".to_string(),
                retry_after_ms: 0,
            };
        };
        let mut batches: Vec<Vec<u64>> = vec![Vec::new(); self.partition.shards()];
        for key in keys {
            batches[self.partition.shard_of(key)].push(key);
        }
        let outcome = {
            let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(rt) = guard.as_mut() else {
                return shutting_down();
            };
            let depth_bound = if self.cfg.admission_high_water > 0 {
                Some(self.cfg.admission_high_water)
            } else if matches!(self.cfg.policy, BackpressurePolicy::InlineFallback) {
                Some(self.max_depth)
            } else {
                None
            };
            match depth_bound {
                Some(bound) => rt.try_insert_sessioned(sid, seq, &mut batches, bound),
                None => Some(rt.insert_sessioned(sid, seq, &mut batches)),
            }
        };
        match outcome {
            Some(o) => {
                self.stats
                    .updates_ingested
                    .fetch_add(o.applied as u64, Ordering::Relaxed);
                gauge.updates += o.applied as u64;
                Response::OkSeq {
                    seq,
                    applied: o.applied as u32,
                    duplicate: o.duplicate,
                    degraded: o.degraded,
                }
            }
            None => self.shed_frame(gauge),
        }
    }

    /// The idle/slowloris reaper: close connections with no traffic past
    /// the idle window, and answer-then-close connections that have held
    /// a partial frame past the partial-frame window (a peer feeding
    /// bytes too slowly to ever complete a frame ties up a slot
    /// otherwise).
    fn reap(&mut self) {
        self.last_reap = Instant::now();
        let idle = self.cfg.idle_timeout_ms;
        let partial = self.cfg.partial_frame_timeout_ms;
        if idle == 0 && partial == 0 {
            return;
        }
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            if conn.closing {
                self.conns[slot] = Some(conn);
                continue;
            }
            let quiet = conn.last_activity.elapsed();
            if partial > 0 && !conn.buf.is_empty() && quiet >= Duration::from_millis(partial) {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.gauge.protocol_errors += 1;
                let resp = Response::Error {
                    code: ErrorCode::Malformed,
                    detail: "partial frame timed out".to_string(),
                    retry_after_ms: 0,
                };
                encode_response(&resp, &mut conn.out);
                self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                conn.gauge.frames_out += 1;
                conn.closing = true;
                conn.buf.clear();
                if !conn.touched {
                    conn.touched = true;
                    self.touched.push(slot);
                }
                self.conns[slot] = Some(conn);
            } else if idle > 0
                && conn.buf.is_empty()
                && conn.pending_out() == 0
                && quiet >= Duration::from_millis(idle)
            {
                self.close_conn(slot, conn);
            } else {
                self.conns[slot] = Some(conn);
            }
        }
    }

    /// Account one read's seqlock retry delta against the wait-free
    /// gauge (same policy as the threaded engine).
    fn track_read(&self, delta: u64, reads: u64, gauge: &mut ConnectionGauge) {
        self.stats
            .estimates_served
            .fetch_add(reads, Ordering::Relaxed);
        gauge.estimates += reads;
        if delta > 0 {
            self.stats
                .reader_retries
                .fetch_add(delta, Ordering::Relaxed);
        }
        if delta > self.cfg.read_retry_bound {
            self.stats.reader_blocked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publish the cumulative mega-batch counters to the shared cells.
    fn publish_mega_counters(staging: &Staging, cells: &GaugeCells) {
        let (batches, keys) = staging.counters();
        cells.mega_batches.store(batches, Ordering::Relaxed);
        cells.mega_batch_keys.store(keys, Ordering::Relaxed);
    }

    /// Ship everything staged, blocking on channel room if needed. Never
    /// loses accepted keys.
    fn flush_blocking(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(rt) => {
                self.staging.flush_blocking(rt);
                Self::publish_mega_counters(&self.staging, &self.gauges[self.idx]);
            }
            // Shutdown already took the runtime; nothing can apply these.
            None => {
                self.staging.shed();
            }
        }
    }

    /// Ship everything staged iff every shard has depth room; on `false`
    /// the staged keys are untouched.
    fn try_flush(&mut self) -> bool {
        if self.staging.is_empty() {
            return true;
        }
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            Some(rt) => {
                let shipped = self.staging.try_flush(rt, self.max_depth);
                if shipped {
                    Self::publish_mega_counters(&self.staging, &self.gauges[self.idx]);
                }
                shipped
            }
            None => false,
        }
    }

    /// SYNC barrier: flush this reactor's staging, then run the runtime
    /// barrier and WAL checkpoint. Keys acknowledged by other reactors
    /// are already shipped (flush-before-write), so the returned total
    /// covers every acknowledged write anywhere.
    fn sync(&mut self) -> Response {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(rt) = guard.as_mut() else {
            return shutting_down();
        };
        self.staging.flush_blocking(rt);
        Self::publish_mega_counters(&self.staging, &self.gauges[self.idx]);
        rt.sync();
        // Durable runtimes: fsync the WALs so SYNCED means "will survive
        // a crash". Non-durable: documented no-op. A degraded shard's
        // error is already in health; the barrier still answers.
        let total = match rt.wal_checkpoint() {
            Ok(n) => n,
            Err(_) => rt.health().total_routed(),
        };
        Response::Synced(total)
    }

    /// HEALTH probe: runtime health plus the live per-reactor I/O gauges.
    fn health(&mut self) -> Response {
        let mut guard = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(rt) = guard.as_mut() else {
            return shutting_down();
        };
        self.staging.flush_blocking(rt);
        Self::publish_mega_counters(&self.staging, &self.gauges[self.idx]);
        let mut health = rt.health();
        health.reactors = self
            .gauges
            .iter()
            .enumerate()
            .map(|(i, g)| g.snapshot(i))
            .collect();
        Response::HealthInfo(health_wire(&health, &self.stats))
    }

    /// One write syscall per touched connection; arm/disarm `EPOLLOUT`
    /// and the slow-reader park as the pending level dictates.
    fn write_pass(&mut self) {
        let touched = std::mem::take(&mut self.touched);
        for slot in touched {
            let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            conn.touched = false;
            if !self.flush_conn(&mut conn) {
                self.close_conn(slot, conn);
                continue;
            }
            if conn.closing && conn.pending_out() == 0 {
                self.close_conn(slot, conn);
                continue;
            }
            self.update_interest(slot, &mut conn);
            self.conns[slot] = Some(conn);
        }
    }

    /// One write syscall for `conn` (no-op when nothing is pending).
    /// Returns `false` on transport failure.
    fn flush_conn(&mut self, conn: &mut Conn) -> bool {
        if conn.pending_out() == 0 {
            return true;
        }
        match conn.flush_out() {
            Ok(0) => true,
            Ok(n) => {
                let cells = &self.gauges[self.idx];
                cells.write_syscalls.fetch_add(1, Ordering::Relaxed);
                cells.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Recompute and apply the epoll interest mask for `conn`.
    fn update_interest(&mut self, slot: usize, conn: &mut Conn) {
        let pending = conn.pending_out();
        if pending > OUT_HIGH_WATER {
            conn.read_parked = true;
        } else if conn.read_parked && pending < OUT_LOW_WATER {
            conn.read_parked = false;
        }
        let mut want = 0u32;
        if pending > 0 {
            want |= EPOLLOUT;
        }
        if !conn.closing && !conn.read_parked {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.sock().as_raw_fd(), want, (slot + 1) as u64)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Deregister, close, and recycle one connection slot.
    fn close_conn(&mut self, slot: usize, conn: Conn) {
        self.epoll.delete(conn.sock().as_raw_fd());
        let _ = conn.sock().shutdown(std::net::Shutdown::Both);
        self.stats
            .connections_active
            .fetch_sub(1, Ordering::Relaxed);
        self.gauges[self.idx]
            .connections
            .fetch_sub(1, Ordering::Relaxed);
        if self.cfg.log_disconnects {
            eprintln!("serve: connection closed: {:?}", conn.gauge);
        }
        self.free.push(slot);
    }

    /// Stop-path drain: ship everything staged (blocking — accepted keys
    /// are never dropped), then briefly keep writing so every response
    /// already produced reaches its peer, then close everything.
    fn shutdown_drain(&mut self) {
        self.flush_blocking();
        let deadline = Instant::now() + Duration::from_millis(self.cfg.drain_ms);
        loop {
            let mut pending = false;
            for conn in self.conns.iter_mut().flatten() {
                if conn.pending_out() > 0 && conn.flush_out().is_ok() && conn.pending_out() > 0 {
                    pending = true;
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for conn in self.conns.drain(..).flatten() {
            let _ = conn.sock().shutdown(std::net::Shutdown::Both);
        }
        // Sockets the acceptor parked after our last adopt never became
        // connections; dropping them sends FIN.
        self.inboxes[self.idx]
            .incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}
