//! A reconnecting, exactly-once client for the serve protocol.
//!
//! [`ResilientClient`] wraps the blocking [`Client`] with the session
//! machinery from DESIGN.md §17: every write carries a per-session
//! sequence number, unacknowledged (and acked-but-not-yet-synced)
//! batches are held in a replay window, and a connection loss triggers
//! reconnect → `HELLO` → replay of everything above the server's
//! applied floor. Because the server dedups per `(session, shard,
//! seq)`, over-replay is harmless — the combination turns at-least-once
//! retries into exactly-once ingest.
//!
//! Failure handling is typed and deadline-driven:
//!
//! - a dead peer, torn frame, or reset surfaces internally as
//!   reconnect-and-replay with exponential backoff + deterministic
//!   jitter, up to [`RetryPolicy::max_reconnects`] per operation, then
//!   [`ClientError::ConnectionLost`];
//! - `OVERLOADED` sheds are retried after the server's `retry_after_ms`
//!   hint (or surfaced as [`ClientError::Shed`] when
//!   [`RetryPolicy::retry_sheds`] is off);
//! - `SHUTTING_DOWN` triggers backoff + reconnect (the peer is
//!   draining; a replacement may be seconds away);
//! - when [`RetryPolicy::op_deadline`] expires mid-retry the operation
//!   fails with [`ClientError::Timeout`] — the replay window still
//!   holds the batch, so a later operation (or explicit
//!   [`ResilientClient::sync`]) finishes the job without duplication.
//!
//! An `OK_SEQ` ack means *journaled and queued to its shard*, not fsynced:
//! the replay window is only trimmed at [`ResilientClient::sync`]
//! barriers (or by a `HELLO_ACK` floor on reconnect, which reflects
//! recovered durable state). A SIGKILL that eats the tail of the WAL
//! therefore rolls the floor back and the client simply replays.

use std::io;
use std::time::{Duration, Instant};

use sketches::hash::SplitMix64;

use crate::client::Client;
use crate::frame::{ErrorCode, Request, Response};

/// Typed failure surface of [`ResilientClient`] operations.
#[derive(Debug)]
pub enum ClientError {
    /// The per-operation deadline expired before the server acknowledged.
    /// Pending writes remain in the replay window and will be retried by
    /// the next operation.
    Timeout,
    /// The server shed the write under load ([`ErrorCode::Overloaded`])
    /// and shed-retries are disabled.
    Shed {
        /// Server-suggested backoff before retrying.
        retry_after_ms: u32,
    },
    /// The server refused because it is draining for shutdown.
    ShuttingDown,
    /// The server answered with [`ErrorCode::Degraded`]: applied, but
    /// without a durability promise.
    Degraded {
        /// Human-readable detail from the server.
        detail: String,
    },
    /// Reconnect attempts exhausted [`RetryPolicy::max_reconnects`].
    ConnectionLost,
    /// A transport error that retries cannot route around.
    Io(io::Error),
    /// The server answered with something the protocol does not allow
    /// here (decode failure, wrong response kind, seq mismatch).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout => write!(f, "operation deadline expired"),
            Self::Shed { retry_after_ms } => {
                write!(f, "write shed by server (retry after {retry_after_ms} ms)")
            }
            Self::ShuttingDown => write!(f, "server shutting down"),
            Self::Degraded { detail } => write!(f, "server degraded: {detail}"),
            Self::ConnectionLost => write!(f, "reconnect attempts exhausted"),
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Reconnect/backoff/deadline knobs for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry backoff; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Hard per-operation deadline (connect + retries + replay + ack).
    pub op_deadline: Duration,
    /// Socket read timeout per response; a stalled (blackholed) peer
    /// surfaces within this bound and triggers reconnect.
    pub read_timeout: Duration,
    /// Reconnect attempts per operation before
    /// [`ClientError::ConnectionLost`].
    pub max_reconnects: u32,
    /// Retry `OVERLOADED` sheds after the server's hint (true), or
    /// surface them as [`ClientError::Shed`] (false).
    pub retry_sheds: bool,
    /// Seed for deterministic backoff jitter (decorrelates reconnect
    /// stampedes across clients; fixed per client for reproducibility).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            op_deadline: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
            max_reconnects: 64,
            retry_sheds: true,
            jitter_seed: 0x5EED_2016,
        }
    }
}

/// Acknowledgement for one sequenced batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// The session sequence assigned to this batch.
    pub seq: u64,
    /// Keys the server newly applied (0 for a full duplicate).
    pub applied: u32,
    /// The server had already applied every key (idempotent retry).
    pub duplicate: bool,
    /// Applied without a durability promise (disk-sick shard).
    pub degraded: bool,
}

/// Counters for observing retry behaviour (chaos harness assertions).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceStats {
    /// Successful reconnect + handshake cycles.
    pub reconnects: u32,
    /// Batches re-sent from the replay window after a reconnect.
    pub replays: u64,
    /// Acks that came back `duplicate` (proof the dedup layer worked).
    pub duplicate_acks: u64,
    /// `OVERLOADED` sheds absorbed by waiting out the server's hint.
    pub sheds_retried: u64,
    /// Acks carrying the `DEGRADED` flag.
    pub degraded_acks: u64,
}

/// One window entry: a batch the server has not yet durably confirmed.
struct Pending {
    seq: u64,
    keys: Vec<u64>,
    acked: bool,
    /// The most recent ack for this entry (kept so the originating
    /// `update_batch` call can report it even after a replay re-acked).
    record: Option<BatchAck>,
}

/// Reconnecting exactly-once session client. See the module docs.
pub struct ResilientClient {
    addr: String,
    session_id: u64,
    policy: RetryPolicy,
    conn: Option<Client>,
    /// Next sequence to assign (strictly increasing, starts at 1).
    next_seq: u64,
    /// Replay window, ascending by seq. Entries leave only when covered
    /// by a durable floor (`HELLO_ACK` on reconnect) or a `SYNCED`
    /// barrier.
    window: std::collections::VecDeque<Pending>,
    /// Deterministic jitter source.
    jitter: SplitMix64,
    stats: ResilienceStats,
}

impl ResilientClient {
    /// Create a client for `addr` under `session_id`. No connection is
    /// made until the first operation (so a not-yet-listening server is
    /// fine — the first op's retry loop absorbs it).
    pub fn new(addr: impl Into<String>, session_id: u64, policy: RetryPolicy) -> Self {
        let jitter = SplitMix64::new(policy.jitter_seed ^ session_id);
        Self {
            addr: addr.into(),
            session_id,
            policy,
            conn: None,
            next_seq: 1,
            window: std::collections::VecDeque::new(),
            jitter,
            stats: ResilienceStats::default(),
        }
    }

    /// Retry counters accumulated so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Batches still held for replay (not yet durably confirmed).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Sequenced, exactly-once batch ingest. Assigns the next session
    /// sequence, records the batch in the replay window, and drives
    /// send/ack with reconnect + replay until acknowledged or the
    /// deadline expires.
    ///
    /// # Errors
    /// [`ClientError::Timeout`] on deadline (the batch stays queued for
    /// replay), [`ClientError::ConnectionLost`] when reconnects are
    /// exhausted, [`ClientError::Shed`] when shed-retries are disabled.
    pub fn update_batch(&mut self, keys: &[u64]) -> Result<BatchAck, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back(Pending {
            seq,
            keys: keys.to_vec(),
            acked: false,
            record: None,
        });
        let deadline = Instant::now() + self.policy.op_deadline;
        let mut reconnects = 0u32;
        loop {
            self.ensure_conn(deadline, &mut reconnects)?;
            // Replaying the window tail (everything unacked, in order)
            // also sends the new batch — it is the window's last entry.
            match self.send_unacked() {
                Ok(()) => {
                    // The entry is either acked in the window, or gone
                    // because a reconnect's HELLO floor covered it (the
                    // server applied + recovered it durably even though
                    // the original ack never reached us) — both mean
                    // the write landed exactly once.
                    return Ok(self.ack_of(seq));
                }
                Err(RetryVerdict::Reconnect) => continue,
                Err(RetryVerdict::Backoff(hint)) => {
                    self.sleep_hint(hint, deadline)?;
                }
                Err(RetryVerdict::Fatal(e)) => return Err(e),
            }
        }
    }

    /// Durability + replay-window barrier: forces every accepted write
    /// to disk, then trims all acked entries from the replay window.
    ///
    /// # Errors
    /// Same surface as [`ResilientClient::update_batch`].
    pub fn sync(&mut self) -> Result<u64, ClientError> {
        let routed = self.read_op(
            |c| c.call(&Request::Sync),
            |r| match r {
                Response::Synced(n) => Some(n),
                _ => None,
            },
        )?;
        // Everything acked before the barrier is now durable; the
        // server's recovery floor can only be at or above those seqs.
        self.window.retain(|p| !p.acked);
        Ok(routed)
    }

    /// Point estimate with reconnect-on-failure.
    ///
    /// # Errors
    /// Same surface as [`ResilientClient::update_batch`].
    pub fn estimate(&mut self, key: u64) -> Result<i64, ClientError> {
        self.read_op(
            move |c| c.call(&Request::Estimate(key)),
            |r| match r {
                Response::Value(v) => Some(v),
                _ => None,
            },
        )
    }

    /// Order-preserving batched estimates with reconnect-on-failure.
    ///
    /// # Errors
    /// Same surface as [`ResilientClient::update_batch`].
    pub fn estimate_batch(&mut self, keys: &[u64]) -> Result<Vec<i64>, ClientError> {
        let req = Request::EstimateBatch(keys.to_vec());
        self.read_op(
            move |c| c.call(&req),
            |r| match r {
                Response::Values(v) => Some(v),
                _ => None,
            },
        )
    }

    /// Global top-k with reconnect-on-failure.
    ///
    /// # Errors
    /// Same surface as [`ResilientClient::update_batch`].
    pub fn top_k(&mut self, k: u32) -> Result<Vec<(u64, i64)>, ClientError> {
        self.read_op(
            move |c| c.call(&Request::TopK(k)),
            |r| match r {
                Response::TopKItems(items) => Some(items),
                _ => None,
            },
        )
    }

    /// Drop the connection (the next operation reconnects and replays).
    /// Used by the chaos harness to simulate application-side restarts.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn ack_of(&self, seq: u64) -> BatchAck {
        self.window
            .iter()
            .find(|p| p.seq == seq)
            .and_then(|p| p.record)
            .unwrap_or(BatchAck {
                seq,
                applied: 0,
                duplicate: false,
                degraded: false,
            })
    }

    /// Shared read-path retry loop: run `call` on the live connection,
    /// project the response with `accept`, reconnect/backoff on typed
    /// failures.
    fn read_op<T>(
        &mut self,
        mut call: impl FnMut(&mut Client) -> io::Result<Response>,
        accept: impl Fn(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        let deadline = Instant::now() + self.policy.op_deadline;
        let mut reconnects = 0u32;
        loop {
            self.ensure_conn(deadline, &mut reconnects)?;
            let Some(conn) = self.conn.as_mut() else {
                continue;
            };
            match call(conn) {
                Ok(resp) => match self.classify(resp) {
                    Classified::Payload(r) => match accept(r) {
                        Some(t) => return Ok(t),
                        None => {
                            return Err(ClientError::Protocol(
                                "unexpected response kind".to_string(),
                            ))
                        }
                    },
                    Classified::Retry(verdict) => match verdict {
                        RetryVerdict::Reconnect => continue,
                        RetryVerdict::Backoff(hint) => self.sleep_hint(hint, deadline)?,
                        RetryVerdict::Fatal(e) => return Err(e),
                    },
                },
                Err(_) => {
                    self.conn = None;
                }
            }
        }
    }

    /// Classify a decoded response: payload through, typed errors into
    /// retry verdicts.
    fn classify(&mut self, resp: Response) -> Classified {
        match resp {
            Response::Error {
                code: ErrorCode::Overloaded,
                retry_after_ms,
                ..
            } => {
                if self.policy.retry_sheds {
                    self.stats.sheds_retried += 1;
                    Classified::Retry(RetryVerdict::Backoff(retry_after_ms))
                } else {
                    Classified::Retry(RetryVerdict::Fatal(ClientError::Shed { retry_after_ms }))
                }
            }
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            } => {
                // The peer is draining: this connection is done for.
                self.conn = None;
                Classified::Retry(RetryVerdict::Reconnect)
            }
            Response::Error {
                code: ErrorCode::Degraded,
                detail,
                ..
            } => Classified::Retry(RetryVerdict::Fatal(ClientError::Degraded { detail })),
            Response::Error { code, detail, .. } => Classified::Retry(RetryVerdict::Fatal(
                ClientError::Protocol(format!("server error {code:?}: {detail}")),
            )),
            other => Classified::Payload(other),
        }
    }

    /// Establish (if needed) a connection with a completed handshake and
    /// a trimmed window. On success `self.conn` is live and the window
    /// holds only entries above the server's durable floor.
    fn ensure_conn(&mut self, deadline: Instant, reconnects: &mut u32) -> Result<(), ClientError> {
        while self.conn.is_none() {
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            if *reconnects > self.policy.max_reconnects {
                return Err(ClientError::ConnectionLost);
            }
            if *reconnects > 0 {
                self.backoff_sleep(*reconnects, deadline)?;
            }
            *reconnects += 1;
            let mut c = match Client::connect(&self.addr) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if c.set_read_timeout(Some(self.policy.read_timeout)).is_err() {
                continue;
            }
            // Resume floor 0: the server's recovered high-water mark is
            // authoritative; claiming more would over-trim on a peer
            // that lost un-fsynced acks to a crash.
            let floor = match c.hello(self.session_id, 0) {
                Ok(f) => f,
                Err(_) => continue,
            };
            self.window.retain(|p| p.seq > floor);
            for p in self.window.iter_mut() {
                p.acked = false; // must re-prove everything above the floor
            }
            self.stats.reconnects += 1;
            self.conn = Some(c);
        }
        Ok(())
    }

    /// Send every unacked window entry in sequence order and collect
    /// acks. Returns `Ok(())` once the window is fully acked.
    fn send_unacked(&mut self) -> Result<(), RetryVerdict> {
        let unacked: Vec<(u64, Vec<u64>)> = self
            .window
            .iter()
            .filter(|p| !p.acked)
            .map(|p| (p.seq, p.keys.clone()))
            .collect();
        for (i, (seq, keys)) in unacked.iter().enumerate() {
            let Some(conn) = self.conn.as_mut() else {
                return Err(RetryVerdict::Reconnect);
            };
            let resp = conn
                .call(&Request::UpdateBatchSeq {
                    seq: *seq,
                    keys: keys.clone(),
                })
                .map_err(|_| {
                    self.conn = None;
                    RetryVerdict::Reconnect
                })?;
            match self.classify(resp) {
                Classified::Payload(Response::OkSeq {
                    seq: acked,
                    applied,
                    duplicate,
                    degraded,
                }) => {
                    if acked != *seq {
                        return Err(RetryVerdict::Fatal(ClientError::Protocol(format!(
                            "ack for seq {acked}, expected {seq}"
                        ))));
                    }
                    if duplicate {
                        self.stats.duplicate_acks += 1;
                    }
                    if degraded {
                        self.stats.degraded_acks += 1;
                    }
                    // The last unacked entry is the fresh batch; earlier
                    // ones are replays.
                    if i + 1 < unacked.len() {
                        self.stats.replays += 1;
                    }
                    if let Some(p) = self.window.iter_mut().find(|p| p.seq == *seq) {
                        p.acked = true;
                        p.record = Some(BatchAck {
                            seq: *seq,
                            applied,
                            duplicate,
                            degraded,
                        });
                    }
                }
                Classified::Payload(other) => {
                    return Err(RetryVerdict::Fatal(ClientError::Protocol(format!(
                        "unexpected ack: {other:?}"
                    ))));
                }
                Classified::Retry(v) => return Err(v),
            }
        }
        Ok(())
    }

    /// Sleep out an `OVERLOADED` hint (bounded by the deadline).
    fn sleep_hint(&mut self, retry_after_ms: u32, deadline: Instant) -> Result<(), ClientError> {
        let hint = Duration::from_millis(u64::from(retry_after_ms.max(1)));
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or(ClientError::Timeout)?;
        std::thread::sleep(hint.min(remaining));
        if Instant::now() >= deadline {
            return Err(ClientError::Timeout);
        }
        Ok(())
    }

    /// Exponential backoff with deterministic jitter in [50%, 100%] of
    /// the step, bounded by the op deadline.
    fn backoff_sleep(&mut self, attempt: u32, deadline: Instant) -> Result<(), ClientError> {
        let exp = attempt.saturating_sub(1).min(16);
        let step = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.policy.max_backoff);
        let jitter = self.jitter.next_u64();
        // Scale to [step/2, step].
        let nanos = step.as_nanos() as u64;
        let jittered = Duration::from_nanos(nanos / 2 + (jitter % (nanos / 2 + 1)));
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or(ClientError::Timeout)?;
        std::thread::sleep(jittered.min(remaining));
        Ok(())
    }
}

enum Classified {
    Payload(Response),
    Retry(RetryVerdict),
}

enum RetryVerdict {
    /// Drop the connection and go through ensure_conn again.
    Reconnect,
    /// Stay connected; wait out the server's hint first.
    Backoff(u32),
    /// Stop retrying and surface this.
    Fatal(ClientError),
}
