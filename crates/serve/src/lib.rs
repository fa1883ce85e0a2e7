//! Network serving layer over the concurrent sharded ASketch runtime.
//!
//! A pipelined, length-prefixed binary protocol (see [`frame`] and
//! DESIGN.md §14) with the split the runtime was built for: writes flow
//! into the supervised shard channels of
//! [`asketch_parallel::ConcurrentASketch`], reads come straight off the
//! seqlock filter snapshots via [`asketch_parallel::QueryHandle`] and
//! never queue behind ingest.
//!
//! Two I/O engines sit behind one facade ([`ServeConfig::io_model`]):
//!
//! - [`reactor`] *(Linux, default)* — N epoll reactor threads, in-place
//!   frame decode, cross-connection shard-affine staging flushed as
//!   mega-batches, one gathered write syscall per connection per wakeup.
//!   See DESIGN.md §16.
//! - [`threaded`] *(portable fallback)* — the original
//!   thread-per-connection loop over blocking sockets.
//!
//! Modules:
//!
//! - [`frame`] — pure codec: request/response types, encode/decode
//!   (owned and zero-copy borrowed forms), never panics on hostile bytes.
//! - [`server`] — the [`Server`] facade: config, counters, engine
//!   selection, graceful shutdown.
//! - [`client`] — minimal blocking client used by tests, the CI smoke,
//!   and the load generator.
//! - [`resilient`] — reconnecting exactly-once session client: replay
//!   window, typed failures, deadline-driven retries (DESIGN.md §17).
//! - [`chaos`] — deterministic userspace TCP fault proxy backing the
//!   `--net-chaos` survivability harness and the `chaos_proxy` bin.

#![deny(unsafe_code)] // sys.rs scopes a documented allow for the epoll FFI
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chaos;
pub mod client;
pub mod frame;
pub mod resilient;
pub mod server;
pub mod signal;

mod conn;
#[cfg(target_os = "linux")]
mod reactor;
mod staging;
#[cfg(target_os = "linux")]
mod sys;
mod threaded;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats, FaultKind};
pub use client::Client;
pub use frame::{
    decode_request, decode_request_ref, decode_response, encode_request, encode_response,
    ErrorCode, FrameError, HealthInfoWire, KeyBytes, ReactorHealthWire, Request, RequestRef,
    Response, ShardHealthWire, MAX_BATCH, MAX_FRAME,
};
pub use resilient::{BatchAck, ClientError, ResilienceStats, ResilientClient, RetryPolicy};
pub use server::{IoModel, ServeConfig, Server, ServerStats};
