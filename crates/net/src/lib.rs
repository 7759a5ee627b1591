//! Serve over the wire, survive the wire.
//!
//! `xpl-net` puts a real transport in front of the registry: a small
//! length-prefixed, CRC-framed request/response protocol (see
//! [`frame`]) spoken over anything implementing [`Transport`] — real
//! `std::net` TCP sockets, or a deterministic fault-injecting in-memory
//! pipe (seeded connection resets, torn writes, byte-level delays,
//! truncated frames) in the spirit of the persist crate's
//! fault-injecting `Vfs`. The robustness contract, end to end:
//!
//! * **Typed failure, never silent loss.** A vanished peer is
//!   [`NetError::PeerClosed`] (SIGPIPE-safe), a forged or corrupt frame
//!   header is rejected before allocation, a full tenant queue is a
//!   typed `Overload` wire response — never a dropped connection, never
//!   a panic.
//! * **Deadlines everywhere.** Every read and write is bounded; a
//!   stalled client is evicted, a stalled server turns into a typed
//!   timeout the client retries against.
//! * **Deterministic retry.** Exponential backoff with seeded jitter
//!   ([`BackoffPolicy`]): bounded attempts, monotone delays,
//!   reproducible schedules.
//! * **Graceful drain.** Shutdown stops accepting, finishes in-flight
//!   requests, answers stragglers with `Draining` (clients fail fast
//!   with [`NetError::Rejected`]), flushes, then closes.
//!
//! Each wire concept has one implementation: one frame decoder
//! ([`frame::read_frame`]), one private connection host that both
//! [`NetServer`] (TCP) and [`MemHost`] (in-memory pipes) feed, and one
//! client retry loop behind [`NetClient::call`] and
//! [`NetClient::stats_snapshot`].
//!
//! The server maps per-connection tenants onto the registry's
//! [`xpl_registry::AdmissionGate`]; `xpl-bench`'s `repro serve --net`
//! drives the whole `ServeSchedule` through it under the same
//! differential digest oracle as the in-process run.

mod client;
mod error;
pub mod frame;
mod server;
mod transport;

pub use client::{BackoffPolicy, ClientStats, Connector, NetClient};
pub use error::NetError;
pub use frame::{Frame, FrameKind, DEFAULT_MAX_FRAME, HEADER_LEN, TRAILER_LEN};
pub use server::{MemHost, NetServer, ServerStats, ServerStatsSnapshot, WireConfig, WireService};
pub use transport::{
    mem_pair, FaultConfig, FaultStats, FaultTransport, MemTransport, TcpTransport, Transport,
};
