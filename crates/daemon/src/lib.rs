//! The serving layer: a long-running daemon that answers the study's
//! post/read traffic over a Unix-domain socket.
//!
//! The batch pipeline replays the whole trace in one process; this
//! crate splits that replay across a wire. `dosn daemon` hosts the
//! deterministic node runtime behind a small length-prefixed binary
//! protocol, and `dosn drive` replays the synthesized trace *as live
//! request traffic* against it — measuring per-request round-trip
//! latency and sustained throughput while reproducing the batch run's
//! delivery/staleness aggregates byte for byte.
//!
//! # Architecture (DESIGN.md §10)
//!
//! * [`protocol`] — the request/response frame types and the simulation
//!   spec they carry; pure data, no I/O.
//! * [`codec`] — the wire form: `[u32 length][tagged payload]`, with
//!   strict bounds checking (truncated, oversized, and trailing-byte
//!   frames are rejected, never panicked on).
//! * [`server`] / [`session`] — the accept loop and the per-connection
//!   state machine. Each session owns a full simulation (the realized
//!   inputs and the run stepped from them) on its own thread.
//! * [`client`] — the typed client and the trace driver used by
//!   `dosn drive` and the daemon benchmark.
//! * [`shutdown`] — pid-file handling plus SIGTERM/SIGINT flags; the
//!   only unsafe code in the workspace, confined to two `signal(2)`
//!   registrations.
//!
//! The simulation core stays synchronous and daemon-free: this crate
//! only steps the same [`dosn_node::SimRun`] the batch facade steps,
//! one request after another, in the batches the socket delivers: one
//! read, one journal flush and one reply write per batch.
//!
//! With a store directory configured ([`ServerConfig::store`]), each
//! opened session journals its validated requests write-ahead into a
//! `dosn-store` append-only log and recovers an interrupted session
//! from that journal on the next open — [`Response::Opened`] tells the
//! driver how many requests to skip.

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod codec;
pub mod protocol;
pub mod server;
pub mod session;
pub mod shutdown;

pub use client::{drive, drive_prefix, ClientError, DaemonClient, DriveOutcome, LatencyStats};
pub use codec::{decode_spec, encode_spec};
pub use protocol::{DatasetFamily, Request, Response, SimSpec, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, StoreClaim, StoreGate};
pub use shutdown::ShutdownFlag;
