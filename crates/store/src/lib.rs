//! The durable storage layer: an append-only event log under the node
//! runtime and the serving daemon.
//!
//! A log is a directory of segment files (`seg-00000000.log`,
//! `seg-00000001.log`, …) plus an advisory `index.bin` snapshot. Each
//! segment is a run of CRC-framed records — `[u32 len][u32 crc]
//! [payload]`, all little-endian — and each event record links to the
//! previous record of the same user's chain by global byte position, so
//! a log is simultaneously one totally ordered stream (append order is
//! the scheduler's pop order, `(time, class, seq)`) and a set of
//! per-user update chains with head tracking.
//!
//! Two kinds of log share the format (DESIGN.md §11):
//!
//! * [`LogKind::Events`] — every event the batch event loop consumed.
//!   Written through the [`dosn_node::EventSink`] hook
//!   ([`LogWriter`] implements it); replayed by [`replay_into`], which
//!   reproduces the batch [`SystemReport`](dosn_node::SystemReport)
//!   byte-identically.
//! * [`LogKind::Journal`] — the validated `Post`/`Read` requests a
//!   serving daemon applied, flushed once per drained batch, before any
//!   of it is stepped or acked (write-ahead).
//!   On restart the daemon re-drives the journal through the same
//!   `step` the live path uses ([`redrive_into`]) and resumes serving
//!   exactly where it stopped.
//!
//! Crash consistency is the reader's job: a torn tail — truncated bytes
//! or a checksum mismatch in the *last* segment, from which point frame
//! boundaries are unknowable — is detected and dropped
//! ([`TailState::Torn`]), never propagated;
//! [`LogWriter::resume`] physically truncates it before appending. The
//! same damage anywhere else is [`StoreError::Corrupt`].
//!
//! The crate is on the deterministic-crate list (D1/D2) and the
//! panic-free serving path (D5): ordered maps only, no ambient time or
//! entropy, and no panicking operation on any read or write path.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::path::PathBuf;

mod crc;
mod index;
mod ops;
mod reader;
mod record;
mod replay;
mod writer;

pub use crc::crc32;
pub use index::{load_index, IndexFile, IndexState, INDEX_FILE};
pub use ops::{compact, verify, CompactReport, IndexFinding, VerifyReport};
pub use reader::{
    list_segments, log_exists, read_header, scan, scan_with, segment_file_name, ScannedLog,
    TailState,
};
pub use record::{
    decode_record, encode_record, EventRecord, Record, RecordError, FRAME_HEADER_BYTES,
    MAX_RECORD_BYTES, NO_PREV,
};
pub use replay::{redrive_into, replay_into};
pub use writer::{LogWriter, StoreStats, SEGMENT_TARGET_BYTES};

/// What a log holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// The full event stream of a batch run, in pop order.
    Events,
    /// The validated request stream of a serving daemon, in arrival
    /// order; the remaining events are regenerated on recovery.
    Journal,
}

impl LogKind {
    /// The header byte encoding this kind.
    pub fn as_u8(self) -> u8 {
        match self {
            LogKind::Events => 0,
            LogKind::Journal => 1,
        }
    }

    /// Decodes a header byte.
    pub fn from_u8(v: u8) -> Option<LogKind> {
        match v {
            0 => Some(LogKind::Events),
            1 => Some(LogKind::Journal),
            _ => None,
        }
    }
}

impl std::fmt::Display for LogKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogKind::Events => write!(f, "events"),
            LogKind::Journal => write!(f, "journal"),
        }
    }
}

/// A failed store operation.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// The log is structurally invalid at a position crash recovery
    /// cannot explain. A torn tail is *not* corruption — this is a bad
    /// frame inside a sealed segment, a checksum-valid record that does
    /// not decode, a broken chain link, or an order violation.
    Corrupt {
        /// Global byte position of the offending frame.
        pos: u64,
        /// What was wrong.
        detail: String,
    },
    /// `create` refused to overwrite an existing log.
    AlreadyExists(PathBuf),
    /// No log exists in the directory.
    NotFound(PathBuf),
    /// The log holds a different [`LogKind`] than the operation needs.
    WrongKind {
        /// The kind the operation requires.
        expected: LogKind,
        /// The kind the header records.
        found: LogKind,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
            StoreError::Corrupt { pos, detail } => {
                write!(f, "log corrupt at byte {pos}: {detail}")
            }
            StoreError::AlreadyExists(dir) => {
                write!(f, "a log already exists in {}", dir.display())
            }
            StoreError::NotFound(dir) => write!(f, "no log in {}", dir.display()),
            StoreError::WrongKind { expected, found } => {
                write!(f, "log holds a {found} stream, expected {expected}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
