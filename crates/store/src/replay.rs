//! Replaying a persisted log back into a live node runtime: an events
//! log verbatim ([`replay_into`]), a journal through the simulation
//! spine ([`redrive_into`]).
//!
//! An [`LogKind::Events`](crate::LogKind::Events) log holds the exact
//! stream the batch engine consumed, in pop order — including the
//! `Disseminate`/`CloudFetch` deliveries the runtime itself scheduled.
//! Replay therefore feeds each record straight to
//! [`NodeRuntime::handle`] and deliberately discards the handler's own
//! re-scheduled deliveries: they are already in the log, later in the
//! stream, and popping them as well would apply each delivery twice.
//! The scratch queue passed to `handle` exists only to absorb them.
//!
//! Because the log captures the scheduler's total order `(time, class,
//! seq)` exactly, a replayed runtime finishes in the same state as the
//! original run and
//! [`into_report`](dosn_node::NodeRuntime::into_report) reproduces the
//! batch [`SystemReport`](dosn_node::SystemReport) byte-identically —
//! the same contract `tests/store_equivalence.rs` pins.
//!
//! A [`LogKind::Journal`](crate::LogKind::Journal) log holds only the
//! requests a daemon applied. Re-driving it is the live path itself:
//! each record goes through [`SimRun::step`], which regenerates the
//! session and delivery events in between — so a recovered run resumes
//! in precisely the state the interrupted one had.

use std::path::Path;

use dosn_node::{EventQueue, NodeRuntime, SimRun};

use crate::reader::{read_header, scan_with, ScannedLog};
use crate::{LogKind, StoreError};

/// Replays an events log into `runtime`, applying every record in
/// logged order.
///
/// The runtime must be freshly constructed over the same dataset,
/// schedules, placements, and activities the logged run used; the log
/// does not carry them.
///
/// # Errors
///
/// [`StoreError::WrongKind`] for a journal log (journals hold only the
/// served requests, not the full stream — the daemon re-drives those
/// itself), or any scan error.
pub fn replay_into(dir: &Path, runtime: &mut NodeRuntime<'_>) -> Result<ScannedLog, StoreError> {
    let (kind, _) = read_header(dir)?;
    if kind != LogKind::Events {
        return Err(StoreError::WrongKind { expected: LogKind::Events, found: kind });
    }
    // Deliveries the handlers schedule land here and are never popped:
    // the logged stream already contains them.
    let mut scratch = EventQueue::new();
    scan_with(dir, |_, rec| {
        runtime.handle(rec.scheduled(), &mut scratch);
    })
}

/// Re-drives a journal through `run`, stepping every recorded request
/// in logged order. Any torn tail is skipped, not truncated.
///
/// The run must be freshly started over the inputs the journaled
/// session realized; the log's header carries the spec they come from.
///
/// # Errors
///
/// [`StoreError::WrongKind`] for an events log, any scan error, or
/// [`StoreError::Corrupt`] at the first record whose key does not order
/// after its predecessor's — a journal only ever holds a strictly
/// increasing request stream, and the run is not stepped past it.
pub fn redrive_into(dir: &Path, run: &mut SimRun<'_>) -> Result<ScannedLog, StoreError> {
    let (kind, _) = read_header(dir)?;
    if kind != LogKind::Journal {
        return Err(StoreError::WrongKind { expected: LogKind::Journal, found: kind });
    }
    let mut refused: Option<StoreError> = None;
    let scanned = scan_with(dir, |pos, rec| {
        if refused.is_some() {
            return;
        }
        if let Err(e) = run.step(rec.scheduled()) {
            refused = Some(StoreError::Corrupt { pos, detail: e.to_string() });
        }
    })?;
    match refused {
        Some(e) => Err(e),
        None => Ok(scanned),
    }
}
