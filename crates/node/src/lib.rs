//! Full-system event simulation of a decentralized OSN.
//!
//! The analytic metrics summarize schedules; this crate runs the
//! *system*: every user is a node that is online per its modeled
//! schedule, every trace activity is a wall post that must land on the
//! receiver's profile at its real timestamp, and accepted posts then
//! disseminate to the remaining replicas over co-online contacts. The
//! output is the empirical counterpart of the paper's metrics:
//!
//! * **delivery** — was any profile host online when the post happened?
//!   (empirical availability-on-demand-activity);
//! * **staleness** — how long until every replica held the post
//!   (empirical propagation delay, per post rather than worst-case);
//! * **overhead** — replica messages exchanged and per-node storage
//!   (the paper's storage/communication fairness concern, measured).
//!
//! # Architecture
//!
//! The replay is layered (DESIGN.md §9): `events.rs` is a
//! deterministic discrete-event scheduler — an [`EventQueue`] totally
//! ordered by `(time, class, seq)` that feeds session events one day
//! at a time; `state.rs` holds the per-node state machines
//! ([`NodeRuntime`] consumes one event at a time and folds post
//! outcomes into the report in trace order); `transport.rs` answers
//! when offline hosts receive an update ([`InstantTransport`] wraps
//! the co-online propagation oracle). `run.rs` is the one spine over
//! them: [`Realized`] inputs start a [`SimRun`], which is stepped one
//! keyed request at a time and finished into the report. [`SystemSim`]
//! is its batch caller over any [`dosn_trace::StudyView`] — in-memory
//! datasets or CSR shard datasets built with a replay log; the serving
//! daemon, its journal recovery and offline log replay are the others.
//!
//! # Examples
//!
//! ```
//! use dosn_node::SystemSim;
//! use dosn_core::{ModelKind, PolicyKind, StudyConfig};
//! use dosn_trace::synth;
//!
//! let dataset = synth::facebook_like(150, 3).expect("generation succeeds");
//! let report = SystemSim::new(&dataset)
//!     .model(ModelKind::sporadic_default())
//!     .policy(PolicyKind::MaxAv)
//!     .replication_degree(3)
//!     .run(&StudyConfig::default());
//! assert!(report.posts_total() > 0);
//! assert!(report.delivery_ratio().unwrap_or(0.0) <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod engine;
mod events;
mod report;
mod run;
mod state;
mod transport;

pub use engine::{
    draw_profile_reads, model_schedules, place_replicas, request_stream, trace_span_days,
    DisseminationMode, EventSink, RunStats, SystemSim,
};
pub use events::{session_events_for_day, Event, EventQueue, ScheduledEvent};
pub use report::{NodeAccounting, SystemReport};
pub use run::{OutOfOrder, Realized, SimRun};
pub use state::{NodeRuntime, NodeState};
pub use transport::InstantTransport;
