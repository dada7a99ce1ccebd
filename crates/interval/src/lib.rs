//! Time-of-day interval algebra for the `dosn` decentralized OSN study.
//!
//! Every efficiency metric in the study — availability,
//! availability-on-demand, update propagation delay — reduces to set
//! algebra over *when users are online during a day*. This crate provides
//! that substrate:
//!
//! * [`Interval`] — a non-empty half-open interval `[start, end)` of
//!   seconds within a day.
//! * [`IntervalSet`] — a canonical (sorted, disjoint, non-adjacent) set of
//!   intervals with union / intersection / difference / complement /
//!   measure.
//! * [`DaySchedule`] — a *circular* set of seconds-of-day in
//!   `[0, 86 400)`, supporting sessions that wrap midnight, overlap
//!   measures between users, circular gap queries (the building block of
//!   the update-propagation-delay metric), and "how long until this user
//!   is next online" queries.
//! * [`DenseSchedule`] / [`DenseWeekSchedule`] — bitmap implementations
//!   of the same day- and week-set semantics with word-level kernels;
//!   the compute substrate of the sweep hot path (and still the oracle
//!   for the interval algebra's property tests).
//! * [`Timestamp`] — absolute event time (seconds since an arbitrary
//!   epoch) with projection onto the time-of-day circle.
//! * [`le`] — the little-endian primitive codec under the daemon's wire
//!   frames and the store's log records; it lives here because this is
//!   the lowest crate both formats build on.
//!
//! The resolution is one second throughout: fine enough for the paper's
//! session-length sweep (which goes down to 100-second sessions) and exact
//! under integer arithmetic.
//!
//! # Examples
//!
//! Compute how much of the day two users are jointly online:
//!
//! ```
//! use dosn_interval::{DaySchedule, SECONDS_PER_DAY};
//!
//! # fn main() -> Result<(), dosn_interval::IntervalError> {
//! // Alice is online 22:00-02:00 (wraps midnight), Bob 01:00-03:00.
//! let alice = DaySchedule::window_wrapping(22 * 3600, 4 * 3600)?;
//! let bob = DaySchedule::window_wrapping(1 * 3600, 2 * 3600)?;
//! assert_eq!(alice.overlap_seconds(&bob), 3600);
//! assert!(alice.is_connected_to(&bob));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cast;
mod error;
mod interval;
pub mod le;
mod mask;
mod schedule;
mod set;
mod time;
mod week;

pub use error::IntervalError;
pub use interval::Interval;
pub use mask::{DensePool, DenseSchedule, DenseWeekSchedule};
pub use schedule::{coverage_at_least, DaySchedule};
pub use set::IntervalSet;
pub use time::{Timestamp, SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_MINUTE};
pub use week::{DayOfWeek, WeekSchedule, SECONDS_PER_WEEK};
