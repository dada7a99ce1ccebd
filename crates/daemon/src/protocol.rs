//! The wire protocol's request/response types — pure data, no I/O.
//!
//! A connection speaks strictly alternating request/response pairs:
//!
//! ```text
//! Hello ──► Welcome            version handshake, once per connection
//! Open  ──► Opened | Error     builds one simulation session
//! Post  ──► PostAck | Error    one trace activity, in queue order
//! Read  ──► ReadAck | Error    one drawn profile read, in queue order
//! Finish ─► Report             drains the queue, folds the report
//! Ping  ──► Pong               liveness probe, allowed any time
//! Shutdown ► ShuttingDown      asks the whole daemon to stop
//! ```
//!
//! The driver ships each request with the `(time, seq)` key the batch
//! scheduler would have used, so the serving side reconstructs the
//! batch run's total event order exactly (request events rank *after*
//! same-instant session/delivery events by class, so the interleaving
//! is unambiguous).

use dosn_core::{ModelKind, PolicyKind, StudyConfig};
use dosn_interval::Timestamp;
use dosn_metrics::Summary;
use dosn_node::{
    DisseminationMode, Event, NodeAccounting, Realized, ScheduledEvent, SystemReport,
};
use dosn_replication::Connectivity;
use dosn_socialgraph::UserId;
use dosn_trace::{synth, Activity, Dataset, TraceError};

/// Protocol revision; a `Hello` with any other version is refused.
/// Version 2 added the `recovered` count to [`Response::Opened`] (the
/// journal-recovery handshake).
pub const PROTOCOL_VERSION: u32 = 2;

/// Which synthetic dataset family a session replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFamily {
    /// Wall posts on an undirected friendship graph.
    Facebook,
    /// Mentions on a directed follow graph.
    Twitter,
}

/// Everything a daemon needs to rebuild the driver's simulation:
/// dataset recipe, online-time model, placement policy, and
/// dissemination medium. Both ends synthesize from the same spec, so
/// only the recipe crosses the wire — never the trace itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    /// Synthetic dataset family.
    pub family: DatasetFamily,
    /// Synthetic dataset size.
    pub users: u32,
    /// Seed of the synthetic dataset generator.
    pub dataset_seed: u64,
    /// Seed of the study config (schedules, placements, read draws).
    pub config_seed: u64,
    /// Online-time model.
    pub model: ModelKind,
    /// Replica-placement policy.
    pub policy: PolicyKind,
    /// Per-user replication budget.
    pub replication_degree: u32,
    /// Lift the ConRep friends-only constraint.
    pub unconrep: bool,
    /// How delivered posts reach offline hosts.
    pub dissemination: DisseminationMode,
}

impl SimSpec {
    /// Synthesizes the dataset both ends replay.
    ///
    /// # Errors
    ///
    /// Propagates the generator's [`TraceError`] (e.g. a zero-user
    /// request).
    pub fn synthesize(&self) -> Result<Dataset, TraceError> {
        let users = self.users as usize;
        match self.family {
            DatasetFamily::Facebook => synth::facebook_like(users, self.dataset_seed),
            DatasetFamily::Twitter => synth::twitter_like(users, self.dataset_seed),
        }
    }

    /// The study config the spec pins down.
    pub fn study_config(&self) -> StudyConfig {
        let mut config = StudyConfig::default().with_seed(self.config_seed);
        if self.unconrep {
            config = config.with_connectivity(Connectivity::UnconRep);
        }
        config
    }

    /// Realizes the simulation's inputs over `dataset` (the spec's own
    /// [`synthesize`](Self::synthesize)d one): schedules, placements and
    /// the compiled trace, ready to start runs from.
    pub fn realize(&self, dataset: &Dataset) -> Realized {
        Realized::new(
            dataset,
            self.model,
            self.policy,
            self.replication_degree as usize,
            self.dissemination,
            &self.study_config(),
        )
    }
}

/// A client-to-daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first frame of a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Opens a simulation session from a spec.
    Open(SimSpec),
    /// One trace activity, identified by its trace index (which is also
    /// its scheduler sequence number).
    Post {
        /// Index into the chronological activity stream.
        index: u32,
        /// The posting user.
        creator: u32,
        /// The profile owner receiving the post.
        receiver: u32,
        /// Absolute post time, seconds.
        at_secs: u64,
    },
    /// One drawn profile read, with the scheduler sequence number the
    /// batch draw assigned it.
    Read {
        /// Draw-order sequence number (the queue tie-break).
        seq: u64,
        /// The profile's owner.
        owner: u32,
        /// The reading friend.
        reader: u32,
        /// Absolute read time, seconds.
        at_secs: u64,
    },
    /// Ends the replay: drain the queue and return the report.
    Finish,
    /// Liveness probe.
    Ping,
    /// Asks the daemon to shut down gracefully.
    Shutdown,
}

impl Request {
    /// The wire request of one request-stream event (driver side).
    ///
    /// # Errors
    ///
    /// A post index outside `activities`, or an event that is not a
    /// `Post`/`ProfileRead`.
    pub fn from_event(ev: &ScheduledEvent, activities: &[Activity]) -> Result<Request, String> {
        match ev.event {
            Event::Post { activity } => {
                let Some(a) = activities.get(activity as usize) else {
                    return Err(format!("request stream names post {activity} outside the trace"));
                };
                Ok(Request::Post {
                    index: activity,
                    creator: a.creator().as_u32(),
                    receiver: a.receiver().as_u32(),
                    at_secs: a.timestamp().as_secs(),
                })
            }
            Event::ProfileRead { owner, reader } => Ok(Request::Read {
                seq: ev.seq(),
                owner: owner.as_u32(),
                reader: reader.as_u32(),
                at_secs: ev.at.as_secs(),
            }),
            other => Err(format!("request stream holds a non-request event {other:?}")),
        }
    }

    /// The scheduler event of a `Post`/`Read` request, checked against
    /// the realized trace (daemon side): the inverse of
    /// [`from_event`](Self::from_event), so the key the batch scheduler
    /// would have used is reconstructed exactly.
    ///
    /// # Errors
    ///
    /// A post that does not match `activities`, a read naming a user
    /// outside `0..users`, or any other request kind.
    pub fn to_event(&self, activities: &[Activity], users: usize) -> Result<ScheduledEvent, String> {
        match *self {
            Request::Post { index, creator, receiver, at_secs } => {
                let matches = activities.get(index as usize).is_some_and(|a| {
                    a.creator().as_u32() == creator
                        && a.receiver().as_u32() == receiver
                        && a.timestamp().as_secs() == at_secs
                });
                if !matches {
                    return Err(format!("post {index} does not match the synthesized trace"));
                }
                Ok(ScheduledEvent::new(
                    Timestamp::new(at_secs),
                    u64::from(index),
                    Event::Post { activity: index },
                ))
            }
            Request::Read { seq, owner, reader, at_secs } => {
                if owner as usize >= users || reader as usize >= users {
                    return Err(format!("read names user {owner}/{reader} outside the dataset"));
                }
                Ok(ScheduledEvent::new(
                    Timestamp::new(at_secs),
                    seq,
                    Event::ProfileRead { owner: UserId::new(owner), reader: UserId::new(reader) },
                ))
            }
            _ => Err("only Post and Read carry a scheduler key".to_string()),
        }
    }
}

/// The raw accumulator state of one [`Summary`], in wire form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryParts {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Sum of squared observations.
    pub sum_sq: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl SummaryParts {
    /// Decomposes a summary for the wire.
    pub fn from_summary(s: &Summary) -> Self {
        let (count, sum, sum_sq, min, max) = s.to_parts();
        SummaryParts { count: count as u64, sum, sum_sq, min, max }
    }

    /// Rebuilds the summary bit-exactly.
    pub fn into_summary(self) -> Summary {
        Summary::from_parts(self.count as usize, self.sum, self.sum_sq, self.min, self.max)
    }
}

/// A [`SystemReport`] flattened for the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportParts {
    /// Posts the trace attempted.
    pub posts_total: u64,
    /// Posts that found an online host.
    pub posts_delivered: u64,
    /// Staleness summary, hours.
    pub staleness_hours: SummaryParts,
    /// Delivered posts whose dissemination never completed.
    pub incomplete_dissemination: u64,
    /// Reads issued.
    pub reads_total: u64,
    /// Reads that found an online host.
    pub reads_served: u64,
    /// Stored-updates-per-node summary.
    pub stored_updates: SummaryParts,
    /// Messages-sent-per-node summary.
    pub messages_sent: SummaryParts,
}

impl ReportParts {
    /// Flattens a finished report.
    pub fn from_report(report: &SystemReport) -> Self {
        ReportParts {
            posts_total: report.posts_total() as u64,
            posts_delivered: report.posts_delivered() as u64,
            staleness_hours: SummaryParts::from_summary(report.staleness_hours()),
            incomplete_dissemination: report.incomplete_dissemination() as u64,
            reads_total: report.reads_total() as u64,
            reads_served: report.reads_served() as u64,
            stored_updates: SummaryParts::from_summary(&report.accounting().stored_updates),
            messages_sent: SummaryParts::from_summary(&report.accounting().messages_sent),
        }
    }

    /// Rebuilds the report the daemon folded.
    pub fn into_report(self) -> SystemReport {
        SystemReport::from_parts(
            self.posts_total as usize,
            self.posts_delivered as usize,
            self.staleness_hours.into_summary(),
            self.incomplete_dissemination as usize,
            self.reads_total as usize,
            self.reads_served as usize,
            NodeAccounting {
                stored_updates: self.stored_updates.into_summary(),
                messages_sent: self.messages_sent.into_summary(),
            },
        )
    }
}

/// A daemon-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// The daemon's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Session built; sanity echoes for the driver.
    Opened {
        /// Users in the synthesized dataset.
        users: u32,
        /// Replay horizon in days.
        span_days: u64,
        /// Activities in the trace.
        posts: u32,
        /// Requests already applied from a recovered journal (zero for
        /// a fresh session). The driver must skip this many entries of
        /// its request stream before sending the remainder.
        recovered: u64,
    },
    /// Post accepted.
    PostAck {
        /// Whether any profile host was online at the post instant.
        delivered: bool,
    },
    /// Read answered.
    ReadAck {
        /// Whether any profile host was online at the read instant.
        served: bool,
    },
    /// The session's folded report.
    Report(ReportParts),
    /// Liveness reply.
    Pong,
    /// The daemon acknowledges the shutdown request and stops.
    ShuttingDown,
    /// The request was refused; the session stays usable.
    Error {
        /// Human-readable refusal reason.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_core::StudyConfig;
    use dosn_node::SystemSim;

    #[test]
    fn spec_synthesizes_the_cli_dataset() {
        let spec = SimSpec {
            family: DatasetFamily::Facebook,
            users: 150,
            dataset_seed: 42,
            config_seed: 42,
            model: ModelKind::sporadic_default(),
            policy: PolicyKind::MaxAv,
            replication_degree: 4,
            unconrep: false,
            dissemination: DisseminationMode::FriendToFriend,
        };
        let ds = spec.synthesize().expect("valid spec");
        let direct = synth::facebook_like(150, 42).expect("valid recipe");
        assert_eq!(ds.user_count(), direct.user_count());
        assert_eq!(ds.activities(), direct.activities());
        assert_eq!(spec.study_config().seed(), StudyConfig::default().with_seed(42).seed());
    }

    #[test]
    fn report_parts_roundtrip_bit_exactly() {
        let ds = synth::facebook_like(120, 7).expect("valid recipe");
        let report = SystemSim::new(&ds)
            .replication_degree(3)
            .run(&StudyConfig::default());
        let rebuilt = ReportParts::from_report(&report).into_report();
        assert_eq!(rebuilt, report);
    }
}
