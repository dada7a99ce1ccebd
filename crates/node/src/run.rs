//! The one simulation spine: realize a study's inputs once, then step
//! the runtime through a keyed request stream.
//!
//! Every way of running the system — the batch [`SystemSim`], a live
//! daemon session, journal recovery, offline `log replay` — is a caller
//! of the same three moves: [`Realized::new`] turns a study view and its
//! knobs into schedules, placements and the compiled trace;
//! [`Realized::start`] builds the event queue and the node runtime over
//! them; [`SimRun::step`] drains every queued event that orders strictly
//! before a request's `(time, class, seq)` key, applies the request, and
//! returns the state machine's own delivered/served verdict;
//! [`SimRun::finish`] drains the rest and folds the report. Because the
//! callers share the code, not a copy of it, their reports are equal by
//! construction.
//!
//! [`SystemSim`]: crate::SystemSim

use dosn_core::{ModelKind, PolicyKind, StudyConfig};
use dosn_onlinetime::OnlineSchedules;
use dosn_socialgraph::UserId;
use dosn_trace::{Activity, StudyView};

use crate::engine::{
    model_schedules, place_replicas, trace_span_days, DisseminationMode, EventSink, RunStats,
};
use crate::events::{Event, EventQueue, ScheduledEvent};
use crate::report::SystemReport;
use crate::state::NodeRuntime;
use crate::transport::InstantTransport;

/// The realized inputs of one simulation: everyone's drawn schedule,
/// every user's replica placement, the chronological activity trace and
/// its span. Owns them, so any number of runs can borrow from it.
#[derive(Debug)]
pub struct Realized {
    schedules: OnlineSchedules,
    placements: Vec<Vec<UserId>>,
    activities: Vec<Activity>,
    span_days: u64,
    dissemination: DisseminationMode,
}

impl Realized {
    /// Draws the schedules, places the replicas (parallel over
    /// [`StudyConfig::effective_threads`], byte-identical at any thread
    /// count) and compiles the trace of `view`.
    pub fn new(
        view: &dyn StudyView,
        model: ModelKind,
        policy: PolicyKind,
        replication_degree: usize,
        dissemination: DisseminationMode,
        config: &StudyConfig,
    ) -> Self {
        let schedules = model_schedules(view, model, config);
        let placements = place_replicas(view, &schedules, policy, replication_degree, config);
        let mut activities: Vec<Activity> = Vec::with_capacity(view.activity_count());
        view.for_each_activity(&mut |a| activities.push(*a));
        let span_days = trace_span_days(&activities);
        Realized { schedules, placements, activities, span_days, dissemination }
    }

    /// Everyone's drawn online schedule.
    pub fn schedules(&self) -> &OnlineSchedules {
        &self.schedules
    }

    /// The chronological activity trace; a `Post` event indexes it.
    pub fn activities(&self) -> &[Activity] {
        &self.activities
    }

    /// The replay horizon in days.
    pub fn span_days(&self) -> u64 {
        self.span_days
    }

    /// Users in the study.
    pub fn user_count(&self) -> usize {
        self.placements.len()
    }

    /// The per-user chain an event belongs to (see
    /// [`EventSink::record`]). A post's chain is its receiver, looked up
    /// in the trace; an out-of-range activity index (which the runtime
    /// ignores) maps to the saturated user id rather than panicking.
    pub fn chain_of(&self, ev: &ScheduledEvent) -> UserId {
        match ev.event {
            Event::SessionStart { user } | Event::SessionEnd { user } => user,
            Event::Post { activity } => self
                .activities
                .get(activity as usize)
                .map(|a| a.receiver())
                .unwrap_or(UserId::new(u32::MAX)),
            Event::ProfileRead { owner, .. } => owner,
            Event::Disseminate { host, .. } | Event::CloudFetch { host, .. } => host,
        }
    }

    /// A fresh node runtime over these inputs, all nodes offline. For
    /// feeding a complete recorded event stream straight to
    /// [`NodeRuntime::handle`]; everything else goes through
    /// [`Realized::start`].
    pub fn runtime(&self) -> NodeRuntime<'_> {
        NodeRuntime::new(
            &self.schedules,
            &self.placements,
            &self.activities,
            &InstantTransport,
            self.dissemination,
        )
    }

    /// Starts a run: the session feeder armed over the whole span, an
    /// empty delivery heap, a fresh runtime.
    pub fn start(&self) -> SimRun<'_> {
        SimRun {
            inputs: self,
            queue: EventQueue::new().with_sessions(&self.schedules, 0..self.span_days),
            runtime: self.runtime(),
            sink: None,
            last: None,
        }
    }
}

/// A request whose key does not order strictly after the last one the
/// run applied — a resend, a duplicate, or a reordered stream. Applying
/// it would diverge from the batch order, so [`SimRun::step`] refuses it
/// and leaves the run untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The refused request.
    pub got: ScheduledEvent,
    /// The last request the run applied.
    pub last: ScheduledEvent,
}

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} at {}s seq {} does not order after the last applied request \
             ({:?} at {}s seq {})",
            self.got.event,
            self.got.at.as_secs(),
            self.got.seq(),
            self.last.event,
            self.last.at.as_secs(),
            self.last.seq(),
        )
    }
}

impl std::error::Error for OutOfOrder {}

/// One run in progress: the event queue, the node runtime, and the key
/// of the last request applied.
///
/// Requests must arrive in strictly increasing `(time, class, seq)`
/// order — the order the batch scheduler would pop them in.
pub struct SimRun<'a> {
    inputs: &'a Realized,
    queue: EventQueue<'a>,
    runtime: NodeRuntime<'a>,
    sink: Option<&'a mut dyn EventSink>,
    last: Option<ScheduledEvent>,
}

impl std::fmt::Debug for SimRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRun")
            .field("runtime", &self.runtime)
            .field("last", &self.last)
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> SimRun<'a> {
    /// Streams every event the run consumes into `sink`, in exact apply
    /// order, each immediately before the runtime sees it.
    #[must_use]
    pub fn with_sink(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Whether `ev` may be stepped next: its key must order strictly
    /// after the last applied request's. A write-ahead journal calls
    /// this before appending, so a refused request never reaches disk.
    ///
    /// # Errors
    ///
    /// [`OutOfOrder`] otherwise.
    pub fn check_order(&self, ev: &ScheduledEvent) -> Result<(), OutOfOrder> {
        match self.last {
            Some(last) if *ev <= last => Err(OutOfOrder { got: *ev, last }),
            _ => Ok(()),
        }
    }

    /// Applies one request: drains every queued event ordering strictly
    /// before `ev`, then `ev` itself. Returns the runtime's verdict —
    /// whether a profile host was online to take the post or serve the
    /// read.
    ///
    /// # Errors
    ///
    /// [`OutOfOrder`] (queue and runtime untouched) unless `ev` orders
    /// strictly after the last applied request.
    pub fn step(&mut self, ev: ScheduledEvent) -> Result<bool, OutOfOrder> {
        self.check_order(&ev)?;
        while let Some(due) = self.queue.pop_before(&ev) {
            self.apply(due);
        }
        self.last = Some(ev);
        Ok(self.apply(ev))
    }

    /// Drains the remaining queue and folds the run into its report and
    /// event counters.
    pub fn finish(mut self) -> (SystemReport, RunStats) {
        while let Some(due) = self.queue.pop() {
            self.apply(due);
        }
        let stats = self.runtime.stats();
        (self.runtime.into_report(), stats)
    }

    fn apply(&mut self, ev: ScheduledEvent) -> bool {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(&ev, self.inputs.chain_of(&ev));
        }
        self.runtime.handle(ev, &mut self.queue)
    }
}
