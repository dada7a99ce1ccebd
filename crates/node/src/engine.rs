use dosn_core::{ModelKind, PolicyKind, StudyConfig};
use dosn_onlinetime::OnlineSchedules;
use dosn_socialgraph::UserId;
use dosn_trace::{Activity, StudyView};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::events::{Event, ScheduledEvent};
use crate::report::SystemReport;
use crate::run::Realized;

/// How a delivered post reaches the profile hosts that were offline at
/// post time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisseminationMode {
    /// Replica-to-replica epidemic over co-online contacts — the ConRep
    /// story, no third parties.
    FriendToFriend,
    /// Through an always-on store (CDN/cloud): every offline host
    /// fetches the update when it next comes online, after the given
    /// upload latency.
    Cloud {
        /// Upload/propagation latency of the store, seconds.
        latency_secs: u64,
    },
}

/// An observer the full-system run streams every consumed event into,
/// in exact pop order — the hook a persistent event log attaches to
/// (DESIGN.md §11).
///
/// `record` is deliberately infallible: a sink that can fail (a disk
/// writer, say) latches its first error internally and surfaces it when
/// the caller finalizes the sink, so the deterministic event loop never
/// grows an error path.
pub trait EventSink {
    /// Observes one event immediately before the runtime applies it.
    /// `chain` identifies the user whose per-user chain the event
    /// belongs to: the session user, the profile owner of a post or
    /// read, or the receiving host of a delivery event.
    fn record(&mut self, ev: &ScheduledEvent, chain: UserId);
}

/// Event-loop counters of one full-system run, for throughput reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total events consumed by the state machine.
    pub events_processed: u64,
    /// `SessionStart`/`SessionEnd` events.
    pub session_events: u64,
    /// `Post` events (equals the trace's activity count).
    pub post_events: u64,
    /// `ProfileRead` events.
    pub read_events: u64,
    /// `Disseminate`/`CloudFetch` delivery events.
    pub delivery_events: u64,
}

/// Builder for a full-system run: study view in, [`SystemReport`] out.
///
/// The batch caller of the simulation spine ([`Realized`] /
/// [`SimRun`](crate::SimRun)):
///
/// 1. realize the inputs — model everyone's online schedule, place every
///    user's replicas (seeded per user, so it parallelizes over
///    [`StudyConfig::effective_threads`] without changing any byte), and
///    compile the trace;
/// 2. merge the trace's posts and the drawn read schedule into one
///    request stream ([`request_stream`]);
/// 3. step the run through every request — session boundaries and
///    offline-host deliveries interleave from the run's own queue;
/// 4. finish: fold per-post outcomes and per-node accounting into the
///    report.
///
/// Any [`StudyView`] with [`StudyView::supports_replay`] works — a
/// fully-indexed [`Dataset`](dosn_trace::Dataset), or a compact
/// [`ScaleDataset`](dosn_trace::ScaleDataset) built via
/// `from_shards_replay` for 100k–1M-user runs.
///
/// # Examples
///
/// ```
/// use dosn_node::SystemSim;
/// use dosn_core::{ModelKind, PolicyKind, StudyConfig};
/// use dosn_trace::synth;
///
/// let dataset = synth::facebook_like(120, 1).expect("generation succeeds");
/// let report = SystemSim::new(&dataset)
///     .policy(PolicyKind::MostActive)
///     .replication_degree(2)
///     .run(&StudyConfig::default());
/// assert_eq!(report.posts_total(), dataset.activity_count());
/// ```
pub struct SystemSim<'a> {
    view: &'a dyn StudyView,
    model: ModelKind,
    policy: PolicyKind,
    replication_degree: usize,
    reads_per_friend_day: f64,
    dissemination: DisseminationMode,
}

impl std::fmt::Debug for SystemSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSim")
            .field("users", &self.view.user_count())
            .field("model", &self.model)
            .field("policy", &self.policy)
            .field("replication_degree", &self.replication_degree)
            .field("reads_per_friend_day", &self.reads_per_friend_day)
            .field("dissemination", &self.dissemination)
            .finish()
    }
}

impl<'a> SystemSim<'a> {
    /// A simulation of `view` with the paper's defaults: Sporadic
    /// sessions, MaxAv placement, 4 replicas.
    pub fn new(view: &'a dyn StudyView) -> Self {
        SystemSim {
            view,
            model: ModelKind::sporadic_default(),
            policy: PolicyKind::MaxAv,
            replication_degree: 4,
            reads_per_friend_day: 0.1,
            dissemination: DisseminationMode::FriendToFriend,
        }
    }

    /// Sets the online-time model.
    pub fn model(&mut self, model: ModelKind) -> &mut Self {
        self.model = model;
        self
    }

    /// Sets the placement policy.
    pub fn policy(&mut self, policy: PolicyKind) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Sets the per-user replication budget.
    pub fn replication_degree(&mut self, k: usize) -> &mut Self {
        self.replication_degree = k;
        self
    }

    /// Sets how many profile reads each friend issues per day (during
    /// their own online time); clamped to non-negative.
    pub fn reads_per_friend_day(&mut self, rate: f64) -> &mut Self {
        self.reads_per_friend_day = rate.max(0.0);
        self
    }

    /// Sets how delivered posts reach offline hosts.
    pub fn dissemination(&mut self, mode: DisseminationMode) -> &mut Self {
        self.dissemination = mode;
        self
    }

    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the view does not retain the full activity stream
    /// ([`StudyView::supports_replay`] is false).
    pub fn run(&self, config: &StudyConfig) -> SystemReport {
        self.run_with_stats(config).0
    }

    /// Runs the simulation and also returns the event-loop counters.
    ///
    /// # Panics
    ///
    /// Panics if the view does not retain the full activity stream.
    pub fn run_with_stats(&self, config: &StudyConfig) -> (SystemReport, RunStats) {
        self.run_impl(config, None)
    }

    /// Runs the simulation while streaming every consumed event into
    /// `sink`, in exact pop order. The report is byte-identical to
    /// [`SystemSim::run`]'s — the sink observes the stream, it never
    /// perturbs it.
    ///
    /// # Panics
    ///
    /// Panics if the view does not retain the full activity stream.
    pub fn run_with_sink(&self, config: &StudyConfig, sink: &mut dyn EventSink) -> SystemReport {
        self.run_impl(config, Some(sink)).0
    }

    fn run_impl(
        &self,
        config: &StudyConfig,
        sink: Option<&mut dyn EventSink>,
    ) -> (SystemReport, RunStats) {
        let realized = Realized::new(
            self.view,
            self.model,
            self.policy,
            self.replication_degree,
            self.dissemination,
            config,
        );
        let requests = request_stream(
            self.view,
            realized.schedules(),
            realized.span_days(),
            self.reads_per_friend_day,
            config,
        );
        let mut run = realized.start();
        if let Some(sink) = sink {
            run = run.with_sink(sink);
        }
        for ev in requests {
            let stepped = run.step(ev);
            debug_assert!(stepped.is_ok(), "the merged stream is strictly increasing");
        }
        run.finish()
    }
}

/// Stage-1 online schedules: everyone's modeled schedule, drawn from the
/// run's model RNG. Exposed so a live serving session can reproduce the
/// exact schedules the batch pipeline uses for the same config.
pub fn model_schedules(
    view: &dyn StudyView,
    model: ModelKind,
    config: &StudyConfig,
) -> OnlineSchedules {
    let built_model = model.build();
    let mut model_rng = StdRng::seed_from_u64(config.seed() ^ 0x51D);
    built_model.schedules_from(view, &mut model_rng)
}

/// Stage-2 placements for every user, parallelized over contiguous user
/// chunks. Each placement draws from its own user-seeded RNG, so the
/// chunking never changes a choice.
pub fn place_replicas(
    view: &dyn StudyView,
    schedules: &OnlineSchedules,
    policy: PolicyKind,
    replication_degree: usize,
    config: &StudyConfig,
) -> Vec<Vec<UserId>> {
    let n = view.user_count();
    let threads = config.effective_threads().min(n.max(1));
    let mut placements: Vec<Vec<UserId>> = vec![Vec::new(); n];
    let chunk_len = n.div_ceil(threads.max(1));
    let place_chunk = |start: usize, out: &mut [Vec<UserId>]| {
        let built_policy = policy.build();
        for (off, slot) in out.iter_mut().enumerate() {
            let user = UserId::from_index(start + off);
            let mut rng = StdRng::seed_from_u64(config.seed() ^ u64::from(user.as_u32()));
            *slot = built_policy.place(
                view,
                schedules,
                user,
                replication_degree,
                config.connectivity(),
                &mut rng,
            );
        }
    };
    if threads <= 1 || chunk_len == 0 {
        place_chunk(0, &mut placements);
    } else {
        std::thread::scope(|scope| {
            for (i, out) in placements.chunks_mut(chunk_len).enumerate() {
                let place_chunk = &place_chunk;
                scope.spawn(move || place_chunk(i * chunk_len, out));
            }
        });
    }
    placements
}

/// The replay horizon in days: one past the last activity's day (and at
/// least one, so empty traces still have a session day).
pub fn trace_span_days(activities: &[Activity]) -> u64 {
    activities
        .last()
        .map(|a| a.timestamp().day_index() + 1)
        .unwrap_or(1)
}

/// Draws the profile-read schedule: for every (owner, friend) pair, a
/// count with expectation `rate × span_days`, each read at one of the
/// friend's online seconds. The RNG consumption order is the batch
/// pipeline's (owner-major, then candidate order); each read's day is
/// assigned round-robin without consuming randomness. Exposed so a live
/// driver can derive the identical request schedule the batch run uses.
pub fn draw_profile_reads(
    view: &dyn StudyView,
    schedules: &OnlineSchedules,
    span_days: u64,
    reads_per_friend_day: f64,
    config: &StudyConfig,
) -> Vec<ScheduledEvent> {
    let mut read_rng = StdRng::seed_from_u64(config.seed() ^ 0x5EAD);
    let mut events: Vec<ScheduledEvent> = Vec::new();
    let mut seq = 0u64;
    for i in 0..view.user_count() {
        let owner = UserId::from_index(i);
        for &friend in view.replica_candidates(owner) {
            let reads = sample_count(reads_per_friend_day * span_days as f64, &mut read_rng);
            for _ in 0..reads {
                let Some(tod) = schedules
                    .get(friend)
                    .and_then(|s| random_online_second(s, &mut read_rng))
                else {
                    break; // friend never online: no reads issued
                };
                let day = seq % span_days;
                events.push(ScheduledEvent::new(
                    dosn_interval::Timestamp::from_day_and_offset(day, tod),
                    seq,
                    Event::ProfileRead { owner, reader: friend },
                ));
                seq += 1;
            }
        }
    }
    events.sort_unstable();
    events
}

/// The request stream of one run: the trace's posts (sequence number =
/// trace index) and the drawn profile reads, merged into the order the
/// scheduler applies them in. The batch run steps through it in process;
/// a live driver sends it over the wire, keys riding along, so the
/// daemon reconstructs the identical total order.
pub fn request_stream(
    view: &dyn StudyView,
    schedules: &OnlineSchedules,
    span_days: u64,
    reads_per_friend_day: f64,
    config: &StudyConfig,
) -> Vec<ScheduledEvent> {
    let mut stream: Vec<ScheduledEvent> = Vec::with_capacity(view.activity_count());
    view.for_each_activity(&mut |a| {
        let i = stream.len();
        stream.push(ScheduledEvent::new(
            a.timestamp(),
            i as u64,
            Event::Post { activity: event_index(i) },
        ));
    });
    stream.extend(draw_profile_reads(view, schedules, span_days, reads_per_friend_day, config));
    // Two sorted runs, no equal keys: the stable sort detects the runs
    // and merges them in one pass.
    stream.sort();
    stream
}

/// Converts an activity index to the event payload's u32, saturating at
/// the capacity (a >4B-activity trace is far past every supported
/// scale; the driver layers reject it before events are built).
fn event_index(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

/// Draws an integer count with the given expectation (floor plus a
/// Bernoulli remainder).
fn sample_count(expectation: f64, rng: &mut StdRng) -> u64 {
    use rand::Rng;
    let base = expectation.floor();
    let extra = rng.gen::<f64>() < (expectation - base);
    base as u64 + u64::from(extra)
}

/// A uniformly random online second-of-day of a schedule, or `None` for
/// a never-online user.
fn random_online_second(
    schedule: &dosn_interval::DaySchedule,
    rng: &mut StdRng,
) -> Option<u32> {
    use rand::Rng;
    let total = schedule.online_seconds();
    if total == 0 {
        return None;
    }
    schedule.nth_online_second(rng.gen_range(0..total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_replication::Connectivity;
    use dosn_trace::{synth, Dataset};

    fn dataset() -> Dataset {
        synth::facebook_like(150, 13).unwrap()
    }

    #[test]
    fn sporadic_delivers_most_posts() {
        // Under Sporadic the creator is online at the post instant by
        // construction, but delivery needs a *receiver-side* host online;
        // replication should push delivery well above the no-replica
        // baseline.
        let ds = dataset();
        let config = StudyConfig::default();
        let with_replicas = SystemSim::new(&ds)
            .replication_degree(5)
            .run(&config);
        let without = SystemSim::new(&ds).replication_degree(0).run(&config);
        let with_ratio = with_replicas.delivery_ratio().unwrap();
        let without_ratio = without.delivery_ratio().unwrap();
        assert!(
            with_ratio > without_ratio,
            "replication did not help: {with_ratio:.3} vs {without_ratio:.3}"
        );
        assert!(with_ratio > 0.5, "delivery ratio {with_ratio:.3}");
    }

    #[test]
    fn zero_replication_stores_only_at_owners() {
        let ds = dataset();
        let report = SystemSim::new(&ds)
            .replication_degree(0)
            .run(&StudyConfig::default());
        // Every delivered post is stored exactly once (the owner), so the
        // mean stored per node times nodes equals delivered posts.
        let total_stored = report.accounting().stored_updates.mean().unwrap()
            * report.accounting().stored_updates.count() as f64;
        assert!((total_stored - report.posts_delivered() as f64).abs() < 1e-6);
        // All staleness are zero: nobody else to disseminate to.
        assert_eq!(report.staleness_hours().max().unwrap_or(0.0), 0.0);
    }

    #[test]
    fn staleness_is_positive_with_partial_online_hosts() {
        let ds = dataset();
        let report = SystemSim::new(&ds)
            .model(ModelKind::fixed_hours(4))
            .replication_degree(4)
            .run(&StudyConfig::default());
        // With 4-hour windows many hosts are offline at post time, so
        // some dissemination takes real time.
        assert!(report.staleness_hours().count() > 0);
        assert!(report.staleness_hours().max().unwrap() > 0.0);
    }

    #[test]
    fn unconrep_changes_outcomes_but_stays_consistent() {
        let ds = dataset();
        let config = StudyConfig::default().with_connectivity(Connectivity::UnconRep);
        let report = SystemSim::new(&ds)
            .policy(PolicyKind::Random)
            .replication_degree(3)
            .run(&config);
        assert_eq!(
            report.posts_total(),
            report.posts_delivered() + report.posts_failed()
        );
    }

    #[test]
    fn cloud_dissemination_cuts_staleness() {
        let ds = dataset();
        let config = StudyConfig::default();
        let f2f = SystemSim::new(&ds)
            .model(ModelKind::fixed_hours(4))
            .replication_degree(4)
            .run(&config);
        let cloud = SystemSim::new(&ds)
            .model(ModelKind::fixed_hours(4))
            .replication_degree(4)
            .dissemination(DisseminationMode::Cloud { latency_secs: 60 })
            .run(&config);
        // Delivery is identical (same hosts online at post time)...
        assert_eq!(f2f.posts_delivered(), cloud.posts_delivered());
        // ...but the cloud bounds every wait by the host's own absence.
        let f2f_stale = f2f.staleness_hours().mean().unwrap();
        let cloud_stale = cloud.staleness_hours().mean().unwrap();
        assert!(
            cloud_stale < f2f_stale,
            "cloud {cloud_stale:.2} h should beat f2f {f2f_stale:.2} h"
        );
        assert!(cloud.staleness_hours().max().unwrap() <= 24.1);
        // And never leaves a reachable host unreached.
        assert!(cloud.incomplete_dissemination() <= f2f.incomplete_dissemination());
    }

    #[test]
    fn reads_improve_with_replication() {
        let ds = dataset();
        let config = StudyConfig::default();
        let served_at = |k: usize| {
            SystemSim::new(&ds)
                .replication_degree(k)
                .reads_per_friend_day(0.3)
                .run(&config)
                .read_success_ratio()
                .unwrap()
        };
        let none = served_at(0);
        let five = served_at(5);
        assert!(five > none, "reads did not improve: {none:.3} vs {five:.3}");
        assert!((0.0..=1.0).contains(&five));
    }

    #[test]
    fn zero_read_rate_issues_no_reads() {
        let ds = dataset();
        let report = SystemSim::new(&ds)
            .reads_per_friend_day(0.0)
            .run(&StudyConfig::default());
        assert_eq!(report.reads_total(), 0);
        assert_eq!(report.read_success_ratio(), None);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let ds = dataset();
        let config = StudyConfig::default().with_seed(77);
        let a = SystemSim::new(&ds).run(&config);
        let b = SystemSim::new(&ds).run(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_count_every_event_class() {
        let ds = dataset();
        let (report, stats) = SystemSim::new(&ds)
            .model(ModelKind::fixed_hours(6))
            .run_with_stats(&StudyConfig::default());
        assert_eq!(stats.post_events as usize, report.posts_total());
        assert_eq!(stats.read_events as usize, report.reads_total());
        assert!(stats.session_events > 0);
        assert!(stats.delivery_events > 0, "fixed-hours runs disseminate");
        assert_eq!(
            stats.events_processed,
            stats.session_events + stats.post_events + stats.read_events + stats.delivery_events
        );
    }

    #[test]
    fn sink_observes_the_exact_pop_order_without_perturbing_the_run() {
        struct Collect(Vec<(u64, u64, UserId)>);
        impl EventSink for Collect {
            fn record(&mut self, ev: &ScheduledEvent, chain: UserId) {
                self.0.push((ev.at.as_secs(), ev.seq(), chain));
            }
        }
        let ds = dataset();
        let config = StudyConfig::default();
        let (baseline, stats) = SystemSim::new(&ds).run_with_stats(&config);
        let mut sink = Collect(Vec::new());
        let report = SystemSim::new(&ds).run_with_sink(&config, &mut sink);
        assert_eq!(report, baseline, "the sink must not perturb the run");
        assert_eq!(sink.0.len() as u64, stats.events_processed);
        assert!(
            sink.0.windows(2).all(|w| w[0].0 <= w[1].0),
            "recorded times must be non-decreasing"
        );
    }
}
