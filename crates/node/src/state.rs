//! The per-node state machine layer: replica stores, pending-update
//! queues, and the forwarding logic, driven one [`Event`] at a time.
//!
//! [`NodeRuntime`] owns one [`NodeState`] per user and consumes the
//! scheduler's event stream: session boundaries toggle online flags,
//! posts land on whichever profile hosts are online and hand the rest to
//! the [`InstantTransport`], and delivery events (`Disseminate`/`CloudFetch`)
//! move updates from pending to stored with the per-node message
//! accounting the batch pipeline used to do inline. At the end of the
//! stream [`NodeRuntime::into_report`] folds the per-post outcomes (in
//! trace order, so float accumulation is bit-identical to the historic
//! batch loop) and the per-node counters into a [`SystemReport`].

use dosn_onlinetime::OnlineSchedules;
use dosn_socialgraph::UserId;
use dosn_trace::Activity;

use crate::engine::{DisseminationMode, RunStats};
use crate::events::{Event, EventQueue, ScheduledEvent};
use crate::report::{NodeAccounting, SystemReport};
use crate::transport::InstantTransport;

/// One node's live state during a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeState {
    /// Whether the node is inside one of its online sessions.
    pub online: bool,
    /// Updates held: the node's own accepted posts plus replicated ones.
    pub stored_updates: u64,
    /// Transfer messages attributed to this node as the sender (or, for
    /// cloud fetches, as the fetching client).
    pub messages_sent: u64,
    /// Updates en route: scheduled to arrive but not yet delivered.
    pub pending_updates: u64,
}

/// The state reported for a user id outside the runtime's range: such a
/// node is never online and holds nothing. Keeps [`NodeRuntime::node`]
/// total — the serving path must not panic on a hostile user id.
const OFFLINE_NODE: NodeState = NodeState {
    online: false,
    stored_updates: 0,
    messages_sent: 0,
    pending_updates: 0,
};

/// What became of one post; folded into the report in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PostOutcome {
    /// No profile host online at the post instant: the post failed.
    Failed,
    /// Every host was online: stored instantly everywhere.
    Instant,
    /// Dissemination reached every offline host; worst arrival lag.
    Complete {
        /// Seconds until the last host held the update.
        worst_secs: u64,
    },
    /// At least one offline host is unreachable within the horizon.
    Incomplete,
}

/// The event-consuming node state machine.
///
/// Feed it every event the scheduler pops; it updates node state,
/// schedules delivery events back onto the queue, and accumulates the
/// run's report.
pub struct NodeRuntime<'a> {
    nodes: Vec<NodeState>,
    schedules: &'a OnlineSchedules,
    placements: &'a [Vec<UserId>],
    activities: &'a [Activity],
    transport: InstantTransport,
    dissemination: DisseminationMode,
    outcomes: Vec<PostOutcome>,
    reads_total: usize,
    reads_served: usize,
    stats: RunStats,
}

impl std::fmt::Debug for NodeRuntime<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("nodes", &self.nodes.len())
            .field("posts", &self.activities.len())
            .field("dissemination", &self.dissemination)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'a> NodeRuntime<'a> {
    /// A runtime over every user of `schedules`, with all nodes initially
    /// offline (the day-0 `SessionStart` events bring them up).
    pub fn new(
        schedules: &'a OnlineSchedules,
        placements: &'a [Vec<UserId>],
        activities: &'a [Activity],
        transport: &InstantTransport,
        dissemination: DisseminationMode,
    ) -> Self {
        NodeRuntime {
            nodes: vec![NodeState::default(); schedules.user_count()],
            schedules,
            placements,
            activities,
            transport: *transport,
            dissemination,
            outcomes: vec![PostOutcome::Failed; activities.len()],
            reads_total: 0,
            reads_served: 0,
            stats: RunStats::default(),
        }
    }

    /// One node's current state. A user id outside the runtime's range
    /// reads as a permanently offline, empty node.
    pub fn node(&self, user: UserId) -> &NodeState {
        self.nodes.get(user.index()).unwrap_or(&OFFLINE_NODE)
    }

    /// Whether `user`'s node is inside one of its online sessions.
    fn online(&self, user: UserId) -> bool {
        self.nodes.get(user.index()).is_some_and(|n| n.online)
    }

    /// The profile hosts placed for `owner` (empty when out of range).
    fn placement(&self, owner: UserId) -> &'a [UserId] {
        self.placements
            .get(owner.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Applies `f` to `user`'s node state, ignoring out-of-range ids.
    fn with_node(&mut self, user: UserId, f: impl FnOnce(&mut NodeState)) {
        if let Some(n) = self.nodes.get_mut(user.index()) {
            f(n);
        }
    }

    /// Records `outcome` for the post at trace index `idx`.
    fn set_outcome(&mut self, idx: usize, outcome: PostOutcome) {
        if let Some(slot) = self.outcomes.get_mut(idx) {
            *slot = outcome;
        }
    }

    /// Event counts so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Consumes one event, possibly scheduling delivery events onto
    /// `queue`. Returns the verdict of a request event — whether any
    /// profile host was online to take the `Post` (delivered) or answer
    /// the `ProfileRead` (served); `false` for every other event.
    pub fn handle(&mut self, ev: ScheduledEvent, queue: &mut EventQueue<'_>) -> bool {
        self.stats.events_processed += 1;
        match ev.event {
            Event::SessionStart { user } => {
                self.stats.session_events += 1;
                self.with_node(user, |n| n.online = true);
            }
            Event::SessionEnd { user } => {
                self.stats.session_events += 1;
                self.with_node(user, |n| n.online = false);
            }
            Event::Post { activity } => {
                self.stats.post_events += 1;
                return self.handle_post(activity, ev, queue);
            }
            Event::ProfileRead { owner, reader: _ } => {
                self.stats.read_events += 1;
                self.reads_total += 1;
                let served = self.online(owner)
                    || self.placement(owner).iter().any(|&h| self.online(h));
                self.reads_served += served as usize;
                return served;
            }
            Event::Disseminate { post: _, host, source } => {
                self.stats.delivery_events += 1;
                self.with_node(host, |h| {
                    h.stored_updates += 1;
                    h.pending_updates = h.pending_updates.saturating_sub(1);
                });
                self.with_node(source, |s| s.messages_sent += 1);
            }
            Event::CloudFetch { post: _, host } => {
                self.stats.delivery_events += 1;
                self.with_node(host, |h| {
                    h.stored_updates += 1;
                    h.pending_updates = h.pending_updates.saturating_sub(1);
                    h.messages_sent += 1; // the fetch
                });
            }
        }
        false
    }

    /// Lands one post; returns whether any profile host was online.
    fn handle_post(
        &mut self,
        activity: u32,
        ev: ScheduledEvent,
        queue: &mut EventQueue<'_>,
    ) -> bool {
        let idx = activity as usize;
        let Some(&a) = self.activities.get(idx) else {
            return false; // an index outside the trace delivers nothing
        };
        let receiver = a.receiver();
        let t = ev.at;
        // The profile's hosts: the owner plus the replicas.
        let placement = self.placement(receiver);
        let mut hosts: Vec<UserId> = Vec::with_capacity(placement.len() + 1);
        hosts.push(receiver);
        hosts.extend_from_slice(placement);
        // Which hosts are online at the post's instant? The session
        // events have already settled this instant's flags.
        let online: Vec<usize> = hosts
            .iter()
            .enumerate()
            .filter(|&(_, &h)| self.online(h))
            .map(|(i, _)| i)
            .collect();
        if online.is_empty() {
            self.set_outcome(idx, PostOutcome::Failed);
            return false;
        }
        // The online hosts store the update immediately; the creator's
        // node sent one message per online host it is not itself.
        for &i in &online {
            let Some(&host) = hosts.get(i) else { continue };
            self.with_node(host, |n| n.stored_updates += 1);
            if host != a.creator() {
                self.with_node(a.creator(), |c| c.messages_sent += 1);
            }
        }
        if online.len() == hosts.len() {
            self.set_outcome(idx, PostOutcome::Instant);
            return true;
        }
        // Dissemination to the offline hosts: ask the transport when
        // each copy lands, then schedule the delivery events.
        let outcome = match self.dissemination {
            DisseminationMode::FriendToFriend => {
                let arrivals = self.transport.disseminate(&hosts, self.schedules, &online, t);
                // Attribute transfers to some already-holding host; the
                // epidemic sender is whichever peer it met — accounting
                // to the first online source keeps totals right. (The
                // receiver fallback is unreachable: `online` is
                // non-empty and indexes `hosts`.)
                let source = online
                    .first()
                    .and_then(|&i| hosts.get(i))
                    .copied()
                    .unwrap_or(receiver);
                let mut worst = 0u64;
                let mut all_reached = true;
                for ((i, &host), arrival) in hosts.iter().enumerate().zip(arrivals.iter()) {
                    if online.contains(&i) {
                        continue;
                    }
                    match *arrival {
                        Some(at) => {
                            worst = worst.max(at.seconds_since(t));
                            self.with_node(host, |n| n.pending_updates += 1);
                            queue.schedule(
                                at,
                                Event::Disseminate { post: activity, host, source },
                            );
                        }
                        None => all_reached = false,
                    }
                }
                if all_reached {
                    PostOutcome::Complete { worst_secs: worst }
                } else {
                    PostOutcome::Incomplete
                }
            }
            DisseminationMode::Cloud { latency_secs } => {
                // One upload, then every offline host fetches at its
                // next online instant after the store has the update.
                self.with_node(a.creator(), |c| c.messages_sent += 1);
                let ready = t.saturating_add(latency_secs);
                let mut worst = 0u64;
                let mut all_reached = true;
                for (i, &host) in hosts.iter().enumerate() {
                    if online.contains(&i) {
                        continue;
                    }
                    let wait = self
                        .schedules
                        .get(host)
                        .and_then(|s| s.wait_until_online(ready.time_of_day()));
                    match wait {
                        Some(wait) => {
                            let delay = latency_secs + u64::from(wait);
                            worst = worst.max(delay);
                            self.with_node(host, |n| n.pending_updates += 1);
                            queue.schedule(
                                t.saturating_add(delay),
                                Event::CloudFetch { post: activity, host },
                            );
                        }
                        None => all_reached = false,
                    }
                }
                if all_reached {
                    PostOutcome::Complete { worst_secs: worst }
                } else {
                    PostOutcome::Incomplete
                }
            }
        };
        self.set_outcome(idx, outcome);
        true
    }

    /// Folds the run into a [`SystemReport`]: per-post outcomes in trace
    /// order first (the float-accumulation order of the historic batch
    /// loop), then per-node accounting in user order.
    ///
    /// Counts reads issued via the queue's `ProfileRead` events.
    pub fn into_report(self) -> SystemReport {
        let mut delivered = 0usize;
        let mut staleness = dosn_metrics::Summary::new();
        let mut incomplete = 0usize;
        for outcome in &self.outcomes {
            match *outcome {
                PostOutcome::Failed => {}
                PostOutcome::Instant => {
                    delivered += 1;
                    staleness.add(0.0);
                }
                PostOutcome::Complete { worst_secs } => {
                    delivered += 1;
                    staleness.add(worst_secs as f64 / 3_600.0);
                }
                PostOutcome::Incomplete => {
                    delivered += 1;
                    incomplete += 1;
                }
            }
        }
        let mut accounting = NodeAccounting::default();
        for node in &self.nodes {
            debug_assert_eq!(node.pending_updates, 0, "undelivered scheduled update");
            accounting.stored_updates.add(node.stored_updates as f64);
            accounting.messages_sent.add(node.messages_sent as f64);
        }
        SystemReport::new(
            self.activities.len(),
            delivered,
            staleness,
            incomplete,
            self.reads_total,
            self.reads_served,
            accounting,
        )
    }
}
