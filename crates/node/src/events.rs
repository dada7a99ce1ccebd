//! The discrete-event scheduler: a deterministic, stable-ordered queue
//! of typed node-runtime events.
//!
//! Two event sources feed the queue:
//!
//! * **session boundaries** — `SessionStart`/`SessionEnd` pairs derived
//!   from the drawn [`OnlineSchedules`], generated lazily one day at a
//!   time so a 100k-user multi-week replay never materializes the full
//!   boundary stream;
//! * **dynamic events** — `Disseminate`/`CloudFetch` deliveries the
//!   state machine schedules while handling earlier events.
//!
//! Request events (`Post`, `ProfileRead`) never sit in the queue: a run
//! steps them in from outside ([`SimRun::step`](crate::SimRun::step)),
//! draining the queue strictly before each one's key.
//!
//! Every event carries a total order key `(time, class, seq)`: `class`
//! ranks same-instant events (session boundaries settle before payload
//! events consult online flags; `SessionEnd` precedes `SessionStart` so
//! a midnight-wrapping window's split at the day boundary closes and
//! reopens without a gap), and `seq` is the creation sequence within a
//! source — so the pop order is independent of thread count, hash state,
//! and insertion batching.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dosn_interval::Timestamp;
use dosn_onlinetime::OnlineSchedules;
use dosn_socialgraph::UserId;

/// A typed node-runtime event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A node comes online: one of its schedule windows opens.
    SessionStart {
        /// The node going online.
        user: UserId,
    },
    /// A node goes offline: one of its schedule windows closes.
    SessionEnd {
        /// The node going offline.
        user: UserId,
    },
    /// A wall post lands on its receiver's profile; `activity` indexes
    /// the compiled trace.
    Post {
        /// Index into the chronological activity stream.
        activity: u32,
    },
    /// A friend fetches a profile during its own online time.
    ProfileRead {
        /// The profile's owner.
        owner: UserId,
        /// The reading friend.
        reader: UserId,
    },
    /// A pending update reaches a host that was offline at post time,
    /// over co-online replica contacts.
    Disseminate {
        /// Index of the post being delivered.
        post: u32,
        /// The host receiving its copy now.
        host: UserId,
        /// The already-holding peer the transfer is accounted to.
        source: UserId,
    },
    /// A host that was offline at post time fetches the update from the
    /// always-on store upon coming back online.
    CloudFetch {
        /// Index of the post being delivered.
        post: u32,
        /// The host fetching its copy now.
        host: UserId,
    },
}

impl Event {
    /// Same-instant processing rank. Session boundaries settle first
    /// (End before Start, see the module docs), then deliveries of
    /// already-pending state, then new work.
    fn class(self) -> u8 {
        match self {
            Event::SessionEnd { .. } => 0,
            Event::SessionStart { .. } => 1,
            Event::Disseminate { .. } => 2,
            Event::CloudFetch { .. } => 3,
            Event::Post { .. } => 4,
            Event::ProfileRead { .. } => 5,
        }
    }
}

/// An [`Event`] with its position in the global total order.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledEvent {
    /// Absolute fire time.
    pub at: Timestamp,
    /// Same-instant class rank (see [`Event::class`]).
    class: u8,
    /// Creation sequence within the event's source; breaks remaining
    /// ties deterministically.
    seq: u64,
    /// The payload.
    pub event: Event,
}

impl ScheduledEvent {
    /// Wraps `event` for time `at` with tie-break sequence `seq`.
    pub fn new(at: Timestamp, seq: u64, event: Event) -> Self {
        ScheduledEvent {
            at,
            class: event.class(),
            seq,
            event,
        }
    }

    /// The creation sequence within the event's source — the final
    /// tie-break of the queue order. A live driver ships it with each
    /// request so the serving side reconstructs the identical order.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn key(&self) -> (Timestamp, u8, u64) {
        (self.at, self.class, self.seq)
    }
}

// The order (and equality) is the queue key alone: sources never emit
// two events with the same (time, class, seq), and keeping the payload
// out of the comparison keeps Ord consistent with Eq by construction.
impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The `SessionStart`/`SessionEnd` events of every user's schedule for
/// one day, in queue order. A window `[s, e)` on day `d` opens at
/// `(d, s)` and closes at `(d, e)` — a midnight-wrapping window is
/// already split into two within-day windows by [`DaySchedule`]'s
/// canonical form, and the End-before-Start class rank rejoins the
/// halves seamlessly at the boundary.
///
/// [`DaySchedule`]: dosn_interval::DaySchedule
pub fn session_events_for_day(schedules: &OnlineSchedules, day: u64) -> Vec<ScheduledEvent> {
    let mut raw: Vec<(Timestamp, u8, UserId)> = Vec::new();
    for (user, schedule) in schedules.iter() {
        for w in schedule.windows() {
            raw.push((Timestamp::from_day_and_offset(day, w.start()), 1, user));
            raw.push((Timestamp::from_day_and_offset(day, w.end()), 0, user));
        }
    }
    // Users iterate in id order, so the sort tie-breaks identically
    // every run; per-day seq numbers then pin the order in the queue.
    raw.sort_unstable_by_key(|&(at, class, user)| (at, class, user));
    raw.iter()
        .enumerate()
        .map(|(i, &(at, class, user))| {
            let event = if class == 0 {
                Event::SessionEnd { user }
            } else {
                Event::SessionStart { user }
            };
            ScheduledEvent::new(at, i as u64, event)
        })
        .collect()
}

/// A pre-sorted event vector drained front to back.
#[derive(Debug, Default)]
struct Stream {
    events: Vec<ScheduledEvent>,
    cursor: usize,
}

impl Stream {
    fn head(&self) -> Option<&ScheduledEvent> {
        self.events.get(self.cursor)
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        let ev = self.events.get(self.cursor).copied();
        self.cursor += ev.is_some() as usize;
        ev
    }
}

/// Lazy per-day session boundary generation over a day range.
#[derive(Debug)]
struct SessionFeeder<'a> {
    schedules: &'a OnlineSchedules,
    next_day: u64,
    end_day: u64,
    buffer: Stream,
}

impl SessionFeeder<'_> {
    /// Whether another day can still be generated.
    fn has_more_days(&self) -> bool {
        self.next_day < self.end_day
    }

    fn feed_next_day(&mut self) {
        debug_assert!(self.has_more_days());
        debug_assert!(self.buffer.head().is_none(), "previous day not drained");
        self.buffer = Stream {
            events: session_events_for_day(self.schedules, self.next_day),
            cursor: 0,
        };
        self.next_day += 1;
    }
}

/// The deterministic event queue: a merge of the lazy session feeder
/// and a heap of dynamically scheduled events.
///
/// # Examples
///
/// ```
/// use dosn_interval::Timestamp;
/// use dosn_node::{Event, EventQueue};
/// use dosn_socialgraph::UserId;
///
/// let mut q = EventQueue::new();
/// q.schedule(Timestamp::new(50), Event::CloudFetch { post: 0, host: UserId::new(2) });
/// q.schedule(
///     Timestamp::new(10),
///     Event::Disseminate { post: 0, host: UserId::new(1), source: UserId::new(0) },
/// );
/// let first = q.pop().expect("two events queued");
/// assert_eq!(first.at, Timestamp::new(10));
/// assert!(q.pop().is_some());
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<'a> {
    heap: BinaryHeap<Reverse<ScheduledEvent>>,
    next_seq: u64,
    sessions: Option<SessionFeeder<'a>>,
}

impl Default for EventQueue<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> EventQueue<'a> {
    /// An empty queue.
    pub fn new() -> EventQueue<'a> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            sessions: None,
        }
    }

    /// Attaches lazy session boundary generation for `days` (half-open
    /// day range) over `schedules`.
    #[must_use]
    pub fn with_sessions(mut self, schedules: &'a OnlineSchedules, days: std::ops::Range<u64>) -> Self {
        self.sessions = Some(SessionFeeder {
            schedules,
            next_day: days.start,
            end_day: days.end,
            buffer: Stream::default(),
        });
        self
    }

    /// Schedules a dynamic event; among dynamic events at equal time and
    /// class, creation order is the pop order.
    pub fn schedule(&mut self, at: Timestamp, event: Event) {
        let ev = ScheduledEvent::new(at, self.next_seq, event);
        self.next_seq += 1;
        self.heap.push(Reverse(ev));
    }

    /// The smallest queued head, and whether it sits in the session
    /// buffer (`true`) or the heap (`false`). The buffer wins a tie.
    fn front(&self) -> Option<(bool, ScheduledEvent)> {
        let session = self.sessions.as_ref().and_then(|f| f.buffer.head().copied());
        let dynamic = self.heap.peek().map(|&Reverse(ev)| ev);
        match (session, dynamic) {
            (Some(s), Some(d)) if d < s => Some((false, d)),
            (Some(s), _) => Some((true, s)),
            (None, d) => d.map(|d| (false, d)),
        }
    }

    /// Removes and returns the globally next event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_bounded(None)
    }

    /// Removes and returns the globally next event, but only if it
    /// orders strictly before `limit`; otherwise leaves the queue
    /// untouched and returns `None`.
    ///
    /// This is the incremental-advance primitive a run's `step` uses:
    /// before handling an externally supplied event it drains every
    /// queued event that orders first. Session days are only generated
    /// once the limit reaches them, keeping the lazy feeder lazy across
    /// calls.
    pub fn pop_before(&mut self, limit: &ScheduledEvent) -> Option<ScheduledEvent> {
        self.pop_bounded(Some(limit))
    }

    fn pop_bounded(&mut self, limit: Option<&ScheduledEvent>) -> Option<ScheduledEvent> {
        loop {
            let front = self.front();
            // Generate the next day of session events once the merge
            // front reaches (or runs past) that day's start — but never
            // a day the limit has not reached.
            if let Some(f) = self.sessions.as_mut() {
                if f.buffer.head().is_none() && f.has_more_days() {
                    let boundary = Timestamp::from_day_and_offset(f.next_day, 0);
                    if limit.is_none_or(|l| l.at >= boundary)
                        && front.is_none_or(|(_, ev)| ev.at >= boundary)
                    {
                        f.feed_next_day();
                        continue;
                    }
                }
            }
            return match front {
                Some((_, ev)) if limit.is_some_and(|l| ev >= *l) => None,
                Some((true, _)) => self.sessions.as_mut().and_then(|f| f.buffer.pop()),
                Some((false, _)) => self.heap.pop().map(|Reverse(ev)| ev),
                None => None,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosn_interval::DaySchedule;

    fn user(i: u32) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn classes_rank_session_boundaries_before_payloads() {
        let t = Timestamp::new(1_000);
        let mut q = EventQueue::new();
        q.schedule(t, Event::Post { activity: 0 });
        q.schedule(t, Event::Disseminate { post: 0, host: user(1), source: user(0) });
        let mut classes = Vec::new();
        while let Some(ev) = q.pop() {
            classes.push(ev.event);
        }
        assert!(matches!(classes[0], Event::Disseminate { .. }));
        assert!(matches!(classes[1], Event::Post { .. }));
    }

    #[test]
    fn equal_keys_pop_in_creation_order() {
        let t = Timestamp::new(7);
        let mut q = EventQueue::new();
        for post in 0..5u32 {
            q.schedule(t, Event::CloudFetch { post, host: user(post) });
        }
        let mut posts = Vec::new();
        while let Some(ev) = q.pop() {
            match ev.event {
                Event::CloudFetch { post, .. } => posts.push(post),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(posts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn session_events_split_wrapping_windows_at_midnight() {
        let schedules = OnlineSchedules::new(vec![
            DaySchedule::window_wrapping(80_000, 10_000).expect("valid window"),
        ]);
        let events = session_events_for_day(&schedules, 0);
        // The wrapping window canonicalizes to [0, 3600) and [80000, 86400):
        // Start@0, End@3600, Start@80000, End@86400 (= next-day 00:00).
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0].event, Event::SessionStart { .. }));
        assert_eq!(events[0].at, Timestamp::new(0));
        assert!(matches!(events[3].event, Event::SessionEnd { .. }));
        assert_eq!(events[3].at, Timestamp::from_day_and_offset(1, 0));
    }

    #[test]
    fn pop_before_stops_at_the_limit_and_resumes() {
        let mut q = EventQueue::new();
        for post in 0..6u32 {
            q.schedule(Timestamp::new(u64::from(post) * 10), Event::CloudFetch {
                post,
                host: user(post),
            });
        }
        // A limit at t=30 with the highest payload class: events at
        // t=0,10,20 drain, the t=30 CloudFetch (class 3 < ProfileRead's 5
        // but same time) also orders before the limit.
        let limit = ScheduledEvent::new(Timestamp::new(30), 0, Event::ProfileRead {
            owner: user(0),
            reader: user(1),
        });
        let mut drained = Vec::new();
        while let Some(ev) = q.pop_before(&limit) {
            drained.push(ev.at.as_secs());
        }
        assert_eq!(drained, vec![0, 10, 20, 30]);
        // The queue is untouched past the limit; a full pop resumes.
        assert_eq!(q.pop().expect("t=40 still queued").at, Timestamp::new(40));
        assert_eq!(q.pop().expect("t=50 still queued").at, Timestamp::new(50));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_before_feeds_sessions_only_up_to_the_limit() {
        let schedules = OnlineSchedules::new(vec![
            DaySchedule::window_wrapping(100, 200).expect("valid window"),
        ]);
        let mut q = EventQueue::new().with_sessions(&schedules, 0..5);
        // A limit on day 1 drains day 0's boundaries and day 1's start,
        // but must not generate days 2..5.
        let limit = ScheduledEvent::new(
            Timestamp::from_day_and_offset(1, 150),
            0,
            Event::ProfileRead { owner: user(0), reader: user(0) },
        );
        let mut drained = Vec::new();
        while let Some(ev) = q.pop_before(&limit) {
            drained.push(ev.at);
        }
        assert_eq!(drained, vec![
            Timestamp::from_day_and_offset(0, 100),
            Timestamp::from_day_and_offset(0, 300),
            Timestamp::from_day_and_offset(1, 100),
        ]);
        // Draining the rest still yields the remaining days in order.
        let mut rest = Vec::new();
        while let Some(ev) = q.pop() {
            rest.push(ev.at);
        }
        assert_eq!(rest.len(), 7, "day 1's end plus days 2..5");
        assert_eq!(rest[0], Timestamp::from_day_and_offset(1, 300));
    }

    #[test]
    fn interleaved_pop_before_matches_batch_pop_order() {
        let schedules = OnlineSchedules::new(vec![
            DaySchedule::window_wrapping(50, 400).expect("valid window"),
            DaySchedule::window_wrapping(200, 100).expect("valid window"),
        ]);
        let posts: Vec<ScheduledEvent> = (0..4u32)
            .map(|d| {
                ScheduledEvent::new(
                    Timestamp::from_day_and_offset(u64::from(d), 250),
                    u64::from(d),
                    Event::Post { activity: d },
                )
            })
            .collect();

        let mut batch = EventQueue::new().with_sessions(&schedules, 0..4);
        for post in &posts {
            batch.schedule(post.at, post.event);
        }
        let mut expect = Vec::new();
        while let Some(ev) = batch.pop() {
            expect.push((ev.at, ev.event));
        }

        // Stepped mode: the posts arrive from outside, everything else
        // drains via pop_before keyed on each one.
        let mut live = EventQueue::new().with_sessions(&schedules, 0..4);
        let mut got = Vec::new();
        for post in &posts {
            while let Some(ev) = live.pop_before(post) {
                got.push((ev.at, ev.event));
            }
            got.push((post.at, post.event));
        }
        while let Some(ev) = live.pop() {
            got.push((ev.at, ev.event));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn lazy_feeder_merges_with_the_heap_in_global_order() {
        let schedules = OnlineSchedules::new(vec![
            DaySchedule::window_wrapping(100, 200).expect("valid window"),
        ]);
        let mut q = EventQueue::new().with_sessions(&schedules, 0..3);
        for d in 0..3u32 {
            q.schedule(
                Timestamp::from_day_and_offset(u64::from(d), 150),
                Event::Post { activity: d },
            );
        }
        let mut order = Vec::new();
        let mut last: Option<ScheduledEvent> = None;
        while let Some(ev) = q.pop() {
            if let Some(prev) = last {
                assert!(prev <= ev, "events popped out of order");
            }
            last = Some(ev);
            order.push(ev.event);
        }
        // Per day: Start@100, Post@150, End@300 — three days' worth.
        assert_eq!(order.len(), 9);
        for day in 0..3 {
            assert!(matches!(order[day * 3], Event::SessionStart { .. }));
            assert!(matches!(order[day * 3 + 1], Event::Post { .. }));
            assert!(matches!(order[day * 3 + 2], Event::SessionEnd { .. }));
        }
    }
}
