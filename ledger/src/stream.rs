//! The driver-side request stream, rebuilt from public API only.
//!
//! `dosn_daemon::client` keeps `request_stream`/`event_request`
//! private, and this benchmark may not change the program, so the same
//! stream is assembled here from the pieces the daemon crate exports:
//! synthesize the spec's dataset, draw the schedules and the profile
//! reads exactly as the batch scheduler does, merge posts and reads by
//! queue key, and encode each as its wire frame. The unit test pins the
//! reconstruction: a drive of this stream yields the batch report.

use dosn_daemon::codec::encode_request;
use dosn_daemon::{Request, SimSpec};
use dosn_node::{draw_profile_reads, model_schedules, trace_span_days, Event, ScheduledEvent};
use dosn_socialgraph::UserId;
use dosn_trace::Dataset;

use crate::spans::Spans;

/// Everything the generator needs to replay one spec as live traffic.
#[derive(Debug)]
pub struct RequestStream {
    pub dataset: Dataset,
    /// The merged post/read events in send order.
    pub events: Vec<ScheduledEvent>,
    /// The per-user chain each event belongs to (the profile owner) —
    /// what the session hands the journal with each append.
    pub chains: Vec<UserId>,
    /// Every request as a length-prefixed frame, back to back.
    pub frames: Vec<u8>,
    /// `frames[offsets[i]..offsets[i + 1]]` is request `i`.
    pub offsets: Vec<usize>,
    pub posts: u64,
    pub reads: u64,
}

impl RequestStream {
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// The wire request of one stream event.
pub fn event_request(ev: &ScheduledEvent, dataset: &Dataset) -> Request {
    match ev.event {
        Event::Post { activity } => {
            let a = dataset.activities()[activity as usize];
            Request::Post {
                index: activity,
                creator: a.creator().as_u32(),
                receiver: a.receiver().as_u32(),
                at_secs: a.timestamp().as_secs(),
            }
        }
        Event::ProfileRead { owner, reader } => Request::Read {
            seq: ev.seq(),
            owner: owner.as_u32(),
            reader: reader.as_u32(),
            at_secs: ev.at.as_secs(),
        },
        other => unreachable!("the stream holds only posts and reads, not {other:?}"),
    }
}

/// Builds the stream for `spec` at `reads_per_friend_day`, timing each
/// layer call it makes.
pub fn build(spec: &SimSpec, reads_per_friend_day: f64, spans: &mut Spans) -> RequestStream {
    let (dataset, _) = spans.time("SimSpec::synthesize", "trace", || {
        spec.synthesize().expect("the ledger's specs are valid")
    });
    let config = spec.study_config();
    let (schedules, _) = spans.time("model_schedules", "onlinetime", || {
        model_schedules(&dataset, spec.model, &config)
    });
    let span_days = trace_span_days(dataset.activities());
    let started = spans.begin("draw_profile_reads+merge", "node");
    let mut events: Vec<ScheduledEvent> = dataset
        .activities()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            ScheduledEvent::new(a.timestamp(), i as u64, Event::Post { activity: i as u32 })
        })
        .collect();
    let posts = events.len() as u64;
    events.extend(draw_profile_reads(
        &dataset,
        &schedules,
        span_days,
        reads_per_friend_day,
        &config,
    ));
    events.sort_unstable();
    spans.end(started);

    let started = spans.begin("encode_request", "daemon");
    let mut frames = Vec::with_capacity(events.len() * 32);
    let mut offsets = Vec::with_capacity(events.len() + 1);
    let mut chains = Vec::with_capacity(events.len());
    for ev in &events {
        let request = event_request(ev, &dataset);
        chains.push(match request {
            Request::Post { receiver, .. } => UserId::new(receiver),
            Request::Read { owner, .. } => UserId::new(owner),
            _ => unreachable!("event_request yields posts and reads"),
        });
        let payload = encode_request(&request);
        offsets.push(frames.len());
        frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frames.extend_from_slice(&payload);
    }
    offsets.push(frames.len());
    spans.end(started);

    let reads = events.len() as u64 - posts;
    RequestStream {
        dataset,
        events,
        chains,
        frames,
        offsets,
        posts,
        reads,
    }
}
