//! The typed client and the trace driver.
//!
//! [`DaemonClient`] wraps one connection: handshake on connect, then
//! strict request/response pairs. [`drive`] is the full driver loop
//! `dosn drive` and the daemon benchmark share — it rebuilds the
//! driver-side view of the simulation (dataset, schedules, the drawn
//! read schedule), replays the merged post/read stream as live
//! requests in batch scheduler order, and measures per-request
//! round-trip latency while collecting the daemon's final report.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;

use dosn_core::timing::Stopwatch;
use dosn_node::{model_schedules, request_stream, trace_span_days, ScheduledEvent, SystemReport};
use dosn_trace::Dataset;

use crate::codec::{decode_response, encode_request, read_frame, write_frame, WireError};
use crate::protocol::{Request, Response, SimSpec, PROTOCOL_VERSION};

/// A failed client operation.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The daemon sent a malformed frame.
    Wire(WireError),
    /// The daemon refused the request.
    Refused(String),
    /// The daemon answered with an unexpected frame, or the spec could
    /// not be realized locally.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon connection failed: {e}"),
            ClientError::Wire(e) => write!(f, "daemon sent a malformed frame: {e}"),
            ClientError::Refused(msg) => write!(f, "daemon refused: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One handshaken connection to a running daemon.
#[derive(Debug)]
pub struct DaemonClient {
    stream: UnixStream,
}

impl DaemonClient {
    /// Connects and performs the version handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, or a daemon speaking another version.
    pub fn connect(socket: &Path) -> Result<DaemonClient, ClientError> {
        let stream = UnixStream::connect(socket)?;
        let mut client = DaemonClient { stream };
        match client.request(&Request::Hello { version: PROTOCOL_VERSION })? {
            Response::Welcome { .. } => Ok(client),
            other => Err(unexpected("Welcome", &other)),
        }
    }

    /// One request/response exchange.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed frames, or a connection closed mid-pair.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Protocol("daemon closed the connection mid-exchange".to_string())
        })?;
        Ok(decode_response(&payload)?)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any exchange failure, or a non-`Pong` reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Asks the daemon to shut down gracefully, consuming the client.
    ///
    /// # Errors
    ///
    /// Any exchange failure, or a reply other than `ShuttingDown`.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error { message } => ClientError::Refused(message.clone()),
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}

/// Round-trip latency quantiles of one drive, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median round trip.
    pub p50_ms: f64,
    /// 99th-percentile round trip.
    pub p99_ms: f64,
    /// Worst round trip.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Quantiles of a latency sample, given in seconds.
    ///
    /// Returns all-zero stats for an empty sample (a trace with no
    /// posts and no reads).
    pub fn from_latencies_secs(latencies: &mut [f64]) -> LatencyStats {
        if latencies.is_empty() {
            return LatencyStats { p50_ms: 0.0, p99_ms: 0.0, max_ms: 0.0 };
        }
        latencies.sort_unstable_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = (q * (latencies.len() - 1) as f64).round() as usize;
            let secs = latencies
                .get(pos.min(latencies.len() - 1))
                .copied()
                .unwrap_or(0.0);
            secs * 1_000.0
        };
        LatencyStats { p50_ms: at(0.5), p99_ms: at(0.99), max_ms: at(1.0) }
    }
}

/// Everything one drive produced: the daemon's report plus the
/// client-side service measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveOutcome {
    /// The daemon's folded report — byte-identical to the batch run's.
    pub report: SystemReport,
    /// Requests the daemon had already applied from a recovered journal;
    /// the driver skipped this prefix of its request stream.
    pub recovered: u64,
    /// Post/read requests issued (excludes handshake and `Finish`).
    pub requests: u64,
    /// Post requests the daemon acknowledged as delivered.
    pub posts_delivered_live: u64,
    /// Read requests the daemon acknowledged as served.
    pub reads_served_live: u64,
    /// Wall time of the request stream, seconds.
    pub elapsed_secs: f64,
    /// Sustained request throughput.
    pub req_per_s: f64,
    /// Round-trip latency quantiles.
    pub latency: LatencyStats,
}

/// Replays the spec'd trace as live traffic against the daemon on
/// `socket`, returning the daemon's report and the measured service
/// quality. `reads_per_friend_day` parameterizes the drawn read
/// schedule exactly as the batch facade's knob does.
///
/// # Errors
///
/// Spec realization failures, connection/protocol failures, or any
/// request the daemon refuses.
pub fn drive(
    socket: &Path,
    spec: &SimSpec,
    reads_per_friend_day: f64,
) -> Result<DriveOutcome, ClientError> {
    let (mut client, mut sent) = send_stream(socket, spec, reads_per_friend_day, u64::MAX)?;
    let report = match client.request(&Request::Finish)? {
        Response::Report(parts) => parts.into_report(),
        other => return Err(unexpected("Report", &other)),
    };
    let requests = sent.latencies.len() as u64;
    let req_per_s =
        if sent.elapsed_secs > 0.0 { requests as f64 / sent.elapsed_secs } else { 0.0 };
    Ok(DriveOutcome {
        report,
        recovered: sent.recovered,
        requests,
        posts_delivered_live: sent.posts_delivered,
        reads_served_live: sent.reads_served,
        elapsed_secs: sent.elapsed_secs,
        req_per_s,
        latency: LatencyStats::from_latencies_secs(&mut sent.latencies),
    })
}

/// Sends at most `max_requests` requests past any journal-recovered
/// prefix, then drops the connection *without* `Finish` — an
/// interrupted driver whose session a later [`drive`] resumes from the
/// daemon's journal. Returns the stream position reached (recovered
/// prefix plus requests sent), so callers know where the journal ends.
///
/// # Errors
///
/// Spec realization failures, connection/protocol failures, or any
/// request the daemon refuses.
pub fn drive_prefix(
    socket: &Path,
    spec: &SimSpec,
    reads_per_friend_day: f64,
    max_requests: u64,
) -> Result<u64, ClientError> {
    let (_client, sent) = send_stream(socket, spec, reads_per_friend_day, max_requests)?;
    // Dropping the client here abandons the session mid-stream; with a
    // journaling daemon, everything acknowledged above is durable.
    Ok(sent.recovered + sent.latencies.len() as u64)
}

/// What the request stream of one drive produced, before any `Finish`.
struct Sent {
    recovered: u64,
    posts_delivered: u64,
    reads_served: u64,
    elapsed_secs: f64,
    /// One round trip per acknowledged request, seconds.
    latencies: Vec<f64>,
}

/// The body both drives share: realize the stream, open the session,
/// skip the prefix the daemon recovered from its journal, and send at
/// most `max_requests` of the remainder, one round trip each.
fn send_stream(
    socket: &Path,
    spec: &SimSpec,
    reads_per_friend_day: f64,
    max_requests: u64,
) -> Result<(DaemonClient, Sent), ClientError> {
    let (dataset, stream) = driver_stream(spec, reads_per_friend_day)?;
    let mut client = DaemonClient::connect(socket)?;
    let recovered = open_session(&mut client, spec, &dataset)?;
    let Some(remainder) = stream.get(recovered as usize..) else {
        return Err(ClientError::Protocol(format!(
            "daemon recovered {recovered} requests from its journal, but the driver's \
             stream holds only {} — spec or journal drift",
            stream.len()
        )));
    };
    let take = max_requests.min(remainder.len() as u64) as usize;
    let mut sent = Sent {
        recovered,
        posts_delivered: 0,
        reads_served: 0,
        elapsed_secs: 0.0,
        latencies: Vec::with_capacity(take),
    };
    let total = Stopwatch::start();
    for ev in remainder.iter().take(take) {
        let request = Request::from_event(ev, dataset.activities()).map_err(ClientError::Protocol)?;
        let rtt = Stopwatch::start();
        let response = client.request(&request)?;
        sent.latencies.push(rtt.elapsed_secs());
        match response {
            Response::PostAck { delivered } => sent.posts_delivered += u64::from(delivered),
            Response::ReadAck { served } => sent.reads_served += u64::from(served),
            other => return Err(unexpected("PostAck/ReadAck", &other)),
        }
    }
    sent.elapsed_secs = total.elapsed_secs();
    Ok((client, sent))
}

/// Rebuilds the driver-side view of `spec`: the dataset plus the batch
/// run's own request stream, whose keys ride along with each request so
/// the daemon reconstructs the identical total order.
fn driver_stream(
    spec: &SimSpec,
    reads_per_friend_day: f64,
) -> Result<(Dataset, Vec<ScheduledEvent>), ClientError> {
    let dataset = spec
        .synthesize()
        .map_err(|e| ClientError::Protocol(format!("cannot realize spec: {e}")))?;
    let config = spec.study_config();
    let schedules = model_schedules(&dataset, spec.model, &config);
    let span_days = trace_span_days(dataset.activities());
    let stream =
        request_stream(&dataset, &schedules, span_days, reads_per_friend_day.max(0.0), &config);
    Ok((dataset, stream))
}

/// Opens the session, cross-checks the daemon's synthesized trace
/// against the driver's, and returns how many requests the daemon
/// already recovered from its journal.
fn open_session(
    client: &mut DaemonClient,
    spec: &SimSpec,
    dataset: &Dataset,
) -> Result<u64, ClientError> {
    match client.request(&Request::Open(*spec))? {
        Response::Opened { users, posts, recovered, .. } => {
            let local_users = dataset.user_count().min(u32::MAX as usize) as u32;
            let local_posts = dataset.activities().len().min(u32::MAX as usize) as u32;
            if users != local_users || posts != local_posts {
                return Err(ClientError::Protocol(format!(
                    "daemon synthesized {users} users/{posts} posts, driver has \
                     {local_users}/{local_posts} — spec drift"
                )));
            }
            Ok(recovered)
        }
        other => Err(unexpected("Opened", &other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_pick_expected_ranks() {
        // 0.001 s .. 0.100 s in 1 ms steps.
        let mut sample: Vec<f64> = (1..=100).map(|i| f64::from(i) / 1_000.0).collect();
        let stats = LatencyStats::from_latencies_secs(&mut sample);
        assert!((stats.p50_ms - 51.0).abs() < 1e-9, "{stats:?}");
        assert!((stats.p99_ms - 99.0).abs() < 1e-9, "{stats:?}");
        assert!((stats.max_ms - 100.0).abs() < 1e-9, "{stats:?}");
        let empty = LatencyStats::from_latencies_secs(&mut []);
        assert_eq!(empty.p50_ms, 0.0);
        assert_eq!(empty.max_ms, 0.0);
    }
}
