//! The load generator: one thread, one connection, an in-process
//! daemon (`Server::bind`/`run`: an accept thread that sleeps plus one
//! session thread), so generator and session are the only two busy
//! threads — never more than the sandbox's two vCPUs.
//!
//! * Closed loop: [`WINDOW`] requests outstanding. A lock-step driver
//!   lets the session thread sleep between requests, and what it then
//!   measures is the hypervisor's cross-vCPU wake-up (20–28k req/s
//!   against 110–190k once the session stays runnable — README.md).
//! * Open loop: seeded Poisson arrivals at a fixed offered rate on a
//!   non-blocking socket; latency runs from the *due* time, so a stall
//!   is charged to every request that came due during it.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dosn_daemon::codec::{decode_response, encode_request};
use dosn_daemon::protocol::ReportParts;
use dosn_daemon::{
    Request, Response, Server, ServerConfig, ShutdownFlag, SimSpec, PROTOCOL_VERSION,
};

use crate::stats::{quantile, windowed_quantile};
use crate::stream::RequestStream;

/// Requests outstanding in the closed loop.
pub const WINDOW: usize = 64;

/// Windows the latency samples are split into (see
/// [`windowed_quantile`]).
pub const LATENCY_WINDOWS: usize = 20;

/// A generator-loop iteration longer than this is time the host took
/// away (the loop's own work is microseconds).
const GAP_NS: u64 = 1_000_000;

/// A send more than this past its due time counts as late.
const LATE_NS: u64 = 1_000_000;

/// Latency windows that may have more than 1 % of their sends late
/// before an open-loop run stops counting. One host stall of 100 ms
/// makes 1 % of a whole 10 s run late, and about one run in three
/// catches one here; the reported latencies are medians over the
/// windows, which a stall confined to a few of them does not move.
const MAX_DISTURBED_WINDOWS: usize = LATENCY_WINDOWS / 4;

/// How long a blocking read waits for the daemon before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Time a spinning loop lost to the host: the sum of its iterations
/// that took longer than [`GAP_NS`].
#[derive(Debug, Default)]
struct Gaps {
    last_ns: u64,
    lost_ns: u64,
}

impl Gaps {
    fn tick(&mut self, now_ns: u64) {
        if now_ns - self.last_ns > GAP_NS {
            self.lost_ns += now_ns - self.last_ns;
        }
        self.last_ns = now_ns;
    }
}

/// An in-process daemon on its own socket.
#[derive(Debug)]
pub struct Daemon {
    socket: PathBuf,
    flag: ShutdownFlag,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Binds `socket` (journaling into `store` when given) and serves.
    pub fn start(socket: &Path, store: Option<PathBuf>) -> io::Result<Daemon> {
        let config = ServerConfig {
            socket: socket.to_path_buf(),
            pidfile: None,
            store,
        };
        let server = Server::bind(&config)?;
        let flag = ShutdownFlag::new();
        let run_flag = flag.clone();
        let thread = std::thread::spawn(move || server.run(&run_flag));
        Ok(Daemon {
            socket: socket.to_path_buf(),
            flag,
            thread,
        })
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Trips the shutdown flag and waits for the accept loop and every
    /// session to end.
    pub fn stop(self) -> Result<(), String> {
        self.flag.request();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with error: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// Reassembles length-prefixed frames from arbitrary read boundaries.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    head: usize,
}

impl FrameBuf {
    pub fn push(&mut self, bytes: &[u8]) {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 64 * 1024 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, if one has fully arrived.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        let rest = &self.buf[self.head..];
        let header: [u8; 4] = rest.get(..4)?.try_into().ok()?;
        let len = u32::from_le_bytes(header) as usize;
        let end = self.head + 4 + len;
        if end > self.buf.len() {
            return None;
        }
        let payload = &self.buf[self.head + 4..end];
        self.head = end;
        Some(payload)
    }
}

/// A handshaken connection with a session opened on it.
#[derive(Debug)]
pub struct Connection {
    stream: UnixStream,
}

impl Connection {
    /// Connects and exchanges `Hello`/`Welcome`.
    pub fn hello(socket: &Path) -> Result<Connection, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut conn = Connection { stream };
        match conn.exchange(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Welcome { .. } => Ok(conn),
            other => Err(format!("expected Welcome, got {other:?}")),
        }
    }

    fn exchange(&mut self, request: &Request) -> Result<Response, String> {
        let payload = encode_request(request);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut header = [0u8; 4];
        self.stream
            .read_exact(&mut header)
            .map_err(|e| format!("receive: {e}"))?;
        let mut reply = vec![0u8; u32::from_le_bytes(header) as usize];
        self.stream
            .read_exact(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        decode_response(&reply).map_err(|e| format!("malformed reply: {e}"))
    }

    /// `Open` → `Opened`; returns the requests the daemon recovered from
    /// its journal, after checking the daemon synthesized the same trace.
    pub fn open(&mut self, spec: &SimSpec, stream: &RequestStream) -> Result<u64, String> {
        match self.exchange(&Request::Open(*spec))? {
            Response::Opened {
                users,
                posts,
                recovered,
                ..
            } => {
                if users as usize != stream.dataset.user_count() || u64::from(posts) != stream.posts
                {
                    return Err(format!(
                        "daemon synthesized {users} users/{posts} posts, driver has {}/{}",
                        stream.dataset.user_count(),
                        stream.posts
                    ));
                }
                Ok(recovered)
            }
            other => Err(format!("expected Opened, got {other:?}")),
        }
    }

    /// `Finish` → the daemon's folded report.
    pub fn finish(&mut self) -> Result<ReportParts, String> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        match self.exchange(&Request::Finish)? {
            Response::Report(parts) => Ok(parts),
            other => Err(format!("expected Report, got {other:?}")),
        }
    }
}

/// What one pass over the request stream measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Requests written to the socket.
    pub sent: u64,
    /// `PostAck`/`ReadAck` replies received.
    pub acked: u64,
    /// `Response::Error` replies, undecodable replies and replies that
    /// never came.
    pub failed: u64,
    /// First send (closed loop) or first due time (open loop) → last ack.
    pub wall_s: f64,
    /// Latency per request in send order, µs: ack − send (closed loop)
    /// or ack − due (open loop).
    pub latency_us: Vec<f64>,
    /// Send − due per request, µs (open loop only).
    pub lateness_us: Vec<f64>,
    /// Largest number of requests outstanding.
    pub backlog_max: u64,
    /// Mean requests outstanding per latency window (open loop only).
    pub backlog_by_window: Vec<f64>,
    /// Share of the wall the generator loop lost to iterations longer
    /// than a millisecond (open loop only; the closed loop blocks).
    pub gap_frac: f64,
    /// Share of all sends more than [`LATE_NS`] past their due time, and
    /// how many latency windows had more than 1 % of theirs so (open
    /// loop only).
    pub late_frac: f64,
    pub disturbed_windows: usize,
    /// Why an open-loop run does not count, if it does not.
    pub invalid: Option<String>,
}

impl Drive {
    pub fn req_per_s(&self) -> f64 {
        self.acked as f64 / self.wall_s
    }

    pub fn lat_quantile_us(&self, q: f64) -> f64 {
        windowed_quantile(&self.latency_us, LATENCY_WINDOWS, q)
    }

    pub fn lat_max_ms(&self) -> f64 {
        self.latency_us.iter().copied().fold(0.0, f64::max) / 1e3
    }
}

/// Counts one reply payload as an ack or a failure.
fn tally(payload: &[u8], drive: &mut Drive) {
    match decode_response(payload) {
        Ok(Response::PostAck { .. } | Response::ReadAck { .. }) => drive.acked += 1,
        _ => drive.failed += 1,
    }
}

/// Closed loop: keeps [`WINDOW`] requests outstanding until every
/// request is acknowledged (or the daemon goes away).
pub fn closed_loop(conn: &mut Connection, stream: &RequestStream) -> Drive {
    let total = stream.len();
    let mut drive = Drive::default();
    let mut sent_at = vec![0u64; total];
    drive.latency_us = Vec::with_capacity(total);
    let mut frames = FrameBuf::default();
    let mut buf = vec![0u8; 64 * 1024];
    let (mut sent, mut answered) = (0usize, 0usize);
    let clock = Instant::now();
    while answered < total {
        let target = total.min(answered + WINDOW);
        if sent < target {
            let now = clock.elapsed().as_nanos() as u64;
            if conn
                .stream
                .write_all(&stream.frames[stream.offsets[sent]..stream.offsets[target]])
                .is_err()
            {
                break;
            }
            sent_at[sent..target].fill(now);
            sent = target;
            drive.backlog_max = drive.backlog_max.max((sent - answered) as u64);
        }
        let Ok(n @ 1..) = conn.stream.read(&mut buf) else {
            break;
        };
        let now = clock.elapsed().as_nanos() as u64;
        frames.push(&buf[..n]);
        while let Some(payload) = frames.next_frame() {
            tally(payload, &mut drive);
            drive
                .latency_us
                .push((now - sent_at[answered]) as f64 / 1e3);
            answered += 1;
        }
    }
    drive.wall_s = clock.elapsed().as_secs_f64();
    drive.sent = sent as u64;
    drive.failed += (total - answered) as u64;
    drive
}

/// Open loop: sends request `i` when `due_ns[i]` has passed, whether or
/// not earlier replies have arrived, and never blocks.
pub fn open_loop(conn: &mut Connection, stream: &RequestStream, due_ns: &[u64]) -> Drive {
    let total = stream.len();
    assert_eq!(due_ns.len(), total, "one due time per request");
    let mut drive = Drive::default();
    if conn.stream.set_nonblocking(true).is_err() {
        drive.failed = total as u64;
        return drive;
    }
    drive.latency_us = Vec::with_capacity(total);
    drive.lateness_us = Vec::with_capacity(total);
    let mut frames = FrameBuf::default();
    let mut buf = vec![0u8; 64 * 1024];
    let (mut due, mut sent, mut answered, mut written) = (0usize, 0usize, 0usize, 0usize);
    let mut gaps = Gaps::default();
    let per_window = total.div_ceil(LATENCY_WINDOWS).max(1);
    let mut late_by_window = [0usize; LATENCY_WINDOWS];
    let (mut backlog_sum, mut backlog_samples) = (0u64, 0u64);
    let clock = Instant::now();
    let mut last_progress = 0u64;
    while answered < total {
        let now = clock.elapsed().as_nanos() as u64;
        gaps.tick(now);
        while due < total && due_ns[due] <= now {
            due += 1;
        }
        if written < stream.offsets[due] {
            match conn
                .stream
                .write(&stream.frames[written..stream.offsets[due]])
            {
                Ok(n) => {
                    written += n;
                    while sent < total && stream.offsets[sent + 1] <= written {
                        let lateness = now - due_ns[sent];
                        late_by_window[sent / per_window] += usize::from(lateness > LATE_NS);
                        drive.lateness_us.push(lateness as f64 / 1e3);
                        sent += 1;
                    }
                    last_progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let now = clock.elapsed().as_nanos() as u64;
                frames.push(&buf[..n]);
                while let Some(payload) = frames.next_frame() {
                    tally(payload, &mut drive);
                    drive.latency_us.push((now - due_ns[answered]) as f64 / 1e3);
                    answered += 1;
                    if answered % per_window == 0 || answered == total {
                        drive
                            .backlog_by_window
                            .push(backlog_sum as f64 / backlog_samples.max(1) as f64);
                        (backlog_sum, backlog_samples) = (0, 0);
                    }
                }
                last_progress = now;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => break,
        }
        let backlog = (sent - answered) as u64;
        drive.backlog_max = drive.backlog_max.max(backlog);
        backlog_sum += backlog;
        backlog_samples += 1;
        if now.saturating_sub(last_progress) > READ_TIMEOUT.as_nanos() as u64 {
            break;
        }
    }
    let end_ns = clock.elapsed().as_nanos() as u64;
    drive.wall_s = (end_ns - due_ns.first().copied().unwrap_or(0)) as f64 / 1e9;
    drive.sent = sent as u64;
    drive.failed += (total - answered) as u64;
    drive.gap_frac = gaps.lost_ns as f64 / end_ns.max(1) as f64;

    // The generator's self-check: a run whose load was not the load
    // asked for does not count.
    let offered = total as f64 / (due_ns.last().copied().unwrap_or(1).max(1) as f64 / 1e9);
    let typical_backlog = quantile(&drive.backlog_by_window, 0.5);
    let last_backlog = drive.backlog_by_window.last().copied().unwrap_or(0.0);
    let disturbed = late_by_window
        .iter()
        .filter(|&&late| late * 100 > per_window)
        .count();
    drive.late_frac = late_by_window.iter().sum::<usize>() as f64 / total.max(1) as f64;
    drive.disturbed_windows = disturbed;
    drive.invalid = if disturbed > MAX_DISTURBED_WINDOWS {
        Some(format!("{disturbed} of {LATENCY_WINDOWS} windows had more than 1% of their sends over 1 ms late"))
    } else if last_backlog > 4.0 * typical_backlog + WINDOW as f64 {
        Some(format!("backlog still growing in the last window ({last_backlog:.0} against {typical_backlog:.0})"))
    } else if drive.req_per_s() < 0.99 * offered {
        Some(format!(
            "achieved {:.0} req/s of {offered:.0} offered",
            drive.req_per_s()
        ))
    } else {
        None
    };
    drive
}

/// Spins for `for_ms` and returns the share of that time lost to loop
/// iterations longer than a millisecond — how much the host took away.
pub fn host_gap_frac(for_ms: u64) -> f64 {
    let clock = Instant::now();
    let mut gaps = Gaps::default();
    loop {
        let now = clock.elapsed().as_nanos() as u64;
        gaps.tick(now);
        if now > for_ms * 1_000_000 {
            return gaps.lost_ns as f64 / now as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Spans;
    use crate::stats::poisson_due_ns;
    use dosn_core::{ModelKind, PolicyKind};
    use dosn_daemon::DatasetFamily;
    use dosn_node::{DisseminationMode, SystemSim};

    /// The request stream is rebuilt here from public pieces, not taken
    /// from the program's private `request_stream`; this pins the
    /// rebuild: both loops drive a 200-user spec to the batch report,
    /// and the program's own lock-step driver sends as many requests
    /// and gets the same report.
    #[test]
    fn reconstructed_stream_drives_to_the_batch_report() {
        let spec = SimSpec {
            family: DatasetFamily::Facebook,
            users: 200,
            dataset_seed: 5,
            config_seed: 5,
            model: ModelKind::sporadic_default(),
            policy: PolicyKind::MaxAv,
            replication_degree: 4,
            unconrep: false,
            dissemination: DisseminationMode::FriendToFriend,
        };
        let stream = crate::stream::build(&spec, 0.1, &mut Spans::new(false));
        assert!(stream.posts > 0 && stream.reads > 0);
        assert_eq!(stream.offsets.len(), stream.len() + 1);
        let batch = SystemSim::new(&stream.dataset)
            .reads_per_friend_day(0.1)
            .run(&spec.study_config());
        let expected = ReportParts::from_report(&batch);
        assert_eq!(expected.posts_total, stream.posts);
        assert_eq!(expected.reads_total, stream.reads);

        let dir = PathBuf::from(format!("target/ledger/test-drive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work dir");
        let daemon = Daemon::start(&dir.join("d.sock"), None).expect("bind");

        let mut conn = Connection::hello(daemon.socket()).expect("hello");
        assert_eq!(conn.open(&spec, &stream), Ok(0));
        let closed = closed_loop(&mut conn, &stream);
        assert_eq!((closed.acked, closed.failed), (stream.len() as u64, 0));
        assert_eq!(closed.latency_us.len(), stream.len());
        assert!(closed.backlog_max <= WINDOW as u64);
        assert_eq!(conn.finish(), Ok(expected));

        // The same connection opens again; now the arrivals do not wait.
        assert_eq!(conn.open(&spec, &stream), Ok(0));
        let due = poisson_due_ns(5, 20_000.0, stream.len());
        let open = open_loop(&mut conn, &stream, &due);
        assert_eq!(
            (open.sent, open.acked, open.failed),
            (stream.len() as u64, stream.len() as u64, 0)
        );
        assert_eq!(open.lateness_us.len(), stream.len());
        assert!(
            open.wall_s >= (due[due.len() - 1] - due[0]) as f64 / 1e9,
            "no reply precedes its due time"
        );
        assert_eq!(conn.finish(), Ok(expected));
        drop(conn);

        let own =
            dosn_daemon::drive(daemon.socket(), &spec, 0.1).expect("the program's own driver");
        assert_eq!(own.requests, stream.len() as u64);
        assert_eq!(ReportParts::from_report(&own.report), expected);
        daemon.stop().expect("clean stop");
        std::fs::remove_dir_all(&dir).expect("work dir removed");
    }

    #[test]
    fn frames_reassemble_across_any_split() {
        let payloads: [&[u8]; 4] = [b"\x02\x01", b"", b"\x07hello world", &[9u8; 300]];
        let mut wire = Vec::new();
        for p in payloads {
            wire.extend_from_slice(&(p.len() as u32).to_le_bytes());
            wire.extend_from_slice(p);
        }
        // Every two-way split, and a byte-at-a-time feed.
        for cut in 0..=wire.len() {
            let mut frames = FrameBuf::default();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for part in [&wire[..cut], &wire[cut..]] {
                frames.push(part);
                while let Some(p) = frames.next_frame() {
                    got.push(p.to_vec());
                }
            }
            assert_eq!(got, payloads.map(<[u8]>::to_vec).to_vec(), "cut at {cut}");
        }
        let mut frames = FrameBuf::default();
        let mut got = 0;
        for byte in &wire {
            frames.push(std::slice::from_ref(byte));
            while frames.next_frame().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, payloads.len());
        assert!(frames.next_frame().is_none());
    }
}
