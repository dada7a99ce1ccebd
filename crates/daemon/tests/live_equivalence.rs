//! Pins the acceptance criterion: `drive` against a live daemon
//! reproduces the exact delivery/staleness aggregates the batch
//! `system` path computes for the same seed — bit for bit, including
//! the float accumulators inside every summary.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use dosn_core::{ModelKind, PolicyKind};
use dosn_daemon::codec::{decode_response, encode_request, frame_into, read_frame};
use dosn_daemon::{
    drive, DaemonClient, DatasetFamily, Request, Response, Server, ServerConfig, ShutdownFlag,
    SimSpec, PROTOCOL_VERSION,
};
use dosn_node::{
    model_schedules, request_stream, trace_span_days, DisseminationMode, ScheduledEvent,
    SystemSim,
};

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dosn-eq-{tag}-{}.sock", std::process::id()))
}

/// Starts an in-process daemon on a fresh socket, journaling to `store`
/// if given; returns the socket path, the shutdown flag, and the join
/// handle.
fn start_daemon(
    tag: &str,
    store: Option<&Path>,
) -> (PathBuf, ShutdownFlag, std::thread::JoinHandle<std::io::Result<()>>) {
    let socket = temp_socket(tag);
    let _ = std::fs::remove_file(&socket);
    let config = ServerConfig {
        socket: socket.clone(),
        pidfile: None,
        store: store.map(Path::to_path_buf),
    };
    let server = Server::bind(&config).expect("bind test socket");
    let flag = ShutdownFlag::new();
    let run_flag = flag.clone();
    let handle = std::thread::spawn(move || server.run(&run_flag));
    (socket, flag, handle)
}

/// The driver's stream for `spec`: the scheduler events and the wire
/// requests that carry them.
fn stream_of(spec: &SimSpec, reads: f64) -> (Vec<ScheduledEvent>, Vec<Request>) {
    let ds = spec.synthesize().expect("spec synthesizes");
    let config = spec.study_config();
    let schedules = model_schedules(&ds, spec.model, &config);
    let span_days = trace_span_days(ds.activities());
    let events = request_stream(&ds, &schedules, span_days, reads, &config);
    let requests = events
        .iter()
        .map(|ev| Request::from_event(ev, ds.activities()).expect("stream event converts"))
        .collect();
    (events, requests)
}

fn facebook_spec() -> SimSpec {
    SimSpec {
        family: DatasetFamily::Facebook,
        users: 150,
        dataset_seed: 42,
        config_seed: 42,
        model: ModelKind::sporadic_default(),
        policy: PolicyKind::MaxAv,
        replication_degree: 4,
        unconrep: false,
        dissemination: DisseminationMode::FriendToFriend,
    }
}

fn batch_report(spec: &SimSpec, reads: f64) -> dosn_node::SystemReport {
    let ds = spec.synthesize().expect("spec synthesizes");
    SystemSim::new(&ds)
        .model(spec.model)
        .policy(spec.policy)
        .replication_degree(spec.replication_degree as usize)
        .reads_per_friend_day(reads)
        .dissemination(spec.dissemination)
        .run(&spec.study_config())
}

#[test]
fn live_replay_reproduces_batch_aggregates() {
    let (socket, flag, handle) = start_daemon("batch", None);
    let specs = [
        SimSpec {
            family: DatasetFamily::Facebook,
            users: 150,
            dataset_seed: 42,
            config_seed: 42,
            model: ModelKind::sporadic_default(),
            policy: PolicyKind::MaxAv,
            replication_degree: 4,
            unconrep: false,
            dissemination: DisseminationMode::FriendToFriend,
        },
        SimSpec {
            family: DatasetFamily::Twitter,
            users: 120,
            dataset_seed: 7,
            config_seed: 99,
            model: ModelKind::fixed_hours(4),
            policy: PolicyKind::MostActive,
            replication_degree: 3,
            unconrep: true,
            dissemination: DisseminationMode::Cloud { latency_secs: 120 },
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        let reads = 0.2;
        let outcome = drive(&socket, spec, reads).expect("drive succeeds");
        let batch = batch_report(spec, reads);
        assert_eq!(outcome.report, batch, "spec {i} diverged from the batch run");
        // The per-request acks agree with the folded aggregates too.
        assert_eq!(outcome.posts_delivered_live, batch.posts_delivered() as u64);
        assert_eq!(outcome.reads_served_live, batch.reads_served() as u64);
        assert_eq!(
            outcome.requests,
            (batch.posts_total() + batch.reads_total()) as u64
        );
        assert!(outcome.elapsed_secs > 0.0);
        assert!(outcome.req_per_s > 0.0);
        assert!(outcome.latency.p50_ms <= outcome.latency.p99_ms);
        assert!(outcome.latency.p99_ms <= outcome.latency.max_ms);
    }
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");
    assert!(!socket.exists(), "socket removed on shutdown");
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let (socket, _flag, handle) = start_daemon("stop", None);
    let mut client = DaemonClient::connect(&socket).expect("connect");
    client.ping().expect("daemon answers ping");
    DaemonClient::connect(&socket)
        .expect("second connection")
        .shutdown()
        .expect("daemon acknowledges shutdown");
    handle.join().expect("no panic").expect("clean shutdown");
    assert!(!socket.exists(), "socket removed on shutdown");
}

#[test]
fn out_of_order_requests_are_refused_without_killing_the_session() {
    let (socket, flag, handle) = start_daemon("order", None);
    let mut client = DaemonClient::connect(&socket).expect("connect");
    // A Post before any Open is refused...
    let resp = client
        .request(&Request::Post { index: 0, creator: 0, receiver: 0, at_secs: 0 })
        .expect("exchange survives");
    assert!(
        matches!(resp, Response::Error { .. }),
        "expected refusal, got {resp:?}"
    );
    // ...and the connection still serves afterwards.
    client.ping().expect("session still usable");
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn stale_keys_are_refused_before_the_journal_and_the_report_still_matches_batch() {
    let spec = facebook_spec();
    let reads = 0.2;
    let store = std::env::temp_dir().join(format!("dosn-eq-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let (_, requests) = stream_of(&spec, reads);
    // Stop right after a post that already has a read before it.
    let first_read = requests
        .iter()
        .position(|r| matches!(r, Request::Read { .. }))
        .expect("the stream has reads");
    let cut = first_read
        + 1
        + requests
            .iter()
            .skip(first_read)
            .position(|r| matches!(r, Request::Post { .. }))
            .expect("a post follows the first read");
    let journaled = || dosn_store::scan(&store).expect("journal scans").records;
    let refused = |client: &mut DaemonClient, req: &Request, why: &str| {
        let resp = client.request(req).expect("exchange survives");
        assert!(matches!(resp, Response::Error { .. }), "{why}: expected refusal, got {resp:?}");
        assert_eq!(journaled(), cut as u64, "{why}: the refusal reached the journal");
    };

    let (socket, flag, handle) = start_daemon("stale1", Some(&store));
    let mut client = DaemonClient::connect(&socket).expect("connect");
    let opened = client.request(&Request::Open(spec)).expect("open");
    assert!(matches!(opened, Response::Opened { recovered: 0, .. }), "{opened:?}");
    for req in &requests[..cut] {
        let resp = client.request(req).expect("exchange survives");
        assert!(matches!(resp, Response::PostAck { .. } | Response::ReadAck { .. }), "{resp:?}");
    }
    let last_post = requests[cut - 1].clone();
    refused(&mut client, &last_post, "duplicate post");
    let Request::Post { at_secs: post_at, .. } = last_post else { panic!("cut ends on a post") };
    let Request::Read { seq, owner, reader, .. } = requests[first_read] else { panic!("a read") };
    let early_read = Request::Read { seq, owner, reader, at_secs: post_at - 1 };
    refused(&mut client, &early_read, "read keyed before the last post");
    drop(client);
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");

    // A restarted daemon recovers the prefix and refuses its resend too.
    let (socket, flag, handle) = start_daemon("stale2", Some(&store));
    let mut client = DaemonClient::connect(&socket).expect("connect");
    let opened = client.request(&Request::Open(spec)).expect("open");
    assert!(
        matches!(opened, Response::Opened { recovered, .. } if recovered == cut as u64),
        "{opened:?}"
    );
    refused(&mut client, &last_post, "resend of a recovered request");
    for req in &requests[cut..] {
        let resp = client.request(req).expect("exchange survives");
        assert!(matches!(resp, Response::PostAck { .. } | Response::ReadAck { .. }), "{resp:?}");
    }
    let Response::Report(parts) = client.request(&Request::Finish).expect("finish") else {
        panic!("expected the report");
    };
    assert_eq!(parts.into_report(), batch_report(&spec, reads), "refusals perturbed the run");
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&store);
}

/// Frames a pipelining client keeps outstanding, as the benchmark's
/// closed loop does.
const WINDOW: usize = 64;

/// A raw client that writes a whole window of request frames with one
/// write, so the daemon drains many frames per read.
struct Pipeline(UnixStream);

impl Pipeline {
    /// Connects, greets, opens `spec`; returns the client and how many
    /// requests the daemon recovered.
    fn open(socket: &Path, spec: SimSpec) -> (Pipeline, u64) {
        let mut client = Pipeline(UnixStream::connect(socket).expect("connect"));
        client.send(&[Request::Hello { version: PROTOCOL_VERSION }]);
        assert!(matches!(client.recv(), Response::Welcome { .. }));
        client.send(&[Request::Open(spec)]);
        match client.recv() {
            Response::Opened { recovered, .. } => (client, recovered),
            other => panic!("expected Opened, got {other:?}"),
        }
    }

    fn send(&mut self, window: &[Request]) {
        let mut wire = Vec::new();
        for req in window {
            frame_into(&mut wire, &encode_request(req)).expect("request fits a frame");
        }
        self.0.write_all(&wire).expect("window written");
    }

    fn recv(&mut self) -> Response {
        let payload = read_frame(&mut self.0).expect("reply arrives").expect("daemon connected");
        decode_response(&payload).expect("reply decodes")
    }

    /// Sends `window` and checks each reply is the ack its request's
    /// kind calls for, in order; returns how many acks came back.
    fn acked(&mut self, window: &[Request]) -> u64 {
        self.send(window);
        for req in window {
            let reply = self.recv();
            assert!(is_ack_of(req, &reply), "{req:?} answered with {reply:?}");
        }
        window.len() as u64
    }

    fn finish(&mut self) -> dosn_node::SystemReport {
        self.send(&[Request::Finish]);
        match self.recv() {
            Response::Report(parts) => parts.into_report(),
            other => panic!("expected the report, got {other:?}"),
        }
    }
}

fn is_ack_of(req: &Request, reply: &Response) -> bool {
    matches!(
        (req, reply),
        (Request::Post { .. }, Response::PostAck { .. })
            | (Request::Read { .. }, Response::ReadAck { .. })
    )
}

#[test]
fn pipelined_windows_are_answered_in_order_and_journaled_before_their_acks() {
    let spec = facebook_spec();
    let reads = 0.2;
    let (events, requests) = stream_of(&spec, reads);
    assert!(requests.len() > 4 * WINDOW, "the stream spans several windows");
    let store = std::env::temp_dir().join(format!("dosn-eq-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    // The stream with a resend of request 70 right behind it and a Ping
    // behind request 90: both land mid-window.
    let (resent, pinged) = (70, 90);
    let mut frames = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        frames.push(req.clone());
        if i == resent {
            frames.push(req.clone());
        }
        if i == pinged {
            frames.push(Request::Ping);
        }
    }
    let (resent_slot, pinged_slot) = (resent + 1, pinged + 2);

    let (socket, flag, handle) = start_daemon("pipe", Some(&store));
    let (mut client, recovered) = Pipeline::open(&socket, spec);
    assert_eq!(recovered, 0);
    let mut acked = 0u64;
    for (w, window) in frames.chunks(WINDOW).enumerate() {
        client.send(window);
        for (i, req) in window.iter().enumerate() {
            let slot = w * WINDOW + i;
            let reply = client.recv();
            if slot == resent_slot {
                assert!(matches!(reply, Response::Error { .. }), "resend got {reply:?}");
            } else if slot == pinged_slot {
                assert_eq!(reply, Response::Pong);
            } else {
                assert!(is_ack_of(req, &reply), "slot {slot}: {req:?} answered with {reply:?}");
                acked += 1;
            }
        }
        // Write-ahead: every ack in hand has its record in the journal.
        let journaled = dosn_store::scan(&store).expect("journal scans").records;
        assert!(journaled >= acked, "window {w}: {acked} acks, {journaled} records");
    }
    assert_eq!(acked, requests.len() as u64);
    assert_eq!(client.finish(), batch_report(&spec, reads), "pipelining perturbed the run");
    let mut logged = Vec::new();
    dosn_store::scan_with(&store, |_, r| logged.push((r.at_secs, r.seq, r.event)))
        .expect("journal scans");
    let accepted: Vec<_> = events.iter().map(|ev| (ev.at.as_secs(), ev.seq(), ev.event)).collect();
    assert!(logged == accepted, "the journal holds other than exactly the accepted requests");
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_client_gone_mid_window_recovers_at_least_every_ack_it_got() {
    let spec = facebook_spec();
    let reads = 0.2;
    let (_, requests) = stream_of(&spec, reads);
    assert!(requests.len() > 4 * WINDOW, "the stream spans several windows");
    let store = std::env::temp_dir().join(format!("dosn-eq-gone-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let (socket, flag, handle) = start_daemon("gone1", Some(&store));
    let (mut client, recovered) = Pipeline::open(&socket, spec);
    assert_eq!(recovered, 0);
    let mut acked = 0u64;
    for window in requests[..3 * WINDOW].chunks(WINDOW) {
        acked += client.acked(window);
    }
    // A fourth window goes out, ten of its acks are read, and the client
    // vanishes without Finish.
    let sent = 4 * WINDOW;
    client.send(&requests[3 * WINDOW..sent]);
    for req in &requests[3 * WINDOW..3 * WINDOW + 10] {
        let reply = client.recv();
        assert!(is_ack_of(req, &reply), "{req:?} answered with {reply:?}");
        acked += 1;
    }
    drop(client);
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");

    let (socket, flag, handle) = start_daemon("gone2", Some(&store));
    let (mut client, recovered) = Pipeline::open(&socket, spec);
    assert!(
        (acked..=sent as u64).contains(&recovered),
        "recovered {recovered} with {acked} acked and {sent} sent"
    );
    let resume = usize::try_from(recovered).expect("fits");
    for window in requests[resume..].chunks(WINDOW) {
        client.acked(window);
    }
    assert_eq!(client.finish(), batch_report(&spec, reads), "recovery perturbed the run");
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&store);
}
