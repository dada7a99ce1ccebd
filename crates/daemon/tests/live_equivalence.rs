//! Pins the acceptance criterion: `drive` against a live daemon
//! reproduces the exact delivery/staleness aggregates the batch
//! `system` path computes for the same seed — bit for bit, including
//! the float accumulators inside every summary.

use std::path::{Path, PathBuf};

use dosn_core::{ModelKind, PolicyKind};
use dosn_daemon::{
    drive, DaemonClient, DatasetFamily, Request, Response, Server, ServerConfig, ShutdownFlag,
    SimSpec,
};
use dosn_node::{model_schedules, request_stream, trace_span_days, DisseminationMode, SystemSim};

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
    let reads = 0.2;
    let store = std::env::temp_dir().join(format!("dosn-eq-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    // The driver's stream, as wire requests.
    let ds = spec.synthesize().expect("spec synthesizes");
    let config = spec.study_config();
    let schedules = model_schedules(&ds, spec.model, &config);
    let span_days = trace_span_days(ds.activities());
    let requests: Vec<Request> = request_stream(&ds, &schedules, span_days, reads, &config)
        .iter()
        .map(|ev| Request::from_event(ev, ds.activities()).expect("stream event converts"))
        .collect();
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
