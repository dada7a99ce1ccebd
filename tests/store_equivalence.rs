//! Acceptance pins for the persistent append-only event log.
//!
//! Two byte-identity guarantees anchor the storage layer:
//!
//! 1. **Capture/replay**: a batch run streamed into an events log via
//!    the runtime's `EventSink` hook, then replayed from disk into a
//!    fresh `NodeRuntime`, folds the *identical* `SystemReport` — every
//!    count and every float accumulator.
//! 2. **Journal recovery**: a daemon journaling its session survives a
//!    stop mid-drive; a fresh daemon on the same store recovers the
//!    prefix, the driver skips it, and the resumed run's report equals
//!    the uninterrupted batch run's.

use std::path::PathBuf;

use dosn::core::{ModelKind, PolicyKind};
use dosn::node::{DisseminationMode, SystemSim};
use dosn_daemon::{
    drive, drive_prefix, encode_spec, DatasetFamily, Server, ServerConfig, ShutdownFlag,
    SimSpec,
};
use dosn_store::{replay_into, verify, LogKind, LogWriter, TailState};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dosn-store-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn specs() -> Vec<SimSpec> {
    vec![
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
    ]
}

/// Batch report for a spec, through the ordinary (sink-free) facade.
fn batch_report(spec: &SimSpec, reads: f64) -> dosn::node::SystemReport {
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
fn captured_event_log_replays_to_the_identical_report() {
    for (i, spec) in specs().iter().enumerate() {
        let reads = 0.2;
        let dir = temp_dir(&format!("events-{i}"));
        let baseline = batch_report(spec, reads);

        // Capture: the same run, streamed into a fresh events log.
        let ds = spec.synthesize().expect("spec synthesizes");
        let mut writer = LogWriter::create(&dir, LogKind::Events, &encode_spec(spec))
            .expect("log creation succeeds");
        let observed = SystemSim::new(&ds)
            .model(spec.model)
            .policy(spec.policy)
            .replication_degree(spec.replication_degree as usize)
            .reads_per_friend_day(reads)
            .dissemination(spec.dissemination)
            .run_with_sink(&spec.study_config(), &mut writer);
        let stats = writer.finish().expect("log seals");
        assert_eq!(observed, baseline, "spec {i}: the sink perturbed the run");
        assert!(stats.records > 0, "spec {i}: the log captured nothing");

        // Replay: a fresh runtime fed purely from disk.
        let realized = spec.realize(&ds);
        let mut runtime = realized.runtime();
        let scanned = replay_into(&dir, &mut runtime).expect("replay succeeds");
        assert_eq!(scanned.records, stats.records, "spec {i}: record count drifted");
        assert_eq!(scanned.tail, TailState::Clean, "spec {i}: tail not clean");
        let replayed = runtime.into_report();
        assert_eq!(
            replayed, baseline,
            "spec {i}: replaying the persisted log diverged from the batch run"
        );

        // The sealed log also passes verification with a fresh index.
        let report = verify(&dir).expect("verify succeeds");
        assert_eq!(report.records, stats.records);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Starts an in-process daemon journaling to `store`.
fn start_daemon(
    tag: &str,
    store: &std::path::Path,
) -> (PathBuf, ShutdownFlag, std::thread::JoinHandle<std::io::Result<()>>) {
    let socket =
        std::env::temp_dir().join(format!("dosn-store-eq-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let config = ServerConfig {
        socket: socket.clone(),
        pidfile: None,
        store: Some(store.to_path_buf()),
    };
    let server = Server::bind(&config).expect("bind test socket");
    let flag = ShutdownFlag::new();
    let run_flag = flag.clone();
    let handle = std::thread::spawn(move || server.run(&run_flag));
    (socket, flag, handle)
}

#[test]
fn daemon_restarted_from_its_journal_matches_the_uninterrupted_run() {
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
    let store = temp_dir("journal");
    let baseline = batch_report(&spec, reads);

    // Phase 1: drive a prefix, abandon the session, stop the daemon.
    let (socket, flag, handle) = start_daemon("phase1", &store);
    let position = drive_prefix(&socket, &spec, reads, 40).expect("prefix drive succeeds");
    assert_eq!(position, 40, "fresh journal starts at zero");
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");

    // Phase 2: a second prefix resumes where the first stopped — the
    // recovery is itself recoverable.
    let (socket, flag, handle) = start_daemon("phase2", &store);
    let position = drive_prefix(&socket, &spec, reads, 25).expect("second prefix succeeds");
    assert_eq!(position, 65, "second prefix continues after the recovered 40");
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");

    // Phase 3: the full drive recovers both prefixes and finishes; its
    // report is byte-identical to the uninterrupted batch run's.
    let (socket, flag, handle) = start_daemon("phase3", &store);
    let outcome = drive(&socket, &spec, reads).expect("resumed drive succeeds");
    assert_eq!(outcome.recovered, 65, "driver skipped the journaled prefix");
    assert_eq!(
        outcome.report, baseline,
        "daemon restarted from its journal diverged from the uninterrupted run"
    );
    assert_eq!(
        outcome.recovered + outcome.requests,
        (baseline.posts_total() + baseline.reads_total()) as u64,
        "recovered + sent must cover the whole stream"
    );

    // A re-drive over the *finished* journal replays everything from
    // disk and sends nothing new.
    let rerun = drive(&socket, &spec, reads).expect("re-drive succeeds");
    assert_eq!(rerun.recovered, (baseline.posts_total() + baseline.reads_total()) as u64);
    assert_eq!(rerun.requests, 0, "a sealed journal leaves nothing to send");
    assert_eq!(rerun.report, baseline);
    flag.request();
    handle.join().expect("no panic").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&store);
}
