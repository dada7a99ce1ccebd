//! The simulation spine, end to end: the batch facade, a hand-stepped
//! run over the merged request stream, and a run re-driven from the
//! journal the second one wrote must all fold the same report and the
//! same event counters — and a key that does not order after its
//! predecessor is refused, stepped or re-driven.

use dosn_core::{ModelKind, PolicyKind, StudyConfig};
use dosn_node::{request_stream, DisseminationMode, Realized, SystemSim};
use dosn_store::{redrive_into, LogKind, LogWriter, StoreError};
use dosn_trace::synth;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dosn-spine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn batch_stepped_and_redriven_runs_agree() {
    let ds = synth::facebook_like(150, 13).expect("generation succeeds");
    let config = StudyConfig::default();
    let (model, policy, degree) = (ModelKind::fixed_hours(6), PolicyKind::MaxAv, 3);
    let cloud = DisseminationMode::Cloud { latency_secs: 60 };
    let table = [
        (DisseminationMode::FriendToFriend, 0.1),
        (DisseminationMode::FriendToFriend, 1.0),
        (cloud, 0.1),
        (cloud, 1.0),
    ];
    for (i, (dissemination, reads)) in table.into_iter().enumerate() {
        let batch = SystemSim::new(&ds)
            .model(model)
            .policy(policy)
            .replication_degree(degree)
            .reads_per_friend_day(reads)
            .dissemination(dissemination)
            .run_with_stats(&config);

        // Stepped by hand, journaling each request write-ahead.
        let realized = Realized::new(&ds, model, policy, degree, dissemination, &config);
        let requests =
            request_stream(&ds, realized.schedules(), realized.span_days(), reads, &config);
        let dir = temp_dir(&format!("journal-{i}"));
        let mut journal =
            LogWriter::create(&dir, LogKind::Journal, b"spine").expect("journal creation");
        let mut run = realized.start();
        let mut online = 0usize;
        for ev in &requests {
            journal.append(ev, realized.chain_of(ev)).expect("journal append");
            online += usize::from(run.step(*ev).expect("the stream is strictly increasing"));
        }
        journal.finish().expect("journal seals");
        // A resend is refused and leaves the run as it was.
        let last = *requests.last().expect("the trace has requests");
        let refused = run.step(last).expect_err("a duplicate key is out of order");
        assert_eq!((refused.got, refused.last), (last, last));
        let stepped = run.finish();
        assert_eq!(stepped, batch, "case {i}: stepped run diverged from batch");
        assert_eq!(
            online,
            batch.0.posts_delivered() + batch.0.reads_served(),
            "case {i}: step verdicts disagree with the folded report"
        );

        // Re-driven from the journal alone.
        let mut run = realized.start();
        let scanned = redrive_into(&dir, &mut run).expect("journal re-drives");
        assert_eq!(scanned.records, requests.len() as u64);
        assert_eq!(run.finish(), batch, "case {i}: re-driven run diverged from batch");
        let _ = std::fs::remove_dir_all(&dir);

        // A journal that itself holds a resend is refused where it
        // breaks the order, not silently applied.
        let mut journal =
            LogWriter::create(&dir, LogKind::Journal, b"spine").expect("journal creation");
        for ev in requests.iter().take(3).chain(requests.first()) {
            journal.append(ev, realized.chain_of(ev)).expect("journal append");
        }
        journal.finish().expect("journal seals");
        let err = redrive_into(&dir, &mut realized.start()).expect_err("record 4 repeats record 1");
        assert!(matches!(err, StoreError::Corrupt { .. }), "case {i}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
