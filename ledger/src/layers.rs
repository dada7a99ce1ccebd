//! Per-layer attribution from outside: the traced run calls each
//! layer's public functions on the workload's own inputs and times
//! them. For the drives the layers cannot be timed per request without
//! disturbing them, so each layer gets a *layer-isolating pass* over the
//! identical request stream, in-process, timed as a whole; what the
//! end-to-end time holds beyond those passes is the socket.

use std::path::Path;
use std::time::Instant;

use dosn_core::{evaluate_prefixes, StudyConfig};
use dosn_daemon::codec::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use dosn_daemon::protocol::ReportParts;
use dosn_daemon::{encode_spec, Request, Response, SimSpec};
use dosn_node::{
    model_schedules, place_replicas, trace_span_days, EventQueue, InstantTransport, NodeRuntime,
    SystemReport,
};
use dosn_onlinetime::OnlineSchedules;
use dosn_socialgraph::UserId;
use dosn_store::{replay_into, LogKind, LogWriter};
use dosn_trace::Dataset;

use crate::stream::{event_request, RequestStream};
use crate::workloads::Run;

/// `model_schedules` and `place_replicas` (the spec's MaxAv, 4 replicas,
/// every user) on the workload's dataset.
pub fn schedules_and_placement(
    run: &mut Run,
    dataset: &Dataset,
    spec: &SimSpec,
    config: &StudyConfig,
) -> (OnlineSchedules, Vec<Vec<UserId>>) {
    let (schedules, schedules_s) = run.spans.time("model_schedules", "onlinetime", || {
        model_schedules(dataset, spec.model, config)
    });
    let (placements, place_s) = run.spans.time("place_replicas", "replication", || {
        let degree = spec.replication_degree as usize;
        place_replicas(dataset, &schedules, spec.policy, degree, config)
    });
    run.set("onlinetime.schedules_s", schedules_s);
    run.set("replication.place_s", place_s);
    run.set(
        "replication.place_users_per_s",
        dataset.user_count() as f64 / place_s,
    );
    run.check(
        "every user got a placement",
        placements.len() == dataset.user_count(),
    );
    (schedules, placements)
}

/// The sweep's two halves apart: placement alone, then the metric and
/// mask kernels alone (`evaluate_prefixes` over the fixed placements).
pub fn placement_and_metric_kernels(
    run: &mut Run,
    dataset: &Dataset,
    spec: &SimSpec,
    config: &StudyConfig,
) {
    let (schedules, placements) = schedules_and_placement(run, dataset, spec, config);
    let budgets = [0usize, 1, 2, 3, 4];
    let (replicas_used, evaluate_s) = run.spans.time("evaluate_prefixes", "metrics", || {
        dataset
            .users()
            .zip(&placements)
            .map(|(user, placement)| {
                evaluate_prefixes(
                    dataset,
                    &schedules,
                    user,
                    placement,
                    &budgets,
                    config.include_owner(),
                )
                .last()
                .map_or(0, |m| m.replicas_used)
            })
            .sum::<usize>()
    });
    run.set("metrics.evaluate_s", evaluate_s);
    run.check(
        "the largest prefix uses the whole placement",
        replicas_used == placements.iter().map(Vec::len).sum::<usize>(),
    );
}

/// The store's buffered events log under the batch run: append through
/// `run_with_sink`, then `replay_into` a fresh runtime, whose report
/// must equal the captured one.
pub fn events_log(
    run: &mut Run,
    dataset: &Dataset,
    spec: &SimSpec,
    reads: f64,
    config: &StudyConfig,
    expected: &SystemReport,
) -> Result<(), String> {
    let (schedules, placements) = schedules_and_placement(run, dataset, spec, config);
    let dir = run.scratch_dir("events");
    let mut writer = LogWriter::create(&dir, LogKind::Events, &encode_spec(spec))
        .map_err(|e| format!("cannot create the events log: {e}"))?;
    // The append time holds the whole batch run; the log's share is what
    // it adds over `node.replay_s`.
    let (captured, append_s) = run.spans.time("run_with_sink", "store", || {
        crate::workloads::batch_sim(dataset, spec, reads).run_with_sink(config, &mut writer)
    });
    let stats = writer
        .finish()
        .map_err(|e| format!("cannot seal the events log: {e}"))?;
    run.check(
        "the sink does not perturb the batch report",
        captured == *expected,
    );

    let transport = InstantTransport;
    let mut runtime = NodeRuntime::new(
        &schedules,
        &placements,
        dataset.activities(),
        &transport,
        spec.dissemination,
    );
    let (scanned, replay_s) = run
        .spans
        .time("replay_into", "store", || replay_into(&dir, &mut runtime));
    let scanned = scanned.map_err(|e| format!("cannot replay the events log: {e}"))?;
    run.check(
        "the replayed report equals the captured one",
        runtime.into_report() == captured,
    );
    run.check(
        "replay read every appended record",
        scanned.records == stats.records,
    );
    run.set("store.events_append_per_s", stats.records as f64 / append_s);
    run.set("store.events_replay_per_s", stats.records as f64 / replay_s);
    Ok(())
}

/// The read side of a finished journal.
pub fn scan_journal(run: &mut Run, dir: &Path, requests: u64) -> Result<(), String> {
    let (scanned, scan_s) = run.spans.time("scan", "store", || dosn_store::scan(dir));
    let scanned = scanned.map_err(|e| format!("journal does not scan: {e}"))?;
    run.check(
        "a scan finds one record per request",
        scanned.records == requests,
    );
    run.set("store.scan_records_per_s", scanned.records as f64 / scan_s);
    Ok(())
}

/// The layer-isolating passes of a drive: node, codec, and (for a
/// journaling daemon) store, each over the whole stream, plus the
/// socket as the residual of the measured end-to-end rate.
pub fn isolate(
    run: &mut Run,
    spec: &SimSpec,
    stream: &RequestStream,
    journal: bool,
    req_per_s: f64,
    reference: &ReportParts,
) -> Result<(), String> {
    let node_ns = node_pass(run, spec, stream, reference);
    let codec_ns = codec_pass(run, stream)?;
    let store_ns = if journal {
        store_pass(run, spec, stream)?
    } else {
        0.0
    };
    // Syscalls, copies and wake-ups: what a request costs end to end
    // beyond the work the three passes account for.
    run.set(
        "daemon.socket_ns_per_req",
        1e9 / req_per_s - node_ns - codec_ns - store_ns,
    );
    Ok(())
}

/// Feeds the stream through `EventQueue::pop_before` + `NodeRuntime::
/// handle` exactly as the daemon's session does, with no wire and no
/// journal. Returns nanoseconds per request.
fn node_pass(
    run: &mut Run,
    spec: &SimSpec,
    stream: &RequestStream,
    reference: &ReportParts,
) -> f64 {
    let config = spec.study_config();
    let (schedules, placements) = schedules_and_placement(run, &stream.dataset, spec, &config);
    let activities = stream.dataset.activities();
    let mut queue = EventQueue::new().with_sessions(&schedules, 0..trace_span_days(activities));
    let transport = InstantTransport;
    let mut runtime = NodeRuntime::new(
        &schedules,
        &placements,
        activities,
        &transport,
        spec.dissemination,
    );

    let started = run.spans.begin("node pass", "node");
    let mut slowest_drain_ns = 0u64;
    let mut answered_online = 0u64;
    for (ev, &owner) in stream.events.iter().zip(&stream.chains) {
        let clock = Instant::now();
        while let Some(due) = queue.pop_before(ev) {
            runtime.handle(due, &mut queue);
        }
        slowest_drain_ns = slowest_drain_ns.max(clock.elapsed().as_nanos() as u64);
        // The ack's payload, looked up as the session looks it up.
        let online = runtime.node(owner).online
            || placements
                .get(owner.index())
                .is_some_and(|hosts| hosts.iter().any(|&h| runtime.node(h).online));
        answered_online += u64::from(online);
        runtime.handle(*ev, &mut queue);
    }
    let pass_s = run.spans.end(started);
    let events_before_drain = runtime.stats().events_processed;
    while let Some(due) = queue.pop() {
        runtime.handle(due, &mut queue);
    }
    let report = ReportParts::from_report(&runtime.into_report());
    run.check(
        "the node pass reproduces the batch report",
        report == *reference,
    );
    run.check(
        "acks answered online match the report's delivered + served",
        answered_online == report.posts_delivered + report.reads_served,
    );
    let per_req = pass_s * 1e9 / stream.len() as f64;
    run.set("node.apply_ns_per_req", per_req);
    run.set(
        "node.events_per_req",
        events_before_drain as f64 / stream.len() as f64,
    );
    run.set("node.pop_before_max_ms", slowest_drain_ns as f64 / 1e6);
    per_req
}

/// The wire form without a wire: every request encoded, framed,
/// unframed and decoded, and its ack the same way back. Returns
/// nanoseconds per request.
fn codec_pass(run: &mut Run, stream: &RequestStream) -> Result<f64, String> {
    let requests: Vec<Request> = stream
        .events
        .iter()
        .map(|ev| event_request(ev, &stream.dataset))
        .collect();
    let mut wire: Vec<u8> = Vec::with_capacity(64);
    let mut wire_bytes = 0u64;
    let mut hop = |payload: &[u8], wire_bytes: &mut u64| -> Result<Vec<u8>, String> {
        wire.clear();
        write_frame(&mut wire, payload).map_err(|e| e.to_string())?;
        *wire_bytes += wire.len() as u64;
        read_frame(&mut wire.as_slice())
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "frame vanished".to_string())
    };
    let started = run.spans.begin("codec pass", "daemon");
    let mut acks = 0u64;
    for request in &requests {
        let arrived = hop(&encode_request(request), &mut wire_bytes)?;
        let reply = match decode_request(&arrived).map_err(|e| e.to_string())? {
            Request::Post { .. } => Response::PostAck { delivered: true },
            Request::Read { .. } => Response::ReadAck { served: true },
            other => return Err(format!("the stream decoded to {other:?}")),
        };
        let returned = hop(&encode_response(&reply), &mut wire_bytes)?;
        acks += u64::from(decode_response(&returned).map_err(|e| e.to_string())? == reply);
    }
    let pass_s = run.spans.end(started);
    run.check(
        "every frame survived the codec round trip",
        acks == requests.len() as u64,
    );
    let per_req = pass_s * 1e9 / requests.len() as f64;
    run.set("daemon.codec_ns_per_req", per_req);
    run.set(
        "daemon.wire_bytes_per_req",
        wire_bytes as f64 / requests.len() as f64,
    );
    Ok(per_req)
}

/// The journal's write path alone: one write-ahead append per request,
/// then the seal. Returns append nanoseconds per request.
fn store_pass(run: &mut Run, spec: &SimSpec, stream: &RequestStream) -> Result<f64, String> {
    let dir = run.scratch_dir("store-pass");
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = LogWriter::create(&dir, LogKind::Journal, &encode_spec(spec))
        .map_err(|e| format!("create: {e}"))?;
    let started = run.spans.begin("store pass", "store");
    for (ev, &chain) in stream.events.iter().zip(&stream.chains) {
        writer
            .append(ev, chain)
            .map_err(|e| format!("append: {e}"))?;
    }
    let pass_s = run.spans.end(started);
    let (stats, finish_s) = run
        .spans
        .time("LogWriter::finish", "store", || writer.finish());
    let stats = stats.map_err(|e| format!("seal: {e}"))?;
    run.check(
        "the store pass appended one record per request",
        stats.records == stream.len() as u64,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let per_req = pass_s * 1e9 / stream.len() as f64;
    run.set("store.append_ns_per_req", per_req);
    run.set("store.finish_ms", finish_s * 1e3);
    Ok(per_req)
}
