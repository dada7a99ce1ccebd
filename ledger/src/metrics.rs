//! The names every later performance claim uses.
//!
//! `BENCHMARK.json` at the repo root lists the same names; the unit
//! test below keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: reported by every workload, never zero, and
/// gated: `bound` is the share of the parent's median by which it may
/// worsen before a change counts as a regression (also the A/A bound).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_per_s",
        unit: "req/s",
        better: Higher,
        bound: 0.10,
    },
];

/// The workloads, in run order, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "synth_1m",
        "1M-user sharded synthesis + CSR build + pooled degree sweep: trace/socialgraph dominate and set the RSS high-water; only workload on the >50k-user DensePool path",
    ),
    (
        "sweep_paper",
        "paper-size (13,884 users) user-degree sweep, 4 policies x 2 models: placement and metric kernels do ~99% of the work; bypasses trace shards, node, wire and disk",
    ),
    (
        "system_batch",
        "batch SystemSim replay of the drive spec: node event queue + state machines with no wire and no disk; the bypass for both drives and the reference their reports must equal",
    ),
    (
        "drive_mem",
        "the system_batch events over the Unix socket, closed loop, 64 outstanding, no store: adds daemon codec + socket + session to the node work; store bypassed",
    ),
    (
        "drive_journal",
        "drive_mem against a journaling daemon (write-ahead append per request, sync at finish): adds the store append path and nothing else",
    ),
    (
        "open_reads_journal",
        "read-heavy degree-skewed mix (1.0 reads/friend/day), journaling daemon: closed-loop rate of this mix (gated), then open loop at 80k req/s Poisson for latency from the due time (per-layer)",
    ),
];

/// The per-layer metrics of the traced run; layers are the crates. Not
/// gated. A workload that bypasses a layer reports 0 for its metrics;
/// `driver` is the harness itself.
pub const PER_LAYER: [(&str, &str, Better); 57] = [
    ("wall_s", "s", Lower),
    ("peak_rss_mb", "MiB", Lower),
    ("lat_p50_us", "us", Lower),
    ("trace.synth_s", "s", Lower),
    ("trace.csr_build_s", "s", Lower),
    ("trace.users_per_s", "1/s", Higher),
    ("trace.dataset_mb", "MiB", Lower),
    ("trace.spec_synth_s", "s", Lower),
    ("socialgraph.edges", "count", Lower),
    ("onlinetime.schedules_s", "s", Lower),
    ("replication.place_s", "s", Lower),
    ("replication.place_users_per_s", "1/s", Higher),
    ("core.sweep.maxav_s", "s", Lower),
    ("core.sweep.maxav-on-demand-activity_s", "s", Lower),
    ("core.sweep.most-active_s", "s", Lower),
    ("core.sweep.random_s", "s", Lower),
    ("core.user_evals_per_s", "1/s", Higher),
    ("core.pooled_sweep_s", "s", Lower),
    ("core.dense_pool_high_water", "count", Lower),
    ("core.dense_pool_kb", "KiB", Lower),
    ("metrics.evaluate_s", "s", Lower),
    ("node.events", "count", Lower),
    ("node.session_events", "count", Lower),
    ("node.post_events", "count", Lower),
    ("node.read_events", "count", Lower),
    ("node.delivery_events", "count", Lower),
    ("node.replay_s", "s", Lower),
    ("node.events_per_s", "1/s", Higher),
    ("node.apply_ns_per_req", "ns", Lower),
    ("node.events_per_req", "count", Lower),
    ("node.pop_before_max_ms", "ms", Lower),
    ("daemon.codec_ns_per_req", "ns", Lower),
    ("daemon.wire_bytes_per_req", "bytes", Lower),
    ("daemon.socket_ns_per_req", "ns", Lower),
    ("daemon.open_s", "s", Lower),
    ("daemon.recover_s", "s", Lower),
    ("daemon.recover_req_per_s", "req/s", Higher),
    ("store.append_ns_per_req", "ns", Lower),
    ("store.finish_ms", "ms", Lower),
    ("store.log_bytes", "bytes", Lower),
    ("store.log_bytes_per_req", "bytes", Lower),
    ("store.segments", "count", Lower),
    ("store.verify_s", "s", Lower),
    ("store.scan_records_per_s", "1/s", Higher),
    ("store.events_append_per_s", "1/s", Higher),
    ("store.events_replay_per_s", "1/s", Higher),
    ("driver.offered_req_per_s", "req/s", Higher),
    ("driver.achieved_req_per_s", "req/s", Higher),
    ("driver.closed_lat_p50_us", "us", Lower),
    ("driver.lat_p99_us", "us", Lower),
    ("driver.lat_p999_us", "us", Lower),
    ("driver.lat_max_ms", "ms", Lower),
    ("driver.late_p99_us", "us", Lower),
    ("driver.backlog_max", "count", Lower),
    ("driver.gap_frac", "ratio", Lower),
    ("driver.trace_overhead_frac", "ratio", Lower),
    ("driver.fail_frac", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let document = json::parse(&text).expect("BENCHMARK.json parses");
        let entries = |list: &str| -> Vec<Value> {
            document
                .get(list)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{list} is a list"))
                .to_vec()
        };
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

        let workloads = entries("workloads");
        assert_eq!(
            workloads
                .iter()
                .map(|w| (field(w, "name"), field(w, "why")))
                .collect::<Vec<_>>(),
            WORKLOADS
                .iter()
                .map(|(n, w)| (Some(n.to_string()), Some(w.to_string())))
                .collect::<Vec<_>>()
        );
        let e2e = entries("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (found, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(found, "name").as_deref(), Some(want.name));
            assert_eq!(field(found, "unit").as_deref(), Some(want.unit));
            assert_eq!(
                field(found, "better").as_deref(),
                Some(want.better.as_str())
            );
            assert_eq!(found.get("bound").and_then(Value::as_f64), Some(want.bound));
        }
        let layers = entries("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (found, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(found, "name").as_deref(), Some(name));
            assert_eq!(field(found, "unit").as_deref(), Some(unit));
            assert_eq!(field(found, "better").as_deref(), Some(better.as_str()));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| n));
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{} chars",
                why.len()
            );
        }
    }
}
