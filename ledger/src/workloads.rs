//! The six workloads. Each runs in a process of its own, measures one
//! fixed amount of work sized from `--seconds` (so counts and peak RSS
//! do not depend on how fast the host is), checks its outputs, and
//! fills in both the end-to-end numbers and the per-layer ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dosn_core::{sweep, timing, MetricKind, ModelKind, PolicyKind, StudyConfig};
use dosn_daemon::protocol::ReportParts;
use dosn_daemon::{DatasetFamily, SimSpec};
use dosn_node::{DisseminationMode, RunStats, SystemReport, SystemSim};
use dosn_socialgraph::UserId;
use dosn_store::{IndexFinding, TailState};
use dosn_trace::synth::{self, TraceSynthesizer};
use dosn_trace::{Dataset, ScaleDataset};

use crate::drive::{self, Connection, Daemon, Drive};
use crate::layers;
use crate::spans::Spans;
use crate::stats::{median, poisson_due_ns, quantile};
use crate::stream::{self, RequestStream};

/// Threads the batch workloads pin: the sandbox's two vCPUs.
pub const THREADS: usize = 2;

/// Users per generator shard — the streaming granularity.
const SHARD_SIZE: usize = 65_536;

/// Offered rate of the open-loop workload, requests per second.
pub const OFFERED_REQ_PER_S: f64 = 80_000.0;

/// Profile reads per friend per day of the post-heavy spine and of the
/// read-heavy open-loop mix.
const SPINE_READS: f64 = 0.1;
const OPEN_READS: f64 = 1.0;

/// The four policies both sweeps compare.
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::MaxAv,
    PolicyKind::MaxAvOnDemandActivity, // exercises the dense draw path
    PolicyKind::MostActive,
    PolicyKind::Random,
];

/// How many times a workload sets up, so `setup_s` is a median.
const SETUP_SAMPLES: usize = 5;

/// Closed-loop passes over a request stream per nominal run; each is a
/// fresh daemon and session, so the median is over independent ones.
const CLOSED_PASSES: usize = 3;

/// `--seconds` the base iteration counts below are sized for.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// How long the host-noise probe spins before a timed region.
const GAP_PROBE_MS: u64 = 200;

/// How long a reconnecting client keeps asking for a journal its
/// abandoned session has not released yet.
const JOURNAL_RELEASE_WAIT: Duration = Duration::from_secs(2);

/// Attempts an open-loop run gets to pass the generator's self-check.
const OPEN_ATTEMPTS: usize = 3;

/// Input sizes. `--quick` is a smoke test of the harness at about a
/// twentieth of the size; its numbers mean nothing.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    synth_users: usize,
    warm_users: usize,
    sweep_users: usize,
    sweep_max_degree: usize,
    spine_users: u32,
    open_users: u32,
}

const FULL: Sizes = Sizes {
    synth_users: 1_000_000,
    warm_users: 65_536,
    sweep_users: 13_884,
    sweep_max_degree: 30,
    spine_users: 4_000,
    open_users: 1_500,
};

const QUICK: Sizes = Sizes {
    synth_users: 60_000,
    warm_users: 4_096,
    sweep_users: 700,
    sweep_max_degree: 12,
    spine_users: 300,
    open_users: 150,
};

/// What one workload process measured.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness gate with its verdict.
    pub checks: Vec<(String, bool)>,
    /// The load shape and inputs, recorded with the numbers.
    pub context: Vec<(&'static str, String)>,
    pub self_time_by_layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// State shared by the workloads of one process.
pub struct Run {
    pub seed: u64,
    seconds: f64,
    pub trace: bool,
    sizes: Sizes,
    work: PathBuf,
    pub spans: Spans,
    pub layer: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    context: Vec<(&'static str, String)>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Work items per iteration or pass.
    items: u64,
    attempted: u64,
    failed: u64,
    sessions: usize,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool, quick: bool) -> Run {
        Run {
            seed,
            seconds,
            trace,
            sizes: if quick { QUICK } else { FULL },
            work: PathBuf::from(format!("target/ledger/w{}", std::process::id())),
            spans: Spans::new(trace),
            layer: BTreeMap::new(),
            checks: Vec::new(),
            context: Vec::new(),
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            items: 0,
            attempted: 0,
            failed: 0,
            sessions: 0,
        }
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    /// Iterations for a workload sized at `base` per nominal run; the
    /// traced run makes one, its job is attribution.
    fn iterations(&self, base: usize) -> usize {
        if self.trace {
            return 1;
        }
        ((base as f64 * self.seconds / NOMINAL_SECONDS).round() as usize).max(1)
    }

    fn batch_config(&self) -> StudyConfig {
        StudyConfig::default()
            .with_seed(self.seed)
            .with_threads(Some(THREADS))
    }

    /// The sweep engine runs its workers beside a thread that prefetches
    /// the next repetition's draw, so one worker already makes two busy
    /// threads.
    fn sweep_config(&self) -> StudyConfig {
        self.batch_config()
            .with_threads(Some(THREADS - 1))
            .with_repetitions(2)
    }

    fn spec(&self, users: u32) -> SimSpec {
        SimSpec {
            family: DatasetFamily::Facebook,
            users,
            dataset_seed: self.seed,
            config_seed: self.seed,
            model: ModelKind::sporadic_default(),
            policy: PolicyKind::MaxAv,
            replication_degree: 4,
            unconrep: false,
            dissemination: DisseminationMode::FriendToFriend,
        }
    }

    /// A directory of this process's own under the work directory.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Runs a batch workload's set-up [`SETUP_SAMPLES`] times, keeping
    /// each duration for `setup_s` and the last result for the run.
    fn set_up_batch<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        mut set_up: impl FnMut() -> Result<T, E>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..SETUP_SAMPLES {
            let (made, secs) = self.spans.time(name, layer, &mut set_up);
            self.setup_s.push(secs);
            last = Some(made.map_err(|e| format!("{name} failed: {e}"))?);
        }
        last.ok_or_else(|| "no set-up sample".to_string())
    }

    /// Spins briefly so a noisy host shows beside the timings.
    fn probe_host(&mut self) {
        let gap = drive::host_gap_frac(GAP_PROBE_MS);
        self.set("driver.gap_frac", gap);
    }

    fn finish(mut self, workload: &str) -> Result<Outcome, String> {
        let wall_s = median(&self.wall_s);
        if self.items == 0 || wall_s <= 0.0 || self.setup_s.is_empty() {
            return Err(format!("{workload} measured nothing"));
        }
        let peak_rss = timing::peak_rss_bytes().ok_or("this platform reports no peak RSS")?;
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert("setup_s", median(&self.setup_s));
        self.set("wall_s", wall_s);
        end_to_end.insert("req_per_s", self.items as f64 / wall_s);
        self.set("peak_rss_mb", peak_rss as f64 / (1024.0 * 1024.0));

        let fail_frac = if self.checks.iter().all(|(_, ok)| *ok) {
            self.failed as f64 / self.attempted.max(1) as f64
        } else {
            1.0
        };
        self.set("driver.fail_frac", fail_frac);
        let overhead =
            Spans::cost_per_span_s() * self.spans.len() as f64 / self.wall_s.iter().sum::<f64>();
        self.set("driver.trace_overhead_frac", overhead);
        self.note("seed", self.seed);
        self.note("seconds", self.seconds);
        self.note(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        );
        self.note("threads", THREADS);
        self.note("setup_samples", self.setup_s.len());
        self.note("timed_samples", self.wall_s.len());
        self.note("items_per_sample", self.items);
        self.note(
            "timed_wall_s",
            self.wall_s
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        Ok(Outcome {
            end_to_end,
            layer: self.layer,
            attempted: self.attempted,
            failed: self.failed,
            checks: self.checks,
            context: self.context,
            self_time_by_layer: self.spans.self_time_by_layer(),
        })
    }
}

/// Runs `workload` and returns what it measured; the spans are written
/// to `spans_path` when tracing.
pub fn run(
    workload: &str,
    mut run: Run,
    spans_path: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let measured = match workload {
        "synth_1m" => synth_1m(&mut run),
        "sweep_paper" => sweep_paper(&mut run),
        "system_batch" => system_batch(&mut run),
        "drive_mem" => closed_drive(&mut run, false),
        "drive_journal" => closed_drive(&mut run, true),
        "open_reads_journal" => open_reads_journal(&mut run),
        other => Err(format!("unknown workload {other:?}")),
    };
    // Sockets and journals go, whether or not the workload got through.
    let _ = std::fs::remove_dir_all(&run.work);
    measured?;
    if let Some(path) = spans_path {
        run.spans
            .write_jsonl(path, workload)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    run.finish(workload)
}

// ---------------------------------------------------------------------
// synth_1m

fn synth_1m(run: &mut Run) -> Result<(), String> {
    let users = run.sizes.synth_users;
    let generate = |users: usize, seed: u64| {
        TraceSynthesizer::new("facebook-like", users)
            .generate_shards(seed, SHARD_SIZE)
            .map_err(|e| format!("trace generation failed: {e}"))
    };
    // This job has no set-up of its own; what precedes the timed region
    // is the discarded warm-up synthesis (one shard's worth of users)
    // that faults the allocator in.
    let (warm_users, seed) = (run.sizes.warm_users, run.seed);
    run.set_up_batch("warm-up synthesis", "driver", || {
        generate(warm_users, seed).map(|shards| {
            black_box(ScaleDataset::from_shards("facebook-like", shards, &[]).memory_bytes())
        })
    })?;
    run.probe_host();

    // One 15 s pass in about ten comes out 20 % slow on this host, so
    // the run makes three and reports their median.
    let config = run.sweep_config();
    let mut first_table = None;
    for pass in 0..run.iterations(3) {
        let whole = run.spans.begin("synth_1m", "driver");
        let (shards, synth_s) = run
            .spans
            .time("generate_shards", "trace", || generate(users, seed));
        let shards = shards?;
        // The studied users come from the graph alone: everyone at the
        // paper's modal degree, thinned deterministically to 500.
        let graph = shards.graph();
        let at_degree: Vec<UserId> = graph.nodes().filter(|&u| graph.degree(u) == 10).collect();
        let studied: Vec<UserId> = at_degree
            .iter()
            .copied()
            .step_by(at_degree.len().div_ceil(500).max(1))
            .collect();
        let (dataset, csr_s) = run.spans.time("ScaleDataset::from_shards", "trace", || {
            ScaleDataset::from_shards("facebook-like", shards, &studied)
        });
        let ((table, sweep_timing), sweep_s) = run.spans.time("degree_sweep_timed", "core", || {
            sweep::degree_sweep_timed(
                &dataset,
                ModelKind::sporadic_default(),
                &POLICIES,
                &studied,
                5,
                &config,
            )
        });
        let wall = run.spans.end(whole);
        run.wall_s.push(wall);
        if pass > 0 {
            run.check(
                format!("pass {pass} reproduced the sweep table"),
                first_table.as_ref() == Some(&table),
            );
            continue;
        }

        run.set("trace.synth_s", synth_s);
        run.set("trace.csr_build_s", csr_s);
        run.set("trace.users_per_s", users as f64 / (synth_s + csr_s));
        run.set(
            "trace.dataset_mb",
            dataset.memory_bytes() as f64 / (1024.0 * 1024.0),
        );
        run.set("socialgraph.edges", dataset.graph().edge_count() as f64);
        run.set("core.pooled_sweep_s", sweep_s);
        run.set(
            "core.dense_pool_high_water",
            sweep_timing.dense_pool_high_water() as f64,
        );
        run.set(
            "core.dense_pool_kb",
            sweep_timing.dense_pool_bytes() as f64 / 1024.0,
        );
        run.note("users", users);
        run.note("studied_users", studied.len());

        run.check(
            "synthesized graph holds every user",
            dataset.graph().node_count() == users,
        );
        run.check("studied users found at degree 10", !studied.is_empty());
        run.check(
            "sweep table holds 4 policies x degrees 0-5",
            table.rows().len() == POLICIES.len() * 6,
        );
        let maxav = table.series("maxav", MetricKind::Availability);
        run.check(
            "MaxAv availability never falls as the degree grows",
            maxav.len() == 6 && maxav.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12),
        );
        if users > dosn_core::DENSE_CACHE_MAX_USERS {
            run.check(
                "the pooled (DensePool) draw path ran",
                sweep_timing.dense_pool_high_water() > 0,
            );
        }
        first_table = Some(table);
    }
    run.items = users as u64;
    run.attempted = users as u64 * run.wall_s.len() as u64;
    Ok(())
}

// ---------------------------------------------------------------------
// sweep_paper

fn sweep_paper(run: &mut Run) -> Result<(), String> {
    let users = run.sizes.sweep_users;
    let max_degree = run.sizes.sweep_max_degree;
    let seed = run.seed;
    let dataset = run.set_up_batch("facebook_like", "trace", || {
        synth::facebook_like(users, seed)
    })?;
    run.probe_host();

    let models = [ModelKind::sporadic_default(), ModelKind::fixed_hours(8)];
    let config = run.sweep_config();
    let mut first_tables = None;
    let mut per_policy: BTreeMap<String, f64> = BTreeMap::new();
    let (mut evaluations, mut evaluation_s) = (0u64, 0.0f64);
    for iteration in 0..run.iterations(2) {
        let whole = run.spans.begin("sweep iteration", "driver");
        let mut tables = Vec::new();
        let mut evaluated = 0u64;
        for model in models {
            let ((table, sweep_timing), _) =
                run.spans.time("user_degree_sweep_timed", "core", || {
                    sweep::user_degree_sweep_timed(&dataset, model, &POLICIES, max_degree, &config)
                });
            for entry in sweep_timing.entries() {
                evaluated += entry.users_evaluated as u64;
                if iteration == 0 {
                    *per_policy.entry(entry.policy.clone()).or_default() += entry.wall_secs;
                    evaluation_s += entry.wall_secs;
                }
            }
            tables.push(table);
        }
        let wall = run.spans.end(whole);
        run.wall_s.push(wall);
        if iteration == 0 {
            evaluations = evaluated;
        }
        run.check(
            format!("iteration {iteration} evaluated the same users"),
            evaluated == evaluations,
        );
        match &first_tables {
            None => first_tables = Some(tables),
            Some(first) => run.check(
                format!("iteration {iteration} reproduced the sweep tables"),
                *first == tables,
            ),
        }
    }
    run.items = evaluations;
    run.attempted = evaluations * run.wall_s.len() as u64;
    for (policy, name) in [
        ("maxav", "core.sweep.maxav_s"),
        (
            "maxav-on-demand-activity",
            "core.sweep.maxav-on-demand-activity_s",
        ),
        ("most-active", "core.sweep.most-active_s"),
        ("random", "core.sweep.random_s"),
    ] {
        let secs = per_policy.get(policy).copied();
        run.check(format!("the sweep timed policy {policy}"), secs.is_some());
        run.set(name, secs.unwrap_or(0.0));
    }
    run.set("core.user_evals_per_s", evaluations as f64 / evaluation_s);
    run.note("users", users);
    run.note("max_user_degree", max_degree);

    let tables = first_tables.expect("at least one iteration");
    run.check(
        "each model's table holds 4 policies",
        tables.iter().all(|t| t.policies().len() == POLICIES.len()),
    );
    run.check("the sweep studied someone", evaluations > 0);
    if run.trace {
        layers::placement_and_metric_kernels(run, &dataset, &run.spec(users as u32), &config);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// system_batch

/// The batch facade configured as `spec` pins it down.
pub fn batch_sim<'a>(dataset: &'a Dataset, spec: &SimSpec, reads: f64) -> SystemSim<'a> {
    let mut sim = SystemSim::new(dataset);
    sim.model(spec.model)
        .policy(spec.policy)
        .replication_degree(spec.replication_degree as usize)
        .reads_per_friend_day(reads)
        .dissemination(spec.dissemination);
    sim
}

fn system_batch(run: &mut Run) -> Result<(), String> {
    let spec = run.spec(run.sizes.spine_users);
    let dataset = run.set_up_batch("SimSpec::synthesize", "trace", || spec.synthesize())?;
    run.set("trace.spec_synth_s", median(&run.setup_s));
    run.probe_host();

    let config = run.batch_config();
    let mut first: Option<(SystemReport, RunStats)> = None;
    for iteration in 0..run.iterations(12) {
        let (result, secs) = run.spans.time("SystemSim::run", "node", || {
            batch_sim(&dataset, &spec, SPINE_READS).run_with_stats(&config)
        });
        run.wall_s.push(secs);
        match &first {
            None => first = Some(result),
            Some(first) => run.check(
                format!("iteration {iteration} reproduced report and counters"),
                *first == result,
            ),
        }
    }
    let (report, stats) = first.expect("at least one iteration");
    run.items = (report.posts_total() + report.reads_total()) as u64;
    run.attempted = run.items * run.wall_s.len() as u64;
    run.check(
        "posts_total equals the trace's activity count",
        report.posts_total() == dataset.activity_count(),
    );
    run.check(
        "post events equal the trace's activity count",
        stats.post_events == dataset.activity_count() as u64,
    );
    run.check(
        "read events equal the reads issued",
        stats.read_events == report.reads_total() as u64,
    );
    run.note("users", spec.users);
    run.note("reads_per_friend_day", SPINE_READS);

    let replay = median(&run.wall_s);
    run.set("node.events", stats.events_processed as f64);
    run.set("node.session_events", stats.session_events as f64);
    run.set("node.post_events", stats.post_events as f64);
    run.set("node.read_events", stats.read_events as f64);
    run.set("node.delivery_events", stats.delivery_events as f64);
    run.set("node.replay_s", replay);
    run.set("node.events_per_s", stats.events_processed as f64 / replay);
    if run.trace {
        layers::events_log(run, &dataset, &spec, SPINE_READS, &config, &report)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The drives

/// A daemon with a session opened on it, ready for the request stream.
struct Ready {
    stream: RequestStream,
    daemon: Daemon,
    conn: Connection,
    journal: Option<PathBuf>,
}

/// Everything before the first request: the driver-side stream, the
/// daemon's socket, `Hello`, and `Open`→`Opened` (the daemon's own
/// synthesis, schedules and placement). Returns its wall time too.
fn set_up(
    run: &mut Run,
    spec: &SimSpec,
    reads: f64,
    journal: Option<PathBuf>,
) -> Result<(Ready, f64), String> {
    std::fs::create_dir_all(&run.work)
        .map_err(|e| format!("cannot create {}: {e}", run.work.display()))?;
    let whole = run.spans.begin("set-up", "driver");
    let stream = stream::build(spec, reads, &mut run.spans);
    run.sessions += 1;
    let socket = run.work.join(format!("d{}.sock", run.sessions));
    let (daemon, _) = run.spans.time("Server::bind", "daemon", || {
        Daemon::start(&socket, journal.clone())
    });
    let daemon = daemon.map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
    let (conn, _) = run
        .spans
        .time("Hello", "daemon", || Connection::hello(daemon.socket()));
    let mut conn = conn?;
    let (recovered, open_s) = run
        .spans
        .time("Open", "daemon", || conn.open(spec, &stream));
    let recovered = recovered?;
    let secs = run.spans.end(whole);
    if recovered == 0 {
        run.set("daemon.open_s", open_s);
    }
    Ok((
        Ready {
            stream,
            daemon,
            conn,
            journal,
        },
        secs,
    ))
}

fn fresh_journal(run: &Run) -> PathBuf {
    run.work.join(format!("journal{}", run.sessions + 1))
}

/// `Finish`, teardown, and every gate on what the pass produced.
fn finish_and_check(
    run: &mut Run,
    ready: Ready,
    driven: &Drive,
    reference: &ReportParts,
) -> Result<(), String> {
    let Ready {
        stream,
        daemon,
        mut conn,
        journal,
    } = ready;
    let (report, _) = run.spans.time("Finish", "daemon", || conn.finish());
    drop(conn);
    daemon.stop()?;
    let requests = stream.len() as u64;
    run.attempted += requests;
    run.failed += driven.failed;
    run.check(
        "every request was acknowledged",
        driven.acked == requests && driven.failed == 0,
    );
    let report = report?;
    run.check(
        "the daemon's report equals the batch run's, field for field",
        report == *reference,
    );
    run.check(
        "posts_total equals the trace's activity count",
        report.posts_total == stream.posts,
    );
    if let Some(dir) = journal {
        let (verified, verify_s) = run
            .spans
            .time("verify", "store", || dosn_store::verify(&dir));
        let verified = verified.map_err(|e| format!("journal does not verify: {e}"))?;
        run.check(
            "the journal verifies clean",
            verified.tail == TailState::Clean && verified.index == IndexFinding::Matches,
        );
        run.check(
            "the journal holds one record per request",
            verified.records == requests,
        );
        run.set("store.verify_s", verify_s);
        run.set("store.log_bytes", verified.clean_bytes as f64);
        run.set(
            "store.log_bytes_per_req",
            verified.clean_bytes as f64 / requests as f64,
        );
        run.set("store.segments", verified.segments as f64);
        if run.trace {
            layers::scan_journal(run, &dir, requests)?;
        }
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// The batch run's report for the spec the stream was built from — what
/// the daemon must reproduce.
fn reference_report(stream: &RequestStream, spec: &SimSpec, reads: f64) -> ReportParts {
    let batch = batch_sim(&stream.dataset, spec, reads);
    ReportParts::from_report(&batch.run(&spec.study_config()))
}

/// The harness's own view of one pass.
fn set_driver_metrics(run: &mut Run, driven: &Drive) {
    run.set("driver.achieved_req_per_s", driven.req_per_s());
    run.set("driver.lat_p99_us", driven.lat_quantile_us(0.99));
    run.set("driver.lat_p999_us", driven.lat_quantile_us(0.999));
    run.set("driver.lat_max_ms", driven.lat_max_ms());
    run.set("driver.backlog_max", driven.backlog_max as f64);
}

fn note_drive(run: &mut Run, stream: &RequestStream, reads: f64) {
    run.note("users", stream.dataset.user_count());
    run.note("reads_per_friend_day", reads);
    run.note("requests", stream.len());
    run.note(
        "read_share",
        format!("{:.3}", stream.reads as f64 / stream.len() as f64),
    );
}

/// Drives the whole request stream of `spec` through a fresh daemon
/// [`CLOSED_PASSES`] times, closed loop; each pass is one set-up sample
/// and one timed sample. Returns the batch report every pass was
/// checked against.
fn closed_passes(
    run: &mut Run,
    spec: &SimSpec,
    reads: f64,
    journal: bool,
) -> Result<ReportParts, String> {
    let mut reference: Option<ReportParts> = None;
    for pass in 0..run.iterations(CLOSED_PASSES) {
        let dir = journal.then(|| fresh_journal(run));
        let (mut ready, setup_s) = set_up(run, spec, reads, dir)?;
        run.setup_s.push(setup_s);
        if pass == 0 {
            run.probe_host();
        }
        let (driven, _) = run.spans.time("request stream", "driver", || {
            drive::closed_loop(&mut ready.conn, &ready.stream)
        });
        let reference =
            *reference.get_or_insert_with(|| reference_report(&ready.stream, spec, reads));
        run.wall_s.push(driven.wall_s);
        run.items = ready.stream.len() as u64;
        set_driver_metrics(run, &driven);
        run.set("driver.closed_lat_p50_us", driven.lat_quantile_us(0.5));
        if pass == 0 {
            note_drive(run, &ready.stream, reads);
            if run.trace {
                layers::isolate(
                    run,
                    spec,
                    &ready.stream,
                    journal,
                    driven.req_per_s(),
                    &reference,
                )?;
            }
        }
        finish_and_check(run, ready, &driven, &reference)?;
    }
    reference.ok_or_else(|| "no closed-loop pass ran".to_string())
}

fn closed_drive(run: &mut Run, journal: bool) -> Result<(), String> {
    let spec = run.spec(run.sizes.spine_users);
    run.note("loop", format!("closed, {} outstanding", drive::WINDOW));
    let reference = closed_passes(run, &spec, SPINE_READS, journal)?;
    if journal && run.trace {
        recover(run, &spec, &reference)?;
    }
    Ok(())
}

/// Restart cost: streams a whole session into a journaling daemon,
/// drops the connection without `Finish`, reconnects, and times
/// `Open`→`Opened{recovered}`; the recovered session must still finish
/// with the batch report.
fn recover(run: &mut Run, spec: &SimSpec, reference: &ReportParts) -> Result<(), String> {
    let dir = fresh_journal(run);
    let (mut ready, _) = set_up(run, spec, SPINE_READS, Some(dir))?;
    let driven = drive::closed_loop(&mut ready.conn, &ready.stream);
    let Ready {
        stream,
        daemon,
        conn,
        journal,
    } = ready;
    drop(conn);
    let requests = stream.len() as u64;
    // The abandoned session releases the journal when it sees EOF;
    // until then a new `Open` is refused.
    let deadline = Instant::now() + JOURNAL_RELEASE_WAIT;
    let (conn, recovered, recover_s) = loop {
        let mut conn = Connection::hello(daemon.socket())?;
        let started = run.spans.begin("Open (recover)", "daemon");
        let opened = conn.open(spec, &stream);
        let secs = run.spans.end(started);
        match opened {
            Ok(recovered) => break (conn, recovered, secs),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("the journal could not be reopened: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    run.check(
        "every journaled request was recovered",
        recovered == requests && driven.acked == requests,
    );
    run.set("daemon.recover_s", recover_s);
    run.set("daemon.recover_req_per_s", recovered as f64 / recover_s);
    let resumed = Drive {
        acked: requests,
        ..Drive::default()
    };
    finish_and_check(
        run,
        Ready {
            stream,
            daemon,
            conn,
            journal,
        },
        &resumed,
        reference,
    )
}

fn open_reads_journal(run: &mut Run) -> Result<(), String> {
    let spec = run.spec(run.sizes.open_users);
    // What the daemon can do with this mix comes first, closed loop: the
    // gated `req_per_s`. The open-loop pass then offers a fixed share of
    // it; its rate is the offered one by construction, so its latencies
    // are what it measures, per layer.
    let reference = closed_passes(run, &spec, OPEN_READS, true)?;
    let capacity = run.items as f64 / median(&run.wall_s);
    let mut refusals = Vec::new();
    for attempt in 0..OPEN_ATTEMPTS {
        let dir = fresh_journal(run);
        let (mut ready, setup_s) = set_up(run, &spec, OPEN_READS, Some(dir))?;
        if attempt == 0 {
            run.setup_s.push(setup_s);
        }
        let due_ns = poisson_due_ns(run.seed, OFFERED_REQ_PER_S, ready.stream.len());
        let (driven, _) = run.spans.time("open request stream", "driver", || {
            drive::open_loop(&mut ready.conn, &ready.stream, &due_ns)
        });
        if let Some(why) = &driven.invalid {
            // The load was not the load asked for: the numbers are not
            // reported. The outputs are still checked.
            eprintln!(
                "ledger: open-loop attempt {} does not count: {why}",
                attempt + 1
            );
            refusals.push(why.clone());
            let before = (run.attempted, run.failed);
            finish_and_check(run, ready, &driven, &reference)?;
            (run.attempted, run.failed) = before;
            continue;
        }
        set_driver_metrics(run, &driven);
        run.set("lat_p50_us", driven.lat_quantile_us(0.5));
        run.set("driver.offered_req_per_s", OFFERED_REQ_PER_S);
        run.set("driver.late_p99_us", quantile(&driven.lateness_us, 0.99));
        run.set("driver.gap_frac", driven.gap_frac);
        run.note(
            "loop",
            format!(
                "closed, {} outstanding, then open: Poisson arrivals at {OFFERED_REQ_PER_S} req/s, {:.2} of the closed-loop rate",
                drive::WINDOW,
                OFFERED_REQ_PER_S / capacity
            ),
        );
        run.note("latency_samples", driven.latency_us.len());
        run.note(
            "late_sends",
            format!(
                "{:.4} of all sends over 1 ms late; {} of {} windows over 1 %",
                driven.late_frac,
                driven.disturbed_windows,
                drive::LATENCY_WINDOWS
            ),
        );
        run.note("invalid_attempts", refusals.len());
        return finish_and_check(run, ready, &driven, &reference);
    }
    Err(format!(
        "no open-loop run passed the generator's self-check: {}",
        refusals.join("; ")
    ))
}
