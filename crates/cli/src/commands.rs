//! Command dispatch and implementations. Every command writes to a
//! supplied `io::Write`, so tests can capture output.

use std::fmt;
use std::io::Write;

use dosn_core::replay::simulate_update;
use dosn_core::{sweep, MetricKind, ModelKind, PolicyKind, StudyConfig};
use dosn_interval::Timestamp;
use dosn_metrics::update_propagation_delay;
use dosn_replication::Connectivity;
use dosn_socialgraph::UserId;
use dosn_trace::parse::{parse_dataset, ParseKind};
use dosn_trace::{synth, Dataset, TraceError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{ArgError, Args};

/// Error produced by a CLI run: bad arguments, unreadable files, or a
/// dataset problem.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// An option failed to parse.
    Arg(ArgError),
    /// The command or sub-command is unknown.
    Usage(String),
    /// A dataset file could not be read.
    Io(std::io::Error),
    /// Dataset construction failed.
    Trace(TraceError),
    /// A daemon exchange failed (`dosn drive`).
    Daemon(String),
    /// A store operation failed (`--store`, `dosn log`).
    Store(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Arg(e) => e.fmt(f),
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "cannot read dataset file: {e}"),
            CliError::Trace(e) => e.fmt(f),
            CliError::Daemon(msg) => write!(f, "{msg}"),
            CliError::Store(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Arg(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<TraceError> for CliError {
    fn from(e: TraceError) -> Self {
        CliError::Trace(e)
    }
}

/// Runs a parsed command line, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, malformed options, or
/// dataset problems.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    match args.positional().first().map(String::as_str) {
        None | Some("help") => {
            writeln!(out, "{}", crate::USAGE)?;
            Ok(())
        }
        Some("stats") => stats(args, out),
        Some("sweep") => sweep_cmd(args, out),
        Some("replay") => replay(args, out),
        Some("system") => system(args, out),
        Some("fairness") => fairness(args, out),
        Some("predict") => predict(args, out),
        Some("daemon") => daemon_cmd(args, out),
        Some("drive") => drive_cmd(args, out),
        Some("log") => log_cmd(args, out),
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?}; run `dosn help`"
        ))),
    }
}

/// Builds the dataset every command operates on.
fn dataset(args: &Args) -> Result<Dataset, CliError> {
    if let Some(edges_path) = args.get("edges") {
        let activities_path = args.get("activities").ok_or_else(|| {
            CliError::Usage("--edges requires --activities".to_string())
        })?;
        let edges = std::fs::read_to_string(edges_path)?;
        let activities = std::fs::read_to_string(activities_path)?;
        let kind = if args.has("directed") {
            ParseKind::Directed
        } else {
            ParseKind::Undirected
        };
        let parsed = parse_dataset("parsed", &edges, &activities, kind)?;
        return Ok(parsed.dataset);
    }
    let users = args.get_parsed("users", 2_000usize)?;
    let seed = args.get_parsed("seed", 42u64)?;
    match args.get("dataset").unwrap_or("facebook") {
        "facebook" => Ok(synth::facebook_like(users, seed)?),
        "twitter" => Ok(synth::twitter_like(users, seed)?),
        other => Err(CliError::Usage(format!(
            "unknown dataset family {other:?}; expected facebook or twitter"
        ))),
    }
}

fn model(args: &Args) -> Result<ModelKind, CliError> {
    let spec = args.get("model").unwrap_or("sporadic");
    parse_model(spec).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown model {spec:?}; expected sporadic[:SECS], fixed:HOURS or random"
        ))
    })
}

/// Parses a model spec like `sporadic`, `sporadic:600`, `fixed:8`,
/// `random`.
pub(crate) fn parse_model(spec: &str) -> Option<ModelKind> {
    let (head, tail) = match spec.split_once(':') {
        Some((h, t)) => (h, Some(t)),
        None => (spec, None),
    };
    match (head, tail) {
        ("sporadic", None) => Some(ModelKind::sporadic_default()),
        ("sporadic", Some(secs)) => Some(ModelKind::Sporadic {
            session_secs: secs.parse().ok()?,
        }),
        ("fixed", Some(hours)) => Some(ModelKind::fixed_hours(hours.parse().ok()?)),
        ("random", None) => Some(ModelKind::random_length_default()),
        _ => None,
    }
}

fn policies(args: &Args) -> Result<Vec<PolicyKind>, CliError> {
    let Some(raw) = args.get("policies") else {
        return Ok(PolicyKind::paper_trio().to_vec());
    };
    raw.split(',')
        .map(|name| match name.trim() {
            "maxav" => Ok(PolicyKind::MaxAv),
            "maxav-on-demand-time" => Ok(PolicyKind::MaxAvOnDemandTime),
            "maxav-on-demand-activity" => Ok(PolicyKind::MaxAvOnDemandActivity),
            "most-active" => Ok(PolicyKind::MostActive),
            "random" => Ok(PolicyKind::Random),
            other => Err(CliError::Usage(format!("unknown policy {other:?}"))),
        })
        .collect()
}

fn config(args: &Args) -> Result<StudyConfig, CliError> {
    let mut config = StudyConfig::default()
        .with_seed(args.get_parsed("seed", 42u64)?)
        .with_repetitions(args.get_parsed("repetitions", 5usize)?);
    if args.has("unconrep") {
        config = config.with_connectivity(Connectivity::UnconRep);
    }
    Ok(config)
}

fn stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = dataset(args)?;
    writeln!(out, "dataset: {}", ds.name())?;
    writeln!(out, "{}", ds.stats())?;
    Ok(())
}

fn print_table(
    table: &dosn_core::SweepTable,
    args: &Args,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if args.has("json") {
        writeln!(out, "{}", table.to_json())?;
    } else if args.has("csv") {
        write!(out, "{}", table.to_csv())?;
    } else if args.has("plot") {
        for metric in [
            MetricKind::Availability,
            MetricKind::OnDemandTime,
            MetricKind::DelayHours,
        ] {
            writeln!(out, "{}", crate::plot::render_chart(table, metric, 60, 14))?;
        }
    } else {
        for metric in [
            MetricKind::Availability,
            MetricKind::OnDemandTime,
            MetricKind::OnDemandActivity,
            MetricKind::DelayHours,
        ] {
            writeln!(out, "{}", table.to_plot_block(metric))?;
        }
    }
    Ok(())
}

fn sweep_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = dataset(args)?;
    let config = config(args)?;
    let policies = policies(args)?;
    // `--timing` appends per-(model, policy) wall time and users/sec
    // after the table, from the sweep's `*_timed` variant.
    let show_timing = args.has("timing");
    let (table, timing) = match args.positional().get(1).map(String::as_str) {
        Some("degree") => {
            let degree = args.get_parsed("degree", 10usize)?;
            let users = ds.users_with_degree(degree);
            writeln!(
                out,
                "degree sweep over {} users of degree {degree}",
                users.len()
            )?;
            sweep::degree_sweep_timed(&ds, model(args)?, &policies, &users, degree, &config)
        }
        Some("session") => {
            let budget = args.get_parsed("budget", 3usize)?;
            let lengths = args
                .get_list::<u32>("lengths")?
                .unwrap_or_else(|| vec![100, 1_000, 10_000, 86_400]);
            let degree = args.get_parsed("degree", 10usize)?;
            let users = ds.users_with_degree(degree);
            writeln!(
                out,
                "session-length sweep over {} users of degree {degree}, budget {budget}",
                users.len()
            )?;
            sweep::session_length_sweep_timed(&ds, &lengths, &policies, &users, budget, &config)
        }
        Some("user-degree") => {
            let max_degree = args.get_parsed("max-degree", 10usize)?;
            sweep::user_degree_sweep_timed(&ds, model(args)?, &policies, max_degree, &config)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown sweep {other:?}; expected degree, session or user-degree"
            )))
        }
    };
    print_table(&table, args, out)?;
    if show_timing {
        write!(out, "{}", timing.to_text())?;
    }
    Ok(())
}

fn replay(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = dataset(args)?;
    let budget = args.get_parsed("budget", 4usize)?;
    let user = match args.get_parsed("user", usize::MAX)? {
        usize::MAX => ds
            .users()
            .max_by_key(|&u| ds.replica_candidates(u).len())
            .ok_or_else(|| CliError::Usage("dataset has no users".to_string()))?,
        ix if ix < ds.user_count() => UserId::from_index(ix),
        ix => {
            return Err(CliError::Usage(format!(
                "user {ix} out of range (dataset has {} users)",
                ds.user_count()
            )))
        }
    };
    let config = config(args)?;
    let built_model = model(args)?.build();
    let mut rng = StdRng::seed_from_u64(config.seed());
    let schedules = built_model.schedules(&ds, &mut rng);
    let policy = PolicyKind::MaxAv.build();
    let replicas = policy.place(&ds, &schedules, user, budget, config.connectivity(), &mut rng);
    writeln!(out, "user {user}: {} replicas {replicas:?}", replicas.len())?;
    if replicas.len() < 2 {
        writeln!(out, "fewer than two replicas; nothing to propagate")?;
        return Ok(());
    }
    let analytic = update_propagation_delay(&replicas, &schedules);
    match analytic.worst_hours() {
        Some(h) => writeln!(out, "analytic worst-case delay: {h:.2} h")?,
        None => writeln!(out, "replica set is not time-connected")?,
    }
    let start = Timestamp::from_day_and_offset(1, 12 * 3_600);
    let outcome = simulate_update(&replicas, &schedules, 0, start);
    if args.has("json") {
        let rows: Vec<String> = outcome
            .arrivals()
            .iter()
            .enumerate()
            .map(|(i, arrival)| {
                let delay = arrival.arrival.map(|t| t.seconds_since(start));
                replay_arrival_json(
                    arrival.replica,
                    delay,
                    outcome.observed_delay_secs(i, &schedules),
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"user\":{},\"injected_at\":{},\"arrivals\":[{}]}}",
            user.as_u32(),
            start.as_secs(),
            rows.join(",")
        )?;
        return Ok(());
    }
    writeln!(out, "update injected at {start} on {}", replicas[0])?;
    for (i, arrival) in outcome.arrivals().iter().enumerate() {
        let delay = arrival.arrival.map(|t| t.seconds_since(start));
        writeln!(
            out,
            "{}",
            replay_arrival_line(
                arrival.replica,
                delay,
                outcome.observed_delay_secs(i, &schedules),
            )
        )?;
    }
    Ok(())
}

/// One replica row of the replay table. An update that never arrives —
/// or arrives with no observed wait on record — renders a `-` cell:
/// "undelivered" must never be printed as the `0.00 h` of an instant
/// delivery.
fn replay_arrival_line(
    replica: UserId,
    delay_secs: Option<u64>,
    observed_secs: Option<u64>,
) -> String {
    match delay_secs {
        Some(delay) => {
            let observed = match observed_secs {
                Some(s) => format!("{:.2} h", s as f64 / 3_600.0),
                None => "-".to_string(),
            };
            format!(
                "  {replica}: +{:.2} h (observed {observed})",
                delay as f64 / 3_600.0
            )
        }
        None => format!("  {replica}: never reached (observed -)"),
    }
}

/// One replica row of `replay --json`: a missing delay is `null`, never
/// a numeric zero.
fn replay_arrival_json(
    replica: UserId,
    delay_secs: Option<u64>,
    observed_secs: Option<u64>,
) -> String {
    let num = |v: Option<u64>| match v {
        Some(s) => format!("{:.6}", s as f64 / 3_600.0),
        None => "null".to_string(),
    };
    format!(
        "{{\"replica\":{},\"delay_h\":{},\"observed_h\":{}}}",
        replica.as_u32(),
        num(delay_secs),
        num(observed_secs)
    )
}

/// Parses `--cloud [--latency SECS]` into a dissemination mode.
/// `--latency` without `--cloud` is rejected outright: the flag only
/// parameterizes the store, and silently ignoring it would report
/// friend-to-friend numbers as if they honored the requested latency.
fn dissemination(args: &Args) -> Result<dosn_node::DisseminationMode, CliError> {
    if args.has("cloud") {
        Ok(dosn_node::DisseminationMode::Cloud {
            latency_secs: args.get_parsed("latency", 60u64)?,
        })
    } else if args.get("latency").is_some() {
        Err(CliError::Usage(
            "--latency only applies to --cloud dissemination; \
             add --cloud or drop --latency"
                .to_string(),
        ))
    } else {
        Ok(dosn_node::DisseminationMode::FriendToFriend)
    }
}

/// The `, cloud Ns` suffix of the per-policy report header.
fn medium_suffix(dissemination: dosn_node::DisseminationMode) -> String {
    match dissemination {
        dosn_node::DisseminationMode::FriendToFriend => String::new(),
        dosn_node::DisseminationMode::Cloud { latency_secs } => {
            format!(", cloud {latency_secs}s")
        }
    }
}

fn system(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    if args.get("store").is_some() {
        return system_store(args, out);
    }
    let ds = dataset(args)?;
    let config = config(args)?;
    let budget = args.get_parsed("budget", 4usize)?;
    let policy_list = policies(args)?;
    let model = model(args)?;
    let reads = args.get_parsed("reads", 0.1f64)?;
    let dissemination = dissemination(args)?;
    let medium = medium_suffix(dissemination);
    for policy in policy_list {
        let report = dosn_node::SystemSim::new(&ds)
            .model(model)
            .policy(policy)
            .replication_degree(budget)
            .reads_per_friend_day(reads)
            .dissemination(dissemination)
            .run(&config);
        writeln!(out, "== {} x{budget}{medium} ==", policy.label())?;
        writeln!(out, "{report}\n")?;
    }
    Ok(())
}

fn store_err(e: dosn_store::StoreError) -> CliError {
    CliError::Store(e.to_string())
}

/// `system --store DIR`: the batch run with every consumed event
/// streamed into a fresh append-only event log, so `dosn log replay`
/// can reproduce the report from disk alone. The log header records the
/// wire spec, which restricts this mode to a single policy over a
/// synthetic dataset — the same restriction `drive` has.
fn system_store(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use dosn_store::{log_exists, LogKind, LogWriter};
    let dir = std::path::PathBuf::from(args.get("store").unwrap_or_default());
    let policy_list = policies(args)?;
    let [policy] = policy_list[..] else {
        return Err(CliError::Usage(
            "--store captures exactly one run; pass a single --policies value".to_string(),
        ));
    };
    if log_exists(&dir) {
        return Err(CliError::Store(format!(
            "{} already holds a log; pass a fresh directory",
            dir.display()
        )));
    }
    let spec = drive_spec(args, policy)?;
    let reads = args.get_parsed("reads", 0.1f64)?;
    let ds = spec
        .synthesize()
        .map_err(|e| CliError::Store(format!("cannot realize spec: {e}")))?;
    let mut writer = LogWriter::create(&dir, LogKind::Events, &dosn_daemon::encode_spec(&spec))
        .map_err(store_err)?;
    let report = dosn_node::SystemSim::new(&ds)
        .model(spec.model)
        .policy(spec.policy)
        .replication_degree(spec.replication_degree as usize)
        .reads_per_friend_day(reads)
        .dissemination(spec.dissemination)
        .run_with_sink(&spec.study_config(), &mut writer);
    let stats = writer.finish().map_err(store_err)?;
    let medium = medium_suffix(spec.dissemination);
    writeln!(out, "== {} x{}{medium} ==", policy.label(), spec.replication_degree)?;
    writeln!(out, "{report}")?;
    writeln!(
        out,
        "store:                 {} events, {} bytes in {} segment(s) -> {}",
        stats.records,
        stats.bytes,
        stats.segments,
        dir.display()
    )?;
    Ok(())
}

/// `dosn log <verify|compact|replay> --store DIR` — offline inspection
/// and maintenance of a store directory.
fn log_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = std::path::PathBuf::from(args.get("store").ok_or_else(|| {
        CliError::Usage("log requires --store DIR".to_string())
    })?);
    match args.positional().get(1).map(String::as_str) {
        Some("verify") => log_verify(&dir, out),
        Some("compact") => log_compact(&dir, out),
        Some("replay") => log_replay(&dir, out),
        other => Err(CliError::Usage(format!(
            "unknown log sub-command {other:?}; expected verify, compact or replay"
        ))),
    }
}

fn log_verify(dir: &std::path::Path, out: &mut dyn Write) -> Result<(), CliError> {
    use dosn_store::{IndexFinding, TailState};
    let report = dosn_store::verify(dir).map_err(store_err)?;
    writeln!(out, "log:      {} ({})", dir.display(), report.kind)?;
    writeln!(
        out,
        "records:  {} across {} chain(s) in {} segment(s)",
        report.records, report.chains, report.segments
    )?;
    match report.tail {
        TailState::Clean => writeln!(out, "tail:     clean ({} bytes)", report.clean_bytes)?,
        TailState::Torn { valid_bytes, dropped_bytes } => writeln!(
            out,
            "tail:     torn — {valid_bytes} valid bytes, {dropped_bytes} unrecoverable \
             (a writer crashed mid-frame; resume or compact to truncate)"
        )?,
    }
    match &report.index {
        IndexFinding::Matches => writeln!(out, "index:    matches the scan")?,
        IndexFinding::Absent => writeln!(out, "index:    absent (log was not sealed)")?,
        IndexFinding::Stale(why) => writeln!(out, "index:    stale — {why}")?,
    }
    Ok(())
}

fn log_compact(dir: &std::path::Path, out: &mut dyn Write) -> Result<(), CliError> {
    let report = dosn_store::compact(dir).map_err(store_err)?;
    writeln!(
        out,
        "compacted {}: {} records, {} -> {} bytes, {} -> {} segment(s)",
        dir.display(),
        report.records,
        report.bytes_before,
        report.bytes_after,
        report.segments_before,
        report.segments_after
    )?;
    if report.dropped_tail_bytes > 0 {
        writeln!(out, "dropped a torn tail of {} bytes", report.dropped_tail_bytes)?;
    }
    Ok(())
}

/// Rebuilds the simulation recorded in a store directory and folds its
/// report. An events log replays verbatim into the realized runtime; a
/// journal re-drives the recorded requests through a run (the daemon's
/// recovery path) and finishes it, reporting what a `Finish` at the
/// log's end would have.
fn log_replay(dir: &std::path::Path, out: &mut dyn Write) -> Result<(), CliError> {
    use dosn_store::{read_header, redrive_into, replay_into, LogKind};
    let (kind, meta) = read_header(dir).map_err(store_err)?;
    let spec = dosn_daemon::decode_spec(&meta)
        .map_err(|e| CliError::Store(format!("log header spec invalid: {e}")))?;
    let ds = spec
        .synthesize()
        .map_err(|e| CliError::Store(format!("cannot realize logged spec: {e}")))?;
    let realized = spec.realize(&ds);
    let (records, report) = match kind {
        LogKind::Events => {
            let mut runtime = realized.runtime();
            let scanned = replay_into(dir, &mut runtime).map_err(store_err)?;
            (scanned.records, runtime.into_report())
        }
        LogKind::Journal => {
            let mut run = realized.start();
            let scanned = redrive_into(dir, &mut run).map_err(store_err)?;
            (scanned.records, run.finish().0)
        }
    };
    let medium = medium_suffix(spec.dissemination);
    writeln!(
        out,
        "== {} x{}{medium} (replayed {records} {kind} records) ==",
        spec.policy.label(),
        spec.replication_degree
    )?;
    writeln!(out, "{report}")?;
    Ok(())
}

fn fairness(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use dosn_core::loadbalance::{place_all, place_all_capped};
    let ds = dataset(args)?;
    let config = config(args)?;
    let budget = args.get_parsed("budget", 4usize)?;
    let built_model = model(args)?.build();
    let mut rng = StdRng::seed_from_u64(config.seed());
    let schedules = built_model.schedules(&ds, &mut rng);
    writeln!(
        out,
        "{:<22} {:>8} {:>8} {:>8} {:>12}",
        "placement", "max", "gini", "jain", "availability"
    )?;
    for policy in policies(args)? {
        let sys = place_all(&ds, &schedules, policy, budget, &config);
        writeln!(
            out,
            "{:<22} {:>8} {:>8.3} {:>8.3} {:>12.3}",
            policy.label(),
            sys.load().max_load(),
            sys.load().gini(),
            sys.load().jain_index(),
            sys.availability().mean().unwrap_or(f64::NAN),
        )?;
    }
    if let Some(capacity) = args.get_parsed::<usize>("capacity", 0).ok().filter(|&c| c > 0) {
        let sys = place_all_capped(&ds, &schedules, budget, capacity, &config);
        writeln!(
            out,
            "{:<22} {:>8} {:>8.3} {:>8.3} {:>12.3}",
            format!("capped(max {capacity})"),
            sys.load().max_load(),
            sys.load().gini(),
            sys.load().jain_index(),
            sys.availability().mean().unwrap_or(f64::NAN),
        )?;
    }
    Ok(())
}

fn predict(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use dosn_onlinetime::{PredictionQuality, SchedulePredictor};
    let ds = dataset(args)?;
    let span = ds
        .activities()
        .last()
        .map(|a| a.timestamp().day_index() + 1)
        .unwrap_or(0);
    let history_days = args.get_parsed("history-days", span / 2)?;
    if history_days == 0 || history_days >= span {
        return Err(CliError::Usage(format!(
            "--history-days must lie in 1..{span} for this {span}-day trace"
        )));
    }
    let threshold = args.get_parsed("threshold", 0.25f64)?;
    let session = args.get_parsed("session", 1_200u32)?;
    let predictor = SchedulePredictor::new(session, threshold);
    let mut precision = dosn_metrics::Summary::new();
    let mut recall = dosn_metrics::Summary::new();
    let mut f1 = dosn_metrics::Summary::new();
    for user in ds.users() {
        let predicted = predictor.predict(&ds, user, 0..history_days);
        let actual = predictor.actual(&ds, user, history_days..span);
        if predicted.is_empty() && actual.is_empty() {
            continue;
        }
        let q = PredictionQuality::compare(&predicted, &actual);
        precision.add_opt(q.precision());
        recall.add_opt(q.recall());
        f1.add_opt(q.f1());
    }
    writeln!(
        out,
        "schedule prediction: {history_days}-day history vs days {history_days}..{span}, \
         threshold {threshold}, {session}s sessions"
    )?;
    writeln!(out, "precision: {precision}")?;
    writeln!(out, "recall:    {recall}")?;
    writeln!(out, "F1:        {f1}")?;
    Ok(())
}

/// The socket both serving commands default to.
const DEFAULT_SOCKET: &str = "dosn-daemon.sock";

fn daemon_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use dosn_daemon::{shutdown, Server, ServerConfig, ShutdownFlag};
    let socket = std::path::PathBuf::from(args.get("socket").unwrap_or(DEFAULT_SOCKET));
    let mut server_config = ServerConfig::at(&socket);
    if let Some(pidfile) = args.get("pidfile") {
        server_config.pidfile = Some(std::path::PathBuf::from(pidfile));
    }
    if let Some(store) = args.get("store") {
        server_config.store = Some(std::path::PathBuf::from(store));
    }
    shutdown::install_signal_handlers();
    let server = Server::bind(&server_config)
        .map_err(|e| CliError::Daemon(format!("cannot bind {}: {e}", socket.display())))?;
    writeln!(
        out,
        "dosn daemon: serving on {} (pid {})",
        socket.display(),
        std::process::id()
    )?;
    if let Some(store) = &server_config.store {
        writeln!(out, "dosn daemon: journaling sessions to {}", store.display())?;
    }
    out.flush()?;
    let flag = ShutdownFlag::new();
    server
        .run(&flag)
        .map_err(|e| CliError::Daemon(format!("daemon failed: {e}")))?;
    writeln!(out, "dosn daemon: shut down cleanly")?;
    Ok(())
}

/// Builds the wire spec `drive` ships; the daemon resynthesizes the
/// dataset from it, so only synthetic recipes can cross the wire.
fn drive_spec(args: &Args, policy: PolicyKind) -> Result<dosn_daemon::SimSpec, CliError> {
    use dosn_daemon::{DatasetFamily, SimSpec};
    if args.get("edges").is_some() || args.get("activities").is_some() {
        return Err(CliError::Usage(
            "drive replays synthetic datasets only (the daemon resynthesizes \
             the trace from the spec); drop --edges/--activities"
                .to_string(),
        ));
    }
    let family = match args.get("dataset").unwrap_or("facebook") {
        "facebook" => DatasetFamily::Facebook,
        "twitter" => DatasetFamily::Twitter,
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset family {other:?}; expected facebook or twitter"
            )))
        }
    };
    let users = args.get_parsed("users", 2_000u32)?;
    let seed = args.get_parsed("seed", 42u64)?;
    Ok(SimSpec {
        family,
        users,
        dataset_seed: seed,
        config_seed: seed,
        model: model(args)?,
        policy,
        replication_degree: args.get_parsed("budget", 4u32)?,
        unconrep: args.has("unconrep"),
        dissemination: dissemination(args)?,
    })
}

fn drive_cmd(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let socket = std::path::PathBuf::from(args.get("socket").unwrap_or(DEFAULT_SOCKET));
    let reads = args.get_parsed("reads", 0.1f64)?;
    let policy_list = policies(args)?;
    let bench_out = args.get("bench-out");
    if bench_out.is_some() && policy_list.len() != 1 {
        return Err(CliError::Usage(
            "--bench-out records exactly one run; pass a single --policies value".to_string(),
        ));
    }
    // `--max-requests N` sends a prefix and abandons the session without
    // `Finish` — against a journaling daemon, a later full drive resumes
    // from exactly where this one stopped.
    if let Some(raw) = args.get("max-requests") {
        let max: u64 = raw.parse().map_err(|_| {
            CliError::Usage(format!("--max-requests {raw:?} is not a number"))
        })?;
        let [policy] = policy_list[..] else {
            return Err(CliError::Usage(
                "--max-requests drives exactly one run; pass a single --policies value"
                    .to_string(),
            ));
        };
        let spec = drive_spec(args, policy)?;
        let position = dosn_daemon::drive_prefix(&socket, &spec, reads, max)
            .map_err(|e| CliError::Daemon(e.to_string()))?;
        writeln!(
            out,
            "sent through request {position}, then abandoned the session \
             (resume with a full drive)"
        )?;
        return Ok(());
    }
    for policy in policy_list {
        let spec = drive_spec(args, policy)?;
        let outcome = dosn_daemon::drive(&socket, &spec, reads)
            .map_err(|e| CliError::Daemon(e.to_string()))?;
        let medium = medium_suffix(spec.dissemination);
        writeln!(
            out,
            "== {} x{}{medium} ==",
            policy.label(),
            spec.replication_degree
        )?;
        writeln!(out, "{}", outcome.report)?;
        if outcome.recovered > 0 {
            writeln!(
                out,
                "recovered:             {} requests from the daemon's journal",
                outcome.recovered
            )?;
        }
        writeln!(
            out,
            "requests:              {} in {:.2} s ({:.0} req/s)",
            outcome.requests, outcome.elapsed_secs, outcome.req_per_s
        )?;
        writeln!(
            out,
            "latency:               p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            outcome.latency.p50_ms, outcome.latency.p99_ms, outcome.latency.max_ms
        )?;
        writeln!(out)?;
        if let Some(path) = bench_out {
            std::fs::write(path, drive_bench_json(&spec, &outcome))?;
            writeln!(out, "bench record written to {path}")?;
        }
    }
    Ok(())
}

/// The `BENCH_daemon.json` record of one drive.
fn drive_bench_json(spec: &dosn_daemon::SimSpec, outcome: &dosn_daemon::DriveOutcome) -> String {
    let ratio = |v: Option<f64>| match v {
        Some(r) => format!("{r:.6}"),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"users\": {},\n  \"policy\": \"{}\",\n  \"requests\": {},\n  \
         \"elapsed_s\": {:.6},\n  \"req_per_s\": {:.1},\n  \"p50_ms\": {:.4},\n  \
         \"p99_ms\": {:.4},\n  \"max_ms\": {:.4},\n  \"delivery_ratio\": {},\n  \
         \"read_success_ratio\": {}\n}}\n",
        spec.users,
        spec.policy.label(),
        outcome.requests,
        outcome.elapsed_secs,
        outcome.req_per_s,
        outcome.latency.p50_ms,
        outcome.latency.p99_ms,
        outcome.latency.max_ms,
        ratio(outcome.report.delivery_ratio()),
        ratio(outcome.report.read_success_ratio()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string()));
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf-8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_capture(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        let empty = run_capture(&[]).unwrap();
        assert!(empty.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run_capture(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn stats_on_small_synthetic() {
        let text = run_capture(&["stats", "--users", "120", "--seed", "1"]).unwrap();
        assert!(text.contains("users:              120"), "{text}");
        let tw = run_capture(&["stats", "--users", "120", "--dataset", "twitter"]).unwrap();
        assert!(tw.contains("twitter-like"));
    }

    #[test]
    fn stats_rejects_unknown_family() {
        let err = run_capture(&["stats", "--dataset", "myspace"]).unwrap_err();
        assert!(err.to_string().contains("myspace"));
    }

    #[test]
    fn degree_sweep_plot_and_csv() {
        let base = [
            "sweep", "degree", "--users", "200", "--degree", "4", "--repetitions", "1",
            "--policies", "maxav",
        ];
        let plot = run_capture(&base).unwrap();
        assert!(plot.contains("# replication_degree — availability"));
        let mut with_csv = base.to_vec();
        with_csv.push("--csv");
        let csv = run_capture(&with_csv).unwrap();
        assert!(csv.contains("replication_degree,policy,metric"));
        let mut with_json = base.to_vec();
        with_json.push("--json");
        let json = run_capture(&with_json).unwrap();
        assert!(json.contains("\"x_label\":\"replication_degree\""));
    }

    #[test]
    fn degree_sweep_timing_flag_appends_throughput() {
        let base = [
            "sweep", "degree", "--users", "200", "--degree", "4", "--repetitions", "1",
            "--policies", "maxav,random", "--csv",
        ];
        let without = run_capture(&base).unwrap();
        assert!(!without.contains("users_per_s"), "{without}");
        let mut with_timing = base.to_vec();
        with_timing.push("--timing");
        let text = run_capture(&with_timing).unwrap();
        assert!(text.contains("model\tpolicy\tusers\twall_s\tusers_per_s"), "{text}");
        // One timing line per policy, after the table.
        assert!(text.contains("\tmaxav\t") && text.contains("\trandom\t"), "{text}");
    }

    #[test]
    fn session_sweep_runs() {
        let text = run_capture(&[
            "sweep", "session", "--users", "200", "--degree", "4", "--budget", "2",
            "--lengths", "600,3600", "--repetitions", "1", "--policies", "random",
        ])
        .unwrap();
        assert!(text.contains("session_length_s"));
    }

    #[test]
    fn user_degree_sweep_runs() {
        let text = run_capture(&[
            "sweep", "user-degree", "--users", "200", "--max-degree", "3",
            "--repetitions", "1", "--policies", "maxav", "--unconrep",
        ])
        .unwrap();
        assert!(text.contains("user_degree"));
    }

    #[test]
    fn sweep_rejects_unknown_kind_and_policy() {
        assert!(run_capture(&["sweep", "banana"]).is_err());
        assert!(run_capture(&["sweep", "degree", "--policies", "bogus"]).is_err());
        assert!(run_capture(&["sweep", "degree", "--model", "bogus"]).is_err());
    }

    #[test]
    fn replay_runs_and_validates_user() {
        let text = run_capture(&["replay", "--users", "200", "--budget", "3"]).unwrap();
        assert!(text.contains("update injected") || text.contains("nothing to propagate"));
        let err = run_capture(&["replay", "--users", "50", "--user", "5000"]).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn system_command_runs() {
        let text = run_capture(&[
            "system", "--users", "150", "--budget", "2", "--policies", "maxav",
        ])
        .unwrap();
        assert!(text.contains("== maxav x2 =="));
        assert!(text.contains("delivered:"));
    }

    #[test]
    fn system_command_cloud_dissemination() {
        let text = run_capture(&[
            "system", "--users", "150", "--budget", "2", "--policies", "maxav",
            "--cloud", "--latency", "120", "--reads", "0.0",
        ])
        .unwrap();
        assert!(text.contains("== maxav x2, cloud 120s =="), "{text}");
        // The store bounds every wait by the host's own absence: with an
        // upload latency every spread is complete or the post failed.
        assert!(text.contains("incomplete spreads:    0"), "{text}");
        assert!(text.contains("reads served:          0 of 0"), "{text}");
    }

    #[test]
    fn system_rejects_latency_without_cloud() {
        let err = run_capture(&[
            "system", "--users", "150", "--budget", "2", "--policies", "maxav",
            "--latency", "120",
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("--latency only applies to --cloud"),
            "{err}"
        );
        // The drive command shares the same parse.
        let err = run_capture(&["drive", "--latency", "120"]).unwrap_err();
        assert!(err.to_string().contains("--cloud"), "{err}");
    }

    #[test]
    fn replay_renders_missing_observed_delay_as_blank() {
        use dosn_socialgraph::UserId;
        // An unreached replica must render a '-' cell, never the 0.00 h
        // of an instant delivery.
        let line = replay_arrival_line(UserId::new(7), None, None);
        assert_eq!(line, "  u7: never reached (observed -)");
        assert!(!line.contains("0.00"), "{line}");
        // A reached replica with no observed wait on record: delay
        // prints, the observed cell stays blank.
        let partial = replay_arrival_line(UserId::new(3), Some(7_200), None);
        assert_eq!(partial, "  u3: +2.00 h (observed -)");
        // The delivered case still reports both numbers.
        let full = replay_arrival_line(UserId::new(3), Some(7_200), Some(3_600));
        assert_eq!(full, "  u3: +2.00 h (observed 1.00 h)");
        // JSON: missing values are null, not zero.
        let json = replay_arrival_json(UserId::new(7), None, None);
        assert_eq!(json, "{\"replica\":7,\"delay_h\":null,\"observed_h\":null}");
        let json = replay_arrival_json(UserId::new(2), Some(3_600), Some(1_800));
        assert_eq!(json, "{\"replica\":2,\"delay_h\":1.000000,\"observed_h\":0.500000}");
    }

    #[test]
    fn replay_json_mode_emits_a_document() {
        let text = run_capture(&["replay", "--users", "200", "--budget", "3", "--json"]).unwrap();
        assert!(text.contains("\"arrivals\":["), "{text}");
        assert!(text.contains("\"injected_at\":"), "{text}");
    }

    #[test]
    fn drive_without_daemon_reports_connection_failure() {
        let err = run_capture(&[
            "drive", "--socket", "/nonexistent/dosn.sock", "--users", "120",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Daemon(_)), "{err}");
    }

    #[test]
    fn drive_rejects_parsed_datasets() {
        let err = run_capture(&[
            "drive", "--edges", "x.edges", "--activities", "x.activities",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("synthetic"), "{err}");
    }

    /// The report lines of every `== policy ==` block, for comparing
    /// batch and live output.
    fn report_lines(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| {
                [
                    "posts:", "delivered:", "failed:", "staleness", "incomplete",
                    "reads served:", "stored updates", "messages sent",
                ]
                .iter()
                .any(|p| l.trim_start().starts_with(p))
            })
            .collect()
    }

    #[test]
    fn drive_against_live_daemon_matches_batch_system() {
        let socket = std::env::temp_dir()
            .join(format!("dosn-cli-eq-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let sock = socket.to_str().expect("utf-8 temp path").to_string();
        let daemon_sock = sock.clone();
        let daemon = std::thread::spawn(move || {
            run_capture(&["daemon", "--socket", &daemon_sock])
        });
        // Wait for the daemon to bind.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(socket.exists(), "daemon did not bind its socket");
        let common = [
            "--users", "150", "--seed", "7", "--budget", "2",
            "--policies", "maxav", "--reads", "0.2",
        ];
        let mut drive_args = vec!["drive", "--socket", &sock];
        drive_args.extend_from_slice(&common);
        let live = run_capture(&drive_args).expect("drive succeeds");
        let mut system_args = vec!["system"];
        system_args.extend_from_slice(&common);
        let batch = run_capture(&system_args).expect("system succeeds");
        assert_eq!(
            report_lines(&live),
            report_lines(&batch),
            "live and batch reports diverged:\n--- live ---\n{live}\n--- batch ---\n{batch}"
        );
        assert!(live.contains("latency:"), "{live}");
        assert!(live.contains("req/s"), "{live}");
        // A graceful stop via the wire, so the daemon thread joins.
        dosn_daemon::DaemonClient::connect(&socket)
            .expect("connect for shutdown")
            .shutdown()
            .expect("daemon acknowledges");
        let text = daemon.join().expect("no panic").expect("daemon exits cleanly");
        assert!(text.contains("shut down cleanly"), "{text}");
        assert!(!socket.exists(), "socket removed");
    }

    /// A fresh per-test store directory under the system temp dir.
    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dosn-cli-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn system_store_captures_and_log_replay_reproduces_the_report() {
        let dir = temp_store("events");
        let dir_s = dir.to_str().expect("utf-8 temp path").to_string();
        let common = [
            "--users", "150", "--seed", "7", "--budget", "2",
            "--policies", "maxav", "--reads", "0.2",
        ];
        let mut capture_args = vec!["system", "--store", &dir_s];
        capture_args.extend_from_slice(&common);
        let captured = run_capture(&capture_args).expect("system --store succeeds");
        assert!(captured.contains("store:"), "{captured}");
        // The captured report matches a plain batch run...
        let mut system_args = vec!["system"];
        system_args.extend_from_slice(&common);
        let batch = run_capture(&system_args).expect("system succeeds");
        assert_eq!(report_lines(&captured), report_lines(&batch));
        // ...verify sees a clean, sealed log...
        let verified = run_capture(&["log", "verify", "--store", &dir_s]).unwrap();
        assert!(verified.contains("tail:     clean"), "{verified}");
        assert!(verified.contains("index:    matches the scan"), "{verified}");
        // ...replaying it from disk reproduces the report...
        let replayed = run_capture(&["log", "replay", "--store", &dir_s]).unwrap();
        assert_eq!(report_lines(&replayed), report_lines(&batch));
        // ...and so does replaying the compacted log.
        let compacted = run_capture(&["log", "compact", "--store", &dir_s]).unwrap();
        assert!(compacted.contains("compacted"), "{compacted}");
        let after = run_capture(&["log", "replay", "--store", &dir_s]).unwrap();
        assert_eq!(report_lines(&after), report_lines(&batch));
        // A second capture into the same directory is refused.
        let err = run_capture(&capture_args).unwrap_err();
        assert!(err.to_string().contains("already holds a log"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_command_validates_its_arguments() {
        let err = run_capture(&["log", "verify"]).unwrap_err();
        assert!(err.to_string().contains("--store"), "{err}");
        let err = run_capture(&["log", "defragment", "--store", "/tmp/x"]).unwrap_err();
        assert!(err.to_string().contains("unknown log sub-command"), "{err}");
        let dir = temp_store("missing");
        let err =
            run_capture(&["log", "verify", "--store", dir.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Store(_)), "{err}");
    }

    #[test]
    fn journaled_daemon_resumes_an_interrupted_drive() {
        let dir = temp_store("journal");
        let dir_s = dir.to_str().expect("utf-8 temp path").to_string();
        let socket = std::env::temp_dir()
            .join(format!("dosn-cli-journal-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let sock = socket.to_str().expect("utf-8 temp path").to_string();
        let common = [
            "--users", "150", "--seed", "7", "--budget", "2",
            "--policies", "maxav", "--reads", "0.2",
        ];
        let start_daemon = |sock: &str, dir: &str| {
            let sock = sock.to_string();
            let dir = dir.to_string();
            std::thread::spawn(move || {
                run_capture(&["daemon", "--socket", &sock, "--store", &dir])
            })
        };
        let wait_for_bind = |socket: &std::path::Path| {
            for _ in 0..200 {
                if socket.exists() {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            panic!("daemon did not bind its socket");
        };
        let shutdown = |socket: &std::path::Path| {
            dosn_daemon::DaemonClient::connect(socket)
                .expect("connect for shutdown")
                .shutdown()
                .expect("daemon acknowledges");
        };
        // Session 1: send a prefix, abandon without Finish, stop the daemon.
        let daemon = start_daemon(&sock, &dir_s);
        wait_for_bind(&socket);
        let mut prefix_args = vec!["drive", "--socket", &sock, "--max-requests", "40"];
        prefix_args.extend_from_slice(&common);
        let partial = run_capture(&prefix_args).expect("prefix drive succeeds");
        assert!(partial.contains("sent through request 40"), "{partial}");
        shutdown(&socket);
        daemon.join().expect("no panic").expect("daemon exits cleanly");
        // Session 2: a fresh daemon on the same store resumes from the
        // journal; the full drive skips the recovered prefix and its
        // report matches the uninterrupted batch run.
        let daemon = start_daemon(&sock, &dir_s);
        wait_for_bind(&socket);
        let mut drive_args = vec!["drive", "--socket", &sock];
        drive_args.extend_from_slice(&common);
        let live = run_capture(&drive_args).expect("resumed drive succeeds");
        assert!(
            live.contains("recovered:             40 requests"),
            "{live}"
        );
        let mut system_args = vec!["system"];
        system_args.extend_from_slice(&common);
        let batch = run_capture(&system_args).expect("system succeeds");
        assert_eq!(
            report_lines(&live),
            report_lines(&batch),
            "resumed live run diverged from batch:\n--- live ---\n{live}\n--- batch ---\n{batch}"
        );
        shutdown(&socket);
        daemon.join().expect("no panic").expect("daemon exits cleanly");
        // The finished journal verifies clean and replays offline to the
        // same report the batch run produced.
        let verified = run_capture(&["log", "verify", "--store", &dir_s]).unwrap();
        assert!(verified.contains("(journal)"), "{verified}");
        assert!(verified.contains("tail:     clean"), "{verified}");
        let replayed = run_capture(&["log", "replay", "--store", &dir_s]).unwrap();
        assert_eq!(report_lines(&replayed), report_lines(&batch));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fairness_command_runs() {
        let text = run_capture(&[
            "fairness", "--users", "150", "--budget", "3", "--policies", "maxav,random",
            "--capacity", "4",
        ])
        .unwrap();
        assert!(text.contains("gini"));
        assert!(text.contains("capped(max 4)"));
        assert!(text.contains("random"));
    }

    #[test]
    fn predict_command_runs_and_validates() {
        let text = run_capture(&["predict", "--users", "150", "--history-days", "7"]).unwrap();
        assert!(text.contains("precision:"), "{text}");
        assert!(text.contains("F1:"));
        let err = run_capture(&["predict", "--users", "150", "--history-days", "99"]).unwrap_err();
        assert!(err.to_string().contains("history-days"));
    }

    #[test]
    fn model_spec_parsing() {
        assert_eq!(parse_model("sporadic"), Some(ModelKind::sporadic_default()));
        assert_eq!(
            parse_model("sporadic:600"),
            Some(ModelKind::Sporadic { session_secs: 600 })
        );
        assert_eq!(parse_model("fixed:8"), Some(ModelKind::fixed_hours(8)));
        assert_eq!(parse_model("random"), Some(ModelKind::random_length_default()));
        assert_eq!(parse_model("fixed"), None);
        assert_eq!(parse_model("sporadic:x"), None);
    }

    #[test]
    fn parsed_dataset_path() {
        // Uses the repository sample files (tests run from the crate
        // dir, so go up two levels).
        let text = run_capture(&[
            "stats",
            "--edges",
            "../../data/sample_facebook.edges",
            "--activities",
            "../../data/sample_facebook.activities",
        ])
        .unwrap();
        assert!(text.contains("users:              12"), "{text}");
        let err = run_capture(&["stats", "--edges", "nope.edges"]).unwrap_err();
        assert!(err.to_string().contains("--activities"));
    }
}
