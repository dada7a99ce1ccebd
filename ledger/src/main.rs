//! One performance ledger for the dosn workspace.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one process
//! ledger run   [--seed n] [--seconds s] [--quick]                   every workload, end-to-end metrics
//! ledger trace [--seed n] [--seconds s] [--quick] [--spans path]    every workload, per-layer metrics + spans
//! ledger aa    [--sets 2] [--seed n] [--out path]                  same build twice, against the bounds
//! ```
//!
//! The first form is what `BENCHMARK.json` names; the others spawn it
//! once per workload, so each workload's `peak_rss_mb` is its own.
//! README.md beside this crate is the glossary.

mod drive;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod stream;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Outcome, Run};

const DEFAULT_SEED: u64 = 2012;
const SPANS_FILE: &str = "target/ledger/trace.jsonl";

/// Per-layer metrics the untraced run prints beside the gated ones.
const ALSO_SHOWN: [&str; 5] = [
    "wall_s",
    "peak_rss_mb",
    "lat_p50_us",
    "driver.fail_frac",
    "store.log_bytes_per_req",
];

/// Runs behind each value `aa` compares. One run per set is at the mercy
/// of a single slow run (the host has stretches where everything takes
/// 20–30 % longer), so a set's value is the median of three, taken in
/// rounds that alternate which set goes first.
const RUNS_PER_SET: usize = 3;

/// `--flag value` pairs and bare `--switches` after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag} {raw:?} is not valid")),
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.first().is_some_and(|a| !a.starts_with("--")) {
        args.remove(0)
    } else {
        String::new()
    };
    let flags = Flags(args);
    let outcome = match command.as_str() {
        "" if flags.has("--workload") => one_workload(&flags),
        "run" => all_workloads(&flags, false),
        "trace" => all_workloads(&flags, true),
        "aa" => a_against_a(&flags),
        _ => Err("usage: ledger (--workload <name> --seed <n> --seconds <s> --trace <0|1> | run | trace | aa) \
                  — see ledger/README.md"
            .to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// One workload in this process

/// Where the traced run of `workload` leaves its spans.
fn spans_file(workload: &str) -> PathBuf {
    PathBuf::from(format!("target/ledger/trace-{workload}.jsonl"))
}

fn one_workload(flags: &Flags) -> Result<bool, String> {
    let workload = flags.value("--workload").ok_or("--workload needs a name")?;
    let seed = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", workloads::NOMINAL_SECONDS)?;
    let trace = match flags.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let quick = flags.has("--quick");
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} is not a positive duration"));
    }
    let spans_path = trace.then(|| spans_file(workload));
    let outcome = workloads::run(
        workload,
        Run::new(seed, seconds, trace, quick),
        spans_path.as_deref(),
    )?;

    println!(
        "workload {workload}{}",
        if quick {
            "  (QUICK: a smoke test, the numbers mean nothing)"
        } else {
            ""
        }
    );
    for (key, value) in &outcome.context {
        println!("  context  {key} = {value}");
    }
    for (what, ok) in &outcome.checks {
        println!("  check    {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let gap = outcome.layer.get("driver.gap_frac").copied().unwrap_or(0.0);
    for (name, unit, value) in selected_metrics(&outcome, trace) {
        println!("  metric   {name} = {value} {unit}   (driver.gap_frac {gap:.4})");
    }
    if !trace {
        // The issue's other five end-to-end names are per-layer metrics
        // (README.md says why); the untraced run still shows them.
        for &(name, unit, _) in PER_LAYER
            .iter()
            .filter(|(name, ..)| ALSO_SHOWN.contains(name))
        {
            if let Some(value) = outcome.layer.get(name) {
                println!("  also     {name} = {value} {unit}");
            }
        }
    }
    for (layer, secs) in &outcome.self_time_by_layer {
        println!("  self     {layer} {secs:.4} s");
    }
    println!("{}", result_line(&outcome, trace, quick));
    Ok(outcome.correct())
}

/// The metrics this run reports: every end-to-end metric untraced,
/// every per-layer metric traced (0 where the workload bypasses the
/// layer).
fn selected_metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, outcome.layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, outcome.end_to_end[m.name]))
            .collect()
    }
}

fn result_line(outcome: &Outcome, trace: bool, quick: bool) -> String {
    let metrics: Vec<String> = selected_metrics(outcome, trace)
        .into_iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, {}\"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        if quick { "\"quick\": true, " } else { "" },
        metrics.join(", ")
    )
}

// ---------------------------------------------------------------------
// Every workload, each in a child process

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    quick: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

fn spawn_workload(
    workload: &str,
    flags: &Flags,
    trace: bool,
    relay: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let seed: u64 = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", workloads::NOMINAL_SECONDS)?;
    let mut child = Command::new(exe);
    child
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if flags.has("--quick") {
        child.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = child
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if relay {
        println!("{body}");
    }
    if output.status.code() == Some(2) || last.is_empty() {
        return Err(format!(
            "{workload} ended with {} and no result",
            output.status
        ));
    }
    let parsed =
        json::parse(last).map_err(|e| format!("{workload} printed a malformed result: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(found)) = parsed.get("metrics") {
        for (name, entry) in found {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload}: {name} has no value"))?;
            let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
    }
    Ok(ChildResult {
        correct: parsed.get("correct").and_then(Value::as_bool) == Some(true)
            && output.status.success(),
        quick: parsed.get("quick").and_then(Value::as_bool) == Some(true),
        metrics,
    })
}

/// The commit the numbers belong to, when the checkout is a git one.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn load_shape(flags: &Flags) -> Result<String, String> {
    Ok(format!(
        "seed {} seconds {} nproc {} threads {} window {} offered {} req/s commit {}{}",
        flags.parsed("--seed", DEFAULT_SEED)?,
        flags.parsed("--seconds", workloads::NOMINAL_SECONDS)?,
        std::thread::available_parallelism().map_or(0, usize::from),
        workloads::THREADS,
        drive::WINDOW,
        workloads::OFFERED_REQ_PER_S,
        commit(),
        if flags.has("--quick") { " QUICK" } else { "" },
    ))
}

fn all_workloads(flags: &Flags, trace: bool) -> Result<bool, String> {
    println!(
        "ledger {}: {}",
        if trace { "trace" } else { "run" },
        load_shape(flags)?
    );
    let mut all_correct = true;
    let mut table: Vec<(String, ChildResult)> = Vec::new();
    for (workload, _) in WORKLOADS {
        let result = spawn_workload(workload, flags, trace, true)?;
        all_correct &= result.correct;
        table.push((workload.to_string(), result));
    }
    println!(
        "\n{:<40} {}",
        "metric",
        WORKLOADS.map(|(w, _)| format!("{w:>18}")).join(" ")
    );
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (name, unit) in names {
        let cells: Vec<String> = table
            .iter()
            .map(|(_, r)| {
                r.metrics
                    .get(name)
                    .map_or("-".to_string(), |(v, _)| format!("{:>18}", short(*v)))
            })
            .collect();
        println!("{:<40} {}", format!("{name} [{unit}]"), cells.join(" "));
    }
    if trace {
        let spans = flags.value("--spans").unwrap_or(SPANS_FILE);
        let mut joined = String::new();
        for (workload, _) in WORKLOADS {
            let part = spans_file(workload);
            joined += &std::fs::read_to_string(&part)
                .map_err(|e| format!("cannot read {}: {e}", part.display()))?;
        }
        std::fs::write(spans, joined).map_err(|e| format!("cannot write {spans}: {e}"))?;
        println!("\nspans: {spans}");
    }
    println!(
        "\n{}",
        if all_correct {
            "every check passed"
        } else {
            "A CHECK FAILED"
        }
    );
    Ok(all_correct)
}

/// Four significant digits, for the tables only; result lines carry
/// every digit.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

// ---------------------------------------------------------------------
// A/A: the same build against itself

/// How much worse `later` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, later: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (later - first) / first,
        Better::Higher => (first - later) / first,
    }
}

fn a_against_a(flags: &Flags) -> Result<bool, String> {
    let sets: usize = flags.parsed("--sets", 2)?;
    if sets < 2 {
        return Err("--sets must be at least 2".to_string());
    }
    if flags.has("--quick") {
        return Err("aa refuses --quick: quick numbers mean nothing".to_string());
    }
    let shape = load_shape(flags)?;
    println!("ledger aa: {sets} sets of {RUNS_PER_SET} runs, {shape}");
    let mut all_correct = true;
    // samples[set][workload][metric] = one value per run.
    let mut samples = vec![vec![BTreeMap::<String, Vec<f64>>::new(); WORKLOADS.len()]; sets];
    for round in 0..RUNS_PER_SET {
        let mut order: Vec<usize> = (0..sets).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for set in order {
            for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
                eprintln!(
                    "round {} of {RUNS_PER_SET}, set {}: {workload}",
                    round + 1,
                    set + 1
                );
                let result = spawn_workload(workload, flags, false, false)?;
                if result.quick {
                    return Err(format!("{workload} ran quick; aa refuses quick results"));
                }
                all_correct &= result.correct;
                for (name, (value, _)) in result.metrics {
                    samples[set][w].entry(name).or_default().push(value);
                }
            }
        }
    }
    let mut all_ok = all_correct;
    let mut rows = Vec::new();
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "worst later", "worse by", "bound"
    );
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for metric in END_TO_END {
            let values: Vec<f64> = samples
                .iter()
                .map(|set| {
                    set[w]
                        .get(metric.name)
                        .map(|runs| stats::median(runs))
                        .ok_or_else(|| format!("{workload} did not report {}", metric.name))
                })
                .collect::<Result<_, _>>()?;
            let (worst, by) = values[1..]
                .iter()
                .map(|&v| (v, worsening(values[0], v, metric.better).abs()))
                .fold(
                    (values[0], 0.0),
                    |acc, cur| if cur.1 > acc.1 { cur } else { acc },
                );
            let ok = by <= metric.bound;
            all_ok &= ok;
            println!(
                "{workload:<20} {:<12} {:>14} {:>14} {:>8.2}% {:>6.0}% {}",
                metric.name,
                short(values[0]),
                short(worst),
                by * 100.0,
                metric.bound * 100.0,
                if ok { "" } else { "EXCEEDS" }
            );
            rows.push(format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"values\": [{}], \"differs_by\": {}, \"bound\": {}, \"within\": {ok}}}",
                json::quote(workload),
                json::quote(metric.name),
                json::quote(metric.unit),
                values.iter().map(|v| json::num(*v)).collect::<Vec<_>>().join(", "),
                json::num(by),
                json::num(metric.bound),
            ));
        }
    }
    let out = flags.value("--out").unwrap_or("target/ledger/aa.json");
    let document = format!(
        "{{\n  \"what\": \"ledger aa: {sets} sets of the same build, each value the median of {RUNS_PER_SET} runs; each end-to-end metric's largest difference against its bound\",\n  \
         \"runs_per_set\": {RUNS_PER_SET},\n  \"load_shape\": {},\n  \"all_within\": {all_ok},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json::quote(&shape),
        rows.join(",\n")
    );
    if let Some(dir) = Path::new(out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, document).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "\nwrote {out}\n{}",
        if all_ok {
            "every metric within its bound"
        } else {
            "A METRIC EXCEEDS ITS BOUND (or a check failed)"
        }
    );
    Ok(all_ok)
}
