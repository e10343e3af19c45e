//! Simulator perf harness — the source of the repo's BENCH trajectory.
//!
//! Times the simulation of representative registry scenarios
//! (`sim_ms`) and emits `BENCH_simnet.json`. A second pass measures the
//! telemetry overhead (no-op sink vs JSONL sink, `overhead` block) and
//! asserts a traced run leaves the report byte-identical.
//!
//! ```text
//! cargo run --release -p ecp-bench --bin perf                  # full (150 s te-stability family)
//! cargo run --release -p ecp-bench --bin perf -- --quick 1 \
//!     --ceiling-s 120 --out BENCH_simnet.json                  # CI smoke: scaled runs + wall-clock ceiling
//! perf record  [--bench FILE] [--history FILE]                 # append a git-sha-stamped snapshot
//! perf history [--history FILE] [--metric NAME]                # print the recorded trajectory
//! perf gate    [--bench FILE] [--history FILE] [--threshold P]
//!              [--against SHA]                                  # HEAD vs snapshot; exit 1 on regression, 2 without baseline
//! ```
//!
//! Timing is best-of-`--iters` per scenario; planning (topology build,
//! Dijkstra/Yen, oracle probes) happens once per scenario through
//! `ecp_scenario::resolve` and is excluded, so the numbers isolate the
//! simulator hot loop. Criterion microbenches of the individual kernels
//! live in `crates/bench/benches/{load_accounting,routing_paths}.rs`.
//!
//! The **observatory** subcommands turn one-off BENCH files into a
//! trajectory. `record` flattens a BENCH file into scalar metrics and
//! appends one JSONL snapshot (UTC timestamp + git sha + quick flag) to
//! `results/bench_history/simnet.jsonl`; `history` tabulates the
//! snapshots; `gate` compares a freshly-measured BENCH file against the
//! last recorded snapshot (or the last one matching a `--against
//! <git_sha>` prefix) with per-metric direction heuristics
//! (`*_ms`/allocs/bytes regress upward, `rounds_per_s` regresses
//! downward) and a relative noise threshold (`--threshold 25`
//! or `25%`), printing greppable `GATE OK` / `GATE FAIL` lines and
//! exiting 1 on any regression or 2 (one-line `GATE ERROR` on stderr)
//! when the history is missing/empty or no snapshot matches.

use ecp_bench::{arg, print_table};
use ecp_scenario::{run_resolved, run_resolved_traced, ControlSpec, ScenarioReport};
use ecp_simnet::{SimConfig, Simulation};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Counting global allocator when built with `--features count-allocs`,
/// so the `allocs` block carries measured allocs/round instead of null.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTING_ALLOC: ecp_telemetry::alloc_count::CountingAllocator =
    ecp_telemetry::alloc_count::CountingAllocator;

#[derive(Serialize)]
struct ScenarioTiming {
    id: String,
    samples: usize,
    /// Best-of-`iters` wall-clock of the simulation, ms.
    sim_ms: f64,
}

#[derive(Serialize)]
struct OverheadTiming {
    id: String,
    /// Untraced wall-clock (no-op sink statically compiled out), ms.
    baseline_ms: f64,
    /// Wall-clock with the JSONL sink recording every event, ms.
    traced_ms: f64,
    /// `traced / baseline - 1` (0 = free, 0.05 = 5 % slower).
    overhead_frac: f64,
    /// Events the traced run emitted.
    trace_events: usize,
    reports_identical: bool,
}

/// The telemetry-overhead block: the cost of running the te-stability
/// family with the JSONL sink on versus the default no-op sink. The
/// no-op path is the one golden hashes and the `sim_ms` numbers above
/// are measured on; this block pins that tracing is pay-as-you-go.
#[derive(Serialize)]
struct TelemetryOverhead {
    scenarios: Vec<OverheadTiming>,
    family_baseline_ms: f64,
    family_traced_ms: f64,
    family_overhead_frac: f64,
}

/// One policy's decision-path measurement: throughput of warmed,
/// sampling-free control rounds (pure observe→decide→apply on the
/// registry te-stability shape), plus — when the harness is built with
/// `--features count-allocs` — the heap allocations that path makes
/// per round (0.0 since the zero-alloc refactor; `null` without the
/// feature).
#[derive(Serialize)]
struct PolicyAllocs {
    id: String,
    /// Control rounds driven through the measured window.
    rounds: u64,
    /// Warmed decision-path control rounds per second.
    policy_rounds_per_s: f64,
    /// Heap allocations per round (needs `count-allocs`).
    allocs_per_round: Option<f64>,
    /// Heap bytes allocated per round (needs `count-allocs`).
    bytes_per_round: Option<f64>,
}

#[derive(Serialize)]
struct BenchFile {
    /// Schema tag; bump on layout changes.
    schema: &'static str,
    /// `git rev-parse HEAD` at measurement time (`"unknown"` outside a
    /// work tree), so BENCH files pin the exact code they measured.
    git_sha: String,
    /// Measurement wall time, UTC (`YYYY-MM-DDTHH:MM:SSZ`).
    recorded_at_utc: String,
    quick: bool,
    iters: usize,
    te_stability_duration_s: f64,
    te_stability_load: f64,
    /// Network/agent multiplier of the te-stability measurement points
    /// (`te_stability_scaled`): 1 = the golden-pinned registry shape.
    te_stability_scale: usize,
    /// The te-stability family: sustained-overload coupled flows on
    /// the PoP-access ISP, one entry per control policy.
    te_stability: Vec<ScenarioTiming>,
    /// Other representative simnet registry scenarios (CI-scaled).
    representative: Vec<ScenarioTiming>,
    /// Wall-clock of simulating the whole te-stability family.
    family_sim_ms: f64,
    /// Cost of turning the telemetry JSONL sink on.
    overhead: TelemetryOverhead,
    /// Per-policy decision-path throughput + allocation accounting.
    allocs: Vec<PolicyAllocs>,
}

/// Best-of-`iters` wall-clock of one scenario; returns (millis, last
/// report).
fn time_run(
    scenario: &ecp_scenario::Scenario,
    resolved: &ecp_scenario::ResolvedScenario,
    iters: usize,
) -> (f64, ScenarioReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let report = run_resolved(scenario, resolved).expect("perf scenario runs");
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    (best, last.expect("at least one iteration"))
}

fn time_scenario(
    id: &str,
    scenario: &ecp_scenario::Scenario,
    resolved: &ecp_scenario::ResolvedScenario,
    iters: usize,
) -> ScenarioTiming {
    // Untimed warmup: populates the resolution's lazy caches (the
    // max-feasible oracle probe) and the allocator, so the timed runs
    // measure only the simulation even at --iters 1.
    let _ = run_resolved(scenario, resolved).expect("perf scenario runs");
    let (sim_ms, report) = time_run(scenario, resolved, iters);
    ScenarioTiming {
        id: id.to_string(),
        samples: report.samples,
        sim_ms,
    }
}

/// Sink-off vs JSONL-sink-on wall-clock of one scenario (best of
/// `iters`). Asserts the serialized reports are byte-identical: with
/// `metrics.telemetry` unset, a traced run must not perturb the report
/// in any way.
fn time_overhead(
    id: &str,
    scenario: &ecp_scenario::Scenario,
    resolved: &ecp_scenario::ResolvedScenario,
    iters: usize,
) -> OverheadTiming {
    let (baseline_ms, baseline_report) = time_run(scenario, resolved, iters);
    let mut traced_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        let out = run_resolved_traced(scenario, resolved).expect("perf scenario runs traced");
        traced_ms = traced_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    let (traced_report, trace) = last.expect("at least one iteration");
    let identical = serde_json::to_string(&baseline_report).expect("report serializes")
        == serde_json::to_string(&traced_report).expect("report serializes");
    assert!(
        identical,
        "{id}: traced report diverged from the untraced run"
    );
    OverheadTiming {
        id: id.to_string(),
        baseline_ms,
        traced_ms,
        overhead_frac: traced_ms / baseline_ms.max(1e-9) - 1.0,
        trace_events: trace.lines.len(),
        reports_identical: identical,
    }
}

/// Measure one policy's warmed decision path on the registry
/// te-stability shape (unscaled, 44 gravity pairs): sampling is pushed
/// past the window so the measured events are control rounds only,
/// then `rounds` rounds are timed — and, with `count-allocs`, their
/// heap allocations counted.
fn time_decision_path(id: &str, control: &ControlSpec, rounds: u64) -> PolicyAllocs {
    let scenario = ecp_bench::scenarios::te_stability(10.0, 0.7, *control);
    let resolved = ecp_scenario::resolve(&scenario).expect("perf scenario resolves");
    let cfg = SimConfig {
        control_interval: 0.5,
        wake_time: 5.0,
        detect_delay: 0.5,
        sleep_after: 2.0,
        sample_interval: 1e9,
        ..SimConfig::default()
    };
    let mut sim = Simulation::with_policy(
        &resolved.built.topo,
        &resolved.power,
        &resolved.tables,
        cfg,
        control.build(),
    );
    for &(o, d) in &resolved.pairs {
        sim.add_flow(&resolved.tables, o, d, 2e7);
    }
    sim.run_until(5.0);
    #[cfg(feature = "count-allocs")]
    let (a0, b0) = (
        ecp_telemetry::alloc_count::allocations(),
        ecp_telemetry::alloc_count::bytes_allocated(),
    );
    let t0 = Instant::now();
    sim.run_until(5.0 + rounds as f64 * 0.5);
    let dt = t0.elapsed().as_secs_f64();
    #[cfg(feature = "count-allocs")]
    let (allocs_per_round, bytes_per_round) = (
        Some((ecp_telemetry::alloc_count::allocations() - a0) as f64 / rounds as f64),
        Some((ecp_telemetry::alloc_count::bytes_allocated() - b0) as f64 / rounds as f64),
    );
    #[cfg(not(feature = "count-allocs"))]
    let (allocs_per_round, bytes_per_round) = (None, None);
    PolicyAllocs {
        id: id.to_string(),
        rounds,
        policy_rounds_per_s: rounds as f64 / dt.max(1e-9),
        allocs_per_round,
        bytes_per_round,
    }
}

/// `git rev-parse HEAD`, or `"unknown"` when git is unavailable.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ` (civil-from-days, no
/// external time crates).
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0) as i64;
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let (hh, mm, ss) = (rem / 3600, (rem / 60) % 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// One recorded point of the BENCH trajectory
/// (`results/bench_history/*.jsonl`, one JSON object per line).
#[derive(Serialize, Deserialize)]
struct HistoryRecord {
    schema: String,
    recorded_at_utc: String,
    git_sha: String,
    quick: bool,
    metrics: BTreeMap<String, f64>,
}

/// Flatten a BENCH JSON document into dotted scalar metrics — the
/// common currency of `record`, `history`, and `gate`. Works on any
/// `ecp-bench-perf/*` schema: arrays of `{id, ...}` blocks become
/// `<block>.<id>.<field>`, top-level numbers pass through.
fn flatten_metrics(doc: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Value::Object(top) = doc else {
        return out;
    };
    for (key, val) in top {
        match val {
            Value::Array(entries) => {
                for entry in entries {
                    let Value::Object(fields) = entry else {
                        continue;
                    };
                    let Some(id) = fields.get("id").and_then(Value::as_str) else {
                        continue;
                    };
                    for (f, v) in fields {
                        if let Some(x) = v.as_f64() {
                            out.insert(format!("{key}.{id}.{f}"), x);
                        }
                    }
                }
            }
            Value::Object(fields) => {
                for (f, v) in fields {
                    if let Some(x) = v.as_f64() {
                        out.insert(format!("{key}.{f}"), x);
                    }
                }
            }
            _ => {
                if let Some(x) = val.as_f64() {
                    out.insert(key.clone(), x);
                }
            }
        }
    }
    out
}

/// Object-field lookup on a JSON value (`None` for non-objects).
fn field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    match doc {
        Value::Object(m) => m.get(key),
        _ => None,
    }
}

fn read_bench(path: &str) -> Value {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read bench file {path}: {e} (run `perf` first)"));
    serde_json::from_str(&doc).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn read_history(path: &str) -> Vec<HistoryRecord> {
    let Ok(doc) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    doc.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("parse {path}: {e}")))
        .collect()
}

fn default_history_path() -> String {
    ecp_bench::results_dir()
        .join("bench_history")
        .join("simnet.jsonl")
        .display()
        .to_string()
}

/// `perf record`: flatten a BENCH file and append one snapshot to the
/// history JSONL. Sha/timestamp/quick come from the BENCH file itself
/// (schema /4 and later stamp them) with a fresh fallback for older files.
fn cmd_record() {
    let bench: String = arg("bench", "BENCH_simnet.json".to_string());
    let history: String = arg("history", default_history_path());
    let doc = read_bench(&bench);
    let record = HistoryRecord {
        schema: "ecp-bench-history/1".into(),
        recorded_at_utc: field(&doc, "recorded_at_utc")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(utc_now),
        git_sha: field(&doc, "git_sha")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(git_sha),
        quick: field(&doc, "quick")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        metrics: flatten_metrics(&doc),
    };
    if let Some(dir) = std::path::Path::new(&history).parent() {
        std::fs::create_dir_all(dir).expect("create history dir");
    }
    let line = serde_json::to_string(&record).expect("history record serializes");
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .unwrap_or_else(|e| panic!("open {history}: {e}"));
    writeln!(f, "{line}").expect("append history record");
    println!(
        "recorded {} ({} metrics, quick={}) -> {history}",
        record.git_sha,
        record.metrics.len(),
        record.quick
    );
}

/// `perf history`: tabulate the recorded trajectory, headline metrics
/// by default or one `--metric` across every snapshot.
fn cmd_history() {
    let history: String = arg("history", default_history_path());
    let metric: String = arg("metric", String::new());
    let records = read_history(&history);
    if records.is_empty() {
        println!("no snapshots in {history}");
        return;
    }
    let fmt = |r: &HistoryRecord, name: &str| {
        r.metrics
            .get(name)
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".into())
    };
    let (headers, rows): (Vec<&str>, Vec<Vec<String>>) = if metric.is_empty() {
        (
            vec!["recorded (UTC)", "sha", "quick", "family sim (ms)"],
            records
                .iter()
                .map(|r| {
                    vec![
                        r.recorded_at_utc.clone(),
                        r.git_sha.chars().take(12).collect(),
                        r.quick.to_string(),
                        fmt(r, "family_sim_ms"),
                    ]
                })
                .collect(),
        )
    } else {
        (
            vec!["recorded (UTC)", "sha", "quick", "value"],
            records
                .iter()
                .map(|r| {
                    vec![
                        r.recorded_at_utc.clone(),
                        r.git_sha.chars().take(12).collect(),
                        r.quick.to_string(),
                        fmt(r, &metric),
                    ]
                })
                .collect(),
        )
    };
    let title = if metric.is_empty() {
        format!("BENCH trajectory ({} snapshots)", records.len())
    } else {
        format!("BENCH trajectory: {metric} ({} snapshots)", records.len())
    };
    print_table(&title, &headers, &rows);
}

/// Which way a metric regresses, from its name.
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Neutral,
}

fn direction(name: &str) -> Direction {
    let field = name.rsplit('.').next().unwrap_or(name);
    if field.ends_with("_ms") || field.contains("allocs") || field.contains("bytes") {
        Direction::LowerIsBetter
    } else if field.contains("rounds_per_s") {
        Direction::HigherIsBetter
    } else {
        Direction::Neutral
    }
}

/// `perf gate`: compare a BENCH file against the last recorded
/// snapshot — or, with `--against <git_sha>`, the last snapshot whose
/// sha starts with the argument. Exit 1 (after printing `GATE FAIL`
/// lines) when any directional metric regresses by more than
/// `--threshold` percent; exit 2 with a one-line error when there is
/// no baseline to compare against.
fn cmd_gate() {
    let bench: String = arg("bench", "BENCH_simnet.json".to_string());
    let history: String = arg("history", default_history_path());
    let against: String = arg("against", String::new());
    let threshold_raw: String = arg("threshold", "10%".to_string());
    let threshold: f64 = threshold_raw
        .trim_end_matches('%')
        .parse::<f64>()
        .unwrap_or_else(|_| panic!("bad --threshold `{threshold_raw}` (expected e.g. 25 or 25%)"))
        / 100.0;

    let records = read_history(&history);
    if records.is_empty() {
        eprintln!(
            "GATE ERROR: no baseline snapshot in {history} — run `perf record` first \
             (or point --history at an existing trajectory)"
        );
        std::process::exit(2);
    }
    let doc = match std::fs::read_to_string(&bench)
        .map_err(|e| e.to_string())
        .and_then(|d| serde_json::from_str(&d).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("GATE ERROR: read bench file {bench}: {e} (run `perf` first)");
            std::process::exit(2);
        }
    };
    let head = flatten_metrics(&doc);
    let base = if against.is_empty() {
        records.last().unwrap()
    } else {
        match records.iter().rfind(|r| r.git_sha.starts_with(&against)) {
            Some(r) => r,
            None => {
                eprintln!(
                    "GATE ERROR: no snapshot in {history} matches --against {against} \
                     ({} snapshots, see `perf history`)",
                    records.len()
                );
                std::process::exit(2);
            }
        }
    };
    let head_quick = field(&doc, "quick")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    if base.quick != head_quick {
        println!(
            "note: comparing quick={head_quick} HEAD against quick={} baseline \
             — expect extra noise",
            base.quick
        );
    }

    let mut compared = 0usize;
    let mut regressions = 0usize;
    for (name, &new) in &head {
        let Some(&old) = base.metrics.get(name) else {
            continue;
        };
        if old.abs() < 1e-9 {
            continue;
        }
        let rel = (new - old) / old.abs();
        let worse = match direction(name) {
            Direction::LowerIsBetter => rel > threshold,
            Direction::HigherIsBetter => -rel > threshold,
            Direction::Neutral => continue,
        };
        compared += 1;
        if worse {
            regressions += 1;
            println!(
                "GATE FAIL {name}: {old:.4} -> {new:.4} ({:+.1}%)",
                rel * 100.0
            );
        }
    }
    if regressions > 0 {
        println!(
            "GATE FAIL: {regressions} of {compared} metrics regressed more than {:.0}% \
             vs {}",
            threshold * 100.0,
            base.git_sha
        );
        std::process::exit(1);
    }
    println!(
        "GATE OK: {compared} metrics within {:.0}% of {} ({})",
        threshold * 100.0,
        base.git_sha,
        base.recorded_at_utc
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("record") => return cmd_record(),
        Some("history") => return cmd_history(),
        Some("gate") => return cmd_gate(),
        _ => {}
    }
    let quick: usize = arg("quick", 0);
    let quick = quick != 0;
    let iters: usize = arg("iters", if quick { 1 } else { 3 });
    let duration: f64 = arg("duration", if quick { 20.0 } else { 150.0 });
    let load: f64 = arg("load", 0.7);
    let scale: usize = arg("scale", if quick { 1 } else { 8 });
    let ceiling_s: f64 = arg("ceiling-s", 0.0);
    let out: String = arg("out", "BENCH_simnet.json".to_string());

    let decision_rounds: u64 = arg("decision-rounds", if quick { 400 } else { 4000 });

    let mut te_stability = Vec::new();
    let mut overhead_scenarios = Vec::new();
    let mut allocs = Vec::new();
    for (id, control) in ecp_bench::scenarios::te_stability_policies() {
        let scenario = ecp_bench::scenarios::te_stability_scaled(duration, load, control, scale);
        let resolved = ecp_scenario::resolve(&scenario).expect("perf scenario resolves");
        te_stability.push(time_scenario(id, &scenario, &resolved, iters));
        overhead_scenarios.push(time_overhead(id, &scenario, &resolved, iters));
        allocs.push(time_decision_path(id, &control, decision_rounds));
    }

    let representative_ids = [
        "fig7-click-adaptation",
        "fig8a-pop-access",
        "scenario-cascade-flashcrowd",
        "scenario-rolling-maintenance",
    ];
    let mut representative = Vec::new();
    for id in representative_ids {
        let scenario = ecp_bench::scenarios::campaign_scenario(id)
            .unwrap_or_else(|| panic!("unknown registry id {id}"));
        let resolved = ecp_scenario::resolve(&scenario).expect("perf scenario resolves");
        representative.push(time_scenario(id, &scenario, &resolved, iters));
    }

    let family_sim_ms: f64 = te_stability.iter().map(|t| t.sim_ms).sum();

    let rows: Vec<Vec<String>> = te_stability
        .iter()
        .chain(&representative)
        .map(|t| {
            vec![
                t.id.clone(),
                t.samples.to_string(),
                format!("{:.1}", t.sim_ms),
            ]
        })
        .collect();
    print_table(
        &format!("simulation wall-clock, best of {iters}"),
        &["scenario", "samples", "sim (ms)"],
        &rows,
    );
    println!("te-stability family: {family_sim_ms:.0} ms");

    let family_baseline_ms: f64 = overhead_scenarios.iter().map(|t| t.baseline_ms).sum();
    let family_traced_ms: f64 = overhead_scenarios.iter().map(|t| t.traced_ms).sum();
    let family_overhead_frac = family_traced_ms / family_baseline_ms.max(1e-9) - 1.0;
    let overhead_rows: Vec<Vec<String>> = overhead_scenarios
        .iter()
        .map(|t| {
            vec![
                t.id.clone(),
                format!("{:.1}", t.baseline_ms),
                format!("{:.1}", t.traced_ms),
                format!("{:+.1}%", t.overhead_frac * 100.0),
                t.trace_events.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("telemetry overhead, best of {iters} (no-op sink vs JSONL sink)"),
        &["scenario", "off (ms)", "traced (ms)", "overhead", "events"],
        &overhead_rows,
    );
    println!(
        "telemetry family overhead: {family_baseline_ms:.0} ms off vs \
         {family_traced_ms:.0} ms traced ({:+.1}%)",
        family_overhead_frac * 100.0
    );
    let overhead = TelemetryOverhead {
        scenarios: overhead_scenarios,
        family_baseline_ms,
        family_traced_ms,
        family_overhead_frac,
    };

    let alloc_rows: Vec<Vec<String>> = allocs
        .iter()
        .map(|a| {
            vec![
                a.id.clone(),
                format!("{:.0}", a.policy_rounds_per_s),
                a.allocs_per_round
                    .map_or("n/a".to_string(), |v| format!("{v:.1}")),
                a.bytes_per_round
                    .map_or("n/a".to_string(), |v| format!("{v:.0}")),
            ]
        })
        .collect();
    print_table(
        &format!("decision path, warmed ({decision_rounds} sampling-free control rounds)"),
        &["policy", "rounds/s", "allocs/round", "bytes/round"],
        &alloc_rows,
    );

    if ceiling_s > 0.0 {
        for t in &te_stability {
            assert!(
                t.sim_ms / 1e3 <= ceiling_s,
                "{} took {:.1} s, over the {ceiling_s} s ceiling",
                t.id,
                t.sim_ms / 1e3
            );
        }
        println!("ceiling ok: every te-stability run under {ceiling_s} s");
    }

    let file = BenchFile {
        schema: "ecp-bench-perf/5",
        git_sha: git_sha(),
        recorded_at_utc: utc_now(),
        quick,
        iters,
        te_stability_duration_s: duration,
        te_stability_load: load,
        te_stability_scale: scale,
        te_stability,
        representative,
        family_sim_ms,
        overhead,
        allocs,
    };
    let body = serde_json::to_string_pretty(&file).expect("bench file serializes");
    std::fs::write(&out, body + "\n").expect("write bench file");
    println!("wrote {out}");
}
