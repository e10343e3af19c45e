//! The traced run: the calls into each layer's public functions, timed
//! from here as spans (name, start, end, parent, unit id, allocations)
//! kept in memory and written out as JSONL when the run ends. Nothing
//! is added inside the program; its own span profiler is not used.
//!
//! One pass is one unit id. It runs the cold unit split into its three
//! layers (resolve, oracle probe, run), an untraced cold unit for the
//! tracing overhead, then each remaining layer call once, then the
//! campaign and store layers on the workload's campaign, and last the
//! registry replay with `optimal_subset` on its peak interval. Passes
//! repeat while another fits in the run length; each metric is the
//! median over passes.

use crate::workload::{resolver, Fingerprint, REPLAY_DIGEST, REPLAY_ID, REPLAY_INTERVALS};
use crate::{alloc_counts, digest, fits, guarded, median, report_digest, Checks, Metric, Run};
use ecp_campaign::{exec, report, run_hash, write_html, CampaignSpec, ExecOptions, ResultStore};
use ecp_routing::{optimal_subset, OracleConfig};
use ecp_scenario::{
    resolution_key, resolve, run_resolved, run_resolved_traced, run_scenario, EngineSpec, PeakSpec,
    ReplaySpec, ResolvedScenario, Scenario, TablesSpec, TraceSpec,
};
use ecp_traffic::{geant_like_trace, Demand, TrafficMatrix};
use respons_core::{PathTables, Planner};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("topo.arcs", "count"),
    ("scenario.pairs", "count"),
    ("core.paths", "count"),
    ("campaign.runs", "count"),
    ("scenario.resolve_ms", "ms"),
    ("scenario.resolve_allocs", "count"),
    ("core.plan_ms", "ms"),
    ("core.plan_allocs", "count"),
    ("routing.subset_eps_ms", "ms"),
    ("routing.subset_loaded_ms", "ms"),
    ("routing.oracle_ms", "ms"),
    ("scenario.run_ms", "ms"),
    ("scenario.run_allocs", "count"),
    ("core.replay_ms_per_interval", "ms"),
    ("scenario.report_bytes", "bytes"),
    ("scenario.report_encode_ms", "ms"),
    ("simnet.events_processed", "count"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.dirty_arc_recomputes", "count"),
    ("simnet.samples", "count"),
    ("simnet.power_transitions", "count"),
    ("simnet.te_reconfigs", "count"),
    ("control.control_rounds", "count"),
    ("control.agent_decisions", "count"),
    ("control.skipped_clean", "count"),
    ("control.skip_frac", "ratio"),
    ("control.waterfill_iterations", "count"),
    ("telemetry.trace_overhead_frac", "ratio"),
    ("telemetry.trace_lines", "count"),
    ("campaign.expand_ms", "ms"),
    ("campaign.execute_ms", "ms"),
    ("campaign.execute_allocs", "count"),
    ("campaign.resume_ms", "ms"),
    ("campaign.resume_allocs", "count"),
    ("campaign.summarize_ms", "ms"),
    ("campaign.render_ms", "ms"),
    ("store.save_ms_per_run", "ms"),
    ("store.load_ms_per_run", "ms"),
    ("store.bytes_per_run", "bytes"),
    ("campaign.executed", "count"),
    ("campaign.cached", "count"),
    ("scenario.resolution_keys", "count"),
    ("bench.span_overhead_frac", "ratio"),
    ("bench.unattributed_ms", "ms"),
];

/// One recorded span.
struct Span {
    name: &'static str,
    unit: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    bytes: u64,
}

/// In-memory span recorder. Capacity is reserved up front so that
/// recording a span does not allocate inside the span around it.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::with_capacity(64),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name` under the innermost open span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            bytes: 0,
        });
        self.stack.push(idx);
        let (a0, b0) = alloc_counts();
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let (a1, b1) = alloc_counts();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = a1 - a0;
        span.bytes = b1 - b0;
        self.stack.pop();
        out
    }

    /// Index of this unit's last span named `name`.
    fn last_index(&self, name: &str) -> Result<usize, String> {
        self.spans
            .iter()
            .rposition(|s| s.name == name && s.unit == self.unit)
            .ok_or_else(|| format!("no span {name} in unit {}", self.unit))
    }

    /// This unit's last span named `name`, as (milliseconds, allocations).
    fn last(&self, name: &str) -> Result<(f64, f64), String> {
        let s = &self.spans[self.last_index(name)?];
        Ok(((s.end_ns - s.start_ns) as f64 / 1e6, s.allocs as f64))
    }

    /// Span duration minus the time its children cover (children run
    /// one after another on this thread, so they do not overlap).
    fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns.saturating_sub(c.start_ns))
            .sum();
        s.end_ns.saturating_sub(s.start_ns).saturating_sub(children)
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"unit\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"allocs\": {}, \"bytes\": {}}}",
                s.name,
                s.unit,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.allocs,
                s.bytes
            )?;
        }
        out.flush()
    }

    /// Per span name: (count, median duration ms, median self ms).
    fn table(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6);
            e.1.push(self.self_ns(i) as f64 / 1e6);
        }
        by_name
            .into_iter()
            .map(|(k, (d, s))| (k, (d.len(), median(&d), median(&s))))
            .collect()
    }
}

/// Per-pass values of each metric.
#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

/// What every pass reuses, built untimed before the first.
struct Prepared {
    /// The scenario the scenario-layer calls run: the workload's own,
    /// or the campaign's first expanded run.
    scenario: Scenario,
    campaign: CampaignSpec,
    /// The registry replay.
    replay: Scenario,
}

pub fn run(run: &Run, root: &Path, checks: &mut Checks) -> Vec<Metric> {
    let prep = match prepare(run) {
        Ok(p) => p,
        Err(e) => {
            checks.unit(Err(e));
            return Vec::new();
        }
    };
    let mut t = Tracer::new();
    let mut series = Series::default();
    let start = Instant::now();
    let mut pass_secs = Vec::new();
    loop {
        let p0 = Instant::now();
        let out = guarded(|| pass(run, &prep, &mut t, &mut series, checks));
        checks.unit(out);
        t.stack.clear();
        pass_secs.push(p0.elapsed().as_secs_f64());
        t.unit += 1;
        if !fits(start.elapsed(), run.seconds, &pass_secs) {
            break;
        }
    }

    let spans = root.join(format!(
        "spans-{}-seed{}.jsonl",
        run.workload.name(),
        run.seed
    ));
    match t.write_jsonl(&spans) {
        Ok(()) => println!("  spans: {} written to {}", t.spans.len(), spans.display()),
        Err(e) => checks.unit(Err(format!("write {}: {e}", spans.display()))),
    }
    println!(
        "  {:<28} {:>5} {:>12} {:>12}",
        "span", "n", "p50 ms", "self p50 ms"
    );
    for (name, (n, dur, own)) in t.table() {
        println!("  {name:<28} {n:>5} {dur:>12.3} {own:>12.3}");
    }
    let get = |name: &str| series.0.get(name).map_or(f64::NAN, |v| median(v));
    println!(
        "  cold unit accounting: resolve {:.3} + oracle {:.3} + run {:.3} = {:.3} ms; \
         traced unit {:.3} ms; untraced run_scenario {:.3} ms",
        get("scenario.resolve_ms"),
        get("routing.oracle_ms"),
        get("scenario.run_ms"),
        get("scenario.resolve_ms") + get("routing.oracle_ms") + get("scenario.run_ms"),
        get("bench.traced_unit_ms"),
        get("bench.untraced_unit_ms"),
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = Metric::new(name, get(name), unit);
            println!(
                "  {:<32} {:>16.6} {unit:<6} n={}",
                name,
                m.value,
                pass_secs.len()
            );
            m
        })
        .collect()
}

fn prepare(run: &Run) -> Result<Prepared, String> {
    let campaign = run.workload.campaign(run.seed)?;
    let scenario = match run.workload.scenario() {
        Some(s) => s,
        None => {
            let units = exec::expand(&campaign, &resolver).map_err(|e| e.to_string())?;
            units
                .first()
                .ok_or("campaign expands to no runs")?
                .scenario
                .clone()
        }
    };
    let replay = resolver(REPLAY_ID).ok_or(format!("no registry scenario {REPLAY_ID}"))?;
    Ok(Prepared {
        scenario,
        campaign,
        replay,
    })
}

fn pass(
    run: &Run,
    prep: &Prepared,
    t: &mut Tracer,
    series: &mut Series,
    checks: &mut Checks,
) -> Result<(), String> {
    let s = &prep.scenario;
    let err = |e: ecp_scenario::ScenarioError| e.to_string();

    // The cold unit, split into its three layers.
    let (resolved, report) = t.span("unit.cold", |t| -> Result<_, String> {
        let resolved = t.span("scenario.resolve", |_| resolve(s)).map_err(err)?;
        t.span("routing.oracle", |_| {
            black_box(resolved.max_feasible_volume())
        });
        let report = t
            .span("scenario.run", |_| run_resolved(s, &resolved))
            .map_err(err)?;
        Ok((resolved, report))
    })?;
    let (unit_ms, _) = t.last("unit.cold")?;
    let (resolve_ms, resolve_allocs) = t.last("scenario.resolve")?;
    let (run_ms, run_allocs) = t.last("scenario.run")?;
    series.push("bench.traced_unit_ms", unit_ms);
    let unattributed = t.self_ns(t.last_index("unit.cold")?);
    series.push("bench.unattributed_ms", unattributed as f64 / 1e6);
    series.push("scenario.resolve_ms", resolve_ms);
    series.push("scenario.resolve_allocs", resolve_allocs);
    series.push("routing.oracle_ms", t.last("routing.oracle")?.0);
    series.push("scenario.run_ms", run_ms);
    series.push("scenario.run_allocs", run_allocs);

    // The same unit untraced, for the tracing overhead.
    let t0 = Instant::now();
    let untraced = report_digest(run_scenario(s))?;
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
    series.push("bench.untraced_unit_ms", untraced_ms);
    series.push("bench.span_overhead_frac", unit_ms / untraced_ms - 1.0);

    let json = t.span("scenario.report_encode", |_| serde_json::to_string(&report));
    let json = json.map_err(|e| e.to_string())?;
    series.push(
        "scenario.report_encode_ms",
        t.last("scenario.report_encode")?.0,
    );
    series.push("scenario.report_bytes", json.len() as f64);
    let d = digest(&json);
    if d != untraced {
        return Err(format!(
            "split cold unit digest {d} differs from run_scenario's {untraced}"
        ));
    }
    if !run.workload.is_campaign() {
        checks.digest(&d)?;
    }

    let tables = t.span("core.plan", |_| plan(s, &resolved))?;
    if tables != resolved.tables {
        return Err("re-run Planner::plan_pairs differs from the resolved tables".into());
    }
    let (plan_ms, plan_allocs) = t.last("core.plan")?;
    series.push("core.plan_ms", plan_ms);
    series.push("core.plan_allocs", plan_allocs);

    let topo = &resolved.built.topo;
    let power = &resolved.power;
    let oracle = OracleConfig::default();
    let eps = eps_matrix(&resolved.pairs);
    t.span("routing.subset_eps", |_| {
        black_box(optimal_subset(topo, power, &eps, &oracle))
    });
    series.push("routing.subset_eps_ms", t.last("routing.subset_eps")?.0);

    let traced = t.span("telemetry.run_traced", |_| {
        run_resolved_traced(s, &resolved)
    });
    let (traced_report, trace) = traced.map_err(err)?;
    if serde_json::to_string(&traced_report).map_err(|e| e.to_string())? != json {
        return Err("traced report differs from the untraced one".into());
    }
    series.push(
        "telemetry.trace_overhead_frac",
        t.last("telemetry.run_traced")?.0 / run_ms - 1.0,
    );
    series.push("telemetry.trace_lines", trace.lines.len() as f64);
    let counter = |name: &str| {
        trace
            .snapshot
            .as_ref()
            .map_or(0.0, |s| s.counter(name) as f64)
    };
    let events = counter("events_processed");
    series.push("simnet.events_processed", events);
    series.push("simnet.events_per_s", events / (run_ms / 1e3));
    for (metric, name) in [
        ("simnet.dirty_arc_recomputes", "dirty_arc_recomputes"),
        ("simnet.samples", "samples"),
        ("simnet.power_transitions", "power_transitions"),
        ("simnet.te_reconfigs", "te_reconfigs"),
        ("control.control_rounds", "control_rounds"),
        ("control.agent_decisions", "agent_decisions"),
        ("control.skipped_clean", "skipped_clean"),
        ("control.waterfill_iterations", "waterfill_iterations"),
    ] {
        series.push(metric, counter(name));
    }
    let (decided, skipped) = (counter("agent_decisions"), counter("skipped_clean"));
    let considered = decided + skipped;
    series.push(
        "control.skip_frac",
        if considered > 0.0 {
            skipped / considered
        } else {
            0.0
        },
    );

    let runs = campaign_layers(run, prep, t, series, checks)?;
    let fp = Fingerprint::of(&resolved, runs);
    series.push("topo.arcs", fp.arcs as f64);
    series.push("scenario.pairs", fp.pairs as f64);
    series.push("core.paths", fp.paths as f64);
    series.push("campaign.runs", fp.runs as f64);
    run.workload.fingerprint().check(&fp)?;
    replay_layers(&prep.replay, t, series)
}

/// The registry replay: its run per interval, and `optimal_subset` on
/// the matrix of its busiest interval, the capacity-binding demands the
/// replay recomputes a subset for.
fn replay_layers(s: &Scenario, t: &mut Tracer, series: &mut Series) -> Result<(), String> {
    let err = |e: ecp_scenario::ScenarioError| e.to_string();
    let resolved = t.span("replay.resolve", |_| resolve(s)).map_err(err)?;
    t.span("replay.oracle", |_| {
        black_box(resolved.max_feasible_volume())
    });
    let report = t
        .span("core.replay", |_| run_resolved(s, &resolved))
        .map_err(err)?;
    if report.samples != REPLAY_INTERVALS {
        return Err(format!(
            "replay ran {} intervals, pinned {REPLAY_INTERVALS}",
            report.samples
        ));
    }
    let d = digest(&serde_json::to_string(&report).map_err(|e| e.to_string())?);
    if d != REPLAY_DIGEST {
        return Err(format!(
            "replay digest {d} differs from the pinned {REPLAY_DIGEST}"
        ));
    }
    series.push(
        "core.replay_ms_per_interval",
        t.last("core.replay")?.0 / REPLAY_INTERVALS as f64,
    );

    let peak = peak_matrix(s, &resolved)?;
    let topo = &resolved.built.topo;
    let subset = t.span("routing.subset_loaded", |_| {
        optimal_subset(topo, &resolved.power, &peak, &OracleConfig::default())
    });
    subset.ok_or("optimal_subset found no subset for the replay's peak interval")?;
    series.push(
        "routing.subset_loaded_ms",
        t.last("routing.subset_loaded")?.0,
    );
    Ok(())
}

/// The matrix of the replay trace's busiest interval, built with the
/// trace generator and arguments the replay engine uses.
fn peak_matrix(s: &Scenario, resolved: &ResolvedScenario) -> Result<TrafficMatrix, String> {
    let EngineSpec::Replay(ReplaySpec {
        trace:
            TraceSpec::GeantLike {
                peak: PeakSpec::MaxFeasibleFraction { fraction },
            },
        ..
    }) = s.engine
    else {
        return Err(format!(
            "{REPLAY_ID} is not a GÉANT-like replay at a feasible fraction"
        ));
    };
    let days = ((s.duration_s / 86_400.0).ceil() as usize).max(1);
    let peak_bps = fraction * resolved.max_feasible_volume();
    let trace = geant_like_trace(
        &resolved.built.topo,
        &resolved.pairs,
        days,
        peak_bps,
        s.seed,
    );
    if trace.matrices.len() != REPLAY_INTERVALS {
        return Err(format!(
            "rebuilt trace has {} intervals, pinned {REPLAY_INTERVALS}",
            trace.matrices.len()
        ));
    }
    trace
        .matrices
        .into_iter()
        .max_by(|a, b| a.total().total_cmp(&b.total()))
        .ok_or_else(|| "empty replay trace".into())
}

/// The campaign and store layers on the workload's campaign, into a
/// fresh store. Returns the campaign's run count.
fn campaign_layers(
    run: &Run,
    prep: &Prepared,
    t: &mut Tracer,
    series: &mut Series,
    checks: &mut Checks,
) -> Result<usize, String> {
    let spec = &prep.campaign;
    let dir = run.work.join("campaign");
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: ecp_campaign::CampaignError| e.to_string();

    let units = t
        .span("campaign.expand", |_| exec::expand(spec, &resolver))
        .map_err(io)?;
    series.push("campaign.expand_ms", t.last("campaign.expand")?.0);
    let keys: BTreeSet<String> = units.iter().map(|u| resolution_key(&u.scenario)).collect();
    series.push("scenario.resolution_keys", keys.len() as f64);

    let store = ResultStore::open(&dir).map_err(io)?;
    // Two workers for the campaign workload; a scenario workload's
    // one-run campaign stays on one thread like its other units.
    let opts = ExecOptions {
        threads: Some(if run.workload.is_campaign() { 2 } else { 1 }),
        ..Default::default()
    };
    let shards = spec.shard_count();
    let cold = t.span("campaign.execute", |_| {
        exec::run_campaign(spec, &resolver, &store, shards, &opts)
    });
    let cold = cold.map_err(io)?;
    let (execute_ms, execute_allocs) = t.last("campaign.execute")?;
    series.push("campaign.execute_ms", execute_ms);
    series.push("campaign.execute_allocs", execute_allocs);
    if cold.executed != cold.unique || cold.failed != 0 {
        return Err(format!("cold campaign stats {cold}"));
    }

    let warm = t.span("campaign.resume", |_| {
        exec::run_campaign(spec, &resolver, &store, shards, &opts)
    });
    let warm = warm.map_err(io)?;
    let (resume_ms, resume_allocs) = t.last("campaign.resume")?;
    series.push("campaign.resume_ms", resume_ms);
    series.push("campaign.resume_allocs", resume_allocs);
    series.push("campaign.executed", cold.executed as f64);
    series.push("campaign.cached", warm.cached as f64);
    if warm.executed != 0 || warm.failed != 0 || warm.cached != cold.unique {
        return Err(format!("resumed campaign stats {warm}"));
    }

    let summary = t.span("campaign.summarize", |_| {
        report::summarize(spec, &resolver, &store)
    });
    let summary = summary.map_err(io)?;
    series.push("campaign.summarize_ms", t.last("campaign.summarize")?.0);
    t.span("campaign.render", |_| {
        report::write_artifacts(&summary, &dir)?;
        write_html(&summary, &store, &dir)
    })
    .map_err(io)?;
    series.push("campaign.render_ms", t.last("campaign.render")?.0);
    if run.workload.is_campaign() {
        checks.digest(&digest(&summary.to_json()))?;
    }

    // Store round trip: load every stored run, save them all again.
    let mut hashes: Vec<String> = units.iter().map(|u| run_hash(&u.scenario)).collect();
    hashes.sort();
    hashes.dedup();
    let n = hashes.len() as f64;
    let bytes: u64 = hashes
        .iter()
        .map(|h| std::fs::metadata(store.path(h)).map(|m| m.len()))
        .sum::<std::io::Result<u64>>()
        .map_err(|e| e.to_string())?;
    series.push("store.bytes_per_run", bytes as f64 / n);
    let stored = t.span("store.load", |_| {
        hashes
            .iter()
            .map(|h| store.load(h))
            .collect::<Option<Vec<_>>>()
    });
    let stored = stored.ok_or("a stored run failed to load")?;
    series.push("store.load_ms_per_run", t.last("store.load")?.0 / n);
    let scratch = ResultStore::open(&dir.join("resave")).map_err(io)?;
    t.span("store.save", |_| {
        stored.iter().try_for_each(|r| scratch.save(r))
    })
    .map_err(io)?;
    series.push("store.save_ms_per_run", t.last("store.save")?.0 / n);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(units.len())
}

/// Re-run the planner on the resolved topology, pairs and planner
/// configuration, as `resolve` does for planned tables.
fn plan(s: &Scenario, resolved: &ResolvedScenario) -> Result<PathTables, String> {
    if s.planner.peak_level().is_some() {
        return Err("the planner reads the offered peak matrix; not re-planned here".into());
    }
    let cfg = s.planner.to_config(None);
    let planner = Planner::new(&resolved.built.topo, &resolved.power);
    match s.tables {
        TablesSpec::Planned => Ok(planner.plan_pairs(&cfg, &resolved.pairs)),
        TablesSpec::PlannedAllPairs => Ok(planner.plan(&cfg)),
        _ => Err(format!("tables {:?} are not planned", s.tables)),
    }
}

/// ε demands (1 bit/s) over the pairs, as the planner's always-on
/// stage builds them.
fn eps_matrix(pairs: &[(ecp_topo::NodeId, ecp_topo::NodeId)]) -> TrafficMatrix {
    TrafficMatrix::new(
        pairs
            .iter()
            .map(|&(origin, dst)| Demand {
                origin,
                dst,
                rate: 1.0,
            })
            .collect(),
    )
}
