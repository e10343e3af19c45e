//! The campaign CLI: run, shard-work, inspect, and report whole
//! evaluation campaigns (`ecp-campaign`) with the experiment registry
//! (`ecp_bench::scenarios::campaign_registry`) resolving `registry =
//! "<id>"` entries.
//!
//! ```text
//! campaign run    <campaign.toml> [--shards N] [--workers inprocess|subprocess]
//!                                 [--out DIR] [--threads T] [--force] [--only SUB]
//!                                 [--progress jsonl] [--profile]
//! campaign worker <campaign.toml> --shard k/N [--out DIR] [--threads T] [--only SUB]
//!                                 [--progress jsonl] [--profile]
//! campaign report <campaign.toml> [--out DIR] [--only SUB]
//! campaign list   <campaign.toml> [--out DIR] [--only SUB]
//! campaign watch  <campaign.toml> [--file PATH] [--out DIR] [--only SUB]
//!                                 [--html] [--interval-ms N] [--timeout-s S]
//! ```
//!
//! `run` executes every entry (sharded in-process by default, or across
//! `--workers subprocess` re-invocations of this binary), streams each
//! `ScenarioReport` into the content-addressed result store under the
//! output directory, prints `stats: runs=... executed=... cached=...`,
//! and writes the comparison artifacts. A second `run` of the same
//! campaign reports `executed=0`: every run is served from the store.
//! Scenario failures (e.g. unsupported spec combinations) are recorded
//! as failed runs, not aborts; the process exits 0 unless the campaign
//! itself cannot run.
//!
//! `--only SUB` restricts every command to the entries whose name
//! contains `SUB` — iterate on one A/B entry without re-expanding the
//! whole TOML. Results land in the same store, so a later full run
//! reuses them.
//!
//! `--progress jsonl` streams one [`ecp_campaign::ProgressEvent`] JSON
//! line to stdout per run start/finish (delivered fraction and power on
//! finish). With subprocess workers the flag is forwarded, and worker
//! stdout is inherited, so events from every shard interleave on the
//! parent's stdout — whole lines, arbitrary order.
//!
//! `watch` is the live half of the observatory: it consumes the
//! `--progress jsonl` stream of a concurrently-running campaign —
//! piped on stdin (`campaign run ... --progress jsonl | campaign watch
//! ...`) or tailed from a growing file via `--file` — and re-renders a
//! per-entry dashboard (progress, in-flight runs, cache hits, latest
//! delivered/power/settle/shortfall, rolling wall-clock). On a terminal
//! it redraws in place; on a pipe it prints throttled snapshots (CI
//! friendly). `--html` additionally rewrites `report.html` from the
//! store as runs land. It exits when every expected run has finished,
//! the stream ends, or `--timeout-s` elapses.
//!
//! `--profile` runs every freshly-executed simnet scenario under the
//! span profiler (`Capture::Profile`): per-run wall time and the top
//! phases land in `timings/<hash>.json` sidecars, surface in the
//! report's `wall (s)` / `slowest phase` columns, and ride
//! `RunFinished` progress events.
//! Stored runs, traces, and summaries stay byte-identical to an
//! unprofiled campaign (Span lines are stripped before trace storage).

use ecp_campaign::{exec, report, CampaignError, CampaignSpec, ResultStore, Workers};
use std::path::Path;
use std::process::exit;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign <run|worker|report|list|watch> <campaign.toml> \
         [--shards N] [--workers inprocess|subprocess] [--shard k/N] \
         [--out DIR] [--threads T] [--force] [--only ENTRY-SUBSTRING] \
         [--progress jsonl] [--profile] \
         [--file PROGRESS.jsonl] [--html] [--interval-ms N] [--timeout-s S]"
    );
    exit(2)
}

fn load(
    spec_path: &str,
    out: Option<&str>,
    only: Option<&str>,
) -> Result<(CampaignSpec, ResultStore), CampaignError> {
    let mut spec = CampaignSpec::from_path(Path::new(spec_path))?;
    // The store location never depends on the filter: partial runs
    // share their cache with full runs.
    let store = ResultStore::open(&spec.resolved_output_dir(out))?;
    if let Some(filter) = only {
        spec.retain_matching(filter)?;
    }
    Ok((spec, store))
}

/// The live dashboard: fold a `--progress jsonl` stream (stdin pipe or
/// a growing `--file`) into a per-entry table, redrawn in place on a
/// terminal and printed as throttled snapshots on a pipe.
fn cmd_watch(
    args: &[String],
    spec: &CampaignSpec,
    store: &ResultStore,
    resolver: &dyn Fn(&str) -> Option<ecp_scenario::Scenario>,
    out: Option<&str>,
) -> Result<(), CampaignError> {
    use std::io::{BufRead, IsTerminal, Write};

    // Expected per-entry run counts, in spec order.
    let units = exec::expand(spec, &resolver)?;
    let mut expected: Vec<(String, usize)> = Vec::new();
    for u in &units {
        match expected.iter_mut().find(|(n, _)| n == &u.entry) {
            Some((_, c)) => *c += 1,
            None => expected.push((u.entry.clone(), 1)),
        }
    }
    let mut state = ecp_campaign::WatchState::new(&spec.name, &expected);

    let html = has_flag(args, "--html");
    let interval = std::time::Duration::from_millis(
        flag(args, "--interval-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(500),
    );
    let timeout_s: Option<f64> = flag(args, "--timeout-s").and_then(|v| v.parse().ok());
    let out_dir = spec.resolved_output_dir(out);
    let start = std::time::Instant::now();
    let tty = std::io::stdout().is_terminal();
    let mut last_render: Option<std::time::Instant> = None;

    let refresh = |state: &ecp_campaign::WatchState,
                   last: &mut Option<std::time::Instant>,
                   force: bool|
     -> Result<(), CampaignError> {
        if !force && !tty && last.is_some_and(|t| t.elapsed() < interval) {
            return Ok(());
        }
        *last = Some(std::time::Instant::now());
        let table = state.render(start.elapsed().as_secs_f64());
        if tty {
            print!("\x1b[H\x1b[2J{table}");
            std::io::stdout().flush().ok();
        } else {
            println!("{table}");
        }
        if html {
            let summary = report::summarize(spec, &resolver, store)?;
            ecp_campaign::write_html(&summary, store, &out_dir)?;
        }
        Ok(())
    };

    match flag(args, "--file") {
        Some(path) => {
            // Tail a growing file: consume complete lines only, poll
            // for more until done / timeout.
            let mut pos = 0usize;
            loop {
                let content = std::fs::read_to_string(&path).unwrap_or_default();
                if content.len() > pos {
                    let new = &content[pos..];
                    if let Some(nl) = new.rfind('\n') {
                        let mut saw_event = false;
                        for line in new[..=nl].lines() {
                            saw_event |= state.apply_line(line);
                        }
                        pos += nl + 1;
                        if saw_event {
                            refresh(&state, &mut last_render, false)?;
                        }
                    }
                }
                if state.done() {
                    break;
                }
                if let Some(t) = timeout_s {
                    if start.elapsed().as_secs_f64() >= t {
                        break;
                    }
                }
                std::thread::sleep(interval);
            }
        }
        None => {
            // Drain to EOF even once all expected runs have finished:
            // breaking early would close the pipe under a producer that
            // still has its stats/report trailer to print (SIGPIPE).
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line =
                    line.map_err(|e| CampaignError::Io(format!("read progress stream: {e}")))?;
                if state.apply_line(&line) {
                    refresh(&state, &mut last_render, false)?;
                }
            }
        }
    }
    refresh(&state, &mut last_render, true)?;
    println!(
        "watch: done finished={} expected={} cached={} failed={}",
        state.finished(),
        state.expected(),
        state.cached(),
        state.failed()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(spec_path)) = (args.first(), args.get(1)) else {
        usage()
    };
    let out = flag(&args, "--out");
    let only = flag(&args, "--only");
    let threads = flag(&args, "--threads").and_then(|t| t.parse().ok());
    let resolver = |id: &str| ecp_bench::scenarios::campaign_scenario(id);

    let result: Result<(), CampaignError> = (|| {
        let (spec, store) = load(spec_path, out.as_deref(), only.as_deref())?;
        let progress = match flag(&args, "--progress").as_deref() {
            None => false,
            Some("jsonl") => true,
            Some(other) => {
                return Err(CampaignError::Spec(format!(
                    "unknown progress format `{other}` (expected `jsonl`)"
                )))
            }
        };
        let profile = has_flag(&args, "--profile");
        let opts = exec::ExecOptions {
            threads,
            force: has_flag(&args, "--force"),
            progress,
            profile,
        };
        match cmd.as_str() {
            "run" => {
                let shards = flag(&args, "--shards")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| spec.shard_count());
                let mode = flag(&args, "--workers").unwrap_or_else(|| "inprocess".into());
                let workers = match mode.as_str() {
                    "inprocess" => Workers::InProcess,
                    "subprocess" => {
                        let program = std::env::current_exe()
                            .map_err(|e| CampaignError::Worker(format!("locate self: {e}")))?;
                        let mut worker_args = vec!["worker".to_string(), spec_path.clone()];
                        worker_args.push("--out".into());
                        worker_args.push(
                            spec.resolved_output_dir(out.as_deref())
                                .display()
                                .to_string(),
                        );
                        if let Some(t) = threads {
                            worker_args.push("--threads".into());
                            worker_args.push(t.to_string());
                        }
                        if let Some(o) = &only {
                            worker_args.push("--only".into());
                            worker_args.push(o.clone());
                        }
                        if progress {
                            worker_args.push("--progress".into());
                            worker_args.push("jsonl".into());
                        }
                        if profile {
                            worker_args.push("--profile".into());
                        }
                        Workers::Subprocess(exec::WorkerCommand {
                            program,
                            args: worker_args,
                        })
                    }
                    other => {
                        return Err(CampaignError::Spec(format!(
                            "unknown worker mode `{other}`"
                        )))
                    }
                };
                let stats = exec::execute(&spec, &resolver, &store, shards, &opts, &workers)?;
                println!("stats: {stats}");
                let (_, paths) = report::generate(
                    &spec,
                    &resolver,
                    &store,
                    &spec.resolved_output_dir(out.as_deref()),
                )?;
                for p in paths {
                    println!("[campaign] wrote {}", p.display());
                }
                Ok(())
            }
            "worker" => {
                let shard = flag(&args, "--shard")
                    .as_deref()
                    .and_then(exec::parse_shard)
                    .ok_or_else(|| {
                        CampaignError::Spec("worker needs a valid --shard k/N".into())
                    })?;
                let stats = exec::run_shard(&spec, &resolver, &store, shard, &opts)?;
                println!("shard {}/{}: {stats}", shard.0, shard.1);
                Ok(())
            }
            "report" => {
                let (_, paths) = report::generate(
                    &spec,
                    &resolver,
                    &store,
                    &spec.resolved_output_dir(out.as_deref()),
                )?;
                for p in paths {
                    println!("[campaign] wrote {}", p.display());
                }
                Ok(())
            }
            "watch" => cmd_watch(&args, &spec, &store, &resolver, out.as_deref()),
            "list" => {
                let units = exec::expand(&spec, &resolver)?;
                let shards = spec.shard_count();
                for u in &units {
                    let hash = ecp_campaign::run_hash(&u.scenario);
                    let state = if store.contains(&hash) {
                        "cached"
                    } else {
                        "pending"
                    };
                    println!(
                        "{:>4}  shard {}  {:7}  {}  {} [{}]",
                        u.global,
                        u.shard(shards),
                        state,
                        hash,
                        u.entry,
                        u.scenario.name
                    );
                }
                Ok(())
            }
            _ => usage(),
        }
    })();

    if let Err(e) = result {
        eprintln!("campaign: {e}");
        exit(1);
    }
}
