//! perfbench — end-to-end and per-layer benchmark of the REsPoNse
//! pipeline (scenario spec → resolve → oracle → simnet run → report and
//! campaign store).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` makes the separate traced run that times each layer's
//! public calls from here and writes its spans out at the end. Every
//! unit's output is checked; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod e2e;
mod traced;
mod workload;

use ecp_telemetry::alloc_count::{allocations, bytes_allocated, CountingAllocator};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::time::Duration;
use workload::{Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Run settings shared by both modes.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for stores and reports, removed at exit.
    pub work: PathBuf,
}

/// Attempted/failed bookkeeping plus the output-digest checks.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    first_digest: Option<String>,
    /// Digest the output must equal, where the workload pins one.
    pinned: Option<String>,
}

impl Checks {
    fn new(pinned: Option<&str>) -> Self {
        Checks {
            pinned: pinned.map(str::to_string),
            ..Default::default()
        }
    }

    /// Record one unit's outcome.
    pub fn unit(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: unit failed: {e}");
        }
    }

    /// The unit's output digest must equal the run's first one and the
    /// pinned one, if any.
    pub fn digest(&mut self, digest: &str) -> Result<(), String> {
        let first = self.first_digest.get_or_insert_with(|| digest.to_string());
        if first != digest {
            return Err(format!(
                "output digest {digest} differs from this run's first {first}"
            ));
        }
        match &self.pinned {
            Some(pinned) if pinned != digest => Err(format!(
                "output digest {digest} differs from the pinned {pinned}"
            )),
            _ => Ok(()),
        }
    }

    pub fn first_digest(&self) -> &str {
        self.first_digest.as_deref().unwrap_or("-")
    }

    /// A run is correct if it attempted something and nothing failed.
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// Process-wide allocation counters (calls, bytes) at this instant.
pub fn alloc_counts() -> (u64, u64) {
    (allocations(), bytes_allocated())
}

/// Content hash of a unit's output text.
pub fn digest(text: &str) -> String {
    ecp_campaign::content_hash(text.as_bytes())
}

/// Digest of a scenario report's JSON.
pub fn report_digest<E: ToString>(
    report: Result<ecp_scenario::ScenarioReport, E>,
) -> Result<String, String> {
    let report = report.map_err(|e| e.to_string())?;
    Ok(digest(
        &serde_json::to_string(&report).map_err(|e| e.to_string())?,
    ))
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond
/// it, as `(label, nearest-rank value)`.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [("p99.9", 999), ("p99", 990), ("p90", 900), ("p50", 500)]
        .into_iter()
        .map(|(label, per_mille)| (label, (per_mille * n).div_ceil(1000).max(1)))
        .find(|&(_, rank)| n >= rank + 10)
        .map(|(label, rank)| (label, v[rank - 1]))
}

/// Print one timing line: median, sample count and tail percentile.
pub fn print_timing(name: &str, unit: &str, xs: &[f64]) {
    let tail = match tail(xs) {
        Some((label, v)) => format!("{label}={v:.9}"),
        None => "none (p50 needs n>=20)".into(),
    };
    println!(
        "  {name:<24} {:>16.9} {unit:<6} n={:<5} tail {tail}",
        median(xs),
        xs.len()
    );
}

/// Whether another unit of typical length `xs` median still fits the
/// budget that started `elapsed` ago.
pub fn fits(elapsed: Duration, budget: f64, xs: &[f64]) -> bool {
    elapsed.as_secs_f64() + median(xs) <= budget
}

/// The process's resident-memory high-water mark, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn parse_args() -> Result<(Workload, u64, f64, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, seconds, trace))
}

/// Where scratch files go: under the cargo target directory, which is
/// inside the checkout and ignored by git.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-work")
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let root = work_root();
    let run = Run {
        workload,
        seed,
        seconds,
        work: root.join(format!("{}-{}", workload.name(), std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: create {}: {e}", run.work.display());
        std::process::exit(2);
    }
    println!(
        "perfbench workload={} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        trace as u8
    );
    let mut checks = Checks::new(workload.pinned_digest(seed));
    let metrics = if trace {
        traced::run(&run, &root, &mut checks)
    } else {
        e2e::run(&run, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&run.work);
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        checks.unit(Err(format!("metric {} is not a finite number", m.name)));
    }

    let correct = checks.correct();
    println!("  output digest {}", checks.first_digest());
    println!(
        "  {:<24} {:>16.6} ratio  n={}",
        "failed_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 19]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(("p90", 90.0)));
        assert_eq!(tail(&xs[..20]), Some(("p50", 10.0)));
    }

    #[test]
    fn a_corrupted_pinned_digest_counts_as_a_failure() {
        let real = digest("the unit's report");
        let mut checks = Checks::new(Some("00000000000000000000000000000000"));
        let out = checks.digest(&real);
        checks.unit(out);
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert!(!checks.correct());

        let mut checks = Checks::new(Some(&real));
        for _ in 0..2 {
            let out = checks.digest(&real);
            checks.unit(out);
        }
        assert!(checks.correct());
    }

    #[test]
    fn an_output_unlike_the_first_counts_as_a_failure() {
        let mut checks = Checks::new(None);
        for text in ["a", "a", "b"] {
            let out = checks.digest(&digest(text));
            checks.unit(out);
        }
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert!(!checks.correct());
        assert!(!Checks::new(None).correct(), "a run that attempted nothing");
    }

    #[test]
    fn plan_scale8_is_pinned_at_every_seed_the_campaign_at_the_default() {
        for seed in [DEFAULT_SEED, 2, 7] {
            assert!(Workload::PlanScale8.pinned_digest(seed).is_some());
        }
        assert!(Workload::CampaignTeDamping
            .pinned_digest(DEFAULT_SEED)
            .is_some());
        assert!(Workload::CampaignTeDamping.pinned_digest(2).is_none());
    }
}
