//! The untraced run: set-up, cold units and warm units, timed from
//! outside with nothing traced.
//!
//! A scenario workload's cold unit is `run_scenario` (resolve, oracle
//! probe, run); its warm unit is `ResolveCache::run` on a cache that
//! already holds the resolution, which is what a sweep grid point pays.
//! The campaign's cold unit is `run_campaign` into an empty store plus
//! `report::generate`; its warm unit is the same on the filled store,
//! where nothing may execute.

use crate::workload::{resolver, Fingerprint};
use crate::{
    alloc_counts, digest, fits, guarded, median, peak_rss_mib, print_timing, report_digest,
};
use crate::{Checks, Metric, Run};
use ecp_campaign::{exec, report, CampaignSpec, ExecOptions, ResultStore};
use ecp_scenario::{run_scenario, ResolveCache};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Target length of one set-up sample: long enough that the clock's
/// own cost does not show in a set-up that takes under a microsecond.
const SETUP_SAMPLE_SECONDS: f64 = 1e-3;
/// Set-up is sampled for this long before the first unit, as a one-time
/// set-up runs (at least [`SETUP_MIN_SAMPLES`] samples) ...
const SETUP_SECONDS: f64 = 0.05;
const SETUP_MIN_SAMPLES: usize = 11;
/// ... and for this long before every unit, so that its median spans
/// the same host conditions over the run as the units' medians do. On
/// a shared 2-vCPU VM, single-thread speed moved by up to 1.6× over
/// tens of seconds, and a set-up sampled only at the start of a run
/// took the speed of that moment (spread 0.46 over eight runs of the
/// campaign).
const SETUP_BETWEEN_SECONDS: f64 = 0.01;

/// Timings and allocation counts of the units of one kind.
#[derive(Default)]
struct Samples {
    secs: Vec<f64>,
    allocs: Vec<f64>,
    bytes: Vec<f64>,
}

impl Samples {
    /// Time `unit`, count its allocations, and record its outcome.
    fn measure(&mut self, checks: &mut Checks, unit: impl FnOnce() -> Result<String, String>) {
        let (a0, b0) = alloc_counts();
        let t = Instant::now();
        let out = guarded(unit);
        self.secs.push(t.elapsed().as_secs_f64());
        let (a1, b1) = alloc_counts();
        self.allocs.push((a1 - a0) as f64);
        self.bytes.push((b1 - b0) as f64);
        let out = out.and_then(|d| checks.digest(&d));
        checks.unit(out);
    }
}

/// Set-up timed in samples, each the mean of enough back-to-back
/// repetitions of `setup` to last about [`SETUP_SAMPLE_SECONDS`].
struct Setup<S> {
    setup: S,
    reps: usize,
    secs: Vec<f64>,
}

impl<S: FnMut()> Setup<S> {
    /// Calibrate the repetitions per sample, then sample for
    /// [`SETUP_SECONDS`].
    fn new(setup: S) -> Self {
        let mut s = Setup {
            setup,
            reps: 1,
            secs: Vec::new(),
        };
        let once = median(&[s.sample(), s.sample(), s.sample()]).max(1e-9);
        s.reps = ((SETUP_SAMPLE_SECONDS / once).ceil() as usize).clamp(1, 1_000_000);
        s.secs.clear();
        let start = Instant::now();
        while s.secs.len() < SETUP_MIN_SAMPLES || start.elapsed().as_secs_f64() < SETUP_SECONDS {
            s.sample();
        }
        s
    }

    /// Sample for [`SETUP_BETWEEN_SECONDS`] (at least once).
    fn between_units(&mut self) {
        let start = Instant::now();
        self.sample();
        while start.elapsed().as_secs_f64() < SETUP_BETWEEN_SECONDS {
            self.sample();
        }
    }

    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..self.reps {
            (self.setup)();
        }
        let secs = t.elapsed().as_secs_f64() / self.reps as f64;
        self.secs.push(secs);
        secs
    }
}

pub fn run(run: &Run, checks: &mut Checks) -> Vec<Metric> {
    let (setup, cold, warm) = if run.workload.is_campaign() {
        campaign(run, checks)
    } else {
        scenario(run, checks)
    };
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        checks.unit(Err(e));
        f64::NAN
    });
    print_timing("setup_s", "s", &setup);
    print_timing("cold_s_p50", "s", &cold.secs);
    print_timing("warm_s_p50", "s", &warm.secs);
    let metrics = vec![
        Metric::new("cold_s_p50", median(&cold.secs), "s"),
        Metric::new("warm_s_p50", median(&warm.secs), "s"),
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("peak_rss_mib", rss, "MiB"),
        Metric::new("allocs_per_unit", median(&cold.allocs), "count"),
        Metric::new(
            "alloc_mib_per_unit",
            median(&cold.bytes) / (1024.0 * 1024.0),
            "MiB",
        ),
    ];
    for m in &metrics[3..] {
        println!(
            "  {:<24} {:>16.6} {:<6} n={}",
            m.name,
            m.value,
            m.unit,
            cold.secs.len()
        );
    }
    metrics
}

/// Alternate cold and warm units, each kind getting its share of the
/// run length, so that both see the same host conditions. `between`
/// runs untimed ahead of every unit, and `before_cold` after it ahead
/// of each cold unit. Stops when the next unit would overrun the run
/// length, after at least one unit of each kind.
fn interleave(
    run: &Run,
    checks: &mut Checks,
    mut between: impl FnMut(),
    mut before_cold: impl FnMut(),
    mut cold_unit: impl FnMut() -> Result<String, String>,
    mut warm_unit: impl FnMut() -> Result<String, String>,
) -> (Samples, Samples) {
    let share = run.workload.cold_share();
    let (mut cold, mut warm) = (Samples::default(), Samples::default());
    let start = Instant::now();
    loop {
        let spent = |s: &Samples, share: f64| s.secs.iter().sum::<f64>() / share;
        let cold_turn = cold.secs.is_empty()
            || (!warm.secs.is_empty() && spent(&cold, share) <= spent(&warm, 1.0 - share));
        let next = if cold_turn { &cold } else { &warm };
        let started = !cold.secs.is_empty() && !warm.secs.is_empty();
        if started && !fits(start.elapsed(), run.seconds, &next.secs) {
            break;
        }
        between();
        if cold_turn {
            before_cold();
            cold.measure(checks, &mut cold_unit);
        } else {
            warm.measure(checks, &mut warm_unit);
        }
    }
    (cold, warm)
}

fn scenario(run: &Run, checks: &mut Checks) -> (Vec<f64>, Samples, Samples) {
    let w = run.workload;
    let mut setup = Setup::new(|| {
        black_box(w.scenario());
    });
    let s = w.scenario().expect("a scenario workload");

    // Fill the cache untimed; the fill also checks the workload's size.
    let cache = ResolveCache::new();
    let fill = guarded(|| {
        let resolved = cache.resolve(&s).map_err(|e| e.to_string())?;
        w.fingerprint().check(&Fingerprint::of(&resolved, 1))?;
        checks.digest(&report_digest(cache.run(&s))?)
    });
    checks.unit(fill);
    let (cold, warm) = interleave(
        run,
        checks,
        || setup.between_units(),
        || {},
        || report_digest(run_scenario(&s)),
        || report_digest(cache.run(&s)),
    );
    (setup.secs, cold, warm)
}

fn campaign(run: &Run, checks: &mut Checks) -> (Vec<f64>, Samples, Samples) {
    let w = run.workload;
    let dir = run.work.join("campaign");
    let setup_dir = run.work.join("setup");
    // Parse the spec, expand it and open the store. The first
    // repetition creates the store's directories and the rest open them
    // again: creating five fresh directories per repetition left the
    // median to the file system's latency, which the units' store
    // writes and deletions stall (medians of 0.4 to 1.7 ms between runs,
    // spread 0.80 over ten). A fresh store's creation is timed in every
    // cold unit. A set-up error shows up again just below, where it is
    // counted.
    let mut setup = Setup::new(|| {
        let ready = w.campaign(run.seed).and_then(|spec| {
            let units = exec::expand(&spec, &resolver).map_err(|e| e.to_string())?;
            let store = ResultStore::open(&setup_dir).map_err(|e| e.to_string())?;
            Ok((spec, units, store))
        });
        black_box(ready).ok();
    });
    let expected = w.fingerprint().runs;
    let spec = match w.campaign(run.seed) {
        Ok(spec) => spec,
        Err(e) => {
            checks.unit(Err(e));
            return (setup.secs, Samples::default(), Samples::default());
        }
    };
    let (cold, warm) = interleave(
        run,
        checks,
        || setup.between_units(),
        || {
            let _ = std::fs::remove_dir_all(&dir);
        },
        || campaign_unit(&spec, &dir, expected, true),
        || campaign_unit(&spec, &dir, expected, false),
    );
    let _ = std::fs::remove_dir_all(&setup_dir);
    (setup.secs, cold, warm)
}

/// One campaign unit: execute into the store at `dir`, then write the
/// report. A cold unit must execute every run, a warm one none; no run
/// may fail. Returns the digest of `summary.json`.
fn campaign_unit(
    spec: &CampaignSpec,
    dir: &Path,
    expected_runs: usize,
    cold: bool,
) -> Result<String, String> {
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let opts = ExecOptions {
        threads: Some(2),
        ..Default::default()
    };
    let stats = exec::run_campaign(spec, &resolver, &store, spec.shard_count(), &opts)
        .map_err(|e| e.to_string())?;
    let (summary, _) = report::generate(spec, &resolver, &store, dir).map_err(|e| e.to_string())?;
    let executed = if cold { stats.unique } else { 0 };
    if stats.runs != expected_runs || stats.executed != executed || stats.failed != 0 {
        return Err(format!(
            "campaign stats {stats}, expected runs={expected_runs} executed={executed} failed=0"
        ));
    }
    Ok(digest(&summary.to_json()))
}
