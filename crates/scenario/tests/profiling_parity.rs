//! Profiling must be a pure observer: a span-profiled run produces a
//! byte-identical `ScenarioReport` to a plain NoopSink run, for any
//! scenario and control policy. Also pins the deterministic-FakeClock
//! span tree contract at the scenario level.

use ecp_scenario::{
    run, run_scenario, Capture, ControlSpec, EventSpec, FakeClock, MatrixSpec, MonoClock,
    PairsSpec, ResolveCache, RunOutput, ScaleSpec, Scenario, ScenarioBuilder, SweepRunner,
};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};
use proptest::prelude::*;

/// A wall-clock profiled run without a cache.
fn profiled(scenario: &Scenario) -> RunOutput {
    run(
        scenario,
        None,
        Capture::Profile(Box::new(MonoClock::default())),
    )
    .unwrap()
}

/// A profiled run on a deterministic clock.
fn fake_profiled(scenario: &Scenario) -> RunOutput {
    run(
        scenario,
        None,
        Capture::Profile(Box::new(FakeClock::new(1e-6))),
    )
    .unwrap()
}

/// One of the six registry policy families, parameterized by two
/// generic knobs in `(0, 1)` (mapped into each family's valid range).
fn arb_control() -> impl Strategy<Value = ControlSpec> {
    (0usize..6, 0.05f64..0.95, 0.05f64..0.95).prop_map(|(which, a, b)| match which {
        0 => ControlSpec::Undamped,
        1 => ControlSpec::Ewma { alpha: a },
        2 => ControlSpec::AdaptiveEwma {
            alpha_min: a.min(b),
            alpha_max: a.max(b),
        },
        3 => ControlSpec::Hysteresis {
            gap: a * 0.3,
            dead_band: b * 0.1,
        },
        4 => ControlSpec::DampedStep {
            damp: a * 0.9,
            cooldown_rounds: (b * 3.0) as u32,
        },
        _ => ControlSpec::Desync {
            salt: (a * 100.0) as u64,
        },
    })
}

/// Small seeded scenarios with a failure burst (exercising the
/// failure-handling span path) across random control policies.
fn arb_scenario() -> impl Strategy<Value = ecp_scenario::Scenario> {
    (8usize..13, 0u64..1000, 0.3f64..0.9, 0u64..50, arb_control()).prop_map(
        |(nodes, seed, level, salt, control)| {
            let program = Program::from_shape(
                5.0,
                1.0,
                Shape::Steps {
                    levels: vec![level, 1.0],
                    step_s: 2.5,
                },
            );
            ScenarioBuilder::new("profile-parity")
                .seed(seed)
                .duration_s(5.0)
                .topology(TopoSpec::small_waxman(nodes, seed))
                .pairs(PairsSpec::Random { count: 5 })
                .traffic(
                    MatrixSpec::Gravity,
                    ScaleSpec::MaxFeasibleFraction { fraction: 0.7 },
                    program,
                )
                .event(EventSpec::FailureBurst {
                    start: 2.0,
                    count: 1,
                    spacing_s: 0.5,
                    repair_after_s: 1.0,
                    seed_salt: salt,
                })
                .control(control)
                .build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Profiling observes wall time but never simulation behavior:
    /// the report is byte-identical to an unprofiled run, and the
    /// trace is the unprofiled trace with Span lines interleaved.
    #[test]
    fn profiled_reports_are_byte_identical(scenario in arb_scenario()) {
        let plain = run_scenario(&scenario).unwrap();
        let RunOutput { report: profiled, trace, timing } = profiled(&scenario);
        let timing = timing.expect("profiled runs carry a timing");
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&profiled).unwrap()
        );

        // The event lines under the Span lines are exactly the traced
        // run's lines, and the aggregated snapshot matches too.
        let RunOutput { report: traced_report, trace: traced, timing: traced_timing } =
            run(&scenario, None, Capture::Trace).unwrap();
        prop_assert!(traced_timing.is_none());
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced_report).unwrap()
        );
        let events_only: Vec<&String> = trace
            .lines
            .iter()
            .filter(|l| !l.starts_with("{\"Span\""))
            .collect();
        let traced_lines: Vec<&String> = traced.lines.iter().collect();
        prop_assert_eq!(events_only, traced_lines);
        prop_assert_eq!(&trace.snapshot, &traced.snapshot);

        // The profile actually covers the hot phases.
        prop_assert!(timing.wall_s > 0.0);
        for span in ["event_drain", "round_observe", "round_decide",
                     "round_apply", "round_install", "resolve_topo",
                     "resolve_plan", "scenario_run"] {
            prop_assert!(
                timing.span(span).is_some_and(|s| s.count > 0),
                "missing span {}", span
            );
        }
        prop_assert!(
            timing.span("failure_handling").is_some_and(|s| s.count > 0),
            "failure burst must profile failure handling"
        );
    }

    /// On a FakeClock the whole span tree is deterministic: two
    /// profiled runs agree on every count, duration, and self-time.
    #[test]
    fn fake_clock_span_trees_are_deterministic(scenario in arb_scenario()) {
        let a = fake_profiled(&scenario);
        let b = fake_profiled(&scenario);
        prop_assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
        prop_assert_eq!(&a.trace.lines, &b.trace.lines, "span lines included");
        prop_assert_eq!(
            serde_json::to_string(&a.timing).unwrap(),
            serde_json::to_string(&b.timing).unwrap()
        );
    }

    /// The campaign executor's path — a traced run through a shared
    /// `ResolveCache` — matches an uncached traced run in report, trace
    /// lines, snapshot and observatory timeseries, on the miss that
    /// plans the key and on the hit that reuses it.
    #[test]
    fn cached_traced_runs_match_uncached(scenario in arb_scenario()) {
        let mut scenario = scenario;
        scenario.metrics.timeseries = true;
        let uncached = run(&scenario, None, Capture::Trace).unwrap();
        prop_assert!(uncached.trace.timeseries.is_some());
        let cache = ResolveCache::new();
        for _ in 0..2 {
            let cached = run(&scenario, Some(&cache), Capture::Trace).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&cached.report).unwrap(),
                serde_json::to_string(&uncached.report).unwrap()
            );
            prop_assert_eq!(&cached.trace.lines, &uncached.trace.lines);
            prop_assert_eq!(&cached.trace.snapshot, &uncached.trace.snapshot);
            prop_assert_eq!(&cached.trace.timeseries, &uncached.trace.timeseries);
        }
        prop_assert_eq!(cache.len(), 1);
    }
}

/// A profiled run through a `ResolveCache` records hit/miss spans and
/// keeps report parity with the unprofiled cache path.
#[test]
fn cache_profiling_records_hit_and_miss() {
    let scenario = ScenarioBuilder::new("cache-profile")
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(2.0)
        .build();
    let cache = ResolveCache::new();
    let cached_profile = || {
        let out = run(
            &scenario,
            Some(&cache),
            Capture::Profile(Box::new(FakeClock::new(1e-6))),
        )
        .unwrap();
        (
            out.report,
            out.timing.expect("profiled runs carry a timing"),
        )
    };
    let (first, timing_miss) = cached_profile();
    assert!(timing_miss
        .span("resolve_cache_miss")
        .is_some_and(|s| s.count == 1));
    assert!(timing_miss.span("resolve_cache_hit").is_none());

    let (second, timing_hit) = cached_profile();
    assert!(timing_hit
        .span("resolve_cache_hit")
        .is_some_and(|s| s.count == 1));
    assert!(timing_hit.span("resolve_cache_miss").is_none());
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&cache.run(&scenario).unwrap()).unwrap()
    );
}

/// Profiled `run` composes with sweep-style parameterization:
/// profiled grid points match their unprofiled twins.
#[test]
fn profiled_sweep_points_match_unprofiled() {
    use ecp_scenario::{Axis, Param};
    let scenario = ScenarioBuilder::new("profile-sweep")
        .topology(TopoSpec::small_waxman(9, 3))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(2.0)
        .build();
    let runner = SweepRunner::new(scenario, vec![Axis::new(Param::Threshold, [0.7, 0.9])]);
    for (_, instance) in runner.instances() {
        let plain = run_scenario(&instance).unwrap();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&profiled(&instance).report).unwrap()
        );
    }
}
