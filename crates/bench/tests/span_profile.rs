//! Phase-level span profiles for the te-stability registry family.
//!
//! Every policy arm must produce a complete control-loop profile
//! (event drain plus the observe/decide/apply/install round phases),
//! and on a `FakeClock` the whole profile — span tree, counts,
//! durations — must be deterministic run to run. This is the
//! observability contract the BENCH trajectory's phase breakdowns and
//! the chrome trace converter build on.

use ecp_scenario::{run, Capture, FakeClock, RunOutput, Scenario};

/// Shortened te-stability shape: same topology/coupling regime as the
/// golden-pinned family, cut to 10 s so six profiled arms stay fast.
fn family_scenario(control: ecp_scenario::ControlSpec) -> ecp_scenario::Scenario {
    ecp_bench::scenarios::te_stability(10.0, 0.7, control)
}

/// A profiled run on a deterministic clock.
fn fake_profiled(scenario: &Scenario) -> Result<RunOutput, ecp_scenario::ScenarioError> {
    run(
        scenario,
        None,
        Capture::Profile(Box::new(FakeClock::new(1e-6))),
    )
}

#[test]
fn every_policy_arm_profiles_all_control_phases() {
    for (id, control) in ecp_bench::scenarios::te_stability_policies() {
        let scenario = family_scenario(control);
        let RunOutput { trace, timing, .. } =
            fake_profiled(&scenario).unwrap_or_else(|e| panic!("{id}: profiled run failed: {e}"));
        let timing = timing.expect("profiled runs carry a timing");
        for phase in [
            "event_drain",
            "round_observe",
            "round_decide",
            "round_apply",
            "round_install",
            "resolve_topo",
            "resolve_plan",
            "scenario_run",
        ] {
            let span = timing.span(phase);
            assert!(
                span.is_some_and(|s| s.count > 0),
                "{id}: phase `{phase}` missing from the profile"
            );
        }
        // Span lines actually ride the trace (the chrome converter's
        // input), and every percentile is well-formed.
        assert!(
            trace.lines.iter().any(|l| l.starts_with("{\"Span\"")),
            "{id}: no Span lines in the profiled trace"
        );
        for s in &timing.spans {
            assert!(
                s.p50_s <= s.p95_s && s.p95_s <= s.p99_s,
                "{id}/{}: percentiles out of order ({} / {} / {})",
                s.name,
                s.p50_s,
                s.p95_s,
                s.p99_s
            );
            assert!(
                s.self_s <= s.total_s + 1e-12,
                "{id}/{}: self time exceeds total",
                s.name
            );
        }
    }
}

#[test]
fn fake_clock_profiles_are_deterministic_per_arm() {
    for (id, control) in ecp_bench::scenarios::te_stability_policies() {
        let scenario = family_scenario(control);
        let a = fake_profiled(&scenario).unwrap();
        let b = fake_profiled(&scenario).unwrap();
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap(),
            "{id}: reports diverged"
        );
        assert_eq!(
            a.trace.lines, b.trace.lines,
            "{id}: span-bearing traces diverged"
        );
        assert_eq!(
            serde_json::to_string(&a.timing).unwrap(),
            serde_json::to_string(&b.timing).unwrap(),
            "{id}: timing snapshots diverged"
        );
    }
}
