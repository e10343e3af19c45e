//! Degenerate specs are rejected with `ScenarioError::Invalid` instead
//! of hanging (a zero sampling or control interval reschedules its
//! event at the same instant forever; a zero step or sampling interval
//! expands a traffic segment without bound), panicking (a NaN gravity
//! volume) or running silently to a meaningless report (negative
//! duration, NaN TE threshold, NaN or negative traffic scale).
//!
//! Every run happens on a worker thread with a bounded wait, so a
//! regression fails the test instead of stalling the suite.

use ecp_scenario::{
    run_scenario, EngineSpec, MatrixSpec, PairsSpec, ScaleSpec, Scenario, ScenarioBuilder,
    ScenarioError, ScenarioReport, SimSpec,
};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Generous for a 2 s run on an 8-node network, yet short enough that
/// a hung run (whose recorder grows without bound) fails quickly.
const TIMEOUT: Duration = Duration::from_secs(20);

/// A small, valid simnet scenario; each test breaks one knob of it.
fn base(sim: SimSpec) -> ScenarioBuilder {
    ScenarioBuilder::new("degenerate")
        .duration_s(2.0)
        .topology(TopoSpec::small_waxman(8, 3))
        .pairs(PairsSpec::Random { count: 4 })
        .sim(sim)
}

/// `run_scenario` on a worker thread, waiting at most [`TIMEOUT`].
fn run_bounded(scenario: Scenario) -> Result<ScenarioReport, ScenarioError> {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(run_scenario(&scenario));
    });
    match rx.recv_timeout(TIMEOUT) {
        Ok(result) => {
            worker.join().expect("worker sent its result");
            result
        }
        Err(RecvTimeoutError::Timeout) => panic!("run_scenario did not return within {TIMEOUT:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker dropped its sender"))
        }
    }
}

/// Assert the run is rejected as invalid, naming `field`.
fn assert_invalid(scenario: Scenario, field: &str) {
    match run_bounded(scenario) {
        Err(ScenarioError::Invalid(msg)) => {
            assert!(msg.contains(field), "`{msg}` does not name {field}")
        }
        other => panic!("expected Invalid naming {field}, got {other:?}"),
    }
}

#[test]
fn zero_sample_interval_is_invalid() {
    let sim = SimSpec {
        sample_interval_s: 0.0,
        ..SimSpec::default()
    };
    assert_invalid(base(sim).build(), "sim.sample_interval_s");
}

#[test]
fn zero_control_interval_is_invalid() {
    let sim = SimSpec {
        control_interval_s: 0.0,
        ..SimSpec::default()
    };
    assert_invalid(base(sim).build(), "sim.control_interval_s");
}

#[test]
fn negative_duration_is_invalid() {
    let scenario = base(SimSpec::default()).duration_s(-5.0).build();
    assert_invalid(scenario, "duration_s");
}

#[test]
fn nan_te_threshold_is_invalid() {
    let sim = SimSpec {
        te_threshold: f64::NAN,
        ..SimSpec::default()
    };
    assert_invalid(base(sim).build(), "sim.te_threshold");
}

/// A constant-level simnet program at `scale`.
fn with_scale(scale: ScaleSpec) -> Scenario {
    let program = Program::from_shape(2.0, 1.0, Shape::Constant { level: 1.0 });
    base(SimSpec::default())
        .traffic(MatrixSpec::Gravity, scale, program)
        .build()
}

/// A simnet scenario driven by one segment of `shape`.
fn with_shape(interval_s: f64, shape: Shape) -> Scenario {
    let program = Program::from_shape(2.0, interval_s, shape);
    base(SimSpec::default())
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.5 },
            program,
        )
        .build()
}

/// A one-day GÉANT-like replay at `scale`, peaking at `factor` × the
/// always-on-supported volume.
fn replay(scale: ScaleSpec, factor: f64) -> Scenario {
    let program = Program::from_shape(86_400.0, 86_400.0, Shape::Constant { level: 1.0 });
    ScenarioBuilder::new("degenerate-replay")
        .duration_s(86_400.0)
        .topology(TopoSpec::small_waxman(8, 3))
        .pairs(PairsSpec::Random { count: 4 })
        .traffic(MatrixSpec::Gravity, scale, program)
        .engine(EngineSpec::replay_over_always_on(factor))
        .build()
}

#[test]
fn non_finite_or_negative_total_bps_is_invalid() {
    for bps in [f64::NAN, -1e9] {
        assert_invalid(with_scale(ScaleSpec::TotalBps { bps }), "traffic.scale.bps");
    }
}

#[test]
fn nan_max_feasible_fraction_is_invalid() {
    let scale = ScaleSpec::MaxFeasibleFraction { fraction: f64::NAN };
    assert_invalid(with_scale(scale), "traffic.scale.fraction");
}

#[test]
fn nan_constant_level_is_invalid() {
    let scenario = with_shape(1.0, Shape::Constant { level: f64::NAN });
    assert_invalid(scenario, "traffic.program.segments[0].shape.level");
}

#[test]
fn zero_step_is_invalid() {
    // One level, so an unvalidated run spins (caught by the bounded
    // wait) instead of growing its schedule until memory runs out.
    let steps = Shape::Steps {
        levels: vec![1.0],
        step_s: 0.0,
    };
    assert_invalid(
        with_shape(1.0, steps),
        "traffic.program.segments[0].shape.step_s",
    );
}

#[test]
fn zero_sampling_interval_is_invalid() {
    // A flat ramp, for the same reason as `zero_step_is_invalid`.
    let ramp = Shape::Ramp { from: 1.0, to: 1.0 };
    assert_invalid(
        with_shape(0.0, ramp),
        "traffic.program.segments[0].interval_s",
    );
}

#[test]
fn nan_replay_total_bps_is_invalid() {
    let scenario = replay(ScaleSpec::TotalBps { bps: f64::NAN }, 1.0);
    assert_invalid(scenario, "traffic.scale.bps");
}

#[test]
fn nan_replay_peak_factor_is_invalid() {
    let scenario = replay(ScaleSpec::TotalBps { bps: 1e9 }, f64::NAN);
    assert_invalid(scenario, "replay.trace.peak.factor");
}
