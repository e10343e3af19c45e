//! Degenerate simnet specs are rejected with `ScenarioError::Invalid`
//! instead of hanging (a zero sampling or control interval reschedules
//! its event at the same instant forever) or running silently to a
//! meaningless report (negative duration, NaN TE threshold).
//!
//! Every run happens on a worker thread with a bounded wait, so a
//! regression fails the test instead of stalling the suite.

use ecp_scenario::{
    run_scenario, PairsSpec, Scenario, ScenarioBuilder, ScenarioError, ScenarioReport, SimSpec,
};
use ecp_topo::gen::TopoSpec;
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
