//! Parity of the incremental load accounting (ISSUE 5) against the
//! from-scratch oracle under arbitrary event sequences.
//!
//! Two layers of defense: while any simulation runs in debug builds,
//! `flush_loads` cross-checks the whole incremental state (loads,
//! cached rates, blocked counts, assigned counts) against the
//! from-scratch recomputation after *every* event; these proptests
//! additionally drive randomized event scripts (demand changes,
//! link/node fail + repair, share moves, wake-time and TE
//! reconfiguration, phased agents) one event at a time and assert that
//!
//! * the incremental state matches the oracle bit for bit after every
//!   event, in release test builds too, and
//! * skipping the decisions of observation-clean agents under a
//!   memoryless policy records the exact same sample series as a run
//!   that decides every agent every round.

use ecp_control::{ControlPolicy, Observation};
use ecp_simnet::{SimConfig, SimEvent, Simulation};
use ecp_topo::gen::fig3_click;
use ecp_topo::{ArcId, NodeId, Path};
use proptest::prelude::*;
use respons_core::tables::OdPaths;
use respons_core::{PathTables, TeConfig};

fn click_tables() -> (ecp_topo::Topology, ecp_topo::gen::Fig3Nodes, PathTables) {
    let (t, n) = fig3_click();
    let mut pt = PathTables::new();
    pt.insert(
        n.a,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.a, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.a, n.d, n.g, n.k])],
            failover: Path::new(vec![n.a, n.d, n.g, n.k]),
        },
    );
    pt.insert(
        n.c,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.c, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.c, n.f, n.j, n.k])],
            failover: Path::new(vec![n.c, n.f, n.j, n.k]),
        },
    );
    (t, n, pt)
}

/// One scripted perturbation, encoded as plain numbers so proptest can
/// shrink it.
type RawEvent = (f64, usize, usize, f64);

fn decode_event(topo: &ecp_topo::Topology, (t, kind, target, value): RawEvent) -> (f64, SimEvent) {
    let links: Vec<ArcId> = topo.link_ids().collect();
    let link = links[target % links.len()];
    let node = NodeId((target % topo.node_count()) as u32);
    let ev = match kind % 7 {
        0 => SimEvent::DemandChange {
            flow: ecp_simnet::FlowId(target % 2),
            rate: value,
        },
        1 => SimEvent::LinkFail { arc: link },
        2 => SimEvent::LinkRepair { arc: link },
        3 => SimEvent::NodeFail { node },
        4 => SimEvent::NodeRepair { node },
        5 => SimEvent::SetWakeTime {
            wake_time: 0.01 + value / 9e6,
        },
        _ => SimEvent::SetTeConfig {
            te: TeConfig {
                threshold: 0.3 + value / 9e6,
                ..TeConfig::default()
            },
        },
    };
    (t, ev)
}

fn policy(which: usize) -> Box<dyn ControlPolicy> {
    match which % 6 {
        0 => Box::new(ecp_control::Undamped),
        1 => Box::new(ecp_control::Ewma::new(ecp_control::EwmaCfg { alpha: 0.3 })),
        2 => Box::new(ecp_control::Desync::new(7)),
        3 => Box::new(ecp_control::AdaptiveEwma::new(
            ecp_control::AdaptiveEwmaCfg::default(),
        )),
        4 => Box::new(ecp_control::Hysteresis::new(
            ecp_control::HysteresisCfg::default(),
        )),
        _ => Box::new(ecp_control::DampedStep::new(
            ecp_control::DampedStepCfg::default(),
        )),
    }
}

/// Delegates everything to the wrapped policy but declares itself
/// stateful, so the simulator never skips a decision: the reference
/// run for decision skipping.
struct NeverSkip(Box<dyn ControlPolicy>);

impl ControlPolicy for NeverSkip {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn phase(&self, agent: usize, interval: f64) -> f64 {
        self.0.phase(agent, interval)
    }

    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64> {
        self.0.decide(obs)
    }

    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        self.0.decide_into(obs, out)
    }

    fn memoryless(&self) -> bool {
        false
    }
}

/// Run the scripted simulation event by event, asserting the
/// incremental state against the from-scratch oracle after each one;
/// returns the recorded series plus the final per-path delivery of
/// both flows. `skip` keeps the policy's own `memoryless` answer;
/// otherwise it is wrapped in [`NeverSkip`].
fn run_script(
    events: &[RawEvent],
    which_policy: usize,
    spread: bool,
    skip: bool,
) -> (Vec<ecp_simnet::Sample>, Vec<Vec<f64>>) {
    let (t, n, pt) = click_tables();
    let cfg = SimConfig {
        control_interval: 0.1,
        wake_time: 0.01,
        detect_delay: 0.1,
        sleep_after: 0.2,
        sample_interval: 0.05,
        ..Default::default()
    };
    let pm = ecp_power::PowerModel::cisco12000();
    let policy = if skip {
        policy(which_policy)
    } else {
        Box::new(NeverSkip(policy(which_policy)))
    };
    let mut sim = Simulation::with_policy(&t, &pm, &pt, cfg, policy);
    let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
    let fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
    if spread {
        sim.set_shares(fa, vec![0.5, 0.5]);
        sim.set_shares(fc, vec![0.5, 0.5]);
    }
    for &raw in events {
        let (at, ev) = decode_event(&t, raw);
        sim.schedule(at, ev);
    }
    assert!(
        sim.incremental_state_matches_scratch(),
        "incremental state diverged from the from-scratch oracle during setup"
    );
    while sim.next_event_time().is_some_and(|at| at <= 9.0) {
        let at = sim.step().expect("a pending event");
        assert!(
            sim.incremental_state_matches_scratch(),
            "incremental state diverged from the from-scratch oracle at t = {at}"
        );
    }
    let deliveries = vec![sim.per_path_delivered(fa), sim.per_path_delivered(fc)];
    (sim.recorder().samples().to_vec(), deliveries)
}

fn script_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    proptest::collection::vec((0.0f64..8.0, 0usize..7, 0usize..16, 0.0f64..9e6), 0..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental state equals the from-scratch oracle after every
    /// event of arbitrary event scripts under every control policy.
    #[test]
    fn incremental_is_bit_identical_to_scratch(
        events in script_strategy(),
        which_policy in 0usize..6,
        spread in proptest::bool::ANY,
    ) {
        run_script(&events, which_policy, spread, true);
    }

    /// Skipping observation-clean agents records bit-identical series
    /// to deciding every agent every round.
    #[test]
    fn decision_skipping_is_bit_identical_to_never_skipping(
        events in script_strategy(),
        which_policy in 0usize..6,
        spread in proptest::bool::ANY,
    ) {
        let (skip_samples, skip_delivery) = run_script(&events, which_policy, spread, true);
        let (ref_samples, ref_delivery) = run_script(&events, which_policy, spread, false);
        prop_assert_eq!(skip_samples, ref_samples);
        prop_assert_eq!(skip_delivery, ref_delivery);
    }
}
