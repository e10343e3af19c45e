//! Network capacity probing: the paper's max-load scaling procedure.

use crate::oracle::{place_flows_with, OracleConfig, StaticPaths};
use ecp_topo::{NodeId, Topology};
use ecp_traffic::{gravity_matrix, TrafficMatrix};

/// The paper's max-load scaling procedure (§5.1): "we first compute the
/// maximum traffic load as the traffic volume that the optimal routing
/// can accommodate if the gravity-determined proportions are kept. We do
/// this by incrementally increasing the traffic demand by 10% up to a
/// point where CPLEX cannot find a routing" — our oracle plays CPLEX's
/// role. Returns the total volume marking 100% load.
///
/// Every probe routes the same OD pairs over the full topology, so the
/// oracle's load-independent first-choice paths are computed once and
/// shared by all probes.
pub fn max_feasible_volume(
    topo: &Topology,
    od_pairs: &[(NodeId, NodeId)],
    oracle: &OracleConfig,
) -> f64 {
    let start = topo.total_capacity() * 0.01;
    let base = gravity_matrix(topo, od_pairs, start);
    let statics = StaticPaths::new(topo, None, &base);
    // Find an infeasible upper bound by +10% steps.
    let feasible = |v: f64| -> bool {
        let tm = base.scaled(v / start);
        place_flows_with(topo, None, &tm, oracle, &statics).is_some()
    };
    let mut volume = start;
    if !feasible(volume) {
        // Even 1% of capacity is too much; shrink instead.
        while volume > 1.0 && !feasible(volume) {
            volume /= 2.0;
        }
        return volume;
    }
    let mut hi = volume;
    while feasible(hi) {
        hi *= 1.1;
    }
    let mut lo = hi / 1.1;
    // Refine a little for stable results.
    for _ in 0..10 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Gravity matrix at a percentage of the maximum feasible load.
pub fn gravity_at_utilization(
    topo: &Topology,
    od_pairs: &[(NodeId, NodeId)],
    oracle: &OracleConfig,
    util_percent: f64,
) -> TrafficMatrix {
    let max = max_feasible_volume(topo, od_pairs, oracle);
    gravity_matrix(topo, od_pairs, max * util_percent / 100.0)
}
