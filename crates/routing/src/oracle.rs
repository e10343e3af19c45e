//! The multi-commodity feasibility oracle: can a given active subset
//! carry a traffic matrix with unsplittable flows?
//!
//! This is the workhorse behind every subset optimizer. The paper's model
//! makes this a bin-packing-flavoured NP-hard question; we answer it with
//! the standard practical recipe:
//!
//! 1. **Greedy placement** — demands sorted by rate (descending) are
//!    routed on the cheapest admissible path over *residual* capacities
//!    (arcs whose residual cannot fit the demand are forbidden; among the
//!    rest, congestion-aware weights steer flows away from loaded links).
//! 2. **Rip-up and reroute** — if a demand cannot be placed, previously
//!    placed flows crossing the saturated cut are removed and re-placed
//!    after it.
//! 3. **Randomized restarts** — a few placement orders are tried
//!    (deterministically seeded).
//!
//! A `margin` (the paper's safety margin `sm`, §4.5) scales usable
//! capacity: `C ← sm · C`.

use crate::routeset::RouteSet;
use ecp_topo::algo::{shortest_path, shortest_paths_from};
use ecp_topo::{ActiveSet, ArcId, NodeId, Path, Topology};
use ecp_traffic::{Demand, TrafficMatrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Oracle tuning knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Usable fraction of each link's capacity (the paper's `sm`).
    pub margin: f64,
    /// Number of randomized placement orders to try after the
    /// deterministic descending-rate order.
    pub restarts: usize,
    /// Rip-up-and-reroute passes per placement attempt.
    pub reroute_passes: usize,
    /// RNG seed for the restart shuffles.
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            margin: 1.0,
            restarts: 3,
            reroute_passes: 2,
            seed: 0xEC9,
        }
    }
}

/// Attempt to route all demands of `tm` over the active subset within the
/// margin. Returns the routing on success.
///
/// Each demand's first choice, the inverse-capacity shortest path over
/// `active`, does not depend on load. It is computed once per call, one
/// search tree per origin, and shared by every restart and rip-up pass.
pub fn place_flows(
    topo: &Topology,
    active: Option<&ActiveSet>,
    tm: &TrafficMatrix,
    cfg: &OracleConfig,
) -> Option<RouteSet> {
    if tm.is_empty() {
        return Some(RouteSet::new());
    }
    let statics = StaticPaths::new(topo, active, tm);
    place_flows_with(topo, active, tm, cfg, &statics)
}

/// [`place_flows`] with the first-choice paths already computed; they
/// must have been built for the same `active` set and cover every OD
/// pair of `tm`.
pub(crate) fn place_flows_with(
    topo: &Topology,
    active: Option<&ActiveSet>,
    tm: &TrafficMatrix,
    cfg: &OracleConfig,
    statics: &StaticPaths,
) -> Option<RouteSet> {
    if tm.is_empty() {
        return Some(RouteSet::new());
    }
    let demands = tm.demands();
    // Deterministic primary order: descending rate, then OD for ties.
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&demands[a], &demands[b]);
        b.rate
            .total_cmp(&a.rate)
            .then_with(|| (a.origin, a.dst).cmp(&(b.origin, b.dst)))
    });
    let cap: Vec<f64> = topo
        .arc_ids()
        .map(|a| topo.arc(a).capacity * cfg.margin)
        .collect();

    if let Some(rs) = try_place(topo, active, demands, &order, &cap, statics, cfg) {
        return Some(rs);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.restarts {
        order.shuffle(&mut rng);
        if let Some(rs) = try_place(topo, active, demands, &order, &cap, statics, cfg) {
            return Some(rs);
        }
    }
    None
}

/// One placement attempt of `demands` (sorted by OD pair) in the given
/// `order` of indices, within the usable capacities `cap`.
fn try_place(
    topo: &Topology,
    active: Option<&ActiveSet>,
    demands: &[Demand],
    order: &[usize],
    cap: &[f64],
    statics: &StaticPaths,
    cfg: &OracleConfig,
) -> Option<RouteSet> {
    let mut load = vec![0.0; topo.arc_count()];
    let mut hot = vec![false; topo.arc_count()];
    let mut rs = RouteSet::new();
    let mut pending: Vec<usize> = order.to_vec();
    let mut passes = 0;

    while !pending.is_empty() {
        let mut failed: Vec<usize> = Vec::new();
        for i in pending.drain(..) {
            let d = &demands[i];
            match route_one(topo, active, cap, &load, d, statics) {
                Some(p) => {
                    apply(topo, &mut load, &p, d.rate, 1.0);
                    rs.insert(p);
                }
                None => failed.push(i),
            }
        }
        if failed.is_empty() {
            return Some(rs);
        }
        passes += 1;
        if passes > cfg.reroute_passes {
            return None;
        }
        // Rip-up: remove the largest flows sharing arcs near saturation,
        // requeue them after the failed demands.
        for (h, (&l, &c)) in hot.iter_mut().zip(load.iter().zip(cap)) {
            *h = l > 0.7 * c;
        }
        let mut ripped: Vec<usize> = Vec::new();
        let keys: Vec<(NodeId, NodeId)> = rs.iter().map(|(k, _)| *k).collect();
        for (o, dd) in keys {
            let crosses_hot = rs
                .get(o, dd)
                .and_then(|p| p.arcs(topo))
                .map(|arcs| arcs.iter().any(|a| hot[a.idx()]))
                .unwrap_or(false);
            if crosses_hot {
                // Recover the rate from the demand list.
                if let Ok(i) = demands.binary_search_by_key(&(o, dd), |d| (d.origin, d.dst)) {
                    let p = rs.remove(o, dd).expect("key taken from the route set");
                    apply(topo, &mut load, &p, demands[i].rate, -1.0);
                    ripped.push(i);
                }
            }
            if ripped.len() >= 8 {
                break;
            }
        }
        if ripped.is_empty() {
            return None; // nothing to rip: truly stuck
        }
        pending = failed;
        pending.extend(ripped);
    }
    Some(rs)
}

fn apply(topo: &Topology, load: &mut [f64], p: &Path, rate: f64, sign: f64) {
    if let Some(arcs) = p.arcs(topo) {
        for a in arcs {
            load[a.idx()] += sign * rate;
        }
    }
}

/// Route a single demand over residual capacity.
///
/// Two-stage for *path stability*: first try the load-independent
/// inverse-capacity shortest path (what a solver re-run on similar
/// demands would keep choosing), looked up in `statics`; only when that
/// path cannot absorb the demand switch to congestion-aware weights
/// (`1 + load/capacity`) over arcs with enough residual. Stability
/// matters beyond aesthetics — the energy-critical-path analysis
/// (Fig. 2b) counts recurring paths, and gratuitous churn would be an
/// artifact of the oracle, not the network.
fn route_one(
    topo: &Topology,
    active: Option<&ActiveSet>,
    cap: &[f64],
    load: &[f64],
    d: &Demand,
    statics: &StaticPaths,
) -> Option<Path> {
    if let Some((p, arcs)) = statics.get(d.origin, d.dst) {
        if arcs
            .iter()
            .all(|&a| load[a.idx()] + d.rate <= cap[a.idx()] + 1e-6)
        {
            return Some(p.clone());
        }
    }
    let w = |a: ArcId| {
        let i = a.idx();
        if load[i] + d.rate > cap[i] + 1e-6 {
            f64::INFINITY
        } else {
            1.0 + load[i] / cap[i].max(1e-9)
        }
    };
    shortest_path(topo, d.origin, d.dst, &w, active)
}

/// The load-independent first choice of every OD pair of a matrix: the
/// inverse-capacity (`cmax / capacity`) shortest path over one active
/// set, with its arcs. `None` marks a pair with no such path (or one
/// whose hops do not resolve to arcs); either way the pair goes straight
/// to the congestion-aware search.
pub(crate) struct StaticPaths {
    /// OD pairs, sorted; `paths[i]` belongs to `keys[i]`.
    keys: Vec<(NodeId, NodeId)>,
    paths: Vec<Option<(Path, Vec<ArcId>)>>,
}

impl StaticPaths {
    /// First choices for the demands of `tm` over `active`, one search
    /// tree per origin.
    pub(crate) fn new(topo: &Topology, active: Option<&ActiveSet>, tm: &TrafficMatrix) -> Self {
        let cmax = topo
            .arc_ids()
            .map(|a| topo.arc(a).capacity)
            .fold(0.0, f64::max);
        let static_w = |a: ArcId| cmax / topo.arc(a).capacity;
        // A matrix keeps its demands sorted by OD pair, so `keys` is
        // sorted and same-origin pairs are adjacent.
        let keys: Vec<(NodeId, NodeId)> = tm.demands().iter().map(|d| (d.origin, d.dst)).collect();
        let mut paths = Vec::with_capacity(keys.len());
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            let dsts: Vec<NodeId> = group.iter().map(|&(_, d)| d).collect();
            let found = shortest_paths_from(topo, group[0].0, &dsts, &static_w, active);
            paths.extend(found.into_iter().map(|p| with_arcs(topo, p)));
        }
        StaticPaths { keys, paths }
    }

    /// The first choice of an OD pair. Panics if the pair is not in the
    /// table: every caller builds the table from a matrix that covers
    /// the demands it places.
    fn get(&self, o: NodeId, d: NodeId) -> &Option<(Path, Vec<ArcId>)> {
        let i = self
            .keys
            .binary_search(&(o, d))
            .expect("static path table covers every demand");
        &self.paths[i]
    }
}

fn with_arcs(topo: &Topology, p: Option<Path>) -> Option<(Path, Vec<ArcId>)> {
    let p = p?;
    let arcs = p.arcs(topo)?;
    Some((p, arcs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_topo::gen::{fat_tree, line, FatTreeConfig};
    use ecp_topo::{NodeId, TopologyBuilder, MBPS, MS};

    fn tm(pairs: &[(u32, u32, f64)]) -> TrafficMatrix {
        TrafficMatrix::new(
            pairs
                .iter()
                .map(|&(o, d, r)| Demand {
                    origin: NodeId(o),
                    dst: NodeId(d),
                    rate: r,
                })
                .collect(),
        )
    }

    /// Two parallel 10 Mbps paths 0->1->3, 0->2->3.
    fn theta() -> ecp_topo::Topology {
        let mut b = TopologyBuilder::new("theta");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        b.add_link(n[0], n[1], 10.0 * MBPS, MS);
        b.add_link(n[1], n[3], 10.0 * MBPS, MS);
        b.add_link(n[0], n[2], 10.0 * MBPS, MS);
        b.add_link(n[2], n[3], 10.0 * MBPS, MS);
        b.build()
    }

    #[test]
    fn simple_placement() {
        let t = line(3, 10.0 * MBPS, MS);
        let rs = place_flows(&t, None, &tm(&[(0, 2, 5e6)]), &OracleConfig::default()).unwrap();
        assert!(rs.is_feasible(&t, &tm(&[(0, 2, 5e6)]), 1.0));
    }

    #[test]
    fn empty_matrix_trivially_feasible() {
        let t = line(3, 10.0 * MBPS, MS);
        let rs = place_flows(&t, None, &TrafficMatrix::empty(), &OracleConfig::default()).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn overload_detected() {
        let t = line(3, 10.0 * MBPS, MS);
        assert!(place_flows(&t, None, &tm(&[(0, 2, 15e6)]), &OracleConfig::default()).is_none());
    }

    #[test]
    fn margin_shrinks_capacity() {
        let t = line(3, 10.0 * MBPS, MS);
        let m = tm(&[(0, 2, 6e6)]);
        assert!(place_flows(&t, None, &m, &OracleConfig::default()).is_some());
        let tight = OracleConfig {
            margin: 0.5,
            ..Default::default()
        };
        assert!(
            place_flows(&t, None, &m, &tight).is_none(),
            "6 Mbps > 50% of 10 Mbps"
        );
    }

    #[test]
    fn spreads_over_parallel_paths() {
        let t = theta();
        // Two 8 Mbps flows: must take different branches.
        let m = tm(&[(0, 3, 8e6), (3, 0, 8e6)]);
        let rs = place_flows(&t, None, &m, &OracleConfig::default()).unwrap();
        assert!(rs.is_feasible(&t, &m, 1.0));
        // Three 8 Mbps flows in the same direction cannot fit.
        let m3 = tm(&[(0, 3, 8e6), (1, 3, 8e6), (2, 3, 8e6)]);
        let loads_possible = place_flows(&t, None, &m3, &OracleConfig::default());
        // 1->3 direct 8, 2->3 direct 8, 0->3 has no residual: infeasible.
        assert!(loads_possible.is_none());
    }

    #[test]
    fn congestion_aware_balancing() {
        let t = theta();
        // Four 4 Mbps flows 0->3: greedy must split 2/2 over branches.
        let m = tm(&[(0, 3, 16e6)]);
        // One unsplittable 16 Mbps flow cannot fit on 10 Mbps links.
        assert!(place_flows(&t, None, &m, &OracleConfig::default()).is_none());
        // But as separate 4 Mbps demands from distinct sources it fits...
        // (0->3 and 1->3 and 2->3 via both branches)
        let m2 = tm(&[(0, 3, 9e6), (1, 3, 9e6)]);
        // The two flows cannot share the 1->3 link (9+9 > 10); a feasible
        // placement must use both branches.
        let rs = place_flows(&t, None, &m2, &OracleConfig::default()).unwrap();
        assert!(rs.is_feasible(&t, &m2, 1.0));
        let p0 = rs.get(NodeId(0), NodeId(3)).unwrap();
        let p1 = rs.get(NodeId(1), NodeId(3)).unwrap();
        assert!(
            !(p0.visits(NodeId(1)) && p1.hops() == 1),
            "both flows on the upper branch would overload 1->3"
        );
    }

    #[test]
    fn respects_active_subset() {
        let t = theta();
        let mut s = ecp_topo::ActiveSet::all_on(&t);
        s.set_node(NodeId(1), false);
        let m = tm(&[(0, 3, 5e6)]);
        let rs = place_flows(&t, Some(&s), &m, &OracleConfig::default()).unwrap();
        assert!(rs.get(NodeId(0), NodeId(3)).unwrap().visits(NodeId(2)));
        s.set_node(NodeId(2), false);
        assert!(place_flows(&t, Some(&s), &m, &OracleConfig::default()).is_none());
    }

    #[test]
    fn rip_up_recovers_from_bad_greedy_order() {
        // Topology engineered so the big flow must take the only path
        // that the small flow would greedily grab first... with
        // descending order the big flow goes first, so instead check a
        // case where two flows conflict and rerouting fixes it:
        // 0-1: 10M; 1-3: 10M; 0-2: 6M; 2-3: 6M.
        let mut b = TopologyBuilder::new("asym-theta");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        b.add_link(n[0], n[1], 10.0 * MBPS, MS);
        b.add_link(n[1], n[3], 10.0 * MBPS, MS);
        b.add_link(n[0], n[2], 6.0 * MBPS, MS);
        b.add_link(n[2], n[3], 6.0 * MBPS, MS);
        let t = b.build();
        // 8M must use upper; 5M must use lower. Descending order places
        // 8M on upper first (lowest congestion weight), fine. Shuffled
        // restarts may hit the bad order; the oracle must still succeed.
        let m = tm(&[(0, 3, 8e6), (0, 3, 0.0)]); // dedup keeps one
        let m = TrafficMatrix::new(
            m.demands()
                .iter()
                .cloned()
                .chain(std::iter::once(Demand {
                    origin: NodeId(0),
                    dst: NodeId(3),
                    rate: 0.0,
                }))
                .collect(),
        );
        let _ = m;
        let m2 = tm(&[(0, 3, 8e6), (1, 3, 2e6)]);
        let rs = place_flows(&t, None, &m2, &OracleConfig::default()).unwrap();
        assert!(rs.is_feasible(&t, &m2, 1.0));
    }

    #[test]
    fn fat_tree_full_bisection_feasible() {
        let (t, ix) = fat_tree(&FatTreeConfig {
            capacity: 10.0 * MBPS,
            ..Default::default()
        });
        let pairs = ecp_traffic::fat_tree_far_pairs(&ix);
        let m = ecp_traffic::uniform_matrix(&pairs, 9e6);
        let rs = place_flows(&t, None, &m, &OracleConfig::default())
            .expect("fat-tree has full bisection bandwidth");
        assert!(rs.is_feasible(&t, &m, 1.0));
    }

    #[test]
    fn placement_is_deterministic() {
        let t = theta();
        let m = tm(&[(0, 3, 5e6), (1, 3, 3e6)]);
        let a = place_flows(&t, None, &m, &OracleConfig::default()).unwrap();
        let b = place_flows(&t, None, &m, &OracleConfig::default()).unwrap();
        let pa: Vec<Path> = a.iter().map(|(_, p)| p.clone()).collect();
        let pb: Vec<Path> = b.iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(pa, pb);
    }
}
