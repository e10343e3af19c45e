//! Equivalence of the oracle's and the greedy prune's exact shortcuts
//! with the straightforward algorithms they replace.
//!
//! The reference copies below are the per-candidate `greedy_prune`, the
//! per-required-node `is_connected` and the per-demand `route_one`
//! (static path searched afresh for every demand of every attempt). The
//! library versions must agree with them bit for bit: same active set,
//! same routes, same power, same feasible volume. `shortest_path`, which
//! stops once the destination is settled, must return the path of the
//! full search tree.
//!
//! Case count: 32 by default; `PROPTEST_CASES` overrides it (CI runs
//! these in release with 512).

use ecp_power::PowerModel;
use ecp_routing::subset::{greedy_prune, PruneOrder, SubsetResult};
use ecp_routing::{max_feasible_volume, place_flows, OracleConfig, RouteSet};
use ecp_topo::algo::{is_connected, reachable_from, shortest_path, shortest_paths_from};
use ecp_topo::gen::random_waxman;
use ecp_topo::{ActiveSet, ArcId, NodeId, Path, Topology, TopologyBuilder, MBPS, MS};
use ecp_traffic::{gravity_matrix, Demand, TrafficMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

// ---- Reference copies -------------------------------------------------

fn ref_is_connected(topo: &Topology, required: &[NodeId], active: Option<&ActiveSet>) -> bool {
    if required.len() <= 1 {
        return true;
    }
    for &r in required {
        let seen = reachable_from(topo, r, active);
        if required.iter().any(|&q| !seen[q.idx()]) {
            return false;
        }
    }
    true
}

fn ref_place_flows(
    topo: &Topology,
    active: Option<&ActiveSet>,
    tm: &TrafficMatrix,
    cfg: &OracleConfig,
) -> Option<RouteSet> {
    if tm.is_empty() {
        return Some(RouteSet::new());
    }
    let mut order: Vec<Demand> = tm.demands().to_vec();
    order.sort_by(|a, b| {
        b.rate
            .partial_cmp(&a.rate)
            .unwrap()
            .then_with(|| (a.origin, a.dst).cmp(&(b.origin, b.dst)))
    });
    if let Some(rs) = ref_try_place(topo, active, &order, cfg) {
        return Some(rs);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.restarts {
        order.shuffle(&mut rng);
        if let Some(rs) = ref_try_place(topo, active, &order, cfg) {
            return Some(rs);
        }
    }
    None
}

fn ref_try_place(
    topo: &Topology,
    active: Option<&ActiveSet>,
    order: &[Demand],
    cfg: &OracleConfig,
) -> Option<RouteSet> {
    let cap: Vec<f64> = topo
        .arc_ids()
        .map(|a| topo.arc(a).capacity * cfg.margin)
        .collect();
    let mut load = vec![0.0; topo.arc_count()];
    let mut rs = RouteSet::new();
    let mut pending: Vec<Demand> = order.to_vec();
    let mut passes = 0;
    while !pending.is_empty() {
        let mut failed: Vec<Demand> = Vec::new();
        for d in pending.drain(..) {
            match ref_route_one(topo, active, &cap, &load, &d) {
                Some(p) => {
                    ref_apply(topo, &mut load, &p, d.rate, 1.0);
                    rs.insert(p);
                }
                None => failed.push(d),
            }
        }
        if failed.is_empty() {
            return Some(rs);
        }
        passes += 1;
        if passes > cfg.reroute_passes {
            return None;
        }
        let hot: Vec<ArcId> = topo
            .arc_ids()
            .filter(|&a| load[a.idx()] > 0.7 * cap[a.idx()])
            .collect();
        let mut ripped: Vec<Demand> = Vec::new();
        let keys: Vec<(NodeId, NodeId)> = rs.iter().map(|(k, _)| *k).collect();
        for (o, dd) in keys {
            let p = rs.get(o, dd).unwrap().clone();
            let crosses_hot = p
                .arcs(topo)
                .map(|arcs| arcs.iter().any(|a| hot.contains(a)))
                .unwrap_or(false);
            if crosses_hot {
                if let Some(d0) = order.iter().find(|d| d.origin == o && d.dst == dd) {
                    ref_apply(topo, &mut load, &p, d0.rate, -1.0);
                    rs.remove(o, dd);
                    ripped.push(*d0);
                }
            }
            if ripped.len() >= 8 {
                break;
            }
        }
        if ripped.is_empty() {
            return None;
        }
        pending = failed;
        pending.extend(ripped);
    }
    Some(rs)
}

fn ref_apply(topo: &Topology, load: &mut [f64], p: &Path, rate: f64, sign: f64) {
    if let Some(arcs) = p.arcs(topo) {
        for a in arcs {
            load[a.idx()] += sign * rate;
        }
    }
}

fn ref_route_one(
    topo: &Topology,
    active: Option<&ActiveSet>,
    cap: &[f64],
    load: &[f64],
    d: &Demand,
) -> Option<Path> {
    let cmax = topo
        .arc_ids()
        .map(|a| topo.arc(a).capacity)
        .fold(0.0, f64::max);
    let static_w = |a: ArcId| cmax / topo.arc(a).capacity;
    if let Some(p) = shortest_path(topo, d.origin, d.dst, &static_w, active) {
        let fits = p
            .arcs(topo)
            .map(|arcs| {
                arcs.iter()
                    .all(|&a| load[a.idx()] + d.rate <= cap[a.idx()] + 1e-6)
            })
            .unwrap_or(false);
        if fits {
            return Some(p);
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

fn required_nodes(tm: &TrafficMatrix) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = tm
        .demands()
        .iter()
        .flat_map(|d| [d.origin, d.dst])
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn ref_greedy_prune(
    topo: &Topology,
    power: &PowerModel,
    tm: &TrafficMatrix,
    oracle: &OracleConfig,
    order: PruneOrder,
) -> Option<SubsetResult> {
    let mut active = ActiveSet::all_on(topo);
    let mut routes = ref_place_flows(topo, Some(&active), tm, oracle)?;
    let required = required_nodes(tm);

    let mut node_candidates: Vec<NodeId> =
        topo.node_ids().filter(|n| !required.contains(n)).collect();
    let node_power = |n: NodeId| -> f64 {
        power.chassis(topo, n)
            + topo
                .out_arcs(n)
                .iter()
                .map(|&a| power.port(topo, a))
                .sum::<f64>()
    };
    match order {
        PruneOrder::PowerDesc => node_candidates.sort_by(|&a, &b| {
            node_power(b)
                .partial_cmp(&node_power(a))
                .unwrap()
                .then(a.cmp(&b))
        }),
        PruneOrder::LoadAsc => {
            let loads = routes.link_loads(topo, tm);
            let thru =
                |n: NodeId| -> f64 { topo.out_arcs(n).iter().map(|&a| loads[a.idx()]).sum() };
            node_candidates
                .sort_by(|&a, &b| thru(a).partial_cmp(&thru(b)).unwrap().then(a.cmp(&b)));
        }
        PruneOrder::Random(seed) => {
            node_candidates.shuffle(&mut StdRng::seed_from_u64(seed));
        }
    }
    for n in node_candidates {
        let mut tentative = active.clone();
        tentative.set_node(n, false);
        if !ref_is_connected(topo, &required, Some(&tentative)) {
            continue;
        }
        if let Some(rs) = ref_place_flows(topo, Some(&tentative), tm, oracle) {
            active = tentative;
            routes = rs;
        }
    }

    let mut link_candidates: Vec<ArcId> = topo
        .link_ids()
        .filter(|&l| active.arc_on(topo, l))
        .collect();
    match order {
        PruneOrder::PowerDesc => link_candidates.sort_by(|&a, &b| {
            power
                .link_full(topo, b)
                .partial_cmp(&power.link_full(topo, a))
                .unwrap()
                .then(a.cmp(&b))
        }),
        PruneOrder::LoadAsc => {
            let loads = routes.link_loads(topo, tm);
            let l2 = |l: ArcId| -> f64 {
                let r = topo.reverse(l);
                loads[l.idx()] + r.map(|r| loads[r.idx()]).unwrap_or(0.0)
            };
            link_candidates.sort_by(|&a, &b| l2(a).partial_cmp(&l2(b)).unwrap().then(a.cmp(&b)));
        }
        PruneOrder::Random(seed) => {
            link_candidates.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9E37_79B9));
        }
    }
    for l in link_candidates {
        let mut tentative = active.clone();
        tentative.set_link(topo, l, false);
        if !ref_is_connected(topo, &required, Some(&tentative)) {
            continue;
        }
        if let Some(rs) = ref_place_flows(topo, Some(&tentative), tm, oracle) {
            active = tentative;
            routes = rs;
        }
    }

    active.prune_isolated_nodes(topo);
    let power_w = power.network_power(topo, &active);
    Some(SubsetResult {
        active,
        routes,
        power_w,
    })
}

fn ref_max_feasible_volume(
    topo: &Topology,
    od_pairs: &[(NodeId, NodeId)],
    oracle: &OracleConfig,
) -> f64 {
    let start = topo.total_capacity() * 0.01;
    let base = gravity_matrix(topo, od_pairs, start);
    let feasible = |v: f64| -> bool {
        let tm = base.scaled(v / start);
        ref_place_flows(topo, None, &tm, oracle).is_some()
    };
    let mut volume = start;
    if !feasible(volume) {
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

// ---- Generators -------------------------------------------------------

const ORDERS: [PruneOrder; 4] = [
    PruneOrder::PowerDesc,
    PruneOrder::LoadAsc,
    PruneOrder::Random(1),
    PruneOrder::Random(2),
];

fn config() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    ProptestConfig::with_cases(cases)
}

/// A Waxman topology with 10 Mbps links.
fn arb_waxman() -> impl Strategy<Value = Topology> {
    (5usize..16, 0u64..10_000).prop_map(|(n, seed)| random_waxman(n, 0.6, 0.3, 10.0 * MBPS, seed))
}

/// Matrix over index pairs (taken modulo the node count) with the given
/// rates; self-pairs are dropped.
fn matrix(topo: &Topology, pairs: &[(usize, usize)], rates: &[f64]) -> TrafficMatrix {
    let n = topo.node_count();
    TrafficMatrix::new(
        pairs
            .iter()
            .zip(rates)
            .map(|(&(o, d), &rate)| Demand {
                origin: NodeId((o % n) as u32),
                dst: NodeId((d % n) as u32),
                rate,
            })
            .collect(),
    )
}

/// A topology with mixed capacities: a chain through every node plus
/// random extra links. With `one_way`, some chain hops and extras are
/// single arcs without a reverse.
fn arb_mixed(one_way: bool) -> impl Strategy<Value = Topology> {
    (
        4usize..12,
        proptest::collection::vec(
            (0usize..12, 0usize..12, 0usize..3, proptest::bool::ANY),
            0..20,
        ),
        proptest::collection::vec((0usize..3, proptest::bool::ANY), 11),
    )
        .prop_map(move |(n, extra, chain)| {
            let caps = [2.5 * MBPS, 10.0 * MBPS, 40.0 * MBPS];
            let mut b = TopologyBuilder::new("mixed");
            let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("m{i}"))).collect();
            for (i, &(c, arc)) in chain.iter().take(n - 1).enumerate() {
                if one_way && arc {
                    b.add_arc(ids[i], ids[i + 1], caps[c], MS);
                } else {
                    b.add_link(ids[i], ids[i + 1], caps[c], MS);
                }
            }
            for (i, j, c, arc) in extra {
                let (i, j) = (i % n, j % n);
                if i == j {
                    continue;
                }
                if one_way && arc {
                    b.add_arc(ids[i], ids[j], caps[c], MS);
                } else {
                    b.add_link(ids[i], ids[j], caps[c], MS);
                }
            }
            b.build()
        })
}

/// One of the first `kinds` of: Waxman, mixed capacities, mixed
/// capacities with one-way arcs.
fn arb_any(kinds: usize) -> impl Strategy<Value = Topology> {
    (0..kinds, arb_waxman(), arb_mixed(false), arb_mixed(true)).prop_map(|(k, w, m, o)| match k {
        0 => w,
        1 => m,
        _ => o,
    })
}

/// Switch off the flagged nodes and links (flags cycle if short).
fn thin(topo: &Topology, node_off: &[bool], link_off: &[bool]) -> ActiveSet {
    let mut s = ActiveSet::all_on(topo);
    for (i, n) in topo.node_ids().enumerate() {
        if node_off[i % node_off.len()] {
            s.set_node(n, false);
        }
    }
    for (i, l) in topo.link_ids().enumerate() {
        if link_off[i % link_off.len()] {
            s.set_link(topo, l, false);
        }
    }
    s
}

fn assert_same(fast: &Option<SubsetResult>, reference: &Option<SubsetResult>) {
    match (fast, reference) {
        (None, None) => {}
        (Some(f), Some(r)) => {
            assert_eq!(f.active, r.active, "active sets differ");
            assert_eq!(f.routes, r.routes, "routes differ");
            assert_eq!(f.power_w.to_bits(), r.power_w.to_bits(), "power differs");
        }
        _ => panic!(
            "feasibility differs: fast {} reference {}",
            fast.is_some(),
            reference.is_some()
        ),
    }
}

fn min_usable_capacity(topo: &Topology, margin: f64) -> f64 {
    topo.arc_ids()
        .map(|a| topo.arc(a).capacity * margin)
        .fold(f64::INFINITY, f64::min)
}

// ---- Properties -------------------------------------------------------

proptest! {
    #![proptest_config(config())]

    /// ε demands (the §4.1 always-on construction): the slack shortcut
    /// decides candidates on connectivity alone and must reproduce the
    /// per-candidate prune for every order.
    #[test]
    fn greedy_prune_matches_reference_on_eps_matrices(
        topo in arb_waxman(),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 1..12),
    ) {
        let tm = matrix(&topo, &pairs, &vec![1.0; pairs.len()]);
        let pm = PowerModel::cisco12000();
        let oc = OracleConfig::default();
        for order in ORDERS {
            assert_same(
                &greedy_prune(&topo, &pm, &tm, &oc, order),
                &ref_greedy_prune(&topo, &pm, &tm, &oc, order),
            );
        }
    }

    /// Capacity-binding matrices take the unchanged per-candidate path.
    #[test]
    fn greedy_prune_matches_reference_on_binding_matrices(
        topo in arb_waxman(),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 2..8),
        rates in proptest::collection::vec(2e6f64..9e6, 8),
        margin in 0.6f64..1.0,
    ) {
        let tm = matrix(&topo, &pairs, &rates);
        prop_assume!(tm.total() > min_usable_capacity(&topo, margin));
        let pm = PowerModel::cisco12000();
        let oc = OracleConfig { margin, ..Default::default() };
        for order in ORDERS {
            assert_same(
                &greedy_prune(&topo, &pm, &tm, &oc, order),
                &ref_greedy_prune(&topo, &pm, &tm, &oc, order),
            );
        }
    }

    /// Single search on all-paired topologies equals one search per
    /// required node.
    #[test]
    fn is_connected_matches_reference_on_symmetric_topologies(
        topo in arb_waxman(),
        node_off in proptest::collection::vec(proptest::bool::weighted(0.15), 1..16),
        link_off in proptest::collection::vec(proptest::bool::weighted(0.3), 1..40),
        required in proptest::collection::vec(0usize..16, 0..8),
    ) {
        prop_assert!(topo.all_arcs_paired());
        let s = thin(&topo, &node_off, &link_off);
        let n = topo.node_count();
        let mut req: Vec<NodeId> = required.iter().map(|&i| NodeId((i % n) as u32)).collect();
        req.sort_unstable();
        req.dedup();
        for active in [None, Some(&s)] {
            prop_assert_eq!(
                is_connected(&topo, &req, active),
                ref_is_connected(&topo, &req, active)
            );
        }
    }

    /// Topologies with one-way arcs keep the per-node search.
    #[test]
    fn is_connected_matches_reference_with_one_way_arcs(
        topo in arb_mixed(true),
        node_off in proptest::collection::vec(proptest::bool::weighted(0.15), 1..12),
        link_off in proptest::collection::vec(proptest::bool::weighted(0.3), 1..30),
        required in proptest::collection::vec(0usize..12, 0..8),
    ) {
        prop_assume!(!topo.all_arcs_paired());
        let s = thin(&topo, &node_off, &link_off);
        let n = topo.node_count();
        let mut req: Vec<NodeId> = required.iter().map(|&i| NodeId((i % n) as u32)).collect();
        req.sort_unstable();
        req.dedup();
        for active in [None, Some(&s)] {
            prop_assert_eq!(
                is_connected(&topo, &req, active),
                ref_is_connected(&topo, &req, active)
            );
        }
    }

    /// `shortest_path` stops once the destination is settled; its path
    /// must equal the one read off the full tree, also with zero-weight
    /// arcs, distance ties and powered-off elements.
    #[test]
    fn early_exit_shortest_path_matches_full_tree(
        topo in arb_any(3),
        weights in proptest::collection::vec(0u8..3, 1..64),
        link_off in proptest::collection::vec(proptest::bool::weighted(0.15), 1..40),
    ) {
        let w = |a: ArcId| weights[a.idx() % weights.len()] as f64;
        let s = thin(&topo, &[false], &link_off);
        let all: Vec<NodeId> = topo.node_ids().collect();
        for active in [None, Some(&s)] {
            for src in topo.node_ids() {
                let tree = shortest_paths_from(&topo, src, &all, &w, active);
                for (&dst, full) in all.iter().zip(&tree) {
                    prop_assert_eq!(&shortest_path(&topo, src, dst, &w, active), full);
                }
            }
        }
    }

    /// Static paths computed once per call equal the per-demand search,
    /// through restarts and rip-up passes, on full and thinned subsets.
    #[test]
    fn place_flows_matches_reference(
        topo in arb_any(3),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 1..14),
        rates in proptest::collection::vec(1e5f64..9e6, 14),
        node_off in proptest::collection::vec(proptest::bool::weighted(0.1), 1..16),
        link_off in proptest::collection::vec(proptest::bool::weighted(0.2), 1..40),
        margin in 0.5f64..1.0,
    ) {
        let tm = matrix(&topo, &pairs, &rates);
        let oc = OracleConfig { margin, ..Default::default() };
        let s = thin(&topo, &node_off, &link_off);
        for active in [None, Some(&s)] {
            prop_assert_eq!(
                place_flows(&topo, active, &tm, &oc),
                ref_place_flows(&topo, active, &tm, &oc)
            );
        }
    }

    /// The oracle probe with shared static paths finds the same volume.
    #[test]
    fn max_feasible_volume_matches_reference(
        topo in arb_any(2),
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 1..10),
    ) {
        let n = topo.node_count();
        let od: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .map(|&(o, d)| (NodeId((o % n) as u32), NodeId((d % n) as u32)))
            .filter(|(o, d)| o != d)
            .collect();
        prop_assume!(!od.is_empty());
        let oc = OracleConfig::default();
        prop_assert_eq!(
            max_feasible_volume(&topo, &od, &oc).to_bits(),
            ref_max_feasible_volume(&topo, &od, &oc).to_bits()
        );
    }
}
