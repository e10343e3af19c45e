//! Deployment feasibility (§4.5): do the tables fit real routers?
//!
//! "MPLS allows flows to be placed over precomputed paths. REsPoNse
//! places modest requirements on the number of paths (three) between any
//! given origin and destination. If we assume that the number of egress
//! points in large ISP backbones is about 200-300 and the number of
//! supported tunnels in modern routers is about 600 [...], we conclude
//! that REsPoNse can be deployed even in large ISP networks. If the
//! routing memory is limited (e.g. Dual Topology Routing allows only two
//! routing tables), we can deploy only the most important routing
//! tables, while keeping the remaining ones ready for later use."

use crate::tables::{OdPaths, PathTables};
use ecp_topo::NodeId;
use ecp_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Hardware limits of the deployment target.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DeviceLimits {
    /// Head-end MPLS tunnels a router can originate (paper: ~600 for
    /// 2005-era hardware).
    pub tunnels_per_router: usize,
    /// Distinct routing tables the platform supports per OD pair (Dual
    /// Topology Routing: 2; unconstrained MPLS: usize::MAX).
    pub tables_per_pair: usize,
}

impl Default for DeviceLimits {
    fn default() -> Self {
        DeviceLimits {
            tunnels_per_router: 600,
            tables_per_pair: usize::MAX,
        }
    }
}

/// Per-router tunnel accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// `(origin router, head-end tunnels required)`, descending.
    pub per_router: Vec<(NodeId, usize)>,
    /// Highest per-router tunnel count.
    pub max_tunnels: usize,
    /// Whether every router fits within the limits.
    pub fits: bool,
}

/// Count head-end tunnels per origin router (one tunnel per *distinct*
/// installed path — duplicate paths, e.g. a failover coinciding with an
/// on-demand path, share a tunnel in an MPLS deployment).
pub fn tunnel_usage(tables: &PathTables, limits: &DeviceLimits) -> DeploymentReport {
    let mut per: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (&(o, _), od) in tables.iter() {
        *per.entry(o).or_insert(0) += distinct_tunnels(od).min(limits.tables_per_pair);
    }
    let mut per_router: Vec<(NodeId, usize)> = per.into_iter().collect();
    per_router.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let max_tunnels = per_router.first().map(|&(_, c)| c).unwrap_or(0);
    DeploymentReport {
        per_router,
        max_tunnels,
        fits: max_tunnels <= limits.tunnels_per_router,
    }
}

/// Trim the tables to fit the device limits, keeping "the most important
/// routing tables" — importance is the expected traffic of the OD pair
/// under `typical` (pairs absent from the matrix rank last).
///
/// Trimming order, per origin router exceeding its budget:
/// 1. drop extra on-demand tables of the lowest-traffic pairs first
///    (always-on and failover are never dropped — connectivity and
///    protection survive);
/// 2. if still over budget, merge failover into on-demand for the
///    lowest-traffic pairs (failover = first on-demand path), freeing
///    one tunnel per pair.
pub fn deploy_most_important(
    tables: &PathTables,
    limits: &DeviceLimits,
    typical: &TrafficMatrix,
) -> PathTables {
    // Start from a per-pair copy with the tables_per_pair cap applied.
    let mut working: Vec<((NodeId, NodeId), OdPaths)> = tables
        .iter()
        .map(|(&k, od)| {
            let mut od = od.clone();
            if od.num_paths() > limits.tables_per_pair {
                let keep_od = limits.tables_per_pair.saturating_sub(2);
                od.on_demand.truncate(keep_od);
                if limits.tables_per_pair < 2 {
                    // Single-table platform: failover collapses onto the
                    // always-on path.
                    od.failover = od.always_on.clone();
                }
            }
            (k, od)
        })
        .collect();

    // Group indices by origin.
    let mut by_origin: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (i, ((o, _), _)) in working.iter().enumerate() {
        by_origin.entry(*o).or_default().push(i);
    }

    for (_, idxs) in by_origin {
        let budget = limits.tunnels_per_router;
        let mut count: usize = idxs.iter().map(|&i| distinct_tunnels(&working[i].1)).sum();
        if count <= budget {
            continue;
        }
        // Ascending importance.
        let mut order: Vec<usize> = idxs.clone();
        order.sort_by(|&a, &b| {
            let ta = typical.get(working[a].0 .0, working[a].0 .1);
            let tb = typical.get(working[b].0 .0, working[b].0 .1);
            ta.total_cmp(&tb)
        });
        // Pass 1: drop on-demand tables of unimportant pairs.
        for &i in &order {
            if count <= budget {
                break;
            }
            while !working[i].1.on_demand.is_empty() && count > budget {
                working[i].1.on_demand.pop();
                count = idxs.iter().map(|&j| distinct_tunnels(&working[j].1)).sum();
            }
        }
        // Pass 2: collapse failover onto always-on for unimportant pairs.
        for &i in &order {
            if count <= budget {
                break;
            }
            if working[i].1.failover != working[i].1.always_on {
                working[i].1.failover = working[i].1.always_on.clone();
                count = idxs.iter().map(|&j| distinct_tunnels(&working[j].1)).sum();
            }
        }
    }

    let mut out = PathTables::new();
    for ((o, d), od) in working {
        out.insert(o, d, od);
    }
    out
}

/// Tunnels a pair actually consumes: duplicate paths (failover ==
/// on-demand, etc.) share one tunnel.
fn distinct_tunnels(od: &OdPaths) -> usize {
    let mut seen: Vec<&ecp_topo::Path> = Vec::new();
    for p in od.all() {
        if !seen.contains(&p) {
            seen.push(p);
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};
    use ecp_power::PowerModel;
    use ecp_topo::gen::geant;
    use ecp_traffic::{gravity_matrix, random_od_pairs};

    fn planned() -> (ecp_topo::Topology, PathTables, Vec<(NodeId, NodeId)>) {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 120, 3);
        let tables = Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &pairs);
        (t, tables, pairs)
    }

    #[test]
    fn paper_scale_deployment_fits() {
        // Paper arithmetic: ~300 egress points x 3 paths <= 600 tunnels
        // holds when at most ~200 pairs originate per router. On GEANT
        // with 120 pairs over 23 routers, usage is far below the limit.
        let (_, tables, _) = planned();
        let rep = tunnel_usage(&tables, &DeviceLimits::default());
        assert!(rep.fits);
        assert!(rep.max_tunnels <= 600);
        assert!(!rep.per_router.is_empty());
        // Descending order.
        for w in rep.per_router.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn tight_budget_forces_trimming_low_traffic_pairs_first() {
        let (t, tables, pairs) = planned();
        let typical = gravity_matrix(&t, &pairs, 1e9);
        // The floor is one tunnel per pair (always-on survives trimming);
        // pick a budget above that floor but below the untrimmed usage.
        let untrimmed = tunnel_usage(&tables, &DeviceLimits::default());
        let max_pairs_per_origin = tables
            .iter()
            .fold(
                std::collections::BTreeMap::<NodeId, usize>::new(),
                |mut m, (&(o, _), _)| {
                    *m.entry(o).or_insert(0) += 1;
                    m
                },
            )
            .values()
            .copied()
            .max()
            .unwrap();
        let budget = max_pairs_per_origin + 3;
        assert!(
            budget < untrimmed.max_tunnels,
            "test premise: trimming needed"
        );
        let limits = DeviceLimits {
            tunnels_per_router: budget,
            tables_per_pair: usize::MAX,
        };
        let trimmed = deploy_most_important(&tables, &limits, &typical);
        let rep = tunnel_usage(&trimmed, &limits);
        assert!(
            rep.fits,
            "trimming must reach the budget: {}",
            rep.max_tunnels
        );
        // Connectivity survives: every pair still has its always-on path.
        assert_eq!(trimmed.len(), tables.len());
        for (&(o, d), od) in trimmed.iter() {
            assert_eq!(od.always_on.origin(), o);
            assert_eq!(od.always_on.destination(), d);
        }
        // The highest-traffic pair of some busy router keeps more tables
        // than the lowest-traffic one.
        let busy = rep.per_router[0].0;
        let mut pairs_of: Vec<(&(NodeId, NodeId), &OdPaths)> =
            trimmed.iter().filter(|(&(o, _), _)| o == busy).collect();
        pairs_of.sort_by(|a, b| {
            typical
                .get(a.0 .0, a.0 .1)
                .partial_cmp(&typical.get(b.0 .0, b.0 .1))
                .unwrap()
        });
        if pairs_of.len() >= 2 {
            let least = distinct_tunnels(pairs_of.first().unwrap().1);
            let most = distinct_tunnels(pairs_of.last().unwrap().1);
            assert!(
                most >= least,
                "important pairs keep at least as many tables"
            );
        }
    }

    #[test]
    fn dual_topology_routing_cap() {
        // DTR supports two tables: always-on + one more.
        let (t, tables, pairs) = planned();
        let typical = gravity_matrix(&t, &pairs, 1e9);
        let limits = DeviceLimits {
            tunnels_per_router: usize::MAX,
            tables_per_pair: 2,
        };
        let trimmed = deploy_most_important(&tables, &limits, &typical);
        for (_, od) in trimmed.iter() {
            assert!(distinct_tunnels(od) <= 2, "DTR allows only two tables");
        }
        assert_eq!(trimmed.validate(&t), Ok(()));
    }

    #[test]
    fn generous_limits_change_nothing() {
        let (t, tables, pairs) = planned();
        let typical = gravity_matrix(&t, &pairs, 1e9);
        let trimmed = deploy_most_important(&tables, &DeviceLimits::default(), &typical);
        assert_eq!(trimmed, tables);
        let _ = t;
    }

    #[test]
    fn empty_tables_report() {
        let rep = tunnel_usage(&PathTables::new(), &DeviceLimits::default());
        assert!(rep.fits);
        assert_eq!(rep.max_tunnels, 0);
    }
}
