//! ISP topologies: a GÉANT-like European research network, Rocketfuel
//! PoP-level Abovenet/Genuity maps, and the hierarchical Italian-ISP
//! "PoP-access" design.
//!
//! The real GÉANT map (Uhlig et al. 2006) and the Rocketfuel maps are
//! published as node/link counts and structure; we reproduce those
//! statistics deterministically. Latencies derive from great-circle-ish
//! planar distances at 200 000 km/s (light in fiber); Rocketfuel
//! capacities follow the paper's rule (adopted from TeXCP): 100 Mbps when
//! an endpoint has degree < 7, else 52 Mbps.

use crate::graph::{Node, NodeId, NodeRole, Topology, TopologyBuilder};
use crate::{GBPS, MBPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Propagation speed in fiber, km per second.
const FIBER_KM_PER_S: f64 = 200_000.0;

fn lat_from_km(km: f64) -> f64 {
    km / FIBER_KM_PER_S
}

/// Planar distance between two (x, y) points in km-scaled coordinates.
fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// A GÉANT-like topology: 23 European PoPs, 37 links; predominantly
/// 10 Gbps links (as in the 2005 GÉANT) with 2.5 Gbps peripherals
/// (TelAviv, Riga, transatlantic peering).
///
/// The node set, link structure, and capacity tiering mirror the 2005
/// GÉANT network used by the paper (via the TOTEM dataset); coordinates
/// are approximate city positions used only to derive realistic
/// propagation latencies.
pub fn geant() -> Topology {
    // (name, x-km, y-km) — rough planar projection of Europe,
    // origin near (40N, 10W), 1 unit = 1 km.
    let cities: &[(&str, f64, f64)] = &[
        ("Vienna", 2150.0, 900.0),     // 0  AT
        ("Brussels", 1200.0, 450.0),   // 1  BE
        ("Zagreb", 2250.0, 1150.0),    // 2  HR
        ("Prague", 1950.0, 750.0),     // 3  CZ
        ("Frankfurt", 1550.0, 650.0),  // 4  DE
        ("Athens", 2900.0, 1900.0),    // 5  GR
        ("Budapest", 2400.0, 1000.0),  // 6  HU
        ("Dublin", 350.0, 150.0),      // 7  IE
        ("TelAviv", 4200.0, 2300.0),   // 8  IL
        ("Milan", 1700.0, 1150.0),     // 9  IT
        ("Luxembourg", 1350.0, 550.0), // 10 LU
        ("Amsterdam", 1250.0, 350.0),  // 11 NL
        ("Poznan", 2150.0, 550.0),     // 12 PL
        ("Lisbon", 100.0, 1800.0),     // 13 PT
        ("Bratislava", 2250.0, 950.0), // 14 SK
        ("Ljubljana", 2100.0, 1150.0), // 15 SI
        ("Madrid", 700.0, 1600.0),     // 16 ES
        ("Stockholm", 2000.0, -350.0), // 17 SE
        ("Geneva", 1400.0, 1000.0),    // 18 CH
        ("London", 850.0, 350.0),      // 19 UK
        ("Paris", 1100.0, 650.0),      // 20 FR
        ("NewYork", -5500.0, 700.0),   // 21 US peering
        ("Riga", 2550.0, -100.0),      // 22 LV (Baltic)
    ];
    // Undirected links: (a, b, tier) where tier 0 = 10G, 1 = 2.5G, 2 = 622M.
    let links: &[(usize, usize, u8)] = &[
        // 10G core ring + mesh among big PoPs
        (4, 11, 0),  // Frankfurt–Amsterdam
        (4, 18, 0),  // Frankfurt–Geneva
        (4, 20, 0),  // Frankfurt–Paris (via)
        (4, 3, 0),   // Frankfurt–Prague
        (4, 9, 0),   // Frankfurt–Milan
        (11, 19, 0), // Amsterdam–London
        (19, 20, 0), // London–Paris
        (20, 18, 0), // Paris–Geneva
        (18, 9, 0),  // Geneva–Milan
        (9, 0, 0),   // Milan–Vienna
        (0, 3, 0),   // Vienna–Prague
        (4, 17, 0),  // Frankfurt–Stockholm
        // 2.5G regional
        (1, 11, 1),  // Brussels–Amsterdam
        (1, 20, 1),  // Brussels–Paris
        (10, 4, 1),  // Luxembourg–Frankfurt
        (10, 1, 1),  // Luxembourg–Brussels
        (0, 6, 1),   // Vienna–Budapest
        (6, 14, 1),  // Budapest–Bratislava
        (14, 0, 1),  // Bratislava–Vienna
        (2, 0, 1),   // Zagreb–Vienna
        (2, 6, 1),   // Zagreb–Budapest
        (15, 0, 1),  // Ljubljana–Vienna
        (15, 9, 1),  // Ljubljana–Milan
        (12, 3, 1),  // Poznan–Prague
        (12, 17, 1), // Poznan–Stockholm (Baltic path)
        (16, 20, 1), // Madrid–Paris
        (16, 13, 1), // Madrid–Lisbon
        (13, 19, 1), // Lisbon–London (sea cable)
        (7, 19, 1),  // Dublin–London
        (5, 9, 1),   // Athens–Milan
        (5, 0, 1),   // Athens–Vienna
        // 622M peripheral / peering
        (8, 5, 2),   // TelAviv–Athens
        (8, 9, 2),   // TelAviv–Milan (backup)
        (22, 17, 2), // Riga–Stockholm
        (22, 12, 2), // Riga–Poznan
        (21, 19, 2), // NewYork–London
        (21, 4, 2),  // NewYork–Frankfurt
    ];
    let caps = [10.0 * GBPS, 10.0 * GBPS, 2.5 * GBPS];
    let mut b = TopologyBuilder::new("geant-like");
    let ids: Vec<NodeId> = cities
        .iter()
        .map(|(name, _, _)| {
            b.add_node_full(Node {
                name: (*name).into(),
                role: NodeRole::Core,
                level: 0,
            })
        })
        .collect();
    for &(i, j, tier) in links {
        let km = dist((cities[i].1, cities[i].2), (cities[j].1, cities[j].2));
        b.add_link(ids[i], ids[j], caps[tier as usize], lat_from_km(km));
        b.set_last_link_length(km);
    }
    b.build()
}

/// Deterministic PoP-level map in the style of Rocketfuel: `n` PoPs laid
/// out by a seeded RNG, connected by a backbone ring plus Waxman-style
/// shortcuts until reaching `target_links`. Capacities per the paper's
/// rule: 100 Mbps if an endpoint has degree < `7`, else 52 Mbps.
fn rocketfuel_like(name: &str, n: usize, target_links: usize, seed: u64) -> Topology {
    assert!(n >= 3 && target_links + 1 >= n);
    let mut rng = StdRng::seed_from_u64(seed);
    // Continental-scale coordinates (km).
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..4500.0), rng.gen_range(0.0..2500.0)))
        .collect();

    // Ring over a nearest-neighbour style ordering for short backbone hops:
    // order by angle around the centroid.
    let cx = pos.iter().map(|p| p.0).sum::<f64>() / n as f64;
    let cy = pos.iter().map(|p| p.1).sum::<f64>() / n as f64;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ta = (pos[a].1 - cy).atan2(pos[a].0 - cx);
        let tb = (pos[b].1 - cy).atan2(pos[b].0 - cx);
        ta.total_cmp(&tb)
    });

    let mut links: Vec<(usize, usize)> = Vec::new();
    let has = |links: &Vec<(usize, usize)>, a: usize, b: usize| {
        links
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    };
    for i in 0..n {
        let a = order[i];
        let bq = order[(i + 1) % n];
        if !has(&links, a, bq) {
            links.push((a, bq));
        }
    }
    // Waxman shortcuts: prefer shorter candidate links; deterministic RNG.
    let span = 5150.0; // diag of the coordinate box
    let mut guard = 0;
    while links.len() < target_links && guard < 100_000 {
        guard += 1;
        let a = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        if a == c || has(&links, a, c) {
            continue;
        }
        let d = dist(pos[a], pos[c]);
        // Waxman acceptance: alpha * exp(-d / (beta * L))
        let p = 0.9 * (-d / (0.25 * span)).exp();
        if rng.gen::<f64>() < p {
            links.push((a, c));
        }
    }

    let mut degree = vec![0usize; n];
    for &(a, c) in &links {
        degree[a] += 1;
        degree[c] += 1;
    }

    let mut b = TopologyBuilder::new(name);
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            b.add_node_full(Node {
                name: format!("pop{i}"),
                role: NodeRole::Core,
                level: 0,
            })
        })
        .collect();
    for &(i, j) in &links {
        // Paper rule (from TeXCP): 100 Mbps if connected to an endpoint of
        // degree < 7, else 52 Mbps.
        let cap = if degree[i] < 7 || degree[j] < 7 {
            100.0 * MBPS
        } else {
            52.0 * MBPS
        };
        let km = dist(pos[i], pos[j]);
        b.add_link(ids[i], ids[j], cap, lat_from_km(km));
        b.set_last_link_length(km);
    }
    b.build()
}

/// Rocketfuel-style Abovenet (AS 6461) PoP-level map: 19 PoPs, 34 links.
pub fn abovenet() -> Topology {
    rocketfuel_like("abovenet-like", 19, 34, 0x6461)
}

/// Rocketfuel-style Genuity (AS 1) PoP-level map: 42 PoPs, 74 links.
pub fn genuity() -> Topology {
    rocketfuel_like("genuity-like", 42, 74, 0x0001)
}

/// Configuration for [`pop_access`].
#[derive(Debug, Clone)]
pub struct PopAccessConfig {
    /// Fully-meshed core routers (level 0). Paper topology: small core.
    pub core: usize,
    /// Backbone routers (level 1), each dual-homed to two cores and
    /// chained in a ring for lateral redundancy.
    pub backbone: usize,
    /// Metro routers (level 2), each dual-homed to two backbones.
    pub metro: usize,
    /// Core link capacity (bits/s).
    pub core_capacity: f64,
    /// Backbone uplink capacity.
    pub backbone_capacity: f64,
    /// Metro uplink capacity.
    pub metro_capacity: f64,
}

impl Default for PopAccessConfig {
    fn default() -> Self {
        PopAccessConfig {
            core: 4,
            backbone: 8,
            metro: 16,
            core_capacity: 40.0 * GBPS,
            backbone_capacity: 10.0 * GBPS,
            metro_capacity: 2.5 * GBPS,
        }
    }
}

/// Hierarchical Italian-ISP-like topology (Chiaraviglio et al.): three
/// levels — core (full mesh), backbone (dual-homed + ring), metro
/// (dual-homed) — with "a significant amount of redundancy at each
/// level". Only the top three levels are modelled, matching the paper
/// (feeder nodes below metro must stay on and are out of scope).
pub fn pop_access(cfg: &PopAccessConfig) -> Topology {
    assert!(cfg.core >= 2 && cfg.backbone >= 2 && cfg.metro >= 1);
    let mut b = TopologyBuilder::new("pop-access");
    let core: Vec<NodeId> = (0..cfg.core)
        .map(|i| {
            b.add_node_full(Node {
                name: format!("core{i}"),
                role: NodeRole::Core,
                level: 0,
            })
        })
        .collect();
    let backbone: Vec<NodeId> = (0..cfg.backbone)
        .map(|i| {
            b.add_node_full(Node {
                name: format!("bb{i}"),
                role: NodeRole::Aggregation,
                level: 1,
            })
        })
        .collect();
    let metro: Vec<NodeId> = (0..cfg.metro)
        .map(|i| {
            b.add_node_full(Node {
                name: format!("metro{i}"),
                role: NodeRole::Edge,
                level: 2,
            })
        })
        .collect();

    // Core full mesh, ~1 ms links (national scale).
    for i in 0..cfg.core {
        for j in i + 1..cfg.core {
            b.add_link(core[i], core[j], cfg.core_capacity, 0.001);
            b.set_last_link_length(200.0);
        }
    }
    // Backbone: dual-homed to consecutive cores; ring among backbones.
    for (i, &bb) in backbone.iter().enumerate() {
        let c1 = core[i % cfg.core];
        let c2 = core[(i + 1) % cfg.core];
        b.add_link(bb, c1, cfg.backbone_capacity, 0.0015);
        b.set_last_link_length(300.0);
        b.add_link(bb, c2, cfg.backbone_capacity, 0.0015);
        b.set_last_link_length(300.0);
    }
    for i in 0..cfg.backbone {
        let nxt = (i + 1) % cfg.backbone;
        if cfg.backbone > 2 || i < nxt {
            b.add_link(backbone[i], backbone[nxt], cfg.backbone_capacity, 0.001);
            b.set_last_link_length(200.0);
        }
    }
    // Metro: dual-homed to consecutive backbones.
    for (i, &m) in metro.iter().enumerate() {
        let b1 = backbone[i % cfg.backbone];
        let b2 = backbone[(i + 1) % cfg.backbone];
        b.add_link(m, b1, cfg.metro_capacity, 0.001);
        b.set_last_link_length(150.0);
        b.add_link(m, b2, cfg.metro_capacity, 0.001);
        b.set_last_link_length(150.0);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{is_connected, link_disjoint_path, shortest_path};
    use crate::graph::NodeRole;

    #[test]
    fn geant_counts_match_paper_source() {
        let t = geant();
        assert_eq!(t.node_count(), 23, "GEANT 2005 has 23 PoPs");
        assert_eq!(t.link_count(), 37);
        let all: Vec<NodeId> = t.node_ids().collect();
        assert!(is_connected(&t, &all, None));
    }

    #[test]
    fn geant_latencies_realistic() {
        let t = geant();
        for a in t.arc_ids() {
            let lat = t.arc(a).latency;
            assert!(
                lat > 0.0 && lat < 0.1,
                "intra-Europe/transatlantic: 0-100 ms, got {lat}"
            );
        }
        // A transatlantic link (touching NewYork, node 21) must be the slowest.
        let max_arc = t
            .arc_ids()
            .max_by(|&x, &y| t.arc(x).latency.total_cmp(&t.arc(y).latency))
            .unwrap();
        let arc = t.arc(max_arc);
        assert!(arc.src == NodeId(21) || arc.dst == NodeId(21));
    }

    #[test]
    fn geant_has_redundancy() {
        let t = geant();
        // Frankfurt (4) to Vienna (0): at least 2 link-disjoint paths.
        let p1 = shortest_path(&t, NodeId(4), NodeId(0), &|_| 1.0, None).unwrap();
        let (p2, overlap) =
            link_disjoint_path(&t, NodeId(4), NodeId(0), &[&p1], &|_| 1.0, None).unwrap();
        assert_eq!(overlap, 0, "disjoint alternative exists: {p2}");
    }

    #[test]
    fn abovenet_counts() {
        let t = abovenet();
        assert_eq!(t.node_count(), 19);
        assert_eq!(t.link_count(), 34);
        let all: Vec<NodeId> = t.node_ids().collect();
        assert!(is_connected(&t, &all, None));
    }

    #[test]
    fn genuity_counts() {
        let t = genuity();
        assert_eq!(t.node_count(), 42);
        assert_eq!(t.link_count(), 74);
        let all: Vec<NodeId> = t.node_ids().collect();
        assert!(is_connected(&t, &all, None));
    }

    #[test]
    fn rocketfuel_capacity_rule() {
        let t = abovenet();
        for a in t.arc_ids() {
            let arc = t.arc(a);
            let d_src = t.degree(arc.src);
            let d_dst = t.degree(arc.dst);
            let expect = if d_src < 7 || d_dst < 7 {
                100.0 * MBPS
            } else {
                52.0 * MBPS
            };
            assert!(
                (arc.capacity - expect).abs() < 1.0,
                "capacity rule violated"
            );
        }
    }

    #[test]
    fn rocketfuel_generation_is_deterministic() {
        let a = abovenet();
        let b = abovenet();
        assert_eq!(a.arc_count(), b.arc_count());
        for (x, y) in a.arc_ids().zip(b.arc_ids()) {
            assert_eq!(a.arc(x).src, b.arc(y).src);
            assert_eq!(a.arc(x).dst, b.arc(y).dst);
        }
    }

    #[test]
    fn pop_access_structure() {
        let cfg = PopAccessConfig::default();
        let t = pop_access(&cfg);
        assert_eq!(t.node_count(), 4 + 8 + 16);
        assert_eq!(t.nodes_with_role(NodeRole::Edge).len(), 16);
        let all: Vec<NodeId> = t.node_ids().collect();
        assert!(is_connected(&t, &all, None));
        // Redundancy: every metro survives losing one uplink.
        for m in t.nodes_with_role(NodeRole::Edge) {
            assert!(t.degree(m) >= 2, "metro dual-homed");
        }
    }

    #[test]
    fn pop_access_metro_to_metro_redundant() {
        let t = pop_access(&PopAccessConfig::default());
        let metros = t.nodes_with_role(NodeRole::Edge);
        let (src, dst) = (metros[0], metros[8]);
        let p1 = shortest_path(&t, src, dst, &|_| 1.0, None).unwrap();
        let (_, overlap) = link_disjoint_path(&t, src, dst, &[&p1], &|_| 1.0, None).unwrap();
        assert_eq!(
            overlap, 0,
            "hierarchy provides disjoint metro-to-metro paths"
        );
    }

    #[test]
    fn all_isp_topologies_validate() {
        assert_eq!(geant().validate(), Ok(()));
        assert_eq!(abovenet().validate(), Ok(()));
        assert_eq!(genuity().validate(), Ok(()));
        assert_eq!(pop_access(&PopAccessConfig::default()).validate(), Ok(()));
    }
}
