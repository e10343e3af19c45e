//! Energy-critical path identification (§3.3, Fig. 2b).
//!
//! "We rank each (O,D) path by the amount of traffic it would have
//! carried over the trace duration. [...] a large majority of node pairs
//! route their packets through very few, reoccurring paths — we refer to
//! these as energy-critical paths."

use ecp_routing::RouteSet;
use ecp_topo::{NodeId, Path};
use ecp_traffic::TrafficMatrix;
use std::collections::BTreeMap;

/// Accumulated per-OD, per-path carried traffic across a trace replay.
#[derive(Debug, Clone, Default)]
pub struct PathUsage {
    /// `(origin, dst) → [(path, bits carried)]`, unsorted.
    usage: BTreeMap<(NodeId, NodeId), Vec<(Path, f64)>>,
}

impl PathUsage {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one interval: each demand of `tm` carried `rate ×
    /// interval_s` bits over its chosen path in `routes`.
    pub fn record(&mut self, routes: &RouteSet, tm: &TrafficMatrix, interval_s: f64) {
        for d in tm.demands() {
            if let Some(p) = routes.get(d.origin, d.dst) {
                let bits = d.rate * interval_s;
                let entry = self.usage.entry((d.origin, d.dst)).or_default();
                match entry.iter_mut().find(|(q, _)| q == p) {
                    Some((_, b)) => *b += bits,
                    None => entry.push((p.clone(), bits)),
                }
            }
        }
    }

    /// Number of OD pairs observed.
    pub fn pairs(&self) -> usize {
        self.usage.len()
    }

    /// The paths of one pair ranked by carried traffic (descending).
    pub fn ranked(&self, origin: NodeId, dst: NodeId) -> Vec<(Path, f64)> {
        let mut v = self.usage.get(&(origin, dst)).cloned().unwrap_or_default();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Largest number of distinct paths any pair used.
    pub fn max_distinct_paths(&self) -> usize {
        self.usage.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Fraction of *total* carried traffic covered when every pair keeps
    /// only its top `x` paths — the y-axis of Fig. 2b.
    pub fn coverage(&self, x: usize) -> f64 {
        let mut covered = 0.0;
        let mut total = 0.0;
        for entry in self.usage.values() {
            let mut v: Vec<f64> = entry.iter().map(|(_, b)| *b).collect();
            v.sort_by(|a, b| b.total_cmp(a));
            total += v.iter().sum::<f64>();
            covered += v.iter().take(x).sum::<f64>();
        }
        if total > 0.0 {
            covered / total
        } else {
            1.0
        }
    }

    /// Fraction of pairs fully covered (100% of their traffic) by their
    /// top `x` paths.
    pub fn pairs_fully_covered(&self, x: usize) -> f64 {
        if self.usage.is_empty() {
            return 1.0;
        }
        let full = self.usage.values().filter(|v| v.len() <= x).count();
        full as f64 / self.usage.len() as f64
    }
}

/// Coverage series for a list of `x` values (the Fig. 2b curve).
pub fn coverage_by_top_paths(usage: &PathUsage, xs: &[usize]) -> Vec<(usize, f64)> {
    xs.iter().map(|&x| (x, usage.coverage(x))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_traffic::Demand;

    fn rs(paths: &[Vec<u32>]) -> RouteSet {
        paths
            .iter()
            .map(|p| Path::new(p.iter().map(|&i| NodeId(i)).collect()))
            .collect()
    }

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

    #[test]
    fn single_path_full_coverage() {
        let mut u = PathUsage::new();
        u.record(&rs(&[vec![0, 1, 2]]), &tm(&[(0, 2, 10.0)]), 900.0);
        u.record(&rs(&[vec![0, 1, 2]]), &tm(&[(0, 2, 20.0)]), 900.0);
        assert_eq!(u.pairs(), 1);
        assert_eq!(u.max_distinct_paths(), 1);
        assert!((u.coverage(1) - 1.0).abs() < 1e-12);
        assert_eq!(u.pairs_fully_covered(1), 1.0);
    }

    #[test]
    fn two_paths_partial_coverage() {
        let mut u = PathUsage::new();
        // 3/4 of traffic on path A, 1/4 on path B.
        u.record(&rs(&[vec![0, 1, 2]]), &tm(&[(0, 2, 30.0)]), 1.0);
        u.record(&rs(&[vec![0, 3, 2]]), &tm(&[(0, 2, 10.0)]), 1.0);
        assert_eq!(u.max_distinct_paths(), 2);
        assert!((u.coverage(1) - 0.75).abs() < 1e-12);
        assert!((u.coverage(2) - 1.0).abs() < 1e-12);
        assert_eq!(u.pairs_fully_covered(1), 0.0);
        assert_eq!(u.pairs_fully_covered(2), 1.0);
    }

    #[test]
    fn ranking_descending() {
        let mut u = PathUsage::new();
        u.record(&rs(&[vec![0, 1, 2]]), &tm(&[(0, 2, 1.0)]), 1.0);
        u.record(&rs(&[vec![0, 3, 2]]), &tm(&[(0, 2, 9.0)]), 1.0);
        let ranked = u.ranked(NodeId(0), NodeId(2));
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].1 > ranked[1].1);
        assert!(ranked[0].0.visits(NodeId(3)));
    }

    #[test]
    fn multiple_pairs_aggregate() {
        let mut u = PathUsage::new();
        u.record(
            &rs(&[vec![0, 1], vec![2, 3]]),
            &tm(&[(0, 1, 10.0), (2, 3, 10.0)]),
            1.0,
        );
        u.record(
            &rs(&[vec![0, 4, 1], vec![2, 3]]),
            &tm(&[(0, 1, 10.0), (2, 3, 10.0)]),
            1.0,
        );
        // pair (0,1): 2 paths 50/50; pair (2,3): 1 path.
        // coverage(1) = (10 + 20) / 40 = 0.75
        assert!((u.coverage(1) - 0.75).abs() < 1e-12);
        assert_eq!(u.pairs_fully_covered(1), 0.5);
        let series = coverage_by_top_paths(&u, &[1, 2, 3]);
        assert_eq!(series.len(), 3);
        assert!((series[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_usage() {
        let u = PathUsage::new();
        assert_eq!(u.coverage(1), 1.0);
        assert_eq!(u.pairs_fully_covered(3), 1.0);
        assert_eq!(u.max_distinct_paths(), 0);
        assert!(u.ranked(NodeId(0), NodeId(1)).is_empty());
    }

    #[test]
    fn unrouted_demands_ignored() {
        let mut u = PathUsage::new();
        u.record(&rs(&[vec![0, 1]]), &tm(&[(0, 1, 5.0), (5, 6, 100.0)]), 1.0);
        assert_eq!(u.pairs(), 1);
    }
}
