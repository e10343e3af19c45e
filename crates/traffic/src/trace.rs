//! Synthetic trace generators — the substitutes for the GÉANT TOTEM
//! dataset (15-min matrices over 15 days) and the Google datacenter
//! 5-minute trace (8 days) used by the paper.
//!
//! Both real datasets are unavailable offline; DESIGN.md documents the
//! substitution. The generators reproduce the statistics the evaluation
//! actually depends on:
//!
//! * **GÉANT-like**: strong diurnal cycle with a weekday/weekend
//!   modulation, per-OD gravity structure with slowly-wandering shares,
//!   multiplicative short-term noise and occasional spikes. Under replay
//!   this produces few dominant routing configurations with a dominant
//!   minimal-power tree (Fig. 2a) and 2–3 energy-critical paths per OD
//!   pair (Fig. 2b).
//! * **DC-like volume**: 5-min series whose step-to-step change CCDF
//!   matches Fig. 1a (~50% of intervals change by ≥ 20%).

use crate::gravity::gravity_matrix;
use crate::matrix::TrafficMatrix;
use ecp_topo::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A replayable sequence of traffic matrices at a fixed interval.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Name for reports.
    pub name: String,
    /// Seconds between consecutive matrices (GÉANT: 900 s; DC: 300 s).
    pub interval_s: f64,
    /// The matrices, one per interval.
    pub matrices: Vec<TrafficMatrix>,
}

impl Trace {
    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// Duration covered, in seconds.
    pub fn duration_s(&self) -> f64 {
        self.interval_s * self.matrices.len() as f64
    }

    /// Peak-hour matrix: element-wise max across all intervals.
    pub fn peak_matrix(&self) -> TrafficMatrix {
        self.matrices
            .iter()
            .fold(TrafficMatrix::empty(), |acc, m| acc.elementwise_max(m))
    }

    /// Off-peak matrix: the matrix of the interval with the smallest
    /// total volume.
    pub fn offpeak_matrix(&self) -> TrafficMatrix {
        self.matrices
            .iter()
            .min_by(|a, b| a.total().total_cmp(&b.total()))
            .cloned()
            .unwrap_or_else(TrafficMatrix::empty)
    }

    /// Total-volume series (one point per interval).
    pub fn volume_series(&self) -> Vec<f64> {
        self.matrices.iter().map(|m| m.total()).collect()
    }
}

/// Diurnal multiplier for second-of-day `s`: low (≈`night`) at 04:00,
/// high (1.0) at 16:00, smooth sine in between.
fn diurnal(seconds_of_day: f64, night: f64) -> f64 {
    let day = 86_400.0;
    // Peak at 16h, trough at 4h.
    let phase = 2.0 * std::f64::consts::PI * (seconds_of_day - 4.0 * 3600.0) / day
        - std::f64::consts::FRAC_PI_2;
    night + (1.0 - night) * (1.0 + phase.sin()) / 2.0
}

/// Generate a GÉANT-like trace over the given topology.
///
/// * `od_pairs` — pairs carrying traffic (use
///   [`crate::gravity::random_od_pairs`]).
/// * `days` — trace length (paper: 15).
/// * `base_volume` — total offered bits/s at the diurnal *peak* of a
///   weekday.
/// * `seed` — determinism.
pub fn geant_like_trace(
    topo: &Topology,
    od_pairs: &[(NodeId, NodeId)],
    days: usize,
    base_volume: f64,
    seed: u64,
) -> Trace {
    let interval_s = 900.0; // 15 minutes, like TOTEM
    let steps_per_day = (86_400.0 / interval_s) as usize;
    let steps = days * steps_per_day;
    let mut rng = StdRng::seed_from_u64(seed);

    // Gravity base shares.
    let base = gravity_matrix(topo, od_pairs, 1.0);
    // Per-OD slow random-walk multiplier in log space.
    let mut od_walk: Vec<f64> = vec![0.0; base.len()];

    let mut matrices = Vec::with_capacity(steps);
    for t in 0..steps {
        let second = (t as f64) * interval_s;
        let day_idx = (second / 86_400.0) as usize;
        let weekday = day_idx % 7 < 5;
        let week_mult = if weekday { 1.0 } else { 0.7 };
        let di = diurnal(second % 86_400.0, 0.35);
        // Short-term multiplicative noise on the aggregate (sigma such
        // that most 15-min changes stay modest, with occasional bursts).
        let agg_noise: f64 = (rng.gen::<f64>() * 2.0 - 1.0) * 0.06;
        let spike = if rng.gen::<f64>() < 0.01 {
            1.0 + rng.gen::<f64>() * 0.5
        } else {
            1.0
        };
        let volume = base_volume * week_mult * di * (1.0 + agg_noise) * spike;

        // Per-OD walk update (slow: sigma 0.02/step, mean-reverting).
        for w in od_walk.iter_mut() {
            let step: f64 = (rng.gen::<f64>() * 2.0 - 1.0) * 0.02;
            *w = 0.995 * *w + step;
        }
        let mut demands = Vec::with_capacity(base.len());
        let mut sum = 0.0;
        for (d, w) in base.demands().iter().zip(&od_walk) {
            let r = d.rate * w.exp();
            sum += r;
            demands.push(crate::matrix::Demand { rate: r, ..*d });
        }
        // Renormalize to the interval volume.
        let scale = volume / sum;
        for d in demands.iter_mut() {
            d.rate *= scale;
        }
        matrices.push(TrafficMatrix::new(demands));
    }
    Trace {
        name: format!("geant-like-{days}d"),
        interval_s,
        matrices,
    }
}

/// Generate DC-like 5-minute volume series (one per monitored flow
/// group), calibrated so the step-change CCDF matches Fig. 1a: roughly
/// half the intervals change by at least 20%.
///
/// Returns `series[group][interval]` in relative units (mean ≈ 1.0).
pub fn dc_like_volume_trace(groups: usize, days: usize, seed: u64) -> Vec<Vec<f64>> {
    let interval_s = 300.0;
    let steps = (days as f64 * 86_400.0 / interval_s) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(groups);
    for _ in 0..groups {
        let mut series = Vec::with_capacity(steps);
        let mut level = 1.0_f64;
        for t in 0..steps {
            let second = (t as f64) * interval_s;
            let di = diurnal(second % 86_400.0, 0.5);
            // Multiplicative log-normal-ish noise. Consecutive samples
            // carry independent draws, so the step change is driven by
            // sigma*sqrt(2); sigma = 0.21 calibrates P(|change| >= 20%)
            // to ~0.5, matching Fig. 1a.
            let z: f64 = {
                // sum of uniforms ~ normal-ish (Irwin-Hall, n=4)
                let s: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() - 2.0;
                s / (4.0f64 / 12.0).sqrt() // unit variance
            };
            let noise = (0.21 * z).exp();
            // Mean-reverting level so series doesn't drift away.
            level = 0.8 * level + 0.2 * di;
            series.push((level * noise).max(1e-6));
        }
        out.push(series);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::deviation_ccdf;
    use crate::gravity::random_od_pairs;
    use ecp_topo::gen::geant;

    #[test]
    fn trace_dimensions() {
        let t = geant();
        let pairs = random_od_pairs(&t, 60, 1);
        let tr = geant_like_trace(&t, &pairs, 2, 1e9, 42);
        assert_eq!(tr.len(), 2 * 96);
        assert!((tr.duration_s() - 2.0 * 86_400.0).abs() < 1.0);
        for m in &tr.matrices {
            assert_eq!(m.len(), 60);
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let t = geant();
        let pairs = random_od_pairs(&t, 20, 1);
        let a = geant_like_trace(&t, &pairs, 1, 1e9, 7);
        let b = geant_like_trace(&t, &pairs, 1, 1e9, 7);
        assert_eq!(a.volume_series(), b.volume_series());
    }

    #[test]
    fn diurnal_swing_present() {
        let t = geant();
        let pairs = random_od_pairs(&t, 40, 1);
        let tr = geant_like_trace(&t, &pairs, 7, 1e9, 3);
        let v = tr.volume_series();
        let max = v.iter().cloned().fold(0.0, f64::max);
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 2.0, "night/day swing: max {max}, min {min}");
        assert!(max <= 1e9 * 1.6, "bounded above by base*spike");
    }

    #[test]
    fn weekend_quieter_than_weekday() {
        let t = geant();
        let pairs = random_od_pairs(&t, 40, 1);
        let tr = geant_like_trace(&t, &pairs, 14, 1e9, 5);
        let v = tr.volume_series();
        let per_day = 96;
        let day_mean = |d: usize| -> f64 {
            v[d * per_day..(d + 1) * per_day].iter().sum::<f64>() / per_day as f64
        };
        // Days 5,6 are weekend in our indexing.
        let weekday_avg = (0..5).map(day_mean).sum::<f64>() / 5.0;
        let weekend_avg = (5..7).map(day_mean).sum::<f64>() / 2.0;
        assert!(weekend_avg < weekday_avg);
    }

    #[test]
    fn peak_dominates_offpeak() {
        let t = geant();
        let pairs = random_od_pairs(&t, 30, 1);
        let tr = geant_like_trace(&t, &pairs, 3, 1e9, 9);
        let peak = tr.peak_matrix();
        let off = tr.offpeak_matrix();
        assert!(peak.total() > off.total());
        for d in off.demands() {
            assert!(peak.get(d.origin, d.dst) >= d.rate - 1e-9);
        }
    }

    #[test]
    fn dc_trace_change_statistics_match_fig1a() {
        let series = dc_like_volume_trace(20, 8, 11);
        let ccdf = deviation_ccdf(&series);
        // Fraction of intervals with change >= 20% should be ~0.5 (paper:
        // "in almost 50% cases the traffic changes at least by 20%").
        let at20 = ccdf
            .iter()
            .min_by(|a, b| (a.0 - 20.0).abs().total_cmp(&(b.0 - 20.0).abs()))
            .unwrap()
            .1;
        assert!(
            (0.30..=0.70).contains(&at20),
            "P(change >= 20%) = {at20}, expected near 0.5"
        );
    }

    #[test]
    fn dc_trace_is_positive_and_deterministic() {
        let a = dc_like_volume_trace(3, 1, 5);
        let b = dc_like_volume_trace(3, 1, 5);
        assert_eq!(a, b);
        for s in &a {
            for &v in s {
                assert!(v > 0.0);
            }
        }
    }
}
