//! Traffic-series analytics: the deviation CCDF of Fig. 1a and general
//! descriptive statistics.

use serde::{Deserialize, Serialize};

/// Complementary CDF of relative step-to-step change across a set of
//  series.
///
/// For every consecutive pair `(x_t, x_{t+1})` of every series, the
/// relative change is `|x_{t+1} - x_t| / x_t * 100` (percent). The result
/// is a list of `(threshold_pct, fraction_of_samples_with_change >=
/// threshold)` pairs at 1% steps from 0 to 100 — exactly the axes of
/// Fig. 1a.
pub fn deviation_ccdf(series: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let mut changes: Vec<f64> = Vec::new();
    for s in series {
        for w in s.windows(2) {
            if w[0] > 0.0 {
                changes.push(((w[1] - w[0]).abs() / w[0] * 100.0).min(100.0));
            }
        }
    }
    let n = changes.len().max(1) as f64;
    (0..=100)
        .map(|pct| {
            let thr = pct as f64;
            let cnt = changes.iter().filter(|&&c| c >= thr).count() as f64;
            (thr, cnt / n)
        })
        .collect()
}

/// Descriptive statistics of a scalar series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviationStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation.
    pub stddev: f64,
}

impl DeviationStats {
    /// Compute over a series; empty input yields zeros.
    pub fn of(series: &[f64]) -> Self {
        if series.is_empty() {
            return DeviationStats {
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let var = if series.len() > 1 {
            series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        DeviationStats {
            mean,
            min,
            max,
            stddev: var.sqrt(),
        }
    }
}

/// Durations of contiguous excursions above `threshold` in a regularly
/// sampled series (`interval_s` seconds apart) — the §4.5 peak-duration
/// statistic ("the average peak duration is less than 2 hours long").
/// An excursion still open at the end of the series is counted.
pub fn peak_durations(series: &[f64], interval_s: f64, threshold: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut run = 0usize;
    for &v in series {
        if v > threshold {
            run += 1;
        } else if run > 0 {
            out.push(run as f64 * interval_s);
            run = 0;
        }
    }
    if run > 0 {
        out.push(run as f64 * interval_s);
    }
    out
}

/// Percentile (0–100) of a sample set using nearest-rank; empty input
/// returns 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * (s.len() as f64 - 1.0)).round() as usize;
    s[rank.min(s.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let series = vec![vec![1.0, 1.5, 0.9, 1.2, 1.2, 2.4]];
        let c = deviation_ccdf(&series);
        assert_eq!(c.len(), 101);
        assert!((c[0].1 - 1.0).abs() < 1e-12, "everything >= 0% change... ");
        for w in c.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn ccdf_exact_small_case() {
        // changes: 100%, 50% -> at 60%: 1/2, at 100%: 1/2... let's check.
        let series = vec![vec![1.0, 2.0, 1.0]];
        let c = deviation_ccdf(&series);
        let at = |pct: usize| c[pct].1;
        assert!((at(0) - 1.0).abs() < 1e-12);
        assert!((at(50) - 1.0).abs() < 1e-12, "both changes >= 50%");
        assert!((at(51) - 0.5).abs() < 1e-12, "only the 100% change remains");
        assert!((at(100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_changes() {
        let c = deviation_ccdf(&[vec![5.0; 10]]);
        assert!((c[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(c[1].1, 0.0);
    }

    #[test]
    fn stats_basics() {
        let s = DeviationStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-9);
        let e = DeviationStats::of(&[]);
        assert_eq!(e.mean, 0.0);
    }

    #[test]
    fn peak_durations_basic() {
        // threshold 5: runs of lengths 2 and 3, plus one open at the end.
        let s = [1.0, 6.0, 7.0, 2.0, 8.0, 9.0, 6.0, 1.0, 7.0];
        let d = peak_durations(&s, 900.0, 5.0);
        assert_eq!(d, vec![2.0 * 900.0, 3.0 * 900.0, 900.0]);
    }

    #[test]
    fn peak_durations_edge_cases() {
        assert!(peak_durations(&[], 900.0, 5.0).is_empty());
        assert!(
            peak_durations(&[1.0, 2.0], 900.0, 5.0).is_empty(),
            "never above"
        );
        assert_eq!(
            peak_durations(&[9.0, 9.0], 900.0, 5.0),
            vec![1800.0],
            "always above"
        );
        // Exactly at the threshold is not a peak (strict >).
        assert!(peak_durations(&[5.0, 5.0], 900.0, 5.0).is_empty());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
