//! Thermal headroom model (§4.5).
//!
//! "Instead of provisioning the power infrastructure for the peak hours,
//! REsPoNse allows network operators to provision their network for the
//! typical, low to medium level of traffic. Our trace analysis reveals
//! that the average peak duration is less than 2 hours long [...]
//! existing thermodynamic models like \[38\] can estimate how long the
//! peak utilization can be accommodated without extra cooling, while
//! keeping the temperature at desired levels."
//!
//! We provide the simplest such model: a lumped-capacitance (single-RC)
//! thermal node. Heat input is the IT power; cooling removes heat
//! proportionally to the temperature rise above ambient. Sized for the
//! *typical* power draw, the model answers the paper's question: how
//! long can a peak excursion run before the temperature limit?

use serde::{Deserialize, Serialize};

/// Lumped-capacitance thermal model of a PoP/row.
///
/// `C · dT/dt = P(t) − G · (T − T_ambient)` with thermal capacitance `C`
/// (J/°C) and cooling conductance `G` (W/°C).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Thermal capacitance in joules per °C (mass of equipment + air).
    pub heat_capacity_j_per_c: f64,
    /// Cooling conductance in watts per °C of rise above ambient.
    pub cooling_w_per_c: f64,
    /// Ambient (supply) temperature, °C.
    pub ambient_c: f64,
    /// Temperature limit, °C (inlet spec, e.g. 35 °C for chiller-less
    /// operation — the paper cites Microsoft's chiller-less datacenter).
    pub max_c: f64,
}

impl ThermalModel {
    /// Size the cooling so that `typical_power_w` settles exactly at
    /// `steady_margin` °C below the limit — "provision for the typical,
    /// low to medium level of traffic".
    pub fn provisioned_for(
        typical_power_w: f64,
        ambient_c: f64,
        max_c: f64,
        steady_margin: f64,
        heat_capacity_j_per_c: f64,
    ) -> Self {
        assert!(max_c > ambient_c + steady_margin);
        let steady_rise = (max_c - steady_margin) - ambient_c;
        ThermalModel {
            heat_capacity_j_per_c,
            cooling_w_per_c: typical_power_w / steady_rise,
            ambient_c,
            max_c,
        }
    }

    /// Steady-state temperature under constant power.
    pub fn steady_temp(&self, power_w: f64) -> f64 {
        self.ambient_c + power_w / self.cooling_w_per_c
    }

    /// Closed-form temperature after holding `power_w` for `dt` seconds
    /// starting from `t0_c`.
    pub fn temp_after(&self, t0_c: f64, power_w: f64, dt: f64) -> f64 {
        let t_inf = self.steady_temp(power_w);
        let tau = self.heat_capacity_j_per_c / self.cooling_w_per_c;
        t_inf + (t0_c - t_inf) * (-dt / tau).exp()
    }

    /// How long `power_w` can be sustained from `t0_c` before hitting
    /// the limit. `f64::INFINITY` when the steady state stays below it.
    pub fn time_to_limit(&self, t0_c: f64, power_w: f64) -> f64 {
        if t0_c >= self.max_c {
            return 0.0;
        }
        let t_inf = self.steady_temp(power_w);
        if t_inf <= self.max_c {
            return f64::INFINITY;
        }
        // Solve max = t_inf + (t0 - t_inf) e^{-t/tau}.
        let tau = self.heat_capacity_j_per_c / self.cooling_w_per_c;
        tau * ((t0_c - t_inf) / (self.max_c - t_inf)).ln()
    }

    /// Walk a `(seconds, watts)` power series; returns the peak
    /// temperature reached and whether the limit was ever exceeded.
    pub fn simulate(&self, start_c: f64, series: &[(f64, f64)]) -> (f64, bool) {
        let mut t = start_c;
        let mut peak = t;
        for &(dt, p) in series {
            t = self.temp_after(t, p, dt);
            peak = peak.max(t);
        }
        (peak, peak > self.max_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThermalModel {
        // Typical 10 kW row settles 5 °C under a 35 °C limit, 25 °C
        // ambient; thermal time constant tau = C/G = 30 minutes.
        let m = ThermalModel::provisioned_for(10_000.0, 25.0, 35.0, 5.0, 1.0);
        ThermalModel {
            heat_capacity_j_per_c: m.cooling_w_per_c * 1800.0,
            ..m
        }
    }

    #[test]
    fn provisioning_hits_the_margin() {
        let m = model();
        assert!(
            (m.steady_temp(10_000.0) - 30.0).abs() < 1e-9,
            "typical settles at limit - margin"
        );
        assert!(m.steady_temp(5_000.0) < 30.0, "lighter load runs cooler");
    }

    #[test]
    fn typical_power_never_violates() {
        let m = model();
        let t = m.time_to_limit(30.0, 10_000.0);
        assert!(t.is_infinite());
        let (_peak, violated) = m.simulate(25.0, &[(86_400.0, 10_000.0)]);
        assert!(!violated);
    }

    #[test]
    fn finite_peak_budget_above_provisioning() {
        let m = model();
        // 2.4x power excursion: steady state would exceed the limit, but
        // thermal mass buys time.
        let budget = m.time_to_limit(30.0, 24_000.0);
        assert!(budget.is_finite() && budget > 0.0);
        // A peak shorter than the budget stays under the limit...
        let (_p, v) = m.simulate(30.0, &[(budget * 0.9, 24_000.0)]);
        assert!(!v, "peak shorter than budget is safe");
        // ...and a longer one does not.
        let (_p, v) = m.simulate(30.0, &[(budget * 1.2, 24_000.0)]);
        assert!(v, "overstaying the budget violates the limit");
    }

    #[test]
    fn temp_after_converges_to_steady() {
        let m = model();
        let t = m.temp_after(25.0, 12_000.0, 1e9);
        assert!((t - m.steady_temp(12_000.0)).abs() < 1e-6);
    }

    #[test]
    fn already_over_limit() {
        let m = model();
        assert_eq!(m.time_to_limit(40.0, 20_000.0), 0.0);
    }

    #[test]
    fn recovery_between_peaks() {
        let m = model();
        // Peak, recover at typical, peak again: diurnal pattern stays
        // safe even when one continuous double-length peak would not.
        let budget = m.time_to_limit(30.0, 24_000.0);
        let series = [
            (budget * 0.8, 24_000.0),
            (4.0 * 3600.0, 8_000.0),
            (budget * 0.8, 24_000.0),
        ];
        let (_p, v) = m.simulate(30.0, &series);
        assert!(!v, "recovery window resets the thermal budget");
    }
}
