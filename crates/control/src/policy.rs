//! The control-policy interface and its implementations.
//!
//! Every policy reuses the two halves of the original REsPoNseTE
//! decision ([`respons_core::te`]): the priority water-filling target
//! (`waterfill_target_into`) and the bounded-step tracking with share
//! hygiene (`apply_step_into`). Damping variants modulate what flows into
//! those halves — the observed headroom (EWMA), the target choice
//! (hysteresis), the gain (damped step), or the observation instant
//! (desynchronization) — never the hygiene itself, so every policy
//! keeps the invariants the simulator relies on (shares in `[0, 1]`,
//! summing to 1 when a path is available, failed paths vacated in one
//! round).

use respons_core::te::{
    apply_step_into, decide_shares, decide_shares_into, waterfill_target_into, PathView, TeConfig,
};

/// Everything one agent knows at decision time.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// The agent's stable index (flow order in the simulation).
    pub agent: usize,
    /// Current time (seconds) — the instant the observation was taken.
    pub t: f64,
    /// The agent's offered rate (bits/s).
    pub offered: f64,
    /// Per-installed-path view in priority order (always-on first).
    pub paths: &'a [PathView],
    /// Current share vector.
    pub current: &'a [f64],
    /// The TE configuration in force (threshold / step / min-share;
    /// reconfigurable mid-run via `SimEvent::SetTeConfig`).
    pub te: &'a TeConfig,
}

/// An online TE control policy: per-agent share decisions, optionally
/// at per-agent staggered instants.
pub trait ControlPolicy: Send {
    /// Stable policy name (reports, labels).
    fn name(&self) -> &'static str;

    /// The agent's observation phase offset within one control
    /// interval, in `[0, interval)`. `0` means the agent decides at the
    /// round boundary, batched with every other phase-0 agent on one
    /// simultaneous load snapshot — the original behavior. A positive
    /// phase makes the simulator re-observe loads at `round start +
    /// phase` for this agent alone, which is what breaks simultaneous
    /// observation.
    fn phase(&self, agent: usize, interval: f64) -> f64 {
        let _ = (agent, interval);
        0.0
    }

    /// Compute the agent's new share vector.
    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64>;

    /// In-place form of [`ControlPolicy::decide`]: write the new share
    /// vector into `out` (cleared first; previous contents — a reused,
    /// possibly dirty scratch buffer — are irrelevant). The default
    /// implementation delegates to `decide`, so existing policies stay
    /// correct unchanged; the built-in policies override it to reuse
    /// per-agent scratch and allocate nothing, which is what makes the
    /// simulator's decision path allocation-free. Implementations MUST
    /// produce bit-identical shares to `decide` for the same
    /// observation sequence (pinned by the `decide_into_parity`
    /// proptest).
    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        let shares = self.decide(obs);
        out.clear();
        out.extend_from_slice(&shares);
    }

    /// Whether [`ControlPolicy::decide`] is a **pure function of the
    /// observation's** `(offered, paths, current, te)` — independent of
    /// `t`, call count, and any internal state. When true, the
    /// simulator may skip an agent's decision entirely while its
    /// observation is unchanged (the skipped call would have returned
    /// the shares already in place), which with incremental load
    /// accounting turns quiescent control rounds into no-ops.
    /// Policies with memory (EWMA estimates, cooldown counters) must
    /// return `false`: their state evolves on every call even under
    /// identical observations.
    fn memoryless(&self) -> bool {
        false
    }
}

// ---- Undamped (the baseline) ----------------------------------------------

/// The original REsPoNseTE decision, unchanged: water-fill + bounded
/// step on the raw snapshot. Bit-identical to the pre-policy TE path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Undamped;

impl ControlPolicy for Undamped {
    fn name(&self) -> &'static str {
        "undamped"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64> {
        decide_shares(obs.offered, obs.paths, obs.current, obs.te)
    }

    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        decide_shares_into(obs.offered, obs.paths, obs.current, obs.te, out);
    }

    fn memoryless(&self) -> bool {
        true
    }
}

// ---- EWMA-smoothed headroom -----------------------------------------------

/// [`Ewma`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaCfg {
    /// Smoothing gain in `(0, 1]`: the smoothed headroom moves
    /// `alpha` of the way to each new observation. `1.0` disables
    /// smoothing (identical to [`Undamped`]).
    pub alpha: f64,
}

impl Default for EwmaCfg {
    fn default() -> Self {
        EwmaCfg { alpha: 0.5 }
    }
}

/// Per-agent smoothed-headroom memory in one flat buffer: all agents'
/// per-path `(smoothed headroom, availability-it-was-built-under)`
/// records live contiguously in `state`, addressed by a per-agent
/// `(offset, len)` span — no `Vec<Vec<…>>`, so decisions touch one
/// cache-friendly allocation that stops growing once every agent has
/// decided once.
#[derive(Debug, Clone, Default)]
struct FlatViewState {
    /// All agents' per-path records, region per agent.
    state: Vec<(f64, bool)>,
    /// Per agent: `(offset, len)` into `state`; `len == 0` means the
    /// agent has no region yet.
    spans: Vec<(u32, u32)>,
}

impl FlatViewState {
    /// The agent's region, (re)initialized from the raw observation
    /// when absent or when its path count changed (a changed count
    /// appends a fresh region at the tail; the old one is abandoned —
    /// path sets are fixed for a simulation's lifetime, this is pure
    /// robustness).
    fn region(&mut self, agent: usize, paths: &[PathView]) -> &mut [(f64, bool)] {
        if self.spans.len() <= agent {
            self.spans.resize(agent + 1, (0, 0));
        }
        let (off, len) = self.spans[agent];
        if len as usize != paths.len() {
            let off = self.state.len() as u32;
            self.state
                .extend(paths.iter().map(|p| (p.headroom, p.available)));
            self.spans[agent] = (off, paths.len() as u32);
            return &mut self.state[off as usize..];
        }
        &mut self.state[off as usize..(off + len) as usize]
    }
}

/// The shared EWMA core of [`Ewma`] and [`AdaptiveEwma`]: fold one
/// observation into the per-agent smoothed-headroom memory at gain
/// `alpha` and write the smoothed views into `out` (cleared first; no
/// allocation once the buffers are warm).
///
/// Availability is never smoothed — failure reaction stays immediate —
/// and a path's estimate resets to the raw observation whenever its
/// availability flips (stale pre-failure values must not linger). The
/// multiplicative update form gives exact pass-through at `alpha = 1`
/// (bit-parity with [`Undamped`]).
fn ewma_views_into(
    state: &mut FlatViewState,
    obs: &Observation<'_>,
    alpha: f64,
    out: &mut Vec<PathView>,
) {
    let mem = state.region(obs.agent, obs.paths);
    out.clear();
    out.extend(obs.paths.iter().zip(mem.iter_mut()).map(|(p, m)| {
        if p.available != m.1 {
            *m = (p.headroom, p.available);
        } else {
            m.0 = alpha * p.headroom + (1.0 - alpha) * m.0;
        }
        PathView {
            headroom: m.0,
            available: p.available,
        }
    }));
}

/// Exponentially-smoothed headroom estimation: the agent decides
/// against the trend of each path's headroom instead of one round's
/// transient, so a single round of collectively-freed headroom no
/// longer triggers a collective re-aggregation. (Smoothing semantics:
/// see `ewma_views_into`.)
#[derive(Debug, Clone, Default)]
pub struct Ewma {
    cfg: EwmaCfg,
    /// All agents' smoothed-headroom memory, flat.
    state: FlatViewState,
    /// Smoothed-view scratch, reused across decisions.
    views: Vec<PathView>,
}

impl Ewma {
    /// A policy with the given parameters.
    pub fn new(cfg: EwmaCfg) -> Self {
        Ewma {
            cfg,
            ..Default::default()
        }
    }
}

impl ControlPolicy for Ewma {
    fn name(&self) -> &'static str {
        "ewma"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        self.decide_into(obs, &mut out);
        out
    }

    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        ewma_views_into(&mut self.state, obs, self.cfg.alpha, &mut self.views);
        decide_shares_into(obs.offered, &self.views, obs.current, obs.te, out);
    }
}

// ---- Adaptive-alpha EWMA ----------------------------------------------------

/// [`AdaptiveEwma`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEwmaCfg {
    /// Heaviest smoothing gain in `(0, 1]`, used at full overload
    /// pressure (the oscillation-prone regime). Must not exceed
    /// `alpha_max`.
    pub alpha_min: f64,
    /// Lightest smoothing gain in `(0, 1]`, used when the agent's
    /// demand fits its first available path comfortably. `1.0` makes
    /// the light-load behavior exactly [`Undamped`], preserving the
    /// Fig.-7 adaptation latency.
    pub alpha_max: f64,
}

impl Default for AdaptiveEwmaCfg {
    fn default() -> Self {
        AdaptiveEwmaCfg {
            alpha_min: 0.2,
            alpha_max: 1.0,
        }
    }
}

/// Load-dependent smoothing (the ROADMAP's adaptive-alpha follow-up to
/// [`Ewma`]): the effective gain interpolates between `alpha_max` and
/// `alpha_min` with the agent's *raw* overload pressure — the fraction
/// of its offered rate that does not fit the first available path's
/// observed headroom. Lightly-loaded agents track observations almost
/// raw (no added latency where the fixed-alpha EWMA pays some), while
/// agents in the collective spill/re-aggregate regime smooth heavily
/// exactly where the oscillation lives.
///
/// Like [`Ewma`], availability is never smoothed and a path's estimate
/// resets to the raw observation when its availability flips, so
/// failure reaction stays immediate (the shared `ewma_views_into`
/// core).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveEwma {
    cfg: AdaptiveEwmaCfg,
    /// All agents' smoothed-headroom memory, flat.
    state: FlatViewState,
    /// Smoothed-view scratch, reused across decisions.
    views: Vec<PathView>,
}

impl AdaptiveEwma {
    /// A policy with the given parameters.
    pub fn new(cfg: AdaptiveEwmaCfg) -> Self {
        AdaptiveEwma {
            cfg,
            ..Default::default()
        }
    }

    /// The agent's overload pressure in `[0, 1]` from the raw
    /// observation: 0 when the offered rate fits the first available
    /// path's headroom, 1 when none of it does.
    fn pressure(obs: &Observation<'_>) -> f64 {
        match obs.paths.iter().position(|p| p.available) {
            Some(first) if obs.offered > 0.0 => {
                ((obs.offered - obs.paths[first].headroom.max(0.0)) / obs.offered).clamp(0.0, 1.0)
            }
            _ => 0.0,
        }
    }
}

impl ControlPolicy for AdaptiveEwma {
    fn name(&self) -> &'static str {
        "adaptive-ewma"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        self.decide_into(obs, &mut out);
        out
    }

    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        let pressure = Self::pressure(obs);
        let alpha = self.cfg.alpha_max - (self.cfg.alpha_max - self.cfg.alpha_min) * pressure;
        ewma_views_into(&mut self.state, obs, alpha, &mut self.views);
        decide_shares_into(obs.offered, &self.views, obs.current, obs.te, out);
    }
}

// ---- Hysteresis -------------------------------------------------------------

/// [`Hysteresis`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisCfg {
    /// Re-aggregation margin in `[0, 1)`: traffic only moves *back*
    /// toward higher-priority paths if it still fits with every
    /// headroom shrunk by this fraction. Spilling uses full headroom.
    pub gap: f64,
    /// Dead-band: target moves with an L1 distance below this are
    /// ignored (the agent holds), suppressing dribble reconfigurations.
    pub dead_band: f64,
}

impl Default for HysteresisCfg {
    fn default() -> Self {
        HysteresisCfg {
            gap: 0.15,
            dead_band: 0.02,
        }
    }
}

/// Asymmetric spill / re-aggregate thresholds. Spilling to on-demand
/// paths stays eager (SLO protection, full headroom); re-aggregating
/// back requires the demand to fit within `1 - gap` of the observed
/// headroom, so the collective "everyone saw the freed headroom"
/// pull-back only happens when there is genuine margin. A dead-band
/// suppresses moves too small to matter.
#[derive(Debug, Clone, Default)]
pub struct Hysteresis {
    cfg: HysteresisCfg,
    /// Scratch: eager (full-headroom) water-fill target.
    t_spill: Vec<f64>,
    /// Scratch: conservative (shrunk-headroom) water-fill target.
    t_reagg: Vec<f64>,
    /// Scratch: the shrunk-headroom views.
    shrunk: Vec<PathView>,
}

impl Hysteresis {
    /// A policy with the given parameters.
    pub fn new(cfg: HysteresisCfg) -> Self {
        Hysteresis {
            cfg,
            ..Default::default()
        }
    }

    /// Share mass beyond the first available (highest-priority usable)
    /// path — the "spill measure" mode transitions are defined on.
    fn spill_mass(paths: &[PathView], shares: &[f64]) -> f64 {
        match paths.iter().position(|p| p.available) {
            Some(first) => shares
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != first)
                .map(|(_, &s)| s)
                .sum(),
            None => 0.0,
        }
    }
}

impl ControlPolicy for Hysteresis {
    fn name(&self) -> &'static str {
        "hysteresis"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        self.decide_into(obs, &mut out);
        out
    }

    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        const EPS: f64 = 1e-9;
        waterfill_target_into(obs.offered, obs.paths, &mut self.t_spill);
        self.shrunk.clear();
        self.shrunk.extend(obs.paths.iter().map(|p| PathView {
            headroom: p.headroom * (1.0 - self.cfg.gap),
            available: p.available,
        }));
        waterfill_target_into(obs.offered, &self.shrunk, &mut self.t_reagg);

        let cur = Self::spill_mass(obs.paths, obs.current);
        let target: &[f64] = if Self::spill_mass(obs.paths, &self.t_spill) > cur + EPS {
            // The SLO needs more spill: act on the raw observation.
            &self.t_spill
        } else if Self::spill_mass(obs.paths, &self.t_reagg) < cur - EPS {
            // Re-aggregation fits even under shrunk headroom: pull back,
            // but only as far as the conservative target.
            &self.t_reagg
        } else {
            // Inside the hysteresis band: hold.
            obs.current
        };
        let moved: f64 = target
            .iter()
            .zip(obs.current)
            .map(|(&t, &c)| (t - c).abs())
            .sum();
        let target = if moved < self.cfg.dead_band {
            obs.current
        } else {
            target
        };
        apply_step_into(
            obs.paths,
            obs.current,
            target,
            obs.te.step,
            obs.te.min_share,
            out,
        );
    }

    fn memoryless(&self) -> bool {
        true
    }
}

// ---- Damped step ------------------------------------------------------------

/// [`DampedStep`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampedStepCfg {
    /// Gain damping in `[0, 1)`: the effective step shrinks by up to
    /// this fraction as the agent's spill fraction (share of offered
    /// rate that does not fit the first available path) approaches 1.
    /// `0.0` leaves the gain untouched.
    pub damp: f64,
    /// After any actual share move, the agent holds for this many
    /// control rounds. `0` disables the cooldown (identical to
    /// [`Undamped`] when `damp` is also 0).
    pub cooldown_rounds: u32,
}

impl Default for DampedStepCfg {
    fn default() -> Self {
        DampedStepCfg {
            damp: 0.5,
            cooldown_rounds: 2,
        }
    }
}

/// Load-proportional gain scaling with a per-flow cooldown: the closer
/// an agent is to overload, the smaller its tracking step — heavily
/// loaded agents stop slamming their full gain into the same freed
/// headroom at once — and each reconfiguration is followed by a few
/// quiet rounds in which the network's reaction can be observed.
#[derive(Debug, Clone, Default)]
pub struct DampedStep {
    cfg: DampedStepCfg,
    /// Remaining cooldown rounds per agent.
    cool: Vec<u32>,
    /// Scratch: the water-fill target.
    target: Vec<f64>,
}

impl DampedStep {
    /// A policy with the given parameters.
    pub fn new(cfg: DampedStepCfg) -> Self {
        DampedStep {
            cfg,
            ..Default::default()
        }
    }
}

impl ControlPolicy for DampedStep {
    fn name(&self) -> &'static str {
        "damped-step"
    }

    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        self.decide_into(obs, &mut out);
        out
    }

    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        if self.cool.len() <= obs.agent {
            self.cool.resize(obs.agent + 1, 0);
        }
        if self.cool[obs.agent] > 0 {
            self.cool[obs.agent] -= 1;
            // Hold: no tracking move, but hygiene still runs so failed
            // paths are vacated immediately.
            apply_step_into(
                obs.paths,
                obs.current,
                obs.current,
                obs.te.step,
                obs.te.min_share,
                out,
            );
            return;
        }
        let spill_frac = match obs.paths.iter().position(|p| p.available) {
            Some(first) if obs.offered > 0.0 => {
                ((obs.offered - obs.paths[first].headroom.max(0.0)) / obs.offered).clamp(0.0, 1.0)
            }
            _ => 0.0,
        };
        let step = obs.te.step * (1.0 - self.cfg.damp * spill_frac);
        waterfill_target_into(obs.offered, obs.paths, &mut self.target);
        apply_step_into(
            obs.paths,
            obs.current,
            &self.target,
            step,
            obs.te.min_share,
            out,
        );
        let moved: f64 = out
            .iter()
            .zip(obs.current)
            .map(|(&a, &b)| (a - b).abs())
            .sum();
        if moved > 1e-6 {
            self.cool[obs.agent] = self.cfg.cooldown_rounds;
        }
    }
}

// ---- Desynchronization ------------------------------------------------------

/// Seeded per-agent phase jitter: agent `i` observes at `round start +
/// uᵢ · interval` with `uᵢ ∈ [0, 1)` derived deterministically from the
/// salt, so agents see each other's fresh moves instead of a shared
/// stale snapshot. The decision itself is the undamped one.
#[derive(Debug, Clone, Copy)]
pub struct Desync {
    salt: u64,
}

impl Desync {
    /// A policy with the given phase salt.
    pub fn new(salt: u64) -> Self {
        Desync { salt }
    }

    /// The agent's deterministic phase fraction in `[0, 1)`.
    pub fn phase_fraction(&self, agent: usize) -> f64 {
        splitmix64(self.salt ^ (agent as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as f64
            / (u64::MAX as f64 + 1.0)
    }
}

impl Default for Desync {
    fn default() -> Self {
        Desync { salt: 1 }
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ControlPolicy for Desync {
    fn name(&self) -> &'static str {
        "desync"
    }

    fn phase(&self, agent: usize, interval: f64) -> f64 {
        self.phase_fraction(agent) * interval
    }

    fn decide(&mut self, obs: &Observation<'_>) -> Vec<f64> {
        decide_shares(obs.offered, obs.paths, obs.current, obs.te)
    }

    fn decide_into(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        decide_shares_into(obs.offered, obs.paths, obs.current, obs.te, out);
    }

    fn memoryless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up(headroom: f64) -> PathView {
        PathView {
            headroom,
            available: true,
        }
    }

    fn down() -> PathView {
        PathView {
            headroom: 0.0,
            available: false,
        }
    }

    fn obs<'a>(
        offered: f64,
        paths: &'a [PathView],
        current: &'a [f64],
        te: &'a TeConfig,
    ) -> Observation<'a> {
        Observation {
            agent: 0,
            t: 0.0,
            offered,
            paths,
            current,
            te,
        }
    }

    #[test]
    fn undamped_equals_decide_shares() {
        let te = TeConfig::default();
        let paths = [up(4e6), up(20e6)];
        let cur = [1.0, 0.0];
        let mut p = Undamped;
        assert_eq!(
            p.decide(&obs(10e6, &paths, &cur, &te)),
            decide_shares(10e6, &paths, &cur, &te)
        );
    }

    #[test]
    fn ewma_alpha_one_equals_undamped() {
        let te = TeConfig::default();
        let mut e = Ewma::new(EwmaCfg { alpha: 1.0 });
        let mut u = Undamped;
        let mut cur = vec![0.5, 0.5];
        // Several rounds with varying headroom: alpha = 1 keeps no
        // memory, so the trajectory matches the baseline exactly.
        for (h0, rate) in [(4e6, 10e6), (8e6, 6e6), (1e6, 9e6), (6e6, 2e6)] {
            let paths = [up(h0), up(20e6)];
            let a = e.decide(&obs(rate, &paths, &cur, &te));
            let b = u.decide(&obs(rate, &paths, &cur, &te));
            assert_eq!(a, b);
            cur = a;
        }
    }

    #[test]
    fn ewma_smooths_transient_headroom_collapse() {
        let te = TeConfig::default();
        let mut e = Ewma::new(EwmaCfg { alpha: 0.2 });
        let paths_ok = [up(10e6), up(20e6)];
        let cur = vec![1.0, 0.0];
        // Warm the estimate up on comfortable headroom.
        for _ in 0..10 {
            e.decide(&obs(5e6, &paths_ok, &cur, &te));
        }
        // One transiently terrible observation must not evacuate the
        // always-on path the way the raw decision would.
        let paths_bad = [up(-5e6), up(20e6)];
        let smoothed = e.decide(&obs(5e6, &paths_bad, &cur, &te));
        let raw = Undamped.decide(&obs(5e6, &paths_bad, &cur, &te));
        assert!(
            smoothed[0] > raw[0] + 0.3,
            "smoothed keeps traffic aggregated: {smoothed:?} vs raw {raw:?}"
        );
    }

    #[test]
    fn ewma_failure_reaction_is_immediate() {
        let te = TeConfig::default();
        let mut e = Ewma::new(EwmaCfg { alpha: 0.1 });
        let cur = vec![1.0, 0.0];
        for _ in 0..5 {
            e.decide(&obs(5e6, &[up(10e6), up(20e6)], &cur, &te));
        }
        let shares = e.decide(&obs(5e6, &[down(), up(20e6)], &cur, &te));
        assert_eq!(shares[0], 0.0, "failed path vacated in one round");
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_ewma_degenerate_config_equals_undamped() {
        let te = TeConfig::default();
        let mut a = AdaptiveEwma::new(AdaptiveEwmaCfg {
            alpha_min: 1.0,
            alpha_max: 1.0,
        });
        let mut u = Undamped;
        let mut cur = vec![0.5, 0.5];
        for (h0, rate) in [(4e6, 10e6), (8e6, 6e6), (1e6, 9e6), (6e6, 2e6)] {
            let paths = [up(h0), up(20e6)];
            let got = a.decide(&obs(rate, &paths, &cur, &te));
            let want = u.decide(&obs(rate, &paths, &cur, &te));
            assert_eq!(got, want);
            cur = got;
        }
    }

    #[test]
    fn adaptive_ewma_is_raw_at_light_load_and_smooth_under_pressure() {
        let te = TeConfig::default();
        let cfg = AdaptiveEwmaCfg {
            alpha_min: 0.1,
            alpha_max: 1.0,
        };

        // Light load (offered well within the first path's headroom):
        // pressure is 0, alpha is alpha_max = 1, so the decision equals
        // the raw undamped one even after a history of different
        // observations.
        let mut a = AdaptiveEwma::new(cfg);
        let cur = vec![0.6, 0.4];
        for _ in 0..5 {
            a.decide(&obs(2e6, &[up(3e6), up(20e6)], &cur, &te));
        }
        let paths = [up(9e6), up(20e6)];
        let light = a.decide(&obs(2e6, &paths, &cur, &te));
        let raw = Undamped.decide(&obs(2e6, &paths, &cur, &te));
        assert_eq!(light, raw, "no smoothing without overload pressure");

        // Overload pressure: after warming the estimate on comfortable
        // headroom, one transiently terrible overloaded observation is
        // heavily smoothed (like the fixed-alpha EWMA would).
        let mut a = AdaptiveEwma::new(cfg);
        let cur = vec![1.0, 0.0];
        for _ in 0..10 {
            a.decide(&obs(5e6, &[up(10e6), up(20e6)], &cur, &te));
        }
        let paths_bad = [up(-5e6), up(20e6)];
        let smoothed = a.decide(&obs(5e6, &paths_bad, &cur, &te));
        let raw = Undamped.decide(&obs(5e6, &paths_bad, &cur, &te));
        assert!(
            smoothed[0] > raw[0] + 0.3,
            "pressure engages the smoothing: {smoothed:?} vs raw {raw:?}"
        );
    }

    #[test]
    fn adaptive_ewma_failure_reaction_is_immediate() {
        let te = TeConfig::default();
        let mut a = AdaptiveEwma::new(AdaptiveEwmaCfg {
            alpha_min: 0.05,
            alpha_max: 0.5,
        });
        let cur = vec![1.0, 0.0];
        for _ in 0..5 {
            a.decide(&obs(5e6, &[up(10e6), up(20e6)], &cur, &te));
        }
        let shares = a.decide(&obs(5e6, &[down(), up(20e6)], &cur, &te));
        assert_eq!(shares[0], 0.0, "failed path vacated in one round");
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hysteresis_spills_eagerly_but_reaggregates_with_margin() {
        let te = TeConfig::default();
        let mut h = Hysteresis::new(HysteresisCfg {
            gap: 0.2,
            dead_band: 0.0,
        });
        // Overload: spill must act like the baseline.
        let paths = [up(4e6), up(20e6)];
        let cur = vec![1.0, 0.0];
        let spill = h.decide(&obs(10e6, &paths, &cur, &te));
        let base = Undamped.decide(&obs(10e6, &paths, &cur, &te));
        assert_eq!(spill, base, "spilling is not delayed");

        // Borderline: 5 Mbps offered, 2.2 Mbps headroom. The raw target
        // would pull back a little (spill 0.56 < current 0.6), but the
        // 20 %-shrunk headroom supports even less (spill 0.648), so the
        // agent is inside the hysteresis band and holds.
        let paths = [up(2.2e6), up(20e6)];
        let cur = vec![0.4, 0.6];
        let held = h.decide(&obs(5e6, &paths, &cur, &te));
        assert_eq!(held, cur, "inside the hysteresis band: hold");

        // Partial margin: re-aggregation proceeds, but only toward the
        // conservative (shrunk-headroom) target, not the raw one.
        let paths = [up(5.5e6), up(20e6)];
        let back = h.decide(&obs(5e6, &paths, &cur, &te));
        let raw = Undamped.decide(&obs(5e6, &paths, &cur, &te));
        assert!(back[0] > cur[0] + 0.2, "re-aggregates: {back:?}");
        assert!(
            back[0] < raw[0] - 0.05,
            "conservative target: {back:?} vs raw {raw:?}"
        );

        // Ample margin: pulls everything back like the baseline.
        let paths = [up(9e6), up(20e6)];
        let back = h.decide(&obs(5e6, &paths, &cur, &te));
        assert!(
            back[0] > cur[0] + 0.3,
            "re-aggregates with margin: {back:?}"
        );
    }

    #[test]
    fn hysteresis_dead_band_suppresses_dribbles() {
        let te = TeConfig::default();
        let mut h = Hysteresis::new(HysteresisCfg {
            gap: 0.0,
            dead_band: 0.05,
        });
        let paths = [up(10e6), up(10e6)];
        // Target is [1, 0]; current is within the dead band of it.
        let cur = vec![0.98, 0.02];
        assert_eq!(h.decide(&obs(5e6, &paths, &cur, &te)), cur);
        // Far from target: moves normally.
        let cur = vec![0.5, 0.5];
        let moved = h.decide(&obs(5e6, &paths, &cur, &te));
        assert!(moved[0] > 0.8, "{moved:?}");
    }

    #[test]
    fn hysteresis_vacates_failed_paths_even_when_holding() {
        let te = TeConfig::default();
        let mut h = Hysteresis::new(HysteresisCfg {
            gap: 0.9,
            dead_band: 0.5,
        });
        let paths = [down(), up(20e6)];
        let shares = h.decide(&obs(5e6, &paths, &[1.0, 0.0], &te));
        assert_eq!(shares[0], 0.0);
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn damped_step_zero_config_equals_undamped() {
        let te = TeConfig::default();
        let mut d = DampedStep::new(DampedStepCfg {
            damp: 0.0,
            cooldown_rounds: 0,
        });
        let mut u = Undamped;
        let mut cur = vec![0.0, 1.0];
        for _ in 0..6 {
            let paths = [up(10e6), up(10e6)];
            let a = d.decide(&obs(5e6, &paths, &cur, &te));
            let b = u.decide(&obs(5e6, &paths, &cur, &te));
            assert_eq!(a, b);
            cur = a;
        }
    }

    #[test]
    fn damped_step_shrinks_gain_under_load() {
        let te = TeConfig::default();
        // Fully damped at full spill: offered 10 M, headroom 0 on the
        // priority path -> spill_frac 1 -> step scaled by (1 - damp).
        let mut d = DampedStep::new(DampedStepCfg {
            damp: 0.5,
            cooldown_rounds: 0,
        });
        let paths = [up(0.0), up(20e6)];
        let cur = vec![1.0, 0.0];
        let damped = d.decide(&obs(10e6, &paths, &cur, &te));
        let raw = Undamped.decide(&obs(10e6, &paths, &cur, &te));
        assert!(
            damped[1] < raw[1] - 0.1,
            "half the gain moves less: {damped:?} vs {raw:?}"
        );
    }

    #[test]
    fn damped_step_cooldown_holds_after_a_move() {
        let te = TeConfig::default();
        let mut d = DampedStep::new(DampedStepCfg {
            damp: 0.0,
            cooldown_rounds: 2,
        });
        let paths = [up(10e6), up(10e6)];
        let s1 = d.decide(&obs(5e6, &paths, &[0.0, 1.0], &te));
        assert!(s1[0] > 0.5, "first round moves");
        let s2 = d.decide(&obs(5e6, &paths, &s1, &te));
        assert_eq!(s2, s1, "cooldown round 1 holds");
        let s3 = d.decide(&obs(5e6, &paths, &s2, &te));
        assert_eq!(s3, s2, "cooldown round 2 holds");
        let s4 = d.decide(&obs(5e6, &paths, &s3, &te));
        assert!(s4[0] > s3[0], "moves again after the cooldown");
    }

    #[test]
    fn desync_phases_are_deterministic_spread_and_bounded() {
        let d = Desync::new(7);
        let interval = 0.5;
        let phases: Vec<f64> = (0..64).map(|i| d.phase(i, interval)).collect();
        assert_eq!(
            phases,
            (0..64).map(|i| d.phase(i, interval)).collect::<Vec<_>>()
        );
        assert!(phases.iter().all(|&p| (0.0..interval).contains(&p)));
        // Jitter actually spreads agents out.
        let distinct = {
            let mut v = phases.clone();
            v.sort_by(|a, b| a.total_cmp(b));
            v.dedup();
            v.len()
        };
        assert!(distinct > 48, "phases are spread: {distinct} distinct");
        // A different salt jitters differently.
        assert_ne!(
            phases,
            (0..64)
                .map(|i| Desync::new(8).phase(i, interval))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_policies_keep_share_invariants() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let te = TeConfig::default();
        let mut rng = StdRng::seed_from_u64(17);
        let mut policies: Vec<Box<dyn ControlPolicy>> = vec![
            Box::new(Undamped),
            Box::new(Ewma::new(EwmaCfg { alpha: 0.3 })),
            Box::new(AdaptiveEwma::new(AdaptiveEwmaCfg::default())),
            Box::new(Hysteresis::new(HysteresisCfg::default())),
            Box::new(DampedStep::new(DampedStepCfg::default())),
            Box::new(Desync::new(3)),
        ];
        for _ in 0..300 {
            let n = rng.gen_range(1..5);
            let paths: Vec<PathView> = (0..n)
                .map(|_| PathView {
                    headroom: rng.gen_range(-5e6..20e6),
                    available: rng.gen_bool(0.8),
                })
                .collect();
            let mut cur: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let s: f64 = cur.iter().sum();
            if s > 0.0 {
                cur.iter_mut().for_each(|v| *v /= s);
            }
            let rate = rng.gen_range(0.0..20e6);
            let agent = rng.gen_range(0..4);
            for p in policies.iter_mut() {
                let o = Observation {
                    agent,
                    t: 0.0,
                    offered: rate,
                    paths: &paths,
                    current: &cur,
                    te: &te,
                };
                let new = p.decide(&o);
                let sum: f64 = new.iter().sum();
                assert!(
                    new.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)),
                    "{}: {new:?}",
                    p.name()
                );
                assert!(
                    (sum - 1.0).abs() < 1e-6 || sum == 0.0,
                    "{}: sum {sum} {new:?}",
                    p.name()
                );
                for (i, pv) in paths.iter().enumerate() {
                    if !pv.available {
                        assert_eq!(new[i], 0.0, "{}: failed path vacated", p.name());
                    }
                }
            }
        }
    }
}
