//! The workloads: how each is built from the seed, the digest its
//! output must have, and the sizes it must keep. Also the replay the
//! traced run times on every workload.

use ecp_bench::scenarios::{campaign_scenario, te_stability_scaled};
use ecp_campaign::{CampaignSpec, EntrySpec};
use ecp_scenario::{ControlSpec, ResolvedScenario, Scenario};

/// The seed whose campaign output digest is pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// The registry replay the traced run times: per-interval `optimal`
/// recomputation over two GÉANT-like days. Its scenario seed is the
/// registry's, whatever the benchmark seed, since the replay's work
/// moves with it (16.2M to 26.1M allocations per run over seeds 1–5).
pub const REPLAY_ID: &str = "fig1b-recomputation-rate";
/// Intervals the replay runs over (two days of 15-minute intervals).
pub const REPLAY_INTERVALS: usize = 192;
/// Content hash of the replay's report JSON.
pub const REPLAY_DIGEST: &str = "e43478272daba536bc1104c906d0321d";

/// A copy of `examples/campaign_te_damping.toml`, kept beside the
/// benchmark so that edits to the example do not move the workload.
const TE_DAMPING_SPEC: &str = include_str!("../campaign_te_damping.toml");

/// Exact sizes of a workload. A drift in any of them fails the run, so
/// a change cannot silently shrink what is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Directed arcs of the (representative) topology.
    pub arcs: usize,
    /// OD pairs of the (representative) scenario.
    pub pairs: usize,
    /// Installed paths over all OD pairs.
    pub paths: usize,
    /// Runs the campaign expands to (1 for a scenario workload).
    pub runs: usize,
}

impl Fingerprint {
    /// The sizes of a resolved scenario, with the campaign's run count.
    pub fn of(resolved: &ResolvedScenario, runs: usize) -> Self {
        Fingerprint {
            arcs: resolved.built.topo.arc_count(),
            pairs: resolved.pairs.len(),
            paths: resolved.tables.iter().map(|(_, p)| p.num_paths()).sum(),
            runs,
        }
    }

    /// `got` must equal these pinned sizes.
    pub fn check(&self, got: &Fingerprint) -> Result<(), String> {
        if got == self {
            Ok(())
        } else {
            Err(format!("workload size drifted: {got:?}, pinned {self:?}"))
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scale-8 te-stability: the ε-tree planner and the oracle dominate.
    PlanScale8,
    /// The 61-run te-damping campaign on two threads, through the
    /// result store and the report writers.
    CampaignTeDamping,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PlanScale8, Workload::CampaignTeDamping];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanScale8 => "plan-scale8",
            Workload::CampaignTeDamping => "campaign-te-damping",
        }
    }

    pub fn is_campaign(self) -> bool {
        self == Workload::CampaignTeDamping
    }

    /// Share of the run length spent on cold units; the rest goes to
    /// warm units. Plan-scale8's headline number is its cold unit.
    pub fn cold_share(self) -> f64 {
        match self {
            Workload::PlanScale8 => 0.7,
            Workload::CampaignTeDamping => 0.5,
        }
    }

    /// The scenario a unit of a scenario workload runs (`None` for the
    /// campaign).
    ///
    /// Plan-scale8 keeps the pair sample of its own seed whatever the
    /// benchmark seed: over benchmark seeds 31–35 the sampled pairs moved
    /// the simulated TE dynamics from 1.4k to 22.8k processed events per
    /// run, which put the warm median's cross-seed spread at 0.33, over
    /// its 0.25 bound.
    pub fn scenario(self) -> Option<Scenario> {
        match self {
            Workload::PlanScale8 => Some(te_stability_scaled(
                150.0,
                0.7,
                ControlSpec::Ewma { alpha: 0.3 },
                8,
            )),
            Workload::CampaignTeDamping => None,
        }
    }

    /// The campaign a unit of the campaign workload runs; for a scenario
    /// workload, a one-entry campaign around its scenario (used by the
    /// traced run to time the campaign and store layers on it).
    ///
    /// The te-damping replicate seeds `[1, 2]` become `[seed, seed + 1]`,
    /// so the default seed runs the example unchanged.
    pub fn campaign(self, seed: u64) -> Result<CampaignSpec, String> {
        match self.scenario() {
            Some(s) => Ok(CampaignSpec::new(self.name()).entry(EntrySpec::inline(self.name(), s))),
            None => {
                let mut spec =
                    CampaignSpec::from_toml(TE_DAMPING_SPEC).map_err(|e| e.to_string())?;
                for entry in &mut spec.entries {
                    for s in &mut entry.seeds {
                        *s = s.wrapping_add(seed).wrapping_sub(DEFAULT_SEED);
                    }
                }
                Ok(spec)
            }
        }
    }

    pub fn fingerprint(self) -> Fingerprint {
        let (arcs, pairs, paths, runs) = match self {
            Workload::PlanScale8 => (908, 352, 1056, 1),
            Workload::CampaignTeDamping => (124, 44, 132, 61),
        };
        Fingerprint {
            arcs,
            pairs,
            paths,
            runs,
        }
    }

    /// Content hash the unit's output must have at `seed`: the report
    /// JSON of a scenario workload, `summary.json` of the campaign.
    /// Plan-scale8's output does not depend on the seed, so its digest
    /// holds at every seed; the campaign's is pinned at [`DEFAULT_SEED`]
    /// only, since its replicate seeds follow the benchmark seed.
    pub fn pinned_digest(self, seed: u64) -> Option<&'static str> {
        match self {
            Workload::PlanScale8 => Some("f56c34189efda9c6077698a23ed2a167"),
            Workload::CampaignTeDamping => {
                (seed == DEFAULT_SEED).then_some("178744959b1673a327874c9b0349b468")
            }
        }
    }
}

/// The registry lookup handed to campaign expansion.
pub fn resolver(id: &str) -> Option<Scenario> {
    campaign_scenario(id)
}
