//! Apache/httperf-like closed-loop web workload (§5.4).
//!
//! "One of the stub nodes is running the Apache Web server, while the
//! remaining four stub nodes are using httperf. The Web workload in our
//! case consists of 100 static files with the file size drawn at random
//! to follow the online banking file distribution from the SPECweb2005
//! benchmark. The web retrieval latency increases by only 9% when we
//! switch from OSPF-InvCap to REsPoNse."

use ecp_power::PowerModel;
use ecp_simnet::{FlowId, SimConfig, Simulation};
use ecp_topo::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respons_core::PathTables;
use serde::{Deserialize, Serialize};

/// Web workload parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WebConfig {
    /// Number of distinct static files (paper: 100).
    pub num_files: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// Think time between a response and the next request, seconds.
    pub think_time: f64,
    /// Client access-link rate cap in bits/s (models the httperf host
    /// NIC; transfers cannot exceed it).
    pub access_rate: f64,
    /// Integration step, seconds.
    pub dt: f64,
    /// Workload seed (file sizes and request order).
    pub seed: u64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            num_files: 100,
            requests_per_client: 50,
            think_time: 0.2,
            access_rate: 20e6,
            dt: 0.02,
            seed: 2005,
        }
    }
}

/// Whole-run outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WebResult {
    /// Retrieval latency of every completed request, seconds.
    pub latencies: Vec<f64>,
    /// Requests that did not complete before the run ended.
    pub unfinished: usize,
    /// Mean network power fraction over the run.
    pub mean_power_fraction: f64,
}

impl WebResult {
    /// Mean retrieval latency, seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
    }

    /// Latency percentile (0–100), nearest rank.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut v = self.latencies.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let idx = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
        v[idx.min(v.len() - 1)]
    }
}

/// SPECweb2005-banking-like static file sizes: log-normal body (median
/// ≈ 12 KiB) with a clipped heavy tail, in bytes.
pub fn specweb_like_sizes(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Irwin–Hall(4) ≈ normal, unit variance after scaling.
            let z: f64 =
                ((0..4).map(|_| rng.gen::<f64>()).sum::<f64>() - 2.0) / (4.0f64 / 12.0).sqrt();
            let bytes = (9.4 + 1.1 * z).exp(); // median e^9.4 ≈ 12.1 KiB
            bytes.clamp(512.0, 2_000_000.0)
        })
        .collect()
}

enum ClientState {
    Thinking { until: f64 },
    Transferring { remaining_bits: f64, started: f64 },
    Done,
}

struct WebClient {
    node: NodeId,
    flow: FlowId,
    state: ClientState,
    issued: usize,
}

/// Run the web workload: each client node issues
/// `requests_per_client` sequential GETs against `server`.
pub fn run_web(
    topo: &Topology,
    power: &PowerModel,
    tables: &PathTables,
    server: NodeId,
    client_nodes: &[NodeId],
    cfg: &WebConfig,
    sim_cfg: &SimConfig,
) -> WebResult {
    let sizes = specweb_like_sizes(cfg.num_files, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEEF);
    let mut sim = Simulation::new(topo, power, tables, *sim_cfg);
    let mut clients: Vec<WebClient> = client_nodes
        .iter()
        .map(|&node| {
            let flow = sim.add_flow(tables, server, node, 0.0);
            WebClient {
                node,
                flow,
                state: ClientState::Thinking { until: 0.0 },
                issued: 0,
            }
        })
        .collect();

    // Per-OD one-way latency for the request leg (request is tiny: costs
    // one propagation delay each way; the data transfer dominates).
    let rtt_of = |node: NodeId| -> f64 {
        tables
            .get(server, node)
            .map(|od| 2.0 * od.always_on.latency(topo))
            .unwrap_or(0.0)
    };

    let mut latencies = Vec::new();
    let hard_stop = 3600.0;
    let mut t = 0.0;
    loop {
        let all_done = clients.iter().all(|c| matches!(c.state, ClientState::Done));
        if all_done || t >= hard_stop {
            break;
        }
        let t_next = t + cfg.dt;
        // Progress transfers using the delivered rate of the last step.
        for c in clients.iter_mut() {
            match c.state {
                ClientState::Transferring {
                    ref mut remaining_bits,
                    started,
                } => {
                    let rate = sim.delivered_rate(c.flow).min(cfg.access_rate);
                    *remaining_bits -= rate * cfg.dt;
                    if *remaining_bits <= 0.0 {
                        latencies.push((t_next - started) + rtt_of(c.node));
                        sim.schedule_demand(t_next, c.flow, 0.0);
                        c.state = if c.issued >= cfg.requests_per_client {
                            ClientState::Done
                        } else {
                            ClientState::Thinking {
                                until: t_next + cfg.think_time,
                            }
                        };
                    }
                }
                ClientState::Thinking { until } if until <= t + 1e-12 => {
                    let size_bits = 8.0 * sizes[rng.gen_range(0..sizes.len())];
                    c.issued += 1;
                    sim.schedule_demand(t, c.flow, cfg.access_rate);
                    c.state = ClientState::Transferring {
                        remaining_bits: size_bits,
                        started: t,
                    };
                }
                _ => {}
            }
        }
        sim.run_until(t_next);
        t = t_next;
    }

    let unfinished = clients
        .iter()
        .map(|c| {
            let pending = match c.state {
                ClientState::Done => 0,
                ClientState::Transferring { .. } => 1,
                ClientState::Thinking { .. } => 0,
            };
            (cfg.requests_per_client - c.issued) + pending
        })
        .sum();
    WebResult {
        latencies,
        unfinished,
        mean_power_fraction: sim.recorder().mean_power_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_power::PowerModel;
    use ecp_topo::gen::fig3_click;
    use respons_core::{Planner, PlannerConfig};

    fn setup() -> (Topology, PathTables, ecp_topo::gen::Fig3Nodes) {
        let (t, n) = fig3_click();
        let pm = PowerModel::cisco12000();
        let tables =
            Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &[(n.k, n.a), (n.k, n.c)]);
        (t, tables, n)
    }

    #[test]
    fn file_sizes_have_sane_distribution() {
        let sizes = specweb_like_sizes(1000, 1);
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert!(mean > 5_000.0 && mean < 100_000.0, "mean {mean} bytes");
        assert!(sizes.iter().all(|&s| (512.0..=2_000_000.0).contains(&s)));
        assert_eq!(specweb_like_sizes(10, 7), specweb_like_sizes(10, 7));
    }

    #[test]
    fn all_requests_complete_and_latency_positive() {
        let (t, tables, n) = setup();
        let pm = PowerModel::cisco12000();
        let cfg = WebConfig {
            requests_per_client: 5,
            ..Default::default()
        };
        let res = run_web(
            &t,
            &pm,
            &tables,
            n.k,
            &[n.a, n.c],
            &cfg,
            &SimConfig::default(),
        );
        assert_eq!(res.unfinished, 0);
        assert_eq!(res.latencies.len(), 10);
        for &l in &res.latencies {
            // At least one RTT (3 hops x 16.67 ms x 2).
            assert!(l >= 0.1, "latency {l}");
            assert!(l < 30.0);
        }
        assert!(res.mean_latency() > 0.0);
        assert!(res.percentile(100.0) >= res.percentile(0.0));
    }

    #[test]
    fn deterministic_in_seed() {
        let (t, tables, n) = setup();
        let pm = PowerModel::cisco12000();
        let cfg = WebConfig {
            requests_per_client: 3,
            ..Default::default()
        };
        let a = run_web(&t, &pm, &tables, n.k, &[n.a], &cfg, &SimConfig::default());
        let b = run_web(&t, &pm, &tables, n.k, &[n.a], &cfg, &SimConfig::default());
        assert_eq!(a.latencies, b.latencies);
        let cfg2 = WebConfig { seed: 9, ..cfg };
        let c = run_web(&t, &pm, &tables, n.k, &[n.a], &cfg2, &SimConfig::default());
        assert_ne!(a.latencies, c.latencies);
    }

    #[test]
    fn empty_clients() {
        let (t, tables, n) = setup();
        let pm = PowerModel::cisco12000();
        let res = run_web(
            &t,
            &pm,
            &tables,
            n.k,
            &[],
            &WebConfig::default(),
            &SimConfig::default(),
        );
        assert_eq!(res.latencies.len(), 0);
        assert_eq!(res.mean_latency(), 0.0);
    }
}
