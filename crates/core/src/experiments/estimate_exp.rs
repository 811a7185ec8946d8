//! **S2 — estimation mode: clustered sweeps vs the exact oracle.**
//!
//! Runs the E7 congestion sweep (rack locality) crossed with an E14-style
//! network-oversubscription axis (ToR–aggregation fabric rate tiers) at
//! **both** fidelities: the exact max–min fabric, and the Parsimon-style
//! estimation pipeline (`picloud_network::flowsim::estimate`). Each
//! scenario reports exact and predicted p50/p99 FCT, the relative error,
//! and how much solver work the clustering saved — the evidence behind
//! the error bound stated in `EXPERIMENTS.md` §S2. Wall-clock speedup is
//! measured separately in `crates/bench/benches/estimate_sweep.rs`
//! (simulation crates never read the clock; lint rule D2).
//!
//! Every sweep point is one [`Scenario`]: E7's paper fabric at a tier
//! with E7's traffic mix generated on it, replayed by
//! [`Scenario::exact`] and estimated by [`Scenario::estimate`].
//! [`EstimateExperiment::run`], [`sweep`], the bench and
//! `tests/estimate.rs` all go through it.

pub use super::traffic_exp::LOCALITIES;
use super::traffic_exp::{paper_fabric, pattern};
use crate::report::TextTable;
pub use picloud_network::flowsim::estimate::FidelityMode;
use picloud_network::flowsim::estimate::{EstimateConfig, EstimateOutcome, FlowEstimator};
use picloud_network::flowsim::partition::default_workers;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::Topology;
use picloud_simcore::{EDist, SeedFactory, SimDuration};
use picloud_workloads::TrafficWorkload;
use std::fmt;

/// The E14-style oversubscription axis: ToR–aggregation fabric rates in
/// Mbit/s (access stays at the paper's 100 Mbit). 100 Mbit fabric is
/// 7:1 rack oversubscription; 800 Mbit is effectively non-blocking.
pub const FABRIC_TIERS_MBPS: [u64; 4] = [100, 200, 400, 800];

/// Simulated traffic per scenario in the `estimate` report and in
/// `picloud-cli estimate --fidelity` sweeps.
pub const HORIZON: SimDuration = SimDuration::from_secs(10);

/// Position of the hardest scenario in [`grid`] order: all-remote
/// traffic (the last locality) on the tightest fabric (the first tier).
pub const HARDEST: usize = LOCALITIES.len() - 1;

/// The sweep's `(fabric tier Mbit/s, locality)` pairs, tiers outermost:
/// the order of [`EstimateExperiment::run`]'s points and [`sweep`]'s
/// lines.
pub fn grid() -> impl Iterator<Item = (u64, f64)> {
    FABRIC_TIERS_MBPS
        .iter()
        .flat_map(|&tier| LOCALITIES.iter().map(move |&loc| (tier, loc)))
}

/// One sweep scenario: the paper fabric at one tier and the E7 traffic
/// generated on it, ready to run at either fidelity.
#[derive(Debug)]
pub struct Scenario {
    seed: u64,
    topo: Topology,
    workload: TrafficWorkload,
}

impl Scenario {
    /// Generates `duration` of E7 traffic at `locality` on the paper
    /// fabric at `fabric_mbps`. `seed` drives the workload and the
    /// estimator's clustering order.
    pub fn generate(seed: u64, locality: f64, fabric_mbps: u64, duration: SimDuration) -> Self {
        let topo = paper_fabric(fabric_mbps);
        let workload = pattern(locality).generate(&topo, duration, &SeedFactory::new(seed));
        Scenario {
            seed,
            topo,
            workload,
        }
    }

    /// The exact oracle: replays the workload on the max–min fabric with
    /// `workers` solver threads and returns every flow's FCT, seconds.
    pub fn exact(&self, workers: usize) -> EDist {
        let mut sim = FlowSimulator::new(
            self.topo.clone(),
            RoutingPolicy::default(),
            RateAllocator::MaxMin,
        )
        .with_workers(workers);
        #[expect(
            clippy::expect_used,
            reason = "the generator draws endpoints from this connected builder topology; no route can be missing"
        )]
        self.workload
            .replay_on(&mut sim)
            .expect("fabric is connected");
        sim.run_to_completion();
        EDist::from_samples(
            sim.completed()
                .iter()
                .map(|c| c.fct().as_secs_f64())
                .collect(),
        )
    }

    /// Estimation mode: clusters the loaded links and predicts every
    /// flow's FCT, fanning representatives out on `workers` threads.
    pub fn estimate(&self, workers: usize) -> EstimateOutcome {
        FlowEstimator::new(
            self.topo.clone(),
            RoutingPolicy::default(),
            RateAllocator::MaxMin,
        )
        .with_workers(workers)
        .with_config(EstimateConfig::seeded(self.seed))
        .estimate(self.workload.events())
    }
}

/// One scenario (locality × fabric tier) at both fidelities.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatePoint {
    /// Intra-rack traffic fraction requested (the E7 axis).
    pub locality: f64,
    /// ToR–aggregation link rate, Mbit/s (the oversubscription axis).
    pub fabric_mbps: u64,
    /// Flows generated (and predicted).
    pub flows: usize,
    /// Exact-oracle median FCT, seconds.
    pub exact_p50_secs: f64,
    /// Exact-oracle 99th-percentile FCT, seconds.
    pub exact_p99_secs: f64,
    /// Estimated median FCT, seconds.
    pub est_p50_secs: f64,
    /// Estimated 99th-percentile FCT, seconds.
    pub est_p99_secs: f64,
    /// `|est − exact| / exact` on the median.
    pub p50_rel_err: f64,
    /// `|est − exact| / exact` on the 99th percentile.
    pub p99_rel_err: f64,
    /// Link directions carrying at least one flow.
    pub loaded_links: usize,
    /// Clusters derived (= representative simulations run).
    pub clusters: usize,
    /// Flows the exact solver ran on inside representatives — the
    /// estimation mode's whole simulation bill.
    pub rep_flows: usize,
}

impl EstimatePoint {
    /// Loaded links per cluster — how much the clustering compressed
    /// the fabric (≥ 1).
    pub fn compression(&self) -> f64 {
        self.loaded_links as f64 / self.clusters.max(1) as f64
    }
}

/// The full two-axis sweep at both fidelities, plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateExperiment {
    /// One point per (fabric tier, locality), in [`grid`] order.
    pub points: Vec<EstimatePoint>,
    /// Worst median relative error across the sweep.
    pub max_p50_rel_err: f64,
    /// Worst 99th-percentile relative error across the sweep.
    pub max_p99_rel_err: f64,
    /// Mean loaded-links-per-cluster compression across the sweep.
    pub mean_compression: f64,
    /// Per-cluster membership sizes for the [`HARDEST`] scenario — the
    /// telemetry membership gauge.
    pub hardest_cluster_sizes: Vec<usize>,
}

impl EstimateExperiment {
    /// The p99-FCT relative-error bound documented in `EXPERIMENTS.md`
    /// §S2 and asserted by `tests/estimate.rs`: estimation mode stays
    /// within this of the exact oracle on every sweep scenario.
    pub const P99_ERROR_BOUND: f64 = 0.45;

    /// Runs the full sweep: every fabric tier × every locality, each
    /// scenario generated once and run at both fidelities.
    pub fn run(seed: u64, duration: SimDuration) -> EstimateExperiment {
        let workers = default_workers();
        let rel = |e: f64, x: f64| {
            if x > 0.0 {
                (e - x).abs() / x
            } else {
                0.0
            }
        };
        let mut points = Vec::with_capacity(FABRIC_TIERS_MBPS.len() * LOCALITIES.len());
        let mut hardest_cluster_sizes = Vec::new();
        for (fabric_mbps, locality) in grid() {
            let scenario = Scenario::generate(seed, locality, fabric_mbps, duration);
            let exact = scenario.exact(workers);
            let out = scenario.estimate(workers);
            if points.len() == HARDEST {
                hardest_cluster_sizes = out.clusters.iter().map(|c| c.members.len()).collect();
            }
            let est = out.fct_dist();
            let (exact_p50, exact_p99) = (exact.quantile(0.5), exact.quantile(0.99));
            let (est_p50, est_p99) = (est.quantile(0.5), est.quantile(0.99));
            points.push(EstimatePoint {
                locality,
                fabric_mbps,
                flows: out.predictions.len(),
                exact_p50_secs: exact_p50,
                exact_p99_secs: exact_p99,
                est_p50_secs: est_p50,
                est_p99_secs: est_p99,
                p50_rel_err: rel(est_p50, exact_p50),
                p99_rel_err: rel(est_p99, exact_p99),
                loaded_links: out.loaded_resources,
                clusters: out.cluster_count(),
                rep_flows: out.rep_flows_solved,
            });
        }
        let max_p50 = points.iter().map(|p| p.p50_rel_err).fold(0.0, f64::max);
        let max_p99 = points.iter().map(|p| p.p99_rel_err).fold(0.0, f64::max);
        let mean_compression =
            points.iter().map(EstimatePoint::compression).sum::<f64>() / points.len().max(1) as f64;
        EstimateExperiment {
            points,
            max_p50_rel_err: max_p50,
            max_p99_rel_err: max_p99,
            mean_compression,
            hardest_cluster_sizes,
        }
    }
}

/// One sweep scenario at a single fidelity — the `picloud-cli estimate
/// --fidelity <mode>` report line (no oracle comparison, so estimate-only
/// sweeps keep their full speed advantage).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepLine {
    /// Intra-rack traffic fraction requested.
    pub locality: f64,
    /// ToR–aggregation link rate, Mbit/s.
    pub fabric_mbps: u64,
    /// Flows simulated (exact) or predicted (estimate).
    pub flows: usize,
    /// Median FCT, seconds.
    pub p50_secs: f64,
    /// 99th-percentile FCT, seconds.
    pub p99_secs: f64,
    /// Clusters derived; `None` at exact fidelity.
    pub clusters: Option<usize>,
    /// Flows solved inside representatives; `None` at exact fidelity.
    pub rep_flows: Option<usize>,
}

/// Runs the S2 sweep at one fidelity only. Exact runs the full max–min
/// fabric per scenario; estimate runs the clustering pipeline. Both are
/// byte-deterministic for a fixed `(mode, seed, duration)`.
pub fn sweep(mode: FidelityMode, seed: u64, duration: SimDuration) -> Vec<SweepLine> {
    let workers = default_workers();
    grid()
        .map(|(fabric_mbps, locality)| {
            let scenario = Scenario::generate(seed, locality, fabric_mbps, duration);
            let (fcts, clusters, rep_flows) = match mode {
                FidelityMode::Exact => (scenario.exact(workers), None, None),
                FidelityMode::Estimate => {
                    let out = scenario.estimate(workers);
                    (
                        out.fct_dist(),
                        Some(out.cluster_count()),
                        Some(out.rep_flows_solved),
                    )
                }
            };
            SweepLine {
                locality,
                fabric_mbps,
                flows: fcts.len(),
                p50_secs: fcts.quantile(0.5),
                p99_secs: fcts.quantile(0.99),
                clusters,
                rep_flows,
            }
        })
        .collect()
}

/// Renders sweep lines as JSONL (one scenario per line, keys in a fixed
/// order) — the artifact the CI determinism gate `cmp`s against
/// `tests/golden`.
pub fn sweep_jsonl(mode: FidelityMode, seed: u64, lines: &[SweepLine]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(&format!(
            "{{\"mode\":\"{}\",\"seed\":{},\"fabric_mbps\":{},\"locality\":{},\"flows\":{},\"p50_secs\":{},\"p99_secs\":{}",
            mode.label(),
            seed,
            l.fabric_mbps,
            l.locality,
            l.flows,
            l.p50_secs,
            l.p99_secs,
        ));
        if let (Some(c), Some(r)) = (l.clusters, l.rep_flows) {
            out.push_str(&format!(",\"clusters\":{c},\"rep_flows\":{r}"));
        }
        out.push_str("}\n");
    }
    out
}

impl fmt::Display for EstimateExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "S2: estimation mode — locality × oversubscription sweep vs exact oracle"
        )?;
        let mut t = TextTable::new(vec![
            "fabric".into(),
            "intra-rack".into(),
            "flows".into(),
            "exact p99".into(),
            "est p99".into(),
            "p99 err".into(),
            "clusters".into(),
            "links/cluster".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                format!("{}M", p.fabric_mbps),
                format!("{:.0}%", p.locality * 100.0),
                p.flows.to_string(),
                format!("{:.3}s", p.exact_p99_secs),
                format!("{:.3}s", p.est_p99_secs),
                format!("{:.1}%", p.p99_rel_err * 100.0),
                p.clusters.to_string(),
                format!("{:.1}", p.compression()),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "Worst relative error: p50 {:.1}%, p99 {:.1}% (documented bound {:.0}%); mean compression {:.1} links/cluster",
            self.max_p50_rel_err * 100.0,
            self.max_p99_rel_err * 100.0,
            EstimateExperiment::P99_ERROR_BOUND * 100.0,
            self.mean_compression
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EstimateExperiment {
        EstimateExperiment::run(7, SimDuration::from_secs(5))
    }

    #[test]
    fn sweep_covers_both_axes() {
        let e = small();
        assert_eq!(e.points.len(), FABRIC_TIERS_MBPS.len() * LOCALITIES.len());
        for p in &e.points {
            assert!(p.flows > 50, "enough traffic per scenario: {}", p.flows);
            assert!(p.clusters >= 1);
            assert!(p.clusters <= p.loaded_links);
        }
        assert!(!e.hardest_cluster_sizes.is_empty());
    }

    #[test]
    fn clustering_compresses_the_fabric() {
        let e = small();
        assert!(
            e.mean_compression > 1.5,
            "clusters must cover several links each: {:.2}",
            e.mean_compression
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = EstimateExperiment::run(3, SimDuration::from_secs(5));
        let b = EstimateExperiment::run(3, SimDuration::from_secs(5));
        assert_eq!(a, b);
    }

    #[test]
    fn display_has_the_table_and_bound() {
        let s = small().to_string();
        assert!(s.contains("estimation mode"));
        assert!(s.contains("Worst relative error"));
        assert!(s.contains("links/cluster"));
    }
}
