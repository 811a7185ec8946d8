//! Estimation-mode throughput — benches the S2 sweep at both fidelities
//! and writes `BENCH_estimate.json` at the repository root.
//!
//! The estimation pipeline's pitch (Parsimon-style clustering) is
//! order-of-magnitude faster scenario sweeps for a stated error bound:
//! cluster link directions with similar traffic features, replay one
//! representative per cluster on an isolated link, and read predicted
//! FCT percentiles off the composed empirical delay distributions. This
//! bench runs the full E7 × oversubscription sweep (every fabric tier ×
//! every locality, one workload each, on `multi_root_tree(4,14,2)` at
//! seed 2013) through the exact max–min fabric and through the
//! estimator, and records wall-clock for each side, the speedup, and the
//! worst p99 relative error observed — the same bound
//! `tests/estimate.rs` asserts against the oracle. It also times the
//! estimator alone on the hardest scenario (all-remote traffic on the
//! tightest fabric). The in-bench guard holds the speedup at ≥ 5× (the
//! acceptance floor is 10× at the longer
//! paper-scale horizon; the bench horizon is shortened for CI, which
//! *under*-states the advantage because the exact solver's cost grows
//! superlinearly with concurrent flows while the estimator's is near
//! linear). Wall-clock lives here and only here: simulation crates never
//! read the clock (lint rule D2).

use picloud::experiments::estimate_exp::{EstimateExperiment, FABRIC_TIERS_MBPS, LOCALITIES};
use picloud_bench::report::{per_call_ns, Report};
use picloud_network::flowsim::estimate::{EstimateConfig, FlowEstimator};
use picloud_network::flowsim::partition::default_workers;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{LinkRates, Topology};
use picloud_simcore::units::Bandwidth;
use picloud_simcore::{EDist, SeedFactory, SimDuration};
use picloud_workloads::traffic::TrafficPattern;
use picloud_workloads::TrafficWorkload;

const LAYER: &str = "network.estimate";

/// Bench seed (the paper seed) and sweep horizon. The horizon is long
/// enough that the exact solver pays real contention (tens of thousands
/// of flows across the sweep) while keeping the bench CI-sized.
const SEED: u64 = 2013;
const HORIZON_SECS: u64 = 40;

/// In-bench speedup floor: estimate must clear 5× over exact on the
/// identical sweep. The documented claim (≥ 10×) holds at paper-scale
/// horizons; see EXPERIMENTS.md §S2.
const SPEEDUP_FLOOR: f64 = 5.0;

struct Scenario {
    topo: Topology,
    workload: TrafficWorkload,
}

/// One workload per sweep point, generated once and replayed at both
/// fidelities so the comparison times solving, not generation.
fn scenarios() -> Vec<Scenario> {
    let seeds = SeedFactory::new(SEED);
    let mut out = Vec::with_capacity(FABRIC_TIERS_MBPS.len() * LOCALITIES.len());
    for &tier in &FABRIC_TIERS_MBPS {
        for &loc in &LOCALITIES {
            let rates = LinkRates {
                access: Bandwidth::mbps(100),
                fabric: Bandwidth::mbps(tier),
            };
            let topo = Topology::multi_root_tree_with(4, 14, 2, rates);
            let pattern = TrafficPattern::measured_dc()
                .with_arrival_rate(10.0)
                .with_intra_rack_fraction(loc);
            let workload = pattern.generate(&topo, SimDuration::from_secs(HORIZON_SECS), &seeds);
            out.push(Scenario { topo, workload });
        }
    }
    out
}

fn exact_dist(s: &Scenario, workers: usize) -> EDist {
    let mut sim = FlowSimulator::new(
        s.topo.clone(),
        RoutingPolicy::default(),
        RateAllocator::MaxMin,
    )
    .with_workers(workers);
    s.workload
        .replay_on(&mut sim)
        .expect("generated endpoints are hosts of the connected fabric");
    sim.run_to_completion();
    EDist::from_samples(
        sim.completed()
            .iter()
            .map(|c| c.fct().as_secs_f64())
            .collect(),
    )
}

fn estimate_dist(s: &Scenario, workers: usize) -> (EDist, usize) {
    let est = FlowEstimator::new(
        s.topo.clone(),
        RoutingPolicy::default(),
        RateAllocator::MaxMin,
    )
    .with_workers(workers)
    .with_config(EstimateConfig::seeded(SEED));
    let out = est.estimate(s.workload.events());
    (out.fct_dist(), out.cluster_count())
}

struct SweepResult {
    flows: usize,
    exact_ms: f64,
    estimate_ms: f64,
    max_p99_rel_err: f64,
    clusters_total: usize,
}

fn run_sweep(scenarios: &[Scenario], workers: usize) -> SweepResult {
    // One timed pass per side: each sweep is seconds long.
    let mut exact: Vec<EDist> = Vec::new();
    let exact_ms = per_call_ns(1, 1, || {
        exact = scenarios.iter().map(|s| exact_dist(s, workers)).collect();
    }) / 1e6;
    let mut est: Vec<(EDist, usize)> = Vec::new();
    let estimate_ms = per_call_ns(1, 1, || {
        est = scenarios
            .iter()
            .map(|s| estimate_dist(s, workers))
            .collect();
    }) / 1e6;

    let mut max_err = 0.0f64;
    for (x, (e, _)) in exact.iter().zip(&est) {
        let (xp, ep) = (x.quantile(0.99), e.quantile(0.99));
        if xp > 0.0 {
            max_err = max_err.max((ep - xp).abs() / xp);
        }
    }
    SweepResult {
        flows: exact.iter().map(EDist::len).sum(),
        exact_ms,
        estimate_ms,
        max_p99_rel_err: max_err,
        clusters_total: est.iter().map(|(_, c)| c).sum(),
    }
}

fn main() {
    let scenarios = scenarios();
    let workers = default_workers();
    let result = run_sweep(&scenarios, workers);
    let speedup = result.exact_ms / result.estimate_ms.max(1e-9);

    // The per-scenario unit cost on the hardest scenario: all-remote
    // traffic on the tightest fabric.
    let hardest = &scenarios[LOCALITIES.len() - 1];
    let hardest_ms = per_call_ns(5, 1, || estimate_dist(hardest, workers)) / 1e6;

    let bound = EstimateExperiment::P99_ERROR_BOUND;
    Report::new("estimate", SEED, workers)
        .row(LAYER, "horizon_sim_s", "s", HORIZON_SECS as f64)
        .row(LAYER, "scenarios", "count", scenarios.len() as f64)
        .row(LAYER, "flows", "count", result.flows as f64)
        .row(LAYER, "exact_ms.sweep", "ms", result.exact_ms)
        .row(LAYER, "estimate_ms.sweep", "ms", result.estimate_ms)
        .row(LAYER, "speedup", "ratio", speedup)
        .row(LAYER, "clusters", "count", result.clusters_total as f64)
        .row(LAYER, "max_p99_rel_err", "ratio", result.max_p99_rel_err)
        .row(LAYER, "p99_rel_err_bound", "ratio", bound)
        .row(LAYER, "estimate_ms.hardest", "ms", hardest_ms)
        .write();

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "estimation mode must clear {SPEEDUP_FLOOR}x over exact on the sweep, got {speedup:.1}x \
         ({:.0} ms exact vs {:.0} ms estimate)",
        result.exact_ms,
        result.estimate_ms
    );
    assert!(
        result.max_p99_rel_err <= bound,
        "bench sweep p99 error {:.3} exceeds the documented bound {bound:.2}",
        result.max_p99_rel_err,
    );
}
