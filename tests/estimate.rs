//! Acceptance tests for the estimation mode (`flowsim::estimate`).
//!
//! Three claims from EXPERIMENTS.md §S2 are pinned here:
//!
//! 1. **Accuracy** — across the E7 locality × oversubscription sweep,
//!    the estimator's predicted p99 FCT stays within the documented
//!    relative-error bound of the exact max–min oracle
//!    ([`EstimateExperiment::P99_ERROR_BOUND`]).
//! 2. **Purity** — clustering and prediction are a pure function of
//!    `(topology, workload, seed)`: byte-identical serialised outcomes
//!    across repeated runs and across worker counts (1 vs 8), so the
//!    fan-out pool can never leak scheduling order into results.
//! 3. **One pipeline** — the two-fidelity report and the single-fidelity
//!    sweeps run the same scenarios and agree bit for bit.

use picloud::experiments::estimate_exp::{
    self, EstimateExperiment, FidelityMode, Scenario, FABRIC_TIERS_MBPS, HARDEST, LOCALITIES,
};
use picloud_simcore::SimDuration;
use proptest::prelude::*;

#[test]
fn p99_error_within_documented_bound_on_the_sweep() {
    // Two seeds, the paper seed and a fresh one, over a horizon long
    // enough for real contention at the tight fabric tiers. The sweep
    // is deterministic, so these figures are exact regression pins, not
    // statistical luck.
    for seed in [2013u64, 7] {
        let e = EstimateExperiment::run(seed, SimDuration::from_secs(10));
        assert!(
            e.max_p99_rel_err <= EstimateExperiment::P99_ERROR_BOUND,
            "seed {seed}: worst p99 relative error {:.3} exceeds the documented bound {:.2}",
            e.max_p99_rel_err,
            EstimateExperiment::P99_ERROR_BOUND
        );
        // The bound must not be trivially loose either: the estimator
        // is an estimator, so *some* scenario shows measurable error.
        assert!(e.max_p99_rel_err > 0.0, "seed {seed}: suspiciously exact");
        // The membership gauge describes the hardest scenario's own
        // clusters: one size per cluster, covering every loaded link.
        let hardest = &e.points[HARDEST];
        assert_eq!((hardest.fabric_mbps, hardest.locality), (100, 0.0));
        assert_eq!(
            e.hardest_cluster_sizes.len(),
            hardest.clusters,
            "seed {seed}"
        );
        assert_eq!(
            e.hardest_cluster_sizes.iter().sum::<usize>(),
            hardest.loaded_links,
            "seed {seed}"
        );
    }
}

#[test]
fn the_report_agrees_with_both_single_fidelity_sweeps() {
    // `run` and `sweep` build and replay the same scenarios, so each
    // report point carries the exact line's and the estimate line's
    // figures bit for bit.
    let (seed, d) = (7, SimDuration::from_secs(2));
    let e = EstimateExperiment::run(seed, d);
    let exact = estimate_exp::sweep(FidelityMode::Exact, seed, d);
    let est = estimate_exp::sweep(FidelityMode::Estimate, seed, d);
    assert_eq!(e.points.len(), exact.len());
    assert_eq!(e.points.len(), est.len());
    for ((p, x), y) in e.points.iter().zip(&exact).zip(&est) {
        let at = (p.fabric_mbps, p.locality.to_bits());
        assert_eq!(at, (x.fabric_mbps, x.locality.to_bits()));
        assert_eq!(at, (y.fabric_mbps, y.locality.to_bits()));
        assert_eq!([x.flows, y.flows], [p.flows; 2], "at {at:?}");
        assert_eq!(p.exact_p50_secs.to_bits(), x.p50_secs.to_bits());
        assert_eq!(p.exact_p99_secs.to_bits(), x.p99_secs.to_bits());
        assert_eq!(p.est_p50_secs.to_bits(), y.p50_secs.to_bits());
        assert_eq!(p.est_p99_secs.to_bits(), y.p99_secs.to_bits());
        assert_eq!((x.clusters, x.rep_flows), (None, None));
        assert_eq!(
            (y.clusters, y.rep_flows),
            (Some(p.clusters), Some(p.rep_flows))
        );
    }
}

#[test]
fn single_fidelity_sweep_jsonl_is_byte_deterministic() {
    // The artifact the CI determinism gate `cmp`s: two fresh runs of
    // the estimate-only sweep must serialise identically.
    let d = SimDuration::from_secs(5);
    let a = estimate_exp::sweep(FidelityMode::Estimate, 7, d);
    let b = estimate_exp::sweep(FidelityMode::Estimate, 7, d);
    assert_eq!(
        estimate_exp::sweep_jsonl(FidelityMode::Estimate, 7, &a),
        estimate_exp::sweep_jsonl(FidelityMode::Estimate, 7, &b),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clustering and prediction are a pure function of
    /// `(topology, workload, seed)`: repeated runs and different worker
    /// counts produce byte-identical serialised outcomes.
    #[test]
    fn estimation_is_pure_in_topology_workload_seed(
        seed in 0u64..1_000,
        loc_step in 0usize..LOCALITIES.len(),
        tier_idx in 0usize..FABRIC_TIERS_MBPS.len(),
    ) {
        let scenario = Scenario::generate(
            seed,
            LOCALITIES[loc_step],
            FABRIC_TIERS_MBPS[tier_idx],
            SimDuration::from_secs(2),
        );
        let json = |workers| {
            serde_json::to_string(&scenario.estimate(workers)).expect("outcome serialises")
        };
        let serial = json(1);
        let again = json(1);
        let pooled = json(8);
        prop_assert_eq!(&serial, &again, "re-run diverged");
        prop_assert_eq!(&serial, &pooled, "worker count leaked into results");
    }
}
