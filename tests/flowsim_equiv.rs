//! Oracle equivalence for the incremental fabric solver.
//!
//! The `FlowSimulator` defaults to [`RecomputeMode::Incremental`]: each
//! inject / completion / cancel re-solves only the dirty region (the
//! changed flow's resources plus the transitive closure of flows sharing
//! them). The from-scratch solver is retained as
//! [`RecomputeMode::Full`] — the oracle. This test drives both modes in
//! lockstep through seeded random heavy-tailed workloads (bounded-Pareto
//! sizes, batched bursts, cancels, partial advances) on
//! the multi-root-tree and fat-tree fabrics, and requires **bit-for-bit**
//! agreement at every recomputation point: allocated rates, completion
//! records, per-link byte accounting and utilisation integrals.

use picloud_network::flow::{FlowId, FlowSpec};
use picloud_network::flowsim::{FlowSimulator, RateAllocator, RecomputeMode};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{DeviceId, Topology};
use picloud_simcore::units::Bytes;
use picloud_simcore::SimDuration;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Bounded-Pareto flow size on [64 KiB, 16 MiB] with tail index 1.2 —
/// the measurement-calibrated mix (Benson et al.; VL2).
fn pareto_size(rng: &mut ChaCha12Rng) -> Bytes {
    let l = 64.0f64 * 1024.0;
    let h = 16.0f64 * 1024.0 * 1024.0;
    let a = 1.2f64;
    let u: f64 = rng.gen_range(0.0..1.0);
    let x = l * (1.0 - u * (1.0 - (l / h).powf(a))).powf(-1.0 / a);
    Bytes::new(x.clamp(l, h) as u64)
}

fn random_spec(rng: &mut ChaCha12Rng, hosts: &[DeviceId]) -> FlowSpec {
    let src = hosts[rng.gen_range(0..hosts.len())];
    let mut dst = hosts[rng.gen_range(0..hosts.len())];
    while dst == src {
        dst = hosts[rng.gen_range(0..hosts.len())];
    }
    FlowSpec::new(src, dst, pareto_size(rng))
}

/// Asserts every externally observable quantity matches bit-for-bit.
fn assert_state_equal(inc: &FlowSimulator, full: &FlowSimulator, ctx: &str) {
    assert_eq!(inc.now(), full.now(), "{ctx}: clocks diverged");
    assert_eq!(inc.active_count(), full.active_count(), "{ctx}: active set");
    let (ir, fr) = (inc.active_rates(), full.active_rates());
    for ((ia, ib), (fa, fb)) in ir.iter().zip(fr.iter()) {
        assert_eq!(ia, fa, "{ctx}: flow id order");
        assert_eq!(
            ib.to_bits(),
            fb.to_bits(),
            "{ctx}: rate of {ia:?} diverged ({ib} vs {fb})"
        );
    }
    assert_eq!(inc.completed(), full.completed(), "{ctx}: completions");
    assert_eq!(inc.completed_total(), full.completed_total(), "{ctx}");
    for l in inc.topology().links() {
        for fwd in [true, false] {
            assert_eq!(
                inc.direction_utilisation(l.id, fwd).to_bits(),
                full.direction_utilisation(l.id, fwd).to_bits(),
                "{ctx}: instantaneous utilisation of {:?}/{fwd}",
                l.id
            );
        }
        assert_eq!(
            inc.mean_link_utilisation(l.id).to_bits(),
            full.mean_link_utilisation(l.id).to_bits(),
            "{ctx}: mean utilisation of {:?}",
            l.id
        );
        assert_eq!(
            inc.link_bytes_carried(l.id).to_bits(),
            full.link_bytes_carried(l.id).to_bits(),
            "{ctx}: bytes carried over {:?}",
            l.id
        );
        assert_eq!(
            inc.link_active_flows(l.id),
            full.link_active_flows(l.id),
            "{ctx}: active flows on {:?}",
            l.id
        );
    }
}

/// Drives one seeded workload through both recompute modes in lockstep.
fn run_workload(topo_of: impl Fn() -> Topology, seed: u64) {
    let allocator = if seed.is_multiple_of(4) {
        RateAllocator::EqualShare
    } else {
        RateAllocator::MaxMin
    };
    let policy = if seed.is_multiple_of(2) {
        RoutingPolicy::SingleShortest
    } else {
        RoutingPolicy::Ecmp { max_paths: 4 }
    };
    let mut inc = FlowSimulator::new(topo_of(), policy, allocator);
    inc.set_recompute_mode(RecomputeMode::Incremental);
    let mut full = FlowSimulator::new(topo_of(), policy, allocator);
    full.set_recompute_mode(RecomputeMode::Full);
    let hosts: Vec<DeviceId> = inc.topology().hosts().map(|h| h.id).collect();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut live: Vec<FlowId> = Vec::new();

    for op in 0..30 {
        let ctx = format!("seed {seed} op {op} ({allocator:?})");
        match rng.gen_range(0..10u32) {
            // Single inject at the current instant.
            0..=3 => {
                let spec = random_spec(&mut rng, &hosts);
                let at = inc.now();
                let a = inc.inject(spec.clone(), at).expect("connected fabric");
                let b = full.inject(spec, at).expect("connected fabric");
                assert_eq!(a, b, "{ctx}: ids");
                live.push(a);
            }
            // Same-instant burst through inject_batch.
            4..=5 => {
                let n = rng.gen_range(2..6usize);
                let specs: Vec<FlowSpec> = (0..n).map(|_| random_spec(&mut rng, &hosts)).collect();
                let at = inc.now();
                let a = inc.inject_batch(specs.clone(), at).expect("connected");
                let b = full.inject_batch(specs, at).expect("connected");
                assert_eq!(a, b, "{ctx}: batch ids");
                live.extend(a);
            }
            // Cancel a random still-known flow (possibly already done —
            // both sims must agree on that too).
            6..=7 => {
                if !live.is_empty() {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    let a = inc.cancel(id);
                    let b = full.cancel(id);
                    assert_eq!(a, b, "{ctx}: cancel result");
                }
            }
            // Advance through a random window, harvesting completions.
            _ => {
                let dt = SimDuration::from_nanos(rng.gen_range(1_000_000..80_000_000));
                let to = inc.now() + dt;
                inc.advance_to(to);
                full.advance_to(to);
            }
        }
        assert_state_equal(&inc, &full, &ctx);
    }

    // Drain both fabrics completely and compare the final records.
    if inc.active_count() > 0 {
        let end_inc = inc.run_to_completion();
        let end_full = full.run_to_completion();
        assert_eq!(end_inc, end_full, "seed {seed}: final clock");
    }
    assert_state_equal(&inc, &full, &format!("seed {seed} final"));
    assert!(
        inc.completed_total() > 0,
        "seed {seed}: workload exercised nothing"
    );
}

/// Hosts grouped by fat-tree pod: edge rack `r` belongs to pod
/// `r / (k/2)` (the builder numbers racks `pod * k/2 + edge`).
fn hosts_by_pod(topo: &Topology, k: u16) -> Vec<Vec<DeviceId>> {
    let half = k / 2;
    let mut pods: Vec<Vec<DeviceId>> = vec![Vec::new(); k as usize];
    for (rack, hosts) in topo.hosts_by_rack() {
        pods[(rack / half) as usize].extend(hosts);
    }
    pods
}

/// Like [`assert_state_equal`] but sampling the per-link checks (every
/// `stride`-th link) — the 1024-host fabric has 3072 links and the
/// full sweep would spend its budget on assert bookkeeping rather than
/// solver coverage. Rates, completions and counts stay exhaustive.
fn assert_state_equal_sampled(inc: &FlowSimulator, full: &FlowSimulator, stride: usize, ctx: &str) {
    assert_eq!(inc.now(), full.now(), "{ctx}: clocks diverged");
    assert_eq!(inc.active_count(), full.active_count(), "{ctx}: active set");
    let (ir, fr) = (inc.active_rates(), full.active_rates());
    for ((ia, ib), (fa, fb)) in ir.iter().zip(fr.iter()) {
        assert_eq!(ia, fa, "{ctx}: flow id order");
        assert_eq!(ib.to_bits(), fb.to_bits(), "{ctx}: rate of {ia:?} diverged");
    }
    assert_eq!(inc.completed(), full.completed(), "{ctx}: completions");
    assert_eq!(inc.completed_total(), full.completed_total(), "{ctx}");
    for l in inc.topology().links().iter().step_by(stride) {
        for fwd in [true, false] {
            assert_eq!(
                inc.direction_utilisation(l.id, fwd).to_bits(),
                full.direction_utilisation(l.id, fwd).to_bits(),
                "{ctx}: utilisation of {:?}/{fwd}",
                l.id
            );
        }
        assert_eq!(
            inc.link_bytes_carried(l.id).to_bits(),
            full.link_bytes_carried(l.id).to_bits(),
            "{ctx}: bytes carried over {:?}",
            l.id
        );
    }
}

/// One churn workload on the 1024-host (k = 16) fat-tree: pod-local
/// bursts across a few pods (disjoint regions → the parallel pool), a
/// trickle of cross-pod flows (regions that collapse into the shared
/// spine), cancels, and partial advances — the partitioned parallel
/// solver against a reference simulator (the from-scratch oracle, or
/// the serial workers-1 incremental solver).
fn run_fat_tree_1024_workload(seed: u64, workers: usize, oracle: RecomputeMode) {
    const K: u16 = 16;
    // Drawing from a handful of hosts per pod keeps the route cache hot
    // without shrinking the fabric the solver sees; the policy alternates
    // so both route shapes are swept.
    let policy = if seed.is_multiple_of(2) {
        RoutingPolicy::SingleShortest
    } else {
        RoutingPolicy::Ecmp { max_paths: 4 }
    };
    let mut inc = FlowSimulator::new(Topology::fat_tree(K), policy, RateAllocator::MaxMin)
        .with_workers(workers);
    let mut full = FlowSimulator::new(Topology::fat_tree(K), policy, RateAllocator::MaxMin);
    full.set_recompute_mode(oracle);
    assert_eq!(inc.partition_map().partition_count(), K as usize);
    let mut pods = hosts_by_pod(inc.topology(), K);
    for pod in &mut pods {
        pod.truncate(6);
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut live: Vec<FlowId> = Vec::new();

    for round in 0..6 {
        let ctx = format!("k16 seed {seed} workers {workers} round {round}");
        // A burst of pod-local flows over 2–3 pods, plus sometimes a
        // cross-pod flow to drag regions across the spine.
        let n_pods = rng.gen_range(2..4usize);
        let mut specs: Vec<FlowSpec> = Vec::new();
        for _ in 0..n_pods {
            let pod = &pods[rng.gen_range(0..pods.len())];
            for _ in 0..6 {
                let src = pod[rng.gen_range(0..pod.len())];
                let mut dst = pod[rng.gen_range(0..pod.len())];
                while dst == src {
                    dst = pod[rng.gen_range(0..pod.len())];
                }
                specs.push(FlowSpec::new(src, dst, pareto_size(&mut rng)));
            }
        }
        if round % 2 == 0 {
            let hosts_flat: Vec<DeviceId> = pods.iter().flatten().copied().collect();
            specs.push(random_spec(&mut rng, &hosts_flat));
        }
        let at = inc.now();
        let a = inc.inject_batch(specs.clone(), at).expect("connected");
        let b = full.inject_batch(specs, at).expect("connected");
        assert_eq!(a, b, "{ctx}: batch ids");
        live.extend(a);
        // Churn: cancel a couple of previously injected flows.
        for _ in 0..2 {
            if !live.is_empty() {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                assert_eq!(inc.cancel(id), full.cancel(id), "{ctx}: cancel");
            }
        }
        let to = inc.now() + SimDuration::from_nanos(rng.gen_range(5_000_000..60_000_000));
        inc.advance_to(to);
        full.advance_to(to);
        assert_state_equal_sampled(&inc, &full, 29, &ctx);
    }
    inc.run_to_completion();
    full.run_to_completion();
    assert_state_equal_sampled(&inc, &full, 29, &format!("k16 seed {seed} final"));
    assert!(inc.completed_total() > 0, "seed {seed}: nothing exercised");
}

#[test]
fn partitioned_solver_matches_full_oracle_on_1024_host_fat_tree() {
    // The expensive cross-check: the parallel partitioned solver against
    // the from-scratch oracle (every recompute re-solves all 6144
    // resources, ~1.5 s per seed in debug — hence the small seed count;
    // the 50-seed sweep below covers the worker-count axis cheaply).
    for seed in 0..6u64 {
        let workers = [1usize, 2, 8][(seed % 3) as usize];
        run_fat_tree_1024_workload(seed, workers, RecomputeMode::Full);
    }
}

#[test]
fn partitioned_solver_matches_serial_on_1024_host_fat_tree_50_seeds() {
    // ≥ 50 seeds with churn: the parallel partitioned solver (2 or 8
    // workers) against the serial workers-1 solver — same seeds → same
    // bytes regardless of concurrency. The serial side is itself pinned
    // against the from-scratch oracle by the test above and by the
    // smaller-fabric sweeps, so this transitively extends the oracle
    // contract to every pool configuration at full scale.
    for seed in 0..51u64 {
        let workers = [2usize, 8][(seed % 2) as usize];
        run_fat_tree_1024_workload(seed, workers, RecomputeMode::Incremental);
    }
}

#[test]
fn incremental_solver_matches_oracle_on_multi_root_tree() {
    for seed in 0..60u64 {
        run_workload(|| Topology::multi_root_tree(3, 4, 2), seed);
    }
}

#[test]
fn incremental_solver_matches_oracle_on_fat_tree() {
    for seed in 100..160u64 {
        run_workload(|| Topology::fat_tree(4), seed);
    }
}

mod merge_order {
    use super::*;
    use proptest::prelude::*;

    /// A full digest of externally observable simulator state, bit-exact.
    fn state_digest(sim: &FlowSimulator) -> String {
        let rates: Vec<(FlowId, u64)> = sim
            .active_rates()
            .iter()
            .map(|(id, r)| (*id, r.to_bits()))
            .collect();
        let links: Vec<(u64, u64)> = sim
            .topology()
            .links()
            .iter()
            .map(|l| {
                (
                    sim.link_bytes_carried(l.id).to_bits(),
                    sim.mean_link_utilisation(l.id).to_bits(),
                )
            })
            .collect();
        format!(
            "{:?}|{rates:?}|{links:?}|{:?}|{:?}",
            sim.now(),
            sim.completed(),
            sim.partition_solves()
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Merge order is invariant under worker count: the same seeded
        /// burst-heavy workload produces byte-identical state at 1, 2 and
        /// 8 workers. Bursts are large (and spread over several pods) so
        /// the recompute genuinely fans out to the pool instead of taking
        /// the serial bypass.
        #[test]
        fn merge_is_invariant_under_worker_count(
            seed in 0u64..10_000,
            pods_used in 2usize..5,
        ) {
            let run = |workers: usize| {
                let mut sim = FlowSimulator::new(
                    Topology::fat_tree(4),
                    RoutingPolicy::Ecmp { max_paths: 4 },
                    RateAllocator::MaxMin,
                )
                .with_workers(workers);
                let pods = hosts_by_pod(sim.topology(), 4);
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                for _ in 0..3 {
                    // ~40 pod-local flows per burst across `pods_used`
                    // pods: several disjoint regions, > PARALLEL_FLOWS_MIN
                    // flows, so multi-worker runs take the parallel path.
                    let mut specs = Vec::new();
                    for p in 0..pods_used {
                        let pod = &pods[p % pods.len()];
                        for _ in 0..(40 / pods_used) {
                            let src = pod[rng.gen_range(0..pod.len())];
                            let mut dst = pod[rng.gen_range(0..pod.len())];
                            while dst == src {
                                dst = pod[rng.gen_range(0..pod.len())];
                            }
                            specs.push(FlowSpec::new(src, dst, pareto_size(&mut rng)));
                        }
                    }
                    let at = sim.now();
                    sim.inject_batch(specs, at).expect("connected");
                    let to = at + SimDuration::from_nanos(rng.gen_range(1_000_000..20_000_000));
                    sim.advance_to(to);
                }
                sim.run_to_completion();
                state_digest(&sim)
            };
            let serial = run(1);
            prop_assert_eq!(&serial, &run(2), "2 workers diverged from serial");
            prop_assert_eq!(&serial, &run(8), "8 workers diverged from serial");
        }
    }
}

#[test]
fn incremental_solver_matches_oracle_under_sustained_churn() {
    // One long-lived fabric with continuous arrivals and departures: the
    // dirty-region closure is exercised against deep sharing chains, and
    // the 1,600 retired flows make the flow table close its holes (and
    // renumber its inverted index) about twenty times.
    let mut inc = FlowSimulator::new(
        Topology::multi_root_tree(4, 14, 2),
        RoutingPolicy::Ecmp { max_paths: 4 },
        RateAllocator::MaxMin,
    );
    let mut full = FlowSimulator::new(
        Topology::multi_root_tree(4, 14, 2),
        RoutingPolicy::Ecmp { max_paths: 4 },
        RateAllocator::MaxMin,
    );
    full.set_recompute_mode(RecomputeMode::Full);
    let hosts: Vec<DeviceId> = inc.topology().hosts().map(|h| h.id).collect();
    let mut rng = ChaCha12Rng::seed_from_u64(777);
    for round in 0..400 {
        let specs: Vec<FlowSpec> = (0..4).map(|_| random_spec(&mut rng, &hosts)).collect();
        let at = inc.now();
        inc.inject_batch(specs.clone(), at).expect("connected");
        full.inject_batch(specs, at).expect("connected");
        let to = at + SimDuration::from_nanos(rng.gen_range(5_000_000..50_000_000));
        inc.advance_to(to);
        full.advance_to(to);
        assert_state_equal(&inc, &full, &format!("churn round {round}"));
    }
    inc.run_to_completion();
    full.run_to_completion();
    assert_state_equal(&inc, &full, "churn final");
}
