//! Property-based tests (proptest) on the core invariants.
//!
//! Unit tests pin specific behaviours; these pin the *laws* the scale
//! model relies on, across randomly generated inputs.

use picloud::chaos::certify_max_min;
use picloud_hardware::cpu::{share_capacity, CpuClaim};
use picloud_network::flow::FlowSpec;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::{Router, RoutingPolicy};
use picloud_network::topology::{DeviceId, LinkId, Topology};
use picloud_placement::migration::LiveMigrationModel;
use picloud_simcore::engine::Engine;
use picloud_simcore::metrics::Histogram;
use picloud_simcore::units::{Bandwidth, Bytes};
use picloud_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Injects `batch` at `at` and records each new flow's source and links,
/// rebuilt by `router` (which must use the simulator's routing policy);
/// ids are issued in order, so `paths[id]` is flow `id`.
fn inject_certified(
    sim: &mut FlowSimulator,
    router: &mut Router,
    paths: &mut Vec<(DeviceId, Vec<LinkId>)>,
    batch: &[FlowSpec],
    at: SimTime,
) {
    let ids = sim
        .inject_batch(batch.to_vec(), at)
        .expect("connected fabric");
    for (spec, id) in batch.iter().zip(ids) {
        assert_eq!(id.0 as usize, paths.len(), "ids are issued in order");
        let chosen = router
            .route(sim.topology(), spec.src, spec.dst, id)
            .expect("connected fabric");
        paths.push((spec.src, router.path(chosen).to_vec()));
    }
}

/// [`certify_max_min`] on the simulator's current rates, as a proptest
/// failure.
fn certify(
    topo: &Topology,
    sim: &FlowSimulator,
    paths: &[(DeviceId, Vec<LinkId>)],
) -> Result<(), TestCaseError> {
    certify_max_min(topo, &sim.active_rates(), paths).map_err(TestCaseError::fail)
}

proptest! {
    // ------------------------------------------------------------------
    // CPU sharing: the allocator is a weighted max-min fair allocator.
    // ------------------------------------------------------------------
    #[test]
    fn cpu_share_conservation_and_caps(
        capacity in 1.0e6..1.0e10f64,
        demands in prop::collection::vec((0.0..1.0e9f64, 1.0..4096.0f64), 0..24),
    ) {
        let claims: Vec<CpuClaim> = demands
            .iter()
            .map(|(d, w)| CpuClaim::with_weight(*d, *w))
            .collect();
        let alloc = share_capacity(capacity, &claims);
        prop_assert_eq!(alloc.len(), claims.len());
        let total: f64 = alloc.iter().sum();
        prop_assert!(total <= capacity * (1.0 + 1e-9), "over-allocated {total} of {capacity}");
        for (a, c) in alloc.iter().zip(&claims) {
            prop_assert!(*a <= c.demand_hz + 1e-6, "exceeded demand");
            prop_assert!(*a >= 0.0);
        }
        // If undersubscribed, everyone is fully satisfied.
        let demand_sum: f64 = claims.iter().map(|c| c.demand_hz).sum();
        if demand_sum <= capacity {
            for (a, c) in alloc.iter().zip(&claims) {
                prop_assert!((a - c.demand_hz).abs() < 1e-3 * c.demand_hz.max(1.0));
            }
        }
    }

    // ------------------------------------------------------------------
    // Units: bandwidth transfer round-trips.
    // ------------------------------------------------------------------
    #[test]
    fn bandwidth_transfer_roundtrip(
        mbps in 1u64..10_000,
        kib in 1u64..1_000_000,
    ) {
        let bw = Bandwidth::mbps(mbps);
        let data = Bytes::kib(kib);
        let t = bw.transfer_time(data);
        let back = bw.data_in(t);
        let diff = data.as_u64().abs_diff(back.as_u64());
        prop_assert!(diff <= 2, "lost {diff} bytes in round trip");
    }

    // ------------------------------------------------------------------
    // Histogram: quantiles are monotone and bounded by min/max.
    // ------------------------------------------------------------------
    #[test]
    fn histogram_quantiles_monotone(
        samples in prop::collection::vec(-1.0e6..1.0e6f64, 1..200),
        q1 in 0.0..1.0f64,
        q2 in 0.0..1.0f64,
    ) {
        let h: Histogram = samples.iter().copied().collect();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let vlo = h.quantile(lo).unwrap();
        let vhi = h.quantile(hi).unwrap();
        prop_assert!(vlo <= vhi);
        prop_assert!(vlo >= h.min().unwrap());
        prop_assert!(vhi <= h.max().unwrap());
        let mean = h.mean().unwrap();
        prop_assert!(mean >= h.min().unwrap() - 1e-9 && mean <= h.max().unwrap() + 1e-9);
    }

    // ------------------------------------------------------------------
    // Engine: events always fire in nondecreasing time order.
    // ------------------------------------------------------------------
    #[test]
    fn engine_fires_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut engine = Engine::new(Vec::<u64>::new());
        for &t in &times {
            engine.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _| {
                w.push(t);
            });
        }
        engine.run();
        let fired = engine.world();
        prop_assert_eq!(fired.len(), times.len());
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
    }

    // ------------------------------------------------------------------
    // Flow simulator: byte conservation and termination with random flows.
    // ------------------------------------------------------------------
    #[test]
    fn flowsim_conserves_bytes(
        flows in prop::collection::vec(
            (0usize..56, 0usize..56, 1u64..4096, 0u64..5_000),
            1..40,
        ),
    ) {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
        let mut sim = FlowSimulator::new(topo, RoutingPolicy::default(), RateAllocator::MaxMin);
        let mut flows = flows;
        flows.sort_by_key(|f| f.3);
        let injected = flows.len();
        for (src, dst, kib, at_ms) in flows {
            sim.inject(
                FlowSpec::new(hosts[src], hosts[dst], Bytes::kib(kib)),
                SimTime::ZERO + SimDuration::from_millis(at_ms),
            )
            .expect("connected fabric");
        }
        sim.run_to_completion();
        prop_assert_eq!(sim.completed().len(), injected);
        prop_assert_eq!(sim.active_count(), 0);
        // FCT is never negative and finishes after start.
        for c in sim.completed() {
            prop_assert!(c.finished >= c.started);
        }
    }

    // ------------------------------------------------------------------
    // Flow simulator: the rates are max–min fair by the certificate,
    // not by comparison with another run of the same solver — so a bug
    // both recompute modes share still fails here. Two batches on the
    // paper fabric or a k = 4 fat-tree, checked after each batch and at
    // random instants, on one worker and on two.
    // ------------------------------------------------------------------
    #[test]
    fn flowsim_rates_pass_the_max_min_certificate(
        fat in prop::bool::ANY,
        flows in prop::collection::vec(
            (0usize..64, 0usize..64, 1u64..2048),
            2..128,
        ),
        second_at_ms in 0u64..200,
        checks_ms in prop::collection::vec(0u64..400, 1..5),
    ) {
        let topo = if fat {
            Topology::fat_tree(4)
        } else {
            Topology::multi_root_tree(4, 14, 2)
        };
        let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|&(src, dst, kib)| {
                FlowSpec::new(hosts[src % hosts.len()], hosts[dst % hosts.len()], Bytes::kib(kib))
            })
            .collect();
        let (first, second) = specs.split_at(specs.len() / 2);
        let second_at = SimTime::ZERO + SimDuration::from_millis(second_at_ms);
        let mut checks: Vec<SimTime> = checks_ms
            .iter()
            .map(|&ms| SimTime::ZERO + SimDuration::from_millis(ms))
            .collect();
        checks.sort();
        let policy = RoutingPolicy::default();
        for workers in [1, 2] {
            let mut sim = FlowSimulator::new(topo.clone(), policy, RateAllocator::MaxMin)
                .with_workers(workers);
            let mut router = Router::new(policy);
            let mut cert = Vec::with_capacity(specs.len());
            inject_certified(&mut sim, &mut router, &mut cert, first, SimTime::ZERO);
            certify(&topo, &sim, &cert)?;
            let mut pending = Some(second);
            for &at in &checks {
                if let Some(batch) = pending.filter(|_| second_at <= at) {
                    inject_certified(&mut sim, &mut router, &mut cert, batch, second_at);
                    pending = None;
                    certify(&topo, &sim, &cert)?;
                }
                sim.advance_to(at);
                certify(&topo, &sim, &cert)?;
            }
        }
    }

    // ------------------------------------------------------------------
    // Migration: live downtime never exceeds cold downtime; byte count is
    // bounded by (rounds + 1) x RAM.
    // ------------------------------------------------------------------
    #[test]
    fn live_migration_dominates_cold(
        ram_mib in 1u64..512,
        dirty_mb_s in 0.0..50.0f64,
        bw_mbps in 10u64..10_000,
    ) {
        let model = LiveMigrationModel {
            bandwidth: Bandwidth::mbps(bw_mbps),
            ..LiveMigrationModel::default()
        };
        let ram = Bytes::mib(ram_mib);
        let cold = model.cold(ram);
        let live = model.pre_copy(ram, dirty_mb_s * 1e6);
        prop_assert!(
            live.downtime <= cold.downtime,
            "live {} vs cold {}",
            live.downtime,
            cold.downtime
        );
        let bound = ram.as_u64().saturating_mul(u64::from(live.rounds) + 1);
        prop_assert!(live.bytes_transferred.as_u64() <= bound + 1);
        prop_assert!(live.total_time >= cold.total_time.mul_f64(0.999));
    }

    // ------------------------------------------------------------------
    // Topology builders: connected, and every host has exactly one access
    // link.
    // ------------------------------------------------------------------
    #[test]
    fn built_topologies_are_sane(racks in 1u16..8, hosts in 1u16..20, roots in 1u16..4) {
        let topo = Topology::multi_root_tree(racks, hosts, roots);
        prop_assert!(topo.is_connected());
        prop_assert_eq!(topo.hosts().count(), (racks as usize) * (hosts as usize));
        for h in topo.hosts() {
            prop_assert_eq!(topo.neighbours(h.id).len(), 1, "host has one NIC");
        }
    }

    #[test]
    fn fat_trees_are_sane(half in 1u16..5) {
        let k = half * 2;
        let topo = Topology::fat_tree(k);
        prop_assert!(topo.is_connected());
        prop_assert_eq!(topo.hosts().count(), (k as usize).pow(3) / 4);
    }

    // ------------------------------------------------------------------
    // Failure masks: failing any set of links and devices and then
    // repairing every one of them restores the fabric exactly — the
    // connectivity report round-trips through arbitrary damage. Every
    // damaged report also matches a per-host BFS count of reachable
    // pairs, which shares nothing with `measure`'s component count.
    // ------------------------------------------------------------------
    #[test]
    fn failure_mask_repair_round_trips_connectivity(
        fat in prop::bool::ANY,
        link_picks in prop::collection::vec(0usize..128, 0..12),
        device_picks in prop::collection::vec(0usize..16, 0..3),
    ) {
        use picloud_network::failure::{aggregation_devices, ConnectivityReport, FailureMask};
        use picloud_network::graph::bfs_distances;

        let topo = if fat {
            Topology::fat_tree(4)
        } else {
            Topology::multi_root_tree(4, 14, 2)
        };
        let pristine = ConnectivityReport::measure(&topo);
        let links: Vec<_> = topo.links().iter().map(|l| l.id).collect();
        let aggs = aggregation_devices(&topo);

        let mut mask = FailureMask::none();
        for i in &link_picks {
            mask.fail_link(links[i % links.len()]);
        }
        for i in &device_picks {
            mask.fail_device(aggs[i % aggs.len()]);
        }
        let degraded = mask.apply(&topo).topology;
        let damaged = ConnectivityReport::measure(&degraded);
        // The oracle: one BFS per surviving host, counting the other hosts
        // it reaches.
        let hosts: Vec<_> = degraded.hosts().map(|h| h.id).collect();
        let reachable: usize = hosts
            .iter()
            .map(|&src| {
                let dist = bfs_distances(&degraded, src);
                hosts
                    .iter()
                    .filter(|&&h| h != src && dist[h.index()] != u32::MAX)
                    .count()
            })
            .sum();
        prop_assert_eq!(damaged.hosts_up, hosts.len());
        prop_assert_eq!(damaged.reachable_pairs, reachable);
        prop_assert_eq!(damaged.total_pairs, hosts.len() * hosts.len().saturating_sub(1));
        // The damaged fabric never reaches *more* pairs than the pristine one.
        prop_assert!(damaged.reachability() <= pristine.reachability() + 1e-12);

        for i in &link_picks {
            mask.repair_link(links[i % links.len()]);
        }
        for i in &device_picks {
            mask.repair_device(aggs[i % aggs.len()]);
        }
        prop_assert_eq!(mask.failed_link_count(), 0);
        prop_assert_eq!(mask.failed_device_count(), 0);
        let healed = ConnectivityReport::measure(&mask.apply(&topo).topology);
        prop_assert_eq!(healed, pristine, "repair must restore the fabric exactly");
    }
}
