//! The chaos-harness runner: seeded adversarial schedules against the
//! full recovery stack, with invariant checking, delta-debugging shrink
//! and bit-for-bit JSON replay.
//!
//! The generator and the invariant vocabulary live in
//! [`picloud_faults::chaos`]; this module supplies the *runner* — the
//! thing that takes a [`ChaosSchedule`], executes the recovery control
//! loop under it with the safety registry armed, and turns the first
//! violation into a minimal reproducing schedule. Three auxiliary checks
//! ride along each batch, covering subsystems the recovery world does
//! not exercise: gossip tombstones must never resurrect, the flow fabric
//! must conserve bytes, and its rates must pass the max–min certificate
//! ([`certify_max_min`]) through a churn of bursts and cancels.
//!
//! The loop is the FoundationDB recipe on the paper's scale model:
//!
//! 1. [`run_chaos`] draws N seeded schedules over the cluster's
//!    [`DomainTree`] and runs each one deterministically.
//! 2. A violated invariant yields an [`InvariantViolation`] naming the
//!    broken rule, the instant, and the offending state.
//! 3. [`shrink_schedule`] re-runs ddmin-reduced candidate schedules
//!    until the event list is 1-minimal for "same invariant still
//!    fires".
//! 4. The shrunk [`ChaosSchedule`] serialises to JSON
//!    ([`ChaosSchedule::to_json`]); [`replay_json`] reproduces the
//!    violation bit-for-bit anywhere.

use crate::cluster::PiCloud;
pub use crate::recovery::Sabotage;
use crate::recovery::{run_recovery_chaos, ChaosMode, RecoveryConfig, RecoveryReport};
use picloud_faults::{
    shrink, ChaosProfile, ChaosSchedule, DomainTree, FaultTimeline, InvariantViolation,
};
use picloud_mgmt::gossip::GossipNetwork;
use picloud_network::flow::{FlowId, FlowSpec};
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::graph::shortest_path_avoiding;
use picloud_network::routing::{Router, RoutingPolicy};
use picloud_network::topology::{DeviceId, LinkId, Topology};
use picloud_simcore::units::Bytes;
use picloud_simcore::{SeedFactory, SimDuration, SimTime};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// What one chaos schedule did to the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// The schedule's seed.
    pub seed: u64,
    /// Events in the schedule that ran.
    pub events: usize,
    /// The recovery run's full report.
    pub report: RecoveryReport,
    /// The first invariant violation, if any.
    pub violation: Option<InvariantViolation>,
}

/// The failure-domain tree of the paper cluster (4 racks × 14 Pis), as
/// the schedule generator sees it. Topology is structural, so every seed
/// shares the same tree.
pub fn domain_tree() -> DomainTree {
    let cloud = PiCloud::builder().seed(0).build();
    DomainTree::from_topology(cloud.topology())
}

/// The stock chaos target: the E17 control loop as shipped.
pub fn chaos_config_e17() -> RecoveryConfig {
    RecoveryConfig::lan_default()
}

/// The oversubscribed target: a fleet packed four-deep per Pi with 2×
/// CPU overcommit, so correlated failures actually contend for capacity
/// and the park/retry path runs hot.
pub fn chaos_config_oversub() -> RecoveryConfig {
    RecoveryConfig {
        containers_per_node: 4,
        cpu_overcommit: 2.0,
        ..RecoveryConfig::lan_default()
    }
}

/// Runs one schedule against the recovery stack with the invariant
/// registry armed. Deterministic: same config, schedule and sabotage →
/// the same outcome, violation included.
pub fn run_chaos_schedule(
    config: &RecoveryConfig,
    schedule: &ChaosSchedule,
    sabotage: Sabotage,
) -> ChaosOutcome {
    let (report, violation) = run_recovery_chaos(
        config,
        &schedule.timeline,
        schedule.horizon,
        schedule.seed,
        ChaosMode {
            sabotage,
            heals_all: schedule.heals_all,
        },
    );
    ChaosOutcome {
        seed: schedule.seed,
        events: schedule.timeline.len(),
        report,
        violation,
    }
}

/// Draws and runs `count` schedules (seeds `base_seed..base_seed+count`)
/// over the cluster's domain tree, interleaving the gossip-tombstone,
/// flow-conservation and max–min certificate checks so each batch covers
/// all three planes.
pub fn run_chaos(
    config: &RecoveryConfig,
    profile: &ChaosProfile,
    base_seed: u64,
    count: usize,
    sabotage: Sabotage,
) -> Vec<ChaosOutcome> {
    let tree = domain_tree();
    (0..count as u64)
        .map(|i| {
            let seed = base_seed + i;
            let schedule = ChaosSchedule::generate(seed, &tree, profile);
            let mut outcome = run_chaos_schedule(config, &schedule, sabotage);
            if outcome.violation.is_none() {
                outcome.violation = gossip_tombstone_check(seed);
            }
            if outcome.violation.is_none() {
                outcome.violation = flow_conservation_check(seed);
            }
            if outcome.violation.is_none() {
                outcome.violation = max_min_certificate_check(seed);
            }
            outcome
        })
        .collect()
}

/// Delta-debugs a violating schedule down to a 1-minimal event list that
/// still fires the *same* invariant, and returns it as a schedule ready
/// to serialise. The first violation during a candidate run decides, so
/// dropping heal events cannot smuggle in a different (later) failure.
///
/// # Panics
///
/// Panics if `schedule` does not actually violate anything under
/// `config` + `sabotage` — shrinking a passing schedule is a harness
/// bug, not a recoverable state.
pub fn shrink_schedule(
    config: &RecoveryConfig,
    schedule: &ChaosSchedule,
    sabotage: Sabotage,
) -> (ChaosSchedule, InvariantViolation) {
    let run = |events: &[picloud_faults::FaultEvent]| {
        let timeline = FaultTimeline::scripted(events.to_vec());
        run_recovery_chaos(
            config,
            &timeline,
            schedule.horizon,
            schedule.seed,
            ChaosMode {
                sabotage,
                heals_all: schedule.heals_all,
            },
        )
        .1
    };
    #[expect(
        clippy::expect_used,
        reason = "documented panic — shrinking a passing schedule is a harness bug (see # Panics)"
    )]
    let target = run(schedule.timeline.events())
        .expect("shrink_schedule called on a schedule that does not violate");
    let minimal = shrink(schedule.timeline.events(), |candidate| {
        run(candidate).is_some_and(|v| v.invariant == target.invariant)
    });
    let shrunk = ChaosSchedule {
        seed: schedule.seed,
        horizon: schedule.horizon,
        heals_all: schedule.heals_all,
        timeline: FaultTimeline::scripted(minimal),
    };
    #[expect(
        clippy::expect_used,
        reason = "ddmin only keeps candidates that still violate, so the minimal schedule reproduces by construction"
    )]
    let violation = run(shrunk.timeline.events())
        .expect("the shrunk schedule reproduces the violation by construction");
    (shrunk, violation)
}

/// Replays a serialised schedule. The run is a pure function of the
/// JSON: the violation (or its absence) reproduces bit-for-bit.
///
/// # Errors
///
/// Returns the JSON parse error if `json` is not a serialised
/// [`ChaosSchedule`].
pub fn replay_json(
    config: &RecoveryConfig,
    json: &str,
    sabotage: Sabotage,
) -> Result<ChaosOutcome, serde_json::Error> {
    let schedule = ChaosSchedule::from_json(json)?;
    Ok(run_chaos_schedule(config, &schedule, sabotage))
}

/// Gossip-tombstone invariant: once a failed origin's entry is evicted
/// from a holder's view, it must never reappear there — the freshness
/// tombstone has to win against every re-gossiped stale copy. Runs a
/// 56-node push-gossip network with staleness expiry, kills three waves
/// of nodes, and watches every view for a resurrection.
pub fn gossip_tombstone_check(seed: u64) -> Option<InvariantViolation> {
    use picloud_hardware::node::NodeId;
    const NODES: usize = 56;
    const ROUNDS: u32 = 60;
    let seeds = SeedFactory::new(seed).child("chaos-gossip");
    let mut net = GossipNetwork::new(NODES, 2, &seeds).with_staleness_cutoff(6);
    let mut rng = seeds.stream("kills");
    let mut dead: BTreeSet<NodeId> = BTreeSet::new();
    // Heartbeat each holder last saw for a dead origin while the entry
    // was present, and the value it held when the entry was evicted. A
    // dead origin can only lawfully reappear carrying a *strictly
    // higher* heartbeat (a fresher pre-death copy still circulating);
    // an equal-or-older copy coming back is a resurrection.
    let mut last_hb: BTreeMap<(usize, NodeId), u64> = BTreeMap::new();
    let mut tombstone_hb: BTreeMap<(usize, NodeId), u64> = BTreeMap::new();
    for round in 1..=ROUNDS {
        if round % 15 == 0 && dead.len() + 3 < NODES {
            for _ in 0..3 {
                let victim = NodeId(rng.gen_range(0..NODES as u32));
                net.fail_node(victim);
                dead.insert(victim);
            }
        }
        net.step();
        for holder in 0..NODES {
            let view = net.view_of(NodeId(holder as u32));
            for &origin in &dead {
                let key = (holder, origin);
                match view.get(&origin) {
                    Some(summary) => {
                        if let Some(&evicted_hb) = tombstone_hb.get(&key) {
                            if summary.heartbeat <= evicted_hb {
                                return Some(InvariantViolation {
                                    invariant: "gossip-tombstone-resurrection".to_owned(),
                                    at: SimTime::from_secs(u64::from(round)),
                                    detail: format!(
                                        "dead origin {origin} resurrected in node {holder}'s \
                                         view at round {round}: heartbeat {} does not beat \
                                         the tombstone at {evicted_hb}",
                                        summary.heartbeat
                                    ),
                                });
                            }
                            tombstone_hb.remove(&key);
                        }
                        last_hb.insert(key, summary.heartbeat);
                    }
                    None => {
                        if let Some(hb) = last_hb.remove(&key) {
                            tombstone_hb.insert(key, hb);
                        }
                    }
                }
            }
        }
    }
    None
}

/// Flow-fabric byte-conservation invariant: every byte a flow carries is
/// accounted on every link of its path — no more, no less — including
/// flows cancelled mid-transfer. Injects a seeded burst of host-to-host
/// flows over the paper fabric, cancels a few midway, runs the rest to
/// completion and reconciles per-link carried bytes against the
/// path-wise expectation.
pub fn flow_conservation_check(seed: u64) -> Option<InvariantViolation> {
    const FLOWS: usize = 24;
    let cloud = PiCloud::builder().seed(0).build();
    let topo = cloud.topology().clone();
    let hosts: Vec<_> = topo.hosts().map(|d| d.id).collect();
    let mut sim = FlowSimulator::new(
        topo.clone(),
        RoutingPolicy::SingleShortest,
        RateAllocator::MaxMin,
    );
    let mut rng = SeedFactory::new(seed).stream("chaos-flows");
    let none = BTreeSet::new();
    let mut expected: BTreeMap<LinkId, f64> = BTreeMap::new();
    let mut injected = Vec::new();
    for i in 0..FLOWS {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = loop {
            let d = hosts[rng.gen_range(0..hosts.len())];
            if d != src {
                break d;
            }
        };
        let size = Bytes::mib(rng.gen_range(1..8));
        let at = SimTime::ZERO + SimDuration::from_millis(i as u64 * 50);
        let spec = FlowSpec::new(src, dst, size);
        let Ok(id) = sim.inject(spec, at) else {
            continue;
        };
        let path = shortest_path_avoiding(&topo, src, dst, &none).unwrap_or_default();
        injected.push((id, size, path));
    }
    // Cancel a third of the burst midway and book what each cancelled
    // flow actually moved before it died.
    sim.advance_to(SimTime::from_secs(2));
    for (id, size, path) in injected.iter().step_by(3) {
        if let Some(gone) = sim.cancel(*id) {
            let carried = size.as_u64() as f64 - gone.remaining_bits / 8.0;
            for link in path {
                *expected.entry(*link).or_insert(0.0) += carried;
            }
        }
    }
    let end = sim.run_to_completion();
    for (id, size, path) in &injected {
        if sim.completed().iter().any(|c| c.id == *id) {
            for link in path {
                *expected.entry(*link).or_insert(0.0) += size.as_u64() as f64;
            }
        }
    }
    for l in topo.links() {
        let want = expected.get(&l.id).copied().unwrap_or(0.0);
        let got = sim.link_bytes_carried(l.id);
        // Tolerate float drift proportional to the volume moved.
        let tol = 1.0 + want * 1e-9;
        if (got - want).abs() > tol {
            return Some(InvariantViolation {
                invariant: "flow-byte-conservation".to_owned(),
                at: end,
                detail: format!(
                    "link {} carried {got:.0} B, path accounting expects {want:.0} B",
                    l.id.0
                ),
            });
        }
    }
    None
}

/// Checks the max–min certificate (Bertsekas & Gallager, *Data
/// Networks*, §6.5) on one rate allocation over `topo`: an allocation is
/// max–min fair iff it is feasible and every flow crosses a saturated
/// resource on which its rate is the largest. `rates` holds each active
/// flow's id and rate, as [`FlowSimulator::active_rates`] reports them,
/// and `paths[id]` flow `id`'s source and links; each direction of a
/// link is its own resource. The check reads only rates, capacities and
/// paths, so it shares nothing with the water-fill that computed them.
///
/// # Errors
///
/// Names the first flow without a path, the first resource carrying
/// more than its capacity, or the first flow without such a bottleneck.
pub fn certify_max_min(
    topo: &Topology,
    rates: &[(FlowId, f64)],
    paths: &[(DeviceId, Vec<LinkId>)],
) -> Result<(), String> {
    const TOL: f64 = 1e-9;
    let capacity: Vec<f64> = topo
        .links()
        .iter()
        .flat_map(|l| [l.capacity.as_bps() as f64; 2])
        .collect();
    // Link `l` forward (from its `a` end) is resource `2l`, backward `2l + 1`.
    let flows = rates
        .iter()
        .map(|&(id, rate)| {
            let (src, links) = paths
                .get(id.0 as usize)
                .ok_or_else(|| format!("{id:?} has no recorded path"))?;
            let mut cur = *src;
            let resources: Vec<usize> = links
                .iter()
                .map(|&lid| {
                    let link = topo.link(lid);
                    let r = lid.index() * 2 + usize::from(cur != link.a);
                    cur = link.other_end(cur);
                    r
                })
                .collect();
            Ok((id, rate, resources))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut used = vec![0.0f64; capacity.len()];
    let mut top_rate = vec![0.0f64; capacity.len()];
    for (_, rate, resources) in &flows {
        for &r in resources {
            used[r] += rate;
            top_rate[r] = top_rate[r].max(*rate);
        }
    }
    for (r, (&u, &c)) in used.iter().zip(&capacity).enumerate() {
        if u > c * (1.0 + TOL) {
            return Err(format!("resource {r} carries {u} bit/s of {c}"));
        }
    }
    for (id, rate, resources) in &flows {
        let bottlenecked = resources
            .iter()
            .any(|&r| used[r] >= capacity[r] * (1.0 - TOL) && *rate >= top_rate[r] * (1.0 - TOL));
        if !bottlenecked {
            return Err(format!(
                "{id:?} at {rate} bit/s has no saturated resource on which its rate is the largest"
            ));
        }
    }
    Ok(())
}

/// Max–min certificate invariant: a seeded churn over the paper fabric
/// — 40 rounds 20 ms apart, each a burst of one to four flows, every
/// third also cancelling a random active flow — checked with
/// [`certify_max_min`] after every advance, burst and cancel. The paths
/// it certifies come from a separate [`Router`] with the simulator's
/// policy, so the check shares nothing with the solver's region walk or
/// water-fill.
fn max_min_certificate_check(seed: u64) -> Option<InvariantViolation> {
    const ROUNDS: u64 = 40;
    let cloud = PiCloud::builder().seed(0).build();
    let topo = cloud.topology().clone();
    let hosts: Vec<_> = topo.hosts().map(|d| d.id).collect();
    let policy = RoutingPolicy::default();
    let mut sim = FlowSimulator::new(topo.clone(), policy, RateAllocator::MaxMin);
    let mut router = Router::new(policy);
    let mut paths: Vec<(DeviceId, Vec<LinkId>)> = Vec::new();
    let mut rng = SeedFactory::new(seed).stream("chaos-max-min");
    let certify = |sim: &FlowSimulator, paths: &[(DeviceId, Vec<LinkId>)], after: &str| {
        certify_max_min(&topo, &sim.active_rates(), paths)
            .err()
            .map(|detail| InvariantViolation {
                invariant: "max-min-certificate".to_owned(),
                at: sim.now(),
                detail: format!("after {after}: {detail}"),
            })
    };
    for round in 0..ROUNDS {
        let at = SimTime::ZERO + SimDuration::from_millis(round * 20);
        sim.advance_to(at);
        if let Some(v) = certify(&sim, &paths, "an advance") {
            return Some(v);
        }
        let burst: Vec<FlowSpec> = (0..rng.gen_range(1..=4))
            .map(|_| {
                let src = hosts[rng.gen_range(0..hosts.len())];
                let dst = hosts[rng.gen_range(0..hosts.len())];
                FlowSpec::new(src, dst, Bytes::kib(rng.gen_range(64..4096)))
            })
            .collect();
        let Ok(ids) = sim.inject_batch(burst.clone(), at) else {
            continue;
        };
        // Ids are issued in order from zero, so `paths[id]` is flow `id`.
        for (spec, id) in burst.iter().zip(ids) {
            let links = router
                .route(&topo, spec.src, spec.dst, id)
                .map_or_else(Vec::new, |p| router.path(p).to_vec());
            paths.push((spec.src, links));
        }
        if let Some(v) = certify(&sim, &paths, "a burst") {
            return Some(v);
        }
        if round % 3 != 2 {
            continue;
        }
        let live = sim.active_rates();
        if !live.is_empty() {
            sim.cancel(live[rng.gen_range(0..live.len())].0);
            if let Some(v) = certify(&sim, &paths, "a cancel") {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_controller_survives_a_standard_schedule() {
        let tree = domain_tree();
        let schedule = ChaosSchedule::generate(1, &tree, &ChaosProfile::standard());
        assert!(schedule.timeline.domain_event_count() + schedule.timeline.gray_event_count() > 0);
        let outcome = run_chaos_schedule(&chaos_config_e17(), &schedule, Sabotage::None);
        assert_eq!(outcome.violation, None, "{:?}", outcome.violation);
        assert_eq!(outcome.report.unplaced_at_end, 0);
    }

    #[test]
    fn chaos_outcomes_are_deterministic() {
        let tree = domain_tree();
        let schedule = ChaosSchedule::generate(5, &tree, &ChaosProfile::standard());
        let a = run_chaos_schedule(&chaos_config_e17(), &schedule, Sabotage::None);
        let b = run_chaos_schedule(&chaos_config_e17(), &schedule, Sabotage::None);
        assert_eq!(a, b);
    }

    #[test]
    fn gossip_and_flow_checks_hold_on_stock_implementations() {
        for seed in 0..4 {
            assert_eq!(gossip_tombstone_check(seed), None);
            assert_eq!(flow_conservation_check(seed), None);
            assert_eq!(max_min_certificate_check(seed), None);
        }
    }

    #[test]
    fn the_certificate_rejects_an_unfair_allocation() {
        // Two flows out of one host split its access link evenly; a rate
        // below its fair share leaves that flow without a saturated
        // bottleneck, and one above it overfills the link.
        let cloud = PiCloud::builder().seed(0).build();
        let topo = cloud.topology().clone();
        let hosts: Vec<_> = topo.hosts().map(|d| d.id).collect();
        let policy = RoutingPolicy::default();
        let mut sim = FlowSimulator::new(topo.clone(), policy, RateAllocator::MaxMin);
        let mut router = Router::new(policy);
        let specs = vec![
            FlowSpec::new(hosts[0], hosts[1], Bytes::mib(1)),
            FlowSpec::new(hosts[0], hosts[30], Bytes::mib(1)),
        ];
        let ids = sim.inject_batch(specs.clone(), SimTime::ZERO).unwrap();
        let paths: Vec<_> = specs
            .iter()
            .zip(ids)
            .map(|(spec, id)| {
                let p = router.route(&topo, spec.src, spec.dst, id).unwrap();
                (spec.src, router.path(p).to_vec())
            })
            .collect();
        let rates = sim.active_rates();
        assert_eq!(certify_max_min(&topo, &rates, &paths), Ok(()));
        for factor in [0.5, 1.5] {
            let mut skewed = rates.clone();
            skewed[1].1 *= factor;
            assert!(certify_max_min(&topo, &skewed, &paths).is_err(), "{factor}");
        }
        assert!(certify_max_min(&topo, &rates, &paths[..1]).is_err());
    }
}
