//! The chaos-harness runner: seeded adversarial schedules against the
//! full recovery stack, with invariant checking, delta-debugging shrink
//! and bit-for-bit JSON replay.
//!
//! The generator and the invariant vocabulary live in
//! [`picloud_faults::chaos`]; this module supplies the *runner* — the
//! thing that takes a [`ChaosSchedule`], executes the recovery control
//! loop under it with the safety registry armed, and turns the first
//! violation into a minimal reproducing schedule. Two auxiliary checks
//! ride along each batch, covering subsystems the recovery world does
//! not exercise: gossip tombstones must never resurrect, and the flow
//! fabric must conserve bytes.
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
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::graph::shortest_path_avoiding;
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::LinkId;
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
/// over the cluster's domain tree, interleaving the gossip-tombstone and
/// flow-conservation checks so each batch covers all three planes.
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
        let spec = picloud_network::flow::FlowSpec::new(src, dst, size);
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
        }
    }
}
