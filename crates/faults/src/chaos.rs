//! The deterministic chaos harness: adversarial schedules, invariant
//! violations, and delta-debugging shrink.
//!
//! This is the FoundationDB-style simulation-testing loop the
//! deterministic engine was built for: a seeded scheduler draws an
//! adversarial [`FaultTimeline`] over a [`DomainTree`] — independent
//! crashes and hangs, correlated rack/ToR/partition events, gray faults —
//! a runner (e.g. `picloud::chaos`) executes any experiment under it
//! while checking a registry of safety invariants, and on violation
//! [`shrink`] reduces the schedule delta-debugging-style to a minimal
//! reproducing event list. A [`ChaosSchedule`] serialises to JSON, so a
//! shrunk failure replays bit-for-bit anywhere.
//!
//! Everything here is a pure function of its inputs: same seed, same
//! profile, same tree → byte-identical schedule; same schedule, same
//! runner → the same violation (or none).

use crate::domain::DomainTree;
use crate::timeline::{FaultEvent, FaultKind, FaultTimeline};
use picloud_simcore::{SeedFactory, SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Tuning for the adversarial schedule generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// Observation horizon the schedule targets.
    pub horizon: SimDuration,
    /// Fault/heal pairs the generator attempts to place (overlapping
    /// draws on the same victim are discarded, so the schedule may hold
    /// fewer).
    pub pairs: usize,
    /// Force every fault to heal no later than `horizon − heal_slack`, so
    /// recovery has room to converge before the end of the run.
    pub heal_all: bool,
    /// Quiet tail reserved after the last heal when `heal_all` is set.
    pub heal_slack: SimDuration,
    /// Longest outage the generator draws.
    pub max_outage: SimDuration,
}

impl ChaosProfile {
    /// The stock adversary: a 10-minute horizon, a dozen fault pairs, a
    /// 2-minute convergence tail, outages up to 90 s — dense enough that
    /// rack events, partitions and gray faults overlap independent
    /// crashes, short enough that a schedule runs in well under a second.
    pub fn standard() -> Self {
        ChaosProfile {
            horizon: SimDuration::from_secs(600),
            pairs: 12,
            heal_all: true,
            heal_slack: SimDuration::from_secs(120),
            max_outage: SimDuration::from_secs(90),
        }
    }
}

/// A generated chaos schedule, ready to run, serialise, or shrink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// The seed the schedule was drawn from.
    pub seed: u64,
    /// The horizon it targets.
    pub horizon: SimDuration,
    /// Whether every fault heals before the horizon (with slack).
    pub heals_all: bool,
    /// The event list.
    pub timeline: FaultTimeline,
}

/// The fault classes the generator draws from, one arm per draw.
const CLASSES: u32 = 8;

impl ChaosSchedule {
    /// Draws a schedule for `seed` over `tree` under `profile`.
    ///
    /// Each draw picks a fault class (crash, hang, rack power, ToR,
    /// partition, SD degradation, lossy access link, slow node), a victim
    /// from the tree, a start instant and an outage length, then the
    /// draws are laid out in start order with overlapping claims on the
    /// same victim discarded — so every fault/heal pair alternates
    /// cleanly and shrinking can drop pairs independently.
    pub fn generate(seed: u64, tree: &DomainTree, profile: &ChaosProfile) -> Self {
        let mut rng = SeedFactory::new(seed).stream("chaos/schedule");
        let nodes = tree.nodes();
        let end = SimTime::ZERO + profile.horizon;
        let latest_heal = if profile.heal_all {
            end.saturating_duration_since(SimTime::ZERO)
                .saturating_sub(profile.heal_slack)
        } else {
            end.saturating_duration_since(SimTime::ZERO)
        };
        let latest_heal_at = SimTime::ZERO + latest_heal;
        let rack_bits = tree.rack_count().min(16) as u32;

        // (start, order, victim key, fault, heal-or-none, heal instant)
        type Draw = (
            SimTime,
            usize,
            (u32, u32),
            FaultKind,
            Option<FaultKind>,
            SimTime,
        );
        let mut draws: Vec<Draw> = Vec::new();
        for order in 0..profile.pairs {
            let start_ns = rng.gen_range(1_000_000_000..latest_heal.as_nanos().max(2_000_000_000));
            let start = SimTime::ZERO + SimDuration::from_nanos(start_ns);
            let outage = SimDuration::from_nanos(
                rng.gen_range(5_000_000_000..=profile.max_outage.as_nanos().max(5_000_000_001)),
            );
            let heal_at = (start + outage).min(latest_heal_at);
            if heal_at <= start {
                continue;
            }
            let lasting = heal_at.saturating_duration_since(start);
            let class = rng.gen_range(0..CLASSES);
            let (key, fault, heal) = match class {
                0 => {
                    let node = nodes[rng.gen_range(0..nodes.len())];
                    (
                        (0, node.0),
                        FaultKind::NodeCrash { node },
                        Some(FaultKind::NodeRepair { node }),
                    )
                }
                1 => {
                    let node = nodes[rng.gen_range(0..nodes.len())];
                    ((0, node.0), FaultKind::DaemonHang { node, lasting }, None)
                }
                2 => {
                    let rack = tree.racks()[rng.gen_range(0..tree.rack_count())].rack;
                    (
                        (1, u32::from(rack)),
                        FaultKind::RackPowerLoss { rack },
                        Some(FaultKind::RackPowerRestore { rack }),
                    )
                }
                3 => {
                    let rack = tree.racks()[rng.gen_range(0..tree.rack_count())].rack;
                    (
                        (2, u32::from(rack)),
                        FaultKind::TorSwitchDown { rack },
                        Some(FaultKind::TorSwitchUp { rack }),
                    )
                }
                4 if rack_bits >= 2 => {
                    let rack_mask = rng.gen_range(1..(1u32 << rack_bits) - 1) as u16;
                    (
                        (3, 0),
                        FaultKind::PartialPartition { rack_mask },
                        Some(FaultKind::PartitionHeal { rack_mask }),
                    )
                }
                5 => {
                    let node = nodes[rng.gen_range(0..nodes.len())];
                    let permille = rng.gen_range(100..400);
                    (
                        (4, node.0),
                        FaultKind::SdCardDegraded { node, permille },
                        Some(FaultKind::SdCardHealed { node }),
                    )
                }
                6 => {
                    let node = nodes[rng.gen_range(0..nodes.len())];
                    let Some(link) = tree.access_link(node) else {
                        continue;
                    };
                    let loss_permille = rng.gen_range(100..500);
                    (
                        (5, node.0),
                        FaultKind::LossyLink {
                            link,
                            loss_permille,
                        },
                        Some(FaultKind::LossyLinkHealed { link }),
                    )
                }
                _ => {
                    let node = nodes[rng.gen_range(0..nodes.len())];
                    let permille = rng.gen_range(300..700);
                    (
                        (6, node.0),
                        FaultKind::SlowNode { node, permille },
                        Some(FaultKind::SlowNodeHealed { node }),
                    )
                }
            };
            draws.push((start, order, key, fault, heal, heal_at));
        }
        draws.sort_by_key(|&(start, order, ..)| (start, order));

        // Lay out non-overlapping claims per victim: a draw starting
        // inside an earlier claim on the same (class, victim) is dropped,
        // so every fault/heal pair alternates cleanly per victim.
        let mut busy_until: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
        let mut timeline = FaultTimeline::new();
        for (start, _, key, fault, heal, heal_at) in draws {
            if busy_until.get(&key).is_some_and(|&until| start < until) {
                continue;
            }
            busy_until.insert(key, heal_at);
            timeline.push(start, fault);
            if let Some(heal_kind) = heal {
                timeline.push(heal_at, heal_kind);
            }
        }
        ChaosSchedule {
            seed,
            horizon: profile.horizon,
            heals_all: profile.heal_all,
            timeline,
        }
    }

    /// Serialises the schedule to pretty JSON — the replay artifact a
    /// failing chaos run writes to disk.
    ///
    /// # Panics
    ///
    /// Panics if serde fails, which for this plain-data type means a bug.
    #[expect(
        clippy::expect_used,
        reason = "serialising plain data cannot fail; a panic here is a serde shim bug"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("chaos schedule serialises")
    }

    /// Rebuilds a schedule from its JSON artifact.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl fmt::Display for ChaosSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos schedule seed={} horizon={} ({} events, {} domain-level, {} gray)",
            self.seed,
            self.horizon,
            self.timeline.len(),
            self.timeline.domain_event_count(),
            self.timeline.gray_event_count(),
        )
    }
}

/// One safety-invariant violation, as the chaos runner reports it.
/// Serialisable so the shrunk artifact carries the expected violation
/// alongside the minimal schedule for bit-for-bit replay checks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvariantViolation {
    /// Registry name of the violated invariant.
    pub invariant: String,
    /// Sim-time instant the check failed.
    pub at: SimTime,
    /// Human-readable specifics (victims, counts).
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} at {}", self.invariant, self.detail, self.at)
    }
}

/// Shrinks a failing event list to a locally minimal one, ddmin-style.
///
/// `still_fails` must return `true` when the candidate schedule still
/// reproduces the violation; it is called many times and must be
/// deterministic. The result is 1-minimal: removing any single remaining
/// event no longer reproduces.
///
/// The caller seeds this with a full failing schedule, so `still_fails`
/// is true for the input; if it is not, the input is returned unchanged.
pub fn shrink<F>(events: &[FaultEvent], mut still_fails: F) -> Vec<FaultEvent>
where
    F: FnMut(&[FaultEvent]) -> bool,
{
    let mut current: Vec<FaultEvent> = events.to_vec();
    if current.is_empty() || !still_fails(&current) {
        return current;
    }
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let stop = (start + chunk).min(current.len());
            let candidate: Vec<FaultEvent> = current[..start]
                .iter()
                .chain(&current[stop..])
                .copied()
                .collect();
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = stop;
        }
        if !reduced {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use picloud_network::topology::Topology;

    fn tree() -> DomainTree {
        DomainTree::from_topology(&Topology::multi_root_tree(4, 14, 2))
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let t = tree();
        let p = ChaosProfile::standard();
        assert_eq!(
            ChaosSchedule::generate(7, &t, &p),
            ChaosSchedule::generate(7, &t, &p)
        );
        assert_ne!(
            ChaosSchedule::generate(7, &t, &p),
            ChaosSchedule::generate(8, &t, &p)
        );
    }

    #[test]
    fn heal_all_schedules_heal_inside_the_horizon() {
        let t = tree();
        let p = ChaosProfile::standard();
        for seed in 0..20 {
            let s = ChaosSchedule::generate(seed, &t, &p);
            let latest = SimTime::ZERO + (p.horizon.saturating_sub(p.heal_slack));
            assert!(
                s.timeline.horizon() <= latest,
                "seed {seed}: {} > {latest}",
                s.timeline.horizon()
            );
        }
    }

    #[test]
    fn schedules_cover_domain_and_gray_classes() {
        let t = tree();
        let p = ChaosProfile {
            pairs: 64,
            ..ChaosProfile::standard()
        };
        let (mut domain, mut gray, mut partition) = (0, 0, 0);
        for seed in 0..10 {
            let s = ChaosSchedule::generate(seed, &t, &p);
            domain += s.timeline.domain_event_count();
            gray += s.timeline.gray_event_count();
            partition += s
                .timeline
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::PartialPartition { .. }))
                .count();
        }
        assert!(domain > 0, "rack/ToR/partition events must appear");
        assert!(gray > 0, "gray faults must appear");
        assert!(partition > 0, "partial partitions must appear");
    }

    #[test]
    fn per_victim_claims_do_not_overlap() {
        let t = tree();
        let p = ChaosProfile {
            pairs: 96,
            ..ChaosProfile::standard()
        };
        let s = ChaosSchedule::generate(3, &t, &p);
        // Crash/repair alternation per node (same guarantee churn gives).
        for node in t.nodes() {
            let mut down = false;
            for e in s.timeline.events() {
                match e.kind {
                    FaultKind::NodeCrash { node: n } if n == node => {
                        assert!(!down, "double crash on {node}");
                        down = true;
                    }
                    FaultKind::NodeRepair { node: n } if n == node => {
                        down = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn json_round_trips_bit_for_bit() {
        let s = ChaosSchedule::generate(11, &tree(), &ChaosProfile::standard());
        let back = ChaosSchedule::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn shrink_finds_the_single_culprit() {
        use picloud_hardware::node::NodeId;
        let s = ChaosSchedule::generate(5, &tree(), &ChaosProfile::standard());
        // Plant a "bug" that fires iff node 3 ever crashes.
        let mut events = s.timeline.events().to_vec();
        events.push(FaultEvent {
            at: SimTime::from_secs(42),
            kind: FaultKind::NodeCrash { node: NodeId(3) },
        });
        let fails = |es: &[FaultEvent]| {
            es.iter()
                .any(|e| matches!(e.kind, FaultKind::NodeCrash { node: NodeId(3) }))
        };
        let minimal = shrink(&events, fails);
        assert_eq!(minimal.len(), 1, "exactly the culprit survives");
        assert!(fails(&minimal));
    }

    #[test]
    fn shrink_of_a_passing_schedule_is_identity() {
        let s = ChaosSchedule::generate(5, &tree(), &ChaosProfile::standard());
        let events = s.timeline.events().to_vec();
        assert_eq!(shrink(&events, |_| false), events);
    }

    #[test]
    fn shrink_is_one_minimal_for_conjunctions() {
        // Violation needs BOTH a rack power loss AND a partition.
        let s = ChaosSchedule::generate(
            9,
            &tree(),
            &ChaosProfile {
                pairs: 64,
                ..ChaosProfile::standard()
            },
        );
        let mut events = s.timeline.events().to_vec();
        events.push(FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::RackPowerLoss { rack: 0 },
        });
        events.push(FaultEvent {
            at: SimTime::from_secs(2),
            kind: FaultKind::PartialPartition { rack_mask: 0b10 },
        });
        events.sort_by_key(|e| e.at);
        let fails = |es: &[FaultEvent]| {
            es.iter()
                .any(|e| matches!(e.kind, FaultKind::RackPowerLoss { .. }))
                && es
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::PartialPartition { .. }))
        };
        let minimal = shrink(&events, fails);
        assert!(fails(&minimal));
        for i in 0..minimal.len() {
            let mut without: Vec<FaultEvent> = minimal.clone();
            without.remove(i);
            assert!(!fails(&without), "not 1-minimal: event {i} removable");
        }
    }
}
