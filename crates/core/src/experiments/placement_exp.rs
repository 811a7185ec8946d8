//! **E5 — placement & consolidation, cross-layer** (§III/§IV).
//!
//! The experiment the paper's "ripple effect" paragraph asks for: place a
//! batch of container requests under each policy, then consolidate, then
//! *realise the resulting migrations as flows on the fabric* and watch the
//! aggregation layer. Consolidation's power saving and its congestion cost
//! appear in the same table.

use crate::report::TextTable;
use picloud_network::flow::FlowSpec;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{DeviceId, DeviceKind, Topology};
use picloud_placement::cluster::{ClusterView, PlacementRequest};
use picloud_placement::consolidate::Consolidator;
use picloud_placement::scheduler::{place_all, PolicyKind};
use picloud_simcore::units::Bytes;
use picloud_simcore::SimTime;
use std::collections::BTreeSet;
use std::fmt;

/// How one policy placed the request batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// The policy.
    pub policy: PolicyKind,
    /// Requests placed (all, unless capacity ran out).
    pub placed: usize,
    /// Nodes hosting at least one placement.
    pub nodes_used: usize,
    /// Racks hosting at least one placement.
    pub racks_used: usize,
    /// Mean number of distinct racks each service group spans (lower =
    /// less cross-rack chatter).
    pub mean_group_rack_spread: f64,
}

/// What consolidating that placement cost and saved.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationOutcome {
    /// The policy that produced the initial placement.
    pub policy: PolicyKind,
    /// Nodes powered off.
    pub nodes_freed: usize,
    /// Migrations performed.
    pub moves: usize,
    /// Migrations that crossed racks.
    pub cross_rack_moves: usize,
    /// RAM bytes moved.
    pub migration_bytes: Bytes,
    /// Idle watts saved.
    pub power_saved_watts: f64,
    /// Wall-clock seconds the migration traffic needed on the fabric.
    pub migration_makespan_secs: f64,
    /// Peak mean utilisation seen on any ToR-aggregation uplink during the
    /// migrations — the congestion side-effect.
    pub peak_uplink_utilisation: f64,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementExperiment {
    /// Requests in the batch.
    pub requests: usize,
    /// Placement quality per policy.
    pub placement: Vec<PolicyOutcome>,
    /// Consolidation ledger per policy.
    pub consolidation: Vec<ConsolidationOutcome>,
}

impl PlacementExperiment {
    /// Runs the sweep: `n_requests` 30 MB / 50 MHz requests in
    /// `n_groups` service groups on the paper's 56-node cluster, every
    /// policy, then a default consolidation pass realised on the fabric.
    ///
    /// The sweep is about policy differences, not admission control: a
    /// batch beyond the cluster's capacity is scored on the requests
    /// placed before the first refusal (`placed` counts them).
    ///
    /// # Panics
    ///
    /// Panics if `n_groups` is zero.
    pub fn run(seed: u64, n_requests: usize, n_groups: u32) -> PlacementExperiment {
        assert!(n_groups > 0, "need at least one service group");
        let requests: Vec<PlacementRequest> = (0..n_requests)
            .map(|i| PlacementRequest::new(Bytes::mib(30), 50e6).with_group(i as u32 % n_groups))
            .collect();
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();

        let mut placement = Vec::new();
        let mut consolidation = Vec::new();
        for kind in PolicyKind::all() {
            let mut view = ClusterView::picloud_default();
            let mut policy = kind.build(seed);
            let _ = place_all(&mut view, &mut *policy, &requests);
            placement.push(Self::score_placement(kind, &view, n_groups));

            // Consolidate and realise the migrations on the fabric.
            let plan = Consolidator::default().plan(&mut view);
            let mut sim = FlowSimulator::new(
                topo.clone(),
                RoutingPolicy::default(),
                RateAllocator::MaxMin,
            );
            let migrations: Vec<FlowSpec> = plan
                .moves
                .iter()
                .map(|m| {
                    FlowSpec::new(hosts[m.from.index()], hosts[m.to.index()], m.ram)
                        .with_tag("migration")
                })
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "migration endpoints are hosts of the connected builder topology"
            )]
            sim.inject_batch(migrations, SimTime::ZERO)
                .expect("cluster fabric is connected");
            let end = if plan.moves.is_empty() {
                SimTime::ZERO
            } else {
                sim.run_to_completion()
            };
            let peak_uplink = topo
                .links()
                .iter()
                .filter(|l| {
                    let a = &topo.device(l.a).kind;
                    let b = &topo.device(l.b).kind;
                    matches!(
                        (a, b),
                        (DeviceKind::TopOfRack { .. }, DeviceKind::Aggregation)
                            | (DeviceKind::Aggregation, DeviceKind::TopOfRack { .. })
                    )
                })
                .map(|l| sim.mean_link_utilisation(l.id))
                .fold(0.0f64, f64::max);
            let idle = ClusterView::picloud_default()
                .node(picloud_hardware::node::NodeId(0))
                .ram_capacity; // placeholder to avoid unused warnings? no-op
            let _ = idle;
            consolidation.push(ConsolidationOutcome {
                policy: kind,
                nodes_freed: plan.nodes_freed.len(),
                moves: plan.moves.len(),
                cross_rack_moves: plan.cross_rack_moves(),
                migration_bytes: plan.migration_bytes(),
                power_saved_watts: plan
                    .power_saved(picloud_hardware::power::PowerModel::raspberry_pi(3.5).idle())
                    .as_watts(),
                migration_makespan_secs: end.as_secs_f64(),
                peak_uplink_utilisation: peak_uplink,
            });
        }
        PlacementExperiment {
            requests: n_requests,
            placement,
            consolidation,
        }
    }

    fn score_placement(kind: PolicyKind, view: &ClusterView, n_groups: u32) -> PolicyOutcome {
        let nodes_used: BTreeSet<_> = view.placements().map(|(_, n, _)| n).collect();
        let racks_used: BTreeSet<u16> = nodes_used.iter().map(|n| view.node(*n).rack).collect();
        let mut spread_sum = 0.0;
        for g in 0..n_groups {
            let racks: BTreeSet<u16> = view
                .nodes_hosting_group(g)
                .into_iter()
                .map(|n| view.node(n).rack)
                .collect();
            spread_sum += racks.len() as f64;
        }
        PolicyOutcome {
            policy: kind,
            placed: view.placement_count(),
            nodes_used: nodes_used.len(),
            racks_used: racks_used.len(),
            mean_group_rack_spread: spread_sum / f64::from(n_groups),
        }
    }

    /// The default configuration used by the bench harness.
    pub fn paper_scale() -> PlacementExperiment {
        PlacementExperiment::run(2013, 150, 20)
    }

    /// Looks up a policy's consolidation row.
    pub fn consolidation_for(&self, kind: PolicyKind) -> Option<&ConsolidationOutcome> {
        self.consolidation.iter().find(|c| c.policy == kind)
    }

    /// Looks up a policy's placement row.
    pub fn placement_for(&self, kind: PolicyKind) -> Option<&PolicyOutcome> {
        self.placement.iter().find(|c| c.policy == kind)
    }
}

impl fmt::Display for PlacementExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E5: placement of {} requests, then consolidation",
            self.requests
        )?;
        let mut t = TextTable::new(vec![
            "policy".into(),
            "nodes used".into(),
            "racks".into(),
            "group rack-spread".into(),
        ]);
        for p in &self.placement {
            t.row(vec![
                p.policy.to_string(),
                p.nodes_used.to_string(),
                p.racks_used.to_string(),
                format!("{:.2}", p.mean_group_rack_spread),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "Consolidation ledger (power saved vs congestion caused):"
        )?;
        let mut t = TextTable::new(vec![
            "policy".into(),
            "freed".into(),
            "moves".into(),
            "x-rack".into(),
            "bytes".into(),
            "saved".into(),
            "makespan".into(),
            "peak uplink".into(),
        ]);
        for c in &self.consolidation {
            t.row(vec![
                c.policy.to_string(),
                c.nodes_freed.to_string(),
                c.moves.to_string(),
                c.cross_rack_moves.to_string(),
                c.migration_bytes.to_string(),
                format!("{:.1}W", c.power_saved_watts),
                format!("{:.2}s", c.migration_makespan_secs),
                format!("{:.0}%", c.peak_uplink_utilisation * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> PlacementExperiment {
        PlacementExperiment::paper_scale()
    }

    #[test]
    fn every_policy_places_the_whole_batch() {
        let e = exp();
        assert!(e.placement.iter().all(|p| p.placed == 150));
        assert_eq!(e.placement.len(), 5);
        assert_eq!(e.consolidation.len(), 5);
    }

    #[test]
    fn first_fit_packs_worst_fit_spreads() {
        let e = exp();
        let ff = e.placement_for(PolicyKind::FirstFit).unwrap();
        let wf = e.placement_for(PolicyKind::WorstFit).unwrap();
        assert!(
            ff.nodes_used < wf.nodes_used,
            "first-fit {} vs worst-fit {}",
            ff.nodes_used,
            wf.nodes_used
        );
        // 150 x 30MB / (6 per node) = 25 nodes minimum.
        assert_eq!(ff.nodes_used, 25);
        assert_eq!(wf.nodes_used, 56);
    }

    #[test]
    fn network_aware_keeps_groups_tight() {
        let e = exp();
        let na = e.placement_for(PolicyKind::NetworkAware).unwrap();
        let rnd = e.placement_for(PolicyKind::Random).unwrap();
        assert!(
            na.mean_group_rack_spread < rnd.mean_group_rack_spread,
            "network-aware {:.2} vs random {:.2}",
            na.mean_group_rack_spread,
            rnd.mean_group_rack_spread
        );
        // 150 placements overflow rack 0 (84 slots) into rack 1, so each
        // group spans at most two racks under the affinity policy.
        assert!(
            na.mean_group_rack_spread <= 2.0 + 1e-9,
            "groups stay within two racks: {:.2}",
            na.mean_group_rack_spread
        );
    }

    #[test]
    fn consolidating_a_spread_placement_costs_more_traffic() {
        let e = exp();
        let ff = e.consolidation_for(PolicyKind::FirstFit).unwrap();
        let wf = e.consolidation_for(PolicyKind::WorstFit).unwrap();
        // First-fit left nothing under-utilised; worst-fit's spread means a
        // big consolidation bill.
        assert!(wf.moves > ff.moves);
        assert!(wf.migration_bytes > ff.migration_bytes);
        assert!(wf.nodes_freed > ff.nodes_freed);
    }

    #[test]
    fn consolidation_saves_power_but_congests_uplinks() {
        let e = exp();
        let wf = e.consolidation_for(PolicyKind::WorstFit).unwrap();
        assert!(wf.power_saved_watts > 0.0);
        assert!(wf.cross_rack_moves > 0, "the ripple effect");
        assert!(wf.migration_makespan_secs > 0.0);
        assert!(wf.peak_uplink_utilisation > 0.0);
    }

    #[test]
    fn determinism_across_runs() {
        let a = PlacementExperiment::run(7, 100, 10);
        let b = PlacementExperiment::run(7, 100, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn display_has_both_ledgers() {
        let s = exp().to_string();
        assert!(s.contains("network-aware"));
        assert!(s.contains("peak uplink"));
    }
}
