//! IP-less (flat-label) routing — the §III research direction.
//!
//! "We are researching IP-less routing in order to support more flexible
//! and efficient migration." The problem with IP routing in a DC is that an
//! address encodes location: when a container migrates, every exact-match
//! rule naming its address is wrong and must be flushed, and in-flight
//! connections break. With flat labels the fabric forwards on *identity*:
//! a migration only rewrites the label's next-hop on switches whose
//! next-hop actually changed.
//!
//! [`IplessFabric`] implements both addressing modes over the same switch
//! substrate so experiments can compare migration churn directly.

use crate::controller::{InstallMode, SdnController};
use picloud_network::graph;
use picloud_network::topology::{DeviceId, Topology};
use picloud_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A flat routing label: the identity of a service endpoint (in the
/// PiCloud, a container), independent of where it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Label(pub u64);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label-{}", self.0)
    }
}

/// How endpoints are addressed on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddressingMode {
    /// Classic location-bound IP addressing.
    IpSubnet,
    /// Flat label routing (the research direction).
    FlatLabel,
}

impl fmt::Display for AddressingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressingMode::IpSubnet => write!(f, "IP subnet"),
            AddressingMode::FlatLabel => write!(f, "flat label"),
        }
    }
}

/// What one migration cost the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MigrationImpact {
    /// Rules removed or rewritten across the fabric.
    pub rules_touched: usize,
    /// Active flows whose connection state broke (IP mode only — labels
    /// keep connections alive across moves).
    pub flows_disrupted: usize,
    /// Control-plane time to converge.
    pub convergence_latency: SimDuration,
}

/// A fabric supporting both addressing modes, with per-label endpoints.
pub struct IplessFabric {
    mode: AddressingMode,
    controller: SdnController,
    /// Where each label currently lives.
    locations: BTreeMap<Label, DeviceId>,
    /// Label rules installed per switch: switch → label → outgoing link.
    label_rules: BTreeMap<DeviceId, BTreeMap<Label, picloud_network::topology::LinkId>>,
    /// Pairs routed in IP mode (src, label) — connection state that a
    /// migration would break.
    ip_sessions: Vec<(DeviceId, Label)>,
}

impl fmt::Debug for IplessFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IplessFabric")
            .field("mode", &self.mode)
            .field("labels", &self.locations.len())
            .finish()
    }
}

impl IplessFabric {
    /// Creates a fabric over `topo` in the given addressing mode.
    pub fn new(topo: Topology, mode: AddressingMode) -> Self {
        IplessFabric {
            mode,
            controller: SdnController::new(topo, InstallMode::Reactive),
            locations: BTreeMap::new(),
            label_rules: BTreeMap::new(),
            ip_sessions: Vec::new(),
        }
    }

    /// The addressing mode.
    pub fn mode(&self) -> AddressingMode {
        self.mode
    }

    /// Registers (or re-registers) a label at a host.
    pub fn bind(&mut self, label: Label, host: DeviceId) {
        self.locations.insert(label, host);
    }

    /// Where a label currently lives.
    pub fn locate(&self, label: Label) -> Option<DeviceId> {
        self.locations.get(&label).copied()
    }

    /// Routes a session from `src` to `label`, installing whatever state
    /// the addressing mode requires. Returns the path length in links, or
    /// `None` when the label is unbound or the surviving fabric has no
    /// path — both conditions injected faults can create mid-experiment,
    /// so they must not panic the control plane.
    pub fn open_session(&mut self, src: DeviceId, label: Label) -> Option<usize> {
        let dst = self.locate(label)?;
        match self.mode {
            AddressingMode::IpSubnet => {
                let out = self.controller.try_route(src, dst)?;
                self.ip_sessions.push((src, label));
                Some(out.path.len())
            }
            AddressingMode::FlatLabel => {
                // Install/refresh label next-hops along the path.
                let topo = self.controller.topology();
                let path = graph::shortest_path(topo, src, dst)?;
                let mut cur = src;
                let mut hops = 0;
                let mut installs: Vec<(DeviceId, picloud_network::topology::LinkId)> = Vec::new();
                for &lid in &path {
                    let link = topo.link(lid);
                    let next = link.other_end(cur);
                    if topo.device(cur).kind.is_host() {
                        // hosts don't hold rules
                    } else {
                        installs.push((cur, lid));
                    }
                    cur = next;
                    hops += 1;
                }
                for (sw, lid) in installs {
                    self.label_rules.entry(sw).or_default().insert(label, lid);
                }
                Some(hops)
            }
        }
    }

    /// Rules currently held for `label` across the fabric (label mode).
    pub fn label_rule_count(&self, label: Label) -> usize {
        self.label_rules
            .values()
            .filter(|m| m.contains_key(&label))
            .count()
    }

    /// Migrates `label` to `new_host`, returning the control-plane churn,
    /// or `None` when the label was never bound (nothing to move).
    pub fn migrate(
        &mut self,
        label: Label,
        new_host: DeviceId,
        now: SimTime,
    ) -> Option<MigrationImpact> {
        let old_host = self.locate(label)?;
        self.locations.insert(label, new_host);
        if old_host == new_host {
            return Some(MigrationImpact {
                rules_touched: 0,
                flows_disrupted: 0,
                convergence_latency: SimDuration::ZERO,
            });
        }
        Some(match self.mode {
            AddressingMode::IpSubnet => {
                // Every rule naming the old address is stale; sessions break.
                self.controller.advance_to(now);
                let rules = self.controller.flush_rules_for_host(old_host);
                let disrupted = self.ip_sessions.iter().filter(|(_, l)| *l == label).count();
                self.ip_sessions.retain(|(_, l)| *l != label);
                MigrationImpact {
                    rules_touched: rules,
                    flows_disrupted: disrupted,
                    // Flush + endpoint renumbering + ARP/DNS reconvergence.
                    convergence_latency: SimDuration::from_millis(500),
                }
            }
            AddressingMode::FlatLabel => {
                // Rewrite the label's next-hop only where it changed.
                let topo = self.controller.topology();
                let mut touched = 0;
                for (&sw, rules) in &mut self.label_rules {
                    let Some(current) = rules.get(&label).copied() else {
                        continue;
                    };
                    let Some(new_path) = graph::shortest_path(topo, sw, new_host) else {
                        continue;
                    };
                    let Some(&new_first) = new_path.first() else {
                        continue;
                    };
                    if new_first != current {
                        rules.insert(label, new_first);
                        touched += 1;
                    }
                }
                MigrationImpact {
                    rules_touched: touched,
                    flows_disrupted: 0,
                    // One controller update round.
                    convergence_latency: SimDuration::from_millis(5),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(mode: AddressingMode) -> (IplessFabric, Vec<DeviceId>) {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        (IplessFabric::new(topo, mode), hosts)
    }

    #[test]
    fn label_migration_touches_fewer_rules_than_ip() {
        let run = |mode| {
            let (mut f, hosts) = fabric(mode);
            let label = Label(1);
            f.bind(label, hosts[55]);
            // Ten clients talk to the label.
            for host in hosts.iter().take(10) {
                f.open_session(*host, label).unwrap();
            }
            // Migrate to a host in another rack.
            f.migrate(label, hosts[14], SimTime::from_secs(1)).unwrap()
        };
        let ip = run(AddressingMode::IpSubnet);
        let lbl = run(AddressingMode::FlatLabel);
        assert!(
            lbl.rules_touched < ip.rules_touched,
            "labels {} vs ip {}",
            lbl.rules_touched,
            ip.rules_touched
        );
        assert_eq!(lbl.flows_disrupted, 0);
        assert!(ip.flows_disrupted > 0, "IP sessions break on migration");
        assert!(lbl.convergence_latency < ip.convergence_latency);
    }

    #[test]
    fn label_sessions_survive_and_reroute() {
        let (mut f, hosts) = fabric(AddressingMode::FlatLabel);
        let label = Label(9);
        f.bind(label, hosts[55]);
        f.open_session(hosts[0], label).unwrap();
        let rules_before = f.label_rule_count(label);
        assert!(rules_before > 0);
        let impact = f.migrate(label, hosts[20], SimTime::from_secs(1)).unwrap();
        assert!(impact.rules_touched <= rules_before);
        assert_eq!(f.locate(label), Some(hosts[20]));
        // A session opened after migration routes to the new host.
        let hops = f.open_session(hosts[0], label).unwrap();
        assert!(hops > 0);
    }

    #[test]
    fn same_host_migration_is_free() {
        let (mut f, hosts) = fabric(AddressingMode::FlatLabel);
        let label = Label(3);
        f.bind(label, hosts[7]);
        let impact = f.migrate(label, hosts[7], SimTime::ZERO).unwrap();
        assert_eq!(impact.rules_touched, 0);
        assert_eq!(impact.convergence_latency, SimDuration::ZERO);
    }

    #[test]
    fn intra_rack_label_migration_touches_only_divergent_switches() {
        let (mut f, hosts) = fabric(AddressingMode::FlatLabel);
        let label = Label(4);
        // hosts[14] and hosts[15] are both in rack 1.
        f.bind(label, hosts[14]);
        f.open_session(hosts[0], label).unwrap(); // cross-rack session
        let impact = f.migrate(label, hosts[15], SimTime::ZERO).unwrap();
        // Only the destination ToR's next hop changes (agg switches still
        // forward to the same ToR).
        assert_eq!(impact.rules_touched, 1, "{impact:?}");
    }

    #[test]
    fn unbound_label_is_reported_not_panicked() {
        let (mut f, hosts) = fabric(AddressingMode::FlatLabel);
        assert_eq!(f.open_session(hosts[0], Label(42)), None);
        assert_eq!(f.migrate(Label(42), hosts[1], SimTime::ZERO), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Label(2).to_string(), "label-2");
        assert_eq!(AddressingMode::FlatLabel.to_string(), "flat label");
        let (f, _) = fabric(AddressingMode::IpSubnet);
        assert!(format!("{f:?}").contains("IplessFabric"));
    }
}
