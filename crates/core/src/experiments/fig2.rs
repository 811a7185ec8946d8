//! **F2 — Fig. 2**: the system architecture, and the fat-tree re-cable.
//!
//! The figure itself is a wiring diagram; what it *claims* is measurable:
//! 56 hosts in 4 racks behind ToRs, an OpenFlow aggregation layer, a
//! gateway, and the option to "easily be re-cabled to form a fat-tree
//! topology". The experiment builds the paper fabric and its re-cables and
//! reports the graph-level properties that distinguish them: bisection
//! bandwidth, ToR-to-ToR path redundancy, host path diversity and diameter.

use crate::report::TextTable;
use picloud_network::graph;
use picloud_network::topology::{DeviceId, DeviceKind, LinkRates, Topology};
use picloud_simcore::units::Bandwidth;
use std::fmt;

/// Metrics of one fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricMetrics {
    /// Fabric name.
    pub name: String,
    /// Host count.
    pub hosts: usize,
    /// Switch count (ToR + aggregation + core).
    pub switches: usize,
    /// Link count.
    pub links: usize,
    /// Host-halves max-flow.
    pub bisection: Bandwidth,
    /// Edge-disjoint paths between the first and last ToR.
    pub tor_redundancy: u64,
    /// Equal-cost shortest paths between two cross-"pod" hosts (capped at
    /// 64).
    pub host_path_diversity: usize,
    /// Longest shortest host-to-host path, in hops.
    pub diameter_hops: u32,
}

/// The Fig. 2 comparison across fabrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// One row per fabric.
    pub fabrics: Vec<FabricMetrics>,
}

impl Fig2 {
    /// Measures one topology.
    pub fn measure(topo: &Topology) -> FabricMetrics {
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let switches = topo
            .devices_where(|k| {
                matches!(
                    k,
                    DeviceKind::TopOfRack { .. } | DeviceKind::Aggregation | DeviceKind::Core
                )
            })
            .count();
        let tors: Vec<DeviceId> = topo
            .devices_where(|k| matches!(k, DeviceKind::TopOfRack { .. }))
            .map(|d| d.id)
            .collect();
        let tor_redundancy = match tors.as_slice() {
            [first, .., last] => graph::edge_disjoint_paths(topo, *first, *last),
            _ => 0,
        };
        let host_path_diversity = match hosts.as_slice() {
            [first, .., last] => graph::all_shortest_paths(topo, *first, *last, 64).len(),
            _ => 0,
        };
        // Diameter over host pairs: max BFS distance from the first host of
        // each rack (cheap and exact for these layered fabrics).
        let mut diameter = 0u32;
        for (_, rack_hosts) in topo.hosts_by_rack() {
            let src = rack_hosts[0];
            let dist = graph::bfs_distances(topo, src);
            for h in &hosts {
                let d = dist[h.index()];
                if d != u32::MAX {
                    diameter = diameter.max(d);
                }
            }
        }
        FabricMetrics {
            name: topo.name().to_owned(),
            hosts: hosts.len(),
            switches,
            links: topo.links().len(),
            bisection: topo.bisection_bandwidth(),
            tor_redundancy,
            host_path_diversity,
            diameter_hops: diameter,
        }
    }

    /// Runs the paper comparison: the multi-root tree (1 and 2 roots), the
    /// k=6 fat-tree re-cable (54 hosts — the closest fat-tree to 56), and a
    /// leaf-spine Clos, all at uniform gigabit rates so fabric structure
    /// (not the Pi NIC) differentiates them; plus the as-built fabric at
    /// the paper's real rates.
    pub fn run() -> Fig2 {
        let uniform = LinkRates {
            access: Bandwidth::gbps(1),
            fabric: Bandwidth::gbps(1),
        };
        let fabrics = vec![
            Fig2::measure(&Topology::multi_root_tree(4, 14, 2)),
            Fig2::measure(&Topology::multi_root_tree_with(4, 14, 1, uniform)),
            Fig2::measure(&Topology::multi_root_tree_with(4, 14, 2, uniform)),
            Fig2::measure(&Topology::fat_tree_with(6, uniform)),
            Fig2::measure(&Topology::leaf_spine(4, 4, 14)),
        ];
        Fig2 { fabrics }
    }

    /// Looks up a fabric row by name.
    pub fn fabric(&self, name: &str) -> Option<&FabricMetrics> {
        self.fabrics.iter().find(|f| f.name == name)
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FIG 2: fabric comparison (paper fabric + re-cables)")?;
        let mut t = TextTable::new(vec![
            "fabric".into(),
            "hosts".into(),
            "switches".into(),
            "links".into(),
            "bisection".into(),
            "ToR redundancy".into(),
            "host ECMP paths".into(),
            "diameter".into(),
        ]);
        for m in &self.fabrics {
            t.row(vec![
                m.name.clone(),
                m.hosts.to_string(),
                m.switches.to_string(),
                m.links.to_string(),
                m.bisection.to_string(),
                m.tor_redundancy.to_string(),
                m.host_path_diversity.to_string(),
                format!("{} hops", m.diameter_hops),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fabric_shape_is_right() {
        let fig = Fig2::run();
        let paper = fig.fabric("multi-root-tree-4x14").expect("paper fabric");
        assert_eq!(paper.hosts, 56);
        assert_eq!(paper.switches, 6, "4 ToR + 2 aggregation");
        assert_eq!(paper.links, 66);
        assert_eq!(paper.diameter_hops, 4, "host-tor-agg-tor-host");
    }

    #[test]
    fn fat_tree_recable_wins_on_bisection_and_redundancy() {
        let fig = Fig2::run();
        let tree = fig.fabric("multi-root-tree-4x14").expect("tree");
        let fat = fig.fabric("fat-tree-k6").expect("fat tree");
        assert!(fat.bisection > tree.bisection);
        assert!(fat.tor_redundancy > tree.tor_redundancy);
        assert!(fat.host_path_diversity > tree.host_path_diversity);
    }

    #[test]
    fn second_root_doubles_tor_redundancy() {
        let fig = Fig2::run();
        // Uniform-rate variants with 1 vs 2 roots share a name prefix;
        // the 2-root tree has double ToR redundancy.
        let metrics: Vec<&FabricMetrics> = fig
            .fabrics
            .iter()
            .filter(|m| m.name == "multi-root-tree-4x14")
            .collect();
        // First entry is paper rates (roots=2); use explicit builds:
        let one = Fig2::measure(&Topology::multi_root_tree(4, 14, 1));
        let two = Fig2::measure(&Topology::multi_root_tree(4, 14, 2));
        assert_eq!(one.tor_redundancy, 1);
        assert_eq!(two.tor_redundancy, 2);
        assert!(!metrics.is_empty());
    }

    #[test]
    fn leaf_spine_matches_56_hosts() {
        let fig = Fig2::run();
        let clos = fig.fabric("leaf-spine-4x4").expect("clos");
        assert_eq!(clos.hosts, 56);
        assert!(clos.tor_redundancy >= 4, "one per spine");
    }

    #[test]
    fn display_tabulates_all_fabrics() {
        let fig = Fig2::run();
        let s = fig.to_string();
        for m in &fig.fabrics {
            assert!(s.contains(&m.name), "{s}");
        }
    }
}
