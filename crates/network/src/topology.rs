//! Devices, links and topology builders.
//!
//! A [`Topology`] is an undirected multigraph of [`DeviceKind`]-tagged
//! devices joined by capacity-and-latency-labelled [`Link`]s. Three builders
//! cover the paper's fabric and its stated variants:
//!
//! * [`Topology::multi_root_tree`] — Fig. 2: hosts → per-rack ToR →
//!   aggregation root(s) → gateway.
//! * [`Topology::fat_tree`] — the re-cabled k-ary fat-tree of §II-A.
//! * [`Topology::leaf_spine`] — a folded-Clos (VL2-style) alternative,
//!   matching the conclusion's "DC Clos network topology" description.

use picloud_simcore::units::Bandwidth;
use picloud_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a device (host, switch or router) in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// The raw index into [`Topology::devices`].
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev-{}", self.0)
    }
}

/// Identifies a link in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The raw index into [`Topology::links`].
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link-{}", self.0)
    }
}

/// What role a device plays in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A server (a Raspberry Pi in the PiCloud); carries its rack index.
    Host {
        /// Rack this host is installed in.
        rack: u16,
    },
    /// A Top-of-Rack switch; carries its rack index.
    TopOfRack {
        /// Rack this switch serves.
        rack: u16,
    },
    /// An aggregation-layer switch (OpenFlow-enabled in the PiCloud).
    Aggregation,
    /// A core switch (fat-tree core layer / Clos spine).
    Core,
    /// The border router — the university gateway in the paper.
    Gateway,
}

impl DeviceKind {
    /// Whether this device terminates traffic (is a host).
    pub fn is_host(self) -> bool {
        matches!(self, DeviceKind::Host { .. })
    }

    /// The rack index, for rack-scoped devices.
    pub fn rack(self) -> Option<u16> {
        match self {
            DeviceKind::Host { rack } | DeviceKind::TopOfRack { rack } => Some(rack),
            _ => None,
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Host { rack } => write!(f, "host(rack {rack})"),
            DeviceKind::TopOfRack { rack } => write!(f, "ToR(rack {rack})"),
            DeviceKind::Aggregation => write!(f, "aggregation"),
            DeviceKind::Core => write!(f, "core"),
            DeviceKind::Gateway => write!(f, "gateway"),
        }
    }
}

/// A device in the fabric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    /// This device's id.
    pub id: DeviceId,
    /// Role in the fabric.
    pub kind: DeviceKind,
    /// Human-readable name (`pi-0-3`, `tor-1`, `agg-0`, ...).
    pub name: String,
}

/// An undirected link between two devices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// One endpoint.
    pub a: DeviceId,
    /// The other endpoint.
    pub b: DeviceId,
    /// Capacity (full duplex; modelled per direction by the flow simulator).
    pub capacity: Bandwidth,
    /// Propagation + switching latency.
    pub latency: SimDuration,
}

impl Link {
    /// The endpoint opposite `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    #[expect(
        clippy::panic,
        reason = "documented panic: caller must pass an endpoint of this link (# Panics)"
    )]
    pub fn other_end(&self, from: DeviceId) -> DeviceId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of {}", self.id)
        }
    }
}

/// Link rates used by the builders: hosts attach at Fast Ethernet (the Pi's
/// 100 Mbit NIC); switch uplinks run at gigabit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkRates {
    /// Host-to-ToR (access) rate.
    pub access: Bandwidth,
    /// Switch-to-switch rate.
    pub fabric: Bandwidth,
}

impl Default for LinkRates {
    fn default() -> Self {
        LinkRates {
            access: Bandwidth::mbps(100),
            fabric: Bandwidth::gbps(1),
        }
    }
}

/// An undirected multigraph of devices and links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    devices: Vec<Device>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(DeviceId, LinkId)>>,
    name: String,
}

impl Topology {
    /// Creates an empty topology with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            devices: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            name: name.into(),
        }
    }

    /// Descriptive name (`"multi-root-tree"`, `"fat-tree-k4"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a device and returns its id.
    pub fn add_device(&mut self, kind: DeviceKind, name: impl Into<String>) -> DeviceId {
        #[expect(
            clippy::expect_used,
            reason = "u32 overflow needs 4 billion devices; far beyond any scale model"
        )]
        let id = DeviceId(u32::try_from(self.devices.len()).expect("too many devices"));
        self.devices.push(Device {
            id,
            kind,
            name: name.into(),
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or unknown endpoints.
    pub fn add_link(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        capacity: Bandwidth,
        latency: SimDuration,
    ) -> LinkId {
        assert!(a != b, "self-loop links are not allowed");
        assert!(
            a.index() < self.devices.len() && b.index() < self.devices.len(),
            "link endpoint does not exist"
        );
        #[expect(
            clippy::expect_used,
            reason = "u32 overflow needs 4 billion links; far beyond any scale model"
        )]
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link {
            id,
            a,
            b,
            capacity,
            latency,
        });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        id
    }

    /// All devices, in id order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All links, in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The device with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// The link with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Neighbours of `id` as `(neighbour, connecting link)` pairs.
    pub fn neighbours(&self, id: DeviceId) -> &[(DeviceId, LinkId)] {
        &self.adjacency[id.index()]
    }

    /// All hosts, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter().filter(|d| d.kind.is_host())
    }

    /// All devices of a given kind-category (by matching closure), useful
    /// for switches.
    pub fn devices_where<'a>(
        &'a self,
        pred: impl Fn(&DeviceKind) -> bool + 'a,
    ) -> impl Iterator<Item = &'a Device> {
        self.devices.iter().filter(move |d| pred(&d.kind))
    }

    /// Hosts grouped by rack index, sorted by rack.
    pub fn hosts_by_rack(&self) -> BTreeMap<u16, Vec<DeviceId>> {
        let mut map: BTreeMap<u16, Vec<DeviceId>> = BTreeMap::new();
        for d in self.hosts() {
            if let Some(rack) = d.kind.rack() {
                map.entry(rack).or_default().push(d.id);
            }
        }
        map
    }

    /// Whether every device can reach every other.
    pub fn is_connected(&self) -> bool {
        crate::graph::is_connected(self)
    }

    /// Total capacity crossing the host bisection: hosts are split into two
    /// halves (by rack order), and the result is the max-flow between the
    /// halves — the standard bisection-bandwidth measure used to compare
    /// the multi-root tree against the fat-tree re-cable.
    pub fn bisection_bandwidth(&self) -> Bandwidth {
        let by_rack = self.hosts_by_rack();
        let all: Vec<DeviceId> = by_rack.values().flatten().copied().collect();
        if all.len() < 2 {
            return Bandwidth::ZERO;
        }
        let half = all.len() / 2;
        crate::graph::max_flow_between_sets(self, &all[..half], &all[half..half * 2])
    }

    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// The paper's Fig. 2 fabric: `racks` racks of `hosts_per_rack` hosts,
    /// one ToR per rack, `roots` aggregation switches each connected to
    /// every ToR (the "multi-root" part) and to the gateway.
    ///
    /// Defaults used throughout the reproduction: `(4, 14, 2)` with
    /// [`LinkRates::default`].
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn multi_root_tree(racks: u16, hosts_per_rack: u16, roots: u16) -> Topology {
        Topology::multi_root_tree_with(racks, hosts_per_rack, roots, LinkRates::default())
    }

    /// [`Topology::multi_root_tree`] with explicit link rates.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn multi_root_tree_with(
        racks: u16,
        hosts_per_rack: u16,
        roots: u16,
        rates: LinkRates,
    ) -> Topology {
        assert!(
            racks > 0 && hosts_per_rack > 0 && roots > 0,
            "counts must be positive"
        );
        let mut t = Topology::new(format!("multi-root-tree-{racks}x{hosts_per_rack}"));
        let lat_access = SimDuration::from_micros(50);
        let lat_fabric = SimDuration::from_micros(20);

        let gateway = t.add_device(DeviceKind::Gateway, "gateway");
        let aggs: Vec<DeviceId> = (0..roots)
            .map(|i| t.add_device(DeviceKind::Aggregation, format!("agg-{i}")))
            .collect();
        for &agg in &aggs {
            t.add_link(agg, gateway, rates.fabric, lat_fabric);
        }
        for r in 0..racks {
            let tor = t.add_device(DeviceKind::TopOfRack { rack: r }, format!("tor-{r}"));
            for &agg in &aggs {
                t.add_link(tor, agg, rates.fabric, lat_fabric);
            }
            for h in 0..hosts_per_rack {
                let host = t.add_device(DeviceKind::Host { rack: r }, format!("pi-{r}-{h}"));
                t.add_link(host, tor, rates.access, lat_access);
            }
        }
        t
    }

    /// A classic k-ary fat-tree: `k` pods, each with `k/2` edge and `k/2`
    /// aggregation switches, `(k/2)²` core switches, and `k/2` hosts per
    /// edge switch (`k³/4` hosts total). Edge switches play the ToR role,
    /// so hosts carry their pod-edge pair as a rack index.
    ///
    /// A gateway hangs off core switch 0, preserving the paper's border
    /// router.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2.
    pub fn fat_tree(k: u16) -> Topology {
        Topology::fat_tree_with(k, LinkRates::default())
    }

    /// [`Topology::fat_tree`] with explicit link rates.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or less than 2.
    pub fn fat_tree_with(k: u16, rates: LinkRates) -> Topology {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        let half = k / 2;
        let mut t = Topology::new(format!("fat-tree-k{k}"));
        let lat_access = SimDuration::from_micros(50);
        let lat_fabric = SimDuration::from_micros(20);

        let cores: Vec<DeviceId> = (0..half * half)
            .map(|i| t.add_device(DeviceKind::Core, format!("core-{i}")))
            .collect();
        let gateway = t.add_device(DeviceKind::Gateway, "gateway");
        // tree builders always create at least one core switch
        t.add_link(cores[0], gateway, rates.fabric, lat_fabric);

        for pod in 0..k {
            let aggs: Vec<DeviceId> = (0..half)
                .map(|i| t.add_device(DeviceKind::Aggregation, format!("agg-{pod}-{i}")))
                .collect();
            // Aggregation switch i connects to core group i.
            for (i, &agg) in aggs.iter().enumerate() {
                for j in 0..half as usize {
                    let core = cores[i * half as usize + j];
                    t.add_link(agg, core, rates.fabric, lat_fabric);
                }
            }
            for e in 0..half {
                let rack = pod * half + e;
                let edge = t.add_device(DeviceKind::TopOfRack { rack }, format!("edge-{pod}-{e}"));
                for &agg in &aggs {
                    t.add_link(edge, agg, rates.fabric, lat_fabric);
                }
                for h in 0..half {
                    let host = t.add_device(DeviceKind::Host { rack }, format!("pi-{pod}-{e}-{h}"));
                    t.add_link(host, edge, rates.access, lat_access);
                }
            }
        }
        t
    }

    /// A folded-Clos / leaf–spine fabric: `leaves` ToR switches each
    /// connected to every one of `spines` spine switches, with
    /// `hosts_per_leaf` hosts per leaf and a gateway on spine 0.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn leaf_spine(leaves: u16, spines: u16, hosts_per_leaf: u16) -> Topology {
        assert!(
            leaves > 0 && spines > 0 && hosts_per_leaf > 0,
            "counts must be positive"
        );
        let rates = LinkRates::default();
        let mut t = Topology::new(format!("leaf-spine-{leaves}x{spines}"));
        let lat_access = SimDuration::from_micros(50);
        let lat_fabric = SimDuration::from_micros(20);

        let spine_ids: Vec<DeviceId> = (0..spines)
            .map(|i| t.add_device(DeviceKind::Core, format!("spine-{i}")))
            .collect();
        let gateway = t.add_device(DeviceKind::Gateway, "gateway");
        // Clos builders always create at least one spine switch
        t.add_link(spine_ids[0], gateway, rates.fabric, lat_fabric);

        for l in 0..leaves {
            let leaf = t.add_device(DeviceKind::TopOfRack { rack: l }, format!("leaf-{l}"));
            for &spine in &spine_ids {
                t.add_link(leaf, spine, rates.fabric, lat_fabric);
            }
            for h in 0..hosts_per_leaf {
                let host = t.add_device(DeviceKind::Host { rack: l }, format!("pi-{l}-{h}"));
                t.add_link(host, leaf, rates.access, lat_access);
            }
        }
        t
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} devices ({} hosts), {} links",
            self.name,
            self.devices.len(),
            self.hosts().count(),
            self.links.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fabric_shape() {
        let t = Topology::multi_root_tree(4, 14, 2);
        assert_eq!(t.hosts().count(), 56);
        let tors = t
            .devices_where(|k| matches!(k, DeviceKind::TopOfRack { .. }))
            .count();
        assert_eq!(tors, 4);
        let aggs = t
            .devices_where(|k| matches!(k, DeviceKind::Aggregation))
            .count();
        assert_eq!(aggs, 2);
        assert_eq!(
            t.devices_where(|k| matches!(k, DeviceKind::Gateway))
                .count(),
            1
        );
        assert!(t.is_connected());
        // 56 access + 4*2 tor-agg + 2 agg-gw links.
        assert_eq!(t.links().len(), 56 + 8 + 2);
    }

    #[test]
    fn hosts_by_rack_partitions() {
        let t = Topology::multi_root_tree(4, 14, 2);
        let by_rack = t.hosts_by_rack();
        assert_eq!(by_rack.len(), 4);
        assert!(by_rack.values().all(|v| v.len() == 14));
    }

    #[test]
    fn fat_tree_k4_shape() {
        let t = Topology::fat_tree(4);
        // k^3/4 = 16 hosts, 4 core, 8 agg, 8 edge.
        assert_eq!(t.hosts().count(), 16);
        assert_eq!(
            t.devices_where(|k| matches!(k, DeviceKind::Core)).count(),
            4
        );
        assert_eq!(
            t.devices_where(|k| matches!(k, DeviceKind::Aggregation))
                .count(),
            8
        );
        assert_eq!(
            t.devices_where(|k| matches!(k, DeviceKind::TopOfRack { .. }))
                .count(),
            8
        );
        assert!(t.is_connected());
    }

    #[test]
    fn fat_tree_k6_covers_56_hosts() {
        // The 56-Pi cloud re-cabled: k=6 gives 54 host ports; with k=8 it's 128.
        assert_eq!(Topology::fat_tree(6).hosts().count(), 54);
        assert_eq!(Topology::fat_tree(8).hosts().count(), 128);
    }

    #[test]
    fn leaf_spine_shape() {
        let t = Topology::leaf_spine(4, 2, 14);
        assert_eq!(t.hosts().count(), 56);
        assert!(t.is_connected());
    }

    #[test]
    fn fat_tree_beats_tree_on_bisection() {
        // With uniform link rates (the canonical fat-tree setting) the
        // fat-tree's richer fabric must win; with the default rates the
        // 100 Mbit host NIC is the bottleneck in both fabrics.
        let uniform = LinkRates {
            access: Bandwidth::gbps(1),
            fabric: Bandwidth::gbps(1),
        };
        let tree = Topology::multi_root_tree_with(4, 4, 1, uniform);
        let fat = Topology::fat_tree_with(4, uniform);
        let tree_bb = tree.bisection_bandwidth();
        let fat_bb = fat.bisection_bandwidth();
        assert!(
            fat_bb > tree_bb,
            "fat-tree {fat_bb} should exceed tree {tree_bb}"
        );
        // Default rates: both NIC-bound, equal bisection.
        assert_eq!(
            Topology::multi_root_tree(4, 4, 1).bisection_bandwidth(),
            Topology::fat_tree(4).bisection_bandwidth()
        );
    }

    #[test]
    fn link_other_end() {
        let t = Topology::multi_root_tree(1, 1, 1);
        let l = &t.links()[0];
        assert_eq!(l.other_end(l.a), l.b);
        assert_eq!(l.other_end(l.b), l.a);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_rejects_stranger() {
        let t = Topology::multi_root_tree(1, 2, 1);
        let l = t.links()[0].clone();
        let stranger = t.hosts().last().unwrap().id;
        let _ = l.other_end(stranger);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut t = Topology::new("bad");
        let d = t.add_device(DeviceKind::Gateway, "gw");
        t.add_link(d, d, Bandwidth::mbps(1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_fat_tree_rejected() {
        let _ = Topology::fat_tree(3);
    }

    #[test]
    fn display_summarises() {
        let t = Topology::multi_root_tree(4, 14, 2);
        let s = t.to_string();
        assert!(s.contains("56 hosts"), "{s}");
    }
}
