//! The assembled PiCloud: hardware, racks, fabric and management plane.
//!
//! [`PiCloudBuilder`] constructs the whole testbed the way §II-A describes
//! it: nodes in Lego racks, one ToR per rack, an OpenFlow-ready
//! aggregation layer, the university gateway on top, and a `pimaster`
//! running DHCP, DNS and the image store. The default configuration is the
//! paper's exactly: 56 Raspberry Pi Model B boards, 4 racks of 14, two
//! aggregation roots.

use picloud_hardware::node::{NodeId, NodeSpec};
use picloud_hardware::power::{CoolingModel, PowerSocket};
use picloud_hardware::rack::{Rack, RackId};
use picloud_mgmt::api::{ApiError, ApiRequest, ApiResponse};
use picloud_mgmt::pimaster::Pimaster;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{DeviceId, DeviceKind, Topology};
use picloud_simcore::units::{Money, Power};
use picloud_simcore::{SeedFactory, SimTime};
use std::collections::BTreeMap;
use std::fmt;

use crate::stack::StandardStack;

/// Which fabric the cluster is cabled as.
///
/// §II-A: the default is the "canonical multi-root tree topology"; the
/// prototype "can easily be re-cabled to form a fat-tree topology", and the
/// conclusion describes the build as "a DC Clos network topology" — all
/// three are available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Hosts → ToR per rack → `roots` aggregation switches → gateway.
    MultiRootTree {
        /// Number of aggregation roots.
        roots: u16,
    },
    /// A k-ary fat-tree (hosts: k³/4).
    FatTree {
        /// The arity; must be even.
        k: u16,
    },
    /// Folded Clos: every leaf to every spine.
    LeafSpine {
        /// Number of spine switches.
        spines: u16,
    },
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::MultiRootTree { roots } => write!(f, "multi-root tree ({roots} roots)"),
            TopologyKind::FatTree { k } => write!(f, "fat-tree (k={k})"),
            TopologyKind::LeafSpine { spines } => write!(f, "leaf-spine ({spines} spines)"),
        }
    }
}

/// Builder for a [`PiCloud`].
#[derive(Debug, Clone)]
pub struct PiCloudBuilder {
    racks: u16,
    pis_per_rack: u16,
    spec: NodeSpec,
    topology: TopologyKind,
    seed: u64,
}

impl Default for PiCloudBuilder {
    fn default() -> Self {
        PiCloudBuilder {
            racks: 4,
            pis_per_rack: 14,
            spec: NodeSpec::pi_model_b_rev1(),
            topology: TopologyKind::MultiRootTree { roots: 2 },
            seed: 2013, // the paper's year; any seed works
        }
    }
}

impl PiCloudBuilder {
    /// Sets the rack count (ignored for fat-tree, whose shape is set by
    /// `k`).
    pub fn racks(mut self, racks: u16) -> Self {
        self.racks = racks;
        self
    }

    /// Sets the boards per rack (ignored for fat-tree).
    pub fn pis_per_rack(mut self, n: u16) -> Self {
        self.pis_per_rack = n;
        self
    }

    /// Sets the node hardware (e.g. [`NodeSpec::pi_model_b_rev2`] or
    /// [`NodeSpec::x86_commodity`] for the Table I comparator).
    pub fn node_spec(mut self, spec: NodeSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the fabric kind.
    pub fn topology(mut self, kind: TopologyKind) -> Self {
        self.topology = kind;
        self
    }

    /// Sets the master seed for all randomised workloads on this cloud.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the cloud: fabric, racks, daemons, DHCP/DNS.
    ///
    /// # Panics
    ///
    /// Panics on degenerate shapes (zero racks, odd fat-tree arity).
    pub fn build(self) -> PiCloud {
        let topology = match self.topology {
            TopologyKind::MultiRootTree { roots } => {
                Topology::multi_root_tree(self.racks, self.pis_per_rack, roots)
            }
            TopologyKind::FatTree { k } => Topology::fat_tree(k),
            TopologyKind::LeafSpine { spines } => {
                Topology::leaf_spine(self.racks, spines, self.pis_per_rack)
            }
        };
        let mut pimaster = Pimaster::new();
        let mut node_to_device = Vec::new();
        let mut device_to_node = BTreeMap::new();
        let mut racks: BTreeMap<u16, Rack> = BTreeMap::new();
        // Hosts come out of the builders rack-major; register nodes in the
        // same order so NodeId i <-> i-th host device.
        let hosts_by_rack = topology.hosts_by_rack();
        for (&rack_idx, hosts) in &hosts_by_rack {
            let rack = racks.entry(rack_idx).or_insert_with(|| {
                Rack::with_capacity(
                    RackId(rack_idx),
                    picloud_hardware::rack::RackKind::Lego,
                    hosts.len().max(1),
                )
            });
            for &device in hosts {
                #[expect(
                    clippy::expect_used,
                    reason = "the builder derives rack shapes from the same host list it registers; a /27 rack subnet fits the 14-host racks by construction"
                )]
                let node = pimaster
                    .register_node(self.spec.clone(), rack_idx, SimTime::ZERO)
                    .expect("builder shapes fit their rack subnets");
                #[expect(
                    clippy::expect_used,
                    reason = "rack capacity is sized from hosts.len() three lines above"
                )]
                rack.install(node).expect("rack sized to fit its hosts");
                debug_assert_eq!(node.index(), node_to_device.len());
                node_to_device.push(device);
                device_to_node.insert(device, node);
            }
        }
        PiCloud {
            spec: self.spec,
            kind: self.topology,
            racks: racks.into_values().collect(),
            topology,
            pimaster,
            node_to_device,
            device_to_node,
            seed: SeedFactory::new(self.seed),
        }
    }
}

/// The assembled scale model.
pub struct PiCloud {
    spec: NodeSpec,
    kind: TopologyKind,
    racks: Vec<Rack>,
    topology: Topology,
    pimaster: Pimaster,
    node_to_device: Vec<DeviceId>,
    device_to_node: BTreeMap<DeviceId, NodeId>,
    seed: SeedFactory,
}

impl fmt::Debug for PiCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PiCloud")
            .field("nodes", &self.node_count())
            .field("racks", &self.racks.len())
            .field("topology", &self.kind)
            .finish()
    }
}

impl PiCloud {
    /// Starts building a cloud (defaults to the paper's 56-node testbed).
    pub fn builder() -> PiCloudBuilder {
        PiCloudBuilder::default()
    }

    /// The paper's testbed with all defaults.
    pub fn glasgow() -> PiCloud {
        PiCloud::builder().build()
    }

    /// Number of compute nodes.
    pub fn node_count(&self) -> usize {
        self.node_to_device.len()
    }

    /// The hardware every node runs.
    pub fn node_spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The fabric kind.
    pub fn topology_kind(&self) -> TopologyKind {
        self.kind
    }

    /// The fabric graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The physical racks (Fig. 1).
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// The management plane.
    pub fn pimaster(&self) -> &Pimaster {
        &self.pimaster
    }

    /// The management plane (mutable).
    pub fn pimaster_mut(&mut self) -> &mut Pimaster {
        &mut self.pimaster
    }

    /// The seed factory for workloads on this cloud.
    pub fn seeds(&self) -> SeedFactory {
        self.seed
    }

    /// The fabric device for a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn device_of(&self, node: NodeId) -> DeviceId {
        self.node_to_device[node.index()]
    }

    /// The node at a fabric host device, if any.
    pub fn node_of(&self, device: DeviceId) -> Option<NodeId> {
        self.device_to_node.get(&device).copied()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// A fresh flow-level simulator over this cloud's fabric.
    ///
    /// The simulator picks up the partitioned-solver worker pool from
    /// `PICLOUD_FLOW_WORKERS` (see
    /// [`picloud_network::flowsim::partition::default_workers`]); worker
    /// count is a pure wall-clock knob — results are bit-identical at any
    /// setting — so every experiment stays a function of its seed alone.
    pub fn flow_simulator(&self, policy: RoutingPolicy, allocator: RateAllocator) -> FlowSimulator {
        FlowSimulator::new(self.topology.clone(), policy, allocator)
            .with_workers(picloud_network::flowsim::partition::default_workers())
    }

    /// Dispatches a management API request (§II-C).
    ///
    /// # Errors
    ///
    /// Whatever [`Pimaster::handle`] returns.
    pub fn api(&mut self, req: ApiRequest, now: SimTime) -> Result<ApiResponse, ApiError> {
        self.pimaster.handle(req, now)
    }

    /// Deploys the Fig. 3 standard stack (web, database, hadoop) on a node.
    ///
    /// # Errors
    ///
    /// [`ApiError`] if the node cannot host all three containers.
    pub fn deploy_standard_stack(
        &mut self,
        node: NodeId,
        now: SimTime,
    ) -> Result<StandardStack, ApiError> {
        StandardStack::deploy(self, node, now)
    }

    /// Nameplate power of the whole cloud (the Table I / single-socket
    /// figure).
    pub fn nameplate_power(&self) -> Power {
        self.spec.power.nameplate() * self.node_count() as f64
    }

    /// Capital cost of the boards.
    pub fn hardware_cost(&self) -> Money {
        self.spec.unit_cost * self.node_count() as i64
    }

    /// Whether the cloud runs off one domestic socket (§III's "single
    /// trailing power socket board").
    pub fn fits_single_socket(&self) -> bool {
        PowerSocket::uk_domestic().can_supply(self.nameplate_power())
    }

    /// The cooling this hardware class needs (Table I's third column).
    pub fn cooling(&self) -> CoolingModel {
        match self.spec.class {
            picloud_hardware::node::NodeClass::ArmSbc => CoolingModel::NONE,
            picloud_hardware::node::NodeClass::X86Server => CoolingModel::datacenter_typical(),
        }
    }

    /// ASCII architecture diagram — the Fig. 2 stand-in.
    pub fn render_architecture(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("PiCloud architecture — {}\n", self.kind));
        out.push_str("  [ internet ]\n       |\n  [ gateway (university border router) ]\n");
        let aggs: Vec<&str> = self
            .topology
            .devices_where(|k| matches!(k, DeviceKind::Aggregation | DeviceKind::Core))
            .map(|d| d.name.as_str())
            .collect();
        out.push_str(&format!(
            "       |\n  aggregation/core: {}\n",
            aggs.join(", ")
        ));
        for (rack_idx, hosts) in self.topology.hosts_by_rack() {
            let tor = self
                .topology
                .devices_where(move |k| *k == DeviceKind::TopOfRack { rack: rack_idx })
                .map(|d| d.name.clone())
                .next()
                .unwrap_or_else(|| format!("tor-{rack_idx}"));
            out.push_str(&format!(
                "       |-- {tor} -- rack {rack_idx}: {} Pis\n",
                hosts.len()
            ));
        }
        out
    }

    /// ASCII rack rendering — the Fig. 1 stand-in.
    pub fn render_racks(&self) -> String {
        self.racks
            .iter()
            .map(Rack::render_ascii)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for PiCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PiCloud: {} x {} in {} racks, {}, {} nameplate",
            self.node_count(),
            self.spec.model,
            self.racks.len(),
            self.kind,
            self.nameplate_power()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glasgow_defaults_match_the_paper() {
        let cloud = PiCloud::glasgow();
        assert_eq!(cloud.node_count(), 56);
        assert_eq!(cloud.racks().len(), 4);
        assert!(cloud.racks().iter().all(|r| r.occupied() == 14));
        assert_eq!(cloud.pimaster().node_count(), 56);
        assert!((cloud.nameplate_power().as_watts() - 196.0).abs() < 1e-9);
        assert_eq!(cloud.hardware_cost(), Money::dollars(1_960));
        assert!(cloud.fits_single_socket());
        assert!(!cloud.cooling().is_required());
    }

    #[test]
    fn x86_comparator_differs_exactly_as_table1() {
        let testbed = PiCloud::builder()
            .node_spec(NodeSpec::x86_commodity())
            .build();
        assert_eq!(testbed.hardware_cost(), Money::dollars(112_000));
        assert!((testbed.nameplate_power().as_watts() - 10_080.0).abs() < 1e-9);
        assert!(!testbed.fits_single_socket());
        assert!(testbed.cooling().is_required());
    }

    #[test]
    fn node_device_mapping_is_bijective() {
        let cloud = PiCloud::glasgow();
        for node in cloud.node_ids() {
            let dev = cloud.device_of(node);
            assert_eq!(cloud.node_of(dev), Some(node));
            assert!(cloud.topology().device(dev).kind.is_host());
        }
        // Rack agreement between topology and pimaster daemons.
        for node in cloud.node_ids() {
            let dev_rack = cloud
                .topology()
                .device(cloud.device_of(node))
                .kind
                .rack()
                .unwrap();
            let daemon_rack = cloud.pimaster().daemon(node).unwrap().rack();
            assert_eq!(dev_rack, daemon_rack);
        }
    }

    #[test]
    fn fat_tree_recable_changes_host_count() {
        let cloud = PiCloud::builder()
            .topology(TopologyKind::FatTree { k: 6 })
            .build();
        assert_eq!(cloud.node_count(), 54);
        assert!(cloud.topology().is_connected());
        // Racks follow the edge switches: 6 pods x 3 edges.
        assert_eq!(cloud.racks().len(), 18);
    }

    #[test]
    fn leaf_spine_build() {
        let cloud = PiCloud::builder()
            .topology(TopologyKind::LeafSpine { spines: 2 })
            .build();
        assert_eq!(cloud.node_count(), 56);
    }

    #[test]
    fn renderings_mention_the_parts() {
        let cloud = PiCloud::glasgow();
        let arch = cloud.render_architecture();
        assert!(arch.contains("gateway"));
        assert!(arch.contains("agg-0"));
        assert!(arch.contains("rack 3: 14 Pis"));
        let racks = cloud.render_racks();
        assert!(racks.contains("rack-0"));
        assert!(racks.contains("node-55"));
        assert!(cloud.to_string().contains("56 x Raspberry Pi Model B rev1"));
    }

    #[test]
    fn seeds_are_stable_per_builder_seed() {
        let a = PiCloud::builder().seed(9).build();
        let b = PiCloud::builder().seed(9).build();
        assert_eq!(a.seeds(), b.seeds());
    }

    #[test]
    fn flow_simulator_runs_on_cluster_fabric() {
        use picloud_network::flow::FlowSpec;
        use picloud_simcore::units::Bytes;
        let cloud = PiCloud::glasgow();
        let mut sim = cloud.flow_simulator(RoutingPolicy::default(), RateAllocator::MaxMin);
        let a = cloud.device_of(NodeId(0));
        let b = cloud.device_of(NodeId(55));
        sim.inject(FlowSpec::new(a, b, Bytes::mib(1)), SimTime::ZERO)
            .unwrap();
        sim.run_to_completion();
        assert_eq!(sim.completed().len(), 1);
    }
}
