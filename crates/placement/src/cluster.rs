//! The scheduler's view of the cluster.
//!
//! A [`ClusterView`] tracks, per node, the RAM and CPU still free and which
//! placements live where. It is the substrate the policies in
//! [`crate::scheduler`] and the packing pass in [`crate::consolidate`]
//! operate on — deliberately decoupled from the container crate's full
//! `ContainerHost` runtime so policies stay cheap to evaluate over many
//! candidates.

use picloud_hardware::node::{NodeId, NodeSpec};
use picloud_simcore::units::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one placement (a scheduled container/VM) in a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PlacementTicket(pub u64);

impl fmt::Display for PlacementTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "placement-{}", self.0)
    }
}

/// Resources a workload asks for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// RAM the instance pins.
    pub ram: Bytes,
    /// CPU demand in Hz.
    pub cpu_hz: f64,
    /// Service group for affinity-aware policies (instances of the same
    /// group talk to each other, so co-locating them saves fabric traffic).
    pub group: u32,
}

impl PlacementRequest {
    /// A request with no group affinity.
    pub fn new(ram: Bytes, cpu_hz: f64) -> Self {
        PlacementRequest {
            ram,
            cpu_hz,
            group: 0,
        }
    }

    /// Tags the request with a service group.
    pub fn with_group(mut self, group: u32) -> Self {
        self.group = group;
        self
    }
}

/// One node's capacity and load as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeState {
    /// The node's identity.
    pub node: NodeId,
    /// The rack it sits in.
    pub rack: u16,
    /// RAM available to guests.
    pub ram_capacity: Bytes,
    /// Total CPU in Hz.
    pub cpu_capacity_hz: f64,
    /// RAM currently committed.
    pub ram_used: Bytes,
    /// CPU currently committed, Hz.
    pub cpu_used_hz: f64,
    /// Whether the node is powered on.
    pub powered_on: bool,
}

impl NodeState {
    /// RAM still free.
    pub fn ram_free(&self) -> Bytes {
        self.ram_capacity.saturating_sub(self.ram_used)
    }

    /// CPU still free, Hz.
    pub fn cpu_free_hz(&self) -> f64 {
        (self.cpu_capacity_hz - self.cpu_used_hz).max(0.0)
    }

    /// Whether `req` fits right now (node must be powered on).
    pub fn fits(&self, req: &PlacementRequest) -> bool {
        self.powered_on && req.ram <= self.ram_free() && req.cpu_hz <= self.cpu_free_hz()
    }

    /// Memory utilisation in `[0, 1]`.
    pub fn ram_utilisation(&self) -> f64 {
        if self.ram_capacity.is_zero() {
            return 0.0;
        }
        self.ram_used.as_u64() as f64 / self.ram_capacity.as_u64() as f64
    }

    /// CPU utilisation in `[0, 1]`.
    pub fn cpu_utilisation(&self) -> f64 {
        if self.cpu_capacity_hz <= 0.0 {
            return 0.0;
        }
        (self.cpu_used_hz / self.cpu_capacity_hz).clamp(0.0, 1.0)
    }
}

/// The whole cluster as capacity bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterView {
    nodes: Vec<NodeState>,
    placements: BTreeMap<PlacementTicket, (NodeId, PlacementRequest)>,
    next_ticket: u64,
}

impl ClusterView {
    /// Builds a view of `count` nodes of `spec`, distributed over racks of
    /// `rack_size`, all powered on and empty.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `rack_size` is zero, or if the nodes need more
    /// racks than a `u16` numbers.
    pub fn homogeneous(count: u32, rack_size: u32, spec: &NodeSpec) -> Self {
        assert!(count > 0 && rack_size > 0, "counts must be positive");
        assert!(
            (count - 1) / rack_size <= u32::from(u16::MAX),
            "too many racks"
        );
        let racks = (0..=u16::MAX).flat_map(|rack| std::iter::repeat_n(rack, rack_size as usize));
        let nodes = (0..count)
            .zip(racks)
            .map(|(i, rack)| NodeState {
                node: NodeId(i),
                rack,
                ram_capacity: spec.guest_ram(),
                cpu_capacity_hz: spec.total_compute_hz() as f64,
                ram_used: Bytes::ZERO,
                cpu_used_hz: 0.0,
                powered_on: true,
            })
            .collect();
        ClusterView {
            nodes,
            placements: BTreeMap::new(),
            next_ticket: 0,
        }
    }

    /// The paper's cluster: 56 Pi Model B (rev 1) nodes in racks of 14.
    pub fn picloud_default() -> Self {
        ClusterView::homogeneous(56, 14, &NodeSpec::pi_model_b_rev1())
    }

    /// Scales every node's *admission* CPU capacity by `factor` — the §III
    /// oversubscription knob ("oversubscription to improve cost
    /// efficiency"). Physical capacity does not change; the scheduler is
    /// simply allowed to promise more than the silicon has, betting that
    /// tenants are not all busy at once.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` (that would be undersubscription) or is
    /// non-finite.
    pub fn with_cpu_overcommit(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "overcommit factor must be >= 1"
        );
        for n in &mut self.nodes {
            n.cpu_capacity_hz *= factor;
        }
        self
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// One node's state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[id.index()]
    }

    /// Number of placements currently committed.
    pub fn placement_count(&self) -> usize {
        self.placements.len()
    }

    /// Iterates `(ticket, node, request)` in ticket order.
    pub fn placements(&self) -> impl Iterator<Item = (PlacementTicket, NodeId, &PlacementRequest)> {
        self.placements.iter().map(|(t, (n, r))| (*t, *n, r))
    }

    /// Tickets placed on `node`, in ticket order.
    pub fn placements_on(&self, node: NodeId) -> Vec<PlacementTicket> {
        self.placements
            .iter()
            .filter(|(_, (n, _))| *n == node)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Nodes (powered on) hosting at least one member of `group`.
    pub fn nodes_hosting_group(&self, group: u32) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .placements
            .values()
            .filter(|(_, r)| r.group == group)
            .map(|(n, _)| *n)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Commits `req` onto `node`.
    ///
    /// # Panics
    ///
    /// Panics if the request does not fit — policies must check first; a
    /// failed commit is a scheduler bug, not an operational condition.
    pub fn commit(&mut self, node: NodeId, req: PlacementRequest) -> PlacementTicket {
        {
            let state = &self.nodes[node.index()];
            assert!(
                state.fits(&req),
                "commit of {req:?} onto {node} does not fit (free: {} RAM, {:.0} Hz)",
                state.ram_free(),
                state.cpu_free_hz()
            );
        }
        let state = &mut self.nodes[node.index()];
        state.ram_used += req.ram;
        state.cpu_used_hz += req.cpu_hz;
        let ticket = PlacementTicket(self.next_ticket);
        self.next_ticket += 1;
        self.placements.insert(ticket, (node, req));
        ticket
    }

    /// Releases a placement, freeing its resources. Returns where it was
    /// and what it held; `None` (and no change) for an unknown ticket.
    pub fn release(&mut self, ticket: PlacementTicket) -> Option<(NodeId, PlacementRequest)> {
        let (node, req) = self.placements.remove(&ticket)?;
        let state = &mut self.nodes[node.index()];
        state.ram_used -= req.ram;
        state.cpu_used_hz = (state.cpu_used_hz - req.cpu_hz).max(0.0);
        Some((node, req))
    }

    /// Moves a placement to `target` (resources permitting).
    ///
    /// Returns the source node; `None` (and no change) for an unknown
    /// ticket.
    ///
    /// # Panics
    ///
    /// Panics if `target` cannot fit the placement.
    pub fn relocate(&mut self, ticket: PlacementTicket, target: NodeId) -> Option<NodeId> {
        let (source, req) = self.release(ticket)?;
        // Re-commit preserving the ticket id for caller bookkeeping.
        {
            let state = &self.nodes[target.index()];
            assert!(
                state.fits(&req),
                "relocation target {target} cannot fit {req:?}"
            );
        }
        let state = &mut self.nodes[target.index()];
        state.ram_used += req.ram;
        state.cpu_used_hz += req.cpu_hz;
        self.placements.insert(ticket, (target, req));
        Some(source)
    }

    /// Powers a node off.
    ///
    /// # Panics
    ///
    /// Panics if the node still hosts placements.
    pub fn power_off(&mut self, node: NodeId) {
        assert!(
            self.placements_on(node).is_empty(),
            "cannot power off {node}: placements remain"
        );
        self.nodes[node.index()].powered_on = false;
    }

    /// Powers a node back on.
    pub fn power_on(&mut self, node: NodeId) {
        self.nodes[node.index()].powered_on = true;
    }

    /// Marks a node unschedulable *without* requiring it to be empty —
    /// cordoning for a node that is suspected dead or unresponsive while
    /// its placements are still being reclaimed. Placement policies skip
    /// it exactly as if it were powered off.
    pub fn cordon(&mut self, node: NodeId) {
        self.nodes[node.index()].powered_on = false;
    }

    /// Reverses [`ClusterView::cordon`]: the node takes placements again.
    pub fn uncordon(&mut self, node: NodeId) {
        self.nodes[node.index()].powered_on = true;
    }

    /// Nodes currently powered on.
    pub fn powered_on_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.powered_on).count()
    }
}

impl fmt::Display for ClusterView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster: {} nodes ({} on), {} placements",
            self.nodes.len(),
            self.powered_on_count(),
            self.placements.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_req() -> PlacementRequest {
        PlacementRequest::new(Bytes::mib(30), 100e6)
    }

    #[test]
    fn picloud_default_shape() {
        let view = ClusterView::picloud_default();
        assert_eq!(view.nodes().len(), 56);
        assert_eq!(view.node(NodeId(0)).rack, 0);
        assert_eq!(view.node(NodeId(13)).rack, 0);
        assert_eq!(view.node(NodeId(14)).rack, 1);
        assert_eq!(view.node(NodeId(55)).rack, 3);
        assert_eq!(view.node(NodeId(0)).ram_capacity, Bytes::mib(192));
    }

    #[test]
    fn commit_and_release_round_trip() {
        let mut view = ClusterView::picloud_default();
        let t = view.commit(NodeId(5), small_req());
        assert_eq!(view.node(NodeId(5)).ram_used, Bytes::mib(30));
        assert_eq!(view.placement_count(), 1);
        let (node, req) = view.release(t).unwrap();
        assert_eq!(node, NodeId(5));
        assert_eq!(req.ram, Bytes::mib(30));
        assert_eq!(view.node(NodeId(5)).ram_used, Bytes::ZERO);
        assert_eq!(view.release(t), None, "a ticket releases once");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn commit_overflow_panics() {
        let mut view = ClusterView::picloud_default();
        view.commit(NodeId(0), PlacementRequest::new(Bytes::gib(1), 0.0));
    }

    #[test]
    fn relocate_moves_resources() {
        let mut view = ClusterView::picloud_default();
        let t = view.commit(NodeId(0), small_req());
        let source = view.relocate(t, NodeId(20));
        assert_eq!(source, Some(NodeId(0)));
        assert_eq!(view.node(NodeId(0)).ram_used, Bytes::ZERO);
        assert_eq!(view.node(NodeId(20)).ram_used, Bytes::mib(30));
        assert_eq!(view.placements_on(NodeId(20)), vec![t]);
    }

    #[test]
    fn power_off_requires_empty_node() {
        let mut view = ClusterView::picloud_default();
        let t = view.commit(NodeId(3), small_req());
        view.release(t);
        view.power_off(NodeId(3));
        assert_eq!(view.powered_on_count(), 55);
        assert!(
            !view.node(NodeId(3)).fits(&small_req()),
            "off nodes reject work"
        );
        view.power_on(NodeId(3));
        assert!(view.node(NodeId(3)).fits(&small_req()));
    }

    #[test]
    #[should_panic(expected = "placements remain")]
    fn power_off_occupied_panics() {
        let mut view = ClusterView::picloud_default();
        view.commit(NodeId(3), small_req());
        view.power_off(NodeId(3));
    }

    #[test]
    fn group_tracking() {
        let mut view = ClusterView::picloud_default();
        view.commit(NodeId(1), small_req().with_group(7));
        view.commit(NodeId(1), small_req().with_group(7));
        view.commit(NodeId(9), small_req().with_group(7));
        view.commit(NodeId(2), small_req().with_group(8));
        assert_eq!(view.nodes_hosting_group(7), vec![NodeId(1), NodeId(9)]);
    }

    #[test]
    fn overcommit_admits_more_cpu() {
        let plain = ClusterView::picloud_default();
        let over = ClusterView::picloud_default().with_cpu_overcommit(2.0);
        let req = PlacementRequest::new(Bytes::mib(1), 500e6);
        // 700 MHz node: one 500 MHz request fits, two don't...
        let mut v = plain;
        v.commit(NodeId(0), req);
        assert!(!v.node(NodeId(0)).fits(&req));
        // ...unless overcommitted 2x (1.4 GHz admission capacity).
        let mut v = over;
        v.commit(NodeId(0), req);
        assert!(v.node(NodeId(0)).fits(&req));
    }

    #[test]
    #[should_panic(expected = "overcommit factor")]
    fn undersubscription_rejected() {
        let _ = ClusterView::picloud_default().with_cpu_overcommit(0.5);
    }

    #[test]
    fn utilisation_math() {
        let mut view = ClusterView::picloud_default();
        view.commit(NodeId(0), PlacementRequest::new(Bytes::mib(96), 350e6));
        let n = view.node(NodeId(0));
        assert!((n.ram_utilisation() - 0.5).abs() < 1e-9);
        assert!((n.cpu_utilisation() - 0.5).abs() < 1e-9);
    }
}
