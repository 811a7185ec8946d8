//! Failure injection.
//!
//! The paper motivates the testbed with DC failure studies ("Understanding
//! network failures in data centers", Gill et al. — its reference 2) and
//! argues a physical testbed exposes failure behaviour simulators abstract
//! away. This module injects link and device failures into a topology and
//! measures what survives: a [`FailureMask`] overlays a topology without
//! mutating it, so experiments can sweep failure sets cheaply, and
//! [`DegradedTopology`] materialises the surviving fabric for routing and
//! flow simulation.

use crate::topology::{DeviceId, DeviceKind, LinkId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A set of failed links and devices overlaying a topology.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureMask {
    failed_links: BTreeSet<LinkId>,
    failed_devices: BTreeSet<DeviceId>,
}

impl FailureMask {
    /// No failures.
    pub fn none() -> Self {
        FailureMask::default()
    }

    /// Fails a link.
    pub fn fail_link(&mut self, link: LinkId) -> &mut Self {
        self.failed_links.insert(link);
        self
    }

    /// Fails a device (implicitly failing every link touching it).
    pub fn fail_device(&mut self, device: DeviceId) -> &mut Self {
        self.failed_devices.insert(device);
        self
    }

    /// Repairs a link.
    pub fn repair_link(&mut self, link: LinkId) -> &mut Self {
        self.failed_links.remove(&link);
        self
    }

    /// Repairs a device.
    pub fn repair_device(&mut self, device: DeviceId) -> &mut Self {
        self.failed_devices.remove(&device);
        self
    }

    /// Whether `link` is up on `topo` under this mask.
    pub fn link_up(&self, topo: &Topology, link: LinkId) -> bool {
        if self.failed_links.contains(&link) {
            return false;
        }
        let l = topo.link(link);
        !self.failed_devices.contains(&l.a) && !self.failed_devices.contains(&l.b)
    }

    /// Whether `device` is up under this mask.
    pub fn device_up(&self, device: DeviceId) -> bool {
        !self.failed_devices.contains(&device)
    }

    /// Number of explicitly failed links.
    pub fn failed_link_count(&self) -> usize {
        self.failed_links.len()
    }

    /// Number of failed devices.
    pub fn failed_device_count(&self) -> usize {
        self.failed_devices.len()
    }

    /// Materialises the surviving fabric: failed devices disappear, failed
    /// links disappear, everything else keeps its capacity and latency.
    /// Device ids are *not* preserved — use the returned name map.
    pub fn apply(&self, topo: &Topology) -> DegradedTopology {
        let mut out = Topology::new(format!("{}(degraded)", topo.name()));
        let mut old_to_new: Vec<Option<DeviceId>> = vec![None; topo.devices().len()];
        for d in topo.devices() {
            if self.device_up(d.id) {
                let nid = out.add_device(d.kind, d.name.clone());
                old_to_new[d.id.index()] = Some(nid);
            }
        }
        for l in topo.links() {
            if !self.link_up(topo, l.id) {
                continue;
            }
            let (Some(a), Some(b)) = (old_to_new[l.a.index()], old_to_new[l.b.index()]) else {
                continue;
            };
            out.add_link(a, b, l.capacity, l.latency);
        }
        DegradedTopology {
            topology: out,
            old_to_new,
        }
    }
}

impl fmt::Display for FailureMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed link(s), {} failed device(s)",
            self.failed_links.len(),
            self.failed_devices.len()
        )
    }
}

/// A topology with failures applied, plus the id translation.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedTopology {
    /// The surviving fabric.
    pub topology: Topology,
    /// Old device id → new device id (None if the device failed).
    old_to_new: Vec<Option<DeviceId>>,
}

impl DegradedTopology {
    /// The new id of an original device, if it survived.
    pub fn translate(&self, old: DeviceId) -> Option<DeviceId> {
        self.old_to_new.get(old.index()).copied().flatten()
    }
}

/// Connectivity report for a (possibly degraded) fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConnectivityReport {
    /// Hosts still present.
    pub hosts_up: usize,
    /// Ordered host pairs that can still reach each other.
    pub reachable_pairs: usize,
    /// All ordered host pairs among surviving hosts.
    pub total_pairs: usize,
}

impl ConnectivityReport {
    /// Fraction of surviving-host pairs that can communicate, in `[0, 1]`.
    /// 1.0 for fewer than two hosts.
    pub fn reachability(&self) -> f64 {
        if self.total_pairs == 0 {
            1.0
        } else {
            self.reachable_pairs as f64 / self.total_pairs as f64
        }
    }

    /// Measures a fabric. Two hosts reach each other exactly when they
    /// share a connected component, so one traversal of the components
    /// counts the reachable ordered pairs as Σ h·(h−1) over components
    /// holding h hosts.
    pub fn measure(topo: &Topology) -> ConnectivityReport {
        let n = topo.hosts().count();
        if n < 2 {
            return ConnectivityReport {
                hosts_up: n,
                reachable_pairs: 0,
                total_pairs: 0,
            };
        }
        let mut seen = vec![false; topo.devices().len()];
        let mut stack = Vec::new();
        let mut reachable = 0usize;
        for host in topo.hosts() {
            if seen[host.id.index()] {
                continue;
            }
            seen[host.id.index()] = true;
            stack.push(host.id);
            let mut hosts_in_component = 0usize;
            while let Some(d) = stack.pop() {
                if topo.device(d).kind.is_host() {
                    hosts_in_component += 1;
                }
                for &(next, _) in topo.neighbours(d) {
                    if !seen[next.index()] {
                        seen[next.index()] = true;
                        stack.push(next);
                    }
                }
            }
            reachable += hosts_in_component * (hosts_in_component - 1);
        }
        ConnectivityReport {
            hosts_up: n,
            reachable_pairs: reachable,
            total_pairs: n * (n - 1),
        }
    }
}

impl fmt::Display for ConnectivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hosts up, {:.1}% pairs reachable",
            self.hosts_up,
            self.reachability() * 100.0
        )
    }
}

/// Convenience: the aggregation/core devices of a topology, the usual
/// failure-experiment targets.
pub fn aggregation_devices(topo: &Topology) -> Vec<DeviceId> {
    topo.devices_where(|k| matches!(k, DeviceKind::Aggregation | DeviceKind::Core))
        .map(|d| d.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fabric() -> Topology {
        Topology::multi_root_tree(4, 14, 2)
    }

    #[test]
    fn no_failures_full_reachability() {
        let topo = paper_fabric();
        let r = ConnectivityReport::measure(&topo);
        assert_eq!(r.hosts_up, 56);
        assert!((r.reachability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_aggregation_root_is_survivable_with_two_roots() {
        let topo = paper_fabric();
        let aggs = aggregation_devices(&topo);
        assert_eq!(aggs.len(), 2);
        let mut mask = FailureMask::none();
        mask.fail_device(aggs[0]);
        let degraded = mask.apply(&topo);
        let r = ConnectivityReport::measure(&degraded.topology);
        assert_eq!(r.hosts_up, 56);
        assert!(
            (r.reachability() - 1.0).abs() < 1e-12,
            "second root carries all"
        );
    }

    #[test]
    fn both_roots_down_partitions_racks() {
        let topo = paper_fabric();
        let mut mask = FailureMask::none();
        for agg in aggregation_devices(&topo) {
            mask.fail_device(agg);
        }
        let degraded = mask.apply(&topo);
        let r = ConnectivityReport::measure(&degraded.topology);
        assert_eq!(r.hosts_up, 56);
        // Only intra-rack pairs survive: 4 racks x 14 x 13 of 56 x 55.
        let expect = (4 * 14 * 13) as f64 / (56 * 55) as f64;
        assert!(
            (r.reachability() - expect).abs() < 1e-9,
            "{}",
            r.reachability()
        );
    }

    #[test]
    fn single_root_tree_is_fragile() {
        let topo = Topology::multi_root_tree(4, 14, 1);
        let mut mask = FailureMask::none();
        mask.fail_device(aggregation_devices(&topo)[0]);
        let r = ConnectivityReport::measure(&mask.apply(&topo).topology);
        assert!(r.reachability() < 0.25, "one-root tree partitions");
    }

    #[test]
    fn fat_tree_tolerates_a_core_switch() {
        let topo = Topology::fat_tree(4);
        let cores = aggregation_devices(&topo);
        let mut mask = FailureMask::none();
        // Fail one *core* switch (kind Core appears in the list).
        let core = topo
            .devices_where(|k| matches!(k, DeviceKind::Core))
            .next()
            .expect("fat tree has cores")
            .id;
        mask.fail_device(core);
        let r = ConnectivityReport::measure(&mask.apply(&topo).topology);
        assert!((r.reachability() - 1.0).abs() < 1e-12);
        assert!(!cores.is_empty());
    }

    #[test]
    fn access_link_failure_strands_one_host() {
        let topo = paper_fabric();
        let host = topo.hosts().next().expect("has hosts").id;
        let access = topo.neighbours(host)[0].1;
        let mut mask = FailureMask::none();
        mask.fail_link(access);
        let degraded = mask.apply(&topo);
        let r = ConnectivityReport::measure(&degraded.topology);
        // The host is present but unreachable.
        assert_eq!(r.hosts_up, 56);
        let expect = (55 * 54) as f64 / (56 * 55) as f64;
        assert!((r.reachability() - expect).abs() < 1e-9);
    }

    #[test]
    fn repair_restores() {
        let topo = paper_fabric();
        let link = topo.links()[0].id;
        let mut mask = FailureMask::none();
        mask.fail_link(link);
        assert!(!mask.link_up(&topo, link));
        mask.repair_link(link);
        assert!(mask.link_up(&topo, link));
        let dev = topo.devices()[0].id;
        mask.fail_device(dev);
        assert!(!mask.device_up(dev));
        mask.repair_device(dev);
        assert!(mask.device_up(dev));
    }

    #[test]
    fn translation_maps_survivors() {
        let topo = paper_fabric();
        let victim = aggregation_devices(&topo)[0];
        let mut mask = FailureMask::none();
        mask.fail_device(victim);
        let degraded = mask.apply(&topo);
        assert_eq!(degraded.translate(victim), None);
        let survivor = topo.hosts().next().expect("hosts").id;
        let new = degraded.translate(survivor).expect("host survived");
        assert_eq!(
            degraded.topology.device(new).name,
            topo.device(survivor).name
        );
    }

    #[test]
    fn display_forms() {
        let mut mask = FailureMask::none();
        mask.fail_link(LinkId(0));
        assert!(mask.to_string().contains("1 failed link"));
        let r = ConnectivityReport::measure(&paper_fabric());
        assert!(r.to_string().contains("100.0% pairs"));
    }
}
