//! Path selection.
//!
//! The paper's fabric is "fully programmable" through OpenFlow; the
//! forwarding behaviours the reproduction needs are (a) deterministic
//! single shortest-path routing (what a spanning tree would give the
//! original Ethernet fabric) and (b) ECMP across all equal-cost shortest
//! paths (what the SDN controller installs in the fat-tree). The
//! [`Router`] precomputes candidate paths lazily per `(src, dst)` pair and
//! picks deterministically per flow.
//!
//! Candidates come from the pruned depth-first walk behind
//! [`graph::all_shortest_paths`], which needs the BFS hop distances from
//! both endpoints. The router keeps one such distance row per endpoint
//! device it has seen, so a cold pair costs only the walk once both of
//! its rows exist: routing every pair among `n` hosts takes `n` BFS
//! passes rather than two per pair. The rows describe the topology they
//! were computed on; [`Router::invalidate`] drops them with the path
//! cache.

use crate::flow::FlowId;
use crate::graph;
use crate::topology::{DeviceId, LinkId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How paths are chosen for flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Always the single lowest-link-id shortest path — models a spanning
    /// tree / static routing fabric with no multipath.
    SingleShortest,
    /// Equal-cost multipath over all shortest paths (up to the cap),
    /// selected by a deterministic hash of the flow id.
    Ecmp {
        /// Maximum equal-cost paths to enumerate per pair.
        max_paths: usize,
    },
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        RoutingPolicy::Ecmp { max_paths: 16 }
    }
}

/// A path cache + selector over one topology.
///
/// # Example
///
/// ```
/// use picloud_network::routing::{Router, RoutingPolicy};
/// use picloud_network::topology::Topology;
/// use picloud_network::flow::FlowId;
///
/// let topo = Topology::multi_root_tree(2, 2, 2);
/// let mut router = Router::new(RoutingPolicy::default());
/// let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
/// let path = router.route(&topo, hosts[0], hosts[3], FlowId(1)).unwrap();
/// assert!(!path.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    // BTreeMap, not HashMap: the cache is simulation-visible state and
    // its iteration order must never leak into route selection (D1).
    cache: BTreeMap<(DeviceId, DeviceId), Vec<Vec<LinkId>>>,
    /// BFS hop distances from each endpoint device, indexed by device;
    /// an empty row is not computed yet.
    rows: Vec<Vec<u32>>,
}

impl Router {
    /// Creates a router with the given policy.
    pub fn new(policy: RoutingPolicy) -> Self {
        Router {
            policy,
            cache: BTreeMap::new(),
            rows: Vec::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Chooses a path for `flow` from `src` to `dst`, or `None` if
    /// unreachable. Results are deterministic in `(src, dst, flow)`.
    pub fn route(
        &mut self,
        topo: &Topology,
        src: DeviceId,
        dst: DeviceId,
        flow: FlowId,
    ) -> Option<Vec<LinkId>> {
        let policy = self.policy;
        let candidates = self.candidates(topo, src, dst);
        if candidates.is_empty() {
            return None;
        }
        let pick = match policy {
            RoutingPolicy::SingleShortest => 0,
            RoutingPolicy::Ecmp { .. } => {
                // SplitMix64 over the flow id: cheap, deterministic, well
                // mixed — stands in for the 5-tuple hash real switches use.
                let mut z = flow.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                (z % candidates.len() as u64) as usize
            }
        };
        Some(candidates[pick].clone())
    }

    /// All candidate paths for a pair (cached after first computation):
    /// exactly [`graph::all_shortest_paths`] at the policy's path limit.
    pub fn candidates(&mut self, topo: &Topology, src: DeviceId, dst: DeviceId) -> &[Vec<LinkId>] {
        let limit = match self.policy {
            RoutingPolicy::SingleShortest => 1,
            RoutingPolicy::Ecmp { max_paths } => max_paths.max(1),
        };
        let Router { cache, rows, .. } = self;
        cache.entry((src, dst)).or_insert_with(|| {
            if rows.len() < topo.devices().len() {
                rows.resize_with(topo.devices().len(), Vec::new);
            }
            for end in [src, dst] {
                if rows[end.index()].is_empty() {
                    rows[end.index()] = graph::bfs_distances(topo, end);
                }
            }
            graph::shortest_paths_from_rows(
                topo,
                src,
                dst,
                &rows[src.index()],
                &rows[dst.index()],
                limit,
            )
        })
    }

    /// Discards the path cache and the BFS rows; call after the topology
    /// changes (a re-cable, a link failure).
    pub fn invalidate(&mut self) {
        self.cache.clear();
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{DeviceKind, Topology};
    use std::collections::BTreeSet;

    /// Asserts `router`, whose policy allows `limit` paths, answers every
    /// pair of `hosts` on `topo` exactly as `graph::all_shortest_paths`
    /// does.
    fn assert_candidates_match(
        router: &mut Router,
        topo: &Topology,
        hosts: &[DeviceId],
        limit: usize,
    ) {
        for &a in hosts {
            for &b in hosts {
                assert_eq!(
                    router.candidates(topo, a, b),
                    graph::all_shortest_paths(topo, a, b, limit).as_slice(),
                    "{}: pair ({a:?}, {b:?}) at limit {limit}",
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn single_shortest_is_stable_across_flows() {
        let topo = Topology::multi_root_tree(2, 1, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut router = Router::new(RoutingPolicy::SingleShortest);
        let p1 = router.route(&topo, hosts[0], hosts[1], FlowId(1)).unwrap();
        let p2 = router
            .route(&topo, hosts[0], hosts[1], FlowId(999))
            .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn ecmp_spreads_flows_across_roots() {
        let topo = Topology::multi_root_tree(2, 1, 4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut router = Router::new(RoutingPolicy::Ecmp { max_paths: 8 });
        let used: BTreeSet<Vec<LinkId>> = (0..64)
            .map(|i| router.route(&topo, hosts[0], hosts[1], FlowId(i)).unwrap())
            .collect();
        assert!(
            used.len() >= 3,
            "ECMP should hit several of the 4 paths, hit {}",
            used.len()
        );
    }

    #[test]
    fn route_is_deterministic_per_flow() {
        let topo = Topology::fat_tree(4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut r1 = Router::new(RoutingPolicy::default());
        let mut r2 = Router::new(RoutingPolicy::default());
        for i in 0..32 {
            assert_eq!(
                r1.route(&topo, hosts[0], hosts[15], FlowId(i)),
                r2.route(&topo, hosts[0], hosts[15], FlowId(i))
            );
        }
    }

    #[test]
    fn unreachable_returns_none() {
        let mut topo = Topology::new("disc");
        let a = topo.add_device(crate::topology::DeviceKind::Host { rack: 0 }, "a");
        let b = topo.add_device(crate::topology::DeviceKind::Host { rack: 1 }, "b");
        let mut router = Router::new(RoutingPolicy::default());
        assert_eq!(router.route(&topo, a, b, FlowId(0)), None);
    }

    #[test]
    fn fresh_routers_agree_on_all_pairs() {
        // Two routers built independently from the same topology must
        // return identical paths for every (src, dst, flow) — the D1
        // regression this file was converted to BTreeMap for.
        let topo = Topology::fat_tree(4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut r1 = Router::new(RoutingPolicy::default());
        let mut r2 = Router::new(RoutingPolicy::default());
        // Warm the two caches in opposite orders to expose any
        // insertion-order dependence.
        for &a in &hosts {
            for &b in &hosts {
                let _ = r1.candidates(&topo, a, b);
            }
        }
        for &a in hosts.iter().rev() {
            for &b in hosts.iter().rev() {
                let _ = r2.candidates(&topo, a, b);
            }
        }
        for &a in &hosts {
            for &b in &hosts {
                for flow in 0..4 {
                    assert_eq!(
                        r1.route(&topo, a, b, FlowId(flow)),
                        r2.route(&topo, a, b, FlowId(flow)),
                        "pair ({a:?}, {b:?}) flow {flow}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_rows_give_the_same_candidates_as_all_shortest_paths() {
        // The per-endpoint BFS rows change how a cold pair is computed,
        // never what it yields: on three fabrics, for every host pair
        // (a host to itself and a pair with no route among them) at
        // limits 1, 4 and 16, the router answers exactly what
        // `all_shortest_paths` does, in the same order.
        for mut topo in [
            Topology::multi_root_tree(4, 14, 2),
            Topology::fat_tree(4),
            Topology::leaf_spine(4, 6, 2),
        ] {
            let island = topo.add_device(DeviceKind::Host { rack: 99 }, "island");
            let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
            for (policy, limit) in [
                (RoutingPolicy::SingleShortest, 1),
                (RoutingPolicy::Ecmp { max_paths: 4 }, 4),
                (RoutingPolicy::Ecmp { max_paths: 16 }, 16),
            ] {
                let mut router = Router::new(policy);
                assert_candidates_match(&mut router, &topo, &hosts, limit);
                assert!(router.candidates(&topo, hosts[0], island).is_empty());
                assert_eq!(router.candidates(&topo, island, island), [Vec::new()]);
            }
        }
        // The sweep covers pairs with several equal-cost paths.
        let topo = Topology::fat_tree(4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut router = Router::new(RoutingPolicy::Ecmp { max_paths: 16 });
        assert_eq!(router.candidates(&topo, hosts[0], hosts[15]).len(), 4);
    }

    #[test]
    fn invalidated_router_answers_for_a_new_topology() {
        // Device ids restart at 0 on every topology, so a row or a path
        // kept across `invalidate` would answer for the old fabric.
        let tree = Topology::multi_root_tree(2, 3, 1);
        let fat = Topology::fat_tree(4);
        let hosts = |t: &Topology| t.hosts().map(|h| h.id).collect::<Vec<_>>();
        let mut router = Router::new(RoutingPolicy::Ecmp { max_paths: 16 });
        assert_candidates_match(&mut router, &tree, &hosts(&tree), 16);
        router.invalidate();
        assert_candidates_match(&mut router, &fat, &hosts(&fat), 16);
        router.invalidate();
        assert_candidates_match(&mut router, &tree, &hosts(&tree), 16);
    }

    #[test]
    fn invalidate_clears_cache() {
        let topo = Topology::multi_root_tree(2, 1, 1);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut router = Router::new(RoutingPolicy::SingleShortest);
        let _ = router.route(&topo, hosts[0], hosts[1], FlowId(0));
        router.invalidate();
        // Re-route still works after invalidation.
        assert!(router.route(&topo, hosts[0], hosts[1], FlowId(0)).is_some());
    }
}
