//! Path selection.
//!
//! The paper's fabric is "fully programmable" through OpenFlow; the
//! forwarding behaviours the reproduction needs are (a) deterministic
//! single shortest-path routing (what a spanning tree would give the
//! original Ethernet fabric) and (b) ECMP across all equal-cost shortest
//! paths (what the SDN controller installs in the fat-tree). The
//! [`Router`] computes candidate paths lazily per `(src, dst)` pair and
//! picks deterministically per flow.
//!
//! Every pair's candidates live in one flat path arena, appended by the
//! pruned depth-first walk behind [`graph::all_shortest_paths`] the first
//! time the pair is asked for; a path is named by its index in the
//! arena ([`Router::route`], [`Router::path`]). A pair is found through
//! a per-source row indexed by destination, allocated when the source
//! is first routed from, so a warm lookup is two index operations and
//! allocates nothing. The walk needs the BFS hop distances from both
//! endpoints; the router keeps one such row per endpoint device it has
//! seen, so routing every pair among `n` hosts takes `n` BFS passes
//! rather than two per pair. The rows and paths describe the topology
//! they were computed on; [`Router::invalidate`] drops them all.

use crate::flow::FlowId;
use crate::graph::{self, PathWalk};
use crate::lists::FlatLists;
use crate::topology::{DeviceId, LinkId, Topology};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// A pair-row entry for a pair whose candidates are not computed yet.
const UNROUTED: (u32, u32) = (u32::MAX, u32::MAX);

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
/// let chosen = router.route(&topo, hosts[0], hosts[3], FlowId(1)).unwrap();
/// assert!(router.candidates(&topo, hosts[0], hosts[3]).contains(&chosen));
/// assert!(!router.path(chosen).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    /// Every candidate path of every pair computed so far, one list of
    /// links each: the path arena.
    paths: FlatLists<LinkId>,
    /// The walk that appends a pair's candidates to `paths`.
    walk: PathWalk,
    /// Per source device, a row indexed by destination device holding
    /// the pair's candidates as a `start..end` range of arena indices,
    /// or [`UNROUTED`]; an empty row is not allocated yet.
    pairs: Vec<Vec<(u32, u32)>>,
    /// BFS hop distances from each endpoint device, indexed by device;
    /// an empty row is not computed yet.
    rows: Vec<Vec<u32>>,
}

impl Router {
    /// Creates a router with the given policy.
    pub fn new(policy: RoutingPolicy) -> Self {
        Router {
            policy,
            paths: FlatLists::default(),
            walk: PathWalk::default(),
            pairs: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Chooses a path for `flow` from `src` to `dst` and returns its
    /// index for [`Router::path`], or `None` if unreachable. Results are
    /// deterministic in `(src, dst, flow)`.
    pub fn route(
        &mut self,
        topo: &Topology,
        src: DeviceId,
        dst: DeviceId,
        flow: FlowId,
    ) -> Option<usize> {
        let candidates = self.candidates(topo, src, dst);
        if candidates.is_empty() {
            return None;
        }
        let pick = match self.policy {
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
        Some(candidates.start + pick)
    }

    /// The links of the path at `index`, as returned by
    /// [`Router::route`] or within [`Router::candidates`], in order from
    /// its source.
    ///
    /// # Panics
    ///
    /// If no path has that index (a stale index after
    /// [`Router::invalidate`], or one from another router).
    pub fn path(&self, index: usize) -> &[LinkId] {
        self.paths.get(index)
    }

    /// The indices of every candidate path for a pair (computed on first
    /// use): exactly [`graph::all_shortest_paths`] at the policy's path
    /// limit, in the same order.
    pub fn candidates(&mut self, topo: &Topology, src: DeviceId, dst: DeviceId) -> Range<usize> {
        let n = topo.devices().len();
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
            self.pairs.resize_with(n, Vec::new);
        }
        let row = &mut self.pairs[src.index()];
        if row.is_empty() {
            *row = vec![UNROUTED; n];
        }
        let (start, end) = row[dst.index()];
        if (start, end) != UNROUTED {
            return start as usize..end as usize;
        }
        let limit = match self.policy {
            RoutingPolicy::SingleShortest => 1,
            RoutingPolicy::Ecmp { max_paths } => max_paths.max(1),
        };
        for end in [src, dst] {
            if self.rows[end.index()].is_empty() {
                self.rows[end.index()] = graph::bfs_distances(topo, end);
            }
        }
        let start = self.paths.len();
        self.walk.append(
            topo,
            (src, &self.rows[src.index()]),
            (dst, &self.rows[dst.index()]),
            limit,
            &mut self.paths,
        );
        let end = self.paths.len();
        self.pairs[src.index()][dst.index()] = (start as u32, end as u32);
        start..end
    }

    /// Discards every path, pair row and BFS row; call after the
    /// topology changes (a re-cable, a link failure).
    pub fn invalidate(&mut self) {
        self.paths.clear();
        self.pairs.clear();
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{DeviceKind, Topology};
    use std::collections::BTreeSet;

    /// The links of every candidate `router` holds for `(a, b)`.
    fn candidate_paths(
        router: &mut Router,
        topo: &Topology,
        a: DeviceId,
        b: DeviceId,
    ) -> Vec<Vec<LinkId>> {
        let candidates = router.candidates(topo, a, b);
        candidates.map(|i| router.path(i).to_vec()).collect()
    }

    /// The links of the path `router` picks for `flow` from `a` to `b`.
    fn routed(
        router: &mut Router,
        topo: &Topology,
        a: DeviceId,
        b: DeviceId,
        flow: u64,
    ) -> Option<Vec<LinkId>> {
        let chosen = router.route(topo, a, b, FlowId(flow))?;
        Some(router.path(chosen).to_vec())
    }

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
                    candidate_paths(router, topo, a, b),
                    graph::all_shortest_paths(topo, a, b, limit),
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
        assert_eq!(router.candidates(&topo, hosts[0], hosts[1]).len(), 1);
    }

    #[test]
    fn ecmp_spreads_flows_across_roots() {
        let topo = Topology::multi_root_tree(2, 1, 4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut router = Router::new(RoutingPolicy::Ecmp { max_paths: 8 });
        let used: BTreeSet<Vec<LinkId>> = (0..64)
            .map(|i| routed(&mut router, &topo, hosts[0], hosts[1], i).unwrap())
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
                routed(&mut r1, &topo, hosts[0], hosts[15], i),
                routed(&mut r2, &topo, hosts[0], hosts[15], i)
            );
        }
    }

    #[test]
    fn each_pair_is_walked_once() {
        // Flows of a warm pair pick among the pair's first candidates;
        // nothing is appended for them, and a new pair's paths follow.
        let topo = Topology::fat_tree(4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut router = Router::new(RoutingPolicy::default());
        let there = router.candidates(&topo, hosts[0], hosts[15]);
        assert_eq!(there, 0..4);
        for flow in 0..64 {
            let chosen = router.route(&topo, hosts[0], hosts[15], FlowId(flow));
            assert!(there.contains(&chosen.unwrap()));
        }
        assert_eq!(router.candidates(&topo, hosts[0], hosts[15]), there);
        assert_eq!(router.candidates(&topo, hosts[15], hosts[0]), 4..8);
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
        // return identical paths for every (src, dst, flow), whatever
        // order their arenas filled in.
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
                        routed(&mut r1, &topo, a, b, flow),
                        routed(&mut r2, &topo, a, b, flow),
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
                assert_eq!(
                    candidate_paths(&mut router, &topo, island, island),
                    [Vec::new()]
                );
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
