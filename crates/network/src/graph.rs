//! Graph algorithms over a [`Topology`].
//!
//! Everything here is exact (no heuristics): BFS shortest paths for routing,
//! Dinic's max-flow for bisection bandwidth, and edge-disjoint path counting
//! for the redundancy comparison between the multi-root tree and the
//! fat-tree re-cable.

use crate::lists::FlatLists;
use crate::topology::{DeviceId, LinkId, Topology};
use picloud_simcore::units::Bandwidth;
use std::collections::VecDeque;

/// Whether every device can reach every other device.
pub fn is_connected(topo: &Topology) -> bool {
    let n = topo.devices().len();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([DeviceId(0)]);
    // seen is sized to the device count and src is validated by the caller
    seen[0] = true;
    let mut count = 1;
    while let Some(d) = queue.pop_front() {
        for &(next, _) in topo.neighbours(d) {
            if !seen[next.index()] {
                seen[next.index()] = true;
                count += 1;
                queue.push_back(next);
            }
        }
    }
    count == n
}

/// BFS distances (in hops) from `src` to every device; `u32::MAX` when
/// unreachable.
pub fn bfs_distances(topo: &Topology, src: DeviceId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.devices().len()];
    dist[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(d) = queue.pop_front() {
        for &(next, _) in topo.neighbours(d) {
            if dist[next.index()] == u32::MAX {
                dist[next.index()] = dist[d.index()] + 1;
                queue.push_back(next);
            }
        }
    }
    dist
}

/// One shortest path from `src` to `dst` as a sequence of links, or `None`
/// if unreachable. Ties are broken deterministically by link id.
pub fn shortest_path(topo: &Topology, src: DeviceId, dst: DeviceId) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    let dist = bfs_distances(topo, src);
    if dist[dst.index()] == u32::MAX {
        return None;
    }
    // Walk backwards from dst choosing the lowest-id link to a predecessor.
    let mut path = Vec::new();
    let mut cur = dst;
    while cur != src {
        let d = dist[cur.index()];
        let mut best: Option<(LinkId, DeviceId)> = None;
        for &(prev, link) in topo.neighbours(cur) {
            if dist[prev.index()] + 1 == d {
                match best {
                    Some((bl, _)) if bl <= link => {}
                    _ => best = Some((link, prev)),
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "BFS invariant: every settled node recorded a predecessor when first reached"
        )]
        let (link, prev) = best.expect("BFS predecessor must exist");
        path.push(link);
        cur = prev;
    }
    path.reverse();
    Some(path)
}

/// All shortest paths from `src` to `dst`, capped at `limit` paths to keep
/// enumeration bounded in rich fabrics. Paths are produced in a
/// deterministic (link-id lexicographic) order.
pub fn all_shortest_paths(
    topo: &Topology,
    src: DeviceId,
    dst: DeviceId,
    limit: usize,
) -> Vec<Vec<LinkId>> {
    let dist = bfs_distances(topo, src);
    let rdist = bfs_distances(topo, dst);
    let mut paths = FlatLists::default();
    PathWalk::default().append(topo, (src, &dist), (dst, &rdist), limit, &mut paths);
    (0..paths.len()).map(|i| paths.get(i).to_vec()).collect()
}

/// The pruned depth-first walk behind [`all_shortest_paths`] and the
/// [`crate::routing::Router`]'s path arena. Its buffers are kept
/// between walks, so once they have grown a walk allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathWalk {
    /// The links of the current partial path.
    stack: Vec<LinkId>,
    /// The candidate next hops of every open level, one segment per
    /// level, so the walk allocates no per-node list.
    nexts: Vec<(DeviceId, LinkId)>,
}

/// What one walk looks for: shortest paths to `dst`, `total` hops long,
/// until `until` paths are stored.
struct Goal<'a> {
    topo: &'a Topology,
    dist: &'a [u32],
    rdist: &'a [u32],
    total: u32,
    dst: DeviceId,
    until: usize,
}

impl PathWalk {
    /// Appends to `out`, one list each, the shortest paths from `src` to
    /// `dst`, at most `limit` of them, in link-id lexicographic order.
    /// Each endpoint comes with its [`bfs_distances`] row: a caller that
    /// keeps one row per endpoint (the router) routes every pair among
    /// `n` endpoints with `n` BFS passes instead of two per pair. A
    /// device's one path to itself is empty.
    pub(crate) fn append(
        &mut self,
        topo: &Topology,
        (src, dist): (DeviceId, &[u32]),
        (dst, rdist): (DeviceId, &[u32]),
        limit: usize,
        out: &mut FlatLists<LinkId>,
    ) {
        if src == dst {
            out.close();
            return;
        }
        let total = dist[dst.index()];
        if total == u32::MAX || limit == 0 {
            return;
        }
        let goal = Goal {
            topo,
            dist,
            rdist,
            total,
            dst,
            until: out.len().saturating_add(limit),
        };
        self.walk(&goal, src, out);
    }

    /// The walk forward along strictly-increasing BFS levels. Reverse
    /// distances prune branches that cannot lie on any shortest path (a
    /// node is on one iff dist_src + dist_dst == total). Without this the
    /// walk visits every strictly-increasing path in the graph — on a
    /// k=16 fat-tree a same-rack pair explores ~60k dead-end paths
    /// through the core before giving up. The pruned branches yield no
    /// paths, so the paths and their order are those of the full walk.
    fn walk(&mut self, goal: &Goal<'_>, cur: DeviceId, out: &mut FlatLists<LinkId>) {
        if out.len() >= goal.until {
            return;
        }
        if cur == goal.dst {
            for &link in &self.stack {
                out.push(link);
            }
            out.close();
            return;
        }
        // Deterministic order: sort candidate edges by link id.
        let (dist, rdist, total) = (goal.dist, goal.rdist, goal.total);
        let base = self.nexts.len();
        self.nexts
            .extend(goal.topo.neighbours(cur).iter().copied().filter(|(n, _)| {
                dist[n.index()] == dist[cur.index()] + 1
                    && rdist[n.index()] != u32::MAX
                    && dist[n.index()] + rdist[n.index()] == total
            }));
        self.nexts[base..].sort_by_key(|&(_, l)| l);
        // Each deeper level truncates its own segment before returning,
        // so this level's candidates stay at `base..end`.
        let end = self.nexts.len();
        for k in base..end {
            let (next, link) = self.nexts[k];
            self.stack.push(link);
            self.walk(goal, next, out);
            self.stack.pop();
        }
        self.nexts.truncate(base);
    }
}

/// One shortest path from `src` to `dst` that avoids every link in
/// `dead`, or `None` if no such path exists. Used by the SDN controller's
/// failure recovery.
pub fn shortest_path_avoiding(
    topo: &Topology,
    src: DeviceId,
    dst: DeviceId,
    dead: &std::collections::BTreeSet<LinkId>,
) -> Option<Vec<LinkId>> {
    if src == dst {
        return Some(Vec::new());
    }
    // BFS with dead links skipped; track predecessor links.
    let n = topo.devices().len();
    let mut dist = vec![u32::MAX; n];
    let mut pred: Vec<Option<(DeviceId, LinkId)>> = vec![None; n];
    dist[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(d) = queue.pop_front() {
        if d == dst {
            break;
        }
        // Deterministic expansion order by link id.
        let mut nexts: Vec<(DeviceId, LinkId)> = topo
            .neighbours(d)
            .iter()
            .copied()
            .filter(|(_, l)| !dead.contains(l))
            .collect();
        nexts.sort_by_key(|&(_, l)| l);
        for (next, link) in nexts {
            if dist[next.index()] == u32::MAX {
                dist[next.index()] = dist[d.index()] + 1;
                pred[next.index()] = Some((d, link));
                queue.push_back(next);
            }
        }
    }
    if dist[dst.index()] == u32::MAX {
        return None;
    }
    let mut path = Vec::new();
    let mut cur = dst;
    while cur != src {
        #[expect(
            clippy::expect_used,
            reason = "BFS invariant: nodes on a reconstructed path were reached, so have predecessors"
        )]
        let (prev, link) = pred[cur.index()].expect("reached nodes have predecessors");
        path.push(link);
        cur = prev;
    }
    path.reverse();
    Some(path)
}

/// Maximum flow between two *sets* of hosts, in link-capacity units —
/// the bisection-bandwidth primitive. Each link contributes its capacity
/// in each direction (full-duplex).
pub fn max_flow_between_sets(
    topo: &Topology,
    sources: &[DeviceId],
    sinks: &[DeviceId],
) -> Bandwidth {
    if sources.is_empty() || sinks.is_empty() {
        return Bandwidth::ZERO;
    }
    let n = topo.devices().len();
    // Dinic over an expanded graph: node indices 0..n, super-source n,
    // super-sink n+1.
    let mut dinic = Dinic::new(n + 2);
    for link in topo.links() {
        let c = link.capacity.as_bps();
        dinic.add_edge(link.a.index(), link.b.index(), c);
        dinic.add_edge(link.b.index(), link.a.index(), c);
    }
    for s in sources {
        dinic.add_edge(n, s.index(), u64::MAX / 4);
    }
    for t in sinks {
        dinic.add_edge(t.index(), n + 1, u64::MAX / 4);
    }
    Bandwidth::bps(dinic.max_flow(n, n + 1))
}

/// Number of edge-disjoint paths between two devices (unit-capacity
/// max-flow) — the fault-tolerance measure for the Fig. 2 comparison.
pub fn edge_disjoint_paths(topo: &Topology, src: DeviceId, dst: DeviceId) -> u64 {
    if src == dst {
        return 0;
    }
    let n = topo.devices().len();
    let mut dinic = Dinic::new(n);
    for link in topo.links() {
        dinic.add_edge(link.a.index(), link.b.index(), 1);
        dinic.add_edge(link.b.index(), link.a.index(), 1);
    }
    dinic.max_flow(src.index(), dst.index())
}

/// Dinic's maximum-flow algorithm on an adjacency-list residual graph.
struct Dinic {
    // Edge arrays: to[e], cap[e]; reverse edge is e ^ 1.
    to: Vec<usize>,
    cap: Vec<u64>,
    head: Vec<Vec<usize>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(n: usize) -> Self {
        Dinic {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: u64) {
        let e = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
        self.head[from].push(e);
        self.to.push(from);
        self.cap.push(0);
        self.head[to].push(e + 1);
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = VecDeque::from([s]);
        self.level[s] = 0;
        while let Some(v) = queue.pop_front() {
            for &e in &self.head[v] {
                if self.cap[e] > 0 && self.level[self.to[e]] < 0 {
                    self.level[self.to[e]] = self.level[v] + 1;
                    queue.push_back(self.to[e]);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, f: u64) -> u64 {
        if v == t {
            return f;
        }
        while self.iter[v] < self.head[v].len() {
            let e = self.head[v][self.iter[v]];
            let u = self.to[e];
            if self.cap[e] > 0 && self.level[u] == self.level[v] + 1 {
                let d = self.dfs(u, t, f.min(self.cap[e]));
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        let mut flow = 0u64;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, u64::MAX);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{DeviceKind, Topology};
    use picloud_simcore::units::Bandwidth;
    use picloud_simcore::SimDuration;

    fn line3() -> (Topology, DeviceId, DeviceId, DeviceId) {
        let mut t = Topology::new("line");
        let a = t.add_device(DeviceKind::Host { rack: 0 }, "a");
        let b = t.add_device(DeviceKind::TopOfRack { rack: 0 }, "b");
        let c = t.add_device(DeviceKind::Host { rack: 0 }, "c");
        t.add_link(a, b, Bandwidth::mbps(100), SimDuration::ZERO);
        t.add_link(b, c, Bandwidth::mbps(100), SimDuration::ZERO);
        (t, a, b, c)
    }

    #[test]
    fn connectivity() {
        let (t, ..) = line3();
        assert!(is_connected(&t));
        let mut disconnected = Topology::new("disc");
        disconnected.add_device(DeviceKind::Gateway, "g1");
        disconnected.add_device(DeviceKind::Gateway, "g2");
        assert!(!is_connected(&disconnected));
        assert!(is_connected(&Topology::new("empty")));
    }

    #[test]
    fn shortest_path_on_line() {
        let (t, a, _, c) = line3();
        let p = shortest_path(&t, a, c).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(shortest_path(&t, a, a), Some(vec![]));
    }

    #[test]
    fn shortest_path_unreachable_is_none() {
        let mut t = Topology::new("disc");
        let a = t.add_device(DeviceKind::Gateway, "g1");
        let b = t.add_device(DeviceKind::Gateway, "g2");
        assert_eq!(shortest_path(&t, a, b), None);
    }

    #[test]
    fn all_shortest_paths_in_multiroot_tree() {
        // 2 roots => two equal-cost ToR-to-ToR paths.
        let t = Topology::multi_root_tree(2, 1, 2);
        let hosts: Vec<DeviceId> = t.hosts().map(|h| h.id).collect();
        let paths = all_shortest_paths(&t, hosts[0], hosts[1], 16);
        assert_eq!(paths.len(), 2, "one path per aggregation root");
        for p in &paths {
            assert_eq!(p.len(), 4, "host-tor-agg-tor-host");
        }
        // Paths are distinct.
        assert_ne!(paths[0], paths[1]);
    }

    #[test]
    fn all_shortest_paths_respects_limit() {
        let t = Topology::multi_root_tree(2, 1, 4);
        let hosts: Vec<DeviceId> = t.hosts().map(|h| h.id).collect();
        let paths = all_shortest_paths(&t, hosts[0], hosts[1], 3);
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn avoiding_dead_links_detours_or_fails() {
        use std::collections::BTreeSet;
        let t = Topology::multi_root_tree(2, 1, 2);
        let hosts: Vec<DeviceId> = t.hosts().map(|h| h.id).collect();
        let free = shortest_path(&t, hosts[0], hosts[1]).unwrap();
        // Avoiding nothing matches plain BFS length.
        let same = shortest_path_avoiding(&t, hosts[0], hosts[1], &BTreeSet::new()).unwrap();
        assert_eq!(same.len(), free.len());
        // Kill the second hop: the detour through the other root is found.
        let mut dead = BTreeSet::new();
        dead.insert(free[1]);
        let detour = shortest_path_avoiding(&t, hosts[0], hosts[1], &dead).unwrap();
        assert!(!detour.contains(&free[1]));
        assert_eq!(detour.len(), free.len(), "other root, same length");
        // Kill the access link: no path at all.
        dead.insert(free[0]);
        assert_eq!(shortest_path_avoiding(&t, hosts[0], hosts[1], &dead), None);
        // Trivial self path.
        assert_eq!(
            shortest_path_avoiding(&t, hosts[0], hosts[0], &dead),
            Some(vec![])
        );
    }

    #[test]
    fn max_flow_simple_bottleneck() {
        let (t, a, _, c) = line3();
        let f = max_flow_between_sets(&t, &[a], &[c]);
        assert_eq!(f, Bandwidth::mbps(100));
    }

    #[test]
    fn max_flow_empty_sets() {
        let (t, a, ..) = line3();
        assert_eq!(max_flow_between_sets(&t, &[], &[a]), Bandwidth::ZERO);
    }

    #[test]
    fn edge_disjoint_counts_roots() {
        // Host-to-host redundancy is limited by the single access link.
        let t = Topology::multi_root_tree(2, 1, 2);
        let hosts: Vec<DeviceId> = t.hosts().map(|h| h.id).collect();
        assert_eq!(edge_disjoint_paths(&t, hosts[0], hosts[1]), 1);
        // ToR-to-ToR enjoys one path per root.
        let tors: Vec<DeviceId> = t
            .devices_where(|k| matches!(k, DeviceKind::TopOfRack { .. }))
            .map(|d| d.id)
            .collect();
        assert_eq!(edge_disjoint_paths(&t, tors[0], tors[1]), 2);
    }

    #[test]
    fn fat_tree_tor_redundancy_exceeds_tree() {
        let tree = Topology::multi_root_tree(4, 4, 1);
        let fat = Topology::fat_tree(4);
        let tor_pair = |t: &Topology| {
            let tors: Vec<DeviceId> = t
                .devices_where(|k| matches!(k, DeviceKind::TopOfRack { .. }))
                .map(|d| d.id)
                .collect();
            (tors[0], *tors.last().unwrap())
        };
        let (a1, b1) = tor_pair(&tree);
        let (a2, b2) = tor_pair(&fat);
        assert!(edge_disjoint_paths(&fat, a2, b2) > edge_disjoint_paths(&tree, a1, b1));
    }

    #[test]
    fn bfs_distance_levels() {
        let t = Topology::multi_root_tree(4, 14, 2);
        let gw = t
            .devices_where(|k| matches!(k, DeviceKind::Gateway))
            .next()
            .unwrap()
            .id;
        let dist = bfs_distances(&t, gw);
        // gateway -> agg (1) -> tor (2) -> host (3).
        for h in t.hosts() {
            assert_eq!(dist[h.id.index()], 3);
        }
    }
}
