//! Route computation over an explicit [`Topology`].
//!
//! All routes are computed *at compile time* in the software-scheduled
//! network (paper §4.2 "Scheduled, Not Routed"), so this module is the only
//! place that ever makes a path decision — the simulator in `tsm-net` only
//! follows schedules that reference the paths produced here.
//!
//! Two families of routes are provided:
//!
//! * **minimal** paths ([`shortest_path`]): the ≤3-hop routes of the
//!   fully-connected-node regime and ≤5-hop routes of the rack Dragonfly
//!   (paper §2.2). The contract is the lexicographically smallest minimal
//!   path, ordering hops by their position in [`Topology::neighbors`] —
//!   what a forward BFS in adjacency order returns — computed by a
//!   bidirectional search whose per-call cost is the chips it visits, not
//!   the system size,
//! * **non-minimal** paths ([`edge_disjoint_paths`]): the path diversity
//!   unlocked by deterministic load-balancing (paper §4.3), computed as
//!   edge-disjoint alternatives so that spreading a tensor across them
//!   never double-books a cable.

use crate::{LinkId, Topology, TopologyError, TspId};
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::ops::Range;

/// A hop-by-hop path through the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The links traversed, in order.
    pub links: Vec<LinkId>,
    /// The TSPs visited, starting with the source and ending with the
    /// destination; `tsps.len() == links.len() + 1`.
    pub tsps: Vec<TspId>,
}

impl Path {
    /// Number of hops (links traversed).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Source TSP.
    pub fn source(&self) -> TspId {
        *self.tsps.first().expect("path has at least one TSP")
    }

    /// Destination TSP.
    pub fn dest(&self) -> TspId {
        *self.tsps.last().expect("path has at least one TSP")
    }

    /// Sum of base cable latencies along the path, in core cycles,
    /// excluding per-hop switching time.
    pub fn wire_latency_cycles(&self, topo: &Topology) -> u64 {
        self.links
            .iter()
            .map(|&l| topo.link(l).class.base_latency_cycles())
            .sum()
    }
}

/// Computes a minimal path from `from` to `to`, avoiding failed nodes.
///
/// Of all minimal paths it returns the lexicographically smallest one,
/// ordering each hop by its position in [`Topology::neighbors`] — exactly
/// the path a forward BFS with that neighbour order finds, so the same
/// topology always yields the same path. It is computed bidirectionally
/// (see [`shortest_path_avoiding`]). A zero-hop path is returned when
/// `from == to`; otherwise an endpoint outside the topology has no route.
pub fn shortest_path(topo: &Topology, from: TspId, to: TspId) -> Result<Path, TopologyError> {
    shortest_path_avoiding(topo, from, to, &HashSet::new())
}

/// Like [`shortest_path`] but treating the links in `excluded` as absent.
///
/// Failed chips other than the two endpoints are never traversed. The
/// search runs in three steps:
///
/// 1. BFS from both ends, expanding whichever frontier is smaller one full
///    layer at a time, until the layers meet at distance `d = a + b`;
/// 2. mark every chip on some minimal path by sweeping back from the
///    meeting layer on both sides, touching only marked chips' neighbours;
/// 3. walk greedily from `from`, taking at each step the first allowed
///    adjacency entry whose chip is marked at the next distance.
///
/// Scratch space is thread-local and epoch-stamped, so a call costs the
/// chips it visits, not `num_tsps`.
pub fn shortest_path_avoiding(
    topo: &Topology,
    from: TspId,
    to: TspId,
    excluded: &HashSet<LinkId>,
) -> Result<Path, TopologyError> {
    if from == to {
        return Ok(Path {
            links: Vec::new(),
            tsps: vec![from],
        });
    }
    if from.index().max(to.index()) >= topo.num_tsps() {
        return Err(TopologyError::NoRoute { from, to });
    }
    SEARCH.with(|s| s.borrow_mut().path(topo, from, to, excluded))
}

thread_local! {
    static SEARCH: RefCell<Search> = RefCell::new(Search::default());
}

/// One BFS side of the bidirectional search.
#[derive(Debug, Default)]
struct Side {
    /// Per chip: `(epoch, distance from this side's root)`; a slot counts
    /// only when its epoch is the current one.
    dist: Vec<(u32, u32)>,
    /// Visited chips in BFS order.
    order: Vec<TspId>,
    /// `levels[k]` is the index in `order` where distance `k` starts.
    levels: Vec<usize>,
}

impl Side {
    fn reset(&mut self, n: usize, root: TspId, epoch: u32) {
        if self.dist.len() < n {
            self.dist.resize(n, (0, 0));
        }
        self.dist[root.index()] = (epoch, 0);
        self.order.clear();
        self.order.push(root);
        self.levels.clear();
        self.levels.push(0);
    }

    fn dist(&self, t: TspId, epoch: u32) -> Option<u32> {
        let (e, d) = self.dist[t.index()];
        (e == epoch).then_some(d)
    }

    /// Distance of the frontier.
    fn depth(&self) -> u32 {
        self.levels.len() as u32 - 1
    }

    fn frontier(&self) -> &[TspId] {
        &self.order[self.levels[self.levels.len() - 1]..]
    }

    /// Adds the next full layer. Returns whether it reached a chip `other`
    /// has already visited.
    fn expand(&mut self, g: &Graph, other: &Side, epoch: u32) -> bool {
        let (start, end) = (self.levels[self.levels.len() - 1], self.order.len());
        let next = self.depth() + 1;
        self.levels.push(end);
        let mut met = false;
        for i in start..end {
            for &(lid, peer) in g.topo.neighbors(self.order[i]) {
                if self.dist(peer, epoch).is_some() || !g.allowed(lid) || !g.passable(peer) {
                    continue;
                }
                self.dist[peer.index()] = (epoch, next);
                self.order.push(peer);
                met |= other.dist(peer, epoch).is_some();
            }
        }
        met
    }
}

/// The graph a search runs over: the topology minus excluded links and
/// failed chips other than the endpoints.
struct Graph<'a> {
    topo: &'a Topology,
    excluded: &'a HashSet<LinkId>,
    from: TspId,
    to: TspId,
}

impl Graph<'_> {
    fn allowed(&self, lid: LinkId) -> bool {
        self.excluded.is_empty() || !self.excluded.contains(&lid)
    }

    fn passable(&self, t: TspId) -> bool {
        !self.topo.is_failed(t) || t == self.from || t == self.to
    }
}

/// Chips on some minimal path, each with its position along it.
#[derive(Debug, Default)]
struct Marks {
    /// Per chip: `(epoch, position)`.
    pos: Vec<(u32, u32)>,
    /// Marked chips, one position's worth after another.
    order: Vec<TspId>,
}

impl Marks {
    fn at(&self, t: TspId, epoch: u32) -> Option<u32> {
        let (e, p) = self.pos[t.index()];
        (e == epoch).then_some(p)
    }

    fn mark(&mut self, t: TspId, pos: u32, epoch: u32) {
        if self.at(t, epoch).is_none() {
            self.pos[t.index()] = (epoch, pos);
            self.order.push(t);
        }
    }

    /// Marks, at position `pos`, every chip `side` reached at distance
    /// `dist` that is linked to a chip of `level` (the marks one position
    /// nearer the meeting layer). Returns the new marks' range.
    fn sweep(
        &mut self,
        g: &Graph,
        side: &Side,
        level: Range<usize>,
        pos: u32,
        dist: u32,
        epoch: u32,
    ) -> Range<usize> {
        let start = self.order.len();
        for i in level {
            for &(lid, peer) in g.topo.neighbors(self.order[i]) {
                if g.allowed(lid) && side.dist(peer, epoch) == Some(dist) {
                    self.mark(peer, pos, epoch);
                }
            }
        }
        start..self.order.len()
    }
}

/// Reusable scratch of [`shortest_path_avoiding`].
#[derive(Debug, Default)]
struct Search {
    epoch: u32,
    fwd: Side,
    bwd: Side,
    marks: Marks,
}

impl Search {
    fn path(
        &mut self,
        topo: &Topology,
        from: TspId,
        to: TspId,
        excluded: &HashSet<LinkId>,
    ) -> Result<Path, TopologyError> {
        let g = Graph {
            topo,
            excluded,
            from,
            to,
        };
        if self.epoch == u32::MAX {
            // Stamps would alias after the wrap: forget them all, once
            // every four billion calls.
            *self = Search::default();
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let n = topo.num_tsps();
        let Search {
            fwd, bwd, marks, ..
        } = self;
        fwd.reset(n, from, epoch);
        bwd.reset(n, to, epoch);
        if marks.pos.len() < n {
            marks.pos.resize(n, (0, 0));
        }
        marks.order.clear();

        // 1. Meet in the middle, one full layer at a time.
        let fwd_met = loop {
            let grow_fwd = fwd.frontier().len() <= bwd.frontier().len();
            let (side, other) = if grow_fwd {
                (&mut *fwd, &*bwd)
            } else {
                (&mut *bwd, &*fwd)
            };
            if side.expand(&g, other, epoch) {
                break grow_fwd;
            }
            if side.frontier().is_empty() {
                return Err(TopologyError::NoRoute { from, to });
            }
        };
        let (a, b) = (fwd.depth(), bwd.depth());
        let d = a + b;

        // 2. Mark the minimal-path chips. The meeting layer sits at
        //    position `a`; sweep back to `from` over forward distances and
        //    on to `to` over backward distances.
        let (met, other, other_depth) = if fwd_met {
            (&*fwd, &*bwd, b)
        } else {
            (&*bwd, &*fwd, a)
        };
        for &t in met.frontier() {
            if other.dist(t, epoch) == Some(other_depth) {
                marks.mark(t, a, epoch);
            }
        }
        let meet = 0..marks.order.len();
        let mut level = meet.clone();
        for pos in (0..a).rev() {
            level = marks.sweep(&g, fwd, level, pos, pos, epoch);
        }
        let mut level = meet;
        for pos in a + 1..=d {
            level = marks.sweep(&g, bwd, level, pos, d - pos, epoch);
        }

        // 3. Greedy walk: the first allowed adjacency entry that stays on
        //    a minimal path is the lexicographically smallest next hop.
        let mut links = Vec::with_capacity(d as usize);
        let mut tsps = Vec::with_capacity(d as usize + 1);
        tsps.push(from);
        let mut cur = from;
        for pos in 1..=d {
            let &(lid, next) = topo
                .neighbors(cur)
                .iter()
                .find(|&&(lid, peer)| g.allowed(lid) && marks.at(peer, epoch) == Some(pos))
                .expect("every marked chip continues a minimal path");
            links.push(lid);
            tsps.push(next);
            cur = next;
        }
        debug_assert_eq!(cur, to);
        Ok(Path { links, tsps })
    }
}

/// Computes up to `k` pairwise edge-disjoint paths from `from` to `to`,
/// shortest first.
///
/// The first path is minimal; subsequent paths are the non-minimal
/// alternatives that deterministic load-balancing spreads vectors across
/// (paper §4.3). Within a fully-connected node this yields the 1 minimal +
/// up to 7 two-hop non-minimal paths of Fig 10.
pub fn edge_disjoint_paths(topo: &Topology, from: TspId, to: TspId, k: usize) -> Vec<Path> {
    let mut used = HashSet::new();
    let mut out = Vec::new();
    for _ in 0..k {
        match shortest_path_avoiding(topo, from, to, &used) {
            Ok(p) => {
                for &l in &p.links {
                    used.insert(l);
                }
                out.push(p);
            }
            Err(_) => break,
        }
    }
    out
}

/// Eccentricity of one TSP: the maximum minimal-hop distance to any other
/// (non-failed) TSP. The topology diameter is the maximum eccentricity; by
/// symmetry of the constructions it equals the eccentricity of TSP 0.
pub fn eccentricity(topo: &Topology, from: TspId) -> usize {
    let n = topo.num_tsps();
    let mut dist = vec![usize::MAX; n];
    dist[from.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(from);
    let mut max = 0;
    while let Some(t) = queue.pop_front() {
        for &(_, peer) in topo.neighbors(t) {
            if dist[peer.index()] != usize::MAX || topo.is_failed(peer) {
                continue;
            }
            dist[peer.index()] = dist[t.index()] + 1;
            max = max.max(dist[peer.index()]);
            queue.push_back(peer);
        }
    }
    max
}

/// Structural upper bound on minimal hop count for the regime.
///
/// Paper §2.2 quotes 1 within a node, 3 in the fully-connected-node regime
/// and 5 in the rack Dragonfly ("two in the source-rack, one global hop,
/// and two in the destination-rack"). The rack-regime figure counts
/// *chassis-level* hops; at TSP granularity a route may additionally need
/// up to one intra-node adjustment hop inside the source and destination
/// chassis to reach the specific TSP hosting the next cable, so the
/// TSP-level bound is 5 + 2 = 7. The other regimes need no adjustment hops
/// and their bounds are exact at TSP granularity.
pub fn diameter_bound(topo: &Topology) -> usize {
    match topo.regime() {
        crate::ScaleRegime::SingleNode => 1,
        crate::ScaleRegime::TorusNode => 4,
        crate::ScaleRegime::FullyConnectedNodes => 3,
        crate::ScaleRegime::RackDragonfly => 7,
    }
}

/// Chassis-level hop bound quoted by paper §2.2 (counts inter-node cables
/// plus one hop per rack traversal; excludes intra-node adjustment hops).
pub fn chassis_diameter_bound(topo: &Topology) -> usize {
    match topo.regime() {
        crate::ScaleRegime::SingleNode => 1,
        crate::ScaleRegime::TorusNode => 4,
        crate::ScaleRegime::FullyConnectedNodes => 3,
        crate::ScaleRegime::RackDragonfly => 5,
    }
}

/// Number of inter-node cables (intra-rack or inter-rack class) on a path —
/// the paper's chassis-level hop count.
pub fn inter_node_hops(topo: &Topology, path: &Path) -> usize {
    path.links
        .iter()
        .filter(|&&l| topo.link(l).is_global())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Topology};

    /// The forward BFS the bidirectional search replaced, kept as its
    /// oracle: neighbours in adjacency order, `to` claimed by its
    /// earliest-queued neighbour.
    fn reference_path(
        topo: &Topology,
        from: TspId,
        to: TspId,
        excluded: &HashSet<LinkId>,
    ) -> Result<Path, TopologyError> {
        if from == to {
            return Ok(Path {
                links: Vec::new(),
                tsps: vec![from],
            });
        }
        let n = topo.num_tsps();
        let mut prev: Vec<Option<(LinkId, TspId)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[from.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(t) = queue.pop_front() {
            for &(lid, peer) in topo.neighbors(t) {
                if seen[peer.index()] || excluded.contains(&lid) {
                    continue;
                }
                if topo.is_failed(peer) && peer != to {
                    continue;
                }
                seen[peer.index()] = true;
                prev[peer.index()] = Some((lid, t));
                if peer == to {
                    let mut links = Vec::new();
                    let mut tsps = vec![to];
                    let mut cur = to;
                    while cur != from {
                        let (lid, p) = prev[cur.index()].expect("BFS reached this TSP");
                        links.push(lid);
                        tsps.push(p);
                        cur = p;
                    }
                    links.reverse();
                    tsps.reverse();
                    return Ok(Path { links, tsps });
                }
                queue.push_back(peer);
            }
        }
        Err(TopologyError::NoRoute { from, to })
    }

    fn reference_disjoint(topo: &Topology, from: TspId, to: TspId, k: usize) -> Vec<Path> {
        let mut used = HashSet::new();
        let mut out = Vec::new();
        for _ in 0..k {
            let Ok(p) = reference_path(topo, from, to, &used) else {
                break;
            };
            used.extend(p.links.iter().copied());
            out.push(p);
        }
        out
    }

    /// splitmix64: a seeded stream for sampling pairs and fault sets.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn tsp(&mut self, topo: &Topology) -> TspId {
            TspId(self.below(topo.num_tsps()) as u32)
        }
    }

    /// Asserts the search matches the oracle on `pairs` random pairs plus
    /// the `from == to` case; returns how many pairs had no route.
    fn check_pairs(
        topo: &Topology,
        excluded: &HashSet<LinkId>,
        rng: &mut Rng,
        pairs: usize,
    ) -> usize {
        let mut no_route = 0;
        let same = rng.tsp(topo);
        for i in 0..=pairs {
            let (from, to) = if i == 0 {
                (same, same)
            } else {
                (rng.tsp(topo), rng.tsp(topo))
            };
            let want = reference_path(topo, from, to, excluded);
            no_route += usize::from(want.is_err());
            assert_eq!(
                shortest_path_avoiding(topo, from, to, excluded),
                want,
                "{from}->{to} on {:?}",
                topo.regime()
            );
        }
        no_route
    }

    fn every_builder() -> Vec<Topology> {
        let mut topos = vec![Topology::single_node(), Topology::torus_node()];
        topos.extend((2..=33).map(|n| Topology::fully_connected_nodes(n).unwrap()));
        topos.extend((2..=8).map(|r| Topology::rack_dragonfly(r).unwrap()));
        topos
    }

    #[test]
    fn matches_forward_bfs_on_every_builder() {
        let none = HashSet::new();
        for topo in [Topology::single_node(), Topology::torus_node()] {
            for from in topo.tsps() {
                for to in topo.tsps() {
                    assert_eq!(
                        shortest_path(&topo, from, to),
                        reference_path(&topo, from, to, &none)
                    );
                }
            }
        }
        let mut rng = Rng(1);
        for topo in every_builder() {
            assert_eq!(check_pairs(&topo, &none, &mut rng, 150), 0);
        }
    }

    #[test]
    fn matches_forward_bfs_around_failures_and_exclusions() {
        let mut rng = Rng(2);
        let mut no_route = 0;
        for (i, mut topo) in every_builder().into_iter().enumerate() {
            for round in 0..4 {
                for node in 0..topo.num_nodes() {
                    if rng.below(4) == 0 {
                        topo.fail_node(NodeId(node as u32));
                    }
                }
                // Sparser exclusions on the big fabrics, denser on the
                // small ones so that some pairs lose every route.
                let density = if i < 6 { 2 + round } else { 8 };
                let excluded: HashSet<LinkId> = (0..topo.links().len())
                    .filter(|_| rng.below(density) == 0)
                    .map(|l| LinkId(l as u32))
                    .collect();
                no_route += check_pairs(&topo, &excluded, &mut rng, 40);
                for node in 0..topo.num_nodes() {
                    topo.restore_node(NodeId(node as u32));
                }
            }
        }
        assert!(no_route > 0, "the sweep never exercised NoRoute");
    }

    #[test]
    fn matches_forward_bfs_at_max_scale() {
        let topo = Topology::rack_dragonfly(crate::MAX_RACKS).unwrap();
        let mut rng = Rng(3);
        assert_eq!(check_pairs(&topo, &HashSet::new(), &mut rng, 60), 0);
        // The half-stride pairs the co-simulation benchmark routes.
        let half = topo.num_tsps() as u32 / 2;
        for i in (0..half).step_by(173) {
            let (from, to) = (TspId(i), TspId(i + half));
            assert_eq!(
                shortest_path(&topo, from, to),
                reference_path(&topo, from, to, &HashSet::new())
            );
        }
    }

    #[test]
    fn edge_disjoint_paths_match_the_reference() {
        let mut rng = Rng(4);
        for topo in every_builder() {
            for _ in 0..6 {
                let (from, to) = (rng.tsp(&topo), rng.tsp(&topo));
                let k = 1 + rng.below(12);
                assert_eq!(
                    edge_disjoint_paths(&topo, from, to, k),
                    reference_disjoint(&topo, from, to, k)
                );
            }
        }
    }

    #[test]
    fn zero_hop_path_to_self() {
        let topo = Topology::single_node();
        let p = shortest_path(&topo, TspId(3), TspId(3)).unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), p.dest());
    }

    #[test]
    fn single_node_all_pairs_one_hop() {
        let topo = Topology::single_node();
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i == j {
                    continue;
                }
                let p = shortest_path(&topo, TspId(i), TspId(j)).unwrap();
                assert_eq!(p.hops(), 1, "{i}->{j}");
                assert_eq!(p.source(), TspId(i));
                assert_eq!(p.dest(), TspId(j));
            }
        }
        assert_eq!(eccentricity(&topo, TspId(0)), diameter_bound(&topo));
    }

    /// A TSP outside the topology is a typed error at either end, never an
    /// index panic; naming it at both ends is still the zero-hop path.
    #[test]
    fn endpoints_outside_the_topology_have_no_route() {
        let topo = Topology::single_node();
        for (from, to) in [(0, 999), (999, 0), (0, 8), (8, 7)] {
            let (from, to) = (TspId(from), TspId(to));
            assert_eq!(
                shortest_path(&topo, from, to),
                Err(TopologyError::NoRoute { from, to })
            );
        }
        assert_eq!(
            shortest_path(&topo, TspId(999), TspId(999)).unwrap().hops(),
            0
        );
    }

    #[test]
    fn fully_connected_nodes_diameter_three() {
        let topo = Topology::fully_connected_nodes(4).unwrap();
        assert!(eccentricity(&topo, TspId(0)) <= 3);
        let topo33 = Topology::fully_connected_nodes(33).unwrap();
        assert!(eccentricity(&topo33, TspId(0)) <= diameter_bound(&topo33));
    }

    #[test]
    fn rack_dragonfly_diameter_bounds() {
        let topo = Topology::rack_dragonfly(3).unwrap();
        let e = eccentricity(&topo, TspId(0));
        assert!(e <= diameter_bound(&topo), "eccentricity {e} > 7");
        // Chassis-level hops stay within the paper's 5-hop budget: check a
        // far pair (rack 0 -> rack 2).
        let p = shortest_path(&topo, TspId(0), TspId(2 * 72 + 70)).unwrap();
        assert!(
            inter_node_hops(&topo, &p) <= 3,
            "inter-node cables on minimal route"
        );
        assert!(p.hops() <= 7);
    }

    #[test]
    fn path_endpoints_and_continuity() {
        let topo = Topology::fully_connected_nodes(3).unwrap();
        let p = shortest_path(&topo, TspId(0), TspId(23)).unwrap();
        assert_eq!(p.tsps.len(), p.links.len() + 1);
        // consecutive TSPs joined by the listed link
        for (i, &lid) in p.links.iter().enumerate() {
            let l = topo.link(lid);
            assert!(l.touches(p.tsps[i]) && l.touches(p.tsps[i + 1]));
        }
    }

    #[test]
    fn edge_disjoint_paths_within_node_are_seven() {
        // Paper Fig 10 speaks of "one minimal path and seven non-minimal
        // paths"; counting *edge-disjoint* paths, the source's degree of 7
        // caps the total at 7 (1 direct + 6 via the other peers). The Fig 10
        // sweep therefore spreads over up to 7 paths total.
        let topo = Topology::single_node();
        let paths = edge_disjoint_paths(&topo, TspId(0), TspId(1), 16);
        assert_eq!(paths.len(), 7);
        assert_eq!(paths[0].hops(), 1);
        for p in &paths[1..] {
            assert_eq!(p.hops(), 2);
        }
        // pairwise edge-disjoint
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            for &l in &p.links {
                assert!(seen.insert(l), "link reused across paths");
            }
        }
    }

    #[test]
    fn routing_avoids_failed_nodes() {
        let mut topo = Topology::fully_connected_nodes(3).unwrap();
        // Force traffic node0 -> node2; fail node 1 and ensure no path
        // transits it.
        topo.fail_node(NodeId(1));
        let p = shortest_path(&topo, TspId(0), TspId(16)).unwrap();
        for t in &p.tsps {
            assert_ne!(t.node(), NodeId(1));
        }
    }

    #[test]
    fn no_route_when_destination_isolated() {
        // Two nodes, exclude every global link: no inter-node route.
        let topo = Topology::fully_connected_nodes(2).unwrap();
        let excluded: HashSet<_> = topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_global())
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        let r = shortest_path_avoiding(&topo, TspId(0), TspId(8), &excluded);
        assert!(matches!(r, Err(TopologyError::NoRoute { .. })));
    }

    #[test]
    fn wire_latency_accumulates_cable_classes() {
        let topo = Topology::single_node();
        let p = shortest_path(&topo, TspId(0), TspId(1)).unwrap();
        assert_eq!(p.wire_latency_cycles(&topo), 216);
    }

    #[test]
    fn max_config_eccentricity_is_bounded() {
        // Full 10,440-TSP system: one BFS is cheap enough even in debug.
        let topo = Topology::rack_dragonfly(crate::MAX_RACKS).unwrap();
        let e = eccentricity(&topo, TspId(0));
        assert!(
            e <= 7,
            "max-config eccentricity {e} exceeds the TSP-level bound"
        );
    }
}
