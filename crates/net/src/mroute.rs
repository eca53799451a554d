//! Group multicast routes: the tree of links one group write travels.
//!
//! Sesame's sharing hardware sends each sequenced group write once down a
//! tree rooted at the group root; every tree edge is one physical hop, so
//! a member's arrival depth is its shortest-path distance from the root.
//! [`MulticastRoute`] is that tree, in one of two shapes:
//!
//! * [`MulticastRoute::flood`] — a breadth-first spanning tree over *every*
//!   topology position: the paper's per-group multicast tree, which the
//!   figures bill (`positions - 1` edges per multicast).
//! * [`MulticastRoute::build`] — the member-pruned tree: the union of the
//!   topology's deterministic shortest paths from the root to each
//!   *member*, materializing only the positions those paths touch. A
//!   100k-node mesh hosting thousands of small groups walks and bills only
//!   the edges that lead to members.
//!
//! Both are stored the same way — a compact local index space whose
//! parents precede their children — so [`Fabric`](crate::Fabric) has one
//! walk for both.
//!
//! # Determinism and equivalence
//!
//! * Construction is a pure function of `(topology, root, member order)`:
//!   neighbour lists and [`Topology::route`] are deterministic, and
//!   first-found parent assignment breaks any tie the same way every run.
//!   No RNG, and no iteration over hashed containers.
//! * Every root-to-node path in either shape is a shortest path, so under
//!   cut-through timing (the paper's model) a member's arrival time depends
//!   only on its hop depth, and both shapes deliver at identical instants.
//!   Only the *traffic accounting* differs: the pruned route traverses (and
//!   bills) only edges that lead to members, while the flood bills every
//!   position.

use std::collections::HashMap;

use crate::{NodeId, Topology};

/// A multicast tree rooted at one node, over a compact local index space,
/// with the group members' deliveries precomputed into depth waves.
///
/// Local index `0` is always the root; every other node's parent appears
/// at a smaller local index, so walking `1..len` visits parents before
/// children — the order a downstream multicast wave advances.
///
/// ```
/// use sesame_net::{MeshTorus2d, MulticastRoute, NodeId, Topology};
///
/// let topo = MeshTorus2d::new(32, 32); // 1024 positions
/// let members = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
/// // Only the positions on the root->member paths are materialized...
/// let route = MulticastRoute::build(&topo, NodeId::new(0), &members);
/// assert_eq!(route.len(), 3);
/// assert_eq!(route.edge_count(), 2);
/// // ...while the flood spans every position.
/// let flood = MulticastRoute::flood(&topo, NodeId::new(0), &members);
/// assert_eq!(flood.edge_count(), topo.positions() - 1);
/// ```
#[derive(Debug, Clone)]
pub struct MulticastRoute {
    root: NodeId,
    /// Local index -> position. `nodes[0]` is the root.
    nodes: Vec<NodeId>,
    /// Local parent index; `parent[0] == 0` (the root is its own parent).
    parent: Vec<u32>,
    /// Hop depth from the root (equals the topology's shortest-path hops).
    depth: Vec<u32>,
    /// Local indices of the group members, in declared member order.
    members: Vec<u32>,
    /// Members regrouped into fan-out waves: positions sharing one hop
    /// depth, waves in ascending depth order, members inside a wave in
    /// declared member order. Flat storage sliced by `wave_offsets`.
    wave_nodes: Vec<NodeId>,
    /// `wave_offsets[w]..wave_offsets[w + 1]` indexes wave `w` in
    /// `wave_nodes`; always one longer than `wave_depths`.
    wave_offsets: Vec<u32>,
    /// Hop depth of each wave, strictly ascending.
    wave_depths: Vec<u32>,
}

impl MulticastRoute {
    /// Builds the flood route rooted at `root`: a breadth-first spanning
    /// tree over every position of `topo`, delivering to `members`.
    ///
    /// Neighbours are visited in [`Topology::neighbors`] order and each
    /// position keeps the first parent that reaches it, so every tree edge
    /// is one hop and every depth is the shortest-path distance. The local
    /// index order is the breadth-first discovery order.
    ///
    /// # Panics
    ///
    /// Panics if `root` or a member is not a valid topology position, or if
    /// the topology is disconnected (every provided topology is connected).
    pub fn flood(topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Self {
        let positions = topo.positions();
        assert!(root.index() < positions, "root out of range");
        // Position -> local index; `u32::MAX` marks "not yet reached".
        let mut local = vec![u32::MAX; positions];
        local[root.index()] = 0;
        let mut nodes = Vec::with_capacity(positions);
        let mut parent = Vec::with_capacity(positions);
        let mut depth = Vec::with_capacity(positions);
        nodes.push(root);
        parent.push(0);
        depth.push(0);
        // `nodes` doubles as the breadth-first queue: `head` is the next
        // position to expand, everything after it is discovered but not
        // yet expanded.
        let mut head = 0;
        while head < nodes.len() {
            for nb in topo.neighbors(nodes[head]) {
                if local[nb.index()] == u32::MAX {
                    local[nb.index()] = nodes.len() as u32;
                    nodes.push(nb);
                    parent.push(head as u32);
                    depth.push(depth[head] + 1);
                }
            }
            head += 1;
        }
        assert_eq!(nodes.len(), positions, "topology is disconnected");
        let members = members
            .iter()
            .map(|m| {
                assert!(m.index() < positions, "member out of range");
                local[m.index()]
            })
            .collect();
        Self::assemble(root, nodes, parent, depth, members)
    }

    /// Builds the pruned route for `members` rooted at `root` by walking
    /// `topo`'s deterministic shortest path to each member in declared
    /// order and unioning the paths (first-wins parent assignment).
    ///
    /// # Panics
    ///
    /// Panics if `root` or a member is not a valid topology position, or if
    /// a route step is inconsistent with the path walked so far (both
    /// indicate a broken [`Topology::route`] implementation).
    pub fn build(topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Self {
        assert!(root.index() < topo.positions(), "root out of range");
        let mut nodes = vec![root];
        let mut parent = vec![0u32];
        let mut depth = vec![0u32];
        // Position -> local index, only consulted while building.
        let mut local: HashMap<NodeId, u32> = HashMap::from([(root, 0)]);
        let mut path = Vec::new();
        let mut member_locals = Vec::with_capacity(members.len());
        for &m in members {
            assert!(m.index() < topo.positions(), "member out of range");
            let mut at = 0u32; // local index of the walk position
            topo.route_into(root, m, &mut path);
            for link in &path {
                debug_assert_eq!(link.from_node(), nodes[at as usize]);
                let next = link.to_node();
                at = match local.get(&next) {
                    Some(&existing) => {
                        // Already reached along an earlier member's path.
                        // Both paths are shortest, so the depths agree.
                        debug_assert_eq!(depth[existing as usize], depth[at as usize] + 1);
                        existing
                    }
                    None => {
                        let idx = nodes.len() as u32;
                        nodes.push(next);
                        parent.push(at);
                        depth.push(depth[at as usize] + 1);
                        local.insert(next, idx);
                        idx
                    }
                };
            }
            member_locals.push(at);
        }
        Self::assemble(root, nodes, parent, depth, member_locals)
    }

    /// Finishes a route from its tree and the members' local indices by
    /// grouping the members into depth waves (a stable sort, so members
    /// keep declared order within a wave).
    fn assemble(
        root: NodeId,
        nodes: Vec<NodeId>,
        parent: Vec<u32>,
        depth: Vec<u32>,
        members: Vec<u32>,
    ) -> Self {
        let mut by_depth = members.clone();
        by_depth.sort_by_key(|&i| depth[i as usize]);
        let mut wave_offsets = Vec::new();
        let mut wave_depths = Vec::new();
        for (k, &i) in by_depth.iter().enumerate() {
            let d = depth[i as usize];
            if wave_depths.last() != Some(&d) {
                wave_offsets.push(k as u32);
                wave_depths.push(d);
            }
        }
        wave_offsets.push(by_depth.len() as u32);
        let wave_nodes = by_depth.iter().map(|&i| nodes[i as usize]).collect();
        MulticastRoute {
            root,
            nodes,
            parent,
            depth,
            members,
            wave_nodes,
            wave_offsets,
            wave_depths,
        }
    }

    /// The route's root (the group's sequencing arbiter).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of positions the pruned route materializes (root included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the route is empty (never true: the root is always present).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of directed edges a multicast traverses — one per non-root
    /// position, since the union of root-anchored paths is a tree.
    pub fn edge_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of members the route delivers to.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The position at local index `i` (`0` is the root).
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// The local parent index of local index `i`; parents always have
    /// smaller indices, so `1..len` walks parents before children.
    pub fn parent_of(&self, i: usize) -> usize {
        self.parent[i] as usize
    }

    /// Hop depth of local index `i` from the root (equals the topology's
    /// shortest-path distance).
    pub fn depth_of(&self, i: usize) -> u32 {
        self.depth[i]
    }

    /// The members' local indices in declared member order — the order
    /// [`Fabric::multicast_route_into`](crate::Fabric::multicast_route_into)
    /// lists arrivals in.
    pub fn member_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|&i| i as usize)
    }

    /// Number of fan-out waves: distinct member hop depths. Under
    /// cut-through timing with a nonzero hop latency every member of one
    /// wave receives the multicast at the same instant, and no two waves
    /// share an instant — so a fan-out is exactly one queue event per wave.
    pub fn wave_count(&self) -> usize {
        self.wave_depths.len()
    }

    /// Hop depth of wave `w` (waves are ordered by strictly ascending
    /// depth, so this is also ascending arrival order).
    pub fn wave_depth(&self, w: usize) -> u32 {
        self.wave_depths[w]
    }

    /// The members of wave `w`, in declared member order — a borrowed
    /// slice into the route's topology-static arena: iterating a fan-out
    /// materializes nothing.
    pub fn wave(&self, w: usize) -> &[NodeId] {
        let start = self.wave_offsets[w] as usize;
        let end = self.wave_offsets[w + 1] as usize;
        &self.wave_nodes[start..end]
    }

    /// The largest member hop depth (0 when the only member is the root,
    /// or when there are no members at all) — the depth of the last wave,
    /// which determines the end of the whole fan-out interval.
    pub fn max_depth(&self) -> u32 {
        self.wave_depths.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, FullMesh, Line, LinkTiming, MeshTorus2d, Ring, Star};
    use sesame_sim::SimTime;

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    fn arrivals(f: &mut Fabric, route: &MulticastRoute, bytes: u32) -> Vec<(NodeId, SimTime)> {
        let mut out = Vec::new();
        f.multicast_route_into(SimTime::ZERO, route, bytes, &mut out);
        out
    }

    /// Asserts `route` is a tree whose depths are shortest-path hops from
    /// its root and whose parents precede their children.
    fn assert_shortest_path_tree(topo: &dyn Topology, route: &MulticastRoute) {
        assert_eq!(route.edge_count(), route.len() - 1);
        for i in 0..route.len() {
            assert_eq!(
                route.depth_of(i),
                topo.hops(route.root(), route.node(i)),
                "node {} of {topo:?}",
                route.node(i)
            );
            if i > 0 {
                assert!(route.parent_of(i) < i, "parents precede children");
                assert_eq!(route.depth_of(route.parent_of(i)) + 1, route.depth_of(i));
            }
        }
    }

    #[test]
    fn union_of_paths_is_a_tree_with_shortest_depths() {
        let topo = MeshTorus2d::new(6, 6);
        let members: Vec<NodeId> = [0u32, 7, 14, 21, 35].map(n).to_vec();
        assert_shortest_path_tree(&topo, &MulticastRoute::build(&topo, n(0), &members));
    }

    #[test]
    fn flood_depths_equal_shortest_paths_from_every_root() {
        for topo in [
            &MeshTorus2d::new(4, 4) as &dyn Topology,
            &MeshTorus2d::with_nodes(7),
            &Ring::new(9),
            &Line::new(6),
            &Star::new(6),
            &FullMesh::new(5),
        ] {
            for r in 0..topo.len() as u32 {
                let route = MulticastRoute::flood(topo, n(r), &[]);
                assert_eq!(route.len(), topo.positions(), "{topo:?}");
                assert_shortest_path_tree(topo, &route);
            }
        }
    }

    #[test]
    fn flood_parent_child_relations_are_consistent() {
        let topo = MeshTorus2d::new(4, 4);
        let route = MulticastRoute::flood(&topo, n(5), &[]);
        assert_eq!(route.node(0), n(5));
        for i in 1..route.len() {
            let (child, p) = (route.node(i), route.parent_of(i));
            assert_ne!(child, n(5), "the root appears once, first");
            assert!(
                topo.neighbors(route.node(p)).contains(&child),
                "parent of {child} is a neighbour"
            );
            assert_eq!(route.depth_of(i), route.depth_of(p) + 1);
        }
    }

    #[test]
    fn flood_visits_every_position_once_in_breadth_first_order() {
        let topo = MeshTorus2d::with_nodes(10); // 4x3 rectangle, 12 positions
        let route = MulticastRoute::flood(&topo, n(2), &[]);
        assert_eq!(route.node(0), n(2));
        let mut seen: Vec<u32> = (0..route.len()).map(|i| route.node(i).get()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        for i in 1..route.len() {
            assert!(route.depth_of(i - 1) <= route.depth_of(i));
        }
    }

    #[test]
    fn flood_parents_are_the_first_neighbour_found() {
        // From a star leaf, the hub is the only way in.
        let topo = Star::new(5);
        let route = MulticastRoute::flood(&topo, n(3), &[n(1)]);
        let hub = (0..route.len()).find(|&i| route.node(i) == n(0)).unwrap();
        let leaf = route.member_indices().next().unwrap();
        assert_eq!(route.parent_of(hub), 0);
        assert_eq!(route.parent_of(leaf), hub);
        assert_eq!(route.depth_of(leaf), 2);
        // On a ring, the root's first neighbour claims the far node on a
        // tie.
        let ring = Ring::new(4);
        let route = MulticastRoute::flood(&ring, n(0), &[n(2)]);
        let far = route.member_indices().next().unwrap();
        assert_eq!(route.node(route.parent_of(far)), ring.neighbors(n(0))[0]);
    }

    #[test]
    fn prunes_positions_off_the_member_paths() {
        let topo = MeshTorus2d::new(32, 32);
        // A row-local group touches only its own row.
        let members: Vec<NodeId> = (0..4).map(n).collect();
        let route = MulticastRoute::build(&topo, n(0), &members);
        assert_eq!(route.len(), 4);
        assert_eq!(route.member_count(), 4);
        assert!(route.len() < topo.positions());
    }

    #[test]
    fn arrival_times_match_full_tree_multicast() {
        for topo in [
            &MeshTorus2d::new(5, 4) as &dyn Topology,
            &Ring::new(9),
            &Star::new(7),
        ] {
            let root = n(1);
            let members: Vec<NodeId> = (0..topo.len() as u32).step_by(2).map(n).collect();
            let flood = MulticastRoute::flood(topo, root, &members);
            let route = MulticastRoute::build(topo, root, &members);

            let mut full = Fabric::new(LinkTiming::paper_1994());
            let want = arrivals(&mut full, &flood, 125);
            let mut pruned = Fabric::new(LinkTiming::paper_1994());
            let got = arrivals(&mut pruned, &route, 125);

            assert_eq!(got, want, "topo {topo:?}");
            // The pruned route never traverses more edges than the flood.
            assert!(
                pruned.stats().link_traversals <= full.stats().link_traversals,
                "topo {topo:?}"
            );
        }
    }

    #[test]
    fn waves_group_members_by_depth_in_declared_order() {
        let topo = MeshTorus2d::new(8, 8);
        // Declared order deliberately scrambles depths so the arena has to
        // regroup without reordering within a depth.
        let members: Vec<NodeId> = [3u32, 0, 1, 11, 2, 19].map(n).to_vec();
        // Reference grouping: declared order filtered per depth.
        let mut by_depth: std::collections::BTreeMap<u32, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for &m in &members {
            by_depth.entry(topo.hops(n(0), m)).or_default().push(m);
        }
        for route in [
            MulticastRoute::build(&topo, n(0), &members),
            MulticastRoute::flood(&topo, n(0), &members),
        ] {
            assert_eq!(route.wave_count(), by_depth.len());
            for (w, (depth, want)) in by_depth.iter().enumerate() {
                assert_eq!(route.wave_depth(w), *depth);
                assert_eq!(route.wave(w), &want[..], "wave at depth {depth}");
            }
            let total: usize = (0..route.wave_count()).map(|w| route.wave(w).len()).sum();
            assert_eq!(total, route.member_count());
            assert_eq!(route.max_depth(), *by_depth.keys().last().unwrap());
        }
    }

    #[test]
    fn waves_match_arrival_time_grouping() {
        // The contract the dispatch fast path relies on: with cut-through
        // timing and nonzero hop latency, grouping members by arrival time
        // (what the fabric computes per multicast) equals grouping by hop
        // depth (what the arena precomputes once).
        for topo in [
            &MeshTorus2d::new(6, 5) as &dyn Topology,
            &Ring::new(11),
            &Star::new(6),
        ] {
            let root = n(2);
            let members: Vec<NodeId> = (0..topo.len() as u32).rev().map(n).collect();
            let route = MulticastRoute::build(topo, root, &members);
            let mut fabric = Fabric::new(LinkTiming::paper_1994());

            let mut by_time: std::collections::BTreeMap<SimTime, Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for (m, at) in arrivals(&mut fabric, &route, 125) {
                by_time.entry(at).or_default().push(m);
            }
            assert_eq!(route.wave_count(), by_time.len(), "topo {topo:?}");
            for (w, wave) in by_time.values().enumerate() {
                assert_eq!(route.wave(w), &wave[..], "topo {topo:?} wave {w}");
            }
        }
    }

    #[test]
    fn duplicate_members_appear_in_their_wave_twice() {
        let topo = Ring::new(8);
        let route = MulticastRoute::build(&topo, n(0), &[n(1), n(1), n(0)]);
        assert_eq!(route.member_count(), 3);
        assert_eq!(route.wave_count(), 2);
        assert_eq!(route.wave(0), &[n(0)]);
        assert_eq!(route.wave(1), &[n(1), n(1)]);
    }

    #[test]
    fn empty_member_list_has_no_waves() {
        let topo = Ring::new(4);
        for route in [
            MulticastRoute::build(&topo, n(1), &[]),
            MulticastRoute::flood(&topo, n(1), &[]),
        ] {
            assert_eq!(route.wave_count(), 0);
            assert_eq!(route.max_depth(), 0);
        }
    }

    #[test]
    fn root_member_is_depth_zero() {
        let topo = Ring::new(6);
        let route = MulticastRoute::build(&topo, n(2), &[n(2), n(4)]);
        let idxs: Vec<usize> = route.member_indices().collect();
        assert_eq!(idxs[0], 0);
        assert_eq!(route.depth_of(idxs[0]), 0);
    }
}
