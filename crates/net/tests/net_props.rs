//! Randomized tests of the interconnect layer over every topology: route
//! validity, hop symmetry, flood-route shortest paths, fabric timing
//! monotonicity, and per-link FIFO under store-and-forward contention.
//!
//! Cases are drawn from the kernel's own deterministic [`DetRng`] so the
//! suite needs no external property-testing crate and replays identically
//! on every run.

use sesame_net::{
    ContentionModel, Fabric, FullMesh, Hypercube, Line, LinkTiming, MeshTorus2d, MulticastRoute,
    NodeId, Ring, Star, Topology,
};
use sesame_sim::{DetRng, SimTime};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}

/// Instantiates topology `kind` (0..5) with `nodes` CPUs.
fn make_topology(kind: u8, nodes: usize) -> Box<dyn Topology> {
    match kind % 6 {
        0 => Box::new(MeshTorus2d::with_nodes(nodes)),
        1 => Box::new(Ring::new(nodes)),
        2 => Box::new(Line::new(nodes)),
        3 => Box::new(Star::new(nodes)),
        4 => Box::new(Hypercube::with_at_least(nodes)),
        _ => Box::new(FullMesh::new(nodes)),
    }
}

/// Routes are connected, end at the destination, and have exactly
/// `hops` links; hops are symmetric; self-distance is zero.
#[test]
fn routes_are_valid_on_every_topology() {
    let mut rng = DetRng::new(0xA11CE);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 29) as usize;
        let a = n(rng.next_below(nodes as u64) as u32);
        let b = n(rng.next_below(nodes as u64) as u32);
        let topo = make_topology(kind, nodes);
        let links = topo.route(a, b);
        assert_eq!(links.len() as u32, topo.hops(a, b));
        let mut at = a;
        for l in &links {
            assert_eq!(l.from_node(), at);
            // Each link connects adjacent positions.
            assert!(
                topo.neighbors(l.from_node()).contains(&l.to_node()),
                "non-adjacent link {l}"
            );
            at = l.to_node();
        }
        assert_eq!(at, b);
        assert_eq!(topo.hops(a, b), topo.hops(b, a));
        assert_eq!(topo.hops(a, a), 0);
        assert!(topo.hops(a, b) <= topo.diameter().max(1) * 2);
    }
}

/// Flood routes are spanning trees: they reach every position once, at
/// shortest-path depth, with each parent one hop above its child, from
/// any root.
#[test]
fn spanning_trees_are_shortest_path_trees() {
    let mut rng = DetRng::new(0xB0B);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 24) as usize;
        let root = n(rng.next_below(nodes as u64) as u32);
        let topo = make_topology(kind, nodes);
        let members: Vec<NodeId> = (0..topo.len() as u32).map(n).collect();
        let route = MulticastRoute::flood(topo.as_ref(), root, &members);
        assert_eq!(route.len(), topo.positions());
        assert_eq!(route.edge_count(), topo.positions() - 1);
        assert_eq!(route.node(0), root);
        let mut seen = vec![false; topo.positions()];
        for i in 0..route.len() {
            let m = route.node(i);
            assert!(!seen[m.index()], "position {m} visited twice");
            seen[m.index()] = true;
            assert_eq!(route.depth_of(i), topo.hops(root, m));
            if i > 0 {
                let p = route.parent_of(i);
                assert!(p < i, "parents precede children");
                assert_eq!(route.depth_of(i), route.depth_of(p) + 1);
                assert!(topo.neighbors(route.node(p)).contains(&m));
            }
        }
        // Members map to their own positions, in declared order.
        let got: Vec<NodeId> = route.member_indices().map(|i| route.node(i)).collect();
        assert_eq!(got, members);
    }
}

/// Cut-through delivery time is now + hops*latency + serialization;
/// arrival never precedes departure; bigger payloads never arrive
/// sooner.
#[test]
fn fabric_timing_is_monotone() {
    let mut rng = DetRng::new(0xC0FFEE);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 19) as usize;
        let a = n(rng.next_below(nodes as u64) as u32);
        let b = n(rng.next_below(nodes as u64) as u32);
        let bytes = rng.next_range(1, 9_999) as u32;
        let start = rng.next_below(1_000_000);
        let topo = make_topology(kind, nodes);
        let now = SimTime::from_nanos(start);
        let timing = LinkTiming::paper_1994();
        let mut f = Fabric::new(timing);
        let arr = f.unicast(now, topo.as_ref(), a, b, bytes);
        assert!(arr >= now);
        let expect = now + timing.transfer(topo.hops(a, b), bytes);
        if a != b {
            assert_eq!(arr, expect);
        }
        let mut f2 = Fabric::new(timing);
        let arr_bigger = f2.unicast(now, topo.as_ref(), a, b, bytes + 64);
        assert!(arr_bigger >= arr);
    }
}

/// Under store-and-forward contention, packets entering the same first
/// link in order leave in order (per-link FIFO), and contention never
/// makes anything *faster* than the contention-free model.
#[test]
fn store_and_forward_is_fifo_and_never_faster() {
    let mut rng = DetRng::new(0xF1F0);
    for _ in 0..48 {
        let nodes = rng.next_range(3, 11) as usize;
        let count = rng.next_range(1, 29) as usize;
        let mut sends: Vec<(u64, u32)> = (0..count)
            .map(|_| (rng.next_below(5_000), rng.next_range(1, 1_999) as u32))
            .collect();
        sends.sort_by_key(|&(t, _)| t);
        let topo = Line::new(nodes);
        let dst = n(nodes as u32 - 1);
        let timing = LinkTiming::paper_1994();
        let mut contended = Fabric::new(timing);
        contended.set_contention(ContentionModel::StoreAndForward);
        let mut arrivals = Vec::new();
        for &(t, bytes) in &sends {
            let now = SimTime::from_nanos(t);
            let arr = contended.unicast(now, &topo, n(0), dst, bytes);
            let mut free = Fabric::new(timing);
            let free_arr = free.unicast(now, &topo, n(0), dst, bytes);
            assert!(arr >= free_arr, "contention made delivery faster");
            arrivals.push(arr);
        }
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1], "per-link FIFO violated: {w:?}");
        }
    }
}

/// Multicast arrivals are ordered by tree depth, each member's arrival
/// is no earlier than a direct unicast could make it, the flood bills each
/// tree edge once, and a pruned route never bills more than the flood.
#[test]
fn multicast_arrivals_follow_tree_depth() {
    let mut rng = DetRng::new(0xD00D);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 19) as usize;
        let root = n(rng.next_below(nodes as u64) as u32);
        let bytes = rng.next_range(1, 999) as u32;
        let topo = make_topology(kind, nodes);
        let members: Vec<NodeId> = (0..topo.len() as u32).map(n).collect();
        let flood = MulticastRoute::flood(topo.as_ref(), root, &members);
        let mut f = Fabric::new(LinkTiming::paper_1994());
        let mut arrivals = Vec::new();
        f.multicast_route_into(SimTime::ZERO, &flood, bytes, &mut arrivals);
        assert_eq!(arrivals.len(), members.len());
        for (m, at) in &arrivals {
            if *m == root {
                assert_eq!(*at, SimTime::ZERO);
            } else {
                let expect = SimTime::ZERO
                    + LinkTiming::paper_1994().serialization(bytes)
                    + sesame_sim::SimDur::from_nanos(200) * topo.hops(root, *m) as u64;
                assert_eq!(*at, expect, "member {m}");
            }
        }
        assert_eq!(f.stats().link_traversals, topo.positions() as u64 - 1);

        // A random member subset: the pruned route delivers at the same
        // instants for fewer (or equal) edges.
        let subset: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|_| rng.next_below(2) == 0)
            .collect();
        let flood = MulticastRoute::flood(topo.as_ref(), root, &subset);
        let pruned = MulticastRoute::build(topo.as_ref(), root, &subset);
        let mut full = Fabric::new(LinkTiming::paper_1994());
        let mut want = Vec::new();
        full.multicast_route_into(SimTime::ZERO, &flood, bytes, &mut want);
        let mut thin = Fabric::new(LinkTiming::paper_1994());
        let mut got = Vec::new();
        thin.multicast_route_into(SimTime::ZERO, &pruned, bytes, &mut got);
        assert_eq!(got, want);
        assert!(thin.stats().link_traversals <= full.stats().link_traversals);
    }
}
