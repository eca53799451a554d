//! # sesame-net — interconnect models for the Sesame DSM reproduction
//!
//! Topologies, deterministic routing, multicast routes, and link timing
//! for the `sesame-rs` reproduction of *Hermannsson & Wittie, ICDCS
//! 1994*. The paper's simulations assume a square mesh torus with 200 ns
//! hops and 1 Gbit/s point-to-point fiber links; [`MeshTorus2d`] plus
//! [`LinkTiming::paper_1994`] reproduce that configuration.
//!
//! Sesame's sharing hardware routes every hidden sharing message of a
//! group down a multicast tree rooted at the group root. One type,
//! [`MulticastRoute`], holds that tree in both of its shapes: the
//! [`MulticastRoute::flood`] spanning every position (what the paper's
//! figures bill) and the member-pruned [`MulticastRoute::build`]. One
//! [`Fabric`] walk, [`Fabric::multicast_route_into`], times and bills
//! either.
//!
//! ```
//! use sesame_net::{Fabric, LinkTiming, MeshTorus2d, MulticastRoute, NodeId, Topology};
//! use sesame_sim::SimTime;
//!
//! let topo = MeshTorus2d::with_nodes(9);
//! let members = [NodeId::new(0), NodeId::new(8)];
//! let route = MulticastRoute::flood(&topo, NodeId::new(4), &members);
//! let mut fabric = Fabric::new(LinkTiming::paper_1994());
//! let mut arrivals = Vec::new();
//! fabric.multicast_route_into(SimTime::ZERO, &route, 64, &mut arrivals);
//! assert_eq!(arrivals.len(), 2);
//! // The flood bills one traversal per tree edge: every position but the
//! // root.
//! assert_eq!(fabric.stats().link_traversals, topo.positions() as u64 - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
mod fabric;
mod hypercube;
mod link;
mod mroute;
mod node;
mod topology;

pub use causal::{CauseAlloc, CauseId};
pub use fabric::{ContentionModel, Delivery, Fabric, FabricStats};
pub use hypercube::Hypercube;
pub use link::LinkTiming;
pub use mroute::MulticastRoute;
pub use node::{LinkId, NodeId};
pub use topology::{FullMesh, Line, MeshTorus2d, Ring, Star, Topology};
