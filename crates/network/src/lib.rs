//! The PiCloud data-centre network fabric.
//!
//! The paper interconnects its 56 Pis "through a canonical multi-root tree
//! topology": hosts to Top-of-Rack switches, ToRs to an OpenFlow-enabled
//! aggregation layer, and everything to the university gateway acting as
//! core/border router (Fig. 2). It also notes the clusters "can easily be
//! re-cabled to form a fat-tree topology". This crate models that fabric at
//! flow level:
//!
//! * [`topology`] — devices, links and the three builders: the paper's
//!   multi-root tree, a k-ary fat-tree, and a folded-Clos / VL2-style
//!   leaf–spine.
//! * [`graph`] — BFS shortest paths, connectivity, edge-disjoint path
//!   counting and Dinic max-flow (used for bisection bandwidth).
//! * [`routing`] — ECMP over all shortest paths, plus static single-path
//!   routing.
//! * [`flow`] / [`flowsim`] — a deterministic flow-level simulator with
//!   water-filling max–min fair rate allocation, per-link utilisation
//!   accounting and an equal-share ablation allocator.
//!
//! # Example
//!
//! ```
//! use picloud_network::topology::Topology;
//!
//! // The paper's fabric: 4 racks x 14 hosts, 2 aggregation roots.
//! let topo = Topology::multi_root_tree(4, 14, 2);
//! assert_eq!(topo.hosts().count(), 56);
//! assert!(topo.is_connected());
//! ```

pub mod failure;
pub mod flow;
pub mod flowsim;
pub mod graph;
mod lists;
pub mod routing;
pub mod topology;

pub use failure::{ConnectivityReport, FailureMask};
pub use flow::{Flow, FlowId, FlowSpec};
pub use flowsim::estimate::{EstimateConfig, EstimateOutcome, FidelityMode, FlowEstimator};
pub use flowsim::{FlowSimulator, RateAllocator};
pub use routing::{Router, RoutingPolicy};
pub use topology::{DeviceId, DeviceKind, Link, LinkId, Topology};
