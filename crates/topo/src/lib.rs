//! `pels_topo` — internet-scale topology generation and multi-bottleneck
//! scenarios for the PELS reproduction.
//!
//! The paper evaluates PELS on a dumbbell; this crate grows the testbed to
//! multi-bottleneck topologies while keeping every engine guarantee
//! (determinism, worker-count invariance) intact:
//!
//! - [`spec`] — the declarative [`spec::TopoSpec`] (JSON or CLI shorthand):
//!   generator family, seed, flows, cross-traffic composition;
//! - [`gen`] — seeded generators (parking lot, k-ary fat tree, Waxman
//!   random graph) plus the cross-traffic composer (TCP Reno herds, Poisson
//!   CBR bursts, flash-crowd arrival/departure schedules) and capacity
//!   finalization;
//! - [`model`] — the [`model::TopoModel`] (re-exported from
//!   `pels_core::network`, whose builder wires it into agents and the shard
//!   partitioner's link graph), its checks and its bottleneck table;
//! - [`maxmin`] — the water-filling max-min + MKC `α/β` reference
//!   (Lemma 6 generalized to many bottlenecks);
//! - [`scenario`] — [`scenario::TopoScenario`], running a generated
//!   topology on the sharded engine and reporting per-bottleneck
//!   predicted-vs-measured deviation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod maxmin;
pub mod model;
pub mod scenario;
pub mod spec;

pub use model::{TopoModel, TrafficKind};
pub use scenario::{TopoReport, TopoScenario};
pub use spec::{GeneratorSpec, TopoSpec};
