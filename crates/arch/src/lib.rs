//! # qompress-arch
//!
//! Mixed-radix architecture models for Qompress: the physical coupling
//! topologies used in the paper's evaluation (§6.1) and the *expanded*
//! slot-level graph of §4.1 in which every physical transmon contributes two
//! encoded-qubit positions.
//!
//! ```
//! use qompress_arch::{ExpandedGraph, Slot, Topology};
//!
//! let topo = Topology::grid(9);
//! let expanded = ExpandedGraph::new(topo);
//! // 2V slots, 4E + V slot edges.
//! assert_eq!(expanded.n_slots(), 18);
//! assert!(expanded.slots_adjacent(Slot::zero(0), Slot::one(0)));
//! ```

#![warn(missing_docs)]

mod expanded;
mod fingerprint;
mod topology;

pub use expanded::{ExpandedGraph, Slot, SlotIndex};
pub use fingerprint::Fingerprinter;
pub use topology::{Topology, TopologyError};
