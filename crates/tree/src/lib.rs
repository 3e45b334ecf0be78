//! Adaptive octree over Morton-sorted particles.
//!
//! The hierarchical domain decomposition both treecode flavours (Barnes–Hut
//! in `mbt-treecode`, FMM in `mbt-fmm`) traverse. Particles are sorted once
//! by Morton key inside their cubical hull (the `MortonOrder` of
//! `mbt-geometry`, which the FMM builds on too); every octree cell then owns a
//! contiguous index range, children are located by binary search on the key
//! digits, and the per-node aggregates the paper's error analysis needs are
//! filled in two passes: the geometric one (expansion center = the
//! particles' centroid, tight cluster radius) once per build, and the charge
//! one (total absolute charge `A = Σ|qᵢ|`, net charge) per build and per
//! charge update.

#![forbid(unsafe_code)]

pub mod build;
pub mod node;
pub mod stats;

pub use build::{build_count, Octree, OctreeParams, TreeError};
pub use node::{Node, NodeId, NO_NODE};
pub use stats::TreeStats;
