//! Boundary-element substrate for the paper's integral-equation
//! experiments.
//!
//! The paper solves dense linear systems from boundary-element
//! discretisations of first-kind integral equations of potential theory:
//! "the surface of the domain is discretized into triangular elements.
//! Gaussian quadrature is used for integration over the surface. Typically,
//! a fixed number of Gauss points are located inside each element and
//! inserted into the hierarchical domain representation. Using this
//! hierarchical domain, the potential is computed at the vertices of the
//! elements and matched to the boundary values."
//!
//! This crate builds everything that pipeline needs:
//!
//! * [`TriMesh`] — triangle surface meshes with validation and measures,
//! * [`shapes`] — procedural geometry: icospheres, plates, boxes, plus the
//!   synthetic **propeller** and **gripper** stand-ins for the paper's
//!   industrial meshes (see `DESIGN.md` for the substitution rationale),
//! * [`quadrature`] — symmetric triangle Gauss rules (1–7 points),
//! * [`DenseSingleLayer`] / [`TreecodeSingleLayer`] — the collocation
//!   single-layer potential operator with piecewise-linear densities,
//!   applied either densely (exact reference) or through the treecode,
//! * [`EngineSingleLayer`] — the same operator applied through a shared
//!   `mbt-engine` instance as routed `query_batch` traffic (all-targets
//!   matvec shapes reach the compiled FMM backend),
//! * [`problem`] — the Dirichlet capacitance problem solved with GMRES.

#![forbid(unsafe_code)]

pub mod engine_op;
pub mod mesh;
pub mod problem;
pub mod quadrature;
pub mod shapes;
pub mod single_layer;

pub use engine_op::EngineSingleLayer;
pub use mesh::TriMesh;
pub use problem::CapacitanceProblem;
pub use quadrature::QuadRule;
pub use single_layer::{DenseSingleLayer, SingleLayerGeometry, TreecodeSingleLayer};
