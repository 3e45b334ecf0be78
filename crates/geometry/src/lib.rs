//! Geometric primitives and utilities shared by the multipole-treecode stack.
//!
//! This crate provides:
//!
//! * [`Vec3`] — a plain-old-data 3-D vector of `f64` with the usual algebra,
//! * [`Aabb`] — axis-aligned bounding boxes and cubical hulls,
//! * [`Spherical`] — conversion between Cartesian and spherical coordinates
//!   using the physics convention (`theta` = polar angle from +z,
//!   `phi` = azimuth from +x),
//! * [`morton`] and [`hilbert`] — 3-D space-filling-curve keys used for the
//!   proximity-preserving particle orderings of the paper (the parallel
//!   evaluation aggregates Peano–Hilbert-sorted particles into work units),
//! * [`sort`] — (parallel) reordering of particles by curve key,
//! * [`MortonOrder`] — the one Morton order the octree and the FMM both
//!   build on: one quantiser, one sort, positions shared across charge
//!   vectors,
//! * [`distribution`] — the particle distributions used in the paper's
//!   evaluation (uniform, Gaussian, overlapped Gaussians) plus a Plummer
//!   model for the astrophysics examples,
//! * [`Particle`] — the `position + charge` record every other crate
//!   operates on,
//! * [`ParticleSoa`] and [`SoaSpan`] — sources stored one array per
//!   component, and the borrowed view the batched (auto-vectorized)
//!   kernels read.

#![forbid(unsafe_code)]

pub mod aabb;
pub mod distribution;
pub mod hilbert;
pub mod morton;
pub mod order;
pub mod particle;
pub mod soa;
pub mod sort;
pub mod spherical;
pub mod vec3;

pub use aabb::Aabb;
pub use order::{ChargeError, MortonOrder};
pub use particle::Particle;
pub use soa::{ParticleSoa, SoaSpan};
pub use spherical::Spherical;
pub use vec3::Vec3;
