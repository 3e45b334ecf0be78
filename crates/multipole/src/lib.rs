//! Spherical-harmonic multipole machinery for `1/r` potentials.
//!
//! This crate implements, from scratch, everything Theorem 1 of
//! *Analyzing the Error Bounds of Multipole-Based Treecodes* (Sarin, Grama
//! & Sameh, SC 1998) builds on:
//!
//! * [`MultipoleExpansion`] / [`LocalExpansion`] of point-charge clusters,
//! * the operator set P2M, M2M, M2L, L2L, M2P, L2P (potential **and**
//!   gradient evaluation),
//! * the truncation-error bounds of Theorems 1 and 2 and the paper's
//!   adaptive degree-selection rule (Theorem 3) in [`bounds`].
//!
//! Every operator is validated against direct summation in the test suite;
//! the error bounds are validated as actual bounds (no observed error may
//! exceed them).
//!
//! # Example
//!
//! ```
//! use mbt_geometry::{Particle, Vec3};
//! use mbt_multipole::MultipoleExpansion;
//!
//! let cluster = [
//!     Particle::new(Vec3::new(0.1, 0.0, 0.0), 1.0),
//!     Particle::new(Vec3::new(-0.1, 0.05, 0.0), -2.0),
//! ];
//! let expansion = MultipoleExpansion::from_particles(Vec3::ZERO, 8, &cluster);
//! let far = Vec3::new(3.0, 1.0, 0.0);
//! let exact: f64 = cluster
//!     .iter()
//!     .map(|p| p.charge / p.position.distance(far))
//!     .sum();
//! assert!((expansion.potential_at(far) - exact).abs() < 1e-9);
//! ```

// `unsafe` is denied crate-wide rather than forbidden: the `simd` module
// needs `#[target_feature]` dispatch internally and opts back in with a
// module-scoped `allow` — no `unsafe` appears (or is needed) anywhere else,
// and none leaks past the `simd` module boundary.
#![deny(unsafe_code)]

pub mod batch;
pub mod bounds;
pub mod complex;
pub mod expansion;
pub mod harmonics;
pub mod legendre;
pub mod simd;
pub mod tables;
mod translation;
pub mod workspace;

pub use batch::{
    l2p_field_group, l2p_potential_group, m2l_apply, m2l_apply_group, m2p_field_group,
    m2p_field_group_uniform, m2p_potential_group, m2p_potential_group_uniform, p2p_potential_span,
    p2p_potential_span_f32, p2p_span, BatchWorkspace, M2pGroup, M2L_GROUP, M2L_LANES, M2P_LANES,
    P2M_LANES, P2P_LANES, P2P_LANES_F32,
};
pub use bounds::{
    degree_for_tolerance, degree_for_tolerance_at, kappa, theorem1_bound, theorem2_bound,
    DegreeSelector, DegreeWeighting,
};
pub use complex::Complex;
pub use expansion::{
    l2p_field_with, l2p_potential_with, p2m_into, p2m_soa_into, ExpansionRef, LocalExpansion,
    MultipoleExpansion,
};
pub use harmonics::Harmonics;
pub use simd::{F32Lanes, F64Lanes, Lanes, Real, SimdLevel};
pub use tables::{coeff_bytes, tri_len, MAX_DEGREE};
pub use workspace::Workspace;
