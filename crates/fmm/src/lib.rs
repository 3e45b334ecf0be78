//! Fast Multipole Method with fixed or adaptive expansion degrees.
//!
//! The paper closes by noting that "the results presented in this paper can
//! easily be extended to the Fast Multipole Method as well. We are
//! currently exploring this." This crate carries that extension out: a
//! level-synchronised FMM over the same cubical decomposition, where the
//! expansion degree can be chosen **per level** by the same Theorem-3 rule
//! that the adaptive treecode applies per cluster (cluster weight grows
//! geometrically toward the root, so equalising per-translation error
//! prescribes a degree ramp along the levels).
//!
//! Pipeline: P2M (per level, from the particles, so every level's expansion
//! is accurate at its own degree) → M2L over the standard interaction lists
//! (children of the parent's neighbours that are not adjacent) → L2L down →
//! L2P plus direct near field over the 27 neighbouring finest cells.
//!
//! [`CompiledFmm`] is the crate's one FMM: the pipeline compiled into flat
//! per-level arenas with process-wide M2L operator tables, evaluable at
//! the sources and at arbitrary external points, and re-chargeable over
//! the same geometry (see [`compiled`]).
//!
//! ```
//! use mbt_geometry::distribution::{uniform_cube, ChargeModel};
//! use mbt_fmm::{CompiledFmm, FmmParams};
//!
//! let ps = uniform_cube(2000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 7);
//! let fmm = CompiledFmm::new(&ps, FmmParams::fixed(6).with_levels(3)).unwrap();
//! let result = fmm.potentials();
//! assert_eq!(result.values.len(), ps.len());
//! ```

#![forbid(unsafe_code)]

pub mod compiled;
pub mod grid;
pub mod method;
#[cfg(test)]
mod reference;

pub use compiled::{shared_operator_bytes, CompiledFmm, COMPILED_MAX_DEGREE};
pub use grid::FmmError;
pub use method::{depth_counts, DepthCount, FmmParams};
