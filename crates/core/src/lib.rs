//! Barnes–Hut treecode with analyzed error bounds and adaptive multipole
//! degree selection — the primary contribution of *Analyzing the Error
//! Bounds of Multipole-Based Treecodes* (Sarin, Grama & Sameh, SC 1998).
//!
//! # The method
//!
//! The classical Barnes–Hut method approximates the potential at a point by
//! truncated multipole expansions of every cluster admitted by the
//! α-criterion (the multipole acceptance criterion, MAC). The paper shows
//! that the error of one such interaction grows **linearly with the cluster
//! charge** `A = Σ|qᵢ|` (Theorem 2), so with a fixed expansion degree the
//! aggregate error grows with the system charge — `O(n)` for uniform charge
//! density.
//!
//! The improved method selects the expansion degree **per cluster**
//! (Theorem 3): clusters with larger weight get proportionally higher
//! degree so every admitted interaction carries the same error, which drops
//! the aggregate error to `O(log n)` while increasing the number of
//! evaluated series terms only by a small constant factor (Theorem 4).
//!
//! # Quick start
//!
//! ```
//! use mbt_geometry::distribution::{uniform_cube, ChargeModel};
//! use mbt_treecode::{Treecode, TreecodeParams};
//!
//! let particles = uniform_cube(2_000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 42);
//! // the paper's improved method: adaptive degree with p_min = 3, α = 0.6
//! let params = TreecodeParams::adaptive(3, 0.6);
//! let tc = Treecode::new(&particles, params).unwrap();
//! let eval = tc.potentials();
//! assert_eq!(eval.values.len(), particles.len());
//! // instrumentation mirrors the paper's Table 1 "Terms" column
//! assert!(eval.stats.terms > 0);
//! ```

#![forbid(unsafe_code)]

pub mod accuracy;
mod compile;
pub mod direct;
pub mod dual;
pub mod eval;
pub mod mac;
pub mod params;
pub mod stats;
pub mod upward;

pub use accuracy::{relative_error, sampled_relative_error, SampledError};
pub use eval::EvalResult;
pub use mbt_multipole::bounds::f32_near_admissible;
pub use mbt_multipole::{DegreeSelector, DegreeWeighting};
/// The octree error a [`TreecodeError::Tree`] carries.
pub use mbt_tree::TreeError;
pub use params::{EvalMode, Precision, RefWeight, TreecodeError, TreecodeParams};
pub use stats::EvalStats;
pub use upward::{upward_pass_count, Treecode};
