//! # Multipole-Based Treecodes with Analyzed Error Bounds
//!
//! A Rust reproduction of **Sarin, Grama & Sameh, "Analyzing the Error
//! Bounds of Multipole-Based Treecodes" (SC 1998)** — an adaptive-degree
//! Barnes–Hut treecode whose per-interaction error is equalised across
//! cluster sizes (Theorem 3 of the paper), plus every substrate the paper
//! builds on or evaluates with: spherical-harmonic multipole machinery, an
//! adaptive octree, a level-synchronised FMM, a boundary-element stack
//! (surface meshes, Gauss quadrature, single-layer operators), and a
//! restarted GMRES solver.
//!
//! This crate is a facade: it re-exports the workspace's public API under
//! one roof. See the individual crates for the full documentation:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geometry`] | `mbt-geometry` | vectors, boxes, space-filling curves, distributions |
//! | [`multipole`] | `mbt-multipole` | expansions, translations, error bounds, degree selection |
//! | [`tree`] | `mbt-tree` | the adaptive octree |
//! | [`treecode`] | `mbt-treecode` | **the paper's contribution** — fixed & adaptive Barnes–Hut |
//! | [`engine`] | `mbt-engine` | multi-tenant query engine: plan caching, batching, admission |
//! | [`fmm`] | `mbt-fmm` | the FMM extension |
//! | [`bem`] | `mbt-bem` | boundary-element substrate |
//! | [`solvers`] | `mbt-solvers` | GMRES and dense kernels |
//!
//! # Quick start
//!
//! ```
//! use mbt::prelude::*;
//!
//! // 10k protein-like charges (uniform density, unit magnitude)
//! let particles = uniform_cube(10_000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 42);
//!
//! // the paper's improved method: adaptive degree, p_min = 4, α = 0.6
//! let treecode = Treecode::new(&particles, TreecodeParams::adaptive(4, 0.6)).unwrap();
//! let result = treecode.potentials();
//!
//! // measure the simulation error against sampled exact summation
//! let err = sampled_relative_error(&particles, &result.values, 200, 0);
//! assert!(err.relative_l2 < 1e-3);
//! ```

#![forbid(unsafe_code)]

pub use mbt_bem as bem;
pub use mbt_engine as engine;
pub use mbt_fmm as fmm;
pub use mbt_geometry as geometry;
pub use mbt_multipole as multipole;
pub use mbt_solvers as solvers;
pub use mbt_tree as tree;
pub use mbt_treecode as treecode;

/// The most common imports in one place.
pub mod prelude {
    pub use mbt_bem::{
        quadrature::integrate_on_triangle, shapes, CapacitanceProblem, DenseSingleLayer, QuadRule,
        SingleLayerGeometry, TreecodeSingleLayer, TriMesh,
    };
    pub use mbt_engine::{
        Accuracy, CacheOutcome, DatasetId, Engine, EngineConfig, EngineError, EngineStats,
        QueryKind, QueryOutput, QueryRequest, QueryResponse,
    };
    pub use mbt_fmm::{CompiledFmm, FmmParams};
    pub use mbt_geometry::distribution::{
        gaussian, overlapped_gaussians, plummer, uniform_ball, uniform_cube, ChargeModel,
    };
    pub use mbt_geometry::{Aabb, Particle, Vec3};
    pub use mbt_multipole::{
        kappa, theorem1_bound, theorem2_bound, DegreeSelector, DegreeWeighting, LocalExpansion,
        MultipoleExpansion,
    };
    pub use mbt_solvers::{gmres, DenseMatrix, GmresOptions, GmresOutcome, LinearOperator};
    pub use mbt_tree::{Octree, OctreeParams};
    pub use mbt_treecode::{
        direct::{
            direct_fields, direct_potentials, direct_potentials_at, direct_potentials_softened,
        },
        relative_error, sampled_relative_error, EvalResult, EvalStats, RefWeight, SampledError,
        Treecode, TreecodeParams,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let ps = uniform_cube(300, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 1);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(6, 0.5)).unwrap();
        let approx = tc.potentials().values;
        let exact = direct_potentials(&ps);
        assert!(relative_error(&approx, &exact) < 1e-4);
    }
}
