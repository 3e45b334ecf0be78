//! Iterative solvers and the small dense linear-algebra kernels they need.
//!
//! The paper applies its treecode to dense linear systems arising from
//! boundary-element discretisations of integral equations: "the treecode
//! was used to compute matrix-vector products with the approximation of the
//! dense matrices in each iteration of the GMRES iterative solver ... with
//! a restart of 10". This crate provides that solver stack, implemented
//! from scratch:
//!
//! * [`LinearOperator`] — anything that can apply `y = A·x` (dense matrices
//!   and treecode-accelerated operators both implement it),
//! * [`gmres()`] — restarted GMRES(m) with modified Gram–Schmidt and Givens
//!   rotations,
//! * [`DenseMatrix`] — a row-major dense matrix with parallel matvec, used
//!   as the exact reference operator in the experiments,
//! * a Jacobi (diagonal) preconditioner.

#![forbid(unsafe_code)]

pub mod dense;
pub mod gmres;
pub mod operator;

pub use dense::DenseMatrix;
pub use gmres::{gmres, GmresOptions, GmresOutcome, GmresResult};
pub use operator::{JacobiPreconditioner, LinearOperator};
