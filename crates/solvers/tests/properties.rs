//! Property-based tests of the iterative solvers on random systems.

use mbt_solvers::{gmres, DenseMatrix, GmresOptions, GmresOutcome, LinearOperator};
use proptest::prelude::*;

/// A random diagonally dominant (hence nonsingular) matrix.
fn dominant_matrix(n: usize, seed: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut m = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                m[(i, j)] = next() * 0.5;
            }
        }
    }
    for i in 0..n {
        m[(i, i)] = n as f64; // dominance
    }
    m
}

fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, bi) in b.iter().enumerate().take(a.rows()) {
        let ri: f64 = a.row(i).iter().zip(x).map(|(v, xi)| v * xi).sum::<f64>() - bi;
        num += ri * ri;
        den += bi * bi;
    }
    (num / den.max(1e-300)).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GMRES(10) solves every diagonally dominant system to tolerance.
    #[test]
    fn gmres_solves_dominant_systems(
        n in 5usize..40,
        seed in 0u64..1000,
    ) {
        let a = dominant_matrix(n, seed);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let r = gmres(&a, &b, &GmresOptions { restart: 10, tol: 1e-10, max_iters: 500, preconditioner: None });
        prop_assert_eq!(r.outcome, GmresOutcome::Converged);
        prop_assert!(residual(&a, &r.x, &b) < 1e-8);
    }

    /// GMRES reconstructs a known solution.
    #[test]
    fn gmres_recovers_known_solution(
        n in 5usize..30,
        seed in 0u64..1000,
    ) {
        let a = dominant_matrix(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() - 0.5).collect();
        let b = a.apply_vec(&x_true);
        let r = gmres(&a, &b, &GmresOptions { restart: 10, tol: 1e-12, max_iters: 800, preconditioner: None });
        for (xi, ti) in r.x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-7 * (1.0 + ti.abs()));
        }
    }
}
