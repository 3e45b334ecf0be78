//! Shared harness utilities for the table/figure reproduction binaries.

#![forbid(unsafe_code)]

use std::time::Instant;

use mbt_geometry::distribution::{overlapped_gaussians, uniform_cube, ChargeModel};
use mbt_geometry::Particle;
use mbt_treecode::{sampled_relative_error, Treecode, TreecodeParams};

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The structured (uniform, unit-charge) instances of Table 1.
#[must_use]
pub fn structured_instance(n: usize) -> Vec<Particle> {
    uniform_cube(
        n,
        1.0,
        ChargeModel::UnitPositive { magnitude: 1.0 },
        42 + n as u64,
    )
}

/// The unstructured (overlapped-Gaussian) instances of Table 1.
#[must_use]
pub fn unstructured_instance(n: usize) -> Vec<Particle> {
    overlapped_gaussians(
        n,
        4,
        2.5,
        0.5,
        ChargeModel::UnitPositive { magnitude: 1.0 },
        77 + n as u64,
    )
}

/// One row of a Table-1-style comparison.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Particle count.
    pub n: usize,
    /// Relative error of the original (fixed-degree) method.
    pub err_orig: f64,
    /// Relative error of the improved (adaptive-degree) method.
    pub err_new: f64,
    /// Terms evaluated by the original method.
    pub terms_orig: u64,
    /// Terms evaluated by the improved method.
    pub terms_new: u64,
    /// Largest degree the improved method used.
    pub max_degree: usize,
    /// Evaluation wall time of the original method (s).
    pub time_orig: f64,
    /// Evaluation wall time of the improved method (s).
    pub time_new: f64,
}

/// Runs original vs improved on one instance and measures sampled errors.
#[must_use]
pub fn compare_methods(
    particles: &[Particle],
    orig: TreecodeParams,
    new: TreecodeParams,
    samples: usize,
) -> ComparisonRow {
    let tc_orig = Treecode::new(particles, orig).expect("valid instance");
    let (r_orig, time_orig) = timed(|| tc_orig.potentials());
    let e_orig = sampled_relative_error(particles, &r_orig.values, samples, 1);

    let tc_new = Treecode::new(particles, new).expect("valid instance");
    let (r_new, time_new) = timed(|| tc_new.potentials());
    let e_new = sampled_relative_error(particles, &r_new.values, samples, 1);

    ComparisonRow {
        n: particles.len(),
        err_orig: e_orig.relative_l2,
        err_new: e_new.relative_l2,
        terms_orig: r_orig.stats.terms,
        terms_new: r_new.stats.terms,
        max_degree: r_new.stats.max_degree_used(),
        time_orig,
        time_new,
    }
}

/// Machine-independent parallel-efficiency model: partition the evaluation
/// work units (chunks of `w` proximity-ordered targets, the paper's
/// aggregation) across `threads` workers round-robin and report
/// `total work / (threads × max worker work)` — the efficiency an idealised
/// machine would achieve given this work decomposition.
#[must_use]
pub fn load_balance_efficiency(per_chunk_work: &[u64], threads: usize) -> f64 {
    assert!(threads >= 1);
    let mut worker = vec![0u64; threads];
    for (i, &w) in per_chunk_work.iter().enumerate() {
        worker[i % threads] += w;
    }
    let total: u64 = worker.iter().sum();
    let max = *worker.iter().max().unwrap_or(&1);
    if max == 0 {
        return 1.0;
    }
    total as f64 / (threads as f64 * max as f64)
}

/// Per-chunk work (terms + direct pairs) of an evaluation, re-derived by
/// running the evaluation chunk-by-chunk.
#[must_use]
pub fn per_chunk_work(tc: &Treecode, chunk: usize) -> Vec<u64> {
    let particles = tc.particles();
    let n = particles.len();
    let mut works = Vec::with_capacity(n / chunk + 1);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        let pts: Vec<_> = (start..end).map(|i| particles.position(i)).collect();
        let r = tc.potentials_at(&pts);
        works.push(r.stats.work());
        start = end;
    }
    works
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_balance_extremes() {
        // perfectly even work
        let even = vec![10u64; 16];
        assert!((load_balance_efficiency(&even, 4) - 1.0).abs() < 1e-12);
        // one hot chunk among idle ones
        let skew = vec![100, 0, 0, 0];
        let e = load_balance_efficiency(&skew, 4);
        assert!((e - 0.25).abs() < 1e-12);
        // single thread is always perfectly efficient
        assert_eq!(load_balance_efficiency(&skew, 1), 1.0);
    }

    #[test]
    fn comparison_row_smoke() {
        let ps = structured_instance(2000);
        let row = compare_methods(
            &ps,
            TreecodeParams::fixed(4, 0.7),
            TreecodeParams::adaptive(4, 0.7),
            100,
        );
        assert_eq!(row.n, 2000);
        assert!(row.err_orig > 0.0 && row.err_new > 0.0);
        assert!(row.terms_new >= row.terms_orig / 2);
    }
}
