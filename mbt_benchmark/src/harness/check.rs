//! Correctness references, independent of the code under test: plain
//! direct summation written here, and the relative L2 norm over seeded
//! sampled targets (the paper's sampled-error estimator).

use mbt_geometry::{Particle, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// `Σ q_j / |x − x_j|`, skipping a source that sits exactly on `x` (the
/// self term when `x` is a source position).
pub fn direct_potential(particles: &[Particle], x: Vec3) -> f64 {
    let mut phi = 0.0;
    for p in particles {
        let r = p.position.distance(x);
        if r > 0.0 {
            phi += p.charge / r;
        }
    }
    phi
}

/// Potential and its gradient `∇Φ = −Σ q_j (x − x_j)/|x − x_j|³`.
pub fn direct_field(particles: &[Particle], x: Vec3) -> (f64, Vec3) {
    let mut phi = 0.0;
    let mut grad = Vec3::ZERO;
    for p in particles {
        let d = x - p.position;
        let r = d.norm();
        if r > 0.0 {
            phi += p.charge / r;
            grad += d * (-p.charge / (r * r * r));
        }
    }
    (phi, grad)
}

pub fn direct_potentials(particles: &[Particle], points: &[Vec3]) -> Vec<f64> {
    points
        .par_iter()
        .map(|&x| direct_potential(particles, x))
        .collect()
}

/// `m` distinct indices below `n`, ascending, drawn from `seed`.
pub fn sample_indices(n: usize, m: usize, seed: u64) -> Vec<usize> {
    let m = m.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..m {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(m);
    idx.sort_unstable();
    idx
}

/// Accumulates `‖approx − exact‖₂ / ‖exact‖₂`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrAcc {
    num: f64,
    den: f64,
}

impl ErrAcc {
    pub fn add(&mut self, approx: f64, exact: f64) {
        self.num += (approx - exact) * (approx - exact);
        self.den += exact * exact;
    }

    pub fn add_vec(&mut self, approx: Vec3, exact: Vec3) {
        self.add(approx.x, exact.x);
        self.add(approx.y, exact.y);
        self.add(approx.z, exact.z);
    }

    pub fn merge(&mut self, other: ErrAcc) {
        self.num += other.num;
        self.den += other.den;
    }

    /// Infinite when nothing finite was accumulated, so a check that
    /// compared nothing, or compared NaNs, never passes.
    pub fn rel_l2(&self) -> f64 {
        if self.den > 0.0 && self.num.is_finite() {
            (self.num / self.den).sqrt()
        } else {
            f64::INFINITY
        }
    }
}

/// Relative L2 error of `values` at the sampled indices.
pub fn sampled_error(values: &[f64], sample: &[usize], exact: &[f64]) -> f64 {
    let mut acc = ErrAcc::default();
    for (&i, &e) in sample.iter().zip(exact) {
        acc.add(values.get(i).copied().unwrap_or(f64::NAN), e);
    }
    acc.rel_l2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_sums_and_error_norm() {
        let ps = [
            Particle::new(Vec3::new(0.0, 0.0, 0.0), 2.0),
            Particle::new(Vec3::new(2.0, 0.0, 0.0), -1.0),
        ];
        // at a source: the self term is skipped
        assert_eq!(direct_potential(&ps, Vec3::new(0.0, 0.0, 0.0)), -0.5);
        let (phi, g) = direct_field(&ps, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(phi, 1.0);
        // ∂/∂x [2/x − 1/(2−x)] at x=1 is −2 − 1
        assert!((g.x + 3.0).abs() < 1e-12 && g.y == 0.0);
        let idx = sample_indices(100, 10, 3);
        assert_eq!(idx.len(), 10);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(idx, sample_indices(100, 10, 3));
        assert_eq!(sampled_error(&[1.0, 2.0, 3.0], &[0, 2], &[1.0, 3.0]), 0.0);
        assert!(sampled_error(&[f64::NAN], &[0], &[1.0]).is_infinite());
        assert!(ErrAcc::default().rel_l2().is_infinite());
    }
}
