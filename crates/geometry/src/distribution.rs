//! Particle distributions used in the paper's evaluation.
//!
//! * **Uniform** — "a random distribution of points distributed equally
//!   across the domain" (the structured instances of Table 1),
//! * **Gaussian** — single Gaussian density,
//! * **Overlapped Gaussians** — "multiple Gaussians superimposed" (the
//!   unstructured instances),
//! * **Plummer** — the standard astrophysical cluster model, a strongly
//!   centrally concentrated set (the query-service example serves one).
//!
//! Charges default to the protein-like regime the paper motivates: uniform
//! magnitude with random sign, so charge density is "largely uniform across
//! the domain" and cluster net absolute charge grows with cluster volume.
//! All generators are seeded and deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::particle::Particle;
use crate::vec3::Vec3;

/// How particle charges are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChargeModel {
    /// Every particle carries charge `+magnitude`.
    UnitPositive {
        /// Common charge magnitude.
        magnitude: f64,
    },
    /// `+magnitude` or `-magnitude` with equal probability.
    RandomSign {
        /// Common charge magnitude.
        magnitude: f64,
    },
    /// Uniformly distributed in `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl ChargeModel {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            ChargeModel::UnitPositive { magnitude } => magnitude,
            ChargeModel::RandomSign { magnitude } => {
                if rng.gen::<bool>() {
                    magnitude
                } else {
                    -magnitude
                }
            }
            ChargeModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
        }
    }
}

/// A standard normal sample via the Box–Muller transform (kept in-tree to
/// stay within the approved dependency set).
fn standard_normal(rng: &mut StdRng) -> f64 {
    // u1 in (0,1] so the log is finite
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `n` particles uniform in the cube `[-half_edge, half_edge]^3`.
#[must_use]
pub fn uniform_cube(n: usize, half_edge: f64, charges: ChargeModel, seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let p = Vec3::new(
                rng.gen_range(-half_edge..=half_edge),
                rng.gen_range(-half_edge..=half_edge),
                rng.gen_range(-half_edge..=half_edge),
            );
            Particle::new(p, charges.sample(&mut rng))
        })
        .collect()
}

/// `n` particles uniform in the ball of radius `radius` (rejection-free:
/// direction from normals, radius from the cube-root law).
#[must_use]
pub fn uniform_ball(n: usize, radius: f64, charges: ChargeModel, seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let dir = Vec3::new(
                standard_normal(&mut rng),
                standard_normal(&mut rng),
                standard_normal(&mut rng),
            )
            .normalized();
            let r = radius * rng.gen::<f64>().cbrt();
            Particle::new(dir * r, charges.sample(&mut rng))
        })
        .collect()
}

/// `n` particles from an isotropic Gaussian with the given center and
/// standard deviation.
#[must_use]
pub fn gaussian(
    n: usize,
    center: Vec3,
    sigma: f64,
    charges: ChargeModel,
    seed: u64,
) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let p = center
                + Vec3::new(
                    standard_normal(&mut rng),
                    standard_normal(&mut rng),
                    standard_normal(&mut rng),
                ) * sigma;
            Particle::new(p, charges.sample(&mut rng))
        })
        .collect()
}

/// `n` particles from `k` superimposed Gaussians whose centers are placed
/// uniformly at random in `[-spread, spread]^3` — the paper's "overlapped
/// Gaussian distributions".
#[must_use]
pub fn overlapped_gaussians(
    n: usize,
    k: usize,
    spread: f64,
    sigma: f64,
    charges: ChargeModel,
    seed: u64,
) -> Vec<Particle> {
    assert!(k > 0, "need at least one Gaussian component");
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec3> = (0..k)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-spread..=spread),
                rng.gen_range(-spread..=spread),
                rng.gen_range(-spread..=spread),
            )
        })
        .collect();
    (0..n)
        .map(|_| {
            let c = centers[rng.gen_range(0..k)];
            let p = c + Vec3::new(
                standard_normal(&mut rng),
                standard_normal(&mut rng),
                standard_normal(&mut rng),
            ) * sigma;
            Particle::new(p, charges.sample(&mut rng))
        })
        .collect()
}

/// `n` equal-mass particles from a Plummer sphere of scale radius `a` and
/// total mass `total_mass` (Aarseth–Hénon–Wielen sampling), truncated at
/// ten scale radii so the box hull stays bounded.
#[must_use]
pub fn plummer(n: usize, a: f64, total_mass: f64, seed: u64) -> Vec<Particle> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = total_mass / n as f64;
    (0..n)
        .map(|_| {
            // radius from the cumulative mass profile M(r) ∝ r³/(r²+a²)^(3/2)
            let r = loop {
                let x: f64 = rng.gen_range(1e-10..1.0);
                let r = a / (x.powf(-2.0 / 3.0) - 1.0).sqrt();
                if r <= 10.0 * a {
                    break r;
                }
            };
            // isotropic direction
            let z: f64 = rng.gen_range(-1.0..=1.0);
            let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let s = (1.0 - z * z).max(0.0).sqrt();
            let dir = Vec3::new(s * phi.cos(), s * phi.sin(), z);
            Particle::new(dir * r, m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aabb::Aabb;
    use crate::particle::total_abs_charge;

    #[test]
    fn uniform_cube_stays_in_bounds_and_is_deterministic() {
        let a = uniform_cube(500, 2.0, ChargeModel::RandomSign { magnitude: 1.0 }, 7);
        let b = uniform_cube(500, 2.0, ChargeModel::RandomSign { magnitude: 1.0 }, 7);
        assert_eq!(a, b);
        for p in &a {
            assert!(p.position.abs().max_component() <= 2.0);
            assert_eq!(p.abs_charge(), 1.0);
        }
        // with random signs the net charge should be far below n
        let net: f64 = a.iter().map(|p| p.charge).sum();
        assert!(net.abs() < 500.0 * 0.5);
        assert_eq!(total_abs_charge(&a), 500.0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform_cube(100, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 1);
        let b = uniform_cube(100, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_ball_radius_law() {
        let ps = uniform_ball(4000, 3.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 11);
        let mut inside_half = 0usize;
        for p in &ps {
            let r = p.position.norm();
            assert!(r <= 3.0 + 1e-12);
            if r <= 1.5 {
                inside_half += 1;
            }
        }
        // uniform density: P(r <= R/2) = 1/8
        let frac = inside_half as f64 / ps.len() as f64;
        assert!((frac - 0.125).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn gaussian_moments() {
        let ps = gaussian(
            8000,
            Vec3::new(1.0, -2.0, 0.5),
            0.7,
            ChargeModel::UnitPositive { magnitude: 1.0 },
            3,
        );
        let mean: Vec3 = ps.iter().map(|p| p.position).sum::<Vec3>() / ps.len() as f64;
        assert!(mean.distance(Vec3::new(1.0, -2.0, 0.5)) < 0.05);
        let var_x: f64 = ps
            .iter()
            .map(|p| (p.position.x - mean.x).powi(2))
            .sum::<f64>()
            / ps.len() as f64;
        assert!((var_x.sqrt() - 0.7).abs() < 0.05);
    }

    #[test]
    fn overlapped_gaussians_are_clumpy() {
        // Compare the fraction of the cubical hull's octants that are
        // "crowded": an overlapped-Gaussian set concentrates mass far more
        // than a uniform set of the same size.
        let ps = overlapped_gaussians(
            4000,
            4,
            4.0,
            0.3,
            ChargeModel::RandomSign { magnitude: 1.0 },
            5,
        );
        let hull = Aabb::cubical_hull_of(&ps, 1e-3);
        let mut counts = [0usize; 64];
        for p in &ps {
            let rel = (p.position - hull.min) / hull.edge();
            let ix = (rel.x * 4.0).min(3.0) as usize;
            let iy = (rel.y * 4.0).min(3.0) as usize;
            let iz = (rel.z * 4.0).min(3.0) as usize;
            counts[(iz * 4 + iy) * 4 + ix] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = ps.len() as f64 / 64.0;
        assert!(
            max > 4.0 * mean,
            "distribution not clumpy: max {max}, mean {mean}"
        );
    }

    #[test]
    fn plummer_mass_and_truncation() {
        let ps = plummer(2000, 1.0, 100.0, 9);
        let total: f64 = ps.iter().map(|p| p.charge).sum();
        assert!((total - 100.0).abs() < 1e-9);
        for p in &ps {
            assert!(p.position.norm() <= 10.0 + 1e-9);
        }
        // half-mass radius of a Plummer sphere is ~1.3 a; the truncation at
        // 10a removes ~1.5% of mass so allow slack
        let mut radii: Vec<f64> = ps.iter().map(|p| p.position.norm()).collect();
        radii.sort_by(f64::total_cmp);
        let half = radii[ps.len() / 2];
        assert!((half - 1.3).abs() < 0.25, "half-mass radius = {half}");
    }

    #[test]
    #[should_panic(expected = "need at least one Gaussian component")]
    fn overlapped_gaussians_zero_components_panics() {
        let _ = overlapped_gaussians(
            10,
            0,
            1.0,
            1.0,
            ChargeModel::UnitPositive { magnitude: 1.0 },
            0,
        );
    }
}
