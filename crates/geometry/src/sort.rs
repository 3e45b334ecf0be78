//! Proximity-preserving particle ordering.
//!
//! The paper sorts particles by a Peano–Hilbert key so that (a) the octree
//! can be built over contiguous index ranges, and (b) the parallel force
//! evaluation can aggregate `w` consecutive particles into one work unit
//! with good data locality. The sort is parallel (rayon) and returns the
//! permutation so callers can scatter results back to the original order.

use rayon::prelude::*;

use crate::aabb::Aabb;
use crate::particle::Particle;
use crate::{hilbert, morton};

/// Which space-filling curve to sort by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurveOrder {
    /// Peano–Hilbert order (the paper's choice — strongest locality).
    #[default]
    Hilbert,
    /// Morton / Z-order (cheaper keys, weaker locality).
    Morton,
}

/// Result of ordering a particle set.
#[derive(Debug, Clone)]
pub struct Ordered {
    /// Particles, permuted into curve order.
    pub particles: Vec<Particle>,
    /// `perm[i]` = original index of the particle now at position `i`.
    pub perm: Vec<usize>,
    /// The cubical hull used for key quantisation (also the octree root).
    pub bounds: Aabb,
}

impl Ordered {
    /// Scatters values computed in sorted order back to original order:
    /// `out[perm[i]] = values[i]`.
    pub fn unsort<T: Copy + Default + Send + Sync>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.perm.len());
        let mut out = vec![T::default(); values.len()];
        for (i, &orig) in self.perm.iter().enumerate() {
            out[orig] = values[i];
        }
        out
    }
}

/// Sorts particles by space-filling-curve key inside their cubical hull.
#[must_use]
pub fn order_particles(particles: &[Particle], curve: CurveOrder) -> Ordered {
    let bounds = Aabb::cubical_hull_of(particles, 1e-9);
    order_particles_in(particles, curve, bounds)
}

/// Like [`order_particles`] but with a caller-provided bounding cube (useful
/// when several sets must share one decomposition).
#[must_use]
pub fn order_particles_in(particles: &[Particle], curve: CurveOrder, bounds: Aabb) -> Ordered {
    let mut keyed: Vec<(u64, usize)> = particles
        .par_iter()
        .enumerate()
        .map(|(i, p)| {
            let k = match curve {
                CurveOrder::Hilbert => hilbert::key(p.position, &bounds),
                CurveOrder::Morton => morton::key(p.position, &bounds),
            };
            (k, i)
        })
        .collect();
    keyed.par_sort_unstable_by_key(|&(k, i)| (k, i));
    let perm: Vec<usize> = keyed.iter().map(|&(_, i)| i).collect();
    let particles = perm.iter().map(|&i| particles[i]).collect();
    Ordered {
        particles,
        perm,
        bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{uniform_cube, ChargeModel};
    use crate::vec3::Vec3;

    #[test]
    fn permutation_is_valid_and_matches_particles() {
        let ps = uniform_cube(777, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 42);
        let ord = order_particles(&ps, CurveOrder::Hilbert);
        assert_eq!(ord.particles.len(), ps.len());
        let mut seen = vec![false; ps.len()];
        for (i, &orig) in ord.perm.iter().enumerate() {
            assert!(!seen[orig], "index {orig} repeated");
            seen[orig] = true;
            assert_eq!(ord.particles[i], ps[orig]);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unsort_restores_original_order() {
        let ps = uniform_cube(256, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 1);
        let ord = order_particles(&ps, CurveOrder::Morton);
        // values in sorted order = sorted x coordinates
        let xs_sorted: Vec<f64> = ord.particles.iter().map(|p| p.position.x).collect();
        let xs_back = ord.unsort(&xs_sorted);
        let xs_orig: Vec<f64> = ps.iter().map(|p| p.position.x).collect();
        assert_eq!(xs_back, xs_orig);
    }

    #[test]
    fn hilbert_order_improves_neighbor_distance() {
        let ps = uniform_cube(4096, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 3);
        let shuffled_dist: f64 = ps
            .windows(2)
            .map(|w| w[0].position.distance(w[1].position))
            .sum();
        let ord = order_particles(&ps, CurveOrder::Hilbert);
        let sorted_dist: f64 = ord
            .particles
            .windows(2)
            .map(|w| w[0].position.distance(w[1].position))
            .sum();
        assert!(
            sorted_dist < 0.25 * shuffled_dist,
            "sorted {sorted_dist} vs raw {shuffled_dist}"
        );
    }

    #[test]
    fn deterministic_under_duplicate_keys() {
        // duplicate positions get identical keys; the (key, index) tiebreak
        // must keep the ordering deterministic
        let p = Particle::new(Vec3::new(0.1, 0.2, 0.3), 1.0);
        let ps = vec![p; 10];
        let a = order_particles(&ps, CurveOrder::Hilbert);
        let b = order_particles(&ps, CurveOrder::Hilbert);
        assert_eq!(a.perm, b.perm);
        assert_eq!(a.perm, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let ord = order_particles(&[], CurveOrder::Hilbert);
        assert!(ord.particles.is_empty());
        assert!(ord.perm.is_empty());
        assert!(ord.bounds.is_valid());
    }
}
