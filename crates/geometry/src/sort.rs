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

/// Sorts particles by space-filling-curve key inside their cubical hull.
#[must_use]
pub fn order_particles(particles: &[Particle], curve: CurveOrder) -> Ordered {
    let bounds = Aabb::cubical_hull_of(particles, 1e-9);
    let key = match curve {
        CurveOrder::Hilbert => hilbert::key,
        CurveOrder::Morton => morton::key,
    };
    let keyed = curve_sort(particles.len(), |i| key(particles[i].position, &bounds));
    let perm: Vec<usize> = keyed.iter().map(|&(_, i)| i as usize).collect();
    let particles = perm.iter().map(|&i| particles[i]).collect();
    Ordered {
        particles,
        perm,
        bounds,
    }
}

/// `(key(i), i)` for every index `i < n`, sorted — equal keys keep the
/// caller's order. The one curve sort: [`crate::MortonOrder`], the
/// particle orderings here and the shard partitioner all sort with it.
pub fn curve_sort(n: usize, key: impl Fn(usize) -> u64 + Sync + Send) -> Vec<(u64, u32)> {
    let mut keyed: Vec<(u64, u32)> = (0..n).into_par_iter().map(|i| (key(i), i as u32)).collect();
    keyed.par_sort_unstable();
    keyed
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
    fn morton_order_sorts_by_morton_key() {
        let ps = uniform_cube(256, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 1);
        let ord = order_particles(&ps, CurveOrder::Morton);
        let keys: Vec<u64> = ord
            .particles
            .iter()
            .map(|p| morton::key(p.position, &ord.bounds))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
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
