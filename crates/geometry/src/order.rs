//! The one source order both hierarchical backends build on.
//!
//! The octree and the FMM insert every source once into the same
//! hierarchy: the cubical hull of the positions, padded by `1e-9` of its
//! edge, cut into `2^21` cells per axis by [`morton::quantize`]. A
//! source's Morton key names its cell at every level `l` at once
//! (`key >> 3·(21 − l)`), so one sort of `(key, caller index)` serves the
//! octree's splits and the FMM's grids alike.

use crate::aabb::Aabb;
use crate::morton;
use crate::particle::Particle;
use crate::soa::SoaSpan;
use crate::sort::curve_sort;
use crate::vec3::Vec3;

/// Why a charge vector does not fit an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeError {
    /// Its length is not the source count.
    CountMismatch { expected: usize, got: usize },
    /// The charge at this caller index is NaN/∞.
    NonFinite { index: usize },
}

/// Sources sorted by Morton key inside their padded cubical hull: the
/// permutation (`perm[i]` = caller index of sorted source `i`) and the
/// sorted positions, one array per component. Charge vectors over the
/// same positions share it.
#[derive(Debug, Clone)]
pub struct MortonOrder {
    bounds: Aabb,
    perm: Vec<usize>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl MortonOrder {
    /// Sorts `particles` by Morton key and returns the order with the
    /// sorted keys, which only steer the caller's splits. Fails with the
    /// caller index of the first particle whose position or charge is
    /// not finite.
    pub fn new(particles: &[Particle]) -> Result<(MortonOrder, Vec<u64>), usize> {
        if let Some(index) = particles
            .iter()
            .position(|p| !p.position.is_finite() || !p.charge.is_finite())
        {
            return Err(index);
        }
        let bounds = Aabb::cubical_hull_of(particles, 1e-9);
        let position = |i: usize| particles[i].position;
        let keyed = curve_sort(particles.len(), |i| morton::key(position(i), &bounds));
        let perm: Vec<usize> = keyed.iter().map(|&(_, i)| i as usize).collect();
        let column = |f: fn(Vec3) -> f64| perm.iter().map(|&i| f(position(i))).collect();
        let order = MortonOrder {
            bounds,
            x: column(|p| p.x),
            y: column(|p| p.y),
            z: column(|p| p.z),
            perm,
        };
        Ok((order, keyed.into_iter().map(|(k, _)| k).collect()))
    }

    /// The padded cubical hull the keys quantise: the root cell.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// `perm()[i]` = the caller's index of sorted source `i`.
    #[must_use]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Position of sorted source `i`.
    #[inline]
    #[must_use]
    pub fn position(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// The sorted sources under the sorted charges `q`.
    #[must_use]
    pub fn span<'a>(&'a self, q: &'a [f64]) -> SoaSpan<'a> {
        assert_eq!(q.len(), self.perm.len(), "one charge per sorted source");
        let (x, y, z) = (&self.x[..], &self.y[..], &self.z[..]);
        SoaSpan { x, y, z, q }
    }

    /// A caller-order charge vector in sorted order; refuses a wrong
    /// length or a NaN/∞ charge.
    pub fn sorted_charges(&self, charges: &[f64]) -> Result<Vec<f64>, ChargeError> {
        let (expected, got) = (self.perm.len(), charges.len());
        if expected != got {
            return Err(ChargeError::CountMismatch { expected, got });
        }
        if let Some(index) = charges.iter().position(|q| !q.is_finite()) {
            return Err(ChargeError::NonFinite { index });
        }
        Ok(self.perm.iter().map(|&i| charges[i]).collect())
    }

    /// The sorted sources' Morton keys, recomputed from their positions:
    /// non-decreasing without a sort.
    #[must_use]
    pub fn keys(&self) -> Vec<u64> {
        let key = |i| morton::key(self.position(i), &self.bounds);
        (0..self.perm.len()).map(key).collect()
    }

    /// Scatters per-sorted-source values back to the caller's order.
    pub fn unsort<T: Copy + Default>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.perm.len());
        let mut out = vec![T::default(); values.len()];
        for (&orig, &v) in self.perm.iter().zip(values) {
            out[orig] = v;
        }
        out
    }

    /// Heap bytes of the permutation and the sorted positions.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.perm.len() * (std::mem::size_of::<usize>() + 3 * std::mem::size_of::<f64>())
    }

    /// The order's contract: keys non-decreasing and `perm` a permutation
    /// of `0..n`. A violation is a bug in the order, never bad input.
    pub fn validate(&self) -> Result<(), String> {
        if self.keys().windows(2).any(|w| w[0] > w[1]) {
            return Err("Morton keys of the sorted positions decrease".into());
        }
        let mut seen = vec![false; self.perm.len()];
        for &i in &self.perm {
            if seen.get(i) != Some(&false) {
                return Err(format!("perm is not a permutation (index {i})"));
            }
            seen[i] = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{uniform_cube, ChargeModel};

    #[test]
    fn sorts_by_key_and_gathers_the_positions() {
        let ps = uniform_cube(500, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 8);
        let (order, keys) = MortonOrder::new(&ps).unwrap();
        order.validate().unwrap();
        assert_eq!(keys, order.keys());
        for (i, &orig) in order.perm().iter().enumerate() {
            assert_eq!(order.position(i), ps[orig].position);
        }
        let caller: Vec<f64> = ps.iter().map(|p| p.charge).collect();
        let q = order.sorted_charges(&caller).unwrap();
        assert!(order
            .span(&q)
            .iter()
            .zip(order.perm())
            .all(|(p, &i)| p == ps[i]));
        assert_eq!(order.unsort(&q), caller);
    }

    #[test]
    fn refuses_non_finite_input_by_caller_index() {
        let mut ps = vec![Particle::new(Vec3::ZERO, 1.0); 4];
        ps[2].charge = f64::INFINITY;
        ps[3].position.y = f64::NAN;
        assert_eq!(MortonOrder::new(&ps).unwrap_err(), 2);
        ps[2].charge = 1.0;
        let (order, _) = MortonOrder::new(&ps[..3]).unwrap();
        assert_eq!(
            order.sorted_charges(&[1.0, f64::NAN, 0.0]),
            Err(ChargeError::NonFinite { index: 1 })
        );
        assert_eq!(
            order.sorted_charges(&[1.0]),
            Err(ChargeError::CountMismatch {
                expected: 3,
                got: 1
            })
        );
    }
}
