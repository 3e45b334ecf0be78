//! Structure-of-arrays particle mirror for batched kernels.
//!
//! The evaluation hot loops in `mbt-multipole` stream over source
//! coordinates one component at a time (`x[j] - t.x`, …). With the
//! array-of-structs [`Particle`] layout each lane of such a loop loads a
//! 32-byte record to use 8 bytes of it, which defeats vectorization; the
//! [`ParticleSoa`] mirror stores each component contiguously so the
//! compiler can issue packed loads. The mirror is built once per tree
//! (in sorted particle order) and is redundant with the `Particle` slice
//! by construction — the octree owns both and keeps the charges in sync.

use crate::particle::Particle;

/// Particle coordinates and charges split into one contiguous array per
/// component, in the same order as the slice it mirrors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleSoa {
    /// `x` coordinates.
    pub x: Vec<f64>,
    /// `y` coordinates.
    pub y: Vec<f64>,
    /// `z` coordinates.
    pub z: Vec<f64>,
    /// Signed charges.
    pub q: Vec<f64>,
}

impl ParticleSoa {
    /// Builds the mirror of `particles`, preserving order.
    #[must_use]
    pub fn from_particles(particles: &[Particle]) -> ParticleSoa {
        ParticleSoa {
            x: particles.iter().map(|p| p.position.x).collect(),
            y: particles.iter().map(|p| p.position.y).collect(),
            z: particles.iter().map(|p| p.position.z).collect(),
            q: particles.iter().map(|p| p.charge).collect(),
        }
    }

    /// Number of mirrored particles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the mirror is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Re-copies the charges from `particles` (positions are assumed
    /// unchanged — the use case is charge-only dataset updates that keep
    /// the tree geometry).
    pub fn sync_charges(&mut self, particles: &[Particle]) {
        debug_assert_eq!(self.len(), particles.len());
        for (q, p) in self.q.iter_mut().zip(particles) {
            *q = p.charge;
        }
    }

    /// Resident heap bytes of the four component arrays.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        (self.x.capacity() + self.y.capacity() + self.z.capacity() + self.q.capacity())
            * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Vec3;

    fn particles() -> Vec<Particle> {
        (0..17)
            .map(|i| {
                let t = f64::from(i);
                Particle::new(
                    Vec3::new(t.sin(), (0.5 * t).cos(), 0.1 * t),
                    1.0 - 2.0 * f64::from(i % 2),
                )
            })
            .collect()
    }

    #[test]
    fn mirror_matches_source_order() {
        let ps = particles();
        let soa = ParticleSoa::from_particles(&ps);
        assert_eq!(soa.len(), ps.len());
        assert!(!soa.is_empty());
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(soa.x[i].to_bits(), p.position.x.to_bits());
            assert_eq!(soa.y[i].to_bits(), p.position.y.to_bits());
            assert_eq!(soa.z[i].to_bits(), p.position.z.to_bits());
            assert_eq!(soa.q[i].to_bits(), p.charge.to_bits());
        }
    }

    #[test]
    fn sync_charges_updates_only_q() {
        let mut ps = particles();
        let mut soa = ParticleSoa::from_particles(&ps);
        let xs = soa.x.clone();
        for (i, p) in ps.iter_mut().enumerate() {
            p.charge = 0.25 * i as f64;
        }
        soa.sync_charges(&ps);
        assert_eq!(soa.x, xs);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(soa.q[i].to_bits(), p.charge.to_bits());
        }
    }

    #[test]
    fn heap_bytes_counts_all_components() {
        let soa = ParticleSoa::from_particles(&particles());
        assert!(soa.heap_bytes() >= 4 * soa.len() * std::mem::size_of::<f64>());
        assert_eq!(ParticleSoa::default().len(), 0);
    }
}
