//! Structure-of-arrays particle storage for batched kernels.
//!
//! The evaluation hot loops in `mbt-multipole` stream over source
//! coordinates one component at a time (`x[j] - t.x`, …). With the
//! array-of-structs [`Particle`] layout each lane of such a loop loads a
//! 32-byte record to use 8 bytes of it, which defeats vectorization;
//! [`ParticleSoa`] stores each component contiguously so the compiler can
//! issue packed loads. A built octree or FMM keeps its sorted positions
//! in a [`crate::MortonOrder`] and its charges beside them; a [`SoaSpan`]
//! is the view every reader takes of them.

use std::ops::Range;

use crate::particle::Particle;
use crate::vec3::Vec3;

/// Particle coordinates and charges split into one contiguous array per
/// component.
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
    /// The particles `particles[i]` for each `i` of `order` — the sources
    /// in a sort order (or `0..n`, as given), gathered in one pass.
    #[must_use]
    pub fn gather(
        particles: &[Particle],
        order: impl ExactSizeIterator<Item = usize>,
    ) -> ParticleSoa {
        let column = || Vec::with_capacity(order.len());
        let mut soa = ParticleSoa {
            x: column(),
            y: column(),
            z: column(),
            q: column(),
        };
        for p in order.map(|i| &particles[i]) {
            soa.x.push(p.position.x);
            soa.y.push(p.position.y);
            soa.z.push(p.position.z);
            soa.q.push(p.charge);
        }
        soa
    }

    /// A view of every particle.
    #[must_use]
    pub fn span(&self) -> SoaSpan<'_> {
        SoaSpan {
            x: &self.x,
            y: &self.y,
            z: &self.z,
            q: &self.q,
        }
    }
}

/// A borrowed run of sources in structure-of-arrays form: four slices of
/// one length, particle `i` at index `i` of each.
#[derive(Debug, Clone, Copy)]
pub struct SoaSpan<'a> {
    /// `x` coordinates.
    pub x: &'a [f64],
    /// `y` coordinates.
    pub y: &'a [f64],
    /// `z` coordinates.
    pub z: &'a [f64],
    /// Signed charges.
    pub q: &'a [f64],
}

impl<'a> SoaSpan<'a> {
    /// Number of particles in the span.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the span is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Position of particle `i`.
    #[inline]
    #[must_use]
    pub fn position(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// The particles `range` of this span.
    #[inline]
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> SoaSpan<'a> {
        SoaSpan {
            x: &self.x[range.clone()],
            y: &self.y[range.clone()],
            z: &self.z[range.clone()],
            q: &self.q[range],
        }
    }

    /// The particles in order, reassembled by value.
    #[must_use]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Particle> + 'a {
        let (x, y, z, q) = (self.x, self.y, self.z, self.q);
        x.iter()
            .zip(y)
            .zip(z)
            .zip(q)
            .map(|(((&x, &y), &z), &q)| Particle::new(Vec3::new(x, y, z), q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn gather_follows_the_order_and_spans_index_from_their_start() {
        let ps = particles();
        let order: Vec<usize> = (0..ps.len()).rev().collect();
        let soa = ParticleSoa::gather(&ps, order.iter().copied());
        let all = soa.span();
        assert_eq!(all.len(), ps.len());
        // `Particle` equality is bitwise here: no NaN, no signed zero
        assert!(all.iter().zip(&order).all(|(p, &i)| p == ps[i]));
        let span = all.slice(4..9);
        assert_eq!((span.len(), span.iter().next()), (5, Some(ps[order[4]])));
        assert_eq!(span.position(4), ps[order[8]].position);
        assert!(all.slice(3..3).is_empty());
    }
}
