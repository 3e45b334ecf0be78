//! Axis-aligned bounding boxes.
//!
//! The octree of the treecode works on *cubical* cells, so besides the usual
//! AABB operations this module provides [`Aabb::cubical_hull`], which pads a
//! tight bounding box of a point set into the smallest enclosing cube — the
//! root cell of the decomposition.

use crate::particle::Particle;
use crate::vec3::Vec3;

/// An axis-aligned box `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower corner.
    pub min: Vec3,
    /// Upper corner.
    pub max: Vec3,
}

impl Aabb {
    /// A box from explicit corners. `min` must be component-wise `<= max`.
    #[inline]
    #[must_use]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z);
        Aabb { min, max }
    }

    /// The empty box (inverted infinities), identity for [`Aabb::union`] /
    /// [`Aabb::grow`].
    #[inline]
    #[must_use]
    pub fn empty() -> Self {
        Aabb {
            min: Vec3::splat(f64::INFINITY),
            max: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    /// A cube centred at `center` with edge length `edge`.
    #[inline]
    #[must_use]
    pub fn cube(center: Vec3, edge: f64) -> Self {
        let h = Vec3::splat(edge * 0.5);
        Aabb {
            min: center - h,
            max: center + h,
        }
    }

    /// Tight bounding box of a point set. Returns [`Aabb::empty`] for an
    /// empty slice.
    #[must_use]
    pub fn of_points(points: &[Vec3]) -> Self {
        let mut b = Aabb::empty();
        for &p in points {
            b.grow(p);
        }
        b
    }

    /// Smallest enclosing *cube* of a point set, inflated by `pad_rel`
    /// (relative to the edge) so boundary points land strictly inside.
    ///
    /// Used to build the root cell of the octree: cubical cells keep the
    /// "box dimension" of the multipole acceptance criterion unambiguous.
    #[must_use]
    pub fn cubical_hull(points: &[Vec3], pad_rel: f64) -> Self {
        let tight = Aabb::of_points(points);
        if !tight.is_valid() {
            return Aabb::cube(Vec3::ZERO, 1.0);
        }
        let center = tight.center();
        let mut edge = tight.extent().max_component();
        if edge <= 0.0 {
            edge = 1.0; // all points coincide
        }
        Aabb::cube(center, edge * (1.0 + pad_rel))
    }

    /// [`Aabb::cubical_hull`] of the particles' positions, without copying
    /// them out: the hull of the tight box's two corners is the hull of
    /// the whole set.
    #[must_use]
    pub fn cubical_hull_of(particles: &[Particle], pad_rel: f64) -> Self {
        let mut tight = Aabb::empty();
        for p in particles {
            tight.grow(p.position);
        }
        let corners = [tight.min, tight.max];
        Aabb::cubical_hull(
            &corners[..if particles.is_empty() { 0 } else { 2 }],
            pad_rel,
        )
    }

    /// True when `min <= max` on all axes (i.e. not [`Aabb::empty`]).
    #[inline]
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.min.x <= self.max.x && self.min.y <= self.max.y && self.min.z <= self.max.z
    }

    /// Box center.
    #[inline]
    #[must_use]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extent (`max - min`).
    #[inline]
    #[must_use]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// The largest edge — the "dimension of the box enclosing the cluster"
    /// in the paper's α-criterion.
    #[inline]
    #[must_use]
    pub fn edge(&self) -> f64 {
        self.extent().max_component()
    }

    /// Half of the space diagonal: the radius of the circumscribed sphere,
    /// i.e. the `a` of Theorem 1 for a cluster filling this box.
    #[inline]
    #[must_use]
    pub fn circumradius(&self) -> f64 {
        self.extent().norm() * 0.5
    }

    /// Extends the box to contain `p`.
    #[inline]
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Smallest box containing both operands.
    #[inline]
    #[must_use]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    #[must_use]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The child cube of an octree cell. `octant` bits select the upper half
    /// along x (bit 0), y (bit 1), z (bit 2). The parent is assumed cubical.
    #[inline]
    #[must_use]
    pub fn octant(&self, octant: usize) -> Aabb {
        debug_assert!(octant < 8);
        let c = self.center();
        let pick = |bit: usize, lo: f64, mid: f64, hi: f64| -> (f64, f64) {
            if octant >> bit & 1 == 1 {
                (mid, hi)
            } else {
                (lo, mid)
            }
        };
        let (x0, x1) = pick(0, self.min.x, c.x, self.max.x);
        let (y0, y1) = pick(1, self.min.y, c.y, self.max.y);
        let (z0, z1) = pick(2, self.min.z, c.z, self.max.z);
        Aabb::new(Vec3::new(x0, y0, z0), Vec3::new(x1, y1, z1))
    }

    /// Index of the octant of this box containing `p` (points on a split
    /// plane go to the upper octant).
    #[inline]
    #[must_use]
    pub fn octant_of(&self, p: Vec3) -> usize {
        let c = self.center();
        usize::from(p.x >= c.x) | usize::from(p.y >= c.y) << 1 | usize::from(p.z >= c.z) << 2
    }

    /// Minimum distance from `p` to the box (0 inside).
    #[must_use]
    pub fn distance_to(&self, p: Vec3) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        Vec3::new(dx, dy, dz).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_union_identity() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert_eq!(Aabb::empty().union(&b), b);
        assert!(!Aabb::empty().is_valid());
    }

    #[test]
    fn of_points_is_tight() {
        let pts = [
            Vec3::new(-1.0, 0.0, 2.0),
            Vec3::new(3.0, -4.0, 0.5),
            Vec3::new(0.0, 1.0, -2.0),
        ];
        let b = Aabb::of_points(&pts);
        assert_eq!(b.min, Vec3::new(-1.0, -4.0, -2.0));
        assert_eq!(b.max, Vec3::new(3.0, 1.0, 2.0));
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn cubical_hull_is_cube_and_contains() {
        let pts = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 2.0, 0.5)];
        let b = Aabb::cubical_hull(&pts, 1e-6);
        let e = b.extent();
        assert!((e.x - e.y).abs() < 1e-12 && (e.y - e.z).abs() < 1e-12);
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn cubical_hull_degenerate_inputs() {
        // empty set and a single point both yield a valid unit-scale cube
        let b = Aabb::cubical_hull(&[], 0.0);
        assert!(b.is_valid() && b.edge() > 0.0);
        let b = Aabb::cubical_hull(&[Vec3::new(5.0, 5.0, 5.0)], 0.0);
        assert!(b.is_valid() && b.edge() > 0.0);
        assert!(b.contains(Vec3::new(5.0, 5.0, 5.0)));
    }

    #[test]
    fn octants_partition_cube() {
        let b = Aabb::cube(Vec3::new(1.0, -2.0, 0.0), 4.0);
        let mut vol = 0.0;
        for o in 0..8 {
            let c = b.octant(o);
            let e = c.extent();
            vol += e.x * e.y * e.z;
            // child center must map back to the same octant index
            assert_eq!(b.octant_of(c.center()), o);
        }
        let e = b.extent();
        assert!((vol - e.x * e.y * e.z).abs() < 1e-9);
    }

    #[test]
    fn octant_of_split_plane_goes_up() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        assert_eq!(b.octant_of(Vec3::ZERO), 7);
        assert_eq!(b.octant_of(Vec3::new(-0.5, -0.5, -0.5)), 0);
        assert_eq!(b.octant_of(Vec3::new(0.5, -0.5, 0.5)), 5);
    }

    #[test]
    fn distance_to_point() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        assert_eq!(b.distance_to(Vec3::ZERO), 0.0);
        assert_eq!(b.distance_to(Vec3::new(2.0, 0.0, 0.0)), 1.0);
        let d = b.distance_to(Vec3::new(2.0, 2.0, 2.0));
        assert!((d - (3.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn edge_and_circumradius() {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        assert_eq!(b.edge(), 2.0);
        assert!((b.circumradius() - 3.0f64.sqrt()).abs() < 1e-12);
    }
}
