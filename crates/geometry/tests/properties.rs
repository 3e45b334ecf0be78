//! Property-based tests of the geometry substrate.

use mbt_geometry::{hilbert, morton, Aabb, Spherical, Vec3};
use proptest::prelude::*;

fn arb_vec3(r: f64) -> impl Strategy<Value = Vec3> {
    (-r..r, -r..r, -r..r).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Spherical ↔ Cartesian roundtrip within floating-point tolerance.
    #[test]
    fn spherical_roundtrip(v in arb_vec3(100.0)) {
        let s = Spherical::from_cartesian(v);
        let back = s.to_cartesian();
        prop_assert!(v.distance(back) <= 1e-10 * (1.0 + v.norm()));
        prop_assert!(s.rho >= 0.0);
        prop_assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&s.theta));
    }

    /// Morton keys roundtrip on the full grid.
    #[test]
    fn morton_roundtrip(
        x in 0u32..(1 << 21),
        y in 0u32..(1 << 21),
        z in 0u32..(1 << 21),
    ) {
        prop_assert_eq!(morton::decode(morton::encode(x, y, z)), (x, y, z));
    }

    /// Hilbert keys roundtrip and are a bijection sample-wise.
    #[test]
    fn hilbert_roundtrip(
        x in 0u32..(1 << 21),
        y in 0u32..(1 << 21),
        z in 0u32..(1 << 21),
    ) {
        let k = hilbert::encode(x, y, z);
        prop_assert_eq!(hilbert::decode(k), (x, y, z));
    }

    /// Consecutive Hilbert keys decode to face-adjacent grid cells.
    #[test]
    fn hilbert_adjacency(seed in 0u64..(1u64 << 60)) {
        let a = hilbert::decode(seed);
        let b = hilbert::decode(seed + 1);
        let d = (i64::from(a.0) - i64::from(b.0)).abs()
            + (i64::from(a.1) - i64::from(b.1)).abs()
            + (i64::from(a.2) - i64::from(b.2)).abs();
        prop_assert_eq!(d, 1);
    }

    /// Hölder-1/3 locality: cells `d` apart along the curve lie within
    /// Chebyshev distance `O(d^(1/3))` of each other — the property that
    /// makes contiguous key ranges spatially compact shards. The constant
    /// 6 is loose for the 3D Hilbert curve (whose segments of length `d`
    /// fit in a box of edge ~`2·d^(1/3)`); the assertion pins the
    /// exponent, not the sharpest constant.
    #[test]
    fn hilbert_locality(seed in 0u64..(1u64 << 60), delta in 1u64..65536) {
        let a = hilbert::decode(seed);
        let b = hilbert::decode(seed + delta);
        let chebyshev = i64::from(a.0).abs_diff(i64::from(b.0))
            .max(i64::from(a.1).abs_diff(i64::from(b.1)))
            .max(i64::from(a.2).abs_diff(i64::from(b.2)));
        let bound = 6.0 * (delta as f64).cbrt();
        prop_assert!(
            (chebyshev as f64) <= bound,
            "cells {delta} apart on the curve are {chebyshev} apart in space (bound {bound})"
        );
    }

    /// Cubical hulls contain all their points and are cubes.
    #[test]
    fn cubical_hull_properties(pts in prop::collection::vec(arb_vec3(50.0), 1..64)) {
        let hull = Aabb::cubical_hull(&pts, 1e-9);
        let e = hull.extent();
        prop_assert!((e.x - e.y).abs() <= 1e-9 * e.x.max(1.0));
        prop_assert!((e.y - e.z).abs() <= 1e-9 * e.y.max(1.0));
        for p in pts {
            prop_assert!(hull.contains(p));
        }
    }

    /// The octant decomposition partitions: each point is in the octant
    /// its index claims.
    #[test]
    fn octants_partition(p in arb_vec3(1.0)) {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let o = b.octant_of(p);
        prop_assert!(b.octant(o).contains(p));
    }

    /// Distance to a box is zero iff inside.
    #[test]
    fn aabb_distance_sign(p in arb_vec3(3.0)) {
        let b = Aabb::cube(Vec3::ZERO, 2.0);
        let d = b.distance_to(p);
        if b.contains(p) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    /// Vector algebra: norms obey the triangle inequality and scaling.
    #[test]
    fn vector_norms(a in arb_vec3(10.0), b in arb_vec3(10.0), s in -5.0f64..5.0) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-12);
        prop_assert!(((a * s).norm() - s.abs() * a.norm()).abs() <= 1e-9 * (1.0 + a.norm()));
        // Cauchy–Schwarz
        prop_assert!(a.dot(b).abs() <= a.norm() * b.norm() + 1e-12);
        // cross product orthogonality
        let c = a.cross(b);
        prop_assert!(c.dot(a).abs() <= 1e-9 * (1.0 + c.norm() * a.norm()));
    }
}
