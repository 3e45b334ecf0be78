//! Property-based tests of the geometry substrate.

use mbt_geometry::{hilbert, morton, Aabb, MortonOrder, Particle, Spherical, Vec3};
use proptest::prelude::*;

fn arb_vec3(r: f64) -> impl Strategy<Value = Vec3> {
    (-r..r, -r..r, -r..r).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// The level-`l` cell of `p` floored on that level's own grid (`2^l`
/// cells per axis of the cube `bounds`), clamped: the per-level cell an
/// FMM grid names, computed without the Morton key.
fn floored_cell(bounds: &Aabb, l: u32, p: Vec3) -> (u32, u32, u32) {
    let cells = 1u32 << l;
    let edge = bounds.edge() / f64::from(cells);
    let f = |v: f64, lo: f64| (((v - lo) / edge).floor().max(0.0) as u32).min(cells - 1);
    (
        f(p.x, bounds.min.x),
        f(p.y, bounds.min.y),
        f(p.z, bounds.min.z),
    )
}

/// The level-`l` prefix of `p`'s Morton key, decoded.
fn key_cell(bounds: &Aabb, l: u32, p: Vec3) -> (u32, u32, u32) {
    morton::decode(morton::key(p, bounds) >> (3 * (morton::BITS - l)))
}

/// Asserts that at every level `l ≤ 8` the prefix of `p`'s key is the
/// floored level-`l` cell.
fn assert_prefixes_are_cells(bounds: &Aabb, p: Vec3) {
    for l in 0..=8 {
        assert_eq!(
            key_cell(bounds, l, p),
            floored_cell(bounds, l, p),
            "level {l}, point {p:?}, bounds {bounds:?}"
        );
    }
}

/// `v` and the doubles about one ulp below and above it.
fn around(v: f64) -> [f64; 3] {
    let d = v.abs() * f64::EPSILON;
    [v - d, v, v + d]
}

#[test]
fn key_prefixes_are_the_floored_cells_of_every_level() {
    // the FMM grid cases: the upper corner and the lower corner of a cube
    // fall in its last and first cells, a point outside clamps per axis,
    // and a point lies within half a cell edge of its cell's center
    let b = Aabb::cube(Vec3::ZERO, 2.0);
    assert_eq!(key_cell(&b, 2, Vec3::new(1.0, 1.0, 1.0)), (3, 3, 3));
    assert_eq!(key_cell(&b, 2, Vec3::new(-1.0, -1.0, -1.0)), (0, 0, 0));
    assert_eq!(key_cell(&b, 2, Vec3::new(5.0, -5.0, 0.0)), (3, 0, 2));
    let p = Vec3::new(0.3, -0.9, 0.9);
    let (x, y, z) = key_cell(&b, 2, p);
    let edge = b.edge() / 4.0;
    let center = b.min
        + Vec3::new(
            (f64::from(x) + 0.5) * edge,
            (f64::from(y) + 0.5) * edge,
            (f64::from(z) + 0.5) * edge,
        );
    assert!((p - center).abs().max_component() <= edge / 2.0 + 1e-12);
    for q in [
        Vec3::new(1.0, 1.0, 1.0),
        Vec3::new(-1.0, -1.0, -1.0),
        Vec3::new(5.0, -5.0, 0.0),
        p,
    ] {
        assert_prefixes_are_cells(&b, q);
    }

    // an order's padded hull: points on (and one ulp off) every level-8
    // cell face along each axis, the hull's max corner, and points
    // clamped from far outside
    let cloud: Vec<Particle> = (0..64)
        .map(|i| {
            let t = f64::from(i);
            Particle::new(
                Vec3::new((0.7 * t).sin(), (1.3 * t).cos() * 0.4, 0.03 * t - 0.5),
                1.0,
            )
        })
        .collect();
    let (order, _) = MortonOrder::new(&cloud).unwrap();
    let hull = order.bounds();
    let c = hull.center();
    for k in 0..=256 {
        let face = |lo: f64| lo + f64::from(k) * hull.edge() / 256.0;
        for v in around(face(hull.min.x)) {
            assert_prefixes_are_cells(&hull, Vec3::new(v, c.y, c.z));
        }
        for v in around(face(hull.min.y)) {
            assert_prefixes_are_cells(&hull, Vec3::new(c.x, v, c.z));
        }
        for v in around(face(hull.min.z)) {
            assert_prefixes_are_cells(&hull, Vec3::new(c.x, c.y, v));
        }
    }
    assert_prefixes_are_cells(&hull, hull.max);
    assert_eq!(key_cell(&hull, 8, hull.max), (255, 255, 255));
    for far in [
        Vec3::splat(1e6),
        Vec3::splat(-1e6),
        Vec3::new(-1e6, 0.0, 1e6),
    ] {
        assert_prefixes_are_cells(&hull, far);
    }

    // coincident points: the hull of one point is a unit cube around it,
    // and every copy gets the one key
    let same = vec![Particle::new(Vec3::new(0.25, -0.5, 1.0), 1.0); 7];
    let (order, keys) = MortonOrder::new(&same).unwrap();
    assert!(keys.iter().all(|&k| k == keys[0]));
    assert_prefixes_are_cells(&order.bounds(), same[0].position);
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

    /// The key prefixes of random points are their floored cells, and a
    /// Morton order over them sorts by key.
    #[test]
    fn key_prefixes_match_floored_cells(pts in prop::collection::vec(arb_vec3(50.0), 1..64)) {
        let ps: Vec<Particle> = pts.iter().map(|&p| Particle::new(p, 1.0)).collect();
        let (order, keys) = MortonOrder::new(&ps).unwrap();
        prop_assert!(order.validate().is_ok());
        prop_assert_eq!(&keys, &order.keys());
        for p in pts {
            assert_prefixes_are_cells(&order.bounds(), p);
        }
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
