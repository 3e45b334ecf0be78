//! Property-based tests of the octree invariants.

use mbt_geometry::{Particle, Vec3};
use mbt_tree::{Octree, OctreeParams};
use proptest::prelude::*;

fn arb_particles(max_n: usize) -> impl Strategy<Value = Vec<Particle>> {
    prop::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0, -3.0f64..3.0)
            .prop_map(|(x, y, z, q)| Particle::new(Vec3::new(x, y, z), q)),
        1..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full structural validation passes for arbitrary inputs and leaf
    /// capacities: partition, containment, aggregates.
    #[test]
    fn structure_valid(ps in arb_particles(300), leaf in 1usize..40) {
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: leaf }).unwrap();
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
    }

    /// Every particle appears exactly once across the sorted array, and
    /// the permutation is a bijection.
    #[test]
    fn permutation_bijective(ps in arb_particles(200)) {
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        let mut seen = vec![false; ps.len()];
        for &i in tree.order().perm() {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // unsort of identity recovers original positions
        let xs: Vec<f64> = tree.particles().iter().map(|p| p.position.x).collect();
        let back = tree.order().unsort(&xs);
        for (b, p) in back.iter().zip(&ps) {
            prop_assert_eq!(*b, p.position.x);
        }
    }

    /// Root aggregates equal whole-set aggregates.
    #[test]
    fn root_aggregates_match(ps in arb_particles(200)) {
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        let root = tree.node(tree.root());
        let a: f64 = ps.iter().map(|p| p.charge.abs()).sum();
        let net: f64 = ps.iter().map(|p| p.charge).sum();
        prop_assert!((root.abs_charge - a).abs() <= 1e-9 * (1.0 + a));
        prop_assert!((root.net_charge - net).abs() <= 1e-9 * (1.0 + a));
        prop_assert_eq!(root.len(), ps.len());
    }

    /// Leaf capacity is respected unless particles are key-coincident.
    #[test]
    fn leaf_capacity_respected(ps in arb_particles(300), leaf in 1usize..16) {
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: leaf }).unwrap();
        for &id in &tree.leaf_ids() {
            let node = tree.node(id);
            if node.len() > leaf {
                // only allowed at the key-resolution floor
                prop_assert!(u32::from(node.level) >= mbt_geometry::morton::BITS,
                    "oversized leaf above the resolution floor");
            }
        }
    }

    /// `with_charges` moves no geometry: every node's box, centre and
    /// radius stay bit-identical, while `A` and the net charge equal a
    /// fresh build's over the same positions with the new charges.
    #[test]
    fn charge_swaps(ps in arb_particles(100), scale in -4.0f64..4.0, shift in -1.0f64..1.0) {
        let tree = Octree::build(&ps, OctreeParams::default()).unwrap();
        let new_charges: Vec<f64> = ps
            .iter()
            .enumerate()
            .map(|(i, p)| if i % 3 == 0 { 0.0 } else { p.charge * scale + shift })
            .collect();
        let updated = tree.with_charges(&new_charges).unwrap();
        let recharged: Vec<Particle> = ps
            .iter()
            .zip(&new_charges)
            .map(|(p, &q)| Particle::new(p.position, q))
            .collect();
        let fresh = Octree::build(&recharged, OctreeParams::default()).unwrap();
        prop_assert_eq!(updated.len(), tree.len());
        for ((u, t), f) in updated.nodes().iter().zip(tree.nodes()).zip(fresh.nodes()) {
            prop_assert_eq!(u.bbox.min, t.bbox.min);
            prop_assert_eq!(u.bbox.max, t.bbox.max);
            prop_assert_eq!(u.center, t.center);
            prop_assert_eq!(u.radius.to_bits(), t.radius.to_bits());
            prop_assert_eq!(u.abs_charge.to_bits(), f.abs_charge.to_bits());
            prop_assert_eq!(u.net_charge.to_bits(), f.net_charge.to_bits());
        }
    }

    /// Parent ranges are exactly the concatenation of children ranges.
    #[test]
    fn ranges_nest(ps in arb_particles(300)) {
        let tree = Octree::build(&ps, OctreeParams { leaf_capacity: 4 }).unwrap();
        for node in tree.nodes() {
            if !node.is_leaf {
                let mut cursor = node.start;
                for cid in node.child_ids() {
                    let c = tree.node(cid);
                    prop_assert_eq!(c.start, cursor);
                    cursor = c.end;
                }
                prop_assert_eq!(cursor, node.end);
            }
        }
    }
}
