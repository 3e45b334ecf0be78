//! Property-based tests of the Hilbert partitioner: balance bounds,
//! contiguity, order preservation, and the `k = 1` identity the engine's
//! bit-exactness guarantee rests on.

use mbt_geometry::{Aabb, Particle, Vec3};
use mbt_shard::{HilbertPartition, ShardError};
use proptest::prelude::*;

fn arb_particles(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Particle>> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0, 0u32..2), n).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(x, y, z, sign)| {
                    Particle::new(Vec3::new(x, y, z), if sign == 0 { 1.0 } else { -1.0 })
                })
                .collect()
        },
    )
}

fn hull(ps: &[Particle]) -> Aabb {
    Aabb::cubical_hull_of(ps, 1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Structural invariants hold for every valid `(particles, k)`.
    #[test]
    fn partition_invariants(ps in arb_particles(1..200), k in 1usize..12) {
        prop_assume!(k <= ps.len());
        let part = HilbertPartition::new(&ps, &hull(&ps), k).unwrap();
        prop_assert!(part.check_invariants().is_ok());
        prop_assert_eq!(part.shard_count(), k);
        let total: usize = part.shards().iter().map(|s| s.count).sum();
        prop_assert_eq!(total, ps.len());
    }

    /// With unit-magnitude charges the weight ratio equals the count
    /// ratio, and absent equal-key collisions the positional cuts bound
    /// both by `⌈n/k⌉ / ⌊n/k⌋`.
    #[test]
    fn weight_balance_is_pinned(ps in arb_particles(16..200), k in 2usize..9) {
        prop_assume!(k <= ps.len());
        let bounds = hull(&ps);
        let part = HilbertPartition::new(&ps, &bounds, k).unwrap();
        prop_assert!((part.weight_ratio() - part.count_ratio()).abs() <= 1e-12);
        let mut keys: Vec<u64> = ps
            .iter()
            .map(|p| mbt_geometry::hilbert::key(p.position, &bounds))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        if keys.len() == ps.len() {
            let n = ps.len();
            let bound = n.div_ceil(k) as f64 / (n / k) as f64;
            prop_assert!(
                part.weight_ratio() <= bound + 1e-12,
                "weight ratio {} exceeds positional bound {bound}",
                part.weight_ratio()
            );
        }
    }

    /// `split` covers the input exactly and preserves each particle's
    /// original relative order inside its shard; `k = 1` is the identity.
    #[test]
    fn split_preserves_order(ps in arb_particles(1..150), k in 1usize..8) {
        prop_assume!(k <= ps.len());
        let part = HilbertPartition::new(&ps, &hull(&ps), k).unwrap();
        let parts = part.split(&ps);
        prop_assert_eq!(parts.len(), k);
        // each shard is the subsequence of the input it owns
        let mut cursors = vec![0usize; k];
        for (i, p) in ps.iter().enumerate() {
            let s = part.shard_of(i);
            prop_assert_eq!(parts[s][cursors[s]], *p);
            cursors[s] += 1;
        }
        for (s, c) in cursors.iter().enumerate() {
            prop_assert_eq!(*c, parts[s].len());
        }
        if k == 1 {
            prop_assert_eq!(&parts[0], &ps);
        }
    }

    /// Impossible counts are rejected, never mis-partitioned.
    #[test]
    fn invalid_counts_are_rejected(ps in arb_particles(1..50)) {
        let bounds = hull(&ps);
        for bad in [0, ps.len() + 1, ps.len() * 2 + 5] {
            prop_assert_eq!(
                HilbertPartition::new(&ps, &bounds, bad).unwrap_err(),
                ShardError::InvalidCount { requested: bad, particles: ps.len() }
            );
        }
    }
}
