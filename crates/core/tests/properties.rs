//! Property-based tests of the treecode's end-to-end invariants.

use mbt_geometry::{Particle, Vec3};
use mbt_treecode::{
    direct::direct_potentials, relative_error, RefWeight, Treecode, TreecodeParams,
};
use proptest::prelude::*;

fn arb_particles(max_n: usize) -> impl Strategy<Value = Vec<Particle>> {
    prop::collection::vec(
        (
            -5.0f64..5.0,
            -5.0f64..5.0,
            -5.0f64..5.0,
            prop::sample::select(vec![-1.0f64, 1.0]),
        )
            .prop_map(|(x, y, z, q)| Particle::new(Vec3::new(x, y, z), q)),
        2..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The treecode converges toward the direct sum as p grows, for
    /// arbitrary inputs and MAC parameters.
    #[test]
    fn converges_with_degree(
        ps in arb_particles(120),
        alpha in 0.3f64..0.9,
    ) {
        let exact = direct_potentials(&ps);
        let lo = Treecode::new(&ps, TreecodeParams::fixed(2, alpha)).unwrap();
        let hi = Treecode::new(&ps, TreecodeParams::fixed(12, alpha)).unwrap();
        let e_lo = relative_error(&lo.potentials().values, &exact);
        let e_hi = relative_error(&hi.potentials().values, &exact);
        prop_assert!(e_hi <= e_lo * 1.05 + 1e-12, "p=12 ({e_hi}) worse than p=2 ({e_lo})");
        prop_assert!(e_hi < 1e-3, "p=12 error too large: {e_hi}");
    }

    /// Evaluation is linear in the charges when geometry is frozen
    /// (`with_charges`).
    #[test]
    fn frozen_geometry_linearity(ps in arb_particles(80), s in 0.5f64..3.0) {
        let tc = Treecode::new(&ps, TreecodeParams::fixed(5, 0.6)).unwrap();
        let base = tc.potentials().values;
        let scaled_charges: Vec<f64> = ps.iter().map(|p| p.charge * s).collect();
        let scaled = tc.with_charges(&scaled_charges).unwrap().potentials().values;
        for (b, v) in base.iter().zip(&scaled) {
            prop_assert!((v - s * b).abs() <= 1e-9 * (1.0 + v.abs()));
        }
    }

    /// Fixed- and adaptive-degree runs evaluate the same direct pairs (the
    /// MAC is degree-independent) — the adaptive method changes only the
    /// expansion degrees.
    #[test]
    fn mac_is_degree_independent(ps in arb_particles(150)) {
        let fixed = Treecode::new(&ps, TreecodeParams::fixed(3, 0.6)).unwrap();
        let adaptive = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.6)).unwrap();
        let rf = fixed.potentials();
        let ra = adaptive.potentials();
        prop_assert_eq!(rf.stats.direct_pairs, ra.stats.direct_pairs);
        prop_assert_eq!(rf.stats.pc_interactions, ra.stats.pc_interactions);
        prop_assert!(ra.stats.terms >= rf.stats.terms);
    }

    /// Stats bookkeeping: `terms = Σ_p by_degree[p]·(p+1)²`.
    #[test]
    fn stats_self_consistent(ps in arb_particles(150), alpha in 0.4f64..0.9) {
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(2, alpha)).unwrap();
        let r = tc.potentials();
        let recomputed: u64 = r
            .stats
            .by_degree
            .iter()
            .enumerate()
            .map(|(p, &c)| c * ((p as u64 + 1) * (p as u64 + 1)))
            .sum();
        prop_assert_eq!(recomputed, r.stats.terms);
        prop_assert_eq!(r.stats.targets as usize, ps.len());
    }

    /// Explicit huge reference weight reduces the adaptive method to the
    /// fixed method exactly.
    #[test]
    fn huge_threshold_degenerates_to_fixed(ps in arb_particles(100)) {
        let fixed = Treecode::new(&ps, TreecodeParams::fixed(4, 0.6)).unwrap();
        let degenerate = Treecode::new(
            &ps,
            TreecodeParams::adaptive(4, 0.6).with_ref_weight(RefWeight::Explicit(1e30)),
        )
        .unwrap();
        let a = fixed.potentials();
        let b = degenerate.potentials();
        prop_assert_eq!(a.stats.terms, b.stats.terms);
        for (x, y) in a.values.iter().zip(&b.values) {
            prop_assert_eq!(x, y);
        }
    }

    /// Self-exclusion: a particle never contributes to its own potential —
    /// doubling a particle's charge changes every potential except via
    /// that particle's own row only through other entries.
    #[test]
    fn self_exclusion(ps in arb_particles(60)) {
        let tc = Treecode::new(&ps, TreecodeParams::fixed(10, 0.3)).unwrap();
        let base = tc.potentials().values;
        // perturb particle 0's charge with frozen geometry
        let mut charges: Vec<f64> = ps.iter().map(|p| p.charge).collect();
        charges[0] += 100.0;
        let bumped = tc.with_charges(&charges).unwrap().potentials().values;
        // particle 0's own potential must not change (it excludes itself)
        prop_assert!(
            (bumped[0] - base[0]).abs() <= 1e-7 * (1.0 + base[0].abs()),
            "self-interaction leaked: {} -> {}", base[0], bumped[0]
        );
    }
}
