//! Property tests pinning the compiled (interaction-list + SoA batch
//! kernel) evaluation mode to the scalar reference.
//!
//! The compiled mode is a *reordering* of the identical interaction set,
//! not an approximation: for every degree mode, target kind, and sweep,
//! the two modes must agree to 1e-12 relative per target and report
//! **exactly** equal [`EvalStats`] — the list compiler emits the same
//! interactions the scalar traversal evaluates, interaction for
//! interaction.

use mbt_geometry::distribution::{overlapped_gaussians, uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_multipole::simd::{self, SimdLevel};
use mbt_treecode::{EvalMode, Treecode, TreecodeParams};
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

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-6.0f64..6.0, -6.0f64..6.0, -6.0f64..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..max_n,
    )
}

/// The three degree-selection modes the treecode supports, at moderate
/// accuracy so adaptive/tolerance runs mix several degrees per sweep.
fn modes(alpha: f64) -> [TreecodeParams; 3] {
    [
        TreecodeParams::fixed(5, alpha),
        TreecodeParams::adaptive(3, alpha),
        TreecodeParams::tolerance(1e-6, alpha),
    ]
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Source-particle potential sweeps: values to 1e-12, counters exact,
    /// in every degree mode.
    #[test]
    fn potentials_match_scalar(ps in arb_particles(150), alpha in 0.3f64..0.9) {
        for params in modes(alpha) {
            let scalar = Treecode::new(&ps, params).unwrap();
            let compiled =
                Treecode::new(&ps, params.with_eval_mode(EvalMode::Compiled)).unwrap();
            let rs = scalar.potentials();
            let rc = compiled.potentials();
            prop_assert_eq!(&rs.stats, &rc.stats, "stats diverged: {:?}", params.degree);
            for (i, (a, b)) in rs.values.iter().zip(&rc.values).enumerate() {
                prop_assert!(close(*a, *b), "target {i}: scalar {a} vs compiled {b}");
            }
        }
    }

    /// Source-particle field sweeps: potential and gradient to 1e-12,
    /// counters exact.
    #[test]
    fn fields_match_scalar(ps in arb_particles(120), alpha in 0.3f64..0.9) {
        for params in modes(alpha) {
            let scalar = Treecode::new(&ps, params).unwrap();
            let compiled =
                Treecode::new(&ps, params.with_eval_mode(EvalMode::Compiled)).unwrap();
            let rs = scalar.fields();
            let rc = compiled.fields();
            prop_assert_eq!(&rs.stats, &rc.stats);
            for (i, ((pa, ga), (pb, gb))) in rs.values.iter().zip(&rc.values).enumerate() {
                prop_assert!(close(*pa, *pb), "target {i}: potential {pa} vs {pb}");
                prop_assert!(
                    ga.distance(*gb) <= 1e-12 * ga.norm().max(1.0),
                    "target {i}: gradient {ga:?} vs {gb:?}"
                );
            }
        }
    }

    /// External-point sweeps (no self-exclusion), both potentials and
    /// fields, plus **per-target** counter equality: each point evaluated
    /// as its own single-point sweep must report the same stats in both
    /// modes, so the aggregate equality cannot hide compensating
    /// miscounts between targets.
    #[test]
    fn external_points_match_scalar(
        ps in arb_particles(100),
        pts in arb_points(40),
        alpha in 0.3f64..0.9,
    ) {
        for params in modes(alpha) {
            let scalar = Treecode::new(&ps, params).unwrap();
            let compiled =
                Treecode::new(&ps, params.with_eval_mode(EvalMode::Compiled)).unwrap();
            let rs = scalar.potentials_at(&pts);
            let rc = compiled.potentials_at(&pts);
            prop_assert_eq!(&rs.stats, &rc.stats);
            for (i, (a, b)) in rs.values.iter().zip(&rc.values).enumerate() {
                prop_assert!(close(*a, *b), "point {i}: scalar {a} vs compiled {b}");
            }
            let fs = scalar.fields_at(&pts);
            let fc = compiled.fields_at(&pts);
            prop_assert_eq!(&fs.stats, &fc.stats);
            for (i, ((pa, ga), (pb, gb))) in fs.values.iter().zip(&fc.values).enumerate() {
                prop_assert!(close(*pa, *pb), "point {i}: potential {pa} vs {pb}");
                prop_assert!(
                    ga.distance(*gb) <= 1e-12 * ga.norm().max(1.0),
                    "point {i}: gradient {ga:?} vs {gb:?}"
                );
            }
            for (i, &pt) in pts.iter().enumerate() {
                let one_s = scalar.potentials_at(std::slice::from_ref(&pt));
                let one_c = compiled.potentials_at(std::slice::from_ref(&pt));
                prop_assert_eq!(
                    &one_s.stats, &one_c.stats,
                    "per-target stats diverged at point {}", i
                );
            }
        }
    }

    /// Chunk width is an execution detail in compiled mode too: values
    /// are bit-identical across widths (each chunk's conservative
    /// classification resolves to the same per-target interaction
    /// sequence) and counters stay exactly equal to the scalar sweep's.
    #[test]
    fn compiled_chunk_width_is_invariant(
        ps in arb_particles(120),
        chunk in 1usize..48,
    ) {
        let base = TreecodeParams::adaptive(3, 0.6).with_eval_mode(EvalMode::Compiled);
        let scalar_stats = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.6))
            .unwrap()
            .potentials()
            .stats;
        let wide = Treecode::new(&ps, base).unwrap().potentials();
        let narrow = Treecode::new(&ps, base.with_eval_chunk(chunk)).unwrap().potentials();
        prop_assert_eq!(&wide.stats, &scalar_stats);
        prop_assert_eq!(&wide.stats, &narrow.stats);
        for (i, (a, b)) in wide.values.iter().zip(&narrow.values).enumerate() {
            prop_assert_eq!(a, b, "target {} changed with chunk width {}", i, chunk);
        }
    }
}

/// The tiers `simd::set_level` can reach on this machine (the scalar
/// fallback always; AVX2 / AVX-512 where the CPU has them).
fn reachable_tiers() -> Vec<SimdLevel> {
    let restore = simd::level();
    let mut tiers = Vec::new();
    for want in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        let applied = simd::set_level(want);
        if !tiers.contains(&applied) {
            tiers.push(applied);
        }
    }
    simd::set_level(restore);
    tiers
}

/// The dispatched SIMD level is pure codegen: building the treecode and
/// sweeping it under the scalar fallback and under the widest probed
/// level must produce bit-identical f64 sweeps (the P2M lanes and the P2P
/// spans run a fixed logical width at every level; M2P lanes are
/// arithmetically independent). Safe under parallel test execution for
/// the same reason — a concurrent build or sweep that observes either
/// level computes identical bits.
#[test]
fn simd_dispatch_level_is_bit_invariant() {
    let ps = uniform_cube(3_000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 19);
    let detected = simd::detect();
    for params in [
        TreecodeParams::fixed(5, 0.7).with_eval_mode(EvalMode::Compiled),
        TreecodeParams::adaptive(3, 0.6).with_eval_mode(EvalMode::Compiled),
    ] {
        let restore = simd::level();
        simd::set_level(SimdLevel::Scalar);
        let tc = Treecode::new(&ps, params).unwrap();
        let narrow = tc.potentials();
        let narrow_fields = tc.fields();
        simd::set_level(detected);
        let tc = Treecode::new(&ps, params).unwrap();
        let wide = tc.potentials();
        let wide_fields = tc.fields();
        simd::set_level(restore);
        assert_eq!(narrow.stats, wide.stats);
        for (i, (a, b)) in narrow.values.iter().zip(&wide.values).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "target {i}: dispatch level changed the potential"
            );
        }
        for (i, ((pa, ga), (pb, gb))) in narrow_fields
            .values
            .iter()
            .zip(&wide_fields.values)
            .enumerate()
        {
            assert_eq!(pa.to_bits(), pb.to_bits(), "target {i}: field potential");
            for (a, b) in [(ga.x, gb.x), (ga.y, gb.y), (ga.z, gb.z)] {
                assert_eq!(a.to_bits(), b.to_bits(), "target {i}: gradient component");
            }
        }
    }
}

/// The upward pass is deterministic: its work items depend only on the
/// tree and the degrees, so every node's coefficients — the split nodes'
/// block-order sums included — are the same bits at 1, 2 and 3 workers
/// and at every reachable dispatch tier, for uniform and clustered sets
/// under every degree policy. Mirrors the compiled FMM's
/// `charge_pass_is_bit_identical_across_worker_counts_and_tiers`.
#[test]
fn upward_pass_is_bit_identical_across_worker_counts_and_tiers() {
    let tiers = reachable_tiers();
    let restore = simd::level();
    let charges = ChargeModel::RandomSign { magnitude: 1.0 };
    let arena_bits = |tc: &Treecode| -> Vec<u64> {
        (0..tc.tree().len() as u32)
            .flat_map(|id| tc.expansion(id).coeffs().to_vec())
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    };
    for (ps, label) in [
        (uniform_cube(6_000, 1.0, charges, 23), "uniform"),
        (
            overlapped_gaussians(6_000, 4, 2.0, 0.3, charges, 29),
            "clustered",
        ),
    ] {
        for params in modes(0.6) {
            let mut reference: Option<Vec<u64>> = None;
            for &tier in &tiers {
                for workers in [1usize, 2, 3] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(workers)
                        .build()
                        .unwrap();
                    simd::set_level(tier);
                    let got = pool.install(|| arena_bits(&Treecode::new(&ps, params).unwrap()));
                    simd::set_level(restore);
                    match &reference {
                        None => reference = Some(got),
                        Some(want) => assert!(
                            *want == got,
                            "{label} {params:?} {tier:?} {workers} workers: upward pass changed"
                        ),
                    }
                }
            }
        }
    }
}
