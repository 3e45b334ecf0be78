//! Determinism of the treecode's build and sweep: the same bits at every
//! reachable SIMD dispatch tier and at any worker count. (The sweep's
//! equivalence to a per-target traversal is asserted by the unit tests
//! of `src/reference.rs`.)

use mbt_geometry::distribution::{overlapped_gaussians, uniform_cube, ChargeModel};
use mbt_geometry::Vec3;
use mbt_multipole::simd::{self, SimdLevel};
use mbt_treecode::{EvalResult, Treecode, TreecodeParams};

/// The three degree-selection modes the treecode supports, at moderate
/// accuracy so adaptive/tolerance runs mix several degrees per sweep.
fn modes(alpha: f64) -> [TreecodeParams; 3] {
    [
        TreecodeParams::fixed(5, alpha),
        TreecodeParams::adaptive(3, alpha),
        TreecodeParams::tolerance(1e-6, alpha),
    ]
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
/// sweeping it under the scalar fallback and under every other tier this
/// machine reaches (AVX2, AVX-512) must produce bit-identical f64 sweeps
/// (the P2M lanes and the P2P spans run a fixed logical width at every
/// level; M2P lanes are arithmetically independent). Safe under parallel
/// test execution for the same reason — a concurrent build or sweep that
/// observes any level computes identical bits.
#[test]
fn simd_dispatch_level_is_bit_invariant() {
    let ps = uniform_cube(3_000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 19);
    let sweep = |params| {
        let tc = Treecode::new(&ps, params).unwrap();
        (tc.potentials(), tc.fields())
    };
    let wider = &reachable_tiers()[1..];
    for params in [
        TreecodeParams::fixed(5, 0.7),
        TreecodeParams::adaptive(3, 0.6),
    ] {
        let restore = simd::level();
        simd::set_level(SimdLevel::Scalar);
        let (narrow, narrow_fields) = sweep(params);
        for &tier in wider {
            simd::set_level(tier);
            let (wide, wide_fields) = sweep(params);
            simd::set_level(restore);
            assert_bits_equal(tier, (&narrow, &narrow_fields), (&wide, &wide_fields));
        }
        simd::set_level(restore);
    }
}

/// Asserts that a sweep at `tier` reproduced the scalar sweep bit for bit.
fn assert_bits_equal(
    tier: SimdLevel,
    (narrow, narrow_fields): (&EvalResult<f64>, &EvalResult<(f64, Vec3)>),
    (wide, wide_fields): (&EvalResult<f64>, &EvalResult<(f64, Vec3)>),
) {
    assert_eq!(narrow.stats, wide.stats, "{tier:?}");
    for (i, (a, b)) in narrow.values.iter().zip(&wide.values).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "target {i}: {tier:?} changed the potential"
        );
    }
    let fields = narrow_fields.values.iter().zip(&wide_fields.values);
    for (i, ((pa, ga), (pb, gb))) in fields.enumerate() {
        assert_eq!(
            pa.to_bits(),
            pb.to_bits(),
            "target {i}: {tier:?} field potential"
        );
        for (a, b) in [(ga.x, gb.x), (ga.y, gb.y), (ga.z, gb.z)] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "target {i}: {tier:?} gradient component"
            );
        }
    }
}

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
