//! Cross-backend equivalence: FMM vs treecode vs direct sum within the
//! resolved Theorem 1/2 budget — on uniform and clustered distributions,
//! for potentials and fields — and the FMM's bit-identity across SIMD
//! dispatch tiers and worker counts. (The FMM's agreement with the
//! test-only reference FMM is asserted by the unit tests of
//! `src/reference.rs`.)
//!
//! The budget formulation mirrors the engine's sharded suite: under a
//! `Tolerance` degree policy every admitted interaction carries a
//! per-interaction Theorem-2 bound of at most `tol`, a target sees
//! `interactions_per_target` of them, and partial cancellation keeps the
//! real error well under the sum — the 4× factor is the same safety
//! margin the rest of the workspace pins.

use mbt_fmm::{CompiledFmm, FmmParams};
use mbt_geometry::distribution::{overlapped_gaussians, uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_multipole::{simd, SimdLevel};
use mbt_treecode::direct::direct_potentials_at;
use mbt_treecode::{Treecode, TreecodeParams};

fn charges() -> ChargeModel {
    ChargeModel::RandomSign { magnitude: 1.0 }
}

fn uniform(n: usize, seed: u64) -> Vec<Particle> {
    uniform_cube(n, 1.0, charges(), seed)
}

fn clustered(n: usize, seed: u64) -> Vec<Particle> {
    overlapped_gaussians(n, 4, 2.0, 0.3, charges(), seed)
}

/// Targets inside the hull, in the sparse shell, and outside the bounds.
fn probe_points() -> Vec<Vec3> {
    (0..48)
        .map(|i| {
            let a = f64::from(i) * 0.61;
            let r = 0.15 + 0.05 * f64::from(i);
            Vec3::new(r * a.cos(), r * a.sin(), 0.03 * f64::from(i) - 0.7)
        })
        .collect()
}

#[test]
fn backends_agree_within_the_tolerance_budget_on_potentials() {
    // tolerances much below 1e-3 resolve degrees past p ≈ 12, and the
    // compiled backend's operator compilation scales as p⁶ per level —
    // fine in release, minutes in the unoptimized test profile. 1e-3
    // keeps the resolved degrees single-digit while still exercising the
    // full Tolerance policy end to end.
    let tol = 1e-3;
    let pts = probe_points();
    for (ps, label) in [
        (uniform(2000, 7), "uniform"),
        (clustered(2000, 11), "clustered"),
    ] {
        let exact = direct_potentials_at(&ps, &pts);
        let fmm = CompiledFmm::new(&ps, FmmParams::tolerance(tol)).unwrap();
        let rf = fmm.potentials_at(&pts);
        let tc = Treecode::new(&ps, TreecodeParams::tolerance(tol, 0.6)).unwrap();
        let rt = tc.potentials_at(&pts);
        let mut budgets = [0.0f64; 2];
        for (which, (got, backend)) in [(&rf, "fmm"), (&rt, "treecode")].into_iter().enumerate() {
            let budget = tol * got.stats.interactions_per_target().max(1.0) * 4.0;
            budgets[which] = budget;
            let worst = got
                .values
                .iter()
                .zip(&exact)
                .map(|(g, e)| (g - e).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= budget,
                "{label}/{backend}: max error {worst} exceeds budget {budget}"
            );
        }
        // and against each other: each inside its own budget, so their
        // difference stays within the summed budgets
        let cross = rf
            .values
            .iter()
            .zip(&rt.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            cross <= budgets[0] + budgets[1],
            "{label}: fmm vs treecode drift {cross} exceeds {}",
            budgets[0] + budgets[1]
        );
    }
}

#[test]
fn backends_agree_on_fields() {
    // Theorem-budget bookkeeping covers potentials; for gradients the
    // workspace pins the empirical κ^(p+1) decay at p = 8 that the
    // compiled-FMM unit suite also asserts.
    let pts = probe_points();
    for (ps, label) in [
        (uniform(2000, 13), "uniform"),
        (clustered(2000, 17), "clustered"),
    ] {
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
        let rf = fmm.fields_at(&pts);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.6)).unwrap();
        let rt = tc.fields_at(&pts);
        for (k, &pt) in pts.iter().enumerate() {
            let mut phi = 0.0;
            let mut grad = Vec3::ZERO;
            for p in &ps {
                let d = pt - p.position;
                let r2 = d.norm_sq();
                let r = r2.sqrt();
                phi += p.charge / r;
                grad += d * (-p.charge / (r2 * r));
            }
            for (got, backend) in [(&rf, "fmm"), (&rt, "treecode")] {
                let (gphi, ggrad) = got.values[k];
                assert!(
                    (gphi - phi).abs() <= 1e-3 * phi.abs().max(1.0),
                    "{label}/{backend}: phi at {k}: {gphi} vs {phi}"
                );
                assert!(
                    ggrad.distance(grad) <= 2e-3 * grad.norm().max(1.0),
                    "{label}/{backend}: grad at {k}: {ggrad:?} vs {grad:?}"
                );
            }
        }
    }
}

/// The compiled FMM is pure codegen across SIMD dispatch levels:
/// `set_level(Scalar)` and the detected level give bit-identical
/// potentials and fields, at sources and at external points in every
/// regime (occupied cells, empty cells, outside the bounds). L2P lanes
/// never mix, so the group width changes nothing, and the P2P spans run
/// a fixed logical width at every level. Safe beside concurrently running
/// tests for the same reason: a sweep that observes either level
/// computes the same bits.
#[test]
fn simd_dispatch_level_is_bit_invariant() {
    let ps = clustered(3000, 41);
    let fmm = CompiledFmm::new(&ps, FmmParams::fixed(5).with_levels(3)).unwrap();
    let mut points: Vec<Vec3> = ps.iter().step_by(7).map(|p| p.position).collect();
    points.extend(probe_points());
    let sweep = || {
        (
            fmm.potentials(),
            fmm.potentials_at(&points),
            fmm.fields_at(&points),
        )
    };
    let detected = simd::detect();
    simd::set_level(SimdLevel::Scalar);
    let narrow = sweep();
    simd::set_level(detected);
    let wide = sweep();
    assert_eq!(narrow.0.stats, wide.0.stats);
    assert_eq!(narrow.1.stats, wide.1.stats);
    assert_eq!(narrow.2.stats, wide.2.stats);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&narrow.0.values), bits(&wide.0.values), "potentials()");
    assert_eq!(
        bits(&narrow.1.values),
        bits(&wide.1.values),
        "potentials_at"
    );
    for (k, ((pa, ga), (pb, gb))) in narrow.2.values.iter().zip(&wide.2.values).enumerate() {
        let (a, b) = ([*pa, ga.x, ga.y, ga.z], [*pb, gb.x, gb.y, gb.z]);
        assert_eq!(bits(&a), bits(&b), "fields_at point {k}");
    }
}

/// The charge pass is deterministic: the M2L pass splits target cells
/// into one contiguous range per worker and groups pairs by operator, but
/// every local still accumulates its terms in operator-index order
/// through a kernel whose lanes never mix. So potentials at sources and
/// at external points are bit-identical at 1, 2 and 3 workers and at
/// every dispatch tier this machine reaches, on uniform and clustered
/// sets, under fixed and adaptive degrees.
#[test]
fn charge_pass_is_bit_identical_across_worker_counts_and_tiers() {
    let restore = simd::level();
    let mut tiers: Vec<SimdLevel> = Vec::new();
    for want in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        let applied = simd::set_level(want);
        if !tiers.contains(&applied) {
            tiers.push(applied);
        }
    }
    simd::set_level(restore);
    let points = probe_points();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (ps, label) in [
        (uniform(2500, 3), "uniform"),
        (clustered(2500, 5), "clustered"),
    ] {
        for params in [
            FmmParams::fixed(5).with_levels(3),
            FmmParams::adaptive(3, 0.7).with_levels(3),
        ] {
            let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
            for &tier in &tiers {
                for workers in [1usize, 2, 3] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(workers)
                        .build()
                        .unwrap();
                    simd::set_level(tier);
                    let (at_sources, at_points) = pool.install(|| {
                        let fmm = CompiledFmm::new(&ps, params).unwrap();
                        (fmm.potentials().values, fmm.potentials_at(&points).values)
                    });
                    simd::set_level(restore);
                    let got = (bits(&at_sources), bits(&at_points));
                    match &reference {
                        None => reference = Some(got),
                        Some(want) => {
                            let case = format!("{label} {params:?} {tier:?} {workers} workers");
                            assert_eq!(want.0, got.0, "{case}: source potentials");
                            assert_eq!(want.1, got.1, "{case}: external potentials");
                        }
                    }
                }
            }
        }
    }
}
