//! Charge updates over cached geometry: `CompiledFmm::with_charges` must
//! be indistinguishable — bit for bit — from `CompiledFmm::new` over the
//! same positions and the new charges, whether the re-resolved degree
//! vector lets it reuse the geometry half or forces a rebuild.

use mbt_fmm::{CompiledFmm, FmmError, FmmParams, COMPILED_MAX_DEGREE};
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};

fn cloud(n: usize) -> Vec<Particle> {
    uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 5)
}

fn recharged(ps: &[Particle], charges: &[f64]) -> Vec<Particle> {
    ps.iter()
        .zip(charges)
        .map(|(p, &q)| Particle::new(p.position, q))
        .collect()
}

fn targets() -> Vec<Vec3> {
    (0..80)
        .map(|i| {
            let a = f64::from(i) * 0.73;
            let r = 0.05 + 0.02 * f64::from(i); // walks out past the root cube
            Vec3::new(r * a.cos(), r * a.sin(), 0.01 * f64::from(i) - 0.4)
        })
        .collect()
}

/// Everything observable about a compiled FMM, compared exactly.
fn assert_identical(a: &CompiledFmm, b: &CompiledFmm, case: &str) {
    assert_eq!(a.degrees(), b.degrees(), "{case}: degrees");
    assert_eq!(a.levels(), b.levels(), "{case}: levels");
    assert_eq!(a.translation_terms, b.translation_terms, "{case}");
    assert_eq!(a.m2l_pairs, b.m2l_pairs, "{case}");
    assert_eq!(a.heap_bytes(), b.heap_bytes(), "{case}: heap bytes");
    let (ra, rb) = (a.potentials(), b.potentials());
    assert_eq!(ra.values, rb.values, "{case}: source potentials");
    assert_eq!(ra.stats, rb.stats, "{case}");
    let pts = targets();
    let (ea, eb) = (a.potentials_at(&pts), b.potentials_at(&pts));
    assert_eq!(ea.values, eb.values, "{case}: external potentials");
    assert_eq!(ea.stats, eb.stats, "{case}");
    assert_eq!(
        a.fields_at(&pts).values,
        b.fields_at(&pts).values,
        "{case}: external fields"
    );
}

#[test]
fn with_charges_is_bit_identical_to_a_fresh_build() {
    let ps = cloud(3000);
    let n = ps.len();
    // smooth, lopsided (moves every level's median weight and maximum),
    // heavily cancelling (Σ|q| ≫ |Σq|), and all-zero charge vectors
    let smooth: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.5 * (i as f64 * 0.01).sin())
        .collect();
    let lopsided: Vec<f64> = ps
        .iter()
        .map(|p| if p.position.x > 0.0 { 8.0 } else { 1e-3 })
        .collect();
    let cancelling: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 + 1e-9 })
        .collect();
    let zero = vec![0.0; n];
    // the tolerance rule reads absolute magnitudes: scale its charges so
    // the resolved degrees stay under the compiled cap
    for (params, scale) in [
        (FmmParams::fixed(5).with_levels(3), 1.0),
        (FmmParams::adaptive(3, 0.7).with_levels(3), 1.0),
        (FmmParams::tolerance(1e-3).with_levels(3), 1e-3),
        (FmmParams::fixed(4).with_levels(1), 1.0), // no far field at all
    ] {
        let initial: Vec<f64> = ps.iter().map(|p| p.charge * scale).collect();
        let mut current = CompiledFmm::new(&recharged(&ps, &initial), params).unwrap();
        let mut degree_vectors = Vec::new();
        for (name, charges) in [
            ("smooth", &smooth),
            ("lopsided", &lopsided),
            ("cancelling", &cancelling),
            ("zero", &zero),
            ("smooth again", &smooth),
        ] {
            let case = format!("{params:?} / {name}");
            let charges: Vec<f64> = charges.iter().map(|q| q * scale).collect();
            // chained: each update starts from the previous one's geometry
            current = current.with_charges(&charges).unwrap();
            let fresh = CompiledFmm::new(&recharged(&ps, &charges), params).unwrap();
            assert_identical(&current, &fresh, &case);
            degree_vectors.push(fresh.degrees().to_vec());
        }
        degree_vectors.dedup();
        let fixed = matches!(params.degree, mbt_multipole::DegreeSelector::Fixed(_));
        assert_eq!(
            degree_vectors.len() == 1,
            fixed,
            "{params:?}: only a fixed degree is charge-independent: {degree_vectors:?}"
        );
        let silent = current.with_charges(&zero).unwrap();
        assert!(silent.potentials().values.iter().all(|&v| v == 0.0));
        assert!(silent
            .potentials_at(&targets())
            .values
            .iter()
            .all(|&v| v == 0.0));
    }
}

#[test]
fn a_degree_over_the_compiled_cap_is_the_same_typed_error_either_way() {
    let ps = cloud(3000);
    let params = FmmParams::tolerance(1e-6).with_levels(3);
    let small: Vec<f64> = ps.iter().map(|p| p.charge * 1e-9).collect();
    let fmm = CompiledFmm::new(&recharged(&ps, &small), params).unwrap();
    let large: Vec<f64> = ps.iter().map(|p| p.charge * 1e3).collect();
    let fresh = CompiledFmm::new(&recharged(&ps, &large), params)
        .err()
        .unwrap();
    assert!(
        matches!(fresh, FmmError::OperatorTableTooLarge { max, .. } if max == COMPILED_MAX_DEGREE),
        "{fresh:?}"
    );
    assert_eq!(fmm.with_charges(&large).err().unwrap(), fresh);
}

#[test]
fn degree_moving_updates_rebuild_and_fixed_ones_never_do() {
    let ps = cloud(3000);
    let unit: Vec<f64> = ps.iter().map(|p| p.charge).collect();
    // concentrate the weight in one corner: coarse-level medians outgrow
    // the finest level's, so the adaptive ramp changes shape
    let corner: Vec<f64> = ps
        .iter()
        .map(|p| {
            if p.position.x > 0.25 && p.position.y > 0.25 && p.position.z > 0.25 {
                500.0
            } else {
                1e-6
            }
        })
        .collect();
    let adaptive = CompiledFmm::new(&ps, FmmParams::adaptive(3, 0.7).with_levels(3)).unwrap();
    let moved = adaptive.with_charges(&corner).unwrap();
    assert_ne!(
        adaptive.degrees(),
        moved.degrees(),
        "the instance must actually move the adaptive degree vector"
    );
    let back = moved.with_charges(&unit).unwrap();
    assert_eq!(back.degrees(), adaptive.degrees());
    assert_eq!(back.potentials().values, adaptive.potentials().values);

    let fixed = CompiledFmm::new(&ps, FmmParams::fixed(4).with_levels(3)).unwrap();
    assert_eq!(
        fixed.with_charges(&corner).unwrap().degrees(),
        fixed.degrees()
    );
}

#[test]
fn non_finite_charges_are_a_typed_error() {
    let ps = cloud(200);
    let fmm = CompiledFmm::new(&ps, FmmParams::fixed(3)).unwrap();
    let mut charges = vec![1.0; ps.len()];
    charges[17] = f64::NAN;
    assert_eq!(
        fmm.with_charges(&charges).err().unwrap(),
        FmmError::NonFinite { index: 17 }
    );
}
