//! FMM consistency tests: level-count invariance, near/far decomposition,
//! agreement with the treecode, and scaling behaviour.

use mbt_fmm::{CompiledFmm, FmmParams};
use mbt_geometry::distribution::{overlapped_gaussians, uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_treecode::direct::direct_potentials;
use mbt_treecode::relative_error;

fn charges() -> ChargeModel {
    ChargeModel::RandomSign { magnitude: 1.0 }
}

#[test]
fn level_count_does_not_change_the_answer_much() {
    // different level counts redistribute work between near and far field;
    // at high degree all must agree with the direct sum
    let ps = uniform_cube(2500, 1.0, charges(), 3);
    let exact = direct_potentials(&ps);
    for levels in [2usize, 3, 4] {
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(12).with_levels(levels)).unwrap();
        let err = relative_error(&fmm.potentials().values, &exact);
        assert!(err < 1e-6, "levels = {levels}: error {err}");
    }
}

#[test]
fn deeper_trees_shift_work_from_direct_to_expansions() {
    let ps = uniform_cube(4000, 1.0, charges(), 5);
    let shallow = CompiledFmm::new(&ps, FmmParams::fixed(4).with_levels(2)).unwrap();
    let deep = CompiledFmm::new(&ps, FmmParams::fixed(4).with_levels(4)).unwrap();
    let rs = shallow.potentials();
    let rd = deep.potentials();
    assert!(
        rd.stats.direct_pairs < rs.stats.direct_pairs,
        "deeper tree must reduce near-field work: {} vs {}",
        rd.stats.direct_pairs,
        rs.stats.direct_pairs
    );
}

#[test]
fn agrees_with_treecode_on_unstructured_instance() {
    let ps = overlapped_gaussians(3000, 3, 2.0, 0.5, charges(), 7);
    let exact = direct_potentials(&ps);
    let fmm = CompiledFmm::new(&ps, FmmParams::fixed(10).with_levels(3)).unwrap();
    let e = relative_error(&fmm.potentials().values, &exact);
    assert!(e < 1e-5, "unstructured FMM error {e}");
}

#[test]
fn charges_scale_linearly() {
    let ps = uniform_cube(1500, 1.0, charges(), 11);
    let scaled: Vec<Particle> = ps
        .iter()
        .map(|p| Particle::new(p.position, p.charge * 5.0))
        .collect();
    let a = CompiledFmm::new(&ps, FmmParams::fixed(6).with_levels(3))
        .unwrap()
        .potentials()
        .values;
    let b = CompiledFmm::new(&scaled, FmmParams::fixed(6).with_levels(3))
        .unwrap()
        .potentials()
        .values;
    for (x, y) in a.iter().zip(&b) {
        assert!((5.0 * x - y).abs() < 1e-9 * (1.0 + y.abs()));
    }
}

#[test]
fn results_in_caller_order() {
    // reversing the input ordering must reverse the output
    let ps = uniform_cube(800, 1.0, charges(), 13);
    let mut rev = ps.clone();
    rev.reverse();
    let a = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3))
        .unwrap()
        .potentials()
        .values;
    let b = CompiledFmm::new(&rev, FmmParams::fixed(8).with_levels(3))
        .unwrap()
        .potentials()
        .values;
    for i in 0..ps.len() {
        assert!(
            (a[i] - b[ps.len() - 1 - i]).abs() < 1e-12 * (1.0 + a[i].abs()),
            "order not preserved at {i}"
        );
    }
}

#[test]
fn near_coincident_particles_handled() {
    // a tight clump (spacings ~1e-6) plus one distant particle: the clump
    // lands in a single finest cell, all clump pairs resolve directly
    let mut ps: Vec<Particle> = (0..20)
        .map(|k| {
            Particle::new(
                Vec3::new(0.25, 0.25, 0.25)
                    + Vec3::new(f64::from(k), 2.0 * f64::from(k), 0.5 * f64::from(k)) * 1e-6,
                1.0,
            )
        })
        .collect();
    ps.push(Particle::new(Vec3::new(-0.5, -0.5, -0.5), -2.0));
    let fmm = CompiledFmm::new(&ps, FmmParams::fixed(6).with_levels(3)).unwrap();
    let r = fmm.potentials();
    assert!(r.values.iter().all(|v| v.is_finite()));
    let exact = direct_potentials(&ps);
    let e = relative_error(&r.values, &exact);
    assert!(e < 1e-6, "near-coincident error {e}");
}
