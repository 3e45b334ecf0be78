//! Cross-crate integration tests: the full pipelines a user of the
//! workspace would run, exercised end to end through the `mbt` facade.

use mbt::prelude::*;

fn rel_err_vec(a: &[f64], b: &[f64]) -> f64 {
    relative_error(a, b)
}

#[test]
fn treecode_vs_direct_on_every_distribution() {
    let charges = ChargeModel::RandomSign { magnitude: 1.0 };
    let instances: Vec<(&str, Vec<Particle>)> = vec![
        ("uniform", uniform_cube(1500, 1.0, charges, 1)),
        ("ball", uniform_ball(1500, 1.0, charges, 2)),
        ("gaussian", gaussian(1500, Vec3::ZERO, 0.5, charges, 3)),
        (
            "overlapped",
            overlapped_gaussians(1500, 3, 2.0, 0.4, charges, 4),
        ),
        ("plummer", plummer(1500, 1.0, 100.0, 5)),
    ];
    for (name, ps) in instances {
        let exact = direct_potentials(&ps);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.5)).unwrap();
        let approx = tc.potentials();
        let err = rel_err_vec(&approx.values, &exact);
        assert!(err < 1e-4, "{name}: treecode error {err} too large");
    }
}

#[test]
fn adaptive_accuracy_dominates_fixed_across_alpha() {
    let ps = uniform_cube(3000, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 9);
    let exact = direct_potentials(&ps);
    for alpha in [0.5, 0.7, 0.9] {
        let fixed = Treecode::new(&ps, TreecodeParams::fixed(3, alpha)).unwrap();
        let adaptive = Treecode::new(&ps, TreecodeParams::adaptive(3, alpha)).unwrap();
        let e_fixed = rel_err_vec(&fixed.potentials().values, &exact);
        let e_adaptive = rel_err_vec(&adaptive.potentials().values, &exact);
        assert!(
            e_adaptive <= e_fixed,
            "alpha {alpha}: adaptive {e_adaptive} vs fixed {e_fixed}"
        );
    }
}

#[test]
fn treecode_and_fmm_agree() {
    let ps = gaussian(
        2500,
        Vec3::ZERO,
        0.6,
        ChargeModel::RandomSign { magnitude: 1.0 },
        17,
    );
    let exact = direct_potentials(&ps);
    let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.4)).unwrap();
    let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
    let e_tc = rel_err_vec(&tc.potentials().values, &exact);
    let e_fmm = rel_err_vec(&fmm.potentials().values, &exact);
    assert!(e_tc < 1e-4, "treecode error {e_tc}");
    assert!(e_fmm < 1e-4, "fmm error {e_fmm}");
}

#[test]
fn fields_are_negative_gradients_of_potential() {
    // numerically verify ∇Φ by comparing the treecode gradient at external
    // probes with finite differences of the treecode potential
    let ps = uniform_cube(800, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 21);
    let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.4)).unwrap();
    let probes = [Vec3::new(2.0, 1.0, 0.5), Vec3::new(-1.5, 2.0, 1.0)];
    let fields = tc.fields_at(&probes);
    let h = 1e-5;
    for (i, &x) in probes.iter().enumerate() {
        let fd = Vec3::new(
            (tc.potential_at(x + Vec3::X * h) - tc.potential_at(x - Vec3::X * h)) / (2.0 * h),
            (tc.potential_at(x + Vec3::Y * h) - tc.potential_at(x - Vec3::Y * h)) / (2.0 * h),
            (tc.potential_at(x + Vec3::Z * h) - tc.potential_at(x - Vec3::Z * h)) / (2.0 * h),
        );
        let (_, grad) = fields.values[i];
        assert!(
            grad.distance(fd) < 1e-4 * (1.0 + grad.norm()),
            "gradient mismatch at probe {i}: {grad:?} vs {fd:?}"
        );
    }
}

#[test]
fn bem_pipeline_sphere_capacitance() {
    let geometry = SingleLayerGeometry::new(shapes::icosphere(2, 1.5), QuadRule::SixPoint);
    let operator = TreecodeSingleLayer::new(geometry.clone(), TreecodeParams::fixed(7, 0.5));
    let sol = CapacitanceProblem::new(&operator, &geometry).solve(&GmresOptions {
        restart: 10,
        tol: 1e-8,
        max_iters: 200,
        preconditioner: None,
    });
    assert_eq!(sol.gmres.outcome, GmresOutcome::Converged);
    // C = R = 1.5 in Gaussian units
    assert!(
        (sol.capacitance - 1.5).abs() < 0.05,
        "capacitance {} should be ≈ 1.5",
        sol.capacitance
    );
}

#[test]
fn bem_treecode_matvec_matches_dense_on_gripper() {
    let geometry = SingleLayerGeometry::new(shapes::gripper(5), QuadRule::ThreePoint);
    let dense = DenseSingleLayer::assemble(geometry.clone());
    let tcode = TreecodeSingleLayer::new(geometry.clone(), TreecodeParams::fixed(9, 0.4));
    let x: Vec<f64> = (0..geometry.dim())
        .map(|i| (i as f64 * 0.03).cos())
        .collect();
    let yd = dense.apply_vec(&x);
    let yt = tcode.apply_vec(&x);
    let err = relative_error(&yt, &yd);
    assert!(err < 1e-4, "treecode matvec off by {err}");
}

#[test]
fn theorem1_bound_holds_through_the_whole_treecode() {
    // For a single well-separated cluster, the end-to-end treecode error
    // must respect the analytic bound of the expansion it used.
    let cluster = gaussian(
        500,
        Vec3::ZERO,
        0.2,
        ChargeModel::UnitPositive { magnitude: 1.0 },
        33,
    );
    let tc = Treecode::new(&cluster, TreecodeParams::fixed(5, 0.9)).unwrap();
    let probe = Vec3::new(5.0, 0.0, 0.0);
    let approx = tc.potentials_at(&[probe]).values[0];
    let exact = direct_potentials_at(&cluster, &[probe])[0];
    // conservative bound: whole system as one cluster
    let a: f64 = cluster
        .iter()
        .map(|p| p.position.norm())
        .fold(0.0, f64::max);
    let bound = theorem1_bound(cluster.len() as f64, a, 5.0 - 1e-9, 5);
    assert!(
        (approx - exact).abs() <= bound,
        "error {} exceeds Theorem 1 bound {bound}",
        (approx - exact).abs()
    );
}

#[test]
fn original_order_is_preserved_everywhere() {
    // shuffle-sensitive check: values come back in the caller's order
    let mut ps = uniform_cube(500, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 41);
    // tag each particle with a unique charge so identity is visible
    for (i, p) in ps.iter_mut().enumerate() {
        p.charge = 1.0 + i as f64 * 1e-6;
    }
    let tc = Treecode::new(&ps, TreecodeParams::fixed(6, 0.5)).unwrap();
    let tc_result = tc.potentials();
    let exact = direct_potentials(&ps);
    for (i, (v, e)) in tc_result.values.iter().zip(&exact).enumerate() {
        assert!(
            (v - e).abs() < 1e-3 * e.abs().max(1.0),
            "index {i} misaligned"
        );
    }
}

#[test]
fn gmres_with_treecode_operator_matches_dense_solution() {
    let geometry = SingleLayerGeometry::new(shapes::icosphere(1, 1.0), QuadRule::SixPoint);
    let dense = DenseSingleLayer::assemble(geometry.clone());
    let tcode = TreecodeSingleLayer::new(geometry.clone(), TreecodeParams::fixed(9, 0.4));
    let b = vec![1.0; geometry.dim()];
    let opts = GmresOptions {
        restart: 10,
        tol: 1e-10,
        max_iters: 300,
        preconditioner: None,
    };
    let xd = gmres(&dense, &b, &opts).x;
    let xt = gmres(&tcode, &b, &opts).x;
    let err = relative_error(&xt, &xd);
    assert!(err < 1e-3, "solutions differ by {err}");
}
