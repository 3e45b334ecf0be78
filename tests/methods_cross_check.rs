//! Cross-check of every evaluation strategy the workspace offers: on one
//! instance, all five far-field strategies must agree with the exact sum
//! (and hence with each other) within their respective accuracy regimes.

use mbt::prelude::*;

#[test]
fn all_methods_agree_on_one_instance() {
    let ps = uniform_cube(3000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 99);
    let exact = direct_potentials(&ps);

    let mut results: Vec<(&str, Vec<f64>, f64)> = Vec::new();

    // 1. single-tree, fixed degree
    let tc_fixed = Treecode::new(&ps, TreecodeParams::fixed(8, 0.5)).unwrap();
    results.push(("single fixed p=8", tc_fixed.potentials().values, 1e-4));

    // 2. single-tree, adaptive degree
    let tc_adaptive = Treecode::new(&ps, TreecodeParams::adaptive(8, 0.5)).unwrap();
    results.push(("single adaptive", tc_adaptive.potentials().values, 1e-4));

    // 3. tolerance-driven per-interaction degrees
    let tc_tol = Treecode::new(&ps, TreecodeParams::tolerance(1e-6, 0.5)).unwrap();
    results.push(("tolerance 1e-6", tc_tol.potentials().values, 1e-3));

    // 4. dual-tree (cluster–cluster)
    results.push(("dual-tree p=8", tc_fixed.potentials_dual().values, 1e-3));

    // 5. FMM
    let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
    results.push(("fmm p=8", fmm.potentials().values, 1e-4));

    for (name, values, tol) in &results {
        let err = relative_error(values, &exact);
        assert!(err < *tol, "{name}: error {err} exceeds {tol}");
    }

    // pairwise agreement (transitively implied, asserted explicitly for
    // diagnosability)
    for i in 0..results.len() {
        for j in i + 1..results.len() {
            let e = relative_error(&results[i].1, &results[j].1);
            let budget = results[i].2 + results[j].2;
            assert!(
                e < budget,
                "{} vs {}: {e} exceeds {budget}",
                results[i].0,
                results[j].0
            );
        }
    }
}

#[test]
fn strategies_rank_by_work_as_designed() {
    let ps = uniform_cube(8000, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 7);
    let tc = Treecode::new(&ps, TreecodeParams::fixed(4, 0.6)).unwrap();
    let single = tc.potentials();
    let dual = tc.potentials_dual();
    // dual amortises the far field: far fewer expansion interactions
    assert!(dual.stats.pc_interactions < single.stats.pc_interactions);
    // identical near fields (same tree, same MAC family) — dual's block
    // near field covers at least the single-tree direct pairs
    assert!(dual.stats.direct_pairs >= single.stats.direct_pairs / 4);
}
