//! **FMM extension** — the paper's conclusion: "the results presented in
//! this paper can easily be extended to the Fast Multipole Method as
//! well." This harness compares fixed- vs adaptive-degree FMM (and the
//! Barnes–Hut treecode) on the same instances: error, work, wall time.
//!
//! Run: `cargo run --release -p mbt-bench --bin fmm_compare`

use mbt_bench::{structured_instance, timed, unstructured_instance};
use mbt_fmm::{CompiledFmm, FmmParams};
use mbt_geometry::Particle;
use mbt_treecode::{sampled_relative_error, Treecode, TreecodeParams};

fn run(name: &str, particles: &[Particle]) {
    println!("\n=== {name}: n = {}", particles.len());
    println!(
        "{:<26} {:>12} {:>14} {:>10} {:>12}",
        "method", "error", "work", "time (s)", "degrees"
    );

    // Barnes–Hut rows for context (single- and dual-tree traversals)
    for (label, params, dual) in [
        ("BH original (p = 4)", TreecodeParams::fixed(4, 0.7), false),
        (
            "BH improved (p_min = 4)",
            TreecodeParams::adaptive(4, 0.7),
            false,
        ),
        ("BH dual-tree (p = 4)", TreecodeParams::fixed(4, 0.7), true),
        (
            "BH dual adaptive (p≥4)",
            TreecodeParams::adaptive(4, 0.7),
            true,
        ),
    ] {
        let tc = Treecode::new(particles, params).expect("valid");
        let (r, secs) = timed(|| {
            if dual {
                tc.potentials_dual()
            } else {
                tc.potentials()
            }
        });
        let e = sampled_relative_error(particles, &r.values, 300, 1);
        println!(
            "{label:<26} {:>12.3e} {:>14} {:>10.3} {:>12}",
            e.relative_l2,
            r.stats.work(),
            secs,
            format!("p≤{}", r.stats.max_degree_used())
        );
    }

    // FMM rows
    for (label, params) in [
        ("FMM fixed (p = 4)", FmmParams::fixed(4)),
        ("FMM adaptive (p_min = 4)", FmmParams::adaptive(4, 0.7)),
    ] {
        let ((fmm, r), secs) = timed(|| {
            let fmm = CompiledFmm::new(particles, params).expect("valid");
            let r = fmm.potentials();
            (fmm, r)
        });
        let e = sampled_relative_error(particles, &r.values, 300, 1);
        println!(
            "{label:<26} {:>12.3e} {:>14} {:>10.3} {:>12}",
            e.relative_l2,
            r.stats.work() + fmm.translation_terms,
            secs,
            format!("{:?}", fmm.degrees())
        );
    }
}

fn main() {
    println!("FMM extension — fixed vs adaptive degrees, against Barnes–Hut");
    run("structured (uniform)", &structured_instance(32_000));
    run(
        "unstructured (overlapped Gaussians)",
        &unstructured_instance(32_000),
    );
}
