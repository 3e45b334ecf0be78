//! The counted depth: the counts the pick reads are the counts the built
//! FMM runs, the pick lands where the measured cost bottoms out on the
//! four shapes EXPERIMENTS.md tabulates (`fmm_depth` regenerates that
//! table), and degenerate clouds always build.

use mbt_bem::{shapes, QuadRule, SingleLayerGeometry};
use mbt_fmm::{depth_counts, CompiledFmm, FmmParams, COMPILED_MAX_LEVELS};
use mbt_geometry::distribution::{overlapped_gaussians, uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};

fn cube(n: usize) -> Vec<Particle> {
    uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 3)
}

fn gaussians(n: usize) -> Vec<Particle> {
    overlapped_gaussians(
        n,
        4,
        2.5,
        0.5,
        ChargeModel::UnitPositive { magnitude: 1.0 },
        77,
    )
}

/// The Table 3 shape: icosphere(3) under the six-point rule, 7 680 Gauss
/// sources and the 642 mesh vertices the collocation matvec targets.
fn sphere() -> (Vec<Particle>, Vec<Vec3>) {
    let geometry = SingleLayerGeometry::new(shapes::icosphere(3, 1.0), QuadRule::SixPoint);
    let sources = geometry
        .gauss_points
        .iter()
        .map(|&x| Particle::new(x, 1.0))
        .collect();
    (sources, geometry.mesh.vertices)
}

#[test]
fn counted_pairs_are_the_pairs_the_fmm_runs() {
    let (sphere, _) = sphere();
    for (name, ps, depths) in [
        ("cube", cube(20_000), [3, 4]),
        ("gaussians", gaussians(20_000), [4, 5]),
        ("sphere", sphere, [2, 3]),
    ] {
        let counts = depth_counts(&ps, depths[1]).unwrap();
        assert_eq!(counts.len(), depths[1] + 1);
        for levels in depths {
            let fmm = CompiledFmm::new(&ps, FmmParams::fixed(2).with_levels(levels)).unwrap();
            let count = &counts[levels];
            assert_eq!(count.levels, levels);
            assert_eq!(
                fmm.m2l_pairs, count.m2l_pairs,
                "{name} L={levels}: M2L pairs"
            );
            assert_eq!(
                fmm.potentials().stats.direct_pairs,
                count.near_pairs,
                "{name} L={levels}: near pairs"
            );
        }
    }
}

#[test]
fn external_near_pairs_scale_from_the_source_count() {
    // an external target meets near_pairs / n sources on average: within
    // 15 % of the counted pairs at the Table 3 shape's two depths
    let (sources, vertices) = sphere();
    let counts = depth_counts(&sources, 3).unwrap();
    for levels in [2, 3] {
        let fmm = CompiledFmm::new(&sources, FmmParams::fixed(2).with_levels(levels)).unwrap();
        let measured = fmm.potentials_at(&vertices).stats.direct_pairs as f64;
        let predicted =
            counts[levels].near_pairs as f64 * vertices.len() as f64 / sources.len() as f64;
        let ratio = predicted / measured;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "L={levels}: predicted {predicted:.3e}, measured {measured:.3e}"
        );
    }
}

#[test]
fn picks_match_the_measured_fastest_depths() {
    let (sphere, vertices) = sphere();
    let cases = [
        (
            "sphere -> vertices",
            &sphere,
            FmmParams::fixed(6).for_targets(vertices.len()),
            2,
        ),
        ("sphere -> sources", &sphere, FmmParams::fixed(6), 3),
        ("cube 100k", &cube(100_000), FmmParams::fixed(4), 4),
        (
            "gaussians 100k",
            &gaussians(100_000),
            FmmParams::fixed(4),
            5,
        ),
    ];
    for (name, ps, params, want) in cases {
        let fmm = CompiledFmm::new(ps, params).unwrap();
        assert_eq!(fmm.levels(), want, "{name}");
        // the explicit override at the picked depth is the same build
        let pinned = CompiledFmm::new(ps, params.with_levels(want)).unwrap();
        assert_eq!(fmm.m2l_pairs, pinned.m2l_pairs, "{name}");
    }
}

#[test]
fn degenerate_clouds_always_build() {
    let line: Vec<Particle> = (0..10_000)
        .map(|i| {
            let t = f64::from(i) / 9_999.0;
            Particle::new(Vec3::new(t, 2.0 * t, -t), 1.0 - 2.0 * f64::from(i % 2))
        })
        .collect();
    let point: Vec<Particle> = (0..500)
        .map(|i| Particle::new(Vec3::new(0.25, -0.5, 1.0), f64::from(i % 3)))
        .collect();
    for (name, ps) in [
        ("coincident", point),
        ("one particle", cube(1)),
        ("33 particles", cube(33)),
        ("collinear 10k", line),
    ] {
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(4));
        let fmm = fmm.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(fmm.levels() <= COMPILED_MAX_LEVELS, "{name}");
    }
}

#[test]
fn the_pick_does_not_depend_on_the_worker_count() {
    let (sphere, vertices) = sphere();
    for params in [
        FmmParams::fixed(6),
        FmmParams::fixed(6).for_targets(vertices.len()),
        FmmParams::adaptive(4, 0.7),
    ] {
        let levels: Vec<usize> = [1usize, 2]
            .into_iter()
            .map(|workers| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .unwrap();
                pool.install(|| CompiledFmm::new(&sphere, params).unwrap().levels())
            })
            .collect();
        assert_eq!(levels[0], levels[1], "{params:?}");
    }
}

#[test]
fn the_pick_does_not_depend_on_the_charges() {
    // a charge epoch keeps its geometry: the depth is the same under any
    // charge vector, and a fresh build agrees with the recharged one
    let ps = gaussians(8_000);
    let params = FmmParams::adaptive(3, 0.7);
    let fmm = CompiledFmm::new(&ps, params).unwrap();
    let loud: Vec<Particle> = ps
        .iter()
        .enumerate()
        .map(|(i, p)| Particle::new(p.position, if i == 17 { 1e6 } else { 1e-6 }))
        .collect();
    let fresh = CompiledFmm::new(&loud, params).unwrap();
    let charges: Vec<f64> = loud.iter().map(|p| p.charge).collect();
    let recharged = fmm.with_charges(&charges).unwrap();
    assert_eq!(fresh.levels(), fmm.levels());
    assert_eq!(recharged.levels(), fmm.levels());
}
