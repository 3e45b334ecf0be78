//! The reference FMM the compiled backend is tested against. Built only
//! under `cfg(test)`.
//!
//! The same level-synchronised pipeline as [`crate::CompiledFmm`], over
//! the same sorted particles, grids and degree vector, but written
//! straight from the math: binary-searched grid lookups, owned expansions, and
//! every translation through the spherical-harmonic recurrences of
//! `mbt-multipole`. The two must resolve equal degree vectors, report
//! bit-identical [`EvalStats`] and translation-term counts, and agree on
//! values up to summation order.

use std::sync::Arc;

use mbt_geometry::morton::decode;
use mbt_geometry::{MortonOrder, Particle};
use mbt_multipole::{LocalExpansion, MultipoleExpansion};
use mbt_treecode::{EvalResult, EvalStats};
use rayon::prelude::*;

use crate::grid::{FmmError, LevelGrid};
use crate::method::{level_degrees, sort_sources, structure_over, FmmParams, FmmStructure};

/// A fully built reference FMM, ready to evaluate at its sources.
pub(crate) struct Fmm {
    levels: usize,
    degrees: Vec<usize>, // per level
    order: Arc<MortonOrder>,
    /// The charges in sorted order.
    qs: Vec<f64>,
    grids: Vec<LevelGrid>,
    locals: Vec<Vec<LocalExpansion>>, // [level][cell]
    /// P2M terms formed during the upward pass.
    pub(crate) translation_terms: u64,
}

impl Fmm {
    /// Builds the FMM over a particle set.
    pub(crate) fn new(particles: &[Particle], params: FmmParams) -> Result<Fmm, FmmError> {
        params.validate()?;
        let (order, keys, qs) = sort_sources(particles)?;
        let FmmStructure {
            order,
            levels,
            grids,
            ..
        } = structure_over(Arc::new(order), &keys, &params);
        let degrees = level_degrees(&grids, &qs, params.degree);

        // upward: P2M per level directly from the particles (each level's
        // expansion is then exact at its own degree — see the crate docs).
        // Levels 0 and 1 have no well-separated cells, so nothing ever
        // reads their multipoles: they are not formed.
        let mut translation_terms = 0u64;
        let mut multipoles: Vec<Vec<MultipoleExpansion>> = vec![Vec::new(); levels + 1];
        for (l, grid) in grids.iter().enumerate().skip(2) {
            let p = degrees[l];
            multipoles[l] = (0..grid.len())
                .into_par_iter()
                .map(|ci| {
                    let (s, e) = grid.ranges[ci];
                    let cell: Vec<Particle> = order
                        .span(&qs)
                        .slice(s as usize..e as usize)
                        .iter()
                        .collect();
                    MultipoleExpansion::from_particles(grid.centers[ci], p, &cell)
                })
                .collect();
            translation_terms += (grid.len() as u64) * ((p as u64 + 1) * (p as u64 + 1));
        }

        // downward: locals per level; levels 0 and 1 have no
        // well-separated cells
        let mut locals: Vec<Vec<LocalExpansion>> = (0..=levels)
            .map(|l| {
                let p = degrees[l];
                grids[l]
                    .centers
                    .iter()
                    .map(|&c| LocalExpansion::zero(c, p))
                    .collect()
            })
            .collect();
        for l in 2..=levels {
            let p = degrees[l];
            let parent_grid = &grids[l - 1];
            let grid = &grids[l];
            let mults = &multipoles[l];
            let parent_locals = &locals[l - 1];
            let new_locals: Vec<LocalExpansion> = (0..grid.len())
                .into_par_iter()
                .map(|ci| {
                    let (x, y, z) = decode(grid.codes[ci]);
                    let center = grid.centers[ci];
                    // L2L from the parent
                    let (px, py, pz) = (x >> 1, y >> 1, z >> 1);
                    let pi = parent_grid
                        .find(px, py, pz)
                        // lint: allow(panic, grid levels are built by halving occupied keys, so the parent cell exists)
                        .expect("every cell has an occupied parent");
                    let mut local = parent_locals[pi].translated(center, p);
                    // M2L from the interaction list: children of the
                    // parent's neighbours that are not adjacent to us
                    let max = (1i64 << (l - 1)) - 1;
                    for dx in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dz in -1i64..=1 {
                                let nx = i64::from(px) + dx;
                                let ny = i64::from(py) + dy;
                                let nz = i64::from(pz) + dz;
                                if nx < 0 || ny < 0 || nz < 0 || nx > max || ny > max || nz > max {
                                    continue;
                                }
                                for o in 0..8i64 {
                                    let cx = (nx << 1) + (o >> 2);
                                    let cy = (ny << 1) + ((o >> 1) & 1);
                                    let cz = (nz << 1) + (o & 1);
                                    if (cx - i64::from(x)).abs() <= 1
                                        && (cy - i64::from(y)).abs() <= 1
                                        && (cz - i64::from(z)).abs() <= 1
                                    {
                                        continue; // adjacent: near field
                                    }
                                    if let Some(si) = grid.find(cx as u32, cy as u32, cz as u32) {
                                        local.accumulate(&mults[si].to_local(center, p));
                                    }
                                }
                            }
                        }
                    }
                    local
                })
                .collect();
            locals[l] = new_locals;
        }

        Ok(Fmm {
            levels,
            degrees,
            order,
            qs,
            grids,
            locals,
            translation_terms,
        })
    }

    /// The per-level expansion degrees.
    pub(crate) fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Potentials at all source particles, caller order: L2P from each
    /// finest cell's local plus a direct sum over its 27 neighbours.
    pub(crate) fn potentials(&self) -> EvalResult<f64> {
        let finest = &self.grids[self.levels];
        let locals = &self.locals[self.levels];
        let p = self.degrees[self.levels];
        let cells = i64::from(1u32 << self.levels);
        let sources = self.order.span(&self.qs);
        let mut sorted_values = vec![0.0f64; sources.len()];
        let mut stats = EvalStats::for_targets(sources.len() as u64);
        for (ci, local) in locals.iter().enumerate() {
            let (s, e) = finest.ranges[ci];
            let (x, y, z) = decode(finest.codes[ci]);
            let mut near: Vec<(u32, u32)> = Vec::with_capacity(27);
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dz in -1i64..=1 {
                        let (nx, ny, nz) =
                            (i64::from(x) + dx, i64::from(y) + dy, i64::from(z) + dz);
                        let inside = |c: i64| (0..cells).contains(&c);
                        if !(inside(nx) && inside(ny) && inside(nz)) {
                            continue;
                        }
                        if let Some(ni) = finest.find(nx as u32, ny as u32, nz as u32) {
                            near.push(finest.ranges[ni]);
                        }
                    }
                }
            }
            for i in s..e {
                let xi = sources.position(i as usize);
                let mut phi = local.potential_at(xi);
                stats.record_interaction(p); // the L2P evaluation
                for &(ns, ne) in &near {
                    for j in (ns..ne).filter(|&j| j != i) {
                        let j = j as usize;
                        phi += sources.q[j] / sources.position(j).distance(xi);
                        stats.record_direct(1);
                    }
                }
                sorted_values[i as usize] = phi;
            }
        }
        EvalResult {
            values: self.order.unsort(&sorted_values),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledFmm;
    use mbt_geometry::distribution::{overlapped_gaussians, uniform_cube, ChargeModel};
    use mbt_geometry::Vec3;
    use mbt_treecode::relative_error;

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    #[test]
    fn compiled_matches_reference_values_and_bit_stats() {
        let ps = uniform_cube(3000, 1.0, charges(), 3);
        for params in [
            FmmParams::fixed(5).with_levels(3),
            FmmParams::adaptive(3, 0.7).with_levels(3),
        ] {
            let reference = Fmm::new(&ps, params).unwrap();
            let compiled = CompiledFmm::new(&ps, params).unwrap();
            assert_eq!(reference.degrees(), compiled.degrees());
            let rs = reference.potentials();
            let rc = compiled.potentials();
            // identical instrumentation, bit for bit
            assert_eq!(rs.stats, rc.stats);
            assert_eq!(reference.translation_terms, compiled.translation_terms);
            // identical math up to summation order
            assert!(relative_error(&rc.values, &rs.values) < 1e-11);
        }
    }

    #[test]
    fn compiled_matches_reference_on_both_distributions() {
        for (ps, label) in [
            (uniform_cube(2500, 1.0, charges(), 3), "uniform"),
            (
                overlapped_gaussians(2500, 4, 2.0, 0.3, charges(), 5),
                "clustered",
            ),
        ] {
            for params in [
                FmmParams::fixed(5).with_levels(3),
                FmmParams::adaptive(3, 0.7).with_levels(3),
            ] {
                let reference = Fmm::new(&ps, params).unwrap();
                let compiled = CompiledFmm::new(&ps, params).unwrap();
                assert_eq!(reference.degrees(), compiled.degrees(), "{label}");
                let rs = reference.potentials();
                let rc = compiled.potentials();
                // bit-identical instrumentation: same interactions, same
                // degrees, same near-field pair count
                assert_eq!(rs.stats, rc.stats, "{label}: instrumentation drifted");
                // identical math up to summation order
                let e = relative_error(&rc.values, &rs.values);
                assert!(e < 1e-11, "{label}: compiled vs reference error {e}");
            }
        }
    }

    #[test]
    fn degree_policies_resolve_identically() {
        // the Tolerance policy resolves per level against the FMM's own
        // worst-case geometry — the compiled and reference pipelines must
        // agree on the resolved degrees or their budgets diverge silently.
        // (The tolerances stay ≥ 1e-3: tighter ones resolve degrees whose
        // p⁶ operator compilation dominates the unoptimized test profile.)
        let ps = uniform_cube(2000, 1.0, charges(), 19);
        for tol in [1e-2, 1e-3] {
            let params = FmmParams::tolerance(tol);
            let reference = Fmm::new(&ps, params).unwrap();
            let compiled = CompiledFmm::new(&ps, params).unwrap();
            assert_eq!(reference.degrees(), compiled.degrees(), "tol = {tol}");
        }
    }

    #[test]
    fn two_particles_far_apart() {
        // p = 20 is past the compiled operator-table cap: only the
        // reference reaches it
        let ps = [
            Particle::new(Vec3::ZERO, 1.0),
            Particle::new(Vec3::new(1.0, 1.0, 1.0), -2.0),
        ];
        let fmm = Fmm::new(&ps, FmmParams::fixed(20).with_levels(2)).unwrap();
        let r = fmm.potentials();
        let d = 3.0f64.sqrt();
        assert!((r.values[0] - -2.0 / d).abs() < 1e-8);
        assert!((r.values[1] - 1.0 / d).abs() < 1e-8);
    }
}
