//! The FMM proper: construction, upward/downward passes, evaluation.

use std::collections::HashMap;

use mbt_geometry::{Aabb, Particle, Vec3};
use mbt_multipole::{DegreeSelector, LocalExpansion, MultipoleExpansion, MAX_DEGREE};
use mbt_treecode::EvalStats;
use rayon::prelude::*;

use crate::grid::{
    cell_center, cell_key, cell_of, key_coords, median_positive, FmmError, LevelGrid,
};

/// Deepest supported level: finest-level cell coordinates must fit the
/// 21-bit-per-axis key resolution with headroom.
pub const MAX_LEVELS: usize = 20;

/// FMM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmmParams {
    /// Finest level `L` (the root is level 0). `None` picks
    /// `⌈log₈(n / 32)⌉` automatically (degenerate particle clouds —
    /// tiny `n`, coincident or collinear positions — resolve to level 0
    /// or 1, where the near field covers everything).
    pub levels: Option<usize>,
    /// Degree policy. `Fixed(p)` is the classical FMM; `Adaptive {..}`
    /// ramps the degree per level by cluster weight (Theorem 3 applied to
    /// the level-synchronised hierarchy).
    pub degree: DegreeSelector,
}

impl FmmParams {
    /// Classical fixed-degree FMM.
    #[must_use]
    pub fn fixed(p: usize) -> Self {
        FmmParams {
            levels: None,
            degree: DegreeSelector::Fixed(p),
        }
    }

    /// Adaptive per-level degrees with the same selector as the treecode.
    /// `alpha` only parameterises the decay ratio κ of the rule; the FMM's
    /// admissibility is the standard non-adjacency criterion.
    #[must_use]
    pub fn adaptive(p_min: usize, alpha: f64) -> Self {
        FmmParams {
            levels: None,
            degree: DegreeSelector::adaptive(p_min, alpha),
        }
    }

    /// Tolerance-driven per-level degrees: each level stores the smallest
    /// degree whose Theorem-1 bound — at the level's worst-case M2L
    /// geometry (cluster radius `d·√3/2`, center separation `2d`, i.e.
    /// the nearest non-adjacent cell) over the level's largest cell
    /// charge — meets `tol`.
    #[must_use]
    pub fn tolerance(tol: f64) -> Self {
        FmmParams {
            levels: None,
            degree: DegreeSelector::tolerance(tol),
        }
    }

    /// Overrides the automatic level count.
    #[must_use]
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.levels = Some(levels);
        self
    }

    /// Checks the parameters against the structural limits, mirroring
    /// `TreecodeParams::validate`: every rejection is a typed
    /// [`FmmError`], never a downstream panic.
    pub fn validate(&self) -> Result<(), FmmError> {
        let degree = self.degree.max_degree();
        if degree > MAX_DEGREE {
            return Err(FmmError::DegreeTooLarge {
                degree,
                max: MAX_DEGREE,
            });
        }
        if let Some(levels) = self.levels {
            if levels > MAX_LEVELS {
                return Err(FmmError::TooManyLevels { levels });
            }
        }
        Ok(())
    }
}

/// Validates the inputs and resolves the finest level and root cube shared
/// by both FMM implementations.
///
/// The automatic level pick targets ~32 particles per finest cell under
/// the occupancy the particle cloud can actually sustain: `8^l` cells for
/// a volumetric cloud, only `~2^l` for a collinear one, and a single cell
/// for a coincident one — so degenerate inputs resolve to level 0 or 1
/// instead of building empty deep grids.
pub(crate) fn resolve_build(
    particles: &[Particle],
    params: &FmmParams,
) -> Result<(usize, Aabb), FmmError> {
    params.validate()?;
    if particles.is_empty() {
        return Err(FmmError::Empty);
    }
    for (i, p) in particles.iter().enumerate() {
        if !p.position.is_finite() || !p.charge.is_finite() {
            return Err(FmmError::NonFinite { index: i });
        }
    }
    let positions: Vec<Vec3> = particles.iter().map(|p| p.position).collect();
    let bounds = Aabb::cubical_hull(&positions, 1e-9);
    let levels = match params.levels {
        Some(l) => l,
        None => auto_levels(particles),
    };
    debug_assert!(levels <= MAX_LEVELS, "validate() caps explicit levels");
    Ok((levels, bounds))
}

/// The automatic finest-level choice (see [`resolve_build`]).
fn auto_levels(particles: &[Particle]) -> usize {
    let n = particles.len();
    if n <= 32 {
        return 0;
    }
    let log2_cells = match spread_rank(particles) {
        SpreadRank::Coincident => return 0,
        SpreadRank::Collinear => 1.0, // occupancy grows ~2^l per level
        SpreadRank::Spatial => 3.0,   // full 8^l occupancy
    };
    let l = ((n as f64 / 32.0).log2() / log2_cells).ceil();
    l.clamp(0.0, MAX_LEVELS as f64) as usize
}

enum SpreadRank {
    Coincident,
    Collinear,
    Spatial,
}

/// Classifies the geometric spread of the cloud: a point, a line, or a
/// genuinely 2/3-dimensional set. One pass to find the farthest point from
/// the first, one pass to bound the perpendicular spread from that axis.
fn spread_rank(particles: &[Particle]) -> SpreadRank {
    let p0 = particles[0].position;
    let mut axis = Vec3::ZERO;
    let mut max_d2 = 0.0f64;
    for p in particles {
        let d = p.position - p0;
        let d2 = d.norm_sq();
        if d2 > max_d2 {
            max_d2 = d2;
            axis = d;
        }
    }
    let scale2 = max_d2.max(p0.norm_sq() * 1e-24);
    // lint: allow(float_cmp, exact-zero: a coincident cloud has literally zero spread)
    if max_d2 <= scale2 * 1e-24 || max_d2 == 0.0 {
        return SpreadRank::Coincident;
    }
    let perp_tol2 = max_d2 * 1e-18; // 1e-9 of the cloud diameter
    for p in particles {
        let d = p.position - p0;
        // squared perpendicular distance from the (p0, axis) line
        let cross = d.cross(axis);
        if cross.norm_sq() / max_d2 > perp_tol2 {
            return SpreadRank::Spatial;
        }
    }
    SpreadRank::Collinear
}

/// The geometry every FMM implementation shares: Morton-sorted particles
/// and per-level occupied-cell grids. A pure function of the particle
/// **positions** and the level count — charges ride along in `sorted` but
/// influence nothing here, which is what lets a charge update reuse it.
pub(crate) struct FmmStructure {
    pub bounds: Aabb,
    pub levels: usize,
    pub sorted: Vec<Particle>,
    pub perm: Vec<usize>,
    pub grids: Vec<LevelGrid>,
}

/// Validates, sorts and grids — the build prefix common to the scalar
/// reference and the compiled arenas.
pub(crate) fn build_structure(
    particles: &[Particle],
    params: &FmmParams,
) -> Result<FmmStructure, FmmError> {
    let (levels, bounds) = resolve_build(particles, params)?;
    let cells_finest = 1u32 << levels;

    // sort particles by finest-level Morton-ordered cell key
    let mut keyed: Vec<(u64, u32)> = particles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (x, y, z) = cell_of(&bounds, cells_finest, p.position);
            (mbt_geometry::morton::encode(x, y, z), i as u32)
        })
        .collect();
    keyed.par_sort_unstable();
    let perm: Vec<usize> = keyed.iter().map(|&(_, i)| i as usize).collect();
    let sorted: Vec<Particle> = perm.iter().map(|&i| particles[i]).collect();

    // build the finest grid from sorted runs
    let mut grids: Vec<LevelGrid> = Vec::with_capacity(levels + 1);
    for level in 0..=levels {
        grids.push(LevelGrid {
            level,
            index: HashMap::new(),
            keys: Vec::new(),
            centers: Vec::new(),
            ranges: Vec::new(),
            cell_edge: bounds.edge() / f64::from(1u32 << level),
        });
    }
    {
        let g = &mut grids[levels];
        let mut start = 0usize;
        while start < keyed.len() {
            let code = keyed[start].0;
            let mut end = start;
            while end < keyed.len() && keyed[end].0 == code {
                end += 1;
            }
            let (x, y, z) = mbt_geometry::morton::decode(code);
            let key = cell_key(x, y, z);
            g.index.insert(key, g.keys.len());
            g.keys.push(key);
            g.centers.push(cell_center(&bounds, cells_finest, x, y, z));
            g.ranges.push((start as u32, end as u32));
            start = end;
        }
    }
    // coarser levels by aggregating children
    for level in (0..levels).rev() {
        let (coarse, fine) = {
            let (a, b) = grids.split_at_mut(level + 1);
            (&mut a[level], &b[0])
        };
        let cells = 1u32 << level;
        for ci in 0..fine.len() {
            let (x, y, z) = key_coords(fine.keys[ci]);
            let pk = cell_key(x >> 1, y >> 1, z >> 1);
            if let Some(&pi) = coarse.index.get(&pk) {
                coarse.ranges[pi].1 = coarse.ranges[pi].1.max(fine.ranges[ci].1);
                coarse.ranges[pi].0 = coarse.ranges[pi].0.min(fine.ranges[ci].0);
            } else {
                let (px, py, pz) = (x >> 1, y >> 1, z >> 1);
                coarse.index.insert(pk, coarse.keys.len());
                coarse.keys.push(pk);
                coarse.centers.push(cell_center(&bounds, cells, px, py, pz));
                coarse.ranges.push(fine.ranges[ci]);
            }
        }
    }

    Ok(FmmStructure {
        bounds,
        levels,
        sorted,
        perm,
        grids,
    })
}

/// The per-level expansion degrees for the charges in `sorted` — the one
/// charge-dependent decision of the build, shared by the scalar
/// reference, the compiled build and the compiled charge update so all
/// three resolve identical degree vectors from identical inputs.
///
/// Fixed/Adaptive equalise against the finest level's median cell weight
/// as reference (weights grow toward the root); Tolerance picks, per
/// level, the smallest degree whose Theorem-1 bound at the level's worst
/// M2L geometry (cluster radius d·√3/2, center separation 2d — the
/// nearest non-adjacent cell) over the level's **largest** cell charge
/// meets the budget, so every compiled translation honours `tol`.
pub(crate) fn level_degrees(
    grids: &[LevelGrid],
    sorted: &[Particle],
    selector: DegreeSelector,
) -> Vec<usize> {
    // per-cell |charge|: the finest level from its particle runs, coarser
    // levels from their children (Morton order keeps a parent's children
    // contiguous, so one forward walk over the parents finds each)
    let levels = grids.len() - 1;
    let mut abs_charge: Vec<Vec<f64>> = vec![Vec::new(); levels + 1];
    abs_charge[levels] = grids[levels]
        .ranges
        .iter()
        .map(|&(s, e)| {
            sorted[s as usize..e as usize]
                .iter()
                .map(|p| p.charge.abs())
                .sum()
        })
        .collect();
    for l in (0..levels).rev() {
        let (coarse, fine) = (&grids[l], &grids[l + 1]);
        let mut weights = vec![0.0f64; coarse.len()];
        let mut pi = 0usize;
        for (ci, &w) in abs_charge[l + 1].iter().enumerate() {
            while coarse.ranges[pi].1 <= fine.ranges[ci].0 {
                pi += 1;
            }
            weights[pi] += w;
        }
        abs_charge[l] = weights;
    }

    let ref_weight = median_positive(&abs_charge[levels]).max(1e-300);
    let wr = selector.weight(ref_weight, grids[levels].cell_edge);
    (0..=levels)
        .map(|l| {
            let edge = grids[l].cell_edge;
            if let DegreeSelector::Tolerance { tol, p_min, p_max } = selector {
                let a = edge * mbt_multipole::bounds::CUBE_CIRCUMRADIUS_RATIO;
                let q_max = abs_charge[l].iter().copied().fold(0.0f64, f64::max);
                return mbt_multipole::degree_for_tolerance_at(q_max, a, 2.0 * edge, tol, p_max)
                    .max(p_min);
            }
            let w = selector.weight(median_positive(&abs_charge[l]), edge);
            selector.degree_for(w, wr)
        })
        .collect()
}

/// A fully built FMM, ready to evaluate.
pub struct Fmm {
    bounds: Aabb,
    levels: usize,
    degrees: Vec<usize>, // per level
    particles: Vec<Particle>,
    perm: Vec<usize>,
    grids: Vec<LevelGrid>,
    multipoles: Vec<Vec<MultipoleExpansion>>, // [level][cell]
    locals: Vec<Vec<LocalExpansion>>,         // [level][cell]
    /// Counters from the build's translation work (M2L/L2L/L2P are counted
    /// during evaluation; P2M/M2L totals here).
    pub translation_terms: u64,
}

impl Fmm {
    /// Builds the FMM over a particle set.
    pub fn new(particles: &[Particle], params: FmmParams) -> Result<Fmm, FmmError> {
        let FmmStructure {
            bounds,
            levels,
            sorted,
            perm,
            grids,
        } = build_structure(particles, &params)?;
        let degrees = level_degrees(&grids, &sorted, params.degree);

        // upward: P2M per level directly from the particles (each level's
        // expansion is then exact at its own degree — see the crate docs).
        // Levels 0 and 1 have no well-separated cells, so nothing ever
        // reads their multipoles: they are not formed.
        let mut translation_terms = 0u64;
        let mut multipoles: Vec<Vec<MultipoleExpansion>> = vec![Vec::new(); levels + 1];
        for (l, grid) in grids.iter().enumerate().skip(2) {
            let p = degrees[l];
            let exps: Vec<MultipoleExpansion> = (0..grid.len())
                .into_par_iter()
                .map(|ci| {
                    let (s, e) = grid.ranges[ci];
                    MultipoleExpansion::from_particles(
                        grid.centers[ci],
                        p,
                        &sorted[s as usize..e as usize],
                    )
                })
                .collect();
            translation_terms += (grid.len() as u64) * ((p as u64 + 1) * (p as u64 + 1));
            multipoles[l] = exps;
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
            let parent_locals: Vec<LocalExpansion> = std::mem::take(&mut locals[l - 1]);
            let new_locals: Vec<LocalExpansion> = (0..grid.len())
                .into_par_iter()
                .map(|ci| {
                    let (x, y, z) = key_coords(grid.keys[ci]);
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
                    for dx in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dz in -1i64..=1 {
                                let nx = i64::from(px) + dx;
                                let ny = i64::from(py) + dy;
                                let nz = i64::from(pz) + dz;
                                let max = (1i64 << (l - 1)) - 1;
                                if nx < 0 || ny < 0 || nz < 0 || nx > max || ny > max || nz > max {
                                    continue;
                                }
                                for ox in 0..2i64 {
                                    for oy in 0..2i64 {
                                        for oz in 0..2i64 {
                                            let cx = (nx << 1) + ox;
                                            let cy = (ny << 1) + oy;
                                            let cz = (nz << 1) + oz;
                                            if (cx - i64::from(x)).abs() <= 1
                                                && (cy - i64::from(y)).abs() <= 1
                                                && (cz - i64::from(z)).abs() <= 1
                                            {
                                                continue; // adjacent: near field
                                            }
                                            if let Some(si) =
                                                grid.find(cx as u32, cy as u32, cz as u32)
                                            {
                                                local.accumulate(&mults[si].to_local(center, p));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    local
                })
                .collect();
            locals[l - 1] = parent_locals;
            locals[l] = new_locals;
        }

        Ok(Fmm {
            bounds,
            levels,
            degrees,
            particles: sorted,
            perm,
            grids,
            multipoles,
            locals,
            translation_terms,
        })
    }

    /// The finest level index.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The per-level expansion degrees.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// The root bounding cube.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The level grids (index 0 = root).
    #[must_use]
    pub fn grids(&self) -> &[LevelGrid] {
        &self.grids
    }

    /// The multipole expansions of one level (diagnostics / testing).
    /// Empty for levels 0 and 1, whose multipoles are never read and so
    /// never formed.
    #[must_use]
    pub fn multipoles(&self, level: usize) -> &[MultipoleExpansion] {
        &self.multipoles[level]
    }

    /// The local expansions of one level (diagnostics / testing).
    #[must_use]
    pub fn locals(&self, level: usize) -> &[LocalExpansion] {
        &self.locals[level]
    }

    /// Potentials at all source particles, caller order.
    #[must_use]
    pub fn potentials(&self) -> mbt_treecode::EvalResult<f64> {
        let finest = &self.grids[self.levels];
        let locals = &self.locals[self.levels];
        let p = self.degrees[self.levels];
        let cells_finest = 1u32 << self.levels;

        let per_cell: Vec<(Vec<f64>, EvalStats)> = (0..finest.len())
            .into_par_iter()
            .map(|ci| {
                let mut stats = EvalStats::default();
                let (s, e) = finest.ranges[ci];
                let (x, y, z) = key_coords(finest.keys[ci]);
                // gather near-field cell ranges once per cell
                let mut near: Vec<(u32, u32)> = Vec::with_capacity(27);
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let nx = i64::from(x) + dx;
                            let ny = i64::from(y) + dy;
                            let nz = i64::from(z) + dz;
                            if nx < 0
                                || ny < 0
                                || nz < 0
                                || nx >= i64::from(cells_finest)
                                || ny >= i64::from(cells_finest)
                                || nz >= i64::from(cells_finest)
                            {
                                continue;
                            }
                            if let Some(ni) = finest.find(nx as u32, ny as u32, nz as u32) {
                                near.push(finest.ranges[ni]);
                            }
                        }
                    }
                }
                let vals: Vec<f64> = (s..e)
                    .map(|i| {
                        let xi = self.particles[i as usize].position;
                        let mut phi = locals[ci].potential_at(xi);
                        stats.record_interaction(p); // the L2P evaluation
                        let mut pairs = 0u64;
                        for &(ns, ne) in &near {
                            for j in ns..ne {
                                if j != i {
                                    let pj = &self.particles[j as usize];
                                    phi += pj.charge / pj.position.distance(xi);
                                    pairs += 1;
                                }
                            }
                        }
                        stats.record_direct(pairs);
                        phi
                    })
                    .collect();
                stats.targets = u64::from(e - s);
                (vals, stats)
            })
            .collect();

        let mut values = vec![0.0f64; self.particles.len()];
        let mut stats = EvalStats::default();
        for (ci, (vals, s)) in per_cell.into_iter().enumerate() {
            let (cs, _) = finest.ranges[ci];
            for (k, v) in vals.into_iter().enumerate() {
                values[cs as usize + k] = v;
            }
            stats.merge(&s);
        }
        // scatter to caller order
        let mut out = vec![0.0f64; values.len()];
        for (i, &orig) in self.perm.iter().enumerate() {
            out[orig] = values[i];
        }
        mbt_treecode::EvalResult { values: out, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{gaussian, uniform_cube, ChargeModel};
    use mbt_treecode::relative_error;

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    #[test]
    fn fmm_matches_direct_uniform() {
        let ps = uniform_cube(3000, 1.0, charges(), 3);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let mut prev = f64::INFINITY;
        for p in [3usize, 6, 10] {
            let fmm = Fmm::new(&ps, FmmParams::fixed(p).with_levels(3)).unwrap();
            let r = fmm.potentials();
            let err = relative_error(&r.values, &exact);
            assert!(err < prev, "error must fall with degree: p={p}, err={err}");
            prev = err;
        }
        assert!(prev < 5e-6, "p=10 error {prev}");
    }

    #[test]
    fn fmm_matches_direct_gaussian() {
        let ps = gaussian(2000, Vec3::ZERO, 0.5, charges(), 11);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let fmm = Fmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
        let r = fmm.potentials();
        assert!(relative_error(&r.values, &exact) < 1e-4);
    }

    #[test]
    fn adaptive_degrees_ramp_toward_root() {
        let ps = uniform_cube(8000, 1.0, charges(), 5);
        let fmm = Fmm::new(&ps, FmmParams::adaptive(3, 0.7).with_levels(4)).unwrap();
        let d = fmm.degrees();
        assert_eq!(d.len(), 5);
        assert!(d[4] == 3, "finest level at p_min");
        assert!(
            d[0] >= d[4],
            "root degree must not be below the leaf degree"
        );
        // monotone non-increasing toward finer levels
        for w in d.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn adaptive_fmm_beats_fixed_at_p_min() {
        let ps = uniform_cube(6000, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 7);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let fixed = Fmm::new(&ps, FmmParams::fixed(3).with_levels(4)).unwrap();
        let adaptive = Fmm::new(&ps, FmmParams::adaptive(3, 0.7).with_levels(4)).unwrap();
        let e_fixed = relative_error(&fixed.potentials().values, &exact);
        let e_adaptive = relative_error(&adaptive.potentials().values, &exact);
        assert!(
            e_adaptive < e_fixed,
            "adaptive FMM ({e_adaptive}) must beat fixed ({e_fixed})"
        );
    }

    #[test]
    fn auto_levels_reasonable() {
        let ps = uniform_cube(4000, 1.0, charges(), 9);
        let fmm = Fmm::new(&ps, FmmParams::fixed(4)).unwrap();
        assert!(
            fmm.levels() >= 2 && fmm.levels() <= 6,
            "levels = {}",
            fmm.levels()
        );
    }

    #[test]
    fn stats_accumulate() {
        let ps = uniform_cube(2000, 1.0, charges(), 13);
        let fmm = Fmm::new(&ps, FmmParams::fixed(5).with_levels(3)).unwrap();
        let r = fmm.potentials();
        assert_eq!(r.stats.targets, 2000);
        assert_eq!(r.stats.pc_interactions, 2000); // one L2P per particle
        assert!(r.stats.direct_pairs > 0);
        assert!(fmm.translation_terms > 0);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            Fmm::new(&[], FmmParams::fixed(4)).err().unwrap(),
            FmmError::Empty
        );
        let bad = [Particle::new(Vec3::new(0.0, f64::NAN, 0.0), 1.0)];
        assert_eq!(
            Fmm::new(&bad, FmmParams::fixed(4)).err().unwrap(),
            FmmError::NonFinite { index: 0 }
        );
        let ok = [Particle::new(Vec3::ZERO, 1.0), Particle::new(Vec3::X, 1.0)];
        assert_eq!(
            Fmm::new(&ok, FmmParams::fixed(4).with_levels(25))
                .err()
                .unwrap(),
            FmmError::TooManyLevels { levels: 25 }
        );
    }

    #[test]
    fn degree_validation_is_typed() {
        let ps = uniform_cube(100, 1.0, charges(), 3);
        let err = Fmm::new(&ps, FmmParams::fixed(100)).err().unwrap();
        assert!(matches!(err, FmmError::DegreeTooLarge { degree: 100, .. }));
        // validate() alone rejects without touching particles
        assert!(FmmParams::fixed(100).validate().is_err());
        assert!(FmmParams::fixed(8).validate().is_ok());
    }

    #[test]
    fn tiny_n_resolves_to_shallow_levels() {
        for n in [1usize, 2, 8, 32] {
            let ps = uniform_cube(n, 1.0, charges(), 17);
            let fmm = Fmm::new(&ps, FmmParams::fixed(4)).unwrap();
            assert_eq!(fmm.levels(), 0, "n={n} must resolve to level 0");
            // level 0 = a single cell: everything is near field (direct sum)
            let exact = mbt_treecode::direct::direct_potentials(&ps);
            let r = fmm.potentials();
            if n > 1 {
                assert!(relative_error(&r.values, &exact) < 1e-13);
            }
        }
        let ps = uniform_cube(64, 1.0, charges(), 19);
        let fmm = Fmm::new(&ps, FmmParams::fixed(4)).unwrap();
        assert!(fmm.levels() <= 1, "n=64 must resolve to level 0 or 1");
    }

    #[test]
    fn coincident_particles_resolve_to_level_zero() {
        let ps: Vec<Particle> = (0..500)
            .map(|i| Particle::new(Vec3::new(0.25, -0.5, 1.0), 1.0 - 2.0 * f64::from(i % 2)))
            .collect();
        let fmm = Fmm::new(&ps, FmmParams::fixed(4)).unwrap();
        assert_eq!(fmm.levels(), 0);
        let _ = fmm.potentials(); // must not panic (pairs at distance 0 aside)
    }

    #[test]
    fn collinear_particles_resolve_shallow_and_match_direct() {
        let ps: Vec<Particle> = (0..600)
            .map(|i| {
                let t = f64::from(i) / 599.0;
                Particle::new(Vec3::new(t, 2.0 * t, -t), 1.0 - 2.0 * f64::from(i % 2))
            })
            .collect();
        let fmm = Fmm::new(&ps, FmmParams::fixed(8)).unwrap();
        // 2^l-style occupancy: ceil(log2(600/32)) = 5 levels, not 8^l-deep
        assert!(
            fmm.levels() <= 6,
            "collinear cloud over-refined: {}",
            fmm.levels()
        );
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let r = fmm.potentials();
        assert!(relative_error(&r.values, &exact) < 1e-3);
    }

    #[test]
    fn explicit_shallow_levels_are_exact_direct_sums() {
        let ps = uniform_cube(300, 1.0, charges(), 23);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        for levels in [0usize, 1] {
            let fmm = Fmm::new(&ps, FmmParams::fixed(3).with_levels(levels)).unwrap();
            assert_eq!(fmm.levels(), levels);
            let r = fmm.potentials();
            assert!(
                relative_error(&r.values, &exact) < 1e-13,
                "levels={levels}: shallow grids have no far field, results must be exact"
            );
        }
    }

    #[test]
    fn two_particles_far_apart() {
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
