//! The hot batch-evaluation path.
//!
//! One `query_batch` group of requests against one target becomes a
//! **single** sweep, and every backend runs it through the same
//! [`packed_sweep`]: all points are packed into one arena, the backend
//! fills one value arena over it — the treecode's `*_at_into` kernels
//! with their per-chunk `Scratch`/workspace machinery, the compiled
//! FMM's L2P + near field, or the guarded direct sum — and the value
//! arena is split back per request. Allocation discipline (enforced by
//! `cargo xtask lint`): one point arena + one value arena per batch
//! and one result buffer per request handed to its caller — never
//! an allocation per point or per interaction.
//!
//! Because every target's evaluation is independent, packing requests
//! together is **bit-exact**: each request's values are identical to what
//! a lone `potentials_at`/`fields_at` call on the same plan would return.

use std::time::Instant;

use mbt_fmm::CompiledFmm;
use mbt_geometry::{ParticleSoa, Vec3};
use mbt_obs::Phase;
use mbt_treecode::{EvalStats, Treecode};

use crate::plan::{EvalConfig, Plan, PlanArtifact};
use crate::registry::SourceSet;

/// What a query computes at each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Potential `Φ(x)`.
    Potential,
    /// Potential and gradient `(Φ(x), ∇Φ(x))`.
    Field,
}

/// Values of one request, in its point order.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Per-point potentials (for [`QueryKind::Potential`]).
    Potentials(Vec<f64>),
    /// Per-point potential–gradient pairs (for [`QueryKind::Field`]).
    Fields(Vec<(f64, Vec3)>),
}

impl QueryOutput {
    /// Number of evaluated points.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            QueryOutput::Potentials(v) => v.len(),
            QueryOutput::Fields(v) => v.len(),
        }
    }

    /// Whether the request had no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The potentials, when this is a potential-query output.
    #[must_use]
    pub fn potentials(&self) -> Option<&[f64]> {
        match self {
            QueryOutput::Potentials(v) => Some(v),
            QueryOutput::Fields(_) => None,
        }
    }

    /// The potential–gradient pairs, when this is a field-query output.
    #[must_use]
    pub fn fields(&self) -> Option<&[(f64, Vec3)]> {
        match self {
            QueryOutput::Fields(v) => Some(v),
            QueryOutput::Potentials(_) => None,
        }
    }
}

/// The one pack → sweep → split shape every backend shares: the
/// per-request point slices are packed into one arena, `sweep` fills a
/// zeroed value arena of `kind` over it, and the arena is split back per
/// request, in request order.
pub(crate) fn packed_sweep<S>(
    kind: QueryKind,
    requests: &[&[Vec3]],
    sweep: impl FnOnce(&[Vec3], &mut QueryOutput) -> S,
) -> (Vec<QueryOutput>, S) {
    let total: usize = requests.iter().map(|r| r.len()).sum();
    let mut points: Vec<Vec3> = Vec::with_capacity(total);
    for r in requests {
        points.extend_from_slice(r);
    }
    let mut arena = match kind {
        // lint: allow(alloc, one value arena per batch)
        QueryKind::Potential => QueryOutput::Potentials(vec![0.0f64; total]),
        // lint: allow(alloc, one value arena per batch)
        QueryKind::Field => QueryOutput::Fields(vec![(0.0f64, Vec3::ZERO); total]),
    };
    let swept = sweep(&points, &mut arena);
    let mut outputs: Vec<QueryOutput> = Vec::with_capacity(requests.len());
    let mut offset = 0;
    for r in requests {
        let range = offset..offset + r.len();
        outputs.push(match &arena {
            // lint: allow(alloc, per-request result buffer handed to its caller)
            QueryOutput::Potentials(v) => QueryOutput::Potentials(v[range].to_vec()),
            // lint: allow(alloc, per-request result buffer handed to its caller)
            QueryOutput::Fields(v) => QueryOutput::Fields(v[range].to_vec()),
        });
        offset += r.len();
    }
    (outputs, swept)
}

/// Evaluates one batch against one plan's treecode: `requests`
/// are the per-request point slices; returns per-request outputs in the
/// same order plus the merged sweep counters. The sweep runs under
/// `cfg`, not the parameters the treecode was built with — plan identity
/// excludes execution knobs ([`crate::plan::PlanKey`]), so one cached
/// plan serves requests at any chunk width, bit-identically.
pub(crate) fn evaluate_batch_with(
    treecode: &Treecode,
    kind: QueryKind,
    requests: &[&[Vec3]],
    cfg: EvalConfig,
) -> (Vec<QueryOutput>, EvalStats) {
    packed_sweep(kind, requests, |points, arena| match arena {
        QueryOutput::Potentials(values) => {
            treecode.potentials_at_into_with(points, values, cfg.chunk)
        }
        QueryOutput::Fields(values) => treecode.fields_at_into_with(points, values, cfg.chunk),
    })
}

/// Evaluates one batch against whichever artifact the plan
/// holds: treecode plans run `evaluate_batch_with` under `cfg`, FMM
/// plans run `evaluate_fmm_batch` (the FMM's execution shape is baked
/// into its compiled arenas, so `cfg` only applies to the treecode
/// tier).
#[must_use]
pub fn evaluate_plan_batch(
    plan: &Plan,
    kind: QueryKind,
    requests: &[&[Vec3]],
    cfg: EvalConfig,
) -> (Vec<QueryOutput>, EvalStats) {
    match &plan.artifact {
        PlanArtifact::Treecode(tc) => evaluate_batch_with(tc, kind, requests, cfg),
        PlanArtifact::Fmm(fmm) => evaluate_fmm_batch(fmm, kind, requests),
    }
}

/// Evaluates one batch against a compiled FMM — a single L2P +
/// near field sweep over the packed arena, recorded as
/// [`Phase::FmmSweep`].
fn evaluate_fmm_batch(
    fmm: &CompiledFmm,
    kind: QueryKind,
    requests: &[&[Vec3]],
) -> (Vec<QueryOutput>, EvalStats) {
    let t0 = Instant::now();
    let out = packed_sweep(kind, requests, |points, arena| match arena {
        QueryOutput::Potentials(values) => fmm.potentials_at_into(points, values),
        QueryOutput::Fields(values) => fmm.fields_at_into(points, values),
    });
    mbt_obs::record_since(Phase::FmmSweep, t0);
    out
}

/// Evaluates one batch of requests by guarded direct summation over
/// `sources` under `charges`, in the caller's order — the backend for
/// tiny-n routed queries. Below [`crate::route::DIRECT_MAX_SOURCES`]
/// sources a guarded SIMD direct sum beats either tree build even on a
/// cold cache, and it is *exact* (its Theorem bound is zero). There is
/// no artifact worth caching: the SoA gather below is the whole "build".
///
/// The `r = 0` guard skips self-pairs when a target coincides with a
/// source, matching the treecode's own near-field convention;
/// `softening` is the Plummer term `ε` of the resolved parameters.
pub(crate) fn evaluate_direct(
    sources: &SourceSet,
    charges: &[f64],
    softening: f64,
    kind: QueryKind,
    requests: &[&[Vec3]],
) -> (Vec<QueryOutput>, EvalStats) {
    let t0 = Instant::now();
    let eps2 = softening * softening;
    // one SoA gather per sweep, shared by every request in the batch
    let ParticleSoa { x, y, z, q } = sources.soa(charges);
    let out = packed_sweep(kind, requests, |points, arena| {
        let mut stats = EvalStats::for_targets(points.len() as u64);
        match arena {
            QueryOutput::Potentials(values) => {
                for (value, &pt) in values.iter_mut().zip(points) {
                    let (phi, _, pairs) =
                        mbt_multipole::p2p_span::<f64, true, false>(&x, &y, &z, &q, pt, eps2);
                    stats.record_direct(pairs);
                    *value = phi;
                }
            }
            QueryOutput::Fields(values) => {
                for (value, &pt) in values.iter_mut().zip(points) {
                    let (phi, grad, pairs) =
                        mbt_multipole::p2p_span::<f64, true, true>(&x, &y, &z, &q, pt, eps2);
                    stats.record_direct(pairs);
                    *value = (phi, grad);
                }
            }
        }
        stats
    });
    mbt_obs::record_since(Phase::DirectSweep, t0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};
    use mbt_geometry::Particle;
    use mbt_treecode::TreecodeParams;

    /// [`evaluate_direct`] over `ps` under their own charges.
    fn direct(
        ps: &[Particle],
        softening: f64,
        kind: QueryKind,
        requests: &[&[Vec3]],
    ) -> (Vec<QueryOutput>, EvalStats) {
        let charges: Vec<f64> = ps.iter().map(|p| p.charge).collect();
        let sources = SourceSet::new(ps.to_vec());
        evaluate_direct(&sources, &charges, softening, kind, requests)
    }

    /// [`evaluate_batch_with`] under the treecode's own configuration.
    fn evaluate_batch(
        treecode: &Treecode,
        kind: QueryKind,
        requests: &[&[Vec3]],
    ) -> (Vec<QueryOutput>, EvalStats) {
        evaluate_batch_with(treecode, kind, requests, EvalConfig::of(treecode.params()))
    }

    #[test]
    fn batched_eval_matches_individual_calls_bitwise() {
        let ps = uniform_cube(700, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 3);
        let tc = Treecode::new(&ps, TreecodeParams::adaptive(3, 0.6)).unwrap();
        let a: Vec<Vec3> = ps.iter().take(40).map(|p| p.position * 1.3).collect();
        let b: Vec<Vec3> = ps
            .iter()
            .skip(40)
            .take(25)
            .map(|p| p.position * 0.5)
            .collect();
        let c: Vec<Vec3> = vec![Vec3::new(2.0, -1.0, 0.5)];

        let (out, stats) = evaluate_batch(&tc, QueryKind::Potential, &[&a, &b, &c]);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.targets as usize, a.len() + b.len() + c.len());
        for (points, got) in [(&a, &out[0]), (&b, &out[1]), (&c, &out[2])] {
            let lone = tc.potentials_at(points);
            assert_eq!(got.potentials().unwrap(), lone.values.as_slice());
            assert_eq!(got.len(), points.len());
        }

        let (fout, fstats) = evaluate_batch(&tc, QueryKind::Field, &[&a, &b]);
        assert_eq!(fstats.targets as usize, a.len() + b.len());
        for (points, got) in [(&a, &fout[0]), (&b, &fout[1])] {
            let lone = tc.fields_at(points);
            assert_eq!(got.fields().unwrap(), lone.values.as_slice());
        }
    }

    #[test]
    fn eval_config_changes_execution_not_values() {
        let ps = uniform_cube(400, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 11);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(4, 0.6)).unwrap();
        let pts: Vec<Vec3> = ps.iter().take(30).map(|p| p.position * 1.4).collect();
        let (base, base_stats) = evaluate_batch(&tc, QueryKind::Potential, &[&pts]);
        // sweeps are bit-invariant across chunk widths
        for chunk in [1usize, 7, 256] {
            let cfg = EvalConfig { chunk };
            let (out, stats) = evaluate_batch_with(&tc, QueryKind::Potential, &[&pts], cfg);
            assert_eq!(out, base, "chunk {chunk} changed values");
            assert_eq!(stats, base_stats, "chunk {chunk} changed stats");
        }
    }

    #[test]
    fn empty_requests_are_fine() {
        let ps = uniform_cube(100, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 5);
        let tc = Treecode::new(&ps, TreecodeParams::fixed(3, 0.6)).unwrap();
        let empty: Vec<Vec3> = Vec::new();
        let (out, stats) = evaluate_batch(&tc, QueryKind::Potential, &[&empty]);
        assert!(out[0].is_empty());
        assert_eq!(stats.targets, 0);
        let (none, _) = evaluate_batch(&tc, QueryKind::Field, &[]);
        assert!(none.is_empty());
    }

    #[test]
    fn fmm_batch_splits_requests_and_agrees_with_the_treecode() {
        use mbt_fmm::FmmParams;
        let ps = uniform_cube(3000, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 17);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8)).unwrap();
        let tc = Treecode::new(&ps, TreecodeParams::fixed(8, 0.5)).unwrap();
        let a: Vec<Vec3> = ps.iter().take(50).map(|p| p.position).collect();
        let b: Vec<Vec3> = ps.iter().skip(50).take(30).map(|p| p.position).collect();
        let (out, stats) = evaluate_fmm_batch(&fmm, QueryKind::Potential, &[&a, &b]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), 50);
        assert_eq!(out[1].len(), 30);
        assert_eq!(stats.targets, 80);
        let reference = tc.potentials_at(&a);
        for (got, want) in out[0].potentials().unwrap().iter().zip(&reference.values) {
            assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "fmm {got} vs treecode {want}"
            );
        }
        let (fields, fstats) = evaluate_fmm_batch(&fmm, QueryKind::Field, &[&a]);
        assert_eq!(fstats.targets, 50);
        for (phi, g) in fields[0].fields().unwrap() {
            assert!(phi.is_finite() && g.is_finite());
        }
    }

    #[test]
    fn direct_matches_naive_summation() {
        let ps = uniform_cube(90, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, 3);
        let pts: Vec<Vec3> = (0..7)
            .map(|i| Vec3::new(0.3 * f64::from(i) - 1.0, 0.2, -0.4))
            .collect();
        let (out, stats) = direct(&ps, 0.0, QueryKind::Potential, &[&pts]);
        let got = out[0].potentials().unwrap();
        for (x, phi) in pts.iter().zip(got) {
            let exact: f64 = ps.iter().map(|p| p.charge / p.position.distance(*x)).sum();
            assert!((phi - exact).abs() <= 1e-12 * exact.abs().max(1.0));
        }
        assert_eq!(stats.targets, 7);
        assert_eq!(stats.direct_pairs, 7 * 90);
        assert_eq!(stats.pc_interactions, 0);
    }

    #[test]
    fn self_pairs_are_guarded_and_fields_have_gradients() {
        let ps = uniform_cube(40, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 5);
        // targets AT the sources: the r = 0 guard must drop each self pair
        let pts: Vec<Vec3> = ps.iter().map(|p| p.position).collect();
        let (out, stats) = direct(&ps, 0.0, QueryKind::Field, &[&pts]);
        assert_eq!(stats.direct_pairs, 40 * 39);
        for (phi, g) in out[0].fields().unwrap() {
            assert!(phi.is_finite() && g.is_finite());
        }
    }

    #[test]
    fn softening_regularises_coincident_targets() {
        let ps = vec![Particle::new(Vec3::ZERO, 1.0)];
        let pt = [Vec3::new(1e-12, 0.0, 0.0)];
        let (out, _) = direct(&ps, 0.1, QueryKind::Potential, &[&pt]);
        let phi = out[0].potentials().unwrap()[0];
        assert!((phi - 1.0 / 0.1f64.hypot(1e-12)).abs() < 1e-9);
    }

    #[test]
    fn multiple_requests_split_in_order() {
        let ps = uniform_cube(30, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 9);
        let a = [Vec3::new(2.0, 0.0, 0.0)];
        let b = [Vec3::new(0.0, 2.0, 0.0), Vec3::new(0.0, 0.0, 2.0)];
        let (out, stats) = direct(&ps, 0.0, QueryKind::Potential, &[&a, &b]);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[1].len(), 2);
        assert_eq!(stats.targets, 3);
    }

    #[test]
    fn output_accessors() {
        let p = QueryOutput::Potentials(vec![1.0, 2.0]);
        assert!(p.fields().is_none());
        let f = QueryOutput::Fields(vec![(1.0, Vec3::ZERO)]);
        assert!(f.potentials().is_none());
        assert_eq!(f.len(), 1);
    }
}
