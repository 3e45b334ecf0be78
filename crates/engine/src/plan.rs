//! Query plans: the built treecode as a cacheable artifact.
//!
//! Theorem 3's per-cluster degree selection makes the built octree plus
//! its upward-pass coefficient arena an expensive artifact that is
//! reusable across every query with the same `(dataset, params)` — the
//! shape of a database query plan. [`PlanKey`] is the hashable identity
//! of one such artifact (`TreecodeParams` holds floats, so the key stores
//! their exact bit patterns), and [`Plan`] bundles the treecode with the
//! byte and timing accounting the cache and stats layers need.
//!
//! A key names the plan's **geometry** — dataset, parameters, backend,
//! shard. The dataset's charges are not part of it: a plan records the
//! charge *epoch* it was built at, and [`Plan::recharge`] carries it to
//! another epoch over the same geometry (sort, tree or grids, lists,
//! operators all reused) instead of building again.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mbt_fmm::{CompiledFmm, FmmError};
use mbt_geometry::Particle;
use mbt_treecode::{
    DegreeSelector, DegreeWeighting, RefWeight, TreeError, Treecode, TreecodeParams,
};

use crate::error::EngineError;
use crate::registry::{DatasetId, SourceSet};
use crate::route::{fmm_params_for, Backend};

/// Per-request accuracy, resolved against the engine's defaults into full
/// [`TreecodeParams`]. Requests at different accuracies map to different
/// plans over the same dataset — the p-adaptive serving scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accuracy {
    /// Original fixed-degree Barnes–Hut at degree `p`.
    Fixed(usize),
    /// The paper's adaptive per-cluster rule with degree floor `p_min`.
    Adaptive {
        /// Degree assigned to clusters at the reference weight.
        p_min: usize,
    },
    /// Per-interaction absolute error budget.
    Tolerance {
        /// The error budget each accepted interaction must meet.
        tol: f64,
    },
    /// Full parameter control — bypasses the engine defaults entirely.
    Params(TreecodeParams),
}

impl Accuracy {
    /// Resolves to full treecode parameters using the engine's default
    /// MAC parameter and tree-shape settings. [`Accuracy::Params`] passes
    /// through untouched.
    #[must_use]
    pub fn resolve(self, alpha: f64, leaf_capacity: usize, eval_chunk: usize) -> TreecodeParams {
        let base = match self {
            Accuracy::Fixed(p) => TreecodeParams::fixed(p, alpha),
            Accuracy::Adaptive { p_min } => TreecodeParams::adaptive(p_min, alpha),
            Accuracy::Tolerance { tol } => TreecodeParams::tolerance(tol, alpha),
            Accuracy::Params(p) => return p,
        };
        base.with_leaf_capacity(leaf_capacity)
            .with_eval_chunk(eval_chunk)
    }
}

/// Bit-exact hashable image of a [`DegreeSelector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DegreeKey {
    Fixed(usize),
    Adaptive {
        p_min: usize,
        p_max: usize,
        alpha: u64,
        weighting: u8,
    },
    Tolerance {
        tol: u64,
        p_min: usize,
        p_max: usize,
    },
}

impl DegreeKey {
    fn of(selector: DegreeSelector) -> DegreeKey {
        match selector {
            DegreeSelector::Fixed(p) => DegreeKey::Fixed(p),
            DegreeSelector::Adaptive {
                p_min,
                p_max,
                alpha,
                weighting,
            } => DegreeKey::Adaptive {
                p_min,
                p_max,
                alpha: alpha.to_bits(),
                weighting: match weighting {
                    DegreeWeighting::Charge => 0,
                    DegreeWeighting::ChargeOverDistance => 1,
                },
            },
            DegreeSelector::Tolerance { tol, p_min, p_max } => DegreeKey::Tolerance {
                tol: tol.to_bits(),
                p_min,
                p_max,
            },
        }
    }
}

/// Bit-exact hashable image of a [`RefWeight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RefWeightKey {
    MedianLeaf,
    Explicit(u64),
}

/// Identity of one cached plan: the dataset plus the exact bit patterns
/// of every parameter that influences **tree construction** — MAC
/// parameter, degree policy, leaf capacity, reference weight, softening.
/// Two requests share a plan **iff** their keys are equal.
///
/// Deliberately absent: `eval_chunk`. It is a pure execution knob —
/// values and counters are bit-invariant across chunk widths (DESIGN.md
/// §10) — so keying on it would duplicate an entire octree + coefficient
/// arena per width. It travels separately as [`EvalConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    dataset: DatasetId,
    alpha: u64,
    degree: DegreeKey,
    leaf_capacity: usize,
    ref_weight: RefWeightKey,
    softening: u64,
    /// `(shard index, shard count)` for a shard of a Hilbert-partitioned
    /// dataset; `(0, 1)` for an unsharded plan. A one-way partition
    /// preserves the particle order exactly, so [`PlanKey::sharded`]
    /// normalises `k == 1` onto the unsharded key and the two paths share
    /// one cached (bit-identical) plan.
    shard: (u32, u32),
    /// The backend whose artifact this key names. The same `(dataset,
    /// params)` pair builds *different* artifacts per backend (octree +
    /// coefficient arena vs FMM arenas), so the backend is part of plan
    /// identity and the two tiers occupy separate cache slots.
    backend: Backend,
}

impl PlanKey {
    /// The key identifying `(dataset, build-relevant params)` for the
    /// default treecode backend.
    #[must_use]
    pub fn new(dataset: DatasetId, params: &TreecodeParams) -> PlanKey {
        PlanKey {
            dataset,
            alpha: params.alpha.to_bits(),
            degree: DegreeKey::of(params.degree),
            leaf_capacity: params.leaf_capacity,
            ref_weight: match params.ref_weight {
                RefWeight::MedianLeaf => RefWeightKey::MedianLeaf,
                RefWeight::Explicit(w) => RefWeightKey::Explicit(w.to_bits()),
            },
            softening: params.softening.to_bits(),
            shard: (0, 1),
            backend: Backend::Treecode,
        }
    }

    /// The key of the routed `backend`'s artifact for `(dataset,
    /// params)`. [`Backend::Direct`] keys never reach the plan cache
    /// (direct sweeps have no artifact) — they exist only as stats
    /// fingerprints.
    #[must_use]
    pub fn routed(dataset: DatasetId, params: &TreecodeParams, backend: Backend) -> PlanKey {
        let mut key = PlanKey::new(dataset, params);
        key.backend = backend;
        key
    }

    /// The key of shard `shard` in a `count`-way Hilbert partition of
    /// `dataset`. `count == 1` is normalised to the unsharded key: a
    /// single-shard partition reproduces the input particle list verbatim
    /// (the split preserves relative order), so its plan **is** the
    /// unsharded plan and must share its cache residency.
    #[must_use]
    pub fn sharded(
        dataset: DatasetId,
        params: &TreecodeParams,
        shard: usize,
        count: usize,
    ) -> PlanKey {
        let mut key = PlanKey::new(dataset, params);
        if count > 1 {
            key.shard = (shard as u32, count as u32);
        }
        key
    }

    /// The dataset this plan serves.
    #[must_use]
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// `(shard index, shard count)`; `(0, 1)` for unsharded plans.
    #[must_use]
    pub fn shard(&self) -> (usize, usize) {
        (self.shard.0 as usize, self.shard.1 as usize)
    }

    /// The backend whose artifact this key names.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

/// The per-request execution configuration a plan is evaluated under:
/// everything in `TreecodeParams` that does **not** participate in
/// [`PlanKey`] identity. Requests differing only here share one cached
/// plan; `Engine::query_batch` still groups by `EvalConfig` so each
/// group's sweep runs under a single configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalConfig {
    /// Aggregation width `w` of the sweep.
    pub chunk: usize,
}

impl EvalConfig {
    /// The execution configuration carried by `params`.
    #[must_use]
    pub fn of(params: &TreecodeParams) -> EvalConfig {
        EvalConfig {
            chunk: params.eval_chunk.max(1),
        }
    }
}

/// The built evaluation machinery a [`Plan`] caches — one variant per
/// backend that has an artifact worth caching ([`Backend::Direct`] has
/// none and bypasses the cache).
// one artifact per plan, always behind the cache's `Arc<Plan>`: boxing the
// treecode would buy nothing and put an indirection under every sweep
#[allow(clippy::large_enum_variant)]
pub enum PlanArtifact {
    /// Octree + upward-pass coefficient arena (the treecode backend).
    Treecode(Treecode),
    /// Flat per-level FMM arenas with precomputed interaction lists and
    /// an already-executed downward pass.
    Fmm(CompiledFmm),
}

impl PlanArtifact {
    /// Resident heap bytes of the artifact.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            PlanArtifact::Treecode(t) => t.heap_bytes(),
            PlanArtifact::Fmm(f) => f.heap_bytes(),
        }
    }
}

/// A built backend artifact plus the accounting the cache and stats
/// layers need.
pub struct Plan {
    /// The key this plan was built under.
    pub key: PlanKey,
    /// The built evaluation machinery, ready to evaluate.
    pub artifact: PlanArtifact,
    /// Resident heap bytes — what the cache charges against its budget.
    pub bytes: usize,
    /// Wall time of the build (tree + degree selection + upward pass, or
    /// the FMM's grid construction + upward + M2L/L2L downward pass) —
    /// what evicting this plan would cost to undo. A recharged plan keeps
    /// the time of the full build it descends from.
    pub build_time: Duration,
    /// The dataset charge epoch this plan's coefficients were formed at.
    pub epoch: u64,
    /// The target count an FMM depth is priced for ([`Plan::build_for`]);
    /// every recharge keeps it, so the depth stays the plan's own.
    targets: usize,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("key", &self.key)
            .field("bytes", &self.bytes)
            .field("build_time", &self.build_time)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Plan {
    /// Builds the plan for the key's backend over a particle list: a
    /// source set of its own, sorted for this plan alone, with the depth
    /// of an FMM artifact counted for evaluations at every source.
    pub fn build(
        key: PlanKey,
        particles: &[Particle],
        params: TreecodeParams,
    ) -> Result<Plan, EngineError> {
        let charges: Vec<f64> = particles.iter().map(|p| p.charge).collect();
        let sources = SourceSet::new(particles.to_vec());
        Plan::build_for(key, &sources, &charges, params, particles.len())
    }

    /// Builds the plan for the key's backend over `sources` under
    /// `charges` (in the set's order): validates the parameters,
    /// constructs the artifact over the set's shared Morton order (sorted
    /// by the set's first plan) and sizes it.
    ///
    /// An FMM-keyed build whose resolved degree is past the compiled
    /// backend's operator-table cap falls back to a treecode artifact
    /// under the same key — the router's choice is a performance hint,
    /// and the treecode meets the same resolved accuracy (its α is
    /// *tighter* than the FMM's effective α = 1/2 whenever the FMM was
    /// admissible).
    ///
    /// An FMM artifact's depth is counted for evaluations at `n_targets`
    /// targets — the size of the request or batch whose cache miss builds
    /// the plan. The key does not carry it: a later request of another
    /// size reuses the plan at this depth, which stays correct and may be
    /// slower than its own count would pick.
    pub fn build_for(
        key: PlanKey,
        sources: &SourceSet,
        charges: &[f64],
        params: TreecodeParams,
        n_targets: usize,
    ) -> Result<Plan, EngineError> {
        params.validate().map_err(EngineError::InvalidParams)?;
        // Contract: an FMM-keyed plan must be Theorem-admissible — its
        // M2L geometry is a Theorem-2 interaction at α_eff = 1/2, so the
        // requested α must be at least that for the resolved bound to
        // dominate what the request accepted.
        #[cfg(feature = "validate")]
        {
            assert!(
                key.backend() != Backend::Fmm || crate::route::fmm_admissible(params.alpha),
                "validate: FMM plan keyed at α = {} < 1/2 — its Theorem-2 bound \
                 exceeds what the request accepted",
                params.alpha
            );
        }
        // the order outlives the plan, so its sort is not the plan's cost
        let (order, keys) = sources.order()?;
        let t0 = Instant::now();
        let q = order.sorted_charges(charges)?;
        let artifact = match key.backend() {
            Backend::Fmm => {
                let fmm_params = fmm_params_for(&params).for_targets(n_targets);
                let fmm = CompiledFmm::over(Arc::clone(order), keys, q, fmm_params);
                fmm_or_fallback(fmm, sources, charges, params)?
            }
            Backend::Treecode | Backend::Direct => PlanArtifact::Treecode(
                Treecode::over(Arc::clone(order), keys, q, params).map_err(EngineError::Build)?,
            ),
        };
        let build_time = t0.elapsed();
        let bytes = artifact.heap_bytes();
        Ok(Plan {
            key,
            artifact,
            bytes,
            build_time,
            epoch: 0,
            targets: n_targets,
        })
    }

    /// This plan at the given charge epoch.
    #[must_use]
    pub fn at_epoch(mut self, epoch: u64) -> Plan {
        self.epoch = epoch;
        self
    }

    /// This plan's geometry under `charges` — new charges over the same
    /// `sources` it was built from, in the set's order — at charge epoch
    /// `epoch`. The result is bit-identical to [`Plan::build_for`] under
    /// `charges`: degrees and bounds are re-resolved from the new
    /// charges, while everything the charges cannot move is reused — an
    /// FMM artifact shares its geometry half and re-runs the charge pass
    /// ([`CompiledFmm::with_charges`]), a treecode artifact keeps its
    /// sorted octree topology, expansion centres and radii
    /// (`Octree::with_charges`) and re-runs only `A` and the net charge,
    /// degree selection and the upward pass.
    ///
    /// A charge vector of the wrong length is refused with
    /// [`EngineError::ChargeCountMismatch`].
    ///
    /// An FMM-keyed plan holding a fallback treecode is built afresh, for
    /// the target count it was first built for: whether the FMM is
    /// representable can depend on the charges.
    pub fn recharge(
        &self,
        sources: &SourceSet,
        charges: &[f64],
        params: TreecodeParams,
        epoch: u64,
    ) -> Result<Plan, EngineError> {
        let artifact = match (&self.artifact, self.key.backend()) {
            (PlanArtifact::Fmm(fmm), _) => {
                let recharged = match fmm.with_charges(charges) {
                    Err(FmmError::ChargeCountMismatch { expected, got }) => {
                        return Err(EngineError::ChargeCountMismatch { expected, got });
                    }
                    other => other,
                };
                fmm_or_fallback(recharged, sources, charges, params)?
            }
            (PlanArtifact::Treecode(_), Backend::Fmm) => {
                return Plan::build_for(self.key, sources, charges, params, self.targets)
                    .map(|p| p.at_epoch(epoch));
            }
            (PlanArtifact::Treecode(tc), _) => {
                let tree = tc.tree().with_charges(charges).map_err(|e| match e {
                    TreeError::ChargeCountMismatch { expected, got } => {
                        EngineError::ChargeCountMismatch { expected, got }
                    }
                    other => EngineError::Build(other.into()),
                })?;
                PlanArtifact::Treecode(Treecode::from_tree(tree, params))
            }
        };
        let bytes = artifact.heap_bytes();
        Ok(Plan {
            key: self.key,
            artifact,
            bytes,
            build_time: self.build_time,
            epoch,
            targets: self.targets,
        })
    }

    /// The treecode artifact. The treecode-only paths (sharded fan-out,
    /// skeleton resolution) are pinned to [`Backend::Treecode`] by the
    /// router, so an FMM plan here is an engine bug: it is reported as
    /// [`EngineError::Internal`], not a panic.
    pub fn treecode(&self) -> Result<&Treecode, EngineError> {
        match &self.artifact {
            PlanArtifact::Treecode(t) => Ok(t),
            PlanArtifact::Fmm(_) => Err(EngineError::Internal(
                "treecode() on an FMM plan: this path is pinned to Backend::Treecode",
            )),
        }
    }
}

/// The artifact of an FMM-keyed plan: the compiled FMM, or a treecode
/// over the same order under the same key when a resolved degree is past
/// the operator-table cap.
fn fmm_or_fallback(
    fmm: Result<CompiledFmm, FmmError>,
    sources: &SourceSet,
    charges: &[f64],
    params: TreecodeParams,
) -> Result<PlanArtifact, EngineError> {
    match fmm {
        Ok(fmm) => Ok(PlanArtifact::Fmm(fmm)),
        Err(FmmError::OperatorTableTooLarge { .. }) => {
            let (order, keys) = sources.order()?;
            let q = order.sorted_charges(charges)?;
            Treecode::over(Arc::clone(order), keys, q, params)
                .map(PlanArtifact::Treecode)
                .map_err(EngineError::Build)
        }
        Err(e) => Err(EngineError::FmmBuild(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::Vec3;

    fn ps(n: usize) -> Vec<Particle> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Particle::new(
                    Vec3::new(t.sin(), (0.7 * t).cos(), (0.3 * t).sin()),
                    1.0 - 2.0 * ((i % 2) as f64),
                )
            })
            .collect()
    }

    fn charges_of(ps: &[Particle]) -> Vec<f64> {
        ps.iter().map(|p| p.charge).collect()
    }

    #[test]
    fn accuracy_resolution_uses_defaults() {
        let p = Accuracy::Adaptive { p_min: 3 }.resolve(0.7, 16, 128);
        assert!((p.alpha - 0.7).abs() < 1e-15);
        assert_eq!(p.leaf_capacity, 16);
        assert_eq!(p.eval_chunk, 128);
        let explicit = TreecodeParams::fixed(5, 0.4);
        assert_eq!(Accuracy::Params(explicit).resolve(0.7, 16, 128), explicit);
    }

    #[test]
    fn keys_distinguish_params_and_datasets() {
        let a = TreecodeParams::fixed(4, 0.6);
        let b = TreecodeParams::fixed(5, 0.6);
        let c = TreecodeParams::adaptive(4, 0.6);
        let d = TreecodeParams::tolerance(1e-6, 0.6);
        let id0 = DatasetId(0);
        let id1 = DatasetId(1);
        let k = |id, p: &TreecodeParams| PlanKey::new(id, p);
        assert_eq!(k(id0, &a), k(id0, &a));
        assert_ne!(k(id0, &a), k(id1, &a));
        assert_ne!(k(id0, &a), k(id0, &b));
        assert_ne!(k(id0, &a), k(id0, &c));
        assert_ne!(k(id0, &c), k(id0, &d));
        let softened = a.with_softening(1e-3);
        assert_ne!(k(id0, &a), k(id0, &softened));
        assert_eq!(k(id0, &a).dataset(), id0);
    }

    #[test]
    fn sharded_keys_distinguish_shards_but_k1_is_the_unsharded_key() {
        let p = TreecodeParams::fixed(4, 0.6);
        let id = DatasetId(3);
        // k = 1 normalises onto the unsharded key (order-preserving split
        // makes the single shard bit-identical to the whole dataset)
        assert_eq!(PlanKey::sharded(id, &p, 0, 1), PlanKey::new(id, &p));
        // shards of one partition are distinct keys, and distinct from
        // the unsharded key and from other partition widths
        let s0 = PlanKey::sharded(id, &p, 0, 4);
        let s1 = PlanKey::sharded(id, &p, 1, 4);
        assert_ne!(s0, s1);
        assert_ne!(s0, PlanKey::new(id, &p));
        assert_ne!(s0, PlanKey::sharded(id, &p, 0, 2));
        assert_eq!(s1.shard(), (1, 4));
        assert_eq!(PlanKey::new(id, &p).shard(), (0, 1));
    }

    #[test]
    fn keys_ignore_eval_config() {
        // eval_chunk is an execution knob, not plan identity: requests
        // differing only there share one cached plan
        let a = TreecodeParams::fixed(4, 0.6);
        let id0 = DatasetId(0);
        let rechunked = a.with_eval_chunk(7);
        assert_eq!(PlanKey::new(id0, &a), PlanKey::new(id0, &rechunked));
        // …while EvalConfig captures exactly that difference
        assert_ne!(EvalConfig::of(&a), EvalConfig::of(&rechunked));
        assert_eq!(
            EvalConfig::of(&a),
            EvalConfig {
                chunk: a.eval_chunk,
            }
        );
        // the unclamped zero chunk normalises like the sweep itself does
        let mut zero_chunk = a;
        zero_chunk.eval_chunk = 0;
        assert_eq!(EvalConfig::of(&zero_chunk).chunk, 1);
    }

    #[test]
    fn plan_build_sizes_and_times() {
        let particles = ps(500);
        let params = TreecodeParams::fixed(4, 0.6);
        let key = PlanKey::new(DatasetId(0), &params);
        let plan = Plan::build(key, &particles, params).unwrap();
        assert_eq!(plan.bytes, plan.treecode().unwrap().heap_bytes());
        assert!(plan.bytes > 500 * std::mem::size_of::<Particle>());
        assert_eq!(plan.key, key);
        assert_eq!(plan.key.backend(), Backend::Treecode);
    }

    #[test]
    fn routed_keys_separate_backends() {
        let p = TreecodeParams::fixed(4, 0.6);
        let id = DatasetId(2);
        let tree = PlanKey::new(id, &p);
        assert_eq!(PlanKey::routed(id, &p, Backend::Treecode), tree);
        let fmm = PlanKey::routed(id, &p, Backend::Fmm);
        assert_ne!(fmm, tree);
        assert_eq!(fmm.backend(), Backend::Fmm);
        assert_eq!(fmm.dataset(), id);
        assert_ne!(fmm, PlanKey::routed(id, &p, Backend::Direct));
    }

    #[test]
    fn fmm_keyed_build_produces_an_fmm_artifact() {
        let particles = ps(600);
        let params = TreecodeParams::fixed(4, 0.6);
        let key = PlanKey::routed(DatasetId(0), &params, Backend::Fmm);
        let plan = Plan::build(key, &particles, params).unwrap();
        assert!(matches!(plan.artifact, PlanArtifact::Fmm(_)));
        assert_eq!(plan.bytes, plan.artifact.heap_bytes());
        assert!(plan.bytes > 0);
    }

    #[test]
    fn treecode_on_an_fmm_plan_is_a_typed_error() {
        let particles = ps(600);
        let params = TreecodeParams::fixed(4, 0.6);
        let key = PlanKey::routed(DatasetId(0), &params, Backend::Fmm);
        let plan = Plan::build(key, &particles, params).unwrap();
        assert!(matches!(
            plan.treecode(),
            Err(EngineError::Internal(why)) if why.contains("FMM plan")
        ));
        let key = PlanKey::routed(DatasetId(0), &params, Backend::Treecode);
        assert!(Plan::build(key, &particles, params)
            .unwrap()
            .treecode()
            .is_ok());
    }

    // The router never keys an FMM plan below α = 1/2, so only a direct
    // build reaches this contract.
    #[cfg(feature = "validate")]
    #[test]
    #[should_panic(expected = "exceeds what the request accepted")]
    fn fmm_keyed_build_below_the_effective_alpha_breaks_the_contract() {
        let particles = ps(600);
        let params = TreecodeParams::fixed(4, 0.4);
        let key = PlanKey::routed(DatasetId(0), &params, Backend::Fmm);
        let _ = Plan::build(key, &particles, params);
    }

    #[test]
    fn recharge_is_bit_identical_to_a_fresh_build_and_keeps_the_rebuild_cost() {
        let before = ps(900);
        let after: Vec<Particle> = before
            .iter()
            .enumerate()
            .map(|(i, p)| Particle::new(p.position, 0.25 + (i as f64 * 0.3).sin()))
            .collect();
        let params = TreecodeParams::adaptive(3, 0.6);
        let pts: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(0.1 * f64::from(i) - 1.0, 0.3, -0.2))
            .collect();
        let sources = SourceSet::new(before.clone());
        let charges = charges_of(&after);
        for backend in [Backend::Treecode, Backend::Fmm] {
            let key = PlanKey::routed(DatasetId(0), &params, backend);
            let old = Plan::build(key, &before, params).unwrap();
            assert_eq!(old.epoch, 0);
            let recharged = old.recharge(&sources, &charges, params, 7).unwrap();
            let fresh = Plan::build(key, &after, params).unwrap();
            assert_eq!(recharged.epoch, 7);
            assert_eq!(recharged.key, key);
            assert_eq!(recharged.bytes, fresh.bytes);
            assert_eq!(recharged.build_time, old.build_time);
            let eval = |plan: &Plan| {
                crate::batch::evaluate_plan_batch(
                    plan,
                    crate::batch::QueryKind::Field,
                    &[&pts],
                    EvalConfig::of(&params),
                )
            };
            assert_eq!(eval(&recharged), eval(&fresh), "{backend:?}");
        }
    }

    #[test]
    fn fixed_degree_treecode_recharge_is_the_frozen_degree_treecode() {
        // under Fixed(p) nothing the charges feed (A, the net charge)
        // reaches the degrees or the geometry, so re-resolving degrees
        // from the new charges and freezing them give one operator
        let before = ps(900);
        let charges: Vec<f64> = (0..before.len())
            .map(|i| 0.25 + (i as f64 * 0.3).sin())
            .collect();
        let params = TreecodeParams::fixed(5, 0.6);
        let pts: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new(0.1 * f64::from(i) - 1.0, 0.3, -0.2))
            .collect();
        let plan = Plan::build(PlanKey::new(DatasetId(0), &params), &before, params).unwrap();
        let sources = SourceSet::new(before);
        let recharged = plan.recharge(&sources, &charges, params, 1).unwrap();
        let frozen = plan.treecode().unwrap().with_charges(&charges).unwrap();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(recharged.treecode().unwrap().potentials_at(&pts).values),
            bits(frozen.potentials_at(&pts).values)
        );
    }

    #[test]
    fn treecode_recharge_refuses_a_wrong_length_charge_vector() {
        let params = TreecodeParams::fixed(4, 0.6);
        let particles = ps(300);
        let plan = Plan::build(PlanKey::new(DatasetId(0), &params), &particles, params).unwrap();
        let sources = SourceSet::new(particles.clone());
        assert_eq!(
            plan.recharge(&sources, &charges_of(&particles[..299]), params, 1)
                .err(),
            Some(EngineError::ChargeCountMismatch {
                expected: 300,
                got: 299,
            })
        );
    }

    #[test]
    fn fmm_recharge_refuses_a_wrong_length_charge_vector() {
        let params = TreecodeParams::fixed(4, 0.6);
        let particles = ps(900);
        let key = PlanKey::routed(DatasetId(0), &params, Backend::Fmm);
        let plan = Plan::build(key, &particles, params).unwrap();
        assert!(matches!(plan.artifact, PlanArtifact::Fmm(_)));
        let sources = SourceSet::new(particles.clone());
        assert_eq!(
            plan.recharge(&sources, &charges_of(&particles[..899]), params, 1)
                .err(),
            Some(EngineError::ChargeCountMismatch {
                expected: 900,
                got: 899,
            })
        );
    }

    #[test]
    fn plan_build_propagates_errors() {
        let particles = ps(10);
        let bad = TreecodeParams::fixed(4, -1.0);
        let key = PlanKey::new(DatasetId(0), &bad);
        assert!(matches!(
            Plan::build(key, &particles, bad),
            Err(EngineError::InvalidParams(_))
        ));
    }
}
