//! The engine facade and its one request pipeline, behind one
//! thread-safe object.
//!
//! Every request passes the same four stages, each written once in this
//! file and run by one entry point, [`Engine::query_batch`]:
//!
//! 1. **admit** ([`Engine::admit`]): tenant budget checks, then one
//!    weighted-fair gate slot, tenant/stats accounting, an RAII permit;
//! 2. **resolve** ([`Engine::resolve`]): registry → the dataset snapshot
//!    at its current charge epoch → resolved parameters → validation →
//!    routing → group key, once per request and carried;
//! 3. **prepare** ([`Engine::prepare`]): what the group evaluates against
//!    — a [`Target`]: the snapshot's particles, one cached plan at the
//!    snapshot's epoch (recharged over its cached geometry when the
//!    resident one is at another), or shard plans + skeleton — with built
//!    plans billed to the group's opener;
//! 4. **sweep** ([`sweep`]): shed expired riders, evaluate the rest as
//!    one packed sweep, record it, scatter per-rider answers;
//!
//! and [`Engine::respond`] turns an answer into a [`QueryResponse`].
//! [`Engine::query`] is a one-request `query_batch`. A call takes one
//! admission slot and sweeps each of its groups on the caller's thread;
//! requests from different calls never share a sweep.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mbt_geometry::{Particle, Vec3};
use mbt_shard::Skeleton;
use mbt_treecode::{EvalStats, Treecode, TreecodeParams};
use rayon::prelude::*;

use mbt_obs::{SlowQuery, Span};

use crate::batch::{evaluate_direct, evaluate_plan_batch, QueryKind, QueryOutput};
use crate::cache::{CacheOutcome, PlanCache};
use crate::error::EngineError;
use crate::fanout::evaluate_sharded;
use crate::plan::{Accuracy, EvalConfig, Plan, PlanArtifact, PlanKey};
use crate::registry::{Dataset, DatasetId, DatasetRegistry};
use crate::route::{route, Backend};
use crate::stats::{EngineStats, Metric, StatsCollector};
use crate::tenant::{TenantConfig, TenantId, TenantTable};
use crate::wfq::{Admission, FairGate};

/// Engine-wide settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Default MAC parameter α applied when resolving [`Accuracy`]
    /// shorthands (requests using [`Accuracy::Params`] bypass it).
    pub alpha: f64,
    /// Default leaf capacity for resolved plans.
    pub leaf_capacity: usize,
    /// Default aggregation width `w` for resolved plans.
    pub eval_chunk: usize,
    /// Plan-cache byte budget (built trees + coefficient arenas).
    pub cache_budget_bytes: usize,
    /// Maximum requests in planning/evaluation at once.
    pub max_in_flight: usize,
    /// Maximum requests waiting for an evaluation slot; a full queue
    /// sheds new arrivals immediately.
    pub max_queued: usize,
    /// Requests slower than this (admission → response) land in the
    /// bounded slow-query log ([`Engine::slow_queries`]).
    pub slow_query_threshold: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            alpha: 0.6,
            leaf_capacity: 32,
            eval_chunk: 64,
            cache_budget_bytes: 256 << 20,
            max_in_flight: 32,
            max_queued: 1024,
            slow_query_threshold: Duration::from_millis(250),
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), EngineError> {
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(EngineError::InvalidConfig("alpha must be finite and > 0"));
        }
        if self.leaf_capacity == 0 {
            return Err(EngineError::InvalidConfig("leaf_capacity must be >= 1"));
        }
        if self.max_in_flight == 0 {
            return Err(EngineError::InvalidConfig("max_in_flight must be >= 1"));
        }
        if self.cache_budget_bytes == 0 {
            return Err(EngineError::InvalidConfig(
                "cache_budget_bytes must be >= 1 (an engine without plan storage cannot serve)",
            ));
        }
        Ok(())
    }
}

/// One query: where, what, how accurately, and by when.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The registered dataset to evaluate against.
    pub dataset: DatasetId,
    /// Per-request accuracy, resolved against the engine defaults.
    pub accuracy: Accuracy,
    /// Potential or potential + gradient.
    pub kind: QueryKind,
    /// Observation points.
    pub points: Vec<Vec3>,
    /// Optional deadline: the request is shed (never evaluated) once this
    /// instant passes while it is still queued.
    pub deadline: Option<Instant>,
    /// The tenant this request is billed to and scheduled as. Defaults to
    /// [`TenantId::DEFAULT`]; unregistered tenants serve at weight 1 with
    /// no budgets, so single-tenant callers never notice the field.
    pub tenant: TenantId,
}

impl QueryRequest {
    /// A potential query.
    #[must_use]
    pub fn potentials(dataset: DatasetId, accuracy: Accuracy, points: Vec<Vec3>) -> QueryRequest {
        QueryRequest {
            dataset,
            accuracy,
            kind: QueryKind::Potential,
            points,
            deadline: None,
            tenant: TenantId::DEFAULT,
        }
    }

    /// A potential + gradient query.
    #[must_use]
    pub fn fields(dataset: DatasetId, accuracy: Accuracy, points: Vec<Vec3>) -> QueryRequest {
        QueryRequest {
            dataset,
            accuracy,
            kind: QueryKind::Field,
            points,
            deadline: None,
            tenant: TenantId::DEFAULT,
        }
    }

    /// Attaches a deadline `budget` from now.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> QueryRequest {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Bills and schedules this request as `tenant`.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> QueryRequest {
        self.tenant = tenant;
        self
    }
}

/// A served query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Per-point values, in the request's point order.
    pub output: QueryOutput,
    /// Counters of the evaluation sweep this request rode in. A
    /// [`Engine::query_batch`] group shares one sweep, so these cover the
    /// whole group, not only this request's points.
    pub eval: EvalStats,
    /// How the plan was obtained (cache hit / built / coalesced build;
    /// [`CacheOutcome::Bypassed`] for direct-routed queries, which have
    /// no plan).
    pub cache: CacheOutcome,
    /// Resident size of the plan that served this query (zero for
    /// direct-routed queries).
    pub plan_bytes: usize,
    /// The backend whose artifact computed this answer. An FMM-routed
    /// request whose plan fell back to a treecode artifact (dense-grid
    /// depth cap or operator-table degree cap) reports
    /// [`Backend::Treecode`]; the `routed_*` counters keep counting the
    /// routing decision.
    pub backend: Backend,
    /// The dataset charge epoch this answer was computed from — every
    /// value in `output` comes from that one charge vector. A query that
    /// starts after [`Engine::update_charges`] returns sees the new
    /// epoch; one that races it sees one epoch or the other, and says
    /// which here.
    pub epoch: u64,
}

/// Result of [`Engine::warm`]: the aggregate cache outcome plus one
/// entry per shard plan (a single entry for unsharded datasets, whose one
/// plan is shard 0 of a one-way partition of themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmReport {
    /// The aggregate outcome across every shard: `Built` dominates
    /// `Coalesced` dominates `Hit`, so a report is `Hit` only when every
    /// shard plan was already resident.
    pub outcome: CacheOutcome,
    /// Per-shard build outcomes, in shard order.
    pub shards: Vec<ShardWarm>,
}

/// One shard's slice of a [`WarmReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWarm {
    /// The shard index (0 for unsharded datasets).
    pub shard: usize,
    /// How this shard's plan was obtained.
    pub outcome: CacheOutcome,
    /// Resident bytes of the shard's plan.
    pub bytes: usize,
    /// Wall time of the shard plan's build (the original build when the
    /// plan was already resident — plans carry their construction cost).
    pub build_time: Duration,
}

/// `Built` dominates `Coalesced` dominates `Hit`: the aggregate is the
/// most expensive thing any shard did.
fn aggregate_outcome<I: IntoIterator<Item = CacheOutcome>>(outcomes: I) -> CacheOutcome {
    let mut agg = CacheOutcome::Hit;
    for o in outcomes {
        agg = match (agg, o) {
            (CacheOutcome::Built, _) | (_, CacheOutcome::Built) => CacheOutcome::Built,
            (CacheOutcome::Coalesced, _) | (_, CacheOutcome::Coalesced) => CacheOutcome::Coalesced,
            _ => CacheOutcome::Hit,
        };
    }
    agg
}

/// An admitted call's slot. Dropping it hands the slot to the scheduled
/// queue head — on unwind too, which is why the release is RAII.
#[derive(Debug)]
struct Permit<'a>(&'a FairGate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// What [`Engine::resolve`] learned about one request. Carried through
/// the later stages, never re-fetched or re-resolved.
struct Resolved {
    ds: Arc<Dataset>,
    params: TreecodeParams,
    backend: Backend,
    /// What this request may share a sweep with.
    group: GroupKey,
}

/// What requests of one [`Engine::query_batch`] call must share to ride
/// one sweep: a plan × what is being computed × how the sweep executes ×
/// the dataset's charge epoch. Plan identity excludes execution knobs, so
/// requests at different chunk widths share a cached plan — but
/// each sweep must run under a single configuration, hence the `cfg`
/// component here. Plan identity excludes the charges too, so `epoch`
/// keeps requests that resolved different charge vectors out of each
/// other's sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GroupKey {
    plan: PlanKey,
    kind: QueryKind,
    cfg: EvalConfig,
    epoch: u64,
}

/// What one group evaluates against — the only place that knows the
/// backends apart.
enum Target {
    /// Direct summation over the dataset's particles: no plan, no cache.
    Direct(Arc<Dataset>, f64),
    /// One cached treecode or FMM plan, and how it was obtained.
    Plan(Arc<Plan>, CacheOutcome),
    /// Per-shard plans in shard order behind their global skeleton, and
    /// the aggregate of how the plans were obtained.
    Sharded(Vec<Arc<Plan>>, Arc<Skeleton>, CacheOutcome),
}

impl Target {
    /// Evaluates `slices` as one sweep of `group`'s kind and records it:
    /// one batch under the group's plan key, or — sharded — one fan-out
    /// plus one batch per opened shard under that shard's key, so the
    /// per-plan breakdown separates shards.
    fn evaluate(
        &self,
        group: &GroupKey,
        slices: &[&[Vec3]],
        stats: &StatsCollector,
    ) -> Result<(Vec<QueryOutput>, EvalStats), EngineError> {
        let t0 = Instant::now();
        let (outputs, eval) = match self {
            Target::Direct(ds, softening) => {
                let (sources, charges) = ds.shard(0);
                evaluate_direct(sources, charges, *softening, group.kind, slices)
            }
            Target::Plan(plan, _) => evaluate_plan_batch(plan, group.kind, slices, group.cfg),
            Target::Sharded(plans, skeleton, _) => {
                let (outputs, eval, fan) =
                    evaluate_sharded(plans, skeleton, group.kind, slices, group.cfg)?;
                stats.record_fanout(&fan, t0.elapsed());
                for shard in &fan.per_shard {
                    stats.record_batch(plans[shard.shard].key, 1, shard.points, shard.elapsed);
                }
                return Ok((outputs, eval));
            }
        };
        let points = slices.iter().map(|s| s.len()).sum();
        stats.record_batch(group.plan, slices.len(), points, t0.elapsed());
        Ok((outputs, eval))
    }

    /// How the target's plans were obtained ([`CacheOutcome::Bypassed`]
    /// for direct summation, which has none).
    fn cache_outcome(&self) -> CacheOutcome {
        match self {
            Target::Direct(..) => CacheOutcome::Bypassed,
            Target::Plan(_, outcome) | Target::Sharded(_, _, outcome) => *outcome,
        }
    }

    /// The backend whose artifact answers for this target.
    fn backend(&self) -> Backend {
        match self {
            Target::Direct(..) => Backend::Direct,
            Target::Plan(plan, _) => match plan.artifact {
                PlanArtifact::Treecode(_) => Backend::Treecode,
                PlanArtifact::Fmm(_) => Backend::Fmm,
            },
            Target::Sharded(..) => Backend::Treecode,
        }
    }

    /// Resident bytes of the plans serving this target.
    fn plan_bytes(&self) -> usize {
        match self {
            Target::Direct(..) => 0,
            Target::Plan(plan, _) => plan.bytes,
            Target::Sharded(plans, ..) => plans.iter().map(|p| p.bytes).sum(),
        }
    }
}

/// One request's share of a sweep: its borrowed points and its deadline.
#[derive(Debug)]
struct Rider<'a> {
    points: &'a [Vec3],
    deadline: Option<Instant>,
}

/// One rider's answer from the sweep it rode in.
#[derive(Debug)]
struct Swept {
    output: QueryOutput,
    /// Counters of the whole sweep, not only this rider's points.
    eval: EvalStats,
    /// This rider's even share of the sweep's wall time — an even split
    /// (rather than a per-point one) keeps the charge independent of who
    /// else shares the group.
    share: Duration,
}

/// Stage 4 — sweep: riders whose deadline has passed are shed without
/// costing evaluation work, the rest are evaluated against `target` as
/// one packed sweep. Answers are index-aligned with `riders`. Runs on the
/// thread of the `query_batch` caller whose group it is.
fn sweep(
    target: &Target,
    group: &GroupKey,
    riders: &[Rider<'_>],
    stats: &StatsCollector,
) -> Vec<Result<Swept, EngineError>> {
    let now = Instant::now();
    let mut answers = Vec::with_capacity(riders.len());
    let mut live = Vec::with_capacity(riders.len());
    for (i, rider) in riders.iter().enumerate() {
        if rider.deadline.is_some_and(|d| now >= d) {
            stats.bump(Metric::shed_deadline);
            answers.push(Err(EngineError::DeadlineExceeded));
        } else {
            live.push(i);
            // overwritten below; a missing output is an evaluator bug and
            // must not masquerade as client-caused shedding
            answers.push(Err(EngineError::Internal("sweep returned no output")));
        }
    }
    if live.is_empty() {
        return answers;
    }
    let slices: Vec<&[Vec3]> = live.iter().map(|&i| riders[i].points).collect();
    let t0 = Instant::now();
    let (outputs, eval) = match target.evaluate(group, &slices, stats) {
        Ok(swept) => swept,
        Err(e) => {
            for &i in &live {
                answers[i] = Err(e.clone());
            }
            return answers;
        }
    };
    let share = t0.elapsed() / u32::try_from(live.len()).unwrap_or(u32::MAX);
    debug_assert_eq!(outputs.len(), live.len());
    for (&i, output) in live.iter().zip(outputs) {
        answers[i] = Ok(Swept {
            output,
            eval: eval.clone(),
            share,
        });
    }
    answers
}

/// A plan and how the cache came by it.
type Obtained = (Arc<Plan>, CacheOutcome);

/// One request's place in a driver's result vector, `None` until a stage
/// answers it.
type Slot = Option<Result<QueryResponse, EngineError>>;

/// The multi-tenant treecode query engine.
///
/// `Engine` is `Sync`: share one instance (e.g. behind an `Arc`) across
/// every serving thread. See the crate docs for the full architecture.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    registry: DatasetRegistry,
    cache: PlanCache,
    gate: FairGate,
    stats: StatsCollector,
    tenants: TenantTable,
    /// Cached global skeletons for sharded datasets, keyed by the
    /// shard-0 plan key of their generation (dataset + resolved params +
    /// partition width). Entries are tiny — O(k · p²) complex
    /// coefficients — and are rebuilt whenever any shard plan was not a
    /// cache hit, so an evicted-and-rebuilt shard can never serve a
    /// stale summary.
    skeletons: Mutex<HashMap<PlanKey, Arc<Skeleton>>>,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        config.validate()?;
        Ok(Engine {
            config,
            registry: DatasetRegistry::new(),
            cache: PlanCache::new(config.cache_budget_bytes),
            gate: FairGate::new(config.max_in_flight, config.max_queued),
            stats: StatsCollector::with_slow_threshold(config.slow_query_threshold),
            tenants: TenantTable::new(),
            skeletons: Mutex::new(HashMap::new()),
        })
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Validates and registers a particle set under `name`.
    pub fn register(&self, name: &str, particles: Vec<Particle>) -> Result<DatasetId, EngineError> {
        self.registry.register(name, particles)
    }

    /// Replaces the charges of dataset `id` (one per particle, in the
    /// registered order; positions, name and id unchanged) and returns
    /// the dataset's new charge epoch.
    ///
    /// Afterwards every answer is bit-identical to what a fresh engine
    /// that registered the same positions with `charges` would give —
    /// degrees and bounds are all re-resolved from the new charges — but
    /// the dataset's cached plans are not rebuilt: the next query for
    /// each finds it one or more epochs behind and recharges it in place
    /// over its cached geometry
    /// ([`CacheOutcome::Recharged`]). A query that starts after this
    /// returns sees the new epoch; one racing it sees one epoch or the
    /// other, never a mixture ([`QueryResponse::epoch`]).
    ///
    /// An all-zero vector is legal (every potential is then exactly 0).
    /// Typed refusals: [`EngineError::UnknownDataset`],
    /// [`EngineError::ChargeCountMismatch`],
    /// [`EngineError::NonFiniteCharge`], and
    /// [`EngineError::ShardedChargeUpdate`] for sharded datasets.
    pub fn update_charges(&self, id: DatasetId, charges: &[f64]) -> Result<u64, EngineError> {
        self.registry.update_charges(id, charges)
    }

    /// Retires dataset `id`: its registry entry (the name becomes
    /// reusable), resident plans, skeletons and per-plan stats rows all
    /// go. Queries in flight finish on the snapshots and plans they
    /// hold; later ones get [`EngineError::UnknownDataset`].
    pub fn unregister(&self, id: DatasetId) -> Result<(), EngineError> {
        self.registry.remove(id)?;
        self.stats.bump(Metric::datasets_retired);
        self.purge(id);
        Ok(())
    }

    /// Drops everything the engine keeps per dataset outside the
    /// registry. Idempotent: run by [`Engine::unregister`], and again by
    /// [`Engine::after_writes`] for a call overtaken by the retirement.
    fn purge(&self, id: DatasetId) {
        self.cache.retire(id);
        self.skeletons
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|key, _| key.dataset() != id);
        self.stats.forget_dataset(id);
    }

    /// Validates, Hilbert-partitions into `shards` contiguous key
    /// ranges, and registers a particle set under `name`. Queries are
    /// served by independent per-shard plans (built concurrently on a
    /// cold miss, cached and evicted independently) behind a global
    /// skeleton tree that answers the cross-shard far field; `shards ==
    /// 1` is exactly [`Engine::register`].
    pub fn register_sharded(
        &self,
        name: &str,
        particles: Vec<Particle>,
        shards: usize,
    ) -> Result<DatasetId, EngineError> {
        self.registry.register_sharded(name, particles, shards)
    }

    /// Registers (or re-registers) a tenant's fair-share weight and
    /// budgets. Unregistered tenants — including [`TenantId::DEFAULT`] —
    /// serve at weight 1 with no budgets, so calling this is only needed
    /// to differentiate tenants. Re-registering updates the config but
    /// keeps the tenant's accumulated charges.
    pub fn register_tenant(&self, tenant: TenantId, config: TenantConfig) {
        self.tenants.register(tenant, config);
    }

    /// Opens a new billing window for `tenant`: accumulated plan-byte and
    /// evaluation-time charges are zeroed (weights and quotas stay).
    /// Returns `false` when the tenant was never registered or billed.
    pub fn reset_tenant_budgets(&self, tenant: TenantId) -> bool {
        self.tenants.reset_budgets(tenant)
    }

    /// The dataset registered under `id`.
    pub fn dataset(&self, id: DatasetId) -> Result<Arc<Dataset>, EngineError> {
        self.registry.get(id)
    }

    /// Looks a dataset id up by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<DatasetId> {
        self.registry.lookup(name)
    }

    /// The full parameters `accuracy` resolves to under this engine's
    /// defaults — exactly what a query with that accuracy runs with.
    #[must_use]
    pub fn resolve_params(&self, accuracy: Accuracy) -> TreecodeParams {
        accuracy.resolve(
            self.config.alpha,
            self.config.leaf_capacity,
            self.config.eval_chunk,
        )
    }

    /// [`Engine::resolve_params`] after checking that `dataset` is
    /// registered — what a query against `dataset` runs with.
    pub fn resolve_params_for(
        &self,
        dataset: DatasetId,
        accuracy: Accuracy,
    ) -> Result<TreecodeParams, EngineError> {
        self.registry.get(dataset)?;
        Ok(self.resolve_params(accuracy))
    }

    /// Pre-builds (or touches) every plan serving `(dataset, accuracy)`
    /// without issuing a query — cache warming for predictable tenants.
    /// For sharded datasets **all** shard plans are built concurrently
    /// and the report carries one entry per shard; unsharded datasets
    /// report their single plan as shard 0.
    pub fn warm(&self, dataset: DatasetId, accuracy: Accuracy) -> Result<WarmReport, EngineError> {
        let ds = self.registry.get(dataset)?;
        let params = self.resolve_params(accuracy);
        params.validate().map_err(EngineError::InvalidParams)?;
        let plans = if ds.is_sharded() {
            self.shard_plans(&ds, params)?.0
        } else {
            vec![self.plan_routed(&ds, params, Backend::Treecode, ds.len())?]
        };
        let shards: Vec<ShardWarm> = plans
            .iter()
            .enumerate()
            .map(|(s, (plan, outcome))| ShardWarm {
                shard: s,
                outcome: *outcome,
                bytes: plan.bytes,
                build_time: plan.build_time,
            })
            .collect();
        self.after_writes(&ds);
        Ok(WarmReport {
            outcome: aggregate_outcome(plans.iter().map(|(_, o)| *o)),
            shards,
        })
    }

    /// Resolves the routed backend's cached plan for `(ds, params)` —
    /// building it under the key's single-flight on a miss, with an FMM
    /// depth counted for the `n_targets` targets of the evaluation that
    /// missed. `params` must already be validated.
    fn plan_routed(
        &self,
        ds: &Arc<Dataset>,
        params: TreecodeParams,
        backend: Backend,
        n_targets: usize,
    ) -> Result<Obtained, EngineError> {
        // PlanKey excludes the execution knobs, so requests differing only
        // in chunk width or mode share one cached tree + coefficient
        // arena. It excludes the charges too: a plan resident at another
        // epoch of this dataset is recharged, not rebuilt.
        let key = PlanKey::routed(ds.id, &params, backend);
        let (sources, charges) = ds.shard(0);
        self.cache
            .get_or_build_at(key, ds.epoch, &self.stats, |other| match other {
                Some(plan) => plan.recharge(sources, charges, params, ds.epoch),
                None => Plan::build_for(key, sources, charges, params, n_targets)
                    .map(|p| p.at_epoch(ds.epoch)),
            })
    }

    /// Resolves every shard plan of a sharded dataset (building cold
    /// shards concurrently — each shard is its own cache entry behind its
    /// own single-flight, so a cold dataset costs roughly one shard's
    /// build time given threads, not the sum) plus the matching global
    /// skeleton. `params` must already be validated.
    fn shard_plans(
        &self,
        ds: &Arc<Dataset>,
        params: TreecodeParams,
    ) -> Result<(Vec<Obtained>, Arc<Skeleton>), EngineError> {
        let k = ds.shard_count();
        let built: Vec<Result<Obtained, EngineError>> = (0..k)
            .into_par_iter()
            .map(|s| {
                let key = PlanKey::sharded(ds.id, &params, s, k);
                let (sources, charges) = ds.shard(s);
                self.cache.get_or_build(key, &self.stats, || {
                    Plan::build_for(key, sources, charges, params, sources.len())
                })
            })
            .collect();
        let plans = built.into_iter().collect::<Result<Vec<_>, _>>()?;
        let fresh = plans.iter().any(|(_, o)| *o != CacheOutcome::Hit);
        let skey = PlanKey::sharded(ds.id, &params, 0, k);
        let skeleton = self.skeleton_for(skey, &plans, fresh)?;
        Ok((plans, skeleton))
    }

    /// The cached skeleton for this plan generation, rebuilt whenever any
    /// shard plan was freshly built (deterministic builds make the
    /// rebuild idempotent; the invalidation only exists so the summary
    /// can never outlive an evicted shard's coefficients).
    fn skeleton_for(
        &self,
        key: PlanKey,
        plans: &[Obtained],
        rebuild: bool,
    ) -> Result<Arc<Skeleton>, EngineError> {
        let mut map = self
            .skeletons
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !rebuild {
            if let Some(sk) = map.get(&key) {
                return Ok(Arc::clone(sk));
            }
        }
        let refs = plans
            .iter()
            .map(|(p, _)| p.treecode())
            .collect::<Result<Vec<&Treecode>, _>>()?;
        let sk = Arc::new(Skeleton::from_treecodes(&refs));
        map.insert(key, Arc::clone(&sk));
        Ok(sk)
    }

    /// Stage 1 — admit: the whole call queues as one unit and takes one
    /// gate slot. Budgets come first: a request whose tenant is over
    /// quota is shed before it can queue (its backlog would only steal
    /// gate capacity from solvent tenants), and a call with nothing left
    /// to serve takes no slot at all. The survivors queue under the first
    /// one's tenant, with the earliest deadline among them for queue
    /// shedding; admission or shedding is then noted in every survivor's
    /// tenant row. Every shed request's slot is answered here; `None`
    /// means no request is left to serve.
    fn admit(&self, requests: &[QueryRequest], slots: &mut [Slot]) -> Option<Permit<'_>> {
        let mut solvent = Vec::with_capacity(requests.len());
        for (i, r) in requests.iter().enumerate() {
            match self.tenants.admit_request(r.tenant) {
                Ok(()) => solvent.push(i),
                Err(e) => {
                    self.stats.bump(Metric::shed_quota);
                    slots[i] = Some(Err(e));
                }
            }
        }
        let tenant = requests[*solvent.first()?].tenant;
        let deadline = solvent.iter().filter_map(|&i| requests[i].deadline).min();
        let weight = self.tenants.weight(tenant);
        let admission = self.gate.admit_observed(tenant, weight, deadline, |depth| {
            self.stats.max(Metric::queue_peak, depth as u64);
        });
        let shed = match admission {
            Admission::Admitted { waited } => {
                self.stats.bump(Metric::admitted);
                self.stats.record_admission_wait(waited);
                for &i in &solvent {
                    self.tenants.note_admitted(requests[i].tenant);
                }
                return Some(Permit(&self.gate));
            }
            Admission::Overloaded { in_flight, queued } => {
                self.stats.bump(Metric::shed_overload);
                EngineError::Overloaded { in_flight, queued }
            }
            Admission::DeadlineExpired => {
                self.stats.bump(Metric::shed_deadline);
                EngineError::DeadlineExceeded
            }
        };
        for &i in &solvent {
            self.tenants.note_shed(requests[i].tenant);
            slots[i] = Some(Err(shed.clone()));
        }
        None
    }

    /// Stage 2 — resolve: everything about `request` that does not
    /// depend on who it shares a sweep with.
    fn resolve(&self, request: &QueryRequest) -> Result<Resolved, EngineError> {
        let ds = self.registry.get(request.dataset)?;
        let params = self.resolve_params(request.accuracy);
        params.validate().map_err(EngineError::InvalidParams)?;
        // sharded datasets are served by the skeleton fan-out (a
        // treecode-only path) and explicit parameters state their own
        // execution mode — both pin the router
        let pinned = ds.is_sharded() || matches!(request.accuracy, Accuracy::Params(_));
        let backend = route(ds.len(), request.points.len(), pinned, &params);
        self.stats.record_route(backend);
        // sharded datasets group under their shard-0 key, so one sweep
        // per (dataset, params, kind) covers the whole fan-out; unsharded
        // requests group under their routed backend's key, so
        // differently-routed shapes batch into separate sweeps
        let plan = if ds.is_sharded() {
            PlanKey::sharded(ds.id, &params, 0, ds.shard_count())
        } else {
            PlanKey::routed(ds.id, &params, backend)
        };
        let group = GroupKey {
            plan,
            kind: request.kind,
            cfg: EvalConfig::of(&params),
            epoch: ds.epoch,
        };
        Ok(Resolved {
            ds,
            params,
            backend,
            group,
        })
    }

    /// Stage 3 — prepare: resolves what `job`'s group evaluates against
    /// (cached, built for the group's `n_targets` points, or coalesced
    /// onto an in-flight build) and bills `opener` for every plan it
    /// caused to be built — cache hits and coalesced waits are free:
    /// whoever built those bytes paid for them.
    fn prepare(
        &self,
        job: &Resolved,
        opener: TenantId,
        n_targets: usize,
    ) -> Result<Target, EngineError> {
        let (target, built) = if job.ds.is_sharded() {
            let (plans, skeleton) = self.shard_plans(&job.ds, job.params)?;
            let outcome = aggregate_outcome(plans.iter().map(|(_, o)| *o));
            let built = plans
                .iter()
                .filter(|(_, o)| *o == CacheOutcome::Built)
                .map(|(p, _)| p.bytes)
                .sum();
            let plans = plans.into_iter().map(|(p, _)| p).collect();
            (Target::Sharded(plans, skeleton, outcome), built)
        } else if job.backend == Backend::Direct {
            let direct = Target::Direct(Arc::clone(&job.ds), job.params.softening);
            (direct, 0)
        } else {
            let (plan, outcome) = self.plan_routed(&job.ds, job.params, job.backend, n_targets)?;
            // a recharge replaces resident bytes rather than adding any
            let built = if outcome == CacheOutcome::Built {
                plan.bytes
            } else {
                0
            };
            (Target::Plan(plan, outcome), built)
        };
        if built > 0 {
            self.tenants.charge_plan_bytes(opener, built);
        }
        Ok(target)
    }

    /// Turns one rider's sweep answer into its response: bills the
    /// tenant its share of the sweep and feeds the query-latency
    /// histogram and slow-query log.
    fn respond(
        &self,
        request: &QueryRequest,
        job: &Resolved,
        target: &Target,
        swept: Swept,
        arrived: Instant,
        waited: Duration,
    ) -> QueryResponse {
        self.tenants.charge_eval(request.tenant, swept.share);
        let n_points = swept.output.len();
        self.stats
            .record_request(request.dataset, n_points, arrived.elapsed(), waited);
        QueryResponse {
            output: swept.output,
            eval: swept.eval,
            cache: target.cache_outcome(),
            plan_bytes: target.plan_bytes(),
            backend: target.backend(),
            epoch: job.ds.epoch,
        }
    }

    /// Called once a group's sweep (or a warm-up's builds) is over —
    /// every write the call makes to `ds`'s per-dataset state (a
    /// published plan, a per-plan stats row) is behind it. If the dataset
    /// was retired meanwhile, those writes may have landed after the
    /// retirement's purge, so the call purges again.
    fn after_writes(&self, ds: &Dataset) {
        if ds.is_retired() {
            self.purge(ds.id);
        }
    }

    /// A slot no stage answered means a worker never delivered — an
    /// engine fault that must not masquerade as client-caused shedding.
    fn settle(&self, slot: Slot) -> Result<QueryResponse, EngineError> {
        slot.unwrap_or_else(|| {
            self.stats.bump(Metric::worker_panics);
            Err(EngineError::WorkerPanicked)
        })
    }

    /// Serves one query: a [`Engine::query_batch`] of this one request,
    /// so it takes one admission slot and sweeps on the caller's thread.
    ///
    /// Blocking; safe to call from many threads at once — that is the
    /// intended use. Concurrent callers never share a sweep: each one's
    /// evaluation runs on its own thread.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, EngineError> {
        self.query_batch(&[request])
            .pop()
            .unwrap_or(Err(EngineError::Internal("query_batch returned no answer")))
    }

    /// Serves many queries from one caller as explicitly formed batches:
    /// requests are grouped by `(dataset, params, kind)`, the groups are
    /// served in order of first appearance — each as one sweep on the
    /// caller's thread — and results come back in request order.
    ///
    /// The whole call occupies **one** admission slot (it is one caller);
    /// budgets are still checked and billed per request, so mixed-tenant
    /// batches stay honest. Every request runs through here:
    /// [`Engine::query`] calls it with a single request.
    pub fn query_batch(
        &self,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, EngineError>> {
        let arrived = Instant::now();
        let mut slots: Vec<Slot> = requests.iter().map(|_| None).collect();
        if let Some(_permit) = self.admit(requests, &mut slots) {
            let waited = arrived.elapsed();
            let mut groups: Vec<(Resolved, Vec<usize>)> = Vec::new();
            let mut index: HashMap<GroupKey, usize> = HashMap::new();
            for (i, r) in requests.iter().enumerate() {
                if slots[i].is_some() {
                    continue; // shed by its tenant's budget
                }
                match self.resolve(r) {
                    Ok(job) => {
                        let at = *index.entry(job.group).or_insert(groups.len());
                        if at == groups.len() {
                            groups.push((job, Vec::new()));
                        }
                        groups[at].1.push(i);
                    }
                    Err(e) => slots[i] = Some(Err(e)),
                }
            }
            for (job, members) in &groups {
                // the group shares (dataset, params): its first request
                // opens it, and a plan it builds is priced for all of it
                let n_targets = members.iter().map(|&i| requests[i].points.len()).sum();
                match self.prepare(job, requests[members[0]].tenant, n_targets) {
                    Ok(target) => {
                        let riders: Vec<Rider<'_>> = members
                            .iter()
                            .map(|&i| Rider {
                                points: &requests[i].points,
                                deadline: requests[i].deadline,
                            })
                            .collect();
                        let answers = sweep(&target, &job.group, &riders, &self.stats);
                        self.after_writes(&job.ds);
                        for (&i, answer) in members.iter().zip(answers) {
                            slots[i] = Some(answer.map(|swept| {
                                self.respond(&requests[i], job, &target, swept, arrived, waited)
                            }));
                        }
                    }
                    Err(e) => {
                        for &i in members {
                            slots[i] = Some(Err(e.clone()));
                        }
                    }
                }
            }
        }
        slots.into_iter().map(|slot| self.settle(slot)).collect()
    }

    /// Recent engine-phase spans (admission wait, plan build, batch
    /// execute), oldest first, from a bounded lock-free ring. Core-layer
    /// phases (compile, sweep) are reported through the process-global
    /// [`mbt_obs`] recorder instead, which stays inert unless installed.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.stats.spans()
    }

    /// Recent queries slower than
    /// [`EngineConfig::slow_query_threshold`], oldest first, from a
    /// bounded log whose hot path never allocates.
    #[must_use]
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.stats.slow_queries()
    }

    /// A point-in-time snapshot of every counter and gauge.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let (resident_plans, resident_bytes) = self.cache.residency();
        let (in_flight, queue_depth) = self.gate.depth();
        let (skeletons, skeleton_bytes) = {
            let map = self
                .skeletons
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (map.len(), map.values().map(|s| s.heap_bytes()).sum())
        };
        let mut stats = self.stats.snapshot(&[
            (Metric::resident_plans, resident_plans),
            (Metric::resident_bytes, resident_bytes),
            (Metric::cache_budget_bytes, self.config.cache_budget_bytes),
            (Metric::datasets, self.registry.len()),
            (Metric::in_flight, in_flight),
            (Metric::queue_depth, queue_depth),
            (Metric::skeletons, skeletons),
            (Metric::skeleton_bytes, skeleton_bytes),
            (
                Metric::shared_operator_bytes,
                mbt_fmm::shared_operator_bytes(),
            ),
        ]);
        stats.per_tenant = self.tenants.breakdown();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};

    fn particles(n: usize, seed: u64) -> Vec<Particle> {
        uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, seed)
    }

    fn points(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new(1.2 + i as f64 * 0.01, -0.3, 0.4))
            .collect()
    }

    /// The order a plan's artifact is built over.
    fn order_of(plan: &Plan) -> &mbt_geometry::MortonOrder {
        match &plan.artifact {
            PlanArtifact::Treecode(tc) => tc.tree().order(),
            PlanArtifact::Fmm(fmm) => fmm.order(),
        }
    }

    #[test]
    fn every_plan_and_epoch_of_a_source_set_shares_its_one_order() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let n = 6000;
        let id = engine.register("one", particles(n, 41)).unwrap();
        let fixed = engine.resolve_params(Accuracy::Fixed(4));
        let adaptive = engine.resolve_params(Accuracy::Adaptive { p_min: 3 });
        let routes = [
            (fixed, Backend::Treecode),
            (adaptive, Backend::Treecode),
            (fixed, Backend::Fmm),
        ];
        let mut plans = Vec::new();
        for epoch in 0..=3u64 {
            if epoch > 0 {
                let q: Vec<f64> = (0..n)
                    .map(|i| (0.01 * i as f64 + epoch as f64).sin())
                    .collect();
                assert_eq!(engine.update_charges(id, &q), Ok(epoch));
            }
            let ds = engine.dataset(id).unwrap();
            for &(params, backend) in &routes {
                let (plan, outcome) = engine.plan_routed(&ds, params, backend, n).unwrap();
                let expected = if epoch == 0 {
                    CacheOutcome::Built
                } else {
                    CacheOutcome::Recharged
                };
                assert_eq!((plan.epoch, outcome), (epoch, expected), "{backend:?}");
                let fmm = matches!(plan.artifact, PlanArtifact::Fmm(_));
                assert_eq!(fmm, backend == Backend::Fmm);
                plans.push(plan);
            }
        }
        let ds = engine.dataset(id).unwrap();
        let (order, _) = ds.shard(0).0.order().unwrap();
        assert!(plans
            .iter()
            .all(|plan| std::ptr::eq(order_of(plan), Arc::as_ptr(order))));

        // a sharded dataset: one order per shard, each shared by its plan
        let sharded = engine
            .register_sharded("four", particles(4000, 43), 4)
            .unwrap();
        let ds = engine.dataset(sharded).unwrap();
        let (plans, _) = engine.shard_plans(&ds, fixed).unwrap();
        let orders: Vec<*const mbt_geometry::MortonOrder> = (0..4)
            .map(|s| Arc::as_ptr(ds.shard(s).0.order().unwrap().0))
            .collect();
        for (s, (plan, _)) in plans.iter().enumerate() {
            assert!(std::ptr::eq(order_of(plan), orders[s]), "shard {s}");
            assert!((0..s).all(|t| !std::ptr::eq(orders[t], orders[s])));
        }
    }

    fn gated(max_in_flight: usize, max_queued: usize) -> Engine {
        Engine::new(EngineConfig {
            max_in_flight,
            max_queued,
            ..EngineConfig::default()
        })
        .unwrap()
    }

    /// One request through the admit stage alone.
    fn admit_one(
        engine: &Engine,
        tenant: TenantId,
        deadline: Option<Instant>,
    ) -> Result<Permit<'_>, EngineError> {
        let mut request = QueryRequest::potentials(DatasetId(0), Accuracy::Fixed(4), Vec::new())
            .with_tenant(tenant);
        request.deadline = deadline;
        let mut slot = [None];
        engine
            .admit(std::slice::from_ref(&request), &mut slot)
            .ok_or_else(|| {
                let [shed] = slot;
                shed.expect("a shed request is answered").unwrap_err()
            })
    }

    #[test]
    fn admits_up_to_capacity() {
        let engine = gated(2, 0);
        let p1 = admit_one(&engine, TenantId::DEFAULT, None).unwrap();
        let _p2 = admit_one(&engine, TenantId::DEFAULT, None).unwrap();
        assert_eq!(engine.gate.depth(), (2, 0));
        // gate full, queue size 0 → immediate overload
        assert!(matches!(
            admit_one(&engine, TenantId::DEFAULT, None),
            Err(EngineError::Overloaded {
                in_flight: 2,
                queued: 0
            })
        ));
        drop(p1);
        assert_eq!(engine.gate.depth(), (1, 0));
        let _p3 = admit_one(&engine, TenantId::DEFAULT, None).unwrap();
    }

    #[test]
    fn queued_request_sheds_on_deadline() {
        let engine = gated(1, 4);
        let _held = admit_one(&engine, TenantId::DEFAULT, None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(30);
        let t0 = Instant::now();
        let res = admit_one(&engine, TenantId::DEFAULT, Some(deadline));
        assert_eq!(res.unwrap_err(), EngineError::DeadlineExceeded);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(engine.gate.depth(), (1, 0)); // the shed request left the queue
    }

    #[test]
    fn queued_request_proceeds_when_slot_frees() {
        let engine = gated(1, 4);
        let held = admit_one(&engine, TenantId::DEFAULT, None).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let deadline = Instant::now() + Duration::from_secs(5);
                admit_one(&engine, TenantId(1), Some(deadline)).map(|_p| ())
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            assert!(waiter.join().unwrap().is_ok());
        });
        assert_eq!(engine.gate.depth(), (0, 0));
        // both admissions fed the wait histogram: the holder at ~0, the
        // waiter at ≥ the 20 ms it spent queued
        let s = engine.stats();
        assert_eq!(s.admission_wait.count, 2);
        assert!(s.admission_wait.max_ms >= 15.0, "{:?}", s.admission_wait);
        assert_eq!(s.queue_peak, 1, "the waiter's enqueue fed the peak");
    }

    #[test]
    fn expired_deadline_sheds_immediately_when_queued() {
        let engine = gated(1, 4);
        let _held = admit_one(&engine, TenantId::DEFAULT, None).unwrap();
        let past = Instant::now()
            .checked_sub(Duration::from_millis(1))
            .unwrap();
        assert_eq!(
            admit_one(&engine, TenantId::DEFAULT, Some(past)).unwrap_err(),
            EngineError::DeadlineExceeded
        );
        assert_eq!(engine.stats().shed_deadline, 1);
    }

    #[test]
    fn config_validation() {
        assert!(Engine::new(EngineConfig::default()).is_ok());
        for bad in [
            EngineConfig {
                alpha: -1.0,
                ..EngineConfig::default()
            },
            EngineConfig {
                alpha: f64::NAN,
                ..EngineConfig::default()
            },
            EngineConfig {
                leaf_capacity: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                max_in_flight: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                cache_budget_bytes: 0,
                ..EngineConfig::default()
            },
        ] {
            assert!(matches!(
                Engine::new(bad),
                Err(EngineError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn end_to_end_query_and_stats() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("tenant-a", particles(800, 7)).unwrap();
        let pts = points(30);
        let r1 = engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(4),
                pts.clone(),
            ))
            .unwrap();
        assert_eq!(r1.cache, CacheOutcome::Built);
        assert_eq!(r1.output.len(), 30);
        let r2 = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(4), pts))
            .unwrap();
        assert_eq!(r2.cache, CacheOutcome::Hit);
        assert_eq!(r1.output, r2.output);

        let s = engine.stats();
        assert_eq!(s.plan_builds, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.resident_plans, 1);
        assert!(s.resident_bytes > 0);
        assert_eq!(s.datasets, 1);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.in_flight, 0);
    }

    #[test]
    fn different_accuracies_build_different_plans() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(600, 11)).unwrap();
        let pts = points(5);
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(3),
                pts.clone(),
            ))
            .unwrap();
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Adaptive { p_min: 3 },
                pts.clone(),
            ))
            .unwrap();
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Tolerance { tol: 1e-5 },
                pts,
            ))
            .unwrap();
        let s = engine.stats();
        assert_eq!(s.plan_builds, 3);
        assert_eq!(s.resident_plans, 3);
    }

    #[test]
    fn field_queries_work() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(400, 13)).unwrap();
        let r = engine
            .query(QueryRequest::fields(id, Accuracy::Fixed(5), points(8)))
            .unwrap();
        let fields = r.output.fields().unwrap();
        assert_eq!(fields.len(), 8);
        assert!(fields
            .iter()
            .all(|(phi, g)| phi.is_finite() && g.is_finite()));
    }

    #[test]
    fn unknown_dataset_and_bad_params_are_typed_errors() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        assert!(matches!(
            engine.query(QueryRequest::potentials(
                DatasetId(42),
                Accuracy::Fixed(4),
                points(1),
            )),
            Err(EngineError::UnknownDataset(DatasetId(42)))
        ));
        let id = engine.register("t", particles(100, 17)).unwrap();
        assert!(matches!(
            engine.query(QueryRequest::potentials(
                id,
                Accuracy::Tolerance { tol: -1.0 },
                points(1),
            )),
            Err(EngineError::InvalidParams(_))
        ));
        assert!(matches!(
            engine.query(QueryRequest::potentials(id, Accuracy::Fixed(99), points(1))),
            Err(EngineError::InvalidParams(_))
        ));
    }

    #[test]
    fn warm_prebuilds_the_plan() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(600, 19)).unwrap();
        let report = engine.warm(id, Accuracy::Fixed(4)).unwrap();
        assert_eq!(report.outcome, CacheOutcome::Built);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].shard, 0);
        assert!(report.shards[0].bytes > 0);
        assert_eq!(
            engine.warm(id, Accuracy::Fixed(4)).unwrap().outcome,
            CacheOutcome::Hit
        );
        let r = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(4), points(3)))
            .unwrap();
        assert_eq!(r.cache, CacheOutcome::Hit);
    }

    #[test]
    fn warm_sharded_builds_every_shard_plan() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register_sharded("t", particles(600, 47), 4).unwrap();
        let report = engine.warm(id, Accuracy::Fixed(4)).unwrap();
        assert_eq!(report.outcome, CacheOutcome::Built);
        assert_eq!(report.shards.len(), 4);
        for (s, w) in report.shards.iter().enumerate() {
            assert_eq!(w.shard, s);
            assert_eq!(w.outcome, CacheOutcome::Built);
            assert!(w.bytes > 0);
            assert!(w.build_time > Duration::ZERO);
        }
        let s = engine.stats();
        assert_eq!(s.plan_builds, 4);
        assert_eq!(s.resident_plans, 4);
        assert_eq!(s.skeletons, 1);
        assert!(s.skeleton_bytes > 0);
        // warming again touches every shard without rebuilding
        let again = engine.warm(id, Accuracy::Fixed(4)).unwrap();
        assert_eq!(again.outcome, CacheOutcome::Hit);
        assert!(again.shards.iter().all(|w| w.outcome == CacheOutcome::Hit));
        assert_eq!(engine.stats().plan_builds, 4);
    }

    #[test]
    fn sharded_query_routes_and_counts() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register_sharded("t", particles(800, 53), 4).unwrap();
        let r = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(5), points(10)))
            .unwrap();
        assert_eq!(r.cache, CacheOutcome::Built);
        assert_eq!(r.output.len(), 10);
        assert!(r.plan_bytes > 0);
        assert_eq!(r.eval.targets, 10);
        let s = engine.stats();
        assert_eq!(s.sharded_queries, 1);
        assert!(
            s.global_shortcuts + s.skeleton_evals + s.shard_opens > 0,
            "fan-out routed nothing"
        );
        assert_eq!(s.fanout_latency.count, 1);
        // hot repeat: same values, all shard plans hit
        let r2 = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(5), points(10)))
            .unwrap();
        assert_eq!(r2.cache, CacheOutcome::Hit);
        assert_eq!(r.output, r2.output);
    }

    #[test]
    fn sharded_k1_serves_on_the_unsharded_path() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register_sharded("t", particles(300, 59), 1).unwrap();
        let r = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(4), points(6)))
            .unwrap();
        assert_eq!(r.output.len(), 6);
        let s = engine.stats();
        assert_eq!(s.sharded_queries, 0);
        assert_eq!(s.skeletons, 0);
    }

    #[test]
    fn query_batch_handles_sharded_groups() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let a = engine.register_sharded("a", particles(600, 61), 2).unwrap();
        let b = engine.register("b", particles(300, 67)).unwrap();
        let pts = points(8);
        let reqs = vec![
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(b, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::fields(a, Accuracy::Fixed(4), pts.clone()),
        ];
        let results = engine.query_batch(&reqs);
        for r in &results {
            assert!(r.is_ok(), "{r:?}");
        }
        // identical sharded requests agree, and match a solo query
        assert_eq!(
            results[0].as_ref().unwrap().output,
            results[2].as_ref().unwrap().output
        );
        let solo = engine
            .query(QueryRequest::potentials(a, Accuracy::Fixed(4), pts))
            .unwrap();
        assert_eq!(solo.output, results[0].as_ref().unwrap().output);
        let s = engine.stats();
        // batch fan-outs: (a,pot) with two requests + (a,field); solo adds one
        assert_eq!(s.sharded_queries, 3);
    }

    #[test]
    fn aggregate_outcome_prefers_the_most_expensive() {
        use CacheOutcome::{Built, Coalesced, Hit};
        assert_eq!(aggregate_outcome([]), Hit);
        assert_eq!(aggregate_outcome([Hit, Hit]), Hit);
        assert_eq!(aggregate_outcome([Hit, Coalesced]), Coalesced);
        assert_eq!(aggregate_outcome([Coalesced, Built, Hit]), Built);
        assert_eq!(aggregate_outcome([Built]), Built);
    }

    #[test]
    fn query_batch_groups_and_orders_results() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let a = engine.register("a", particles(700, 23)).unwrap();
        let b = engine.register("b", particles(600, 29)).unwrap();
        let pts = points(12);
        let reqs = vec![
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(b, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::fields(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(a, Accuracy::Fixed(6), pts),
        ];
        let results = engine.query_batch(&reqs);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.is_ok());
        }
        // requests 0 and 2 are identical → identical values
        let v0 = results[0].as_ref().unwrap().output.clone();
        let v2 = results[2].as_ref().unwrap().output.clone();
        assert_eq!(v0, v2);
        let s = engine.stats();
        // groups: (a,f4,pot) ×2, (b,f4,pot), (a,f4,field), (a,f6,pot)
        assert_eq!(s.batches, 4);
        assert_eq!(s.batched_requests, 5);
        assert_eq!(s.max_batch, 2);
        assert_eq!(s.admitted, 1); // one slot for the whole call
        assert_eq!(s.plan_builds, 3); // (a,f4), (b,f4), (a,f6) — field reuses (a,f4)
    }

    #[test]
    fn query_batch_propagates_per_request_errors() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let a = engine.register("a", particles(200, 31)).unwrap();
        let results = engine.query_batch(&[
            QueryRequest::potentials(a, Accuracy::Fixed(4), points(2)),
            QueryRequest::potentials(DatasetId(99), Accuracy::Fixed(4), points(2)),
            QueryRequest::potentials(a, Accuracy::Tolerance { tol: -2.0 }, points(2)),
        ]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(EngineError::UnknownDataset(DatasetId(99)))
        ));
        assert!(matches!(results[2], Err(EngineError::InvalidParams(_))));
    }

    #[test]
    fn eviction_under_tight_budget() {
        // budget fits roughly one plan: alternating accuracies must evict
        let engine = Engine::new(EngineConfig {
            cache_budget_bytes: 1 << 20,
            ..EngineConfig::default()
        })
        .unwrap();
        let id = engine.register("t", particles(3000, 37)).unwrap();
        let pts = points(4);
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(8),
                pts.clone(),
            ))
            .unwrap();
        let one_plan = engine.stats().resident_bytes;
        assert!(
            one_plan > (1 << 19),
            "instance too small to exercise eviction"
        );
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(9),
                pts.clone(),
            ))
            .unwrap();
        engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(8), pts))
            .unwrap();
        let s = engine.stats();
        assert!(s.evictions >= 1, "no eviction under a one-plan budget");
        assert!(s.resident_bytes <= s.cache_budget_bytes);
        assert_eq!(s.plan_builds, 3); // the third query rebuilt the evicted plan
    }

    #[test]
    fn deadline_already_expired_is_shed_without_eval() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(200, 41)).unwrap();
        let mut req = QueryRequest::potentials(id, Accuracy::Fixed(4), points(2));
        req.deadline = Some(
            Instant::now()
                .checked_sub(Duration::from_millis(1))
                .unwrap(),
        );
        assert_eq!(
            engine.query(req).unwrap_err(),
            EngineError::DeadlineExceeded
        );
        assert_eq!(engine.stats().batches, 0);
    }
}
