//! `mbt-engine` — a multi-tenant treecode query engine.
//!
//! The lower crates answer *one* question well: given particles and
//! [`TreecodeParams`](mbt_treecode::TreecodeParams), build a tree, run the
//! upward pass, evaluate targets. This crate turns that kernel into a
//! *service*: many datasets, many concurrent callers, each asking at its
//! own accuracy, with the expensive artefacts (built octree + coefficient
//! arena = a **plan**) cached and shared instead of rebuilt per call.
//!
//! # Architecture
//!
//! One entry point, [`Engine::query_batch`], runs **one pipeline** of four
//! stages, each written once in `engine.rs`; [`Engine::query`] is a
//! one-request `query_batch`:
//!
//! ```text
//!   register / update_charges / unregister
//!            ──► DatasetRegistry (ids, validation, Hilbert shards; one
//!                immutable snapshot per charge epoch)
//!
//!   query ──────► query_batch of one request
//!   query_batch ──┐  one slot per call
//!                 ▼
//!   1 admit    tenant budgets ─► FairGate (weighted-fair queue, deadline
//!              │                 shedding) ─► tenant rows ─► RAII permit
//!              ▼
//!   2 resolve  registry ─► snapshot @ epoch ─► resolved params ─► validate
//!              │           ─► route ─► group key (plan × kind × cfg × epoch)
//!              │           (once per request; carried, never re-derived)
//!              ▼
//!   3 prepare  Target = Direct(snapshot)            no plan, no cache
//!              │        | Plan(cached plan @ epoch)  PlanCache: byte-budget
//!              │        | Sharded(plans, skeleton)   LRU + single-flight; a
//!              │                                     plan at another epoch
//!              │                                     is recharged in place;
//!              │                                     builds bill the opener
//!              ▼
//!   4 sweep    shed expired riders ─► pack points ─► Target::evaluate ─►
//!              │ record ─► scatter   (one sweep per group, always on the
//!              ▼                      caller's thread)
//!     respond  eval billing ─► latency / slow log ─► QueryResponse
//! ```
//!
//! - **Registry** ([`DatasetRegistry`]): charge systems are registered
//!   once, validated (non-empty, finite), and referred to by stable
//!   [`DatasetId`]s. Positions are fixed for a dataset's life; its
//!   charges can be replaced ([`Engine::update_charges`] — a new charge
//!   *epoch* under the same id, after which every answer is bit-identical
//!   to a fresh engine's over the new charges), and the dataset retired
//!   ([`Engine::unregister`]).
//! - **Admit**: bounded in-flight work over per-tenant weighted-fair
//!   queues ([`FairGate`] — virtual-time WFQ, strict no-barging
//!   hand-off), with overload, deadline, and tenant-budget shedding as
//!   typed [`EngineError`]s; budgets are checked before the gate by both
//!   entry points. The engine never panics.
//! - **Resolve / routing** ([`route`]): each request's [`Accuracy`] is
//!   resolved against the engine defaults and the dataset's profile, and
//!   its shape picks a [`Backend`] — guarded direct summation for tiny
//!   datasets, the compiled FMM for matvec shapes, the treecode otherwise
//!   (and always for sharded datasets and explicit parameters).
//! - **Prepare / plan cache** ([`PlanCache`]): a plan is keyed by
//!   `(dataset, resolved parameters, backend, shard)`. Residency is a
//!   cost-aware LRU policy against a byte budget ([`ByteLru`]), sized by
//!   the real heap footprint of tree + arena. Concurrent cold misses on
//!   one key run **one** build (single-flight); followers wait and share
//!   the `Arc<Plan>`. The key names the plan's *geometry*: a resident
//!   plan found at another charge epoch is carried over by
//!   [`Plan::recharge`] — sort, tree or grids, lists and operators reused
//!   — and replaces the resident entry ([`CacheOutcome::Recharged`]).
//! - **Sweep** ([`evaluate_plan_batch`] and its direct / sharded
//!   siblings behind the target): requests that share a group — plan ×
//!   kind × [`EvalConfig`] — are packed into single chunked sweeps that
//!   reuse the allocation-free evaluation kernels. Per-target
//!   independence makes the packing bit-exact. Groups form only inside
//!   one [`Engine::query_batch`] call: requests from different callers
//!   never share a sweep, so each caller's sweep runs on its own thread.
//! - **Tenancy** ([`TenantId`] / [`TenantConfig`]): requests carry a
//!   tenant; registered tenants get a fair-share weight and optional
//!   budgets on plan-cache bytes and evaluation milliseconds, enforced
//!   as [`EngineError::QuotaExceeded`] sheds.
//! - **Sharded serving** ([`Engine::register_sharded`] + the fan-out in
//!   [`evaluate_sharded`]): a dataset may be Hilbert-partitioned into `k`
//!   contiguous weight-balanced key ranges. Each shard gets its own
//!   independently cached plan (cold shards build concurrently behind
//!   per-shard single-flights), while a tiny global **skeleton tree**
//!   ([`Skeleton`]) of per-shard root expansions answers the cross-shard
//!   far field under the paper's Theorem 1/2 error bounds — a shard's
//!   plan is opened only when the bound refuses the summary. `k = 1` is
//!   bit-identical to the unsharded path (it *is* the unsharded path:
//!   the shard-0 key normalises to the plain plan key).
//!
//! # Quick start
//!
//! ```
//! use mbt_engine::{Accuracy, Engine, EngineConfig, QueryRequest};
//! use mbt_geometry::distribution::{uniform_cube, ChargeModel};
//! use mbt_geometry::Vec3;
//!
//! let engine = Engine::new(EngineConfig::default())?;
//! let particles = uniform_cube(500, 1.0, ChargeModel::UnitPositive { magnitude: 1.0 }, 42);
//! let id = engine.register("galaxy-a", particles)?;
//!
//! // first query builds the plan; repeats at the same accuracy hit cache
//! let response = engine.query(QueryRequest::potentials(
//!     id,
//!     Accuracy::Tolerance { tol: 1e-6 },
//!     vec![Vec3::new(2.0, 0.0, 0.0)],
//! ))?;
//! assert_eq!(response.output.len(), 1);
//! println!("{}", engine.stats());
//! # Ok::<(), mbt_engine::EngineError>(())
//! ```

mod batch;
mod cache;
mod engine;
mod error;
mod export;
mod fanout;
mod plan;
mod registry;
mod route;
mod stats;
mod tenant;
mod wfq;

pub mod flight;

pub use batch::{evaluate_plan_batch, QueryKind, QueryOutput};
pub use cache::{ByteLru, CacheOutcome, Inserted, PlanCache};
pub use engine::{Engine, EngineConfig, QueryRequest, QueryResponse, ShardWarm, WarmReport};
pub use error::EngineError;
pub use fanout::{evaluate_sharded, FanoutBreakdown, ShardSweep};
pub use flight::{Flight, SingleFlight};
pub use plan::{Accuracy, EvalConfig, Plan, PlanArtifact, PlanKey};
pub use registry::{Dataset, DatasetId, DatasetRegistry, SourceSet};
pub use route::{
    fmm_admissible, fmm_params_for, route, Backend, DIRECT_MAX_SOURCES, FMM_ALPHA_EFF,
    FMM_MIN_SOURCES, FMM_MIN_TARGETS,
};
pub use stats::{DatasetBreakdown, EngineStats, LatencySummary, PlanBreakdown, StatsCollector};
pub use tenant::{TenantBreakdown, TenantConfig, TenantId};
pub use wfq::{Admission, FairGate, VT_SCALE};

// The observability vocabulary the engine's accessors speak.
pub use mbt_obs::{HistogramSnapshot, Phase, SlowQuery, Span};

// The sharding vocabulary: partitioner, shard metadata, skeleton tree.
pub use mbt_shard::{HilbertPartition, ShardError, ShardInfo, Skeleton};
