//! Engine observability.
//!
//! [`StatsCollector`] is the write side: plain atomics and fixed-bucket
//! [`Histogram`]s bumped from the hot paths (no allocation; the only
//! lock guards the per-plan breakdown and is taken once per *build* or
//! *batch*, never per point). [`EngineStats`] is the read side: a plain
//! owned struct snapshotted on demand. Serialisation to Prometheus text
//! and JSON lives in [`crate::export`] so the snapshot itself stays free
//! of any exporter dependency.
//!
//! Latency is tracked as half-octave (√2-spaced) histograms, so
//! `build_seconds`/`eval_seconds` totals are exact sums while p50/p95/p99
//! are interpolated estimates with ≤ ~20 % bucket error — the right
//! trade for a lock-free hot path. Engine-phase spans (admission wait,
//! plan build, batch execute) land in a bounded ring, and queries slower
//! than the configured threshold land in a bounded slow-query log; both
//! are drop-on-full, never blocking.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use mbt_check::sync::atomic::{AtomicU64, Ordering};
use mbt_check::sync::{Mutex, PoisonError};

use mbt_obs::{
    Histogram, HistogramSnapshot, Phase, Recorder, RingRecorder, SlowLog, SlowQuery, Span,
};

use crate::fanout::FanoutBreakdown;
use crate::plan::PlanKey;
use crate::registry::DatasetId;
use crate::route::Backend;
use crate::tenant::TenantBreakdown;

/// Spans retained for inspection via [`crate::Engine::spans`].
const SPAN_RING_CAPACITY: usize = 1024;
/// Slow queries retained via [`crate::Engine::slow_queries`].
const SLOW_LOG_CAPACITY: usize = 128;
/// Default slow-query threshold when none is configured.
pub(crate) const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(250);

/// Per-plan running totals, guarded by the collector's mutex.
#[derive(Debug)]
struct PlanCounters {
    dataset: u64,
    builds: u64,
    build_ns: u64,
    batches: u64,
    requests: u64,
    points: u64,
    eval: Histogram,
}

impl PlanCounters {
    fn new(dataset: u64) -> PlanCounters {
        PlanCounters {
            dataset,
            builds: 0,
            build_ns: 0,
            batches: 0,
            requests: 0,
            points: 0,
            eval: Histogram::new(),
        }
    }
}

/// A stable per-process label for one plan: the key's hash under a
/// fixed-key hasher, so exporters can tell plans apart without leaking
/// the key's internals.
fn fingerprint(key: &PlanKey) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Lock-free counters and histograms the engine's layers write into.
#[derive(Debug)]
pub struct StatsCollector {
    // plan cache
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced_misses: AtomicU64,
    plan_builds: AtomicU64,
    plan_recharges: AtomicU64,
    datasets_retired: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    // batched evaluation
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    eval_points: AtomicU64,
    // backend routing decisions
    routed_direct: AtomicU64,
    routed_treecode: AtomicU64,
    routed_fmm: AtomicU64,
    // sharded fan-out routing
    sharded_queries: AtomicU64,
    global_shortcuts: AtomicU64,
    skeleton_evals: AtomicU64,
    shard_opens: AtomicU64,
    // admission control
    admitted: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_quota: AtomicU64,
    queue_peak: AtomicU64,
    // batch-leader panics surfaced as WorkerPanicked
    worker_panics: AtomicU64,
    // latency distributions
    build_hist: Histogram,
    eval_hist: Histogram,
    query_hist: Histogram,
    wait_hist: Histogram,
    fanout_hist: Histogram,
    // bounded engine-phase span ring + slow-query log
    spans: RingRecorder,
    slow: SlowLog,
    slow_threshold_ns: u64,
    // per-plan breakdown (locked once per build / per batch)
    per_plan: Mutex<HashMap<PlanKey, PlanCounters>>,
}

impl Default for StatsCollector {
    fn default() -> Self {
        StatsCollector::with_slow_threshold(DEFAULT_SLOW_THRESHOLD)
    }
}

impl StatsCollector {
    /// A collector logging queries slower than `slow_threshold` to the
    /// bounded slow-query log.
    #[must_use]
    pub fn with_slow_threshold(slow_threshold: Duration) -> StatsCollector {
        StatsCollector {
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced_misses: AtomicU64::new(0),
            plan_builds: AtomicU64::new(0),
            plan_recharges: AtomicU64::new(0),
            datasets_retired: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            eval_points: AtomicU64::new(0),
            routed_direct: AtomicU64::new(0),
            routed_treecode: AtomicU64::new(0),
            routed_fmm: AtomicU64::new(0),
            sharded_queries: AtomicU64::new(0),
            global_shortcuts: AtomicU64::new(0),
            skeleton_evals: AtomicU64::new(0),
            shard_opens: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            build_hist: Histogram::new(),
            eval_hist: Histogram::new(),
            query_hist: Histogram::new(),
            wait_hist: Histogram::new(),
            fanout_hist: Histogram::new(),
            spans: RingRecorder::new(SPAN_RING_CAPACITY),
            slow: SlowLog::new(SLOW_LOG_CAPACITY),
            slow_threshold_ns: saturating_ns(slow_threshold),
            per_plan: Mutex::new(HashMap::new()),
        }
    }

    /// One span, ending now on the process-epoch timeline, into the
    /// bounded ring (dropped, never blocked, when the ring is contended).
    fn emit_span(&self, phase: Phase, took: Duration) {
        let dur_ns = saturating_ns(took);
        let end_ns = saturating_ns(mbt_obs::epoch().elapsed());
        self.spans.record(Span {
            phase,
            start_ns: end_ns.saturating_sub(dur_ns),
            dur_ns,
        });
    }

    pub(crate) fn record_hit(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_coalesced(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.coalesced_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_build(&self, key: PlanKey, took: Duration) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.plan_builds.fetch_add(1, Ordering::Relaxed);
        self.build_hist.record(took);
        self.emit_span(Phase::PlanBuild, took);
        let mut plans = self.per_plan.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = plans
            .entry(key)
            .or_insert_with(|| PlanCounters::new(key.dataset().0));
        entry.builds += 1;
        entry.build_ns += saturating_ns(took);
    }

    /// One resident plan carried to another charge epoch. Counted apart
    /// from builds (`plan_builds` and the build histogram are geometry
    /// builds only); the time shows as a [`Phase::PlanBuild`] span.
    pub(crate) fn record_recharge(&self, took: Duration) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.plan_recharges.fetch_add(1, Ordering::Relaxed);
        self.emit_span(Phase::PlanBuild, took);
    }

    /// One dataset unregistered.
    pub(crate) fn record_retired(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.datasets_retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops the per-plan rows of a retired `dataset` (idempotent), so a
    /// long-running engine's breakdown tracks live datasets only.
    pub(crate) fn forget_dataset(&self, dataset: DatasetId) {
        self.per_plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|key, _| key.dataset() != dataset);
    }

    pub(crate) fn record_eviction(&self, bytes: usize) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.evictions.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.evicted_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(
        &self,
        key: PlanKey,
        requests: usize,
        points: usize,
        took: Duration,
    ) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.batches.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.batched_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
        // ordering: Relaxed — running maximum; the RMW itself is atomic, order against other counters is irrelevant
        self.max_batch.fetch_max(requests as u64, Ordering::Relaxed);
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.eval_points.fetch_add(points as u64, Ordering::Relaxed);
        self.eval_hist.record(took);
        self.emit_span(Phase::BatchExecute, took);
        let mut plans = self.per_plan.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = plans
            .entry(key)
            .or_insert_with(|| PlanCounters::new(key.dataset().0));
        entry.batches += 1;
        entry.requests += requests as u64;
        entry.points += points as u64;
        entry.eval.record(took);
    }

    /// One backend routing decision (one per request, batched or not).
    pub(crate) fn record_route(&self, backend: Backend) {
        let counter = match backend {
            Backend::Direct => &self.routed_direct,
            Backend::Treecode => &self.routed_treecode,
            Backend::Fmm => &self.routed_fmm,
        };
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// One sharded fan-out: its routing counters (per-tier interaction
    /// decisions summed over the fan-out's points × shards) plus its
    /// end-to-end latency.
    pub(crate) fn record_fanout(&self, fan: &FanoutBreakdown, took: Duration) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.sharded_queries.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.global_shortcuts
            .fetch_add(fan.global_shortcuts, Ordering::Relaxed);
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.skeleton_evals
            .fetch_add(fan.skeleton_evals, Ordering::Relaxed);
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.shard_opens.fetch_add(fan.opens, Ordering::Relaxed);
        self.fanout_hist.record(took);
        self.emit_span(Phase::ShardFanout, took);
    }

    /// Time a request spent queued at the admission gate (zero for
    /// fast-path admissions, which emit no span).
    pub(crate) fn record_admission_wait(&self, waited: Duration) {
        self.wait_hist.record(waited);
        if !waited.is_zero() {
            self.emit_span(Phase::AdmissionWait, waited);
        }
    }

    /// One served request, end to end: feeds the query-latency histogram
    /// and, past the threshold, the slow-query log. Allocation-free.
    pub(crate) fn record_request(
        &self,
        dataset: DatasetId,
        points: usize,
        total: Duration,
        waited: Duration,
    ) {
        self.query_hist.record(total);
        let total_ns = saturating_ns(total);
        if total_ns >= self.slow_threshold_ns {
            self.slow.record(SlowQuery {
                dataset: dataset.0,
                points: points as u64,
                total_ns,
                wait_ns: saturating_ns(waited),
            });
        }
    }

    pub(crate) fn record_admitted(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_overload(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.shed_overload.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_deadline(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.shed_deadline.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_quota(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.shed_quota.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_worker_panic(&self) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        // ordering: Relaxed — running maximum; the RMW itself is atomic, order against other counters is irrelevant
        self.queue_peak.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Recent engine-phase spans (admission wait, plan build, batch
    /// execute), oldest first.
    pub(crate) fn spans(&self) -> Vec<Span> {
        self.spans.spans()
    }

    /// Recent queries slower than the configured threshold.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.entries()
    }

    /// Snapshot of the counters; the gauges (`queue_depth`, `in_flight`,
    /// cache residency, dataset count) are supplied by the engine, which
    /// owns the structures they describe.
    pub(crate) fn snapshot(&self, gauges: Gauges) -> EngineStats {
        // ordering: Relaxed — statistical snapshot; counters are independent, slight skew between them is acceptable
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let build = self.build_hist.snapshot();
        let eval = self.eval_hist.snapshot();
        let query = self.query_hist.snapshot();
        let wait = self.wait_hist.snapshot();
        let fanout = self.fanout_hist.snapshot();

        let (per_plan, per_dataset) = {
            let plans = self.per_plan.lock().unwrap_or_else(PoisonError::into_inner);
            let mut per_plan: Vec<PlanBreakdown> = plans
                .iter()
                .map(|(key, c)| PlanBreakdown {
                    plan: fingerprint(key),
                    dataset: c.dataset,
                    builds: c.builds,
                    build_seconds: c.build_ns as f64 * 1e-9,
                    batches: c.batches,
                    requests: c.requests,
                    points: c.points,
                    eval: LatencySummary::of(&c.eval.snapshot()),
                })
                .collect();
            per_plan.sort_by_key(|a| (a.dataset, a.plan));

            let mut by_dataset: BTreeMap<u64, (DatasetBreakdown, HistogramSnapshot)> =
                BTreeMap::new();
            for c in plans.values() {
                let (agg, hist) = by_dataset.entry(c.dataset).or_insert_with(|| {
                    (
                        DatasetBreakdown {
                            dataset: c.dataset,
                            ..DatasetBreakdown::default()
                        },
                        HistogramSnapshot::empty(),
                    )
                });
                agg.plans += 1;
                agg.builds += c.builds;
                agg.batches += c.batches;
                agg.requests += c.requests;
                agg.points += c.points;
                hist.merge(&c.eval.snapshot());
            }
            let per_dataset: Vec<DatasetBreakdown> = by_dataset
                .into_values()
                .map(|(mut agg, hist)| {
                    agg.eval = LatencySummary::of(&hist);
                    agg
                })
                .collect();
            (per_plan, per_dataset)
        };

        EngineStats {
            cache_hits: ld(&self.cache_hits),
            cache_misses: ld(&self.cache_misses),
            coalesced_misses: ld(&self.coalesced_misses),
            plan_builds: ld(&self.plan_builds),
            plan_recharges: ld(&self.plan_recharges),
            datasets_retired: ld(&self.datasets_retired),
            build_seconds: build.sum_ns as f64 * 1e-9,
            evictions: ld(&self.evictions),
            evicted_bytes: ld(&self.evicted_bytes),
            batches: ld(&self.batches),
            batched_requests: ld(&self.batched_requests),
            max_batch: ld(&self.max_batch),
            eval_seconds: eval.sum_ns as f64 * 1e-9,
            eval_points: ld(&self.eval_points),
            routed_direct: ld(&self.routed_direct),
            routed_treecode: ld(&self.routed_treecode),
            routed_fmm: ld(&self.routed_fmm),
            sharded_queries: ld(&self.sharded_queries),
            global_shortcuts: ld(&self.global_shortcuts),
            skeleton_evals: ld(&self.skeleton_evals),
            shard_opens: ld(&self.shard_opens),
            admitted: ld(&self.admitted),
            shed_overload: ld(&self.shed_overload),
            shed_deadline: ld(&self.shed_deadline),
            shed_quota: ld(&self.shed_quota),
            queue_peak: ld(&self.queue_peak),
            worker_panics: ld(&self.worker_panics),
            build_latency: LatencySummary::of(&build),
            eval_latency: LatencySummary::of(&eval),
            query_latency: LatencySummary::of(&query),
            admission_wait: LatencySummary::of(&wait),
            fanout_latency: LatencySummary::of(&fanout),
            build_histogram: build,
            eval_histogram: eval,
            query_histogram: query,
            wait_histogram: wait,
            fanout_histogram: fanout,
            slow_queries: self.slow.recorded(),
            spans_dropped: self.spans.dropped(),
            span_read_retries: self.spans.read_retries(),
            per_plan,
            per_dataset,
            // the engine owns the tenant table and fills this in
            // Engine::stats; a bare collector snapshot reports none
            per_tenant: Vec::new(),
            resident_plans: gauges.resident_plans,
            resident_bytes: gauges.resident_bytes,
            cache_budget_bytes: gauges.cache_budget_bytes,
            datasets: gauges.datasets,
            in_flight: gauges.in_flight,
            queue_depth: gauges.queue_depth,
            skeletons: gauges.skeletons,
            skeleton_bytes: gauges.skeleton_bytes,
            shared_operator_bytes: gauges.shared_operator_bytes,
        }
    }
}

/// Point-in-time gauges merged into a snapshot.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Gauges {
    pub resident_plans: usize,
    pub resident_bytes: usize,
    pub cache_budget_bytes: usize,
    pub datasets: usize,
    pub in_flight: usize,
    pub queue_depth: usize,
    pub skeletons: usize,
    pub skeleton_bytes: usize,
    pub shared_operator_bytes: usize,
}

/// Five-number latency digest of one histogram, in milliseconds.
/// Quantiles are geometric interpolations inside half-octave buckets —
/// estimates, not exact order statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Observations behind this summary.
    pub count: u64,
    /// Exact mean (the histogram keeps the exact sum).
    pub mean_ms: f64,
    /// Estimated median.
    pub p50_ms: f64,
    /// Estimated 95th percentile.
    pub p95_ms: f64,
    /// Estimated 99th percentile.
    pub p99_ms: f64,
    /// Exact maximum.
    pub max_ms: f64,
}

impl LatencySummary {
    /// The digest of `snap`.
    #[must_use]
    pub fn of(snap: &HistogramSnapshot) -> LatencySummary {
        LatencySummary {
            count: snap.count,
            mean_ms: snap.mean_ns() * 1e-6,
            p50_ms: snap.p50_ns() * 1e-6,
            p95_ms: snap.p95_ns() * 1e-6,
            p99_ms: snap.p99_ns() * 1e-6,
            max_ms: snap.max_ns as f64 * 1e-6,
        }
    }
}

/// Per-plan slice of the engine's work, keyed by a stable fingerprint
/// of the plan's identity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanBreakdown {
    /// Stable per-process fingerprint of the [`PlanKey`].
    pub plan: u64,
    /// The dataset the plan serves.
    pub dataset: u64,
    /// Times this plan was (re)built.
    pub builds: u64,
    /// Wall time spent in those builds.
    pub build_seconds: f64,
    /// Evaluation sweeps run against this plan.
    pub batches: u64,
    /// Requests that rode in those sweeps.
    pub requests: u64,
    /// Observation points evaluated.
    pub points: u64,
    /// Sweep-latency digest for this plan.
    pub eval: LatencySummary,
}

/// Per-dataset aggregate over every plan serving that dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DatasetBreakdown {
    /// The dataset id.
    pub dataset: u64,
    /// Distinct plans that served this dataset.
    pub plans: usize,
    /// Plan builds across those plans.
    pub builds: u64,
    /// Evaluation sweeps across those plans.
    pub batches: u64,
    /// Requests across those sweeps.
    pub requests: u64,
    /// Observation points evaluated.
    pub points: u64,
    /// Sweep-latency digest merged across the dataset's plans.
    pub eval: LatencySummary,
}

/// A point-in-time view of everything the engine counts. Plain data —
/// `Clone`, no atomics, no locks — so exporters can hold or diff
/// snapshots freely. [`EngineStats::to_prometheus`] and
/// [`EngineStats::to_json`] (in [`crate::export`]) serialise it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Queries served from a resident plan.
    pub cache_hits: u64,
    /// Queries that found no resident plan at their dataset's charge
    /// epoch and led a build or a recharge (`plan_builds` +
    /// `plan_recharges`, plus any that failed).
    pub cache_misses: u64,
    /// Queries that found a build already in flight and waited for it
    /// (single-flight coalescing).
    pub coalesced_misses: u64,
    /// Plans actually built — geometry builds; recharges are not among
    /// them.
    pub plan_builds: u64,
    /// Resident plans carried to another charge epoch over their cached
    /// geometry (after [`crate::Engine::update_charges`]) instead of
    /// being built.
    pub plan_recharges: u64,
    /// Datasets unregistered ([`crate::Engine::unregister`]); their plans
    /// left the cache as retirements, not evictions.
    pub datasets_retired: u64,
    /// Total wall time spent building plans.
    pub build_seconds: f64,
    /// Plans evicted to respect the byte budget.
    pub evictions: u64,
    /// Total bytes of evicted plans.
    pub evicted_bytes: u64,
    /// Plans currently resident in the cache.
    pub resident_plans: usize,
    /// Bytes currently resident in the cache.
    pub resident_bytes: usize,
    /// The cache byte budget.
    pub cache_budget_bytes: usize,
    /// Registered datasets.
    pub datasets: usize,
    /// Batched evaluation sweeps executed.
    pub batches: u64,
    /// Requests that rode in those sweeps.
    pub batched_requests: u64,
    /// Largest number of requests coalesced into one sweep.
    pub max_batch: u64,
    /// Total wall time spent in evaluation sweeps.
    pub eval_seconds: f64,
    /// Total observation points evaluated.
    pub eval_points: u64,
    /// Requests the router sent to the direct-summation backend.
    pub routed_direct: u64,
    /// Requests the router sent to the treecode backend.
    pub routed_treecode: u64,
    /// Requests the router sent to the compiled-FMM backend.
    pub routed_fmm: u64,
    /// Queries (or batch groups) served through the sharded fan-out path.
    pub sharded_queries: u64,
    /// Fan-out routing decisions answered entirely by the global
    /// aggregate expansion (one evaluation instead of `k`).
    pub global_shortcuts: u64,
    /// Fan-out `(point, shard)` pairs answered by a shard's skeleton
    /// summary without opening the shard's plan.
    pub skeleton_evals: u64,
    /// Fan-out `(point, shard)` pairs that had to open the shard's plan
    /// because the error bound refused the skeleton summary.
    pub shard_opens: u64,
    /// Global skeletons currently cached.
    pub skeletons: usize,
    /// Heap bytes held by those skeletons.
    pub skeleton_bytes: usize,
    /// Heap bytes of the process-wide FMM unit operator tables — shared
    /// by every engine in the process, owned by no plan, outside the
    /// cache budget ([`mbt_fmm::shared_operator_bytes`]).
    pub shared_operator_bytes: usize,
    /// Requests admitted past the gate.
    pub admitted: u64,
    /// Requests shed because the queue was full.
    pub shed_overload: u64,
    /// Requests shed because their deadline expired while queued.
    pub shed_deadline: u64,
    /// Requests shed because their tenant exhausted a configured budget.
    pub shed_quota: u64,
    /// Evaluation sweeps whose leader panicked (surfaced to riders as
    /// [`crate::EngineError::WorkerPanicked`]).
    pub worker_panics: u64,
    /// Requests currently being evaluated.
    pub in_flight: usize,
    /// Requests currently waiting for an evaluation slot.
    pub queue_depth: usize,
    /// Largest queue depth observed.
    pub queue_peak: u64,
    /// Plan-build latency digest.
    pub build_latency: LatencySummary,
    /// Evaluation-sweep latency digest.
    pub eval_latency: LatencySummary,
    /// End-to-end request latency digest (admission → response).
    pub query_latency: LatencySummary,
    /// Admission-queue wait digest (zeros dominate when uncontended).
    pub admission_wait: LatencySummary,
    /// Sharded fan-out latency digest (routing + shard sweeps + reduce).
    pub fanout_latency: LatencySummary,
    /// Raw plan-build latency buckets.
    pub build_histogram: HistogramSnapshot,
    /// Raw evaluation-sweep latency buckets.
    pub eval_histogram: HistogramSnapshot,
    /// Raw end-to-end request latency buckets.
    pub query_histogram: HistogramSnapshot,
    /// Raw admission-wait buckets.
    pub wait_histogram: HistogramSnapshot,
    /// Raw sharded fan-out latency buckets.
    pub fanout_histogram: HistogramSnapshot,
    /// Requests that crossed the slow-query threshold.
    pub slow_queries: u64,
    /// Engine-phase spans dropped by the bounded ring under contention.
    pub spans_dropped: u64,
    /// Seqlock validation retries taken while snapshotting the span ring
    /// (a reader raced a writer mid-slot and re-read it).
    pub span_read_retries: u64,
    /// Per-plan work breakdown, sorted by `(dataset, plan)`.
    pub per_plan: Vec<PlanBreakdown>,
    /// Per-dataset aggregate, sorted by dataset id.
    pub per_dataset: Vec<DatasetBreakdown>,
    /// Per-tenant accounts (weights, admissions, sheds, budget charges),
    /// sorted by tenant id. Empty until a request names a tenant.
    pub per_tenant: Vec<TenantBreakdown>,
}

impl EngineStats {
    /// Fraction of plan lookups served from cache (hits over hits +
    /// misses + coalesced misses); 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.coalesced_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean requests per evaluation sweep; 0 when no sweep ran.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cache: {} hits / {} misses / {} coalesced ({:.1}% hit rate), \
             {} resident plans, {}/{} bytes, {} evictions",
            self.cache_hits,
            self.cache_misses,
            self.coalesced_misses,
            100.0 * self.hit_rate(),
            self.resident_plans,
            self.resident_bytes,
            self.cache_budget_bytes,
            self.evictions,
        )?;
        writeln!(
            f,
            "plans: {} builds in {:.3}s, {} recharges; eval: {} batches / {} requests \
             (mean {:.2}, max {}), {} points in {:.3}s",
            self.plan_builds,
            self.build_seconds,
            self.plan_recharges,
            self.batches,
            self.batched_requests,
            self.mean_batch(),
            self.max_batch,
            self.eval_points,
            self.eval_seconds,
        )?;
        writeln!(
            f,
            "latency ms (p50/p95/p99): build {:.3}/{:.3}/{:.3}, \
             eval {:.3}/{:.3}/{:.3}, query {:.3}/{:.3}/{:.3}; {} slow",
            self.build_latency.p50_ms,
            self.build_latency.p95_ms,
            self.build_latency.p99_ms,
            self.eval_latency.p50_ms,
            self.eval_latency.p95_ms,
            self.eval_latency.p99_ms,
            self.query_latency.p50_ms,
            self.query_latency.p95_ms,
            self.query_latency.p99_ms,
            self.slow_queries,
        )?;
        write!(
            f,
            "admission: {} admitted, {} shed (overload) + {} shed (deadline) \
             + {} shed (quota), {} worker panics, {} in flight, queue {} (peak {})",
            self.admitted,
            self.shed_overload,
            self.shed_deadline,
            self.shed_quota,
            self.worker_panics,
            self.in_flight,
            self.queue_depth,
            self.queue_peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_treecode::TreecodeParams;

    fn key(dataset: u64, p: usize) -> PlanKey {
        PlanKey::new(DatasetId(dataset), &TreecodeParams::fixed(p, 0.6))
    }

    #[test]
    fn counters_roll_up_into_snapshot() {
        let c = StatsCollector::default();
        c.record_hit();
        c.record_hit();
        c.record_miss();
        c.record_coalesced();
        c.record_build(key(0, 4), Duration::from_millis(5));
        c.record_eviction(1024);
        c.record_recharge(Duration::from_millis(1));
        c.record_batch(key(0, 4), 3, 300, Duration::from_millis(2));
        c.record_batch(key(0, 4), 7, 700, Duration::from_millis(2));
        c.record_admitted();
        c.record_shed_overload();
        c.record_shed_deadline();
        c.record_shed_quota();
        c.record_worker_panic();
        c.observe_queue_depth(4);
        c.observe_queue_depth(2);
        let s = c.snapshot(Gauges {
            resident_plans: 1,
            resident_bytes: 4096,
            cache_budget_bytes: 1 << 20,
            datasets: 2,
            in_flight: 1,
            queue_depth: 0,
            ..Gauges::default()
        });
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.coalesced_misses, 1);
        assert_eq!(s.plan_builds, 1);
        assert_eq!(s.plan_recharges, 1);
        assert!(s.build_seconds > 0.004);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, 1024);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batched_requests, 10);
        assert_eq!(s.max_batch, 7);
        assert_eq!(s.eval_points, 1000);
        assert_eq!(s.queue_peak, 4);
        assert_eq!(s.shed_quota, 1);
        assert_eq!(s.worker_panics, 1);
        assert!(s.per_tenant.is_empty(), "tenants are engine-filled");
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.mean_batch() - 5.0).abs() < 1e-12);
        // the histograms carry exactly what the counters saw
        assert_eq!(s.build_latency.count, 1, "recharges stay out of it");
        assert_eq!(s.eval_latency.count, 2);
        assert_eq!(s.build_histogram.sum_ns, 5_000_000);
        assert_eq!(s.eval_histogram.count, 2);
        assert!(s.eval_latency.p50_ms > 1.0 && s.eval_latency.p99_ms < 3.0);
        assert!((s.build_latency.max_ms - 5.0).abs() < 1e-9);
        // one plan, one dataset in the breakdowns
        assert_eq!(s.per_plan.len(), 1);
        assert_eq!(s.per_plan[0].dataset, 0);
        assert_eq!(s.per_plan[0].builds, 1);
        assert_eq!(s.per_plan[0].batches, 2);
        assert_eq!(s.per_plan[0].requests, 10);
        assert_eq!(s.per_plan[0].points, 1000);
        assert_eq!(s.per_plan[0].eval.count, 2);
        assert_eq!(s.per_dataset.len(), 1);
        assert_eq!(s.per_dataset[0].plans, 1);
        assert_eq!(s.per_dataset[0].eval.count, 2);
        // engine-phase spans were ringed: 1 build + 1 recharge + 2 batches
        assert_eq!(c.spans().len(), 4);
        let text = format!("{s}");
        assert!(text.contains("hit rate"));
        assert!(text.contains("admission"));
        assert!(text.contains("latency ms"));
    }

    #[test]
    fn breakdowns_separate_plans_and_aggregate_datasets() {
        let c = StatsCollector::default();
        c.record_build(key(0, 4), Duration::from_millis(1));
        c.record_build(key(0, 5), Duration::from_millis(1));
        c.record_build(key(1, 4), Duration::from_millis(1));
        c.record_batch(key(0, 4), 1, 10, Duration::from_micros(100));
        c.record_batch(key(0, 5), 2, 20, Duration::from_micros(200));
        let s = c.snapshot(Gauges::default());
        assert_eq!(s.per_plan.len(), 3);
        // sorted by (dataset, plan): dataset 1 comes last
        assert_eq!(s.per_plan[2].dataset, 1);
        assert_eq!(s.per_dataset.len(), 2);
        assert_eq!(s.per_dataset[0].dataset, 0);
        assert_eq!(s.per_dataset[0].plans, 2);
        assert_eq!(s.per_dataset[0].requests, 3);
        assert_eq!(s.per_dataset[0].points, 30);
        assert_eq!(s.per_dataset[0].eval.count, 2);
        assert_eq!(s.per_dataset[1].dataset, 1);
        assert_eq!(s.per_dataset[1].plans, 1);
        assert_eq!(s.per_dataset[1].eval.count, 0);
    }

    #[test]
    fn retiring_a_dataset_drops_its_rows_and_only_its_rows() {
        let c = StatsCollector::default();
        c.record_build(key(0, 4), Duration::from_millis(1));
        c.record_batch(key(0, 5), 1, 10, Duration::from_micros(100));
        c.record_build(key(1, 4), Duration::from_millis(1));
        c.record_retired();
        c.forget_dataset(DatasetId(0));
        let s = c.snapshot(Gauges {
            shared_operator_bytes: 4096,
            ..Gauges::default()
        });
        assert_eq!(s.datasets_retired, 1);
        assert_eq!(s.shared_operator_bytes, 4096);
        assert_eq!(s.per_plan.len(), 1);
        assert_eq!(s.per_plan[0].dataset, 1);
        assert_eq!(s.per_dataset.len(), 1);
        // the global counters keep their history
        assert_eq!(s.plan_builds, 2);
        assert_eq!(s.batches, 1);
    }

    #[test]
    fn route_counters_split_by_backend() {
        let c = StatsCollector::default();
        c.record_route(Backend::Treecode);
        c.record_route(Backend::Treecode);
        c.record_route(Backend::Fmm);
        c.record_route(Backend::Direct);
        let s = c.snapshot(Gauges::default());
        assert_eq!(s.routed_treecode, 2);
        assert_eq!(s.routed_fmm, 1);
        assert_eq!(s.routed_direct, 1);
    }

    #[test]
    fn slow_queries_cross_the_threshold() {
        let c = StatsCollector::with_slow_threshold(Duration::from_millis(10));
        let ds = DatasetId(3);
        c.record_request(ds, 50, Duration::from_millis(2), Duration::ZERO);
        assert_eq!(c.slow_queries().len(), 0);
        c.record_request(ds, 80, Duration::from_millis(12), Duration::from_millis(4));
        let slow = c.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].dataset, 3);
        assert_eq!(slow[0].points, 80);
        assert_eq!(slow[0].total_ns, 12_000_000);
        assert_eq!(slow[0].wait_ns, 4_000_000);
        let s = c.snapshot(Gauges::default());
        assert_eq!(s.query_latency.count, 2);
        assert_eq!(s.slow_queries, 1);
    }

    #[test]
    fn admission_waits_feed_histogram_but_zero_waits_emit_no_span() {
        let c = StatsCollector::default();
        c.record_admission_wait(Duration::ZERO);
        c.record_admission_wait(Duration::from_millis(3));
        let s = c.snapshot(Gauges::default());
        assert_eq!(s.admission_wait.count, 2);
        assert!((s.admission_wait.max_ms - 3.0).abs() < 1e-9);
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, Phase::AdmissionWait);
    }

    #[test]
    fn fanout_counters_and_histogram_roll_up() {
        use crate::fanout::FanoutBreakdown;
        let c = StatsCollector::default();
        let fan = FanoutBreakdown {
            global_shortcuts: 5,
            skeleton_evals: 11,
            opens: 2,
            per_shard: Vec::new(),
        };
        c.record_fanout(&fan, Duration::from_millis(3));
        c.record_fanout(&fan, Duration::from_millis(1));
        let s = c.snapshot(Gauges {
            skeletons: 2,
            skeleton_bytes: 512,
            ..Gauges::default()
        });
        assert_eq!(s.sharded_queries, 2);
        assert_eq!(s.global_shortcuts, 10);
        assert_eq!(s.skeleton_evals, 22);
        assert_eq!(s.shard_opens, 4);
        assert_eq!(s.skeletons, 2);
        assert_eq!(s.skeleton_bytes, 512);
        assert_eq!(s.fanout_latency.count, 2);
        assert_eq!(s.fanout_histogram.sum_ns, 4_000_000);
        let spans = c.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|sp| sp.phase == Phase::ShardFanout));
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let s = EngineStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mean_batch(), 0.0);
        assert_eq!(s.query_latency, LatencySummary::default());
        assert!(s.per_plan.is_empty());
    }
}
