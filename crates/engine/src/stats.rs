//! Engine observability.
//!
//! Everything the engine counts is declared **once**, in the
//! `engine_metrics!` table below: a row names the [`EngineStats`] field,
//! its JSON group and key, its Prometheus series (counter or gauge, with
//! help text) — or says why one format lacks it. The macro derives from
//! the rows the snapshot struct, the [`Metric`] index of the collector's
//! counter array, the snapshot assembly, and the [`SCALARS`] /
//! [`DISTRIBUTIONS`] tables that [`crate::export`] walks to write both
//! documents. Adding a counter is one row plus its
//! [`StatsCollector::bump`] call site.
//!
//! [`StatsCollector`] is the write side: one array of atomics and
//! fixed-bucket [`Histogram`]s bumped from the hot paths (no allocation;
//! the only lock guards the per-plan breakdown and is taken once per
//! *build* or *batch*, never per point). [`EngineStats`] is the read
//! side: a plain owned struct snapshotted on demand.
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

use crate::export::{prom, Column, Distribution, Value};
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

/// How a scalar of each field type is read out of its `u64` slot and
/// handed to the exporters.
trait Scalar: Copy {
    fn from_slot(raw: u64) -> Self;
    fn value(self) -> Value;
}

impl Scalar for u64 {
    fn from_slot(raw: u64) -> u64 {
        raw
    }
    fn value(self) -> Value {
        Value::U64(self)
    }
}

impl Scalar for usize {
    fn from_slot(raw: u64) -> usize {
        raw as usize
    }
    fn value(self) -> Value {
        Value::U64(self as u64)
    }
}

/// The `f64` scalars are nanosecond totals, read out in seconds.
impl Scalar for f64 {
    fn from_slot(raw: u64) -> f64 {
        raw as f64 * 1e-9
    }
    fn value(self) -> Value {
        Value::F64(self)
    }
}

/// Declares the engine's metrics. Per scalar row:
/// `/// doc` `field: type => "json key" [counter|gauge "prometheus name"
/// "help"];` inside its JSON group (`""` is the document root), or
/// `[json_only]` with the reason in a comment; an `f64` field is a
/// nanosecond total read out in seconds (see [`Scalar`]). Per latency
/// row: the digest field, the raw-bucket field, then the JSON key, the
/// Prometheus base name and the help text (see [`Distribution`]).
macro_rules! engine_metrics {
    (
        scalars { $( $group:literal { $(
            $(#[$doc:meta])* $field:ident: $ty:ty => $key:literal $prom:tt;
        )* } )* }
        latencies { $(
            $(#[$ddoc:meta])* $digest:ident, $(#[$bdoc:meta])* $buckets:ident
                => $lkey:literal, $base:literal, $help:literal;
        )* }
    ) => {
        /// The index of one scalar in the collector's counter array —
        /// the argument of [`StatsCollector::bump`], `add` and `max`.
        /// Slots the collector does not count itself (gauges the engine
        /// supplies, values read off the ring, the slow log and the
        /// histograms) stay zero there and are filled at snapshot time.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Metric { $($( $field, )*)* }

        const METRICS: usize = [$($( Metric::$field, )*)*].len();

        /// The index of one latency distribution in the collector's
        /// histogram array.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy)]
        enum Latency { $( $digest, )* }

        const LATENCIES: usize = [$( Latency::$digest, )*].len();

        /// A point-in-time view of everything the engine counts. Plain
        /// data — `Clone`, no atomics, no locks — so exporters can hold
        /// or diff snapshots freely. [`EngineStats::to_prometheus`] and
        /// [`EngineStats::to_json`] (in `export.rs`) serialise it.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct EngineStats {
            $($( $(#[$doc])* pub $field: $ty, )*)*
            $( $(#[$ddoc])* pub $digest: LatencySummary, )*
            $( $(#[$bdoc])* pub $buckets: HistogramSnapshot, )*
            /// Per-plan work breakdown, sorted by `(dataset, plan)`.
            pub per_plan: Vec<PlanBreakdown>,
            /// Per-dataset aggregate, sorted by dataset id.
            pub per_dataset: Vec<DatasetBreakdown>,
            /// Per-tenant accounts (weights, admissions, sheds, budget
            /// charges), sorted by tenant id. Empty until a request
            /// names a tenant.
            pub per_tenant: Vec<TenantBreakdown>,
        }

        impl EngineStats {
            /// One value per [`Metric`] and one histogram per
            /// [`Latency`], as the snapshot's fields. The engine owns the
            /// tenant table and splices `per_tenant` in afterwards.
            fn assemble(
                slots: &[u64; METRICS],
                histograms: [HistogramSnapshot; LATENCIES],
                per_plan: Vec<PlanBreakdown>,
                per_dataset: Vec<DatasetBreakdown>,
            ) -> EngineStats {
                let [$( $buckets, )*] = histograms;
                EngineStats {
                    $($( $field: <$ty as Scalar>::from_slot(slots[Metric::$field as usize]), )*)*
                    $( $digest: LatencySummary::of(&$buckets), $buckets, )*
                    per_plan,
                    per_dataset,
                    per_tenant: Vec::new(),
                }
            }
        }

        /// Every scalar, by JSON group, in declaration order.
        pub(crate) static SCALARS: &[(&str, &[Column<EngineStats>])] = &[$(
            ($group, &[$( Column {
                key: $key,
                get: |s| s.$field.value(),
                prom: prom!($prom),
            }, )*]),
        )*];

        /// The five latency distributions, in declaration order.
        pub(crate) static DISTRIBUTIONS: &[Distribution] = &[$( Distribution {
            key: $lkey,
            base: $base,
            help: $help,
            digest: |s| &s.$digest,
            buckets: |s| &s.$buckets,
        }, )*];
    };
}

engine_metrics! {
    scalars {
        "cache" {
            /// Queries served from a resident plan.
            cache_hits: u64 => "hits"
                [counter "mbt_cache_hits_total" "Queries served from a resident plan"];
            /// Queries that found no resident plan at their dataset's
            /// charge epoch and led a build or a recharge (`plan_builds`
            /// + `plan_recharges`, plus any that failed).
            cache_misses: u64 => "misses"
                [counter "mbt_cache_misses_total" "Queries that led a plan build or recharge"];
            /// Queries that found a build already in flight and waited
            /// for it (single-flight coalescing).
            coalesced_misses: u64 => "coalesced_misses" [counter
                "mbt_cache_coalesced_misses_total" "Queries that waited on an in-flight build"];
            /// Plans actually built — geometry builds; recharges are not
            /// among them.
            plan_builds: u64 => "plan_builds"
                [counter "mbt_plan_builds_total" "Plans actually built"];
            /// Resident plans carried to another charge epoch over their
            /// cached geometry (after [`crate::Engine::update_charges`])
            /// instead of being built.
            plan_recharges: u64 => "plan_recharges" [counter "mbt_plan_recharges_total"
                "Resident plans carried to a new charge epoch over cached geometry"];
            /// Total wall time spent building plans.
            // json_only: Prometheus carries it as mbt_build_latency_seconds_sum
            build_seconds: f64 => "build_seconds" [json_only];
            /// Plans evicted to respect the byte budget.
            evictions: u64 => "evictions"
                [counter "mbt_plan_evictions_total" "Plans evicted for the byte budget"];
            /// Total bytes of evicted plans.
            evicted_bytes: u64 => "evicted_bytes"
                [counter "mbt_evicted_bytes_total" "Bytes of evicted plans"];
            /// Plans currently resident in the cache.
            resident_plans: usize => "resident_plans"
                [gauge "mbt_resident_plans" "Plans resident in the cache"];
            /// Bytes currently resident in the cache.
            resident_bytes: usize => "resident_bytes"
                [gauge "mbt_resident_bytes" "Bytes resident in the cache"];
            /// The cache byte budget.
            cache_budget_bytes: usize => "budget_bytes"
                [gauge "mbt_cache_budget_bytes" "Plan-cache byte budget"];
            /// Heap bytes of the process-wide FMM unit operator tables —
            /// shared by every engine in the process, owned by no plan,
            /// outside the cache budget
            /// ([`mbt_fmm::shared_operator_bytes`]).
            shared_operator_bytes: usize => "shared_operator_bytes"
                [gauge "mbt_shared_operator_bytes"
                "Process-wide FMM unit operator tables, outside the cache budget"];
        }
        "eval" {
            /// Batched evaluation sweeps executed.
            batches: u64 => "batches" [counter "mbt_batches_total" "Evaluation sweeps executed"];
            /// Requests that rode in those sweeps.
            batched_requests: u64 => "batched_requests"
                [counter "mbt_batched_requests_total" "Requests served by those sweeps"];
            /// Largest number of requests one `query_batch` group swept at once.
            max_batch: u64 => "max_batch" [gauge "mbt_max_batch" "Largest sweep"];
            /// Total observation points evaluated.
            eval_points: u64 => "points"
                [counter "mbt_eval_points_total" "Observation points evaluated"];
            /// Total wall time spent in evaluation sweeps.
            // json_only: Prometheus carries it as mbt_eval_latency_seconds_sum
            eval_seconds: f64 => "eval_seconds" [json_only];
            /// Requests no pipeline stage answered (surfaced as
            /// [`crate::EngineError::WorkerPanicked`]).
            worker_panics: u64 => "worker_panics" [counter "mbt_worker_panics_total"
                "Requests no pipeline stage answered (answered WorkerPanicked)"];
        }
        "admission" {
            /// Requests admitted past the gate.
            admitted: u64 => "admitted"
                [counter "mbt_admitted_total" "Requests admitted past the gate"];
            /// Requests shed because the queue was full.
            shed_overload: u64 => "shed_overload"
                [counter "mbt_shed_overload_total" "Requests shed on a full queue"];
            /// Requests shed because their deadline expired while queued.
            shed_deadline: u64 => "shed_deadline"
                [counter "mbt_shed_deadline_total" "Requests shed on an expired deadline"];
            /// Requests shed because their tenant exhausted a configured
            /// budget.
            shed_quota: u64 => "shed_quota"
                [counter "mbt_shed_quota_total" "Requests shed on an exhausted tenant budget"];
            /// Requests currently being evaluated.
            in_flight: usize => "in_flight"
                [gauge "mbt_in_flight" "Requests currently evaluating"];
            /// Requests currently waiting for an evaluation slot.
            queue_depth: usize => "queue_depth"
                [gauge "mbt_queue_depth" "Requests waiting for a slot"];
            /// Largest queue depth observed.
            queue_peak: u64 => "queue_peak"
                [gauge "mbt_queue_peak" "Largest observed queue depth"];
        }
        "sharding" {
            /// Queries (or batch groups) served through the sharded
            /// fan-out path.
            sharded_queries: u64 => "queries" [counter "mbt_sharded_queries_total"
                "Queries served through the sharded fan-out path"];
            /// Fan-out routing decisions answered entirely by the global
            /// aggregate expansion (one evaluation instead of `k`).
            global_shortcuts: u64 => "global_shortcuts" [counter "mbt_global_shortcuts_total"
                "Fan-out decisions answered by the global aggregate expansion"];
            /// Fan-out `(point, shard)` pairs answered by a shard's
            /// skeleton summary without opening the shard's plan.
            skeleton_evals: u64 => "skeleton_evals" [counter "mbt_skeleton_evals_total"
                "Point-shard pairs answered by a skeleton summary"];
            /// Fan-out `(point, shard)` pairs that had to open the shard's
            /// plan because the error bound refused the skeleton summary.
            shard_opens: u64 => "shard_opens" [counter "mbt_shard_opens_total"
                "Point-shard pairs that opened the shard's plan"];
            /// Global skeletons currently cached.
            skeletons: usize => "skeletons"
                [gauge "mbt_skeletons" "Global skeletons currently cached"];
            /// Heap bytes held by those skeletons.
            skeleton_bytes: usize => "skeleton_bytes"
                [gauge "mbt_skeleton_bytes" "Heap bytes held by cached skeletons"];
        }
        "routing" {
            /// Requests the router sent to the direct-summation backend.
            routed_direct: u64 => "direct"
                [counter "mbt_routed_direct_total" "Requests routed to direct summation"];
            /// Requests the router sent to the treecode backend.
            routed_treecode: u64 => "treecode" [counter "mbt_routed_treecode_total"
                "Requests routed to the compiled treecode backend"];
            /// Requests the router sent to the compiled-FMM backend.
            routed_fmm: u64 => "fmm"
                [counter "mbt_routed_fmm_total" "Requests routed to the compiled FMM backend"];
        }
        "" {
            /// Registered datasets.
            datasets: usize => "datasets" [gauge "mbt_datasets" "Registered datasets"];
            /// Datasets unregistered ([`crate::Engine::unregister`]); their
            /// plans left the cache as retirements, not evictions.
            datasets_retired: u64 => "datasets_retired"
                [counter "mbt_datasets_retired_total" "Datasets unregistered"];
            /// Requests that crossed the slow-query threshold.
            slow_queries: u64 => "slow_queries"
                [counter "mbt_slow_queries_total" "Requests past the slow-query threshold"];
            /// Engine-phase spans dropped by the bounded ring under
            /// contention.
            spans_dropped: u64 => "spans_dropped" [counter "mbt_spans_dropped_total"
                "Engine-phase spans dropped by the bounded ring"];
            /// Seqlock validation retries taken while snapshotting the
            /// span ring (a reader raced a writer mid-slot and re-read it).
            span_read_retries: u64 => "span_read_retries" [counter "mbt_span_read_retries_total"
                "Seqlock validation retries while snapshotting the span ring"];
        }
    }
    latencies {
        /// Plan-build latency digest.
        build_latency,
        /// Raw plan-build latency buckets.
        build_histogram => "build", "mbt_build_latency", "Plan-build wall time";
        /// Evaluation-sweep latency digest.
        eval_latency,
        /// Raw evaluation-sweep latency buckets.
        eval_histogram => "eval", "mbt_eval_latency", "Evaluation-sweep wall time";
        /// End-to-end request latency digest (admission → response).
        query_latency,
        /// Raw end-to-end request latency buckets.
        query_histogram => "query", "mbt_query_latency", "End-to-end request wall time";
        /// Admission-queue wait digest (zeros dominate when uncontended).
        admission_wait,
        /// Raw admission-wait buckets.
        wait_histogram => "admission_wait", "mbt_admission_wait", "Admission-queue wait";
        /// Sharded fan-out latency digest (routing + shard sweeps +
        /// reduce).
        fanout_latency,
        /// Raw sharded fan-out latency buckets.
        fanout_histogram => "fanout", "mbt_fanout_latency", "Sharded fan-out wall time";
    }
}

/// Per-plan running totals, guarded by the collector's mutex.
#[derive(Debug, Default)]
struct PlanCounters {
    dataset: u64,
    builds: u64,
    build_ns: u64,
    batches: u64,
    requests: u64,
    points: u64,
    eval: Histogram,
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
    /// One slot per [`Metric`].
    counters: [AtomicU64; METRICS],
    /// One histogram per [`Latency`].
    latencies: [Histogram; LATENCIES],
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
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latencies: std::array::from_fn(|_| Histogram::new()),
            spans: RingRecorder::new(SPAN_RING_CAPACITY),
            slow: SlowLog::new(SLOW_LOG_CAPACITY),
            slow_threshold_ns: saturating_ns(slow_threshold),
            per_plan: Mutex::new(HashMap::new()),
        }
    }

    /// Adds `by` to a monotonic counter.
    pub(crate) fn add(&self, metric: Metric, by: u64) {
        // ordering: Relaxed — independent monotonic counter; no data is published through it
        self.counters[metric as usize].fetch_add(by, Ordering::Relaxed);
    }

    /// Adds one to a monotonic counter.
    pub(crate) fn bump(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Raises a running maximum to at least `seen`.
    pub(crate) fn max(&self, metric: Metric, seen: u64) {
        // ordering: Relaxed — running maximum; the RMW itself is atomic, order against other counters is irrelevant
        self.counters[metric as usize].fetch_max(seen, Ordering::Relaxed);
    }

    fn observe(&self, latency: Latency, took: Duration) {
        self.latencies[latency as usize].record(took);
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

    /// Updates `key`'s row of the per-plan breakdown under its lock.
    fn with_plan(&self, key: PlanKey, update: impl FnOnce(&mut PlanCounters)) {
        let mut plans = self.per_plan.lock().unwrap_or_else(PoisonError::into_inner);
        update(plans.entry(key).or_insert_with(|| PlanCounters {
            dataset: key.dataset().0,
            ..PlanCounters::default()
        }));
    }

    /// One geometry build of `key`'s plan.
    pub(crate) fn record_build(&self, key: PlanKey, took: Duration) {
        self.bump(Metric::plan_builds);
        self.observe(Latency::build_latency, took);
        self.emit_span(Phase::PlanBuild, took);
        self.with_plan(key, |plan| {
            plan.builds += 1;
            plan.build_ns += saturating_ns(took);
        });
    }

    /// One resident plan carried to another charge epoch. Counted apart
    /// from builds (`plan_builds` and the build histogram are geometry
    /// builds only); the time shows as a [`Phase::PlanBuild`] span.
    pub(crate) fn record_recharge(&self, took: Duration) {
        self.bump(Metric::plan_recharges);
        self.emit_span(Phase::PlanBuild, took);
    }

    /// Drops the per-plan rows of a retired `dataset` (idempotent), so a
    /// long-running engine's breakdown tracks live datasets only.
    pub(crate) fn forget_dataset(&self, dataset: DatasetId) {
        self.per_plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|key, _| key.dataset() != dataset);
    }

    /// One plan of `bytes` evicted for the byte budget.
    pub(crate) fn record_eviction(&self, bytes: usize) {
        self.bump(Metric::evictions);
        self.add(Metric::evicted_bytes, bytes as u64);
    }

    /// One evaluation sweep against `key`'s plan.
    pub(crate) fn record_batch(
        &self,
        key: PlanKey,
        requests: usize,
        points: usize,
        took: Duration,
    ) {
        self.bump(Metric::batches);
        self.add(Metric::batched_requests, requests as u64);
        self.max(Metric::max_batch, requests as u64);
        self.add(Metric::eval_points, points as u64);
        self.observe(Latency::eval_latency, took);
        self.emit_span(Phase::BatchExecute, took);
        self.with_plan(key, |plan| {
            plan.batches += 1;
            plan.requests += requests as u64;
            plan.points += points as u64;
            plan.eval.record(took);
        });
    }

    /// One backend routing decision (one per request, batched or not).
    pub(crate) fn record_route(&self, backend: Backend) {
        self.bump(match backend {
            Backend::Direct => Metric::routed_direct,
            Backend::Treecode => Metric::routed_treecode,
            Backend::Fmm => Metric::routed_fmm,
        });
    }

    /// One sharded fan-out: its routing counters (per-tier interaction
    /// decisions summed over the fan-out's points × shards) plus its
    /// end-to-end latency.
    pub(crate) fn record_fanout(&self, fan: &FanoutBreakdown, took: Duration) {
        self.bump(Metric::sharded_queries);
        self.add(Metric::global_shortcuts, fan.global_shortcuts);
        self.add(Metric::skeleton_evals, fan.skeleton_evals);
        self.add(Metric::shard_opens, fan.opens);
        self.observe(Latency::fanout_latency, took);
        self.emit_span(Phase::ShardFanout, took);
    }

    /// Time a request spent queued at the admission gate (zero for
    /// fast-path admissions, which emit no span).
    pub(crate) fn record_admission_wait(&self, waited: Duration) {
        self.observe(Latency::admission_wait, waited);
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
        self.observe(Latency::query_latency, total);
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

    /// Recent engine-phase spans (admission wait, plan build, batch
    /// execute), oldest first.
    pub(crate) fn spans(&self) -> Vec<Span> {
        self.spans.spans()
    }

    /// Recent queries slower than the configured threshold.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.entries()
    }

    /// Snapshot of everything counted here, plus `gauges`: the values
    /// of the metrics the engine reads off the structures it owns
    /// (`queue_depth`, `in_flight`, cache residency, dataset count, …).
    pub(crate) fn snapshot(&self, gauges: &[(Metric, usize)]) -> EngineStats {
        let mut slots: [u64; METRICS] = std::array::from_fn(|i| {
            // ordering: Relaxed — statistical snapshot; counters are independent, slight skew between them is acceptable
            self.counters[i].load(Ordering::Relaxed)
        });
        let histograms: [HistogramSnapshot; LATENCIES] =
            std::array::from_fn(|i| self.latencies[i].snapshot());
        slots[Metric::build_seconds as usize] = histograms[Latency::build_latency as usize].sum_ns;
        slots[Metric::eval_seconds as usize] = histograms[Latency::eval_latency as usize].sum_ns;
        slots[Metric::slow_queries as usize] = self.slow.recorded();
        slots[Metric::spans_dropped as usize] = self.spans.dropped();
        slots[Metric::span_read_retries as usize] = self.spans.read_retries();
        for &(metric, value) in gauges {
            slots[metric as usize] = value as u64;
        }

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

        EngineStats::assemble(&slots, histograms, per_plan, per_dataset)
    }
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
        c.bump(Metric::cache_hits);
        c.bump(Metric::cache_hits);
        c.bump(Metric::cache_misses);
        c.bump(Metric::coalesced_misses);
        c.record_build(key(0, 4), Duration::from_millis(5));
        c.record_eviction(1024);
        c.record_recharge(Duration::from_millis(1));
        c.record_batch(key(0, 4), 3, 300, Duration::from_millis(2));
        c.record_batch(key(0, 4), 7, 700, Duration::from_millis(2));
        c.bump(Metric::admitted);
        c.bump(Metric::shed_overload);
        c.bump(Metric::shed_deadline);
        c.bump(Metric::shed_quota);
        c.bump(Metric::worker_panics);
        c.max(Metric::queue_peak, 4);
        c.max(Metric::queue_peak, 2);
        let s = c.snapshot(&[
            (Metric::resident_plans, 1),
            (Metric::resident_bytes, 4096),
            (Metric::cache_budget_bytes, 1 << 20),
            (Metric::datasets, 2),
            (Metric::in_flight, 1),
        ]);
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
        let s = c.snapshot(&[]);
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
        c.bump(Metric::datasets_retired);
        c.forget_dataset(DatasetId(0));
        let s = c.snapshot(&[(Metric::shared_operator_bytes, 4096)]);
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
        let s = c.snapshot(&[]);
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
        let s = c.snapshot(&[]);
        assert_eq!(s.query_latency.count, 2);
        assert_eq!(s.slow_queries, 1);
    }

    #[test]
    fn admission_waits_feed_histogram_but_zero_waits_emit_no_span() {
        let c = StatsCollector::default();
        c.record_admission_wait(Duration::ZERO);
        c.record_admission_wait(Duration::from_millis(3));
        let s = c.snapshot(&[]);
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
        let s = c.snapshot(&[(Metric::skeletons, 2), (Metric::skeleton_bytes, 512)]);
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
