//! Serialisation of [`EngineStats`] to Prometheus text and JSON.
//!
//! Both exporters are pure functions of a snapshot — they never touch
//! the collector — and both are built on the zero-dependency writers in
//! [`mbt_obs`]. The outputs are checked against `mbt_obs`'s validators
//! here and in `engine_bench --smoke`, keeping the hand-rolled encoders
//! honest without pulling a serialisation crate into the workspace.

use mbt_obs::{bucket_lower_ns, HistogramSnapshot, JsonWriter, PromWriter, BUCKETS};

use crate::stats::{EngineStats, LatencySummary};

fn summary_json(w: &mut JsonWriter, key: &str, s: &LatencySummary) {
    w.begin_object_field(key);
    w.field_u64("count", s.count);
    w.field_f64("mean_ms", s.mean_ms);
    w.field_f64("p50_ms", s.p50_ms);
    w.field_f64("p95_ms", s.p95_ms);
    w.field_f64("p99_ms", s.p99_ms);
    w.field_f64("max_ms", s.max_ms);
    w.end_object();
}

fn histogram_json(w: &mut JsonWriter, key: &str, h: &HistogramSnapshot) {
    w.begin_object_field(key);
    w.field_u64("count", h.count);
    w.field_u64("sum_ns", h.sum_ns);
    w.field_u64("max_ns", h.max_ns);
    // sparse: only occupied buckets, as (index, lower bound, count)
    w.begin_array_field("buckets");
    for (k, &c) in h.counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        w.begin_object();
        w.field_u64("bucket", k as u64);
        w.field_f64("lower_ns", bucket_lower_ns(k));
        w.field_u64("count", c);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// Cumulative-bucket Prometheus histogram. Leading empty buckets are
/// skipped and emission stops once the cumulative count is complete, so
/// the text stays proportional to the occupied latency range.
fn prom_histogram(w: &mut PromWriter, name: &str, help: &str, h: &HistogramSnapshot) {
    w.help(name, help);
    w.typ(name, "histogram");
    let bucket = format!("{name}_bucket");
    let mut cum = 0u64;
    for (k, &c) in h.counts.iter().enumerate() {
        if cum >= h.count {
            break;
        }
        if cum == 0 && c == 0 {
            continue;
        }
        cum += c;
        debug_assert!(k < BUCKETS);
        let le = format!("{:e}", bucket_lower_ns(k + 1) * 1e-9);
        w.sample(&bucket, &[("le", &le)], cum as f64);
    }
    w.sample(&bucket, &[("le", "+Inf")], h.count as f64);
    w.sample(&format!("{name}_sum"), &[], h.sum_ns as f64 * 1e-9);
    w.sample(&format!("{name}_count"), &[], h.count as f64);
}

fn prom_quantiles(w: &mut PromWriter, base: &str, help: &str, s: &LatencySummary) {
    for (suffix, ms) in [("p50", s.p50_ms), ("p95", s.p95_ms), ("p99", s.p99_ms)] {
        let name = format!("{base}_{suffix}_seconds");
        w.help(&name, help);
        w.typ(&name, "gauge");
        w.sample(&name, &[], ms * 1e-3);
    }
}

fn prom_counter(w: &mut PromWriter, name: &str, help: &str, v: u64) {
    w.help(name, help);
    w.typ(name, "counter");
    w.sample(name, &[], v as f64);
}

fn prom_gauge(w: &mut PromWriter, name: &str, help: &str, v: f64) {
    w.help(name, help);
    w.typ(name, "gauge");
    w.sample(name, &[], v);
}

impl EngineStats {
    /// The snapshot as one JSON object: counters, gauges, p50/p95/p99
    /// latency digests, raw histogram buckets, and the per-plan /
    /// per-dataset breakdowns. Guaranteed to satisfy
    /// [`mbt_obs::json_is_valid`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();

        w.begin_object_field("cache");
        w.field_u64("hits", self.cache_hits);
        w.field_u64("misses", self.cache_misses);
        w.field_u64("coalesced_misses", self.coalesced_misses);
        w.field_f64("hit_rate", self.hit_rate());
        w.field_u64("plan_builds", self.plan_builds);
        w.field_u64("plan_recharges", self.plan_recharges);
        w.field_f64("build_seconds", self.build_seconds);
        w.field_u64("evictions", self.evictions);
        w.field_u64("evicted_bytes", self.evicted_bytes);
        w.field_u64("resident_plans", self.resident_plans as u64);
        w.field_u64("resident_bytes", self.resident_bytes as u64);
        w.field_u64("budget_bytes", self.cache_budget_bytes as u64);
        w.field_u64("shared_operator_bytes", self.shared_operator_bytes as u64);
        w.end_object();

        w.begin_object_field("eval");
        w.field_u64("batches", self.batches);
        w.field_u64("batched_requests", self.batched_requests);
        w.field_f64("mean_batch", self.mean_batch());
        w.field_u64("max_batch", self.max_batch);
        w.field_u64("points", self.eval_points);
        w.field_f64("eval_seconds", self.eval_seconds);
        w.field_u64("worker_panics", self.worker_panics);
        w.end_object();

        w.begin_object_field("admission");
        w.field_u64("admitted", self.admitted);
        w.field_u64("shed_overload", self.shed_overload);
        w.field_u64("shed_deadline", self.shed_deadline);
        w.field_u64("shed_quota", self.shed_quota);
        w.field_u64("in_flight", self.in_flight as u64);
        w.field_u64("queue_depth", self.queue_depth as u64);
        w.field_u64("queue_peak", self.queue_peak);
        w.end_object();

        w.begin_object_field("sharding");
        w.field_u64("queries", self.sharded_queries);
        w.field_u64("global_shortcuts", self.global_shortcuts);
        w.field_u64("skeleton_evals", self.skeleton_evals);
        w.field_u64("shard_opens", self.shard_opens);
        w.field_u64("skeletons", self.skeletons as u64);
        w.field_u64("skeleton_bytes", self.skeleton_bytes as u64);
        w.end_object();

        w.begin_object_field("routing");
        w.field_u64("direct", self.routed_direct);
        w.field_u64("treecode", self.routed_treecode);
        w.field_u64("fmm", self.routed_fmm);
        w.end_object();

        w.field_u64("datasets", self.datasets as u64);
        w.field_u64("datasets_retired", self.datasets_retired);
        w.field_u64("slow_queries", self.slow_queries);
        w.field_u64("spans_dropped", self.spans_dropped);
        w.field_u64("span_read_retries", self.span_read_retries);

        w.begin_object_field("latency");
        summary_json(&mut w, "build", &self.build_latency);
        summary_json(&mut w, "eval", &self.eval_latency);
        summary_json(&mut w, "query", &self.query_latency);
        summary_json(&mut w, "admission_wait", &self.admission_wait);
        summary_json(&mut w, "fanout", &self.fanout_latency);
        w.end_object();

        w.begin_object_field("histograms");
        histogram_json(&mut w, "build", &self.build_histogram);
        histogram_json(&mut w, "eval", &self.eval_histogram);
        histogram_json(&mut w, "query", &self.query_histogram);
        histogram_json(&mut w, "admission_wait", &self.wait_histogram);
        histogram_json(&mut w, "fanout", &self.fanout_histogram);
        w.end_object();

        w.begin_array_field("per_plan");
        for p in &self.per_plan {
            w.begin_object();
            // hex string: JSON numbers lose u64 precision past 2^53
            w.field_str("plan", &format!("{:016x}", p.plan));
            w.field_u64("dataset", p.dataset);
            w.field_u64("builds", p.builds);
            w.field_f64("build_seconds", p.build_seconds);
            w.field_u64("batches", p.batches);
            w.field_u64("requests", p.requests);
            w.field_u64("points", p.points);
            summary_json(&mut w, "eval", &p.eval);
            w.end_object();
        }
        w.end_array();

        w.begin_array_field("per_dataset");
        for d in &self.per_dataset {
            w.begin_object();
            w.field_u64("dataset", d.dataset);
            w.field_u64("plans", d.plans as u64);
            w.field_u64("builds", d.builds);
            w.field_u64("batches", d.batches);
            w.field_u64("requests", d.requests);
            w.field_u64("points", d.points);
            summary_json(&mut w, "eval", &d.eval);
            w.end_object();
        }
        w.end_array();

        w.begin_array_field("tenants");
        for t in &self.per_tenant {
            w.begin_object();
            w.field_u64("tenant", u64::from(t.tenant));
            w.field_u64("weight", u64::from(t.weight));
            w.field_u64("requests", t.requests);
            w.field_u64("admitted", t.admitted);
            w.field_u64("shed", t.shed);
            w.field_u64("charged_plan_bytes", t.charged_plan_bytes);
            w.field_f64("charged_eval_ms", t.charged_eval_ms);
            if let Some(q) = t.plan_bytes_quota {
                w.field_u64("plan_bytes_quota", q);
            }
            if let Some(q) = t.eval_ms_quota {
                w.field_u64("eval_ms_quota", q);
            }
            w.end_object();
        }
        w.end_array();

        w.end_object();
        w.finish()
    }

    /// The snapshot in the Prometheus text exposition format: `mbt_`-
    /// prefixed counters and gauges, cumulative-bucket histograms for
    /// the four latency distributions, quantile gauges, and labelled
    /// per-dataset / per-plan series. Guaranteed to satisfy
    /// [`mbt_obs::prometheus_is_valid`].
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();

        prom_counter(
            &mut w,
            "mbt_cache_hits_total",
            "Queries served from a resident plan",
            self.cache_hits,
        );
        prom_counter(
            &mut w,
            "mbt_cache_misses_total",
            "Queries that led a plan build or recharge",
            self.cache_misses,
        );
        prom_counter(
            &mut w,
            "mbt_cache_coalesced_misses_total",
            "Queries that waited on an in-flight build",
            self.coalesced_misses,
        );
        prom_counter(
            &mut w,
            "mbt_plan_builds_total",
            "Plans actually built",
            self.plan_builds,
        );
        prom_counter(
            &mut w,
            "mbt_plan_recharges_total",
            "Resident plans carried to a new charge epoch over cached geometry",
            self.plan_recharges,
        );
        prom_counter(
            &mut w,
            "mbt_plan_evictions_total",
            "Plans evicted for the byte budget",
            self.evictions,
        );
        prom_counter(
            &mut w,
            "mbt_evicted_bytes_total",
            "Bytes of evicted plans",
            self.evicted_bytes,
        );
        prom_gauge(
            &mut w,
            "mbt_resident_plans",
            "Plans resident in the cache",
            self.resident_plans as f64,
        );
        prom_gauge(
            &mut w,
            "mbt_resident_bytes",
            "Bytes resident in the cache",
            self.resident_bytes as f64,
        );
        prom_gauge(
            &mut w,
            "mbt_cache_budget_bytes",
            "Plan-cache byte budget",
            self.cache_budget_bytes as f64,
        );
        prom_gauge(
            &mut w,
            "mbt_shared_operator_bytes",
            "Process-wide FMM unit operator tables, outside the cache budget",
            self.shared_operator_bytes as f64,
        );
        prom_gauge(
            &mut w,
            "mbt_datasets",
            "Registered datasets",
            self.datasets as f64,
        );
        prom_counter(
            &mut w,
            "mbt_datasets_retired_total",
            "Datasets unregistered",
            self.datasets_retired,
        );

        prom_counter(
            &mut w,
            "mbt_batches_total",
            "Evaluation sweeps executed",
            self.batches,
        );
        prom_counter(
            &mut w,
            "mbt_batched_requests_total",
            "Requests served by those sweeps",
            self.batched_requests,
        );
        prom_gauge(
            &mut w,
            "mbt_max_batch",
            "Largest coalesced sweep",
            self.max_batch as f64,
        );
        prom_counter(
            &mut w,
            "mbt_eval_points_total",
            "Observation points evaluated",
            self.eval_points,
        );

        prom_counter(
            &mut w,
            "mbt_admitted_total",
            "Requests admitted past the gate",
            self.admitted,
        );
        prom_counter(
            &mut w,
            "mbt_shed_overload_total",
            "Requests shed on a full queue",
            self.shed_overload,
        );
        prom_counter(
            &mut w,
            "mbt_shed_deadline_total",
            "Requests shed on an expired deadline",
            self.shed_deadline,
        );
        prom_gauge(
            &mut w,
            "mbt_in_flight",
            "Requests currently evaluating",
            self.in_flight as f64,
        );
        prom_gauge(
            &mut w,
            "mbt_queue_depth",
            "Requests waiting for a slot",
            self.queue_depth as f64,
        );
        prom_gauge(
            &mut w,
            "mbt_queue_peak",
            "Largest observed queue depth",
            self.queue_peak as f64,
        );
        prom_counter(
            &mut w,
            "mbt_shed_quota_total",
            "Requests shed on an exhausted tenant budget",
            self.shed_quota,
        );
        prom_counter(
            &mut w,
            "mbt_worker_panics_total",
            "Evaluation sweeps that panicked (answered WorkerPanicked)",
            self.worker_panics,
        );
        prom_counter(
            &mut w,
            "mbt_sharded_queries_total",
            "Queries served through the sharded fan-out path",
            self.sharded_queries,
        );
        prom_counter(
            &mut w,
            "mbt_global_shortcuts_total",
            "Fan-out decisions answered by the global aggregate expansion",
            self.global_shortcuts,
        );
        prom_counter(
            &mut w,
            "mbt_skeleton_evals_total",
            "Point-shard pairs answered by a skeleton summary",
            self.skeleton_evals,
        );
        prom_counter(
            &mut w,
            "mbt_shard_opens_total",
            "Point-shard pairs that opened the shard's plan",
            self.shard_opens,
        );
        prom_gauge(
            &mut w,
            "mbt_skeletons",
            "Global skeletons currently cached",
            self.skeletons as f64,
        );
        prom_gauge(
            &mut w,
            "mbt_skeleton_bytes",
            "Heap bytes held by cached skeletons",
            self.skeleton_bytes as f64,
        );
        prom_counter(
            &mut w,
            "mbt_routed_direct_total",
            "Requests routed to direct summation",
            self.routed_direct,
        );
        prom_counter(
            &mut w,
            "mbt_routed_treecode_total",
            "Requests routed to the compiled treecode backend",
            self.routed_treecode,
        );
        prom_counter(
            &mut w,
            "mbt_routed_fmm_total",
            "Requests routed to the compiled FMM backend",
            self.routed_fmm,
        );
        prom_counter(
            &mut w,
            "mbt_slow_queries_total",
            "Requests past the slow-query threshold",
            self.slow_queries,
        );
        prom_counter(
            &mut w,
            "mbt_spans_dropped_total",
            "Engine-phase spans dropped by the bounded ring",
            self.spans_dropped,
        );
        prom_counter(
            &mut w,
            "mbt_span_read_retries_total",
            "Seqlock validation retries while snapshotting the span ring",
            self.span_read_retries,
        );

        prom_histogram(
            &mut w,
            "mbt_build_latency_seconds",
            "Plan-build wall time",
            &self.build_histogram,
        );
        prom_histogram(
            &mut w,
            "mbt_eval_latency_seconds",
            "Evaluation-sweep wall time",
            &self.eval_histogram,
        );
        prom_histogram(
            &mut w,
            "mbt_query_latency_seconds",
            "End-to-end request wall time",
            &self.query_histogram,
        );
        prom_histogram(
            &mut w,
            "mbt_admission_wait_seconds",
            "Admission-queue wait",
            &self.wait_histogram,
        );
        prom_histogram(
            &mut w,
            "mbt_fanout_latency_seconds",
            "Sharded fan-out wall time",
            &self.fanout_histogram,
        );

        prom_quantiles(
            &mut w,
            "mbt_build_latency",
            "Plan-build latency quantile estimate",
            &self.build_latency,
        );
        prom_quantiles(
            &mut w,
            "mbt_eval_latency",
            "Evaluation-sweep latency quantile estimate",
            &self.eval_latency,
        );
        prom_quantiles(
            &mut w,
            "mbt_query_latency",
            "End-to-end request latency quantile estimate",
            &self.query_latency,
        );
        prom_quantiles(
            &mut w,
            "mbt_fanout_latency",
            "Sharded fan-out latency quantile estimate",
            &self.fanout_latency,
        );

        let names = [
            (
                "mbt_dataset_plans",
                "gauge",
                "Distinct plans serving the dataset",
            ),
            (
                "mbt_dataset_builds_total",
                "counter",
                "Plan builds for the dataset",
            ),
            (
                "mbt_dataset_requests_total",
                "counter",
                "Requests served for the dataset",
            ),
            (
                "mbt_dataset_points_total",
                "counter",
                "Points evaluated for the dataset",
            ),
            (
                "mbt_dataset_eval_p99_seconds",
                "gauge",
                "Per-dataset sweep p99 estimate",
            ),
        ];
        for (name, kind, help) in names {
            w.help(name, help);
            w.typ(name, kind);
        }
        for d in &self.per_dataset {
            let ds = d.dataset.to_string();
            let labels: &[(&str, &str)] = &[("dataset", &ds)];
            w.sample("mbt_dataset_plans", labels, d.plans as f64);
            w.sample("mbt_dataset_builds_total", labels, d.builds as f64);
            w.sample("mbt_dataset_requests_total", labels, d.requests as f64);
            w.sample("mbt_dataset_points_total", labels, d.points as f64);
            w.sample("mbt_dataset_eval_p99_seconds", labels, d.eval.p99_ms * 1e-3);
        }

        let names = [
            ("mbt_plan_builds", "counter", "Times the plan was (re)built"),
            (
                "mbt_plan_build_seconds_total",
                "counter",
                "Wall time building the plan",
            ),
            (
                "mbt_plan_requests_total",
                "counter",
                "Requests served by the plan",
            ),
            (
                "mbt_plan_points_total",
                "counter",
                "Points evaluated by the plan",
            ),
            (
                "mbt_plan_eval_p99_seconds",
                "gauge",
                "Per-plan sweep p99 estimate",
            ),
        ];
        for (name, kind, help) in names {
            w.help(name, help);
            w.typ(name, kind);
        }
        for p in &self.per_plan {
            let ds = p.dataset.to_string();
            let plan = format!("{:016x}", p.plan);
            let labels: &[(&str, &str)] = &[("dataset", &ds), ("plan", &plan)];
            w.sample("mbt_plan_builds", labels, p.builds as f64);
            w.sample("mbt_plan_build_seconds_total", labels, p.build_seconds);
            w.sample("mbt_plan_requests_total", labels, p.requests as f64);
            w.sample("mbt_plan_points_total", labels, p.points as f64);
            w.sample("mbt_plan_eval_p99_seconds", labels, p.eval.p99_ms * 1e-3);
        }

        let names = [
            (
                "mbt_tenant_weight",
                "gauge",
                "The tenant's fair-share weight",
            ),
            (
                "mbt_tenant_requests_total",
                "counter",
                "Requests the tenant presented",
            ),
            (
                "mbt_tenant_admitted_total",
                "counter",
                "Requests admitted for the tenant",
            ),
            (
                "mbt_tenant_shed_total",
                "counter",
                "Requests shed for the tenant (quota, overload, or deadline)",
            ),
            (
                "mbt_tenant_plan_bytes_total",
                "counter",
                "Plan-cache bytes the tenant's builds were billed",
            ),
            (
                "mbt_tenant_eval_seconds_total",
                "counter",
                "Evaluation wall time the tenant was billed",
            ),
        ];
        for (name, kind, help) in names {
            w.help(name, help);
            w.typ(name, kind);
        }
        for t in &self.per_tenant {
            let id = t.tenant.to_string();
            let labels: &[(&str, &str)] = &[("tenant", &id)];
            w.sample("mbt_tenant_weight", labels, f64::from(t.weight));
            w.sample("mbt_tenant_requests_total", labels, t.requests as f64);
            w.sample("mbt_tenant_admitted_total", labels, t.admitted as f64);
            w.sample("mbt_tenant_shed_total", labels, t.shed as f64);
            w.sample(
                "mbt_tenant_plan_bytes_total",
                labels,
                t.charged_plan_bytes as f64,
            );
            w.sample(
                "mbt_tenant_eval_seconds_total",
                labels,
                t.charged_eval_ms * 1e-3,
            );
        }

        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKey;
    use crate::registry::DatasetId;
    use crate::stats::{Gauges, StatsCollector};
    use mbt_obs::{json_is_valid, prometheus_is_valid};
    use mbt_treecode::TreecodeParams;
    use std::time::Duration;

    fn sample_stats() -> EngineStats {
        let c = StatsCollector::default();
        let k0 = PlanKey::new(DatasetId(0), &TreecodeParams::fixed(4, 0.6));
        let k1 = PlanKey::new(DatasetId(1), &TreecodeParams::adaptive(3, 0.7));
        c.record_hit();
        c.record_miss();
        c.record_build(k0, Duration::from_millis(5));
        c.record_build(k1, Duration::from_millis(2));
        c.record_recharge(Duration::from_millis(1));
        c.record_retired();
        c.record_batch(k0, 3, 120, Duration::from_micros(800));
        c.record_batch(k1, 1, 10, Duration::from_micros(90));
        c.record_request(DatasetId(0), 120, Duration::from_millis(1), Duration::ZERO);
        c.record_request(
            DatasetId(1),
            10,
            Duration::from_millis(400),
            Duration::from_millis(3),
        );
        c.record_admission_wait(Duration::ZERO);
        c.record_admission_wait(Duration::from_millis(3));
        c.record_route(crate::route::Backend::Treecode);
        c.record_route(crate::route::Backend::Treecode);
        c.record_route(crate::route::Backend::Fmm);
        c.record_route(crate::route::Backend::Direct);
        c.record_fanout(
            &crate::fanout::FanoutBreakdown {
                global_shortcuts: 4,
                skeleton_evals: 9,
                opens: 1,
                per_shard: Vec::new(),
            },
            Duration::from_millis(2),
        );
        c.record_shed_quota();
        c.record_worker_panic();
        let mut s = c.snapshot(Gauges {
            resident_plans: 2,
            resident_bytes: 1 << 20,
            cache_budget_bytes: 256 << 20,
            datasets: 2,
            in_flight: 0,
            queue_depth: 0,
            skeletons: 1,
            skeleton_bytes: 2048,
            shared_operator_bytes: 7 << 20,
        });
        // the engine splices the tenant table in the same way
        s.per_tenant = vec![crate::tenant::TenantBreakdown {
            tenant: 7,
            weight: 4,
            requests: 5,
            admitted: 4,
            shed: 1,
            charged_plan_bytes: 1024,
            charged_eval_ms: 2.5,
            plan_bytes_quota: Some(1 << 20),
            eval_ms_quota: None,
        }];
        s
    }

    #[test]
    fn json_export_parses_and_carries_latency_fields() {
        let s = sample_stats();
        let json = s.to_json();
        assert!(json_is_valid(&json), "invalid JSON: {json}");
        for needle in [
            "\"p50_ms\"",
            "\"p95_ms\"",
            "\"p99_ms\"",
            "\"per_plan\"",
            "\"per_dataset\"",
            "\"query\"",
            "\"admission_wait\"",
            "\"slow_queries\":1",
            "\"plan_recharges\":1",
            "\"datasets_retired\":1",
            "\"shared_operator_bytes\":7340032",
            "\"span_read_retries\":0",
            "\"sharding\"",
            "\"routing\"",
            "\"treecode\":2",
            "\"fmm\":1",
            "\"global_shortcuts\":4",
            "\"skeleton_evals\":9",
            "\"shard_opens\":1",
            "\"skeleton_bytes\":2048",
            "\"fanout\"",
            "\"shed_quota\":1",
            "\"worker_panics\":1",
            "\"tenants\"",
            "\"charged_plan_bytes\":1024",
            "\"plan_bytes_quota\":1048576",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn prometheus_export_parses_and_carries_series() {
        let s = sample_stats();
        let text = s.to_prometheus();
        assert!(prometheus_is_valid(&text), "invalid exposition:\n{text}");
        for needle in [
            "mbt_cache_hits_total 1",
            "mbt_build_latency_seconds_bucket",
            "le=\"+Inf\"",
            "mbt_build_latency_seconds_count 2",
            "mbt_query_latency_p99_seconds",
            "mbt_slow_queries_total 1",
            "mbt_plan_recharges_total 1",
            "mbt_datasets_retired_total 1",
            "mbt_shared_operator_bytes 7340032",
            "mbt_span_read_retries_total 0",
            "mbt_sharded_queries_total 1",
            "mbt_routed_treecode_total 2",
            "mbt_routed_fmm_total 1",
            "mbt_routed_direct_total 1",
            "mbt_global_shortcuts_total 4",
            "mbt_skeleton_evals_total 9",
            "mbt_shard_opens_total 1",
            "mbt_skeletons 1",
            "mbt_skeleton_bytes 2048",
            "mbt_fanout_latency_seconds_count 1",
            "mbt_fanout_latency_p99_seconds",
            "mbt_dataset_requests_total{dataset=\"0\"} 3",
            "mbt_plan_eval_p99_seconds{dataset=\"1\",plan=\"",
            "mbt_shed_quota_total 1",
            "mbt_worker_panics_total 1",
            "mbt_tenant_weight{tenant=\"7\"} 4",
            "mbt_tenant_admitted_total{tenant=\"7\"} 4",
            "mbt_tenant_shed_total{tenant=\"7\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_complete() {
        let s = sample_stats();
        let text = s.to_prometheus();
        // the +Inf bucket of every histogram equals its _count
        for name in [
            "mbt_build_latency_seconds",
            "mbt_eval_latency_seconds",
            "mbt_query_latency_seconds",
            "mbt_admission_wait_seconds",
            "mbt_fanout_latency_seconds",
        ] {
            let inf = format!("{name}_bucket{{le=\"+Inf\"}} ");
            let cnt = format!("{name}_count ");
            let inf_v: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix(&inf))
                .unwrap()
                .parse()
                .unwrap();
            let cnt_v: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix(&cnt))
                .unwrap()
                .parse()
                .unwrap();
            assert!((inf_v - cnt_v).abs() < 0.5, "{name}: {inf_v} vs {cnt_v}");
        }
    }

    #[test]
    fn empty_stats_still_export_validly() {
        let s = EngineStats::default();
        assert!(json_is_valid(&s.to_json()), "{}", s.to_json());
        assert!(
            prometheus_is_valid(&s.to_prometheus()),
            "{}",
            s.to_prometheus()
        );
    }
}
