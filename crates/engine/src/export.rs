//! Serialisation of [`EngineStats`] to Prometheus text and JSON.
//!
//! Both documents are walks over **one metric table**, so neither can
//! carry a number the other lacks. The table has three parts, each
//! declared once:
//!
//! - the scalars and the five latency distributions, declared next to
//!   the [`EngineStats`] fields they generate (`engine_metrics!` in
//!   [`crate::stats`]): field, JSON group and key, Prometheus name,
//!   counter-or-gauge, help text;
//! - the columns of the three labelled breakdowns (per dataset, per
//!   plan, per tenant), declared below;
//! - [`RATIOS`], the two quotients of exported counters.
//!
//! A row that one format deliberately lacks says so where it is
//! declared (`json_only`, with the reason beside it). Two differences
//! are shape, not content. Units: JSON keeps the milliseconds its keys
//! name, Prometheus converts to base-unit seconds
//! ([`Value::Millis`]). Buckets: JSON lists a distribution's occupied
//! raw buckets sparsely, Prometheus the same counts as the cumulative
//! `le` buckets its histogram type defines.
//!
//! Both exporters are pure functions of a snapshot — they never touch
//! the collector — built on the zero-dependency writers in [`mbt_obs`]
//! and checked against its validators by the table-walking test below,
//! which also pins every JSON path and `# TYPE` line by name.

use mbt_obs::{bucket_lower_ns, HistogramSnapshot, JsonWriter, PromWriter, BUCKETS};

use crate::stats::{
    DatasetBreakdown, EngineStats, LatencySummary, PlanBreakdown, DISTRIBUTIONS, SCALARS,
};
use crate::tenant::TenantBreakdown;
use Value::{Absent, Digest, Hex, Millis, F64, U64};

/// One exported number as its table row produced it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Value {
    U64(u64),
    F64(f64),
    /// Milliseconds: JSON as they are (the key says `_ms`), Prometheus
    /// in seconds (the name says `_seconds`).
    Millis(f64),
    /// A latency digest: JSON the whole object; Prometheus its p99
    /// alone, because a labelled row multiplies every series by the
    /// number of plans, datasets or tenants.
    Digest(LatencySummary),
    /// A 64-bit id as 16 hex digits (a JSON number loses `u64`
    /// precision past 2^53).
    Hex(u64),
    /// An optional limit that is not configured: no field is written.
    Absent,
}

impl Value {
    fn json(self, w: &mut JsonWriter, key: &str) {
        match self {
            Value::U64(v) => w.field_u64(key, v),
            Value::F64(v) | Value::Millis(v) => w.field_f64(key, v),
            Value::Digest(d) => summary_json(w, key, &d),
            Value::Hex(_) => w.field_str(key, &self.label()),
            Value::Absent => {}
        }
    }

    /// The Prometheus sample; ids and absent limits are never sampled.
    fn sample(self) -> f64 {
        match self {
            Value::U64(v) => v as f64,
            Value::F64(v) => v,
            Value::Millis(ms) => ms * 1e-3,
            Value::Digest(d) => d.p99_ms * 1e-3,
            Value::Hex(_) | Value::Absent => f64::NAN,
        }
    }

    /// The Prometheus label text of an id.
    fn label(self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::Hex(v) => format!("{v:016x}"),
            other => other.sample().to_string(),
        }
    }
}

/// The Prometheus side of a table row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Prom {
    /// One series: `counter` or `gauge`, name, help text.
    Series(&'static str, &'static str, &'static str),
    /// An id: a label on every series of its row.
    Label(&'static str),
    /// Deliberately not a series; the row's comment says why.
    JsonOnly,
}

/// One row of the metric table: a JSON key, how to read the number off
/// a `T`, and its Prometheus side.
#[derive(Debug)]
pub(crate) struct Column<T: 'static> {
    pub key: &'static str,
    pub get: fn(&T) -> Value,
    pub prom: Prom,
}

/// One latency distribution. JSON: a digest under `latency.<key>` and
/// the raw buckets under `histograms.<key>`. Prometheus: the histogram
/// `<base>_seconds` and the gauges `<base>_{p50,p95,p99}_seconds`. The
/// digest's `count` and `mean_ms` are the histogram's `_count` and
/// `_sum / _count`; `max_ms` is JSON-only — an all-time maximum cannot
/// be windowed by a scraper the way the bucket counters can.
#[derive(Debug)]
pub(crate) struct Distribution {
    pub key: &'static str,
    pub base: &'static str,
    pub help: &'static str,
    pub digest: fn(&EngineStats) -> &LatencySummary,
    pub buckets: fn(&EngineStats) -> &HistogramSnapshot,
}

macro_rules! prom {
    ([label $name:literal]) => {
        $crate::export::Prom::Label($name)
    };
    ([json_only]) => {
        $crate::export::Prom::JsonOnly
    };
    ([$kind:ident $name:literal $help:literal]) => {
        $crate::export::Prom::Series(stringify!($kind), $name, $help)
    };
}
pub(crate) use prom;

/// `key = getter => [prometheus side];` rows as a `&[Column<T>]`.
macro_rules! columns {
    ($t:ty; $( $key:literal = $get:expr => $prom:tt; )*) => {
        &[$( Column::<$t> { key: $key, get: $get, prom: prom!($prom) }, )*]
    };
}

/// Quotients of two exported counters, written into their JSON group.
/// JSON-only: a scraper derives them from the counters over whatever
/// window it wants, and a since-start quotient would be a second
/// producer of that number.
static RATIOS: &[(&str, &[Column<EngineStats>])] = &[
    (
        "cache",
        columns! { EngineStats; "hit_rate" = |s| F64(s.hit_rate()) => [json_only]; },
    ),
    (
        "eval",
        columns! { EngineStats; "mean_batch" = |s| F64(s.mean_batch()) => [json_only]; },
    ),
];

static DATASET_COLUMNS: &[Column<DatasetBreakdown>] = columns! { DatasetBreakdown;
    "dataset" = |d| U64(d.dataset) => [label "dataset"];
    "plans" = |d| U64(d.plans as u64)
        => [gauge "mbt_dataset_plans" "Distinct plans serving the dataset"];
    "builds" = |d| U64(d.builds)
        => [counter "mbt_dataset_builds_total" "Plan builds for the dataset"];
    "batches" = |d| U64(d.batches)
        => [counter "mbt_dataset_batches_total" "Evaluation sweeps for the dataset"];
    "requests" = |d| U64(d.requests)
        => [counter "mbt_dataset_requests_total" "Requests served for the dataset"];
    "points" = |d| U64(d.points)
        => [counter "mbt_dataset_points_total" "Points evaluated for the dataset"];
    "eval" = |d| Digest(d.eval)
        => [gauge "mbt_dataset_eval_p99_seconds" "Per-dataset sweep p99 estimate"];
};

static PLAN_COLUMNS: &[Column<PlanBreakdown>] = columns! { PlanBreakdown;
    "dataset" = |p| U64(p.dataset) => [label "dataset"];
    "plan" = |p| Hex(p.plan) => [label "plan"];
    "builds" = |p| U64(p.builds) => [counter "mbt_plan_builds" "Times the plan was (re)built"];
    "build_seconds" = |p| F64(p.build_seconds)
        => [counter "mbt_plan_build_seconds_total" "Wall time building the plan"];
    "batches" = |p| U64(p.batches)
        => [counter "mbt_plan_batches_total" "Evaluation sweeps run against the plan"];
    "requests" = |p| U64(p.requests)
        => [counter "mbt_plan_requests_total" "Requests served by the plan"];
    "points" = |p| U64(p.points)
        => [counter "mbt_plan_points_total" "Points evaluated by the plan"];
    "eval" = |p| Digest(p.eval)
        => [gauge "mbt_plan_eval_p99_seconds" "Per-plan sweep p99 estimate"];
};

static TENANT_COLUMNS: &[Column<TenantBreakdown>] = columns! { TenantBreakdown;
    "tenant" = |t| U64(u64::from(t.tenant)) => [label "tenant"];
    "weight" = |t| U64(u64::from(t.weight))
        => [gauge "mbt_tenant_weight" "The tenant's fair-share weight"];
    "requests" = |t| U64(t.requests)
        => [counter "mbt_tenant_requests_total" "Requests the tenant presented"];
    "admitted" = |t| U64(t.admitted)
        => [counter "mbt_tenant_admitted_total" "Requests admitted for the tenant"];
    "shed" = |t| U64(t.shed) => [counter "mbt_tenant_shed_total"
        "Requests shed for the tenant (quota, overload, or deadline)"];
    "charged_plan_bytes" = |t| U64(t.charged_plan_bytes) => [counter "mbt_tenant_plan_bytes_total"
        "Plan-cache bytes the tenant's builds were billed"];
    "charged_eval_ms" = |t| Millis(t.charged_eval_ms) => [counter "mbt_tenant_eval_seconds_total"
        "Evaluation wall time the tenant was billed"];
    // the two quotas are configuration echoed back, not measurements
    "plan_bytes_quota" = |t| t.plan_bytes_quota.map_or(Absent, U64) => [json_only];
    "eval_ms_quota" = |t| t.eval_ms_quota.map_or(Absent, U64) => [json_only];
};

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

/// A labelled breakdown as a JSON array of one object per row.
fn rows_json<T>(w: &mut JsonWriter, key: &str, cols: &[Column<T>], rows: &[T]) {
    w.begin_array_field(key);
    for row in rows {
        w.begin_object();
        for col in cols {
            (col.get)(row).json(w, col.key);
        }
        w.end_object();
    }
    w.end_array();
}

/// A labelled breakdown as Prometheus series: every header first, then
/// each row's samples under the row's id labels.
fn rows_prom<T>(w: &mut PromWriter, cols: &[Column<T>], rows: &[T]) {
    for col in cols {
        if let Prom::Series(kind, name, help) = col.prom {
            w.help(name, help);
            w.typ(name, kind);
        }
    }
    for row in rows {
        let ids: Vec<(&str, String)> = cols
            .iter()
            .filter_map(|col| match col.prom {
                Prom::Label(name) => Some((name, (col.get)(row).label())),
                _ => None,
            })
            .collect();
        let labels: Vec<(&str, &str)> = ids.iter().map(|(k, v)| (*k, v.as_str())).collect();
        for col in cols {
            if let Prom::Series(_, name, _) = col.prom {
                w.sample(name, &labels, (col.get)(row).sample());
            }
        }
    }
}

impl EngineStats {
    /// The snapshot as one JSON object: counters, gauges, p50/p95/p99
    /// latency digests, raw histogram buckets, and the per-plan /
    /// per-dataset / per-tenant breakdowns. Guaranteed to satisfy
    /// [`mbt_obs::json_is_valid`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        // the unnamed group's scalars sit at the root
        for &(group, cols) in SCALARS {
            if !group.is_empty() {
                w.begin_object_field(group);
            }
            let ratios = RATIOS.iter().filter(|(g, _)| *g == group);
            for col in cols.iter().chain(ratios.flat_map(|(_, cols)| *cols)) {
                (col.get)(self).json(&mut w, col.key);
            }
            if !group.is_empty() {
                w.end_object();
            }
        }
        w.begin_object_field("latency");
        for d in DISTRIBUTIONS {
            summary_json(&mut w, d.key, (d.digest)(self));
        }
        w.end_object();
        w.begin_object_field("histograms");
        for d in DISTRIBUTIONS {
            histogram_json(&mut w, d.key, (d.buckets)(self));
        }
        w.end_object();
        rows_json(&mut w, "per_plan", PLAN_COLUMNS, &self.per_plan);
        rows_json(&mut w, "per_dataset", DATASET_COLUMNS, &self.per_dataset);
        rows_json(&mut w, "tenants", TENANT_COLUMNS, &self.per_tenant);
        w.end_object();
        w.finish()
    }

    /// The snapshot in the Prometheus text exposition format: `mbt_`-
    /// prefixed counters and gauges, a cumulative-bucket histogram and
    /// quantile gauges for each of the five latency distributions, and
    /// labelled per-dataset / per-plan / per-tenant series. Guaranteed to
    /// satisfy [`mbt_obs::prometheus_is_valid`].
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        for &(_, cols) in SCALARS {
            for col in cols {
                if let Prom::Series(kind, name, help) = col.prom {
                    w.help(name, help);
                    w.typ(name, kind);
                    w.sample(name, &[], (col.get)(self).sample());
                }
            }
        }
        for d in DISTRIBUTIONS {
            prom_histogram(
                &mut w,
                &format!("{}_seconds", d.base),
                d.help,
                (d.buckets)(self),
            );
        }
        for d in DISTRIBUTIONS {
            let s = (d.digest)(self);
            let help = format!("{}, quantile estimate", d.help);
            for (q, ms) in [("p50", s.p50_ms), ("p95", s.p95_ms), ("p99", s.p99_ms)] {
                let name = format!("{}_{q}_seconds", d.base);
                w.help(&name, &help);
                w.typ(&name, "gauge");
                w.sample(&name, &[], ms * 1e-3);
            }
        }
        rows_prom(&mut w, DATASET_COLUMNS, &self.per_dataset);
        rows_prom(&mut w, PLAN_COLUMNS, &self.per_plan);
        rows_prom(&mut w, TENANT_COLUMNS, &self.per_tenant);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKey;
    use crate::registry::DatasetId;
    use crate::stats::{Metric, StatsCollector};
    use mbt_obs::{json_is_valid, prometheus_is_valid};
    use mbt_treecode::TreecodeParams;
    use std::collections::{BTreeMap, BTreeSet};
    use std::time::Duration;

    fn sample_stats() -> EngineStats {
        let c = StatsCollector::default();
        let k0 = PlanKey::new(DatasetId(0), &TreecodeParams::fixed(4, 0.6));
        let k1 = PlanKey::new(DatasetId(1), &TreecodeParams::adaptive(3, 0.7));
        c.bump(Metric::cache_hits);
        c.bump(Metric::cache_misses);
        c.record_build(k0, Duration::from_millis(5));
        c.record_build(k1, Duration::from_millis(2));
        c.record_recharge(Duration::from_millis(1));
        c.bump(Metric::datasets_retired);
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
        c.bump(Metric::shed_quota);
        c.bump(Metric::worker_panics);
        let mut s = c.snapshot(&[
            (Metric::resident_plans, 2),
            (Metric::resident_bytes, 1 << 20),
            (Metric::cache_budget_bytes, 256 << 20),
            (Metric::datasets, 2),
            (Metric::skeletons, 1),
            (Metric::skeleton_bytes, 2048),
            (Metric::shared_operator_bytes, 7 << 20),
        ]);
        // the engine splices the tenant table in the same way
        let tenant = crate::tenant::TenantBreakdown {
            tenant: 7,
            weight: 4,
            requests: 5,
            admitted: 4,
            shed: 1,
            charged_plan_bytes: 1024,
            charged_eval_ms: 2.5,
            plan_bytes_quota: Some(1 << 20),
            eval_ms_quota: Some(5000),
        };
        s.per_tenant = vec![
            tenant,
            crate::tenant::TenantBreakdown {
                tenant: 9,
                plan_bytes_quota: None,
                eval_ms_quota: None,
                ..tenant
            },
        ];
        s
    }

    /// Every leaf of a compact JSON document the writer produced, as
    /// `path → value text` (`a.b[2].c`; strings keep their quotes).
    fn flatten(json: &str) -> BTreeMap<String, String> {
        fn value(b: &[u8], i: &mut usize, path: &str, out: &mut BTreeMap<String, String>) {
            match b[*i] {
                b'{' => {
                    *i += 1;
                    while b[*i] != b'}' {
                        let start = *i + 1;
                        *i = start + b[start..].iter().position(|&c| c == b'"').unwrap();
                        let key = std::str::from_utf8(&b[start..*i]).unwrap();
                        *i += 2; // closing quote and colon
                        let sep = if path.is_empty() { "" } else { "." };
                        value(b, i, &format!("{path}{sep}{key}"), out);
                        *i += usize::from(b[*i] == b',');
                    }
                    *i += 1;
                }
                b'[' => {
                    *i += 1;
                    let mut n = 0;
                    while b[*i] != b']' {
                        value(b, i, &format!("{path}[{n}]"), out);
                        *i += usize::from(b[*i] == b',');
                        n += 1;
                    }
                    *i += 1;
                }
                _ => {
                    let start = *i;
                    while !matches!(b[*i], b',' | b'}' | b']') {
                        *i += 1;
                    }
                    let text = std::str::from_utf8(&b[start..*i]).unwrap();
                    assert!(out.insert(path.to_owned(), text.to_owned()).is_none());
                }
            }
        }
        let mut out = BTreeMap::new();
        value(json.as_bytes(), &mut 0, "", &mut out);
        out
    }

    /// `name{labels}` → sample text, for every sample line.
    fn samples(prom: &str) -> BTreeMap<&str, &str> {
        prom.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').unwrap())
            .collect()
    }

    /// Asserts one table row landed in both documents: its value under
    /// `path` in the JSON leaves, and (if it is a series) as the sample
    /// `name{labels}` — or nowhere, for a limit that is not configured.
    fn assert_row<T>(
        col: &Column<T>,
        row: &T,
        path: &str,
        labels: &str,
        json: &BTreeMap<String, String>,
        prom: &BTreeMap<&str, &str>,
    ) {
        let leaf = |suffix: &str| json.get(&format!("{path}{suffix}")).map(String::as_str);
        let value = (col.get)(row);
        match value {
            Value::U64(v) => assert_eq!(leaf(""), Some(v.to_string().as_str()), "{path}"),
            Value::F64(v) | Value::Millis(v) => {
                assert_eq!(leaf(""), Some(v.to_string().as_str()), "{path}");
            }
            Value::Hex(v) => assert_eq!(leaf(""), Some(format!("\"{v:016x}\"").as_str())),
            Value::Digest(d) => {
                assert_eq!(leaf(".count"), Some(d.count.to_string().as_str()), "{path}");
                assert_eq!(
                    leaf(".p99_ms"),
                    Some(d.p99_ms.to_string().as_str()),
                    "{path}"
                );
            }
            Value::Absent => assert_eq!(leaf(""), None, "{path}"),
        }
        if let Prom::Series(_, name, _) = col.prom {
            let series = format!("{name}{labels}");
            let want = value.sample().to_string();
            assert_eq!(prom.get(series.as_str()), Some(&want.as_str()), "{series}");
        }
    }

    fn assert_rows<T>(
        key: &str,
        cols: &[Column<T>],
        rows: &[T],
        json: &BTreeMap<String, String>,
        prom: &BTreeMap<&str, &str>,
    ) {
        assert!(
            !rows.is_empty(),
            "{key}: the sample leaves the breakdown empty"
        );
        for (i, row) in rows.iter().enumerate() {
            let ids: Vec<String> = cols
                .iter()
                .filter_map(|col| match col.prom {
                    Prom::Label(name) => Some(format!("{name}=\"{}\"", (col.get)(row).label())),
                    _ => None,
                })
                .collect();
            let labels = format!("{{{}}}", ids.join(","));
            for col in cols {
                let path = format!("{key}[{i}].{}", col.key);
                assert_row(col, row, &path, &labels, json, prom);
            }
        }
    }

    /// The one export test: walks the metric table and finds every row's
    /// value in both documents, then pins every JSON path and every
    /// Prometheus `# TYPE` line by name, so a dropped or renamed series
    /// fails here with its name in the diff.
    #[test]
    fn every_table_row_reaches_both_documents() {
        let s = sample_stats();
        let (json_text, prom_text) = (s.to_json(), s.to_prometheus());
        assert!(json_is_valid(&json_text), "invalid JSON: {json_text}");
        assert!(
            prometheus_is_valid(&prom_text),
            "invalid exposition:\n{prom_text}"
        );
        let json = flatten(&json_text);
        let prom = samples(&prom_text);

        for &(group, cols) in SCALARS.iter().chain(RATIOS) {
            let sep = if group.is_empty() { "" } else { "." };
            for col in cols {
                let path = format!("{group}{sep}{}", col.key);
                assert_row(col, &s, &path, "", &json, &prom);
            }
        }
        for d in DISTRIBUTIONS {
            let (digest, buckets) = ((d.digest)(&s), (d.buckets)(&s));
            assert!(digest.count > 0, "{}: the sample leaves it empty", d.key);
            let leaf = |path: String| json[&path].as_str();
            for (field, ms) in [
                ("mean_ms", digest.mean_ms),
                ("p50_ms", digest.p50_ms),
                ("p95_ms", digest.p95_ms),
                ("p99_ms", digest.p99_ms),
                ("max_ms", digest.max_ms),
            ] {
                assert_eq!(leaf(format!("latency.{}.{field}", d.key)), ms.to_string());
            }
            for (q, ms) in [
                ("p50", digest.p50_ms),
                ("p95", digest.p95_ms),
                ("p99", digest.p99_ms),
            ] {
                let name = format!("{}_{q}_seconds", d.base);
                assert_eq!(prom[name.as_str()], (ms * 1e-3).to_string());
            }
            let count = digest.count.to_string();
            assert_eq!(leaf(format!("latency.{}.count", d.key)), count);
            assert_eq!(leaf(format!("histograms.{}.count", d.key)), count);
            assert_eq!(prom[format!("{}_seconds_count", d.base).as_str()], count);
            let sum_ns = buckets.sum_ns.to_string();
            assert_eq!(leaf(format!("histograms.{}.sum_ns", d.key)), sum_ns);
            let sum_s = (buckets.sum_ns as f64 * 1e-9).to_string();
            assert_eq!(prom[format!("{}_seconds_sum", d.base).as_str()], sum_s);
        }
        assert_rows("per_plan", PLAN_COLUMNS, &s.per_plan, &json, &prom);
        assert_rows("per_dataset", DATASET_COLUMNS, &s.per_dataset, &json, &prom);
        assert_rows("tenants", TENANT_COLUMNS, &s.per_tenant, &json, &prom);

        // the golden lists: array indices folded, so one line per path
        let paths: BTreeSet<String> = json
            .keys()
            .map(|p| {
                let mut folded = String::new();
                for part in p.split('[') {
                    folded.push_str(part.split_once(']').map_or(part, |(_, rest)| rest));
                    folded.push_str("[]");
                }
                folded.truncate(folded.len() - 2);
                folded
            })
            .collect();
        let want: BTreeSet<String> = JSON_PATHS.split_whitespace().map(str::to_owned).collect();
        assert_eq!(paths, want, "the set of JSON paths moved");
        let types: BTreeSet<&str> = prom_text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        let want: BTreeSet<&str> = PROM_TYPES
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(types, want, "the set of Prometheus series moved");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_complete() {
        let s = sample_stats();
        let text = s.to_prometheus();
        // the +Inf bucket of every histogram equals its _count
        for d in DISTRIBUTIONS {
            let name = format!("{}_seconds", d.base);
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
            // and the bucket counts never decrease on the way there
            let bucket = format!("{name}_bucket{{");
            let cumulative: Vec<f64> = text
                .lines()
                .filter(|l| l.starts_with(&bucket))
                .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
                .collect();
            assert!(cumulative.windows(2).all(|w| w[0] <= w[1]), "{name}");
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

    const JSON_PATHS: &str = "
        admission.admitted admission.in_flight admission.queue_depth admission.queue_peak
        admission.shed_deadline admission.shed_overload admission.shed_quota cache.budget_bytes
        cache.build_seconds cache.coalesced_misses cache.evicted_bytes cache.evictions
        cache.hit_rate cache.hits cache.misses cache.plan_builds cache.plan_recharges
        cache.resident_bytes cache.resident_plans cache.shared_operator_bytes datasets
        datasets_retired eval.batched_requests eval.batches eval.eval_seconds eval.max_batch
        eval.mean_batch eval.points eval.worker_panics
        histograms.admission_wait.buckets[].bucket histograms.admission_wait.buckets[].count
        histograms.admission_wait.buckets[].lower_ns histograms.admission_wait.count
        histograms.admission_wait.max_ns histograms.admission_wait.sum_ns
        histograms.build.buckets[].bucket histograms.build.buckets[].count
        histograms.build.buckets[].lower_ns histograms.build.count histograms.build.max_ns
        histograms.build.sum_ns histograms.eval.buckets[].bucket histograms.eval.buckets[].count
        histograms.eval.buckets[].lower_ns histograms.eval.count histograms.eval.max_ns
        histograms.eval.sum_ns histograms.fanout.buckets[].bucket
        histograms.fanout.buckets[].count histograms.fanout.buckets[].lower_ns
        histograms.fanout.count histograms.fanout.max_ns histograms.fanout.sum_ns
        histograms.query.buckets[].bucket histograms.query.buckets[].count
        histograms.query.buckets[].lower_ns histograms.query.count histograms.query.max_ns
        histograms.query.sum_ns latency.admission_wait.count latency.admission_wait.max_ms
        latency.admission_wait.mean_ms latency.admission_wait.p50_ms
        latency.admission_wait.p95_ms latency.admission_wait.p99_ms latency.build.count
        latency.build.max_ms latency.build.mean_ms latency.build.p50_ms latency.build.p95_ms
        latency.build.p99_ms latency.eval.count latency.eval.max_ms latency.eval.mean_ms
        latency.eval.p50_ms latency.eval.p95_ms latency.eval.p99_ms latency.fanout.count
        latency.fanout.max_ms latency.fanout.mean_ms latency.fanout.p50_ms latency.fanout.p95_ms
        latency.fanout.p99_ms latency.query.count latency.query.max_ms latency.query.mean_ms
        latency.query.p50_ms latency.query.p95_ms latency.query.p99_ms per_dataset[].batches
        per_dataset[].builds per_dataset[].dataset per_dataset[].eval.count
        per_dataset[].eval.max_ms per_dataset[].eval.mean_ms per_dataset[].eval.p50_ms
        per_dataset[].eval.p95_ms per_dataset[].eval.p99_ms per_dataset[].plans
        per_dataset[].points per_dataset[].requests per_plan[].batches per_plan[].build_seconds
        per_plan[].builds per_plan[].dataset per_plan[].eval.count per_plan[].eval.max_ms
        per_plan[].eval.mean_ms per_plan[].eval.p50_ms per_plan[].eval.p95_ms
        per_plan[].eval.p99_ms per_plan[].plan per_plan[].points per_plan[].requests
        routing.direct routing.fmm routing.treecode sharding.global_shortcuts sharding.queries
        sharding.shard_opens sharding.skeleton_bytes sharding.skeleton_evals sharding.skeletons
        slow_queries span_read_retries spans_dropped tenants[].admitted
        tenants[].charged_eval_ms tenants[].charged_plan_bytes tenants[].eval_ms_quota
        tenants[].plan_bytes_quota tenants[].requests tenants[].shed tenants[].tenant
        tenants[].weight
    ";

    const PROM_TYPES: &str = "
        mbt_admission_wait_p50_seconds gauge
        mbt_admission_wait_p95_seconds gauge
        mbt_admission_wait_p99_seconds gauge
        mbt_admission_wait_seconds histogram
        mbt_admitted_total counter
        mbt_batched_requests_total counter
        mbt_batches_total counter
        mbt_build_latency_p50_seconds gauge
        mbt_build_latency_p95_seconds gauge
        mbt_build_latency_p99_seconds gauge
        mbt_build_latency_seconds histogram
        mbt_cache_budget_bytes gauge
        mbt_cache_coalesced_misses_total counter
        mbt_cache_hits_total counter
        mbt_cache_misses_total counter
        mbt_dataset_batches_total counter
        mbt_dataset_builds_total counter
        mbt_dataset_eval_p99_seconds gauge
        mbt_dataset_plans gauge
        mbt_dataset_points_total counter
        mbt_dataset_requests_total counter
        mbt_datasets gauge
        mbt_datasets_retired_total counter
        mbt_eval_latency_p50_seconds gauge
        mbt_eval_latency_p95_seconds gauge
        mbt_eval_latency_p99_seconds gauge
        mbt_eval_latency_seconds histogram
        mbt_eval_points_total counter
        mbt_evicted_bytes_total counter
        mbt_fanout_latency_p50_seconds gauge
        mbt_fanout_latency_p95_seconds gauge
        mbt_fanout_latency_p99_seconds gauge
        mbt_fanout_latency_seconds histogram
        mbt_global_shortcuts_total counter
        mbt_in_flight gauge
        mbt_max_batch gauge
        mbt_plan_batches_total counter
        mbt_plan_build_seconds_total counter
        mbt_plan_builds counter
        mbt_plan_builds_total counter
        mbt_plan_eval_p99_seconds gauge
        mbt_plan_evictions_total counter
        mbt_plan_points_total counter
        mbt_plan_recharges_total counter
        mbt_plan_requests_total counter
        mbt_query_latency_p50_seconds gauge
        mbt_query_latency_p95_seconds gauge
        mbt_query_latency_p99_seconds gauge
        mbt_query_latency_seconds histogram
        mbt_queue_depth gauge
        mbt_queue_peak gauge
        mbt_resident_bytes gauge
        mbt_resident_plans gauge
        mbt_routed_direct_total counter
        mbt_routed_fmm_total counter
        mbt_routed_treecode_total counter
        mbt_shard_opens_total counter
        mbt_sharded_queries_total counter
        mbt_shared_operator_bytes gauge
        mbt_shed_deadline_total counter
        mbt_shed_overload_total counter
        mbt_shed_quota_total counter
        mbt_skeleton_bytes gauge
        mbt_skeleton_evals_total counter
        mbt_skeletons gauge
        mbt_slow_queries_total counter
        mbt_span_read_retries_total counter
        mbt_spans_dropped_total counter
        mbt_tenant_admitted_total counter
        mbt_tenant_eval_seconds_total counter
        mbt_tenant_plan_bytes_total counter
        mbt_tenant_requests_total counter
        mbt_tenant_shed_total counter
        mbt_tenant_weight gauge
        mbt_worker_panics_total counter
    ";
}
