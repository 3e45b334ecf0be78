//! The benchmark's definition as one `const` table.
//!
//! `BENCHMARK.json` at the repo root is `benchmark_json()` of this table
//! (`mbt_benchmark --emit-benchmark-json`); the names the binary prints
//! come from the same arrays, and `tests/benchmark_contract.rs` checks
//! both against the committed file, so the two cannot drift.

use super::json::Value;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "mbt_benchmark/Cargo.toml",
    "--",
];
pub const PATHS: [&str; 1] = ["mbt_benchmark"];
/// Seconds one run measures for. Set by the driver's time cap: 114 runs
/// plus two builds in 3420 s leaves under 28 s of wall per run, set-up,
/// correctness check and (traced) staged replay included.
pub const RUN_SECONDS: u64 = 18;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sweep_adaptive",
        why: "Paper Table 1 unstructured: n=100000 overlapped Gaussians, adaptive p=4 compiled treecode, build+sweep per op. Compile/M2P/P2P do ~85% of the work; engine, fmm, shard, bem do none.",
    },
    Workload {
        name: "matvec_fmm",
        why: "n=100000 cube, Engine::query at every source, Fixed(4) routes to the compiled FMM: plan build owns cold_s, L2P+P2P the hot op. Bypasses the treecode compile/M2P path, so a core gain must not show.",
    },
    Workload {
        name: "serve_mixed",
        why: "40000+400 particles, warmed plans, nproc pinned tenant clients, seeded 60/20/10/10 request mix: all cache hits, so admission, routing, batcher, scatter and stats are a visible share of each few-ms op.",
    },
    Workload {
        name: "serve_sharded",
        why: "serve_mixed's identical request stream, big dataset registered in 4 Hilbert shards: partition, skeleton far field and fan-out replace the single plan; a split from serve_mixed prices sharding.",
    },
    Workload {
        name: "gmres_bem",
        why: "Paper Table 3: icosphere(3) six-point rule, GMRES(10) to 1e-6 through EngineSingleLayer Fixed(6) on a fresh engine. The write path: every matvec registers a dataset and builds an FMM plan.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Every bound is the largest the driver allows. The reference box is a
/// 2-vCPU VM with noisy neighbours: on a quiet quarter of an hour ten runs
/// with ten seeds spread (interquartile range over median) by 1 to 8 % on
/// most metrics and up to 16 % on the sharded tail, and now and then the
/// whole box slows by 15 to 35 % for minutes, which nothing inside one
/// run can remove. A bound has to sit about three quiet spreads out.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "targets_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes that repeats exactly for one seed;
    /// `--compare` checks these for equality instead of against a bound.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str) -> Layer {
    exact(name, "count")
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// A count or gauge that depends on thread interleaving or on the
/// machine: reported, never compared for equality.
const fn gauge(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// Per-layer metrics. A traced run prints every one; a metric whose layer
/// the workload does not run reads 0 (README, "Which workload fills which
/// layer").
pub const PER_LAYER: [Layer; 95] = [
    // staged replay and op spans, by crate
    time("geometry.hilbert_sort_s", "s"),
    time("tree.build_s", "s"),
    count("tree.nodes"),
    count("tree.height"),
    time("core.upward_s", "s"),
    count("core.coeff_count"),
    time("core.sweep_s", "s"),
    time("core.compile_s", "s"),
    time("core.execute_s", "s"),
    count("core.terms"),
    count("core.pc_interactions"),
    count("core.direct_pairs"),
    rate("core.work_per_s", "1/s"),
    time("core.sweep_t1_s", "s"),
    rate("core.parallel_efficiency", "ratio"),
    time("fmm.build_s", "s"),
    time("fmm.eval_s", "s"),
    count("fmm.levels"),
    exact("fmm.heap_bytes", "bytes"),
    count("fmm.terms"),
    count("fmm.direct_pairs"),
    time("shard.partition_s", "s"),
    gauge("shard.count_ratio", "ratio"),
    time("shard.skeleton_s", "s"),
    time("shard.fanout_p50_ms", "ms"),
    gauge("shard.global_shortcuts", "count"),
    gauge("shard.skeleton_evals", "count"),
    gauge("shard.shard_opens", "count"),
    time("engine.register_s", "s"),
    time("engine.plan_build_s", "s"),
    time("engine.sweep_only_ms", "ms"),
    time("engine.overhead_us", "us"),
    time("engine.eval_p50_ms", "ms"),
    time("engine.query_minus_eval_ms", "ms"),
    time("engine.admission_wait_p99_ms", "ms"),
    gauge("engine.queue_peak", "count"),
    gauge("engine.mean_batch", "ratio"),
    gauge("engine.max_batch", "count"),
    rate("engine.cache_hit_rate", "ratio"),
    gauge("engine.plan_builds", "count"),
    gauge("engine.evictions", "count"),
    gauge("engine.resident_bytes", "bytes"),
    gauge("engine.datasets", "count"),
    gauge("engine.routed_direct", "count"),
    gauge("engine.routed_treecode", "count"),
    gauge("engine.routed_fmm", "count"),
    gauge("engine.shed_total", "count"),
    gauge("engine.spans_dropped", "count"),
    time("bem.geometry_s", "s"),
    time("bem.charges_s", "s"),
    time("bem.apply_p50_ms", "ms"),
    count("bem.applies"),
    time("bem.direct_apply_ms", "ms"),
    count("solvers.gmres_iterations"),
    count("solvers.gmres_restarts"),
    gauge("solvers.relative_residual", "ratio"),
    time("solvers.self_s", "s"),
    // fixed-input probes, identical in every traced run
    time("core.few_target_us_per_point", "us"),
    rate("core.direct_pairs_per_s", "1/s"),
    rate("multipole.p2m_terms_per_s", "1/s"),
    rate("multipole.m2m_terms_per_s", "1/s"),
    rate("multipole.m2l_terms_per_s", "1/s"),
    rate("multipole.l2l_terms_per_s", "1/s"),
    rate("multipole.l2p_terms_per_s", "1/s"),
    rate("multipole.m2p_p4_terms_per_s", "1/s"),
    rate("multipole.m2p_p8_terms_per_s", "1/s"),
    rate("multipole.p2p_f64_pairs_per_s", "1/s"),
    rate("multipole.p2p_f32_pairs_per_s", "1/s"),
    rate("multipole.m2l_apply_gflops", "GFLOP/s"),
    rate("multipole.m2p_share_of_peak", "ratio"),
    rate("multipole.p2p_share_of_peak", "ratio"),
    rate("machine.fma_gflops", "GFLOP/s"),
    rate("machine.stream_gbs", "GB/s"),
    gauge("machine.llc_mb", "MB"),
    gauge("machine.stream_array_mb", "MB"),
    time("engine.gate_ns", "ns"),
    time("engine.cache_hit_ns", "ns"),
    time("engine.stats_snapshot_us", "us"),
    time("engine.export_us", "us"),
    time("obs.ring_push_ns", "ns"),
    time("obs.hist_record_ns", "ns"),
    // the run itself
    time("op.traced_p50_ms", "ms"),
    time("op.self_ms", "ms"),
    gauge("op.traced_count", "count"),
    gauge("op.failed_share", "ratio"),
    gauge("check.rel_err_l2", "ratio"),
    gauge("check.vs_unsharded_l2", "ratio"),
    time("check.reference_s", "s"),
    time("trace.overhead_pct", "%"),
    gauge("trace.spans", "count"),
    gauge("trace.program_spans", "count"),
    gauge("harness.nproc", "count"),
    gauge("harness.threads", "count"),
    gauge("harness.clients", "count"),
    gauge("harness.runnable_threads", "count"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The unit of any metric the table names.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| layer(name).map(|m| m.unit))
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(s)).collect());
    Value::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty(2)
}
