//! The five workloads and what they share: the run configuration, the
//! closed-loop timing of ops, and the assembly of a run's metrics.

pub mod gmres_bem;
pub mod matvec_fmm;
pub mod serve;
pub mod staged;
pub mod sweep_adaptive;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::harness::machine::{self, ThreadBudget};
use crate::harness::stats::{self, Summary};
use crate::harness::table;
use crate::harness::trace::{Tracer, VecRecorder};

/// Problem sizes. `--smoke` runs every workload at about 1/20 scale so a
/// contract test can exercise every code path in seconds; its numbers
/// mean nothing.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn pick(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures for.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where result and trace files go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// A sub-seed for one input stream, so streams never share a state.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream)
    }

    pub fn budget(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// Samples needed for a relative-L2 error estimate (the issue's "400
/// seeded sampled targets").
pub const ERROR_SAMPLES: usize = 400;
/// Every workload's sampled-error tolerance against direct summation.
pub const REL_L2_TOLERANCE: f64 = 1e-3;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub summary: Summary,
}

/// What one child run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub budget: ThreadBudget,
    /// Free-text lines for the human-readable output.
    pub notes: Vec<String>,
}

/// Collects a run's metrics by name.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, summary: Summary) {
        assert!(
            table::unit_of(name).is_some(),
            "metric {name} is not in the table"
        );
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name,
            value,
            summary,
        });
    }

    /// A timing (or any sampled quantity): the median of `samples`.
    pub fn sampled(&mut self, name: &'static str, samples: &[f64]) {
        if samples.is_empty() {
            self.value(name, 0.0);
        } else {
            let s = stats::summarize(samples);
            self.push(name, s.median, s);
        }
    }

    /// The fastest of the run's repetitions of a one-off cost. Whatever
    /// else runs on the box only ever adds time, and on the reference box
    /// it does so in spells of minutes that lift the median of eleven
    /// 0.1-second repetitions by a third while their minimum moves by a
    /// tenth.
    pub fn best(&mut self, name: &'static str, samples: &[f64]) {
        let s = stats::summarize(samples);
        self.push(name, s.min, s);
    }

    /// A median of samples scaled by `factor` (seconds to ms, ...).
    pub fn sampled_scaled(&mut self, name: &'static str, samples: &[f64], factor: f64) {
        let scaled: Vec<f64> = samples.iter().map(|v| v * factor).collect();
        self.sampled(name, &scaled);
    }

    /// A count, a gauge, or a rate over the whole run.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.push(name, value, Summary::single(value));
    }

    /// The end-to-end metric list, in table order; panics if one is
    /// missing or zero (the contract wants metrics that are never 0).
    pub fn into_end_to_end(self) -> Vec<Metric> {
        table::END_TO_END
            .iter()
            .map(|def| {
                let m = self
                    .0
                    .iter()
                    .find(|m| m.name == def.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} not measured", def.name));
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "end-to-end metric {} = {}",
                    def.name,
                    m.value
                );
                m.clone()
            })
            .collect()
    }

    /// The per-layer metric list, in table order; a layer the workload
    /// does not run reads 0.
    pub fn into_per_layer(self) -> Vec<Metric> {
        table::PER_LAYER
            .iter()
            .map(|def| {
                self.0
                    .iter()
                    .find(|m| m.name == def.name)
                    .cloned()
                    .unwrap_or(Metric {
                        name: def.name,
                        value: 0.0,
                        summary: Summary::single(0.0),
                    })
            })
            .collect()
    }
}

/// The timed part of an untraced run. The steady-state figures are
/// medians of a sample list and the one-off costs (set-up, cold) the best
/// of their repetitions, so a slow stretch of the machine moves them as
/// little as the run's length allows.
#[derive(Default)]
pub struct Timings {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds from raw inputs to the first correct answer, per
    /// repetition.
    pub cold_s: Vec<f64>,
    /// Steady-state op latency samples in ms: every op of a single-caller
    /// workload, or each round's median under concurrent clients.
    pub p50_ms: Vec<f64>,
    /// Tail latency samples in ms (see `stats::tail`): one for the whole
    /// run, or one per round.
    pub tail_ms: Vec<f64>,
    /// Target points answered per second of timed wall: one sample per
    /// op (single caller) or per round (concurrent clients).
    pub targets_per_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Peak RSS read when the timed ops ended; read at report time when
    /// the workload did nothing memory-hungry after them.
    pub peak_rss_mb: Option<f64>,
}

impl Timings {
    /// Records one op of a single-caller workload.
    pub fn op(&mut self, seconds: f64, targets: usize) {
        self.p50_ms.push(seconds * 1e3);
        self.targets_per_s.push(targets as f64 / seconds);
    }

    pub fn into_report(mut self, budget: ThreadBudget, notes: Vec<String>) -> Report {
        if self.tail_ms.is_empty() && !self.p50_ms.is_empty() {
            self.tail_ms.push(stats::tail(&self.p50_ms));
        }
        let mut m = Metrics::default();
        m.best("setup_s", &self.setup_s);
        m.best("cold_s", &self.cold_s);
        m.sampled("op_p50_ms", &self.p50_ms);
        m.sampled("op_tail_ms", &self.tail_ms);
        m.sampled("targets_per_s", &self.targets_per_s);
        m.value(
            "peak_rss_mb",
            self.peak_rss_mb.unwrap_or_else(machine::peak_rss_mb),
        );
        Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics: m.into_end_to_end(),
            budget,
            notes,
        }
    }
}

/// What a traced run needs beyond the configuration.
pub struct TraceCtx {
    pub tracer: Tracer,
    recorder: Option<&'static VecRecorder>,
}

impl Default for TraceCtx {
    fn default() -> TraceCtx {
        TraceCtx {
            tracer: Tracer::new(true),
            recorder: None,
        }
    }
}

impl TraceCtx {
    /// Installs the process-wide `mbt_obs` hook. Called after the
    /// untraced ops of a traced run, so those ops run exactly as they do
    /// in an untraced run.
    pub fn start_program_spans(&mut self) {
        self.recorder = Some(VecRecorder::install());
    }

    /// Moves everything the program recorded since the last call, plus
    /// `engine_spans`, into the trace; returns how many spans that was.
    pub fn collect_program_spans(&self, engine_spans: &[mbt_obs::Span]) -> usize {
        let mut spans = self.take_program_spans();
        spans.extend_from_slice(engine_spans);
        self.tracer.attach_program_spans(&spans);
        spans.len()
    }

    /// The core-layer spans recorded since the last call, without
    /// attaching them (for splitting one staged call by phase).
    pub fn take_program_spans(&self) -> Vec<mbt_obs::Span> {
        self.recorder.map(VecRecorder::drain).unwrap_or_default()
    }
}

/// The metrics every traced run derives the same way from its op spans
/// and the two op samples (untraced first, then traced).
pub fn trace_metrics(
    m: &mut Metrics,
    ctx: &TraceCtx,
    untraced_op_ms: &[f64],
    program_spans: usize,
    failed_share: f64,
    budget: ThreadBudget,
) {
    let traced_s = ctx.tracer.seconds("op");
    m.sampled_scaled("op.traced_p50_ms", &traced_s, 1e3);
    m.sampled_scaled("op.self_ms", &ctx.tracer.self_seconds("op"), 1e3);
    m.value("op.traced_count", traced_s.len() as f64);
    m.value("op.failed_share", failed_share);
    if !traced_s.is_empty() && !untraced_op_ms.is_empty() {
        let traced = stats::median(&traced_s) * 1e3;
        let untraced = stats::median(untraced_op_ms);
        m.value("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    }
    m.value("trace.spans", ctx.tracer.count() as f64);
    m.value("trace.program_spans", program_spans as f64);
    m.value("harness.nproc", budget.nproc as f64);
    m.value("harness.threads", budget.threads as f64);
    m.value("harness.clients", budget.clients as f64);
    m.value("harness.runnable_threads", budget.runnable() as f64);
}

/// The counters and latency digests a workload's engine exports.
pub fn engine_metrics(m: &mut Metrics, stats: &mbt_engine::EngineStats) {
    m.value("engine.eval_p50_ms", stats.eval_latency.p50_ms);
    m.value(
        "engine.query_minus_eval_ms",
        stats.query_latency.p50_ms - stats.eval_latency.p50_ms,
    );
    m.value("engine.admission_wait_p99_ms", stats.admission_wait.p99_ms);
    m.value("engine.queue_peak", stats.queue_peak as f64);
    m.value("engine.mean_batch", stats.mean_batch());
    m.value("engine.max_batch", stats.max_batch as f64);
    m.value("engine.cache_hit_rate", stats.hit_rate());
    m.value("engine.plan_builds", stats.plan_builds as f64);
    m.value("engine.evictions", stats.evictions as f64);
    m.value("engine.resident_bytes", stats.resident_bytes as f64);
    m.value("engine.datasets", stats.datasets as f64);
    m.value("engine.routed_direct", stats.routed_direct as f64);
    m.value("engine.routed_treecode", stats.routed_treecode as f64);
    m.value("engine.routed_fmm", stats.routed_fmm as f64);
    m.value(
        "engine.shed_total",
        (stats.shed_overload + stats.shed_deadline + stats.shed_quota) as f64,
    );
    m.value("engine.spans_dropped", stats.spans_dropped as f64);
}

/// Runs `op` until `budget` has elapsed, and at least `min_ops` times.
pub fn run_for(budget: Duration, min_ops: usize, mut op: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min_ops || t0.elapsed() < budget {
        op(i);
        i += 1;
    }
}

pub fn run(cfg: &RunConfig, ctx: Option<&mut TraceCtx>) -> Report {
    match cfg.workload.as_str() {
        "sweep_adaptive" => sweep_adaptive::run(cfg, ctx),
        "matvec_fmm" => matvec_fmm::run(cfg, ctx),
        "serve_mixed" => serve::run(cfg, ctx, 1),
        "serve_sharded" => serve::run(cfg, ctx, 4),
        "gmres_bem" => gmres_bem::run(cfg, ctx),
        other => panic!("unknown workload {other}"),
    }
}
