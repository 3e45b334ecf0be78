//! `mbt_benchmark` — the repository's benchmark.
//!
//! ```text
//! mbt_benchmark [--seed N] [--repeat K] [--seconds S] [--smoke] [--out-dir DIR]
//!     every workload, untraced then traced, each in a child process
//! mbt_benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//!     one run; the last line of stdout is the driver's JSON object
//! mbt_benchmark --compare A.json B.json
//! mbt_benchmark --emit-benchmark-json
//! ```
//!
//! See `README.md` beside this package's manifest.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use mbt_benchmark::harness::json::{self, Value};
use mbt_benchmark::harness::stats::Summary;
use mbt_benchmark::harness::{compare, machine, table};
use mbt_benchmark::workloads::{self, Metric, Report, RunConfig, Scale, TraceCtx};

struct Args {
    workload: Option<String>,
    seed: u64,
    repeat: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    compare: Option<(String, String)>,
    emit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        repeat: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("target/benchmark"),
        compare: None,
        emit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if table::workload(&name).is_none() {
                    let known: Vec<&str> = table::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--repeat" => {
                args.repeat = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--emit-benchmark-json" => args.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mbt_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        print!("{}", table::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("mbt_benchmark --compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.5
    } else {
        table::RUN_SECONDS as f64
    });
    match &args.workload {
        Some(workload) => run_one(&RunConfig {
            workload: workload.clone(),
            seed: args.seed,
            seconds,
            trace: args.trace,
            scale: Scale { smoke: args.smoke },
            out_dir: args.out_dir.clone(),
        }),
        None => run_all(&args, seconds),
    }
}

fn summary_fields(unit: &str, value: f64, s: &Summary) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
        ("n", Value::Num(s.n as f64)),
        ("min", Value::Num(s.min)),
        ("q1", Value::Num(s.q1)),
        ("median", Value::Num(s.median)),
        ("q3", Value::Num(s.q3)),
        ("max", Value::Num(s.max)),
    ])
}

fn unit_of(m: &Metric) -> &'static str {
    table::unit_of(m.name).expect("every reported metric is in the table")
}

/// The run's record in result files.
fn run_record(cfg: &RunConfig, report: &Report, correct: bool) -> Value {
    let b = &report.budget;
    Value::obj([
        ("workload", Value::str(&cfg.workload)),
        ("seed", Value::Num(cfg.seed as f64)),
        ("trace", Value::Num(f64::from(u8::from(cfg.trace)))),
        ("seconds", Value::Num(cfg.seconds)),
        ("smoke", Value::Bool(cfg.scale.smoke)),
        ("machine", machine::machine_block()),
        (
            "thread_budget",
            Value::obj([
                ("nproc", Value::Num(b.nproc as f64)),
                ("threads", Value::Num(b.threads as f64)),
                ("clients", Value::Num(b.clients as f64)),
                ("pool_per_client", Value::Num(b.pool_per_client as f64)),
                ("runnable", Value::Num(b.runnable() as f64)),
            ]),
        ),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        (
            "metrics",
            Value::Obj(
                report
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            summary_fields(unit_of(m), m.value, &m.summary),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_file(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join(format!(
        "run-{}-trace{}-seed{}.json",
        cfg.workload,
        u8::from(cfg.trace),
        cfg.seed
    ))
}

/// One workload, in this process.
fn run_one(cfg: &RunConfig) -> ExitCode {
    println!(
        "mbt_benchmark workload={} seed={} seconds={} trace={}{}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.scale.smoke { " smoke" } else { "" }
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!(
            "mbt_benchmark: cannot create {}: {e}",
            cfg.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let mut ctx = cfg.trace.then(TraceCtx::default);
    let report = workloads::run(cfg, ctx.as_mut());
    let correct = report.failed == 0 && report.attempted > 0;

    println!("{}", report.budget.describe());
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        let s = &m.summary;
        let spread = if s.n > 1 {
            format!(" q1={} q3={} min={} max={}", s.q1, s.q3, s.min, s.max)
        } else {
            String::new()
        };
        println!(
            "metric {} {} = {} {} (n={}{spread})",
            cfg.workload,
            m.name,
            m.value,
            unit_of(m),
            s.n
        );
    }
    if let Some(ctx) = &ctx {
        println!("spans by name (count, total s, self s):");
        for (name, (count, total, own)) in ctx.tracer.by_name() {
            println!("  span {name:<28} {count:>7} {total:>12.6} {own:>12.6}");
        }
        let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
        match std::fs::write(&path, ctx.tracer.to_json()) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("mbt_benchmark: cannot write {}: {e}", path.display()),
        }
    }
    let path = run_file(cfg);
    match std::fs::write(&path, run_record(cfg, &report, correct).to_pretty(2)) {
        Ok(()) => println!("result: {}", path.display()),
        Err(e) => eprintln!("mbt_benchmark: cannot write {}: {e}", path.display()),
    }

    // the driver's contract: one JSON object as the last line of stdout
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        (
            "metrics",
            Value::Obj(
                report
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::obj([
                                ("value", Value::Num(m.value)),
                                ("unit", Value::str(unit_of(m))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "mbt_benchmark: {} of {} ops failed or answered wrongly",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs one child to completion and returns its record.
fn run_child(exe: &Path, cfg: &RunConfig) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&cfg.out_dir);
    if cfg.scale.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child; its output goes straight through
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let path = run_file(cfg);
    let record = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| json::parse(&text))?;
    if status.success() {
        Ok(record)
    } else {
        Err(format!(
            "{} (seed {}, trace {}) exited with {status}",
            cfg.workload,
            cfg.seed,
            u8::from(cfg.trace)
        ))
    }
}

/// Every workload, untraced then traced, each in a process of its own so
/// that peak RSS and the once-only `mbt_obs` hook are per workload.
fn run_all(args: &Args, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mbt_benchmark: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs = Vec::new();
    let mut failures = Vec::new();
    for seed in args.seed..args.seed + args.repeat.max(1) {
        for w in &table::WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload: w.name.to_string(),
                    seed,
                    seconds,
                    trace,
                    scale: Scale { smoke: args.smoke },
                    out_dir: args.out_dir.clone(),
                };
                match run_child(&exe, &cfg) {
                    Ok(record) => runs.push(record),
                    Err(e) => failures.push(e),
                }
            }
        }
    }
    let doc = Value::obj([
        ("benchmark", Value::str("mbt_benchmark")),
        ("machine", machine::machine_block()),
        ("seed", Value::Num(args.seed as f64)),
        ("repeat", Value::Num(args.repeat as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("runs", Value::Arr(runs)),
    ]);
    let path = args.out_dir.join("result.json");
    match std::fs::write(&path, doc.to_pretty(4)) {
        Ok(()) => println!("mbt_benchmark: all runs recorded in {}", path.display()),
        Err(e) => failures.push(format!("{}: {e}", path.display())),
    }
    for f in &failures {
        eprintln!("mbt_benchmark: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
