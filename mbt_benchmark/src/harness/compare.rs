//! `mbt_benchmark --compare A.json B.json`: does B agree with A?
//!
//! A and B are result files of the one-command mode. Each end-to-end
//! metric of each workload gets one row under the bound the table fixes:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `unresolved` — it is worse by more than the bound, but the
//!   run-to-run quartile spread is wider than the bound and the two
//!   files' values overlap, so the difference cannot be told from noise;
//! * `regression` — anything else that is worse by more than the bound.
//!
//! With several runs per side (`--repeat`) the spread is taken across
//! runs; with one run per side, from the quartiles inside the run. Counts
//! the program makes that repeat exactly for one seed are compared for
//! equality and listed when they differ. The exit code is non-zero if any
//! row reads `regression`.

use std::collections::BTreeMap;

use super::json::{self, Value};
use super::stats;
use super::table::{self, Better};

/// One run's reading of one metric.
#[derive(Debug, Clone, Copy)]
struct Reading {
    value: f64,
    q1: f64,
    q3: f64,
}

struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, Reading>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    runs.iter()
        .map(|run| {
            let field = |k: &str| run.get(k).ok_or_else(|| format!("{path}: run lacks {k}"));
            let metrics = field("metrics")?
                .as_object()
                .ok_or_else(|| format!("{path}: metrics is not an object"))?
                .iter()
                .map(|(name, m)| {
                    let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                    (
                        name.clone(),
                        Reading {
                            value: num("value"),
                            q1: num("q1"),
                            q3: num("q3"),
                        },
                    )
                })
                .collect();
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
                metrics,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "regression",
        }
    }
}

/// One side's readings of one metric, digested.
struct Side {
    median: f64,
    /// Interquartile range over the median.
    spread: f64,
    lo: f64,
    hi: f64,
}

fn side(readings: &[Reading]) -> Side {
    if let [only] = readings {
        return Side {
            median: only.value,
            spread: ((only.q3 - only.q1) / only.value).abs(),
            lo: only.q1.min(only.value),
            hi: only.q3.max(only.value),
        };
    }
    let values: Vec<f64> = readings.iter().map(|r| r.value).collect();
    let s = stats::summarize(&values);
    Side {
        median: s.median,
        spread: s.spread(),
        lo: s.min,
        hi: s.max,
    }
}

/// The verdict on one metric: `a` is the reference, `b` the candidate.
fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> (Verdict, f64) {
    let change = (b.median - a.median) / a.median;
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if worse.is_nan() {
        Verdict::Regression
    } else if worse <= bound {
        Verdict::Ok
    } else if a.spread.max(b.spread) > bound && a.lo <= b.hi && b.lo <= a.hi {
        Verdict::Unresolved
    } else {
        Verdict::Regression
    };
    (verdict, worse)
}

fn readings(runs: &[Run], workload: &str, metric: &str) -> Vec<Reading> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Prints the comparison; `Ok(true)` when no row is a regression.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("compare: A = {path_a}, B = {path_b}");
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse %", "spread %", "bound %"
    );
    let mut clean = true;
    for w in &table::WORKLOADS {
        for def in &table::END_TO_END {
            let (ra, rb) = (
                readings(&a, w.name, def.name),
                readings(&b, w.name, def.name),
            );
            if ra.is_empty() || rb.is_empty() {
                println!("{:<16} {:<14} missing from one file", w.name, def.name);
                continue;
            }
            let (sa, sb) = (side(&ra), side(&rb));
            let (verdict, worse) = judge(&sa, &sb, def.better, def.bound);
            clean &= verdict != Verdict::Regression;
            println!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>9.2} {:>8.2} {:>7.1}  {}",
                w.name,
                def.name,
                sa.median,
                sb.median,
                100.0 * worse,
                100.0 * sa.spread.max(sb.spread),
                100.0 * def.bound,
                verdict.as_str()
            );
        }
    }

    let (mut compared, mut differ) = (0, 0);
    for ra in &a {
        for rb in b
            .iter()
            .filter(|r| r.workload == ra.workload && r.seed == ra.seed)
        {
            for def in table::PER_LAYER.iter().filter(|d| d.exact) {
                if let (Some(x), Some(y)) = (ra.metrics.get(def.name), rb.metrics.get(def.name)) {
                    compared += 1;
                    if x.value != y.value {
                        differ += 1;
                        println!(
                            "count {:<16} seed {:<4} {:<26} A = {} B = {}  differs",
                            ra.workload, ra.seed, def.name, x.value, y.value
                        );
                    }
                }
            }
        }
    }
    println!("exact counts: {compared} compared, {differ} differ");
    println!(
        "{}",
        if clean {
            "no regression"
        } else {
            "REGRESSION: at least one end-to-end metric worsened beyond its bound"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Side {
        side(
            &values
                .iter()
                .map(|&v| Reading {
                    value: v,
                    q1: v,
                    q3: v,
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn verdicts() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5]);
        // within the bound
        let (v, worse) = judge(&a, &runs(&[105.0, 106.0, 104.0]), Better::Lower, 0.1);
        assert_eq!(v, Verdict::Ok);
        assert!((worse - 0.0473).abs() < 1e-3);
        // beyond the bound, tight runs, no overlap
        let (v, _) = judge(&a, &runs(&[120.0, 121.0, 119.0]), Better::Lower, 0.1);
        assert_eq!(v, Verdict::Regression);
        // beyond the bound, but B is noisy and overlaps A
        let (v, _) = judge(&a, &runs(&[95.0, 115.0, 140.0, 160.0]), Better::Lower, 0.1);
        assert_eq!(v, Verdict::Unresolved);
        // "higher is better" flips the direction
        let (v, _) = judge(&a, &runs(&[80.0, 81.0, 79.0]), Better::Higher, 0.1);
        assert_eq!(v, Verdict::Regression);
        let (v, _) = judge(&a, &runs(&[120.0, 121.0]), Better::Higher, 0.1);
        assert_eq!(v, Verdict::Ok);
        // a single run per side falls back to its own quartiles
        let one = side(&[Reading {
            value: 10.0,
            q1: 8.0,
            q3: 13.0,
        }]);
        assert!((one.spread - 0.5).abs() < 1e-12);
        assert_eq!((one.lo, one.hi), (8.0, 13.0));
    }
}
