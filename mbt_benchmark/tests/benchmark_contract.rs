//! The benchmark's contract with `BENCHMARK.json`, checked on a `--smoke`
//! run: the committed file is the table's own rendering and keeps to the
//! driver's limits, and the one command prints every workload's every
//! metric exactly once, with a finite value and the table's unit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use mbt_benchmark::harness::json::{self, Value};
use mbt_benchmark::harness::table;

const EXE: &str = env!("CARGO_BIN_EXE_mbt_benchmark");

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "mbt_benchmark {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the benchmark prints UTF-8")
}

fn committed() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every entry of one of the file's lists.
fn entries(doc: &Value, list: &str) -> Vec<(String, Option<String>)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|e| {
            let text = |k: &str| e.get(k).and_then(Value::as_str).map(str::to_string);
            (text("name").expect("every entry has a name"), text("unit"))
        })
        .collect()
}

#[test]
fn committed_file_is_the_tables_rendering() {
    assert_eq!(
        committed(),
        table::benchmark_json(),
        "BENCHMARK.json drifted from src/harness/table.rs; regenerate it with \
         `mbt_benchmark --emit-benchmark-json > BENCHMARK.json`"
    );
    assert_eq!(
        stdout_of(&["--emit-benchmark-json"]),
        table::benchmark_json()
    );
}

#[test]
fn names_and_limits_follow_the_contract() {
    let file = committed();
    assert!(file.len() <= 64 * 1024);
    let doc = json::parse(&file).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let workloads = entries(&doc, "workloads");
    let end_to_end = entries(&doc, "end_to_end");
    let per_layer = entries(&doc, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = BTreeSet::new();
    for (name, unit) in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(name_ok(name), "bad name {name}");
        assert!(seen.insert(name.clone()), "name {name} used twice");
        if let Some(unit) = unit {
            assert!(unit_ok(unit), "bad unit {unit} on {name}");
        }
    }
    for w in doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a list")
    {
        let why = w.get("why").and_then(Value::as_str).expect("a why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }
    let mut largest = 0.0_f64;
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("a list")
    {
        let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
        largest = largest.max(bound);
    }
    let setup = table::end_to_end("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert_eq!(setup.bound, largest, "set-up gets the largest bound");
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("a number");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let command = doc
        .get("command")
        .and_then(Value::as_array)
        .expect("a list");
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}

#[test]
fn smoke_prints_every_metric_of_every_workload_once() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-smoke");
    let out = stdout_of(&[
        "--smoke",
        "--out-dir",
        out_dir.to_str().expect("a UTF-8 temp path"),
    ]);
    // `metric <workload> <name> = <value> <unit> (n=...)`
    let mut printed: BTreeMap<(String, String), Vec<(f64, String)>> = BTreeMap::new();
    for line in out.lines().filter(|l| l.starts_with("metric ")) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        assert!(
            parts.len() >= 7 && parts[3] == "=",
            "malformed line: {line}"
        );
        assert!(parts[6].starts_with("(n="), "no sample count: {line}");
        let value: f64 = parts[4]
            .parse()
            .unwrap_or_else(|e| panic!("{line}: bad value: {e}"));
        printed
            .entry((parts[1].to_string(), parts[2].to_string()))
            .or_default()
            .push((value, parts[5].to_string()));
    }
    let doc = json::parse(&committed()).expect("BENCHMARK.json parses");
    let metrics: Vec<_> = entries(&doc, "end_to_end")
        .into_iter()
        .chain(entries(&doc, "per_layer"))
        .collect();
    for (workload, _) in entries(&doc, "workloads") {
        for (metric, unit) in &metrics {
            let got = printed
                .remove(&(workload.clone(), metric.clone()))
                .unwrap_or_else(|| panic!("{workload} never printed {metric}"));
            assert_eq!(
                got.len(),
                1,
                "{workload} printed {metric} {} times",
                got.len()
            );
            let (value, printed_unit) = &got[0];
            assert!(value.is_finite(), "{workload} {metric} = {value}");
            assert_eq!(Some(printed_unit), unit.as_ref(), "{workload} {metric}");
        }
    }
    assert!(
        printed.is_empty(),
        "printed but not in BENCHMARK.json: {:?}",
        printed.keys().collect::<Vec<_>>()
    );

    // every workload left a trace file whose spans name a known parent
    for w in &table::WORKLOADS {
        let path = out_dir.join(format!("trace-{}.json", w.name));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let trace = json::parse(&text).expect("the trace file parses");
        let spans = trace.as_array().expect("an array of spans");
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).expect("a number");
        let ids: BTreeSet<u64> = spans.iter().map(|s| num(s, "id") as u64).collect();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("op")));
        for s in spans {
            let parent = num(s, "parent") as u64;
            assert!(
                parent == 0 || ids.contains(&parent),
                "{}: orphan span",
                w.name
            );
            assert!(num(s, "end_ns") >= num(s, "start_ns"));
        }
    }

    // the result file carries the machine block, and agrees with itself
    let result = out_dir.join("result.json");
    let text = std::fs::read_to_string(&result).expect("result.json was written");
    let doc = json::parse(&text).expect("result.json parses");
    for key in [
        "nproc",
        "cpu_model",
        "simd_level",
        "m2p_lanes",
        "rustc",
        "git_commit",
    ] {
        assert!(
            doc.get("machine").and_then(|m| m.get(key)).is_some(),
            "machine block lacks {key}"
        );
    }
    assert_eq!(
        doc.get("runs")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(2 * table::WORKLOADS.len())
    );
    let result = result.to_str().expect("a UTF-8 temp path");
    let verdicts = stdout_of(&["--compare", result, result]);
    assert!(verdicts.contains("no regression"), "{verdicts}");
    assert!(!verdicts.contains("differs"), "{verdicts}");
}
