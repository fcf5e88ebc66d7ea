//! `compare BASE NEW`: the per-metric and per-layer diff of two sets of
//! runs.
//!
//! BASE and NEW are files (or directories of files) holding the output
//! of benchmark runs; every `{"record": ...}` line in them is one run.
//! For each workload and end-to-end metric it prints both sides'
//! median and quartiles, the change of the median, and the fraction of
//! pairs the new side won (the i-th run of each side form a pair; ties
//! count for neither). From traced runs it prints the self time per
//! step of every span, side by side.

use crate::report::{END_TO_END, RECORD_ONLY};
use crate::stats::{median, quartiles};
use paratreet_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::Path;

/// One run, reduced to what the comparison needs.
struct Run {
    workload: String,
    traced: bool,
    metrics: BTreeMap<String, f64>,
    self_s: BTreeMap<String, f64>,
}

fn numbers(obj: Option<&Json>, field: Option<&str>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(fields)) = obj {
        for (name, value) in fields {
            let v = match field {
                Some(f) => value.get(f).and_then(Json::as_f64),
                None => value.as_f64(),
            };
            if let Some(v) = v {
                out.insert(name.clone(), v);
            }
        }
    }
    out
}

fn parse_run(line: &str) -> Option<Run> {
    let doc = parse(line).ok()?;
    let r = doc.get("record")?;
    let Some(Json::Str(workload)) = r.get("workload") else { return None };
    let traced =
        matches!(r.get("provenance").and_then(|p| p.get("traced")), Some(Json::Bool(true)));
    Some(Run {
        workload: workload.clone(),
        traced,
        metrics: numbers(r.get("metrics"), Some("value")),
        self_s: numbers(r.get("span_self_s"), None),
    })
}

/// Every run recorded in `path` (a file, or the files of a directory).
fn load(path: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            files.push(entry.map_err(|e| e.to_string())?.path());
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        runs.extend(text.lines().filter(|l| l.starts_with("{\"record\"")).filter_map(parse_run));
    }
    if runs.is_empty() {
        return Err(format!("{}: no benchmark records", path.display()));
    }
    Ok(runs)
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q2, q3)) => format!("{q2:.6} [{q1:.6}, {q3:.6}]"),
        None => format!("{:.6} [n={}]", median(values), values.len()),
    }
}

/// Whether `new` beats `base` on `metric` (throughput is better higher,
/// everything else lower).
fn wins(metric: &str, base: f64, new: f64) -> bool {
    if metric == "qps" {
        new > base
    } else {
        new < base
    }
}

fn column<'a>(runs: &[&'a Run], get: impl Fn(&'a Run) -> Option<f64>) -> Vec<f64> {
    runs.iter().filter_map(|r| get(r)).collect()
}

pub fn run(args: &[String]) -> Result<String, String> {
    let [base, new] = args else {
        return Err("usage: paratreet-perfbench compare BASE NEW".into());
    };
    let (base, new) = (load(Path::new(base))?, load(Path::new(new))?);
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    for w in workloads {
        fn side<'a>(runs: &'a [Run], w: &str, traced: bool) -> Vec<&'a Run> {
            runs.iter().filter(|r| r.workload == w && r.traced == traced).collect()
        }
        let side = |runs, traced| side(runs, w, traced);
        let (b, n) = (side(&base, false), side(&new, false));
        writeln!(out, "== {w}: {} base runs, {} new runs", b.len(), n.len()).unwrap();
        if !b.is_empty() && !n.is_empty() {
            writeln!(
                out,
                "{:<14} {:<5} {:<36} {:<36} {:>8} {:>10}",
                "metric",
                "unit",
                "base median [q1, q3]",
                "new median [q1, q3]",
                "change",
                "new won"
            )
            .unwrap();
            for (metric, unit) in END_TO_END.iter().chain(RECORD_ONLY) {
                let bv = column(&b, |r| r.metrics.get(*metric).copied());
                let nv = column(&n, |r| r.metrics.get(*metric).copied());
                let pairs = bv.len().min(nv.len());
                let won = (0..pairs).filter(|&i| wins(metric, bv[i], nv[i])).count();
                let change = match median(&bv) {
                    0.0 => "n/a".to_string(),
                    base => format!("{:+.1}%", (median(&nv) / base - 1.0) * 100.0),
                };
                writeln!(
                    out,
                    "{:<14} {:<5} {:<36} {:<36} {:>8} {:>6}/{:<3}",
                    metric,
                    unit,
                    summary(&bv),
                    summary(&nv),
                    change,
                    won,
                    pairs
                )
                .unwrap();
            }
        }
        let (bt, nt) = (side(&base, true), side(&new, true));
        if !bt.is_empty() && !nt.is_empty() {
            writeln!(
                out,
                "-- self time per step, traced runs ({} base, {} new), s",
                bt.len(),
                nt.len()
            )
            .unwrap();
            let mut spans: Vec<&String> =
                bt.iter().chain(&nt).flat_map(|r| r.self_s.keys()).collect();
            spans.sort();
            spans.dedup();
            for span in spans {
                let bv = median(&column(&bt, |r| r.self_s.get(span).copied()));
                let nv = median(&column(&nt, |r| r.self_s.get(span).copied()));
                writeln!(out, "{:<22} {:>12.6} {:>12.6} {:>+12.6}", span, bv, nv, nv - bv).unwrap();
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, traced: bool, step: f64, walk: f64) -> String {
        format!(
            "{{\"record\":{{\"workload\":\"{workload}\",\"provenance\":{{\"traced\":{traced}}},\
             \"metrics\":{{\"step_s\":{{\"value\":{step},\"unit\":\"s\",\"samples\":3}},\
             \"qps\":{{\"value\":{},\"unit\":\"1/s\",\"samples\":3}}}},\
             \"span_self_s\":{{\"local traversal\":{walk}}}}}}}",
            1.0 / step
        )
    }

    #[test]
    fn compares_medians_pairs_and_self_times() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.jsonl");
        let new = dir.join("new.jsonl");
        let lines = |steps: &[f64], walk: f64| {
            let mut s: Vec<String> =
                steps.iter().map(|&t| record("gravity", false, t, 0.0)).collect();
            s.push(record("gravity", true, steps[0], walk));
            s.push("{\"correct\":true}".to_string());
            s.join("\n")
        };
        std::fs::write(&base, lines(&[1.0, 1.1, 0.9, 1.0], 0.5)).unwrap();
        std::fs::write(&new, lines(&[0.8, 0.85, 0.85, 0.9], 0.3)).unwrap();
        let text = run(&[base.display().to_string(), new.display().to_string()]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("== gravity: 4 base runs, 4 new runs"), "{text}");
        let step = text.lines().find(|l| l.starts_with("step_s")).unwrap();
        assert!(step.contains("-15.0%") && step.contains("4/4"), "{step}");
        let qps = text.lines().find(|l| l.starts_with("qps")).unwrap();
        assert!(qps.contains("4/4"), "{qps}");
        let walk = text.lines().find(|l| l.starts_with("local traversal")).unwrap();
        assert!(walk.contains("-0.2"), "{walk}");
    }
}
