//! The ParaTreeT benchmark: one seeded workload per run, measured end
//! to end (untraced) or layer by layer (traced), with its outputs
//! checked. See `perfbench/README.md`.
//!
//! ```text
//! paratreet-perfbench --workload gravity|sph|fof|serve --seed N \
//!                     --seconds S --trace 0|1 [--trace-out FILE]
//! paratreet-perfbench compare BASE NEW
//! ```
//!
//! A run prints one `{"record": ...}` line (provenance, input sizes,
//! every metric with its unit and sample count, raw span self times)
//! and, last, the result line `{"correct", "attempted", "failed",
//! "metrics"}`. It exits 1 when a correctness check failed and 2 on
//! bad arguments.

mod calib;
mod compare;
mod fof;
mod gravity;
mod report;
mod serve;
mod sph;
mod stats;
mod trace;
mod workload;

use paratreet_telemetry::Json;
use report::{final_line, rows_json, END_TO_END, PER_LAYER, RECORD_ONLY};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Ctx, Outcome};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["gravity", "sph", "fof", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: paratreet-perfbench --workload gravity|sph|fof|serve --seed N \
                     --seconds S --trace 0|1 [--trace-out FILE]\n       \
                     paratreet-perfbench compare BASE NEW";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, trace_out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => out.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}\n{USAGE}"));
    }
    Ok(out)
}

/// First line of a command's standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the run happened and with what.
fn provenance(args: &Args) -> Json {
    let mut p = Json::obj();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    p.push("nproc", Json::U64(nproc as u64));
    p.push("rustc", Json::Str(command_line("rustc", &["-V"])));
    // The repository this benchmark was built in, and no enclosing one.
    let git_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    p.push("commit", Json::Str(command_line("git", &["--git-dir", git_dir, "rev-parse", "HEAD"])));
    p.push("seed", Json::U64(args.seed));
    p.push("seconds", Json::F64(args.seconds));
    p.push("traced", Json::Bool(args.trace));
    p
}

fn run(args: &Args) -> Outcome {
    let mut ctx = Ctx { seed: args.seed, seconds: args.seconds, tracer: Tracer::new(args.trace) };
    let mut out = match args.workload.as_str() {
        "gravity" => gravity::run(&mut ctx),
        "sph" => sph::run(&mut ctx),
        "fof" => fof::run(&mut ctx),
        "serve" => serve::run(&mut ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let m = &mut out.metrics;
    m.set("peak_rss_mb", workload::peak_rss_mb().unwrap_or(0.0), 1);
    m.set("error_rate", out.failed as f64 / out.attempted.max(1) as f64, out.attempted as usize);
    if args.trace {
        let trace = ctx.tracer.drain();
        let steps = out.traced_steps;
        out.raw_self = trace::self_times(&trace)
            .into_iter()
            .map(|(name, s)| (name, s / steps.max(1) as f64))
            .collect();
        for (layer, seconds) in trace::layer_self_times(&out.raw_self) {
            m.set(layer, seconds, steps);
        }
        m.count("trace.spans", trace.spans.len() as u64);
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}-{}.json", args.workload, args.seed))
        });
        match trace::write_chrome(&trace, &path) {
            Ok(()) => eprintln!("wrote Chrome trace {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    out
}

fn bench(args: &Args) -> ExitCode {
    let out = run(args);
    for failure in &out.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let e2e = out.metrics.emit(END_TO_END, true);
    let layers = out.metrics.emit(PER_LAYER, false);
    let extra = out.metrics.emit(RECORD_ONLY, false);

    let mut record = Json::obj();
    record.push("workload", Json::Str(args.workload.clone()));
    record.push("provenance", provenance(args));
    let mut sizes = Json::obj();
    for (name, value) in &out.sizes {
        sizes.push(name, Json::U64(*value));
    }
    record.push("sizes", sizes);
    record.push("correct", Json::Bool(correct));
    record.push("attempted", Json::U64(out.attempted));
    record.push("failed", Json::U64(out.failed));
    let all: Vec<_> = e2e.iter().chain(&layers).chain(&extra).copied().collect();
    record.push("metrics", rows_json(&all));
    let mut raw = Json::obj();
    for (name, seconds) in &out.raw_self {
        raw.push(name, Json::F64(*seconds));
    }
    record.push("span_self_s", raw);
    let mut line = Json::obj();
    line.push("record", record);
    println!("{line}");

    let shown = if args.trace { &layers } else { &e2e };
    println!("{}", final_line(correct, out.attempted, out.failed, shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => bench(&args),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_particles::Particle;
    use paratreet_telemetry::json::parse;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        type Inputs = fn(u64) -> Vec<Particle>;
        let inputs: [(&str, Inputs); 4] = [
            ("gravity", gravity::particles),
            ("sph", sph::particles),
            ("fof", fof::particles),
            ("serve", serve::particles),
        ];
        for (name, make) in inputs {
            assert!(make(7) == make(7), "{name}: same seed, different inputs");
            assert!(make(7) != make(8), "{name}: different seeds, same inputs");
        }
    }

    /// A short run of `workload` (a few steps), its trace in a temp file.
    fn short_run(workload: &str, seed: u64, trace: bool) -> (Outcome, PathBuf) {
        let path = std::env::temp_dir()
            .join(format!("perfbench-test-{}-{workload}-{seed}-{trace}.json", std::process::id()));
        let args = Args {
            workload: workload.to_string(),
            seed,
            seconds: 0.3,
            trace,
            trace_out: Some(path.clone()),
        };
        (run(&args), path)
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs whole workloads: use --release")]
    fn same_seed_repeats_every_count() {
        for w in ["gravity", "sph", "fof"] {
            let (a, _) = short_run(w, 5, false);
            let (b, _) = short_run(w, 5, false);
            let counts: Vec<&str> =
                PER_LAYER.iter().filter(|(_, unit)| *unit == "count").map(|m| m.0).collect();
            for name in counts {
                assert_eq!(a.metrics.get(name), b.metrics.get(name), "{w}: {name}");
            }
            let (c, _) = short_run(w, 6, false);
            assert_ne!(
                a.metrics.get("traverse.leaf_interactions").or(a.metrics.get("fof.links")),
                c.metrics.get("traverse.leaf_interactions").or(c.metrics.get("fof.links")),
                "{w}: another seed gave the same counts"
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs whole workloads: use --release")]
    fn every_metric_is_emitted_with_a_unit() {
        // A metric each workload's own layers must report when traced.
        let owned = [
            (
                "gravity",
                ["traverse.busy_s", "kernel.grav_exact_ns", "self.walk_s", "decomp.busy_s"],
            ),
            ("sph", ["sph.gather_s", "update.busy_s", "traverse.kernel_s", "self.gather_s"]),
            ("fof", ["fof.link_s", "ghost.exchange_s", "forest.seam_s", "self.link_s"]),
            (
                "serve",
                [
                    "serve.exec_p99_ms",
                    "update.busy_s",
                    "serve.snapshots_published",
                    "self.update_s",
                ],
            ),
        ];
        for (w, layers) in owned {
            let (out, _) = short_run(w, 3, false);
            assert!(out.attempted > 0 && out.failed == 0, "{w}: {:?}", out.failures);
            for row in out.metrics.emit(END_TO_END, true) {
                assert!(!row.unit.is_empty() && row.sample.value > 0.0, "{w}: {}", row.name);
                assert!(row.sample.samples > 0, "{w}: {} has no samples", row.name);
            }
            let (traced, trace_file) = short_run(w, 3, true);
            let rows = traced.metrics.emit(PER_LAYER, false);
            assert_eq!(rows.len(), PER_LAYER.len());
            for name in layers {
                let row = rows.iter().find(|r| r.name == name).expect("in the catalogue");
                assert!(row.sample.samples > 0 && !row.unit.is_empty(), "{w}: {name} idle");
            }
            let text = std::fs::read_to_string(&trace_file).expect("trace written");
            std::fs::remove_file(&trace_file).ok();
            let events = paratreet_telemetry::validate_chrome_trace(&text).expect("valid trace");
            assert!(events > 0, "{w}: empty trace");
        }
    }

    #[test]
    fn benchmark_json_names_exactly_the_catalogue() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let named: Vec<(String, String)> =
                list(key).iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
            let expected: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(named, expected, "{key}");
        }
        for m in list("end_to_end") {
            let better = if text(&m, "name") == "qps" { "higher" } else { "lower" };
            assert_eq!(text(&m, "better"), better);
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
