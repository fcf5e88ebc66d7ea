//! The metric catalogue and the result lines a run prints.
//!
//! Every metric the benchmark can report is named here once, with its
//! unit. A run fills a [`Metrics`] set; [`Metrics::emit`] then walks the
//! catalogue, so a metric the workload forgot is a hard error rather
//! than a silently missing key, and a per-layer metric of a layer the
//! workload never calls reads 0 with 0 samples ("idle").

use paratreet_telemetry::Json;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): what a user of the library sees,
/// and what `BENCHMARK.json` gates.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("step_s", "s"), ("peak_rss_mb", "MB"), ("qps", "1/s"), ("p50_ms", "ms")];

/// Per-layer metrics (`--trace 1`), named by the module they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core::decomp
    ("decomp.busy_s", "s"),
    ("decomp.subtrees", "count"),
    ("decomp.partitions", "count"),
    ("decomp.split_leaves", "count"),
    // tree::build
    ("build.busy_s", "s"),
    ("build.nodes", "count"),
    // core::framework (leaf sharing, cache init)
    ("framework.setup_s", "s"),
    ("share.busy_s", "s"),
    ("share.buckets", "count"),
    // core::traversal with the app visitors
    ("traverse.busy_s", "s"),
    ("traverse.opens", "count"),
    ("traverse.node_interactions", "count"),
    ("traverse.leaf_interactions", "count"),
    ("traverse.nodes_visited", "count"),
    ("traverse.kernel_s", "s"),
    ("traverse.walk_s", "s"),
    ("traverse.bytes_per_interaction", "B"),
    // kernels, calibrated on the workload's own particles
    ("kernel.grav_exact_ns", "ns"),
    ("kernel.grav_approx_ns", "ns"),
    ("kernel.sph_ns", "ns"),
    ("kernel.knn_ns", "ns"),
    // apps::gravity
    ("gravity.force_err_rms", "ratio"),
    // apps::sph
    ("sph.gather_s", "s"),
    ("sph.neighbor_entries", "count"),
    // core::maintain and tree::update
    ("update.busy_s", "s"),
    ("update.moved", "count"),
    ("update.patched", "count"),
    ("update.subtree_rebuilds", "count"),
    ("update.full_rebuilds", "count"),
    ("update.patched_per_moved", "ratio"),
    // core::forest
    ("forest.decompose_s", "s"),
    ("forest.build_s", "s"),
    ("forest.seam_s", "s"),
    ("forest.seam_splits", "count"),
    ("ghost.exchange_s", "s"),
    ("ghost.particles", "count"),
    ("ghost.bytes", "B"),
    // apps::fof
    ("fof.link_s", "s"),
    ("fof.links", "count"),
    ("fof.halos", "count"),
    // serve
    ("serve.submit_wait_s", "s"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.pin_wait_p99_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.exec_p99_ms", "ms"),
    ("serve.snapshots_published", "count"),
    ("serve.pin_retries", "count"),
    ("serve.writer_stalls", "count"),
    ("serve.completed_per_submitted", "ratio"),
    ("load.lateness_p99_ms", "ms"),
    // Self time per traced step, from the Chrome trace (see trace.rs).
    ("self.app_s", "s"),
    ("self.framework_s", "s"),
    ("self.decomp_s", "s"),
    ("self.build_s", "s"),
    ("self.share_s", "s"),
    ("self.traverse_s", "s"),
    ("self.walk_s", "s"),
    ("self.update_s", "s"),
    ("self.gather_s", "s"),
    ("self.forest_s", "s"),
    ("self.ghost_s", "s"),
    ("self.link_s", "s"),
    ("self.publish_s", "s"),
    // Tracing itself.
    ("trace.step_s", "s"),
    ("trace.untraced_step_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// End-to-end metrics printed in the full record only, never gated:
/// the error rate the final line's `failed / attempted` also carries;
/// `p99_ms`, which on `serve` follows the host's scheduling stalls too
/// closely to gate on a shared 2-core host (its spread over ten seeds
/// was about 0.5 of its median); and the whole open-loop phase's p99
/// beside the windowed `p99_ms`.
pub const RECORD_ONLY: &[(&str, &str)] =
    &[("error_rate", "ratio"), ("p99_ms", "ms"), ("p99_all_ms", "ms")];

/// Looks a metric's unit up in the catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).chain(RECORD_ONLY).find(|(n, _)| *n == name).map(|m| m.1)
}

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// The reported value (a median, a count, or a ratio).
    pub value: f64,
    /// How many measurements the value summarises (0 = layer idle).
    pub samples: u64,
}

/// The metrics one run measured, keyed by catalogue name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Sample>,
}

impl Metrics {
    /// Records `name`. Panics on a name missing from the catalogue: that
    /// is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalogue");
        self.values.insert(name, Sample { value, samples: samples as u64 });
    }

    /// Records a count taken once (one sample).
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64, 1);
    }

    /// The recorded sample for `name`, if any.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Sample> {
        self.values.get(name).copied()
    }

    /// Every metric of `catalogue` as `(name, unit, sample)`. End-to-end
    /// metrics must all be present (a missing one panics); per-layer
    /// metrics a workload never touched read 0 with 0 samples.
    pub fn emit(&self, catalogue: &[(&'static str, &'static str)], required: bool) -> Vec<Row> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let sample = match self.values.get(name) {
                    Some(s) => *s,
                    None if required => panic!("end-to-end metric {name} was not measured"),
                    None => Sample { value: 0.0, samples: 0 },
                };
                Row { name, unit, sample }
            })
            .collect()
    }
}

/// One emitted metric.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value and sample count.
    pub sample: Sample,
}

/// A JSON number with all its digits (non-finite values become 0, which
/// JSON cannot otherwise carry).
fn num(v: f64) -> Json {
    Json::F64(if v.is_finite() { v } else { 0.0 })
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}`
/// with each metric as `{"value", "unit"}`.
pub fn final_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let mut metrics = Json::obj();
    for row in rows {
        let mut m = Json::obj();
        m.push("value", num(row.sample.value));
        m.push("unit", Json::Str(row.unit.to_string()));
        metrics.push(row.name, m);
    }
    let mut doc = Json::obj();
    doc.push("correct", Json::Bool(correct));
    doc.push("attempted", Json::U64(attempted));
    doc.push("failed", Json::U64(failed));
    doc.push("metrics", metrics);
    doc.to_string()
}

/// The metric map of the full record: `{"value", "unit", "samples"}`.
pub fn rows_json(rows: &[Row]) -> Json {
    let mut metrics = Json::obj();
    for row in rows {
        let mut m = Json::obj();
        m.push("value", num(row.sample.value));
        m.push("unit", Json::Str(row.unit.to_string()));
        m.push("samples", Json::U64(row.sample.samples));
        metrics.push(row.name, m);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER).chain(RECORD_ONLY).map(|m| m.0).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER).chain(RECORD_ONLY) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn emit_fills_idle_layers_and_requires_end_to_end() {
        let mut m = Metrics::default();
        m.set("decomp.busy_s", 0.5, 3);
        let rows = m.emit(PER_LAYER, false);
        assert_eq!(rows.len(), PER_LAYER.len());
        let decomp = rows.iter().find(|r| r.name == "decomp.busy_s").unwrap();
        assert_eq!(decomp.sample, Sample { value: 0.5, samples: 3 });
        let idle = rows.iter().find(|r| r.name == "fof.halos").unwrap();
        assert_eq!(idle.sample.samples, 0);
        let missing = std::panic::catch_unwind(|| m.emit(END_TO_END, true));
        assert!(missing.is_err());
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.25, 4);
        }
        let line = final_line(true, 10, 0, &m.emit(END_TO_END, true));
        let doc = paratreet_telemetry::json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let step = doc.get("metrics").and_then(|m| m.get("step_s")).unwrap();
        assert_eq!(step.get("unit"), Some(&Json::Str("s".into())));
        assert_eq!(step.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
