//! Spans recorded by the benchmark around its calls into the library,
//! and the per-layer self times derived from them.
//!
//! A traced run hands one wall-clock [`Telemetry`] recorder both to its
//! own spans (named below) and to the library, whose shared-memory
//! engine already records `decomposition`, `tree build`, `leaf
//! sharing`, `local traversal` and `incremental update` spans on it.
//! Tracing is switched on for every other step only, so the same run
//! also measures the untraced step time and with it the tracing
//! overhead. The trace is written as a Chrome trace that
//! `paratreet-analyze --trace` reads.

use paratreet_telemetry::{chrome_trace_json, Telemetry, Trace, Track};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which `self.*` metric each span's self time is charged to.
pub const SPAN_LAYERS: &[(&str, &str)] = &[
    // Benchmark spans (the root of every batch workload is `step`).
    ("step", "self.app_s"),
    ("integrate", "self.app_s"),
    ("framework.setup", "self.framework_s"),
    ("framework.writeback", "self.framework_s"),
    ("traverse", "self.traverse_s"),
    ("sph.step", "self.gather_s"),
    ("forest.decompose", "self.forest_s"),
    ("forest.build", "self.forest_s"),
    ("forest.seam", "self.forest_s"),
    ("ghost.exchange", "self.ghost_s"),
    ("fof.link", "self.link_s"),
    ("writer.advance", "self.update_s"),
    ("writer.publish", "self.publish_s"),
    // Spans the library records itself.
    ("decomposition", "self.decomp_s"),
    ("tree build", "self.build_s"),
    ("leaf sharing", "self.share_s"),
    ("local traversal", "self.walk_s"),
    ("incremental update", "self.update_s"),
];

/// The traced run's span sink. Disabled (every call a plain call) for
/// untraced runs and for the untraced half of a traced run's steps.
pub struct Tracer {
    recorder: Telemetry,
    active: bool,
}

impl Tracer {
    /// A tracer that records when `enabled` (and is switched on).
    pub fn new(enabled: bool) -> Tracer {
        let recorder = if enabled { Telemetry::wall(8) } else { Telemetry::disabled() };
        Tracer { recorder, active: enabled }
    }

    /// Whether this run records spans at all.
    pub fn enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Switches recording on or off (no-op on an untraced run).
    pub fn set_active(&mut self, active: bool) {
        self.active = active && self.enabled();
    }

    /// The handle to give the library: the recorder while active, a
    /// disabled handle otherwise.
    pub fn handle(&self) -> Telemetry {
        if self.active {
            self.recorder.clone()
        } else {
            Telemetry::disabled()
        }
    }

    /// Runs `f` inside a span named `name` when active.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.active {
            self.recorder.wall_span(0, name, None, f)
        } else {
            f()
        }
    }

    /// Records a span between two instants taken by the caller, for an
    /// interval no closure wraps (a call up to entry into its callback).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if self.active {
            let track = Track { rank: 0, worker: self.recorder.thread_slot() };
            let start_us = self.recorder.us_of(start);
            let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
            self.recorder.span_at(track, name, start_us, dur_us, None);
        }
    }

    /// A handle for another thread (the serve writer): records only
    /// while this tracer is active at the time of the call.
    pub fn for_thread(&self) -> Tracer {
        Tracer { recorder: self.recorder.clone(), active: self.active }
    }

    /// Everything recorded so far.
    pub fn drain(&self) -> Trace {
        self.recorder.drain()
    }
}

/// Self time per span name, in seconds summed over the trace: each
/// span's duration minus the time its direct children on the same
/// track cover.
pub fn self_times(trace: &Trace) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans = trace.spans.clone();
    // Parents sort before the children they contain: by track, start,
    // then longest first.
    spans.sort_by(|a, b| {
        a.track
            .cmp(&b.track)
            .then(a.start_us.total_cmp(&b.start_us))
            .then(b.dur_us.total_cmp(&a.dur_us))
    });
    // Open spans: (track, end, name, duration, child time).
    let mut stack: Vec<(Track, f64, &'static str, f64, f64)> = Vec::new();
    let close = |entry: (Track, f64, &'static str, f64, f64),
                 out: &mut BTreeMap<&'static str, f64>| {
        *out.entry(entry.2).or_default() += (entry.3 - entry.4).max(0.0) * 1e-6;
    };
    // Timestamps are microseconds from one clock; a child may end a
    // rounding step after its parent.
    const EPS_US: f64 = 0.01;
    for s in &spans {
        while let Some(top) = stack.last() {
            if top.0 == s.track && s.start_us + EPS_US < top.1 {
                break;
            }
            let done = stack.pop().expect("non-empty");
            close(done, &mut out);
        }
        if let Some(parent) = stack.last_mut() {
            parent.4 += s.dur_us;
        }
        stack.push((s.track, s.start_us + s.dur_us, s.name, s.dur_us, 0.0));
    }
    while let Some(done) = stack.pop() {
        close(done, &mut out);
    }
    out
}

/// Sums per-span self times into their `self.*` layer metrics.
pub fn layer_self_times(per_span: &[(&'static str, f64)]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for &(span, seconds) in per_span {
        let layer = SPAN_LAYERS
            .iter()
            .find(|(name, _)| *name == span)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("span {span} has no layer"));
        *out.entry(layer).or_insert(0.0) += seconds;
    }
    out
}

/// Writes `trace` as a Chrome trace to `path`.
pub fn write_chrome(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace_json(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_telemetry::{ClockDomain, Span, SpanLink};

    fn span(worker: u32, name: &'static str, start_us: f64, dur_us: f64) -> Span {
        Span {
            track: Track { rank: 0, worker },
            name,
            start_us,
            dur_us,
            key: None,
            link: SpanLink::NONE,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = Trace {
            clock: ClockDomain::Wall,
            spans: vec![
                span(0, "step", 0.0, 100.0),
                span(0, "traverse", 10.0, 50.0),
                span(0, "local traversal", 20.0, 30.0),
                span(0, "integrate", 70.0, 20.0),
                // Another thread's span overlapping in time is not a child.
                span(1, "writer.advance", 5.0, 90.0),
            ],
            counters: Default::default(),
        };
        let t = self_times(&trace);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t["step"], 30e-6));
        assert!(close(t["traverse"], 20e-6));
        assert!(close(t["local traversal"], 30e-6));
        assert!(close(t["integrate"], 20e-6));
        assert!(close(t["writer.advance"], 90e-6));
        // Self times partition the root: they sum to its duration.
        let track0: f64 =
            ["step", "traverse", "local traversal", "integrate"].iter().map(|n| t[n]).sum();
        assert!(close(track0, 100e-6));
    }

    #[test]
    fn inactive_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_active(false);
        tracer.span("step", || ());
        assert!(!tracer.handle().is_enabled());
        tracer.set_active(true);
        tracer.span("step", || ());
        assert_eq!(tracer.drain().spans.len(), 1);
        let off = Tracer::new(false);
        off.span("step", || ());
        assert!(off.drain().spans.is_empty());
    }
}
