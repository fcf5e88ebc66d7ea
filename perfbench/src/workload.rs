//! What every workload shares: its run settings, what it hands back,
//! the time-boxed step loop and the step-time summaries.

use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use paratreet_geometry::Vec3;
use paratreet_particles::{gen, Particle};
use std::time::{Duration, Instant};

/// Settings of one run.
pub struct Ctx {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Span sink (recording only on traced runs).
    pub tracer: Tracer,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Input sizes, for the record.
    pub sizes: Vec<(&'static str, u64)>,
    /// Operations attempted (steps, catalogs, queries, checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// A line per failed check, printed to stderr.
    pub failures: Vec<String>,
    /// Everything measured.
    pub metrics: Metrics,
    /// Traced steps, which the `self.*` times are divided by.
    pub traced_steps: usize,
    /// Self time per traced step of each span name (traced runs).
    pub raw_self: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is remembered.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Steps per window of the windowed batch statistics.
pub const WINDOW_STEPS: usize = 10;

/// Wall time of each measured step, split by whether tracing was on.
#[derive(Default)]
pub struct StepTimes {
    /// Every step, in order.
    pub all: Vec<f64>,
    /// Steps run with tracing on (traced runs only).
    pub traced: Vec<f64>,
    /// Steps run with tracing off.
    pub untraced: Vec<f64>,
}

impl StepTimes {
    /// Records one step.
    pub fn push(&mut self, seconds: f64, traced: bool) {
        self.all.push(seconds);
        if traced {
            self.traced.push(seconds);
        } else {
            self.untraced.push(seconds);
        }
    }

    /// The end-to-end step metrics of a batch workload, where one step
    /// processes `items` particles: the median step and its p50 in ms;
    /// and, over windows of [`WINDOW_STEPS`] consecutive steps, the
    /// median window's p99 (its slowest step) and the median window's
    /// particles per second of step time. A run holds far fewer than
    /// the thousand steps a whole-run p99 would need, and one hiccup of
    /// a shared host would set it alone.
    pub fn report_batch(&self, m: &mut Metrics, items: usize) {
        let n = self.all.len();
        m.set("step_s", median(&self.all), n);
        m.set("p50_ms", percentile(&self.all, 0.50) * 1e3, n);
        let mut windows: Vec<&[f64]> = self.all.chunks(WINDOW_STEPS).collect();
        if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < WINDOW_STEPS / 2) {
            windows.pop();
        }
        let p99: Vec<f64> = windows.iter().map(|w| percentile(w, 0.99) * 1e3).collect();
        m.set("p99_ms", median(&p99), n);
        let rates: Vec<f64> = windows
            .iter()
            .map(|w| items as f64 * w.len() as f64 / w.iter().sum::<f64>().max(1e-12))
            .collect();
        m.set("qps", median(&rates), n);
        self.report_tracing(m);
    }

    /// Traced-versus-untraced step medians and their difference.
    pub fn report_tracing(&self, m: &mut Metrics) {
        let (traced, untraced) = (median(&self.traced), median(&self.untraced));
        m.set("trace.step_s", traced, self.traced.len());
        m.set("trace.untraced_step_s", untraced, self.untraced.len());
        let both = self.traced.len().min(self.untraced.len());
        m.set("trace.overhead_s", traced - untraced, both);
    }
}

/// Runs `step` until `seconds` have passed (and at least `min_steps`
/// ran). On a traced run every other step is traced, starting with the
/// first. `step` gets the step index and the tracer and returns its own
/// wall time.
pub fn time_boxed(
    ctx: &mut Ctx,
    min_steps: usize,
    mut step: impl FnMut(usize, &Tracer) -> f64,
) -> StepTimes {
    let mut times = StepTimes::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let traced_run = ctx.tracer.enabled();
    let mut i = 0;
    while i < min_steps || Instant::now() < deadline {
        let traced = traced_run && i % 2 == 0;
        ctx.tracer.set_active(traced);
        let seconds = step(i, &ctx.tracer);
        times.push(seconds, traced);
        i += 1;
    }
    ctx.tracer.set_active(false);
    times
}

/// Medians of a per-step series, stored under `name`.
pub fn set_median(m: &mut Metrics, name: &'static str, values: &[f64]) {
    m.set(name, median(values), values.len());
}

/// Runs `f` `reps` times and returns the median wall time and the last
/// result — set-up cost measured as a median, like every other time.
pub fn median_setup<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// The process's peak resident set size in MB (`VmHWM`), or `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `n` particles of total mass 1 in Plummer spheres of scale radius `a`
/// at fixed `centers`, sampled from `seed`. Each sphere is cut at 10 a
/// (about 1.5% of a Plummer sphere's mass lies beyond): the root box,
/// and with it the whole tree, then no longer hangs on the seed's one
/// farthest particle, so every seed costs about the same. Ids are
/// sequential.
pub fn plummer_clusters(n: usize, seed: u64, centers: &[Vec3], a: f64) -> Vec<Particle> {
    let k = centers.len().max(1);
    let mut out = Vec::with_capacity(n);
    for (c, center) in centers.iter().enumerate() {
        let n_c = n / k + usize::from(c < n % k);
        let sub_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(c as u64);
        // Velocities in equilibrium with the sphere's own mass, 1/k.
        let sphere = gen::plummer(2 * n_c + 64, sub_seed, a, 1.0 / k as f64);
        let kept: Vec<Particle> =
            sphere.into_iter().filter(|p| p.pos.norm() <= 10.0 * a).take(n_c).collect();
        assert_eq!(kept.len(), n_c, "a Plummer sphere keeps over 98% within 10 a");
        for mut p in kept {
            p.pos += *center;
            p.mass = 1.0 / n as f64;
            p.id = out.len() as u64;
            out.push(p);
        }
    }
    out
}

/// Four clusters of scale radius 1/8 on the vertices of a tetrahedron
/// inscribed in [-1, 1]³: the clustered volume of `gravity` and `serve`.
pub fn four_clusters(n: usize, seed: u64) -> Vec<Particle> {
    let h = 0.5;
    let centers =
        [Vec3::new(h, h, h), Vec3::new(h, -h, -h), Vec3::new(-h, h, -h), Vec3::new(-h, -h, h)];
    plummer_clusters(n, seed, &centers, 0.125)
}

/// A seeded sample of `count` distinct indices below `n`, ascending.
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    use rand::{Rng, SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count.min(n) {
        picked.insert(rng.random_range(0..n));
    }
    picked.into_iter().collect()
}
