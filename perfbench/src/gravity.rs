//! `gravity`: Barnes–Hut gravity on clustered multi-Plummer particles
//! through the shared-memory `Framework` (octree, Morton SFC
//! decomposition, θ = 0.7, a full rebuild every leapfrog step).
//!
//! One step is a kick-drift, `Framework::step` with one top-down
//! gravity traversal in its callback, and the closing kick. Set-up is
//! the warm-up step (a fresh framework's first force computation).
//! Every step's accelerations are checked against direct summation on
//! a seeded sample of targets; the RMS relative error over all of them
//! must stay under the tolerance of the repository's accuracy tests.

use crate::calib::{self, KernelCosts};
use crate::workload::{
    four_clusters, median_setup, sample_indices, set_median, time_boxed, Ctx, Outcome,
};
use paratreet_apps::gravity::{grav_exact, CentroidData, GravityVisitor};
use paratreet_core::{Configuration, Framework, TraversalKind, WorkCounts};
use paratreet_geometry::Vec3;
use paratreet_particles::Particle;
use std::time::Instant;

/// Particles (about 0.3 s per step on a 2-core x86-64 host).
pub const PARTICLES: usize = 25_000;
/// Opening angle.
const THETA: f64 = 0.7;
/// Leapfrog time step.
const DT: f64 = 1.0 / 256.0;
/// Direct-summation targets checked per step.
const CHECK_TARGETS: usize = 16;
/// RMS relative acceleration error the run may not exceed: the
/// tolerance of the repository's gravity accuracy tests.
pub const FORCE_TOLERANCE: f64 = 0.02;
/// Warm-up steps timed for `setup_s`.
const SETUP_REPS: usize = 3;

/// The seeded input: four Plummer clusters at fixed centres.
pub fn particles(seed: u64) -> Vec<Particle> {
    four_clusters(PARTICLES, seed)
}

fn config(seed: u64) -> Configuration {
    Configuration { bucket_size: 16, n_subtrees: 8, n_partitions: 16, seed, ..Default::default() }
}

/// What one step measured, beyond its wall time.
#[derive(Default)]
struct StepSample {
    wall: f64,
    framework_setup: f64,
    traverse: f64,
    decompose: f64,
    build: f64,
    share: f64,
    counts: WorkCounts,
    subtrees: usize,
    partitions: usize,
    buckets: usize,
    split_leaves: usize,
    nodes: usize,
}

/// One leapfrog step, timed from outside each library call.
fn step(
    fw: &mut Framework<CentroidData>,
    visitor: &GravityVisitor,
    tracer: &crate::trace::Tracer,
) -> StepSample {
    let mut s = StepSample::default();
    let t0 = Instant::now();
    fw.telemetry = tracer.handle();
    tracer.span("step", || {
        tracer.span("integrate", || {
            for p in fw.particles_mut().iter_mut() {
                p.vel += p.acc * (0.5 * DT);
                p.pos += p.vel * DT;
                p.acc = Vec3::ZERO;
                p.potential = 0.0;
            }
        });
        let call = Instant::now();
        let mut exit = call;
        let (_, report) = fw.step(|st| {
            let entry = Instant::now();
            tracer.record("framework.setup", call, entry);
            s.framework_setup = entry.duration_since(call).as_secs_f64();
            let t = Instant::now();
            let (_, stats) =
                tracer.span("traverse", || st.traverse(visitor, TraversalKind::TopDown));
            s.traverse = t.elapsed().as_secs_f64();
            s.counts = stats.counts;
            s.nodes = st.cache.n_allocated();
            exit = Instant::now();
        });
        tracer.record("framework.writeback", exit, Instant::now());
        tracer.span("integrate", || {
            for p in fw.particles_mut().iter_mut() {
                p.vel += p.acc * (0.5 * DT);
            }
        });
        s.decompose = report.seconds_decompose;
        s.build = report.seconds_build;
        s.share = report.seconds_share;
        s.subtrees = report.n_subtrees;
        s.partitions = report.n_partitions;
        s.buckets = report.n_buckets;
        s.split_leaves = report.n_split_leaves;
    });
    s.wall = t0.elapsed().as_secs_f64();
    s
}

/// RMS relative acceleration error of `targets` against direct
/// summation over every particle.
pub fn force_error(particles: &[Particle], targets: &[usize]) -> f64 {
    let mut sum = 0.0;
    for &i in targets {
        let p = &particles[i];
        let mut exact = Vec3::ZERO;
        for s in particles {
            if s.id != p.id {
                exact += grav_exact(p.pos, s.pos, s.mass, p.softening.max(s.softening)).0;
            }
        }
        let rel = (p.acc - exact).norm() / exact.norm().max(1e-300);
        sum += rel * rel;
    }
    (sum / targets.len().max(1) as f64).sqrt()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let input = particles(ctx.seed);
    let visitor = GravityVisitor { theta: THETA, g: 1.0 };
    out.sizes = vec![("particles", PARTICLES as u64), ("clusters", 4)];

    // Set-up: the warm-up step of a fresh framework, timed SETUP_REPS
    // times; the last framework carries on into the measured steps.
    let (setup_s, mut fw) = median_setup(SETUP_REPS, || {
        let mut fw = Framework::<CentroidData>::new(config(ctx.seed), input.clone());
        fw.step(|st| st.traverse(&visitor, TraversalKind::TopDown));
        fw
    });
    out.metrics.set("setup_s", setup_s, SETUP_REPS);
    let costs: KernelCosts = calib::calibrate(fw.particles());

    let mut samples: Vec<StepSample> = Vec::new();
    let mut errors = Vec::new();
    let seed = ctx.seed;
    let times = time_boxed(ctx, 3, |i, tracer| {
        let s = step(&mut fw, &visitor, tracer);
        let wall = s.wall;
        samples.push(s);
        // Untimed: direct summation on this step's seeded sample.
        let targets = sample_indices(PARTICLES, CHECK_TARGETS, seed ^ (i as u64 + 1));
        errors.push(force_error(fw.particles(), &targets));
        wall
    });
    out.traced_steps = times.traced.len();
    // Every step is an operation; the accuracy check over all the
    // sampled targets is one more.
    out.attempted += samples.len() as u64;
    let rms = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len().max(1) as f64).sqrt();
    out.check(rms.is_finite() && rms < FORCE_TOLERANCE, || {
        format!("rms force error {rms:.3e} over {} steps exceeds {FORCE_TOLERANCE}", errors.len())
    });

    let m = &mut out.metrics;
    times.report_batch(m, PARTICLES);
    m.set("gravity.force_err_rms", rms, errors.len() * CHECK_TARGETS);
    let series = |f: fn(&StepSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    set_median(m, "decomp.busy_s", &series(|s| s.decompose));
    set_median(m, "build.busy_s", &series(|s| s.build));
    set_median(m, "framework.setup_s", &series(|s| s.framework_setup));
    set_median(m, "share.busy_s", &series(|s| s.share));
    let busy = series(|s| s.traverse);
    set_median(m, "traverse.busy_s", &busy);
    // Counts: the first measured step (identical for a given seed).
    let first = &samples[0];
    m.count("decomp.subtrees", first.subtrees as u64);
    m.count("decomp.partitions", first.partitions as u64);
    m.count("decomp.split_leaves", first.split_leaves as u64);
    m.count("build.nodes", first.nodes as u64);
    m.count("share.buckets", first.buckets as u64);
    m.count("traverse.opens", first.counts.opens);
    m.count("traverse.node_interactions", first.counts.node_interactions);
    m.count("traverse.leaf_interactions", first.counts.leaf_interactions);
    m.count("traverse.nodes_visited", first.counts.nodes_visited);
    costs.report(m);
    let kernel_s: Vec<f64> = samples
        .iter()
        .map(|s| {
            (s.counts.leaf_interactions as f64 * costs.grav_exact_ns
                + s.counts.node_interactions as f64 * costs.grav_approx_ns)
                * 1e-9
        })
        .collect();
    let kernel = crate::stats::median(&kernel_s);
    calib::report_split(m, crate::stats::median(&busy), kernel, samples.len());
    // Computed, not measured: an exact interaction reads a source
    // particle, an approximate one a node's moments.
    let (leaf, node) =
        (first.counts.leaf_interactions as f64, first.counts.node_interactions as f64);
    let bytes = leaf * std::mem::size_of::<Particle>() as f64
        + node * std::mem::size_of::<CentroidData>() as f64;
    m.set("traverse.bytes_per_interaction", bytes / (leaf + node).max(1.0), 1);
    out
}
