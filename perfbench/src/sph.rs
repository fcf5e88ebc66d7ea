//! `sph`: SPH density and pressure forces from k = 32 nearest
//! neighbours on Plummer gas, through the shared-memory `Framework`
//! with incremental tree maintenance between drifted steps.
//!
//! One step is `SphSimulation::step` (an up-and-down kNN traversal on
//! the maintained tree, then the serial neighbour gather and force
//! pass) and the integration. Set-up is seeding a `TreeMaintainer` on
//! the input. Every step's smoothing lengths and densities are checked
//! against brute-force kNN on a seeded sample.

use crate::calib::{self, KernelCosts};
use crate::trace::Tracer;
use crate::workload::{
    median_setup, plummer_clusters, sample_indices, set_median, time_boxed, Ctx, Outcome,
};
use paratreet_apps::knn::KnnData;
use paratreet_apps::sph::{density_from_neighbors, sph_framework, SphSimulation, SphStepStats};
use paratreet_core::{Configuration, TreeMaintainer};
use paratreet_geometry::Vec3;
use paratreet_particles::Particle;
use paratreet_tree::Neighbor;
use std::time::Instant;

/// Particles.
pub const PARTICLES: usize = 20_000;
/// Neighbours per particle.
const K: usize = 32;
/// Integration time step.
const DT: f64 = 1e-3;
/// Particles checked against brute force per step.
const CHECK_TARGETS: usize = 8;
/// Maintainer seedings timed for `setup_s`.
const SETUP_REPS: usize = 15;

/// The seeded input: one Plummer sphere of gas, cut at 10 scale radii,
/// with uniform specific internal energy.
pub fn particles(seed: u64) -> Vec<Particle> {
    let mut ps = plummer_clusters(PARTICLES, seed, &[Vec3::ZERO], 1.0);
    for p in &mut ps {
        p.internal_energy = 1.0;
    }
    ps
}

fn config(seed: u64) -> Configuration {
    let mut c = Configuration {
        bucket_size: 16,
        n_subtrees: 8,
        n_partitions: 16,
        seed,
        ..Default::default()
    };
    c.incremental.enabled = true;
    c
}

/// Brute-force k nearest neighbours of `particles[i]` (itself
/// excluded), ascending by distance.
pub fn brute_knn(particles: &[Particle], i: usize, k: usize) -> Vec<Neighbor> {
    let p = &particles[i];
    let mut all: Vec<(f64, usize)> = particles
        .iter()
        .enumerate()
        .filter(|(_, q)| q.id != p.id)
        .map(|(j, q)| (q.pos.dist_sq(p.pos), j))
        .collect();
    let k = k.min(all.len());
    if k < all.len() {
        all.select_nth_unstable_by(k, |a, b| a.0.total_cmp(&b.0));
        all.truncate(k);
    }
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(particles[a.1].id.cmp(&particles[b.1].id)));
    all.into_iter()
        .map(|(d2, j)| {
            let q = &particles[j];
            Neighbor { dist_sq: d2, id: q.id, pos: q.pos, mass: q.mass, vel: q.vel }
        })
        .collect()
}

/// Whether `particles[i]`'s smoothing length and density are exactly
/// the ones its brute-force neighbour list gives.
pub fn matches_brute_force(particles: &[Particle], i: usize) -> bool {
    let p = &particles[i];
    let (h, rho) = density_from_neighbors(p.mass, &brute_knn(particles, i, K), None);
    p.smoothing == h && p.density == rho
}

/// What one step measured.
#[derive(Default)]
struct StepSample {
    wall: f64,
    sph_step: f64,
    stats: SphStepStats,
}

/// One step: drift with the previous step's accelerations, then the
/// SPH step. Positions are left as the SPH step read them, so the
/// brute-force check sees the same sources.
fn step(
    fw: &mut paratreet_core::Framework<KnnData>,
    sph: &SphSimulation,
    tracer: &Tracer,
) -> StepSample {
    let t0 = Instant::now();
    fw.telemetry = tracer.handle();
    let (sph_step, stats) = tracer.span("step", || {
        tracer.span("integrate", || {
            for p in fw.particles_mut().iter_mut() {
                p.vel += p.acc * DT;
                p.pos += p.vel * DT;
                p.acc = Vec3::ZERO;
            }
        });
        let t = Instant::now();
        let stats = tracer.span("sph.step", || sph.step(fw));
        (t.elapsed().as_secs_f64(), stats)
    });
    StepSample { wall: t0.elapsed().as_secs_f64(), sph_step, stats }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let input = particles(ctx.seed);
    let cfg = config(ctx.seed);
    out.sizes = vec![("particles", PARTICLES as u64), ("k", K as u64)];

    // Set-up: seeding the maintained tree, the cost of starting a run.
    let (setup_s, _) =
        median_setup(SETUP_REPS, || TreeMaintainer::<KnnData>::seed(&cfg, input.clone(), true));
    out.metrics.set("setup_s", setup_s, SETUP_REPS);

    // Warm-up: the framework's first step seeds its own maintainer.
    let sph = SphSimulation { k: K, ..Default::default() };
    let mut fw = sph_framework(cfg, input);
    step(&mut fw, &sph, &Tracer::new(false));
    let costs: KernelCosts = calib::calibrate(fw.particles());

    let mut samples: Vec<StepSample> = Vec::new();
    let mut checks: Vec<(usize, usize, bool)> = Vec::new();
    let seed = ctx.seed;
    let times = time_boxed(ctx, 3, |i, tracer| {
        let s = step(&mut fw, &sph, tracer);
        let wall = s.wall;
        samples.push(s);
        // Untimed: brute-force kNN on this step's seeded sample.
        for t in sample_indices(PARTICLES, CHECK_TARGETS, seed ^ (i as u64 + 1)) {
            checks.push((i, t, matches_brute_force(fw.particles(), t)));
        }
        wall
    });
    for (i, t, ok) in checks {
        out.check(ok, || format!("step {i}: particle {t} differs from brute-force kNN"));
    }
    out.traced_steps = times.traced.len();

    let m = &mut out.metrics;
    times.report_batch(m, PARTICLES);
    let reports: Vec<_> = samples.iter().map(|s| &s.stats.step).collect();
    let series = |f: &dyn Fn(&paratreet_core::StepReport) -> f64| -> Vec<f64> {
        reports.iter().map(|r| f(r)).collect()
    };
    set_median(m, "decomp.busy_s", &series(&|r| r.seconds_decompose));
    set_median(m, "build.busy_s", &series(&|r| r.seconds_build));
    set_median(m, "share.busy_s", &series(&|r| r.seconds_share));
    set_median(m, "update.busy_s", &series(&|r| r.seconds_update));
    // Framework set-up here is everything the step report charges
    // before the traversal: SphSimulation::step offers no callback to
    // time its entry from outside.
    set_median(
        m,
        "framework.setup_s",
        &series(&|r| r.seconds_decompose + r.seconds_build + r.seconds_update + r.seconds_share),
    );
    let busy = series(&|r| r.seconds_traverse);
    set_median(m, "traverse.busy_s", &busy);
    let gather: Vec<f64> = samples
        .iter()
        .map(|s| {
            let r = &s.stats.step;
            s.sph_step
                - (r.seconds_decompose
                    + r.seconds_build
                    + r.seconds_update
                    + r.seconds_share
                    + r.seconds_traverse)
        })
        .collect();
    set_median(m, "sph.gather_s", &gather);

    // Counts: the first measured step (identical for a given seed).
    let first = &samples[0].stats;
    let c = first.step.counts;
    m.count("decomp.subtrees", first.step.n_subtrees as u64);
    m.count("decomp.partitions", first.step.n_partitions as u64);
    m.count("decomp.split_leaves", first.step.n_split_leaves as u64);
    m.count("share.buckets", first.step.n_buckets as u64);
    m.count("traverse.opens", c.opens);
    m.count("traverse.node_interactions", c.node_interactions);
    m.count("traverse.leaf_interactions", c.leaf_interactions);
    m.count("traverse.nodes_visited", c.nodes_visited);
    m.count("sph.neighbor_entries", first.neighbor_entries);
    if let Some(u) = first.step.update {
        m.count("update.moved", u.moved);
        m.count("update.patched", u.patched);
        m.count("update.subtree_rebuilds", u.subtree_rebuilds);
        m.count("update.full_rebuilds", u.full_rebuilds);
        m.set("update.patched_per_moved", u.patched as f64 / u.moved.max(1) as f64, 1);
    }
    costs.report(m);
    // The kNN visitor's leaf kernel is a distance and a heap offer;
    // kernel_w itself runs in the gather, not the traversal.
    let kernel: Vec<f64> =
        reports.iter().map(|r| r.counts.leaf_interactions as f64 * costs.knn_ns * 1e-9).collect();
    calib::report_split(
        m,
        crate::stats::median(&busy),
        crate::stats::median(&kernel),
        samples.len(),
    );
    // Computed, not measured: a leaf candidate reads a source particle.
    m.set("traverse.bytes_per_interaction", std::mem::size_of::<Particle>() as f64, 1);
    out
}
