//! `fof`: friends-of-friends halo finding on tiled multi-Plummer
//! particles over a periodic 2×2×2 forest of boxes.
//!
//! One step is one full catalog: `decompose_forest`, per-box tree
//! builds, `enforce_seam_balance`, `exchange_ghosts` and `link_forest`.
//! Set-up is the warm-up catalog. The traversal layer and the gravity
//! kernels never run here. Every catalog must equal the catalog of the
//! same particles in one periodic box (the tiling invariance), built
//! once, untimed.

use crate::calib;
use crate::trace::Tracer;
use crate::workload::{median_setup, set_median, time_boxed, Ctx, Outcome};
use paratreet_apps::fof::{link_forest, FofCatalog, FofParams};
use paratreet_core::{
    decompose_forest, enforce_seam_balance, exchange_ghosts, Configuration, DomainSpec,
};
use paratreet_particles::{gen, Particle};
use paratreet_telemetry::Telemetry;
use paratreet_tree::CountData;
use std::time::Instant;

/// Particles (about 0.4 s per catalog on a 2-core x86-64 host).
pub const PARTICLES: usize = 200_000;
/// Boxes per axis of the periodic domain, and their edge.
const BOXES: [usize; 3] = [2, 2, 2];
const TILE: f64 = 1.0;
/// Smallest group that counts as a halo.
const MIN_MEMBERS: usize = 8;
/// Warm-up catalogs timed for `setup_s`.
const SETUP_REPS: usize = 3;

/// The seeded input: one Plummer clump per tile, wrapped periodically.
pub fn particles(seed: u64) -> Vec<Particle> {
    gen::tiled_plummer(PARTICLES, BOXES, seed, TILE, 1.0)
}

fn config(seed: u64) -> Configuration {
    Configuration { bucket_size: 16, n_subtrees: 16, n_partitions: 32, seed, ..Default::default() }
}

/// The linking length: 0.2 of the mean interparticle separation.
fn params() -> FofParams {
    let volume = (BOXES[0] * BOXES[1] * BOXES[2]) as f64 * TILE.powi(3);
    FofParams { link: 0.2 * (volume / PARTICLES as f64).cbrt(), min_members: MIN_MEMBERS }
}

/// What one catalog measured.
#[derive(Default)]
struct CatalogSample {
    wall: f64,
    decompose: f64,
    build: f64,
    seam: f64,
    exchange: f64,
    link: f64,
    nodes: u64,
    seam_splits: u64,
    ghost_particles: u64,
    ghost_bytes: u64,
    catalog: FofCatalog,
}

/// Times `f` under a span.
fn timed<R>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = tracer.span(name, f);
    (r, t0.elapsed().as_secs_f64())
}

/// One full catalog of `input` over `spec`. `input` is cloned before
/// the clock starts.
fn catalog(input: &[Particle], spec: &DomainSpec, seed: u64, tracer: &Tracer) -> CatalogSample {
    let cfg = config(seed);
    let params = params();
    let particles = input.to_vec();
    let mut s = CatalogSample::default();
    let t0 = Instant::now();
    tracer.span("step", || {
        let (forest, t) =
            timed(tracer, "forest.decompose", || decompose_forest(particles, &cfg, spec));
        s.decompose = t;
        let (mut trees, t) =
            timed(tracer, "forest.build", || forest.build_trees::<CountData>(&cfg, true));
        s.build = t;
        let (splits, t) = timed(tracer, "forest.seam", || {
            enforce_seam_balance(
                &mut trees,
                &forest.boxes,
                &forest.routes,
                cfg.tree_type,
                cfg.bucket_size,
            )
        });
        s.seam = t;
        s.seam_splits = splits;
        let (layer, t) = timed(tracer, "ghost.exchange", || {
            exchange_ghosts(&forest, &trees, params.link, &Telemetry::disabled())
        });
        s.exchange = t;
        let (cat, t) = timed(tracer, "fof.link", || {
            link_forest(&forest, &trees, &layer, &params, cfg.tree_type, cfg.bucket_size)
        });
        s.link = t;
        s.nodes = trees.iter().flatten().map(|t| t.nodes.len() as u64).sum();
        s.ghost_particles = layer.stats.particles;
        s.ghost_bytes = layer.stats.bytes;
        s.catalog = cat;
    });
    s.wall = t0.elapsed().as_secs_f64();
    s
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let input = particles(ctx.seed);
    let seed = ctx.seed;
    let tiled = DomainSpec::tiled(BOXES, TILE, true);
    out.sizes =
        vec![("particles", PARTICLES as u64), ("boxes", (BOXES[0] * BOXES[1] * BOXES[2]) as u64)];

    let off = Tracer::new(false);
    let (setup_s, _) = median_setup(SETUP_REPS, || catalog(&input, &tiled, seed, &off));
    out.metrics.set("setup_s", setup_s, SETUP_REPS);
    // The reference: the same particles in one periodic box of the same
    // period, untimed.
    let single = DomainSpec::tiled([1, 1, 1], TILE * BOXES[0] as f64, true);
    let reference = catalog(&input, &single, seed, &off).catalog;
    calib::calibrate(&input).report(&mut out.metrics);

    let mut samples: Vec<CatalogSample> = Vec::new();
    let mut checks: Vec<Option<String>> = Vec::new();
    let times = time_boxed(ctx, 3, |i, tracer| {
        let mut s = catalog(&input, &tiled, seed, tracer);
        let c = &s.catalog;
        checks.push((*c != reference).then(|| {
            format!(
                "catalog {i}: {} halos / {} links, single box {} / {}",
                c.halos.len(),
                c.n_links,
                reference.halos.len(),
                reference.n_links
            )
        }));
        // Keep the counts, not every catalog.
        if i > 0 {
            s.catalog.halos.clear();
        }
        let wall = s.wall;
        samples.push(s);
        wall
    });
    for failure in checks {
        let ok = failure.is_none();
        out.check(ok, || failure.unwrap_or_default());
    }
    out.traced_steps = times.traced.len();

    let m = &mut out.metrics;
    times.report_batch(m, PARTICLES);
    let series = |f: fn(&CatalogSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    set_median(m, "forest.decompose_s", &series(|s| s.decompose));
    set_median(m, "forest.build_s", &series(|s| s.build));
    set_median(m, "build.busy_s", &series(|s| s.build));
    set_median(m, "forest.seam_s", &series(|s| s.seam));
    set_median(m, "ghost.exchange_s", &series(|s| s.exchange));
    set_median(m, "fof.link_s", &series(|s| s.link));
    let first = &samples[0];
    m.count("build.nodes", first.nodes);
    m.count("forest.seam_splits", first.seam_splits);
    m.count("ghost.particles", first.ghost_particles);
    m.count("ghost.bytes", first.ghost_bytes);
    m.count("fof.links", first.catalog.n_links);
    m.count("fof.halos", first.catalog.halos.len() as u64);
    out
}
