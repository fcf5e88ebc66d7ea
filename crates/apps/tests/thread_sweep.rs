//! Thread-count sweeps over full shared-engine steps: gravity, SPH and
//! FoF run at `incremental.batch_threads` 1, 2 and 8 must produce
//! bit-identical results, because every parallel phase goes through
//! `par::map`, which returns results in input order, and callers fold
//! them in index order.

use paratreet_apps::fof::{link_forest, FofCatalog, FofParams};
use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_apps::sph::{sph_framework, SphSimulation};
use paratreet_core::{
    decompose_forest, enforce_seam_balance, exchange_ghosts, Configuration, DomainSpec, Framework,
    TraversalKind,
};
use paratreet_particles::{gen, Particle};
use paratreet_telemetry::Telemetry;
use paratreet_tree::CountData;
use proptest::prelude::*;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn config(width: usize, seed: u64) -> Configuration {
    let mut c = Configuration {
        bucket_size: 8,
        n_subtrees: 8,
        n_partitions: 16,
        seed,
        ..Default::default()
    };
    c.incremental.batch_threads = width;
    c
}

/// The bit patterns of each particle's id, position and acceleration.
fn acc_bits(ps: &[Particle]) -> Vec<(u64, [u64; 6])> {
    ps.iter()
        .map(|p| {
            let v = [p.pos.x, p.pos.y, p.pos.z, p.acc.x, p.acc.y, p.acc.z];
            (p.id, v.map(f64::to_bits))
        })
        .collect()
}

/// The bit patterns of each particle's id, smoothing length and density.
fn sph_bits(ps: &[Particle]) -> Vec<(u64, u64, u64)> {
    ps.iter().map(|p| (p.id, p.smoothing.to_bits(), p.density.to_bits())).collect()
}

/// Three kick-drift-kick gravity steps with a full rebuild each step.
fn gravity_run(
    width: usize,
    seed: u64,
    n: usize,
    kind: TraversalKind,
) -> Vec<Vec<(u64, [u64; 6])>> {
    let mut ps = gen::clustered(n, 3, seed, 1.0, 1.0);
    for p in &mut ps {
        p.softening = 0.01;
    }
    let visitor = GravityVisitor { theta: 0.6, g: 1.0 };
    let mut fw = Framework::<CentroidData>::new(config(width, seed), ps);
    let mut out = Vec::new();
    for _ in 0..3 {
        for p in fw.particles_mut().iter_mut() {
            p.vel += p.acc * 0.005;
            p.pos += p.vel * 0.01;
            p.acc = paratreet_geometry::Vec3::ZERO;
        }
        fw.step(|s| {
            s.traverse(&visitor, kind);
        });
        out.push(acc_bits(fw.particles()));
    }
    out
}

/// Three SPH density + pressure steps on a maintained tree.
fn sph_run(width: usize, seed: u64, n: usize) -> Vec<Vec<(u64, u64, u64)>> {
    let mut ps = gen::plummer(n, seed, 1.0, 1.0);
    for p in &mut ps {
        p.internal_energy = 1.0;
    }
    let mut cfg = config(width, seed);
    cfg.incremental.enabled = true;
    let sim = SphSimulation { k: 16, ..Default::default() };
    let mut fw = sph_framework(cfg, ps);
    let mut out = Vec::new();
    for _ in 0..3 {
        sim.step(&mut fw);
        out.push(sph_bits(fw.particles()));
        for p in fw.particles_mut().iter_mut() {
            p.pos += p.acc * 1e-4;
            p.acc = paratreet_geometry::Vec3::ZERO;
        }
    }
    out
}

/// One FoF catalog over an open or periodic 2×2×1 forest.
fn fof_run(width: usize, seed: u64, n: usize, periodic: bool) -> FofCatalog {
    let ps = gen::tiled_plummer(n, [2, 2, 1], seed, 1.0, 1.0);
    let cfg = config(width, seed);
    let spec = DomainSpec::tiled([2, 2, 1], 1.0, periodic);
    let params = FofParams { link: 0.05, min_members: 3 };
    let forest = decompose_forest(ps, &cfg, &spec);
    let mut trees = forest.build_trees::<CountData>(&cfg, true);
    enforce_seam_balance(&mut trees, &forest.boxes, &forest.routes, cfg.tree_type, cfg.bucket_size);
    let layer = exchange_ghosts(&forest, &trees, params.link, &Telemetry::disabled());
    link_forest(&forest, &trees, &layer, &params, cfg.tree_type, cfg.bucket_size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn gravity_steps_are_bit_identical_across_widths(
        seed in 0u64..1_000,
        n in 200usize..800,
        up_and_down in any::<bool>(),
    ) {
        let kind = if up_and_down { TraversalKind::UpAndDown } else { TraversalKind::TopDown };
        let base = gravity_run(WIDTHS[0], seed, n, kind);
        for &w in &WIDTHS[1..] {
            prop_assert!(gravity_run(w, seed, n, kind) == base, "width {} diverged", w);
        }
    }

    #[test]
    fn sph_steps_are_bit_identical_across_widths(seed in 0u64..1_000, n in 200usize..600) {
        let base = sph_run(WIDTHS[0], seed, n);
        for &w in &WIDTHS[1..] {
            prop_assert!(sph_run(w, seed, n) == base, "width {} diverged", w);
        }
    }

    #[test]
    fn fof_catalogs_are_bit_identical_across_widths(
        seed in 0u64..1_000,
        n in 300usize..1_200,
        periodic in any::<bool>(),
    ) {
        let base = fof_run(WIDTHS[0], seed, n, periodic);
        prop_assert!(base.n_links > 0, "the sweep needs a non-trivial catalog");
        for &w in &WIDTHS[1..] {
            prop_assert_eq!(&fof_run(w, seed, n, periodic), &base, "width {} diverged", w);
        }
    }
}
