//! Kernel calibration: the cost of one interaction of each physics
//! kernel, timed on the workload's own particles every run.
//!
//! `traverse.kernel_s` is these costs times the traversal's interaction
//! counts, and `traverse.walk_s` is the rest of the traversal's busy
//! time — tree walk, opening tests and memory traffic.

use crate::report::Metrics;
use crate::stats::median;
use paratreet_apps::gravity::{grav_approx, grav_exact, CentroidData};
use paratreet_apps::sph::kernel_w;
use paratreet_geometry::{BoundingBox, Vec3};
use paratreet_particles::Particle;
use paratreet_tree::{Data, KnnHeap, Neighbor};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of each kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCosts {
    /// `grav_exact`: one particle–particle interaction.
    pub grav_exact_ns: f64,
    /// `grav_approx`: one particle–node quadrupole interaction.
    pub grav_approx_ns: f64,
    /// `kernel_w`: one SPH smoothing-kernel evaluation.
    pub sph_ns: f64,
    /// One kNN leaf candidate: distance plus bounded-heap offer.
    pub knn_ns: f64,
}

/// Calls per timed repetition, and repetitions (the median is kept).
const CALLS: usize = 1 << 19;
const REPS: usize = 5;

/// Times `pass`, which performs `calls_per_pass` kernel calls, and
/// returns the median ns per call over [`REPS`] repetitions.
fn ns_per_call(calls_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    let passes = CALLS.div_ceil(calls_per_pass.max(1));
    pass(); // warm caches and branch predictors
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..passes {
                pass();
            }
            t0.elapsed().as_secs_f64() * 1e9 / (passes * calls_per_pass) as f64
        })
        .collect();
    median(&times)
}

/// Calibrates every kernel on `particles` (in tree order, so nearby
/// indices are nearby in space, as in a traversal's buckets).
pub fn calibrate(particles: &[Particle]) -> KernelCosts {
    // Targets spread over the set; sources one contiguous run, as a
    // bucket pair in a traversal would see them.
    let stride = (particles.len() / 64).max(1);
    let targets: Vec<Vec3> = particles.iter().step_by(stride).take(64).map(|p| p.pos).collect();
    let sources = &particles[..particles.len().min(1024)];

    let grav_exact_ns = ns_per_call(targets.len() * sources.len(), || {
        let mut acc = Vec3::ZERO;
        for &t in &targets {
            for s in sources {
                let (a, _) = grav_exact(black_box(t), s.pos, s.mass, s.softening);
                acc += a;
            }
        }
        black_box(acc);
    });

    // Nodes: bucket-sized runs of the same particles, with their
    // centroid and quadrupole taken the way the visitor takes them.
    let nodes: Vec<(Vec3, f64, [f64; 6])> = particles
        .chunks(16)
        .take(1024)
        .map(|chunk| {
            let bbox = BoundingBox::around(chunk.iter().map(|p| p.pos));
            let d = CentroidData::from_leaf(chunk, &bbox);
            (d.centroid(), d.sum_mass, d.quad_about_centroid())
        })
        .collect();
    let grav_approx_ns = ns_per_call(targets.len() * nodes.len(), || {
        let mut acc = Vec3::ZERO;
        for &t in &targets {
            for (c, m, q) in &nodes {
                let (a, _) = grav_approx(black_box(t), *c, *m, q);
                acc += a;
            }
        }
        black_box(acc);
    });

    // SPH kernel arguments: distances to the next few particles in tree
    // order, with h half the largest of them (h = r_k / 2, as in SPH).
    let pairs: Vec<(f64, f64)> = particles
        .windows(9)
        .take(4096)
        .flat_map(|w| {
            let r: Vec<f64> = w[1..].iter().map(|q| q.pos.dist_sq(w[0].pos).sqrt()).collect();
            let h = r.iter().copied().fold(0.0, f64::max) * 0.5;
            r.into_iter().map(move |r| (r, h))
        })
        .collect();
    let sph_ns = ns_per_call(pairs.len(), || {
        let mut sum = 0.0;
        for &(r, h) in &pairs {
            sum += kernel_w(black_box(r), h);
        }
        black_box(sum);
    });

    // kNN leaf candidates: each target offers the 512 particles around
    // it in tree order, nearest index first, to a k = 32 bounded heap —
    // the up-and-down walk's order, which tightens the bound early.
    let window: Vec<(usize, Vec<&Particle>)> = (0..particles.len())
        .step_by(stride)
        .take(64)
        .map(|ti| {
            let lo = ti.saturating_sub(256);
            let hi = (ti + 256).min(particles.len());
            let mut near: Vec<usize> = (lo..hi).filter(|&j| j != ti).collect();
            near.sort_by_key(|&j| j.abs_diff(ti));
            (ti, near.into_iter().map(|j| &particles[j]).collect())
        })
        .collect();
    let candidates: usize = window.iter().map(|(_, s)| s.len()).sum();
    let knn_ns = ns_per_call(candidates, || {
        for (ti, sources) in &window {
            let t = particles[*ti].pos;
            let mut heap = KnnHeap::new(32);
            for s in sources {
                let d2 = s.pos.dist_sq(black_box(t));
                if d2 < heap.bound() {
                    heap.offer(Neighbor {
                        dist_sq: d2,
                        id: s.id,
                        pos: s.pos,
                        mass: s.mass,
                        vel: s.vel,
                    });
                }
            }
            black_box(heap.len());
        }
    });

    KernelCosts { grav_exact_ns, grav_approx_ns, sph_ns, knn_ns }
}

impl KernelCosts {
    /// Records the four `kernel.*` metrics (REPS samples each).
    pub fn report(&self, m: &mut Metrics) {
        m.set("kernel.grav_exact_ns", self.grav_exact_ns, REPS);
        m.set("kernel.grav_approx_ns", self.grav_approx_ns, REPS);
        m.set("kernel.sph_ns", self.sph_ns, REPS);
        m.set("kernel.knn_ns", self.knn_ns, REPS);
    }
}

/// Splits traversal busy time into kernel and walk time:
/// `kernel_s = Σ interactions × ns per interaction`, `walk_s` the rest.
pub fn report_split(m: &mut Metrics, busy_s: f64, kernel_s: f64, samples: usize) {
    m.set("traverse.kernel_s", kernel_s, samples);
    m.set("traverse.walk_s", busy_s - kernel_s, samples);
}
