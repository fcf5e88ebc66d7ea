//! Criterion microbenchmarks: tree construction for every tree type,
//! Subtree builds at one and two `par::map` threads, and the
//! decomposition phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paratreet_apps::gravity::CentroidData;
use paratreet_core::{decompose, par, Configuration, DecompType};
use paratreet_particles::{gen, ParticleVec};
use paratreet_tree::{TreeBuilder, TreeType};
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    group.sample_size(10);
    for tree_type in [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim] {
        for n in [10_000usize, 50_000] {
            let ps = gen::clustered(n, 4, 7, 1.0, 1.0);
            let bbox = ps.bounding_box().padded(1e-9);
            let bbox = if tree_type == TreeType::Octree { bbox.bounding_cube() } else { bbox };
            group.bench_with_input(BenchmarkId::new(tree_type.name(), n), &n, |b, _| {
                b.iter(|| {
                    let t = TreeBuilder::new(tree_type)
                        .bucket_size(16)
                        .build::<CentroidData>(black_box(ps.clone()), bbox);
                    black_box(t.nodes.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_build_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build_parallel");
    group.sample_size(10);
    let ps = gen::uniform_cube(100_000, 3, 1.0, 1.0);
    let config = Configuration { n_subtrees: 16, ..Default::default() };
    let pieces = decompose(ps, &config).subtrees;
    for width in [1usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("oct_100k_16_subtrees", format!("width{width}")),
            &width,
            |b, &width| {
                b.iter(|| {
                    let trees = par::map(width, black_box(pieces.clone()), |_, piece| {
                        TreeBuilder {
                            root_key: piece.key,
                            root_depth: piece.depth,
                            ..TreeBuilder::new(TreeType::Octree)
                        }
                        .build::<CentroidData>(piece.particles, piece.bbox)
                    });
                    black_box(trees.len())
                })
            },
        );
    }
    group.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    group.sample_size(10);
    let ps = gen::clustered(50_000, 4, 9, 1.0, 1.0);
    for decomp in [DecompType::Sfc, DecompType::Oct, DecompType::Kd] {
        let config = Configuration {
            decomp_type: decomp,
            n_subtrees: 64,
            n_partitions: 64,
            ..Default::default()
        };
        group.bench_function(decomp.name(), |b| {
            b.iter(|| {
                let d = decompose(black_box(ps.clone()), &config);
                black_box(d.subtrees.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_build_parallelism, bench_decompose);
criterion_main!(benches);
