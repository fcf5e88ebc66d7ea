//! Property: `find` (hash lookup + digit walk from the nearest hashed
//! ancestor) locates every node of a grafted tree, and wherever the
//! process-level hash table has an entry, `find` and `lookup` agree on
//! the exact node. Randomised over particle counts and distributions.

use paratreet_cache::{CacheNode, CacheTree, SubtreeSummary};
use paratreet_geometry::NodeKey;
use paratreet_particles::{gen, ParticleVec};
use paratreet_tree::{CountData, TreeBuilder, TreeType};
use proptest::prelude::*;

/// A single-rank cache with all eight octants grafted locally.
fn grafted_cache(n: usize, seed: u64, clusters: usize) -> CacheTree<CountData> {
    let mut ps = if clusters == 0 {
        gen::uniform_cube(n.max(16), seed, 1.0, 1.0)
    } else {
        gen::clustered(n.max(16), clusters, seed, 1.0, 1.0)
    };
    let universe = ps.bounding_box().padded(1e-9).bounding_cube();
    ps.assign_keys(&universe);
    ps.sort_by_sfc_key();

    let cache: CacheTree<CountData> = CacheTree::new(0, 3);
    let mut summaries = Vec::new();
    let mut trees = Vec::new();
    for oct in 0..8 {
        let part: Vec<_> =
            ps.iter().copied().filter(|p| universe.octant_of(p.pos) == oct).collect();
        if part.is_empty() {
            continue;
        }
        let builder = TreeBuilder {
            root_key: NodeKey::root().child(oct, 3),
            root_depth: 1,
            ..TreeBuilder::new(TreeType::Octree)
        };
        let tree = builder.bucket_size(4).build::<CountData>(part, universe.octant(oct));
        summaries.push(SubtreeSummary {
            key: tree.root().key,
            bbox: tree.root().bbox,
            n_particles: tree.root().n_particles,
            data: tree.root().data,
            home_rank: 0,
        });
        trees.push(tree);
    }
    cache.init(&summaries, trees);
    cache
}

/// DFS of the published tree: every reachable (key, node) pair.
fn all_nodes(cache: &CacheTree<CountData>) -> Vec<(NodeKey, &CacheNode<CountData>)> {
    let mut out = Vec::new();
    let mut stack = vec![cache.root().expect("initialised")];
    while let Some(n) = stack.pop() {
        out.push((n.key, n));
        for c in n.children_iter(8) {
            stack.push(c);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn find_locates_every_grafted_node(n in 32usize..600, seed in 0u64..1000, clusters in 0usize..5) {
        let cache = grafted_cache(n, seed, clusters);
        for (key, node) in all_nodes(&cache) {
            let found = cache.find(key);
            prop_assert!(found.is_some(), "find({key}) missed a reachable node");
            prop_assert!(
                std::ptr::eq(found.unwrap(), node),
                "find({key}) returned a different node than the tree walk"
            );
            // Wherever the hash table answers, it answers identically.
            if let Some(hashed) = cache.lookup(key) {
                prop_assert!(
                    std::ptr::eq(hashed, found.unwrap()),
                    "lookup({key}) and find({key}) disagree"
                );
            }
        }
        prop_assert!(cache.audit().is_ok());
    }

    #[test]
    fn find_rejects_keys_outside_the_tree(seed in 0u64..1000) {
        let cache = grafted_cache(200, seed, 2);
        // A key far deeper than any built tree can reach.
        let mut deep = NodeKey::root();
        for digit in [0usize, 7, 3, 5, 1, 6, 2, 4, 0, 7, 3, 5] {
            deep = deep.child(digit, 3);
        }
        prop_assert!(cache.find(deep).is_none());
        prop_assert!(cache.lookup(deep).is_none());
    }
}
