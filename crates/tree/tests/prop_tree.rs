//! Property-based invariants for tree construction.
//!
//! These are the invariants the cache and traversal layers rely on: every
//! build reorders but never loses particles, leaves tile the particle
//! array, node boxes contain their particles, and `Data` accumulation
//! from leaves to root equals direct extraction over the whole set.

use paratreet_geometry::Vec3;
use paratreet_particles::{Particle, ParticleVec};
use paratreet_tree::{CountData, TreeBuilder, TreeType};
use proptest::prelude::*;

fn arb_particles() -> impl Strategy<Value = Vec<Particle>> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0), 1..300).prop_map(
        |pts| {
            pts.into_iter()
                .enumerate()
                .map(|(i, (x, y, z))| Particle::point_mass(i as u64, 1.0, Vec3::new(x, y, z)))
                .collect()
        },
    )
}

fn arb_tree_type() -> impl Strategy<Value = TreeType> {
    prop_oneof![
        Just(TreeType::Octree),
        Just(TreeType::KdTree),
        Just(TreeType::LongestDim),
        Just(TreeType::BinaryOct)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_is_valid_for_any_input(
        ps in arb_particles(),
        tree_type in arb_tree_type(),
        bucket in 1usize..32,
    ) {
        let bbox = ps.bounding_box().padded(1e-9);
        let bbox = if matches!(tree_type, TreeType::Octree | TreeType::BinaryOct) {
            bbox.bounding_cube()
        } else {
            bbox
        };
        let n = ps.len();
        let t = TreeBuilder::new(tree_type)
            .bucket_size(bucket)
            .build::<CountData>(ps, bbox);
        prop_assert!(t.validate(usize::MAX).is_ok(), "{:?}", t.validate(usize::MAX));
        prop_assert_eq!(t.root().n_particles as usize, n);
        prop_assert_eq!(t.root().data.count as usize, n);
    }

    #[test]
    fn no_particle_is_lost_or_duplicated(
        ps in arb_particles(),
        tree_type in arb_tree_type(),
    ) {
        let bbox = ps.bounding_box().padded(1e-9);
        let bbox = if tree_type == TreeType::Octree { bbox.bounding_cube() } else { bbox };
        let mut ids_before: Vec<u64> = ps.iter().map(|p| p.id).collect();
        ids_before.sort_unstable();
        let t = TreeBuilder::new(tree_type).bucket_size(8).build::<CountData>(ps, bbox);
        let mut ids_after: Vec<u64> = t.particles.iter().map(|p| p.id).collect();
        ids_after.sort_unstable();
        prop_assert_eq!(ids_before, ids_after);
    }

    #[test]
    fn leaf_buckets_partition_particles(
        ps in arb_particles(),
        tree_type in arb_tree_type(),
        bucket in 1usize..16,
    ) {
        let bbox = ps.bounding_box().padded(1e-9);
        let bbox = if tree_type == TreeType::Octree { bbox.bounding_cube() } else { bbox };
        let t = TreeBuilder::new(tree_type).bucket_size(bucket).build::<CountData>(ps, bbox);
        let mut covered = 0usize;
        for l in t.leaf_indices() {
            let r = t.node(l).bucket_range().unwrap();
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered, t.particles.len());
    }

    #[test]
    fn node_boxes_nest(
        ps in arb_particles(),
        tree_type in arb_tree_type(),
    ) {
        let bbox = ps.bounding_box().padded(1e-9);
        let bbox = if tree_type == TreeType::Octree { bbox.bounding_cube() } else { bbox };
        let t = TreeBuilder::new(tree_type).bucket_size(8).build::<CountData>(ps, bbox);
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let n = t.node(i);
            for c in n.child_indices() {
                let child = t.node(c);
                // Child boxes are contained in a *small tolerance* blowup
                // of the parent (split planes are exact, so this should
                // hold exactly; tolerance guards FP in padded boxes).
                prop_assert!(n.bbox.padded(1e-12).contains_box(&child.bbox));
                stack.push(c);
            }
        }
    }
}
