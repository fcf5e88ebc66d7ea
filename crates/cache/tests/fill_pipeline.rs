//! Hardening tests for the fetch → serialize → fill → resume pipeline:
//! waiters parked at several depths must all be resumed by one deep fill
//! (the waiter-leak regression), duplicate fills must be idempotent,
//! orphaned fills must be rejected without mutating the cache, and a
//! placeholder-root fill must re-arm the request flag. Each scenario
//! finishes with a full [`CacheTree::audit`] pass.

use paratreet_cache::{CacheError, CacheNode, CacheTree, NodeKind, RequestOutcome, SubtreeSummary};
use paratreet_geometry::NodeKey;
use paratreet_particles::{gen, ParticleVec};
use paratreet_tree::{CountData, TreeBuilder, TreeType};

/// A "home" cache (rank 1) owning all eight root octants and an "away"
/// cache (rank 0) holding only the skeleton of placeholders.
fn make_world(n: usize) -> (CacheTree<CountData>, CacheTree<CountData>) {
    let mut ps = gen::clustered(n, 4, 99, 1.0, 1.0);
    let universe = ps.bounding_box().padded(1e-9).bounding_cube();
    ps.assign_keys(&universe);
    ps.sort_by_sfc_key();

    let home: CacheTree<CountData> = CacheTree::new(1, 3);
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
            home_rank: 1,
        });
        trees.push(tree);
    }
    home.init(&summaries, trees);

    let away: CacheTree<CountData> = CacheTree::new(0, 3);
    away.init(&summaries, vec![]);
    (home, away)
}

/// All placeholder children directly under `node`, biggest first.
fn placeholder_children(node: &CacheNode<CountData>) -> Vec<&CacheNode<CountData>> {
    let mut out: Vec<_> =
        node.children_iter(8).filter(|c| c.kind == NodeKind::Placeholder).collect();
    out.sort_by_key(|c| std::cmp::Reverse(c.n_particles));
    out
}

/// The busiest subtree root on the home rank (deep enough to have
/// placeholder frontiers two fills down).
fn busiest_octant(home: &CacheTree<CountData>) -> NodeKey {
    home.root().unwrap().children_iter(8).max_by_key(|c| c.n_particles).expect("home owns data").key
}

#[test]
fn one_deep_fill_resumes_waiters_parked_at_different_depths() {
    let (home, away) = make_world(4000);
    let k1 = busiest_octant(&home);

    // Materialise two levels under the busiest octant, shallow fills
    // only, leaving placeholder frontiers behind.
    let ph1 = away.lookup(k1).unwrap();
    assert!(matches!(away.request(ph1, 1), RequestOutcome::SendFetch { .. }));
    let out1 = away.insert_fragment(&home.serialize_fragment(k1, 1).unwrap()).unwrap();
    assert_eq!(out1.resumed, vec![(k1, 1)]);

    let level2 = placeholder_children(away.find(k1).unwrap());
    assert!(level2.len() >= 2, "need two depth-2 placeholders, got {}", level2.len());
    let k2 = level2[0].key; // will be fetched shallowly next
    let k2b = level2[1].key; // waiter parks here (depth 2)
    assert!(matches!(away.request(level2[0], 2), RequestOutcome::SendFetch { .. }));
    let out2 = away.insert_fragment(&home.serialize_fragment(k2, 1).unwrap()).unwrap();
    assert_eq!(out2.resumed, vec![(k2, 2)]);

    let level3 = placeholder_children(away.find(k2).unwrap());
    assert!(!level3.is_empty(), "need a depth-3 placeholder under {k2}");
    let k3 = level3[0].key; // waiter parks here (depth 3)

    // Park one waiter at depth 2 and one at depth 3.
    assert!(matches!(away.request(level2[1], 40), RequestOutcome::SendFetch { .. }));
    assert!(matches!(away.request(level3[0], 50), RequestOutcome::SendFetch { .. }));

    // ONE deep fill of the whole octant materialises both parked keys.
    // Its root is already materialised (a duplicate there), but the
    // interior keys are new data — and every waiter they unblock must
    // come back, not just waiters parked on the fragment root.
    let deep = home.serialize_fragment(k1, 64).unwrap();
    let out = away.insert_fragment(&deep).unwrap();
    assert!(out.duplicate, "fragment root was already materialised");
    let mut resumed = out.resumed.clone();
    resumed.sort_by_key(|&(_, w)| w);
    assert_eq!(
        resumed,
        vec![(k2b, 40), (k3, 50)],
        "deep fill must drain pending for every key it materialises"
    );
    assert!(!away.find(k2b).unwrap().is_placeholder());
    assert!(!away.find(k3).unwrap().is_placeholder());

    // Nothing leaked: parked == resumed, and the structure is sound.
    let snap = away.stats.snapshot();
    assert_eq!(snap.waiters_parked, snap.waiters_resumed);
    away.audit().expect("audit after deep fill");
    home.audit().expect("home audit");
}

#[test]
fn duplicate_fills_are_idempotent() {
    let (home, away) = make_world(1500);
    let k1 = busiest_octant(&home);
    let fill = home.serialize_fragment(k1, 2).unwrap();

    let first = away.insert_fragment(&fill).unwrap();
    assert!(!first.duplicate);
    let canonical = first.root as *const _;
    let allocated = away.n_allocated();

    let second = away.insert_fragment(&fill).unwrap();
    assert!(second.duplicate, "same fill delivered twice must be flagged");
    assert!(
        std::ptr::eq(second.root as *const _, canonical),
        "the pre-existing node stays canonical"
    );
    assert!(second.resumed.is_empty(), "no waiters were parked");
    assert_eq!(away.stats.snapshot().fills_duplicate, 1);
    // No-delete cache: the duplicate's nodes are allocated but the
    // reachable structure is unchanged and still consistent.
    assert!(away.n_allocated() > allocated);
    away.audit().expect("audit after duplicate fill");
}

#[test]
fn orphan_fill_is_rejected_without_mutating() {
    let (home, away) = make_world(1500);
    let k1 = busiest_octant(&home);
    // A fill for a *grandchild* key whose parent is still a placeholder
    // on the away rank (a reordered delivery) has nowhere to splice.
    let k2 = home
        .find(k1)
        .unwrap()
        .children_iter(8)
        .max_by_key(|c| c.n_particles)
        .expect("busiest octant has children")
        .key;
    let deep_fill = home.serialize_fragment(k2, 1).unwrap();

    let allocated = away.n_allocated();
    match away.insert_fragment(&deep_fill) {
        Err(CacheError::OrphanFill { key }) => assert_eq!(key, k2),
        other => panic!("expected OrphanFill, got {other:?}"),
    }
    assert_eq!(away.n_allocated(), allocated, "rejected fills must not mutate");
    assert_eq!(away.stats.snapshot().fills_inserted, 0);
    away.audit().expect("audit after rejected fill");

    // Once the parent arrives, the same bytes splice fine.
    away.insert_fragment(&home.serialize_fragment(k1, 1).unwrap()).unwrap();
    away.insert_fragment(&deep_fill).expect("parent now materialised");
    away.audit().expect("audit after recovery");
}

#[test]
fn placeholder_root_fill_rearms_the_request_flag() {
    let (home, away) = make_world(1000);
    // A second away rank serialises a key it only holds as a
    // placeholder — the fill carries a summary but no data.
    let away2: CacheTree<CountData> = {
        let (_, a2) = make_world(1000);
        a2
    };
    let k1 = busiest_octant(&home);
    let ph = away.lookup(k1).unwrap();
    assert!(matches!(away.request(ph, 9), RequestOutcome::SendFetch { .. }));

    let empty_fill = away2.serialize_fragment(k1, 5).unwrap();
    let out = away.insert_fragment(&empty_fill).unwrap();
    assert!(out.root.is_placeholder(), "no data arrived");
    assert_eq!(out.resumed, vec![(k1, 9)], "waiters come back for a re-request");

    // The flag was re-armed: the re-request sends a fetch instead of
    // deduping into a wait that nothing will ever end.
    match away.request(away.lookup(k1).unwrap(), 9) {
        RequestOutcome::SendFetch { home_rank } => assert_eq!(home_rank, 1),
        other => panic!("expected a fresh SendFetch, got {other:?}"),
    }
    // And the real fill then finishes the cycle.
    let out = away.insert_fragment(&home.serialize_fragment(k1, 2).unwrap()).unwrap();
    assert_eq!(out.resumed, vec![(k1, 9)]);
    assert!(!out.root.is_placeholder());
    away.audit().expect("audit after recovery");
}

#[test]
fn garbage_and_empty_payloads_are_structured_errors() {
    let (_, away) = make_world(500);
    match away.insert_fragment(&[0xde, 0xad, 0xbe, 0xef]) {
        Err(CacheError::MalformedFragment { len }) => assert_eq!(len, 4),
        other => panic!("expected MalformedFragment, got {other:?}"),
    }
    match away.insert_fragment(&[]) {
        Err(CacheError::MalformedFragment { len }) => assert_eq!(len, 0),
        other => panic!("expected MalformedFragment, got {other:?}"),
    }
    let uninit: CacheTree<CountData> = CacheTree::new(0, 3);
    match uninit.serialize_fragment(NodeKey::root(), 1) {
        Err(CacheError::NotInitialized) => {}
        other => panic!("expected NotInitialized, got {other:?}"),
    }
    uninit.audit().expect("empty cache audits clean");
    away.audit().expect("audit unaffected by rejected payloads");
}
