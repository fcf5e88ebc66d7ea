//! A real multi-threaded distributed executor.
//!
//! Where [`crate::DistributedEngine`] *models* a distributed machine in
//! virtual time, this engine *runs* one on real OS threads: each
//! simulated rank is a thread group (one message pump + worker threads),
//! inter-rank traffic is crossbeam channels carrying the same serialized
//! fills as the wire protocol, and — the point of the exercise — the
//! wait-free cache is exercised exactly as designed: traversal workers
//! keep reading the cached tree while fills are deserialised and spliced
//! in concurrently by whichever worker picks the insert task up.
//!
//! On a many-core host this is a usable shared/distributed-memory hybrid
//! engine; in this repository it is primarily the strongest correctness
//! test of the concurrency design (forces must match the deterministic
//! engines bit-for-bit up to floating-point summation order).
//!
//! Execution structure per rank:
//!
//! * a **task channel** (MPMC): `RunPartition` and `InsertFill` tasks,
//!   consumed by the rank's workers — fills go to "the currently least
//!   busy worker" by construction, since any idle worker takes them;
//! * a **message pump** thread owning the rank's inbox: `Request`s are
//!   served from the local cache (serialise + reply), `Fill`s become
//!   insert tasks;
//! * partitions are chare-like: a partition task runs to completion or
//!   until every remaining item waits on a fetch; its state then parks
//!   in the rank's shared table until a fill re-enqueues it.

use crate::config::{Configuration, TraversalKind};
use crate::decomp::{decompose, Partitioner};
use crate::maintain::TreeMaintainer;
use crate::par;
use crate::traversal::{process_item, seed_items, PendingFetch, WorkCounts, WorkItem};
use crate::visitor::{TargetBucket, Visitor};
use crossbeam::channel::{unbounded, Receiver, Sender};
use paratreet_cache::stats::CacheStatsSnapshot;
use paratreet_cache::{CacheTree, NodeHandle, RequestOutcome, SubtreeSummary};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use paratreet_tree::TreeBuilder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Inter-rank messages (the "network").
enum Msg {
    /// Fetch the subtree under `key`; reply to `reply_to`.
    Request { key: NodeKey, reply_to: u32 },
    /// A serialized fill fragment.
    Fill { bytes: Vec<u8> },
    /// Drain and exit.
    Shutdown,
}

/// Intra-rank work.
enum Task<V: Visitor> {
    RunPartition(Box<PartState<V>>),
    InsertFill(Vec<u8>),
    Stop,
}

/// One partition's private traversal state (moves with its task).
struct PartState<V: Visitor> {
    id: u32,
    buckets: Vec<TargetBucket<V::State>>,
    bucket_indices: Vec<Vec<u32>>,
    stack: Vec<WorkItem<V::Data>>,
    counts: WorkCounts,
    outstanding: usize,
    seeded: bool,
}

/// Items a parked partition waits on, plus the handoff flags.
struct Parked<V: Visitor> {
    /// The partition state while it is not running.
    state: Option<Box<PartState<V>>>,
    /// Items keyed by the fetch that will release them.
    waiting: HashMap<NodeKey, Vec<Vec<u32>>>,
    /// Items released by fills while the partition was running/parked.
    ready: Vec<(NodeKey, Vec<u32>)>,
}

impl<V: Visitor> Default for Parked<V> {
    fn default() -> Self {
        Parked { state: None, waiting: HashMap::new(), ready: Vec::new() }
    }
}

/// Everything a rank's threads share.
struct RankShared<V: Visitor> {
    rank: u32,
    cache: CacheTree<V::Data>,
    tasks: Sender<Task<V>>,
    /// Outboxes to every rank (including self).
    net: Vec<Sender<Msg>>,
    /// Parked partitions, by partition id.
    parked: Mutex<HashMap<u32, Parked<V>>>,
    /// Partitions not yet finished, across the whole machine.
    remaining: Arc<AtomicUsize>,
    fetch_depth: u32,
    counts: Mutex<WorkCounts>,
}

/// Outcome of a threaded iteration.
pub struct ThreadedReport {
    /// Final particle state (bucket write-backs merged).
    pub particles: Vec<Particle>,
    /// Total interaction counts (exact, engine-independent).
    pub counts: WorkCounts,
    /// Cache traffic aggregated over ranks.
    pub cache: CacheStatsSnapshot,
    /// Number of fills that crossed rank boundaries.
    pub remote_fills: u64,
    /// Every statistic above under a stable dotted name, plus the
    /// measured wall time of the iteration.
    pub metrics: MetricsRegistry,
}

/// The real-threads engine. See module docs.
pub struct ThreadedEngine<'v, V: Visitor> {
    /// Framework configuration.
    pub config: Configuration,
    /// Number of rank thread-groups.
    pub n_ranks: usize,
    /// Worker threads per rank (in addition to the message pump).
    pub workers_per_rank: usize,
    /// Span/counter sink (wall clock). An enabled handle records setup
    /// phases, every partition run, and — through the per-rank caches —
    /// fill serving and cache insertion, one track per real thread.
    pub telemetry: Telemetry,
    /// Flight-recorder sink sampled at phase boundaries (the same
    /// [`crate::framework::FLIGHT_SERIES`] rows as the shared-memory
    /// engine, wall clock); disabled by default.
    pub flight: FlightRecorder,
    /// Iterations completed — the `epoch` column of flight rows.
    iterations: std::sync::atomic::AtomicU64,
    visitor: &'v V,
}

impl<'v, V: Visitor> ThreadedEngine<'v, V> {
    /// A new engine over `n_ranks × workers_per_rank` real threads.
    pub fn new(
        config: Configuration,
        n_ranks: usize,
        workers_per_rank: usize,
        visitor: &'v V,
    ) -> ThreadedEngine<'v, V> {
        ThreadedEngine {
            config,
            n_ranks: n_ranks.max(1),
            workers_per_rank: workers_per_rank.max(1),
            telemetry: Telemetry::disabled(),
            flight: FlightRecorder::disabled(),
            iterations: std::sync::atomic::AtomicU64::new(0),
            visitor,
        }
    }

    /// Attaches a flight recorder sampled at phase boundaries (one
    /// setup row per iteration from the callers, one traversal row at
    /// iteration end).
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Attaches a telemetry handle (use [`Telemetry::wall`], sized to
    /// `n_ranks × (workers_per_rank + 1)` threads).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs one full iteration: decompose, build, exchange, traverse —
    /// with fetches and fills crossing real channels between real
    /// threads. `kind` must not be [`TraversalKind::DualTree`].
    pub fn run_iteration(&self, particles: Vec<Particle>, kind: TraversalKind) -> ThreadedReport {
        let started = std::time::Instant::now();
        let ranks = self.n_ranks;
        let mut config = self.config.clone();
        config.n_subtrees = config.n_subtrees.max(ranks * 4);
        config.n_partitions = config.n_partitions.max(ranks * self.workers_per_rank * 2);

        // ---- Decompose and build (centrally; the Subtree builds run in
        // parallel, `incremental.batch_threads` wide) ----
        let decomp =
            self.telemetry.wall_span(0, "decomposition", None, || decompose(particles, &config));
        let n_subtrees = decomp.subtrees.len();
        let subtree_rank = |si: usize| -> u32 { (si * ranks / n_subtrees) as u32 };

        let trees: Vec<(u32, paratreet_tree::BuiltTree<V::Data>)> =
            self.telemetry.wall_span(0, "tree build", None, || {
                par::map(config.incremental.batch_threads, decomp.subtrees, |si, piece| {
                    let builder = TreeBuilder {
                        root_key: piece.key,
                        root_depth: piece.depth,
                        ..TreeBuilder::new(config.tree_type)
                    }
                    .bucket_size(config.bucket_size);
                    (subtree_rank(si), builder.build::<V::Data>(piece.particles, piece.bbox))
                })
            });
        if self.flight.is_enabled() {
            let epoch = self.iterations.load(Ordering::Relaxed);
            self.flight.sample(&[
                epoch as f64,
                0.0,
                started.elapsed().as_secs_f64(),
                trees.len() as f64,
                0.0,
                0.0,
            ]);
        }
        self.run_prepared(&config, trees, &decomp.partitioner, decomp.n_partitions, kind, started)
    }

    /// Runs one iteration against a tree maintained across calls: the
    /// first call seeds the [`TreeMaintainer`] into `slot` (a normal
    /// decomposition + build), every later call patches the maintained
    /// tree in place under the "incremental update" phase and traverses
    /// the flattened result through the exact machinery of
    /// [`ThreadedEngine::run_iteration`]. Pass the same `slot` every
    /// iteration; its tree-update counters land under `tree.update.*`
    /// in the report's metrics.
    pub fn run_maintained(
        &self,
        slot: &mut Option<TreeMaintainer<V::Data>>,
        particles: Vec<Particle>,
        kind: TraversalKind,
    ) -> ThreadedReport {
        let started = std::time::Instant::now();
        let ranks = self.n_ranks;
        let mut config = self.config.clone();
        config.n_subtrees = config.n_subtrees.max(ranks * 4);
        config.n_partitions = config.n_partitions.max(ranks * self.workers_per_rank * 2);
        config.incremental.enabled = true;

        let mut seconds_update = 0.0;
        let mut round_batches = 0u64;
        let mut round_migrated = 0u64;
        let flat = match slot.as_mut() {
            None => {
                let (maintainer, flat) = self.telemetry.wall_span(0, "tree build", None, || {
                    TreeMaintainer::seed(&config, particles, true)
                });
                *slot = Some(maintainer);
                flat
            }
            Some(maintainer) => {
                let t0 = std::time::Instant::now();
                let (flat, round) = self
                    .telemetry
                    .wall_span(0, "incremental update", None, || maintainer.advance(particles));
                seconds_update = t0.elapsed().as_secs_f64();
                round_batches = round.n_batches;
                round_migrated = round.n_migrated;
                flat
            }
        };
        let maintainer = slot.as_ref().expect("seeded above");
        let n_subtrees = flat.len();
        if self.flight.is_enabled() {
            let epoch = self.iterations.load(Ordering::Relaxed);
            self.flight.sample(&[
                epoch as f64,
                0.0,
                started.elapsed().as_secs_f64(),
                n_subtrees as f64,
                0.0,
                round_migrated as f64,
            ]);
        }
        let trees: Vec<(u32, paratreet_tree::BuiltTree<V::Data>)> = flat
            .into_iter()
            .enumerate()
            .map(|(si, t)| ((si * ranks / n_subtrees) as u32, t))
            .collect();
        let mut report = self.run_prepared(
            &config,
            trees,
            maintainer.partitioner(),
            maintainer.n_partitions(),
            kind,
            started,
        );
        report.metrics.set_f64("time.update_s", seconds_update);
        report.metrics.absorb("tree.update", maintainer.totals());
        report.metrics.set_u64("tree.update.round_batches", round_batches);
        report.metrics.set_u64("tree.update.round_migrated", round_migrated);
        report
    }

    /// The engine tail shared by the full-rebuild and maintained paths:
    /// leaf sharing against `partitioner`, per-rank cache init, and the
    /// real-threads traversal, starting from already-built Subtrees
    /// tagged with their home ranks.
    fn run_prepared(
        &self,
        config: &Configuration,
        trees: Vec<(u32, paratreet_tree::BuiltTree<V::Data>)>,
        partitioner: &Partitioner,
        n_partitions: usize,
        kind: TraversalKind,
        started: std::time::Instant,
    ) -> ThreadedReport {
        let ranks = self.n_ranks;
        let n_partitions = n_partitions.max(1);
        let n_subtrees = trees.len();
        let partition_rank = |pi: usize| -> u32 { (pi * ranks / n_partitions) as u32 };
        let summaries: Vec<SubtreeSummary<V::Data>> = trees
            .iter()
            .map(|(rank, t)| SubtreeSummary {
                key: t.root().key,
                bbox: t.root().bbox,
                n_particles: t.root().n_particles,
                data: t.root().data.clone(),
                home_rank: *rank,
            })
            .collect();

        // ---- Master array + leaf sharing ----
        let mut master: Vec<Particle> = Vec::new();
        struct Seed {
            leaf_key: NodeKey,
            partition: u32,
            indices: Vec<u32>,
        }
        let mut seeds: Vec<Seed> = Vec::new();
        for (_, tree) in &trees {
            let offset = master.len() as u32;
            for li in tree.leaf_indices() {
                let node = tree.node(li);
                let range = node.bucket_range().expect("leaf");
                let mut per_part: Vec<(u32, Vec<u32>)> = Vec::new();
                for i in range {
                    let part = partitioner.assign(&tree.particles[i]);
                    match per_part.iter_mut().find(|(p, _)| *p == part) {
                        Some((_, v)) => v.push(offset + i as u32),
                        None => per_part.push((part, vec![offset + i as u32])),
                    }
                }
                for (partition, indices) in per_part {
                    seeds.push(Seed { leaf_key: node.key, partition, indices });
                }
            }
            master.extend_from_slice(&tree.particles);
        }
        let n_buckets = seeds.len();

        // ---- Per-rank caches ----
        let bits = config.tree_type.bits_per_level();
        let mut per_rank_trees: Vec<Vec<paratreet_tree::BuiltTree<V::Data>>> =
            (0..ranks).map(|_| Vec::new()).collect();
        for (rank, tree) in trees {
            per_rank_trees[rank as usize].push(tree);
        }
        let caches: Vec<CacheTree<V::Data>> = per_rank_trees
            .into_iter()
            .enumerate()
            .map(|(r, local)| {
                let mut cache = CacheTree::new(r as u32, bits);
                cache.telemetry = self.telemetry.clone();
                cache.init(&summaries, local);
                cache
            })
            .collect();

        // ---- Partition states ----
        let mut part_states: Vec<Option<Box<PartState<V>>>> = (0..n_partitions)
            .map(|p| {
                Some(Box::new(PartState {
                    id: p as u32,
                    buckets: Vec::new(),
                    bucket_indices: Vec::new(),
                    stack: Vec::new(),
                    counts: WorkCounts::default(),
                    outstanding: 0,
                    seeded: false,
                }))
            })
            .collect();
        for seed in &seeds {
            let ps = part_states[seed.partition as usize].as_mut().expect("unclaimed");
            let bucket_particles: Vec<Particle> =
                seed.indices.iter().map(|&i| master[i as usize]).collect();
            let bbox = BoundingBox::around(bucket_particles.iter().map(|p| p.pos));
            ps.buckets.push(TargetBucket {
                leaf_key: seed.leaf_key,
                particles: bucket_particles,
                bbox,
                state: V::State::default(),
            });
            ps.bucket_indices.push(seed.indices.clone());
        }

        // ---- Channels ----
        let mut net_senders: Vec<Sender<Msg>> = Vec::with_capacity(ranks);
        let mut net_receivers: Vec<Receiver<Msg>> = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = unbounded::<Msg>();
            net_senders.push(tx);
            net_receivers.push(rx);
        }
        let mut task_senders: Vec<Sender<Task<V>>> = Vec::with_capacity(ranks);
        let mut task_receivers: Vec<Receiver<Task<V>>> = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = unbounded::<Task<V>>();
            task_senders.push(tx);
            task_receivers.push(rx);
        }

        let remaining = Arc::new(AtomicUsize::new(n_partitions));
        let remote_fills = Arc::new(AtomicUsize::new(0));
        let shared: Vec<Arc<RankShared<V>>> = caches
            .into_iter()
            .enumerate()
            .map(|(r, cache)| {
                Arc::new(RankShared {
                    rank: r as u32,
                    cache,
                    tasks: task_senders[r].clone(),
                    net: net_senders.clone(),
                    parked: Mutex::new(HashMap::new()),
                    remaining: remaining.clone(),
                    fetch_depth: config.fetch_depth,
                    counts: Mutex::new(WorkCounts::default()),
                })
            })
            .collect();

        // Seed partition tasks on their home ranks.
        for (p, state) in part_states.iter_mut().enumerate() {
            let rank = partition_rank(p) as usize;
            task_senders[rank]
                .send(Task::RunPartition(state.take().expect("seeded once")))
                .expect("rank alive");
        }

        // ---- Run ----
        let visitor = self.visitor;
        let workers = self.workers_per_rank;
        let collected: Mutex<Vec<Box<PartState<V>>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            // Message pumps.
            let mut pump_handles = Vec::new();
            for (r, rx) in net_receivers.into_iter().enumerate() {
                let shared = shared[r].clone();
                let remote_fills = remote_fills.clone();
                pump_handles.push(scope.spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Msg::Request { key, reply_to } => {
                                match shared.cache.serialize_fragment(key, shared.fetch_depth) {
                                    Ok(bytes) => {
                                        if reply_to != shared.rank {
                                            remote_fills.fetch_add(1, Ordering::Relaxed);
                                        }
                                        if shared.net[reply_to as usize]
                                            .send(Msg::Fill { bytes })
                                            .is_err()
                                        {
                                            debug_assert!(false, "rank {reply_to} hung up early");
                                        }
                                    }
                                    Err(e) => eprintln!(
                                        "threaded: fetch for {key} failed on rank {}: {e}",
                                        shared.rank
                                    ),
                                }
                            }
                            Msg::Fill { bytes } => {
                                // Hand the insert to the least busy
                                // worker: any idle one takes it next.
                                if shared.tasks.send(Task::InsertFill(bytes)).is_err() {
                                    debug_assert!(false, "workers gone before fill handled");
                                }
                            }
                            Msg::Shutdown => break,
                        }
                    }
                }));
            }

            // Workers.
            let mut worker_handles = Vec::new();
            for r in 0..ranks {
                for _ in 0..workers {
                    let shared = shared[r].clone();
                    let rx = task_receivers[r].clone();
                    let collected = &collected;
                    worker_handles.push(scope.spawn(move || {
                        while let Ok(task) = rx.recv() {
                            match task {
                                Task::Stop => break,
                                Task::InsertFill(bytes) => handle_fill(&shared, &bytes),
                                Task::RunPartition(ps) => {
                                    let part = ps.id as u64;
                                    let done = shared.cache.telemetry.wall_span(
                                        shared.rank,
                                        "local traversal",
                                        Some(part),
                                        || run_partition(&shared, visitor, kind, ps),
                                    );
                                    if let Some(done) = done {
                                        collected.lock().push(done);
                                        shared.remaining.fetch_sub(1, Ordering::AcqRel);
                                    }
                                }
                            }
                        }
                    }));
                }
            }

            // Wait for global completion, then shut everything down.
            while remaining.load(Ordering::Acquire) > 0 {
                std::thread::yield_now();
            }
            for tx in &net_senders {
                let _ = tx.send(Msg::Shutdown);
            }
            for tx in task_senders.iter().take(ranks) {
                for _ in 0..workers {
                    let _ = tx.send(Task::Stop);
                }
            }
            for h in worker_handles {
                h.join().expect("worker panicked");
            }
            for h in pump_handles {
                h.join().expect("pump panicked");
            }
        });

        // ---- Write-back and report ----
        let mut counts = WorkCounts::default();
        for s in &shared {
            counts += *s.counts.lock();
        }
        let mut cache_stats = CacheStatsSnapshot::default();
        for s in &shared {
            cache_stats.merge(&s.cache.stats.snapshot());
        }
        for ps in collected.into_inner() {
            counts += ps.counts;
            for (indices, bucket) in ps.bucket_indices.iter().zip(&ps.buckets) {
                for (&mi, p) in indices.iter().zip(&bucket.particles) {
                    master[mi as usize] = *p;
                }
            }
        }
        let remote_fills = remote_fills.load(Ordering::Relaxed) as u64;
        let mut metrics = MetricsRegistry::new();
        metrics.absorb("cache", &cache_stats);
        metrics.absorb("counts", &counts);
        metrics.set_u64("net.remote_fills", remote_fills);
        metrics.set_f64("time.iteration_s", started.elapsed().as_secs_f64());
        let epoch = self.iterations.fetch_add(1, Ordering::Relaxed);
        if self.flight.is_enabled() {
            self.flight.sample(&[
                epoch as f64,
                1.0,
                started.elapsed().as_secs_f64(),
                n_subtrees as f64,
                n_buckets as f64,
                0.0,
            ]);
        }
        ThreadedReport { particles: master, counts, cache: cache_stats, remote_fills, metrics }
    }
}

/// Inserts a fill and re-enqueues every partition it unblocks. A fill
/// may materialise several keys at once; each (key, partition) pair
/// from the outcome releases its own waiting entry.
fn handle_fill<V: Visitor>(shared: &RankShared<V>, bytes: &[u8]) {
    let outcome = match shared.cache.insert_fragment(bytes) {
        Ok(o) => o,
        Err(e) => {
            // Rejected fills mutate nothing; log and drop, the
            // placeholder stays requestable.
            eprintln!("threaded: fill rejected on rank {}: {e}", shared.rank);
            return;
        }
    };
    let mut parked = shared.parked.lock();
    for (key, waiter) in outcome.resumed {
        let entry = parked.entry(waiter as u32).or_default();
        if let Some(bucket_sets) = entry.waiting.remove(&key) {
            for buckets in bucket_sets {
                entry.ready.push((key, buckets));
            }
        }
        // If the partition is parked (not running), hand it back to the
        // workers; if it is running, it will collect `ready` itself.
        if let Some(mut state) = entry.state.take() {
            drain_ready(shared, &mut state, entry);
            if shared.tasks.send(Task::RunPartition(state)).is_err() {
                debug_assert!(false, "workers gone while partitions still parked");
            }
        }
    }
}

/// Moves released items into the partition's stack.
fn drain_ready<V: Visitor>(
    shared: &RankShared<V>,
    state: &mut PartState<V>,
    entry: &mut Parked<V>,
) {
    for (key, buckets) in entry.ready.drain(..) {
        let Some(node) = shared.cache.find(key) else {
            debug_assert!(false, "released key {key} missing from cache");
            continue;
        };
        state.outstanding -= 1;
        state.stack.push(WorkItem { node: NodeHandle::new(node), buckets });
    }
}

/// Runs a partition until it finishes (returned) or parks (None).
fn run_partition<V: Visitor>(
    shared: &RankShared<V>,
    visitor: &V,
    kind: TraversalKind,
    mut ps: Box<PartState<V>>,
) -> Option<Box<PartState<V>>> {
    if !ps.seeded {
        ps.seeded = true;
        ps.stack = seed_items::<V>(&shared.cache, kind, &ps.buckets);
    }
    loop {
        // Drain local work, surrendering placeholder hits.
        let mut fetches: Vec<PendingFetch<V::Data>> = Vec::new();
        let ordered = kind == TraversalKind::UpAndDown;
        while let Some(item) = ps.stack.pop() {
            process_item(
                &shared.cache,
                visitor,
                &mut ps.buckets,
                item,
                &mut ps.stack,
                &mut fetches,
                &mut ps.counts,
            );
            if ordered && !fetches.is_empty() {
                break;
            }
        }

        // Register fetches *before* releasing the partition, so a racing
        // fill always finds either the waiting entry or the parked state.
        for f in fetches {
            let node = f.node.get(&shared.cache);
            {
                let mut parked = shared.parked.lock();
                let entry = parked.entry(ps.id).or_default();
                entry.waiting.entry(f.key).or_default().push(f.buckets.clone());
            }
            ps.outstanding += 1;
            match shared.cache.request(node, ps.id as u64) {
                RequestOutcome::Ready(n) => {
                    // Fill won the race: reclaim the waiting entry.
                    let mut parked = shared.parked.lock();
                    let entry = parked.entry(ps.id).or_default();
                    if let Some(mut sets) = entry.waiting.remove(&f.key) {
                        sets.pop();
                        if !sets.is_empty() {
                            entry.waiting.insert(f.key, sets);
                        }
                    }
                    ps.outstanding -= 1;
                    ps.stack.push(WorkItem { node: NodeHandle::new(n), buckets: f.buckets });
                }
                RequestOutcome::SendFetch { home_rank } => {
                    if shared.net[home_rank as usize]
                        .send(Msg::Request { key: f.key, reply_to: shared.rank })
                        .is_err()
                    {
                        debug_assert!(false, "home rank {home_rank} hung up early");
                    }
                }
                RequestOutcome::InFlight => {}
            }
        }

        // Collect anything fills released while we were working.
        {
            let mut parked = shared.parked.lock();
            if let Some(entry) = parked.get_mut(&ps.id) {
                drain_ready(shared, &mut ps, entry);
            }
        }
        if !ps.stack.is_empty() {
            continue;
        }
        if ps.outstanding == 0 {
            return Some(ps);
        }
        // Park: publish the state; if something raced in, take it back.
        let mut parked = shared.parked.lock();
        let entry = parked.entry(ps.id).or_default();
        if entry.ready.is_empty() {
            entry.state = Some(ps);
            return None;
        }
        drain_ready(shared, &mut ps, entry);
        drop(parked);
    }
}
