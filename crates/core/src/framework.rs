//! The shared-memory execution engine.
//!
//! [`Framework`] runs the full ParaTreeT pipeline on one process:
//! decomposition → parallel Subtree build → cache init → leaf sharing →
//! parallel traversal per Partition → write-back. It is the engine the
//! examples and applications use directly, and the reference semantics
//! the distributed engine must agree with (see the cross-engine tests).
//!
//! Within a [`Framework::step`], every traversal sees the same
//! start-of-step particle snapshot as *sources* (the built tree), while
//! target accumulators (acceleration, density, …) and visitor states are
//! written into partition-owned bucket copies and merged back after each
//! traversal — the paper's race-freedom-by-construction.

use crate::config::{Configuration, TraversalKind};
use crate::decomp::{decompose, Partitioner};
use crate::maintain::{TreeMaintainer, UpdateTotals};
use crate::par;
use crate::traversal::{traverse_local, TraversalStats, WorkCounts};
use crate::visitor::{TargetBucket, Visitor};
use paratreet_cache::{CacheTree, NodeKind, SubtreeSummary};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;
use paratreet_telemetry::{FlightRecorder, MetricsRegistry, Telemetry};
use paratreet_tree::{BuiltTree, Data, TreeBuilder};

/// A partition's share of target buckets: the global bucket indices and
/// the owned copies the traversal mutates.
type PartitionSlot<S> = (Vec<usize>, Vec<TargetBucket<S>>);

/// Where one target bucket's particles live in the master array.
#[derive(Clone, Debug)]
struct BucketMeta {
    leaf_key: NodeKey,
    partition: u32,
    /// Master-array indices of this bucket's particles.
    indices: Vec<u32>,
}

/// Measurements for one step.
#[derive(Clone, Debug, Default)]
pub struct StepReport {
    /// Subtree pieces built.
    pub n_subtrees: usize,
    /// Partitions used.
    pub n_partitions: usize,
    /// Target buckets after leaf sharing.
    pub n_buckets: usize,
    /// Tree leaves whose particles spanned >1 Partition (split buckets,
    /// Fig. 5).
    pub n_split_leaves: usize,
    /// Aggregated interaction counts over all traversals this step.
    pub counts: WorkCounts,
    /// Wall-clock seconds per pipeline stage: decompose, build, share,
    /// traverse (summed over traversals).
    pub seconds_decompose: f64,
    /// Tree build seconds.
    pub seconds_build: f64,
    /// Leaf-sharing seconds.
    pub seconds_share: f64,
    /// Traversal seconds.
    pub seconds_traverse: f64,
    /// Incremental tree-update seconds (zero when maintenance is off or
    /// this step seeded the maintainer).
    pub seconds_update: f64,
    /// Cumulative incremental-maintenance counters, present once a
    /// maintainer is live (`tree.update.*` in [`StepReport::metrics`]).
    pub update: Option<UpdateTotals>,
    /// Non-empty per-Subtree insert batches applied by this step's
    /// incremental advance (zero on seed/full-rebuild steps).
    pub round_batches: u64,
    /// Particles that crossed Subtree boundaries in this step's advance.
    pub round_migrated: u64,
}

impl StepReport {
    /// The report under the stable dotted names the distributed engines
    /// use where the statistics overlap (`counts.*`, `time.*`), plus
    /// shared-memory decomposition sizes under `decomp.*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.absorb("counts", &self.counts);
        m.set_u64("decomp.n_subtrees", self.n_subtrees as u64);
        m.set_u64("decomp.n_partitions", self.n_partitions as u64);
        m.set_u64("decomp.n_buckets", self.n_buckets as u64);
        m.set_u64("decomp.n_split_leaves", self.n_split_leaves as u64);
        m.set_f64("time.decompose_s", self.seconds_decompose);
        m.set_f64("time.build_s", self.seconds_build);
        m.set_f64("time.share_s", self.seconds_share);
        m.set_f64("time.traverse_s", self.seconds_traverse);
        if let Some(update) = &self.update {
            m.set_f64("time.update_s", self.seconds_update);
            m.absorb("tree.update", update);
            m.set_u64("tree.update.round_batches", self.round_batches);
            m.set_u64("tree.update.round_migrated", self.round_migrated);
        }
        m
    }
}

/// One in-flight step: the built cache plus bucket bookkeeping.
pub struct Step<D: Data> {
    /// The per-process cached global tree (all subtrees local here).
    pub cache: CacheTree<D>,
    /// The universe box this step was built in.
    pub universe: BoundingBox,
    /// Step measurements, updated by each traversal.
    pub report: StepReport,
    master: Vec<Particle>,
    buckets: Vec<BucketMeta>,
    /// [`par::map`] width for the per-Partition traversals.
    width: usize,
}

/// Observer for every step's freshly built forest, called as
/// `(epoch, trees, universe)` before leaf sharing consumes the trees.
/// Epochs count steps from zero. This is the serving layer's
/// publication point: a `paratreet-serve` snapshot ring subscribes
/// here to expose a live simulation to external queries.
pub type SnapshotHook<D> = Box<dyn FnMut(u64, &[BuiltTree<D>], BoundingBox) + Send>;

impl<D: Data> Step<D> {
    fn build(
        config: &Configuration,
        telemetry: &Telemetry,
        particles: Vec<Particle>,
        epoch: u64,
        hook: &mut Option<SnapshotHook<D>>,
    ) -> Step<D> {
        let t0 = std::time::Instant::now();
        let decomp = telemetry.wall_span(0, "decomposition", None, || decompose(particles, config));
        let seconds_decompose = t0.elapsed().as_secs_f64();
        let crate::decomp::Decomposition { universe, subtrees, partitioner, n_partitions } = decomp;

        // Parallel Subtree build: pieces are independent (the paper's
        // synchronization-free tree build).
        let t0 = std::time::Instant::now();
        let trees: Vec<_> = telemetry.wall_span(0, "tree build", None, || {
            par::map(config.incremental.batch_threads, subtrees, |_, piece| {
                let builder = TreeBuilder {
                    root_key: piece.key,
                    root_depth: piece.depth,
                    ..TreeBuilder::new(config.tree_type)
                }
                .bucket_size(config.bucket_size);
                builder.build::<D>(piece.particles, piece.bbox)
            })
        });
        let seconds_build = t0.elapsed().as_secs_f64();

        if let Some(h) = hook.as_mut() {
            h(epoch, &trees, universe);
        }
        let report = StepReport { seconds_decompose, seconds_build, ..Default::default() };
        Step::from_trees(config, telemetry, trees, &partitioner, n_partitions, universe, report)
    }

    /// Finishes a step from already-built Subtrees: leaf sharing against
    /// `partitioner`, then cache init. This is the common tail of the
    /// full-rebuild path ([`Step::build`]) and the incremental path,
    /// where the trees come from a [`TreeMaintainer`] instead of a fresh
    /// decomposition — guaranteeing both pipelines share semantics.
    fn from_trees(
        config: &Configuration,
        telemetry: &Telemetry,
        trees: Vec<BuiltTree<D>>,
        partitioner: &Partitioner,
        n_partitions: usize,
        universe: BoundingBox,
        mut report: StepReport,
    ) -> Step<D> {
        // Master array: subtree particle arrays concatenated in piece
        // order; leaf buckets are contiguous master ranges.
        let t0 = std::time::Instant::now();
        let total: usize = trees.iter().map(|t| t.particles.len()).sum();
        let mut master = Vec::with_capacity(total);
        let mut buckets: Vec<BucketMeta> = Vec::new();
        let mut n_split_leaves = 0usize;
        let share_span = telemetry.clone();
        share_span.wall_span(0, "leaf sharing", None, || {
            // Grouping scratch, reused across leaves (inner index vectors
            // move into BucketMeta; only the spine's capacity persists).
            let mut per_part: Vec<(u32, Vec<u32>)> = Vec::new();
            for tree in &trees {
                let offset = master.len() as u32;
                // The arena is pre-order, so a linear node scan visits
                // leaves in DFS order without a traversal stack.
                for node in &tree.nodes {
                    let Some(range) = node.bucket_range() else { continue };
                    // Group the leaf's particles by Partition assignment —
                    // the leaf-sharing step, with bucket splitting (Fig. 5).
                    // Assignments run in SFC-contiguous streaks, so memoize
                    // the previous particle's slot.
                    let mut last_part = u32::MAX;
                    let mut last_slot = usize::MAX;
                    for i in range {
                        let part = partitioner.assign(&tree.particles[i]);
                        if part != last_part {
                            last_slot = match per_part.iter().position(|(p, _)| *p == part) {
                                Some(s) => s,
                                None => {
                                    per_part.push((part, Vec::new()));
                                    per_part.len() - 1
                                }
                            };
                            last_part = part;
                        }
                        per_part[last_slot].1.push(offset + i as u32);
                    }
                    if per_part.len() > 1 {
                        n_split_leaves += 1;
                    }
                    for (partition, indices) in per_part.drain(..) {
                        buckets.push(BucketMeta { leaf_key: node.key, partition, indices });
                    }
                }
                master.extend_from_slice(&tree.particles);
            }
        });
        let seconds_share = t0.elapsed().as_secs_f64();

        // Cache init: summaries of every piece, then graft (single rank:
        // everything is local).
        let summaries: Vec<SubtreeSummary<D>> = trees
            .iter()
            .map(|t| SubtreeSummary {
                key: t.root().key,
                bbox: t.root().bbox,
                n_particles: t.root().n_particles,
                data: t.root().data.clone(),
                home_rank: 0,
            })
            .collect();
        let n_subtrees = trees.len();
        let mut cache: CacheTree<D> = CacheTree::new(0, config.tree_type.bits_per_level());
        cache.telemetry = telemetry.clone();
        cache.init(&summaries, trees);

        report.n_subtrees = n_subtrees;
        report.n_partitions = n_partitions;
        report.n_buckets = buckets.len();
        report.n_split_leaves = n_split_leaves;
        report.seconds_share = seconds_share;
        Step { cache, universe, report, master, buckets, width: config.incremental.batch_threads }
    }

    /// Runs one traversal of `kind` with `visitor` over every Partition
    /// in parallel, merges particle accumulators back, and returns the
    /// per-bucket visitor states (in deterministic bucket order) plus
    /// this traversal's statistics.
    pub fn traverse<V: Visitor<Data = D>>(
        &mut self,
        visitor: &V,
        kind: TraversalKind,
    ) -> (Vec<V::State>, TraversalStats) {
        let t0 = std::time::Instant::now();
        let n_partitions =
            self.buckets.iter().map(|b| b.partition).max().map_or(0, |m| m as usize + 1);

        // Assemble per-partition target buckets (owned particle copies).
        let mut per_partition: Vec<PartitionSlot<V::State>> =
            (0..n_partitions).map(|_| (Vec::new(), Vec::new())).collect();
        for (bi, meta) in self.buckets.iter().enumerate() {
            let particles: Vec<Particle> =
                meta.indices.iter().map(|&i| self.master[i as usize]).collect();
            let bbox = BoundingBox::around(particles.iter().map(|p| p.pos));
            let slot = &mut per_partition[meta.partition as usize];
            slot.0.push(bi);
            slot.1.push(TargetBucket {
                leaf_key: meta.leaf_key,
                particles,
                bbox,
                state: V::State::default(),
            });
        }

        // Parallel traversal: partitions are independent, the cache is
        // read-only (all local).
        let cache = &self.cache;
        let slots: Vec<_> = per_partition.iter_mut().map(|(_, buckets)| buckets).collect();
        let counts_total: WorkCounts =
            cache.telemetry.clone().wall_span(0, "local traversal", None, || {
                let per_slot = par::map(self.width, slots, |_, buckets| {
                    traverse_local(cache, visitor, kind, buckets)
                });
                per_slot.into_iter().fold(WorkCounts::default(), |mut a, b| {
                    a += b;
                    a
                })
            });

        // Write-back: bucket particle copies return to the master array;
        // states are collected in bucket order.
        let mut states: Vec<Option<V::State>> = (0..self.buckets.len()).map(|_| None).collect();
        for (bucket_ids, buckets) in per_partition {
            for (bi, bucket) in bucket_ids.into_iter().zip(buckets) {
                for (&mi, p) in self.buckets[bi].indices.iter().zip(&bucket.particles) {
                    self.master[mi as usize] = *p;
                }
                states[bi] = Some(bucket.state);
            }
        }

        self.report.counts += counts_total;
        self.report.seconds_traverse += t0.elapsed().as_secs_f64();
        (
            states.into_iter().map(|s| s.expect("every bucket traversed")).collect(),
            TraversalStats { counts: counts_total, fetches: 0 },
        )
    }

    /// Read access to the step's current particle state (sources remain
    /// the start-of-step snapshot; this reflects traversal write-backs).
    pub fn particles(&self) -> &[Particle] {
        &self.master
    }

    /// The particle ids of each bucket, aligned with the state vector
    /// [`Step::traverse`] returns — for applications whose states refer
    /// to bucket-local particle positions.
    pub fn bucket_particle_ids(&self) -> Vec<Vec<u64>> {
        self.buckets
            .iter()
            .map(|m| m.indices.iter().map(|&i| self.master[i as usize].id).collect())
            .collect()
    }

    /// Number of leaves in the cached tree (sanity/debug).
    pub fn n_leaves(&self) -> usize {
        let mut n = 0;
        let mut stack = vec![self.cache.root().expect("init")];
        while let Some(node) = stack.pop() {
            if node.kind == NodeKind::Leaf {
                n += 1;
            }
            for c in node.children_iter(8) {
                stack.push(c);
            }
        }
        n
    }
}

/// The shared-memory ParaTreeT engine: owns the particle set and the
/// configuration, and runs steps.
/// Columns the shared-memory engine's flight recorder samples at each
/// phase boundary (one row after setup, one after traversal, per step).
/// `stage` is 0 for setup (decompose + build or incremental update) and
/// 1 for leaf sharing + traversal.
pub const FLIGHT_SERIES: &[&str] =
    &["epoch", "stage", "seconds", "n_subtrees", "n_buckets", "update_migrated"];

pub struct Framework<D: Data> {
    /// Run configuration.
    pub config: Configuration,
    /// Span sink (wall clock); the default disabled handle costs nothing.
    pub telemetry: Telemetry,
    /// Flight-recorder sink sampled at phase boundaries
    /// ([`FLIGHT_SERIES`] rows, wall clock); disabled by default.
    pub flight: FlightRecorder,
    master: Vec<Particle>,
    /// The live maintained tree, once `config.incremental.enabled` has
    /// seeded it (first step).
    maintainer: Option<TreeMaintainer<D>>,
    /// Per-step forest observer (serving-layer publication point).
    snapshot_hook: Option<SnapshotHook<D>>,
    /// Steps run so far — the epoch the hook is stamped with.
    steps_run: u64,
}

impl<D: Data> Framework<D> {
    /// A framework over `particles` with `config`.
    pub fn new(config: Configuration, particles: Vec<Particle>) -> Framework<D> {
        Framework {
            config,
            telemetry: Telemetry::disabled(),
            flight: FlightRecorder::disabled(),
            master: particles,
            maintainer: None,
            snapshot_hook: None,
            steps_run: 0,
        }
    }

    /// Attaches a telemetry handle recording wall-clock phase spans.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a flight recorder sampled at every phase boundary
    /// (one [`FLIGHT_SERIES`] row after setup, one after traversal).
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Attaches a snapshot hook: called once per step with
    /// `(epoch, trees, universe)` right after the forest is built (or
    /// incrementally advanced), before leaf sharing consumes it. Both
    /// pipelines fire it, so a query service subscribed here serves
    /// exactly the forest each step traverses.
    pub fn with_snapshot_hook(
        mut self,
        hook: impl FnMut(u64, &[BuiltTree<D>], BoundingBox) + Send + 'static,
    ) -> Self {
        self.snapshot_hook = Some(Box::new(hook));
        self
    }

    /// Current particle state.
    pub fn particles(&self) -> &[Particle] {
        &self.master
    }

    /// Mutable particle state — for integration (drift/kick) between steps.
    pub fn particles_mut(&mut self) -> &mut Vec<Particle> {
        &mut self.master
    }

    /// Runs one step: builds the trees, hands the [`Step`] to `f` so the
    /// application can launch traversals (the paper's `traversal()`
    /// callback), then absorbs the updated particles. Returns `f`'s
    /// result and the step report.
    pub fn step<R>(&mut self, f: impl FnOnce(&mut Step<D>) -> R) -> (R, StepReport) {
        let particles = std::mem::take(&mut self.master);
        let epoch = self.steps_run;
        let mut step = if self.config.incremental.enabled {
            self.step_incremental(particles, epoch)
        } else {
            Step::build(&self.config, &self.telemetry, particles, epoch, &mut self.snapshot_hook)
        };
        self.steps_run += 1;
        if self.flight.is_enabled() {
            let rep = &step.report;
            self.flight.sample(&[
                epoch as f64,
                0.0,
                rep.seconds_decompose + rep.seconds_build + rep.seconds_update,
                rep.n_subtrees as f64,
                rep.n_buckets as f64,
                rep.round_migrated as f64,
            ]);
        }
        let r = f(&mut step);
        if self.flight.is_enabled() {
            let rep = &step.report;
            self.flight.sample(&[
                epoch as f64,
                1.0,
                rep.seconds_share + rep.seconds_traverse,
                rep.n_subtrees as f64,
                rep.n_buckets as f64,
                rep.round_migrated as f64,
            ]);
        }
        self.master = step.master;
        (r, step.report)
    }

    /// The incremental pipeline: seed a [`TreeMaintainer`] on the first
    /// step (a normal decomposition + build), then patch the maintained
    /// tree in place on every later step under the "incremental update"
    /// phase. Both paths feed the shared [`Step::from_trees`] tail, so
    /// traversal semantics are identical to a full rebuild.
    fn step_incremental(&mut self, particles: Vec<Particle>, epoch: u64) -> Step<D> {
        let mut report = StepReport::default();
        let trees = match self.maintainer.as_mut() {
            None => {
                // Seed = decompose + build once; charge it to build time
                // like the full pipeline's dominant stage.
                let t0 = std::time::Instant::now();
                let (maintainer, trees) = self.telemetry.wall_span(0, "tree build", None, || {
                    TreeMaintainer::seed(&self.config, particles, true)
                });
                report.seconds_build = t0.elapsed().as_secs_f64();
                self.maintainer = Some(maintainer);
                trees
            }
            Some(maintainer) => {
                let t0 = std::time::Instant::now();
                let (trees, round) =
                    self.telemetry
                        .wall_span(0, "incremental update", None, || maintainer.advance(particles));
                report.seconds_update = t0.elapsed().as_secs_f64();
                report.round_batches = round.n_batches;
                report.round_migrated = round.n_migrated;
                trees
            }
        };
        let maintainer = self.maintainer.as_ref().expect("seeded above");
        if let Some(h) = self.snapshot_hook.as_mut() {
            h(epoch, &trees, maintainer.universe());
        }
        report.update = Some(*maintainer.totals());
        let step = Step::from_trees(
            &self.config,
            &self.telemetry,
            trees,
            maintainer.partitioner(),
            maintainer.n_partitions(),
            maintainer.universe(),
            report,
        );
        // Patched trees must still satisfy every structural invariant a
        // fresh build does — checked at the phase boundary in debug runs.
        #[cfg(debug_assertions)]
        step.cache
            .audit_patched(self.config.bucket_size)
            .expect("incremental maintenance broke a cache-tree invariant");
        step
    }
}
