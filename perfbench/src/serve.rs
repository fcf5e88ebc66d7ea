//! `serve`: `QueryService` answering a kNN/ball/range/ray mix (4:3:2:1)
//! over a live maintained `CountData` tree.
//!
//! One client thread calls `QueryService::submit` directly, and the
//! service runs `nproc − 1` workers, so the workers and the client together use
//! at most `nproc` threads. The measured phase is split in two halves:
//!
//! * closed loop: [`OUTSTANDING`] batches always in flight, which gives
//!   the read capacity `qps` and, as a step, the round trip of a batch;
//! * open loop: batches due at a fixed absolute rate
//!   ([`OPEN_LOOP_QPS`]), each request timed from when it was due, which
//!   gives `p50_ms` and `p99_ms`, while a writer thread advances and
//!   publishes the tree at a fixed pace beside the reads (drift,
//!   `TreeMaintainer::advance`, `QueryService::publish`). A reply thread
//!   stamps completions.
//!
//! Set-up is seeding the maintainer, starting the service and publishing
//! the first epoch. After the load, the writer stops and a seeded query
//! set answered by the service must equal both `paratreet_serve::execute`
//! and a brute-force scan of the pinned final snapshot.

use crate::calib;
use crate::stats::percentile;
use crate::workload::{four_clusters, median_setup, set_median, Ctx, Outcome, StepTimes};
use crossbeam::channel::{unbounded, Sender};
use paratreet_core::{Configuration, TreeMaintainer};
use paratreet_geometry::BoundingBox;
use paratreet_particles::Particle;
use paratreet_serve::load::random_query;
use paratreet_serve::{
    execute, AdmissionPolicy, Query, QueryResult, QueryService, Request, Response, ServeConfig,
    ServeError,
};
use paratreet_tree::{CountData, QueryScratch};
use rand::{SeedableRng, StdRng};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Particles in the served tree.
pub const PARTICLES: usize = 20_000;
/// Queries per submitted batch in the open loop and the checks.
const BATCH: usize = 64;
/// Closed loop: queries per batch, and batches kept in flight. Large
/// batches keep the worker busy between the client's turns, so the rate
/// measures the service rather than how soon the client is scheduled.
const CLOSED_BATCH: usize = 256;
pub const OUTSTANDING: usize = 4;
/// Open loop: the fixed offered rate, queries per second — about a
/// quarter of the closed-loop capacity measured on a 2-core x86-64 host
/// when this benchmark was defined (at half of it, the latencies there
/// followed the host's scheduling noise). Frozen: changing it changes
/// the workload.
pub const OPEN_LOOP_QPS: f64 = 50_000.0;
/// kNN neighbour count.
const K: usize = 8;
/// Query class weights: kNN, ball, range, ray.
const MIX: [u32; 4] = [4, 3, 2, 1];
/// The writer publishes one epoch per pace interval.
const WRITER_PACE: Duration = Duration::from_millis(50);
/// Queries checked against `execute` and brute force after the load.
const CHECK_QUERIES: usize = 256;
/// Window length: closed-loop `qps` and open-loop `p99_ms` are medians
/// over windows of this many seconds.
const WINDOW_S: f64 = 0.5;
/// Service start-ups timed for `setup_s`.
const SETUP_REPS: usize = 15;

/// The seeded input: four Plummer clusters at fixed centres.
pub fn particles(seed: u64) -> Vec<Particle> {
    four_clusters(PARTICLES, seed)
}

fn config(seed: u64) -> Configuration {
    let mut c = Configuration {
        bucket_size: 16,
        n_subtrees: 16,
        n_partitions: 32,
        seed,
        ..Default::default()
    };
    c.incremental.enabled = true;
    // The writer is one thread beside the service's workers.
    c.incremental.batch_threads = 1;
    c
}

/// Deterministic small drift: id-hashed direction, fixed magnitude —
/// every advance patches buckets without leaving the padded universe.
fn drift(particles: &mut [Particle], epoch: u64) {
    for p in particles.iter_mut() {
        let h = p.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ epoch;
        p.pos.x += ((h & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.y += ((h >> 8 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
        p.pos.z += ((h >> 16 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
    }
}

/// A running service with its maintained tree.
struct Live {
    service: QueryService<CountData>,
    maintainer: TreeMaintainer<CountData>,
    master: Vec<Particle>,
}

/// Seeds the maintainer, starts the service and publishes epoch 0.
fn start(input: &[Particle], cfg: &Configuration, workers: usize) -> Live {
    let (maintainer, trees) = TreeMaintainer::<CountData>::seed(cfg, input.to_vec(), true);
    let master: Vec<Particle> = trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
    let service = QueryService::new(ServeConfig {
        workers,
        queue_capacity: 64,
        ring_capacity: 8,
        admission: AdmissionPolicy::Defer,
        supervision_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    });
    service.publish(trees, maintainer.universe());
    Live { service, maintainer, master }
}

/// `count` seeded queries.
fn queries(rng: &mut StdRng, universe: &BoundingBox, count: usize) -> Vec<Query> {
    (0..count).map(|_| random_query(rng, universe, K, &MIX)).collect()
}

/// Requests of batch `index`, stamped as submitted at `at`.
fn requests(index: u32, at: Instant, qs: Vec<Query>) -> Vec<Request> {
    qs.into_iter()
        .enumerate()
        .map(|(seq, query)| Request {
            client: index,
            seq: seq as u32,
            query,
            submitted_at: at,
            deadline: None,
        })
        .collect()
}

/// Answers that count as failed: errors and degraded or partial answers.
fn failures(batch: &[Response]) -> u64 {
    batch.iter().filter(|r| !r.is_full_fidelity()).count() as u64
}

/// What the closed loop measured.
#[derive(Default)]
struct ClosedLoop {
    qps: f64,
    /// Submit-to-reply time of every batch answered in the phase.
    round_trip_s: Vec<f64>,
    /// When each batch was handed to `submit`, by batch index.
    sent: Vec<Instant>,
    submitted: u64,
    failed: u64,
    submit_wait_s: f64,
}

fn closed_loop(
    service: &QueryService<CountData>,
    universe: &BoundingBox,
    seed: u64,
    seconds: f64,
) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_ED00);
    let (tx, rx) = unbounded::<Vec<Response>>();
    let mut next = 0u32;
    let mut in_flight = 0usize;
    let mut submit = |out: &mut ClosedLoop, in_flight: &mut usize| {
        let reqs = requests(next, Instant::now(), queries(&mut rng, universe, CLOSED_BATCH));
        next += 1;
        let t = Instant::now();
        out.sent.push(t);
        let result = service.submit(reqs, Some(tx.clone()));
        out.submit_wait_s += t.elapsed().as_secs_f64();
        out.submitted += CLOSED_BATCH as u64;
        match result {
            Ok(()) => *in_flight += 1,
            Err(_) => out.failed += CLOSED_BATCH as u64,
        }
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    for _ in 0..OUTSTANDING {
        submit(&mut out, &mut in_flight);
    }
    // Completions per window; qps is the median window's rate, so one
    // stall of a shared host does not set it.
    let window = WINDOW_S.min(seconds);
    let n_windows = ((seconds / window).floor() as usize).max(1);
    let mut completed = vec![0u64; n_windows];
    while in_flight > 0 {
        let batch = rx.recv().expect("the client holds a sender");
        in_flight -= 1;
        out.failed += failures(&batch);
        let now = Instant::now();
        let w = (now.duration_since(start).as_secs_f64() / window) as usize;
        if w < n_windows {
            completed[w] += batch.len() as u64;
            if let Some(first) = batch.first() {
                let sent = out.sent[first.client as usize];
                out.round_trip_s.push(now.duration_since(sent).as_secs_f64());
            }
        }
        if Instant::now() < end {
            submit(&mut out, &mut in_flight);
        }
    }
    let rates: Vec<f64> = completed.iter().map(|&c| c as f64 / window).collect();
    out.qps = crate::stats::median(&rates);
    out
}

/// What the open loop measured.
#[derive(Default)]
pub struct OpenLoop {
    /// Per-request latency from its due time to its batch's reply, ms.
    pub latency_ms: Vec<f64>,
    /// The 99th percentile of each window of due times, ms.
    pub window_p99_ms: Vec<f64>,
    /// Per-batch lateness of the generator (submitted − due), ms.
    pub lateness_ms: Vec<f64>,
    /// Queries submitted and failed.
    pub submitted: u64,
    pub failed: u64,
    /// Time the client spent blocked in `submit`.
    pub submit_wait_s: f64,
}

/// Offers batches of `batch` requests due every `batch / rate` seconds
/// for `seconds`. `make(index, due)` builds a batch; `submit` hands it
/// over with the reply sender. A reply thread stamps each batch's
/// completion, and each request's latency is measured from when its
/// batch was *due*, so a stall in the generator or the service counts
/// against every request it delays. Besides the whole phase's
/// latencies, it keeps the 99th percentile of each `window_s` slice of
/// due times.
pub fn open_loop(
    rate: f64,
    batch: usize,
    seconds: f64,
    window_s: f64,
    mut make: impl FnMut(u32, Instant) -> Vec<Request>,
    mut submit: impl FnMut(Vec<Request>, Sender<Vec<Response>>) -> Result<(), ServeError>,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let interval = Duration::from_secs_f64(batch as f64 / rate);
    let (tx, rx) = unbounded::<Vec<Response>>();
    let start = Instant::now() + interval;
    let n_batches = (seconds / interval.as_secs_f64()).floor().max(1.0) as u32;
    let due = |k: u32| start + interval * k;
    let replies = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done: Vec<(u32, Instant, u64, u64)> = Vec::new();
            while let Ok(answers) = rx.recv() {
                let now = Instant::now();
                if let Some(first) = answers.first() {
                    done.push((first.client, now, answers.len() as u64, failures(&answers)));
                }
            }
            done
        });
        for k in 0..n_batches {
            let at = due(k);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let reqs = make(k, at);
            let n = reqs.len() as u64;
            let sent = Instant::now();
            out.lateness_ms.push(sent.saturating_duration_since(at).as_secs_f64() * 1e3);
            let result = submit(reqs, tx.clone());
            out.submit_wait_s += sent.elapsed().as_secs_f64();
            out.submitted += n;
            if result.is_err() {
                out.failed += n;
            }
        }
        drop(tx);
        collector.join().expect("reply collector panicked")
    });
    // Whole windows only (at least one, however short the phase).
    let per_window = ((window_s / interval.as_secs_f64()).round() as usize).max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); (n_batches as usize / per_window).max(1)];
    for (index, done, n, failed) in replies {
        out.failed += failed;
        let latency = done.saturating_duration_since(due(index)).as_secs_f64() * 1e3;
        out.latency_ms.extend(std::iter::repeat_n(latency, n as usize));
        if let Some(w) = windows.get_mut(index as usize / per_window) {
            w.extend(std::iter::repeat_n(latency, n as usize));
        }
    }
    out.window_p99_ms =
        windows.iter().filter(|w| !w.is_empty()).map(|w| percentile(w, 0.99)).collect();
    out
}

/// Brute-force answer of `query` over `particles`, in the service's
/// result form.
fn brute_force(particles: &[Particle], query: &Query) -> QueryResult {
    fn by_distance(mut v: Vec<(f64, &Particle)>) -> Vec<(f64, &Particle)> {
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        v
    }
    let neighbors = |v: Vec<(f64, &Particle)>| {
        QueryResult::Neighbors(
            v.into_iter()
                .map(|(d2, p)| paratreet_tree::Neighbor {
                    dist_sq: d2,
                    id: p.id,
                    pos: p.pos,
                    mass: p.mass,
                    vel: p.vel,
                })
                .collect(),
        )
    };
    match *query {
        Query::Knn { pos, k } => {
            let mut all = by_distance(particles.iter().map(|p| (p.pos.dist_sq(pos), p)).collect());
            all.truncate(k);
            neighbors(all)
        }
        Query::Ball { center, radius } => neighbors(by_distance(
            particles
                .iter()
                .map(|p| (p.pos.dist_sq(center), p))
                .filter(|(d2, _)| *d2 <= radius * radius)
                .collect(),
        )),
        Query::Range { bbox, resume_after } => {
            let mut ids: Vec<u64> = particles
                .iter()
                .filter(|p| bbox.contains(p.pos) && resume_after.is_none_or(|c| p.id > c))
                .map(|p| p.id)
                .collect();
            ids.sort_unstable();
            QueryResult::Ids(ids)
        }
        Query::Ray { origin, dir, radius, t_max } => {
            if dir.norm_sq() == 0.0 {
                return QueryResult::Hit(None);
            }
            let dir = dir.normalized();
            let mut best: Option<paratreet_tree::RayHit> = None;
            for p in particles {
                let t = (p.pos - origin).dot(dir).clamp(0.0, t_max);
                let d2 = (origin + dir * t).dist_sq(p.pos);
                let better = best.is_none_or(|b| t < b.t || (t == b.t && p.id < b.id));
                if d2 <= radius * radius && better {
                    best = Some(paratreet_tree::RayHit { t, dist_sq: d2, id: p.id, pos: p.pos });
                }
            }
            QueryResult::Hit(best)
        }
    }
}

/// Submits the seeded check set to the stopped service and compares
/// every answer with `execute` and brute force on the pinned snapshot.
fn check_answers(service: &QueryService<CountData>, seed: u64, out: &mut Outcome) {
    let Some(pin) = service.pin() else {
        out.check(false, || "no snapshot to check against".into());
        return;
    };
    let universe = pin.universe;
    let particles: Vec<Particle> =
        pin.trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC_0000);
    let qs = queries(&mut rng, &universe, CHECK_QUERIES);
    let (tx, rx) = unbounded::<Vec<Response>>();
    let mut sent = 0;
    for (b, chunk) in qs.chunks(BATCH).enumerate() {
        if service
            .submit(requests(b as u32, Instant::now(), chunk.to_vec()), Some(tx.clone()))
            .is_ok()
        {
            sent += 1;
        }
    }
    drop(tx);
    let mut answers: Vec<Response> = Vec::new();
    for _ in 0..sent {
        answers.extend(rx.recv().expect("service answers every admitted batch"));
    }
    let mut scratch = QueryScratch::default();
    let mut answered = vec![false; qs.len()];
    for r in &answers {
        let i = r.client as usize * BATCH + r.seq as usize;
        answered[i] = true;
        let q = &qs[i];
        let ok = match &r.result {
            Ok(result) => {
                r.epoch == pin.epoch()
                    && *result == execute(&pin.trees, q, &mut scratch)
                    && *result == brute_force(&particles, q)
            }
            Err(_) => false,
        };
        out.check(ok, || {
            format!("query {i} ({:?}) answered wrongly at epoch {}", q.class(), r.epoch)
        });
    }
    for (i, seen) in answered.iter().enumerate() {
        if !seen {
            out.check(false, || format!("query {i} was never answered"));
        }
    }
}

/// Raises its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Relaxed);
    }
}

/// The worst query class's value of a latency summary, in ms.
fn worst_class_ms(metrics: &paratreet_telemetry::MetricsRegistry, stat: &str) -> f64 {
    ["knn", "ball", "range", "ray"]
        .iter()
        .map(|c| metrics.get_u64(&format!("serve.latency.{c}.{stat}")) as f64 * 1e-6)
        .fold(0.0, f64::max)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let input = particles(ctx.seed);
    let cfg = config(ctx.seed);
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let workers = nproc.saturating_sub(1).max(1);
    out.sizes = vec![
        ("particles", PARTICLES as u64),
        ("workers", workers as u64),
        ("batch", BATCH as u64),
        ("closed_batch", CLOSED_BATCH as u64),
        ("outstanding", OUTSTANDING as u64),
    ];

    let (setup_s, live) = median_setup(SETUP_REPS, || start(&input, &cfg, workers));
    out.metrics.set("setup_s", setup_s, SETUP_REPS);
    calib::calibrate(&live.master).report(&mut out.metrics);
    let Live { service, mut maintainer, mut master } = live;
    let universe = maintainer.universe();

    let stop = AtomicBool::new(false);
    // Set while the open loop runs, the phase the writer runs in.
    let open_phase = AtomicBool::new(false);
    let writer_tracer = ctx.tracer.for_thread();
    let seed = ctx.seed;
    let half = ctx.seconds / 2.0;
    let (times, advance, closed, open) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut tracer = writer_tracer;
            let traced_run = tracer.enabled();
            let mut times = StepTimes::default();
            let mut advance = Vec::new();
            let mut next = Instant::now();
            let mut epoch = 0u64;
            while !stop.load(Relaxed) {
                next += WRITER_PACE;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    next = now;
                }
                // Writes run beside the open loop only; the closed loop
                // measures the service's read capacity.
                if !open_phase.load(Relaxed) {
                    continue;
                }
                epoch += 1;
                let traced = traced_run && epoch % 2 == 1;
                tracer.set_active(traced);
                let t0 = Instant::now();
                tracer.span("step", || {
                    tracer.span("integrate", || drift(&mut master, epoch));
                    let t = Instant::now();
                    let (trees, _round) = tracer
                        .span("writer.advance", || maintainer.advance(std::mem::take(&mut master)));
                    advance.push(t.elapsed().as_secs_f64());
                    master = trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
                    tracer.span("writer.publish", || service.publish(trees, maintainer.universe()));
                });
                times.push(t0.elapsed().as_secs_f64(), traced);
            }
            (times, advance)
        });
        // Stops the writer however the client leaves this scope, so a
        // failing client cannot leave the scope waiting on it forever.
        let stop_writer = StopOnDrop(&stop);
        let closed = closed_loop(&service, &universe, seed, half);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE0_0000);
        open_phase.store(true, Relaxed);
        let open = open_loop(
            OPEN_LOOP_QPS,
            BATCH,
            half,
            WINDOW_S,
            |k, due| requests(k, due, queries(&mut rng, &universe, BATCH)),
            |reqs, tx| service.submit(reqs, Some(tx)),
        );
        drop(stop_writer);
        let (times, advance) = writer.join().expect("writer panicked");
        (times, advance, closed, open)
    });
    out.attempted += closed.submitted + open.submitted;
    out.failed += closed.failed + open.failed;
    if closed.failed + open.failed > 0 {
        out.failures.push(format!("{} queries failed under load", closed.failed + open.failed));
    }
    check_answers(&service, seed, &mut out);
    out.traced_steps = times.traced.len();

    let metrics = service.metrics();
    let totals = *maintainer.totals();
    let m = &mut out.metrics;
    set_median(m, "step_s", &closed.round_trip_s);
    // Spans run on the writer only: the tracing overhead is the traced
    // writer epochs' against the untraced ones.
    times.report_tracing(m);
    m.set("qps", closed.qps, closed.submitted as usize);
    m.set("p50_ms", percentile(&open.latency_ms, 0.50), open.latency_ms.len());
    // One stall of the host can own a whole phase's tail: p99 is the
    // median of the windows' p99s; the whole phase's is kept beside it.
    set_median(m, "p99_ms", &open.window_p99_ms);
    m.set("p99_all_ms", percentile(&open.latency_ms, 0.99), open.latency_ms.len());
    set_median(m, "update.busy_s", &advance);
    // Counts over the whole run: they depend on how many epochs the
    // writer published, so they vary from run to run.
    m.count("update.moved", totals.moved);
    m.count("update.patched", totals.patched);
    m.count("update.subtree_rebuilds", totals.subtree_rebuilds);
    m.count("update.full_rebuilds", totals.full_rebuilds);
    m.set("update.patched_per_moved", totals.patched as f64 / totals.moved.max(1) as f64, 1);
    m.set("serve.submit_wait_s", closed.submit_wait_s + open.submit_wait_s, 1);
    m.set("serve.queue_wait_p99_ms", worst_class_ms(&metrics, "queue_wait.p99"), 1);
    m.set("serve.pin_wait_p99_ms", worst_class_ms(&metrics, "pin_wait.p99"), 1);
    m.set("serve.exec_p50_ms", worst_class_ms(&metrics, "exec.p50"), 1);
    m.set("serve.exec_p99_ms", worst_class_ms(&metrics, "exec.p99"), 1);
    m.count("serve.snapshots_published", metrics.get_u64("serve.snapshots.published"));
    m.count("serve.pin_retries", metrics.get_u64("serve.snapshots.pin_retries"));
    m.count("serve.writer_stalls", metrics.get_u64("serve.snapshots.writer_stalls"));
    let submitted = metrics.get_u64("serve.queries.submitted");
    let completed = metrics.get_u64("serve.queries.completed");
    m.set("serve.completed_per_submitted", completed as f64 / submitted.max(1) as f64, 1);
    m.set("load.lateness_p99_ms", percentile(&open.lateness_ms, 0.99), open.lateness_ms.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(reqs: Vec<Request>) -> Vec<Response> {
        reqs.into_iter()
            .map(|r| Response {
                client: r.client,
                seq: r.seq,
                epoch: 0,
                result: Ok(QueryResult::Ids(Vec::new())),
                degraded: false,
                partial: None,
            })
            .collect()
    }

    #[test]
    fn open_loop_latency_is_measured_from_the_due_time() {
        // Batches due every 10 ms; the first submit stalls 60 ms, so the
        // next batches go out late but are answered at once. Timed from
        // their due times, they must carry the stall's wait.
        let stalled = AtomicBool::new(false);
        let q = Query::Knn { pos: paratreet_geometry::Vec3::ZERO, k: 1 };
        let out = open_loop(
            100.0,
            1,
            0.1,
            1.0,
            |k, due| requests(k, due, vec![q]),
            |reqs, tx| {
                if !stalled.swap(true, Relaxed) {
                    std::thread::sleep(Duration::from_millis(60));
                }
                tx.send(answer(reqs)).map_err(|_| ServeError::ShuttingDown)
            },
        );
        assert_eq!(out.latency_ms.len(), 10);
        assert_eq!(out.failed, 0);
        let mut lat = out.latency_ms.clone();
        lat.sort_by(f64::total_cmp);
        // Batch 1 was due 10 ms after batch 0 but left ≥ 60 ms after it:
        // at least 50 ms late, and its latency says so.
        assert!(lat[lat.len() - 2] >= 45.0, "latencies {lat:?}");
        assert!(out.lateness_ms.iter().cloned().fold(0.0, f64::max) >= 45.0);
    }

    #[test]
    fn brute_force_matches_execute_on_a_small_forest() {
        let input = four_clusters(2_000, 3);
        let (m, trees) = TreeMaintainer::<CountData>::seed(&config(3), input, false);
        let particles: Vec<Particle> =
            trees.iter().flat_map(|t| t.particles.iter().copied()).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let mut scratch = QueryScratch::default();
        for q in queries(&mut rng, &m.universe(), 64) {
            assert_eq!(execute(&trees, &q, &mut scratch), brute_force(&particles, &q), "{q:?}");
        }
    }
}
