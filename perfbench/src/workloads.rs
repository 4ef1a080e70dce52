//! The four workloads. Each generates its inputs from the seed before
//! timing starts, sets up (timed, `setup_reps` times), serves for the run
//! length, and checks a sampled share of its answers outside the timed
//! region. A traced run adds the twin, the spans, and the per-layer probes
//! at the end.

use crate::lane::{compare_twin, ms, us, Answer, Checkpoint, Key, Lane, Layered, Tally};
use crate::report::Values;
use crate::scratch::ScratchDir;
use crate::stats::{median, percentile};
use crate::streams::{
    fanouts, hybrid_epochs, insert_batches, query_pairs, EpochShape, ShadowGraph, MAX_WEIGHT,
    STRATA,
};
use crate::trace::Tracer;
use dspc::directed::DynamicDirectedSpc;
use dspc::dynamic::GraphUpdate;
use dspc::shard::ShardedFlatIndex;
use dspc::weighted::DynamicWeightedSpc;
use dspc::{
    spc_query, DynamicSpc, FlatIndex, FlatScratch, KernelCounters, MaintenanceThreads,
    OrderingStrategy,
};
use dspc_graph::generators::random::{
    barabasi_albert, erdos_renyi_gnm, random_orientation, random_weights,
};
use dspc_graph::traversal::bibfs::BiBfsCounter;
use dspc_graph::{UndirectedGraph, VertexId};
use dspc_serve::{EpochServer, ServeConfig, ServingEngine, ServingSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "read-mostly",
    "insert-stream",
    "hybrid-epochs",
    "variants-hybrid",
];

/// Shards every undirected snapshot fans out over.
const SHARDS: usize = 4;

/// How one phase of a run is made.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Serving time after set-up.
    pub seconds: f64,
    /// Record spans, keep the twin, run the per-layer probes.
    pub traced: bool,
    /// Set-ups timed; the last one serves.
    pub setup_reps: usize,
    /// Where journals and traces go (inside the checkout).
    pub out_dir: PathBuf,
}

/// What a phase measured.
#[derive(Debug)]
pub struct Outcome {
    /// Each timed set-up, s.
    pub setup_s: Vec<f64>,
    /// Latencies, throughput and failures.
    pub tally: Tally,
    /// Spans (empty untraced).
    pub tracer: Tracer,
    /// Per-layer values measured outside the spans (traced only).
    pub layers: Values,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Runs workload `name`.
pub fn run(name: &str, cfg: &RunConfig) -> Outcome {
    match name {
        "read-mostly" => read_mostly(cfg),
        "insert-stream" => insert_stream(cfg),
        "hybrid-epochs" => hybrid(cfg),
        "variants-hybrid" => variants(cfg),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The generator of a workload's streams and requests: seeded by `--seed`.
fn rng(cfg: &RunConfig, salt: u64) -> StdRng {
    StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// The generator of a workload's graph and of the edges its stream
/// deletes. Both are fixed datasets, the same for every `--seed`: the cost
/// of one DecSPC repair varies by orders of magnitude from edge to edge,
/// so with seeded deletes the runs of different seeds would differ more
/// than any regression worth catching. The seed draws the inserts, the
/// order within each batch, and every read request.
fn graph_rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(0x0067_7261_7068 ^ salt)
}

/// Times `make` `reps` times, dropping each result before the next set-up
/// starts; returns the last result and every time in s.
fn set_up<T>(reps: usize, mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

fn undirected_engine(g: UndirectedGraph, threads: usize, build_s: &mut Vec<f64>) -> DynamicSpc {
    let t = Instant::now();
    let mut engine = DynamicSpc::build(g, OrderingStrategy::Degree);
    build_s.push(t.elapsed().as_secs_f64());
    engine.set_maintenance_threads(MaintenanceThreads::Fixed(threads));
    engine
}

/// Epochs to generate for a loop that cannot run faster than `min_ms` per
/// epoch.
fn epoch_cap(cfg: &RunConfig, min_ms: f64) -> usize {
    (cfg.seconds * 1e3 / min_ms).ceil() as usize + 8
}

fn deadline(cfg: &RunConfig) -> Instant {
    Instant::now() + Duration::from_secs_f64(cfg.seconds)
}

/// Whether a hybrid loop that has served `epochs` should stop: only past
/// the deadline and on a whole `cycle` of epochs (one doubled epoch, or one
/// delete from every stratum), so every run serves the same mix of cheap
/// and costly epochs and its tail percentiles compare across runs.
fn past(end: Instant, epochs: usize, cycle: usize) -> bool {
    epochs.is_multiple_of(cycle) && Instant::now() >= end
}

/// `hybrid-epochs`: BA(5000, 3), 4 shards, maintenance `Fixed(2)`, no
/// journal; 10 + 1 hybrid epochs with every fifth doubled, each read back
/// with 1024 pairs and 8 fan-outs.
fn hybrid(cfg: &RunConfig) -> Outcome {
    // 1024 pairs a burst: the first few after a rotation read a cold
    // snapshot, and at 256 they alone made up the p99.
    const PAIRS: usize = 1024;
    const FANOUTS: usize = 8;
    let g = barabasi_albert(5000, 3, &mut graph_rng(0x4859));
    let mut rng = rng(cfg, 0x4859);
    let cap = epoch_cap(cfg, 50.0);
    let shape = EpochShape {
        inserts: 10,
        deletes: 1,
        double_every: Some(5),
    };
    let batches = hybrid_epochs(&g, cap, shape, &mut graph_rng(0x4859 + 1), &mut rng);
    let pairs = query_pairs(g.capacity(), PAIRS * cap, &mut rng);
    let fans = fanouts(&g, FANOUTS * cap, &mut rng);

    let mut build_s = Vec::new();
    let config = ServeConfig { shards: SHARDS };
    let (server, setup_s) = set_up(cfg.setup_reps, || {
        let graph = g.clone();
        EpochServer::new(undirected_engine(graph, 2, &mut build_s), config)
    });
    let mut lane = Lane::new(server, g, SHARDS, cfg.traced, 64);
    let mut out = Outcome::new(cfg, setup_s);
    let end = deadline(cfg);
    let mut epochs = 0;
    for (i, batch) in batches.iter().enumerate() {
        if past(end, i, 5) || !lane.write(batch, None, &mut out.tracer, &mut out.tally) {
            break;
        }
        lane.read(
            &pairs[i * PAIRS..(i + 1) * PAIRS],
            &fans[i * FANOUTS..(i + 1) * FANOUTS],
            &mut out.tracer,
            &mut out.tally,
        );
        epochs += 1;
    }
    out.note_exhausted(epochs, batches.len(), end);
    if cfg.traced {
        out.layers.set("build.hpspc_s", median(&build_s));
        probe_undirected(
            lane.server().engine(),
            &mut rng,
            &out.tracer,
            &mut out.layers,
        );
        out.layers
            .set("publish.stale_read_share", stale_share(lane.reader()));
    }
    out
}

/// `insert-stream`: BA(10000, 3), 4 shards, journaled with an fsync per
/// submit; insert batches alternate k = 1 and k = 16, a checkpoint stalls
/// every 100th batch, and each rotation is read back with 32 pairs and one
/// fan-out. After the run: a checkpoint, ten more epochs, two acknowledged
/// but unrotated batches, a simulated crash (drop) and `recover`.
fn insert_stream(cfg: &RunConfig) -> Outcome {
    const PAIRS: usize = 32;
    const AFTER_CHECKPOINT: usize = 10;
    const PENDING: usize = 2;
    let g = barabasi_albert(10_000, 3, &mut graph_rng(0x4953));
    let mut rng = rng(cfg, 0x4953);
    let cap = epoch_cap(cfg, 5.0);
    let sizes = [1, 16]
        .into_iter()
        .cycle()
        .take(cap + AFTER_CHECKPOINT + PENDING);
    let batches = insert_batches(&g, sizes, &mut rng);
    let pairs = query_pairs(g.capacity(), PAIRS * cap, &mut rng);
    let fans = fanouts(&g, cap, &mut rng);

    let mut build_s = Vec::new();
    let config = ServeConfig { shards: SHARDS };
    let ((server, dir), setup_s) = set_up(cfg.setup_reps, || {
        let graph = g.clone();
        let dir = ScratchDir::new_in(&cfg.out_dir, "journal").expect("scratch directory");
        let engine = undirected_engine(graph, 1, &mut build_s);
        let server = EpochServer::with_journal(engine, config, dir.path()).expect("fresh journal");
        (server, dir)
    });
    let mut lane = Lane::new(server, g, SHARDS, cfg.traced, 32);
    let mut out = Outcome::new(cfg, setup_s);
    let end = deadline(cfg);
    let mut epochs = 0;
    while epochs < cap && Instant::now() < end {
        let checkpoint: Option<Checkpoint<DynamicSpc>> = (epochs + 1)
            .is_multiple_of(100)
            .then_some(|s| s.checkpoint());
        if !lane.write(
            &batches[epochs],
            checkpoint,
            &mut out.tracer,
            &mut out.tally,
        ) {
            break;
        }
        lane.read(
            &pairs[epochs * PAIRS..(epochs + 1) * PAIRS],
            &fans[epochs..epochs + 1],
            &mut out.tracer,
            &mut out.tally,
        );
        epochs += 1;
    }
    out.note_exhausted(epochs, cap, end);
    if cfg.traced {
        out.layers.set("build.hpspc_s", median(&build_s));
        probe_undirected(
            lane.server().engine(),
            &mut rng,
            &out.tracer,
            &mut out.layers,
        );
        out.layers
            .set("publish.stale_read_share", stale_share(lane.reader()));
        let stats = lane.server().stats();
        out.layers.set(
            "journal.bytes_per_update",
            stats.journal_bytes as f64 / stats.updates_applied.max(1) as f64,
        );
    }

    // The crash, outside the measured loop: a fixed amount of journal to
    // replay whatever the run length was.
    let mut crash = Tally::default();
    let mut quiet = Tracer::new(false, 0, Instant::now());
    crash.attempted += 1;
    if let Err(e) = lane.server_mut().checkpoint() {
        crash.fail(format!("checkpoint before the crash: {e}"));
    }
    for batch in &batches[epochs..epochs + AFTER_CHECKPOINT] {
        lane.write(batch, None, &mut quiet, &mut crash);
    }
    let pending = &batches[epochs + AFTER_CHECKPOINT..epochs + AFTER_CHECKPOINT + PENDING];
    for batch in pending {
        crash.attempted += 1;
        if let Err(e) = lane.server_mut().submit(batch.iter().copied()) {
            crash.fail(format!("pending submit: {e}"));
        }
    }
    let (server, mut shadow) = lane.into_parts();
    drop(server);
    let t = Instant::now();
    crash.attempted += 1;
    match EpochServer::<DynamicSpc>::recover(dir.path(), config) {
        Ok((mut server, report)) => {
            let recover_s = t.elapsed().as_secs_f64();
            out.notes.push(format!(
                "recover_s {recover_s:.4} s (replayed {} batches, {} pending restored)",
                report.replayed_batches, report.restored_pending_updates
            ));
            if cfg.traced {
                out.layers.set("journal.recover_s", recover_s);
                out.layers
                    .set("journal.replayed_batches", report.replayed_batches as f64);
            }
            for batch in pending {
                shadow.apply_all(batch);
            }
            crash.attempted += 1;
            match server.rotate() {
                Ok(_) => check_server(&server, &shadow, &mut rng, &mut crash),
                Err(e) => crash.fail(format!("rotate after recovery: {e}")),
            }
        }
        Err(e) => crash.fail(format!("recover: {e}")),
    }
    // Only the crash's operations count; its timings are not the run's.
    out.tally.attempted += crash.attempted;
    out.tally.checked += crash.checked;
    out.tally.failed += crash.failed;
    out.tally.first_failure = out.tally.first_failure.take().or(crash.first_failure);
    drop(dir);
    out
}

/// Checks 32 fresh pairs served by `server` against the oracle on `graph`.
fn check_server<E: Layered>(
    server: &EpochServer<E>,
    graph: &E::Graph,
    rng: &mut StdRng,
    tally: &mut Tally,
) where
    <E::Snapshot as ServingSnapshot>::Answer: Answer,
{
    let mut reader = server.reader();
    let mut oracle = graph.oracle();
    for (s, t) in query_pairs(graph.capacity(), 32, rng) {
        tally.attempted += 1;
        let (epoch, got) = reader.query(s, t);
        let truth = graph.truth(&mut oracle, s, t);
        tally.check(
            || format!("recovered epoch {epoch} ({s:?}, {t:?})"),
            truth,
            got.key(),
        );
    }
}

/// `variants-hybrid`: directed G(2000, 6000) with 25% reciprocal arcs and
/// weighted G(2000, 6000) with weights 1..5, each behind its own server
/// with maintenance `Fixed(2)`; 10 + 1 hybrid epochs alternate between the
/// two, each read back with 1024 pairs and 8 fan-outs.
fn variants(cfg: &RunConfig) -> Outcome {
    // 1024 pairs a burst: the first few after a rotation read a cold
    // snapshot, and at 256 they alone made up the p99.
    const PAIRS: usize = 1024;
    const FANOUTS: usize = 8;
    let mut graphs = graph_rng(0x5648);
    let gd = random_orientation(&erdos_renyi_gnm(2000, 6000, &mut graphs), 0.25, &mut graphs);
    let gw = random_weights(
        &erdos_renyi_gnm(2000, 6000, &mut graphs),
        MAX_WEIGHT,
        &mut graphs,
    );
    let mut rng = rng(cfg, 0x5648);
    let cap = epoch_cap(cfg, 50.0);
    let shape = EpochShape {
        inserts: 10,
        deletes: 1,
        double_every: None,
    };
    let bd = hybrid_epochs(&gd, cap, shape, &mut graph_rng(0x5648 + 1), &mut rng);
    let bw = hybrid_epochs(&gw, cap, shape, &mut graph_rng(0x5648 + 2), &mut rng);
    let (pd, pw) = (
        query_pairs(gd.capacity(), PAIRS * cap, &mut rng),
        query_pairs(gw.capacity(), PAIRS * cap, &mut rng),
    );
    let (fd, fw) = (
        fanouts(&gd, FANOUTS * cap, &mut rng),
        fanouts(&gw, FANOUTS * cap, &mut rng),
    );

    let mut build_s = Vec::new();
    let config = ServeConfig { shards: SHARDS };
    let ((sd, sw), setup_s) = set_up(cfg.setup_reps, || {
        let (a, b) = (gd.clone(), gw.clone());
        let t = Instant::now();
        let mut directed = DynamicDirectedSpc::build(a, OrderingStrategy::Degree);
        let mut weighted = DynamicWeightedSpc::build(b, OrderingStrategy::Degree);
        build_s.push(t.elapsed().as_secs_f64());
        directed.set_maintenance_threads(MaintenanceThreads::Fixed(2));
        weighted.set_maintenance_threads(MaintenanceThreads::Fixed(2));
        (
            EpochServer::new(directed, config),
            EpochServer::new(weighted, config),
        )
    });
    let mut directed = Lane::new(sd, gd, SHARDS, cfg.traced, 64);
    let mut weighted = Lane::new(sw, gw, SHARDS, cfg.traced, 64);
    let mut out = Outcome::new(cfg, setup_s);
    let end = deadline(cfg);
    let mut epochs = 0;
    for i in 0..cap {
        if past(end, i, STRATA) {
            break;
        }
        let (p, f) = (i * PAIRS..(i + 1) * PAIRS, i * FANOUTS..(i + 1) * FANOUTS);
        if !directed.write(&bd[i], None, &mut out.tracer, &mut out.tally) {
            break;
        }
        directed.read(
            &pd[p.clone()],
            &fd[f.clone()],
            &mut out.tracer,
            &mut out.tally,
        );
        if !weighted.write(&bw[i], None, &mut out.tracer, &mut out.tally) {
            break;
        }
        weighted.read(&pw[p], &fw[f], &mut out.tracer, &mut out.tally);
        epochs += 1;
    }
    out.note_exhausted(epochs, cap, end);
    if cfg.traced {
        out.layers.set("build.hpspc_s", median(&build_s));
        let (d, w) = (directed.server().engine(), weighted.server().engine());
        let entries = d.index().num_entries() + w.index().num_entries();
        let n = d.graph().capacity() + w.graph().capacity();
        out.layers.set("index.entries", entries as f64);
        out.layers
            .set("index.avg_label_len", entries as f64 / n as f64);
        let flat = dspc::DirectedFlatIndex::freeze(d.index()).column_bytes()
            + dspc::WeightedFlatIndex::freeze(w.index()).column_bytes();
        out.layers.set("index.flat_bytes", flat as f64);
        let stale = directed.reader().stale_epoch_reads() + weighted.reader().stale_epoch_reads();
        let served = directed.reader().queries_served() + weighted.reader().queries_served();
        out.layers.set(
            "publish.stale_read_share",
            stale as f64 / served.max(1) as f64,
        );
    }
    out
}

/// `read-mostly`: BA(10000, 3), 4 shards. The writer runs on its own
/// thread (`EpochServer::spawn`, maintenance `Fixed(1)`) and an open-loop
/// ticker publishes a one-insert rotation every 50 ms; the main thread is a
/// closed-loop reader whose every 64th request is a fan-out and the rest
/// uniform pairs, each refreshing first. Answers are sampled with their
/// epoch stamp and checked after the run against the graph of that epoch,
/// rebuilt from the writer's log.
fn read_mostly(cfg: &RunConfig) -> Outcome {
    const PERIOD: Duration = Duration::from_millis(50);
    const FANOUT_EVERY: u64 = 64;
    const PAIR_CHECK_EVERY: u64 = 8192;
    const FANOUT_CHECK_EVERY: u64 = 128;
    let g = barabasi_albert(10_000, 3, &mut graph_rng(0x524D));
    let mut rng = rng(cfg, 0x524D);
    let cap = (cfg.seconds / PERIOD.as_secs_f64()).ceil() as usize + 8;
    let inserts = insert_batches(&g, std::iter::repeat_n(1, cap), &mut rng);
    let pairs = query_pairs(g.capacity(), 1 << 16, &mut rng);
    let fans = fanouts(&g, 512, &mut rng);

    let mut build_s = Vec::new();
    let config = ServeConfig { shards: SHARDS };
    let (server, setup_s) = set_up(cfg.setup_reps, || {
        let graph = g.clone();
        EpochServer::new(undirected_engine(graph, 1, &mut build_s), config)
    });
    let mut out = Outcome::new(cfg, setup_s);
    let origin = Instant::now();
    let mut reader = server.reader();
    let twin = cfg.traced.then(|| server.engine().twin());
    let handle = server.spawn();
    let stop = &AtomicBool::new(false);
    let inserts = &inserts;
    let end = deadline(cfg);
    // (stamped epoch, s, t, answer) of the sampled requests.
    let mut samples: Vec<(u64, VertexId, VertexId, Option<Key>)> = Vec::new();

    let (writer_tally, writer_tracer, log, lateness_ms, server) = std::thread::scope(|scope| {
        let ticker = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut tracer = Tracer::new(cfg.traced, 1, origin);
            let mut log: Vec<(u64, &[GraphUpdate])> = Vec::new();
            let mut lateness_ms = Vec::new();
            let start = Instant::now();
            for (k, batch) in inserts.iter().enumerate() {
                let due = start + PERIOD * k as u32;
                while !stop.load(Ordering::Acquire) && Instant::now() < due {
                    std::thread::sleep((due - Instant::now()).min(Duration::from_millis(5)));
                }
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let request = tally.request();
                let write = tracer.begin("write", request);
                let t0 = Instant::now();
                lateness_ms.push(ms(t0 - due));
                tally.attempted += 2;
                let submitted =
                    tracer.time("server.submit", request, || handle.submit(batch.clone()));
                let submit = t0.elapsed();
                if let Err(e) = submitted {
                    tracer.end(write);
                    tally.fail(format!("submit: {e}"));
                    break;
                }
                let r0 = Instant::now();
                let rotated = tracer.time("server.rotate", request, || handle.rotate());
                let rotate = r0.elapsed();
                let report = match rotated {
                    Ok(report) => report,
                    Err(e) => {
                        tracer.end(write);
                        tally.fail(format!("rotate: {e}"));
                        break;
                    }
                };
                tally.visible_ms.push(ms(due.elapsed()));
                tally.writer += submit + rotate;
                tally.updates += batch.len() as u64;
                if let Some(applied) = &report.applied {
                    tally.absorb(DynamicSpc::KIND, false, applied);
                }
                log.push((report.epoch, batch.as_slice()));
                tracer.end(write);
            }
            let server = handle.shutdown();
            (tally, tracer, log, lateness_ms, server)
        });

        let mut i = 0u64;
        let (mut next_pair, mut next_fan) = (0usize, 0usize);
        while Instant::now() < end {
            i += 1;
            let request = out.tally.request();
            if i.is_multiple_of(FANOUT_EVERY) {
                let f = &fans[next_fan % fans.len()];
                next_fan += 1;
                let traced = i.is_multiple_of(FANOUT_EVERY * 16);
                let span = traced.then(|| out.tracer.begin("request.fanout", request));
                let t0 = Instant::now();
                if traced {
                    out.tracer
                        .time("publish.refresh", request, || reader.refresh());
                } else {
                    reader.refresh();
                }
                let mut answers = [None; crate::streams::FANOUT];
                for (slot, &t) in answers.iter_mut().zip(&f.targets) {
                    *slot = reader.query(f.source, t).1.key();
                }
                out.tally.fanout_us.push(us(t0.elapsed()));
                if let Some(span) = span {
                    out.tracer.end(span);
                }
                if (next_fan as u64).is_multiple_of(FANOUT_CHECK_EVERY) {
                    let j = next_fan % f.targets.len();
                    samples.push((reader.epoch(), f.source, f.targets[j], answers[j]));
                }
            } else {
                let (s, t) = pairs[next_pair % pairs.len()];
                next_pair += 1;
                let traced = i % 64 == 1;
                let span = traced.then(|| out.tracer.begin("request.pair", request));
                let t0 = Instant::now();
                if traced {
                    out.tracer
                        .time("publish.refresh", request, || reader.refresh());
                } else {
                    reader.refresh();
                }
                let (epoch, answer) = reader.query(s, t);
                out.tally.pair_us.push(us(t0.elapsed()));
                if let Some(span) = span {
                    out.tracer.end(span);
                }
                if (next_pair as u64).is_multiple_of(PAIR_CHECK_EVERY) {
                    samples.push((epoch, s, t, answer.key()));
                }
            }
            out.tally.attempted += 1;
        }
        stop.store(true, Ordering::Release);
        let (tally, tracer, log, lateness, server) = ticker.join().expect("ticker thread panicked");
        (tally, tracer, log, lateness, server)
    });
    out.tally.merge(writer_tally);
    out.tracer.absorb(writer_tracer);
    out.notes.push(format!(
        "writer lateness: p50 {:.3} ms, max {:.3} ms over {} ticks",
        median(&lateness_ms),
        lateness_ms.iter().copied().fold(0.0, f64::max),
        lateness_ms.len()
    ));

    // Check each sample against the graph of its stamped epoch.
    samples.sort_by_key(|s| s.0);
    let mut shadow = g.clone();
    let mut oracle = shadow.oracle();
    let mut applied = log.iter().peekable();
    for (epoch, s, t, got) in samples {
        while let Some((_, batch)) = applied.next_if(|(e, _)| *e <= epoch) {
            shadow.apply_all(batch);
        }
        let truth = shadow.truth(&mut oracle, s, t);
        out.tally
            .check(|| format!("epoch {epoch} ({s:?}, {t:?})"), truth, got);
    }
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            out.tally.fail(format!("writer shutdown: {e}"));
            return out;
        }
    };
    if let Some(mut twin) = twin {
        // A lockstep twin on the ticker would add a third busy thread on
        // two cores and starve the schedule, so the twin replays the
        // writer's log after the run instead: its apply and freeze are
        // uncontended, and no rotate remainder is derived from them.
        // Every batch is applied; one in eight is also frozen, enough
        // samples of the freeze stages at a fraction of the replay time.
        for (i, (_, batch)) in log.iter().enumerate() {
            let request = out.tally.request();
            let replay = out.tracer.begin("twin.replay", request);
            let applied = out.tracer.time("inc.apply", request, || {
                ServingEngine::apply_batch(&mut twin, batch)
            });
            if i.is_multiple_of(8) {
                black_box(twin.freeze_traced(SHARDS, &mut out.tracer, request));
            }
            out.tracer.end(replay);
            if applied.is_err() {
                out.tally
                    .fail("twin rejected a batch the server applied".into());
            }
        }
        let n = g.capacity() as u32;
        compare_twin(
            &mut server.reader(),
            &twin.freeze(SHARDS),
            n,
            &mut out.tally,
        );
        out.layers.set("build.hpspc_s", median(&build_s));
        probe_undirected(server.engine(), &mut rng, &out.tracer, &mut out.layers);
        out.layers
            .set("publish.stale_read_share", stale_share(&reader));
    }
    out
}

fn stale_share<S: ServingSnapshot>(reader: &dspc_serve::Reader<S>) -> f64 {
    reader.stale_epoch_reads() as f64 / reader.queries_served().max(1) as f64
}

/// The per-layer probes of an undirected engine at the end of a traced
/// run: index shape, the query kernels against BiBFS on the same pairs,
/// and `rebuild_same_order` on a copy as the reconstruction baseline.
fn probe_undirected(engine: &DynamicSpc, rng: &mut StdRng, tracer: &Tracer, v: &mut Values) {
    let stats = engine.index_stats();
    v.set("index.entries", stats.entries as f64);
    v.set("index.avg_label_len", stats.avg_label_len);
    v.set("index.wide_bytes", stats.wide_bytes as f64);
    v.set("index.flat_bytes", stats.flat_bytes as f64);

    let pairs = query_pairs(engine.graph().capacity(), 4096, rng);
    let flat = FlatIndex::freeze(engine.index());
    let sharded = ShardedFlatIndex::from_flat(&flat, SHARDS);
    let mut scratch = FlatScratch::new();
    v.set(
        "query.live_us",
        per_query_us(&pairs, |s, t| spc_query(engine.index(), s, t)),
    );
    v.set(
        "flat.query_us",
        per_query_us(&pairs, |s, t| flat.query_with(&mut scratch, s, t)),
    );
    v.set(
        "shard.query_us",
        per_query_us(&pairs, |s, t| sharded.query_with(&mut scratch, s, t)),
    );
    let mut counters = KernelCounters::new();
    for &(s, t) in &pairs {
        black_box(flat.query_counted(&mut scratch, &mut counters, s, t));
    }
    let per = counters.queries.max(1) as f64;
    v.set(
        "flat.merge_steps_per_query",
        counters.merge_steps as f64 / per,
    );
    v.set(
        "flat.common_hubs_per_query",
        counters.common_hubs as f64 / per,
    );
    let mut bibfs = BiBfsCounter::new(engine.graph().capacity());
    v.set(
        "traversal.bibfs_us",
        per_query_us(&pairs[..1024], |s, t| bibfs.count(engine.graph(), s, t)),
    );

    let mut copy = engine.twin();
    let t = Instant::now();
    copy.rebuild_same_order();
    let rebuild_s = t.elapsed().as_secs_f64();
    v.set("build.rebuild_same_order_s", rebuild_s);
    let dec = tracer.durations_ms("dec.apply");
    if !dec.is_empty() {
        v.set("build.maint_over_rebuild", median(&dec) / 1e3 / rebuild_s);
    }
}

/// Median over chunks of 64 queries of the time per query, µs.
fn per_query_us<T>(
    pairs: &[(VertexId, VertexId)],
    mut query: impl FnMut(VertexId, VertexId) -> T,
) -> f64 {
    let chunks: Vec<f64> = pairs
        .chunks(64)
        .map(|chunk| {
            let t = Instant::now();
            for &(s, t) in chunk {
                black_box(query(black_box(s), black_box(t)));
            }
            us(t.elapsed()) / chunk.len() as f64
        })
        .collect();
    median(&chunks)
}

impl Outcome {
    fn new(cfg: &RunConfig, setup_s: Vec<f64>) -> Outcome {
        Outcome {
            setup_s,
            tally: Tally::default(),
            tracer: Tracer::new(cfg.traced, 0, Instant::now()),
            layers: Values::default(),
            notes: Vec::new(),
        }
    }

    fn note_exhausted(&mut self, epochs: usize, generated: usize, end: Instant) {
        self.notes.push(format!("epochs served: {epochs}"));
        if epochs >= generated && Instant::now() < end {
            self.notes.push(format!(
                "stream exhausted after {epochs} epochs, before the run length"
            ));
        }
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Values {
        let t = &self.tally;
        let mut v = Values::default();
        v.set("setup_s", median(&self.setup_s));
        v.set("query_p50_us", median(t.pair_us.samples()));
        v.set("fanout_p50_us", median(t.fanout_us.samples()));
        v.set(
            "update_throughput",
            t.updates as f64 / t.writer.as_secs_f64().max(f64::MIN_POSITIVE),
        );
        v.set("visible_p50_ms", median(&t.visible_ms));
        v.set("visible_p90_ms", percentile(&t.visible_ms, 0.9));
        v.set("peak_rss_mb", crate::stats::peak_rss_mib().unwrap_or(0.0));
        v
    }

    /// The per-layer metrics: span-derived ones plus the probes.
    pub fn per_layer(&self) -> Values {
        let mut v = self.layers.clone();
        let spans = |name: &str, q: f64, scale: f64| {
            let d = self.tracer.durations_ms(name);
            if d.is_empty() {
                0.0
            } else {
                percentile(&d, q) * scale
            }
        };
        v.set("inc.apply_us_p50", spans("inc.apply", 0.5, 1e3));
        v.set("inc.apply_us_p90", spans("inc.apply", 0.9, 1e3));
        v.set("dec.apply_ms_p50", spans("dec.apply", 0.5, 1.0));
        v.set("dec.apply_ms_p90", spans("dec.apply", 0.9, 1.0));
        v.set("directed.apply_ms", spans("directed.apply", 0.5, 1.0));
        v.set("weighted.apply_ms", spans("weighted.apply", 0.5, 1.0));
        v.set("directed.freeze_ms", spans("directed.freeze", 0.5, 1.0));
        v.set("weighted.freeze_ms", spans("weighted.freeze", 0.5, 1.0));
        v.set("flat.freeze_ms", spans("flat.freeze", 0.5, 1.0));
        v.set("shard.split_ms", spans("shard.split", 0.5, 1.0));
        v.set("server.rotate_ms_p50", spans("server.rotate", 0.5, 1.0));
        v.set("server.rotate_ms_p90", spans("server.rotate", 0.9, 1.0));
        v.set("publish.refresh_us", spans("publish.refresh", 0.5, 1e3));
        v.set("journal.submit_us_p50", spans("server.submit", 0.5, 1e3));
        v.set("journal.submit_us_p90", spans("server.submit", 0.9, 1e3));
        v.set(
            "journal.checkpoint_ms",
            spans("journal.checkpoint", 0.5, 1.0),
        );
        if !self.tally.rotate_other_ms.is_empty() {
            v.set(
                "server.rotate_other_ms",
                median(&self.tally.rotate_other_ms),
            );
        }

        let t = &self.tally;
        v.set("inc.renew_count", t.inc.per_batch(|c| c.renew_count));
        v.set("inc.renew_dist", t.inc.per_batch(|c| c.renew_dist));
        v.set("inc.inserted", t.inc.per_batch(|c| c.inserted));
        v.set(
            "inc.vertices_visited",
            t.inc.per_batch(|c| c.vertices_visited),
        );
        v.set(
            "dec.classify_sweeps",
            t.dec.per_batch(|c| c.classify_sweeps),
        );
        v.set(
            "dec.multi_far_sweeps",
            t.dec.per_batch(|c| c.multi_far_sweeps),
        );
        v.set("dec.agenda_hubs", t.dec.per_batch(|c| c.agenda_hubs));
        v.set("dec.hubs_processed", t.dec.per_batch(|c| c.hubs_processed));
        v.set("dec.total_sweeps", t.dec.per_batch(|c| c.total_sweeps()));
        v.set(
            "dec.vertices_visited",
            t.dec.per_batch(|c| c.vertices_visited),
        );
        v.set("dec.removed", t.dec.per_batch(|c| c.removed));
        let sweeps = t.dec.sum.total_sweeps();
        if sweeps > 0 {
            v.set(
                "dec.ops_per_sweep",
                t.dec.sum.total_ops() as f64 / sweeps as f64,
            );
        }
        let mut parallel = t.dec;
        for other in [t.directed, t.weighted] {
            parallel.batches += other.batches;
            parallel.sum.absorb(&other.sum);
        }
        v.set("engine.waves", parallel.per_batch(|c| c.waves));
        v.set("engine.max_wave_width", parallel.sum.max_wave_width as f64);
        v.set(
            "engine.steal_events",
            parallel.per_batch(|c| c.steal_events),
        );
        v.set(
            "directed.total_sweeps",
            t.directed.per_batch(|c| c.total_sweeps()),
        );
        v.set(
            "weighted.total_sweeps",
            t.weighted.per_batch(|c| c.total_sweeps()),
        );

        if let Some(&(_, total, own)) = self.tracer.self_times().get("write") {
            v.set(
                "trace.writer_coverage",
                1.0 - own as f64 / total.max(1) as f64,
            );
        }
        v
    }
}
