//! The serving loop shared by the synchronous workloads, and the tally
//! every workload fills.
//!
//! A [`Lane`] is one `EpochServer` driven on the calling thread: per epoch
//! it submits a batch, optionally checkpoints, rotates, then serves a read
//! burst through its `Reader`. In a traced run a twin engine receives the
//! same batch through `ServingEngine::apply_batch` and is frozen stage by
//! stage, which splits the opaque `rotate` into apply, freeze and the rest
//! (publish plus the epoch-marker fsync); its answers must agree with the
//! server's.

use crate::stats::Reservoir;
use crate::streams::{Fanout, ShadowGraph};
use crate::trace::Tracer;
use dspc::directed::DynamicDirectedSpc;
use dspc::shard::ShardedFlatIndex;
use dspc::weighted::{DynamicWeightedSpc, WQueryResult};
use dspc::{
    DirectedFlatIndex, DynamicSpc, FlatIndex, FlatScratch, KernelCounters, MaintenanceCounters,
    OrderingStrategy, QueryResult, UpdateStats, WeightedFlatIndex,
};
use dspc_graph::{DirectedGraph, UndirectedGraph, VertexId, WeightedGraph};
use dspc_serve::{EpochServer, Reader, ServingEngine, ServingSnapshot};
use std::time::{Duration, Instant};

/// An answer as `(distance, count)`; `None` means unreachable.
pub type Key = (u64, u64);

/// A served answer in comparable form.
pub trait Answer: Copy {
    /// The answer as a [`Key`].
    fn key(self) -> Option<Key>;
}

impl Answer for QueryResult {
    fn key(self) -> Option<(u64, u64)> {
        self.as_option().map(|(d, c)| (u64::from(d), c))
    }
}

impl Answer for WQueryResult {
    fn key(self) -> Option<(u64, u64)> {
        self.as_option()
    }
}

/// Which counter family a variant's batches feed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `DynamicSpc`: insert-only batches feed `inc`, the rest `dec`.
    Undirected,
    /// `DynamicDirectedSpc`.
    Directed,
    /// `DynamicWeightedSpc`.
    Weighted,
}

/// What the benchmark needs of an engine beyond [`ServingEngine`]: a twin
/// to split rotations with, and a freeze broken into its stages.
pub trait Layered: ServingEngine
where
    <Self::Snapshot as ServingSnapshot>::Answer: Answer,
{
    /// The benchmark's shadow of the engine's graph.
    type Graph: ShadowGraph<Update = Self::Update>;
    /// The counter family.
    const KIND: Kind;

    /// An engine answering exactly like `self`, for the traced twin.
    fn twin(&self) -> Self;

    /// [`ServingEngine::freeze`], one span per stage.
    fn freeze_traced(&self, shards: usize, tracer: &mut Tracer, request: u64) -> Self::Snapshot;

    /// The span name of a twin `apply_batch`.
    fn apply_span(has_delete: bool) -> &'static str {
        match (Self::KIND, has_delete) {
            (Kind::Undirected, false) => "inc.apply",
            (Kind::Undirected, true) => "dec.apply",
            (Kind::Directed, _) => "directed.apply",
            (Kind::Weighted, _) => "weighted.apply",
        }
    }
}

impl Layered for DynamicSpc {
    type Graph = UndirectedGraph;
    const KIND: Kind = Kind::Undirected;

    fn twin(&self) -> Self {
        let mut twin =
            DynamicSpc::from_parts(self.graph().clone(), self.index().clone(), self.strategy());
        twin.set_maintenance_threads(self.maintenance_threads());
        twin
    }

    fn freeze_traced(&self, shards: usize, tracer: &mut Tracer, request: u64) -> ShardedFlatIndex {
        let flat = tracer.time("flat.freeze", request, || FlatIndex::freeze(self.index()));
        tracer.time("shard.split", request, || {
            ShardedFlatIndex::from_flat(&flat, shards)
        })
    }
}

impl Layered for DynamicDirectedSpc {
    type Graph = DirectedGraph;
    const KIND: Kind = Kind::Directed;

    fn twin(&self) -> Self {
        let mut twin = DynamicDirectedSpc::build(self.graph().clone(), OrderingStrategy::Degree);
        twin.set_maintenance_threads(self.maintenance_threads());
        twin
    }

    fn freeze_traced(&self, _: usize, tracer: &mut Tracer, request: u64) -> DirectedFlatIndex {
        tracer.time("directed.freeze", request, || {
            DirectedFlatIndex::freeze(self.index())
        })
    }
}

impl Layered for DynamicWeightedSpc {
    type Graph = WeightedGraph;
    const KIND: Kind = Kind::Weighted;

    fn twin(&self) -> Self {
        let mut twin = DynamicWeightedSpc::build(self.graph().clone(), OrderingStrategy::Degree);
        twin.set_maintenance_threads(self.maintenance_threads());
        twin
    }

    fn freeze_traced(&self, _: usize, tracer: &mut Tracer, request: u64) -> WeightedFlatIndex {
        tracer.time("weighted.freeze", request, || {
            WeightedFlatIndex::freeze(self.index())
        })
    }
}

/// Maintenance counters summed over the batches of one kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Batches absorbed.
    pub batches: u64,
    /// Summed counters (`max_wave_width` keeps the maximum).
    pub sum: MaintenanceCounters,
}

impl Counters {
    /// Mean per batch of one counter; 0 before any batch.
    pub fn per_batch(&self, f: impl Fn(&MaintenanceCounters) -> usize) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            f(&self.sum) as f64 / self.batches as f64
        }
    }
}

/// Everything a workload measures, outside the trace.
#[derive(Debug, Default)]
pub struct Tally {
    /// `pair` request latencies, µs (refresh + one query).
    pub pair_us: Reservoir,
    /// `fanout` request latencies, µs (refresh + 64 queries).
    pub fanout_us: Reservoir,
    /// Per batch: submit called (or due, in an open loop) to published, ms.
    pub visible_ms: Vec<f64>,
    /// Writer time in submit + rotate.
    pub writer: Duration,
    /// Updates published.
    pub updates: u64,
    /// Operations attempted: requests, submits, rotations, checkpoints,
    /// recoveries.
    pub attempted: u64,
    /// Failed operations: oracle or twin mismatches, rejected submits,
    /// failed rotations, checkpoints and recoveries.
    pub failed: u64,
    /// Served answers compared with an oracle or the twin.
    pub checked: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Counters of insert-only undirected batches.
    pub inc: Counters,
    /// Counters of undirected batches with deletions.
    pub dec: Counters,
    /// Counters of directed batches.
    pub directed: Counters,
    /// Counters of weighted batches.
    pub weighted: Counters,
    /// Traced runs: rotate minus the twin's apply and freeze, ms.
    pub rotate_other_ms: Vec<f64>,
    /// Request ids handed out so far.
    pub requests: u64,
}

impl Tally {
    /// Books a failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Compares a served answer with the truth.
    pub fn check(
        &mut self,
        what: impl FnOnce() -> String,
        truth: Option<(u64, u64)>,
        got: Option<(u64, u64)>,
    ) {
        self.checked += 1;
        if truth != got {
            let what = what();
            self.fail(format!("{what}: served {got:?}, expected {truth:?}"));
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Adds one applied batch's counters to its family.
    pub fn absorb(&mut self, kind: Kind, has_delete: bool, stats: &UpdateStats) {
        let slot = match (kind, has_delete) {
            (Kind::Undirected, false) => &mut self.inc,
            (Kind::Undirected, true) => &mut self.dec,
            (Kind::Directed, _) => &mut self.directed,
            (Kind::Weighted, _) => &mut self.weighted,
        };
        slot.batches += 1;
        slot.sum.absorb(&stats.counters);
    }

    /// Merges another tally (a second lane or thread) into this one.
    pub fn merge(&mut self, other: Tally) {
        for (mine, theirs) in [
            (&mut self.pair_us, other.pair_us),
            (&mut self.fanout_us, other.fanout_us),
        ] {
            theirs.samples().iter().for_each(|&x| mine.push(x));
        }
        self.visible_ms.extend(other.visible_ms);
        self.writer += other.writer;
        self.updates += other.updates;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        for (mine, theirs) in [
            (&mut self.inc, other.inc),
            (&mut self.dec, other.dec),
            (&mut self.directed, other.directed),
            (&mut self.weighted, other.weighted),
        ] {
            mine.batches += theirs.batches;
            mine.sum.absorb(&theirs.sum);
        }
        self.rotate_other_ms.extend(other.rotate_other_ms);
    }
}

/// Duration in ms.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Duration in µs.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Whether a batch deletes anything.
pub fn has_delete<G: ShadowGraph>(batch: &[G::Update]) -> bool {
    batch.iter().any(|u| G::is_delete(u))
}

/// A checkpoint to run between submit and rotate.
pub type Checkpoint<E> = fn(&mut EpochServer<E>) -> Result<u64, dspc_serve::JournalError>;

/// One synchronously driven server, its reader, and the benchmark's shadow
/// of its graph.
pub struct Lane<E: Layered>
where
    <E::Snapshot as ServingSnapshot>::Answer: Answer,
{
    server: EpochServer<E>,
    reader: Reader<E::Snapshot>,
    shadow: E::Graph,
    oracle: <E::Graph as ShadowGraph>::Oracle,
    twin: Option<E>,
    shards: usize,
    /// Check every this-many-th pair answer against the oracle.
    check_stride: usize,
}

impl<E: Layered> Lane<E>
where
    <E::Snapshot as ServingSnapshot>::Answer: Answer,
{
    /// Wraps a freshly set-up `server` whose graph is `graph`; a traced
    /// lane also keeps a twin.
    pub fn new(
        server: EpochServer<E>,
        graph: E::Graph,
        shards: usize,
        traced: bool,
        check_stride: usize,
    ) -> Self {
        let reader = server.reader();
        let twin = traced.then(|| server.engine().twin());
        Lane {
            oracle: graph.oracle(),
            reader,
            shadow: graph,
            twin,
            server,
            shards,
            check_stride,
        }
    }

    /// The server.
    pub fn server(&self) -> &EpochServer<E> {
        &self.server
    }

    /// The server, mutably (checkpoints and the final crash).
    pub fn server_mut(&mut self) -> &mut EpochServer<E> {
        &mut self.server
    }

    /// The reader.
    pub fn reader(&self) -> &Reader<E::Snapshot> {
        &self.reader
    }

    /// Consumes the lane, returning the server and the shadow graph.
    pub fn into_parts(self) -> (EpochServer<E>, E::Graph) {
        (self.server, self.shadow)
    }

    /// One epoch: submit `batch`, run `checkpoint` if given, rotate, and —
    /// traced — replay the batch on the twin. Returns whether the batch was
    /// published.
    pub fn write(
        &mut self,
        batch: &[E::Update],
        checkpoint: Option<Checkpoint<E>>,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> bool {
        let request = tally.request();
        let write = tracer.begin("write", request);
        let t0 = Instant::now();
        let submitted = tracer.time("server.submit", request, || {
            self.server.submit(batch.iter().cloned())
        });
        let submit = t0.elapsed();
        tally.attempted += 1;
        if let Err(e) = submitted {
            tracer.end(write);
            tally.fail(format!("submit: {}", e.error));
            return false;
        }
        if let Some(checkpoint) = checkpoint {
            tally.attempted += 1;
            if let Err(e) = tracer.time("journal.checkpoint", request, || {
                checkpoint(&mut self.server)
            }) {
                tally.fail(format!("checkpoint: {e}"));
            }
        }
        let r0 = Instant::now();
        let rotated = tracer.time("server.rotate", request, || self.server.rotate());
        let rotate = r0.elapsed();
        tally.attempted += 1;
        let report = match rotated {
            Ok(report) => report,
            Err(e) => {
                tracer.end(write);
                tally.fail(format!("rotate: {}", e.kind));
                return false;
            }
        };
        tally.visible_ms.push(ms(t0.elapsed()));
        tally.writer += submit + rotate;
        tally.updates += batch.len() as u64;
        let deletes = has_delete::<E::Graph>(batch);
        if let Some(applied) = &report.applied {
            tally.absorb(E::KIND, deletes, applied);
        }
        let twin_snapshot = self.twin.as_mut().map(|twin| {
            let t = Instant::now();
            let applied = tracer.time(E::apply_span(deletes), request, || twin.apply_batch(batch));
            let snapshot = twin.freeze_traced(self.shards, tracer, request);
            tally.rotate_other_ms.push(ms(rotate) - ms(t.elapsed()));
            (applied.is_ok(), snapshot)
        });
        tracer.end(write);
        self.shadow.apply_all(batch);
        if let Some((applied, snapshot)) = twin_snapshot {
            if !applied {
                tally.fail("twin rejected a batch the server applied".into());
            }
            let n = self.shadow.capacity() as u32;
            compare_twin(&mut self.reader, &snapshot, n, tally);
        }
        true
    }

    /// A read burst: `pairs` then `fanouts`, each request refreshing the
    /// reader first; a sampled share is checked against the oracle on the
    /// shadow graph after the burst.
    pub fn read(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        fanouts: &[Fanout],
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        let mut samples = Vec::new();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let request = tally.request();
            let span = tracer.begin("request.pair", request);
            let t0 = Instant::now();
            tracer.time("publish.refresh", request, || self.reader.refresh());
            let (epoch, answer) = self.reader.query(s, t);
            let dt = t0.elapsed();
            tracer.end(span);
            tally.pair_us.push(us(dt));
            tally.attempted += 1;
            if i % self.check_stride == 0 {
                samples.push((epoch, s, t, answer.key()));
            }
        }
        for (i, f) in fanouts.iter().enumerate() {
            let request = tally.request();
            let span = tracer.begin("request.fanout", request);
            let t0 = Instant::now();
            tracer.time("publish.refresh", request, || self.reader.refresh());
            let mut answers = [None; crate::streams::FANOUT];
            for (slot, &t) in answers.iter_mut().zip(&f.targets) {
                *slot = self.reader.query(f.source, t).1.key();
            }
            let dt = t0.elapsed();
            tracer.end(span);
            tally.fanout_us.push(us(dt));
            tally.attempted += 1;
            let j = i % f.targets.len();
            samples.push((self.reader.epoch(), f.source, f.targets[j], answers[j]));
        }
        let epoch = self.server.epoch();
        for (stamped, s, t, got) in samples {
            if stamped != epoch {
                tally.fail(format!(
                    "read stamped epoch {stamped} after a refresh to {epoch}"
                ));
                continue;
            }
            let truth = self.shadow.truth(&mut self.oracle, s, t);
            tally.check(|| format!("epoch {epoch} ({s:?}, {t:?})"), truth, got);
        }
    }
}

/// Refreshes `reader` and checks eight fixed pairs it serves against the
/// twin's snapshot of the same epoch: they must agree exactly.
pub fn compare_twin<S: ServingSnapshot>(reader: &mut Reader<S>, twin: &S, n: u32, tally: &mut Tally)
where
    S::Answer: Answer,
{
    reader.refresh();
    let mut scratch = FlatScratch::new();
    let mut counters = vec![KernelCounters::new(); twin.shard_count()];
    for i in 0..8u32 {
        let (s, t) = (VertexId(i * 7919 % n), VertexId((i * 104_729 + 13) % n));
        let (_, served) = reader.query(s, t);
        let expected = twin.query_counted(&mut scratch, &mut counters, s, t);
        tally.check(
            || format!("twin ({s:?}, {t:?})"),
            expected.key(),
            served.key(),
        );
    }
}
