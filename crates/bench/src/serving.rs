//! Deterministic serving-layer replay: a scripted mixed read/write epoch
//! loop over [`dspc_serve::EpochServer`].
//!
//! The replay is single-threaded on purpose. The correctness of the
//! serving layer under *real* thread interleavings is proven by the
//! workspace-level `tests/serving_epochs.rs` harness; this driver instead
//! scripts the reader refresh cadence so every counter — rotations,
//! queries served, stale-epoch reads, per-shard merge steps, rows copied
//! by publication — is a pure function of the seed and can gate CI like
//! the maintenance counters do.
//!
//! Each epoch: the writer drains a seeded [`hybrid_stream`] slice through
//! one coalesced rotation, then every reader answers a seeded query batch
//! from whatever snapshot it is pinned at. Reader `i` refreshes only every
//! `i + 1` rotations, so the fleet deterministically spans fresh and
//! kept-stale epochs (the paper's between-epoch stale-label serving, made
//! observable). Reader 0 is always fresh and is cross-checked on every
//! answer: against the live engine, and — answer and per-shard counters —
//! against the two-row merge on its snapshot.
//!
//! Readers answer through a pinned source row, which uniform pairs reuse
//! only about once per `vertices` lookups. So each epoch also runs one
//! fan-out — one source against 64 targets, drawn from a generator of its
//! own — on a separate fresh reader, cross-checked the same way: the path
//! a kept pin takes is counted and checked too.
//!
//! [`hybrid_stream`]: crate::workload::hybrid_stream

use crate::workload::hybrid_stream;
use dspc::{DynamicSpc, FlatScratch, KernelCounters, MaintenanceThreads, OrderingStrategy};
use dspc_graph::generators::random::barabasi_albert;
use dspc_graph::VertexId;
use dspc_serve::{EpochServer, Reader, ServeConfig, ServingEngine, ServingSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scripted replay knobs. Everything downstream of `seed` is
/// deterministic.
#[derive(Clone, Copy, Debug)]
pub struct ServingReplayConfig {
    /// Vertices in the scale-free base graph.
    pub vertices: u32,
    /// Barabási–Albert attachment degree.
    pub attach: usize,
    /// Rotations to drive.
    pub epochs: usize,
    /// Insertions per epoch batch.
    pub ins_per_epoch: usize,
    /// Deletions per epoch batch.
    pub del_per_epoch: usize,
    /// Reader handles in the fleet (reader `i` refreshes every `i + 1`
    /// rotations).
    pub readers: usize,
    /// Queries each reader answers per epoch.
    pub queries_per_reader: usize,
    /// Shards each published snapshot fans out over.
    pub shards: usize,
    /// Master seed.
    pub seed: u64,
    /// The engine's maintenance thread budget.
    pub threads: MaintenanceThreads,
}

impl ServingReplayConfig {
    /// The CI smoke scale: small enough for the perf lane, large enough
    /// that every shard owns work and stale reads actually occur.
    pub fn smoke() -> Self {
        ServingReplayConfig {
            vertices: 300,
            attach: 3,
            epochs: 8,
            ins_per_epoch: 6,
            del_per_epoch: 4,
            readers: 4,
            queries_per_reader: 64,
            shards: 4,
            seed: 0x5E12E,
            threads: MaintenanceThreads::Fixed(2),
        }
    }
}

/// Deterministic counters out of one replay.
#[derive(Clone, Debug)]
pub struct ServingReplayReport {
    /// Epochs published past epoch 0.
    pub rotations: u64,
    /// Updates drained into epoch batches.
    pub updates_applied: u64,
    /// Queries answered across the reader fleet.
    pub queries_served: u64,
    /// Queries answered while a newer epoch was already visible.
    pub stale_epoch_reads: u64,
    /// Kernel work per snapshot shard, summed across the fleet (index =
    /// shard id; attribution follows the source vertex's shard).
    pub shard_merge_steps: Vec<u64>,
    /// Label rows the rotations copied into their snapshots (the rest
    /// were shared with the previous epoch), summed over rotations.
    pub rows_copied: u64,
    /// Kernel merge steps of the per-epoch fan-outs (not in
    /// `shard_merge_steps`).
    pub fanout_merge_steps: u64,
}

impl ServingReplayReport {
    /// Total kernel merge steps across all shards.
    pub fn merge_steps(&self) -> u64 {
        self.shard_merge_steps.iter().sum()
    }
}

/// Seed offset of the fan-out generator, so the fan-outs leave the main
/// stream (and every counter drawn from it) untouched.
const FANOUT_STREAM: u64 = 0xFA40;

/// Targets of the one fan-out per epoch: the serving `fanout` request's
/// shape, one source against 64 targets.
const FANOUT_TARGETS: usize = 64;

/// `reader.query(s, t)` for a fresh reader, checked against the live
/// engine, and — answer and per-shard counter growth — against the
/// two-row merge on the reader's snapshot. Returns the answer's epoch.
fn checked_query<E: ServingEngine>(
    reader: &mut Reader<E::Snapshot>,
    server: &EpochServer<E>,
    s: VertexId,
    t: VertexId,
) -> u64 {
    let mut merged = vec![KernelCounters::new(); reader.shard_counters().len()];
    let expected =
        reader
            .snapshot()
            .index()
            .query_counted(&mut FlatScratch::new(), &mut merged, s, t);
    let before = reader.shard_counters().to_vec();
    let (stamp, answer) = reader.query(s, t);
    assert_eq!(
        answer,
        server.engine().query_live(s, t),
        "snapshot/live divergence at {s:?}->{t:?}"
    );
    assert_eq!(answer, expected, "pinned/merge divergence at {s:?}->{t:?}");
    for ((now, was), merge) in reader.shard_counters().iter().zip(&before).zip(&merged) {
        assert_eq!(
            (
                now.queries - was.queries,
                now.merge_steps - was.merge_steps,
                now.common_hubs - was.common_hubs,
            ),
            (merge.queries, merge.merge_steps, merge.common_hubs),
            "pinned/merge counters at {s:?}->{t:?}"
        );
    }
    stamp
}

/// Runs the scripted replay and returns its deterministic counters.
///
/// Panics if any fresh reader's answer diverges from the live engine, or
/// its answer or counters from the merge — the replay doubles as an
/// end-to-end agreement check between the serving snapshots and the label
/// sets they froze from.
pub fn replay(config: ServingReplayConfig) -> ServingReplayReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut fanout_rng = StdRng::seed_from_u64(config.seed ^ FANOUT_STREAM);
    let g = barabasi_albert(config.vertices as usize, config.attach, &mut rng);
    let mut engine = DynamicSpc::build(g, OrderingStrategy::Degree);
    engine.set_maintenance_threads(config.threads);
    let mut server = EpochServer::new(
        engine,
        ServeConfig {
            shards: config.shards,
        },
    );
    let mut readers: Vec<Reader<_>> = (0..config.readers).map(|_| server.reader()).collect();
    let mut fanout = server.reader();
    let mut rows_copied = 0u64;

    for epoch in 0..config.epochs {
        // Write side: sample this epoch's stream against the live graph
        // (pools are fresh non-edges / existing edges, so the coalesced
        // batch is valid by construction), rotate once.
        let stream = hybrid_stream(
            server.engine().graph(),
            config.ins_per_epoch,
            config.del_per_epoch,
            &mut rng,
        );
        server
            .submit(stream)
            .expect("unjournaled submit cannot fail");
        let report = server.rotate().expect("scripted epoch batch is valid");
        rows_copied += report.rows_copied as u64;

        // Read side: scripted refresh cadence, then a seeded query batch
        // per reader from whatever epoch it is pinned at.
        for (i, reader) in readers.iter_mut().enumerate() {
            if (epoch + 1) % (i + 1) == 0 {
                reader.refresh();
            }
            for _ in 0..config.queries_per_reader {
                let s = VertexId(rng.gen_range(0..config.vertices));
                let t = VertexId(rng.gen_range(0..config.vertices));
                if i == 0 {
                    // Reader 0 refreshes every rotation: its answers must
                    // match the live engine and the merge bit-for-bit.
                    let stamp = checked_query(reader, &server, s, t);
                    assert_eq!(stamp, server.epoch(), "reader 0 is always fresh");
                } else {
                    reader.query(s, t);
                }
            }
        }

        // One fan-out on its own fresh reader: the source stays pinned
        // for every target after the first.
        fanout.refresh();
        let s = VertexId(fanout_rng.gen_range(0..config.vertices));
        for _ in 0..FANOUT_TARGETS {
            let t = VertexId(fanout_rng.gen_range(0..config.vertices));
            checked_query(&mut fanout, &server, s, t);
        }
    }

    let mut shard_merge_steps = vec![0u64; readers[0].snapshot().index().shard_count()];
    let mut queries_served = 0;
    let mut stale_epoch_reads = 0;
    for reader in &readers {
        queries_served += reader.queries_served();
        stale_epoch_reads += reader.stale_epoch_reads();
        for (shard, c) in reader.shard_counters().iter().enumerate() {
            shard_merge_steps[shard] += c.merge_steps;
        }
    }
    ServingReplayReport {
        rotations: server.stats().rotations,
        updates_applied: server.stats().updates_applied,
        queries_served,
        stale_epoch_reads,
        shard_merge_steps,
        rows_copied,
        fanout_merge_steps: fanout.shard_counters().iter().map(|c| c.merge_steps).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic() {
        let a = replay(ServingReplayConfig::smoke());
        let b = replay(ServingReplayConfig::smoke());
        assert_eq!(a.rotations, b.rotations);
        assert_eq!(a.updates_applied, b.updates_applied);
        assert_eq!(a.queries_served, b.queries_served);
        assert_eq!(a.stale_epoch_reads, b.stale_epoch_reads);
        assert_eq!(a.shard_merge_steps, b.shard_merge_steps);
        assert_eq!(a.rows_copied, b.rows_copied);
        assert_eq!(a.fanout_merge_steps, b.fanout_merge_steps);
    }

    #[test]
    fn replay_exercises_staleness_and_all_shards() {
        let report = replay(ServingReplayConfig::smoke());
        let cfg = ServingReplayConfig::smoke();
        assert_eq!(report.rotations, cfg.epochs as u64);
        assert_eq!(
            report.queries_served,
            (cfg.epochs * cfg.readers * cfg.queries_per_reader) as u64
        );
        assert!(
            report.stale_epoch_reads > 0,
            "cadence must create staleness"
        );
        assert_eq!(report.shard_merge_steps.len(), cfg.shards);
        assert!(
            report.shard_merge_steps.iter().all(|&s| s > 0),
            "every shard should see kernel work"
        );
        assert!(report.fanout_merge_steps > 0, "fan-outs see kernel work");
        // Rotations share the rows their batch left unchanged: each copies
        // fewer rows than the index holds.
        let per_rotation = report.rows_copied / report.rotations;
        assert!(
            report.rows_copied > 0 && per_rotation < u64::from(cfg.vertices),
            "{per_rotation} rows copied per rotation"
        );
    }
}
