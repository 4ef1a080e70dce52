//! Deterministic crash-recovery replay: a scripted journaled run that is
//! killed mid-stream and recovered, with the recovered server checked
//! bit-for-bit against a never-crashed twin driving the same batches.
//!
//! Like [`crate::serving`], this replay exists for the CI perf lane: every
//! counter it reports — batches replayed, journal bytes, updates applied —
//! is a pure function of the seed, so the lane can gate the journal's
//! write amplification (`journal_bytes_per_update`) and the recovery
//! path's coverage (`recover_replayed_batches`) without wall-clock
//! flakiness. The replay doubles as an end-to-end recovery-equivalence
//! check: any divergence between the recovered server and its
//! never-crashed twin (answers, epoch clock, maintenance counters) panics
//! the lane.
//!
//! Script shape: `epochs` scripted rotations with a checkpoint dropped in
//! the middle, one final batch submitted but *not* rotated, then a
//! simulated kill (the server is dropped; acknowledged appends are already
//! fsynced). Recovery must boot from the checkpoint, replay only the
//! post-checkpoint epochs, restore the un-rotated batch as pending, and
//! continue rotating in lockstep with the twin.

use crate::workload::hybrid_stream;
use dspc::dynamic::GraphUpdate;
use dspc::{DynamicSpc, MaintenanceThreads, OrderingStrategy};
use dspc_graph::generators::random::barabasi_albert;
use dspc_graph::scratch::ScratchDir;
use dspc_graph::VertexId;
use dspc_serve::{EpochServer, ServeConfig, ServingEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scripted recovery-replay knobs. Everything downstream of `seed` is
/// deterministic.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReplayConfig {
    /// Vertices in the scale-free base graph.
    pub vertices: u32,
    /// Barabási–Albert attachment degree.
    pub attach: usize,
    /// Rotations to drive before the simulated kill.
    pub epochs: usize,
    /// Insertions per epoch batch.
    pub ins_per_epoch: usize,
    /// Deletions per epoch batch.
    pub del_per_epoch: usize,
    /// Checkpoint after this many rotations (must be < `epochs`).
    pub checkpoint_after: usize,
    /// Shards each published snapshot fans out over.
    pub shards: usize,
    /// Master seed.
    pub seed: u64,
}

impl RecoveryReplayConfig {
    /// The CI smoke scale: a checkpoint mid-stream, several epochs to
    /// replay on either side of it, and a pending batch to restore.
    pub fn smoke() -> Self {
        RecoveryReplayConfig {
            vertices: 260,
            attach: 3,
            epochs: 6,
            ins_per_epoch: 5,
            del_per_epoch: 3,
            checkpoint_after: 3,
            shards: 2,
            seed: 0x2EC0F,
        }
    }
}

/// Deterministic counters out of one crash/recover cycle.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReplayReport {
    /// Rotations on the recovered server after replay (== the crashed
    /// server's rotation count).
    pub rotations: u64,
    /// Updates applied across the recovered server's lifetime.
    pub updates_applied: u64,
    /// Journaled batches recovery re-applied or restored.
    pub replayed_batches: u64,
    /// Committed epoch groups re-rotated during replay.
    pub replayed_rotations: u64,
    /// Updates restored to the pending buffer.
    pub restored_pending_updates: u64,
    /// Total bytes the crashed run appended to its journals.
    pub journal_bytes: u64,
}

impl RecoveryReplayReport {
    /// Journal write amplification: bytes appended per update accepted.
    pub fn journal_bytes_per_update(&self) -> u64 {
        self.journal_bytes / self.updates_applied.max(1)
    }
}

fn engine(config: &RecoveryReplayConfig) -> DynamicSpc {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let g = barabasi_albert(config.vertices as usize, config.attach, &mut rng);
    let mut engine = DynamicSpc::build(g, OrderingStrategy::Degree);
    engine.set_maintenance_threads(MaintenanceThreads::Fixed(2));
    engine
}

/// The scripted batches, generated once against an evolving shadow graph
/// so the crashed run and its never-crashed twin drive identical streams.
fn scripted_batches(config: &RecoveryReplayConfig) -> Vec<Vec<GraphUpdate>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut shadow = barabasi_albert(config.vertices as usize, config.attach, &mut rng);
    // One extra batch beyond `epochs`: submitted but never rotated, so
    // recovery must restore it as pending.
    (0..=config.epochs)
        .map(|_| {
            let batch = hybrid_stream(
                &shadow,
                config.ins_per_epoch,
                config.del_per_epoch,
                &mut rng,
            );
            for update in &batch {
                match *update {
                    GraphUpdate::InsertEdge(a, b) => shadow.insert_edge(a, b).unwrap(),
                    GraphUpdate::DeleteEdge(a, b) => shadow.delete_edge(a, b).unwrap(),
                    _ => unreachable!("hybrid streams only touch edges"),
                }
            }
            batch
        })
        .collect()
}

/// Runs the scripted crash/recover cycle and returns its deterministic
/// counters. Panics on any recovery-equivalence violation.
pub fn replay(config: RecoveryReplayConfig) -> RecoveryReplayReport {
    assert!(config.checkpoint_after < config.epochs);
    let batches = scripted_batches(&config);
    let serve = ServeConfig {
        shards: config.shards,
    };
    // Unique per call: concurrent replays (parallel tests) must never
    // share, and so delete, each other's journal.
    let scratch = ScratchDir::new(&format!("dspc_bench_recovery_{:x}", config.seed))
        .expect("create journal scratch dir");
    let dir = scratch.path();

    // The run that dies: journaled, checkpointed mid-stream, killed with
    // one acknowledged batch still pending.
    let mut crashed =
        EpochServer::with_journal(engine(&config), serve, dir).expect("fresh journal dir");
    // The twin that doesn't: same engine, same batches, no journal.
    let mut twin = EpochServer::new(engine(&config), serve);
    for (epoch, batch) in batches[..config.epochs].iter().enumerate() {
        crashed.submit(batch.clone()).expect("journaled submit");
        twin.submit(batch.clone()).expect("plain submit");
        let a = crashed.rotate().expect("scripted batch is valid");
        let b = twin.rotate().expect("scripted batch is valid");
        assert_eq!(a.applied, b.applied, "twin divergence before the crash");
        if epoch + 1 == config.checkpoint_after {
            crashed.checkpoint().expect("mid-stream checkpoint");
        }
    }
    crashed
        .submit(batches[config.epochs].clone())
        .expect("journaled submit");
    twin.submit(batches[config.epochs].clone())
        .expect("plain submit");
    drop(crashed); // the kill: in-memory state gone, fsynced appends stay

    let (mut recovered, report) = EpochServer::<DynamicSpc>::recover(dir, serve).expect("recovery");
    assert_eq!(
        report.resumed_epoch,
        twin.epoch(),
        "recovery must resume the epoch clock"
    );
    assert_eq!(
        recovered.pending_updates(),
        twin.pending_updates(),
        "the acknowledged pending batch must be restored"
    );

    // Equivalence: answers and maintenance counters match the twin, and
    // the engines keep rotating in lockstep after recovery.
    let final_a = recovered.rotate().expect("restored batch is valid");
    let final_b = twin.rotate().expect("pending batch is valid");
    assert_eq!(
        final_a.applied, final_b.applied,
        "post-recovery maintenance counters diverged"
    );
    assert_eq!(recovered.epoch(), twin.epoch());
    assert_eq!(
        recovered.engine().updates_since_build(),
        twin.engine().updates_since_build()
    );
    for s in 0..config.vertices {
        for t in 0..config.vertices {
            let (s, t) = (VertexId(s), VertexId(t));
            assert_eq!(
                recovered.engine().query_live(s, t),
                twin.engine().query_live(s, t),
                "recovered answer diverged at {s:?} -> {t:?}"
            );
        }
    }

    let stats = *recovered.stats();
    RecoveryReplayReport {
        rotations: stats.rotations,
        updates_applied: stats.updates_applied,
        replayed_batches: stats.replayed_batches,
        replayed_rotations: report.replayed_rotations,
        restored_pending_updates: report.restored_pending_updates as u64,
        journal_bytes: stats.journal_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic() {
        let a = replay(RecoveryReplayConfig::smoke());
        let b = replay(RecoveryReplayConfig::smoke());
        assert_eq!(a.rotations, b.rotations);
        assert_eq!(a.updates_applied, b.updates_applied);
        assert_eq!(a.replayed_batches, b.replayed_batches);
        assert_eq!(a.journal_bytes, b.journal_bytes);
    }

    #[test]
    fn replay_covers_checkpoint_and_pending_restore() {
        let cfg = RecoveryReplayConfig::smoke();
        let report = replay(cfg);
        assert_eq!(report.rotations, cfg.epochs as u64 + 1);
        // Only post-checkpoint epochs replay, plus the restored batch.
        assert_eq!(
            report.replayed_rotations,
            (cfg.epochs - cfg.checkpoint_after) as u64
        );
        assert_eq!(
            report.replayed_batches,
            (cfg.epochs - cfg.checkpoint_after) as u64 + 1
        );
        assert!(report.restored_pending_updates > 0);
        assert!(report.journal_bytes_per_update() > 0);
    }
}
