//! Fault injection: every scripted crash site in the durability protocol,
//! driven deterministically, with recovery proven *bit-identical* — same
//! answers, same maintenance counters — to a server that never crashed.
//!
//! The crash model is [`FaultPlan`]: an armed failpoint simulates `kill -9`
//! at its site (the operation errors, the server drops its journal handle,
//! the in-memory instance is abandoned). On-disk damage — torn final
//! records, bit flips — is inflicted directly on the WAL file via
//! [`current_wal_path`]. Reference servers run the identical scripted
//! stream in a second journal directory without crashing; equivalence
//! compares the full all-pairs answer table, the epoch clock, the engine's
//! update-pressure counter, maintenance policy, policy rebuilds and re-rank
//! totals, and every `ServerStats` field except `replayed_batches` (which
//! by design counts only recovery work).

use dspc::dynamic::GraphUpdate;
use dspc::policy::MaintenancePolicy;
use dspc::query::spc_query;
use dspc::shard::ShardedFlatIndex;
use dspc::{DynamicSpc, MaintenanceCounters, MaintenanceThreads, OrderingStrategy, UpdateStats};
use dspc_graph::generators::random::barabasi_albert;
use dspc_graph::scratch::ScratchDir;
use dspc_graph::{UndirectedGraph, VertexId};
use dspc_serve::{
    current_wal_path, EpochServer, Failpoint, FaultPlan, JournalError, RotateError,
    RotationFailure, ServeConfig, ServingEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

const N: u32 = 40;
const CFG: ServeConfig = ServeConfig { shards: 2 };

fn base_graph() -> UndirectedGraph {
    barabasi_albert(N as usize, 3, &mut StdRng::seed_from_u64(0xFA117))
}

fn engine() -> DynamicSpc {
    let mut e = DynamicSpc::build(base_graph(), OrderingStrategy::Degree);
    e.set_maintenance_threads(MaintenanceThreads::Fixed(2));
    e
}

/// Deterministic valid-by-construction batches: each deletes one existing
/// edge and inserts one absent edge, tracked against a shadow graph.
fn scripted_batches(count: usize) -> Vec<Vec<GraphUpdate>> {
    let mut shadow = base_graph();
    let mut batches = Vec::new();
    for i in 0..count {
        let (da, db) = shadow
            .nth_edge((i * 7) % shadow.num_edges())
            .expect("shadow graph keeps its edges");
        let mut insert = None;
        'outer: for a in 0..N {
            for b in (a + 1)..N {
                let (a, b) = (VertexId(a), VertexId(b));
                if !shadow.has_edge(a, b) && (da, db) != (a, b) && (da, db) != (b, a) {
                    insert = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (ia, ib) = insert.expect("shadow graph is not complete");
        shadow.delete_edge(da, db).unwrap();
        shadow.insert_edge(ia, ib).unwrap();
        batches.push(vec![
            GraphUpdate::DeleteEdge(da, db),
            GraphUpdate::InsertEdge(ia, ib),
        ]);
    }
    batches
}

/// A fresh, empty journal directory, unique per call and removed on drop
/// (tests run concurrently in one process and must not share directories).
fn scratch_dir(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("dspc_fault_{name}")).expect("create scratch dir")
}

/// A journaled server that ran `rotated` scripted batches (one rotation
/// each) and then submitted `pending` more without rotating — the
/// never-crashed reference for most scenarios.
fn journaled_reference(
    dir: &Path,
    rotated: &[Vec<GraphUpdate>],
    pending: &[Vec<GraphUpdate>],
) -> EpochServer<DynamicSpc> {
    journaled_with(engine(), dir, rotated, pending)
}

/// [`journaled_reference`] over a given engine.
fn journaled_with(
    engine: DynamicSpc,
    dir: &Path,
    rotated: &[Vec<GraphUpdate>],
    pending: &[Vec<GraphUpdate>],
) -> EpochServer<DynamicSpc> {
    let mut server = EpochServer::with_journal(engine, CFG, dir).expect("fresh journal dir");
    for batch in rotated {
        server.submit(batch.clone()).expect("journaled submit");
        server.rotate().expect("scripted batch is valid");
    }
    for batch in pending {
        server.submit(batch.clone()).expect("journaled submit");
    }
    server
}

/// The bit-identical claim: answers, epoch clock, pending depth, engine
/// update pressure, maintenance policy, policy rebuilds and re-rank totals,
/// and all stats except `replayed_batches` must match.
fn assert_bit_identical(recovered: &EpochServer<DynamicSpc>, reference: &EpochServer<DynamicSpc>) {
    assert_eq!(recovered.epoch(), reference.epoch(), "epoch clock");
    assert_eq!(
        recovered.pending_updates(),
        reference.pending_updates(),
        "pending buffer depth"
    );
    assert_eq!(
        recovered.engine().updates_since_build(),
        reference.engine().updates_since_build(),
        "engine update pressure"
    );
    assert_eq!(
        recovered.engine().policy(),
        reference.engine().policy(),
        "maintenance policy"
    );
    assert_eq!(
        recovered.engine().rebuilds(),
        reference.engine().rebuilds(),
        "policy rebuilds"
    );
    assert_eq!(
        recovered.engine().rerank_totals(),
        reference.engine().rerank_totals(),
        "policy re-rank totals"
    );
    let (a, b) = (recovered.stats(), reference.stats());
    assert_eq!(a.rotations, b.rotations, "rotations");
    assert_eq!(a.updates_applied, b.updates_applied, "updates_applied");
    assert_eq!(a.rejected_updates, b.rejected_updates, "rejected_updates");
    assert_eq!(
        a.quarantined_rotations, b.quarantined_rotations,
        "quarantined_rotations"
    );
    if reference.is_journaled() {
        assert_eq!(a.journal_bytes, b.journal_bytes, "journal_bytes");
    }
    for s in 0..N {
        for t in 0..N {
            let (s, t) = (VertexId(s), VertexId(t));
            assert_eq!(
                recovered.engine().query_live(s, t),
                reference.engine().query_live(s, t),
                "answer diverged at {s:?} -> {t:?}"
            );
        }
    }
}

/// Both servers apply one more scripted batch and must produce identical
/// maintenance counters — the engines are equivalent in behavior, not just
/// in current answers.
fn assert_next_rotation_identical(
    recovered: &mut EpochServer<DynamicSpc>,
    reference: &mut EpochServer<DynamicSpc>,
    batch: &[GraphUpdate],
) {
    recovered.submit(batch.to_vec()).expect("submit");
    reference.submit(batch.to_vec()).expect("submit");
    let ra = recovered.rotate().expect("valid batch");
    let rb = reference.rotate().expect("valid batch");
    assert_eq!(ra.epoch, rb.epoch);
    assert_eq!(
        ra.applied, rb.applied,
        "post-recovery maintenance counters diverged"
    );
    assert_bit_identical(recovered, reference);
}

#[test]
fn clean_restart_replays_the_full_wal() {
    let script = scripted_batches(5);
    let dir = scratch_dir("clean_restart");
    let ref_dir = scratch_dir("clean_restart_ref");

    // Rotate 3 batches, leave the 4th durable-but-pending, then abandon
    // the server (a kill between syncs: everything acknowledged is on
    // disk, the process is gone).
    let crashed = journaled_reference(dir.path(), &script[..3], &script[3..4]);
    drop(crashed);

    let (mut recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.generation, 1);
    assert_eq!(report.checkpoint_epoch, 0);
    assert_eq!(report.resumed_epoch, 3);
    assert_eq!(report.replayed_rotations, 3);
    assert_eq!(report.replayed_batches, 4);
    assert_eq!(report.restored_pending_updates, script[3].len());
    assert_eq!(report.quarantined_updates_skipped, 0);
    assert_eq!(report.dropped_tail_bytes, 0);
    assert_eq!(recovered.stats().replayed_batches, 4);

    let mut reference = journaled_reference(ref_dir.path(), &script[..3], &script[3..4]);
    assert_bit_identical(&recovered, &reference);
    assert_next_rotation_identical(&mut recovered, &mut reference, &script[4]);
}

#[test]
fn kill_before_append_loses_only_the_unacknowledged_batch() {
    let script = scripted_batches(4);
    let dir = scratch_dir("kill_before_append");
    let ref_dir = scratch_dir("kill_before_append_ref");

    let mut crashed = journaled_reference(dir.path(), &script[..2], &[]);
    crashed.arm_faults(FaultPlan::new().inject(Failpoint::KillBeforeAppend));
    let err = crashed.submit(script[2].clone()).unwrap_err();
    assert!(matches!(
        err.error,
        JournalError::InjectedCrash(Failpoint::KillBeforeAppend)
    ));
    assert_eq!(err.rejected, script[2], "the batch comes back un-buffered");
    assert!(
        !crashed.is_journaled(),
        "the simulated kill dropped the journal"
    );
    drop(crashed);

    // The batch was never acknowledged as durable, so the reference never
    // saw it: recovery loses exactly that batch and nothing else.
    let (recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.replayed_rotations, 2);
    assert_eq!(report.restored_pending_updates, 0);
    let reference = journaled_reference(ref_dir.path(), &script[..2], &[]);
    assert_bit_identical(&recovered, &reference);
}

#[test]
fn kill_after_append_preserves_the_batch_as_pending() {
    let script = scripted_batches(4);
    let dir = scratch_dir("kill_after_append");
    let ref_dir = scratch_dir("kill_after_append_ref");

    let mut crashed = journaled_reference(dir.path(), &script[..2], &[]);
    crashed.arm_faults(FaultPlan::new().inject(Failpoint::KillAfterAppend));
    let err = crashed.submit(script[2].clone()).unwrap_err();
    assert!(matches!(
        err.error,
        JournalError::InjectedCrash(Failpoint::KillAfterAppend)
    ));
    drop(crashed);

    // The append hit disk before the kill: the batch is durable and must
    // come back as pending — acknowledged-implies-durable.
    let (mut recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.replayed_rotations, 2);
    assert_eq!(report.restored_pending_updates, script[2].len());
    let mut reference = journaled_reference(ref_dir.path(), &script[..2], &script[2..3]);
    assert_bit_identical(&recovered, &reference);

    // Rotating the restored batch lands both servers on the same epoch.
    let ra = recovered.rotate().expect("restored batch is valid");
    let rb = reference.rotate().expect("pending batch is valid");
    assert_eq!((ra.epoch, ra.applied), (rb.epoch, rb.applied));
    assert_bit_identical(&recovered, &reference);
}

#[test]
fn checkpoint_truncates_the_wal_and_recovery_boots_from_it() {
    assert_eq!(
        checkpoint_and_recover(MaintenancePolicy::NEVER, "checkpoint"),
        0
    );
}

/// The checkpoint test again with a policy that rebuilds every three
/// updates (each scripted batch holds two): the checkpoint image carries
/// the policy and its first rebuild, and the recovered engine rebuilds
/// again exactly where the never-crashed one does.
#[test]
fn checkpoint_recovery_keeps_the_maintenance_policy() {
    let every_three = MaintenancePolicy::every(3);
    assert_eq!(checkpoint_and_recover(every_three, "checkpoint_policy"), 2);
}

/// Checkpoints after two rotations, rotates once more, crashes, recovers
/// and compares with a never-crashed twin; both run `policy`. Returns the
/// recovered engine's policy rebuilds after one more rotation.
fn checkpoint_and_recover(policy: MaintenancePolicy, name: &str) -> usize {
    let script = scripted_batches(5);
    let dir = scratch_dir(name);
    let ref_dir = scratch_dir(&format!("{name}_ref"));
    let engine = || {
        let mut e = engine();
        e.set_policy(policy);
        e
    };

    let mut crashed = journaled_with(engine(), dir.path(), &script[..2], &[]);
    assert_eq!(crashed.checkpoint().expect("checkpoint"), 2);
    assert_eq!(crashed.journal_generation(), Some(2));
    // One more rotation after the checkpoint, then crash.
    crashed.submit(script[2].clone()).expect("journaled submit");
    crashed.rotate().expect("valid batch");
    drop(crashed);

    let (mut recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.generation, 2);
    assert_eq!(
        report.checkpoint_epoch, 2,
        "snapshot carries the epoch clock"
    );
    assert_eq!(
        report.replayed_rotations, 1,
        "only post-checkpoint work replays"
    );
    assert_eq!(report.resumed_epoch, 3);

    // Reference: same stream, checkpoint included (checkpoints write
    // journal bytes, so stats only match when both servers checkpoint).
    let mut reference = journaled_with(engine(), ref_dir.path(), &script[..2], &[]);
    reference.checkpoint().expect("checkpoint");
    reference
        .submit(script[2].clone())
        .expect("journaled submit");
    reference.rotate().expect("valid batch");
    assert_bit_identical(&recovered, &reference);
    assert_next_rotation_identical(&mut recovered, &mut reference, &script[3]);
    recovered.engine().rebuilds()
}

/// An engine whose tiered policy re-ranked before the checkpoint recovers
/// its cumulative re-rank totals, and keeps adding to them like its
/// never-crashed twin.
#[test]
fn checkpoint_recovery_keeps_the_rerank_totals() {
    let mut rng = StdRng::seed_from_u64(0xC4DE);
    let script = dspc_bench::workload::churn_stream(&base_graph(), 6, 4, &mut rng);
    let engine = || {
        let mut e = engine();
        e.set_policy(MaintenancePolicy {
            batched_swap_budget: 4096,
            ..MaintenancePolicy::tiered(0.02, 0.08, 0.95)
        });
        e
    };
    let run = |dir: &Path| {
        let mut server = journaled_with(engine(), dir, &script[..4], &[]);
        let totals = server.engine().rerank_totals();
        assert!(totals.rerank_swaps > 0, "the churn re-ranked: {totals:?}");
        server.checkpoint().expect("checkpoint");
        server.submit(script[4].clone()).expect("journaled submit");
        server.rotate().expect("valid batch");
        server
    };
    let dir = scratch_dir("checkpoint_rerank");
    let ref_dir = scratch_dir("checkpoint_rerank_ref");
    drop(run(dir.path()));
    let (mut recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.replayed_rotations, 1);
    let mut reference = run(ref_dir.path());
    assert_ne!(
        reference.engine().rerank_totals(),
        MaintenanceCounters::default()
    );
    assert_bit_identical(&recovered, &reference);
    assert_next_rotation_identical(&mut recovered, &mut reference, &script[5]);
}

#[test]
fn kill_mid_checkpoint_keeps_the_old_generation_authoritative() {
    let script = scripted_batches(4);
    let dir = scratch_dir("kill_mid_checkpoint");
    let ref_dir = scratch_dir("kill_mid_checkpoint_ref");

    let mut crashed = journaled_reference(dir.path(), &script[..3], &[]);
    crashed.arm_faults(FaultPlan::new().inject(Failpoint::KillAfterStateFile));
    let err = crashed.checkpoint().unwrap_err();
    assert!(matches!(
        err,
        JournalError::InjectedCrash(Failpoint::KillAfterStateFile)
    ));
    drop(crashed);
    // The orphan next-generation state file is on disk but uncommitted.
    assert!(dir.path().join("state-2.dspc").exists());

    let (recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.generation, 1, "MANIFEST never moved");
    assert_eq!(report.replayed_rotations, 3, "the full WAL still replays");
    let reference = journaled_reference(ref_dir.path(), &script[..3], &[]);
    assert_bit_identical(&recovered, &reference);
    assert!(
        !dir.path().join("state-2.dspc").exists(),
        "recovery cleans the orphan generation"
    );
}

#[test]
fn kill_after_manifest_commits_the_new_generation() {
    let script = scripted_batches(4);
    let dir = scratch_dir("kill_after_manifest");

    let mut crashed = journaled_reference(dir.path(), &script[..3], &[]);
    let stats_at_crash = *crashed.stats();
    crashed.arm_faults(FaultPlan::new().inject(Failpoint::KillAfterManifest));
    let err = crashed.checkpoint().unwrap_err();
    assert!(matches!(
        err,
        JournalError::InjectedCrash(Failpoint::KillAfterManifest)
    ));
    drop(crashed);
    // Old generation's files still on disk (cleanup never ran)…
    assert!(dir.path().join("state-1.dspc").exists());

    let (recovered, report) =
        EpochServer::<DynamicSpc>::recover(dir.path(), CFG).expect("recovery");
    // …but the MANIFEST rename was the commit point: generation 2 wins.
    assert_eq!(report.generation, 2);
    assert_eq!(
        report.replayed_rotations, 0,
        "fresh WAL has nothing to replay"
    );
    assert_eq!(report.checkpoint_epoch, 3);
    assert_eq!(recovered.epoch(), 3);
    assert_eq!(recovered.stats().rotations, stats_at_crash.rotations);
    assert_eq!(
        recovered.stats().updates_applied,
        stats_at_crash.updates_applied
    );
    assert!(
        !dir.path().join("state-1.dspc").exists(),
        "old generation cleaned"
    );

    // Answers survive the generation switch bit-for-bit.
    let ref_dir = scratch_dir("kam_ref");
    let reference = journaled_reference(ref_dir.path(), &script[..3], &[]);
    for s in 0..N {
        for t in 0..N {
            let (s, t) = (VertexId(s), VertexId(t));
            assert_eq!(
                recovered.engine().query_live(s, t),
                reference.engine().query_live(s, t)
            );
        }
    }
}

#[test]
fn torn_final_record_is_dropped_not_fatal() {
    let script = scripted_batches(3);
    let dir = scratch_dir("torn_tail");
    let ref_dir = scratch_dir("torn_tail_ref");

    // Two committed epochs, then a durable pending batch whose record we
    // tear mid-write (a real torn append: the kill landed inside the
    // kernel's writeback).
    let crashed = journaled_reference(dir.path(), &script[..2], &script[2..3]);
    drop(crashed);
    let wal = current_wal_path(dir.path()).expect("manifest is readable");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

    let (mut recovered, report) =
        EpochServer::recover(dir.path(), CFG).expect("torn tail recovers");
    assert_eq!(report.replayed_rotations, 2, "committed epochs are intact");
    assert_eq!(
        report.restored_pending_updates, 0,
        "the torn record is dropped"
    );
    assert!(report.dropped_tail_bytes > 0);
    // Equivalent to a server that never submitted the torn batch.
    let mut reference = journaled_reference(ref_dir.path(), &script[..2], &[]);
    assert_bit_identical(&recovered, &reference);
    // The WAL was truncated back to its valid prefix: appends keep working.
    assert_next_rotation_identical(&mut recovered, &mut reference, &script[2]);
}

#[test]
fn final_record_bit_flip_is_dropped_but_mid_file_damage_is_fatal() {
    let script = scripted_batches(2);
    let dir = scratch_dir("bit_flip");

    // WAL layout here: checkpoint header record, batch record, epoch
    // marker, batch record, epoch marker.
    let crashed = journaled_reference(dir.path(), &script[..2], &[]);
    drop(crashed);
    let wal = current_wal_path(dir.path()).expect("manifest is readable");
    let pristine = std::fs::read(&wal).unwrap();

    // Flip a bit in the FINAL record (the last epoch marker): that record
    // is dropped, which demotes the second batch from committed to
    // pending — never silently applied, never lost.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    std::fs::write(&wal, &flipped).unwrap();
    let (recovered, report) =
        EpochServer::<DynamicSpc>::recover(dir.path(), CFG).expect("final-record damage recovers");
    assert_eq!(report.replayed_rotations, 1);
    assert_eq!(report.restored_pending_updates, script[1].len());
    assert!(report.dropped_tail_bytes > 0);
    assert_eq!(recovered.epoch(), 1);
    drop(recovered);

    // Mid-file damage is NOT a tear — it means acknowledged history is
    // gone, and recovery must refuse loudly rather than replay around it.
    // Byte 90 sits inside the first batch record's payload (the header
    // record is 12 + 65 bytes, the next record header is 12 more).
    let mut flipped = pristine.clone();
    flipped[90] ^= 0x10;
    std::fs::write(&wal, &flipped).unwrap();
    match EpochServer::<DynamicSpc>::recover(dir.path(), CFG) {
        Err(JournalError::Corrupt { section, offset }) => {
            assert_eq!(section, "wal-record");
            assert!(offset > 0, "corruption is located, not just reported");
        }
        Err(other) => panic!("expected wal-record corruption, got {other:?}"),
        Ok(_) => panic!("mid-file corruption must be fatal"),
    }
}

#[test]
fn quarantined_batches_are_voided_in_the_wal_and_skipped_by_replay() {
    let script = scripted_batches(3);
    let dir = scratch_dir("quarantine_replay");
    let ref_dir = scratch_dir("quarantine_replay_ref");

    let run = |dir: &Path| -> EpochServer<DynamicSpc> {
        let mut server = journaled_reference(dir, &script[..1], &[]);
        // A poisoned batch: its duplicate insert fails validation AFTER
        // the batch was journaled. The quarantine record voids it.
        let (ea, eb) = base_graph().nth_edge(0).unwrap();
        let poisoned = vec![
            GraphUpdate::InsertEdge(ea, eb),
            GraphUpdate::InsertEdge(VertexId(0), VertexId(1)),
        ];
        server.submit(poisoned.clone()).expect("journaled submit");
        let err = server.rotate().unwrap_err();
        assert!(matches!(err.kind, RotationFailure::Invalid(_)));
        assert_eq!(err.rejected, poisoned, "quarantined batch is handed back");
        // Good work continues after the quarantine.
        server.submit(script[1].clone()).expect("journaled submit");
        server.rotate().expect("valid batch");
        server
    };

    let crashed = run(dir.path());
    let stats_at_crash = *crashed.stats();
    assert_eq!(stats_at_crash.quarantined_rotations, 1);
    assert_eq!(stats_at_crash.rejected_updates, 2);
    drop(crashed);

    let (mut recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(
        report.quarantined_updates_skipped, 2,
        "replay skips exactly the voided batch"
    );
    assert_eq!(report.replayed_rotations, 2);
    let mut reference = run(ref_dir.path());
    assert_bit_identical(&recovered, &reference);
    assert_next_rotation_identical(&mut recovered, &mut reference, &script[2]);
}

/// A batch whose vertex op fails only after its edge segment would have
/// flushed is quarantined whole: nothing of it reaches the live index, so
/// the next rotation publishes only its own batch, and recovery (which
/// skips the voided batch) equals the never-crashed server.
#[test]
fn quarantined_vertex_batch_leaves_no_partial_segment() {
    let dir = scratch_dir("quarantine_vertex");
    let ref_dir = scratch_dir("quarantine_vertex_ref");
    let cycle = || UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let run = |dir: &Path| -> EpochServer<DynamicSpc> {
        let engine = DynamicSpc::build(cycle(), OrderingStrategy::Degree);
        let mut server = EpochServer::with_journal(engine, CFG, dir).expect("fresh journal dir");
        let poisoned = vec![
            GraphUpdate::DeleteEdge(VertexId(0), VertexId(1)),
            GraphUpdate::DeleteVertex(VertexId(99)),
        ];
        server.submit(poisoned.clone()).expect("journaled submit");
        let err = server.rotate().unwrap_err();
        assert!(matches!(err.kind, RotationFailure::Invalid(_)));
        assert_eq!(err.rejected, poisoned, "quarantined batch is handed back");
        server
            .submit(vec![GraphUpdate::InsertEdge(VertexId(1), VertexId(3))])
            .expect("journaled submit");
        server.rotate().expect("valid batch");
        server
    };

    drop(run(dir.path()));
    let (recovered, report) =
        EpochServer::<DynamicSpc>::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.quarantined_updates_skipped, 2);
    let reference = run(ref_dir.path());
    let mut reader = reference.reader();
    assert_eq!(recovered.epoch(), reference.epoch(), "epoch clock");
    assert_eq!(
        recovered.engine().updates_since_build(),
        reference.engine().updates_since_build(),
        "engine update pressure"
    );
    for s in 0..4 {
        for t in 0..4 {
            let (s, t) = (VertexId(s), VertexId(t));
            let live = reference.engine().query_live(s, t);
            assert_eq!(recovered.engine().query_live(s, t), live, "{s:?} -> {t:?}");
            assert_eq!(reader.query(s, t).1, live, "published {s:?} -> {t:?}");
        }
    }
    let kept = reference.engine().query(VertexId(0), VertexId(1));
    assert_eq!(kept, Some((1, 1)), "the quarantined deletion never applied");
}

#[test]
fn with_journal_refuses_an_initialized_directory() {
    let dir = scratch_dir("refuse_reinit");
    let server = EpochServer::with_journal(engine(), CFG, dir.path()).expect("fresh dir");
    drop(server);
    match EpochServer::with_journal(engine(), CFG, dir.path()) {
        Err(JournalError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists)
        }
        Err(other) => panic!("expected AlreadyExists, got {other:?}"),
        Ok(_) => panic!("re-initializing an existing journal must fail"),
    }
    // And recovering a directory that was never initialized fails too.
    let empty = scratch_dir("refuse_empty");
    assert!(EpochServer::<DynamicSpc>::recover(empty.path(), CFG).is_err());
}

#[test]
fn threaded_shutdown_flushes_the_journal() {
    let script = scripted_batches(3);
    let dir = scratch_dir("threaded_shutdown");
    let ref_dir = scratch_dir("threaded_shutdown_ref");

    let server = EpochServer::with_journal(engine(), CFG, dir.path()).expect("fresh dir");
    let handle = server.spawn();
    handle.submit(script[0].clone()).expect("writer is alive");
    handle.rotate().expect("valid batch");
    handle.submit(script[1].clone()).expect("writer is alive");
    // Shutdown syncs the journal; the returned server is then abandoned.
    let server = handle.shutdown().expect("clean shutdown");
    drop(server);

    let (recovered, report) = EpochServer::recover(dir.path(), CFG).expect("recovery");
    assert_eq!(report.replayed_rotations, 1);
    assert_eq!(report.restored_pending_updates, script[1].len());
    let reference = journaled_reference(ref_dir.path(), &script[..1], &script[1..2]);
    assert_bit_identical(&recovered, &reference);
}

/// A [`DynamicSpc`] that panics when asked to apply a batch containing the
/// sentinel self-edge on `u32::MAX` — the "engine bug" the containment
/// story must survive.
struct PanicEngine(DynamicSpc);

const SENTINEL: GraphUpdate = GraphUpdate::InsertEdge(VertexId(u32::MAX), VertexId(u32::MAX));

impl ServingEngine for PanicEngine {
    type Snapshot = ShardedFlatIndex;
    type Update = GraphUpdate;

    fn apply_batch(&mut self, updates: &[GraphUpdate]) -> dspc_graph::Result<UpdateStats> {
        if updates.contains(&SENTINEL) {
            panic!("injected engine panic");
        }
        self.0.apply_batch(updates)
    }

    fn freeze(&mut self, shards: usize) -> ShardedFlatIndex {
        self.0.publish(shards)
    }

    fn query_live(&self, s: VertexId, t: VertexId) -> dspc::QueryResult {
        spc_query(self.0.index(), s, t)
    }

    fn ranks(&self) -> &dspc::RankMap {
        ServingEngine::ranks(&self.0)
    }
}

#[test]
fn readers_keep_serving_across_a_panicked_rotation() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let script = scripted_batches(2);
    let server = EpochServer::new(PanicEngine(engine()), CFG);
    let reader = server.reader();
    let handle = server.spawn();

    // One good epoch first, so readers have non-trivial state pinned.
    handle.submit(script[0].clone()).expect("writer is alive");
    handle.rotate().expect("valid batch");

    let stop = AtomicBool::new(false);
    // Readers that have answered a query inside their loop: each bumps it
    // (Release) once, and the main thread waits on it (Acquire).
    let started = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (stop, started) = (&stop, &started);
        let joins: Vec<_> = (0..3)
            .map(|_| {
                let mut reader = reader.fork();
                scope.spawn(move || {
                    assert_eq!(reader.refresh(), 1);
                    let (_, want) = reader.query(VertexId(0), VertexId(5));
                    let mut served = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        // The quarantined rotation happens underneath these
                        // queries; the pinned epoch-1 snapshot must answer
                        // identically throughout — no panic, no new epoch.
                        let (epoch, got) = reader.query(VertexId(0), VertexId(5));
                        assert_eq!(epoch, 1, "no epoch may be published by a failed rotation");
                        assert_eq!(got, want);
                        served += 1;
                        if served == 1 {
                            started.fetch_add(1, Ordering::Release);
                        }
                    }
                    served
                })
            })
            .collect();

        // Every reader answers before the poisoned batch goes in, so each
        // serves across the failed rotation however the threads are
        // scheduled. A reader that finished already has panicked, and its
        // join below reports it.
        while started.load(Ordering::Acquire) < joins.len()
            && !joins.iter().any(|j| j.is_finished())
        {
            std::thread::yield_now();
        }

        // The poisoned batch panics the engine mid-rotation. The panic is
        // contained: the caller gets the quarantined batch back, the
        // writer thread survives, readers never notice.
        handle
            .submit(vec![SENTINEL, script[1][0]])
            .expect("writer is alive");
        match handle.rotate() {
            Err(RotateError::Rotation(e)) => {
                assert!(matches!(e.kind, RotationFailure::Panicked(_)));
                assert_eq!(e.rejected.len(), 2, "whole batch quarantined, not dropped");
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
        stop.store(true, Ordering::Release);
        for j in joins {
            assert!(j.join().expect("reader thread must not panic") > 0);
        }
    });

    // The writer is still alive and healthy: the repaired batch applies.
    handle.submit(script[1].clone()).expect("writer is alive");
    assert_eq!(handle.rotate().expect("valid batch").epoch, 2);
    let server = handle.shutdown().expect("clean shutdown");
    assert_eq!(server.stats().quarantined_rotations, 1);
    assert_eq!(server.stats().rejected_updates, 2);
    assert_eq!(server.stats().rotations, 2);
}
