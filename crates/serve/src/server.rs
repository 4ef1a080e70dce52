//! The epoch server: single-writer rotation over the snapshot chain, plus
//! the per-reader handle queries are served through.

use crate::engine::{ServingEngine, ServingSnapshot};
use crate::journal::{
    commit_checkpoint, load_generation, manifest_path, parse_wal, remove_orphans, state_path,
    write_atomic, CheckpointHeader, DurableEngine, Failpoint, FaultPlan, Journal, JournalError,
    RecoveryReport,
};
use crate::publish::{Publisher, Subscription};
use dspc::shard::EpochSnapshot;
use dspc::{KernelCounters, Rank, UpdateStats};
use dspc_graph::VertexId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Server construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Vertex-range shards each published snapshot attributes its query
    /// counters over (at least one).
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { shards: 1 }
    }
}

/// What one [`EpochServer::rotate`] did.
#[derive(Clone, Copy, Debug)]
pub struct RotationReport {
    /// The epoch just published.
    pub epoch: u64,
    /// Updates drained from the pending buffer into the batch.
    pub batched_updates: usize,
    /// Maintenance counters of the applied batch; `None` when the epoch
    /// had no pending updates (the rotation still publishes, so readers
    /// can observe an explicit epoch boundary).
    pub applied: Option<UpdateStats>,
    /// Label rows the publication copied; every other row is shared with
    /// the previous epoch's snapshot. Not checkpointed.
    pub rows_copied: usize,
}

/// Aggregate write-side counters across a server's lifetime. For a
/// journaled server these survive crashes: they are checkpointed into the
/// WAL header and restored (plus replay) by [`EpochServer::recover`]. A
/// restored counter may already sit near `u64::MAX`, so every counter
/// saturates, as [`dspc::Count`] arithmetic does, instead of overflowing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Snapshots published past the initial one.
    pub rotations: u64,
    /// Updates drained into epoch batches.
    pub updates_applied: u64,
    /// Updates handed back to callers by failed rotations (the quarantined
    /// batches of [`RotationError::rejected`]).
    pub rejected_updates: u64,
    /// Rotations that failed and quarantined their batch.
    pub quarantined_rotations: u64,
    /// Journaled batches re-applied by [`EpochServer::recover`].
    pub replayed_batches: u64,
    /// Bytes appended to the write-ahead journal.
    pub journal_bytes: u64,
}

/// Why a rotation failed.
#[derive(Debug)]
pub enum RotationFailure {
    /// The batch failed validation — nothing was applied, the engine is
    /// untouched.
    Invalid(dspc_graph::GraphError),
    /// The engine panicked applying the batch. The panic was contained
    /// (readers keep serving the last good epoch); the payload's message
    /// is carried here.
    Panicked(String),
    /// The write-ahead journal failed (I/O error or injected crash). When
    /// this arises from a quarantine-record append, the journal fault
    /// supersedes the original validation failure.
    Journal(JournalError),
}

/// A failed rotation: why it failed, plus the quarantined batch — the
/// updates are returned to the caller for repair/requeue, never silently
/// dropped. The server stays serviceable: readers keep serving the last
/// published epoch and later rotations proceed normally.
#[derive(Debug)]
pub struct RotationError<U> {
    /// What went wrong.
    pub kind: RotationFailure,
    /// The updates drained for this rotation, handed back un-applied.
    pub rejected: Vec<U>,
}

impl std::fmt::Display for RotationFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RotationFailure::Invalid(e) => write!(f, "batch validation failed: {e}"),
            RotationFailure::Panicked(msg) => write!(f, "engine panicked applying batch: {msg}"),
            RotationFailure::Journal(e) => write!(f, "journal failure: {e}"),
        }
    }
}

impl<U: std::fmt::Debug> std::fmt::Display for RotationError<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rotation failed ({}); {} updates quarantined",
            self.kind,
            self.rejected.len()
        )
    }
}

impl<U: std::fmt::Debug> std::error::Error for RotationError<U> {}

/// A failed submission: the journal refused the batch (or an injected
/// crash fired), and the updates are handed back un-buffered.
#[derive(Debug)]
pub struct SubmitError<U> {
    /// What went wrong in the journal.
    pub error: JournalError,
    /// The updates that were not accepted.
    pub rejected: Vec<U>,
}

impl<U: std::fmt::Debug> std::fmt::Display for SubmitError<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submit failed ({}); {} updates rejected",
            self.error,
            self.rejected.len()
        )
    }
}

impl<U: std::fmt::Debug> std::error::Error for SubmitError<U> {}

/// Adds `n` to a [`ServerStats`] counter, saturating at `u64::MAX`.
fn bump(counter: &mut u64, n: u64) {
    *counter = counter.saturating_add(n);
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The single writer: owns the live engine, buffers updates, rotates the
/// published snapshot at epoch boundaries.
///
/// All mutation goes through `&mut self` — the type system enforces the
/// single-writer half of the epoch contract, while [`Reader`] handles
/// (any number, any threads) serve from published snapshots without ever
/// blocking on this writer. To run the writer on its own thread, see
/// [`EpochServer::spawn`].
///
/// A server built with [`EpochServer::with_journal`] additionally
/// write-ahead journals every submitted batch; see the
/// [`journal`](crate::journal) module docs for the durability contract.
pub struct EpochServer<E: ServingEngine> {
    engine: E,
    publisher: Publisher<E::Snapshot>,
    pending: Vec<E::Update>,
    config: ServeConfig,
    stats: ServerStats,
    journal: Option<Journal<E::Update>>,
    faults: FaultPlan,
}

impl<E: ServingEngine> EpochServer<E> {
    /// Wraps `engine` and publishes its current state as the epoch-0
    /// snapshot.
    pub fn new(mut engine: E, config: ServeConfig) -> Self {
        let initial = engine.freeze(config.shards);
        EpochServer::assemble(
            engine,
            Publisher::new(initial),
            config,
            ServerStats::default(),
        )
    }

    /// Boots a server from an *already-frozen* snapshot (the warm-start
    /// path: a v2 columnar file loads straight into serving position) plus
    /// the live engine that will take over maintenance. The loaded
    /// snapshot is published as epoch 0 as-is — no re-freeze, no rebuild —
    /// so the first queries are served before the engine is even touched.
    ///
    /// # Panics
    /// - If `initial` attributes counters over another number of shards
    ///   than the `config.shards.max(1)` every later epoch is published
    ///   with. A reader keeps one counter per shard of the snapshot it
    ///   starts at, so its first query after a rotation would fail instead.
    /// - If `initial` covers another vertex id space than the engine's
    ///   graph. Its readers would answer for another graph, and a query
    ///   naming a vertex past its rows would fail.
    /// - If `initial` was computed under another vertex order than the
    ///   engine's index: its labels then belong to another index. Orders
    ///   are compared rank by rank, not by the strategy that made them (a
    ///   decoded file records only the permutation).
    pub fn warm_start(engine: E, initial: E::Snapshot, config: ServeConfig) -> Self {
        let (loaded, published) = (initial.shard_count(), config.shards.max(1));
        assert_eq!(
            loaded, published,
            "warm-start snapshot has {loaded} shards, but the server publishes {published}"
        );
        let (frozen, live) = (initial.ranks(), engine.ranks());
        let (covered, vertices) = (frozen.len(), live.len());
        assert_eq!(
            covered, vertices,
            "warm-start snapshot covers {covered} vertices, but the engine has {vertices}"
        );
        let rank = (0..covered as u32)
            .map(Rank)
            .find(|&r| frozen.vertex(r) != live.vertex(r));
        if let Some(r) = rank {
            panic!(
                "warm-start snapshot ranks vertex {} at rank {}, but the engine ranks vertex {} there",
                frozen.vertex(r).0,
                r.0,
                live.vertex(r).0
            );
        }
        EpochServer::assemble(
            engine,
            Publisher::new(initial),
            config,
            ServerStats::default(),
        )
    }

    fn assemble(
        engine: E,
        publisher: Publisher<E::Snapshot>,
        config: ServeConfig,
        stats: ServerStats,
    ) -> Self {
        EpochServer {
            engine,
            publisher,
            pending: Vec::new(),
            config,
            stats,
            journal: None,
            faults: FaultPlan::new(),
        }
    }

    /// A new reader handle pinned at the newest published snapshot.
    /// Readers are independent: hand them to other threads freely.
    pub fn reader(&self) -> Reader<E::Snapshot> {
        Reader::new(self.publisher.subscribe())
    }

    /// Queues updates for the next rotation. Nothing is applied — and
    /// nothing a reader can observe changes — until [`EpochServer::rotate`].
    ///
    /// On a journaled server the batch is appended to the write-ahead log
    /// and fsynced *before* it enters the pending buffer: `Ok` means the
    /// updates survive a crash. On error the updates come back in
    /// [`SubmitError::rejected`], un-buffered. Without a journal this
    /// never fails.
    pub fn submit<I: IntoIterator<Item = E::Update>>(
        &mut self,
        updates: I,
    ) -> Result<(), SubmitError<E::Update>> {
        let batch: Vec<E::Update> = updates.into_iter().collect();
        if batch.is_empty() {
            return Ok(());
        }
        if self.journal.is_some() {
            if self.faults.fires(Failpoint::KillBeforeAppend) {
                self.journal = None;
                return Err(SubmitError {
                    error: JournalError::InjectedCrash(Failpoint::KillBeforeAppend),
                    rejected: batch,
                });
            }
            let journal = self.journal.as_mut().expect("checked above");
            match journal
                .append_batch(&batch)
                .and_then(|n| journal.sync().map(|()| n))
            {
                Ok(n) => bump(&mut self.stats.journal_bytes, n),
                Err(error) => {
                    return Err(SubmitError {
                        error,
                        rejected: batch,
                    })
                }
            }
            if self.faults.fires(Failpoint::KillAfterAppend) {
                self.journal = None;
                return Err(SubmitError {
                    error: JournalError::InjectedCrash(Failpoint::KillAfterAppend),
                    rejected: batch,
                });
            }
        }
        self.pending.extend(batch);
        Ok(())
    }

    /// Updates waiting for the next rotation.
    pub fn pending_updates(&self) -> usize {
        self.pending.len()
    }

    /// The newest published epoch.
    pub fn epoch(&self) -> u64 {
        self.publisher.epoch()
    }

    /// Aggregate write-side counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The live engine (e.g. for reference queries against the current
    /// epoch's labels).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Whether a write-ahead journal is attached.
    pub fn is_journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// The attached journal's generation, if any.
    pub fn journal_generation(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.generation())
    }

    /// Arms a deterministic crash schedule (see [`FaultPlan`]). Testing
    /// hook: each armed failpoint simulates a process kill at its site.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Flushes and fsyncs the journal (no-op without one). Appends are
    /// already synced individually; this exists for shutdown paths.
    pub fn sync_journal(&mut self) -> Result<(), JournalError> {
        match self.journal.as_mut() {
            Some(j) => j.sync(),
            None => Ok(()),
        }
    }

    /// Ends the current epoch: drains the pending buffer, applies it as
    /// one coalesced batch through the engine (off the read path — readers
    /// keep serving from published snapshots throughout), publishes the
    /// repaired index through [`ServingEngine::freeze`] (sharing every row
    /// the batch left unchanged), and appends it as the next epoch.
    ///
    /// An empty pending buffer still rotates (publishing an identical
    /// snapshot under a new stamp) so callers can force epoch boundaries.
    ///
    /// On failure nothing is published and the drained batch is
    /// *quarantined*: handed back in [`RotationError::rejected`] for the
    /// caller to repair/requeue (on a journaled server a quarantine record
    /// voids the batch so recovery will not replay it). Engine panics are
    /// contained the same way — no panic propagates to readers or callers.
    pub fn rotate(&mut self) -> Result<RotationReport, RotationError<E::Update>> {
        let batch = std::mem::take(&mut self.pending);
        let applied = if batch.is_empty() {
            None
        } else {
            let engine = &mut self.engine;
            match catch_unwind(AssertUnwindSafe(|| engine.apply_batch(&batch))) {
                Ok(Ok(stats)) => Some(stats),
                Ok(Err(e)) => return Err(self.quarantine(batch, RotationFailure::Invalid(e))),
                Err(payload) => {
                    let kind = RotationFailure::Panicked(panic_message(payload));
                    return Err(self.quarantine(batch, kind));
                }
            }
        };
        let snapshot = self.engine.freeze(self.config.shards);
        let rows_copied = snapshot.rows_copied();
        let epoch = self.publisher.publish(snapshot);
        bump(&mut self.stats.rotations, 1);
        bump(&mut self.stats.updates_applied, batch.len() as u64);
        if let Some(journal) = self.journal.as_mut() {
            match journal
                .append_epoch(epoch)
                .and_then(|n| journal.sync().map(|()| n))
            {
                Ok(n) => bump(&mut self.stats.journal_bytes, n),
                // The batch WAS applied and published; the marker is
                // missing, so recovery would replay it against the last
                // checkpoint — still exact relative to durable state.
                Err(e) => {
                    return Err(RotationError {
                        kind: RotationFailure::Journal(e),
                        rejected: Vec::new(),
                    })
                }
            }
        }
        Ok(RotationReport {
            epoch,
            batched_updates: batch.len(),
            applied,
            rows_copied,
        })
    }

    /// Books a failed rotation: counts it, voids the batch journal-side,
    /// and wraps the rejected updates into the error.
    fn quarantine(
        &mut self,
        batch: Vec<E::Update>,
        kind: RotationFailure,
    ) -> RotationError<E::Update> {
        bump(&mut self.stats.rejected_updates, batch.len() as u64);
        bump(&mut self.stats.quarantined_rotations, 1);
        let kind = match self.journal.as_mut() {
            Some(journal) => match journal
                .append_quarantine()
                .and_then(|n| journal.sync().map(|()| n))
            {
                Ok(n) => {
                    bump(&mut self.stats.journal_bytes, n);
                    kind
                }
                Err(e) => RotationFailure::Journal(e),
            },
            None => kind,
        };
        RotationError {
            kind,
            rejected: batch,
        }
    }

    /// Consumes the server, returning the live engine.
    pub fn into_engine(self) -> E {
        self.engine
    }
}

impl<E: DurableEngine> EpochServer<E> {
    /// Like [`EpochServer::new`], but with a write-ahead journal in `dir`:
    /// the engine's state is checkpointed as generation 1 and every
    /// subsequent [`EpochServer::submit`] is journaled before it is
    /// buffered. Refuses a directory that already holds a journal — boot
    /// that with [`EpochServer::recover`] instead.
    pub fn with_journal(
        engine: E,
        config: ServeConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, JournalError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if manifest_path(dir).exists() {
            return Err(JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "journal directory already initialized; use EpochServer::recover",
            )));
        }
        let mut server = EpochServer::new(engine, config);
        let state = server.engine.encode_state();
        write_atomic(&state_path(dir, 1), &state)?;
        let header = CheckpointHeader {
            generation: 1,
            epoch: 0,
            ..CheckpointHeader::default()
        };
        let (journal, bytes) = commit_checkpoint::<E::Update>(dir, &header, &[])?;
        bump(&mut server.stats.journal_bytes, bytes);
        server.journal = Some(journal);
        Ok(server)
    }

    /// Snapshots the live engine as the next generation and truncates the
    /// journal, crash-atomically: state file first, then a fresh WAL
    /// carrying the still-pending batches, then the `MANIFEST` rename that
    /// commits the switch, then best-effort cleanup of the old generation.
    /// A crash at any point leaves a recoverable directory (see the
    /// [`journal`](crate::journal) module docs). Returns the new
    /// generation number.
    pub fn checkpoint(&mut self) -> Result<u64, JournalError> {
        let (dir, old_generation) = match self.journal.as_ref() {
            Some(j) => (j.dir().to_path_buf(), j.generation()),
            None => return Err(JournalError::NotJournaled),
        };
        let generation = old_generation + 1;
        let state = self.engine.encode_state();
        write_atomic(&state_path(&dir, generation), &state)?;
        if self.faults.fires(Failpoint::KillAfterStateFile) {
            self.journal = None;
            return Err(JournalError::InjectedCrash(Failpoint::KillAfterStateFile));
        }
        let header = CheckpointHeader {
            generation,
            epoch: self.epoch(),
            rotations: self.stats.rotations,
            updates_applied: self.stats.updates_applied,
            rejected_updates: self.stats.rejected_updates,
            quarantined_rotations: self.stats.quarantined_rotations,
            replayed_batches: self.stats.replayed_batches,
            journal_bytes: self.stats.journal_bytes,
        };
        let (journal, bytes) = commit_checkpoint(&dir, &header, &self.pending)?;
        if self.faults.fires(Failpoint::KillAfterManifest) {
            self.journal = None;
            return Err(JournalError::InjectedCrash(Failpoint::KillAfterManifest));
        }
        bump(&mut self.stats.journal_bytes, bytes);
        self.journal = Some(journal);
        remove_orphans(&dir, generation);
        Ok(generation)
    }

    /// Boots a server from a journal directory after a crash: decodes the
    /// checkpointed engine state, republishes it at the checkpoint epoch,
    /// replays every committed WAL epoch exactly as the crashed server
    /// rotated it (skipping quarantined batches, dropping a torn tail),
    /// restores unapplied batches to the pending buffer, and reattaches
    /// the journal for further appends. The recovered server is
    /// bit-identical — answers and counters — to one that never crashed.
    pub fn recover(
        dir: impl AsRef<Path>,
        config: ServeConfig,
    ) -> Result<(Self, RecoveryReport), JournalError> {
        let dir = dir.as_ref();
        let (generation, epoch, state, wal) = load_generation(dir)?;
        let mut engine = E::decode_state(&state)?;
        let replay = parse_wal::<E::Update>(&wal)?;
        let header = replay.header;
        let corrupt = || JournalError::Corrupt {
            section: "wal-header",
            offset: 0,
        };
        if header.generation != generation || header.epoch != epoch {
            return Err(corrupt());
        }
        let replayed_rotations = replay.epochs.len() as u64;
        let replayed_batches =
            replay.epochs.iter().map(Vec::len).sum::<usize>() as u64 + replay.pending.len() as u64;
        let replayed_updates: u64 = replay.epochs.iter().flatten().map(|b| b.len() as u64).sum();
        // Checksums do not bound the header's counters: one that cannot
        // absorb what replay adds to it is corrupt.
        let add = |a: u64, b: u64| a.checked_add(b).ok_or_else(corrupt);
        add(header.rotations, replayed_rotations)?;
        add(header.updates_applied, replayed_updates)?;
        let stats = ServerStats {
            rotations: header.rotations,
            updates_applied: header.updates_applied,
            rejected_updates: add(header.rejected_updates, replay.quarantined_updates)?,
            quarantined_rotations: add(header.quarantined_rotations, replay.quarantine_events)?,
            replayed_batches: add(header.replayed_batches, replayed_batches)?,
            // The header counter predates this generation's WAL; the bytes
            // of every acknowledged append since are exactly the WAL's
            // valid length, so the restored counter matches a server that
            // never crashed.
            journal_bytes: add(header.journal_bytes, replay.valid_len)?,
        };
        let initial = engine.freeze(config.shards);
        let mut server = EpochServer::assemble(
            engine,
            Publisher::starting_at(initial, epoch),
            config,
            stats,
        );
        // Replay each committed epoch exactly as the crashed server
        // rotated it: all of its batches into the pending buffer, one
        // coalesced rotation. The journal is not attached yet, so replay
        // does not re-append what the WAL already holds.
        for group in replay.epochs {
            for batch in group {
                server.pending.extend(batch);
            }
            server
                .rotate()
                .map_err(|e| JournalError::ReplayFailed(e.kind.to_string()))?;
        }
        let mut restored_pending_updates = 0usize;
        for batch in replay.pending {
            restored_pending_updates += batch.len();
            server.pending.extend(batch);
        }
        server.journal = Some(Journal::reattach(dir, generation, replay.valid_len)?);
        remove_orphans(dir, generation);
        let report = RecoveryReport {
            generation,
            checkpoint_epoch: epoch,
            resumed_epoch: server.epoch(),
            replayed_batches,
            replayed_rotations,
            restored_pending_updates,
            quarantined_updates_skipped: replay.quarantined_updates,
            dropped_tail_bytes: replay.dropped_tail_bytes,
        };
        Ok((server, report))
    }
}

/// A reader's handle: serves queries from its pinned snapshot, advances
/// between epochs only when asked, and keeps deterministic serving
/// counters (queries served, stale-epoch reads, per-shard kernel work).
///
/// Queries run through a hub probe loaded with the last query's source
/// row ([`ServingSnapshot::Pin`]): the next query from the same source
/// scans only the target's row, also after a refresh to an epoch that
/// left that row unchanged. The probe is allocated on the first query, at
/// 12 bytes per vertex (16 for the weighted variant).
///
/// Handles are `Send` — create them on the writer thread, move them into
/// reader threads. Queries never lock: the pinned snapshot is immutable
/// and refreshing is a wait-free pointer walk.
pub struct Reader<S: ServingSnapshot> {
    sub: Subscription<S>,
    pin: S::Pin,
    per_shard: Vec<KernelCounters>,
    queries_served: u64,
    stale_epoch_reads: u64,
}

impl<S: ServingSnapshot> Reader<S> {
    fn new(sub: Subscription<S>) -> Self {
        let shards = sub.snapshot().index().shard_count();
        Reader {
            sub,
            pin: S::Pin::default(),
            per_shard: vec![KernelCounters::new(); shards],
            queries_served: 0,
            stale_epoch_reads: 0,
        }
    }

    /// An independent reader pinned at this reader's current snapshot,
    /// with zeroed counters and an empty source pin.
    pub fn fork(&self) -> Reader<S> {
        Reader::new(self.sub.clone())
    }

    /// The pinned snapshot's epoch.
    pub fn epoch(&self) -> u64 {
        self.sub.epoch()
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &EpochSnapshot<S> {
        self.sub.snapshot()
    }

    /// Whether a newer epoch has been published past the pinned one.
    pub fn is_stale(&self) -> bool {
        self.sub.is_stale()
    }

    /// Advances to the newest published snapshot (wait-free) and returns
    /// its epoch. Epochs observed through one reader are monotone.
    pub fn refresh(&mut self) -> u64 {
        self.sub.advance()
    }

    /// `SPC(s, t)` from the pinned snapshot. Returns the answer stamped
    /// with the epoch it was computed against. Counts the query as a
    /// stale-epoch read if a newer snapshot was already visible when the
    /// query ran (the reader chose staleness — the paper's kept-stale
    /// labels, one epoch coarser).
    ///
    /// Answered through [`ServingSnapshot::query_pinned`]: `s`'s row stays
    /// loaded for the next query, and the per-shard counters grow exactly
    /// as [`ServingSnapshot::query_counted`]'s merge would grow them.
    pub fn query(&mut self, s: VertexId, t: VertexId) -> (u64, S::Answer) {
        if self.sub.is_stale() {
            self.stale_epoch_reads += 1;
        }
        self.queries_served += 1;
        let snap = self.sub.snapshot();
        let answer = snap
            .index()
            .query_pinned(&mut self.pin, &mut self.per_shard, s, t);
        (snap.epoch(), answer)
    }

    /// Queries served through this handle.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Queries answered while a newer epoch was already visible.
    pub fn stale_epoch_reads(&self) -> u64 {
        self.stale_epoch_reads
    }

    /// Per-shard kernel work accumulated by this handle's queries.
    pub fn shard_counters(&self) -> &[KernelCounters] {
        &self.per_shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspc::dynamic::GraphUpdate;
    use dspc::{DynamicSpc, FlatIndex, OrderingStrategy, ShardedFlatIndex};
    use dspc_graph::UndirectedGraph;

    fn server() -> EpochServer<DynamicSpc> {
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        EpochServer::new(
            DynamicSpc::build(g, OrderingStrategy::Degree),
            ServeConfig { shards: 2 },
        )
    }

    #[test]
    fn rotation_preserves_pinned_reads_and_publishes_new_epochs() {
        let mut server = server();
        let mut pinned = server.reader();
        let mut fresh = server.reader();
        let (e, before) = pinned.query(VertexId(0), VertexId(4));
        assert_eq!((e, before.as_option()), (0, Some((4, 1))));

        server
            .submit([GraphUpdate::InsertEdge(VertexId(0), VertexId(4))])
            .unwrap();
        let report = server.rotate().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.batched_updates, 1);
        assert!(report.applied.is_some());

        // The pinned reader still serves epoch 0 — and knows it's stale.
        assert!(pinned.is_stale());
        let (e, r) = pinned.query(VertexId(0), VertexId(4));
        assert_eq!((e, r.as_option()), (0, Some((4, 1))));
        assert_eq!(pinned.stale_epoch_reads(), 1);

        // A refreshed reader sees the new edge.
        assert_eq!(fresh.refresh(), 1);
        let (e, r) = fresh.query(VertexId(0), VertexId(4));
        assert_eq!((e, r.as_option()), (1, Some((1, 1))));
        assert_eq!(fresh.stale_epoch_reads(), 0);

        // Live engine and fresh snapshot agree.
        assert_eq!(r, server.engine().query_live(VertexId(0), VertexId(4)));
        assert_eq!(server.stats().rotations, 1);
        assert_eq!(server.stats().updates_applied, 1);
    }

    #[test]
    fn empty_rotation_still_advances_the_epoch() {
        let mut server = server();
        let mut reader = server.reader();
        let report = server.rotate().unwrap();
        assert_eq!(report.epoch, 1);
        assert!(report.applied.is_none());
        assert_eq!(reader.refresh(), 1);
        assert_eq!(server.epoch(), 1);
    }

    #[test]
    fn failed_rotation_quarantines_the_batch_without_publishing() {
        let mut server = server();
        let good = GraphUpdate::InsertEdge(VertexId(0), VertexId(2));
        // A duplicate insert poisons the batch; the good update queued
        // behind it must come back too, not be destroyed.
        server
            .submit([GraphUpdate::InsertEdge(VertexId(0), VertexId(1)), good])
            .unwrap();
        let err = server.rotate().unwrap_err();
        assert!(matches!(err.kind, RotationFailure::Invalid(_)));
        assert_eq!(err.rejected.len(), 2, "whole batch handed back");
        assert_eq!(server.epoch(), 0, "no snapshot published");
        assert_eq!(server.pending_updates(), 0, "batch moved into the error");
        assert_eq!(server.stats().rejected_updates, 2);
        assert_eq!(server.stats().quarantined_rotations, 1);

        // The caller repairs the batch (drops the bad op) and requeues the
        // good updates from the error — nothing was lost.
        let repaired: Vec<GraphUpdate> = err
            .rejected
            .into_iter()
            .filter(|u| *u != GraphUpdate::InsertEdge(VertexId(0), VertexId(1)))
            .collect();
        server.submit(repaired).unwrap();
        let report = server.rotate().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.batched_updates, 1);
        assert_eq!(
            server
                .engine()
                .query_live(VertexId(0), VertexId(2))
                .as_option(),
            Some((1, 1))
        );
    }

    #[test]
    fn per_shard_counters_accumulate() {
        let server = server();
        let mut reader = server.reader();
        for s in 0..5u32 {
            for t in 0..5u32 {
                reader.query(VertexId(s), VertexId(t));
            }
        }
        assert_eq!(reader.queries_served(), 25);
        let total: u64 = reader.shard_counters().iter().map(|c| c.queries).sum();
        assert_eq!(total, 25);
        assert_eq!(reader.shard_counters().len(), 2);
        // Forked readers start with fresh counters at the same epoch.
        let fork = reader.fork();
        assert_eq!(fork.queries_served(), 0);
        assert_eq!(fork.epoch(), reader.epoch());
    }

    #[test]
    #[should_panic(expected = "warm-start snapshot has 4 shards, but the server publishes 2")]
    fn warm_start_rejects_a_snapshot_with_other_shards() {
        let engine = server().into_engine();
        let flat = FlatIndex::freeze(engine.index());
        // No shards configured means one, as every later publish makes.
        let one = ShardedFlatIndex::from_flat(&flat, 1);
        let server = EpochServer::warm_start(engine, one, ServeConfig { shards: 0 });
        assert_eq!(server.reader().shard_counters().len(), 1);
        let engine = server.into_engine();
        let four = ShardedFlatIndex::from_flat(&flat, 4);
        EpochServer::warm_start(engine, four, ServeConfig { shards: 2 });
    }

    #[test]
    #[should_panic(expected = "warm-start snapshot covers 3 vertices, but the engine has 4")]
    fn warm_start_rejects_a_snapshot_over_other_vertices() {
        // A triangle with a pendant vertex, served from the snapshot of a
        // 3-vertex path: the snapshot would answer SPC(0, 2) = (2, 1) where
        // the engine answers (1, 1), and a query naming vertex 3 would read
        // past its rows.
        let triangle = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let engine = DynamicSpc::build(triangle, OrderingStrategy::Degree);
        let path = DynamicSpc::build(
            UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]),
            OrderingStrategy::Degree,
        );
        let snapshot = ShardedFlatIndex::from_flat(&FlatIndex::freeze(path.index()), 1);
        EpochServer::warm_start(engine, snapshot, ServeConfig { shards: 1 });
    }

    #[test]
    #[should_panic(
        expected = "warm-start snapshot ranks vertex 1 at rank 0, but the engine ranks vertex 2 there"
    )]
    fn warm_start_rejects_a_snapshot_under_another_order() {
        // The same four vertices, but the path 0-1-2-3 orders them
        // [1, 2, 0, 3] by degree where the triangle with a pendant orders
        // them [2, 0, 1, 3]: the snapshot would answer SPC(0, 2) = (2, 1)
        // where the engine answers (1, 1).
        let triangle = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let engine = DynamicSpc::build(triangle, OrderingStrategy::Degree);
        let path = DynamicSpc::build(
            UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]),
            OrderingStrategy::Degree,
        );
        let snapshot = ShardedFlatIndex::from_flat(&FlatIndex::freeze(path.index()), 1);
        EpochServer::warm_start(engine, snapshot, ServeConfig { shards: 1 });
    }
}
