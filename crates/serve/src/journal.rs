//! Durability for the serving layer: a write-ahead batch journal, atomic
//! checkpoints, and crash recovery.
//!
//! ## On-disk layout
//!
//! A journal directory holds one *generation* of durable state plus the
//! commit pointer that names it:
//!
//! ```text
//! MANIFEST            commit pointer: magic ─ generation ─ epoch ─ crc64
//! state-<gen>.dspc    engine checkpoint ([`DurableEngine::encode_state`])
//! wal-<gen>.log       write-ahead log of everything since that checkpoint
//! ```
//!
//! The WAL is a sequence of records, each `len u32 │ crc64 u64 │ payload`,
//! with the crc over the payload. Payload op codes:
//!
//! | op | record | meaning |
//! |----|--------|---------|
//! | 1  | checkpoint header | first record of every WAL: generation, epoch, and the [`ServerStats`](crate::ServerStats) counters at checkpoint time |
//! | 2  | batch  | one submitted update batch, encoded via [`JournalUpdate`] |
//! | 3  | epoch marker | the batches since the previous marker were applied and published as this epoch |
//! | 4  | quarantine | the batches since the previous marker were rejected by a failed rotation — recovery must *not* replay them |
//!
//! ## The checkpoint protocol
//!
//! [`crate::EpochServer::checkpoint`] makes the generation switch crash-atomic by
//! ordering writes so every prefix is recoverable: (1) write
//! `state-<gen+1>` via temp-file + rename, (2) create `wal-<gen+1>` with
//! its header and a re-journaled copy of the still-pending batches,
//! (3) atomically rename `MANIFEST` — the commit point — and only then
//! (4) best-effort delete the old generation. A crash before (3) leaves
//! the old generation authoritative (the new files are orphans recovery
//! cleans up); a crash after (3) leaves the new generation authoritative.
//!
//! ## Recovery
//!
//! [`crate::EpochServer::recover`] reads `MANIFEST`, decodes the named state file
//! back into a live engine, and replays the WAL: every marker-terminated
//! group of batches is submitted and rotated exactly as the crashed server
//! rotated it (one coalesced `apply_batch` per epoch), quarantined groups
//! are skipped, and unmarked trailing batches are restored to the pending
//! buffer. A torn or checksum-corrupt *final* record (the crash interrupted
//! an append) is dropped and the WAL truncated to the last valid prefix;
//! corruption *before* the final record fails loudly with
//! [`JournalError::Corrupt`]. Because the state decode is exact (the graph
//! adjacency invariant is order-independent, and the decoded label rows
//! become the engine's rows bit-identically, shared until first written)
//! and replay regroups batches exactly as the live server
//! coalesced them, a recovered server answers queries and accumulates
//! maintenance counters bit-identically to one that never crashed —
//! `tests/fault_injection.rs` proves this for every scripted failpoint.

use crate::engine::ServingEngine;
use bytes::{BufMut, BytesMut};
use dspc::directed::ArcUpdate;
use dspc::dynamic::GraphUpdate;
use dspc::policy::MaintenancePolicy;
use dspc::serialize::{crc64, decode_flat, put_index_v2, v2_image_len, CodecError};
use dspc::weighted::WeightedUpdate;
use dspc::{DynamicSpc, MaintenanceCounters, MaintenanceThreads, OrderingStrategy};
use dspc_graph::{UndirectedGraph, VertexId};
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

const MANIFEST_MAGIC: &[u8; 8] = b"DSPCMANI";
const STATE_MAGIC: &[u8; 8] = b"DSPCSTAT";
// v2: the policy section gained the tiered re-rank fields
// (batched/local staleness thresholds and swap budgets).
const STATE_VERSION: u32 = 2;
const OP_CHECKPOINT: u8 = 1;
const OP_BATCH: u8 = 2;
const OP_EPOCH: u8 = 3;
const OP_QUARANTINE: u8 = 4;
/// Record framing overhead: `len u32` + `crc64 u64`.
const RECORD_HEADER: usize = 12;
/// Upper bound on a single record so a garbage length prefix cannot force
/// a huge allocation during parsing.
const MAX_RECORD_LEN: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong journaling, checkpointing, or recovering.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure from the filesystem.
    Io(io::Error),
    /// Durable bytes failed validation; `section` names what was damaged
    /// and `offset` is the byte position within that file.
    Corrupt {
        /// Which on-disk structure failed validation (`"manifest"`,
        /// `"state"`, `"wal-header"`, `"wal-record"`, `"wal-batch"`, ...).
        section: &'static str,
        /// Byte offset within the damaged file.
        offset: u64,
    },
    /// The embedded flat-index image failed to decode.
    Codec(CodecError),
    /// A journaled batch failed to re-apply during recovery — the WAL and
    /// the checkpointed state disagree (e.g. a quarantine record for a
    /// rejected batch was lost).
    ReplayFailed(String),
    /// A scripted [`Failpoint`] fired: the simulated crash the
    /// fault-injection harness asked for.
    InjectedCrash(Failpoint),
    /// The operation requires a journal but the server runs without one.
    NotJournaled,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { section, offset } => {
                write!(f, "corrupt journal '{section}' at byte {offset}")
            }
            JournalError::Codec(e) => write!(f, "corrupt checkpoint index image: {e}"),
            JournalError::ReplayFailed(msg) => write!(f, "WAL replay failed: {msg}"),
            JournalError::InjectedCrash(fp) => write!(f, "injected crash at {fp:?}"),
            JournalError::NotJournaled => write!(f, "server has no journal attached"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        JournalError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A scripted crash site inside the durability protocol. When armed (via
/// [`FaultPlan`]), reaching the site simulates a process kill: the
/// operation returns [`JournalError::InjectedCrash`] and the server drops
/// its journal handle — exactly the state a real crash leaves on disk,
/// with the in-memory server to be abandoned by the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failpoint {
    /// Die in `submit` *before* the batch reaches the WAL (the batch is
    /// lost — it was never acknowledged as durable).
    KillBeforeAppend,
    /// Die in `submit` *after* the WAL append + sync but before the batch
    /// enters the pending buffer (the batch is durable; recovery must
    /// restore it as pending).
    KillAfterAppend,
    /// Die in `checkpoint` after the new state file is written but before
    /// the `MANIFEST` commit (the old generation stays authoritative).
    KillAfterStateFile,
    /// Die in `checkpoint` after the `MANIFEST` commit but before the old
    /// generation is cleaned up (the new generation is authoritative).
    KillAfterManifest,
}

/// A deterministic schedule of [`Failpoint`]s: each armed failpoint fires
/// exactly once, in order, when its site is reached.
#[derive(Debug, Default)]
pub struct FaultPlan {
    armed: VecDeque<Failpoint>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `fp` after any previously armed failpoints.
    pub fn inject(mut self, fp: Failpoint) -> Self {
        self.armed.push_back(fp);
        self
    }

    /// Whether any failpoints remain armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Consumes and fires the next armed failpoint if it is `site`.
    pub(crate) fn fires(&mut self, site: Failpoint) -> bool {
        if self.armed.front() == Some(&site) {
            self.armed.pop_front();
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Update codecs
// ---------------------------------------------------------------------------

/// A self-describing binary codec for one update vocabulary — what lets a
/// WAL batch record hold any [`ServingEngine::Update`]. Encodings are
/// little-endian and fixed per variant; `decode` returns `None` on any
/// malformed or truncated input (the caller reports it as corruption).
pub trait JournalUpdate: Sized {
    /// Appends the binary form of `self`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes one update from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = buf.split_first()?;
    *buf = rest;
    Some(b)
}

fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    if buf.len() < 4 {
        return None;
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Some(u32::from_le_bytes(head.try_into().unwrap()))
}

fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    if buf.len() < 8 {
        return None;
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Some(u64::from_le_bytes(head.try_into().unwrap()))
}

impl JournalUpdate for GraphUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        match *self {
            GraphUpdate::InsertEdge(a, b) => {
                buf.put_u8(1);
                buf.put_u32_le(a.0);
                buf.put_u32_le(b.0);
            }
            GraphUpdate::DeleteEdge(a, b) => {
                buf.put_u8(2);
                buf.put_u32_le(a.0);
                buf.put_u32_le(b.0);
            }
            GraphUpdate::InsertVertex => buf.put_u8(3),
            GraphUpdate::DeleteVertex(v) => {
                buf.put_u8(4);
                buf.put_u32_le(v.0);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(match take_u8(buf)? {
            1 => GraphUpdate::InsertEdge(VertexId(take_u32(buf)?), VertexId(take_u32(buf)?)),
            2 => GraphUpdate::DeleteEdge(VertexId(take_u32(buf)?), VertexId(take_u32(buf)?)),
            3 => GraphUpdate::InsertVertex,
            4 => GraphUpdate::DeleteVertex(VertexId(take_u32(buf)?)),
            _ => return None,
        })
    }
}

impl JournalUpdate for ArcUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        match *self {
            ArcUpdate::InsertArc(a, b) => {
                buf.put_u8(1);
                buf.put_u32_le(a.0);
                buf.put_u32_le(b.0);
            }
            ArcUpdate::DeleteArc(a, b) => {
                buf.put_u8(2);
                buf.put_u32_le(a.0);
                buf.put_u32_le(b.0);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(match take_u8(buf)? {
            1 => ArcUpdate::InsertArc(VertexId(take_u32(buf)?), VertexId(take_u32(buf)?)),
            2 => ArcUpdate::DeleteArc(VertexId(take_u32(buf)?), VertexId(take_u32(buf)?)),
            _ => return None,
        })
    }
}

impl JournalUpdate for WeightedUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        match *self {
            WeightedUpdate::InsertEdge(a, b, w) => {
                buf.put_u8(1);
                buf.put_u32_le(a.0);
                buf.put_u32_le(b.0);
                buf.put_u32_le(w);
            }
            WeightedUpdate::DeleteEdge(a, b) => {
                buf.put_u8(2);
                buf.put_u32_le(a.0);
                buf.put_u32_le(b.0);
            }
            WeightedUpdate::SetWeight(a, b, w) => {
                buf.put_u8(3);
                buf.put_u32_le(a.0);
                buf.put_u32_le(b.0);
                buf.put_u32_le(w);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(match take_u8(buf)? {
            1 => WeightedUpdate::InsertEdge(
                VertexId(take_u32(buf)?),
                VertexId(take_u32(buf)?),
                take_u32(buf)?,
            ),
            2 => WeightedUpdate::DeleteEdge(VertexId(take_u32(buf)?), VertexId(take_u32(buf)?)),
            3 => WeightedUpdate::SetWeight(
                VertexId(take_u32(buf)?),
                VertexId(take_u32(buf)?),
                take_u32(buf)?,
            ),
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Durable engines
// ---------------------------------------------------------------------------

/// A serving engine whose complete live state round-trips through bytes —
/// the capability [`crate::EpochServer::checkpoint`] and [`crate::EpochServer::recover`]
/// require. `decode_state(encode_state())` must reconstruct an engine that
/// is *bit-identical* for all future behavior: same answers, same
/// maintenance counters on every subsequent batch.
pub trait DurableEngine: ServingEngine {
    /// Serializes the complete live state (graph, index, and every counter
    /// that influences future behavior).
    fn encode_state(&self) -> Vec<u8>;
    /// Reconstructs the engine from [`DurableEngine::encode_state`] bytes.
    fn decode_state(data: &[u8]) -> Result<Self, JournalError>
    where
        Self: Sized;
}

/// Upper bound on a state image's bytes outside the vertex slots, edge
/// list and v2 image: magic, version, kind, strategy, threads, update
/// pressure, the policy section, the re-rank totals, the three length
/// prefixes and the CRC.
const STATE_FIXED_LEN: usize = 288;
/// An image without a policy section: the engine runs
/// [`MaintenancePolicy::NEVER`] and its policy never rebuilt.
const STATE_KIND_DYNAMIC: u8 = 1;
/// An image with a policy section: the policy and its rebuild count.
const STATE_KIND_POLICY: u8 = 2;
/// An image with a policy section followed by the policy's cumulative
/// re-rank counters ([`DynamicSpc::rerank_totals`]), written only when
/// they are not all zero.
const STATE_KIND_RERANKED: u8 = 3;

fn encode_strategy(buf: &mut Vec<u8>, s: OrderingStrategy) {
    let (tag, seed) = match s {
        OrderingStrategy::Degree => (0u8, 0u64),
        OrderingStrategy::Identity => (1, 0),
        OrderingStrategy::Random(seed) => (2, seed),
    };
    buf.put_u8(tag);
    buf.put_u64_le(seed);
}

/// An optional field: a presence byte, then the value (0 when absent).
fn encode_option(buf: &mut Vec<u8>, field: Option<u64>) {
    buf.put_u8(field.is_some() as u8);
    buf.put_u64_le(field.unwrap_or(0));
}

impl DurableEngine for DynamicSpc {
    /// Builds the state image in one `Vec` sized up front, writing the v2
    /// image of the index straight from its rows into it
    /// ([`put_index_v2`]): the image is the only copy of the labels beside
    /// the live index. The policy section is written only when there is a
    /// policy, a rebuild count or re-rank totals to restore, and the totals
    /// only when they are not all zero.
    fn encode_state(&self) -> Vec<u8> {
        let policy = self.policy();
        let reranked = self.rerank_totals() != MaintenanceCounters::default();
        let with_policy = policy != MaintenancePolicy::NEVER || self.rebuilds() != 0 || reranked;
        let index = self.index();
        let image_len = v2_image_len(index.num_vertices(), index.num_entries());
        let g = self.graph();
        let mut buf =
            Vec::with_capacity(image_len + g.capacity() + 8 * g.num_edges() + STATE_FIXED_LEN);
        buf.put_slice(STATE_MAGIC);
        buf.put_u32_le(STATE_VERSION);
        buf.put_u8(match (reranked, with_policy) {
            (true, _) => STATE_KIND_RERANKED,
            (false, true) => STATE_KIND_POLICY,
            (false, false) => STATE_KIND_DYNAMIC,
        });
        encode_strategy(&mut buf, self.strategy());
        let fixed = match self.maintenance_threads() {
            MaintenanceThreads::Auto => None,
            MaintenanceThreads::Fixed(n) => Some(n as u64),
        };
        encode_option(&mut buf, fixed);
        buf.put_u64_le(self.updates_since_build() as u64);
        if with_policy {
            for field in [
                policy.max_updates.map(|n| n as u64),
                policy.max_staleness.map(f64::to_bits),
                policy.batched_staleness.map(f64::to_bits),
                policy.local_staleness.map(f64::to_bits),
            ] {
                encode_option(&mut buf, field);
            }
            buf.put_u64_le(policy.local_swap_budget as u64);
            buf.put_u64_le(policy.batched_swap_budget as u64);
            buf.put_u64_le(self.rebuilds() as u64);
        }
        if reranked {
            let t = self.rerank_totals();
            for count in [
                t.renew_count,
                t.renew_dist,
                t.inserted,
                t.removed,
                t.hubs_processed,
                t.classify_sweeps,
                t.multi_far_sweeps,
                t.vertices_visited,
                t.agenda_hubs,
                t.waves,
                t.max_wave_width,
                t.steal_events,
                t.rerank_swaps,
                t.rerank_sweeps,
                t.removal_probes,
                t.prune_probes,
            ] {
                buf.put_u64_le(count as u64);
            }
            buf.put_u8(t.isolated_fast_path as u8);
        }
        buf.put_u64_le(g.capacity() as u64);
        for slot in 0..g.capacity() {
            buf.put_u8(g.contains_vertex(VertexId(slot as u32)) as u8);
        }
        buf.put_u64_le(g.num_edges() as u64);
        for (u, v) in g.edges() {
            buf.put_u32_le(u.0);
            buf.put_u32_le(v.0);
        }
        buf.put_u64_le(image_len as u64);
        let image_start = buf.len();
        put_index_v2(index, &mut buf);
        debug_assert_eq!(buf.len() - image_start, image_len, "v2 image length");
        let crc = crc64(&buf);
        buf.put_u64_le(crc);
        buf
    }

    fn decode_state(data: &[u8]) -> Result<Self, JournalError> {
        let corrupt = |section| JournalError::Corrupt { section, offset: 0 };
        if data.len() < STATE_MAGIC.len() + 12 {
            return Err(corrupt("state"));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 8);
        if crc64(body) != u64::from_le_bytes(crc_bytes.try_into().unwrap()) {
            return Err(corrupt("state"));
        }
        let mut rd = body;
        let (magic, rest) = rd.split_at(STATE_MAGIC.len());
        rd = rest;
        if magic != STATE_MAGIC {
            return Err(corrupt("state"));
        }
        if take_u32(&mut rd).ok_or_else(|| corrupt("state"))? != STATE_VERSION {
            return Err(corrupt("state"));
        }
        let next = |rd: &mut &[u8]| take_u64(rd).ok_or_else(|| corrupt("state"));
        let kind = take_u8(&mut rd).ok_or_else(|| corrupt("state"))?;
        let strategy = {
            let tag = take_u8(&mut rd).ok_or_else(|| corrupt("state"))?;
            let seed = next(&mut rd)?;
            match tag {
                0 => OrderingStrategy::Degree,
                1 => OrderingStrategy::Identity,
                2 => OrderingStrategy::Random(seed),
                _ => return Err(corrupt("state")),
            }
        };
        let threads = {
            let tag = take_u8(&mut rd).ok_or_else(|| corrupt("state"))?;
            let n = next(&mut rd)?;
            match tag {
                0 => MaintenanceThreads::Auto,
                1 => MaintenanceThreads::Fixed(n as usize),
                _ => return Err(corrupt("state")),
            }
        };
        let updates_since_build = next(&mut rd)? as usize;
        let (policy, rebuilds) = match kind {
            STATE_KIND_DYNAMIC => (MaintenancePolicy::NEVER, 0),
            STATE_KIND_POLICY | STATE_KIND_RERANKED => {
                let opt = |rd: &mut &[u8]| -> Result<Option<u64>, JournalError> {
                    let flag = take_u8(rd).ok_or_else(|| corrupt("state"))?;
                    let v = take_u64(rd).ok_or_else(|| corrupt("state"))?;
                    Ok((flag == 1).then_some(v))
                };
                // Fields are read in the order they are written.
                let policy = MaintenancePolicy {
                    max_updates: opt(&mut rd)?.map(|n| n as usize),
                    max_staleness: opt(&mut rd)?.map(f64::from_bits),
                    batched_staleness: opt(&mut rd)?.map(f64::from_bits),
                    local_staleness: opt(&mut rd)?.map(f64::from_bits),
                    local_swap_budget: next(&mut rd)? as usize,
                    batched_swap_budget: next(&mut rd)? as usize,
                };
                (policy, next(&mut rd)? as usize)
            }
            _ => return Err(corrupt("state")),
        };
        let rerank_totals = if kind == STATE_KIND_RERANKED {
            let mut count = || next(&mut rd).map(|n| n as usize);
            // Fields are read in the order they are written.
            MaintenanceCounters {
                renew_count: count()?,
                renew_dist: count()?,
                inserted: count()?,
                removed: count()?,
                hubs_processed: count()?,
                classify_sweeps: count()?,
                multi_far_sweeps: count()?,
                vertices_visited: count()?,
                agenda_hubs: count()?,
                waves: count()?,
                max_wave_width: count()?,
                steal_events: count()?,
                rerank_swaps: count()?,
                rerank_sweeps: count()?,
                removal_probes: count()?,
                prune_probes: count()?,
                isolated_fast_path: take_u8(&mut rd).ok_or_else(|| corrupt("state"))? != 0,
            }
        } else {
            MaintenanceCounters::default()
        };
        let capacity = next(&mut rd)? as usize;
        if rd.len() < capacity {
            return Err(corrupt("state"));
        }
        let (alive, rest) = rd.split_at(capacity);
        rd = rest;
        // Rebuild the graph exactly: the adjacency invariant (sorted neighbor
        // lists) makes the final representation independent of insertion
        // order, so replaying the edge list reconstructs it bit-for-bit.
        let mut graph = UndirectedGraph::with_vertices(capacity);
        for (slot, &flag) in alive.iter().enumerate() {
            if flag == 0 {
                graph
                    .delete_vertex(VertexId(slot as u32))
                    .map_err(|_| corrupt("state"))?;
            }
        }
        let edges = next(&mut rd)? as usize;
        for _ in 0..edges {
            let u = VertexId(take_u32(&mut rd).ok_or_else(|| corrupt("state"))?);
            let v = VertexId(take_u32(&mut rd).ok_or_else(|| corrupt("state"))?);
            graph
                .insert_edge(u, v)
                .map_err(|e| JournalError::ReplayFailed(format!("state edge list: {e}")))?;
        }
        let flat_len = next(&mut rd)? as usize;
        if rd.len() != flat_len {
            return Err(corrupt("state"));
        }
        let flat = decode_flat(rd)?;
        if flat.num_vertices() != graph.capacity() {
            return Err(corrupt("state"));
        }
        // The decoded rows become the engine's, shared until first written.
        let mut d = DynamicSpc::from_parts(graph, flat.thaw(), strategy);
        d.set_maintenance_threads(threads);
        d.set_policy(policy);
        d.restore_counts(updates_since_build, rebuilds, rerank_totals);
        Ok(d)
    }
}

// ---------------------------------------------------------------------------
// Paths, manifest, atomic writes
// ---------------------------------------------------------------------------

pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

pub(crate) fn state_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("state-{generation}.dspc"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// The path of the currently authoritative WAL in `dir` (per `MANIFEST`).
/// The fault-injection harness uses this to tear and bit-flip records.
pub fn current_wal_path(dir: impl AsRef<Path>) -> Result<PathBuf, JournalError> {
    let dir = dir.as_ref();
    let (generation, _) = read_manifest(dir)?;
    Ok(wal_path(dir, generation))
}

/// Writes `data` to `path` atomically: temp file, sync, rename, sync dir.
pub(crate) fn write_atomic(path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

fn write_manifest(dir: &Path, generation: u64, epoch: u64) -> Result<(), JournalError> {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u64_le(generation);
    buf.put_u64_le(epoch);
    let crc = crc64(&buf);
    buf.put_u64_le(crc);
    write_atomic(&manifest_path(dir), &buf)?;
    Ok(())
}

fn read_manifest(dir: &Path) -> Result<(u64, u64), JournalError> {
    let data = fs::read(manifest_path(dir))?;
    let corrupt = JournalError::Corrupt {
        section: "manifest",
        offset: 0,
    };
    if data.len() != 32 || &data[..8] != MANIFEST_MAGIC {
        return Err(corrupt);
    }
    let (body, crc_bytes) = data.split_at(24);
    if crc64(body) != u64::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Err(corrupt);
    }
    let generation = u64::from_le_bytes(data[8..16].try_into().unwrap());
    let epoch = u64::from_le_bytes(data[16..24].try_into().unwrap());
    Ok((generation, epoch))
}

/// Removes orphan generation files a mid-checkpoint crash left behind
/// (anything not belonging to the authoritative generation). Best-effort.
pub(crate) fn remove_orphans(dir: &Path, keep_generation: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let keep_state = state_path(dir, keep_generation);
    let keep_wal = wal_path(dir, keep_generation);
    for entry in entries.flatten() {
        let path = entry.path();
        if path == keep_state || path == keep_wal || path == manifest_path(dir) {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("state-") || name.starts_with("wal-") || name.ends_with(".tmp") {
            let _ = fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// The checkpoint header and WAL records
// ---------------------------------------------------------------------------

/// The counters a WAL's checkpoint-header record carries: the server's
/// aggregate statistics at checkpoint time, restored verbatim on recovery
/// so a recovered server's [`ServerStats`](crate::ServerStats) match a
/// never-crashed one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CheckpointHeader {
    pub generation: u64,
    pub epoch: u64,
    pub rotations: u64,
    pub updates_applied: u64,
    pub rejected_updates: u64,
    pub quarantined_rotations: u64,
    pub replayed_batches: u64,
    pub journal_bytes: u64,
}

impl CheckpointHeader {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(OP_CHECKPOINT);
        for v in [
            self.generation,
            self.epoch,
            self.rotations,
            self.updates_applied,
            self.rejected_updates,
            self.quarantined_rotations,
            self.replayed_batches,
            self.journal_bytes,
        ] {
            buf.put_u64_le(v);
        }
    }

    fn decode(body: &mut &[u8]) -> Option<Self> {
        Some(CheckpointHeader {
            generation: take_u64(body)?,
            epoch: take_u64(body)?,
            rotations: take_u64(body)?,
            updates_applied: take_u64(body)?,
            rejected_updates: take_u64(body)?,
            quarantined_rotations: take_u64(body)?,
            replayed_batches: take_u64(body)?,
            journal_bytes: take_u64(body)?,
        })
    }
}

fn frame_record(payload: &[u8]) -> BytesMut {
    let mut framed = BytesMut::with_capacity(RECORD_HEADER + payload.len());
    framed.put_u32_le(payload.len() as u32);
    framed.put_u64_le(crc64(payload));
    framed.put_slice(payload);
    framed
}

fn encode_batch_record<U: JournalUpdate>(batch: &[U]) -> BytesMut {
    let mut payload = BytesMut::with_capacity(1 + 4 + 16 * batch.len());
    payload.put_u8(OP_BATCH);
    payload.put_u32_le(batch.len() as u32);
    for u in batch {
        u.encode(&mut payload);
    }
    frame_record(&payload)
}

// ---------------------------------------------------------------------------
// The journal writer
// ---------------------------------------------------------------------------

/// The append end of a write-ahead log: owns the open WAL file of the
/// current generation. Created by [`crate::EpochServer::with_journal`], replaced
/// by [`crate::EpochServer::checkpoint`], reattached by [`crate::EpochServer::recover`].
pub struct Journal<U> {
    dir: PathBuf,
    generation: u64,
    writer: BufWriter<File>,
    _updates: PhantomData<fn(&U)>,
}

impl<U: JournalUpdate> Journal<U> {
    /// Creates `wal-<generation>.log` with its checkpoint-header record
    /// plus one batch record per `pending` batch (the still-unapplied
    /// submissions a checkpoint must carry forward). Returns the journal
    /// and the bytes written.
    fn create(
        dir: &Path,
        header: &CheckpointHeader,
        pending: &[U],
    ) -> Result<(Self, u64), JournalError> {
        let mut payload = BytesMut::with_capacity(80);
        header.encode(&mut payload);
        let mut bytes = frame_record(&payload);
        if !pending.is_empty() {
            let rec = encode_batch_record(pending);
            bytes.put_slice(&rec);
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(wal_path(dir, header.generation))?;
        let mut writer = BufWriter::new(file);
        writer.write_all(&bytes)?;
        writer.flush()?;
        writer.get_ref().sync_data()?;
        Ok((
            Journal {
                dir: dir.to_path_buf(),
                generation: header.generation,
                writer,
                _updates: PhantomData,
            },
            bytes.len() as u64,
        ))
    }

    /// Reopens `wal-<generation>.log` for appending, truncated to
    /// `valid_len` (recovery discards any torn tail first).
    pub(crate) fn reattach(
        dir: &Path,
        generation: u64,
        valid_len: u64,
    ) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(wal_path(dir, generation))?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            generation,
            writer: BufWriter::new(file),
            _updates: PhantomData,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The generation this journal extends.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn append(&mut self, framed: &[u8]) -> Result<u64, JournalError> {
        self.writer.write_all(framed)?;
        Ok(framed.len() as u64)
    }

    /// Appends one batch record. Returns the bytes written (call
    /// [`Journal::sync`] to make them durable).
    pub(crate) fn append_batch(&mut self, batch: &[U]) -> Result<u64, JournalError> {
        let rec = encode_batch_record(batch);
        self.append(&rec)
    }

    /// Appends an epoch marker: every batch record since the previous
    /// marker was applied and published as `epoch`.
    pub(crate) fn append_epoch(&mut self, epoch: u64) -> Result<u64, JournalError> {
        let mut payload = BytesMut::with_capacity(9);
        payload.put_u8(OP_EPOCH);
        payload.put_u64_le(epoch);
        let rec = frame_record(&payload);
        self.append(&rec)
    }

    /// Appends a quarantine marker: every batch record since the previous
    /// marker was rejected by a failed rotation and must not be replayed.
    pub(crate) fn append_quarantine(&mut self) -> Result<u64, JournalError> {
        let rec = frame_record(&[OP_QUARANTINE]);
        self.append(&rec)
    }

    /// Flushes buffered appends and fsyncs the WAL file.
    pub(crate) fn sync(&mut self) -> Result<(), JournalError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }
}

impl<U> Drop for Journal<U> {
    fn drop(&mut self) {
        // Best-effort: push buffered bytes to the OS so a clean drop loses
        // nothing (crash durability is per-append sync, not this).
        let _ = self.writer.flush();
    }
}

// ---------------------------------------------------------------------------
// WAL parsing
// ---------------------------------------------------------------------------

/// Everything recovery learns from one WAL.
#[derive(Debug)]
pub(crate) struct WalReplay<U> {
    pub header: CheckpointHeader,
    /// Marker-terminated groups: the batches of each committed epoch, in
    /// rotation order.
    pub epochs: Vec<Vec<Vec<U>>>,
    /// Batches after the last marker: journaled but never applied —
    /// restored to the pending buffer.
    pub pending: Vec<Vec<U>>,
    /// Failed rotations recorded by quarantine markers.
    pub quarantine_events: u64,
    /// Updates voided by those quarantine markers.
    pub quarantined_updates: u64,
    /// Bytes of torn/corrupt tail dropped from the end of the WAL.
    pub dropped_tail_bytes: u64,
    /// Length of the valid prefix (the WAL is truncated to this before
    /// appends resume).
    pub valid_len: u64,
}

pub(crate) fn parse_wal<U: JournalUpdate>(data: &[u8]) -> Result<WalReplay<U>, JournalError> {
    let mut header: Option<CheckpointHeader> = None;
    let mut epochs: Vec<Vec<Vec<U>>> = Vec::new();
    let mut current: Vec<Vec<U>> = Vec::new();
    let mut quarantine_events = 0u64;
    let mut quarantined_updates = 0u64;
    let mut pos = 0usize;
    let mut valid_len = 0usize;
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < RECORD_HEADER {
            break; // torn tail: incomplete frame header
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let crc = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().unwrap());
        if len > MAX_RECORD_LEN || remaining - RECORD_HEADER < len as usize {
            break; // torn tail: truncated payload (or garbage length)
        }
        let end = pos + RECORD_HEADER + len as usize;
        let payload = &data[pos + RECORD_HEADER..end];
        if crc64(payload) != crc {
            if end == data.len() {
                break; // corrupt final record: drop like a torn tail
            }
            // Corruption with intact records after it is not a crash
            // artifact — refuse to guess.
            return Err(JournalError::Corrupt {
                section: "wal-record",
                offset: pos as u64,
            });
        }
        let corrupt = |section| JournalError::Corrupt {
            section,
            offset: pos as u64,
        };
        let mut body = payload;
        let op = take_u8(&mut body).ok_or_else(|| corrupt("wal-record"))?;
        match (op, header.is_some()) {
            (OP_CHECKPOINT, false) => {
                header =
                    Some(CheckpointHeader::decode(&mut body).ok_or_else(|| corrupt("wal-header"))?);
            }
            (OP_CHECKPOINT, true) | (_, false) => {
                return Err(corrupt("wal-header"));
            }
            (OP_BATCH, true) => {
                let count = take_u32(&mut body).ok_or_else(|| corrupt("wal-batch"))?;
                // Every update takes at least one byte: a damaged count
                // must not size the allocation.
                let mut batch = Vec::with_capacity((count as usize).min(body.len()));
                for _ in 0..count {
                    batch.push(U::decode(&mut body).ok_or_else(|| corrupt("wal-batch"))?);
                }
                if !body.is_empty() {
                    return Err(corrupt("wal-batch"));
                }
                current.push(batch);
            }
            (OP_EPOCH, true) => {
                let epoch = take_u64(&mut body).ok_or_else(|| corrupt("wal-epoch"))?;
                let expected = header
                    .as_ref()
                    .unwrap()
                    .epoch
                    .checked_add(epochs.len() as u64 + 1);
                if Some(epoch) != expected {
                    return Err(corrupt("wal-epoch"));
                }
                epochs.push(std::mem::take(&mut current));
            }
            (OP_QUARANTINE, true) => {
                quarantine_events += 1;
                quarantined_updates += current.iter().map(|b| b.len() as u64).sum::<u64>();
                current.clear();
            }
            _ => return Err(corrupt("wal-record")),
        }
        pos = end;
        valid_len = end;
    }
    let header = header.ok_or(JournalError::Corrupt {
        section: "wal-header",
        offset: 0,
    })?;
    Ok(WalReplay {
        header,
        epochs,
        pending: current,
        quarantine_events,
        quarantined_updates,
        dropped_tail_bytes: (data.len() - valid_len) as u64,
        valid_len: valid_len as u64,
    })
}

// ---------------------------------------------------------------------------
// Recovery report + checkpoint plumbing used by server.rs
// ---------------------------------------------------------------------------

/// What [`crate::EpochServer::recover`] did.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// The generation recovered from.
    pub generation: u64,
    /// The epoch at the recovered checkpoint.
    pub checkpoint_epoch: u64,
    /// The epoch after WAL replay (the server resumes here).
    pub resumed_epoch: u64,
    /// Journaled batches replayed (committed epochs + restored pending).
    pub replayed_batches: u64,
    /// Committed epoch groups re-rotated during replay.
    pub replayed_rotations: u64,
    /// Updates restored to the pending buffer (journaled, never applied).
    pub restored_pending_updates: usize,
    /// Updates skipped because a quarantine marker voided them.
    pub quarantined_updates_skipped: u64,
    /// Torn/corrupt tail bytes dropped from the WAL.
    pub dropped_tail_bytes: u64,
}

/// Stages 2+3 of a checkpoint: the new generation's WAL (header plus the
/// re-journaled pending batches), then the `MANIFEST` commit. Returns the
/// new journal and the WAL bytes written.
pub(crate) fn commit_checkpoint<U: JournalUpdate>(
    dir: &Path,
    header: &CheckpointHeader,
    pending: &[U],
) -> Result<(Journal<U>, u64), JournalError> {
    let (journal, bytes) = Journal::create(dir, header, pending)?;
    write_manifest(dir, header.generation, header.epoch)?;
    Ok((journal, bytes))
}

/// Reads the authoritative generation: `(generation, epoch, state bytes,
/// wal bytes)`.
pub(crate) fn load_generation(dir: &Path) -> Result<(u64, u64, Vec<u8>, Vec<u8>), JournalError> {
    let (generation, epoch) = read_manifest(dir)?;
    let state = fs::read(state_path(dir, generation))?;
    let wal = fs::read(wal_path(dir, generation))?;
    Ok((generation, epoch, state, wal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspc::serialize::encode_flat;
    use dspc::FlatIndex;
    use dspc_graph::scratch::ScratchDir;

    fn sample_updates() -> Vec<GraphUpdate> {
        vec![
            GraphUpdate::InsertEdge(VertexId(3), VertexId(9)),
            GraphUpdate::DeleteEdge(VertexId(1), VertexId(2)),
            GraphUpdate::InsertVertex,
            GraphUpdate::DeleteVertex(VertexId(7)),
        ]
    }

    #[test]
    fn update_codecs_round_trip() {
        let mut buf = BytesMut::with_capacity(64);
        for u in sample_updates() {
            u.encode(&mut buf);
        }
        let mut rd: &[u8] = &buf;
        for u in sample_updates() {
            assert_eq!(GraphUpdate::decode(&mut rd), Some(u));
        }
        assert!(rd.is_empty());
        assert_eq!(GraphUpdate::decode(&mut rd), None, "empty input");
        let mut bad: &[u8] = &[9];
        assert_eq!(GraphUpdate::decode(&mut bad), None, "unknown tag");

        let arcs = [
            ArcUpdate::InsertArc(VertexId(0), VertexId(5)),
            ArcUpdate::DeleteArc(VertexId(5), VertexId(0)),
        ];
        let weighted = [
            WeightedUpdate::InsertEdge(VertexId(1), VertexId(2), 7),
            WeightedUpdate::DeleteEdge(VertexId(1), VertexId(2)),
            WeightedUpdate::SetWeight(VertexId(2), VertexId(3), 11),
        ];
        let mut buf = BytesMut::with_capacity(64);
        arcs.iter().for_each(|u| u.encode(&mut buf));
        let mut rd: &[u8] = &buf;
        for u in arcs {
            assert_eq!(ArcUpdate::decode(&mut rd), Some(u));
        }
        let mut buf = BytesMut::with_capacity(64);
        weighted.iter().for_each(|u| u.encode(&mut buf));
        let mut rd: &[u8] = &buf;
        for u in weighted {
            assert_eq!(WeightedUpdate::decode(&mut rd), Some(u));
        }
    }

    #[test]
    fn wal_parse_handles_groups_quarantine_and_torn_tail() {
        let header = CheckpointHeader {
            generation: 3,
            epoch: 5,
            ..CheckpointHeader::default()
        };
        let mut payload = BytesMut::with_capacity(80);
        header.encode(&mut payload);
        let mut wal = frame_record(&payload);
        // Epoch 6: two batches, committed.
        wal.put_slice(&encode_batch_record(&[GraphUpdate::InsertEdge(
            VertexId(0),
            VertexId(1),
        )]));
        wal.put_slice(&encode_batch_record(&[GraphUpdate::InsertEdge(
            VertexId(1),
            VertexId(2),
        )]));
        let mut p = BytesMut::with_capacity(9);
        p.put_u8(OP_EPOCH);
        p.put_u64_le(6);
        wal.put_slice(&frame_record(&p));
        // A rejected batch, quarantined.
        wal.put_slice(&encode_batch_record(&[GraphUpdate::DeleteEdge(
            VertexId(8),
            VertexId(9),
        )]));
        wal.put_slice(&frame_record(&[OP_QUARANTINE]));
        // A pending batch with no marker.
        wal.put_slice(&encode_batch_record(&[GraphUpdate::InsertVertex]));
        let clean_len = wal.len();
        // A torn final record: only half of a frame made it to disk.
        let torn = encode_batch_record(&[GraphUpdate::InsertEdge(VertexId(2), VertexId(3))]);
        wal.put_slice(&torn[..torn.len() / 2]);

        let replay: WalReplay<GraphUpdate> = parse_wal(&wal).unwrap();
        assert_eq!(replay.header, header);
        assert_eq!(replay.epochs.len(), 1);
        assert_eq!(replay.epochs[0].len(), 2);
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0], vec![GraphUpdate::InsertVertex]);
        assert_eq!(replay.quarantine_events, 1);
        assert_eq!(replay.quarantined_updates, 1);
        assert_eq!(replay.valid_len as usize, clean_len);
        assert_eq!(replay.dropped_tail_bytes as usize, wal.len() - clean_len);
    }

    #[test]
    fn wal_parse_rejects_mid_file_corruption_but_drops_final_bitflip() {
        let header = CheckpointHeader::default();
        let mut payload = BytesMut::with_capacity(80);
        header.encode(&mut payload);
        let mut wal = frame_record(&payload).to_vec();
        let first_end = wal.len();
        let rec = encode_batch_record(&[GraphUpdate::InsertEdge(VertexId(0), VertexId(1))]);
        wal.extend_from_slice(&rec);
        let second_end = wal.len();
        wal.extend_from_slice(&encode_batch_record(&[GraphUpdate::InsertVertex]));

        // Bit-flip inside the FINAL record's payload: dropped as a crash
        // artifact, everything before it survives.
        let mut flipped_last = wal.clone();
        let last = flipped_last.len() - 1;
        flipped_last[last] ^= 0x40;
        let replay: WalReplay<GraphUpdate> = parse_wal(&flipped_last).unwrap();
        assert_eq!(replay.pending.len(), 1, "first batch survives");
        assert_eq!(replay.valid_len as usize, second_end);
        assert!(replay.dropped_tail_bytes > 0);

        // The same flip mid-file (with intact records after it) is a hard
        // error naming the damaged record's offset.
        let mut flipped_mid = wal.clone();
        flipped_mid[second_end - 1] ^= 0x40;
        match parse_wal::<GraphUpdate>(&flipped_mid) {
            Err(JournalError::Corrupt { section, offset }) => {
                assert_eq!(section, "wal-record");
                assert_eq!(offset as usize, first_end);
            }
            other => panic!("expected mid-file corruption error, got {other:?}"),
        }
    }

    #[test]
    fn wal_parse_rejects_an_epoch_past_u64_max() {
        let header = CheckpointHeader {
            epoch: u64::MAX,
            ..CheckpointHeader::default()
        };
        let mut payload = BytesMut::with_capacity(80);
        header.encode(&mut payload);
        let mut wal = frame_record(&payload);
        let mut p = BytesMut::with_capacity(9);
        p.put_u8(OP_EPOCH);
        p.put_u64_le(0);
        wal.put_slice(&frame_record(&p));
        match parse_wal::<GraphUpdate>(&wal) {
            Err(JournalError::Corrupt { section, .. }) => assert_eq!(section, "wal-epoch"),
            other => panic!("expected an epoch error, got {other:?}"),
        }
    }

    #[test]
    fn recovery_rejects_header_counters_that_overflow() {
        let scratch = ScratchDir::new("dspc_journal_overflow").unwrap();
        let dir = scratch.path();
        let engine = DynamicSpc::build(
            UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]),
            OrderingStrategy::Degree,
        );
        write_atomic(&state_path(dir, 1), &engine.encode_state()).unwrap();
        let header = CheckpointHeader {
            generation: 1,
            journal_bytes: u64::MAX,
            ..CheckpointHeader::default()
        };
        commit_checkpoint::<GraphUpdate>(dir, &header, &[]).unwrap();
        match crate::EpochServer::<DynamicSpc>::recover(dir, crate::ServeConfig { shards: 1 }).err()
        {
            Some(JournalError::Corrupt { section, .. }) => assert_eq!(section, "wal-header"),
            other => panic!("expected a header error, got {other:?}"),
        }
    }

    #[test]
    fn wal_parse_requires_a_header_first() {
        let lone = encode_batch_record(&[GraphUpdate::InsertVertex]);
        match parse_wal::<GraphUpdate>(&lone) {
            Err(JournalError::Corrupt { section, .. }) => assert_eq!(section, "wal-header"),
            other => panic!("expected header error, got {other:?}"),
        }
        // An empty file has no header either.
        assert!(parse_wal::<GraphUpdate>(&[]).is_err());
    }

    #[test]
    fn fault_plan_fires_in_order_and_once() {
        let mut plan = FaultPlan::new()
            .inject(Failpoint::KillAfterAppend)
            .inject(Failpoint::KillAfterManifest);
        assert!(!plan.fires(Failpoint::KillBeforeAppend));
        assert!(!plan.fires(Failpoint::KillAfterManifest), "not yet first");
        assert!(plan.fires(Failpoint::KillAfterAppend));
        assert!(plan.fires(Failpoint::KillAfterManifest));
        assert!(plan.is_empty());
        assert!(!plan.fires(Failpoint::KillAfterManifest), "fires once");
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let scratch = dspc_graph::scratch::ScratchDir::new("dspc-journal-unit").unwrap();
        let dir = scratch.path();
        write_manifest(dir, 4, 17).unwrap();
        assert_eq!(read_manifest(dir).unwrap(), (4, 17));
        // Flip a byte of the generation: crc catches it.
        let path = manifest_path(dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[9] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_manifest(dir),
            Err(JournalError::Corrupt {
                section: "manifest",
                ..
            })
        ));
    }

    #[test]
    fn dynamic_state_round_trips_exactly() {
        use dspc_graph::UndirectedGraph;
        let g = UndirectedGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
        d.set_maintenance_threads(MaintenanceThreads::Fixed(2));
        d.insert_edge(VertexId(0), VertexId(3)).unwrap();
        d.delete_vertex(VertexId(5)).unwrap();
        let bytes = d.encode_state();
        let r = DynamicSpc::decode_state(&bytes).unwrap();
        assert_eq!(r.updates_since_build(), d.updates_since_build());
        assert_eq!(r.maintenance_threads(), MaintenanceThreads::Fixed(2));
        assert_eq!(r.strategy(), d.strategy());
        assert_eq!(r.graph().num_edges(), d.graph().num_edges());
        for s in d.graph().vertices() {
            for t in d.graph().vertices() {
                assert_eq!(r.query(s, t), d.query(s, t));
            }
        }
        // Identical future behavior: the same batch yields the same
        // counters on both.
        let mut r = r;
        let batch = [
            GraphUpdate::InsertEdge(VertexId(1), VertexId(4)),
            GraphUpdate::DeleteEdge(VertexId(0), VertexId(3)),
        ];
        assert_eq!(
            d.apply_batch(&batch).unwrap(),
            r.apply_batch(&batch).unwrap()
        );

        // Corruption is caught by the trailing crc.
        let mut bad = d.encode_state();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            DynamicSpc::decode_state(&bad),
            Err(JournalError::Corrupt {
                section: "state",
                ..
            })
        ));
    }

    #[test]
    fn managed_state_round_trips_policy_and_rebuilds() {
        use dspc_graph::UndirectedGraph;
        let kind = |bytes: &[u8]| bytes[STATE_MAGIC.len() + 4];
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut m = DynamicSpc::build(g, OrderingStrategy::Random(42));
        m.set_policy(MaintenancePolicy::every(3));
        for (a, b) in [(0, 2), (0, 3), (1, 3), (2, 4)] {
            m.apply(GraphUpdate::InsertEdge(VertexId(a), VertexId(b)))
                .unwrap();
        }
        assert_eq!((m.rebuilds(), m.updates_since_build()), (1, 1));
        let bytes = m.encode_state();
        assert_eq!(kind(&bytes), STATE_KIND_POLICY);
        let mut r = DynamicSpc::decode_state(&bytes).unwrap();
        assert_eq!(r.policy(), m.policy());
        assert_eq!(r.rebuilds(), m.rebuilds());
        assert_eq!(r.updates_since_build(), m.updates_since_build());
        assert_eq!(r.strategy(), OrderingStrategy::Random(42));
        // A rebuild count alone still writes the policy section; only an
        // engine with neither writes the policy-less kind.
        r.set_policy(MaintenancePolicy::NEVER);
        let bytes = r.encode_state();
        assert_eq!(kind(&bytes), STATE_KIND_POLICY);
        let r = DynamicSpc::decode_state(&bytes).unwrap();
        assert_eq!((r.policy(), r.rebuilds()), (MaintenancePolicy::NEVER, 1));
        let plain = DynamicSpc::build(r.graph().clone(), OrderingStrategy::Degree);
        assert_eq!(kind(&plain.encode_state()), STATE_KIND_DYNAMIC);
    }

    #[test]
    fn reranked_state_round_trips_its_totals() {
        use dspc_graph::UndirectedGraph;
        let kind = |bytes: &[u8]| bytes[STATE_MAGIC.len() + 4];
        let g = UndirectedGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3)]);
        let mut m = DynamicSpc::build(g, OrderingStrategy::Degree);
        // Every field distinct, so a swapped pair of fields shows.
        let totals = MaintenanceCounters {
            renew_count: 1,
            renew_dist: 2,
            inserted: 3,
            removed: 4,
            hubs_processed: 5,
            classify_sweeps: 6,
            multi_far_sweeps: 7,
            vertices_visited: 8,
            agenda_hubs: 9,
            waves: 10,
            max_wave_width: 11,
            steal_events: 12,
            isolated_fast_path: true,
            rerank_swaps: 13,
            rerank_sweeps: 14,
            removal_probes: 15,
            prune_probes: 16,
        };
        m.restore_counts(5, 0, totals);
        let bytes = m.encode_state();
        assert_eq!(kind(&bytes), STATE_KIND_RERANKED);
        let r = DynamicSpc::decode_state(&bytes).unwrap();
        assert_eq!(r.rerank_totals(), totals);
        assert_eq!((r.policy(), r.rebuilds()), (MaintenancePolicy::NEVER, 0));
        assert_eq!(r.updates_since_build(), 5);
        // The most fixed fields an image carries still fit the capacity
        // the encoder reserves.
        let g = m.graph();
        let flat_len = encode_flat(&FlatIndex::freeze(m.index())).len();
        let payload = flat_len + g.capacity() + 8 * g.num_edges();
        assert!(bytes.len() <= payload + STATE_FIXED_LEN);
    }

    #[test]
    fn state_fits_its_up_front_capacity() {
        use dspc_graph::UndirectedGraph;
        // An image with a policy section carries the most fixed fields.
        // Were the image to outgrow the capacity the encoder reserves, the
        // final push would reallocate and hold the index a third time.
        let g = UndirectedGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3)]);
        let mut m = DynamicSpc::build(g, OrderingStrategy::Random(7));
        m.set_policy(MaintenancePolicy::every(3));
        let g = m.graph();
        let flat_len = encode_flat(&FlatIndex::freeze(m.index())).len();
        let payload = flat_len + g.capacity() + 8 * g.num_edges();
        assert!(m.encode_state().len() <= payload + STATE_FIXED_LEN);
    }
}
