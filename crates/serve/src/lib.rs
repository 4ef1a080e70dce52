//! # dspc-serve — the epoch-rotation serving layer
//!
//! The paper's batch-update contract (§5: updates coalesce to their net
//! effect and apply as one atomic epoch; queries between epochs answer
//! against the kept-stale labels of the last epoch) is exactly the shape of
//! a snapshot-rotation server. This crate productionizes that contract:
//!
//! * **Readers** hold a [`Reader`] handle onto an atomically published
//!   chain of [`EpochSnapshot`]-stamped snapshots: immutable label rows
//!   shared with the live index ([`dspc::Snapshot`], one type for every
//!   variant, with per-shard counter attribution).
//!   Queries are served from the reader's pinned snapshot with **no locks
//!   anywhere on the read path**; advancing to a newer epoch is a wait-free
//!   walk of atomically-set forward pointers. Each reader keeps its last
//!   source row loaded in a hub probe (`dspc::query::RowPin`), so lookups
//!   from one source scan only the target's row.
//! * **A single writer** ([`EpochServer`]) owns the live dynamic facade,
//!   buffers incoming updates, applies them off the read path as one
//!   coalesced batch per rotation (`apply_batch` → the `NetPlan` batch
//!   planner), publishes the repaired index — sharing every label row the
//!   batch left unchanged, so a rotation costs `O(n + entries changed)` —
//!   and appends the new snapshot to the chain: a pointer swap, never a
//!   rebuild of anything a reader is holding.
//! * **Epoch stamps make serving testable.** Every answer carries the
//!   epoch of the snapshot that produced it, so a concurrent test harness
//!   can check each answer against the *exact* epoch the reader legally
//!   observed — not probabilistically, exactly
//!   (`tests/serving_epochs.rs` at the workspace root).
//!
//! The writer may run on the owning thread (deterministic, replayable —
//! what the `bench_smoke` serving phase drives) or on a dedicated thread
//! behind a command channel ([`EpochServer::spawn`] → [`WriterHandle`]).
//!
//! **Durability** ([`journal`] module): a server built with
//! [`EpochServer::with_journal`] write-ahead journals every submitted
//! batch (length-prefixed, CRC-64 checksummed, fsynced before the batch is
//! acknowledged), stamps an epoch marker at each successful rotation, and
//! checkpoints on demand — snapshotting the engine through the v2 columnar
//! codec and truncating the log. [`EpochServer::recover`] boots from the
//! last checkpoint and replays the journal, producing a server
//! bit-identical — answers *and* maintenance counters — to one that never
//! crashed. Failures are contained, not fatal: a batch that fails
//! validation (or panics the engine) is quarantined and handed back in
//! [`RotationError::rejected`] while readers keep serving the last good
//! epoch, and a dead writer thread surfaces as [`WriterError`] instead of
//! a panic. The whole story is exercised by a deterministic [`FaultPlan`]
//! crash schedule (`tests/fault_injection.rs` at the workspace root).
//!
//! ```
//! use dspc::dynamic::GraphUpdate;
//! use dspc::{DynamicSpc, OrderingStrategy};
//! use dspc_graph::{UndirectedGraph, VertexId};
//! use dspc_serve::{EpochServer, ServeConfig};
//!
//! let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let engine = DynamicSpc::build(g, OrderingStrategy::Degree);
//! let mut server = EpochServer::new(engine, ServeConfig { shards: 2 });
//!
//! let mut reader = server.reader(); // epoch 0 snapshot
//! let (epoch, r) = reader.query(VertexId(0), VertexId(3));
//! assert_eq!((epoch, r.as_option()), (0, Some((3, 1))));
//!
//! // The writer batches updates and rotates; the reader still answers
//! // from its pinned epoch-0 snapshot until it refreshes.
//! server.submit([GraphUpdate::InsertEdge(VertexId(0), VertexId(3))]).unwrap();
//! server.rotate().unwrap();
//! assert_eq!(reader.query(VertexId(0), VertexId(3)).0, 0); // pinned
//! assert_eq!(reader.refresh(), 1);
//! let (epoch, r) = reader.query(VertexId(0), VertexId(3));
//! assert_eq!((epoch, r.as_option()), (1, Some((1, 1))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod journal;
mod publish;
mod runtime;
mod server;

pub use engine::{ServingEngine, ServingSnapshot};
pub use journal::{
    current_wal_path, DurableEngine, Failpoint, FaultPlan, Journal, JournalError, JournalUpdate,
    RecoveryReport,
};
pub use publish::{Publisher, Subscription};
pub use runtime::{RotateError, WriterError, WriterHandle};
pub use server::{
    EpochServer, Reader, RotationError, RotationFailure, RotationReport, ServeConfig, ServerStats,
    SubmitError,
};

pub use dspc::shard::EpochSnapshot;
