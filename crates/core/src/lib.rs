//! # dspc — Dynamic Shortest Path Counting
//!
//! A from-scratch Rust implementation of the EDBT 2024 paper *“DSPC:
//! Efficiently Answering Shortest Path Counting on Dynamic Graphs”* (Feng,
//! Peng, Zhang, Lin, Zhang), including its substrate, the SPC-Index of
//! Zhang & Yu (SIGMOD 2020).
//!
//! ## What this crate provides
//!
//! * **SPC-Index** ([`index::SpcIndex`]) — a 2-hop hub labeling that answers
//!   `spc(s, t)` (number of shortest paths) and `sd(s, t)` (shortest
//!   distance) for any vertex pair by scanning two label sets
//!   ([`query::spc_query`], Algorithm 1 of the paper). One label store,
//!   [`index::LabelIndex`], holds it for every variant, and one
//!   [`flat::Snapshot`] publishes it to readers.
//! * **HP-SPC** ([`build`]) — hub-pushing index construction over a degree
//!   ranked vertex order ([`order`]).
//! * **[`engine::UpdateEngine`]** — the generic hub-ordered maintenance
//!   core: one implementation of the renew/insert/remove machinery shared
//!   by every variant, parameterized over [`engine::LabelTopology`] views.
//! * **IncSPC** ([`inc`]) — incremental maintenance under edge/vertex
//!   insertion (Algorithms 2–3), as a thin policy over the engine.
//! * **DecSPC** ([`dec`]) — decremental maintenance under edge/vertex
//!   deletion, via the `SR`/`R` affected-vertex machinery (Algorithms 4–6),
//!   likewise engine-backed.
//! * **[`dynamic::Dynamic`]** — the facade tying a graph and its index
//!   together, written once over [`engine::Variant`]: apply updates one by
//!   one, stream them, or coalesce them into epochs with
//!   [`dynamic::Dynamic::apply_batch`] (insert + delete of the same edge
//!   cancels before any repair runs), and hand each epoch to readers with
//!   [`dynamic::Dynamic::publish`]. [`DynamicSpc`] is the undirected
//!   instance.
//! * **Extensions** — directed graphs ([`directed`], Appendix C.1,
//!   [`directed::DynamicDirectedSpc`]) and weighted graphs ([`weighted`],
//!   Appendix C.2, [`weighted::DynamicWeightedSpc`]): the same facade over
//!   another variant.
//! * **Verification** ([`verify`]) — BFS-backed oracles used by the test
//!   suite to prove ESPC correctness of every maintained index.
//!
//! ## Quickstart
//!
//! ```
//! use dspc::dynamic::DynamicSpc;
//! use dspc::order::OrderingStrategy;
//! use dspc_graph::{UndirectedGraph, VertexId};
//!
//! // The toy social network from Figure 1 of the paper.
//! let g = UndirectedGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 4)]);
//! let mut dspc = DynamicSpc::build(g, OrderingStrategy::Degree);
//!
//! // c (vertex 4) is reachable from a (vertex 0) by two shortest paths,
//! // b (vertex 3) by one: recommend c first.
//! assert_eq!(dspc.query(VertexId(0), VertexId(4)), Some((2, 2)));
//! assert_eq!(dspc.query(VertexId(0), VertexId(3)), Some((2, 1)));
//!
//! // The graph evolves: a new friendship appears and one disappears —
//! // the index follows without reconstruction.
//! dspc.insert_edge(VertexId(0), VertexId(3)).unwrap();
//! assert_eq!(dspc.query(VertexId(0), VertexId(3)), Some((1, 1)));
//! dspc.delete_edge(VertexId(1), VertexId(4)).unwrap();
//! assert_eq!(dspc.query(VertexId(0), VertexId(4)), Some((2, 1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod dec;
pub mod directed;
pub mod dynamic;
pub mod engine;
pub mod flat;
pub mod inc;
pub mod index;
pub mod label;
pub mod order;
pub mod parallel;
pub mod paths;
pub mod policy;
pub mod query;
pub mod reorder;
pub mod serialize;
pub mod shard;
pub mod verify;
pub mod weighted;

pub use build::{build_index, rebuild_index};
pub use dynamic::{Dynamic, DynamicSpc, GraphUpdate, UpdateStats};
pub use engine::MaintenanceCounters;
pub use flat::{
    DirectedFlatIndex, FlatIndex, FlatScratch, KernelCounters, Snapshot, WeightedFlatIndex,
};
pub use index::{IndexStats, LabelIndex, SpcIndex};
pub use label::{Count, LabelEntry, LabelSet, Rank, INF_DIST};
pub use order::{OrderingStrategy, RankMap};
pub use parallel::{MaintenanceThreads, QueryEngine};
pub use query::{pre_query, spc_query, QueryResult};
pub use reorder::rerank_adjacent;
pub use shard::{EpochSnapshot, ShardedFlatIndex};
