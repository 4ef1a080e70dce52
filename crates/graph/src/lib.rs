//! # dspc-graph — dynamic graph substrate
//!
//! This crate provides every graph-side building block the DSPC paper
//! (Feng et al., *“DSPC: Efficiently Answering Shortest Path Counting on
//! Dynamic Graphs”*, EDBT 2024) depends on:
//!
//! * [`Graph<K>`](Graph) — one simple dynamic graph store, written once
//!   over a [`GraphKind`]: the id space, alive flags, sorted adjacency with
//!   both copies of every edge kept in step, vertex retirement and
//!   validation. Its three kinds are aliased:
//!   * [`UndirectedGraph`] — the paper's primary object: an undirected,
//!     unweighted dynamic graph supporting edge/vertex insertion and
//!     deletion,
//!   * [`DirectedGraph`] and [`WeightedGraph`] — the substrates of the
//!     paper's Appendix C extensions,
//! * [`generators`] — synthetic stand-ins for the paper's SNAP/Konect/LAW
//!   datasets (Erdős–Rényi, Barabási–Albert, Watts–Strogatz, power-law
//!   configuration model, and classic topologies),
//! * [`traversal`] — the online baselines: BFS shortest-path counting
//!   (Brandes-style), bidirectional BFS (**BiBFS**, the paper's query
//!   baseline), and Dijkstra counting for weighted graphs,
//! * [`io`] — SNAP-compatible edge-list reading and writing.
//!
//! Everything is deliberately free of `unsafe` and of external graph crates:
//! the DSPC algorithms need tight control over adjacency iteration order and
//! over vertex identity under deletion, so the representations are purpose
//! built.
//!
//! ## Quick example
//!
//! ```
//! use dspc_graph::{UndirectedGraph, VertexId};
//! use dspc_graph::traversal::bfs::BfsCounter;
//!
//! // The example graph H from Figure 1 of the paper.
//! let mut g = UndirectedGraph::with_vertices(5);
//! let (a, v2, b, v4, c) = (VertexId(0), VertexId(1), VertexId(2), VertexId(3), VertexId(4));
//! g.insert_edge(a, v2).unwrap();
//! g.insert_edge(v2, b).unwrap();
//! g.insert_edge(a, v4).unwrap();
//! g.insert_edge(v4, c).unwrap();
//! g.insert_edge(v2, c).unwrap();
//!
//! let mut bfs = BfsCounter::new(g.capacity());
//! // b and c are both at distance 2 from a, but c is reached by two
//! // shortest paths — the paper's motivating observation.
//! assert_eq!(bfs.count(&g, a, b), Some((2, 1)));
//! assert_eq!(bfs.count(&g, a, c), Some((2, 2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod directed;
pub mod error;
pub mod generators;
pub mod ids;
pub mod io;
pub mod scratch;
pub mod stats;
mod store;
pub mod traversal;
pub mod undirected;
pub mod weighted;

pub use directed::{Directed, DirectedGraph};
pub use error::GraphError;
pub use ids::VertexId;
pub use stats::GraphStats;
pub use store::{Graph, GraphKind};
pub use undirected::{Undirected, UndirectedGraph};
pub use weighted::{Weight, Weighted, WeightedGraph};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
