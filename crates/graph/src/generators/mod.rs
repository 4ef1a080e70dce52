//! Synthetic graph generators.
//!
//! The paper evaluates on ten web-scale SNAP/Konect/LAW graphs that cannot be
//! downloaded in this environment, so the benchmark harness substitutes
//! synthetic generators whose structural properties (scale-free degree skew,
//! small diameter, dense cores) drive the same algorithmic behaviour — the
//! dataset registry of the `dspc-bench` crate (`crates/bench/src/datasets.rs`)
//! gives the substitution argument.
//!
//! Three families are provided:
//!
//! * [`classic`] — deterministic topologies (paths, cycles, stars, grids,
//!   complete graphs, trees) used heavily by unit and property tests,
//! * [`random`] — Erdős–Rényi, Barabási–Albert, Watts–Strogatz, and
//!   power-law configuration models used by the experiment harness,
//! * [`paper`] — the exact example graphs from the paper's figures, used as
//!   golden fixtures (Figure 2's graph `G` together with its published
//!   SPC-Index in Table 2).

pub mod classic;
pub mod paper;
pub mod random;

pub use classic::{
    complete_graph, cycle_graph, grid_graph, path_graph, star_graph, two_cliques_bridge,
};
pub use paper::{figure1_h, figure2_g, figure4_toy, figure5_chain};
pub use random::{
    barabasi_albert, erdos_renyi_gnm, erdos_renyi_gnp, powerlaw_configuration, random_tree,
    random_weights, watts_strogatz,
};
