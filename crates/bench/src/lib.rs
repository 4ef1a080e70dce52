//! # dspc-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4) on the
//! synthetic dataset registry (see [`datasets`] for the substitution
//! rationale), and the ablations behind two of its design choices:
//!
//! | Experiment | Module | Command |
//! |---|---|---|
//! | Table 3 (dataset stats) | [`exp::table3`] | `experiments table3` |
//! | Table 4 (size/time/updates) | [`exp::table4`] | `experiments table4` |
//! | Figure 7(a,b,c) (distributions) | [`exp::fig7`] | `experiments fig7` |
//! | Figure 8 (inc label ops) | [`exp::fig89`] | `experiments fig8` |
//! | Figure 9 (dec label ops) | [`exp::fig89`] | `experiments fig9` |
//! | Figure 10 (streaming) | [`exp::fig10`] | `experiments fig10` |
//! | Figure 11 (skewed degrees) | [`exp::fig11`] | `experiments fig11` |
//! | Table 5 (SR/R sizes) | [`exp::table5`] | `experiments table5` |
//! | §2.3 (SR-only vs naive sweeps), §2.2 (vertex order) | [`exp::ablation`] | `experiments ablation` |
//!
//! `experiments all` runs the shared protocol once and prints everything;
//! `--quick` shrinks scale and sample counts for smoke runs. The
//! `bench_smoke` binary is the deterministic counter gate CI runs.

pub mod datasets;
pub mod exp;
pub mod recovery;
pub mod runner;
pub mod serving;
pub mod stats;
pub mod workload;
