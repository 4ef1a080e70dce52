//! Experiment implementations — one module per table/figure of §4, plus
//! the ablations of §2.2 and §2.3.
//!
//! Every experiment takes a [`Config`] and returns its report as a string
//! (the `experiments` binary prints it; integration tests assert on it).

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig7;
pub mod fig89;
pub mod table3;
pub mod table4;
pub mod table5;

use crate::datasets::{Dataset, DATASETS};

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Vertex-count multiplier applied to every dataset.
    pub scale: f64,
    /// Number of edge insertions sampled per graph (paper: 1,000).
    pub insertions: usize,
    /// Number of edge deletions sampled per graph (paper: 50–100).
    pub deletions: usize,
    /// Number of query pairs sampled per graph (paper: 10,000).
    pub queries: usize,
    /// Restrict to these dataset keys (empty = all).
    pub only: Vec<String>,
    /// Workload seed.
    pub seed: u64,
}

impl Config {
    /// The default full-scale configuration.
    pub fn full() -> Self {
        Config {
            scale: 1.0,
            insertions: 200,
            deletions: 25,
            queries: 2000,
            only: Vec::new(),
            seed: 0xD5BC_2024,
        }
    }

    /// A fast smoke configuration (CI / quick runs).
    pub fn quick() -> Self {
        Config {
            scale: 0.25,
            insertions: 40,
            deletions: 8,
            queries: 400,
            only: Vec::new(),
            seed: 0xD5BC_2024,
        }
    }

    /// Datasets selected by this config.
    pub fn datasets(&self) -> Vec<&'static Dataset> {
        if self.only.is_empty() {
            DATASETS.iter().collect()
        } else {
            DATASETS
                .iter()
                .filter(|d| self.only.iter().any(|k| k.eq_ignore_ascii_case(d.key)))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_dataset_filter() {
        let mut cfg = Config::quick();
        assert_eq!(cfg.datasets().len(), 10);
        cfg.only = vec!["eua-s".into(), "IND-S".into()];
        let picked = cfg.datasets();
        assert_eq!(picked.len(), 2);
    }
}
