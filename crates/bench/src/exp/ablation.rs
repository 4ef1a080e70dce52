//! Ablations of two design choices the paper argues for, which no table or
//! figure of §4 isolates:
//!
//! * **§2.3 — update sweeps from `SR` hubs only.** DecSPC repairs from the
//!   `SR` hubs of Definition 3.10. The naive alternative reuses the
//!   affected set of shortest-distance maintenance and sweeps from every
//!   vertex of `SR ∪ R` ([`DecMode::NaiveAffected`]). Every sampled
//!   deletion runs under both modes, on one thread, from the same freshly
//!   built index, and is set against rebuilding the index at the same
//!   vertex order.
//! * **§2.2 — degree ordering.** HP-SPC ranks high-degree vertices first,
//!   so their sweeps prune the later ones early. The same graph is built
//!   under the `Degree`, `Identity` and `Random` orders. A poor order makes
//!   the index, and its construction time, grow far faster than the graph,
//!   so this part runs its dataset at a tenth of the configured scale.

use crate::datasets::Dataset;
use crate::exp::Config;
use crate::stats::{fmt_duration, Table};
use crate::workload::sample_deletions;
use dspc::dec::{DecMode, DecSpc};
use dspc::{build_index, rebuild_index, OrderingStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Dataset of the §2.3 deletion ablation.
const DEC_DATASET: &str = "NTD-S";
/// Dataset of the §2.2 ordering ablation.
const ORDER_DATASET: &str = "GOO-S";
/// Scale of the ordering ablation, relative to the configured one.
const ORDER_SCALE: f64 = 0.1;

/// Renders both ablations, each only if `--datasets` keeps its dataset.
pub fn run(cfg: &Config) -> String {
    let mut out = Vec::new();
    for d in cfg.datasets() {
        match d.key {
            DEC_DATASET => out.push(dec_modes(d, cfg)),
            ORDER_DATASET => out.push(orders(d, cfg)),
            _ => {}
        }
    }
    out.join("\n")
}

/// The §2.3 ablation: per deletion, the hubs each mode sweeps from, its
/// time, and that time over a same-order rebuild.
fn dec_modes(d: &Dataset, cfg: &Config) -> String {
    let g0 = d.generate(cfg.scale);
    let index0 = build_index(&g0, OrderingStrategy::Degree);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ d.seed ^ 0xAB_23);
    let deletions = sample_deletions(&g0, cfg.deletions.min(g0.num_edges()), &mut rng);
    let mut engine = DecSpc::new(g0.capacity());
    let modes = [DecMode::SrOnly, DecMode::NaiveAffected];
    let mut hubs = [0usize; 2];
    let mut times = [Duration::ZERO; 2];
    let mut rebuild = Duration::ZERO;
    for &(a, b) in &deletions {
        for (i, &mode) in modes.iter().enumerate() {
            let (mut g, mut index) = (g0.clone(), index0.clone());
            let t = Instant::now();
            let (stats, _) = engine
                .delete_edge_with_mode(&mut g, &mut index, a, b, mode, 1)
                .expect("sampled edge");
            times[i] += t.elapsed();
            hubs[i] += stats.hubs_processed;
        }
        let mut g = g0.clone();
        g.delete_edge(a, b).expect("sampled edge");
        let t = Instant::now();
        let rebuilt = rebuild_index(&g, index0.ranks().clone());
        rebuild += t.elapsed();
        drop(rebuilt);
    }
    let k = deletions.len().max(1);
    let per = |total: Duration| total / k as u32;
    let ratio = |total: Duration| {
        if rebuild.is_zero() {
            "-".to_string()
        } else {
            format!("{:.2}x", total.as_secs_f64() / rebuild.as_secs_f64())
        }
    };
    let mut t = Table::new(&["sweeps from", "hubs swept", "time", "/ rebuild"]);
    for (i, name) in ["SR (DecSPC)", "SR ∪ R (naive)"].into_iter().enumerate() {
        t.row(vec![
            name.to_string(),
            format!("{:.1}", hubs[i] as f64 / k as f64),
            fmt_duration(per(times[i])),
            ratio(times[i]),
        ]);
    }
    t.row(vec![
        "rebuild, same order".to_string(),
        "-".to_string(),
        fmt_duration(per(rebuild)),
        ratio(rebuild),
    ]);
    format!(
        "Ablation (§2.3): DecSPC Update Sweeps from SR Hubs vs Every Affected Vertex\n\
         {} (n={}, m={}): {} deletions, mean per deletion, 1 thread\n{}",
        d.key,
        g0.num_vertices(),
        g0.num_edges(),
        deletions.len(),
        t.render()
    )
}

/// The §2.2 ablation: HP-SPC build time and index size per vertex order.
fn orders(d: &Dataset, cfg: &Config) -> String {
    let g = d.generate(cfg.scale * ORDER_SCALE);
    let mut t = Table::new(&["order", "build time", "entries", "avg label"]);
    for (name, strategy) in [
        ("Degree (HP-SPC)", OrderingStrategy::Degree),
        ("Identity", OrderingStrategy::Identity),
        ("Random", OrderingStrategy::Random(cfg.seed)),
    ] {
        let t0 = Instant::now();
        let index = build_index(&g, strategy);
        let time = t0.elapsed();
        let stats = index.stats();
        t.row(vec![
            name.to_string(),
            fmt_duration(time),
            stats.entries.to_string(),
            format!("{:.1}", stats.avg_label_len),
        ]);
    }
    format!(
        "Ablation (§2.2): HP-SPC Construction under Three Vertex Orders\n\
         {} (n={}, m={})\n{}",
        d.key,
        g.num_vertices(),
        g.num_edges(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_ablations_render() {
        let cfg = Config {
            scale: 0.05,
            deletions: 3,
            ..Config::quick()
        };
        let out = run(&cfg);
        for needle in [
            "§2.3",
            "NTD-S",
            "SR ∪ R (naive)",
            "rebuild, same order",
            "§2.2",
            "GOO-S",
            "Identity",
            "Random",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in\n{out}");
        }
        let only_orders = run(&Config {
            only: vec!["goo-s".into()],
            ..cfg
        });
        assert!(only_orders.contains("§2.2") && !only_orders.contains("§2.3"));
    }
}
