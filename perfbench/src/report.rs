//! The metric tables and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract with
//! `BENCHMARK.json` at the repository root: the same names, in the same
//! units. An untraced run prints every end-to-end metric, a traced run
//! every per-layer one; a layer a workload does not exercise reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("fanout_p50_us", "us"),
    ("update_throughput", "updates/s"),
    ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Counters are means
/// per batch of the kind the layer handles.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.hpspc_s", "s"),
    ("build.rebuild_same_order_s", "s"),
    ("build.maint_over_rebuild", "ratio"),
    ("index.entries", "count"),
    ("index.avg_label_len", "entries"),
    ("index.wide_bytes", "bytes"),
    ("index.flat_bytes", "bytes"),
    ("inc.apply_us_p50", "us"),
    ("inc.apply_us_p90", "us"),
    ("inc.renew_count", "count/batch"),
    ("inc.renew_dist", "count/batch"),
    ("inc.inserted", "count/batch"),
    ("inc.vertices_visited", "count/batch"),
    ("dec.apply_ms_p50", "ms"),
    ("dec.apply_ms_p90", "ms"),
    ("dec.classify_sweeps", "count/batch"),
    ("dec.multi_far_sweeps", "count/batch"),
    ("dec.agenda_hubs", "count/batch"),
    ("dec.hubs_processed", "count/batch"),
    ("dec.total_sweeps", "count/batch"),
    ("dec.vertices_visited", "count/batch"),
    ("dec.removed", "count/batch"),
    ("dec.ops_per_sweep", "ratio"),
    ("engine.waves", "count/batch"),
    ("engine.max_wave_width", "count"),
    ("engine.steal_events", "count/batch"),
    ("directed.apply_ms", "ms"),
    ("weighted.apply_ms", "ms"),
    ("directed.total_sweeps", "count/batch"),
    ("weighted.total_sweeps", "count/batch"),
    ("directed.freeze_ms", "ms"),
    ("weighted.freeze_ms", "ms"),
    ("flat.freeze_ms", "ms"),
    ("shard.split_ms", "ms"),
    ("query.live_us", "us"),
    ("flat.query_us", "us"),
    ("shard.query_us", "us"),
    ("flat.merge_steps_per_query", "count"),
    ("flat.common_hubs_per_query", "count"),
    ("traversal.bibfs_us", "us"),
    ("server.rotate_ms_p50", "ms"),
    ("server.rotate_ms_p90", "ms"),
    ("server.rotate_other_ms", "ms"),
    ("publish.refresh_us", "us"),
    ("publish.stale_read_share", "fraction"),
    ("journal.submit_us_p50", "us"),
    ("journal.submit_us_p90", "us"),
    ("journal.bytes_per_update", "bytes"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.replayed_batches", "count"),
    ("journal.recover_s", "s"),
    ("trace.writer_coverage", "fraction"),
];

/// The unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// Metric values by name; unmeasured entries of a table read 0.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The last line of the output: the contract's result object over one
/// metric table.
pub fn result_line(
    table: &[(&str, &str)],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).unwrap_or(0.0);
            // JSON has no NaN; an unmeasurable value is a bug upstream,
            // shown as 0 rather than breaking the line.
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_well_formed_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_lists_the_whole_table() {
        let mut v = Values::default();
        v.set("setup_s", 1.25);
        let line = result_line(END_TO_END, &v, true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
