//! The deterministic CI perf lane: a small, seeded update workload whose
//! *engine counters* (sweeps, label operations, removal probes) are
//! machine-independent — unlike wall-clock numbers, they can gate a PR
//! without flakiness.
//!
//! ```text
//! bench_smoke [--out PATH] [--check BASELINE] [--threshold PCT]
//! ```
//!
//! Writes a flat JSON report (`--out`, default `BENCH_pr.json`) and, when
//! `--check` names a baseline report, fails (exit 1) if a gated counter
//! (`total_sweeps` and `multi_far_sweeps` for maintenance,
//! `removal_probes` for the DecSPC removal pass, `prune_probes` for the
//! label entries the repair sweeps' prune tests read, `merge_steps` for
//! the query kernel, and the churn, serving and recovery gates below)
//! regressed by more than `--threshold` percent (default 5).
//!
//! The workload runs maintenance at `MaintenanceThreads::Fixed(2)`, and
//! then again at `Fixed(1)`. The two follow different schedules: at one
//! thread each repair sweep runs alone, at two they speculate in blocks of
//! sixteen and commit in rank order, re-running the sweeps an earlier
//! commit invalidated. Both must leave every report key equal, and the
//! tool exits 1 naming each key that differs. So every counter is
//! identical on any host and at any actual core count, and the written
//! report is the `Fixed(2)` run's.
//!
//! After the maintenance epochs each scenario runs a query phase: a seeded
//! pair workload evaluated through both the live label sets and a
//! snapshot (a [`dspc::FlatIndex`] copy of the columns for the undirected
//! scenario, the facade's published rows for the others). The phase
//! panics on any result divergence and reports the kernel's deterministic
//! work units — `merge_steps`, `common_hubs`, and the columnar layout's
//! `label_bytes_per_entry`.
//!
//! A churn phase drives a degree-migrating stream through a tiered re-rank
//! policy, a rebuild-every-epoch twin and a never-maintained twin. Gated
//! counters: `churn_rerank_sweeps` and `churn_rerank_visited` (the re-rank
//! work, and the vertices its re-push sweeps dequeue) and
//! `churn_entries_tiered` (index size against the rebuilt twin's).
//!
//! A final serving phase replays the scripted epoch-rotation loop of
//! [`dspc_bench::serving`]: a seeded hybrid stream drained through
//! `EpochServer` rotations while a reader fleet on a scripted refresh
//! cadence answers from published snapshots, and one 64-target fan-out
//! per epoch runs on a separate reader. Its `serve_*` counters are
//! deterministic; the gates on this phase are `serve_merge_steps`,
//! `serve_fanout_merge_steps` (the fan-outs, where a reader's pinned
//! source row is kept across lookups) and `serve_rows_copied` (label rows
//! each rotation's publication copied instead of sharing), all
//! *normalized by* `serve_rotations`, so adding rotations to the scenario
//! never masks a per-epoch regression.
//!
//! A recovery phase then runs the scripted crash/recover cycle of
//! [`dspc_bench::recovery`]: a journaled server checkpointed mid-stream
//! and killed, recovered, and proven bit-identical to its never-crashed
//! twin. Gated counters: `recover_replayed_batches` (the recovery path
//! must keep replaying exactly the committed post-checkpoint work — a
//! drop means recovery silently skips durable batches, a rise means the
//! checkpoint stopped truncating) and `journal_bytes_per_update` (the
//! WAL's write amplification).

use dspc::directed::{directed_spc_query, ArcUpdate, DynamicDirectedSpc};
use dspc::dynamic::GraphUpdate;
use dspc::policy::MaintenancePolicy;
use dspc::query::spc_query_counted;
use dspc::weighted::{weighted_spc_query, DynamicWeightedSpc, WeightedUpdate};
use dspc::{
    DynamicSpc, FlatIndex, FlatScratch, KernelCounters, MaintenanceThreads, OrderingStrategy,
    UpdateStats,
};
use dspc_bench::recovery::RecoveryReplayConfig;
use dspc_bench::serving::ServingReplayConfig;
use dspc_graph::generators::random::{
    barabasi_albert, erdos_renyi_gnm, random_orientation, random_weights,
};
use dspc_graph::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The budget the written report runs at; the thread-independence check
/// replays the workload at `Fixed(1)`.
const THREADS: MaintenanceThreads = MaintenanceThreads::Fixed(2);

fn usage() -> ! {
    eprintln!("usage: bench_smoke [--out PATH] [--check BASELINE] [--threshold PCT]");
    std::process::exit(2)
}

/// Accumulates one scenario's counters into the flat report.
fn absorb(report: &mut BTreeMap<String, u64>, stats: &UpdateStats) {
    let add = |m: &mut BTreeMap<String, u64>, k: &str, v: usize| {
        *m.entry(k.to_string()).or_insert(0) += v as u64;
    };
    add(report, "total_sweeps", stats.total_sweeps());
    add(report, "classify_sweeps", stats.classify_sweeps);
    add(report, "multi_far_sweeps", stats.multi_far_sweeps);
    add(report, "agenda_hubs", stats.agenda_hubs);
    add(report, "hubs_processed", stats.hubs_processed);
    add(report, "total_ops", stats.total_ops());
    add(report, "renew_count", stats.renew_count);
    add(report, "renew_dist", stats.renew_dist);
    add(report, "inserted", stats.inserted);
    add(report, "removed", stats.removed);
    add(report, "vertices_visited", stats.vertices_visited);
    add(report, "removal_probes", stats.removal_probes);
    add(report, "prune_probes", stats.prune_probes);
}

/// Seeded query pairs over an `n`-vertex id space.
fn query_pairs(n: u32, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))))
        .collect()
}

/// Folds one scenario's kernel counters into the report.
fn absorb_queries(report: &mut BTreeMap<String, u64>, counters: &KernelCounters) {
    *report.entry("query_pairs".to_string()).or_insert(0) += counters.queries;
    *report.entry("merge_steps".to_string()).or_insert(0) += counters.merge_steps;
    *report.entry("common_hubs".to_string()).or_insert(0) += counters.common_hubs;
}

/// Undirected scenario: a scale-free graph under mixed deletion epochs —
/// hub-incident batches (the amortization case) plus scattered edges.
fn undirected(report: &mut BTreeMap<String, u64>, threads: MaintenanceThreads) {
    let mut rng = StdRng::seed_from_u64(0xD59C);
    let g = barabasi_albert(420, 3, &mut rng);
    let mut d = DynamicSpc::build(g, OrderingStrategy::Degree);
    d.set_maintenance_threads(threads);
    for epoch in 0..6 {
        let mut ops = Vec::new();
        let m = d.graph().num_edges();
        for i in 0..8usize {
            let (a, b) = d.graph().nth_edge((epoch * 53 + i * 17) % m).unwrap();
            if !ops
                .iter()
                .any(|o| matches!(o, GraphUpdate::DeleteEdge(x, y) if (*x, *y) == (a, b)))
            {
                ops.push(GraphUpdate::DeleteEdge(a, b));
            }
        }
        // A couple of inserts so epochs stay mixed.
        for _ in 0..2 {
            loop {
                let a = VertexId(rng.gen_range(0..420));
                let b = VertexId(rng.gen_range(0..420));
                if a != b && !d.graph().has_edge(a, b) {
                    ops.push(GraphUpdate::InsertEdge(a, b));
                    break;
                }
            }
        }
        absorb(report, &d.apply_batch(&ops).expect("valid epoch"));
    }
    *report.entry("label_entries".to_string()).or_insert(0) += d.index().num_entries() as u64;

    // Query phase: the live counted kernel and a columnar copy of the
    // index must produce identical results AND identical deterministic
    // work counters (merge steps, common hubs) on a seeded pair workload.
    let pairs = query_pairs(420, 512, 0xF1A7);
    let mut live_c = KernelCounters::new();
    let live: Vec<_> = pairs
        .iter()
        .map(|&(s, t)| spc_query_counted(d.index(), &mut live_c, s, t))
        .collect();
    let flat = FlatIndex::freeze(d.index());
    let mut flat_c = KernelCounters::new();
    let mut scratch = FlatScratch::new();
    for (k, &(s, t)) in pairs.iter().enumerate() {
        assert_eq!(
            flat.query_counted(&mut scratch, &mut flat_c, s, t),
            live[k],
            "flat/live query divergence at {s:?}->{t:?}"
        );
    }
    assert_eq!(live_c, flat_c, "flat/live kernel counter divergence");
    absorb_queries(report, &flat_c);
    // Columnar bytes per entry (hub + dist + count columns): the flat
    // layout's storage density, pinned at 16 for unweighted labels.
    let bpe = flat.entry_column_bytes() / flat.num_entries().max(1);
    report.insert("label_bytes_per_entry".to_string(), bpe as u64);
}

/// Directed scenario: pure arc-deletion epochs on a sparse digraph.
fn directed(report: &mut BTreeMap<String, u64>, threads: MaintenanceThreads) {
    let mut rng = StdRng::seed_from_u64(0xD1AC);
    let base = erdos_renyi_gnm(160, 480, &mut rng);
    let g = random_orientation(&base, 0.25, &mut rng);
    let mut d = DynamicDirectedSpc::build(g, OrderingStrategy::Degree);
    d.set_maintenance_threads(threads);
    for epoch in 0..4 {
        let arcs: Vec<_> = d.graph().arcs().collect();
        let mut ops = Vec::new();
        for i in 0..6usize {
            let (a, b) = arcs[(epoch * 97 + i * 31) % arcs.len()];
            if !ops
                .iter()
                .any(|o| matches!(o, ArcUpdate::DeleteArc(x, y) if (*x, *y) == (a, b)))
            {
                ops.push(ArcUpdate::DeleteArc(a, b));
            }
        }
        absorb(report, &d.apply_batch(&ops).expect("valid epoch"));
    }
    *report.entry("label_entries".to_string()).or_insert(0) += d.index().num_entries() as u64;

    // Query phase against the published `L_out(s) × L_in(t)` snapshot.
    let pairs = query_pairs(160, 384, 0xDA7A);
    let live: Vec<_> = pairs
        .iter()
        .map(|&(s, t)| directed_spc_query(d.index(), s, t))
        .collect();
    let flat = d.publish(1);
    let mut flat_c = KernelCounters::new();
    let mut scratch = FlatScratch::new();
    for (k, &(s, t)) in pairs.iter().enumerate() {
        assert_eq!(
            flat.query_counted(&mut scratch, std::slice::from_mut(&mut flat_c), s, t),
            live[k],
            "flat/live directed query divergence at {s:?}->{t:?}"
        );
    }
    absorb_queries(report, &flat_c);
}

/// Weighted scenario: deletion epochs on a weighted sparse graph.
fn weighted(report: &mut BTreeMap<String, u64>, threads: MaintenanceThreads) {
    let mut rng = StdRng::seed_from_u64(0x3E1);
    let base = erdos_renyi_gnm(140, 420, &mut rng);
    let g = random_weights(&base, 5, &mut rng);
    let mut d = DynamicWeightedSpc::build(g, OrderingStrategy::Degree);
    d.set_maintenance_threads(threads);
    for epoch in 0..4 {
        let edges: Vec<_> = d.graph().edges().collect();
        let mut ops = Vec::new();
        for i in 0..6usize {
            let (a, b, _) = edges[(epoch * 89 + i * 23) % edges.len()];
            if !ops
                .iter()
                .any(|o| matches!(o, WeightedUpdate::DeleteEdge(x, y) if (*x, *y) == (a, b)))
            {
                ops.push(WeightedUpdate::DeleteEdge(a, b));
            }
        }
        absorb(report, &d.apply_batch(&ops).expect("valid epoch"));
    }
    *report.entry("label_entries".to_string()).or_insert(0) += d.index().num_entries() as u64;

    // Query phase against the published weighted (u64-distance) snapshot.
    let pairs = query_pairs(140, 384, 0x5EED);
    let live: Vec<_> = pairs
        .iter()
        .map(|&(s, t)| weighted_spc_query(d.index(), s, t))
        .collect();
    let flat = d.publish(1);
    let mut flat_c = KernelCounters::new();
    let mut scratch = FlatScratch::new();
    for (k, &(s, t)) in pairs.iter().enumerate() {
        assert_eq!(
            flat.query_counted(&mut scratch, std::slice::from_mut(&mut flat_c), s, t),
            live[k],
            "flat/live weighted query divergence at {s:?}->{t:?}"
        );
    }
    absorb_queries(report, &flat_c);
}

/// Bridged scenario: a cut vertex joins four wheels; severing every
/// bridge in one epoch leaves the wheels in disjoint residual components —
/// one agenda whose hubs span four components, each repaired and each
/// removal pass walked in rank order.
fn bridged(report: &mut BTreeMap<String, u64>, threads: MaintenanceThreads) {
    let rim = 10u32;
    let wheels = 4u32;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::new();
    for w in 0..wheels {
        let center = 1 + w * (rim + 1);
        edges.push((0, center));
        ops.push(GraphUpdate::DeleteEdge(VertexId(0), VertexId(center)));
        for i in 0..rim {
            let v = center + 1 + i;
            edges.push((center, v));
            edges.push((v, center + 1 + (i + 1) % rim));
        }
    }
    let n = 1 + wheels * (rim + 1);
    let g = dspc_graph::UndirectedGraph::from_edges(n as usize, &edges);
    // Identity order ranks the cut vertex 0 highest: all four bridge
    // deletions share it as an endpoint and repair as one agenda.
    let mut d = DynamicSpc::build(g, OrderingStrategy::Identity);
    d.set_maintenance_threads(threads);
    absorb(report, &d.apply_batch(&ops).expect("valid epoch"));
    *report.entry("label_entries".to_string()).or_insert(0) += d.index().num_entries() as u64;
}

/// Churn phase: a long degree-migrating update stream driven through
/// three twins — a tiered re-rank policy, a rebuild-after-every-epoch
/// baseline, and the NEVER policy. The phase hard-fails unless the tiered
/// maintainer (a) never full-rebuilds and (b) holds its index within 5%
/// of the rebuild-fresh twin's label entries, while its whole response is
/// bounded re-rank work (`churn_rerank_swaps` / `churn_rerank_sweeps`, and
/// `churn_rerank_visited`: the vertices those re-push sweeps dequeued, so a
/// sweep that prunes less shows even when it emits the same labels).
/// The NEVER twin's entry count is reported alongside as the bloat the
/// re-ranks avoided. Gated counters: `churn_rerank_sweeps`,
/// `churn_rerank_visited` and `churn_entries_tiered`.
fn churn(report: &mut BTreeMap<String, u64>, threads: MaintenanceThreads) {
    let mut rng = StdRng::seed_from_u64(0xC4DE);
    let g = barabasi_albert(300, 3, &mut rng);
    let epochs = dspc_bench::workload::churn_stream(&g, 30, 6, &mut rng);

    let managed = |policy: MaintenancePolicy| {
        let mut d = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
        d.set_maintenance_threads(threads);
        d.set_policy(policy);
        d
    };
    // The churn displaces rising vertices by ~100 rank positions per epoch
    // (each must bubble past the whole degree-tie band), so the batched
    // tier needs a budget on the order of the total displacement — the
    // replan loop stops early once staleness drops under the threshold.
    let mut tiered = managed(MaintenancePolicy {
        batched_swap_budget: 4096,
        ..MaintenancePolicy::tiered(0.02, 0.08, 0.95)
    });
    let mut never = managed(MaintenancePolicy::NEVER);
    let mut fresh = DynamicSpc::build(g.clone(), OrderingStrategy::Degree);
    fresh.set_maintenance_threads(threads);
    for batch in &epochs {
        tiered.apply_batch(batch).expect("valid churn epoch");
        never.apply_batch(batch).expect("valid churn epoch");
        fresh.apply_batch(batch).expect("valid churn epoch");
        fresh.rebuild();
    }
    let entries_tiered = tiered.index().num_entries() as u64;
    let entries_never = never.index().num_entries() as u64;
    let entries_fresh = fresh.index().num_entries() as u64;
    assert_eq!(
        tiered.rebuilds(),
        0,
        "tiered policy must absorb the churn without a full rebuild"
    );
    let drift = (entries_tiered as f64 - entries_fresh as f64) / entries_fresh as f64 * 100.0;
    assert!(
        drift <= 5.0,
        "tiered index drifted {drift:.2}% above rebuild-fresh ({entries_tiered} vs {entries_fresh})"
    );
    eprintln!(
        "[bench_smoke] churn: tiered {entries_tiered} vs fresh {entries_fresh} ({drift:+.2}%), never {entries_never}"
    );
    let rr = tiered.rerank_totals();
    report.insert("churn_rerank_swaps".to_string(), rr.rerank_swaps as u64);
    report.insert("churn_rerank_sweeps".to_string(), rr.rerank_sweeps as u64);
    report.insert(
        "churn_rerank_visited".to_string(),
        rr.vertices_visited as u64,
    );
    report.insert("churn_rebuilds".to_string(), tiered.rebuilds() as u64);
    report.insert("churn_entries_tiered".to_string(), entries_tiered);
    report.insert("churn_entries_fresh".to_string(), entries_fresh);
    report.insert("churn_entries_never".to_string(), entries_never);
}

/// Serving phase: the deterministic epoch-rotation replay. Counters land
/// under the `serve_` prefix; per-shard kernel work is reported per shard
/// so a partitioning skew shows up in the lane output.
fn serving(report: &mut BTreeMap<String, u64>, threads: MaintenanceThreads) {
    let replay = dspc_bench::serving::replay(ServingReplayConfig {
        threads,
        ..ServingReplayConfig::smoke()
    });
    report.insert("serve_rotations".to_string(), replay.rotations);
    report.insert("serve_updates_applied".to_string(), replay.updates_applied);
    report.insert("serve_queries".to_string(), replay.queries_served);
    report.insert("serve_stale_reads".to_string(), replay.stale_epoch_reads);
    report.insert("serve_merge_steps".to_string(), replay.merge_steps());
    report.insert("serve_rows_copied".to_string(), replay.rows_copied);
    report.insert(
        "serve_fanout_merge_steps".to_string(),
        replay.fanout_merge_steps,
    );
    for (shard, &steps) in replay.shard_merge_steps.iter().enumerate() {
        report.insert(format!("serve_shard{shard}_merge_steps"), steps);
    }
}

/// Recovery phase: the deterministic crash/recover cycle. The replay
/// itself panics on any recovery-equivalence violation, so reaching the
/// report at all is the correctness half; the counters gate the perf half.
fn recovery(report: &mut BTreeMap<String, u64>, threads: MaintenanceThreads) {
    let replay = dspc_bench::recovery::replay(RecoveryReplayConfig {
        threads,
        ..RecoveryReplayConfig::smoke()
    });
    report.insert("recover_rotations".to_string(), replay.rotations);
    report.insert(
        "recover_replayed_batches".to_string(),
        replay.replayed_batches,
    );
    report.insert(
        "recover_replayed_rotations".to_string(),
        replay.replayed_rotations,
    );
    report.insert(
        "recover_restored_pending_updates".to_string(),
        replay.restored_pending_updates,
    );
    report.insert("journal_bytes".to_string(), replay.journal_bytes);
    report.insert(
        "journal_bytes_per_update".to_string(),
        replay.journal_bytes_per_update(),
    );
}

/// Runs every scenario at `threads` into one flat report.
fn run(threads: MaintenanceThreads) -> BTreeMap<String, u64> {
    let mut report = BTreeMap::new();
    undirected(&mut report, threads);
    directed(&mut report, threads);
    weighted(&mut report, threads);
    bridged(&mut report, threads);
    churn(&mut report, threads);
    serving(&mut report, threads);
    recovery(&mut report, threads);
    report
}

fn render_json(report: &BTreeMap<String, u64>) -> String {
    let body: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Minimal parser for the flat `{"key": number, ...}` reports this tool
/// itself writes.
fn parse_json(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for part in text
        .trim()
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
    {
        let Some((k, v)) = part.split_once(':') else {
            continue;
        };
        let key = k.trim().trim_matches('"').to_string();
        if let Ok(value) = v.trim().parse::<u64>() {
            out.insert(key, value);
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_pr.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut threshold = 5.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--check" => {
                i += 1;
                baseline_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let report = run(THREADS);
    let json = render_json(&report);
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("[bench_smoke] wrote {out_path}");
    print!("{json}");

    let sequential = run(MaintenanceThreads::Fixed(1));
    let mut thread_dependent = false;
    for key in report
        .keys()
        .chain(sequential.keys())
        .collect::<BTreeSet<_>>()
    {
        let (two, one) = (report.get(key), sequential.get(key));
        if two != one {
            thread_dependent = true;
            eprintln!("[bench_smoke] {key}: {two:?} at Fixed(2), {one:?} at Fixed(1) [FAIL]");
        }
    }
    if thread_dependent {
        eprintln!("[bench_smoke] the report depends on the maintenance thread count — failing");
        std::process::exit(1);
    }
    eprintln!("[bench_smoke] Fixed(1) replay matches every key");

    if let Some(path) = baseline_path {
        let baseline = parse_json(&std::fs::read_to_string(&path).expect("read baseline"));
        let mut failed = false;
        for (key, &base) in &baseline {
            let now = report.get(key).copied().unwrap_or(0);
            let delta = if base == 0 {
                0.0
            } else {
                (now as f64 - base as f64) / base as f64 * 100.0
            };
            // Gated counters: maintenance work (total_sweeps), removal-pass
            // work (removal_probes), repair-sweep prune work
            // (prune_probes), shared-far classification drift
            // (multi_far_sweeps), query kernel work (merge_steps), recovery
            // coverage (recover_replayed_batches), journal write
            // amplification (journal_bytes_per_update), and the churn
            // phase's re-rank work and index drift. Everything else is
            // informational.
            let gate = key == "total_sweeps"
                || key == "removal_probes"
                || key == "prune_probes"
                || key == "multi_far_sweeps"
                || key == "merge_steps"
                || key == "recover_replayed_batches"
                || key == "journal_bytes_per_update"
                || key == "churn_rerank_sweeps"
                || key == "churn_rerank_visited"
                || key == "churn_entries_tiered";
            let verdict = if gate && delta > threshold {
                failed = true;
                "FAIL"
            } else if gate && delta < -threshold {
                // An improvement beyond the threshold silently widens the
                // slack future regressions hide in — demand a refresh.
                "IMPROVED — refresh BENCH_baseline.json to lock it in"
            } else if gate {
                "gate"
            } else {
                "info"
            };
            eprintln!("[bench_smoke] {key}: baseline {base}, now {now} ({delta:+.2}%) [{verdict}]");
        }
        // Serving gates, per rotation: kernel merge steps of the reader
        // fleet and of the fan-outs, and label rows copied by publication
        // (a return to whole-index copies fails here without any wall
        // clock). Normalizing keeps the gates honest if the scenario's
        // rotation count ever changes — more epochs of work must not
        // dilute a per-epoch regression.
        for key in [
            "serve_merge_steps",
            "serve_fanout_merge_steps",
            "serve_rows_copied",
        ] {
            let ratio = |r: &BTreeMap<String, u64>| -> Option<f64> {
                let work = *r.get(key)?;
                let rotations = *r.get("serve_rotations")?;
                (rotations > 0).then(|| work as f64 / rotations as f64)
            };
            if let (Some(base), Some(now)) = (ratio(&baseline), ratio(&report)) {
                let delta = (now - base) / base * 100.0;
                let verdict = if delta > threshold {
                    failed = true;
                    "FAIL"
                } else if delta < -threshold {
                    "IMPROVED — refresh BENCH_baseline.json to lock it in"
                } else {
                    "gate"
                };
                eprintln!(
                    "[bench_smoke] {key}/rotation: baseline {base:.1}, now {now:.1} ({delta:+.2}%) [{verdict}]"
                );
            }
        }
        if failed {
            eprintln!(
                "[bench_smoke] a gated counter regressed more than {threshold}% vs {path} — failing"
            );
            std::process::exit(1);
        }
        eprintln!("[bench_smoke] within {threshold}% of {path}");
    }
}
