//! # perfbench — wall-clock serving benchmark of the DSPC stack
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. Every workload generates its inputs
//! before timing starts, sets the server up, serves for `--seconds`
//! (hybrid loops finish the cycle of epochs they are in), checks a sampled
//! share of its answers against a traversal oracle, and prints a report
//! whose last line is one JSON object: `correct`, `attempted`, `failed` and
//! the metrics. The graphs, and the edges the hybrid streams delete, are
//! fixed datasets: one DecSPC repair can cost a hundred times another, so
//! seeded deletes would make runs differ more than any regression worth
//! catching. `--seed` draws everything else — the inserts, the order within
//! each batch, and every read request. Deletes are stratified by edge
//! degree, so every run sees the same mix of cheap and costly ones.
//! Any wrong answer, rejected submit or failed rotation makes `correct`
//! false and the exit code 1. `--workload all` runs the four workloads one
//! after another, each in its own process. The benchmark drives the system
//! only through public entry points of `dspc-serve`, `dspc` and
//! `dspc-graph`; every span is recorded here, around those calls.
//!
//! ## Workloads, and why each exists
//!
//! * **`read-mostly`** — BA(10000, 3), 4 shards. A closed-loop reader on
//!   the main thread issues `pair` requests (one uniform random `(s, t)`,
//!   the paper's §4.1 query protocol) and, every 64th request, a `fanout`
//!   (one source against 64 targets from its 2-hop ball: the
//!   friend-recommendation shape, where lookups share the source label).
//!   It refreshes before each request. An open-loop writer behind
//!   `EpochServer::spawn` (maintenance `Fixed(1)`) publishes a one-insert
//!   rotation every 50 ms; its visibility is timed from when the batch was
//!   due. *Why:* the query kernel, the sharded snapshot and publish/refresh
//!   do nearly all the work and maintenance is negligible, so a maintenance
//!   change should not move it, and a snapshot or layout change must not
//!   slow it.
//! * **`insert-stream`** — BA(10000, 3), 4 shards, journaled (fsync per
//!   submit), maintenance `Fixed(1)`. Insert-only batches alternate k = 1
//!   and k = 16, each submitted then rotated, then read back with 32 pairs
//!   and one fan-out; a checkpoint runs before every 100th rotation. After
//!   the run: a checkpoint, ten more epochs, two acknowledged batches left
//!   pending, a simulated crash (drop) and `EpochServer::recover`. *Why:*
//!   IncSPC is cheap, so each rotation is dominated by the full re-freeze,
//!   re-shard and fsync — the layers chunked snapshots and group commit
//!   target — and deletion repair is bypassed, so a change on the
//!   decremental side should not move it.
//! * **`hybrid-epochs`** — BA(5000, 3), 4 shards, no journal, maintenance
//!   `Fixed(2)`. The §4.4 hybrid stream at its 10:1 insert:delete ratio:
//!   epochs of 10 inserts + 1 delete, every fifth doubled (20 + 2) so the
//!   global agenda merges deletions; each epoch is submitted, rotated, then
//!   read with 1024 pairs and 8 fan-outs. *Why:* DecSPC — classification,
//!   agenda repair, the removal pass and the wave pool — takes most of the
//!   wall time; freeze is a small share.
//! * **`variants-hybrid`** — directed G(2000, 6000) with 25% reciprocal
//!   arcs and weighted G(2000, 6000) with weights 1..5, each behind its own
//!   `EpochServer` (maintenance `Fixed(2)`), alternating 10 + 1 hybrid
//!   epochs, each read with 1024 pairs and 8 fan-outs. *Why:* the directed
//!   and weighted maintenance twins are otherwise unmeasured; merging them
//!   over one topology abstraction must show no regression here.
//!
//! `BENCHMARK.json` gates the last three. `read-mostly` stays runnable
//! (and in `--workload all`) but is not gated: on a shared 2-vCPU host its
//! writer metrics moved 25–46% (quartile spread over ten seeds) between
//! runs, because the rotation competes with the closed-loop reader and
//! host steal time, and every wait compounds in the open-loop queue.
//!
//! Out of scope: churn and re-ranking (guarded by `bench_smoke`), n = 80k,
//! any network front end.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Every workload reports every metric, so each is defined for all four:
//!
//! | Metric | Unit | Definition |
//! |---|---|---|
//! | `setup_s` | s | Engine build through the first published epoch, plus the generation-1 checkpoint when journaled; median of three set-ups. Graph generation is excluded. |
//! | `query_p50_us` | µs | `pair` request latency through `Reader::query`, including the refresh |
//! | `fanout_p50_us` | µs | One `fanout` request: refresh plus 64 lookups |
//! | `update_throughput` | updates/s | Updates published ÷ writer time in submit + rotate |
//! | `visible_p50_ms`, `visible_p90_ms` | ms | Per batch, from `submit` called (read-mostly: from when it was due) until `rotate` has published it |
//! | `peak_rss_mb` | MiB | `VmHWM` of the workload's process |
//!
//! The report also prints, outside the JSON line, each latency's sample
//! count and the highest percentile with at least ten samples beyond it
//! (for `pair` requests p99.9 or higher: the tail is reported, not gated,
//! because over ten seeds its quartile spread reached 0.37 on
//! hybrid-epochs, past any bound a regression check could use);
//! `error_rate` (failed ÷ attempted operations: oracle and twin mismatches,
//! rejected submits, failed rotations, checkpoints and recoveries — 0 when
//! the run is correct, so it lives in `failed`/`attempted` rather than in
//! the metrics); `recover_s` on insert-stream; and the run fingerprint
//! (nproc, rustc version, git sha).
//!
//! ## Per-layer metrics (`--trace 1`), and what each should move
//!
//! | Layer (module) | Metrics | Moves → on |
//! |---|---|---|
//! | `build` / `order` | `build.hpspc_s` | `setup_s` → all, most on read-mostly and insert-stream |
//! | `build` (reference) | `build.rebuild_same_order_s` (on a copy, at the end), `build.maint_over_rebuild` (median dec batch ÷ rebuild) | the paper's baseline for `update_throughput` → hybrid-epochs |
//! | `index` | `index.entries`, `index.avg_label_len`, `index.wide_bytes`, `index.flat_bytes` | `peak_rss_mb` → all; `query_p50_us` → read-mostly |
//! | `inc` | `inc.apply_us_p50/p90`; `inc.renew_count`, `inc.renew_dist`, `inc.inserted`, `inc.vertices_visited` | `visible_p50_ms`, `update_throughput` → insert-stream (small share) |
//! | `dec` / `engine` | `dec.apply_ms_p50/p90`; `dec.classify_sweeps`, `dec.multi_far_sweeps`, `dec.agenda_hubs`, `dec.hubs_processed`, `dec.total_sweeps`, `dec.vertices_visited`, `dec.removed`; `dec.ops_per_sweep` (label ops ÷ sweeps, the useful-work ratio) | `visible_*`, `update_throughput` → hybrid-epochs |
//! | `engine::parallel` | `engine.waves`, `engine.max_wave_width`, `engine.steal_events` | `visible_p50_ms` → hybrid-epochs |
//! | `directed` / `weighted` | `directed.apply_ms`, `weighted.apply_ms`, `directed.total_sweeps`, `weighted.total_sweeps`, `directed.freeze_ms`, `weighted.freeze_ms` | `visible_*` → variants-hybrid |
//! | `flat` / `shard` (freeze) | `flat.freeze_ms`, `shard.split_ms` | `visible_p50_ms` → insert-stream (dominant), hybrid-epochs (minor) |
//! | `query` / `flat` / `shard` (kernel) | `query.live_us`, `flat.query_us`, `shard.query_us`, `flat.merge_steps_per_query`, `flat.common_hubs_per_query` | `query_p50_us`, `fanout_p50_us` → read-mostly |
//! | `traversal` (reference) | `traversal.bibfs_us` | the Figure 7 baseline `query_p50_us` must stay under |
//! | `server` / `publish` | `server.rotate_ms_p50/p90`; `server.rotate_other_ms` (rotate − apply − freeze = publish + epoch-marker fsync); `publish.refresh_us`; `publish.stale_read_share` | `visible_*` → insert-stream; the pair-latency tail → read-mostly |
//! | `journal` | `journal.submit_us_p50/p90`, `journal.bytes_per_update`, `journal.checkpoint_ms`, `journal.replayed_batches`, `journal.recover_s` | `visible_*` (checkpoint stalls), `recover_s` → insert-stream |
//!
//! Counters are means per batch of the kind the layer handles (`inc`:
//! insert-only undirected batches; `dec`: undirected batches with a
//! delete; `engine`: every batch with a delete). Kernel, index and rebuild
//! probes run on the final engine of the undirected workloads; a layer a
//! workload does not exercise reads 0. `trace.writer_coverage` is the
//! share of writer time the layer spans cover.
//!
//! ## How to read a traced run
//!
//! `--trace 1` runs the workload twice, each for half of `--seconds` and
//! with one set-up: untraced, then traced. `EpochServer::rotate` is one
//! opaque call, so the traced phase keeps a lockstep twin engine and feeds
//! it each batch through `ServingEngine::apply_batch`, `FlatIndex::freeze`
//! and `ShardedFlatIndex::from_flat` (the directed and weighted twins
//! freeze in one step); sampled answers of the server must equal the
//! twin's. The report prints, per span name, the span count, total and
//! self time (duration minus the time its direct children cover), the
//! writer-time coverage, and the tracing overhead: each end-to-end metric
//! of the traced phase minus the untraced one. Every span — name, start,
//! end, parent, request id, thread — is written to
//! `.bench_out/trace-<workload>-<seed>.jsonl` when the run ends. Spans
//! nest as `write` → `server.submit` / `journal.checkpoint` /
//! `server.rotate` / `{inc,dec,directed,weighted}.apply` /
//! `flat.freeze` / `shard.split` / `{directed,weighted}.freeze`, and
//! `request.pair` / `request.fanout` → `publish.refresh` (read-mostly
//! traces one request in 64).

mod lane;
mod report;
mod scratch;
mod stats;
mod streams;
mod trace;
mod workloads;

use report::{result_line, Values, END_TO_END, PER_LAYER};
use stats::{median, Fingerprint, Tail};
use std::path::Path;
use std::process::ExitCode;
use workloads::{Outcome, RunConfig, NAMES};

const USAGE: &str = "usage: perfbench --workload <read-mostly|insert-stream|hybrid-epochs|variants-hybrid|all> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let root = std::env::current_dir().expect("working directory");
    let out_dir = root.join(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# fingerprint {}", Fingerprint::detect(&root).render());
    let cfg = |seconds, traced, setup_reps| RunConfig {
        seed: args.seed,
        seconds,
        traced,
        setup_reps,
        out_dir: out_dir.clone(),
    };
    let (table, values, correct, attempted, failed) = if args.trace {
        let plain = workloads::run(&args.workload, &cfg(args.seconds / 2.0, false, 1));
        let traced = workloads::run(&args.workload, &cfg(args.seconds / 2.0, true, 1));
        print_outcome("untraced", &plain);
        print_outcome("traced", &traced);
        print_trace(&args, &plain, &traced, &out_dir);
        let values = traced.per_layer();
        print_values(PER_LAYER, &values);
        let failed = plain.tally.failed + traced.tally.failed;
        let attempted = plain.tally.attempted + traced.tally.attempted;
        (PER_LAYER, values, failed == 0, attempted, failed)
    } else {
        let run = workloads::run(&args.workload, &cfg(args.seconds, false, SETUP_REPS));
        print_outcome("untraced", &run);
        let values = run.end_to_end();
        print_values(END_TO_END, &values);
        let t = &run.tally;
        (END_TO_END, values, t.failed == 0, t.attempted, t.failed)
    };
    println!(
        "{}",
        result_line(table, &values, correct, attempted, failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in its own child process, in turn.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for name in NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name}: exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{name}: could not start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_outcome(phase: &str, o: &Outcome) {
    let t = &o.tally;
    for note in &o.notes {
        println!("# [{phase}] {note}");
    }
    for (what, samples, seen, unit) in [
        ("pair latency", t.pair_us.samples(), t.pair_us.seen(), "us"),
        (
            "fanout latency",
            t.fanout_us.samples(),
            t.fanout_us.seen(),
            "us",
        ),
        (
            "visible",
            &t.visible_ms[..],
            t.visible_ms.len() as u64,
            "ms",
        ),
    ] {
        match Tail::of(samples) {
            Some(tail) => println!(
                "# [{phase}] {what}: p50 {:.3} {unit}, {} {:.3} {unit} (n={seen}, {} kept)",
                median(samples),
                tail.label(),
                tail.value,
                tail.n
            ),
            None => println!("# [{phase}] {what}: too few samples (n={seen})"),
        }
    }
    println!(
        "# [{phase}] error_rate {} (failed {} of {} attempted; {} answers checked)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted,
        t.checked
    );
    if let Some(first) = &t.first_failure {
        println!("# [{phase}] first failure: {first}");
    }
}

fn print_values(table: &[(&str, &str)], values: &Values) {
    for (name, unit) in table {
        println!("# {name} = {} {unit}", values.get(name).unwrap_or(0.0));
    }
}

fn print_trace(args: &Args, plain: &Outcome, traced: &Outcome, out_dir: &Path) {
    let (a, b) = (plain.end_to_end(), traced.end_to_end());
    for (name, unit) in END_TO_END {
        let (x, y) = (a.get(name).unwrap_or(0.0), b.get(name).unwrap_or(0.0));
        println!(
            "# tracing overhead {name}: {:+.4} {unit} (untraced {x:.4}, traced {y:.4})",
            y - x
        );
    }
    let times = traced.tracer.self_times();
    let mut rows: Vec<_> = times.iter().collect();
    rows.sort_by_key(|(_, &(_, _, own))| std::cmp::Reverse(own));
    println!("# self time per span (traced phase): name, spans, total ms, self ms");
    for (name, (n, total, own)) in rows {
        println!(
            "#   {name:<20} {n:>8} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match traced.tracer.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# could not write spans to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_validate() {
        let a = parse(&[
            "--workload",
            "hybrid-epochs",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hybrid-epochs", 7, 2.5, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
        assert!(parse(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "all", "--seed"]).is_err());
    }
}
