//! Parallel batch query evaluation and shared thread-pool plumbing.
//!
//! §6 of the paper explains why parallel *updates* are hard (strict rank
//! order dependencies between hubs) and leaves them as future work. Query
//! evaluation, by contrast, is embarrassingly parallel: the index is
//! immutable between updates, and each `SpcQUERY` touches only two label
//! sets. This module fans a query batch across scoped threads — the shape a
//! serving deployment of the paper's system would use between update
//! epochs.
//!
//! The same scoped-thread fan-out backs the read-only parts of
//! *maintenance*, governed by the [`MaintenanceThreads`] knob on the
//! dynamic facades: the classification sweeps of a deletion batch
//! ([`crate::engine::DecPipeline::delete_batch`]) and the swap pairs of a
//! batched re-rank ([`crate::reorder::rerank_adjacent`]). Repair sweeps stay
//! sequential, for the reason §6 gives.

use crate::flat::{FlatIndex, FlatScratch};
use crate::index::SpcIndex;
use crate::query::{spc_query, QueryResult};
use dspc_graph::VertexId;

/// Target number of query pairs per worker thread for
/// [`par_batch_query_auto`]. Spawning an OS thread costs on the order of
/// tens of microseconds — several thousand label-merge queries — so the
/// auto entry point only spawns when every worker gets at least this many
/// pairs, and otherwise runs inline on the caller's thread.
pub const PAIRS_PER_THREAD: usize = 256;

/// Alignment (in pairs) of the per-thread chunks carved by
/// [`par_batch_query`]. Matching the flat layout's cache granularity — 8
/// entries of the 4-byte `hubs` column fill a half cache line per slice
/// head — keeps each spawned worker streaming contiguous column ranges
/// instead of interleaving with its neighbor at the chunk seam. Only the
/// final chunk may be shorter.
pub const QUERY_CHUNK_ALIGN: usize = 8;

/// Thread budget for intra-batch index maintenance (the knob behind
/// `DynamicSpc::set_maintenance_threads` and the directed/weighted
/// equivalents): how many threads a deletion batch classifies its endpoint
/// tasks on, and a batched re-rank repairs its swap pairs on.
///
/// * [`MaintenanceThreads::Auto`] (the default) resolves to
///   `std::thread::available_parallelism()`.
/// * [`MaintenanceThreads::Fixed(1)`](MaintenanceThreads::Fixed) runs
///   everything on the calling thread.
///
/// Only read-only work fans out, and results merge in input order, so the
/// index, query answers, and every counter are identical at every thread
/// count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MaintenanceThreads {
    /// Use `std::thread::available_parallelism()` (fallback 1).
    #[default]
    Auto,
    /// Use exactly this many worker threads (clamped to at least 1).
    Fixed(usize),
}

impl MaintenanceThreads {
    /// The concrete thread count this knob stands for.
    pub fn resolve(self) -> usize {
        match self {
            MaintenanceThreads::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            MaintenanceThreads::Fixed(n) => n.max(1),
        }
    }
}

/// Splits `len` items into exactly `min(parts, len)` contiguous chunk
/// lengths differing by at most one — so every spawned thread has work
/// (a naive `len.div_ceil(parts)` chunk size can leave trailing threads
/// without a chunk when `len % parts` is small).
pub(crate) fn chunk_lengths(len: usize, parts: usize) -> impl Iterator<Item = usize> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    (0..parts).map(move |i| base + usize::from(i < extra))
}

/// Runs `work` over `items` on up to `threads` scoped worker threads, each
/// with its own scratch from `make_scratch`, returning results in input
/// order. `threads <= 1` (or a single item) runs inline on the caller's
/// thread with one scratch — the degenerate sequential path. A panicking
/// worker fails the call: the scope joins every thread, then panics on the
/// caller's thread.
pub(crate) fn fan_out<T, S, R, FS, FW>(
    items: &[T],
    threads: usize,
    make_scratch: FS,
    work: FW,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, &T) -> R + Sync,
{
    let chunks: Vec<usize> = chunk_lengths(items.len(), threads).collect();
    fan_out_chunks(items, &chunks, make_scratch, work)
}

/// [`fan_out`] with explicit precomputed chunk lengths (one spawned thread
/// per chunk). A single chunk — or a single item — runs inline on the
/// caller's thread. The chunk lengths must sum to `items.len()`.
pub(crate) fn fan_out_chunks<T, S, R, FS, FW>(
    items: &[T],
    chunks: &[usize],
    make_scratch: FS,
    work: FW,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    FS: Fn() -> S + Sync,
    FW: Fn(&mut S, &T) -> R + Sync,
{
    debug_assert_eq!(chunks.iter().sum::<usize>(), items.len());
    if chunks.len() <= 1 || items.len() <= 1 {
        let mut scratch = make_scratch();
        return items.iter().map(|t| work(&mut scratch, t)).collect();
    }
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let (make_scratch, work) = (&make_scratch, &work);
    std::thread::scope(|scope| {
        let mut rest_items = items;
        let mut rest_out = &mut out[..];
        for &chunk in chunks {
            let (item_chunk, next_items) = rest_items.split_at(chunk);
            let (out_chunk, next_out) = rest_out.split_at_mut(chunk);
            rest_items = next_items;
            rest_out = next_out;
            scope.spawn(move || {
                let mut scratch = make_scratch();
                for (item, slot) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(work(&mut scratch, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker completed"))
        .collect()
}

/// Splits `len` query pairs into at most `parts` contiguous chunks whose
/// lengths are multiples of [`QUERY_CHUNK_ALIGN`] (except possibly the
/// last), balanced to within one alignment block. Never yields an empty
/// chunk, so every spawned thread streams a non-trivial contiguous range.
pub(crate) fn aligned_chunk_lengths(len: usize, parts: usize) -> Vec<usize> {
    let blocks = len.div_ceil(QUERY_CHUNK_ALIGN).max(1);
    let parts = parts.clamp(1, blocks);
    let base = blocks / parts;
    let extra = blocks % parts;
    let mut remaining = len;
    let mut out = Vec::with_capacity(parts);
    for i in 0..parts {
        let b = base + usize::from(i < extra);
        let take = (b * QUERY_CHUNK_ALIGN).min(remaining);
        out.push(take);
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0);
    out
}

/// Anything batch query evaluation can run against: the live [`SpcIndex`]
/// or a frozen [`FlatIndex`] snapshot. Workers carry a per-thread
/// `Scratch` so engines with reusable buffers (the flat kernel's
/// common-hub pair list) never allocate per query.
pub trait QueryEngine: Sync {
    /// Per-worker reusable state.
    type Scratch: Send;

    /// Fresh scratch for one worker thread.
    fn make_scratch(&self) -> Self::Scratch;

    /// `SpcQUERY(s, t)` against this engine.
    fn query_one(&self, scratch: &mut Self::Scratch, s: VertexId, t: VertexId) -> QueryResult;
}

impl QueryEngine for SpcIndex {
    type Scratch = ();

    fn make_scratch(&self) -> Self::Scratch {}

    #[inline]
    fn query_one(&self, _scratch: &mut Self::Scratch, s: VertexId, t: VertexId) -> QueryResult {
        spc_query(self, s, t)
    }
}

impl QueryEngine for FlatIndex {
    type Scratch = FlatScratch;

    fn make_scratch(&self) -> Self::Scratch {
        FlatScratch::new()
    }

    #[inline]
    fn query_one(&self, scratch: &mut Self::Scratch, s: VertexId, t: VertexId) -> QueryResult {
        self.query_with(scratch, s, t)
    }
}

/// Evaluates `pairs` in parallel on `threads` OS threads (clamped to the
/// batch size; `threads == 1` degenerates to the sequential path). Results
/// are in input order. Chunks are [`QUERY_CHUNK_ALIGN`]-aligned and
/// balanced, so every spawned thread has work and streams a contiguous
/// range of the batch.
pub fn par_batch_query<E: QueryEngine>(
    engine: &E,
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> Vec<QueryResult> {
    let threads = threads.clamp(1, pairs.len().max(1));
    let chunks = aligned_chunk_lengths(pairs.len(), threads);
    fan_out_chunks(
        pairs,
        &chunks,
        || engine.make_scratch(),
        |scratch, &(s, t)| engine.query_one(scratch, s, t),
    )
}

/// [`par_batch_query`] with the thread count derived from the machine and
/// the batch: `std::thread::available_parallelism()` capped so that every
/// worker receives at least [`PAIRS_PER_THREAD`] pairs. Small batches run
/// inline — thread spawn overhead would dominate — and large ones fan out
/// across the hardware. This is the entry point a serving deployment
/// should reach for; callers pick an explicit thread count only when
/// partitioning cores across components.
pub fn par_batch_query_auto<E: QueryEngine>(
    engine: &E,
    pairs: &[(VertexId, VertexId)],
) -> Vec<QueryResult> {
    let hw = MaintenanceThreads::Auto.resolve();
    let threads = hw.min(pairs.len() / PAIRS_PER_THREAD).max(1);
    par_batch_query(engine, pairs, threads)
}

/// Evaluates `pairs` sequentially — the comparison baseline for
/// [`par_batch_query`] and the convenience entry point for small batches.
pub fn batch_query<E: QueryEngine>(engine: &E, pairs: &[(VertexId, VertexId)]) -> Vec<QueryResult> {
    let mut scratch = engine.make_scratch();
    pairs
        .iter()
        .map(|&(s, t)| engine.query_one(&mut scratch, s, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::order::OrderingStrategy;
    use dspc_graph::generators::random::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = barabasi_albert(300, 3, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        let pairs: Vec<_> = (0..1000)
            .map(|_| {
                (
                    VertexId(rng.gen_range(0..300)),
                    VertexId(rng.gen_range(0..300)),
                )
            })
            .collect();
        let seq = batch_query(&index, &pairs);
        for threads in [1, 2, 4, 7] {
            assert_eq!(par_batch_query(&index, &pairs, threads), seq);
        }
    }

    #[test]
    fn auto_thread_count_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = barabasi_albert(200, 3, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        let pairs: Vec<_> = (0..600)
            .map(|_| {
                (
                    VertexId(rng.gen_range(0..200)),
                    VertexId(rng.gen_range(0..200)),
                )
            })
            .collect();
        assert_eq!(
            par_batch_query_auto(&index, &pairs),
            batch_query(&index, &pairs)
        );
        assert!(par_batch_query_auto(&index, &[]).is_empty());
    }

    #[test]
    fn empty_and_tiny_batches() {
        let g = dspc_graph::generators::classic::path_graph(3);
        let index = build_index(&g, OrderingStrategy::Degree);
        assert!(par_batch_query(&index, &[], 4).is_empty());
        let one = par_batch_query(&index, &[(VertexId(0), VertexId(2))], 4);
        assert_eq!(one[0].as_option(), Some((2, 1)));
    }

    #[test]
    fn awkward_remainders_still_match_sequential() {
        // The old div_ceil chunking collapsed 9 pairs / 8 threads into 5
        // uneven chunks; the balanced split must keep results identical
        // while giving every spawned thread work.
        let mut rng = StdRng::seed_from_u64(33);
        let g = barabasi_albert(60, 2, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        for (len, threads) in [(9usize, 8usize), (3, 16), (17, 4), (8, 8), (5, 2)] {
            let pairs: Vec<_> = (0..len)
                .map(|_| {
                    (
                        VertexId(rng.gen_range(0..60)),
                        VertexId(rng.gen_range(0..60)),
                    )
                })
                .collect();
            assert_eq!(
                par_batch_query(&index, &pairs, threads),
                batch_query(&index, &pairs),
                "len={len} threads={threads}"
            );
        }
    }

    #[test]
    fn chunk_lengths_cover_everything_without_empty_chunks() {
        for (len, parts) in [(9usize, 8usize), (3, 16), (16, 4), (1, 1), (7, 7), (10, 3)] {
            let chunks: Vec<usize> = chunk_lengths(len, parts).collect();
            assert_eq!(chunks.iter().sum::<usize>(), len, "len={len} parts={parts}");
            assert_eq!(chunks.len(), parts.min(len).max(1));
            assert!(chunks.iter().all(|&c| c >= 1) || len == 0);
            let (min, max) = (chunks.iter().min(), chunks.iter().max());
            assert!(max.unwrap() - min.unwrap() <= 1, "balanced split");
        }
    }

    #[test]
    fn aligned_chunks_cover_everything() {
        for (len, parts) in [
            (1000usize, 4usize),
            (9, 8),
            (3, 16),
            (17, 4),
            (8, 8),
            (257, 3),
            (1, 1),
        ] {
            let chunks = aligned_chunk_lengths(len, parts);
            assert_eq!(chunks.iter().sum::<usize>(), len, "len={len} parts={parts}");
            assert!(
                chunks.iter().all(|&c| c >= 1),
                "no empty chunks: {chunks:?}"
            );
            // Every chunk except the last is a multiple of the alignment.
            for &c in &chunks[..chunks.len() - 1] {
                assert_eq!(c % QUERY_CHUNK_ALIGN, 0, "len={len} parts={parts}");
            }
        }
        assert_eq!(aligned_chunk_lengths(0, 4), vec![0]);
    }

    #[test]
    fn flat_engine_matches_live_engine() {
        use crate::flat::FlatIndex;
        let mut rng = StdRng::seed_from_u64(14);
        let g = barabasi_albert(250, 3, &mut rng);
        let index = build_index(&g, OrderingStrategy::Degree);
        let flat = FlatIndex::freeze(&index);
        let pairs: Vec<_> = (0..777)
            .map(|_| {
                (
                    VertexId(rng.gen_range(0..250)),
                    VertexId(rng.gen_range(0..250)),
                )
            })
            .collect();
        let live = batch_query(&index, &pairs);
        assert_eq!(batch_query(&flat, &pairs), live);
        for threads in [1, 2, 4, 7] {
            assert_eq!(par_batch_query(&flat, &pairs, threads), live);
        }
        assert_eq!(par_batch_query_auto(&flat, &pairs), live);
    }

    #[test]
    fn maintenance_threads_resolution() {
        assert!(MaintenanceThreads::Auto.resolve() >= 1);
        assert_eq!(MaintenanceThreads::Fixed(0).resolve(), 1);
        assert_eq!(MaintenanceThreads::Fixed(6).resolve(), 6);
        assert_eq!(MaintenanceThreads::default(), MaintenanceThreads::Auto);
    }

    #[test]
    fn fan_out_makes_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..23).collect();
        for threads in [1usize, 2, 4, 8] {
            let scratches = AtomicUsize::new(0);
            let out = fan_out(
                &items,
                threads,
                || scratches.fetch_add(1, Ordering::Relaxed),
                |_, &i| i * 10,
            );
            assert_eq!(out, items.iter().map(|&i| i * 10).collect::<Vec<_>>());
            assert_eq!(
                scratches.load(Ordering::Relaxed),
                threads,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fan_out_resumes_a_worker_panic() {
        let items: Vec<usize> = (0..8).collect();
        for threads in [1usize, 2, 4] {
            let outcome = std::panic::catch_unwind(|| {
                fan_out(
                    &items,
                    threads,
                    || (),
                    |_, &i| {
                        assert_ne!(i, 5, "item 5 fails");
                        i
                    },
                )
            });
            assert!(
                outcome.is_err(),
                "threads={threads}: the panic reaches the caller"
            );
        }
    }

    #[test]
    fn fan_out_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1usize, 2, 5, 64] {
            let out = fan_out(
                &items,
                threads,
                || 0usize,
                |scratch, &i| {
                    *scratch += 1;
                    i * 3
                },
            );
            assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
        }
    }
}
