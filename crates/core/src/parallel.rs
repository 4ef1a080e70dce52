//! Parallel batch query evaluation and the fan-out maintenance runs on.
//!
//! Query evaluation is embarrassingly parallel: the index is immutable
//! between updates, and each `SpcQUERY` touches only two label sets. This
//! module fans a query batch across scoped threads — the shape a serving
//! deployment of the paper's system would use between update epochs.
//!
//! The same fan-out (`fan_out`) runs the two parallel parts of deletion
//! maintenance, under the [`MaintenanceThreads`] budget of the dynamic
//! facade ([`crate::engine::DecPipeline`]):
//!
//! * the classification sweeps of a deletion batch, which only read;
//! * the `DecUPDATE` repair sweeps. §6 of the paper leaves parallel updates
//!   open because each sweep prunes against labels the higher-ranked sweeps
//!   before it have just repaired. The pipeline therefore runs blocks of
//!   sweeps read-only against the index as of the block start, commits
//!   their logs in rank order on the calling thread, and re-runs a sweep
//!   whose reads an earlier commit of its block changed. So the result is
//!   the sequential one at every thread count.
//!
//! Builds, re-ranks and insertions stay on the calling thread.

use crate::flat::{FlatIndex, FlatScratch};
use crate::index::SpcIndex;
use crate::query::{spc_query, QueryResult};
use dspc_graph::VertexId;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Thread budget for index maintenance (the knob behind
/// [`crate::dynamic::Dynamic::set_maintenance_threads`]): how many threads a deletion — one edge or a batch —
/// classifies its endpoint tasks and speculates its repair sweeps on.
///
/// * [`MaintenanceThreads::Auto`] (the default) resolves to
///   `std::thread::available_parallelism()`.
/// * [`MaintenanceThreads::Fixed(1)`](MaintenanceThreads::Fixed) runs
///   everything on the calling thread, one repair sweep at a time.
///
/// Classification only reads, and its results merge in input order.
/// Repair sweeps speculate read-only in blocks of 16 and commit in rank
/// order, re-running any sweep an earlier commit of its block invalidated;
/// a deletion therefore uses at most 16 threads. So the index, query
/// answers, and every counter are identical at every thread count.
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

/// Runs `work` over `items` on the caller's `workers`, one thread per
/// worker, returning results in input order. The first worker runs on the
/// calling thread and the others on scoped threads, as many as there are
/// items beyond the first. Workers claim items one at a time through a
/// shared atomic cursor, so a worker that drew cheap items takes more of
/// them. One worker (or one item) runs everything inline. Workers keep
/// their scratch across calls, so a call allocates only the result
/// storage. A panicking worker fails the call: the scope joins every
/// thread, then the panic resumes on the calling thread.
///
/// # Panics
/// If `workers` is empty.
pub(crate) fn fan_out<T, S, R>(
    items: &[T],
    workers: &mut [S],
    work: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
{
    let active = workers.len().min(items.len()).max(1);
    let (first, helpers) = workers[..active]
        .split_first_mut()
        .expect("fan_out needs a worker");
    if helpers.is_empty() {
        return items.iter().map(|t| work(first, t)).collect();
    }
    // `Relaxed` suffices: the cursor only hands out indices, each once.
    // The items reach the threads through the scope's spawn, and the
    // results come back through its join.
    let cursor = AtomicUsize::new(0);
    let drain = |worker: &mut S| {
        let mut claimed = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return claimed;
            };
            claimed.push((i, work(worker, item)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let place = |slots: &mut Vec<Option<R>>, claimed: Vec<(usize, R)>| {
        for (i, r) in claimed {
            slots[i] = Some(r);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|worker| scope.spawn(|| drain(worker)))
            .collect();
        place(&mut slots, drain(first));
        for handle in handles {
            match handle.join() {
                Ok(claimed) => place(&mut slots, claimed),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item claimed"))
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
/// balanced, one per thread, so every thread has work and streams a
/// contiguous range of the batch.
pub fn par_batch_query<E: QueryEngine>(
    engine: &E,
    pairs: &[(VertexId, VertexId)],
    threads: usize,
) -> Vec<QueryResult> {
    let threads = threads.clamp(1, pairs.len().max(1));
    let mut start = 0;
    let chunks: Vec<&[(VertexId, VertexId)]> = aligned_chunk_lengths(pairs.len(), threads)
        .into_iter()
        .map(|len| {
            start += len;
            &pairs[start - len..start]
        })
        .collect();
    let mut scratch: Vec<E::Scratch> = chunks.iter().map(|_| engine.make_scratch()).collect();
    fan_out(&chunks, &mut scratch, |scratch, chunk| {
        chunk
            .iter()
            .map(|&(s, t)| engine.query_one(scratch, s, t))
            .collect::<Vec<_>>()
    })
    .concat()
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
    fn fan_out_runs_on_the_callers_workers() {
        // Every item runs on one of the caller's workers, whose scratch
        // outlives the call: nothing per call, nothing per thread.
        let items: Vec<usize> = (0..23).collect();
        for threads in [1usize, 2, 4, 8] {
            let mut workers = vec![0usize; threads];
            for round in 1..=2 {
                let out = fan_out(&items, &mut workers, |runs, &i| {
                    *runs += 1;
                    i * 10
                });
                assert_eq!(out, items.iter().map(|&i| i * 10).collect::<Vec<_>>());
                assert_eq!(
                    workers.iter().sum::<usize>(),
                    round * items.len(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fan_out_resumes_a_worker_panic() {
        let items: Vec<usize> = (0..8).collect();
        for threads in [1usize, 2, 4] {
            let outcome = std::panic::catch_unwind(|| {
                fan_out(&items, &mut vec![(); threads], |_, &i| {
                    assert_ne!(i, 5, "item 5 fails");
                    i
                })
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
            let out = fan_out(&items, &mut vec![0usize; threads], |scratch, &i| {
                *scratch += 1;
                i * 3
            });
            assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
        }
        assert!(fan_out(&[] as &[usize], &mut [()], |_, &i| i).is_empty());
    }
}
