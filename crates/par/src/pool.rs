//! Scoped worker pool with row-range partitioning.
//!
//! The pool holds no long-lived threads: every parallel region spawns
//! scoped `std::thread`s (`std::thread::scope`), which lets workers borrow
//! the caller's data without `'static` bounds or reference counting. Spawn
//! cost (~tens of microseconds per worker) is amortized by handing each
//! worker a contiguous chunk of at least `min_chunk` work items; callers
//! with tiny workloads should stay serial (see the thresholds in
//! [`crate::gemm`]).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fan-out helper over scoped `std::thread`s.
///
/// `threads` is the *maximum* concurrency of any parallel region; regions
/// with fewer chunks than threads spawn fewer workers. A pool with one
/// thread runs everything on the caller's thread (useful as a serial
/// reference and on single-core machines).
///
/// # Examples
///
/// ```
/// use cq_par::Pool;
///
/// let pool = Pool::new(4);
/// let squares = pool.parallel_map(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool with the given maximum worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The process-wide pool, [`RunConfig::global`]'s: `CQ_THREADS`
    /// workers, else `std::thread::available_parallelism`.
    ///
    /// [`RunConfig::global`]: crate::RunConfig::global
    pub fn global() -> &'static Pool {
        &crate::RunConfig::global().pool
    }

    /// Maximum number of workers this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..len` into at most `parts` contiguous ranges of at least
    /// `min_chunk` items each (the final range may be larger), balanced to
    /// within one item. Returns no ranges for `len == 0`.
    pub fn partition(len: usize, parts: usize, min_chunk: usize) -> Vec<Range<usize>> {
        if len == 0 {
            return Vec::new();
        }
        let min_chunk = min_chunk.max(1);
        let parts = parts.max(1).min((len / min_chunk).max(1));
        let base = len / parts;
        let rem = len % parts;
        let mut ranges = Vec::with_capacity(parts);
        let mut start = 0;
        for i in 0..parts {
            let size = base + usize::from(i < rem);
            ranges.push(start..start + size);
            start += size;
        }
        ranges
    }

    /// Runs `f` over contiguous sub-ranges of `0..len`, in parallel.
    ///
    /// The first range runs on the calling thread; a panic in any worker
    /// propagates to the caller once all workers have finished.
    pub fn parallel_for<F>(&self, len: usize, min_chunk: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let ranges = Self::partition(len, self.threads, min_chunk);
        let mut region = cq_obs::span!("par", "parallel_for");
        if region.is_recording() {
            region
                .arg("items", len)
                .arg("chunks", ranges.len())
                .arg("max_workers", self.threads);
            cq_obs::counter!("par.regions").incr();
        }
        match ranges.len() {
            0 => {}
            1 => run_chunk(&f, ranges[0].clone()),
            _ => std::thread::scope(|s| {
                let f = &f;
                for r in &ranges[1..] {
                    let r = r.clone();
                    s.spawn(move || run_chunk(f, r));
                }
                run_chunk(&f, ranges[0].clone());
            }),
        }
    }

    /// Maps `f` over `0..n` with dynamic (work-stealing counter) scheduling
    /// and returns the results in index order.
    ///
    /// Suited to irregular work items (e.g. training runs of different
    /// networks); each worker repeatedly claims the next unclaimed index.
    /// A panic in any worker propagates after all workers have finished.
    pub fn parallel_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut region = cq_obs::span!("par", "parallel_map");
        if region.is_recording() {
            region.arg("tasks", n).arg("max_workers", self.threads);
            cq_obs::counter!("par.regions").incr();
            cq_obs::counter!("par.tasks_queued").add(n as u64);
        }
        if self.threads == 1 || n <= 1 {
            if region.is_recording() {
                cq_obs::counter!("par.tasks_run").add(n as u64);
            }
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let mut indexed: Vec<(usize, T)> = std::thread::scope(|s| {
            let (next, f) = (&next, &f);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut sp = cq_obs::span!("par", "worker {w}");
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        if sp.is_recording() {
                            sp.arg("tasks", local.len());
                            cq_obs::counter!("par.tasks_run").add(local.len() as u64);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, v)| v).collect()
    }

    /// Partitions `data` (a `rows × row_width` row-major matrix) into
    /// contiguous row bands of at least `min_rows` rows and runs
    /// `f(first_row, band)` on each band in parallel.
    ///
    /// This is the safe backbone of the GEMM row partitioning: each worker
    /// gets exclusive `&mut` access to its band. The first band runs on
    /// the calling thread, as in [`Pool::parallel_for`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `row_width` (for
    /// non-empty data), or if a worker panics.
    pub fn parallel_row_chunks<T, F>(&self, data: &mut [T], row_width: usize, min_rows: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(row_width > 0, "row_width must be positive");
        assert_eq!(data.len() % row_width, 0, "data not a whole number of rows");
        let rows = data.len() / row_width;
        let ranges = Self::partition(rows, self.threads, min_rows);
        let mut region = cq_obs::span!("par", "parallel_row_chunks");
        if region.is_recording() {
            region
                .arg("rows", rows)
                .arg("bands", ranges.len())
                .arg("max_workers", self.threads);
            cq_obs::counter!("par.regions").incr();
        }
        if ranges.len() <= 1 {
            f(0, data);
            return;
        }
        std::thread::scope(|s| {
            let f = &f;
            let (first, mut rest) = data.split_at_mut(ranges[0].len() * row_width);
            for r in &ranges[1..] {
                let (band, tail) = rest.split_at_mut(r.len() * row_width);
                rest = tail;
                let first_row = r.start;
                s.spawn(move || f(first_row, band));
            }
            f(0, first);
        });
    }

    /// Partitions `data` into contiguous bands of whole `block_len`-element
    /// blocks and runs `f(first_block, band)` on each band in parallel.
    ///
    /// Unlike [`Pool::parallel_row_chunks`], the data need not be a whole
    /// number of blocks: the final block may be ragged (shorter than
    /// `block_len`), and it always lands in the last band. This is the
    /// backbone of block-local quantization fan-out, where LDQ block
    /// boundaries — not row boundaries — are the unit of independence.
    ///
    /// Band boundaries depend only on `(data.len(), block_len, min_blocks,
    /// threads)` and every block is processed by exactly one worker, so
    /// callers whose per-block work is a pure function of the block get
    /// results independent of the worker count. The first band runs on
    /// the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero (for non-empty data), or if a worker
    /// panics.
    pub fn parallel_block_chunks<T, F>(
        &self,
        data: &mut [T],
        block_len: usize,
        min_blocks: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(block_len > 0, "block_len must be positive");
        let blocks = data.len().div_ceil(block_len);
        let ranges = Self::partition(blocks, self.threads, min_blocks);
        let mut region = cq_obs::span!("par", "parallel_block_chunks");
        if region.is_recording() {
            region
                .arg("blocks", blocks)
                .arg("bands", ranges.len())
                .arg("max_workers", self.threads);
            cq_obs::counter!("par.regions").incr();
        }
        if ranges.len() <= 1 {
            f(0, data);
            return;
        }
        std::thread::scope(|s| {
            let f = &f;
            // Only the final band can be ragged, and there are at least
            // two: the first is whole.
            let (first, mut rest) = data.split_at_mut(ranges[0].len() * block_len);
            for r in &ranges[1..] {
                // `min` absorbs the ragged final band.
                let band_elems = (r.len() * block_len).min(rest.len());
                let (band, tail) = rest.split_at_mut(band_elems);
                rest = tail;
                let first_block = r.start;
                s.spawn(move || f(first_block, band));
            }
            f(0, first);
        });
    }
}

/// Runs one worker's chunk, accounting per-worker busy time and item
/// throughput when tracing is enabled. With tracing off this is a plain
/// call — no clock reads.
fn run_chunk<F>(f: &F, r: Range<usize>)
where
    F: Fn(Range<usize>) + Sync,
{
    if !cq_obs::enabled() {
        f(r);
        return;
    }
    let items = r.len();
    let start = std::time::Instant::now();
    f(r);
    let busy_us = start.elapsed().as_secs_f64() * 1e6;
    cq_obs::counter!("par.chunks_run").incr();
    cq_obs::counter!("par.items_run").add(items as u64);
    cq_obs::counter!("par.busy_us").add(busy_us as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn partition_balances_and_respects_min_chunk() {
        let r = Pool::partition(10, 4, 1);
        assert_eq!(r, vec![0..3, 3..6, 6..8, 8..10]);
        // min_chunk caps the number of parts.
        let r = Pool::partition(10, 8, 4);
        assert_eq!(r, vec![0..5, 5..10]);
        // One big part when min_chunk exceeds len.
        assert_eq!(Pool::partition(3, 8, 100), vec![0..3]);
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        let hits = AtomicUsize::new(0);
        Pool::new(4).parallel_for(0, 1, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        assert_eq!(Pool::new(4).parallel_map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let len = 1000;
        let counts: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        Pool::new(3).parallel_for(len, 7, |range| {
            for i in range {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn more_threads_than_rows() {
        // 8 workers, 3 rows: must still produce each row exactly once.
        let pool = Pool::new(8);
        assert_eq!(pool.parallel_map(3, |i| i * 2), vec![0, 2, 4]);
        let mut data = vec![0u32; 3 * 2];
        pool.parallel_row_chunks(&mut data, 2, 1, |first_row, band| {
            for (r, row) in band.chunks_mut(2).enumerate() {
                row.fill((first_row + r) as u32);
            }
        });
        assert_eq!(data, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn parallel_map_preserves_order_under_dynamic_scheduling() {
        let pool = Pool::new(5);
        let out = pool.parallel_map(100, |i| {
            // Uneven work to force out-of-order completion.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i as u64 * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_panic_propagates_from_parallel_map() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).parallel_map(16, |i| {
                if i == 11 {
                    panic!("worker 11 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_panic_propagates_from_parallel_for() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).parallel_for(16, 1, |range| {
                if range.contains(&13) {
                    panic!("range worker exploded");
                }
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn block_chunks_cover_ragged_tail_exactly_once() {
        // 10 elements in blocks of 4: blocks are [0..4), [4..8), [8..10).
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0u32; 10];
            Pool::new(threads).parallel_block_chunks(&mut data, 4, 1, |first_block, band| {
                // Stamp each element with its block index: chunks(4) inside
                // a band re-derives the global block boundaries.
                for (j, chunk) in band.chunks_mut(4).enumerate() {
                    chunk.fill((first_block + j) as u32 + 1);
                }
            });
            assert_eq!(
                data,
                vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn block_chunks_band_boundaries_align_to_blocks() {
        // Record each band's (first_block, len) and check alignment.
        let mut data = vec![0u8; 103];
        let bands = std::sync::Mutex::new(Vec::new());
        Pool::new(4).parallel_block_chunks(&mut data, 10, 1, |first_block, band| {
            bands.lock().unwrap().push((first_block, band.len()));
        });
        let mut bands = bands.into_inner().unwrap();
        bands.sort_unstable();
        let mut expected_start = 0usize;
        for (i, &(first_block, len)) in bands.iter().enumerate() {
            assert_eq!(first_block * 10, expected_start);
            if i + 1 < bands.len() {
                assert_eq!(len % 10, 0, "only the last band may be ragged");
            }
            expected_start += len;
        }
        assert_eq!(expected_start, 103);
    }

    #[test]
    fn block_chunks_empty_and_single() {
        Pool::new(4).parallel_block_chunks(&mut [] as &mut [u8], 4, 1, |_, _| {
            panic!("must not run on empty data")
        });
        let mut one = [7u8; 3];
        Pool::new(4).parallel_block_chunks(&mut one, 64, 1, |first, band| {
            assert_eq!(first, 0);
            assert_eq!(band.len(), 3);
        });
    }

    #[test]
    fn band_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let pool = Pool::new(4);
        let threads = std::sync::Mutex::new(Vec::new());
        let record = |first: usize| {
            let id = std::thread::current().id();
            threads.lock().unwrap().push((first, id));
        };
        pool.parallel_row_chunks(&mut [0u8; 40], 2, 1, |first_row, _| record(first_row));
        pool.parallel_block_chunks(&mut [0u8; 43], 4, 1, |first_block, _| record(first_block));
        let threads = threads.into_inner().unwrap();
        // Four bands each, one of them band 0.
        assert_eq!(threads.len(), 8);
        for (first, id) in threads {
            assert_eq!(first == 0, id == caller, "band starting at {first}");
        }
    }

    #[test]
    fn block_chunks_reject_zero_block_len() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(2).parallel_block_chunks(&mut [0u8; 5], 0, 1, |_, _| {});
        });
        assert!(result.is_err());
    }

    #[test]
    fn row_chunks_reject_ragged_data() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(2).parallel_row_chunks(&mut [0u8; 5], 2, 1, |_, _| {});
        });
        assert!(result.is_err());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.parallel_map(4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }
}
