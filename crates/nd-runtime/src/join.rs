//! A small fork-join façade over the pool.
//!
//! The heavy lifting of NP execution in this repository goes through the
//! [`dataflow`](crate::dataflow) executor (an NP program is just an ND program whose
//! DAG carries the serial construct's artificial dependencies), but examples and
//! simple workloads benefit from the familiar `join` / `parallel_for` surface.
//!
//! These helpers block the *calling* thread until the spawned work finishes.  They
//! are intended for use from outside the pool (the main thread of an example or
//! benchmark); for deeply nested parallel recursion, build a
//! [`CompiledGraph`](crate::dataflow::CompiledGraph) instead — blocking a worker from inside a
//! job wastes a core, which is exactly the pathology the dataflow executor avoids.

use crate::latch::CountLatch;
use crate::pool::ThreadPool;
use parking_lot::Mutex;
use std::sync::Arc;

/// Runs `a` on the calling thread and `b` on the pool, returning both results.
pub fn join<RA, RB>(
    pool: &ThreadPool,
    a: impl FnOnce() -> RA,
    b: impl FnOnce() -> RB + Send + 'static,
) -> (RA, RB)
where
    RA: Send,
    RB: Send + 'static,
{
    let latch = Arc::new(CountLatch::new(1));
    let slot: Arc<Mutex<Option<RB>>> = Arc::new(Mutex::new(None));
    {
        let latch = Arc::clone(&latch);
        let slot = Arc::clone(&slot);
        pool.spawn(Box::new(move |_| {
            let r = b();
            *slot.lock() = Some(r);
            latch.count_down();
        }));
    }
    let ra = a();
    latch.wait();
    let rb = slot.lock().take().expect("join result missing");
    (ra, rb)
}

/// Runs every closure on the pool and waits for all of them.
pub fn invoke_all(pool: &ThreadPool, tasks: Vec<Box<dyn FnOnce() + Send + 'static>>) {
    let latch = Arc::new(CountLatch::new(tasks.len()));
    for t in tasks {
        let latch = Arc::clone(&latch);
        pool.spawn(Box::new(move |_| {
            t();
            latch.count_down();
        }));
    }
    latch.wait();
}

/// Splits `0..len` into `chunks` contiguous ranges and runs `f(range)` for each on
/// the pool, waiting for all of them.
pub fn parallel_for_chunks(
    pool: &ThreadPool,
    len: usize,
    chunks: usize,
    f: impl Fn(std::ops::Range<usize>) + Send + Sync + 'static,
) {
    if len == 0 {
        return;
    }
    let chunks = chunks.max(1).min(len);
    let f = Arc::new(f);
    let chunk_size = len.div_ceil(chunks);
    let latch = Arc::new(CountLatch::new(chunks));
    let mut start = 0usize;
    for _ in 0..chunks {
        let end = (start + chunk_size).min(len);
        let range = start..end;
        let f = Arc::clone(&f);
        let latch = Arc::clone(&latch);
        pool.spawn(Box::new(move |_| {
            f(range);
            latch.count_down();
        }));
        start = end;
        if start >= len {
            // Fewer chunks than requested were needed; release the spare counts.
            break;
        }
    }
    // Release latch counts for chunks that were never spawned (when len < chunks *
    // chunk_size the loop may exit early).
    let spawned = len.div_ceil(chunk_size);
    for _ in spawned..chunks {
        latch.count_down();
    }
    latch.wait();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(2);
        let (a, b) = join(&pool, || 21 * 2, || "forty-two".len());
        assert_eq!(a, 42);
        assert_eq!(b, 9);
    }

    #[test]
    fn join_runs_in_parallel_when_it_can() {
        let pool = ThreadPool::new(2);
        // Not a timing assertion (flaky) — just check both sides complete when both
        // do real work.
        let (a, b) = join(
            &pool,
            || (0..100_000u64).sum::<u64>(),
            || (0..100_000u64).map(|x| x * 2).sum::<u64>(),
        );
        assert_eq!(b, 2 * a);
    }

    #[test]
    fn invoke_all_runs_everything() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..37)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        invoke_all(&pool, tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 37);
    }

    #[test]
    fn parallel_for_covers_the_whole_range_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits = Arc::new((0..1000).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let hits2 = Arc::clone(&hits);
        parallel_for_chunks(&pool, 1000, 7, move |range| {
            for i in range {
                hits2[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_handles_degenerate_inputs() {
        let pool = ThreadPool::new(2);
        // Zero length: no-op.
        parallel_for_chunks(&pool, 0, 4, |_r| panic!("must not be called"));
        // More chunks than elements.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        parallel_for_chunks(&pool, 3, 16, move |range| {
            c.fetch_add(range.len(), Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }
}
