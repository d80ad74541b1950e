//! Multi-threaded work scheduling over device slices.
//!
//! The fleet's workloads are embarrassingly parallel (per-device
//! simulation slices, per-shard attestation checks), so a scoped-thread
//! chunked map is all the scheduler we need — no async runtime, no work
//! stealing, no persistent pool.
//! [`Fleet::run_slice`](crate::Fleet::run_slice), campaigns and every
//! [`Verifier`](crate::Verifier) sweep run on [`parallel_map_mut`].
//! Results come back in input order, and a worker's panic reaches the
//! caller with its original payload.

use std::{mem, panic, thread};

/// Maps `f` over `items` on `min(threads, items.len())` worker threads,
/// each taking one contiguous chunk, preserving input order in the
/// result.
///
/// With `threads <= 1` (or a single item) the map runs inline, which
/// keeps single-core environments and tests deterministic and
/// profiler-friendly.
///
/// # Panics
///
/// If `f` panics on a worker thread, the other workers are joined and
/// the panic is re-raised on the caller with its original payload.
pub fn parallel_map_mut<I, T, F>(items: &mut [I], threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(&mut I) -> T + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        return items.iter_mut().map(&f).collect();
    }
    // `threads` contiguous chunks whose sizes differ by at most one, so
    // exactly `threads` workers run and none idles behind a longer one.
    let (base, extra) = (items.len() / threads, items.len() % threads);
    thread::scope(|scope| {
        let mut rest = items;
        let handles: Vec<_> = (0..threads)
            .map(|index| {
                let (chunk, tail) =
                    mem::take(&mut rest).split_at_mut(base + usize::from(index < extra));
                rest = tail;
                let f = &f;
                scope.spawn(move || chunk.iter_mut().map(f).collect::<Vec<T>>())
            })
            .collect();
        // Re-raise the worker's own payload; `thread::scope` still joins
        // every other worker before the unwind leaves this function.
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_mutates() {
        let mut items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map_mut(&mut items, 4, |x| {
            *x *= 2;
            *x
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
        assert_eq!(items[99], 198);
    }

    #[test]
    fn handles_empty_and_single_thread() {
        let mut empty: Vec<u8> = vec![];
        assert!(parallel_map_mut(&mut empty, 4, |x| *x).is_empty());
        let mut one = vec![5u8];
        assert_eq!(parallel_map_mut(&mut one, 0, |x| *x + 1), vec![6]);
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let mut items: Vec<u32> = (0..8).collect();
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            parallel_map_mut(&mut items, 4, |x| {
                if *x == 5 {
                    panic!("device 5 exploded");
                }
                *x
            })
        }))
        .expect_err("the worker's panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<&str>().copied(),
            Some("device 5 exploded")
        );
    }

    #[test]
    fn uneven_splits_run_every_thread() {
        // 16 items over 5 threads: chunks of 4, 3, 3, 3, 3.
        let mut items: Vec<u32> = (0..16).collect();
        let workers = parallel_map_mut(&mut items, 5, |_| thread::current().id());
        let mut distinct = workers.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 5);
        assert_eq!(workers.iter().filter(|id| **id == workers[0]).count(), 4);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let mut items = vec![1u8, 2, 3];
        assert_eq!(parallel_map_mut(&mut items, 64, |x| *x), vec![1, 2, 3]);
    }
}
