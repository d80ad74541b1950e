//! The gateway's persistent, shard-affine worker pool: admission
//! control for verification batches.
//!
//! The reactor never verifies a report itself; it hands each shard's
//! batch of decoded reports to this pool as one *weighted* job and goes
//! back to its sockets. The pool is what turns overload into
//! attributable, device-scoped `Busy` replies instead of unbounded
//! buffering:
//!
//! * **Persistent threads** — workers are spawned once per gateway and
//!   reused across requests, so a batch costs a channel send, not a
//!   spawn.
//! * **Shard-affine dispatch** — a job is submitted *to a shard*, and a
//!   shard always maps to the same worker ([`WorkerPool::worker_of`]).
//!   Jobs for one shard execute in submission order, so one shard's
//!   batches never contend with each other for its key-cache shard.
//! * **Weighted, bounded admission** — each worker has a budget in
//!   *report* units: [`WorkerPool::try_submit_weighted`] charges a batch
//!   its size and fails fast with [`PoolBusy`] when the budget is spent,
//!   which the gateway answers with one `Busy` frame per shed report.
//!   [`WorkerPool::shard_load`] exposes the budget in use to the queue
//!   depth gauges.
//!
//! In-process fleet sweeps do not use this pool: they run on
//! `eilid_fleet::exec::parallel_map_mut` scoped threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::{fmt, thread};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`WorkerPool::try_submit_weighted`] when the target
/// worker's budget is spent — the caller should shed load or retry
/// later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolBusy {
    /// The shard whose worker queue was full.
    pub shard: usize,
}

impl fmt::Display for PoolBusy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker queue for shard {} is full", self.shard)
    }
}

impl std::error::Error for PoolBusy {}

struct Worker {
    sender: SyncSender<Job>,
    handle: JoinHandle<()>,
    /// Work currently queued or running on this worker, in *weight*
    /// units (reports, for the gateway's batched jobs). This is what
    /// makes backpressure honest for batch submitters: a batch of 64
    /// reports consumes 64 units of the budget, not one queue slot.
    in_flight: Arc<AtomicUsize>,
}

/// Decrements a worker's in-flight weight when the job finishes — via
/// `Drop`, so a panicking job releases its budget too.
struct WeightGuard {
    counter: Arc<AtomicUsize>,
    weight: usize,
}

impl Drop for WeightGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(self.weight, Ordering::Release);
    }
}

/// Long-lived, shard-affine worker pool. See the module docs.
pub struct WorkerPool {
    workers: Vec<Worker>,
    shard_count: usize,
    queue_depth: usize,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("shard_count", &self.shard_count)
            .field("queue_depth", &self.queue_depth)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `workers` persistent threads serving
    /// `shard_count` shards, each worker with a bounded queue of
    /// `queue_depth` jobs. All three are clamped to at least 1.
    pub fn new(workers: usize, shard_count: usize, queue_depth: usize) -> Self {
        let queue_depth = queue_depth.max(1);
        let workers = (0..workers.max(1))
            .map(|index| {
                let (sender, receiver): (SyncSender<Job>, Receiver<Job>) =
                    mpsc::sync_channel(queue_depth);
                let handle = thread::Builder::new()
                    .name(format!("eilid-pool-{index}"))
                    .spawn(move || {
                        // Drain until the sender is gone. A panicking job
                        // must not take the worker (and its shards) down
                        // with it; its weight guard still releases.
                        while let Ok(job) = receiver.recv() {
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawning a pool worker thread");
                Worker {
                    sender,
                    handle,
                    in_flight: Arc::new(AtomicUsize::new(0)),
                }
            })
            .collect();
        WorkerPool {
            workers,
            shard_count: shard_count.max(1),
            queue_depth,
        }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The fixed shard count.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The worker index serving `shard`.
    pub fn worker_of(&self, shard: usize) -> usize {
        shard % self.workers.len()
    }

    /// Queues a *batch* job of `weight` work units on `shard`'s worker,
    /// failing fast when the worker's weight budget is exhausted.
    ///
    /// The budget is `queue_depth + 1` units per worker (the `+ 1`
    /// models the job the worker is currently running). A single job
    /// heavier than the whole budget is still accepted when the worker
    /// is otherwise idle, so oversized batches degrade to serialized
    /// execution instead of permanent starvation. The weight is
    /// released when the job finishes — on panic too.
    ///
    /// # Errors
    ///
    /// Returns [`PoolBusy`] when admitting the job would exceed the
    /// worker's weight budget (or, rarely, its queue-slot bound).
    pub fn try_submit_weighted(
        &self,
        shard: usize,
        weight: usize,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), PoolBusy> {
        let weight = weight.max(1);
        let worker = &self.workers[self.worker_of(shard)];
        let budget = self.queue_depth + 1;
        // Reserve the weight first, so concurrent submitters cannot
        // jointly overshoot the budget.
        let mut current = worker.in_flight.load(Ordering::Acquire);
        loop {
            if current > 0 && current + weight > budget {
                return Err(PoolBusy { shard });
            }
            match worker.in_flight.compare_exchange_weak(
                current,
                current + weight,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
        let guard = WeightGuard {
            counter: Arc::clone(&worker.in_flight),
            weight,
        };
        let wrapped = move || {
            let _guard = guard;
            job();
        };
        worker
            .sender
            .try_send(Box::new(wrapped))
            .map_err(|err| match err {
                // The dropped job's WeightGuard released the reserved
                // weight already.
                TrySendError::Full(_) => PoolBusy { shard },
                // Workers only exit when their sender is dropped, which
                // cannot happen while `&self` is alive.
                TrySendError::Disconnected(_) => unreachable!("pool worker exited while pool live"),
            })
    }

    /// Work (in weight units) currently queued or running on the worker
    /// serving `shard`.
    pub fn shard_load(&self, shard: usize) -> usize {
        self.workers[self.worker_of(shard)]
            .in_flight
            .load(Ordering::Acquire)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for Worker { sender, handle, .. } in self.workers.drain(..) {
            // Closing the channel lets the worker drain its queue and exit.
            drop(sender);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn dropping_the_pool_drains_queued_jobs() {
        let pool = WorkerPool::new(2, 4, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for shard in 0..4 {
            let counter = Arc::clone(&counter);
            pool.try_submit_weighted(shard, 1, move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Dropping the pool joins the workers, draining the queues.
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn weighted_submission_respects_the_weight_budget() {
        // 1 worker, budget = queue_depth + 1 = 9 weight units.
        let pool = WorkerPool::new(1, 4, 8);
        let gate = Arc::new(Barrier::new(2));
        let parked = Arc::clone(&gate);
        // Park the worker under a weight-4 batch.
        pool.try_submit_weighted(0, 4, move || {
            parked.wait();
        })
        .unwrap();
        // A weight-5 batch still fits (4 + 5 = 9 ≤ 9)...
        pool.try_submit_weighted(1, 5, || {}).unwrap();
        assert_eq!(pool.shard_load(0), 9);
        // ...after which even a weight-1 job is refused.
        assert_eq!(
            pool.try_submit_weighted(2, 1, || {}),
            Err(PoolBusy { shard: 2 })
        );
        gate.wait();
        // Draining releases the weight and admission resumes.
        let drained = loop {
            match pool.try_submit_weighted(3, 8, || {}) {
                Ok(()) => break true,
                Err(PoolBusy { .. }) => std::thread::yield_now(),
            }
        };
        assert!(drained);
    }

    #[test]
    fn oversized_batch_is_accepted_on_an_idle_worker() {
        let pool = WorkerPool::new(1, 1, 2);
        let ran = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ran);
        let gate = Arc::new(Barrier::new(2));
        let parked = Arc::clone(&gate);
        // Weight 100 dwarfs the budget of 3, but the worker is idle:
        // refusing forever would starve the caller.
        pool.try_submit_weighted(0, 100, move || {
            counter.fetch_add(1, Ordering::SeqCst);
            parked.wait();
        })
        .unwrap();
        // While it is pending/running, everything else is refused.
        assert!(pool.try_submit_weighted(0, 1, || {}).is_err());
        gate.wait();
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_weighted_job_releases_its_weight() {
        let pool = WorkerPool::new(1, 1, 4);
        pool.try_submit_weighted(0, 5, || panic!("batch job exploded"))
            .unwrap();
        // Once the panicked job drains, the full budget is back.
        let readmitted = loop {
            match pool.try_submit_weighted(0, 5, || {}) {
                Ok(()) => break true,
                Err(PoolBusy { .. }) => std::thread::yield_now(),
            }
        };
        assert!(readmitted);
    }

    #[test]
    fn shard_routing_is_deterministic() {
        let pool = WorkerPool::new(3, 16, 4);
        for shard in 0..16 {
            assert_eq!(pool.worker_of(shard), shard % 3);
        }
    }
}
