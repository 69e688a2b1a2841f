//! A small shared worker pool for a client's overlapped RPCs.
//!
//! The commit path issues one prepare per participant, one best-effort
//! decision per secondary, and (on failure) one abort per participant; a
//! statement may prefetch several leaves.  Where calls spend wall-clock
//! time blocked — worker queues, slept latency, injected faults, or a log
//! flush at the end of every prepare — issuing those calls from one thread
//! serialises the waits.  [`FanoutPool`] lets the client overlap them: all
//! but one RPC of a round are handed to pool workers while the calling
//! thread issues the last one itself, so a round costs roughly its slowest
//! RPC instead of their sum; and a secondary's decision is handed to a
//! worker and not waited for at all.
//!
//! The pool is deliberately lazy: no thread exists until the first parallel
//! round, so in-memory deployments on the plain direct transport (most unit
//! tests, the CPU-bound benchmarks) never pay for it.  Workers exit when the
//! owning client core is dropped (the job channel disconnects); a decision
//! still in flight holds the core, so it lands first.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// A unit of work: issue one RPC and deliver its result somewhere.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Lazily-spawned fixed-size worker pool.
pub(crate) struct FanoutPool {
    workers: usize,
    tx: Mutex<Option<Sender<Job>>>,
}

impl FanoutPool {
    /// Creates an empty pool that will spawn `workers` threads on first use.
    pub(crate) fn new(workers: usize) -> Self {
        FanoutPool {
            workers: workers.max(1),
            tx: Mutex::new(None),
        }
    }

    /// Hands `job` to a worker, spawning the pool on first use.  Jobs are
    /// independent (none ever waits on another pool job), so a full pool
    /// only delays, never deadlocks.  If no worker can take the job — the
    /// system refused the threads, or every worker died — it comes back to
    /// the caller, who still has the thread it is running on.
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        let mut guard = self.tx.lock();
        let tx = guard.get_or_insert_with(|| {
            let (tx, rx) = unbounded::<Job>();
            for w in 0..self.workers {
                let rx: Receiver<Job> = rx.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("yesquel-fanout-{w}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    });
                if spawned.is_err() {
                    // Fewer workers than asked for still serve the queue;
                    // with none, the send below hands the job back.
                    break;
                }
            }
            tx
        });
        tx.send(job).map_err(|refused| refused.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn jobs_run_and_pool_is_lazy() {
        let pool = FanoutPool::new(4);
        assert!(pool.tx.lock().is_none(), "no threads before the first job");
        let counter = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = crossbeam::channel::bounded(64);
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let done = done_tx.clone();
            let submitted = pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = done.send(());
            }));
            assert!(submitted.is_ok(), "a live pool takes every job");
        }
        for _ in 0..64 {
            done_rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }
}
