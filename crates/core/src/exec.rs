//! Shared work-execution substrate.
//!
//! Both concurrency consumers in the workspace — [`crate::VerifAi::verify_batch`]
//! and the long-lived `verifai-service` executor — run the same worker
//! discipline: a fixed set of threads draining one MPMC channel until every
//! sender disconnects ([`work_loop`]). Batch verification wraps it in scoped
//! threads over borrowed jobs ([`run_scoped`]); the service wraps it in a
//! long-lived [`WorkerPool`] whose handler is handed the channel too (the
//! service reads the backlog behind a request there to shed load).

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

/// The one worker loop: drain `rx` until all senders disconnect. The handler
/// receives the receiver alongside each item so it can see the backlog
/// behind it before doing expensive work.
pub fn work_loop<T, H>(rx: &Receiver<T>, handler: &H)
where
    H: Fn(&Receiver<T>, T),
{
    while let Ok(item) = rx.recv() {
        handler(rx, item);
    }
}

/// Run one-shot jobs (which may borrow locals) across `threads` scoped
/// workers, returning when all jobs have run. Jobs start in list order.
/// Panics in jobs propagate.
pub fn run_scoped<F>(threads: usize, jobs: Vec<F>)
where
    F: FnOnce() + Send,
{
    run_scoped_beside(threads, jobs, || ());
}

/// [`run_scoped`], with the calling thread running `on_caller` while the
/// workers drain the jobs; returns its result once both are done. With one
/// thread the jobs run inline first. What `on_caller` allocates stays in
/// the calling thread's malloc arena.
pub fn run_scoped_beside<F, R>(threads: usize, jobs: Vec<F>, on_caller: impl FnOnce() -> R) -> R
where
    F: FnOnce() + Send,
{
    if threads <= 1 {
        for job in jobs {
            job();
        }
        return on_caller();
    }
    let workers = threads.min(jobs.len());
    let (tx, rx) = unbounded::<F>();
    for job in jobs {
        if tx.send(job).is_err() {
            unreachable!("receiver is alive until the scope below");
        }
    }
    drop(tx);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = rx.clone();
            scope.spawn(move || work_loop(&rx, &|_rx: &Receiver<F>, job: F| job()));
        }
        on_caller()
    })
}

/// A long-lived pool of named worker threads draining a shared (optionally
/// bounded) queue with [`work_loop`].
pub struct WorkerPool<T: Send + 'static> {
    tx: Option<Sender<T>>,
    rx: Receiver<T>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawn `threads` workers running `handler` over queue items. With
    /// `queue_capacity`, the queue is bounded and [`WorkerPool::try_submit`]
    /// reports fullness; otherwise it is unbounded.
    pub fn new<H>(threads: usize, queue_capacity: Option<usize>, handler: H) -> WorkerPool<T>
    where
        H: Fn(&Receiver<T>, T) + Send + Sync + 'static,
    {
        let (tx, rx) = match queue_capacity {
            Some(capacity) => bounded(capacity.max(1)),
            None => unbounded(),
        };
        let handler = Arc::new(handler);
        let handles = (0..threads.max(1))
            .map(|i| {
                let rx = rx.clone();
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("verifai-worker-{i}"))
                    .spawn(move || work_loop(&rx, &*handler))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            rx,
            handles,
        }
    }

    /// Enqueue without blocking. `Err` returns the item when the queue is
    /// full or the pool is shutting down.
    pub fn try_submit(&self, item: T) -> Result<(), T> {
        match self.tx.as_ref() {
            Some(tx) => tx.try_send(item).map_err(|e| match e {
                TrySendError::Full(item) | TrySendError::Disconnected(item) => item,
            }),
            None => Err(item),
        }
    }

    /// Items currently queued (excludes items being processed).
    pub fn queue_len(&self) -> usize {
        self.rx.len()
    }

    /// Disconnect the queue and wait for workers to drain what is already
    /// enqueued. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        drop(self.tx.take());
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn run_scoped_runs_every_job_with_borrows() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..37)
            .map(|i| {
                let counter = &counter;
                move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                }
            })
            .collect();
        run_scoped(4, jobs);
        assert_eq!(counter.load(Ordering::Relaxed), (0..37).sum::<usize>());
    }

    #[test]
    fn run_scoped_single_threaded_path() {
        let hits = AtomicUsize::new(0);
        let hits_ref = &hits;
        run_scoped(
            1,
            vec![|| {
                hits_ref.fetch_add(1, Ordering::Relaxed);
            }],
        );
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_processes_and_drains_on_shutdown() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_in = Arc::clone(&seen);
        let mut pool = WorkerPool::new(3, Some(64), move |_rx, item: u32| {
            seen_in.lock().unwrap().push(item);
        });
        for i in 0..50 {
            pool.try_submit(i).expect("queue has room");
        }
        pool.shutdown();
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn bounded_pool_reports_full() {
        // A handler that blocks forever on the first item it sees would hang
        // shutdown, so park on a channel we control and release at the end.
        let (gate_tx, gate_rx) = bounded::<()>(1);
        let gate_rx = Arc::new(std::sync::Mutex::new(gate_rx));
        let pool = WorkerPool::new(1, Some(2), move |_rx, _item: u32| {
            let _ = gate_rx.lock().unwrap().recv();
        });
        // First item is picked up by the worker (which parks); two more fill
        // the queue; the next must be rejected.
        pool.try_submit(0).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        assert_eq!(pool.try_submit(3), Err(3));
        drop(gate_tx); // unpark workers so drop can join
    }
}
