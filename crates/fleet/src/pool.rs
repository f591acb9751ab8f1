//! A std-only work-stealing thread pool for the device farm.
//!
//! The farm runs thousands of short device jobs (boot, load, attest,
//! disconnect). Each worker owns a deque: it pops its own work LIFO (the
//! freshest job's platform state is the hottest in cache) and steals from
//! other workers FIFO (the oldest queued job is the least likely to be
//! popped by its owner next). Spawns distribute round-robin so no single
//! queue becomes the bottleneck under a burst of submissions.
//!
//! Everything is `std`: queues are `Mutex<VecDeque>`, sleeping workers
//! park on a condvar, and [`WorkStealingPool::wait_idle`] blocks until
//! every spawned job has *finished* (not merely been dequeued).
//!
//! # Examples
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use tytan_fleet::pool::WorkStealingPool;
//!
//! let pool = WorkStealingPool::new(4);
//! let done = Arc::new(AtomicUsize::new(0));
//! for _ in 0..100 {
//!     let done = done.clone();
//!     pool.spawn(move || {
//!         done.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.wait_idle();
//! assert_eq!(done.load(Ordering::Relaxed), 100);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a pool mutex, recovering the guard if a holder panicked.
///
/// Jobs run under `catch_unwind` outside every pool lock, so only a bug
/// in the pool itself could poison one. Even then the data stays valid:
/// the deques are only changed by single `push_back`/`pop_*` calls and
/// the other locks guard `()`.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sleeps on `cv` for at most `timeout`, under the same poison policy
/// as [`lock`]; callers re-check their condition either way.
fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, ()>, timeout: Duration) -> MutexGuard<'a, ()> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

struct Shared {
    /// One deque per worker. Owners pop the back (LIFO), thieves pop the
    /// front (FIFO).
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs spawned but not yet finished (queued + running).
    inflight: AtomicUsize,
    /// Round-robin spawn cursor.
    next: AtomicUsize,
    shutdown: AtomicBool,
    /// Workers sleep here when every queue is empty.
    work_lock: Mutex<()>,
    work_cv: Condvar,
    /// `wait_idle` sleeps here until `inflight` drains to zero.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl Shared {
    /// Pops a job for worker `who`: own queue LIFO first, then steal
    /// FIFO from the others.
    fn find_job(&self, who: usize) -> Option<Job> {
        if let Some(job) = lock(&self.queues[who]).pop_back() {
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (who + offset) % n;
            if let Some(job) = lock(&self.queues[victim]).pop_front() {
                return Some(job);
            }
        }
        None
    }

    fn finish_one(&self) {
        if self.inflight.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = lock(&self.idle_lock);
            self.idle_cv.notify_all();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, who: usize) {
    loop {
        if let Some(job) = shared.find_job(who) {
            // A panicking job must not kill the worker (stranding every
            // job still queued behind it) or leak its inflight slot
            // (wedging `wait_idle` forever). Contain it and move on.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            shared.finish_one();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Sleep with a short timeout rather than spinning: device jobs
        // block their worker mid-conversation (waiting on a challenge),
        // and a hot-spinning sibling would starve the verifier thread on
        // small machines. Spawns notify under `work_lock`, so the timeout
        // only bounds the rare lost-wakeup window.
        let guard = lock(&shared.work_lock);
        if !shared.shutdown.load(Ordering::Acquire) {
            drop(wait(&shared.work_cv, guard, Duration::from_millis(1)));
        }
    }
}

/// A fixed-size pool of worker threads with per-worker stealing deques.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("workers", &self.workers.len())
            .field("inflight", &self.shared.inflight.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkStealingPool {
    /// Spawns a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            inflight: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            work_lock: Mutex::new(()),
            work_cv: Condvar::new(),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|who| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{who}"))
                    .spawn(move || worker_loop(shared, who))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkStealingPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job` on the next queue round-robin.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        lock(&self.shared.queues[slot]).push_back(Box::new(job));
        let _guard = lock(&self.shared.work_lock);
        self.shared.work_cv.notify_all();
    }

    /// Jobs spawned but not yet finished.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// Blocks until every spawned job has finished.
    pub fn wait_idle(&self) {
        let mut guard = lock(&self.shared.idle_lock);
        while self.shared.inflight.load(Ordering::Acquire) > 0 {
            guard = wait(&self.shared.idle_cv, guard, Duration::from_millis(1));
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.work_lock);
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_job_once() {
        let pool = WorkStealingPool::new(4);
        let hits = Arc::new(Mutex::new(vec![0u32; 500]));
        for i in 0..500 {
            let hits = hits.clone();
            pool.spawn(move || {
                hits.lock().unwrap()[i] += 1;
            });
        }
        pool.wait_idle();
        assert!(hits.lock().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn jobs_can_spawn_jobs() {
        let pool = Arc::new(WorkStealingPool::new(2));
        let count = Arc::new(AtomicUsize::new(0));
        {
            let pool2 = pool.clone();
            let count = count.clone();
            pool.spawn(move || {
                for _ in 0..10 {
                    let count = count.clone();
                    pool2.spawn(move || {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        // Wait until the outer job has enqueued the inner ones, then for
        // everything to drain.
        while count.load(Ordering::Relaxed) < 10 {
            std::thread::yield_now();
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn single_worker_pool_still_drains() {
        let pool = WorkStealingPool::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let count = count.clone();
            pool.spawn(move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 50);
        assert_eq!(pool.inflight(), 0);
    }

    #[test]
    fn panicking_job_neither_kills_its_worker_nor_wedges_wait_idle() {
        let pool = WorkStealingPool::new(1);
        pool.spawn(|| panic!("synthetic"));
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let count = count.clone();
            pool.spawn(move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(pool.inflight(), 0);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns_immediately() {
        let pool = WorkStealingPool::new(3);
        pool.wait_idle();
        assert_eq!(pool.inflight(), 0);
    }

    #[test]
    fn stealing_moves_work_off_a_blocked_worker() {
        // Saturate the pool with one long job per worker except one, then
        // verify short jobs spawned onto arbitrary queues all finish while
        // a long job is still running: someone stole them.
        let pool = WorkStealingPool::new(2);
        let release = Arc::new(AtomicBool::new(false));
        {
            let release = release.clone();
            pool.spawn(move || {
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let count = count.clone();
            pool.spawn(move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        // All 20 short jobs finish even though one worker is pinned:
        // round-robin put half of them on the blocked worker's queue, so
        // the free worker must have stolen them.
        while count.load(Ordering::Relaxed) < 20 {
            std::thread::yield_now();
        }
        release.store(true, Ordering::Release);
        pool.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }
}
