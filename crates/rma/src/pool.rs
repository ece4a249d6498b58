//! A persistent work-stealing worker pool for the superstep executor.
//!
//! The original `ExecMode::Threaded` scheduler spawned a fresh
//! `crossbeam::thread::scope` for every phase of every parallel step and
//! statically chunked ranks contiguously. That has two costs the paper's
//! workload makes visible: thread spawn/join overhead dominates small
//! steps (Distributed Southwell runs two short phases per step, most of
//! which relax only a handful of "winning" ranks), and contiguous chunking
//! clusters the hot ranks of an imbalanced step onto one thread.
//!
//! This pool fixes both. Workers are created **once per executor** and
//! parked on a condvar between dispatches. A dispatch publishes a
//! type-erased task closure plus a task count; workers self-schedule task
//! indices from a shared atomic cursor (self-scheduling — the lock-free
//! equivalent of a work-stealing deque for an indexed task list: whichever
//! worker finishes early steals the next index). The executor makes each
//! index a short chunk of ranks, so hot ranks spread across workers no
//! matter where they sit in rank order.
//!
//! Determinism is unaffected by construction: a task index is claimed by
//! exactly one worker (`fetch_add`), every task writes only to its own
//! chunk, and the dispatch does not return until every worker has
//! quiesced — scheduling order can change *when* a rank runs, never *what*
//! it computes or where the result lands.
//!
//! Two rules keep the pool sound whatever safe code does with it:
//! dispatches are serialised by a lock held for the whole of
//! [`WorkerPool::run`] (clones of a [`SharedPool`] may dispatch from many
//! threads), and a panicking task is caught on the worker, which still
//! reports done; `run` re-raises the panic once the pool has quiesced.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The task of one dispatch, with its lifetime erased (see
/// [`WorkerPool::run`]).
type Task = &'static (dyn Fn(usize) + Sync);

/// Dispatch state guarded by the pool mutex.
struct Dispatch {
    /// Monotone dispatch counter; a worker runs one dispatch per increment.
    generation: u64,
    /// The current task closure (`None` between dispatches).
    task: Option<Task>,
    /// Number of task indices in the current dispatch.
    ntasks: usize,
    /// Workers that have finished the current dispatch.
    done: usize,
    /// The first panic a task raised in the current dispatch.
    panic: Option<Box<dyn Any + Send>>,
    /// Pool is shutting down (drop).
    shutdown: bool,
}

struct Shared {
    state: Mutex<Dispatch>,
    /// Workers wait here for a new generation.
    work_cv: Condvar,
    /// The dispatcher waits here for `done == nworkers`.
    done_cv: Condvar,
    /// Next unclaimed task index of the current dispatch.
    cursor: AtomicUsize,
    /// Cumulative busy wall-time per worker, nanoseconds.
    busy_ns: Vec<AtomicU64>,
}

impl Shared {
    /// Tasks run outside this lock, and every update under it is a plain
    /// field write that leaves the state valid, so a poisoned guard is
    /// safe to recover (and `Drop` must not panic on one).
    fn lock(&self) -> MutexGuard<'_, Dispatch> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Persistent worker pool. Created once, reused for every phase dispatch,
/// joined on drop.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Held for the whole of [`WorkerPool::run`]: one dispatch at a time.
    dispatch: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `nworkers` parked worker threads (`nworkers >= 1`).
    pub(crate) fn new(nworkers: usize) -> Self {
        assert!(nworkers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(Dispatch {
                generation: 0,
                task: None,
                ntasks: 0,
                done: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            busy_ns: (0..nworkers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..nworkers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dsw-rma-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            dispatch: Mutex::new(()),
        }
    }

    /// Number of workers.
    pub(crate) fn nworkers(&self) -> usize {
        self.handles.len()
    }

    /// Cumulative busy wall-time of worker `w` in nanoseconds.
    pub(crate) fn busy_ns(&self, w: usize) -> u64 {
        self.shared.busy_ns[w].load(Ordering::Relaxed)
    }

    /// Runs `task(i)` for every `i in 0..ntasks` across the pool. Blocks
    /// until all indices have been executed and every worker has quiesced.
    /// Concurrent callers queue behind one another. If a task panics, the
    /// dispatch stops handing out indices to that worker, the others
    /// finish, and the first panic is re-raised here. A task must not
    /// dispatch onto its own pool (it would wait for itself).
    pub(crate) fn run(&self, ntasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if ntasks == 0 {
            return;
        }
        // The lock guards no data, so a poisoned one is as good as new.
        let serial = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
        let shared = &*self.shared;
        // SAFETY: only the lifetime changes. Workers read `st.task` only
        // while `st.done < nworkers` for this generation; `serial` makes
        // this the only dispatch that can set and clear it; and this call
        // returns only after every worker has reported done (under the
        // state mutex, which orders each worker's last use of the closure
        // before our wait ends) and `task` has been cleared again. So no
        // worker touches the closure after `run` returns, and the borrow
        // it came from outlives every use.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(task) };
        let mut st = shared.lock();
        shared.cursor.store(0, Ordering::Relaxed);
        st.task = Some(task);
        st.ntasks = ntasks;
        st.done = 0;
        st.generation += 1;
        shared.work_cv.notify_all();
        while st.done < self.handles.len() {
            st = shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.task = None;
        let panicked = st.panic.take();
        drop(st);
        drop(serial);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }
}

/// A worker pool shared by many executors — the serving-layer substrate.
///
/// The original design creates one private worker pool per
/// [`Executor`](crate::Executor) ([`ExecMode::Threaded`](crate::ExecMode)),
/// which is right for a single long solve but wrong for a service
/// multiplexing hundreds of tenants: P tenants would spawn P pools of N
/// threads each, oversubscribing the host N-fold. A `SharedPool` is one
/// pool handed to every executor via
/// [`Executor::with_shared_pool`](crate::Executor::with_shared_pool); the
/// executors take turns dispatching onto it (one dispatch at a time,
/// enforced by the pool: a second thread's dispatch waits for the first),
/// and the pool's workers stay parked between dispatches exactly as in the
/// single-executor case.
///
/// Cloning is shallow (an [`Arc`] bump): clones dispatch onto the same
/// workers. The threads join when the last clone drops.
#[derive(Clone)]
pub struct SharedPool {
    pool: Arc<WorkerPool>,
}

impl SharedPool {
    /// Spawns a pool of `nworkers` parked workers (`nworkers >= 1`).
    pub fn new(nworkers: usize) -> Self {
        SharedPool {
            pool: Arc::new(WorkerPool::new(nworkers)),
        }
    }

    /// Number of workers.
    pub fn nworkers(&self) -> usize {
        self.pool.nworkers()
    }

    /// The underlying pool handle (crate-internal: executors dispatch on
    /// it).
    pub(crate) fn inner(&self) -> &WorkerPool {
        &self.pool
    }

    /// A stable identity for this pool's worker set, shared by clones of
    /// the handle. Callers that cache executors built against a pool use
    /// it to check "same pool as last time" without holding a reference.
    pub fn id(&self) -> usize {
        Arc::as_ptr(&self.pool) as usize
    }

    /// Opens a per-epoch accounting view positioned at *now*: the returned
    /// [`PoolStats`] reports busy time accumulated **after** this call, so
    /// a reused pool never smears one run's busy time into the next.
    pub fn stats(&self) -> PoolStats {
        let base = (0..self.pool.nworkers())
            .map(|w| self.pool.busy_ns(w))
            .collect();
        PoolStats {
            pool: Arc::clone(&self.pool),
            base,
        }
    }
}

/// Per-epoch busy accounting of a [`SharedPool`].
///
/// The pool's raw `busy_ns` counters are cumulative over its lifetime;
/// utilization quoted from them after the pool served several runs would
/// blend every tenant's work (and can exceed 1.0 for the last run). A
/// `PoolStats` carries an epoch baseline: [`PoolStats::take_epoch`]
/// harvests the busy time since the baseline and resets it to *now* — one
/// call per solve gives exact per-solve attribution on a pool of any age.
pub struct PoolStats {
    pool: Arc<WorkerPool>,
    /// Cumulative busy-ns snapshot at the epoch start, per worker.
    base: Vec<u64>,
}

impl PoolStats {
    /// Harvests the epoch: returns per-worker busy-ns since the baseline
    /// and resets the baseline to *now*, so the next epoch starts at zero.
    pub fn take_epoch(&mut self) -> Vec<u64> {
        let snapshot: Vec<u64> = (0..self.base.len()).map(|w| self.pool.busy_ns(w)).collect();
        let epoch = snapshot
            .iter()
            .zip(&self.base)
            .map(|(&now, &b)| now.saturating_sub(b))
            .collect();
        self.base = snapshot;
        epoch
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen = 0u64;
    loop {
        let (task, ntasks) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break (st.task.expect("dispatch has a task"), st.ntasks);
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let t0 = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= ntasks {
                break;
            }
            task(i);
        }));
        shared.busy_ns[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut st = shared.lock();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.done += 1;
        if st.done == shared.busy_ns.len() {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_index_runs_exactly_once() {
        for nworkers in [1usize, 2, 4] {
            let pool = WorkerPool::new(nworkers);
            for ntasks in [1usize, 3, 257] {
                let hits: Vec<AtomicU32> = (0..ntasks).map(|_| AtomicU32::new(0)).collect();
                pool.run(hits.len(), &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{nworkers} workers, {ntasks} tasks"
                );
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = WorkerPool::new(2);
        let sum = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(10, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 45 * 100);
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = WorkerPool::new(3);
        pool.run(0, &|_| panic!("no task should run"));
    }

    /// Clones of one `SharedPool` are `Send`, so safe code can dispatch
    /// from two threads at once. Each dispatch must still run every index
    /// exactly once, and both threads must finish.
    #[test]
    fn concurrent_dispatches_on_one_pool_are_serialised() {
        let pool = SharedPool::new(2);
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let pool = pool.clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..1_000 {
                        let hits: Vec<AtomicU32> = (0..17).map(|_| AtomicU32::new(0)).collect();
                        pool.inner().run(hits.len(), &|i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        assert!(
                            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                            "round {round}: an index ran other than once"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("dispatching thread finished cleanly");
        }
    }

    /// A panicking task reaches the dispatcher as a panic instead of
    /// killing its worker (which would hang the dispatch), and the pool
    /// serves the next dispatch normally.
    #[test]
    fn a_panicking_task_is_re_raised_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| assert_ne!(i, 5, "task five fails"));
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert_ne! panics with a String");
        assert!(msg.contains("task five fails"), "{msg}");
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_stats_take_epoch_resets_the_baseline() {
        // Two back-to-back "runs" on one pool: each epoch must see only
        // its own busy time, not the pool-lifetime accumulation.
        let shared = SharedPool::new(2);
        let mut stats = shared.stats();
        let spin = |_: usize| {
            std::hint::black_box((0..20_000).sum::<u64>());
        };
        shared.inner().run(64, &spin);
        let first = stats.take_epoch();
        assert!(first.iter().sum::<u64>() > 0, "first epoch measured");
        // A fresh epoch starts at zero even though the pool counters do not.
        assert_eq!(stats.take_epoch().iter().sum::<u64>(), 0);
        shared.inner().run(64, &spin);
        let second = stats.take_epoch();
        let lifetime: u64 = (0..shared.nworkers())
            .map(|w| shared.inner().busy_ns(w))
            .sum();
        assert!(second.iter().sum::<u64>() > 0, "second epoch measured");
        assert_eq!(
            first.iter().sum::<u64>() + second.iter().sum::<u64>(),
            lifetime,
            "epochs partition the pool-lifetime busy time"
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let pool = WorkerPool::new(1);
        pool.run(64, &|_| {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(pool.busy_ns(0) > 0);
    }
}
