//! Persistent chunked worker pool shared by every parallel kernel.
//!
//! Spawning a fresh `crossbeam::thread::scope` per parallel call costs a
//! few hundred microseconds of thread creation on every large GEMM. This
//! module avoids those spawns with one process-wide pool of long-lived
//! workers and a chunked self-scheduling job queue:
//!
//! - [`run`] executes `n_tasks` closures; workers (and the caller, which
//!   always participates) claim task indices from a shared atomic counter,
//!   so load balances dynamically ("work stealing" at band granularity)
//!   while the *work itself* stays deterministic: task `i` computes the
//!   same bytes whichever thread runs it.
//! - Per-job seat limits honour `NDPIPE_THREADS`: a job admits at most
//!   `threads - 1` helpers even when the pool has more workers idle.
//! - Worker panics never unwind across the pool: each task runs under
//!   `catch_unwind` and the first failure is reported to the submitting
//!   caller as a typed [`PoolError`] after the job fully drains.
//!
//! Deadlock freedom: the caller of [`run`] participates until its own job
//! is complete and never executes tasks of *other* jobs, so a nested
//! `run` (e.g. a GEMM inside an FT-DMP store-stage task) always makes
//! progress even when every pool worker is busy elsewhere.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Hard cap on pool workers (the caller thread is extra). Sized for the
/// largest `NDPIPE_THREADS` sweep the benches run, not for real clusters.
pub const MAX_WORKERS: usize = 31;

/// Typed failure of a pool job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A task panicked; the message is the panic payload (first one wins).
    /// The job still drained completely before this was returned.
    WorkerPanicked(String),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked(msg) => write!(f, "pool worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Type-erased pointer to the caller's task closure.
///
/// Safety: the pointee lives on the stack of the [`run`] caller, which
/// blocks until every task of the job has completed; tasks are the only
/// code that dereferences the pointer, so it is never used after `run`
/// returns.
struct RawTask(*const (dyn Fn(usize) + Sync));

// Safety: the pointee is `Sync` (shared-callable from any thread) and the
// pointer itself is only a capability to call it; see `RawTask` docs for
// the lifetime argument.
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

/// One submitted job: a task closure plus chunked-scheduling state.
struct JobState {
    task: RawTask,
    /// Total tasks in the job.
    n_tasks: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Helper seats left (caller participation is not counted).
    seats: AtomicUsize,
    /// Tasks not yet completed; guarded so `done` can signal on zero.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload observed by any participant.
    panic: Mutex<Option<String>>,
}

impl JobState {
    /// Claims one helper seat; `false` means the job wants no more helpers.
    fn claim_seat(&self) -> bool {
        self.seats
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| s.checked_sub(1))
            .is_ok()
    }

    /// Whether a scan of the queue should still offer this job to workers.
    fn wants_helpers(&self) -> bool {
        self.seats.load(Ordering::Acquire) > 0 && self.next.load(Ordering::Acquire) < self.n_tasks
    }

    /// Claims task indices and runs them until the job is exhausted,
    /// containing panics per task. Used by workers and the caller alike.
    fn drain(&self) {
        // Safety: see `RawTask` — the closure outlives every task
        // execution because the submitting `run` call blocks on
        // `wait_done` before returning.
        let task: &(dyn Fn(usize) + Sync) = unsafe { &*self.task.0 };
        loop {
            let i = self.next.fetch_add(1, Ordering::AcqRel);
            if i >= self.n_tasks {
                break;
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
            if let Err(payload) = result {
                let msg = panic_message(&*payload);
                let mut first = lock_ignoring_poison(&self.panic);
                if first.is_none() {
                    *first = Some(msg);
                }
            }
            let mut rem = lock_ignoring_poison(&self.remaining);
            *rem = rem.saturating_sub(1);
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every task has completed.
    fn wait_done(&self) {
        let mut rem = lock_ignoring_poison(&self.remaining);
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The process-wide pool: a queue of jobs wanting helpers, plus lazily
/// spawned workers.
struct Pool {
    queue: Mutex<Vec<Arc<JobState>>>,
    work_available: Condvar,
    spawned: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: std::sync::OnceLock<Pool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Vec::new()),
        work_available: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

fn lock_ignoring_poison<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    // A panicked task is already reported through `JobState::panic`; the
    // guarded state (counters, queue vec) stays structurally valid.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Ensures at least `want` workers exist (capped at [`MAX_WORKERS`]).
    /// Spawn failure degrades parallelism, never correctness: the caller
    /// still drains its own job.
    fn ensure_workers(&'static self, want: usize) {
        let want = want.min(MAX_WORKERS);
        while self.spawned.load(Ordering::Acquire) < want {
            let id = self.spawned.fetch_add(1, Ordering::AcqRel);
            if id >= want {
                // Raced past the target; undo the reservation.
                self.spawned.fetch_sub(1, Ordering::AcqRel);
                break;
            }
            let spawn = std::thread::Builder::new()
                .name(format!("ndpipe-pool-{id}"))
                .spawn(move || self.worker_loop());
            if spawn.is_err() {
                self.spawned.fetch_sub(1, Ordering::AcqRel);
                break;
            }
        }
    }

    /// Publishes a job to the helper queue and wakes workers.
    fn submit(&self, job: Arc<JobState>) {
        let depth = {
            let mut q = lock_ignoring_poison(&self.queue);
            q.push(job);
            q.len()
        };
        if telemetry::enabled() {
            telemetry::global()
                .gauge(
                    "ndpipe_pool_queue_depth",
                    "jobs currently queued for helpers in the shared worker pool",
                )
                .set(depth as f64);
        }
        self.work_available.notify_all();
    }

    /// Worker body: repeatedly find a job that wants helpers, claim a
    /// seat, and drain it.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock_ignoring_poison(&self.queue);
                loop {
                    q.retain(|j| j.wants_helpers());
                    if telemetry::enabled() {
                        telemetry::global()
                            .gauge(
                                "ndpipe_pool_queue_depth",
                                "jobs currently queued for helpers in the shared worker pool",
                            )
                            .set(q.len() as f64);
                    }
                    if let Some(j) = q.iter().find(|j| j.claim_seat()) {
                        break j.clone();
                    }
                    q = self
                        .work_available
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.drain();
        }
    }
}

/// Runs `task(0..n_tasks)` across up to `threads` participants (the
/// caller plus at most `threads - 1` pool workers) and returns once every
/// task has completed.
///
/// Tasks are claimed dynamically from a shared counter, so scheduling is
/// nondeterministic but *assignment-independent*: as long as `task(i)`
/// computes the same result for a given `i` regardless of thread (the
/// contract every kernel in this crate upholds by writing disjoint,
/// index-addressed output bands), results are bit-identical at any
/// `threads` value.
///
/// # Errors
///
/// Returns [`PoolError::WorkerPanicked`] if any task panicked. The job is
/// always fully drained first — remaining tasks still run, so a poisoned
/// output band never wedges sibling bands.
pub fn run(threads: usize, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) -> Result<(), PoolError> {
    if n_tasks == 0 {
        return Ok(());
    }
    let threads = threads.max(1).min(n_tasks);
    if threads == 1 || n_tasks == 1 {
        // Serial fast path: same per-task panic containment, no queue.
        let mut first_panic = None;
        for i in 0..n_tasks {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
            if let Err(payload) = result {
                first_panic.get_or_insert_with(|| panic_message(&*payload));
            }
        }
        return match first_panic {
            Some(msg) => Err(PoolError::WorkerPanicked(msg)),
            None => Ok(()),
        };
    }

    // Safety: pure lifetime erasure — `run` blocks on `wait_done` until
    // every task has finished, and tasks are the only users of this
    // pointer, so it never outlives the borrow it came from.
    let task_erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(JobState {
        task: RawTask(task_erased as *const (dyn Fn(usize) + Sync)),
        n_tasks,
        next: AtomicUsize::new(0),
        seats: AtomicUsize::new(threads - 1),
        remaining: Mutex::new(n_tasks),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let p = pool();
    p.ensure_workers(threads - 1);
    p.submit(job.clone());
    job.drain(); // the caller always participates in its own job
    job.wait_done();

    let first = lock_ignoring_poison(&job.panic).take();
    match first {
        Some(msg) => Err(PoolError::WorkerPanicked(msg)),
        None => Ok(()),
    }
}

/// Parallel indexed map over `0..n`: runs `f(i)` through [`run`] and
/// collects the results in index order.
///
/// # Errors
///
/// Returns [`PoolError::WorkerPanicked`] if any task panicked (the
/// surviving tasks still ran to completion).
pub fn map_indexed<R, F>(threads: usize, n: usize, f: F) -> Result<Vec<R>, PoolError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run(threads, n, &|i| {
        let r = f(i);
        if let Some(slot) = slots.get(i) {
            *lock_ignoring_poison(slot) = Some(r);
        }
    })?;
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(r) => out.push(r),
            // Unreachable when run() returned Ok, but keep the typed path:
            // a task that produced no result is a worker failure.
            None => {
                return Err(PoolError::WorkerPanicked(
                    "task completed without producing a result".to_string(),
                ))
            }
        }
    }
    Ok(out)
}

/// Number of workers the pool has spawned so far (diagnostics/tests).
pub fn spawned_workers() -> usize {
    pool().spawned.load(Ordering::Acquire)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            run(threads, hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            })
            .expect("no panics");
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        assert_eq!(run(4, 0, &|_| unreachable!()), Ok(()));
    }

    #[test]
    fn panics_surface_as_typed_errors_after_draining() {
        for threads in [1, 3] {
            let completed: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
            let err = run(threads, 16, &|i| {
                if i == 5 {
                    panic!("band {i} exploded");
                }
                completed[i].fetch_add(1, Ordering::SeqCst);
            })
            .expect_err("task 5 panicked");
            assert_eq!(
                err,
                PoolError::WorkerPanicked("band 5 exploded".to_string()),
                "threads={threads}"
            );
            // Every other task still ran: the job drained fully.
            let done: u64 = completed.iter().map(|c| c.load(Ordering::SeqCst)).sum();
            assert_eq!(done, 15, "threads={threads}");
        }
    }

    #[test]
    fn map_collects_in_index_order() {
        for threads in [1, 2, 8] {
            let out = map_indexed(threads, 25, |i| i * i).expect("no panics");
            let expect: Vec<usize> = (0..25).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_propagates_panics() {
        let err = map_indexed(4, 8, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        })
        .expect_err("task 2 panicked");
        assert_eq!(err, PoolError::WorkerPanicked("boom".to_string()));
    }

    #[test]
    fn nested_runs_complete() {
        // A task that itself calls run() must not deadlock even when the
        // pool is saturated: callers drain their own jobs.
        let total = AtomicU64::new(0);
        run(4, 4, &|_| {
            run(4, 8, &|j| {
                total.fetch_add(j as u64, Ordering::SeqCst);
            })
            .expect("inner job");
        })
        .expect("outer job");
        assert_eq!(total.load(Ordering::SeqCst), 4 * (0..8).sum::<u64>());
    }

    #[test]
    fn error_display_is_informative() {
        let e = PoolError::WorkerPanicked("kernel bug".into());
        assert!(e.to_string().contains("kernel bug"));
    }
}
