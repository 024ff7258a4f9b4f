//! The persistent fork-join worker pool.
//!
//! [`ExecutionContext`] owns a set of parked worker threads that live for
//! the whole session.  Work is submitted through the scoped fork-join API
//! [`ExecutionContext::scope`]: the scope body spawns closures that may
//! borrow from the enclosing stack frame, and `scope` does not return until
//! every spawned job has finished — the same contract as
//! `std::thread::scope`, but without spawning (and tearing down) operating
//! system threads on every call.  A sweep over dozens of `(y, n0)` lot
//! experiments therefore reuses the same workers for every point.
//!
//! Design notes:
//!
//! * Jobs go through one shared FIFO injector queue.  The jobs of this
//!   workspace are coarse shards (hundreds of chips or faults each), so a
//!   single mutex-protected queue is nowhere near contention.
//! * The thread that calls [`scope`](ExecutionContext::scope) *participates*:
//!   after the scope body returns it drains queued jobs itself until its own
//!   jobs are done.  A context configured for `n` workers therefore parks
//!   only `n - 1` pool threads, and a 1-worker context runs everything
//!   inline on the caller with no cross-thread traffic at all.
//! * Helping also makes nested scopes deadlock-free: a job that opens its
//!   own scope on the same context drains the queue while it waits, so
//!   progress never depends on a parked worker being available.
//! * A panicking job does not poison the pool: the panic is caught in the
//!   job wrapper, carried to the owning scope, and re-thrown from `scope`
//!   after every sibling job has been joined.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use crate::config::RunConfig;
use lsiq_obs::{Counter, Gauge};

/// Fork-join scopes opened on any context.
static SCOPES: Counter = Counter::new("pool.scopes");
/// Jobs spawned into scopes.  Spawn counts are a property of the workload,
/// so this total is identical at every worker count (unlike the wait
/// totals below, which describe the pool's actual schedule).
static JOBS: Counter = Counter::new("pool.jobs");
/// Times a pool worker parked on the job-ready condvar.
static PARKS: Counter = Counter::new("pool.parks");
/// Nanoseconds pool workers spent parked (includes idle time between
/// scopes while telemetry is enabled).
static PARK_NS: Counter = Counter::new("pool.park_ns");
/// Nanoseconds scope callers spent waiting for in-flight jobs after the
/// queue drained.
static JOIN_WAIT_NS: Counter = Counter::new("pool.join_wait_ns");
/// Total execution lanes of the most recently used context.
static WORKERS: Gauge = Gauge::new("pool.workers");

/// A queued unit of work.  Jobs are the wrappers built by [`Scope::spawn`];
/// they catch panics internally and therefore never unwind into the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, recovering the guard if a previous holder panicked (jobs
/// catch panics, so poisoning can only come from foreign unwinds).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the context handle and its worker threads.
struct PoolShared {
    queue: Mutex<QueueState>,
    job_ready: Condvar,
}

impl PoolShared {
    fn push(&self, job: Job) {
        lock(&self.queue).jobs.push_back(job);
        self.job_ready.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        lock(&self.queue).jobs.pop_front()
    }
}

fn worker_loop(shared: Arc<PoolShared>, worker_index: usize) {
    // Bind this worker to its own counter shard so concurrent recording
    // never contends on one cache line (slot 0 is the participating caller).
    lsiq_obs::set_worker_slot(worker_index);
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                let parked = lsiq_obs::enabled().then(Instant::now);
                queue = shared
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                if let Some(parked) = parked {
                    PARKS.incr();
                    PARK_NS.add(parked.elapsed().as_nanos() as u64);
                }
            }
        };
        job();
    }
}

/// Book-keeping of one [`ExecutionContext::scope`] call: how many spawned
/// jobs are still unfinished, and the first panic payload if any job blew up.
struct ScopeState {
    pending: Mutex<usize>,
    finished: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn new() -> ScopeState {
        ScopeState {
            pending: Mutex::new(0),
            finished: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

/// A persistent pool of parked worker threads with a scoped fork-join API.
///
/// Construct one per session ([`ExecutionContext::new`] /
/// [`ExecutionContext::from_config`]) and pass it to the parallel stages; a
/// stage given no context runs on the calling thread.
///
/// ```
/// use lsiq_exec::ExecutionContext;
///
/// let context = ExecutionContext::new(4);
/// let values = [3u64, 1, 4, 1, 5, 9, 2, 6];
/// let mut doubled = vec![0u64; values.len()];
/// context.scope(|scope| {
///     for (slot, &value) in doubled.iter_mut().zip(&values) {
///         scope.spawn(move || *slot = value * 2);
///     }
/// });
/// assert_eq!(doubled, [6, 2, 8, 2, 10, 18, 4, 12]);
///
/// // The same workers serve every subsequent scope — nothing is respawned.
/// let total: u64 = doubled.iter().sum();
/// assert_eq!(total, 62);
/// ```
pub struct ExecutionContext {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ExecutionContext {
    /// Creates a context with `workers` total execution lanes (`0` means the
    /// available hardware parallelism).
    ///
    /// The calling thread participates in every [`scope`](Self::scope), so
    /// only `workers - 1` pool threads are spawned; a 1-worker context runs
    /// every job inline on the caller.
    ///
    /// Thread spawning is best-effort: if the operating system refuses a
    /// thread (resource exhaustion, a configured count beyond the process's
    /// limits), the context runs with the lanes it obtained — correctness
    /// never depends on the pool size, because the caller drains the queue
    /// itself — and [`workers`](Self::workers) reports the real count.
    pub fn new(workers: usize) -> ExecutionContext {
        let workers = if workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(workers.saturating_sub(1));
        for index in 1..workers {
            let shared = Arc::clone(&shared);
            match thread::Builder::new()
                .name(format!("lsiq-exec-{index}"))
                .spawn(move || worker_loop(shared, index))
            {
                Ok(handle) => handles.push(handle),
                // Out of threads: degrade to the lanes already running
                // rather than crashing the whole session.
                Err(_) => break,
            }
        }
        let workers = handles.len() + 1;
        ExecutionContext {
            shared,
            workers,
            handles,
        }
    }

    /// Creates a context sized by a [`RunConfig`] (its explicit worker
    /// override, or the available hardware parallelism).
    pub fn from_config(config: &RunConfig) -> ExecutionContext {
        ExecutionContext::new(config.workers().unwrap_or(0))
    }

    /// Total execution lanes of this context (pool threads plus the
    /// participating caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a fork-join scope on the pool.
    ///
    /// The body may [`spawn`](Scope::spawn) jobs that borrow from the
    /// enclosing stack frame; `scope` returns only after every spawned job
    /// has finished, exactly like `std::thread::scope`.  If the body or any
    /// job panics, the panic is re-thrown here — after all sibling jobs have
    /// been joined, so borrowed data is never left aliased.  When both the
    /// body and a job panic, the body's panic wins (it is the one already
    /// unwinding through the caller, matching `std::thread::scope`).
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        SCOPES.incr();
        WORKERS.set(self.workers as u64);
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState::new()),
            _env: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
        self.join_scope(&scope.state);
        match result {
            Ok(value) => {
                if let Some(payload) = lock(&scope.state.panic).take() {
                    panic::resume_unwind(payload);
                }
                value
            }
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Maps every item through `work` on the pool — the ordered fork-join
    /// building block of the parallel stages: one job per item, results
    /// returned in item order regardless of which worker ran what.
    ///
    /// ```
    /// use lsiq_exec::ExecutionContext;
    ///
    /// let context = ExecutionContext::new(3);
    /// let squares = context.scope_map(vec![1u64, 2, 3, 4], |value| value * value);
    /// assert_eq!(squares, [1, 4, 9, 16]);
    /// ```
    pub fn scope_map<I, T, F>(&self, items: Vec<I>, work: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
        let work = &work;
        self.scope(|scope| {
            for (slot, item) in slots.iter_mut().zip(items) {
                scope.spawn(move || *slot = Some(work(item)));
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("scope joins every job before returning"))
            .collect()
    }

    /// Waits until every job of `state` has finished, running queued jobs on
    /// the calling thread while it waits (which is what makes 1-worker
    /// contexts and nested scopes work without extra threads).
    fn join_scope(&self, state: &ScopeState) {
        loop {
            if *lock(&state.pending) == 0 {
                return;
            }
            if let Some(job) = self.shared.try_pop() {
                job();
                continue;
            }
            // The queue is empty, so all remaining jobs of this scope are
            // in flight on other threads; park until they signal completion.
            let waited = lsiq_obs::enabled().then(Instant::now);
            let mut pending = lock(&state.pending);
            while *pending != 0 {
                pending = state
                    .finished
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(waited) = waited {
                JOIN_WAIT_NS.add(waited.elapsed().as_nanos() as u64);
            }
            return;
        }
    }
}

impl fmt::Debug for ExecutionContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutionContext")
            .field("workers", &self.workers)
            .field("pool_threads", &self.handles.len())
            .finish()
    }
}

impl Drop for ExecutionContext {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.job_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The spawn handle passed to an [`ExecutionContext::scope`] body.
///
/// The `'env` lifetime is invariant and covers everything spawned jobs may
/// borrow; jobs cannot capture the `Scope` itself, so no job can outlive its
/// scope by re-spawning.
pub struct Scope<'env> {
    shared: Arc<PoolShared>,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a job on the pool.  The job may borrow anything that outlives
    /// the scope's `'env`; the enclosing [`ExecutionContext::scope`] call
    /// joins it before returning.
    pub fn spawn<F>(&self, work: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(work)) {
                let mut slot = lock(&state.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = lock(&state.pending);
            *pending -= 1;
            if *pending == 0 {
                state.finished.notify_all();
            }
        });
        // SAFETY: `ExecutionContext::scope` joins every spawned job before
        // it returns — including when the scope body or a sibling job
        // panics — so the job cannot outlive any `'env` borrow it captures.
        // The transmute erases only the `'env` bound so the job can sit in
        // the pool's `'static` queue.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        JOBS.incr();
        *lock(&self.state.pending) += 1;
        self.shared.push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_jobs_and_preserves_slot_order() {
        for workers in [1, 2, 5] {
            let context = ExecutionContext::new(workers);
            let mut results = vec![0usize; 64];
            context.scope(|scope| {
                for (index, slot) in results.iter_mut().enumerate() {
                    scope.spawn(move || *slot = index * index);
                }
            });
            let expected: Vec<usize> = (0..64).map(|index| index * index).collect();
            assert_eq!(results, expected, "workers = {workers}");
        }
    }

    #[test]
    fn sequential_scopes_reuse_the_same_pool() {
        let context = ExecutionContext::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            context.scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn nested_scopes_complete_even_on_a_single_worker() {
        for workers in [1, 2] {
            let context = ExecutionContext::new(workers);
            let mut totals = vec![0u64; 6];
            context.scope(|scope| {
                let context = &context;
                for (index, slot) in totals.iter_mut().enumerate() {
                    scope.spawn(move || {
                        let mut parts = [0u64; 4];
                        context.scope(|inner| {
                            for (part, cell) in parts.iter_mut().enumerate() {
                                inner.spawn(move || *cell = (index * 10 + part) as u64);
                            }
                        });
                        *slot = parts.iter().sum();
                    });
                }
            });
            let expected: Vec<u64> = (0..6).map(|index| (index * 40 + 6) as u64).collect();
            assert_eq!(totals, expected, "workers = {workers}");
        }
    }

    #[test]
    fn job_panics_propagate_and_do_not_poison_the_pool() {
        let context = ExecutionContext::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            context.scope(|scope| {
                scope.spawn(|| panic!("job exploded"));
                scope.spawn(|| {});
            });
        }));
        assert!(result.is_err(), "panic must cross the scope boundary");

        // The pool is still fully functional afterwards.
        let mut values = vec![0u32; 4];
        context.scope(|scope| {
            for (index, slot) in values.iter_mut().enumerate() {
                scope.spawn(move || *slot = index as u32 + 1);
            }
        });
        assert_eq!(values, [1, 2, 3, 4]);
    }

    #[test]
    fn body_panic_takes_precedence_over_job_panics() {
        let context = ExecutionContext::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            context.scope(|scope| {
                scope.spawn(|| panic!("job failure"));
                // The body's own panic is the one already unwinding through
                // the caller; it must survive the join.
                panic!("body failure");
            });
        }));
        let payload = result.expect_err("scope must panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("str payload");
        assert_eq!(message, "body failure");
    }

    #[test]
    fn scope_map_preserves_item_order() {
        let context = ExecutionContext::new(4);
        let labels = context.scope_map((0..40).collect(), |index: usize| format!("#{index}"));
        for (index, label) in labels.iter().enumerate() {
            assert_eq!(label, &format!("#{index}"));
        }
    }

    #[test]
    fn scope_returns_the_body_value_and_empty_scopes_are_free() {
        let context = ExecutionContext::new(2);
        assert_eq!(context.scope(|_| 42), 42);
        assert_eq!(context.workers(), 2);
        assert!(format!("{context:?}").contains("workers"));
    }

    #[test]
    fn from_config_respects_the_override() {
        let config = RunConfig::default().with_workers(3);
        assert_eq!(ExecutionContext::from_config(&config).workers(), 3);
        assert!(ExecutionContext::from_config(&RunConfig::default()).workers() >= 1);
    }
}
