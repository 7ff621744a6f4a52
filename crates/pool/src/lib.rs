//! # snoopy-pool
//!
//! A small persistent work-stealing thread pool — the one set of worker
//! threads every parallel path in the workspace shares.
//!
//! Before this crate existed, each `EvalEngine` call, each k-means
//! assignment pass, and each bandit round spawned fresh scoped threads
//! (`std::thread::scope`) and joined them microseconds later. A feasibility
//! *service* answering many small requests pays that churn on every hot
//! call, and nesting (bandit arms spawning engine workers spawning nothing)
//! oversubscribes the machine. This pool replaces all of it:
//!
//! * **Persistent workers.** `ThreadPool::new(n)` spawns `n` workers once;
//!   submitting a task is a queue push + condvar notify, not a thread spawn.
//! * **Per-worker deques + global injector.** A worker pushes its own
//!   spawns onto its local deque and pops them LIFO (cache-warm); external
//!   submissions land in the injector; idle workers steal FIFO from the
//!   injector first, then from other workers — classic work stealing, with
//!   one `Mutex`-guarded queue set instead of lock-free deques (tasks here
//!   are chunk-sized scans and arm pulls, microseconds and up, so queue
//!   contention is noise).
//! * **Scoped spawning.** [`scope`] mirrors `std::thread::scope`: tasks may
//!   borrow from the caller's stack, and the scope does not return until
//!   every spawned task ran. While waiting, the scope's owner *helps* —
//!   it pops and runs pool tasks — so nested scopes (a bandit arm task
//!   opening an engine scope on the same pool) can never deadlock, even on
//!   a one-worker pool. Panics inside tasks are caught and resumed on the
//!   scope owner, like `std::thread::scope` join does.
//! * **Detached tasks with completion handles.** [`spawn`] submits one
//!   `'static` task and returns a [`JoinHandle`] to its eventual result —
//!   for work that runs alongside the caller rather than inside one scope
//!   (the out-of-core study's background checksum verification).
//!   [`JoinHandle::join`] *helps* exactly like a waiting scope does, so
//!   joining from inside a pool task cannot deadlock even on a one-worker
//!   pool; dropping a handle also waits for the task (a `JoinHandle` is a
//!   completion obligation, not a fire-and-forget token — see its docs).
//! * **Determinism.** The pool never changes *what* is computed, only
//!   *where*: callers split work into chunks exactly as before, each chunk
//!   writes a disjoint `&mut` slice, and every consumer in this workspace
//!   admits candidates by a total order (`(distance, index)`). Results are
//!   bit-identical at every worker count — pinned by proptests in
//!   `snoopy-knn`.
//!
//! ## Current pool and worker counts
//!
//! [`workers`], [`scope`] and [`spawn`] operate on the *current* pool: the
//! pool whose [`ThreadPool::install`] frame encloses the call (worker
//! threads are permanently installed on their own pool), falling back to
//! the lazily created global pool. `install` is the one way to pick a pool.
//! The global pool's size is resolved **once** — `SNOOPY_POOL_WORKERS` if
//! set, else `available_parallelism()` clamped to `[1, 16]`.
//!
//! The worker count is the workspace's only parallelism setting: every
//! parallel split (the kNN engine's query chunks, the k-means assignment
//! pass) cuts its work into [`workers`] chunks of the pool it runs on, and
//! nothing else stores or forwards a thread count. A bandit arm pulled as a
//! pool task therefore splits its engine scan like any other call; the
//! chunks queue behind the other arms' on the same workers instead of
//! oversubscribing the machine.
//!
//! ```
//! let pool = snoopy_pool::ThreadPool::new(2);
//! let mut out = vec![0usize; 8];
//! pool.install(|| {
//!     snoopy_pool::scope(|s| {
//!         for (i, slot) in out.iter_mut().enumerate() {
//!             s.spawn(move || *slot = i * i);
//!         }
//!     });
//! });
//! assert_eq!(out[7], 49);
//! ```

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// All queues of one pool behind a single lock: the global injector plus one
/// deque per worker. Tasks in this workspace are chunk-sized (a blocked
/// distance scan, an arm pull), so one uncontended-in-practice mutex beats
/// the complexity of lock-free deques.
struct Queues {
    injector: VecDeque<Task>,
    locals: Vec<VecDeque<Task>>,
    shutdown: bool,
}

struct Shared {
    queues: Mutex<Queues>,
    /// Signalled on every push (and at shutdown); workers sleep here.
    work_ready: Condvar,
}

impl Shared {
    /// Pops one task: own deque back (LIFO, cache-warm), then injector
    /// front, then steal from the other workers' fronts (FIFO).
    fn pop_locked(q: &mut Queues, me: Option<usize>) -> Option<Task> {
        if let Some(i) = me {
            if let Some(t) = q.locals[i].pop_back() {
                return Some(t);
            }
        }
        if let Some(t) = q.injector.pop_front() {
            return Some(t);
        }
        let n = q.locals.len();
        let start = me.map_or(0, |i| i + 1);
        for off in 0..n {
            let j = (start + off) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(t) = q.locals[j].pop_front() {
                return Some(t);
            }
        }
        None
    }

    fn try_pop(&self, me: Option<usize>) -> Option<Task> {
        let mut q = self.queues.lock().expect("pool queue lock poisoned");
        Self::pop_locked(&mut q, me)
    }

    fn push(&self, task: Task, me: Option<usize>) {
        {
            let mut q = self.queues.lock().expect("pool queue lock poisoned");
            match me {
                Some(i) => q.locals[i].push_back(task),
                None => q.injector.push_back(task),
            }
        }
        self.work_ready.notify_one();
    }
}

/// What a thread knows about the pool it belongs to (or has installed).
#[derive(Clone)]
struct PoolCtx {
    shared: Arc<Shared>,
    workers: usize,
    /// `Some(i)` on pool worker `i`; `None` on threads that merely
    /// installed the pool.
    worker_index: Option<usize>,
}

thread_local! {
    static CURRENT: RefCell<Option<PoolCtx>> = const { RefCell::new(None) };
}

/// A handle to a persistent pool of worker threads. Dropping the last handle
/// shuts the workers down and joins them (the global pool is never dropped).
#[derive(Clone)]
pub struct ThreadPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    shared: Arc<Shared>,
    workers: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queues.lock().expect("pool queue lock poisoned");
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.lock().expect("pool handle lock poisoned").drain(..) {
            let _ = h.join();
        }
    }
}

impl ThreadPool {
    /// Spawns a pool with `workers` persistent worker threads (clamped to
    /// ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                injector: VecDeque::new(),
                locals: (0..workers).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("snoopy-pool-{i}"))
                    .spawn(move || worker_loop(shared, i, workers))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { inner: Arc::new(PoolInner { shared, workers, handles: Mutex::new(handles) }) }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Runs `f` with this pool installed as the calling thread's current
    /// pool: [`scope`], [`spawn`] and [`workers`] inside `f` (and inside
    /// anything it calls) resolve to this pool instead of the global one.
    /// Restored on exit, including on panic. A [`JoinHandle`] returned out
    /// of `f` stays tied to this pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let ctx = PoolCtx {
            shared: Arc::clone(&self.inner.shared),
            workers: self.inner.workers,
            worker_index: None,
        };
        let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
        struct Restore(Option<PoolCtx>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(prev);
        f()
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize, workers: usize) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(PoolCtx { shared: Arc::clone(&shared), workers, worker_index: Some(index) });
    });
    loop {
        let task = {
            let mut q = shared.queues.lock().expect("pool queue lock poisoned");
            loop {
                if let Some(t) = Shared::pop_locked(&mut q, Some(index)) {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_ready.wait(q).expect("pool queue lock poisoned");
            }
        };
        task();
    }
}

fn current_ctx() -> Option<PoolCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The cached worker count the global pool is (or will be) built with:
/// `SNOOPY_POOL_WORKERS` if set and valid (a positive integer), otherwise
/// `available_parallelism()`, clamped to `[1, 16]`. Resolved exactly once
/// per process. An invalid value — `0`, unparseable, empty — is **rejected
/// with a one-time warning on stderr** and the machine-shaped default is
/// used instead: a typo'd pin must not silently reshape every parallel
/// consumer in the process.
pub fn default_workers() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let from_env = std::env::var("SNOOPY_POOL_WORKERS").ok().and_then(|v| match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!(
                    "warning: ignoring invalid SNOOPY_POOL_WORKERS={v:?} \
                         (expected an integer >= 1); using available parallelism"
                );
                None
            }
        });
        from_env
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
            .clamp(1, 16)
    })
}

fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_workers()))
}

/// Worker count of the current pool (the innermost installed one, else the
/// global pool). Every parallel split in the workspace cuts its work into
/// this many chunks; to run a call at another count, install a pool of that
/// size around it.
pub fn workers() -> usize {
    match current_ctx() {
        Some(ctx) => ctx.workers,
        None => global().workers(),
    }
}

/// Per-scope completion state. Tasks hold an `Arc` to it; the scope owner
/// waits (helping) until `pending` drains to zero, then resumes the first
/// captured panic, if any.
struct ScopeState {
    sync: Mutex<ScopeSync>,
    done: Condvar,
}

struct ScopeSync {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// A spawn handle tied to the enclosing [`scope`] call; tasks may borrow
/// anything that outlives that call (`'env`).
pub struct Scope<'pool, 'env> {
    shared: &'pool Arc<Shared>,
    state: Arc<ScopeState>,
    /// The spawning thread's worker index on this pool, if any — its spawns
    /// go to its local deque (LIFO) instead of the injector.
    me: Option<usize>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a task onto the pool. The task runs at most once, on some pool
    /// worker or on the scope owner while it waits; the enclosing [`scope`]
    /// call returns only after the task finished.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        self.state.sync.lock().expect("scope lock poisoned").pending += 1;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut sync = state.sync.lock().expect("scope lock poisoned");
            if let Err(p) = result {
                sync.panic.get_or_insert(p);
            }
            sync.pending -= 1;
            if sync.pending == 0 {
                drop(sync);
                state.done.notify_all();
            }
        });
        // SAFETY: lifetime erasure only. `scope_on` does not return until
        // `pending` reaches zero, i.e. until this closure has *finished*
        // executing (it decrements `pending` as its final act), so every
        // `'env` borrow the task captures strictly outlives its use. The
        // task box never outlives execution: whichever thread pops it runs
        // and drops it.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(task)
        };
        self.shared.push(task, self.me);
    }
}

/// Runs `f` with a [`Scope`] on the current pool (innermost installed, else
/// global) and waits for every task it spawned — executing queued pool tasks
/// itself while it waits, so nested scopes make progress even on a
/// one-worker pool. The first task panic is resumed here, after all tasks
/// finished (mirroring `std::thread::scope`).
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
    match current_ctx() {
        Some(ctx) => scope_on(&ctx.shared, ctx.worker_index, f),
        None => {
            let pool = global();
            scope_on(&pool.inner.shared, None, f)
        }
    }
}

fn scope_on<'env, R>(shared: &Arc<Shared>, me: Option<usize>, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
    let state = Arc::new(ScopeState {
        sync: Mutex::new(ScopeSync { pending: 0, panic: None }),
        done: Condvar::new(),
    });
    let scope = Scope { shared, state: Arc::clone(&state), me, _env: std::marker::PhantomData };
    // `f` itself may panic after spawning; the spawned tasks still borrow
    // the caller's stack, so completion must be awaited before unwinding.
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    complete_scope(shared, &state, me);
    match result {
        Ok(r) => {
            let panic = state.sync.lock().expect("scope lock poisoned").panic.take();
            if let Some(p) = panic {
                resume_unwind(p);
            }
            r
        }
        Err(p) => resume_unwind(p),
    }
}

/// Waits until every task of `state` ran, executing available pool tasks in
/// the meantime (the "caller helps" rule that makes nesting deadlock-free).
fn complete_scope(shared: &Arc<Shared>, state: &Arc<ScopeState>, me: Option<usize>) {
    loop {
        if state.sync.lock().expect("scope lock poisoned").pending == 0 {
            return;
        }
        if let Some(task) = shared.try_pop(me) {
            // Possibly a task of an unrelated scope — running it is still
            // progress, and our own queued tasks are reachable the same way.
            task();
            continue;
        }
        // Nothing runnable anywhere: our remaining tasks are in flight on
        // other threads. Sleep until one completes, then rescan.
        let mut sync = state.sync.lock().expect("scope lock poisoned");
        while sync.pending > 0 {
            sync = state.done.wait(sync).expect("scope lock poisoned");
        }
        return;
    }
}

/// Completion state of one detached task: the slot the worker stores the
/// (caught) result into, plus the condvar a joiner sleeps on when the pool
/// has nothing else runnable.
struct TaskState<T> {
    sync: Mutex<Option<std::thread::Result<T>>>,
    done: Condvar,
}

/// Owner side of a detached task submitted with [`spawn`]. Its users are
/// the out-of-core study's checksum verification, which re-hashes the
/// dataset while the study runs, and the end-to-end benchmark's copy of
/// that study.
///
/// A `JoinHandle` is a **completion obligation**, not a fire-and-forget
/// token: [`JoinHandle::join`] waits for the task and returns its result
/// (resuming the task's panic, if it panicked), and *dropping* the handle
/// also waits for the task to finish — discarding the result and swallowing
/// any panic payload — so no task outlives the code that spawned it. Both
/// `join` and the drop wait *help* — they pop and run queued pool tasks —
/// so waiting from inside a pool task cannot deadlock, even on a one-worker
/// pool.
pub struct JoinHandle<T> {
    shared: Arc<Shared>,
    /// `Some` until the result has been claimed by [`JoinHandle::join`] (or
    /// awaited by drop); taking it is what disarms the drop wait.
    state: Option<Arc<TaskState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the task and returns its result. If the task panicked, the
    /// panic is resumed here. While waiting, this thread executes queued
    /// pool tasks (the same "caller helps" rule as [`scope`]), so joining
    /// from inside a pool task makes progress even on a one-worker pool.
    pub fn join(mut self) -> T {
        let state = self.state.take().expect("join handle already consumed");
        complete_task(&self.shared, &state, help_index(&self.shared));
        let result = state
            .sync
            .lock()
            .expect("task lock poisoned")
            .take()
            .expect("completed task must have stored a result");
        match result {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }
}

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            complete_task(&self.shared, &state, help_index(&self.shared));
        }
    }
}

/// The calling thread's worker index on `shared`'s pool, if it is one of its
/// workers — resolved at wait time, not spawn time, because a handle may be
/// joined on a different thread than the one that spawned it.
fn help_index(shared: &Arc<Shared>) -> Option<usize> {
    current_ctx().filter(|ctx| Arc::ptr_eq(&ctx.shared, shared)).and_then(|ctx| ctx.worker_index)
}

/// Waits until the detached task of `state` stored its result, executing
/// available pool tasks in the meantime (mirrors [`complete_scope`]).
fn complete_task<T>(shared: &Arc<Shared>, state: &TaskState<T>, me: Option<usize>) {
    loop {
        if state.sync.lock().expect("task lock poisoned").is_some() {
            return;
        }
        if let Some(task) = shared.try_pop(me) {
            task();
            continue;
        }
        // Nothing runnable anywhere: the task is in flight on another
        // thread. Sleep until it stores its result.
        let mut sync = state.sync.lock().expect("task lock poisoned");
        while sync.is_none() {
            sync = state.done.wait(sync).expect("task lock poisoned");
        }
        return;
    }
}

/// Submits one detached `'static` task to the current pool (innermost
/// installed, else global) and returns a [`JoinHandle`] to its eventual
/// result. Unlike [`scope`], the task's lifetime is not tied to any stack
/// frame — it is tied to the handle (which waits on drop; see
/// [`JoinHandle`]).
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    match current_ctx() {
        Some(ctx) => spawn_on(&ctx.shared, ctx.worker_index, f),
        None => {
            let pool = global();
            spawn_on(&pool.inner.shared, None, f)
        }
    }
}

fn spawn_on<T, F>(shared: &Arc<Shared>, me: Option<usize>, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let state = Arc::new(TaskState { sync: Mutex::new(None), done: Condvar::new() });
    let task_state = Arc::clone(&state);
    let task: Task = Box::new(move || {
        let result = catch_unwind(AssertUnwindSafe(f));
        *task_state.sync.lock().expect("task lock poisoned") = Some(result);
        task_state.done.notify_all();
    });
    shared.push(task, me);
    JoinHandle { shared: Arc::clone(shared), state: Some(state) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_every_task_and_borrows_stack() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0usize; 100];
        pool.install(|| {
            scope(|s| {
                for (i, slot) in out.iter_mut().enumerate() {
                    s.spawn(move || *slot = i + 1);
                }
            });
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn nested_scopes_complete_on_a_single_worker() {
        let pool = ThreadPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.install(|| {
            scope(|outer| {
                for _ in 0..4 {
                    outer.spawn(|| {
                        scope(|inner| {
                            for _ in 0..4 {
                                inner.spawn(|| {
                                    hits.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn install_overrides_worker_count_and_restores() {
        let outer = ThreadPool::new(3);
        let inner = ThreadPool::new(2);
        outer.install(|| {
            assert_eq!(workers(), 3);
            inner.install(|| assert_eq!(workers(), 2));
            assert_eq!(workers(), 3);
        });
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_ran() {
        let pool = ThreadPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                scope(|s| {
                    s.spawn(|| panic!("boom"));
                    for _ in 0..8 {
                        s.spawn(|| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        }));
        assert!(result.is_err(), "the task panic must surface at the scope");
        assert_eq!(ran.load(Ordering::Relaxed), 8, "other tasks still ran to completion");
    }

    #[test]
    fn many_scopes_reuse_the_same_workers() {
        let pool = ThreadPool::new(2);
        pool.install(|| {
            for round in 0..200 {
                let mut acc = [0usize; 8];
                scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        s.spawn(move || *slot = round + i);
                    }
                });
                assert!(acc.iter().enumerate().all(|(i, &v)| v == round + i));
            }
        });
    }

    #[test]
    fn default_workers_is_cached_and_positive() {
        let a = default_workers();
        let b = default_workers();
        assert_eq!(a, b);
        assert!((1..=16).contains(&a));
    }

    #[test]
    fn spawn_join_returns_the_task_result() {
        // No pool installed: the task runs on the global pool.
        let handle = spawn(|| 21 * 2);
        assert_eq!(handle.join(), 42);
    }

    #[test]
    fn spawn_resolves_to_the_installed_pool() {
        let pool = ThreadPool::new(2);
        let value = pool.install(|| spawn(|| String::from("installed")).join());
        assert_eq!(value, "installed");
    }

    #[test]
    fn join_helps_on_a_single_worker_pool() {
        // The outer task occupies the only worker and joins an inner detached
        // task; without help-while-wait this deadlocks.
        let pool = ThreadPool::new(1);
        let outer = pool.install(|| spawn(|| spawn(|| 7usize).join() + 1));
        assert_eq!(outer.join(), 8);
    }

    #[test]
    fn join_resumes_the_task_panic() {
        let pool = ThreadPool::new(2);
        let handle = pool.install(|| spawn(|| -> usize { panic!("detached boom") }));
        let result = catch_unwind(AssertUnwindSafe(move || handle.join()));
        assert!(result.is_err(), "the task panic must surface at join");
    }

    #[test]
    fn dropping_a_handle_waits_for_the_task() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            let handle = pool.install(|| {
                spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            });
            drop(handle);
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1, "drop must not return before the task finished");
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = ThreadPool::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        {
            let count = Arc::clone(&count);
            pool.install(|| {
                scope(|s| {
                    s.spawn(move || {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                })
            });
        }
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
