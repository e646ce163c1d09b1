//! A work-stealing thread pool and the scoped parallel map built on it.
//!
//! Each worker owns a LIFO deque of tasks; when empty it steals from the
//! global injector or from siblings (FIFO side). This is the scheduling
//! architecture Rayon/Cilk use, built here from `crossbeam-deque` so the
//! steal behaviour is observable: the pool publishes its counters
//! (`pool.executed`, `pool.steals`, `pool.panicked`, `pool.submitted`,
//! `pool.completed`) through a pdc-trace [`TraceSession`] and records
//! spawn/steal events, which the load-imbalance bench reports.
//!
//! An idle worker spins for a bounded number of rounds, then parks on a
//! condvar; a submit wakes one parked worker only when some worker is
//! asleep, so an idle pool costs no CPU. [`WorkStealingPool::wait_idle`]
//! likewise blocks after a bounded spin.
//!
//! [`pool_map`] is a *scoped* map: `f` and the items may borrow from the
//! caller. It cuts the items into chunks, sends at most one helper task
//! per worker, and the caller claims and runs chunks alongside the
//! helpers, so a map costs a handful of tasks whatever its length. It
//! returns only after every helper that touched the caller's data has
//! left.

use crossbeam::deque::{Injector, Stealer, Worker};
use pdc_core::metrics::Counter;
use pdc_core::trace::{self, EventKind, SiteId, ThreadTrace, TraceSession};
use pdc_sync::hooks::{self, AbortSchedule, SpawnToken};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Idle rounds a thread spins with `spin_loop` hints before it starts
/// yielding its CPU (see [`idle_round`]).
const SPIN_ROUNDS: u32 = 64;
/// Idle rounds it then yields before it blocks.
const YIELD_ROUNDS: u32 = 32;

/// Chunks per participating thread (the caller and each helper) that
/// [`pool_map`] cuts its items into: enough that threads claiming chunks
/// as they go even out irregular item costs, few enough that claiming
/// stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// One round of a bounded idle wait: a `spin_loop` hint for the first
/// [`SPIN_ROUNDS`], then a `yield_now` for [`YIELD_ROUNDS`] more.
/// Returns `false` once both are spent: the caller should block.
fn idle_round(round: &mut u32) -> bool {
    if *round < SPIN_ROUNDS {
        std::hint::spin_loop();
    } else if *round < SPIN_ROUNDS + YIELD_ROUNDS {
        std::thread::yield_now();
    } else {
        return false;
    }
    *round += 1;
    true
}

/// Lock a mutex no code path can poison (nothing panics while holding
/// one), tolerating poison anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task plus the fork handle its submitter's causal history was
/// published under (see [`EventKind::Fork`]/[`EventKind::Join`]).
struct QueuedTask {
    handle: u64,
    seq: u64,
    /// A [`pool_map`] helper: it hands its completion fork to the map's
    /// caller itself, so the worker queues none for `wait_idle`.
    map_helper: bool,
    run: Task,
}

struct Shared {
    injector: Injector<QueuedTask>,
    stealers: Vec<Stealer<QueuedTask>>,
    /// Tasks submitted but not yet finished. This stays a plain atomic
    /// (not a pair of trace counters) because `wait_idle` relies on its
    /// SeqCst ordering for the happens-before edge between a task's
    /// writes and the waiter's reads.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Guards the two condvars below: parked unchecked workers wait on
    /// `work`, a blocked unchecked `wait_idle` on `idle`.
    sleep: Mutex<()>,
    work: Condvar,
    idle: Condvar,
    /// Workers parked (or about to park) on `work`. A submit takes
    /// `sleep` to wake one only when this is nonzero.
    sleepers: AtomicUsize,
    /// Threads blocked (or about to block) in `wait_idle`. The
    /// completion that drains `pending` wakes them only when nonzero.
    idle_waiters: AtomicUsize,
    /// `pool.executed`: tasks run to completion (panicking ones included).
    executed: Counter,
    /// `pool.panicked`: tasks that panicked (caught; the worker survives).
    panicked: Counter,
    /// `pool.steals`: successful steals (from injector or siblings).
    steals: Counter,
    /// `pool.submitted`: monotone submission count.
    submitted: Counter,
    /// `pool.completed`: monotone completion count.
    completed: Counter,
    /// Event stream for submissions; workers get their own handles.
    submit_trace: ThreadTrace,
    /// Completion fork handles published by workers and not yet adopted
    /// by a waiter: each finished task records a `Fork` under a fresh
    /// handle *before* decrementing `pending`, and `wait_idle` records
    /// the matching `Join`s after observing zero — the trace edge that
    /// makes "task body happens-before the code after wait_idle"
    /// visible to the span/HB analyses.
    done_handles: Mutex<Vec<u64>>,
    /// Under a `pdc-check` exploration, the site idle workers and
    /// `wait_idle` block on; submits, completions and shutdown announce
    /// changes to it. Never allocated outside a checker.
    idle_site: SiteId,
}

impl Shared {
    fn submit(&self, task: Task, map_helper: bool) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let seq = self.submitted.get();
        self.submitted.inc();
        // Publish the submitter's happens-before history under a fresh
        // fork handle: through the submitting thread's own sync trace if
        // it has one (a worker spawning recursively, or a caller that
        // installed one), else through the shared submit actor.
        let handle = trace::next_site_id();
        if !trace::record_sync(EventKind::Fork, handle, seq) {
            self.submit_trace.record(EventKind::Fork, handle, seq);
        }
        self.submit_trace.record(
            EventKind::Spawn,
            seq,
            self.pending.load(Ordering::Relaxed) as u64,
        );
        self.injector.push(QueuedTask {
            handle,
            seq,
            map_helper,
            run: task,
        });
        // Pairs with the fence in `park_worker`: either that worker's
        // re-check sees this task, or this load sees the worker asleep.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.sleep);
            self.work.notify_one();
        }
        // Wake idle checked workers (and a checked wait_idle) blocked
        // on the pool going quiet. No-op outside a checker.
        hooks::site_changed(&self.idle_site);
    }

    /// Whether any queue holds a task.
    fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Park an idle unchecked worker until a submit or shutdown wakes
    /// it (or a spurious wake-up; the caller just looks for work again).
    fn park_worker(&self) {
        let guard = lock(&self.sleep);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Re-check after announcing the sleep, under the lock a waking
        // submit takes: a task pushed before the announcement is seen
        // here, and a submit after it sees the sleeper and notifies
        // only once this thread is waiting.
        fence(Ordering::SeqCst);
        if !self.has_work() && !self.shutdown.load(Ordering::SeqCst) {
            drop(
                self.work
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// An unchecked worker's end of a task: drop `pending`, waking a
    /// blocked `wait_idle` if this was the last task.
    fn finish_task(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && self.idle_waiters.load(Ordering::SeqCst) > 0
        {
            let _guard = lock(&self.sleep);
            self.idle.notify_all();
        }
    }

    /// Block an unchecked `wait_idle` until `pending` reaches zero.
    fn block_until_idle(&self) {
        let mut guard = lock(&self.sleep);
        // SeqCst on both sides: either the last `finish_task` sees this
        // waiter, or this load sees its decrement.
        self.idle_waiters.fetch_add(1, Ordering::SeqCst);
        while self.pending.load(Ordering::SeqCst) != 0 {
            guard = self
                .idle
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.idle_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Record a `Join` of each completion fork `handles` names, against
    /// the calling thread's sync trace when it has one, else under the
    /// shared submit actor.
    fn adopt(&self, handles: Vec<u64>) {
        for handle in handles {
            if !trace::record_sync(EventKind::Join, handle, 0) {
                self.submit_trace.record(EventKind::Join, handle, 0);
            }
        }
    }
}

/// A fixed-size work-stealing thread pool: `'static` tasks through
/// [`WorkStealingPool::spawn`], borrowing maps through [`pool_map`].
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Checker task tokens for the workers, when the pool was built
    /// inside a `pdc-check` exploration (empty otherwise). Drop joins
    /// these through the checker *before* the OS joins, so the baton
    /// can keep moving while workers drain.
    tokens: Vec<SpawnToken>,
    trace: TraceSession,
}

impl WorkStealingPool {
    /// Spawn a pool with `workers` worker threads and a private
    /// [`TraceSession`].
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        WorkStealingPool::with_trace(workers, TraceSession::new())
    }

    /// Spawn a pool publishing counters and events into a shared
    /// `session`, so one snapshot covers the pool alongside a
    /// `SimMachine` or MPI world.
    ///
    /// Workers record as actors `0..workers`; submissions record as
    /// actor `workers`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn with_trace(workers: usize, session: TraceSession) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let locals: Vec<Worker<QueuedTask>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        // Built inside a pdc-check exploration? Then the workers become
        // checked tasks, and their events must land in the exploration's
        // session (via sibling traces of the constructing task's thread
        // trace), not in the pool's private one — otherwise the checker
        // could neither schedule the workers nor see what they did.
        let checked_parent = trace::current_sync_trace().filter(|_| hooks::is_checked());
        let submit_trace = match &checked_parent {
            Some(parent) => parent.sibling_auto(),
            None => session.thread(workers as u32),
        };
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep: Mutex::new(()),
            work: Condvar::new(),
            idle: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            idle_waiters: AtomicUsize::new(0),
            executed: session.counter("pool.executed"),
            panicked: session.counter("pool.panicked"),
            steals: session.counter("pool.steals"),
            submitted: session.counter("pool.submitted"),
            completed: session.counter("pool.completed"),
            submit_trace,
            done_handles: Mutex::new(Vec::new()),
            idle_site: SiteId::new(),
        });
        let mut tokens = Vec::new();
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(idx, local)| {
                let shared = Arc::clone(&shared);
                let token = hooks::checked_spawn();
                if let Some(t) = token {
                    tokens.push(t);
                }
                let trace = match &checked_parent {
                    Some(parent) => parent.sibling_auto(),
                    None => session.thread(idx as u32),
                };
                std::thread::Builder::new()
                    .name(format!("pdc-worker-{idx}"))
                    .spawn(move || worker_loop(idx, local, shared, trace, token))
                    .expect("failed to spawn worker")
            })
            .collect();
        // Give the checker a chance to run the freshly spawned workers
        // (the hooks contract: yield once the OS threads exist).
        if !tokens.is_empty() {
            hooks::yield_point();
        }
        WorkStealingPool {
            shared,
            handles,
            tokens,
            trace: session,
        }
    }

    /// Submit a task for execution.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.submit(Box::new(task), false);
    }

    /// Block until every submitted task (including tasks spawned *by*
    /// tasks, when submitted through a clone of [`WorkStealingPool::handle`])
    /// has finished.
    pub fn wait_idle(&self) {
        let mut spins = 0u32;
        if hooks::is_checked() {
            // Deterministic blocking: sleep until a submit/completion/
            // shutdown announces a change, then re-check.
            while self.shared.pending.load(Ordering::SeqCst) != 0 {
                hooks::spin_wait(&mut spins, &self.shared.idle_site);
            }
        } else {
            while self.shared.pending.load(Ordering::SeqCst) != 0 {
                if !idle_round(&mut spins) {
                    self.shared.block_until_idle();
                    break;
                }
            }
        }
        // Adopt every finished task's completion fork. Each worker
        // published its handle *before* decrementing `pending`, so at
        // pending == 0 the list is complete and these `Join`s give the
        // trace a path from every task body to the caller's next event
        // — the edge the span pass walks when the critical path runs
        // through a task.
        let done = std::mem::take(&mut *lock(&self.shared.done_handles));
        self.shared.adopt(done);
    }

    /// A cloneable submission handle usable from inside tasks.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Total tasks executed (`pool.executed`).
    pub fn executed(&self) -> u64 {
        self.shared.executed.get()
    }

    /// Total successful steals (`pool.steals`, load-balancing events).
    pub fn steals(&self) -> u64 {
        self.shared.steals.get()
    }

    /// Tasks that panicked (`pool.panicked`). A panicking task does not
    /// kill its worker or hang `wait_idle`; the panic is contained and
    /// counted here.
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.get()
    }

    /// The trace session this pool publishes counters and events into.
    pub fn trace(&self) -> &TraceSession {
        &self.trace
    }
}

/// A cheap cloneable handle for submitting tasks from within tasks.
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<Shared>,
}

impl PoolHandle {
    /// Submit a task.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.submit(Box::new(task), false);
    }
}

/// Map `f` over `items` on the pool, preserving order: the scenario
/// seam's threads-backend primitive.
///
/// `f` and the items may borrow from the caller. The items are cut into
/// chunks (their size follows from `items.len()` and the worker count);
/// the caller and at most one helper task per worker claim chunks until
/// none are left, so irregular item costs still balance and a map costs
/// a handful of pool tasks, not one per item. The output is
/// index-for-index with the input whichever thread ran what.
///
/// The caller takes part, so a call from inside a pool task finishes
/// even when every worker is busy. `pool_map` waits on its own latch,
/// not on [`WorkStealingPool::wait_idle`], so unrelated in-flight tasks
/// do not hold it up. It neither returns nor unwinds until every helper
/// that entered the map has left; a helper that starts later touches
/// nothing of it.
///
/// # Panics
/// If `f` panics on an item, the remaining items still run, and the
/// first panic is re-raised once every chunk has finished.
pub fn pool_map<T, R>(pool: &WorkStealingPool, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let len = items.len();
    let chunk = len
        .div_ceil(CHUNKS_PER_THREAD * (pool.workers() + 1))
        .max(1);
    let mut items = items.into_iter();
    let parts: Vec<Mutex<Part<T, R>>> = (0..len.div_ceil(chunk))
        .map(|_| {
            Mutex::new(Part {
                input: items.by_ref().take(chunk).collect(),
                output: Vec::new(),
            })
        })
        .collect();
    let job = MapJob {
        parts,
        next: AtomicUsize::new(0),
        claims: SiteId::new(),
        f: &f,
        panic: Mutex::new(None),
    };
    let latch = Arc::new(Latch::new());
    let run_chunks = || job.run();
    let run: &(dyn Fn() + Sync) = &run_chunks;
    // SAFETY: this only erases the lifetime of `run`, which borrows
    // `job`, `f` and the items. Helpers call it only between a
    // successful `latch.enter()` and their `latch.leave()`. Every path
    // out of this function, unwinding ones included, first runs
    // `latch.close_and_wait()`, after which no helper can enter and
    // every helper that entered has left. So `run` is never called once
    // its borrows end; a helper that starts later finds the latch
    // closed and drops `run` unused.
    let run: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(run) };
    let helpers = pool.workers().min(job.parts.len().saturating_sub(1));
    // Only a schedule teardown (`AbortSchedule`) unwinds out of here;
    // item panics are caught and kept by `MapJob::run`.
    let mine = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..helpers {
            let latch = Arc::clone(&latch);
            let helper = move || {
                if !latch.enter() {
                    return;
                }
                let ran = catch_unwind(AssertUnwindSafe(run));
                // The completion fork the caller joins before returning:
                // it orders this helper's chunks before the caller's
                // reads of their results.
                let handle = trace::next_site_id();
                let forked = ran.is_ok() && trace::record_sync(EventKind::Fork, handle, 0);
                latch.leave(forked.then_some(handle));
                if let Err(payload) = ran {
                    resume_unwind(payload);
                }
            };
            pool.shared.submit(Box::new(helper), true);
        }
        job.run();
    }));
    latch.close_and_wait();
    pool.shared.adopt(std::mem::take(&mut *lock(&latch.done)));
    if let Err(payload) = mine {
        resume_unwind(payload);
    }
    let MapJob { parts, panic, .. } = job;
    if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(
            part.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .output,
        );
    }
    out
}

/// One chunk of a [`pool_map`]: its items until a thread claims it,
/// then its results.
struct Part<T, R> {
    input: Vec<T>,
    output: Vec<R>,
}

/// The state a [`pool_map`] shares with its helpers, on the caller's
/// stack.
struct MapJob<'f, T, R, F> {
    parts: Vec<Mutex<Part<T, R>>>,
    /// Index of the next chunk to claim.
    next: AtomicUsize,
    /// Under a checker, the site each claim announces, so the claims of
    /// different threads conflict in the explorer's footprints.
    claims: SiteId,
    f: &'f F,
    /// The first item panic, re-raised by the caller at the end.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<T, R, F: Fn(T) -> R> MapJob<'_, T, R, F> {
    /// Claim and run chunks until none are left. An item panic is
    /// caught and kept so the other items still run; only a schedule
    /// teardown unwinds at once.
    fn run(&self) {
        loop {
            // Under a checker, let a helper claim the next chunk.
            hooks::yield_point();
            let claim = self.next.fetch_add(1, Ordering::Relaxed);
            hooks::site_changed(&self.claims);
            let Some(part) = self.parts.get(claim) else {
                return;
            };
            let input = std::mem::take(&mut lock(part).input);
            let mut output = Vec::with_capacity(input.len());
            for item in input {
                match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                    Ok(r) => output.push(r),
                    Err(payload) if payload.is::<AbortSchedule>() => resume_unwind(payload),
                    Err(payload) => {
                        lock(&self.panic).get_or_insert(payload);
                    }
                }
            }
            lock(part).output = output;
        }
    }
}

/// Set in [`Latch::state`] once the caller admits no more helpers.
const CLOSED: usize = 1 << (usize::BITS - 1);

/// How a [`pool_map`] caller knows its helpers are done with its stack.
/// Shared through an `Arc`, so a helper that starts after the map
/// returned still has a latch to find closed.
struct Latch {
    /// Helpers inside the map, plus [`CLOSED`].
    state: AtomicUsize,
    /// Completion fork handles of the helpers that left. Its lock also
    /// orders the last leave against a blocked caller.
    done: Mutex<Vec<u64>>,
    left: Condvar,
    /// Under a checker, the site the caller waits on and a leaving
    /// helper announces.
    site: SiteId,
}

impl Latch {
    fn new() -> Self {
        Latch {
            state: AtomicUsize::new(0),
            done: Mutex::new(Vec::new()),
            left: Condvar::new(),
            site: SiteId::new(),
        }
    }

    /// Enter the map, unless the caller has closed it.
    fn enter(&self) -> bool {
        let entered = self
            .state
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                (s & CLOSED == 0).then_some(s + 1)
            })
            .is_ok();
        // Under a checker, an attempt conflicts with the caller's close.
        hooks::site_changed(&self.site);
        entered
    }

    /// Leave the map, handing over the completion fork `handle`.
    fn leave(&self, handle: Option<u64>) {
        let mut done = lock(&self.done);
        done.extend(handle);
        if self.state.fetch_sub(1, Ordering::SeqCst) == CLOSED + 1 {
            self.left.notify_one();
        }
        drop(done);
        hooks::site_changed(&self.site);
    }

    /// Admit no more helpers, then wait until every helper inside has
    /// left: after a bounded spin, on `left`; under a checker, on
    /// `site`.
    fn close_and_wait(&self) {
        self.state.fetch_or(CLOSED, Ordering::SeqCst);
        hooks::site_changed(&self.site);
        if hooks::is_checked() {
            let mut spins = 0;
            let waited = catch_unwind(AssertUnwindSafe(|| {
                while self.state.load(Ordering::SeqCst) != CLOSED {
                    hooks::spin_wait(&mut spins, &self.site);
                }
            }));
            if let Err(payload) = waited {
                // Schedule teardown: the helpers are unwinding out of
                // their hooks and no longer wait for the baton. Wait
                // for them for real, then keep unwinding.
                self.block();
                resume_unwind(payload);
            }
            return;
        }
        let mut round = 0;
        while self.state.load(Ordering::SeqCst) != CLOSED {
            if !idle_round(&mut round) {
                self.block();
                return;
            }
        }
    }

    fn block(&self) {
        let mut done = lock(&self.done);
        while self.state.load(Ordering::SeqCst) != CLOSED {
            done = self.left.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Parked workers re-check `shutdown` under this lock before
            // they wait, so none sleeps through it.
            let _guard = lock(&self.shared.sleep);
            self.shared.work.notify_all();
        }
        // Wake idle checked workers so they can observe the shutdown,
        // then join them through the checker *before* the blocking OS
        // joins: a checked task stuck in an OS join would hold the
        // baton and deadlock the whole exploration.
        hooks::site_changed(&self.shared.idle_site);
        for token in self.tokens.drain(..) {
            hooks::join_task(&token);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    idx: usize,
    local: Worker<QueuedTask>,
    shared: Arc<Shared>,
    trace: ThreadTrace,
    token: Option<SpawnToken>,
) {
    // Workers record acquire/release events from pdc-sync primitives
    // used inside tasks under their own actor id.
    trace::install_sync_trace(trace.clone());
    if let Some(token) = token {
        // Checked mode: the worker is a schedulable task. Teardown
        // unwinds (AbortSchedule) and real panics both end in end_task,
        // so the checker never waits on a dead worker.
        let result = catch_unwind(AssertUnwindSafe(|| {
            hooks::begin_task(&token);
            checked_worker_loop(idx, &local, &shared, &trace)
        }));
        if let Err(payload) = &result {
            if !payload.is::<AbortSchedule>() {
                let msg = panic_message(payload);
                hooks::task_panicked(&token, &msg);
            }
        }
        hooks::end_task(&token);
        return;
    }
    // In steal events, `victim` is the sibling worker's index, or the
    // worker count (== the submit actor id) for the global injector.
    let injector_id = shared.stealers.len() as u64;
    let mut idle = 0u32;
    loop {
        // 1. Local LIFO pop (cache-friendly depth-first).
        let task = local.pop().or_else(|| {
            // 2. Steal a batch from the injector.
            loop {
                match shared.injector.steal_batch_and_pop(&local) {
                    crossbeam::deque::Steal::Success(t) => {
                        shared.steals.inc();
                        trace.record(EventKind::Steal, injector_id, 1 + local.len() as u64);
                        return Some(t);
                    }
                    crossbeam::deque::Steal::Retry => continue,
                    crossbeam::deque::Steal::Empty => break,
                }
            }
            // 3. Steal from a sibling.
            for (s_idx, stealer) in shared.stealers.iter().enumerate() {
                if s_idx == idx {
                    continue;
                }
                loop {
                    match stealer.steal() {
                        crossbeam::deque::Steal::Success(t) => {
                            shared.steals.inc();
                            trace.record(EventKind::Steal, s_idx as u64, 1);
                            return Some(t);
                        }
                        crossbeam::deque::Steal::Retry => continue,
                        crossbeam::deque::Steal::Empty => break,
                    }
                }
            }
            None
        });
        match task {
            Some(t) => {
                idle = 0;
                // Adopt the submitter's history before running the task:
                // everything the submitter did before spawn() now
                // happens-before the task body.
                trace.record(EventKind::Join, t.handle, t.seq);
                // Contain panics: a dying worker would strand wait_idle
                // (the pending count would never reach zero).
                if catch_unwind(AssertUnwindSafe(t.run)).is_err() {
                    shared.panicked.inc();
                }
                if !t.map_helper {
                    publish_completion(&shared, &trace, t.seq);
                }
                shared.executed.inc();
                shared.completed.inc();
                shared.finish_task();
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !idle_round(&mut idle) {
                    shared.park_worker();
                    idle = 0;
                }
            }
        }
    }
}

/// The worker body under a `pdc-check` exploration. The checker holds
/// the whole pool to one runnable task at a time, which changes the
/// shape of the loop:
///
/// * *which queue to steal from* becomes a recorded choice point
///   ([`hooks::steal_victim`]) over the currently non-empty victims,
///   instead of a fixed probe order — so exploration covers every
///   victim-selection the scheduler could make;
/// * idling blocks deterministically on the pool's idle site instead
///   of spinning, and wakes only when a submit/completion/shutdown
///   announces a change.
fn checked_worker_loop(
    idx: usize,
    local: &Worker<QueuedTask>,
    shared: &Arc<Shared>,
    trace: &ThreadTrace,
) {
    let injector_id = shared.stealers.len() as u64;
    let mut idle_spins = 0u32;
    loop {
        // A preemption point per dequeue attempt: grabbing the next
        // task is itself a schedulable step.
        hooks::yield_point();
        let task = local.pop().or_else(|| {
            // Enumerate non-empty victims under the baton (nothing can
            // change concurrently), then let the checker pick.
            let mut victims: Vec<Option<usize>> = Vec::new();
            if !shared.injector.is_empty() {
                victims.push(None);
            }
            for (s_idx, stealer) in shared.stealers.iter().enumerate() {
                if s_idx != idx && !stealer.is_empty() {
                    victims.push(Some(s_idx));
                }
            }
            if victims.is_empty() {
                return None;
            }
            let pick = victims[hooks::steal_victim(victims.len())];
            match pick {
                None => loop {
                    match shared.injector.steal_batch_and_pop(local) {
                        crossbeam::deque::Steal::Success(t) => {
                            shared.steals.inc();
                            trace.record(EventKind::Steal, injector_id, 1 + local.len() as u64);
                            return Some(t);
                        }
                        crossbeam::deque::Steal::Retry => continue,
                        crossbeam::deque::Steal::Empty => return None,
                    }
                },
                Some(s_idx) => loop {
                    match shared.stealers[s_idx].steal() {
                        crossbeam::deque::Steal::Success(t) => {
                            shared.steals.inc();
                            trace.record(EventKind::Steal, s_idx as u64, 1);
                            return Some(t);
                        }
                        crossbeam::deque::Steal::Retry => continue,
                        crossbeam::deque::Steal::Empty => return None,
                    }
                },
            }
        });
        match task {
            Some(t) => {
                trace.record(EventKind::Join, t.handle, t.seq);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t.run)) {
                    if payload.is::<AbortSchedule>() {
                        // Schedule teardown, not a task failure: keep
                        // unwinding so the worker exits cleanly.
                        std::panic::resume_unwind(payload);
                    }
                    shared.panicked.inc();
                }
                if !t.map_helper {
                    publish_completion(shared, trace, t.seq);
                }
                shared.executed.inc();
                shared.completed.inc();
                shared.pending.fetch_sub(1, Ordering::SeqCst);
                hooks::site_changed(&shared.idle_site);
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                hooks::spin_wait(&mut idle_spins, &shared.idle_site);
            }
        }
    }
}

/// Record a finished task's completion `Fork` under a fresh handle and
/// queue the handle for [`WorkStealingPool::wait_idle`] to `Join`. Must
/// run *before* the `pending` decrement so a waiter that observes zero
/// is guaranteed to see the handle.
fn publish_completion(shared: &Shared, trace: &ThreadTrace, seq: u64) {
    let handle = trace::next_site_id();
    trace.record(EventKind::Fork, handle, seq);
    lock(&shared.done_handles).push(handle);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn executes_all_tasks() {
        let pool = WorkStealingPool::new(3);
        let counter = Arc::new(Counter::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
        assert_eq!(pool.executed(), 1000);
    }

    #[test]
    fn recursive_spawning_through_handle() {
        let pool = WorkStealingPool::new(2);
        let counter = Arc::new(Counter::new(0));
        let handle = pool.handle();
        // A task tree: each task spawns two children down to depth 6.
        fn grow(h: PoolHandle, c: Arc<Counter>, depth: u32) {
            c.fetch_add(1, Ordering::SeqCst);
            if depth > 0 {
                let (h2, c2) = (h.clone(), Arc::clone(&c));
                h.spawn(move || grow(h2.clone(), c2, depth - 1));
                let (h3, c3) = (h.clone(), Arc::clone(&c));
                h.spawn(move || grow(h3.clone(), c3, depth - 1));
            }
        }
        let (h, c) = (handle.clone(), Arc::clone(&counter));
        handle.spawn(move || grow(h, c, 6));
        pool.wait_idle();
        // Full binary tree of depth 6: 2^7 - 1 nodes.
        assert_eq!(counter.load(Ordering::SeqCst), 127);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let pool = WorkStealingPool::new(1);
        pool.wait_idle();
        assert_eq!(pool.executed(), 0);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let counter = Arc::new(Counter::new(0));
        {
            let pool = WorkStealingPool::new(2);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.wait_idle();
        } // drop joins
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn tasks_run_on_worker_threads() {
        let pool = WorkStealingPool::new(2);
        let name = Arc::new(pdc_sync::SpinLock::new(String::new()));
        let n2 = Arc::clone(&name);
        pool.spawn(move || {
            *n2.lock() = std::thread::current().name().unwrap_or("").to_string();
        });
        pool.wait_idle();
        assert!(name.lock().starts_with("pdc-worker-"));
    }

    #[test]
    fn steals_happen_under_imbalance() {
        // Many tasks injected at once on a multi-worker pool: someone
        // must steal from the injector at minimum.
        let pool = WorkStealingPool::new(4);
        let counter = Arc::new(Counter::new(0));
        for _ in 0..500 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
            });
        }
        pool.wait_idle();
        assert!(pool.steals() > 0, "expected injector steals");
        assert_eq!(counter.load(Ordering::SeqCst), 500);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        WorkStealingPool::new(0);
    }

    #[test]
    fn panicking_task_does_not_hang_the_pool() {
        let pool = WorkStealingPool::new(2);
        let counter = Arc::new(Counter::new(0));
        for i in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                if i % 10 == 0 {
                    panic!("task {i} dies");
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle(); // must return despite 10 panicking tasks
        assert_eq!(counter.load(Ordering::SeqCst), 90);
        assert_eq!(pool.panicked(), 10);
        assert_eq!(pool.executed(), 100);
        // The pool still works afterwards.
        let c = Arc::clone(&counter);
        pool.spawn(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 91);
    }

    #[test]
    fn pool_drains_when_spawner_task_panics_after_spawning() {
        // Regression guard for panic accounting: a task that panics
        // *after* submitting children must still decrement its own
        // pending slot, and the children must still run. If the panic
        // path skipped the decrement, wait_idle would hang here.
        let pool = WorkStealingPool::new(3);
        let counter = Arc::new(Counter::new(0));
        let handle = pool.handle();
        for _ in 0..20 {
            let (h, c) = (handle.clone(), Arc::clone(&counter));
            pool.spawn(move || {
                for _ in 0..5 {
                    let c2 = Arc::clone(&c);
                    h.spawn(move || {
                        c2.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("parent dies after spawning");
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.panicked(), 20);
        assert_eq!(pool.executed(), 120);
        // The monotone submitted/completed pair agrees with the drain.
        let snap = pool.trace().snapshot();
        assert_eq!(snap.get("pool.submitted"), 120);
        assert_eq!(snap.get("pool.completed"), 120);
    }

    #[test]
    fn trace_publishes_counters_and_steal_events() {
        let pool = WorkStealingPool::new(4);
        let counter = Arc::new(Counter::new(0));
        for _ in 0..300 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
            });
        }
        pool.wait_idle();
        let snap = pool.trace().snapshot();
        assert_eq!(snap.get("pool.executed"), 300);
        assert_eq!(snap.get("pool.executed"), pool.executed());
        assert!(snap.get("pool.steals") > 0);
        let events = pool.trace().events();
        assert!(
            events
                .iter()
                .any(|e| e.kind == pdc_core::trace::EventKind::Steal),
            "expected steal events in the trace"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == pdc_core::trace::EventKind::Spawn
                    && e.actor == pool.workers() as u32),
            "expected spawn events from the submit actor"
        );
    }

    #[test]
    fn every_task_gets_submit_and_completion_fork_join_pairs() {
        let pool = WorkStealingPool::new(2);
        for _ in 0..40 {
            pool.spawn(|| {});
        }
        pool.wait_idle();
        let workers = pool.workers() as u32;
        let events = pool.trace().events();
        let forks: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Fork)
            .collect();
        let joins: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Join)
            .collect();
        // Two pairs per task: submit fork (submit actor) adopted by the
        // running worker, and completion fork (worker) adopted by
        // wait_idle (recorded under the submit actor — no caller trace
        // is installed here).
        assert_eq!(forks.len(), 80);
        assert_eq!(joins.len(), 80);
        assert_eq!(forks.iter().filter(|f| f.actor == workers).count(), 40);
        assert_eq!(forks.iter().filter(|f| f.actor < workers).count(), 40);
        assert_eq!(joins.iter().filter(|j| j.actor < workers).count(), 40);
        assert_eq!(joins.iter().filter(|j| j.actor == workers).count(), 40);
        for j in &joins {
            let f = forks
                .iter()
                .find(|f| f.a == j.a)
                .unwrap_or_else(|| panic!("join of unknown handle {}", j.a));
            assert!(f.ts < j.ts, "fork must precede its join in trace order");
            // Pairs cross the submit/worker boundary in both directions.
            if f.actor == workers {
                assert!((j.actor as usize) < pool.workers());
            } else {
                assert_eq!(j.actor, workers);
            }
        }
    }

    #[test]
    fn worker_sync_ops_record_under_worker_actor() {
        // A pdc-sync lock used inside a task records acquire/release
        // under the executing worker's actor, via the installed
        // thread-local sync trace.
        let pool = WorkStealingPool::new(2);
        let lock = Arc::new(pdc_sync::SpinLock::new(0u64));
        for _ in 0..10 {
            let l = Arc::clone(&lock);
            pool.spawn(move || {
                *l.lock() += 1;
            });
        }
        pool.wait_idle();
        let events = pool.trace().events();
        let acquires: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Acquire)
            .collect();
        assert_eq!(acquires.len(), 10);
        assert!(acquires.iter().all(|e| (e.actor as usize) < pool.workers()));
        let releases = events
            .iter()
            .filter(|e| e.kind == EventKind::Release)
            .count();
        assert_eq!(releases, 10);
    }

    #[test]
    fn pool_map_preserves_order_and_matches_sequential() {
        let pool = WorkStealingPool::new(4);
        let items: Vec<u64> = (0..500).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        let got = pool_map(&pool, items, |v| v * v + 1);
        assert_eq!(got, expected);
        // Chunked: at most one helper task per worker, not one per item.
        assert!(pool.executed() <= pool.workers() as u64);
    }

    #[test]
    fn pool_map_handles_empty_and_single_item() {
        let pool = WorkStealingPool::new(2);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(pool_map(&pool, empty, |v| v + 1), Vec::<u32>::new());
        assert_eq!(pool_map(&pool, vec![41u32], |v| v + 1), vec![42]);
    }

    #[test]
    fn shared_session_sees_pool_counters() {
        let session = TraceSession::new();
        let before = session.snapshot();
        let pool = WorkStealingPool::with_trace(2, session.clone());
        for _ in 0..50 {
            pool.spawn(|| {});
        }
        pool.wait_idle();
        let delta = session.snapshot().diff(&before);
        assert_eq!(delta.get("pool.executed"), 50);
    }
}
