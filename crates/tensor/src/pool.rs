//! Lazily-initialized persistent worker pool.
//!
//! `std::thread::scope` spawns and joins OS threads on every call — ~10 µs
//! per spawn, paid again by every parallel kernel. This pool spawns
//! `available_parallelism() - 1` workers exactly once per process and
//! re-uses them for every scoped fan-out, so the steady-state cost of a
//! parallel kernel call is one mutex push + condvar signal per chunk. A
//! worker out of jobs polls the queue for [`POLL_BEFORE_PARK`], yielding
//! between probes, and only then parks on the condvar, where the next
//! spawn has to wake it across CPUs ([`parks`] counts these): an op's
//! kernels fan out back to back, so most find their worker polling.
//!
//! [`scope`] keeps the structured-concurrency contract of
//! `thread::scope`: spawned closures may borrow from the caller's stack,
//! and `scope` does not return until every closure submitted through it
//! has finished (a join barrier on an outstanding-job count). The queue
//! type-erases the borrow lifetime to move jobs to long-lived workers;
//! that erasure is one of the crate's two `unsafe` sites (`lib.rs` lists
//! both) and is sound precisely because of the join barrier (see the
//! safety comment in [`Scope::spawn`]).
//!
//! Deadlock freedom: the thread that called [`scope`] *helps* — while
//! waiting on the barrier it pops and runs queued jobs (its own or those
//! of nested scopes) instead of parking; with nothing left to steal it
//! polls its barrier for the same budget before a timed wait on it. With
//! `GENIE_POOL_THREADS=1`, or on a host with one core, the pool has zero
//! workers and every job runs inline in `spawn`, preserving strict
//! sequential semantics with no thread creation and no polling at all.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle worker polls the queue, and a [`scope`] owner with
/// nothing to steal its barrier, before parking: the budget and the
/// reason of the transport's socket readers (`frame::POLL_BEFORE_PARK`).
const POLL_BEFORE_PARK: Duration = Duration::from_micros(100);

/// A queued unit of work: the (lifetime-erased) closure plus the scope
/// whose barrier it must release.
struct Job {
    run: Box<dyn FnOnce() + Send>,
    scope: Arc<ScopeState>,
}

/// Join barrier for one [`scope`] call.
struct ScopeState {
    /// Jobs spawned but not yet finished.
    pending: AtomicUsize,
    /// Set when any job of this scope panicked; re-raised by [`scope`].
    panicked: AtomicBool,
    lock: Mutex<()>,
    done: Condvar,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            lock: Mutex::new(()),
            done: Condvar::new(),
        }
    }

    /// Mark one job finished; wake the scope owner when the count hits 0.
    fn complete(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock.lock().unwrap();
            self.done.notify_all();
        }
    }
}

/// Process-wide pool state.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Background worker threads (0 on a single-core host).
    workers: usize,
    /// Jobs currently executing (on workers or helping scope owners);
    /// exported as the `genie_worker_pool_busy` gauge.
    busy: AtomicUsize,
    /// High-water mark of `busy` since the last [`busy_peak_take`] —
    /// what the telemetry gauge actually reports, since `busy` itself
    /// has always settled back to zero by publish time.
    busy_peak: AtomicUsize,
    /// Total OS threads ever created by the pool. Stays constant after
    /// first use — the property the "created once per process" test pins.
    spawned: AtomicUsize,
    /// Times a worker parked on `available`: [`parks`].
    parks: AtomicUsize,
}

static POOL: OnceLock<Shared> = OnceLock::new();

/// Usable cores: the `GENIE_POOL_THREADS` override when set (≥ 1), the
/// host's `available_parallelism()` otherwise (1 when it errors). Read
/// once at pool initialization; [`crate::par`] sizes its splits off the
/// same number so dispatch and pool capacity always agree.
pub(crate) fn capacity() -> usize {
    let set = std::env::var("GENIE_POOL_THREADS").ok();
    match set.and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

fn shared() -> &'static Shared {
    let pool = POOL.get_or_init(|| {
        let cores = capacity();
        Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers: cores.saturating_sub(1),
            busy: AtomicUsize::new(0),
            busy_peak: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            parks: AtomicUsize::new(0),
        }
    });
    // Spawn workers exactly once (guarded by `spawned` CAS from 0).
    if pool.workers > 0
        && pool
            .spawned
            .compare_exchange(0, pool.workers, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    {
        for i in 0..pool.workers {
            thread::Builder::new()
                .name(format!("genie-pool-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn pool worker");
        }
    }
    pool
}

fn worker_loop(pool: &'static Shared) {
    let mut idle_since = Instant::now();
    loop {
        let mut queue = pool.queue.lock().unwrap();
        if let Some(job) = queue.pop_front() {
            drop(queue);
            run_job(pool, job);
            idle_since = Instant::now();
        } else if idle_since.elapsed() < POLL_BEFORE_PARK {
            drop(queue);
            thread::yield_now();
        } else {
            pool.parks.fetch_add(1, Ordering::Relaxed);
            drop(pool.available.wait(queue).unwrap());
        }
    }
}

/// Execute one job, tracking occupancy and routing panics to its scope.
fn run_job(pool: &Shared, job: Job) {
    let Job { run, scope } = job;
    let now = pool.busy.fetch_add(1, Ordering::Relaxed) + 1;
    pool.busy_peak.fetch_max(now, Ordering::Relaxed);
    let result = panic::catch_unwind(AssertUnwindSafe(run));
    pool.busy.fetch_sub(1, Ordering::Relaxed);
    if result.is_err() {
        scope.panicked.store(true, Ordering::Relaxed);
    }
    scope.complete();
}

/// Handle for spawning borrowing jobs inside one [`scope`] call.
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    pool: &'static Shared,
    /// Invariant over `'env`, mirroring `std::thread::Scope`.
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queue `f` onto the pool. With no background workers the job runs
    /// inline, so single-core hosts never pay a queue round-trip.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let run: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `scope` blocks until `pending` reaches 0 (with
        // Acquire/Release ordering on the counter) before returning —
        // including when the scope body panics — so every queued job
        // finishes while the `'env` borrows it captures are still live.
        // The transmute only erases the lifetime; the vtable and data
        // pointer are unchanged.
        #[allow(unsafe_code)]
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
        let job = Job {
            run,
            scope: Arc::clone(&self.state),
        };
        if self.pool.workers == 0 {
            run_job(self.pool, job);
            return;
        }
        self.pool.queue.lock().unwrap().push_back(job);
        self.pool.available.notify_one();
    }
}

/// Structured fan-out over the persistent pool: like
/// `std::thread::scope`, but jobs run on long-lived workers. Returns
/// only after every spawned job completed; panics in jobs (or in the
/// scope body itself) are surfaced after the join barrier.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let pool = shared();
    let state = Arc::new(ScopeState::new());
    let sc = Scope {
        state: Arc::clone(&state),
        pool,
        _marker: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&sc)));

    // Join barrier with work-stealing: run queued jobs (ours or a nested
    // scope's) rather than parking while our jobs are still in flight;
    // with nothing to steal, poll `pending` as a worker polls the queue.
    let mut idle_since = Instant::now();
    while state.pending.load(Ordering::Acquire) != 0 {
        let stolen = pool.queue.lock().unwrap().pop_front();
        match stolen {
            Some(job) => {
                run_job(pool, job);
                idle_since = Instant::now();
            }
            None if idle_since.elapsed() < POLL_BEFORE_PARK => thread::yield_now(),
            None => {
                let guard = state.lock.lock().unwrap();
                if state.pending.load(Ordering::Acquire) != 0 {
                    // Timed wait so newly queued (stealable) jobs are
                    // noticed even if our wakeup races the queue push.
                    let _ = state
                        .done
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap();
                }
            }
        }
    }

    match result {
        Ok(value) => {
            if state.panicked.load(Ordering::Relaxed) {
                panic!("genie-tensor pool: a scoped task panicked");
            }
            value
        }
        // The body's own panic wins over task panics for the payload.
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Number of background worker threads (0 on single-core hosts). Forces
/// pool initialization.
pub fn size() -> usize {
    shared().workers
}

/// Jobs executing right now — the `genie_worker_pool_busy` gauge.
pub fn busy() -> usize {
    POOL.get()
        .map_or(0, |pool| pool.busy.load(Ordering::Relaxed))
}

/// High-water mark of [`busy`] since the previous call, consumed on
/// read. The interpreter publishes this as `genie_worker_pool_busy`.
pub fn busy_peak_take() -> usize {
    POOL.get()
        .map_or(0, |pool| pool.busy_peak.swap(0, Ordering::Relaxed))
}

/// Total OS threads the pool ever created. Constant after first use.
pub fn threads_spawned() -> usize {
    POOL.get()
        .map_or(0, |pool| pool.spawned.load(Ordering::Relaxed))
}

/// Times a worker parked since the pool started. The interpreter
/// publishes it as `genie_worker_pool_parks_total`.
pub fn parks() -> usize {
    POOL.get()
        .map_or(0, |pool| pool.parks.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_joins_borrowed_work() {
        let mut out = vec![0u64; 64];
        scope(|s| {
            for (i, chunk) in out.chunks_mut(8).enumerate() {
                s.spawn(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 8 + j) as u64;
                    }
                });
            }
        });
        let want: Vec<u64> = (0..64).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn pool_threads_created_once_per_process() {
        // Warm the pool, record the thread count, then hammer it with
        // many scopes: the count must not move — the whole point of
        // replacing per-call thread::scope.
        scope(|s| s.spawn(|| {}));
        let after_first = threads_spawned();
        assert!(after_first <= size().max(1));
        for _ in 0..32 {
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        std::hint::black_box(0u64);
                    });
                }
            });
        }
        assert_eq!(
            threads_spawned(),
            after_first,
            "pool must not spawn threads after initialization"
        );
        assert_eq!(threads_spawned(), size());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // More nested scopes than workers: the owner threads must help
        // drain the queue instead of all parking.
        let mut totals = [0u64; 4];
        scope(|outer| {
            for (i, slot) in totals.iter_mut().enumerate() {
                outer.spawn(move || {
                    let mut inner_out = [0u64; 8];
                    scope(|inner| {
                        for (j, v) in inner_out.iter_mut().enumerate() {
                            inner.spawn(move || *v = (i * 8 + j) as u64);
                        }
                    });
                    *slot = inner_out.iter().sum();
                });
            }
        });
        for (i, total) in totals.iter().enumerate() {
            let want: u64 = (0..8).map(|j| (i * 8 + j) as u64).sum();
            assert_eq!(*total, want);
        }
    }

    #[test]
    fn task_panic_propagates_after_join() {
        let result = panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {});
            });
        });
        assert!(result.is_err(), "scope must re-raise task panics");
    }

    #[test]
    fn busy_settles_to_zero() {
        // `busy` is process-wide and sibling tests run scopes of their own
        // on the same pool, so a single read after `scope` returns can
        // catch one of their jobs. What is this test's to assert: a job
        // is counted while it runs, and the count is not left above zero
        // once work stops — it reads zero at some point, and a leaked
        // increment would keep it from ever doing so.
        let lowest_seen = AtomicUsize::new(usize::MAX);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    lowest_seen.fetch_min(busy(), Ordering::Relaxed);
                });
            }
        });
        assert!(lowest_seen.load(Ordering::Relaxed) >= 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while busy() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "busy stuck at {} with no jobs of this test in flight",
                busy()
            );
            thread::yield_now();
        }
    }

    #[test]
    fn idle_workers_park_once_the_budget_is_spent() {
        // Wake every worker with a job each (sleeping, so the owner cannot
        // steal them all before the workers look), then go idle well past
        // the budget: each worker parks again, so the count grows by at
        // least the worker count. A worker that polled forever would
        // never add to it. Sibling tests may wake workers too, which only
        // adds parks.
        let before = parks();
        scope(|s| {
            for _ in 0..2 * size() {
                s.spawn(|| thread::sleep(Duration::from_millis(1)));
            }
        });
        thread::sleep(10 * POLL_BEFORE_PARK);
        let deadline = Instant::now() + Duration::from_secs(60);
        while parks() < before + size() {
            assert!(
                Instant::now() < deadline,
                "{} parks of {} workers since {before}",
                parks(),
                size()
            );
            thread::yield_now();
        }
    }
}
