//! Work-stealing parallel map on `std::thread` scoped workers.
//!
//! Tasks are indices into the caller's slice. All of them start in a
//! shared *injector* queue; each worker drains batches from the injector
//! into its own deque, pops its deque LIFO, and — once both are empty —
//! steals FIFO from a sibling's deque. Results travel back over an mpsc
//! channel tagged with their input index and are written into an
//! index-addressed output vector, so every map is order-preserving by
//! construction.
//!
//! Idle workers spin briefly and then *park* on a condvar instead of
//! busy-yielding: on a box with fewer cores than
//! workers, a yield loop steals timeslices from the threads doing real
//! work, which is exactly the oversubscription cliff the bench matrix
//! measures. Parking always uses a bounded `wait_timeout`, so a missed
//! wakeup costs latency, never liveness.
//!
//! Shutdown is non-blocking: a worker exits once no task can be found
//! anywhere *and* every task has been claimed for execution. Claiming is
//! counted at pop time, so a task that panics still counts as claimed and
//! the remaining workers drain the rest and exit; the panic itself is
//! re-raised by `std::thread::scope` when the workers are joined — no
//! hang, panic propagated.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Number of workers to use: `SEAL_JOBS` when set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn worker_count() -> usize {
    match std::env::var("SEAL_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Caps a requested worker count at the parallelism actually available
/// right now. For a CPU-bound stage, threads beyond the host's cores buy
/// no throughput — they only add timeslicing and scheduling overhead —
/// and pipeline output is jobs-invariant, so the cap is unobservable
/// outside of timing. Callers that deliberately oversubscribe (pool
/// stress tests, the CI smoke) pass their worker count straight to the
/// pool entry points instead.
pub fn effective_jobs(requested: usize) -> usize {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    requested.min(cpus).max(1)
}

/// Yield-spin iterations before an idle worker parks.
const SPIN_BEFORE_PARK: u32 = 16;

/// Park timeout: an upper bound on wakeup latency after a missed notify,
/// NOT a correctness mechanism — shutdown re-checks `claimed` on every
/// wake.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Locks a queue, surviving poisoning (a panic never happens while the
/// lock is held, so the protected deque is always consistent).
fn lock(q: &Mutex<VecDeque<usize>>) -> MutexGuard<'_, VecDeque<usize>> {
    q.lock().unwrap_or_else(|e| e.into_inner())
}

/// Task-fetching state shared by the workers of one map call.
struct Queues {
    injector: Mutex<VecDeque<usize>>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks popped for execution (not merely moved between queues).
    claimed: AtomicUsize,
    total: usize,
    /// Guards nothing — pairs with `idle_cv` for parked idle workers.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl Queues {
    /// Counts a claim; the worker that claims the last task wakes every
    /// parked sibling so they can observe shutdown immediately.
    fn claim(&self) {
        if self.claimed.fetch_add(1, Ordering::SeqCst) + 1 >= self.total {
            self.idle_cv.notify_all();
        }
    }

    /// Claims the next task for worker `me`, or returns `None` when every
    /// task in the call has been claimed. Never blocks indefinitely.
    fn next_task(&self, me: usize) -> Option<usize> {
        let mut spins = 0u32;
        loop {
            // 1. Own deque, LIFO (freshest batch is cache-warm).
            if let Some(i) = lock(&self.deques[me]).pop_back() {
                self.claim();
                return Some(i);
            }
            // 2. Refill from the shared injector, one batch at a time so
            //    late tasks stay available to idle workers.
            {
                let mut inj = lock(&self.injector);
                if !inj.is_empty() {
                    // The chunk cap scales with per-worker load: big corpora
                    // take bigger bites (fewer injector locks), small ones
                    // stay at 1-2 so siblings can still steal.
                    let fair = inj.len() / (self.deques.len() * 2);
                    let cap = (self.total / (self.deques.len() * 4)).clamp(4, 64);
                    let batch = fair.clamp(1, cap);
                    let mut own = lock(&self.deques[me]);
                    for _ in 0..batch {
                        match inj.pop_front() {
                            Some(i) => own.push_back(i),
                            None => break,
                        }
                    }
                    seal_obs::metrics::counter_add_nd("pool.injector_refills", 1);
                    seal_obs::metrics::gauge_max_nd("pool.queue_depth_max", own.len() as i64);
                    let stealable = own.len() > 1;
                    drop(own);
                    drop(inj);
                    // New stealable work: wake parked siblings to share it.
                    if stealable {
                        self.idle_cv.notify_all();
                    }
                    continue;
                }
            }
            // 3. Steal FIFO from a sibling (oldest task: largest expected
            //    remaining work, and no contention with its LIFO end).
            for (v, deque) in self.deques.iter().enumerate() {
                if v == me {
                    continue;
                }
                if let Some(i) = lock(deque).pop_front() {
                    self.claim();
                    seal_obs::metrics::counter_add_nd("pool.steals", 1);
                    return Some(i);
                }
            }
            // 4. Nothing anywhere: done, or a loser of a race. Spin a few
            //    rounds (work usually reappears within a timeslice), then
            //    park so idle workers stop stealing CPU from busy ones.
            if self.claimed.load(Ordering::SeqCst) >= self.total {
                return None;
            }
            if spins < SPIN_BEFORE_PARK {
                spins += 1;
                std::thread::yield_now();
                continue;
            }
            spins = 0;
            let waited = Instant::now();
            let guard = self.idle_lock.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the idle lock: a notify between our last scan
            // and this park would otherwise be lost until the timeout.
            if self.claimed.load(Ordering::SeqCst) >= self.total {
                return None;
            }
            let _unused = self
                .idle_cv
                .wait_timeout(guard, PARK_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            seal_obs::metrics::counter_add_nd("pool.park_count", 1);
            seal_obs::metrics::counter_add_nd(
                "pool.injector_wait_ns",
                waited.elapsed().as_nanos() as u64,
            );
        }
    }
}

/// Parallel map preserving input order, with an explicit worker count.
/// `jobs <= 1` (or fewer than two items) runs inline on the caller's
/// thread — the deterministic reference path.
pub fn par_map_indexed_jobs<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let total = items.len();
    // Task totals are jobs-invariant; worker counts are not.
    seal_obs::metrics::counter_add("pool.tasks", total as u64);
    if jobs <= 1 || total <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = jobs.min(total);
    seal_obs::metrics::gauge_max_nd("pool.workers_max", workers as i64);
    let queues = Queues {
        injector: Mutex::new((0..total).collect()),
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        claimed: AtomicUsize::new(0),
        total,
        idle_lock: Mutex::new(()),
        idle_cv: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    let mut out: Vec<Option<U>> = Vec::with_capacity(total);
    out.resize_with(total, || None);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            scope.spawn(move || {
                while let Some(i) = queues.next_task(w) {
                    let v = f(i, &items[i]);
                    if tx.send((i, v)).is_err() {
                        return; // collector gone; nothing left to report to
                    }
                }
            });
        }
        drop(tx);
        // Collect until every worker has dropped its sender. If a task
        // panicked its result is simply missing; the scope re-raises the
        // panic right after this loop.
        while let Ok((i, v)) = rx.recv() {
            out[i] = Some(v);
        }
    });
    out.into_iter()
        .map(|v| v.expect("scope completed without panic, so every task ran"))
        .collect()
}

/// [`par_map_indexed_jobs`] without the index argument.
pub fn par_map_jobs<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_jobs(jobs, items, |_, t| f(t))
}

/// Fault-isolated parallel map: each task runs inside
/// [`crate::panic::catch_task_panic`], so one panicking item yields an
/// `Err(TaskPanic)` slot instead of aborting the whole map. Ordering is
/// index-preserving by construction, and because every task is
/// independent, each slot's value is byte-identical for any `jobs` —
/// including the inline `jobs <= 1` reference path.
pub fn par_map_isolated_jobs<T, U, F>(
    jobs: usize,
    items: &[T],
    f: F,
) -> Vec<Result<U, crate::panic::TaskPanic>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_jobs(jobs, items, |_, t| crate::panic::catch_task_panic(|| f(t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 4, 7] {
            let got = par_map_jobs(jobs, &items, |&x| x * x + 1);
            let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_task_durations_still_ordered() {
        // Early tasks sleep longest; stealing must not reorder results.
        let items: Vec<u64> = (0..24).collect();
        let got = par_map_indexed_jobs(4, &items, |i, &x| {
            std::thread::sleep(std::time::Duration::from_micros(
                (items.len() - i) as u64 * 50,
            ));
            (i, x + 100)
        });
        for (i, &(gi, gv)) in got.iter().enumerate() {
            assert_eq!((gi, gv), (i, i as u64 + 100));
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
        let idx: Vec<usize> = (0..300).collect();
        par_map_jobs(6, &idx, |&i| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = vec![];
        assert!(par_map_jobs(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_jobs(4, &[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn parking_workers_wake_for_late_stealable_work() {
        // One long task holds a worker while the rest go idle and park;
        // they must wake (notify or timeout) and finish the stragglers.
        let items: Vec<u64> = (0..32).collect();
        let got = par_map_indexed_jobs(8, &items, |i, &x| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        let want: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn panicking_task_propagates_without_hang() {
        let items: Vec<usize> = (0..64).collect();
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_jobs(4, &items, |&i| {
                if i == 13 {
                    panic!("boom in task 13");
                }
                ran.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool drained the remaining tasks instead of hanging.
        assert_eq!(ran.load(Ordering::SeqCst), items.len() - 1);
    }

    #[test]
    fn isolated_map_survives_panicking_tasks() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 4] {
            let got = par_map_isolated_jobs(jobs, &items, |&i| {
                if i % 13 == 5 {
                    panic!("bad item {i}");
                }
                i * 2
            });
            assert_eq!(got.len(), items.len(), "jobs={jobs}");
            for (i, r) in got.iter().enumerate() {
                if i % 13 == 5 {
                    let e = r.as_ref().unwrap_err();
                    assert!(e.message.contains(&format!("bad item {i}")), "{e}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn isolated_map_is_jobs_invariant() {
        let items: Vec<u64> = (0..97).collect();
        let run = |jobs| {
            par_map_isolated_jobs(jobs, &items, |&x| {
                if x % 10 == 3 {
                    panic!("drop {x}");
                }
                x * x
            })
        };
        let a = run(1);
        for jobs in [2, 4, 7] {
            assert_eq!(a, run(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn jobs_env_var_controls_worker_count() {
        std::env::set_var("SEAL_JOBS", "3");
        assert_eq!(worker_count(), 3);
        std::env::set_var("SEAL_JOBS", "not-a-number");
        assert!(worker_count() >= 1);
        std::env::remove_var("SEAL_JOBS");
        assert!(worker_count() >= 1);
    }
}
