//! A std-only scoped worker pool with deterministic result ordering.
//!
//! The experiment harness runs many independent, seeded, deterministic
//! simulations (every grid point of a fig4–fig8 sweep). Each point is pure
//! CPU work with no shared mutable state, so they can fan across all cores —
//! the same dissemination/production decoupling argument the paper makes for
//! the protocol applies to its own evaluation. This crate provides the
//! smallest pool that makes that safe:
//!
//! * **No dependencies** — `std::thread::scope` plus an `mpsc` channel; the
//!   build environment cannot fetch crates.
//! * **Deterministic output order** — results come back indexed by input
//!   position, never by completion order, so a parallel sweep is
//!   byte-identical to the sequential one.
//! * **Panic draining** — a panicking task does not poison the pool: every
//!   other task still runs to completion, and the first panic (by *input*
//!   order, not completion order) is re-raised once all results are in.
//!   [`Pool::try_run`] exposes the per-task outcomes instead.
//! * **Nestable** — a task may build its own [`Pool`] and fan out again;
//!   scopes are independent.
//!
//! # Examples
//!
//! ```
//! use predis_parallel::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map((0..64u64).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! ```

#![deny(unsafe_code)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread;

/// Outcome of one pool task: `Ok` with the task's value, or `Err` with the
/// payload of its panic.
pub type TaskResult<T> = thread::Result<T>;

/// A fixed-width worker pool.
///
/// The pool itself holds no threads; every [`Pool::run`] call opens a fresh
/// [`std::thread::scope`], spawns up to `threads` workers, drains the task
/// queue, and joins them. This keeps the type trivially nestable and free of
/// lifecycle state (nothing to shut down, nothing to leak between sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: NonZeroUsize,
}

impl Pool {
    /// A pool of `threads` workers. Zero is clamped to one.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1"),
        }
    }

    /// A pool sized to the machine: [`std::thread::available_parallelism`],
    /// or one worker if that cannot be determined.
    ///
    /// The `PREDIS_THREADS` environment variable overrides the detected
    /// width (useful for pinning CI runners or forcing a sequential run).
    pub fn with_available_parallelism() -> Pool {
        if let Some(n) = std::env::var("PREDIS_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return Pool::new(n);
        }
        Pool::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Number of workers this pool spawns per run.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Runs every task, returning results **in input order**.
    ///
    /// All tasks execute even if some panic; after the queue drains, the
    /// panic of the lowest-indexed failing task is re-raised.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let mut out = Vec::with_capacity(tasks.len());
        let mut first_panic = None;
        for result in self.try_run(tasks) {
            match result {
                Ok(v) => out.push(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }

    /// Like [`Pool::run`] but returns each task's outcome instead of
    /// re-raising panics. `results[i]` is always task `i`'s outcome.
    pub fn try_run<T, F>(&self, tasks: Vec<F>) -> Vec<TaskResult<T>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads().min(n);
        let queue: Mutex<VecDeque<(usize, F)>> =
            Mutex::new(tasks.into_iter().enumerate().collect());
        let (tx, rx) = mpsc::channel::<(usize, TaskResult<T>)>();
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || loop {
                    // The lock is only held to pop; a task panicking cannot
                    // poison it because the task runs after the guard drops.
                    let job = queue
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .pop_front();
                    let Some((index, task)) = job else { break };
                    let result = catch_unwind(AssertUnwindSafe(task));
                    if tx.send((index, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut slots: Vec<Option<TaskResult<T>>> = (0..n).map(|_| None).collect();
            for (index, result) in rx {
                slots[index] = Some(result);
            }
            slots
                .into_iter()
                .map(|slot| slot.expect("every queued task reports exactly once"))
                .collect()
        })
    }

    /// Applies `f` to every item in parallel, preserving input order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        self.run(items.into_iter().map(|item| move || f(item)).collect())
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::with_available_parallelism()
    }
}

/// Runs a barrier-synchronized lockstep session over a set of owned shards.
///
/// One worker thread is spawned per shard. The session proceeds in rounds:
/// every round, each shard is sent to its worker (ownership transfer over a
/// channel), the worker calls `work(index, &mut shard)` in parallel with its
/// peers, and the shard is sent back. Once **all** shards have returned —
/// the barrier — the driver's `sync(&mut shards)` closure runs with
/// exclusive access to every shard; it merges cross-shard state and decides
/// whether another round follows (`true`) or the session ends (`false`).
///
/// After the final round each shard visits its worker one last time so
/// `finish(index, &mut shard)` can harvest worker-thread-local state (e.g.
/// thread-local counters that must be read *on* the thread that wrote
/// them); its results are returned in shard order alongside the shards.
///
/// A panicking worker ends the session early and the panic is re-raised
/// when the scope joins, exactly like [`Pool::run`].
pub fn run_lockstep<T, R, W, S, F>(
    mut shards: Vec<T>,
    work: W,
    mut sync: S,
    finish: F,
) -> (Vec<T>, Vec<R>)
where
    T: Send,
    R: Send,
    W: Fn(usize, &mut T) + Sync,
    S: FnMut(&mut Vec<T>) -> bool,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = shards.len();
    if n == 0 {
        return (shards, Vec::new());
    }
    thread::scope(|scope| {
        let mut to_workers = Vec::with_capacity(n);
        let mut from_workers = Vec::with_capacity(n);
        for index in 0..n {
            let (job_tx, job_rx) = mpsc::channel::<(T, bool)>();
            let (done_tx, done_rx) = mpsc::channel::<(T, Option<R>)>();
            let work = &work;
            let finish = &finish;
            scope.spawn(move || {
                while let Ok((mut shard, last)) = job_rx.recv() {
                    if last {
                        let harvest = finish(index, &mut shard);
                        let _ = done_tx.send((shard, Some(harvest)));
                        break;
                    }
                    work(index, &mut shard);
                    if done_tx.send((shard, None)).is_err() {
                        break;
                    }
                }
            });
            to_workers.push(job_tx);
            from_workers.push(done_rx);
        }
        let mut results = Vec::with_capacity(n);
        'session: loop {
            let last = {
                // Rounds run until `sync` says stop; the final trip only
                // harvests. A send/recv error means a worker panicked — bail
                // out and let the scope join re-raise its payload.
                for (tx, shard) in to_workers.iter().zip(shards.drain(..)) {
                    if tx.send((shard, false)).is_err() {
                        break 'session;
                    }
                }
                for rx in &from_workers {
                    match rx.recv() {
                        Ok((shard, _)) => shards.push(shard),
                        Err(_) => break 'session,
                    }
                }
                !sync(&mut shards)
            };
            if last {
                for (tx, shard) in to_workers.iter().zip(shards.drain(..)) {
                    if tx.send((shard, true)).is_err() {
                        break 'session;
                    }
                }
                for rx in &from_workers {
                    match rx.recv() {
                        Ok((shard, harvest)) => {
                            shards.push(shard);
                            results.extend(harvest);
                        }
                        Err(_) => break 'session,
                    }
                }
                break;
            }
        }
        drop(to_workers);
        (shards, results)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let pool = Pool::new(8);
        // Give earlier tasks more work so completion order tends to invert.
        let out = pool.map((0..32u64).collect(), |i| {
            let mut acc = 0u64;
            for k in 0..(32 - i) * 2_000 {
                acc = acc.wrapping_add(k ^ i);
            }
            std::hint::black_box(acc);
            i * 10
        });
        for (idx, &v) in out.iter().enumerate() {
            assert_eq!(v, idx as u64 * 10);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        let pool = Pool::new(4);
        let out: Vec<u32> = pool.run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn lockstep_barriers_between_rounds() {
        // Each worker increments its shard once per round; sync must always
        // observe every shard at the same round count (the barrier), and
        // finish must run on the worker thread.
        struct Cell {
            rounds: u32,
            thread: Option<std::thread::ThreadId>,
        }
        let shards: Vec<Cell> = (0..4)
            .map(|_| Cell {
                rounds: 0,
                thread: None,
            })
            .collect();
        let mut syncs = 0u32;
        let (shards, harvest) = run_lockstep(
            shards,
            |_, cell| cell.rounds += 1,
            |cells| {
                let r = cells[0].rounds;
                assert!(cells.iter().all(|c| c.rounds == r), "barrier violated");
                syncs += 1;
                r < 5
            },
            |_, cell| {
                cell.thread = Some(std::thread::current().id());
                cell.rounds
            },
        );
        assert_eq!(syncs, 5);
        assert_eq!(harvest, vec![5, 5, 5, 5]);
        let main = std::thread::current().id();
        for cell in &shards {
            assert_ne!(cell.thread.unwrap(), main, "finish must run on the worker");
        }
    }

    #[test]
    fn lockstep_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            run_lockstep(
                vec![0u32, 1],
                |i, _| {
                    if i == 1 {
                        panic!("worker down");
                    }
                },
                |_| false,
                |_, v| *v,
            )
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn lockstep_empty_shards_is_a_noop() {
        let (shards, harvest) = run_lockstep(Vec::<u32>::new(), |_, _| {}, |_| true, |_, v| *v);
        assert!(shards.is_empty());
        assert!(harvest.is_empty());
    }

    #[test]
    fn single_thread_pool_is_sequential_and_correct() {
        let pool = Pool::new(1);
        let order = AtomicUsize::new(0);
        let out = pool.map((0..10usize).collect(), |i| {
            (i, order.fetch_add(1, Ordering::SeqCst))
        });
        // One worker: execution order equals input order.
        for (idx, &(i, seen)) in out.iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(seen, idx);
        }
    }
}
