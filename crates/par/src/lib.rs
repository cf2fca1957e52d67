//! Dependency-free parallel runtime for the GHD search stack.
//!
//! The offline build environment forbids `rayon`/`crossbeam`, so this crate
//! provides the primitives the workspace needs, on plain `std`:
//!
//! * [`parallel_map`] — deterministic fork-join map over a slice: results
//!   come back **in input order** regardless of scheduling, so callers that
//!   reduce with order-sensitive operators (first-minimum tie-breaks) get
//!   identical answers sequentially and in parallel.
//! * [`parallel_map_contained`] / [`for_each_mut_contained`] — the
//!   *fault-contained* variants: every task runs inside
//!   [`std::panic::catch_unwind`], a panicking task is converted into a
//!   structured [`WorkerFault`] record while its worker thread survives and
//!   keeps draining the queue, and the caller receives all non-faulted
//!   results in input order. This is the foundation of the search
//!   portfolio's "one poisoned subtree does not abort the run" guarantee.
//! * [`for_each_mut`] — in-place fork-join over disjoint `&mut` items (used
//!   by SAIGA's island evolution, where every island owns its generator).
//! * [`fault`] — a deterministic fault-injection hook (test/bench-only):
//!   a [`fault::FaultPlan`] armed for one run kills the nth task (one-shot)
//!   or injects seeded delays, so integration tests can prove graceful
//!   degradation without OS-level tricks. The helpers below hand the
//!   calling thread's plan to the workers they start, and to no one else.
//!
//! Work distribution uses an atomic cursor (work stealing by chunk), so
//! uneven item costs — ubiquitous in branch-and-bound root splitting — do
//! not serialise the run.
//!
//! # Unwind-safety of containment
//!
//! The contained variants wrap tasks in `AssertUnwindSafe`. That is sound
//! for every call site in this workspace because a faulted task's partial
//! state is discarded wholesale (its result slot stays empty and its owned
//! search state is dropped during unwinding), and all *shared* state is
//! mutated exclusively through atomics (incumbent bounds, budget pools),
//! which cannot be observed in a torn intermediate state. RAII guards run
//! during the unwind, so a dying worker still returns its unspent budget
//! credits.
//!
//! # Example
//!
//! ```
//! // Square 100 numbers on all available cores; order is preserved.
//! let xs: Vec<u64> = (0..100).collect();
//! let squares = ghd_par::parallel_map(&xs, 0, |&x| x * x);
//! assert_eq!(squares[17], 17 * 17);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

pub mod fault;
pub mod steal;

/// Structured record of one contained task panic: which worker thread was
/// executing which task (input index) and the stringified panic payload.
///
/// Produced by [`parallel_map_contained`] / [`for_each_mut_contained`] /
/// [`run_contained`] and surfaced by the search layer through
/// `SearchStats::faults` so a production caller can tell "the run finished"
/// apart from "the run finished *despite* a dead worker".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerFault {
    /// Index of the worker thread that executed the task (or
    /// [`RETRY_WORKER`] for a caller-thread retry).
    pub worker: usize,
    /// Index of the task in the input slice.
    pub task: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim;
    /// anything else a placeholder).
    pub payload: String,
}

impl std::fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} faulted on task {}: {}",
            self.worker, self.task, self.payload
        )
    }
}

/// Sentinel worker id used by [`run_contained`] callers retrying a faulted
/// task on the coordinating thread.
pub const RETRY_WORKER: usize = usize::MAX;

/// Stringifies a panic payload (`&str` / `String` verbatim, placeholder
/// otherwise).
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one task fault-contained: the [`fault`] hook fires first (so
/// injected faults never tear caller state), then `f` runs inside
/// `catch_unwind`. A panic becomes an `Err(WorkerFault)`; the caller's
/// thread survives.
pub fn run_contained<U>(
    worker: usize,
    task: usize,
    f: impl FnOnce() -> U,
) -> Result<U, WorkerFault> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fault::fault_point(worker, task);
        f()
    }))
    .map_err(|p| WorkerFault {
        worker,
        task,
        payload: payload_string(p.as_ref()),
    })
}

/// Outcome of a fault-contained fork-join map: per-item results in input
/// order (`None` where the task faulted) plus the fault records, sorted by
/// task index so reports are deterministic regardless of scheduling.
#[derive(Debug)]
pub struct Contained<U> {
    /// One slot per input item; `None` iff that task panicked.
    pub results: Vec<Option<U>>,
    /// Fault records, sorted by task index.
    pub faults: Vec<WorkerFault>,
}

impl<U> Contained<U> {
    /// `true` iff no task faulted.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Number of worker threads to use: the `GHD_THREADS` environment variable
/// when set to a positive integer, otherwise `std::thread::available_parallelism`.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("GHD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a requested thread count: `0` means [`num_threads`], and the
/// result never exceeds `work_items` (no point spawning idle workers).
#[inline]
fn effective_threads(requested: usize, work_items: usize) -> usize {
    let t = if requested == 0 { num_threads() } else { requested };
    t.clamp(1, work_items.max(1))
}

/// Runs `worker(w)` for every `w < threads`, each on its own scoped thread
/// armed with the calling thread's fault plan, and joins them all.
fn run_workers(threads: usize, worker: impl Fn(usize) + Sync) {
    let plan = fault::inherit();
    thread::scope(|scope| {
        for w in 0..threads {
            let (plan, worker) = (plan.clone(), &worker);
            scope.spawn(move || {
                plan.adopt();
                worker(w);
            });
        }
    });
}

/// Fault-contained fork-join map: applies `f` to every element of `items`
/// on up to `threads` workers (`0` = auto), running each task through
/// [`run_contained`]. A panicking task leaves its result slot `None` and
/// adds a [`WorkerFault`]; the worker thread survives and keeps draining
/// the queue, so all other results arrive **in input order** as usual.
///
/// Because every task is wrapped in `catch_unwind`, no worker thread ever
/// unwinds through the scope and no result-slot mutex is ever poisoned.
pub fn parallel_map_contained<T, U, F>(items: &[T], threads: usize, f: F) -> Contained<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = effective_threads(threads, items.len());
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut results = Vec::with_capacity(n);
        let mut faults = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match run_contained(0, i, || f(item)) {
                Ok(v) => results.push(Some(v)),
                Err(fault) => {
                    results.push(None);
                    faults.push(fault);
                }
            }
        }
        return Contained { results, faults };
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots: Vec<Mutex<&mut Option<U>>> = out.iter_mut().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let faults: Mutex<Vec<WorkerFault>> = Mutex::new(Vec::new());
    run_workers(threads, |w| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        match run_contained(w, i, || f(&items[i])) {
            Ok(value) => {
                **slots[i].lock().expect("result slot poisoned") = Some(value);
            }
            Err(fault) => faults
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(fault),
        }
    });
    drop(slots);
    let mut faults = faults
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    faults.sort_by_key(|f| f.task);
    Contained {
        results: out,
        faults,
    }
}

/// Applies `f` to every element of `items` on up to `threads` workers
/// (`0` = auto) and returns the results **in input order**.
///
/// Scheduling is dynamic (atomic cursor), results are written to each item's
/// own slot, so the output is deterministic whenever `f` itself is — the
/// foundation of the "width-identical in parallel mode" guarantee of the
/// search portfolio.
///
/// Panics in `f` propagate to the caller (the scope joins all workers
/// first; the re-raised payload is the stringified [`WorkerFault`]). Callers
/// that need to *survive* a panicking task use [`parallel_map_contained`].
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let out = parallel_map_contained(items, threads, f);
    if let Some(fault) = out.faults.first() {
        panic!("{fault}");
    }
    out.results
        .into_iter()
        .map(|v| v.expect("every index visited exactly once"))
        .collect()
}

/// Fault-contained in-place fork-join: like [`for_each_mut`] but a
/// panicking task is recorded instead of aborting the run. Returns the
/// fault records sorted by task index.
///
/// An item whose task faulted is left exactly as `f` left it before the
/// panic; injected faults from the [`fault`] hook fire *before* `f` runs,
/// so they never tear item state.
pub fn for_each_mut_contained<T, F>(items: &mut [T], threads: usize, f: F) -> Vec<WorkerFault>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = effective_threads(threads, items.len());
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut faults = Vec::new();
        for (i, item) in items.iter_mut().enumerate() {
            if let Err(fault) = run_contained(0, i, || f(i, item)) {
                faults.push(fault);
            }
        }
        return faults;
    }
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let faults: Mutex<Vec<WorkerFault>> = Mutex::new(Vec::new());
    run_workers(threads, |w| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let mut guard = slots[i].lock().expect("item slot poisoned");
        if let Err(fault) = run_contained(w, i, || f(i, &mut guard)) {
            drop(guard);
            faults
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(fault);
        }
    });
    let mut faults = faults
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    faults.sort_by_key(|f| f.task);
    faults
}

/// Runs `f` on every element of a mutable slice in parallel (up to
/// `threads` workers; `0` = auto). Items are disjoint, so each worker gets
/// exclusive access to the items it claims via the shared cursor.
///
/// Panics in `f` propagate (stringified); use [`for_each_mut_contained`]
/// to survive them.
pub fn for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let faults = for_each_mut_contained(items, threads, f);
    if let Some(fault) = faults.first() {
        panic!("{fault}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let xs: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let ys = parallel_map(&xs, threads, |&x| x * 3);
            assert_eq!(ys, xs.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[9], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn parallel_matches_sequential_for_uneven_work() {
        let xs: Vec<u64> = (0..64).collect();
        let seq = parallel_map(&xs, 1, |&x| (0..(x % 7) * 1000).sum::<u64>() + x);
        let par = parallel_map(&xs, 4, |&x| (0..(x % 7) * 1000).sum::<u64>() + x);
        assert_eq!(seq, par);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let mut xs = vec![0u32; 100];
        for_each_mut(&mut xs, 4, |i, x| *x += i as u32 + 1);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(x, i as u32 + 1);
        }
    }

    #[test]
    fn contained_map_records_faults_and_keeps_other_results() {
        let xs: Vec<usize> = (0..32).collect();
        for threads in [1, 2, 4] {
            let out = parallel_map_contained(&xs, threads, |&x| {
                assert!(x != 5 && x != 20, "boom on {x}");
                x * 2
            });
            assert_eq!(out.faults.len(), 2, "threads={threads}");
            assert!(!out.is_clean());
            assert_eq!(out.faults[0].task, 5);
            assert_eq!(out.faults[1].task, 20);
            assert!(out.faults[0].payload.contains("boom on 5"));
            for (i, slot) in out.results.iter().enumerate() {
                if i == 5 || i == 20 {
                    assert!(slot.is_none());
                } else {
                    assert_eq!(*slot, Some(i * 2));
                }
            }
        }
    }

    #[test]
    fn contained_for_each_mut_survives_a_panicking_item() {
        for threads in [1, 3] {
            let mut xs = vec![0u32; 16];
            let faults = for_each_mut_contained(&mut xs, threads, |i, x| {
                assert!(i != 7, "island 7 down");
                *x = i as u32 + 1;
            });
            assert_eq!(faults.len(), 1);
            assert_eq!(faults[0].task, 7);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(x, if i == 7 { 0 } else { i as u32 + 1 });
            }
        }
    }

    #[test]
    fn injected_kill_is_contained_and_retry_succeeds() {
        let _scope = fault::install(fault::FaultPlan::new().kill_task(3));
        let xs: Vec<u64> = (0..8).collect();
        let out = parallel_map_contained(&xs, 2, |&x| x + 100);
        assert_eq!(out.faults.len(), 1);
        assert_eq!(out.faults[0].task, 3);
        assert!(out.faults[0].payload.contains("injected fault"));
        assert!(out.results[3].is_none());
        // One-shot: retrying the faulted task on the caller thread succeeds.
        let retried = run_contained(RETRY_WORKER, 3, || xs[3] + 100);
        assert_eq!(retried, Ok(103));
    }

    /// A plan armed for one run reaches only that run's workers: 200 armed
    /// runs each fire their kill exactly once while two unarmed loops of
    /// plain `parallel_map` (which panics on any fault) run beside them.
    #[test]
    fn an_armed_run_never_leaks_into_concurrent_unarmed_runs() {
        let xs: Vec<u64> = (0..16).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (armed, unarmed) = thread::scope(|s| {
            let loops: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        while !done.load(Ordering::Acquire) {
                            assert_eq!(parallel_map(&xs, 1, |&x| x + 1)[0], 1);
                        }
                    })
                })
                .collect();
            let armed: Vec<(u64, Vec<usize>)> = (0..200)
                .map(|_| {
                    let scope = fault::install(fault::FaultPlan::new().kill_task(0));
                    let out = parallel_map_contained(&xs, 2, |&x| x + 1);
                    (scope.fired(), out.faults.iter().map(|f| f.task).collect())
                })
                .collect();
            done.store(true, Ordering::Release);
            let unarmed: Vec<bool> = loops.into_iter().map(|h| h.join().is_ok()).collect();
            (armed, unarmed)
        });
        for (round, (fired, tasks)) in armed.iter().enumerate() {
            assert_eq!((*fired, tasks.as_slice()), (1, &[0][..]), "armed run {round}");
        }
        assert_eq!(unarmed, [true, true], "an unarmed loop tripped an injected fault");
    }

    #[test]
    fn injected_delays_change_nothing_but_timing() {
        let xs: Vec<u64> = (0..24).collect();
        let clean = parallel_map(&xs, 4, |&x| x * x);
        let _scope = fault::install(fault::FaultPlan::new().delay(42, 200));
        let delayed = parallel_map_contained(&xs, 4, |&x| x * x);
        assert!(delayed.is_clean());
        let delayed: Vec<u64> = delayed.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(clean, delayed);
    }

    #[test]
    fn uncontained_map_still_propagates_panics() {
        let err = std::panic::catch_unwind(|| {
            parallel_map(&[1u8, 2, 3], 2, |&x| {
                assert!(x != 2, "no twos");
                x
            })
        });
        assert!(err.is_err());
    }

    #[test]
    fn threads_env_override_is_respected() {
        // effective_threads never exceeds the work size and never hits 0
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, 64) >= 1);
    }
}
