//! Deterministic fault injection for the contained fork-join helpers.
//!
//! A [`FaultPlan`] is armed for one run. [`install`] arms it on the calling
//! thread only, and every helper that starts worker threads for a run hands
//! the spawning thread's plan to those workers ([`inherit`] /
//! [`Inherited::adopt`]). A plan therefore reaches exactly the threads its
//! own run started: concurrent runs that armed nothing never see it. With
//! no plan armed, [`fault_point`] is one thread-local read.
//!
//! A plan makes the *n*th task panic (one-shot and shared by every thread
//! of the run: each kill target fires at most once, so a retry of the same
//! task succeeds deterministically), injects seeded, bounded delays that
//! shuffle scheduling without changing any result, or shrinks the id
//! capacity of the interner shards the run builds.
//!
//! ```
//! use ghd_par::fault::{self, FaultPlan};
//!
//! let scope = fault::install(FaultPlan::new().kill_task(3));
//! let out = ghd_par::parallel_map_contained(&[0u32, 1, 2, 3, 4], 2, |&x| x);
//! assert_eq!(out.faults.len(), 1);
//! assert_eq!(out.faults[0].task, 3);
//! assert!(out.results[3].is_none());
//! assert_eq!(scope.fired(), 1);
//! ```

use ghd_prng::{Rng, SplitMix64};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A declarative fault schedule: which task indices to kill (one-shot), an
/// optional seeded delay jitter applied to every task, and an optional
/// interner-shard id capacity.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    kills: Vec<usize>,
    delay: Option<(u64, u64)>,
    shard_capacity: Option<u32>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until configured).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Kill (panic) the task with input index `task`. One-shot: the target
    /// is consumed when it fires, so retrying the same task index succeeds.
    #[must_use]
    pub fn kill_task(mut self, task: usize) -> Self {
        self.kills.push(task);
        self
    }

    /// Sleep a deterministic, seeded duration in `0..max_micros` µs before
    /// each task, perturbing the schedule without changing results.
    #[must_use]
    pub fn delay(mut self, seed: u64, max_micros: u64) -> Self {
        self.delay = Some((seed, max_micros));
        self
    }

    /// Caps the id space of every interner shard the run builds at `cap`
    /// states, so a test reaches the shard-overflow path without
    /// interning 2^27 states.
    #[must_use]
    pub fn shard_capacity(mut self, cap: u32) -> Self {
        assert!(cap > 0, "a shard needs room for at least one state");
        self.shard_capacity = Some(cap);
        self
    }
}

/// What [`fault_point`] decided to do for one task.
enum Action {
    Nothing,
    Sleep(Duration),
    Kill,
}

/// An armed plan, shared by every thread of the run that armed it.
struct Armed {
    kills: Mutex<Vec<usize>>,
    delay: Option<(u64, u64)>,
    shard_capacity: Option<u32>,
    fired: AtomicU64,
}

impl Armed {
    /// Decides under the kill lock and releases it before returning, so a
    /// kill never unwinds through the lock.
    fn action(&self, task: usize) -> Action {
        let mut kills = self.kills.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(pos) = kills.iter().position(|&k| k == task) {
            kills.swap_remove(pos);
            self.fired.fetch_add(1, Ordering::Relaxed);
            return Action::Kill;
        }
        match self.delay {
            Some((seed, max_micros)) if max_micros > 0 => {
                // Per-task stream: same (seed, task) → same delay,
                // independent of scheduling.
                let mut rng =
                    SplitMix64::new(seed ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Action::Sleep(Duration::from_micros(rng.next_u64() % max_micros))
            }
            _ => Action::Nothing,
        }
    }
}

thread_local! {
    static PLAN: RefCell<Option<Arc<Armed>>> = const { RefCell::new(None) };
}

/// RAII guard returned by [`install`]: the plan stays armed on the
/// installing thread (and on the workers its runs start) until this is
/// dropped, which restores the thread's previous plan. Not `Send`: it
/// belongs to the thread it armed.
pub struct FaultScope {
    armed: Arc<Armed>,
    previous: Option<Arc<Armed>>,
    _thread_bound: PhantomData<*const ()>,
}

impl FaultScope {
    /// How many faults (kills) the installed plan has fired so far, across
    /// every thread of its run.
    pub fn fired(&self) -> u64 {
        self.armed.fired.load(Ordering::Relaxed)
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        PLAN.with(|p| *p.borrow_mut() = previous);
    }
}

/// Arms `plan` on the calling thread and returns the guard keeping it
/// armed.
pub fn install(plan: FaultPlan) -> FaultScope {
    let armed = Arc::new(Armed {
        kills: Mutex::new(plan.kills),
        delay: plan.delay,
        shard_capacity: plan.shard_capacity,
        fired: AtomicU64::new(0),
    });
    let previous = PLAN.with(|p| p.replace(Some(Arc::clone(&armed))));
    FaultScope {
        armed,
        previous,
        _thread_bound: PhantomData,
    }
}

/// The plan armed on a spawning thread, on its way to a worker thread.
#[derive(Clone)]
pub struct Inherited(Option<Arc<Armed>>);

/// Captures the calling thread's plan (if any) for the worker threads its
/// run is about to start.
pub fn inherit() -> Inherited {
    Inherited(PLAN.with(|p| p.borrow().clone()))
}

impl Inherited {
    /// Arms the captured plan on the calling thread, a worker that the
    /// capturing thread's run started.
    pub fn adopt(self) {
        if self.0.is_some() {
            PLAN.with(|p| *p.borrow_mut() = self.0);
        }
    }
}

/// The interner-shard id capacity the calling thread's plan sets, if any.
pub fn shard_capacity() -> Option<u32> {
    PLAN.with(|p| p.borrow().as_ref().and_then(|a| a.shard_capacity))
}

/// The hook the contained helpers call before running each task. With no
/// plan armed on this thread it is one thread-local read; with a plan it
/// sleeps or panics as the plan decides.
pub(crate) fn fault_point(worker: usize, task: usize) {
    let action = PLAN.with(|p| p.borrow().as_ref().map_or(Action::Nothing, |a| a.action(task)));
    match action {
        Action::Nothing => {}
        Action::Sleep(d) => std::thread::sleep(d),
        Action::Kill => panic!("injected fault: worker {worker} task {task}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_fault_point_is_a_noop() {
        fault_point(0, 0);
        fault_point(7, 123);
        assert_eq!(shard_capacity(), None);
    }

    #[test]
    fn kill_targets_are_one_shot() {
        let scope = install(FaultPlan::new().kill_task(2));
        let first = std::panic::catch_unwind(|| fault_point(0, 2));
        assert!(first.is_err(), "first visit to task 2 must panic");
        assert_eq!(scope.fired(), 1);
        // Second visit (the retry) passes clean.
        fault_point(0, 2);
        assert_eq!(scope.fired(), 1);
    }

    #[test]
    fn delays_are_deterministic_per_task() {
        let mut a = SplitMix64::new(9 ^ 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut b = SplitMix64::new(9 ^ 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(a.next_u64(), b.next_u64());
        // And the hook itself survives a delay plan without panicking.
        let _scope = install(FaultPlan::new().delay(9, 50));
        fault_point(1, 5);
    }

    #[test]
    fn scopes_nest_and_restore_the_previous_plan() {
        let outer = install(FaultPlan::new().shard_capacity(8));
        {
            let _inner = install(FaultPlan::new().shard_capacity(2));
            assert_eq!(shard_capacity(), Some(2));
        }
        assert_eq!(shard_capacity(), Some(8));
        drop(outer);
        assert_eq!(shard_capacity(), None);
    }
}
