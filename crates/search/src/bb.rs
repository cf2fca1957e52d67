//! Branch and bound over elimination orderings, once for every width
//! measure: BB-tw (§4.4.1, in the style of QuickBB \[24\] / BB-tw \[5\]) and
//! BB-ghw (Chapter 8, Fig 8.3, justified by Theorem 3: some ordering attains
//! `ghw` under exact set covering).
//!
//! The search walks the elimination-ordering tree depth-first. Per state
//! the cost g is the largest bag cost so far (degree for tw, exact set
//! cover for ghw, see `measure.rs`); f adds the residual heuristic;
//! the reductions (§4.4.3 / §8.2) and pruning rule 2 (§4.4.4 / §8.3) shrink
//! the tree, and PR1 (§4.4.5) or its GHW analogue closes subtrees whose
//! completion is free. Three drivers run the one `Dfs`: sequential, the
//! one-shot root split, and the work-stealing runtime of [`crate::steal`].

use crate::common::{
    complete_ordering, Budget, IncumbentSample, SearchLimits, SearchResult, SearchStats,
    StealCounters, Telemetry, Ticker,
};
use crate::measure::{open_root, Ghw, Measure, Root, Tw};
use crate::rules::child_successors;
use crate::steal::{Scheduler, StealConfig};
use ghd_core::setcover::{CacheStats, CoverMethod};
use ghd_hypergraph::{EliminationGraph, Graph, Hypergraph};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-node lower bound heuristic selection (for the ablation benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LbMode {
    /// No per-node bound (PR1 and the incumbent still prune).
    None,
    /// max(minor-min-width, minor-γ_R) (the thesis' A\*-tw choice). BB
    /// evaluates it only below the root, where the residual has a dead
    /// (isolated) vertex; with deterministic tie-breaks minor-γ_R equals
    /// minor-min-width (QuickBB's choice) on such graphs (see DESIGN.md),
    /// so this is one minor-min-width pass.
    #[default]
    MmwGammaR,
}

/// Configuration for [`bb_tw`].
#[derive(Clone, Debug)]
pub struct BbConfig {
    /// Resource limits (global per run — parallel workers share them).
    pub limits: SearchLimits,
    /// Apply the simplicial / strongly-almost-simplicial reductions.
    pub use_reductions: bool,
    /// Apply pruning rule 2.
    pub use_pr2: bool,
    /// Per-node lower bound heuristic.
    pub lb_mode: LbMode,
    /// Work-stealing knobs (used by [`bb_tw_parallel`]).
    pub steal: StealConfig,
}

impl Default for BbConfig {
    fn default() -> Self {
        BbConfig {
            limits: SearchLimits::unlimited(),
            use_reductions: true,
            use_pr2: true,
            lb_mode: LbMode::default(),
            steal: StealConfig::default(),
        }
    }
}

/// A BB configuration over its instance type: it builds the measure the
/// generic cores run on, plus the measure-independent knobs. The split
/// layer drives the cores through it as well.
pub(crate) trait MeasureConfig: Sync {
    type Inst: Sync;
    type M<'a>: Measure;

    fn knobs(&self) -> Knobs<'_>;
    fn measure<'a>(&self, inst: &'a Self::Inst) -> Self::M<'a>;
}

impl MeasureConfig for BbConfig {
    type Inst = Graph;
    type M<'a> = Tw<'a>;

    fn knobs(&self) -> Knobs<'_> {
        Knobs {
            limits: &self.limits,
            reductions: self.use_reductions,
            pr2: self.use_pr2,
            steal: self.steal,
        }
    }

    fn measure<'g>(&self, g: &'g Graph) -> Tw<'g> {
        Tw {
            g,
            lb_mode: self.lb_mode,
        }
    }
}

/// Configuration for [`bb_ghw`].
#[derive(Clone, Debug)]
pub struct BbGhwConfig {
    /// Resource limits (global per run — parallel workers share them).
    pub limits: SearchLimits,
    /// Apply the simplicial-vertex reduction (§8.2).
    pub use_reductions: bool,
    /// Apply the non-adjacent-swap pruning rule (§8.3).
    pub use_pr2: bool,
    /// Bag cover solver. Exactness of the search requires
    /// [`CoverMethod::Exact`] (Theorem 3); `Greedy` turns this into a fast
    /// upper-bound heuristic.
    pub cover: CoverMethod,
    /// Memoize per-bag covers in a [`CoverCache`]. The cache stores only
    /// proven facts, so results are identical on/off; permutation-heavy
    /// search trees revisit bags constantly and hit rates are high.
    ///
    /// [`CoverCache`]: ghd_core::setcover::CoverCache
    pub use_cover_cache: bool,
    /// Work-stealing runtime knobs ([`bb_ghw_parallel`] only; sequential
    /// runs and the root-split baseline ignore it).
    pub steal: StealConfig,
}

impl Default for BbGhwConfig {
    fn default() -> Self {
        BbGhwConfig {
            limits: SearchLimits::unlimited(),
            use_reductions: true,
            use_pr2: true,
            cover: CoverMethod::Exact,
            use_cover_cache: true,
            steal: StealConfig::default(),
        }
    }
}

impl MeasureConfig for BbGhwConfig {
    type Inst = Hypergraph;
    type M<'a> = Ghw<'a>;

    fn knobs(&self) -> Knobs<'_> {
        Knobs {
            limits: &self.limits,
            reductions: self.use_reductions,
            pr2: self.use_pr2,
            steal: self.steal,
        }
    }

    fn measure<'h>(&self, h: &'h Hypergraph) -> Ghw<'h> {
        Ghw::new(h, self.cover, self.use_cover_cache)
    }
}

/// The measure-independent settings of a BB run.
#[derive(Clone, Copy)]
pub(crate) struct Knobs<'c> {
    limits: &'c SearchLimits,
    reductions: bool,
    pr2: bool,
    steal: StealConfig,
}

struct Dfs<'a, M: Measure> {
    m: &'a M,
    w: M::Worker,
    knobs: Knobs<'a>,
    eg: EliminationGraph,
    ticker: Ticker<'a>,
    ub: usize,
    /// Elimination order (first-eliminated first) realising `ub`; completed
    /// to a full ordering lazily.
    best_suffix: Vec<usize>,
    suffix: Vec<usize>,
    root_lb: usize,
    /// Incumbent shared between parallel workers (`None` sequentially).
    /// Improvements are published with `fetch_min`; every expansion syncs
    /// `ub` down to it, so one worker's discovery prunes all the others.
    shared_ub: Option<&'a AtomicUsize>,
    /// Best width *this* search proved with a concrete suffix (`usize::MAX`
    /// until then). Distinguishes "I found it" from "a sibling worker's
    /// bound tightened my `ub`".
    found: usize,
    /// Minimum f-value over the *open frontier* left behind when the budget
    /// expired (`usize::MAX` while none). Every node of the search tree that
    /// was neither closed nor f-pruned has f at least this, so
    /// `min(ub, expiry_floor)` is a sound anytime lower bound — f is a true
    /// lower bound on any completion through a node (while costs are exact)
    /// and is monotone along root-to-leaf paths.
    expiry_floor: usize,
    /// Telemetry collector (no-op unless `limits.collect_stats`).
    telemetry: Telemetry,
    /// Work-stealing scheduler (`None` elsewhere): children above the depth
    /// cutoff are published as stealable tasks instead of searched inline.
    sched: Option<&'a Scheduler>,
    /// This worker's index in the scheduler.
    worker: usize,
    /// Publish children as tasks while `eg.depth()` is at most this.
    steal_depth: usize,
    /// Tasks this worker published.
    published: u64,
    /// Witness-reconstruction mode: stop at the first improvement.
    stop_at_first: bool,
    /// Set once `stop_at_first` triggered; unwinds the search as success.
    stopped: bool,
}

/// What one search — a sequential run, a root-split task, a work-stealing
/// worker or a witness rebuild — leaves behind.
struct Outcome {
    completed: bool,
    found: usize,
    best_suffix: Vec<usize>,
    nodes: u64,
    degraded: bool,
    expiry_floor: usize,
    /// The worker's local cover-memo counters.
    local: Option<CacheStats>,
    stats: Option<SearchStats>,
}

impl Outcome {
    /// A task lost to a second fault: its subtree is unexplored, and the
    /// root bound is all that is known about it.
    fn lost(root_lb: usize) -> Self {
        Outcome {
            completed: false,
            found: usize::MAX,
            best_suffix: Vec::new(),
            nodes: 0,
            degraded: false,
            expiry_floor: root_lb,
            local: None,
            stats: None,
        }
    }
}

impl<'a, M: Measure> Dfs<'a, M> {
    /// A sequential-defaults search state; parallel callers override the
    /// sharing fields afterwards.
    fn new(
        m: &'a M,
        knobs: Knobs<'a>,
        w: M::Worker,
        ticker: Ticker<'a>,
        ub: usize,
        root_lb: usize,
    ) -> Self {
        Dfs {
            m,
            w,
            knobs,
            eg: EliminationGraph::new(m.graph()),
            ticker,
            ub,
            best_suffix: Vec::new(),
            suffix: Vec::new(),
            root_lb,
            shared_ub: None,
            found: usize::MAX,
            expiry_floor: usize::MAX,
            telemetry: Telemetry::new(knobs.limits.collect_stats),
            sched: None,
            worker: 0,
            steal_depth: 0,
            published: 0,
            stop_at_first: false,
            stopped: false,
        }
    }

    /// Records a width improvement discovered by this search.
    fn improve(&mut self, w: usize) {
        self.ub = w;
        self.found = w;
        self.best_suffix = self.suffix.clone();
        if self.stop_at_first {
            self.stopped = true;
        }
        if let Some(s) = self.shared_ub {
            s.fetch_min(w, Ordering::Relaxed);
        }
        if self.telemetry.on() {
            let (elapsed, lb) = (self.ticker.elapsed(), self.root_lb.min(w));
            self.telemetry.sample(elapsed, w, lb);
        }
    }

    fn can_publish(&self) -> bool {
        self.sched.is_some() && self.eg.depth() <= self.steal_depth
    }

    /// Publishes the current state (the elimination prefix in `suffix`) as
    /// a stealable task; `false` when the deque is full and the caller
    /// should search inline.
    fn publish_child(&mut self, g: usize, f: usize) -> bool {
        let sched = self.sched.expect("checked by can_publish");
        if sched.publish(self.worker, &self.suffix, g, f) {
            self.published += 1;
            true
        } else {
            false
        }
    }

    /// The PR2-filtered successors of the child reached by eliminating `v`,
    /// listed in the current (parent) graph where PR2 must be evaluated.
    fn grandchildren(&self, v: usize) -> Vec<u32> {
        child_successors(&self.eg, v, Some(M::swappable))
    }

    /// Depth-first search below the current state. `g` is the cost of the
    /// partial ordering, `f` the inherited bound, `allowed` the PR2-filtered
    /// candidate set (`None` = all alive). Returns `false` when the budget
    /// expired (result no longer guaranteed exact).
    fn search(&mut self, g: usize, f: usize, allowed: Option<&[u32]>) -> bool {
        // an exhausted interner abandons this worker's remaining work like
        // a second fault: every abandoned node's f joins the expiry floor,
        // exactly like a node left open by an expired budget
        if !self.ticker.tick() || self.m.overflowed(&self.w) {
            self.expiry_floor = self.expiry_floor.min(f);
            return false;
        }
        if let Some(s) = self.shared_ub {
            self.ub = self.ub.min(s.load(Ordering::Relaxed));
        }
        // PR1 (§4.4.5) and its GHW analogue: completing in any order yields
        // width ≤ max(g, c)
        let c = self.m.completion(&mut self.w, &self.eg);
        let w = g.max(c);
        if w < self.ub {
            self.improve(w);
            if self.stopped {
                return true;
            }
        }
        if c <= g {
            self.telemetry.prune(|p| p.pr1_closures += 1);
            return true; // subtree solved optimally at width g
        }

        // child candidates: reduction rule first, then PR2 filter
        let forced = if self.knobs.reductions {
            self.m.reduction(&self.eg, f)
        } else {
            None
        };
        if forced.is_some() {
            self.telemetry.prune(|p| p.simplicial += 1);
        }
        let mut children: Vec<usize> = match forced {
            Some(v) => vec![v],
            None => match allowed {
                Some(set) => {
                    if self.telemetry.on() {
                        let cut = self.eg.num_alive().saturating_sub(set.len()) as u64;
                        self.telemetry.prune(|p| p.pr2_filtered += cut);
                    }
                    set.iter().map(|&v| v as usize).collect()
                }
                None => self.eg.alive().to_vec(),
            },
        };
        // explore low-degree vertices first: finds good orderings earlier
        children.sort_by_key(|&v| self.eg.degree(v));

        let last = children.len();
        for (i, &v) in children.iter().enumerate() {
            let (k, exact) = self.m.cost(&mut self.w, &self.eg, v, self.ub);
            if !exact {
                self.telemetry.prune(|p| p.capped_covers += 1);
            }
            let child_g = g.max(k);
            // grandchild PR2 filter must look at the *current* graph; a
            // child that its own cost already prunes never uses it
            let grandchildren = (self.knobs.pr2 && forced.is_none() && child_g.max(f) < self.ub)
                .then(|| self.grandchildren(v));
            self.eg.eliminate(v);
            self.suffix.push(v);
            let mut child_f = child_g.max(f);
            if child_f < self.ub {
                // h only matters if g alone does not already prune
                child_f = child_f.max(self.m.residual_lb(&mut self.w, &self.eg));
            }
            let ok = if child_f < self.ub {
                if self.can_publish() && self.publish_child(child_g, child_f) {
                    true // the scheduler owns the subtree now
                } else {
                    self.search(child_g, child_f, grandchildren.as_deref())
                }
            } else {
                self.telemetry.prune(|p| p.f_prunes += 1);
                true
            };
            self.suffix.pop();
            self.eg.restore();
            if !ok {
                if i + 1 < last {
                    // unvisited siblings remain open; each has f ≥ this f
                    self.expiry_floor = self.expiry_floor.min(f);
                }
                return false;
            }
            if self.stopped {
                return true;
            }
        }
        true
    }

    /// Ends this search: folds the worker's cache counters and overflow
    /// flag into its telemetry, and hands back its state.
    fn finish(self, completed: bool) -> (Outcome, M::Worker) {
        let overflow = self.m.overflowed(&self.w);
        let cache = self.m.cache_stats(&self.w);
        let mut telemetry = self.telemetry;
        if let Some((_, attributed)) = cache {
            telemetry.cache(attributed);
        }
        telemetry.note(|s| s.interner_overflow |= overflow);
        let outcome = Outcome {
            // an overflowed interner abandoned work into the expiry floor
            completed: completed && !overflow,
            found: self.found,
            best_suffix: self.best_suffix,
            nodes: self.ticker.nodes(),
            degraded: self.m.degraded(&self.w),
            expiry_floor: self.expiry_floor,
            local: cache.map(|(local, _)| local),
            stats: telemetry.finish(),
        };
        (outcome, self.w)
    }
}

/// Executes one stolen/popped task on a worker's persistent [`Dfs`]: syncs
/// the incumbent, replays the elimination prefix, recomputes the parent's
/// PR2 filter for the final prefix vertex exactly as the inline child
/// expansion would have, searches the subtree, and restores the state.
/// Returns `false` iff the budget expired inside (the task's `f` has then
/// been folded into the expiry floor by the failed tick).
fn run_steal_task<M: Measure>(dfs: &mut Dfs<'_, M>, prefix: &[u32], g: usize, f: usize) -> bool {
    if let Some(s) = dfs.shared_ub {
        dfs.ub = dfs.ub.min(s.load(Ordering::Relaxed));
    }
    if f >= dfs.ub {
        // the subtree cannot beat the incumbent any more
        dfs.telemetry.prune(|p| p.f_prunes += 1);
        return true;
    }
    debug_assert_eq!(
        dfs.eg.depth(),
        0,
        "worker state fully restored between tasks"
    );
    let Some((&v, head)) = prefix.split_last() else {
        // the seed task: the root expansion itself
        return dfs.search(g, f, None);
    };
    for &u in head {
        dfs.eg.eliminate(u as usize);
        dfs.suffix.push(u as usize);
    }
    let v = v as usize;
    let forced = if dfs.knobs.reductions {
        dfs.m.reduction(&dfs.eg, f)
    } else {
        None
    };
    let grandchildren = (dfs.knobs.pr2 && forced.is_none()).then(|| dfs.grandchildren(v));
    dfs.eg.eliminate(v);
    dfs.suffix.push(v);
    let ok = dfs.search(g, f, grandchildren.as_deref());
    for _ in 0..prefix.len() {
        dfs.suffix.pop();
        dfs.eg.restore();
    }
    ok
}

/// The merged outcomes of a run's searches.
struct Run {
    ub: usize,
    best_suffix: Vec<usize>,
    nodes: u64,
    completed: bool,
    degraded: bool,
    expiry_floor: usize,
    locals: Vec<CacheStats>,
    stats: Vec<SearchStats>,
}

impl Run {
    /// Merges outcomes in order: the best proven width wins, the first
    /// search to prove it breaks ties.
    fn gather(ub: usize, outcomes: impl IntoIterator<Item = Outcome>) -> Run {
        let mut run = Run {
            ub,
            best_suffix: Vec::new(),
            nodes: 0,
            completed: true,
            degraded: false,
            expiry_floor: usize::MAX,
            locals: Vec::new(),
            stats: Vec::new(),
        };
        for o in outcomes {
            if o.found < run.ub {
                run.ub = o.found;
                run.best_suffix = o.best_suffix;
            }
            run.nodes += o.nodes;
            run.completed &= o.completed;
            run.degraded |= o.degraded;
            run.expiry_floor = run.expiry_floor.min(o.expiry_floor);
            run.locals.extend(o.local);
            run.stats.extend(o.stats);
        }
        run
    }

    /// The result: verdict by the measure's exactness rule, stats merged
    /// over the root and every search. The merged cover-cache counters
    /// start from the shared store's totals and add each local memo: hits,
    /// misses and evictions sum, the `entries` gauge takes the max.
    fn conclude<M: Measure>(
        self,
        m: &M,
        root: Root,
        budget: &Budget,
        faults: Vec<ghd_par::WorkerFault>,
        steals: Vec<StealCounters>,
        state_bytes: usize,
    ) -> SearchResult {
        let mut cover_cache = m.shared_stats();
        for l in &self.locals {
            cover_cache
                .get_or_insert_with(CacheStats::default)
                .absorb_parallel(l);
        }
        let n = m.graph().num_vertices();
        let ordering = Some(complete_ordering(n, &self.best_suffix, root.order));
        let (exact, lower_bound) = m.verdict(
            self.completed,
            self.degraded,
            root.lb,
            self.expiry_floor,
            self.ub,
        );
        let stats = root.telemetry.finish().map(|r| {
            let mut merged = SearchStats::merge(std::iter::once(r).chain(self.stats));
            merged.incumbents.push(IncumbentSample {
                elapsed: budget.elapsed(),
                upper_bound: self.ub,
                lower_bound,
            });
            merged.worker_steals = steals;
            merged.faults = faults.clone();
            merged.seen_peak_bytes = merged.seen_peak_bytes.max(state_bytes as u64);
            merged
        });
        SearchResult {
            upper_bound: self.ub,
            lower_bound,
            exact,
            ordering,
            nodes_expanded: self.nodes,
            elapsed: budget.elapsed(),
            cover_cache,
            stats,
            faults,
        }
    }
}

pub(crate) fn sequential<M: Measure>(m: &M, knobs: Knobs<'_>, budget: &Budget) -> SearchResult {
    let root = match open_root(m, knobs.limits.collect_stats, budget) {
        Ok(root) => root,
        Err(solved) => return *solved,
    };
    let mut dfs = Dfs::new(m, knobs, m.worker(), budget.worker(), root.ub, root.lb);
    let completed = dfs.search(0, root.lb, None);
    let (outcome, _) = dfs.finish(completed);
    Run::gather(root.ub, [outcome]).conclude(m, root, budget, Vec::new(), Vec::new(), 0)
}

/// Reruns the sequential DFS with `ub = width + 1`, stopping at the first
/// improvement: that visits exactly the DFS-first state of width `width`,
/// which is the state whose suffix the sequential search reports last
/// (improvements are strict, so its final improvement is at that same
/// state).
fn witness_search<M: Measure>(
    m: &M,
    knobs: Knobs<'_>,
    budget: &Budget,
    width: usize,
    root_lb: usize,
) -> Outcome {
    let mut dfs = Dfs::new(m, knobs, m.worker(), budget.worker(), width + 1, root_lb);
    dfs.stop_at_first = true;
    let completed = dfs.search(0, root_lb, None);
    dfs.finish(completed).0
}

pub(crate) fn witness<M: Measure>(
    m: &M,
    knobs: Knobs<'_>,
    width: usize,
    budget: &Budget,
) -> (Option<Vec<usize>>, u64) {
    let (root_lb, ub, order) = m.root_bounds();
    let n = m.graph().num_vertices();
    if n <= 1 || width >= ub {
        // the heuristic ordering is what the sequential search emits when
        // it cannot improve on the heuristic
        return (Some(order), 0);
    }
    let o = witness_search(m, knobs, budget, width, root_lb);
    let ordering = (o.found == width).then(|| complete_ordering(n, &o.best_suffix, order));
    (ordering, o.nodes)
}

fn rootsplit<M: Measure>(m: &M, knobs: Knobs<'_>, threads: usize) -> SearchResult {
    let budget = Budget::new(knobs.limits);
    let root = match open_root(m, knobs.limits.collect_stats, &budget) {
        Ok(root) => root,
        Err(solved) => return *solved,
    };
    let (ub, root_lb) = (root.ub, root.lb);
    // root children as the sequential root expansion would enumerate them
    let eg = EliminationGraph::new(m.graph());
    let forced = if knobs.reductions {
        m.reduction(&eg, root_lb)
    } else {
        None
    };
    let mut children: Vec<usize> = match forced {
        Some(v) => vec![v],
        None => eg.alive().to_vec(),
    };
    children.sort_by_key(|&v| eg.degree(v));
    drop(eg);

    let incumbent = AtomicUsize::new(ub);
    let run_task = |&v: &usize| {
        let mut dfs = Dfs::new(m, knobs, m.worker(), budget.worker(), ub, root_lb);
        dfs.shared_ub = Some(&incumbent);
        let completed = dfs.search(0, root_lb, Some(&[v as u32]));
        dfs.finish(completed).0
    };
    let contained = ghd_par::parallel_map_contained(&children, threads, run_task);
    let mut faults = contained.faults;
    // Retry each faulted task once on the caller thread: injected kills are
    // one-shot, so the retry explores the subtree the dead worker dropped
    // and exactness is preserved. A second panic (a genuine, persistent
    // bug) degrades the result soundly instead of aborting.
    let outcomes: Vec<Outcome> = contained
        .results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                match ghd_par::run_contained(ghd_par::RETRY_WORKER, i, || run_task(&children[i])) {
                    Ok(o) => o,
                    Err(second) => {
                        faults.push(second);
                        Outcome::lost(root_lb)
                    }
                }
            })
        })
        .collect();
    faults.sort_by_key(|f| f.task);
    Run::gather(ub, outcomes).conclude(m, root, &budget, faults, Vec::new(), 0)
}

/// Resolves a requested thread count to a worker count the id packing
/// supports (`0` = all cores).
fn steal_workers(requested: usize) -> usize {
    let t = if requested == 0 {
        ghd_par::num_threads()
    } else {
        requested
    };
    t.clamp(1, crate::sharded::MAX_WORKERS)
}

pub(crate) fn work_stealing<M: Measure>(
    mut m: M,
    knobs: Knobs<'_>,
    threads: usize,
) -> SearchResult {
    let budget = Budget::new(knobs.limits);
    let root = match open_root(&m, knobs.limits.collect_stats, &budget) {
        Ok(root) => root,
        Err(solved) => return *solved,
    };
    let (ub, root_lb) = (root.ub, root.lb);
    let workers = steal_workers(threads);
    m.share(workers);
    let m = &m;
    let sched = Scheduler::new(workers);
    let incumbent = AtomicUsize::new(ub);
    // Seed task: the whole tree, id 0 by the slab's creation-order contract
    // (FaultPlan::kill_task(0) must hit exactly this first task).
    let seeded = sched.publish(0, &[], 0, root_lb);
    debug_assert!(seeded, "a fresh deque accepts the seed");

    let ends: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = m
            .workers(workers)
            .into_iter()
            .enumerate()
            .map(|(w, state)| {
                let (sched, budget, incumbent) = (&sched, &budget, &incumbent);
                scope.spawn(move || {
                    let mut dfs = Dfs::new(m, knobs, state, budget.worker(), ub, root_lb);
                    dfs.shared_ub = Some(incumbent);
                    dfs.sched = Some(sched);
                    dfs.worker = w;
                    dfs.steal_depth = knobs.steal.depth.max(1);
                    let mut steals = StealCounters::default();
                    let mut faults = Vec::new();
                    let mut all_ok = true;
                    while let Some(task) = sched.next(w) {
                        steals.executed += 1;
                        if task.stolen {
                            steals.stolen += 1;
                        }
                        if task.retry {
                            steals.retried += 1;
                        }
                        let (prefix, g, f) = (task.prefix, task.g, task.f);
                        match ghd_par::run_contained(w, task.id as usize, || {
                            run_steal_task(&mut dfs, &prefix, g, f)
                        }) {
                            Ok(ok) => {
                                all_ok &= ok;
                                sched.complete(task.id);
                            }
                            Err(fault) => {
                                faults.push(fault);
                                if !sched.fault(task.id) {
                                    // second fault: the subtree is lost —
                                    // its f-bound keeps the result sound
                                    dfs.expiry_floor = dfs.expiry_floor.min(f);
                                    all_ok = false;
                                }
                                // a panic can leave the traversal state
                                // mid-elimination: rebuild it (interned
                                // facts stay valid)
                                dfs.eg = EliminationGraph::new(m.graph());
                                dfs.suffix.clear();
                            }
                        }
                    }
                    steals.published = dfs.published;
                    let (outcome, state) = dfs.finish(all_ok);
                    (outcome, steals, faults, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let (mut outcomes, mut steals, mut faults, mut states) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (outcome, s, f, state) in ends {
        outcomes.push(outcome);
        steals.push(s);
        faults.extend(f);
        states.push(state);
    }
    faults.sort_by_key(|f| f.task);
    debug_assert_eq!(
        sched.published(),
        1 + steals.iter().map(|s| s.published as usize).sum::<usize>(),
        "every slab entry is the seed or a worker publication"
    );

    // Witness reconstruction (see the determinism notes on the public
    // drivers): runs on whatever budget the width phase left; if that
    // expires, the parallel witness (valid, schedule-dependent) is kept.
    let mut run = Run::gather(ub, outcomes);
    if run.completed && run.ub < ub {
        let o = witness_search(m, knobs, &budget, run.ub, root_lb);
        run.nodes += o.nodes;
        if o.found == run.ub {
            run.best_suffix = o.best_suffix;
        }
        run.locals.extend(o.local);
        run.stats.extend(o.stats);
    }
    let state_bytes = m.steal_bytes(states);
    run.conclude(m, root, &budget, faults, steals, state_bytes)
}

/// Computes the treewidth of `g` by branch and bound. Anytime: with limits,
/// returns the best upper bound found, and a lower bound tightened by the
/// minimum f-value of the unexplored frontier (`exact == false` unless
/// proven).
pub fn bb_tw(g: &Graph, cfg: &BbConfig) -> SearchResult {
    let budget = Budget::new(&cfg.limits);
    bb_tw_budgeted(g, cfg, &budget)
}

/// [`bb_tw`] drawing on an externally owned [`Budget`]: the split layer
/// solves many blocks against one shared deadline / node pool / cancel
/// token, so the budget must outlive any single search. `elapsed` in the
/// result is measured from the budget's creation, not this call.
pub fn bb_tw_budgeted(g: &Graph, cfg: &BbConfig, budget: &Budget) -> SearchResult {
    sequential(&cfg.measure(g), cfg.knobs(), budget)
}

/// Reconstructs the canonical sequential witness ordering for a *proven*
/// width: reruns the sequential DFS with `ub = width + 1`, stopping at the
/// first improvement, which visits exactly the DFS-first optimal state
/// whose suffix the sequential search reports last (the determinism idiom
/// of [`bb_tw_parallel`]). The split layer uses this to make divide-and-
/// conquer results bit-identical to the monolithic sequential search.
///
/// Returns the ordering plus the nodes the reconstruction expanded; the
/// ordering is `None` if the budget expired before a witness was found.
pub fn witness_tw(
    g: &Graph,
    width: usize,
    cfg: &BbConfig,
    budget: &Budget,
) -> (Option<Vec<usize>>, u64) {
    witness(&cfg.measure(g), cfg.knobs(), width, budget)
}

/// The one-shot root-split parallel BB-tw, kept as the baseline the
/// work-stealing [`bb_tw_parallel`] is benchmarked against: root elimination
/// choices are fanned out once over up to `threads` workers (`0` = all
/// cores) that share the incumbent upper bound through an atomic **and
/// share one [`Budget`]**. When one root subtree dominates the work — the
/// common case after the reduction rules collapse the root branching — the
/// split serialises; the work-stealing runtime exists precisely for those
/// rows. Exact runs are **width-identical** to [`bb_tw`] (orderings may be
/// different optima).
///
/// **Fault containment:** every root-split task runs `catch_unwind`-wrapped;
/// a panicking worker is recorded as a [`ghd_par::WorkerFault`]
/// (surfaced via [`SearchResult::faults`] / [`SearchStats::faults`]), its
/// unspent budget credits return to the pool, and its task is retried once
/// on the caller thread. A task that panics on the retry too degrades the
/// result soundly (`exact == false`, lower bound falls back to the root
/// heuristic) instead of aborting the process.
pub fn bb_tw_parallel_rootsplit(g: &Graph, cfg: &BbConfig, threads: usize) -> SearchResult {
    rootsplit(&cfg.measure(g), cfg.knobs(), threads)
}

/// Work-stealing parallel BB-tw (`0` threads = all cores).
///
/// Any worker splits off unexplored siblings above the
/// [`StealConfig::depth`] cutoff as stealable subproblems on its own
/// Chase–Lev deque (see [`crate::steal`]); idle workers steal the oldest —
/// largest — published subtree, so all threads stay busy on unbalanced
/// instances where the one-shot root split of [`bb_tw_parallel_rootsplit`]
/// serialises. All workers share the incumbent upper bound (an atomic
/// `fetch_min`) and one [`Budget`]: a `max_nodes` of N expands at most N
/// states in total regardless of the thread count.
///
/// **Determinism:** with enough budget the reported width *and ordering*
/// are bit-identical to [`bb_tw`] for every thread count and any steal
/// schedule. The width is schedule-independent because the search is
/// exhaustive; the ordering is made deterministic by a sequential *witness
/// reconstruction* pass after the parallel width search — rerunning the
/// sequential DFS with `ub = w* + 1` and stopping at the first improvement
/// visits exactly the DFS-first state of width `w*`, which is the state
/// whose suffix the sequential search records last. Budget-expired runs
/// keep the parallel best suffix — still a certified witness, but
/// schedule-dependent.
///
/// **Fault containment:** every task runs `catch_unwind`-wrapped via
/// [`ghd_par::run_contained`]; a faulted task is retried once by its
/// publisher (the thief's victim) and a second fault folds the task's `f`
/// into the expiry floor, degrading the run to a sound anytime result.
/// Stats attribute every counter to the **executing** worker
/// ([`StealCounters`], [`SearchStats::worker_steals`]).
pub fn bb_tw_parallel(g: &Graph, cfg: &BbConfig, threads: usize) -> SearchResult {
    work_stealing(cfg.measure(g), cfg.knobs(), threads)
}

/// Computes the generalized hypertree width of `h` by branch and bound
/// (Fig 8.3). With [`CoverMethod::Exact`] and no limits the result is exact;
/// anytime otherwise — on expiry the lower bound keeps the minimum f-value
/// proven over the unexplored frontier rather than collapsing to the root
/// heuristic.
pub fn bb_ghw(h: &Hypergraph, cfg: &BbGhwConfig) -> SearchResult {
    let budget = Budget::new(&cfg.limits);
    bb_ghw_budgeted(h, cfg, &budget)
}

/// [`bb_ghw`] drawing on an externally owned [`Budget`]: the split layer
/// solves many blocks against one shared deadline / node pool / cancel
/// token, so the budget must outlive any single search. `elapsed` in the
/// result is measured from the budget's creation, not this call.
pub fn bb_ghw_budgeted(h: &Hypergraph, cfg: &BbGhwConfig, budget: &Budget) -> SearchResult {
    sequential(&cfg.measure(h), cfg.knobs(), budget)
}

/// Reconstructs the canonical sequential witness ordering for a *proven*
/// ghw: reruns the sequential DFS with `ub = width + 1`, stopping at the
/// first improvement — the determinism idiom of [`bb_ghw_parallel`],
/// exposed for the split layer so divide-and-conquer results are
/// bit-identical to the monolithic sequential search.
///
/// Returns the ordering plus the nodes the reconstruction expanded; the
/// ordering is `None` if the budget expired before a witness was found.
pub fn witness_ghw(
    h: &Hypergraph,
    width: usize,
    cfg: &BbGhwConfig,
    budget: &Budget,
) -> (Option<Vec<usize>>, u64) {
    witness(&cfg.measure(h), cfg.knobs(), width, budget)
}

/// The one-shot root-split parallel baseline, kept for benchmarking against
/// the work-stealing runtime of [`bb_ghw_parallel`]: the root's elimination
/// choices are split one-shot across up to `threads` workers (`0` = all
/// cores), which share the incumbent upper bound and one [`Budget`] but run
/// strictly sequentially below their root child — an unbalanced subtree
/// serialises the run, which is exactly what work stealing fixes.
///
/// The merged [`SearchResult::cover_cache`] sums the `hits`/`misses`/
/// `evictions` counters and reports the **maximum** `entries` gauge; the
/// per-worker stats are kept verbatim in [`SearchStats::worker_caches`]
/// when telemetry is on.
///
/// **Fault containment:** root-split tasks run `catch_unwind`-wrapped; a
/// panicking worker becomes a [`ghd_par::WorkerFault`] in
/// [`SearchResult::faults`], its budget credits return to the shared pool,
/// and the task is retried once on the caller thread (persistent panics
/// degrade to `exact == false` with the root heuristic as lower bound).
pub fn bb_ghw_parallel_rootsplit(
    h: &Hypergraph,
    cfg: &BbGhwConfig,
    threads: usize,
) -> SearchResult {
    rootsplit(&cfg.measure(h), cfg.knobs(), threads)
}

/// Work-stealing parallel BB-ghw (`0` threads = all cores).
///
/// Any worker splits off unexplored siblings above the
/// [`StealConfig::depth`] cutoff as stealable subproblems on its own
/// Chase–Lev deque (see [`crate::steal`]); idle workers steal the oldest —
/// largest — published subtree, so all threads stay busy on unbalanced
/// instances where the one-shot root split of
/// [`bb_ghw_parallel_rootsplit`] serialises. All workers share the
/// incumbent upper bound (an atomic `fetch_min`), one [`Budget`] (a
/// `max_nodes` of N expands at most N states in total), and one striped
/// concurrent cover store ([`StripedCoverCache`]) holding proven facts
/// only; each worker keeps a private interner shard
/// ([`crate::sharded::ShardedInterner`]) for its greedy memo, so the hot
/// per-node path stays contention-free.
///
/// **Determinism:** with [`CoverMethod::Exact`] and enough budget the
/// reported width *and ordering* are bit-identical to [`bb_ghw`] for every
/// thread count and any steal schedule. The width is schedule-independent
/// because the search is exhaustive; the ordering is made deterministic by
/// a sequential *witness reconstruction* pass after the parallel width
/// search: rerunning the sequential DFS with `ub = w* + 1` and stopping at
/// the first improvement visits exactly the DFS-first state of width `w*`,
/// which is the state whose suffix the sequential search records last
/// (improvements are strict, so its final improvement is at that same
/// state; every bag-cover fact involved is exact, so cached, uncached and
/// striped runs agree bit-for-bit). Budget-expired runs keep the parallel
/// best suffix — still a certified witness, but schedule-dependent.
///
/// **Fault containment:** every task runs `catch_unwind`-wrapped via
/// [`ghd_par::run_contained`]; a faulted task is retried once by its
/// publisher (the thief's victim) and a second fault folds the task's `f`
/// into the expiry floor, degrading the run to a sound anytime result.
/// Stats attribute every counter to the **executing** worker
/// ([`StealCounters`], [`SearchStats::worker_steals`]).
///
/// [`StripedCoverCache`]: ghd_core::setcover::StripedCoverCache
pub fn bb_ghw_parallel(h: &Hypergraph, cfg: &BbGhwConfig, threads: usize) -> SearchResult {
    work_stealing(cfg.measure(h), cfg.knobs(), threads)
}

#[cfg(test)]
mod tests {
    mod tw {
        use super::super::*;
        use ghd_bounds::lower::tw_lower_bound;
        use ghd_core::eval::TwEvaluator;
        use ghd_core::EliminationOrdering;
        use ghd_hypergraph::generators::graphs;

        fn exact_tw(g: &Graph) -> usize {
            let r = bb_tw(g, &BbConfig::default());
            assert!(r.exact, "search did not complete");
            r.upper_bound
        }

        #[test]
        fn treewidth_of_basic_families() {
            assert_eq!(exact_tw(&graphs::path(8)), 1);
            assert_eq!(exact_tw(&graphs::cycle(8)), 2);
            assert_eq!(exact_tw(&graphs::complete(6)), 5);
        }

        #[test]
        fn treewidth_of_grids_matches_table_5_2() {
            for n in 2..=4 {
                assert_eq!(exact_tw(&graphs::grid(n)), n, "grid{n}");
            }
        }

        #[test]
        fn returned_ordering_realises_the_width() {
            let g = graphs::grid(4);
            let r = bb_tw(&g, &BbConfig::default());
            let sigma = EliminationOrdering::new(r.ordering.clone().unwrap()).unwrap();
            let w = TwEvaluator::new(&g).width(&sigma);
            assert_eq!(w, r.upper_bound);
        }

        #[test]
        fn ablations_agree_on_the_optimum() {
            let g = graphs::queen(4); // tw(queen4_4) = 11
            let base = bb_tw(&g, &BbConfig::default());
            for (red, pr2, lb) in [
                (false, true, LbMode::MmwGammaR),
                (true, false, LbMode::MmwGammaR),
                (false, false, LbMode::None),
            ] {
                let cfg = BbConfig {
                    use_reductions: red,
                    use_pr2: pr2,
                    lb_mode: lb,
                    ..BbConfig::default()
                };
                let r = bb_tw(&g, &cfg);
                assert!(r.exact);
                assert_eq!(
                    r.upper_bound, base.upper_bound,
                    "red={red} pr2={pr2} lb={lb:?}"
                );
            }
        }

        #[test]
        fn work_stealing_is_width_and_ordering_identical() {
            for g in [
                graphs::grid(4),
                graphs::queen(4),
                graphs::gnm_random(14, 40, 3),
            ] {
                let seq = bb_tw(&g, &BbConfig::default());
                for threads in [1, 2, 4, 8] {
                    let par = bb_tw_parallel(&g, &BbConfig::default(), threads);
                    assert!(par.exact);
                    assert_eq!(par.upper_bound, seq.upper_bound, "threads {threads}");
                    // witness reconstruction makes the full ordering
                    // schedule-independent, not just the width
                    assert_eq!(par.ordering, seq.ordering, "threads {threads}");
                }
            }
        }

        #[test]
        fn rootsplit_baseline_is_width_identical() {
            for g in [
                graphs::grid(4),
                graphs::queen(4),
                graphs::gnm_random(14, 40, 3),
            ] {
                let seq = bb_tw(&g, &BbConfig::default());
                for threads in [1, 2, 4] {
                    let par = bb_tw_parallel_rootsplit(&g, &BbConfig::default(), threads);
                    assert!(par.exact);
                    assert_eq!(par.upper_bound, seq.upper_bound, "threads {threads}");
                    let sigma = EliminationOrdering::new(par.ordering.unwrap()).unwrap();
                    let w = TwEvaluator::new(&g).width(&sigma);
                    assert_eq!(w, par.upper_bound, "threads {threads}");
                }
            }
        }

        #[test]
        fn anytime_mode_returns_bounds() {
            let g = graphs::queen(5);
            let r = bb_tw(
                &g,
                &BbConfig {
                    limits: SearchLimits::with_nodes(200),
                    ..BbConfig::default()
                },
            );
            assert!(r.lower_bound <= r.upper_bound);
            assert!(r.upper_bound <= 25);
            assert!(
                r.nodes_expanded <= 200,
                "budget overrun: {}",
                r.nodes_expanded
            );
        }

        #[test]
        fn expiry_floor_never_undercuts_the_root_bound() {
            // the anytime lower bound after expiry dominates the root heuristic
            let g = graphs::queen(5);
            let root_lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(&g, None);
            for nodes in [50, 500, 5000] {
                let r = bb_tw(
                    &g,
                    &BbConfig {
                        limits: SearchLimits::with_nodes(nodes),
                        ..BbConfig::default()
                    },
                );
                assert!(r.lower_bound >= root_lb, "nodes={nodes}");
                assert!(r.lower_bound <= r.upper_bound, "nodes={nodes}");
            }
        }

        #[test]
        fn stats_collection_is_behaviourally_free() {
            for g in [graphs::grid(4), graphs::queen(4)] {
                for limits in [SearchLimits::unlimited(), SearchLimits::with_nodes(300)] {
                    let off = bb_tw(
                        &g,
                        &BbConfig {
                            limits: limits.clone(),
                            ..BbConfig::default()
                        },
                    );
                    let on = bb_tw(
                        &g,
                        &BbConfig {
                            limits: limits.stats(true),
                            ..BbConfig::default()
                        },
                    );
                    assert_eq!(on.upper_bound, off.upper_bound);
                    assert_eq!(on.lower_bound, off.lower_bound);
                    assert_eq!(on.ordering, off.ordering);
                    assert_eq!(on.nodes_expanded, off.nodes_expanded);
                    assert!(off.stats.is_none());
                    let stats = on.stats.expect("stats requested");
                    assert!(!stats.incumbents.is_empty());
                }
            }
        }

        #[test]
        fn singleton_and_empty_edge_graphs() {
            assert_eq!(exact_tw(&Graph::new(1)), 0);
            assert_eq!(exact_tw(&Graph::new(5)), 0);
        }
    }

    mod ghw {
        use super::super::*;
        use ghd_core::bucket::ghd_from_ordering;
        use ghd_core::EliminationOrdering;
        use ghd_hypergraph::generators::hypergraphs;

        fn exact_ghw(h: &Hypergraph) -> usize {
            let r = bb_ghw(h, &BbGhwConfig::default());
            assert!(r.exact, "BB-ghw did not complete");
            r.upper_bound
        }

        #[test]
        fn acyclic_hypergraphs_have_ghw_1() {
            let h = hypergraphs::acyclic_chain(5, 3, 1);
            assert_eq!(exact_ghw(&h), 1);
        }

        #[test]
        fn clique_hypergraph_ghw_is_ceil_half() {
            for n in [4, 5, 6] {
                let h = hypergraphs::clique(n);
                assert_eq!(exact_ghw(&h), n.div_ceil(2), "clique_{n}");
            }
        }

        #[test]
        fn fig_2_11_hypergraph_has_ghw_2() {
            // Example 5: a cyclic join of three ternary edges; ghw = 2
            // (not acyclic, so > 1; Fig 2.7 exhibits width 2).
            let h = Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
            assert_eq!(exact_ghw(&h), 2);
        }

        #[test]
        fn small_adder_ghw_is_at_most_2() {
            let h = hypergraphs::adder(4);
            let w = exact_ghw(&h);
            assert!((1..=2).contains(&w), "adder ghw = {w}");
        }

        #[test]
        fn returned_ordering_realises_the_width() {
            let h = hypergraphs::clique(6);
            let r = bb_ghw(&h, &BbGhwConfig::default());
            let sigma = EliminationOrdering::new(r.ordering.clone().unwrap()).unwrap();
            let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
            ghd.verify(&h).unwrap();
            assert_eq!(ghd.width(), r.upper_bound);
        }

        #[test]
        fn ablations_agree_on_optimum() {
            for seed in 0..5u64 {
                let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
                let base = exact_ghw(&h);
                for (red, pr2) in [(false, true), (true, false), (false, false)] {
                    let cfg = BbGhwConfig {
                        use_reductions: red,
                        use_pr2: pr2,
                        ..BbGhwConfig::default()
                    };
                    let r = bb_ghw(&h, &cfg);
                    assert!(r.exact);
                    assert_eq!(r.upper_bound, base, "seed {seed} red={red} pr2={pr2}");
                }
            }
        }

        #[test]
        fn greedy_cover_mode_upper_bounds_exact() {
            for seed in 0..5u64 {
                let h = hypergraphs::random_hypergraph(12, 8, 4, seed);
                let exact = exact_ghw(&h);
                let r = bb_ghw(
                    &h,
                    &BbGhwConfig {
                        cover: CoverMethod::Greedy,
                        ..BbGhwConfig::default()
                    },
                );
                assert!(r.upper_bound >= exact, "seed {seed}");
            }
        }

        #[test]
        fn work_stealing_is_width_and_ordering_identical() {
            for seed in 0..5u64 {
                let h = hypergraphs::random_hypergraph(11, 7, 3, seed);
                let seq = bb_ghw(&h, &BbGhwConfig::default());
                for threads in [1, 2, 4, 8] {
                    let par = bb_ghw_parallel(&h, &BbGhwConfig::default(), threads);
                    assert!(par.exact, "seed {seed} threads {threads}");
                    assert_eq!(
                        par.upper_bound, seq.upper_bound,
                        "seed {seed} threads {threads}"
                    );
                    // witness reconstruction makes the full ordering
                    // schedule-independent, not just the width
                    assert_eq!(par.ordering, seq.ordering, "seed {seed} threads {threads}");
                }
            }
        }

        #[test]
        fn rootsplit_baseline_is_width_identical() {
            for seed in 0..3u64 {
                let h = hypergraphs::random_hypergraph(11, 7, 3, seed);
                let seq = bb_ghw(&h, &BbGhwConfig::default());
                for threads in [1, 2, 4] {
                    let par = bb_ghw_parallel_rootsplit(&h, &BbGhwConfig::default(), threads);
                    assert!(par.exact, "seed {seed} threads {threads}");
                    assert_eq!(
                        par.upper_bound, seq.upper_bound,
                        "seed {seed} threads {threads}"
                    );
                    // the root-split ordering is schedule-dependent but must
                    // still be a genuine witness
                    let sigma = EliminationOrdering::new(par.ordering.unwrap()).unwrap();
                    let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
                    ghd.verify(&h).unwrap();
                    assert_eq!(
                        ghd.width(),
                        par.upper_bound,
                        "seed {seed} threads {threads}"
                    );
                }
            }
        }

        #[test]
        fn cover_cache_reports_hits_and_does_not_change_widths() {
            for seed in 0..4u64 {
                let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
                let with = bb_ghw(&h, &BbGhwConfig::default());
                let without = bb_ghw(
                    &h,
                    &BbGhwConfig {
                        use_cover_cache: false,
                        ..BbGhwConfig::default()
                    },
                );
                assert_eq!(with.upper_bound, without.upper_bound, "seed {seed}");
                assert_eq!(with.exact, without.exact, "seed {seed}");
                assert_eq!(with.ordering, without.ordering, "seed {seed}");
                assert_eq!(with.nodes_expanded, without.nodes_expanded, "seed {seed}");
                assert!(without.cover_cache.is_none());
                if with.nodes_expanded > 0 {
                    let stats = with.cover_cache.expect("cache enabled by default");
                    assert!(stats.misses > 0, "seed {seed}: {stats:?}");
                }
            }
        }

        /// Regression test for double-counting under work stealing: every
        /// cache query must be attributed to exactly one executing worker, so
        /// the merged counters equal the sum over `worker_caches` exactly. A
        /// per-*task* snapshot of the counters (the natural bug: a stolen
        /// task's queries reported by both thief and victim) breaks this
        /// identity by counting stolen tasks' traffic twice.
        #[test]
        fn parallel_cache_merge_attributes_each_query_exactly_once() {
            let h = hypergraphs::grid2d(5);
            let r = bb_ghw_parallel(
                &h,
                &BbGhwConfig {
                    limits: SearchLimits::unlimited().stats(true),
                    ..BbGhwConfig::default()
                },
                4,
            );
            let merged = r.cover_cache.expect("cache enabled by default");
            let stats = r.stats.expect("stats requested");
            let workers = &stats.worker_caches;
            assert!(!workers.is_empty());
            assert_eq!(merged.hits, workers.iter().map(|c| c.hits).sum::<u64>());
            assert_eq!(merged.misses, workers.iter().map(|c| c.misses).sum::<u64>());
            // stripe-store evictions have no single owning worker, so merged
            // can only exceed the per-worker (local memo) sum
            assert!(merged.evictions >= workers.iter().map(|c| c.evictions).sum::<u64>());
            // the entries gauge covers at least the largest single store
            assert!(merged.entries >= workers.iter().map(|c| c.entries).max().unwrap());
            // steal accounting: every published task runs exactly once, plus
            // the seed task, and counters belong to the executing worker
            let steals = &stats.worker_steals;
            assert!(!steals.is_empty());
            let published: u64 = steals.iter().map(|s| s.published).sum();
            let executed: u64 = steals.iter().map(|s| s.executed).sum();
            assert_eq!(executed, published + 1, "seed + each publication once");
            assert_eq!(steals.iter().map(|s| s.retried).sum::<u64>(), 0);
        }

        #[test]
        fn anytime_mode_reports_consistent_bounds() {
            let h = hypergraphs::grid2d(6);
            let r = bb_ghw(
                &h,
                &BbGhwConfig {
                    limits: SearchLimits::with_nodes(100),
                    ..BbGhwConfig::default()
                },
            );
            assert!(r.lower_bound <= r.upper_bound);
            assert!(
                r.nodes_expanded <= 100,
                "budget overrun: {}",
                r.nodes_expanded
            );
        }

        #[test]
        fn stats_collection_is_behaviourally_free() {
            for seed in 0..3u64 {
                let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
                for limits in [SearchLimits::unlimited(), SearchLimits::with_nodes(200)] {
                    let off = bb_ghw(
                        &h,
                        &BbGhwConfig {
                            limits: limits.clone(),
                            ..BbGhwConfig::default()
                        },
                    );
                    let on = bb_ghw(
                        &h,
                        &BbGhwConfig {
                            limits: limits.stats(true),
                            ..BbGhwConfig::default()
                        },
                    );
                    assert_eq!(on.upper_bound, off.upper_bound, "seed {seed}");
                    assert_eq!(on.lower_bound, off.lower_bound, "seed {seed}");
                    assert_eq!(on.ordering, off.ordering, "seed {seed}");
                    assert_eq!(on.nodes_expanded, off.nodes_expanded, "seed {seed}");
                    assert!(off.stats.is_none());
                    let stats = on.stats.expect("stats requested");
                    assert!(!stats.incumbents.is_empty(), "seed {seed}");
                }
            }
        }
    }
}
