//! Branch and bound for treewidth (§4.4.1) — the baseline exact algorithm
//! in the style of QuickBB \[24\] / BB-tw \[5\], searching the elimination-
//! ordering tree depth-first with reductions, PR1 and PR2.

use crate::common::{
    anytime_lb, complete_ordering, Budget, IncumbentSample, SearchLimits, SearchResult,
    SearchStats, StealCounters, Telemetry, Ticker,
};
use crate::rules::{child_successors, find_reduction_tw, swappable_tw};
use crate::steal::{Scheduler, StealConfig};
use ghd_bounds::lower::{minor_min_width_elim, tw_lower_bound, tw_lower_bound_elim, LbScratch};
use ghd_bounds::upper::tw_upper_bound;
use ghd_hypergraph::{EliminationGraph, Graph};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-node lower bound heuristic selection (for the ablation benches).
///
/// `Mmw` and `MmwGammaR` give the same value at every non-root node: the
/// residual there has a dead (isolated) vertex, and with deterministic
/// tie-breaks minor-γ_R equals minor-min-width on any graph with an
/// isolated vertex (see DESIGN.md). They can differ only at the root.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LbMode {
    /// No per-node bound (PR1 and the incumbent still prune).
    None,
    /// minor-min-width only (QuickBB's choice).
    Mmw,
    /// max(minor-min-width, minor-γ_R) (the thesis' A\*-tw choice).
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

struct Dfs<'a> {
    eg: EliminationGraph,
    cfg: &'a BbConfig,
    ticker: Ticker<'a>,
    ub: usize,
    /// Elimination order (first-eliminated first) realising `ub`; completed
    /// to a full ordering lazily.
    best_suffix: Vec<usize>,
    suffix: Vec<usize>,
    root_lb: usize,
    /// Incumbent shared between root-split workers (`None` sequentially).
    shared_ub: Option<&'a AtomicUsize>,
    /// Best width this search proved itself (`usize::MAX` until then).
    found: usize,
    /// Minimum f-value over the *open frontier* left behind when the budget
    /// expired (`usize::MAX` while none). Every node of the search tree that
    /// was neither closed nor f-pruned has f at least this, so
    /// `min(ub, expiry_floor)` is a sound anytime lower bound — f is a true
    /// lower bound on any completion through a node and is monotone along
    /// root-to-leaf paths.
    expiry_floor: usize,
    /// Reusable buffers for the per-node lower bound heuristics.
    lb_scratch: LbScratch,
    /// Telemetry collector (no-op unless `limits.collect_stats`).
    telemetry: Telemetry,
    /// Work-stealing scheduler (`None` sequentially).
    sched: Option<&'a Scheduler>,
    /// This worker's index in the scheduler.
    worker: usize,
    /// Publish children as tasks while `eg.depth()` is at most this.
    steal_depth: usize,
    /// Tasks this worker published.
    published: u64,
    /// Stop after the first incumbent improvement (witness reconstruction).
    stop_at_first: bool,
    stopped: bool,
}

impl<'a> Dfs<'a> {
    /// A sequential-defaults search state; parallel callers override the
    /// sharing fields afterwards.
    fn new(g: &Graph, cfg: &'a BbConfig, ticker: Ticker<'a>, ub: usize, root_lb: usize) -> Self {
        Dfs {
            eg: EliminationGraph::new(g),
            cfg,
            ticker,
            ub,
            best_suffix: Vec::new(),
            suffix: Vec::new(),
            root_lb,
            shared_ub: None,
            found: usize::MAX,
            expiry_floor: usize::MAX,
            lb_scratch: LbScratch::new(),
            telemetry: Telemetry::new(cfg.limits.collect_stats),
            sched: None,
            worker: 0,
            steal_depth: 0,
            published: 0,
            stop_at_first: false,
            stopped: false,
        }
    }

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
            let (elapsed, lb) = (self.ticker.elapsed(), self.root_lb);
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

    fn node_lb(&mut self) -> usize {
        // the `_elim` variants compute the same values as running the bound
        // on `self.eg.to_graph()` but reuse the scratch buffers
        match self.cfg.lb_mode {
            LbMode::None => 0,
            LbMode::Mmw => minor_min_width_elim(&self.eg, &mut self.lb_scratch),
            LbMode::MmwGammaR => tw_lower_bound_elim(&self.eg, &mut self.lb_scratch),
        }
    }

    /// Depth-first search below the current state. `g` is the width of the
    /// partial ordering, `f` the inherited bound, `allowed` the PR2-filtered
    /// candidate set (`None` = all alive). Returns `false` when the budget
    /// expired (result no longer guaranteed exact).
    fn search(&mut self, g: usize, f: usize, allowed: Option<&[u32]>) -> bool {
        if !self.ticker.tick() {
            // this node stays open: its f joins the expiry floor
            self.expiry_floor = self.expiry_floor.min(f);
            return false;
        }
        if let Some(s) = self.shared_ub {
            self.ub = self.ub.min(s.load(Ordering::Relaxed));
        }
        let n_alive = self.eg.num_alive();
        // PR1 (§4.4.5): completing in any order yields width ≤ max(g, n'−1).
        let w = g.max(n_alive.saturating_sub(1));
        if w < self.ub {
            self.improve(w);
            if self.stopped {
                return true;
            }
        }
        if n_alive <= g + 1 {
            self.telemetry.prune(|p| p.pr1_closures += 1);
            return true; // subtree solved optimally at width g
        }

        // child candidates: reduction rule first, then PR2 filter
        let forced = if self.cfg.use_reductions {
            find_reduction_tw(&self.eg, f)
        } else {
            None
        };
        if forced.is_some() {
            self.telemetry.prune(|p| p.simplicial += 1);
        }
        let children: Vec<usize> = match forced {
            Some(v) => vec![v],
            None => match allowed {
                Some(set) => {
                    if self.telemetry.on() {
                        let cut = n_alive.saturating_sub(set.len()) as u64;
                        self.telemetry.prune(|p| p.pr2_filtered += cut);
                    }
                    set.iter().map(|&v| v as usize).collect()
                }
                None => self.eg.alive().to_vec(),
            },
        };
        // explore low-degree vertices first: finds good orderings earlier
        let mut children = children;
        children.sort_by_key(|&v| self.eg.degree(v));

        let last = children.len();
        for (i, &v) in children.iter().enumerate() {
            let child_g = g.max(self.eg.degree(v));
            // grandchild PR2 filter must look at the *current* graph; a
            // child that its own degree already prunes never uses it
            let grandchildren = if self.cfg.use_pr2 && forced.is_none() && child_g.max(f) < self.ub
            {
                Some(child_successors(&self.eg, v, Some(swappable_tw)))
            } else {
                None
            };
            self.eg.eliminate(v);
            self.suffix.push(v);
            let mut child_f = child_g.max(f);
            if child_f < self.ub {
                // h only matters if g alone does not already prune
                child_f = child_f.max(self.node_lb()).max(f);
            }
            let ok = if child_f < self.ub {
                if self.can_publish() && self.publish_child(child_g, child_f) {
                    true // another worker (or this one, later) searches it
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
}

/// Executes one stealable task on `dfs`: replays the elimination prefix,
/// reconstructs the PR2 filter the inline expansion would have used at the
/// last prefix vertex, and searches the subtree (republishing children still
/// above the cutoff).
fn run_steal_task(dfs: &mut Dfs<'_>, prefix: &[u32], g: usize, f: usize) -> bool {
    if let Some(s) = dfs.shared_ub {
        dfs.ub = dfs.ub.min(s.load(Ordering::Relaxed));
    }
    if f >= dfs.ub {
        // the subtree cannot beat the incumbent any more
        dfs.telemetry.prune(|p| p.f_prunes += 1);
        return true;
    }
    debug_assert_eq!(dfs.eg.depth(), 0, "worker state fully restored between tasks");
    if prefix.is_empty() {
        // the seed task: the root expansion itself
        return dfs.search(g, f, None);
    }
    for &u in &prefix[..prefix.len() - 1] {
        dfs.eg.eliminate(u as usize);
        dfs.suffix.push(u as usize);
    }
    let v = *prefix.last().unwrap() as usize;
    let forced = if dfs.cfg.use_reductions {
        find_reduction_tw(&dfs.eg, f)
    } else {
        None
    };
    let grandchildren = if dfs.cfg.use_pr2 && forced.is_none() {
        Some(child_successors(&dfs.eg, v, Some(swappable_tw)))
    } else {
        None
    };
    dfs.eg.eliminate(v);
    dfs.suffix.push(v);
    let ok = dfs.search(g, f, grandchildren.as_deref());
    for _ in 0..prefix.len() {
        dfs.suffix.pop();
        dfs.eg.restore();
    }
    ok
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
    let n = g.num_vertices();
    let root_lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(g, None);
    let (ub, ub_order) = tw_upper_bound::<ghd_prng::rngs::StdRng>(g, None);
    let mut telemetry = Telemetry::new(cfg.limits.collect_stats);
    telemetry.sample(budget.elapsed(), ub, root_lb.min(ub));
    if root_lb >= ub || n <= 1 {
        return SearchResult {
            upper_bound: ub,
            lower_bound: ub,
            exact: true,
            ordering: Some(ub_order.into_vec()),
            nodes_expanded: 0,
            elapsed: budget.elapsed(),
            cover_cache: None,
            stats: telemetry.finish(),
            faults: Vec::new(),
        };
    }
    let mut dfs = Dfs::new(g, cfg, budget.worker(), ub, root_lb);
    dfs.telemetry = telemetry;
    let completed = dfs.search(0, root_lb, None);
    let ordering = Some(complete_ordering(n, &dfs.best_suffix, ub_order.into_vec()));
    let exact = completed;
    let lower_bound = if exact {
        dfs.ub
    } else {
        anytime_lb(dfs.root_lb, dfs.expiry_floor, dfs.ub)
    };
    let mut telemetry = dfs.telemetry;
    telemetry.sample(budget.elapsed(), dfs.ub, lower_bound);
    SearchResult {
        upper_bound: dfs.ub,
        lower_bound,
        exact,
        ordering,
        nodes_expanded: dfs.ticker.nodes(),
        elapsed: budget.elapsed(),
        cover_cache: None,
        stats: telemetry.finish(),
        faults: Vec::new(),
    }
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
    let n = g.num_vertices();
    let root_lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(g, None);
    let (ub, ub_order) = tw_upper_bound::<ghd_prng::rngs::StdRng>(g, None);
    if n <= 1 || width >= ub {
        // the heuristic ordering is what the sequential search emits when
        // it cannot improve on the heuristic
        return (Some(ub_order.into_vec()), 0);
    }
    let mut dfs = Dfs::new(g, cfg, budget.worker(), width + 1, root_lb);
    dfs.stop_at_first = true;
    dfs.search(0, root_lb, None);
    let nodes = dfs.ticker.nodes();
    if dfs.found == width {
        (
            Some(complete_ordering(n, &dfs.best_suffix, ub_order.into_vec())),
            nodes,
        )
    } else {
        (None, nodes)
    }
}

/// The PR 4 one-shot root-split parallel BB-tw, kept as the baseline the
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
    let n = g.num_vertices();
    let budget = Budget::new(&cfg.limits);
    let root_lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(g, None);
    let (ub, ub_order) = tw_upper_bound::<ghd_prng::rngs::StdRng>(g, None);
    let mut root_tel = Telemetry::new(cfg.limits.collect_stats);
    root_tel.sample(budget.elapsed(), ub, root_lb.min(ub));
    if root_lb >= ub || n <= 1 {
        return SearchResult {
            upper_bound: ub,
            lower_bound: ub,
            exact: true,
            ordering: Some(ub_order.into_vec()),
            nodes_expanded: 0,
            elapsed: budget.elapsed(),
            cover_cache: None,
            stats: root_tel.finish(),
            faults: Vec::new(),
        };
    }
    // root children as the sequential root expansion would enumerate them
    let eg = EliminationGraph::new(g);
    let forced = if cfg.use_reductions {
        find_reduction_tw(&eg, root_lb)
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
        let mut dfs = Dfs::new(g, cfg, budget.worker(), ub, root_lb);
        dfs.shared_ub = Some(&incumbent);
        let completed = dfs.search(0, root_lb, Some(&[v as u32]));
        (
            completed,
            dfs.found,
            dfs.best_suffix,
            dfs.ticker.nodes(),
            dfs.expiry_floor,
            dfs.telemetry.finish(),
        )
    };
    let contained = ghd_par::parallel_map_contained(&children, threads, run_task);
    let mut faults = contained.faults;
    // Retry each faulted task once on the caller thread: injected kills are
    // one-shot, so the retry explores the subtree the dead worker dropped
    // and exactness is preserved. A second panic (a genuine, persistent
    // bug) degrades the result soundly instead of aborting.
    let outcomes: Vec<_> = contained
        .results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                match ghd_par::run_contained(ghd_par::RETRY_WORKER, i, || run_task(&children[i])) {
                    Ok(o) => o,
                    Err(second) => {
                        faults.push(second);
                        (false, usize::MAX, Vec::new(), 0, root_lb, None)
                    }
                }
            })
        })
        .collect();
    faults.sort_by_key(|f| f.task);

    let mut best_ub = ub;
    let mut best_suffix: Vec<usize> = Vec::new();
    let mut nodes = 0u64;
    let mut completed = true;
    let mut expiry_floor = usize::MAX;
    let mut worker_stats: Vec<SearchStats> = Vec::new();
    for (ok, found, suffix, worker_nodes, floor, stats) in outcomes {
        if found < best_ub {
            best_ub = found;
            best_suffix = suffix;
        }
        nodes += worker_nodes;
        completed &= ok;
        expiry_floor = expiry_floor.min(floor);
        worker_stats.extend(stats);
    }
    let ordering = Some(complete_ordering(n, &best_suffix, ub_order.into_vec()));
    let lower_bound = if completed {
        best_ub
    } else {
        anytime_lb(root_lb, expiry_floor, best_ub)
    };
    let stats = root_tel.finish().map(|root| {
        let mut merged = SearchStats::merge(std::iter::once(root).chain(worker_stats));
        merged.incumbents.push(IncumbentSample {
            elapsed: budget.elapsed(),
            upper_bound: best_ub,
            lower_bound,
        });
        merged.faults = faults.clone();
        merged
    });
    SearchResult {
        upper_bound: best_ub,
        lower_bound,
        exact: completed,
        ordering,
        nodes_expanded: nodes,
        elapsed: budget.elapsed(),
        cover_cache: None,
        stats,
        faults,
    }
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
    let n = g.num_vertices();
    let budget = Budget::new(&cfg.limits);
    let root_lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(g, None);
    let (ub, ub_order) = tw_upper_bound::<ghd_prng::rngs::StdRng>(g, None);
    let mut root_tel = Telemetry::new(cfg.limits.collect_stats);
    root_tel.sample(budget.elapsed(), ub, root_lb.min(ub));
    if root_lb >= ub || n <= 1 {
        return SearchResult {
            upper_bound: ub,
            lower_bound: ub,
            exact: true,
            ordering: Some(ub_order.into_vec()),
            nodes_expanded: 0,
            elapsed: budget.elapsed(),
            cover_cache: None,
            stats: root_tel.finish(),
            faults: Vec::new(),
        };
    }
    let workers = crate::bb_ghw::steal_workers(threads);
    let sched = Scheduler::new(workers);
    let incumbent = AtomicUsize::new(ub);
    // Seed task: the whole tree, id 0 by the slab's creation-order contract
    // (FaultPlan::kill_task(0) must hit exactly this first task).
    let seeded = sched.publish(0, &[], 0, root_lb);
    debug_assert!(seeded, "a fresh deque accepts the seed");

    struct WorkerOutcome {
        all_ok: bool,
        found: usize,
        best_suffix: Vec<usize>,
        nodes: u64,
        expiry_floor: usize,
        steals: StealCounters,
        stats: Option<SearchStats>,
        faults: Vec<ghd_par::WorkerFault>,
    }

    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (sched, budget, incumbent) = (&sched, &budget, &incumbent);
                scope.spawn(move || {
                    let mut dfs = Dfs::new(g, cfg, budget.worker(), ub, root_lb);
                    dfs.shared_ub = Some(incumbent);
                    dfs.sched = Some(sched);
                    dfs.worker = w;
                    dfs.steal_depth = cfg.steal.depth.max(1);
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
                        let (prefix, g_cost, f) = (task.prefix, task.g, task.f);
                        match ghd_par::run_contained(w, task.id as usize, || {
                            run_steal_task(&mut dfs, &prefix, g_cost, f)
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
                                // mid-elimination: rebuild it
                                dfs.eg = EliminationGraph::new(g);
                                dfs.suffix.clear();
                            }
                        }
                    }
                    steals.published = dfs.published;
                    WorkerOutcome {
                        all_ok,
                        found: dfs.found,
                        best_suffix: std::mem::take(&mut dfs.best_suffix),
                        nodes: dfs.ticker.nodes(),
                        expiry_floor: dfs.expiry_floor,
                        steals,
                        stats: dfs.telemetry.finish(),
                        faults,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut faults = Vec::new();
    let mut best_ub = ub;
    let mut best_suffix: Vec<usize> = Vec::new();
    let mut nodes = 0u64;
    let mut completed = true;
    let mut expiry_floor = usize::MAX;
    let mut steals_all: Vec<StealCounters> = Vec::new();
    let mut worker_stats: Vec<SearchStats> = Vec::new();
    for o in outcomes {
        if o.found < best_ub {
            best_ub = o.found;
            best_suffix = o.best_suffix;
        }
        nodes += o.nodes;
        completed &= o.all_ok;
        expiry_floor = expiry_floor.min(o.expiry_floor);
        steals_all.push(o.steals);
        worker_stats.extend(o.stats);
        faults.extend(o.faults);
    }
    faults.sort_by_key(|f| f.task);
    debug_assert_eq!(
        sched.published(),
        1 + steals_all.iter().map(|s| s.published as usize).sum::<usize>(),
        "every slab entry is the seed or a worker publication"
    );

    // Witness reconstruction (see the determinism notes above): a
    // sequential DFS with ub = w* + 1 stopping at its first improvement
    // reproduces the exact suffix the sequential search reports. Runs on
    // whatever budget the width phase left; if that expires, the parallel
    // witness (valid, schedule-dependent) is kept.
    if completed && best_ub < ub {
        let mut dfs = Dfs::new(g, cfg, budget.worker(), best_ub + 1, root_lb);
        dfs.stop_at_first = true;
        dfs.search(0, root_lb, None);
        nodes += dfs.ticker.nodes();
        if dfs.found == best_ub {
            best_suffix = std::mem::take(&mut dfs.best_suffix);
        }
        worker_stats.extend(dfs.telemetry.finish());
    }

    let ordering = Some(complete_ordering(n, &best_suffix, ub_order.into_vec()));
    let lower_bound = if completed {
        best_ub
    } else {
        anytime_lb(root_lb, expiry_floor, best_ub)
    };
    let stats = root_tel.finish().map(|root| {
        let mut merged = SearchStats::merge(std::iter::once(root).chain(worker_stats));
        merged.incumbents.push(IncumbentSample {
            elapsed: budget.elapsed(),
            upper_bound: best_ub,
            lower_bound,
        });
        merged.worker_steals = steals_all;
        merged.faults = faults.clone();
        merged
    });
    SearchResult {
        upper_bound: best_ub,
        lower_bound,
        exact: completed,
        ordering,
        nodes_expanded: nodes,
        elapsed: budget.elapsed(),
        cover_cache: None,
        stats,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            (true, false, LbMode::Mmw),
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
            assert_eq!(r.upper_bound, base.upper_bound, "red={red} pr2={pr2} lb={lb:?}");
        }
    }

    #[test]
    fn work_stealing_is_width_and_ordering_identical() {
        for g in [graphs::grid(4), graphs::queen(4), graphs::gnm_random(14, 40, 3)] {
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
        for g in [graphs::grid(4), graphs::queen(4), graphs::gnm_random(14, 40, 3)] {
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
        assert!(r.nodes_expanded <= 200, "budget overrun: {}", r.nodes_expanded);
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
                let off = bb_tw(&g, &BbConfig { limits: limits.clone(), ..BbConfig::default() });
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
