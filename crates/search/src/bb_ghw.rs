//! Algorithm BB-ghw (Chapter 8, Fig 8.3): branch and bound over elimination
//! orderings for the generalized hypertree width, justified by Theorem 3
//! (some ordering attains `ghw` under exact set covering).
//!
//! Per state the cost is the largest *exact* set cover of a bucket bag so
//! far; the heuristic is tw-ksc-width (Fig 8.1) on the residual graph; the
//! reductions of §8.2 (simplicial vertices) and the GHW-safe part of pruning
//! rule 2 (§8.3, non-adjacent swaps) shrink the tree, and the GHW analogue
//! of PR1 closes subtrees whose residual vertex set is already coverable
//! within the current cost.

use crate::common::{
    anytime_lb, complete_ordering, Budget, IncumbentSample, SearchLimits, SearchResult,
    SearchStats, StealCounters, Telemetry, Ticker,
};
use crate::interner::StateInterner;
use crate::rules::{child_successors, find_simplicial, swappable_ghw};
use crate::sharded::ShardedInterner;
use crate::steal::{Scheduler, StealConfig};
use ghd_bounds::ksc::KscTable;
use ghd_bounds::lower::{tw_lower_bound_elim, LbScratch};
use ghd_bounds::upper::ghw_upper_bound;
use ghd_core::setcover::{
    exact_cover_size_capped, greedy_cover_size, CacheStats, CoverCache, CoverMethod,
    StripedCoverCache,
};
use ghd_hypergraph::{BitSet, EliminationGraph, Graph, Hypergraph};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Residual lower bound: treewidth bound on the current graph lifted through
/// the k-set-cover bound (Fig 8.1). Computes the same value as
/// `tw_ksc_width(h, &eg.to_graph(), tw_lower_bound(&eg.to_graph(), None))`
/// without materialising the residual graph: the treewidth bound runs
/// directly on the elimination graph through `scratch`, and the k-set-cover
/// answer comes from the precomputed prefix-sum table.
pub(crate) fn residual_ghw_lb(
    eg: &EliminationGraph,
    scratch: &mut LbScratch,
    ksc: &KscTable,
) -> usize {
    if eg.num_alive() == 0 {
        return 0;
    }
    let tw_lb = tw_lower_bound_elim(eg, scratch);
    ksc.bound(tw_lb + 1)
}

/// Interns `key` into the worker's shard; `None` (with the sticky overflow
/// flag raised) when the shard's id space is exhausted. Free function so it
/// can borrow the interner while the caller holds `&mut` to the cache.
fn try_intern_key(
    interner: &mut Option<StateInterner>,
    overflow: &mut bool,
    key: &[u64],
) -> Option<u32> {
    match interner
        .as_mut()
        .expect("interner accompanies the cache")
        .try_intern(key)
    {
        Some((id, _)) => Some(id),
        None => {
            *overflow = true;
            None
        }
    }
}

struct Dfs<'a> {
    h: &'a Hypergraph,
    covered: BitSet,
    eg: EliminationGraph,
    cfg: &'a BbGhwConfig,
    ticker: Ticker<'a>,
    ub: usize,
    best_suffix: Vec<usize>,
    suffix: Vec<usize>,
    root_lb: usize,
    bag_scratch: BitSet,
    /// Scratch for the goal-test target (`alive ∩ covered`).
    target_scratch: BitSet,
    /// Reusable buffers for the residual treewidth lower bound.
    lb_scratch: LbScratch,
    /// Prefix-sum table answering k-set-cover queries for `h`.
    ksc: &'a KscTable,
    /// Set when a capped cover exhausted its budget: the result may no
    /// longer be proven optimal.
    degraded: bool,
    /// Set when the interner shard refused a fresh key because its
    /// worker-local id space (`2^LOCAL_BITS` states, shrinkable in tests)
    /// is exhausted. A checked condition in every build mode: instead of
    /// wrapping ids into another worker's range, this worker folds its
    /// remaining work into the expiry floor — exactly like a second fault —
    /// so bounds stay sound and `exact` is withdrawn.
    interner_overflow: bool,
    /// Transposition cache for per-bag covers (None = disabled).
    cache: Option<CoverCache>,
    /// Hash-consed canonical ids for the cache's target bitsets; present iff
    /// `cache` is. Keys route the cache onto its dense array store, so the
    /// interner and the cache share one canonical copy of each target.
    interner: Option<StateInterner>,
    /// Incumbent upper bound shared between root-split workers. `None` in
    /// sequential mode. Improvements are published with `fetch_min`; every
    /// expansion syncs `self.ub` down to the global value, so one worker's
    /// discovery prunes all the others.
    shared_ub: Option<&'a AtomicUsize>,
    /// Best width *this* search proved with a concrete suffix (`usize::MAX`
    /// until the first improvement). Distinguishes "I found it" from "a
    /// sibling worker's bound tightened my `ub`".
    found: usize,
    /// Minimum f-value over the open frontier left behind on expiry
    /// (`usize::MAX` while none). Sound as a lower-bound component only when
    /// covers stayed exact and undegraded — with `CoverMethod::Greedy` or a
    /// capped-out cover, g overestimates and f is no longer a true bound.
    expiry_floor: usize,
    /// Telemetry collector (no-op unless `limits.collect_stats`).
    telemetry: Telemetry,
    /// Shared striped cover cache (work-stealing mode): exact bag covers go
    /// through it so every worker reuses every other worker's proven facts.
    /// `None` in sequential and root-split modes.
    shared_cache: Option<&'a StripedCoverCache>,
    /// This worker's hit/miss attribution of `shared_cache` queries.
    shared_cache_stats: CacheStats,
    /// Work-stealing scheduler (work-stealing mode): children above the
    /// depth cutoff are published as stealable tasks instead of searched
    /// inline. `None` everywhere else.
    sched: Option<&'a Scheduler>,
    /// This worker's index (deque owner id; 0 in sequential mode).
    worker: usize,
    /// Publish children while `eg.depth() <= steal_depth`.
    steal_depth: usize,
    /// Subproblems this search published onto its deque.
    published: u64,
    /// Witness-reconstruction mode: stop the search at the first
    /// improvement (used by the deterministic ordering rebuild, which runs
    /// with `ub = w* + 1` so the first improvement *is* the DFS-first state
    /// of width `w*` — exactly the state whose suffix the sequential search
    /// reports last).
    stop_at_first: bool,
    /// Set once `stop_at_first` triggered; unwinds the search as success.
    stopped: bool,
}

impl<'a> Dfs<'a> {
    /// A search over `h` in the default sequential shape; callers override
    /// the sharing/scheduling fields for the parallel modes.
    #[allow(clippy::too_many_arguments)]
    fn new(
        h: &'a Hypergraph,
        cfg: &'a BbGhwConfig,
        primal: &Graph,
        covered: &BitSet,
        ticker: Ticker<'a>,
        ub: usize,
        root_lb: usize,
        ksc: &'a KscTable,
    ) -> Self {
        let n = h.num_vertices();
        Dfs {
            h,
            covered: covered.clone(),
            eg: EliminationGraph::new(primal),
            cfg,
            ticker,
            ub,
            best_suffix: Vec::new(),
            suffix: Vec::new(),
            root_lb,
            bag_scratch: BitSet::new(n),
            target_scratch: BitSet::new(n),
            lb_scratch: LbScratch::new(),
            ksc,
            degraded: false,
            interner_overflow: false,
            cache: cfg.use_cover_cache.then(CoverCache::new),
            interner: cfg.use_cover_cache.then(|| StateInterner::for_vertices(n)),
            shared_ub: None,
            found: usize::MAX,
            expiry_floor: usize::MAX,
            telemetry: Telemetry::new(cfg.limits.collect_stats),
            shared_cache: None,
            shared_cache_stats: CacheStats::default(),
            sched: None,
            worker: 0,
            steal_depth: 0,
            published: 0,
            stop_at_first: false,
            stopped: false,
        }
    }
    /// Cover size of `self.bag_scratch` (already restricted to covered
    /// vertices), capped at the incumbent: any value ≥ `ub` prunes the child
    /// identically, so `min(true size, ub)` is all the search needs — and
    /// the cap prunes the set-cover branch and bound enormously. The second
    /// component is `false` iff the cover search exhausted its internal
    /// budget and the size is only an upper estimate.
    fn bag_cover(&mut self) -> (usize, bool) {
        if self.cfg.cover == CoverMethod::Exact {
            if let Some(shared) = self.shared_cache {
                // Work-stealing mode: exact facts go through the striped
                // shared store so workers reuse each other's covers. Hits
                // and misses are attributed to this worker.
                let (s, ok, hit) = shared.exact_cover_size_capped(&self.bag_scratch, self.h, self.ub);
                if hit {
                    self.shared_cache_stats.hits += 1;
                } else {
                    self.shared_cache_stats.misses += 1;
                }
                return (s, ok);
            }
        }
        match (self.cfg.cover, self.cache.as_mut()) {
            (CoverMethod::Exact, Some(c)) => {
                match try_intern_key(&mut self.interner, &mut self.interner_overflow, self.bag_scratch.blocks()) {
                    Some(key) => {
                        c.exact_cover_size_capped_interned(key, &self.bag_scratch, self.h, self.ub)
                    }
                    // shard id space exhausted: compute uncached — the
                    // value is identical, and `search` degrades this
                    // worker at its next node
                    None => exact_cover_size_capped(&self.bag_scratch, self.h, self.ub),
                }
            }
            (CoverMethod::Exact, None) => {
                exact_cover_size_capped(&self.bag_scratch, self.h, self.ub)
            }
            (CoverMethod::Greedy, Some(c)) => {
                match try_intern_key(&mut self.interner, &mut self.interner_overflow, self.bag_scratch.blocks()) {
                    Some(key) => {
                        (c.greedy_cover_size_interned(key, &self.bag_scratch, self.h), true)
                    }
                    None => (
                        greedy_cover_size::<ghd_prng::rngs::StdRng>(&self.bag_scratch, self.h, None),
                        true,
                    ),
                }
            }
            (CoverMethod::Greedy, None) => (
                greedy_cover_size::<ghd_prng::rngs::StdRng>(&self.bag_scratch, self.h, None),
                true,
            ),
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

    /// Whether the child just eliminated (depth = `eg.depth()`) should be
    /// offered to the scheduler instead of searched inline.
    #[inline]
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

    fn search(&mut self, g: usize, f: usize, allowed: Option<&[u32]>) -> bool {
        if !self.ticker.tick() {
            // this node stays open: its f joins the expiry floor
            self.expiry_floor = self.expiry_floor.min(f);
            return false;
        }
        if self.interner_overflow {
            // the shard's id space is exhausted (checked, never wrapped):
            // abandon this worker's remaining work like a second fault —
            // every abandoned node's f joins the expiry floor, so the
            // anytime bounds stay sound while `exact` is withdrawn
            self.expiry_floor = self.expiry_floor.min(f);
            return false;
        }
        if let Some(s) = self.shared_ub {
            self.ub = self.ub.min(s.load(Ordering::Relaxed));
        }
        // PR1 analogue: any completion's bags sit inside the alive set, so
        // its exact-cover width is ≤ cover(alive); greedy gives a safe bound.
        if self.eg.num_alive() == 0 {
            if g < self.ub {
                self.improve(g.max(1));
            }
            return true;
        }
        let alive_cover = {
            self.target_scratch.copy_from(self.eg.alive());
            self.target_scratch.intersect_with(&self.covered);
            match self.cache.as_mut() {
                // identical value to the uncached call: the cache memoizes
                // the same deterministic first-maximum greedy
                Some(c) => match try_intern_key(
                    &mut self.interner,
                    &mut self.interner_overflow,
                    self.target_scratch.blocks(),
                ) {
                    Some(key) => c.greedy_cover_size_interned(key, &self.target_scratch, self.h),
                    None => greedy_cover_size::<ghd_prng::rngs::StdRng>(
                        &self.target_scratch,
                        self.h,
                        None,
                    ),
                },
                None => {
                    greedy_cover_size::<ghd_prng::rngs::StdRng>(&self.target_scratch, self.h, None)
                }
            }
        };
        let w = g.max(alive_cover);
        if w < self.ub {
            self.improve(w);
            if self.stopped {
                return true;
            }
        }
        if alive_cover <= g {
            self.telemetry.prune(|p| p.pr1_closures += 1);
            return true; // completing in any order already achieves g
        }

        let forced = if self.cfg.use_reductions {
            find_simplicial(&self.eg)
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
        children.sort_by_key(|&v| self.eg.degree(v));

        let last = children.len();
        for (i, &v) in children.iter().enumerate() {
            // vertices in no hyperedge are unconstrained and need no cover
            // support, so the bag is restricted to the covered set up front
            self.bag_scratch.copy_from(self.eg.neighbors(v));
            self.bag_scratch.insert(v);
            self.bag_scratch.intersect_with(&self.covered);
            let (k, cover_exact) = self.bag_cover();
            if !cover_exact {
                self.degraded = true;
                self.telemetry.prune(|p| p.capped_covers += 1);
            }
            let child_g = g.max(k);
            // grandchild PR2 filter must look at the *current* graph; a
            // child that its own bag cover already prunes never uses it
            let grandchildren = if self.cfg.use_pr2 && forced.is_none() && child_g.max(f) < self.ub
            {
                Some(child_successors(&self.eg, v, Some(swappable_ghw)))
            } else {
                None
            };
            self.eg.eliminate(v);
            self.suffix.push(v);
            let mut child_f = child_g.max(f);
            if child_f < self.ub {
                child_f =
                    child_f.max(residual_ghw_lb(&self.eg, &mut self.lb_scratch, self.ksc));
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
}

/// Executes one stolen/popped task on a worker's persistent [`Dfs`]: syncs
/// the incumbent, replays the elimination prefix, recomputes the parent's
/// PR2 filter for the final prefix vertex exactly as the inline child
/// expansion would have, searches the subtree, and restores the state.
/// Returns `false` iff the budget expired inside (the task's `f` has then
/// been folded into the expiry floor by the failed tick).
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
        find_simplicial(&dfs.eg)
    } else {
        None
    };
    let grandchildren = if dfs.cfg.use_pr2 && forced.is_none() {
        Some(child_successors(&dfs.eg, v, Some(swappable_ghw)))
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

/// The anytime lower bound of a truncated BB-ghw run: the expiry floor is
/// only a valid bound while every bag cover was exact and undegraded.
fn ghw_anytime_lb(
    root_lb: usize,
    expiry_floor: usize,
    ub: usize,
    cover: CoverMethod,
    degraded: bool,
) -> usize {
    if cover == CoverMethod::Exact && !degraded {
        anytime_lb(root_lb, expiry_floor, ub)
    } else {
        root_lb.min(ub)
    }
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
    let n = h.num_vertices();
    let root_lb = ghd_bounds::ksc::ghw_lower_bound::<ghd_prng::rngs::StdRng>(h, None);
    let (ub, ub_order) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(h, None);
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
    let primal = h.primal_graph();
    let covered = h.covered_vertices();
    let ksc = KscTable::new(h);
    let mut dfs = Dfs::new(h, cfg, &primal, &covered, budget.worker(), ub, root_lb, &ksc);
    dfs.telemetry = telemetry;
    let completed = dfs.search(0, root_lb, None);
    let ordering = Some(complete_ordering(n, &dfs.best_suffix, ub_order.into_vec()));
    let exact =
        (completed && cfg.cover == CoverMethod::Exact && !dfs.degraded) || root_lb >= dfs.ub;
    let lower_bound = if exact {
        dfs.ub
    } else if completed {
        root_lb.min(dfs.ub)
    } else {
        ghw_anytime_lb(root_lb, dfs.expiry_floor, dfs.ub, cfg.cover, dfs.degraded)
    };
    let cover_cache = dfs.cache.as_ref().map(|c| c.stats());
    let mut telemetry = dfs.telemetry;
    if let Some(s) = cover_cache {
        telemetry.cache(s);
    }
    let overflow = dfs.interner_overflow;
    telemetry.note(|s| s.interner_overflow |= overflow);
    telemetry.sample(budget.elapsed(), dfs.ub, lower_bound);
    SearchResult {
        upper_bound: dfs.ub,
        lower_bound,
        exact,
        ordering,
        nodes_expanded: dfs.ticker.nodes(),
        elapsed: budget.elapsed(),
        cover_cache,
        stats: telemetry.finish(),
        faults: Vec::new(),
    }
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
    let n = h.num_vertices();
    let root_lb = ghd_bounds::ksc::ghw_lower_bound::<ghd_prng::rngs::StdRng>(h, None);
    let (ub, ub_order) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(h, None);
    if n <= 1 || width >= ub {
        return (Some(ub_order.into_vec()), 0);
    }
    let primal = h.primal_graph();
    let covered = h.covered_vertices();
    let ksc = KscTable::new(h);
    let mut dfs = Dfs::new(
        h,
        cfg,
        &primal,
        &covered,
        budget.worker(),
        width + 1,
        root_lb,
        &ksc,
    );
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

/// The PR 4 root-split parallel baseline, kept for benchmarking against
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
pub fn bb_ghw_parallel_rootsplit(h: &Hypergraph, cfg: &BbGhwConfig, threads: usize) -> SearchResult {
    let n = h.num_vertices();
    let budget = Budget::new(&cfg.limits);
    let root_lb = ghd_bounds::ksc::ghw_lower_bound::<ghd_prng::rngs::StdRng>(h, None);
    let (ub, ub_order) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(h, None);
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
    let primal = h.primal_graph();
    let covered = h.covered_vertices();
    // root children exactly as the sequential root expansion orders them
    let eg = EliminationGraph::new(&primal);
    let forced = if cfg.use_reductions {
        find_simplicial(&eg)
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
    struct WorkerOutcome {
        completed: bool,
        found: usize,
        best_suffix: Vec<usize>,
        nodes: u64,
        degraded: bool,
        expiry_floor: usize,
        cache: Option<CacheStats>,
        stats: Option<SearchStats>,
    }
    let ksc = KscTable::new(h);
    let run_task = |&v: &usize| {
        let mut dfs = Dfs::new(h, cfg, &primal, &covered, budget.worker(), ub, root_lb, &ksc);
        dfs.shared_ub = Some(&incumbent);
        let completed = dfs.search(0, root_lb, Some(&[v as u32]));
        let cache = dfs.cache.as_ref().map(|c| c.stats());
        let mut telemetry = dfs.telemetry;
        if let Some(s) = cache {
            telemetry.cache(s);
        }
        WorkerOutcome {
            completed,
            found: dfs.found,
            best_suffix: dfs.best_suffix,
            nodes: dfs.ticker.nodes(),
            degraded: dfs.degraded,
            expiry_floor: dfs.expiry_floor,
            cache,
            stats: telemetry.finish(),
        }
    };
    let contained = ghd_par::parallel_map_contained(&children, threads, run_task);
    let mut faults = contained.faults;
    // Retry each faulted task once on the caller thread (injected kills are
    // one-shot, so exactness survives a dead worker); a second panic
    // degrades the result soundly instead of aborting the process.
    let outcomes: Vec<WorkerOutcome> = contained
        .results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                match ghd_par::run_contained(ghd_par::RETRY_WORKER, i, || run_task(&children[i])) {
                    Ok(o) => o,
                    Err(second) => {
                        faults.push(second);
                        WorkerOutcome {
                            completed: false,
                            found: usize::MAX,
                            best_suffix: Vec::new(),
                            nodes: 0,
                            degraded: false,
                            expiry_floor: root_lb,
                            cache: None,
                            stats: None,
                        }
                    }
                }
            })
        })
        .collect();
    faults.sort_by_key(|f| f.task);

    // aggregate: best proven width wins, first worker breaks ties
    let mut best_ub = ub;
    let mut best_suffix: Vec<usize> = Vec::new();
    let mut nodes = 0u64;
    let mut completed = true;
    let mut degraded = false;
    let mut expiry_floor = usize::MAX;
    let mut cache_total: Option<CacheStats> = None;
    let mut worker_stats: Vec<SearchStats> = Vec::new();
    for o in outcomes {
        if o.found < best_ub {
            best_ub = o.found;
            best_suffix = o.best_suffix;
        }
        nodes += o.nodes;
        completed &= o.completed;
        degraded |= o.degraded;
        expiry_floor = expiry_floor.min(o.expiry_floor);
        if let Some(s) = o.cache {
            // hits/misses/evictions are counters and sum; `entries` is a
            // gauge and takes the max (per-worker values live in
            // `SearchStats::worker_caches`)
            cache_total
                .get_or_insert_with(CacheStats::default)
                .absorb_parallel(&s);
        }
        worker_stats.extend(o.stats);
    }
    let ordering = Some(complete_ordering(n, &best_suffix, ub_order.into_vec()));
    let exact =
        (completed && cfg.cover == CoverMethod::Exact && !degraded) || root_lb >= best_ub;
    let lower_bound = if exact {
        best_ub
    } else if completed {
        root_lb.min(best_ub)
    } else {
        ghw_anytime_lb(root_lb, expiry_floor, best_ub, cfg.cover, degraded)
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
        exact,
        ordering,
        nodes_expanded: nodes,
        elapsed: budget.elapsed(),
        cover_cache: cache_total,
        stats,
        faults,
    }
}

/// Resolves a requested thread count to a worker count the id packing
/// supports (`0` = all cores).
pub(crate) fn steal_workers(requested: usize) -> usize {
    let t = if requested == 0 {
        ghd_par::num_threads()
    } else {
        requested
    };
    t.clamp(1, crate::sharded::MAX_WORKERS)
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
pub fn bb_ghw_parallel(h: &Hypergraph, cfg: &BbGhwConfig, threads: usize) -> SearchResult {
    let n = h.num_vertices();
    let budget = Budget::new(&cfg.limits);
    let root_lb = ghd_bounds::ksc::ghw_lower_bound::<ghd_prng::rngs::StdRng>(h, None);
    let (ub, ub_order) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(h, None);
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
    let primal = h.primal_graph();
    let covered = h.covered_vertices();
    let ksc = KscTable::new(h);
    let workers = steal_workers(threads);
    let sched = Scheduler::new(workers);
    let striped = cfg
        .use_cover_cache
        .then(|| StripedCoverCache::new((workers * 4).next_power_of_two().min(64)));
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
        degraded: bool,
        expiry_floor: usize,
        /// Local-only stats (the striped store reports its own totals).
        local: Option<CacheStats>,
        steals: StealCounters,
        stats: Option<SearchStats>,
        faults: Vec<ghd_par::WorkerFault>,
        shard: StateInterner,
    }

    let shards = ShardedInterner::for_vertices(workers, n).split();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(w, shard)| {
                let (sched, budget, incumbent) = (&sched, &budget, &incumbent);
                let (primal, covered, ksc) = (&primal, &covered, &ksc);
                let striped = striped.as_ref();
                scope.spawn(move || {
                    let mut dfs =
                        Dfs::new(h, cfg, primal, covered, budget.worker(), ub, root_lb, ksc);
                    dfs.shared_ub = Some(incumbent);
                    dfs.shared_cache = striped;
                    dfs.sched = Some(sched);
                    dfs.worker = w;
                    dfs.steal_depth = cfg.steal.depth.max(1);
                    let mut spare = None;
                    if dfs.interner.is_some() {
                        dfs.interner = Some(shard);
                    } else {
                        spare = Some(shard);
                    }
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
                                dfs.eg = EliminationGraph::new(primal);
                                dfs.suffix.clear();
                            }
                        }
                    }
                    steals.published = dfs.published;
                    let local = dfs.cache.as_ref().map(|c| c.stats());
                    let attributed = local.map(|mut c| {
                        c.hits += dfs.shared_cache_stats.hits;
                        c.misses += dfs.shared_cache_stats.misses;
                        c
                    });
                    let mut telemetry = std::mem::replace(&mut dfs.telemetry, Telemetry::new(false));
                    if let Some(a) = attributed {
                        telemetry.cache(a);
                    }
                    let overflow = dfs.interner_overflow;
                    telemetry.note(|s| s.interner_overflow |= overflow);
                    // an overflowed shard abandoned its remaining tasks
                    // into the expiry floor: the run did not complete
                    all_ok &= !overflow;
                    WorkerOutcome {
                        all_ok,
                        found: dfs.found,
                        best_suffix: std::mem::take(&mut dfs.best_suffix),
                        nodes: dfs.ticker.nodes(),
                        degraded: dfs.degraded,
                        expiry_floor: dfs.expiry_floor,
                        local,
                        steals,
                        stats: telemetry.finish(),
                        faults,
                        shard: dfs.interner.take().or(spare).expect("shard survives the run"),
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
    let mut degraded = false;
    let mut expiry_floor = usize::MAX;
    let mut locals: Vec<CacheStats> = Vec::new();
    let mut steals_all: Vec<StealCounters> = Vec::new();
    let mut worker_stats: Vec<SearchStats> = Vec::new();
    let mut shards_back: Vec<StateInterner> = Vec::new();
    for o in outcomes {
        if o.found < best_ub {
            best_ub = o.found;
            best_suffix = o.best_suffix;
        }
        nodes += o.nodes;
        completed &= o.all_ok;
        degraded |= o.degraded;
        expiry_floor = expiry_floor.min(o.expiry_floor);
        locals.extend(o.local);
        steals_all.push(o.steals);
        worker_stats.extend(o.stats);
        faults.extend(o.faults);
        shards_back.push(o.shard);
    }
    faults.sort_by_key(|f| f.task);
    let sharded = ShardedInterner::reassemble(shards_back);
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
        let mut dfs =
            Dfs::new(h, cfg, &primal, &covered, budget.worker(), best_ub + 1, root_lb, &ksc);
        dfs.shared_cache = striped.as_ref(); // identical answers, warm facts
        dfs.stop_at_first = true;
        dfs.search(0, root_lb, None);
        nodes += dfs.ticker.nodes();
        if dfs.found == best_ub {
            best_suffix = std::mem::take(&mut dfs.best_suffix);
        }
        locals.extend(dfs.cache.as_ref().map(|c| c.stats()));
        let attributed = dfs.cache.as_ref().map(|c| {
            let mut s = c.stats();
            s.hits += dfs.shared_cache_stats.hits;
            s.misses += dfs.shared_cache_stats.misses;
            s
        });
        let mut telemetry = std::mem::replace(&mut dfs.telemetry, Telemetry::new(false));
        if let Some(a) = attributed {
            telemetry.cache(a);
        }
        worker_stats.extend(telemetry.finish());
    }

    // Snapshot the striped store *after* reconstruction so the merged
    // counters cover every query of the run, then fold in the local memos:
    // merged hits/misses equal the sum over `worker_caches` exactly.
    let mut cache_total = striped.as_ref().map(|s| s.stats());
    if let Some(total) = cache_total.as_mut() {
        for l in &locals {
            total.absorb_parallel(l);
        }
    }

    let ordering = Some(complete_ordering(n, &best_suffix, ub_order.into_vec()));
    let exact =
        (completed && cfg.cover == CoverMethod::Exact && !degraded) || root_lb >= best_ub;
    let lower_bound = if exact {
        best_ub
    } else if completed {
        root_lb.min(best_ub)
    } else {
        ghw_anytime_lb(root_lb, expiry_floor, best_ub, cfg.cover, degraded)
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
        // BB has no A* closed set; report the sharded interner's footprint
        // as the state-memory gauge instead
        merged.seen_peak_bytes = merged.seen_peak_bytes.max(sharded.bytes() as u64);
        merged
    });
    SearchResult {
        upper_bound: best_ub,
        lower_bound,
        exact,
        ordering,
        nodes_expanded: nodes,
        elapsed: budget.elapsed(),
        cover_cache: cache_total,
        stats,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                assert_eq!(par.upper_bound, seq.upper_bound, "seed {seed} threads {threads}");
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
                assert_eq!(par.upper_bound, seq.upper_bound, "seed {seed} threads {threads}");
                // the root-split ordering is schedule-dependent but must
                // still be a genuine witness
                let sigma = EliminationOrdering::new(par.ordering.unwrap()).unwrap();
                let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
                ghd.verify(&h).unwrap();
                assert_eq!(ghd.width(), par.upper_bound, "seed {seed} threads {threads}");
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
        assert!(r.nodes_expanded <= 100, "budget overrun: {}", r.nodes_expanded);
    }

    #[test]
    fn stats_collection_is_behaviourally_free() {
        for seed in 0..3u64 {
            let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
            for limits in [SearchLimits::unlimited(), SearchLimits::with_nodes(200)] {
                let off = bb_ghw(&h, &BbGhwConfig { limits: limits.clone(), ..BbGhwConfig::default() });
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
