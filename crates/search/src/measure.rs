//! The width measures the search cores are generic over.
//!
//! BB-ghw (Fig 8.3) and A\*-ghw (Fig 9.1) are the treewidth searches of
//! Chapters 4–5 with two parts swapped: the cost of eliminating a vertex is
//! the exact set cover of its bag instead of its degree (Theorem 3), and the
//! residual heuristic is tw-ksc-width (Fig 8.1) instead of
//! minor-min-width. A [`Measure`] holds exactly those measure-specific
//! parts; [`crate::bb`] and [`crate::astar`] hold the searches once.
//!
//! Dispatch is static: the cores are generic over `M: Measure`, so the
//! per-node hooks inline and no `dyn` call sits on the expansion path.

use crate::bb::LbMode;
use crate::common::{anytime_lb, Budget, SearchResult, Telemetry};
use crate::interner::StateInterner;
use crate::rules::{find_reduction_tw, find_simplicial, swappable_ghw, swappable_tw};
use crate::sharded::ShardedInterner;
use ghd_bounds::ksc::{ghw_lower_bound, KscTable};
use ghd_bounds::lower::{tw_lower_bound, tw_lower_bound_elim, LbScratch};
use ghd_bounds::upper::{ghw_upper_bound, tw_upper_bound};
use ghd_core::setcover::{
    exact_cover_size_capped, greedy_cover_size, CacheStats, CoverCache, CoverMethod,
    StripedCoverCache,
};
use ghd_hypergraph::{BitSet, EliminationGraph, Graph, Hypergraph};

/// A width measure: the cost, heuristic, completion and rule hooks the
/// search cores call, plus per-worker state (scratch buffers, caches).
///
/// The value itself is shared by every worker of a run; everything a
/// worker mutates lives in its [`Measure::Worker`].
pub(crate) trait Measure: Sync {
    /// Per-worker mutable state.
    type Worker: Send;

    /// The graph the elimination runs on (the primal graph for ghw).
    fn graph(&self) -> &Graph;

    /// Root bounds: `(lower, upper, an ordering realising upper)`.
    fn root_bounds(&self) -> (usize, usize, Vec<usize>);

    /// Fresh state for a sequential search (or one root-split task).
    fn worker(&self) -> Self::Worker;

    /// Fresh state for each of `count` work-stealing workers.
    fn workers(&self, count: usize) -> Vec<Self::Worker> {
        (0..count).map(|_| self.worker()).collect()
    }

    /// Prepares state shared by the work-stealing workers of one run.
    fn share(&mut self, _workers: usize) {}

    /// Every vertex set a worker keys on is interned here (A\*'s closed
    /// set; ghw also keys its cover memo on it, so both share one arena
    /// and id space).
    fn interner<'w>(&self, w: &'w mut Self::Worker) -> &'w mut StateInterner;

    /// Cost of eliminating `v` from `eg`, capped at `ub` (any value ≥ `ub`
    /// prunes alike), and whether it is exact rather than an estimate.
    fn cost(
        &self,
        w: &mut Self::Worker,
        eg: &EliminationGraph,
        v: usize,
        ub: usize,
    ) -> (usize, bool);

    /// Lower bound on the width any completion of `eg` needs.
    fn residual_lb(&self, w: &mut Self::Worker, eg: &EliminationGraph) -> usize;

    /// `c` such that completing `eg` in any order adds width at most `c`:
    /// a state of cost `g` completes at `max(g, c)` (PR1, §4.4.5), and is
    /// solved outright — the A\* goal — when `c <= g`.
    fn completion(&self, w: &mut Self::Worker, eg: &EliminationGraph) -> usize;

    /// A vertex that may be eliminated next without loss (the reduction
    /// rules; `lb` is the current lower bound).
    fn reduction(&self, eg: &EliminationGraph, lb: usize) -> Option<usize>;

    /// The PR2 swap test (§4.4.4 / §8.3).
    fn swappable(eg: &EliminationGraph, a: usize, b: usize) -> bool;

    /// Exactness and lower bound of a finished BB run, from whether it
    /// completed, whether any cost was inexact, the root bound, the expiry
    /// floor and the incumbent.
    fn verdict(
        &self,
        completed: bool,
        _degraded: bool,
        root_lb: usize,
        floor: usize,
        ub: usize,
    ) -> (bool, usize) {
        let lb = if completed {
            ub
        } else {
            anytime_lb(root_lb, floor, ub)
        };
        (completed, lb)
    }

    /// Some cost was an estimate: f-values are no longer true bounds.
    fn degraded(&self, _w: &Self::Worker) -> bool {
        false
    }

    /// The worker's interner ran out of ids: it abandons its remaining
    /// work into the expiry floor.
    fn overflowed(&self, _w: &Self::Worker) -> bool {
        false
    }

    /// The worker's cover-cache counters, `(local, attributed)`: its own
    /// memo's stats, and the same with its queries to the shared store
    /// added. `None` when the measure keeps no cache.
    fn cache_stats(&self, _w: &Self::Worker) -> Option<(CacheStats, CacheStats)> {
        None
    }

    /// Bytes reserved by the worker's cover memo.
    fn cache_bytes(&self, _w: &Self::Worker) -> usize {
        0
    }

    /// Counters of the store shared by the work-stealing workers.
    fn shared_stats(&self) -> Option<CacheStats> {
        None
    }

    /// State-memory gauge of a finished work-stealing run.
    fn steal_bytes(&self, _workers: Vec<Self::Worker>) -> usize {
        0
    }
}

/// The root of a nontrivial search: its bounds and the telemetry that
/// already holds the root sample.
pub(crate) struct Root {
    pub lb: usize,
    pub ub: usize,
    pub order: Vec<usize>,
    pub telemetry: Telemetry,
}

/// Computes the root bounds. A root whose lower bound meets the heuristic
/// (or a graph of at most one vertex) is solved by the heuristic ordering:
/// that result comes back as `Err`.
pub(crate) fn open_root<M: Measure>(
    m: &M,
    collect_stats: bool,
    budget: &Budget,
) -> Result<Root, Box<SearchResult>> {
    let (lb, ub, order) = m.root_bounds();
    let mut telemetry = Telemetry::new(collect_stats);
    telemetry.sample(budget.elapsed(), ub, lb.min(ub));
    if lb < ub && m.graph().num_vertices() > 1 {
        return Ok(Root {
            lb,
            ub,
            order,
            telemetry,
        });
    }
    Err(Box::new(SearchResult {
        upper_bound: ub,
        lower_bound: ub,
        exact: true,
        ordering: Some(order),
        nodes_expanded: 0,
        elapsed: budget.elapsed(),
        cover_cache: None,
        stats: telemetry.finish(),
        faults: Vec::new(),
    }))
}

/// Treewidth: the cost of eliminating `v` is its degree, the heuristic
/// minor-min-width / minor-γ_R.
pub(crate) struct Tw<'a> {
    pub g: &'a Graph,
    pub lb_mode: LbMode,
}

pub(crate) struct TwWorker {
    lb: LbScratch,
    seen: StateInterner,
}

impl Measure for Tw<'_> {
    type Worker = TwWorker;

    fn graph(&self) -> &Graph {
        self.g
    }

    fn root_bounds(&self) -> (usize, usize, Vec<usize>) {
        let lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(self.g, None);
        let (ub, order) = tw_upper_bound::<ghd_prng::rngs::StdRng>(self.g, None);
        (lb, ub, order.into_vec())
    }

    fn worker(&self) -> TwWorker {
        TwWorker {
            lb: LbScratch::new(),
            seen: StateInterner::for_vertices(self.g.num_vertices()),
        }
    }

    fn interner<'w>(&self, w: &'w mut TwWorker) -> &'w mut StateInterner {
        &mut w.seen
    }

    fn cost(&self, _: &mut TwWorker, eg: &EliminationGraph, v: usize, _: usize) -> (usize, bool) {
        (eg.degree(v), true)
    }

    fn residual_lb(&self, w: &mut TwWorker, eg: &EliminationGraph) -> usize {
        // the `_elim` bound computes the same value as running it on
        // `eg.to_graph()` but reuses the scratch buffers
        match self.lb_mode {
            LbMode::None => 0,
            LbMode::MmwGammaR => tw_lower_bound_elim(eg, &mut w.lb),
        }
    }

    fn completion(&self, _: &mut TwWorker, eg: &EliminationGraph) -> usize {
        // any order of the n' remaining vertices has width ≤ n' − 1
        eg.num_alive().saturating_sub(1)
    }

    fn reduction(&self, eg: &EliminationGraph, lb: usize) -> Option<usize> {
        find_reduction_tw(eg, lb)
    }

    fn swappable(eg: &EliminationGraph, a: usize, b: usize) -> bool {
        swappable_tw(eg, a, b)
    }
}

/// Generalized hypertree width: the cost of eliminating `v` is the cover
/// size of its bag (exact under [`CoverMethod::Exact`], Theorem 3), the
/// heuristic tw-ksc-width, the completion the greedy cover of the
/// remaining vertices.
pub(crate) struct Ghw<'a> {
    h: &'a Hypergraph,
    primal: Graph,
    /// Vertices in some hyperedge; the rest need no cover support.
    covered: BitSet,
    /// Prefix-sum table answering k-set-cover queries for `h`.
    ksc: KscTable,
    cover: CoverMethod,
    use_cache: bool,
    /// Exact-cover store shared by the work-stealing workers, so each
    /// reuses every other's proven facts (`None` elsewhere).
    striped: Option<StripedCoverCache>,
}

impl<'a> Ghw<'a> {
    pub fn new(h: &'a Hypergraph, cover: CoverMethod, use_cache: bool) -> Self {
        Ghw {
            h,
            primal: h.primal_graph(),
            covered: h.covered_vertices(),
            ksc: KscTable::new(h),
            cover,
            use_cache,
            striped: None,
        }
    }

    fn worker_with(&self, interner: StateInterner) -> GhwWorker {
        let n = self.h.num_vertices();
        GhwWorker {
            bag: BitSet::new(n),
            lb: LbScratch::new(),
            cache: self.use_cache.then(CoverCache::new),
            interner,
            striped_queries: CacheStats::default(),
            degraded: false,
            overflow: false,
        }
    }
}

pub(crate) struct GhwWorker {
    /// Scratch for the set being covered (a bag, or the alive set).
    bag: BitSet,
    lb: LbScratch,
    /// Transposition cache for covers (None = disabled), keyed by ids of
    /// `interner`.
    cache: Option<CoverCache>,
    /// Hash-consed ids of the cache's targets (a worker-local shard in
    /// work-stealing mode).
    interner: StateInterner,
    /// This worker's hit/miss attribution of the shared store's queries.
    striped_queries: CacheStats,
    /// A capped cover exhausted its budget: the result may no longer be
    /// proven optimal.
    degraded: bool,
    /// The interner refused a fresh key because its id space (a shard's
    /// `2^LOCAL_BITS` states, shrinkable in tests) is exhausted. A checked
    /// condition in every build mode: instead of wrapping ids into another
    /// worker's range, the worker folds its remaining work into the expiry
    /// floor — exactly like a second fault — so bounds stay sound and
    /// `exact` is withdrawn.
    overflow: bool,
}

impl GhwWorker {
    /// The interned id of `self.bag` when the cache is on; `None` without
    /// a cache, or (raising the sticky overflow flag) once the id space is
    /// exhausted.
    fn cache_key(&mut self) -> Option<u32> {
        self.cache.as_ref()?;
        let id = self
            .interner
            .try_intern(self.bag.blocks())
            .map(|(id, _)| id);
        self.overflow |= id.is_none();
        id
    }

    /// Greedy cover size of `self.bag`, memoized when the cache is on (the
    /// cache memoizes the same deterministic first-maximum greedy, so the
    /// value is identical either way).
    fn greedy(&mut self, h: &Hypergraph) -> usize {
        match (self.cache_key(), self.cache.as_mut()) {
            (Some(key), Some(c)) => c.greedy_cover_size_interned(key, &self.bag, h),
            _ => greedy_cover_size::<ghd_prng::rngs::StdRng>(&self.bag, h, None),
        }
    }

    /// Exact cover size of `self.bag` capped at `ub`, and whether the cover
    /// search finished within its internal budget.
    fn exact(
        &mut self,
        h: &Hypergraph,
        striped: Option<&StripedCoverCache>,
        ub: usize,
    ) -> (usize, bool) {
        if let Some(shared) = striped {
            let (s, ok, hit) = shared.exact_cover_size_capped(&self.bag, h, ub);
            if hit {
                self.striped_queries.hits += 1;
            } else {
                self.striped_queries.misses += 1;
            }
            return (s, ok);
        }
        match (self.cache_key(), self.cache.as_mut()) {
            (Some(key), Some(c)) => c.exact_cover_size_capped_interned(key, &self.bag, h, ub),
            // no cache, or the id space is exhausted: the uncached value is
            // identical, and the search degrades this worker at its next node
            _ => exact_cover_size_capped(&self.bag, h, ub),
        }
    }
}

impl Measure for Ghw<'_> {
    type Worker = GhwWorker;

    fn graph(&self) -> &Graph {
        &self.primal
    }

    fn root_bounds(&self) -> (usize, usize, Vec<usize>) {
        let lb = ghw_lower_bound::<ghd_prng::rngs::StdRng>(self.h, None);
        let (ub, order) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(self.h, None);
        (lb, ub, order.into_vec())
    }

    fn worker(&self) -> GhwWorker {
        self.worker_with(StateInterner::for_vertices(self.h.num_vertices()))
    }

    fn workers(&self, count: usize) -> Vec<GhwWorker> {
        // each worker keeps a private shard for its greedy memo, so the
        // hot per-node path stays contention-free
        let shards = ShardedInterner::for_vertices(count, self.h.num_vertices()).split();
        shards.into_iter().map(|s| self.worker_with(s)).collect()
    }

    fn share(&mut self, workers: usize) {
        self.striped = self
            .use_cache
            .then(|| StripedCoverCache::new((workers * 4).next_power_of_two().min(64)));
    }

    fn interner<'w>(&self, w: &'w mut GhwWorker) -> &'w mut StateInterner {
        &mut w.interner
    }

    fn cost(&self, w: &mut GhwWorker, eg: &EliminationGraph, v: usize, ub: usize) -> (usize, bool) {
        // vertices in no hyperedge are unconstrained and need no cover
        // support, so the bag is restricted to the covered set up front
        w.bag.copy_from(eg.neighbors(v));
        w.bag.insert(v);
        w.bag.intersect_with(&self.covered);
        let (k, exact) = match self.cover {
            CoverMethod::Exact => w.exact(self.h, self.striped.as_ref(), ub),
            CoverMethod::Greedy => (w.greedy(self.h), true),
        };
        w.degraded |= !exact;
        (k, exact)
    }

    fn residual_lb(&self, w: &mut GhwWorker, eg: &EliminationGraph) -> usize {
        // the treewidth bound on the residual lifted through the k-set-cover
        // bound: `tw_ksc_width` without materialising the residual graph
        if eg.num_alive() == 0 {
            return 0;
        }
        self.ksc.bound(tw_lower_bound_elim(eg, &mut w.lb) + 1)
    }

    fn completion(&self, w: &mut GhwWorker, eg: &EliminationGraph) -> usize {
        // every completion's bags sit inside the alive set, so its cover
        // width is ≤ cover(alive); greedy gives a safe bound
        if eg.num_alive() == 0 {
            return 0;
        }
        w.bag.copy_from(eg.alive());
        w.bag.intersect_with(&self.covered);
        w.greedy(self.h)
    }

    fn reduction(&self, eg: &EliminationGraph, _: usize) -> Option<usize> {
        find_simplicial(eg)
    }

    fn swappable(eg: &EliminationGraph, a: usize, b: usize) -> bool {
        swappable_ghw(eg, a, b)
    }

    fn verdict(
        &self,
        completed: bool,
        degraded: bool,
        root_lb: usize,
        floor: usize,
        ub: usize,
    ) -> (bool, usize) {
        // with greedy or capped covers g overestimates, so neither a
        // completed search nor the expiry floor proves anything
        let sound = self.cover == CoverMethod::Exact && !degraded;
        let exact = (completed && sound) || root_lb >= ub;
        let lb = if exact {
            ub
        } else if completed || !sound {
            root_lb.min(ub)
        } else {
            anytime_lb(root_lb, floor, ub)
        };
        (exact, lb)
    }

    fn degraded(&self, w: &GhwWorker) -> bool {
        w.degraded
    }

    fn overflowed(&self, w: &GhwWorker) -> bool {
        w.overflow
    }

    fn cache_stats(&self, w: &GhwWorker) -> Option<(CacheStats, CacheStats)> {
        w.cache.as_ref().map(|c| {
            let local = c.stats();
            let mut attributed = local;
            attributed.hits += w.striped_queries.hits;
            attributed.misses += w.striped_queries.misses;
            (local, attributed)
        })
    }

    fn cache_bytes(&self, w: &GhwWorker) -> usize {
        w.cache.as_ref().map_or(0, |c| c.bytes())
    }

    fn shared_stats(&self) -> Option<CacheStats> {
        self.striped.as_ref().map(|s| s.stats())
    }

    fn steal_bytes(&self, workers: Vec<GhwWorker>) -> usize {
        // BB has no A* closed set; the sharded interner's footprint is the
        // state-memory gauge instead
        ShardedInterner::reassemble(workers.into_iter().map(|w| w.interner).collect()).bytes()
    }
}
