//! Safe-separator divide and conquer: decompose the irreducible core into
//! independent blocks, solve each block with the existing searches, and
//! stitch the per-block results back into one certified answer.
//!
//! For treewidth three separator kinds are exact-safe (`tw(G) = max` over
//! the blocks): connected components, cut vertices (Tarjan biconnected
//! blocks) and clique separators (MCS-M atoms). Every block is an induced
//! subgraph containing its separator as a clique, so per-block lower
//! bounds carry over and per-block decompositions glue at a separator bag.
//! For ghw only hypergraph connected components and the isolated-edge /
//! contained-edge reductions are provably safe, so the ghw pipeline is
//! restricted to those. One driver (`split`) runs both; each measure
//! supplies its planner and a few steps through `SplitMeasure`.
//!
//! Determinism: blocks are enumerated canonically (sorted vertex lists, in
//! order of smallest vertex), the fan-out preserves input order, and for
//! exact runs the emitted ordering is re-derived by the sequential witness
//! reconstruction of [`crate::bb::witness_tw`] /
//! [`crate::bb::witness_ghw`] on the *whole* instance — so a split
//! run is bit-identical to the monolithic sequential search for any
//! thread count. Anytime runs (budget expiry, cancellation, double
//! faults) fall back to a stitched ordering. For tw its width is
//! re-checked with [`TwEvaluator`] before it is claimed. For ghw it is the
//! concatenation of the component orderings, sound because components are
//! independent, and not re-checked here: the greedy-cover `GhwEvaluator`
//! can overestimate, so it cannot serve as the check; the CLI's
//! exact-cover certificate covers ghw answers.

use crate::bb::{
    sequential, witness, witness_tw, work_stealing, BbConfig, BbGhwConfig, MeasureConfig,
};
use crate::common::{Budget, SearchResult, SearchStats};
use crate::measure::Measure;
use crate::preprocess::{preprocess_tw, Preprocessed};
use ghd_core::eval::TwEvaluator;
use ghd_core::{bucket::vertex_elimination, EliminationOrdering};
use ghd_hypergraph::separators::{
    biconnected_components, clique_separator_atoms, hypergraph_components,
};
use ghd_hypergraph::{BitSet, Graph, Hypergraph};

/// What detached a block from the rest of the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeparatorKind {
    /// A connected component (no separator at all).
    Component,
    /// A biconnected block joined to the rest at cut vertices.
    CutVertex,
    /// A clique-separator atom.
    CliqueSeparator,
    /// A hyperedge sharing no vertex with any other (ghw only): width 1.
    IsolatedEdge,
}

impl SeparatorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SeparatorKind::Component => "component",
            SeparatorKind::CutVertex => "cut-vertex",
            SeparatorKind::CliqueSeparator => "clique-separator",
            SeparatorKind::IsolatedEdge => "isolated-edge",
        }
    }
}

/// Per-block outcome, reported under the `split` stats section.
#[derive(Clone, Debug)]
pub struct BlockOutcome {
    pub size: usize,
    pub width: usize,
    pub lower_bound: usize,
    pub exact: bool,
    pub kind: SeparatorKind,
    pub cache_hit: bool,
    pub nodes: u64,
}

/// The split trace: how the instance decomposed and how each block fared.
#[derive(Clone, Debug, Default)]
pub struct SplitReport {
    /// `true` iff at least two blocks were solved independently.
    pub split: bool,
    pub blocks: Vec<BlockOutcome>,
    /// Width contributed by the §4.4.3 reductions (tw only).
    pub base_width: usize,
    /// Vertices eliminated by preprocessing (tw only).
    pub eliminated: usize,
    /// Preprocessing rounds (tw only).
    pub rounds: usize,
    /// Hyperedges dropped by the contained-edge reduction (ghw only).
    pub contained_edges: usize,
    /// Nodes the sequential witness reconstruction expanded.
    pub witness_nodes: u64,
    /// `true` when the emitted ordering was stitched from block orderings
    /// rather than reconstructed by the canonical witness.
    pub stitched: bool,
}

/// An exact block solution a [`BlockStore`] can replay: ordering indices
/// are compact block indices.
#[derive(Clone, Debug)]
pub struct BlockSolution {
    pub width: usize,
    pub lower_bound: usize,
    pub ordering: Vec<usize>,
}

/// Cross-instance cache for exact block solutions, keyed by the canonical
/// text of the compact block. The serve layer backs this with its
/// byte-capped LRU so two instances sharing a block hit the cache even
/// when the whole instances differ.
pub trait BlockStore: Sync {
    fn probe(&self, canon: &str) -> Option<BlockSolution>;
    fn admit(&self, canon: &str, sol: &BlockSolution);
}

/// A split solve: the combined search result plus the split trace.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    pub result: SearchResult,
    pub report: SplitReport,
}

// ---------------------------------------------------------------------------
// shared plumbing

/// Induced subgraph of `g` on the sorted vertex list `verts`, compacted to
/// dense indices (compact `i` = `verts[i]`), and the map back (`pos`).
fn induced(g: &Graph, verts: &[usize]) -> (Graph, Vec<usize>) {
    let mut pos = vec![usize::MAX; g.num_vertices()];
    for (i, &v) in verts.iter().enumerate() {
        pos[v] = i;
    }
    let mut sub = Graph::new(verts.len());
    for (i, &v) in verts.iter().enumerate() {
        for u in g.neighbors(v).iter() {
            if u > v && pos[u] != usize::MAX {
                sub.add_edge(i, pos[u]);
            }
        }
    }
    (sub, pos)
}

/// Canonical text of a compact block: measure tag, vertex count and edge
/// list. Blocks are compacted from sorted vertex lists, so equal labelled
/// blocks — the reuse the block cache targets — get equal keys.
fn block_canon<E: IntoIterator<Item = usize>>(
    tag: &str,
    n: usize,
    edges: impl Iterator<Item = E>,
) -> String {
    use std::fmt::Write;
    let mut s = format!("{tag};v{n}");
    for e in edges {
        s.push_str(";e");
        for v in e {
            let _ = write!(s, ",{v}");
        }
    }
    s
}
/// Re-derives an elimination sequence for the block `verts` from the tree
/// decomposition of the [`EliminationOrdering`] `order` (eliminated from
/// its end) on its induced subgraph, leaving the (clique) `defer` set out
/// entirely: bags are peeled leaf-first toward a bag containing `defer`,
/// which eliminates every other vertex at degree ≤ the decomposition
/// width while the deferred separator stays for a later block. Returns
/// the emitted vertices (all of `verts` minus `defer`) first-eliminated
/// first.
fn peel_ordering(g: &Graph, verts: &[usize], order: &[usize], defer: &[usize]) -> Vec<usize> {
    let (sub, pos) = induced(g, verts);
    let sigma_c: Vec<usize> = order.iter().map(|&v| pos[v]).collect();
    let defer_set = BitSet::from_iter(verts.len(), defer.iter().map(|&v| pos[v]));
    // a clique is always contained in some bag; defensively (that bag is
    // missing, or the block ordering is malformed) fall back to the solver
    // order (the stitched width is re-verified either way)
    let rooted = EliminationOrdering::new(sigma_c).and_then(|sigma| {
        let td = vertex_elimination(&sub, &sigma);
        let root = td
            .nodes()
            .find(|&b| defer_set.iter().all(|v| td.bag(b).contains(v)))?;
        Some((td, root))
    });
    let Some((td, root)) = rooted else {
        return order
            .iter()
            .rev()
            .copied()
            .filter(|&v| !defer.contains(&v))
            .collect();
    };
    // re-root the tree at `root` and peel in reverse-BFS order, emitting
    // each vertex at the bag closest to the root that contains it
    let nb = td.num_nodes();
    let mut parent_new = vec![usize::MAX; nb];
    let mut seen = vec![false; nb];
    let mut bfs = vec![root];
    seen[root] = true;
    let mut i = 0;
    while i < bfs.len() {
        let b = bfs[i];
        i += 1;
        let mut nbrs: Vec<usize> = td.children(b).to_vec();
        if let Some(p) = td.parent(b) {
            nbrs.push(p);
        }
        for t in nbrs {
            if !seen[t] {
                seen[t] = true;
                parent_new[t] = b;
                bfs.push(t);
            }
        }
    }
    let mut emitted = BitSet::new(verts.len());
    let mut out = Vec::with_capacity(verts.len() - defer.len());
    for &b in bfs.iter().rev() {
        for v in td.bag(b).iter() {
            if defer_set.contains(v) || emitted.contains(v) {
                continue;
            }
            if parent_new[b] != usize::MAX && td.bag(parent_new[b]).contains(v) {
                continue;
            }
            emitted.insert(v);
            out.push(verts[v]);
        }
    }
    // completeness insurance: a valid connected decomposition emits every
    // non-deferred vertex above; anything missed is appended canonically
    for (i, &v) in verts.iter().enumerate() {
        if !emitted.contains(i) && !defer_set.contains(i) {
            out.push(v);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// the split driver

/// One block of a plan: its vertices (sorted, in the planner's index
/// space), its separator kind and how it is settled.
struct Block<I> {
    verts: Vec<usize>,
    kind: SeparatorKind,
    work: Work<I>,
}

enum Work<I> {
    /// The compact sub-instance to search (compact `i` = `verts[i]`).
    Search(I),
    /// Settled by the planner at this exact width.
    Settled(usize),
}

enum Plan<S, I> {
    /// Answered without searching any block.
    Settled(Box<SplitOutcome>),
    /// The blocks, plus what stitching their orderings needs; with fewer
    /// than two there is nothing to split.
    Blocks(S, Vec<Block<I>>),
}

/// A solved block: its reported outcome, ordering and search telemetry.
struct Solved {
    out: BlockOutcome,
    ordering: Vec<usize>,
    stats: Option<SearchStats>,
}

impl Solved {
    /// A block answered without search, emitted in canonical order.
    fn fixed<I>(b: &Block<I>, width: usize, lower_bound: usize, exact: bool) -> Solved {
        Solved {
            out: BlockOutcome {
                size: b.verts.len(),
                width,
                lower_bound,
                exact,
                kind: b.kind,
                cache_hit: false,
                nodes: 0,
            },
            ordering: b.verts.clone(),
            stats: None,
        }
    }
}

/// The outcome a search result reports for a block of `size` vertices.
fn outcome(size: usize, kind: SeparatorKind, r: &SearchResult) -> BlockOutcome {
    BlockOutcome {
        size,
        width: r.upper_bound,
        lower_bound: r.lower_bound,
        exact: r.exact,
        kind,
        cache_hit: false,
        nodes: r.nodes_expanded,
    }
}

/// The measure-specific steps of the split layer; [`split`] does the rest.
trait SplitMeasure: MeasureConfig {
    /// What [`SplitMeasure::stitch`] needs beyond the solved blocks.
    type Stitch;

    /// Decomposes `inst`, recording its reductions in `report`.
    fn plan(
        &self,
        inst: &Self::Inst,
        budget: &Budget,
        report: &mut SplitReport,
    ) -> Plan<Self::Stitch, Self::Inst>;
    /// The block-cache key of a compact block.
    fn canon(sub: &Self::Inst) -> String;
    /// A sound width of a block's identity ordering.
    fn degraded_width(sub: &Self::Inst) -> usize;

    /// Joins the block orderings into one ordering of `inst`, raising `ub`
    /// and clearing `exact` where it does not realise `ub`. By default the
    /// concatenation, sound for blocks sharing no vertex (not re-checked).
    fn stitch(
        &self,
        _inst: &Self::Inst,
        _stitch: &Self::Stitch,
        _blocks: &[Block<Self::Inst>],
        solved: &[Solved],
        _ub: &mut usize,
        _exact: &mut bool,
    ) -> Vec<usize> {
        solved.iter().flat_map(|s| &s.ordering).copied().collect()
    }
}

/// One block solve: a [`BlockStore`] hit replays a stored solution,
/// otherwise the budgeted search runs and an exact answer is admitted.
fn solve_block<M: SplitMeasure>(
    m: &M,
    b: &Block<M::Inst>,
    sub: &M::Inst,
    budget: &Budget,
    store: Option<&dyn BlockStore>,
) -> Solved {
    let key = store.map(|s| (s, M::canon(sub)));
    let hit = key.as_ref().and_then(|(s, c)| s.probe(c));
    if let Some(hit) = hit.filter(|hit| hit.ordering.len() == b.verts.len()) {
        let mut s = Solved::fixed(b, hit.width, hit.lower_bound, true);
        s.out.cache_hit = true;
        s.ordering = hit.ordering.iter().map(|&i| b.verts[i]).collect();
        return s;
    }
    let r = sequential(&m.measure(sub), m.knobs(), budget);
    let out = outcome(b.verts.len(), b.kind, &r);
    let ordering_c = r.ordering.unwrap_or_else(|| (0..b.verts.len()).collect());
    if let (true, Some((s, c))) = (out.exact, &key) {
        s.admit(
            c,
            &BlockSolution {
                width: out.width,
                lower_bound: out.lower_bound,
                ordering: ordering_c.clone(),
            },
        );
    }
    Solved {
        out,
        ordering: ordering_c.iter().map(|&i| b.verts[i]).collect(),
        stats: r.stats,
    }
}

/// Plans `inst`, solves its blocks over `threads` workers (`0` = all
/// cores) against the one shared `budget` / cancel token, merges their
/// bounds, and re-derives (or stitches) the whole-instance ordering.
fn split<M: SplitMeasure>(
    m: &M,
    inst: &M::Inst,
    budget: &Budget,
    threads: usize,
    store: Option<&dyn BlockStore>,
) -> SplitOutcome {
    let mut report = SplitReport::default();
    let (stitch, blocks) = match m.plan(inst, budget, &mut report) {
        Plan::Settled(done) => return *done,
        Plan::Blocks(stitch, blocks) if blocks.len() > 1 => (stitch, blocks),
        Plan::Blocks(..) => {
            // nothing to split: the monolithic search is the answer — the
            // work-stealing parallel one when threads were requested, so an
            // irreducible instance loses nothing to the split attempt
            let whole = m.measure(inst);
            let size = whole.graph().num_vertices();
            let result = if threads == 1 {
                sequential(&whole, m.knobs(), budget)
            } else {
                work_stealing(whole, m.knobs(), threads)
            };
            report.blocks = vec![outcome(size, SeparatorKind::Component, &result)];
            return SplitOutcome { result, report };
        }
    };
    report.split = true;
    // fan the searched blocks out; a faulted block is retried once on the
    // caller, and a second fault leaves a sound inexact stand-in
    let searched: Vec<(&Block<M::Inst>, &M::Inst)> = blocks
        .iter()
        .filter_map(|b| match &b.work {
            Work::Search(sub) => Some((b, sub)),
            Work::Settled(_) => None,
        })
        .collect();
    let contained = ghd_par::parallel_map_contained(&searched, threads, |&(b, sub)| {
        solve_block(m, b, sub, budget, store)
    });
    let mut faults = contained.faults;
    // settled blocks rejoin the searched ones in plan order
    let mut slots = contained.results.into_iter().zip(&searched).enumerate();
    let mut solved: Vec<Solved> = blocks
        .iter()
        .map(|b| match b.work {
            Work::Settled(width) => Solved::fixed(b, width, width, true),
            Work::Search(_) => {
                let (i, (slot, &(_, sub))) = slots.next().expect("one slot per searched block");
                slot.unwrap_or_else(|| {
                    ghd_par::run_contained(ghd_par::RETRY_WORKER, i, || {
                        solve_block(m, b, sub, budget, store)
                    })
                    .unwrap_or_else(|fault| {
                        faults.push(fault);
                        Solved::fixed(b, M::degraded_width(sub), 0, false)
                    })
                })
            }
        })
        .collect();
    faults.sort_by_key(|f| f.task);
    let (mut ub, mut lb) = (report.base_width, report.base_width);
    let mut exact = true;
    let mut nodes: u64 = 0;
    for s in &solved {
        ub = ub.max(s.out.width);
        lb = lb.max(s.out.lower_bound);
        exact &= s.out.exact;
        nodes += s.out.nodes;
        report.blocks.push(s.out.clone());
    }
    lb = lb.min(ub);
    // exact runs re-derive the canonical sequential ordering on the whole
    // instance; anytime runs (and an expired witness) stitch block orderings
    let (found, wnodes) = if exact {
        witness(&m.measure(inst), m.knobs(), ub, budget)
    } else {
        (None, 0)
    };
    report.witness_nodes = wnodes;
    nodes += wnodes;
    let ordering = found.unwrap_or_else(|| {
        report.stitched = true;
        m.stitch(inst, &stitch, &blocks, &solved, &mut ub, &mut exact)
    });
    if exact {
        lb = ub;
    }
    let stats = budget.collect_stats().then(|| SearchStats {
        faults: faults.clone(),
        ..SearchStats::merge(solved.iter_mut().filter_map(|s| s.stats.take()))
    });
    SplitOutcome {
        result: SearchResult {
            upper_bound: ub,
            lower_bound: lb,
            exact,
            ordering: Some(ordering),
            nodes_expanded: nodes,
            elapsed: budget.elapsed(),
            cover_cache: None,
            stats,
            faults,
        },
        report,
    }
}

// ---------------------------------------------------------------------------
// treewidth planner

/// A biconnected block in component peel order: its clique atoms (block
/// ids, creation order) and the cut vertex deferred toward later blocks
/// (`None` for the last block of a component).
struct BccPlan {
    verts: Vec<usize>,
    attach: Option<usize>,
    atoms: std::ops::Range<usize>,
}

/// Leaf-peel order for the biconnected blocks of one connected component:
/// repeatedly detach the canonically-first block sharing exactly one
/// vertex with the remaining blocks (the block–cut tree always has such a
/// leaf), recording that vertex as the block's attachment point.
fn peel_bccs(blocks: Vec<Vec<usize>>, n: usize) -> Vec<(Vec<usize>, Option<usize>)> {
    let k = blocks.len();
    if k == 1 {
        return blocks.into_iter().map(|b| (b, None)).collect();
    }
    let mut occ = vec![0usize; n];
    for b in &blocks {
        for &v in b {
            occ[v] += 1;
        }
    }
    let mut remaining = vec![true; k];
    let mut left = k;
    let mut out = Vec::with_capacity(k);
    while left > 1 {
        let leaf = (0..k).find(|&i| {
            remaining[i] && blocks[i].iter().filter(|&&v| occ[v] >= 2).count() == 1
        });
        let Some(i) = leaf else {
            // defensive: cannot happen for a block–cut tree; merge what is
            // left into one block so every vertex is still solved
            debug_assert!(false, "block-cut structure is not a tree");
            let mut merged = BitSet::new(n);
            for (j, b) in blocks.iter().enumerate() {
                if remaining[j] {
                    for &v in b {
                        merged.insert(v);
                    }
                }
            }
            out.push((merged.to_vec(), None));
            return out;
        };
        let attach = blocks[i].iter().copied().find(|&v| occ[v] >= 2);
        for &v in &blocks[i] {
            occ[v] -= 1;
        }
        out.push((blocks[i].clone(), attach));
        remaining[i] = false;
        left -= 1;
    }
    let i = remaining.iter().position(|&r| r).expect("one block remains");
    out.push((blocks[i].clone(), None));
    out
}

/// Decomposition plan for the irreducible core: connected components →
/// biconnected blocks (leaf-peel order) → clique-separator atoms
/// (creation order). Every solve unit is canonical (sorted vertex lists).
fn plan_tw(core: &Graph) -> (Vec<BccPlan>, Vec<Block<Graph>>) {
    let mut units = Vec::new();
    let mut bccs = Vec::new();
    for comp in core.connected_components() {
        let (sub_c, _) = induced(core, &comp);
        let mut blocks: Vec<Vec<usize>> = biconnected_components(&sub_c)
            .blocks
            .into_iter()
            .map(|b| b.into_iter().map(|i| comp[i]).collect())
            .collect();
        blocks.sort();
        let many_bccs = blocks.len() > 1;
        for (bverts, attach) in peel_bccs(blocks, core.num_vertices()) {
            let atoms: Vec<Vec<usize>> = if bverts.len() >= 4 {
                let (sub_b, _) = induced(core, &bverts);
                clique_separator_atoms(&sub_b)
                    .atoms
                    .into_iter()
                    .map(|a| a.into_iter().map(|i| bverts[i]).collect())
                    .collect()
            } else {
                vec![bverts.clone()]
            };
            let kind = if atoms.len() > 1 {
                SeparatorKind::CliqueSeparator
            } else if many_bccs {
                SeparatorKind::CutVertex
            } else {
                SeparatorKind::Component
            };
            let first = units.len();
            for verts in atoms {
                let work = Work::Search(induced(core, &verts).0);
                units.push(Block { verts, kind, work });
            }
            bccs.push(BccPlan {
                verts: bverts,
                attach,
                atoms: first..units.len(),
            });
        }
    }
    (bccs, units)
}

impl SplitMeasure for BbConfig {
    /// The preprocessing (to map core vertices back and append the reduced
    /// ones) and the biconnected blocks in peel order.
    type Stitch = (Preprocessed, Vec<BccPlan>);

    fn plan(
        &self,
        g: &Graph,
        budget: &Budget,
        report: &mut SplitReport,
    ) -> Plan<Self::Stitch, Graph> {
        let pre = preprocess_tw(g);
        report.base_width = pre.base_width;
        report.eliminated = pre.eliminated.len();
        report.rounds = pre.rounds;
        if pre.core.num_vertices() == 0 {
            // fully reduced: reproduce the monolithic ordering via the witness
            let (w, wnodes) = witness_tw(g, pre.base_width, self, budget);
            report.witness_nodes = wnodes;
            let ordering = w.unwrap_or_else(|| {
                report.stitched = true;
                pre.eliminated.iter().rev().copied().collect()
            });
            return Plan::Settled(Box::new(SplitOutcome {
                result: SearchResult {
                    upper_bound: pre.base_width,
                    lower_bound: pre.base_width,
                    exact: true,
                    ordering: Some(ordering),
                    nodes_expanded: wnodes,
                    elapsed: budget.elapsed(),
                    cover_cache: None,
                    stats: None,
                    faults: Vec::new(),
                },
                report: std::mem::take(report),
            }));
        }
        let (bccs, blocks) = plan_tw(&pre.core);
        Plan::Blocks((pre, bccs), blocks)
    }

    fn canon(sub: &Graph) -> String {
        block_canon("tw", sub.num_vertices(), sub.edges().map(|(u, v)| [u, v]))
    }

    fn degraded_width(sub: &Graph) -> usize {
        TwEvaluator::new(sub).width(&EliminationOrdering::identity(sub.num_vertices()))
    }

    /// Stitches the per-unit orderings into one core ordering of width
    /// ≤ max unit widths: atoms of each biconnected block are peeled in
    /// creation order (deferring what later atoms share), each block is
    /// then re-peeled to defer its attachment cut vertex, components
    /// concatenate. The peel builds an elimination sequence (first
    /// eliminated first); the emitted [`EliminationOrdering`] is its
    /// reverse, after the preprocessed vertices' own reversed sequence.
    fn stitch(
        &self,
        g: &Graph,
        (pre, bccs): &Self::Stitch,
        blocks: &[Block<Graph>],
        solved: &[Solved],
        ub: &mut usize,
        exact: &mut bool,
    ) -> Vec<usize> {
        let core = &pre.core;
        let mut core_order = Vec::with_capacity(core.num_vertices());
        for bcc in bccs {
            let mut bcc_order: Vec<usize> = Vec::with_capacity(bcc.verts.len());
            let mut emitted = BitSet::new(core.num_vertices());
            // occurrences of each vertex among the not-yet-peeled atoms
            let mut occ = vec![0usize; core.num_vertices()];
            for b in &blocks[bcc.atoms.clone()] {
                for &v in &b.verts {
                    occ[v] += 1;
                }
            }
            for u in bcc.atoms.clone() {
                let verts = &blocks[u].verts;
                for &v in verts {
                    occ[v] -= 1;
                }
                let defer: Vec<usize> = verts.iter().copied().filter(|&v| occ[v] > 0).collect();
                // an atom sharing nothing with later atoms emits whatever
                // it still owns in solver elimination order
                let own = if defer.is_empty() {
                    solved[u].ordering.iter().rev().copied().collect()
                } else {
                    peel_ordering(core, verts, &solved[u].ordering, &defer)
                };
                bcc_order.extend(own.into_iter().filter(|&v| emitted.insert(v)));
            }
            match bcc.attach {
                Some(c) => {
                    bcc_order.reverse();
                    core_order.extend(peel_ordering(core, &bcc.verts, &bcc_order, &[c]));
                }
                None => core_order.extend_from_slice(&bcc_order),
            }
        }
        let mut o: Vec<usize> = core_order
            .into_iter()
            .rev()
            .map(|v| pre.original_of_core[v])
            .collect();
        o.extend(pre.eliminated.iter().rev());
        // the stitched ordering may only certify what it realises
        match EliminationOrdering::new(o.clone()) {
            Some(sigma) => {
                let w = TwEvaluator::new(g).width(&sigma);
                debug_assert!(w <= *ub, "stitched width {w} exceeds combined bound {ub}");
                if w > *ub {
                    *ub = w;
                    *exact = false;
                }
            }
            None => {
                debug_assert!(false, "stitched ordering is not a permutation");
                *exact = false;
            }
        }
        o
    }
}

/// Treewidth by safe-separator divide and conquer: preprocess, decompose
/// the core, solve each block over `threads` workers (`0` = all cores)
/// against one shared [`Budget`] / cancel token, and recombine. Exact
/// results are bit-identical to the monolithic sequential [`crate::bb_tw`]
/// (see the module notes); anytime results report the stitched ordering,
/// whose width is re-checked with [`TwEvaluator`] before it is claimed.
/// `store` optionally caches exact block solutions across instances.
pub fn split_tw(
    g: &Graph,
    cfg: &BbConfig,
    threads: usize,
    store: Option<&dyn BlockStore>,
) -> SplitOutcome {
    split(cfg, g, &Budget::new(&cfg.limits), threads, store)
}

// ---------------------------------------------------------------------------
// ghw planner

impl SplitMeasure for BbGhwConfig {
    type Stitch = ();

    fn plan(&self, h: &Hypergraph, _: &Budget, report: &mut SplitReport) -> Plan<(), Hypergraph> {
        let n = h.num_vertices();
        // contained-edge reduction: e ⊆ f keeps ghw exactly (f's bag covers e,
        // and f replaces e in any λ-cover without growing it)
        let kept: Vec<usize> = (0..h.num_edges())
            .filter(|&i| {
                let e = h.edge(i);
                !(0..h.num_edges()).any(|j| {
                    j != i && {
                        let f = h.edge(j);
                        e.is_subset(f) && (e.len() < f.len() || j < i)
                    }
                })
            })
            .collect();
        report.contained_edges = h.num_edges() - kept.len();
        let reduced = Hypergraph::from_edges(n, kept.iter().map(|&i| h.edge(i).to_vec()));
        let comps = hypergraph_components(&reduced);
        if h.covered_vertices().is_empty() {
            return Plan::Blocks((), Vec::new());
        }
        // classify components canonically; compact sub-hypergraphs for search
        let mut pos = vec![usize::MAX; n];
        let mut blocks = Vec::with_capacity(comps.len());
        for verts in comps {
            for (i, &v) in verts.iter().enumerate() {
                pos[v] = i;
            }
            let in_comp: Vec<usize> = kept
                .iter()
                .copied()
                .filter(|&e| {
                    h.edge(e)
                        .min()
                        .is_some_and(|v| verts.binary_search(&v).is_ok())
                })
                .collect();
            let (kind, work) = match in_comp.len() {
                // vertices covered by no hyperedge: width 0
                0 => (SeparatorKind::Component, Work::Settled(0)),
                // a single hyperedge sharing no vertex with any other: width 1
                1 => (SeparatorKind::IsolatedEdge, Work::Settled(1)),
                _ => {
                    let edges = in_comp
                        .iter()
                        .map(|&e| h.edge(e).iter().map(|v| pos[v]).collect::<Vec<_>>());
                    let sub = Hypergraph::from_edges(verts.len(), edges);
                    (SeparatorKind::Component, Work::Search(sub))
                }
            };
            blocks.push(Block { verts, kind, work });
        }
        Plan::Blocks((), blocks)
    }

    fn canon(sub: &Hypergraph) -> String {
        let edges = sub.edges().iter().map(BitSet::iter);
        block_canon("ghw", sub.num_vertices(), edges)
    }

    /// Every hyperedge together covers any bag.
    fn degraded_width(sub: &Hypergraph) -> usize {
        sub.num_edges().max(1)
    }
}

/// Generalized hypertree width by the provably safe ghw reductions:
/// contained-edge removal, hypergraph connected components and the
/// isolated-edge shortcut. Components are solved over `threads` workers
/// (`0` = all cores) against one shared [`Budget`] and concatenated —
/// components are independent in the primal graph, so the combined width
/// is the maximum. Exact results are bit-identical to the monolithic
/// sequential [`crate::bb_ghw()`] via witness reconstruction on the whole
/// instance. Anytime results keep the concatenated ordering, which is not
/// re-checked here (see the module notes).
pub fn split_ghw(
    h: &Hypergraph,
    cfg: &BbGhwConfig,
    threads: usize,
    store: Option<&dyn BlockStore>,
) -> SplitOutcome {
    split(cfg, h, &Budget::new(&cfg.limits), threads, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::SearchLimits;
    use crate::{bb_ghw, bb_tw};
    use ghd_core::EliminationOrdering;
    use ghd_hypergraph::generators::graphs;

    fn cfg() -> BbConfig {
        BbConfig::default()
    }

    /// Four Mycielski(3) blocks: two glued on the edge {0, 1} (a clique
    /// separator), one attached at the cut vertex 4, one disjoint. The
    /// Grötzsch graph is triangle-free with minimum degree 3, so none of
    /// its vertices are (almost) simplicial and every block survives
    /// preprocessing intact.
    fn blocky_graph() -> Graph {
        let m = graphs::mycielski(3);
        let mn = m.num_vertices(); // 11
        let mut g = Graph::new(41);
        for (u, v) in m.edges() {
            g.add_edge(u, v);
        }
        // b glued on the clique-separator edge {0, 1} of a
        let bm: Vec<usize> = (0..mn)
            .map(|i| match i {
                0 => 0,
                1 => 1,
                k => 9 + k,
            })
            .collect();
        for (u, v) in m.edges() {
            g.add_edge(bm[u], bm[v]);
        }
        // c attached at the cut vertex 4
        let cm: Vec<usize> = (0..mn).map(|i| if i == 0 { 4 } else { 19 + i }).collect();
        for (u, v) in m.edges() {
            g.add_edge(cm[u], cm[v]);
        }
        // d: a disjoint component
        for (u, v) in m.edges() {
            g.add_edge(30 + u, 30 + v);
        }
        g
    }

    #[test]
    fn split_tw_matches_monolithic_bitwise() {
        let g = blocky_graph();
        let mono = bb_tw(&g, &cfg());
        for threads in [1, 2, 4] {
            let s = split_tw(&g, &cfg(), threads, None);
            assert!(s.result.exact && mono.exact);
            assert_eq!(s.result.upper_bound, mono.upper_bound, "threads {threads}");
            assert_eq!(s.result.ordering, mono.ordering, "threads {threads}");
            assert!(s.report.split);
            assert!(s.report.blocks.len() >= 3, "{:?}", s.report.blocks);
        }
    }

    #[test]
    fn split_tw_on_random_graphs_matches_widths() {
        for seed in 0..6u64 {
            let g = graphs::gnm_random(18, 30, seed);
            let mono = bb_tw(&g, &cfg());
            let s = split_tw(&g, &cfg(), 2, None);
            assert!(s.result.exact && mono.exact, "seed {seed}");
            assert_eq!(s.result.upper_bound, mono.upper_bound, "seed {seed}");
            assert_eq!(s.result.ordering, mono.ordering, "seed {seed}");
        }
    }

    #[test]
    fn stitched_ordering_realises_the_width() {
        // force the stitched path by exhausting the witness budget is
        // flaky; instead verify the stitch directly on an anytime-style
        // run: solve blocks, stitch, and evaluate
        let g = blocky_graph();
        let s = split_tw(&g, &cfg(), 1, None);
        let sigma = EliminationOrdering::new(s.result.ordering.clone().unwrap()).unwrap();
        let w = TwEvaluator::new(&g).width(&sigma);
        assert_eq!(w, s.result.upper_bound);
    }

    /// Two queen(4) glued at one cut vertex under a 20-node budget: the
    /// whole-instance witness runs out, so the ordering is stitched, and
    /// it must realise no more than the widest block's width.
    #[test]
    fn anytime_stitch_realises_the_widest_block() {
        let q = graphs::queen(4);
        let shift = |v: usize| if v == 0 { 0 } else { v + 15 };
        let mut g = Graph::new(31);
        for (u, v) in q.edges() {
            g.add_edge(u, v);
            g.add_edge(shift(u), shift(v));
        }
        let cfg = BbConfig {
            limits: SearchLimits::with_nodes(20),
            ..cfg()
        };
        let s = split_tw(&g, &cfg, 1, None);
        assert!(s.report.split && s.report.stitched, "{:?}", s.report);
        let widest = s.report.blocks.iter().map(|b| b.width).max().expect("blocks");
        let sigma = EliminationOrdering::new(s.result.ordering.clone().unwrap()).unwrap();
        let stitched = TwEvaluator::new(&g).width(&sigma);
        assert!(stitched <= widest, "stitched width {stitched} > widest block {widest}");
        assert!(s.result.upper_bound <= widest);
    }

    #[test]
    fn split_reports_separator_kinds() {
        let g = blocky_graph();
        let s = split_tw(&g, &cfg(), 1, None);
        let kinds: Vec<SeparatorKind> = s.report.blocks.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&SeparatorKind::CliqueSeparator), "{kinds:?}");
    }

    #[test]
    fn split_tw_fully_reduced_graphs() {
        let g = graphs::path(12);
        let mono = bb_tw(&g, &cfg());
        let s = split_tw(&g, &cfg(), 2, None);
        assert_eq!(s.result.upper_bound, 1);
        assert!(s.result.exact);
        assert_eq!(s.result.ordering, mono.ordering);
        assert!(s.report.eliminated > 0);
        assert!(s.report.rounds > 0);
    }

    #[test]
    fn split_tw_single_block_falls_back() {
        let g = graphs::queen(4);
        let mono = bb_tw(&g, &cfg());
        let s = split_tw(&g, &cfg(), 2, None);
        assert!(!s.report.split);
        assert_eq!(s.result.upper_bound, mono.upper_bound);
        assert_eq!(s.result.ordering, mono.ordering);
    }

    /// Two disjoint cycle hypergraphs plus an isolated edge.
    fn two_cycles_and_an_edge() -> Hypergraph {
        let mut edges: Vec<Vec<usize>> = Vec::new();
        for c in 0..2 {
            let base = c * 5;
            for i in 0..5 {
                edges.push(vec![base + i, base + (i + 1) % 5]);
            }
        }
        edges.push(vec![10, 11, 12]);
        Hypergraph::from_edges(13, edges)
    }

    #[test]
    fn split_ghw_matches_monolithic_bitwise() {
        let h = two_cycles_and_an_edge();
        let gcfg = BbGhwConfig::default();
        let mono = bb_ghw(&h, &gcfg);
        for threads in [1, 2, 4] {
            let s = split_ghw(&h, &gcfg, threads, None);
            assert!(s.result.exact && mono.exact);
            assert_eq!(s.result.upper_bound, mono.upper_bound);
            assert_eq!(s.result.ordering, mono.ordering, "threads {threads}");
            assert!(s.report.split);
            assert!(s
                .report
                .blocks
                .iter()
                .any(|b| b.kind == SeparatorKind::IsolatedEdge));
        }
    }

    #[test]
    fn split_ghw_contained_edges_are_counted() {
        let h = Hypergraph::from_edges(
            6,
            [vec![0, 1, 2], vec![0, 1], vec![3, 4], vec![4, 5]],
        );
        let s = split_ghw(&h, &BbGhwConfig::default(), 1, None);
        assert_eq!(s.report.contained_edges, 1);
        assert!(s.result.exact);
    }

    #[test]
    fn split_respects_cancellation() {
        use crate::common::CancelToken;
        let token = CancelToken::arm();
        token.cancel();
        let mut c = cfg();
        c.limits = SearchLimits::unlimited().with_cancel(token);
        let g = blocky_graph();
        let s = split_tw(&g, &c, 2, None);
        // a pre-cancelled run stays sound: the emitted ordering realises
        // no more than the claimed upper bound
        let sigma = EliminationOrdering::new(s.result.ordering.clone().unwrap()).unwrap();
        let w = TwEvaluator::new(&g).width(&sigma);
        assert!(s.result.upper_bound >= s.result.lower_bound);
        assert!(w <= s.result.upper_bound, "{w} > {}", s.result.upper_bound);
    }

    #[test]
    fn split_ghw_anytime_stays_sound() {
        use crate::common::CancelToken;
        use ghd_core::bucket::ghd_from_ordering;
        use ghd_core::CoverMethod;
        let h = two_cycles_and_an_edge();
        let token = CancelToken::arm();
        token.cancel();
        for limits in [
            SearchLimits::unlimited().with_cancel(token),
            SearchLimits::with_nodes(1),
        ] {
            let c = BbGhwConfig {
                limits,
                ..BbGhwConfig::default()
            };
            let r = split_ghw(&h, &c, 2, None).result;
            assert!(r.lower_bound <= r.upper_bound, "{r:?}");
            let sigma = EliminationOrdering::new(r.ordering.clone().unwrap())
                .expect("the emitted ordering is a permutation");
            // the exact-cover decomposition of the ordering is valid and
            // realises no more than the claimed upper bound
            let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
            ghd.verify(&h).expect("the decomposition verifies");
            assert!(ghd.width() <= r.upper_bound, "{r:?}");
        }
    }

    #[test]
    fn peel_ordering_defers_the_separator() {
        // K4 on {0,1,2,3}: defer the clique {2,3}
        let mut g = Graph::new(4);
        for i in 0..4 {
            for j in i + 1..4 {
                g.add_edge(i, j);
            }
        }
        let out = peel_ordering(&g, &[0, 1, 2, 3], &[3, 2, 1, 0], &[2, 3]);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }
}
