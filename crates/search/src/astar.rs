//! Best-first search over the elimination-ordering tree, once for every
//! width measure: A\*-tw (Chapter 5, Fig 5.1: min-fill upper bound, the
//! combined minor-min-width / minor-γ_R lower bound, reductions and PR2)
//! and A\*-ghw (Chapter 9, Fig 9.1: the BB-ghw cost and heuristic on the
//! same state machinery).
//!
//! The search state machinery follows §5.2: a single elimination graph is
//! transformed between visited states by restoring to the common prefix of
//! the two elimination paths (§5.2.1); visited states keep only their parent
//! link and vertex for path reconstruction, and their child lists are freed
//! after expansion (§5.2.3). Visiting order is (f ascending, depth
//! descending) per §5.3, and the maximum f-value of visited states is an
//! anytime lower bound.

use crate::bb::LbMode;
use crate::common::{complete_ordering, Budget, SearchLimits, SearchResult};
use crate::measure::{open_root, Ghw, Measure, Tw};
use crate::queue::BucketQueue;
use crate::rules::child_successors;
use ghd_core::setcover::CoverMethod;
use ghd_hypergraph::{EliminationGraph, Graph, Hypergraph};

struct Node {
    parent: u32,
    vertex: u32,
    g: u32,
    f: u32,
    depth: u32,
    reduced: bool,
    /// Candidate vertices to eliminate next; freed after expansion (§5.2.3).
    children: Vec<u32>,
}

/// Rebuilds the elimination path (root → node) of `id` into `path`
/// (a reusable scratch buffer — states store only `(parent, vertex)`).
fn path_of_into(nodes: &[Node], mut id: u32, path: &mut Vec<u32>) {
    path.clear();
    while id != 0 {
        path.push(nodes[id as usize].vertex);
        id = nodes[id as usize].parent;
    }
    path.reverse();
}

/// Transforms `eg` from the state reached via `current` to the state of
/// `target` by restoring to the common prefix and eliminating the rest.
fn transform(eg: &mut EliminationGraph, current: &mut Vec<u32>, target: &[u32]) {
    let common = current
        .iter()
        .zip(target)
        .take_while(|(a, b)| a == b)
        .count();
    while current.len() > common {
        eg.restore();
        current.pop();
    }
    for &v in &target[common..] {
        eg.eliminate(v as usize);
        current.push(v);
    }
}

/// Computes the treewidth of `g` with A\*. Exact when it terminates within
/// limits; otherwise an anytime lower bound (§5.3) plus the heuristic upper
/// bound are reported.
pub fn astar_tw(g: &Graph, limits: SearchLimits) -> SearchResult {
    astar(
        &Tw {
            g,
            lb_mode: LbMode::MmwGammaR,
        },
        &limits,
    )
}

/// Computes the generalized hypertree width of `h` with A\*. Exact when it
/// terminates within limits; otherwise the maximum visited f-value is
/// reported as an anytime lower bound (the thesis notes A\*-ghw "returned
/// improved lower bounds" for several instances).
pub fn astar_ghw(h: &Hypergraph, limits: SearchLimits) -> SearchResult {
    // best-first expansion order revisits the same bags from many prefixes;
    // the transposition cache answers repeats without re-running the cover
    // branch and bound
    astar(&Ghw::new(h, CoverMethod::Exact, true), &limits)
}

fn astar<M: Measure>(m: &M, limits: &SearchLimits) -> SearchResult {
    let n = m.graph().num_vertices();
    let budget = Budget::new(limits);
    let mut ticker = budget.worker();
    let root = match open_root(m, limits.collect_stats, &budget) {
        Ok(root) => root,
        Err(solved) => return *solved,
    };
    let (root_lb, ub) = (root.lb, root.ub);
    let mut telemetry = root.telemetry;
    let mut w = m.worker();
    let mut eg = EliminationGraph::new(m.graph());
    let mut nodes: Vec<Node> = Vec::new();
    let mut queue = BucketQueue::new();
    let mut lb = root_lb;
    // Duplicate detection: two states with the same eliminated set have the
    // same residual graph; the one with smaller g dominates (an improvement
    // over the thesis' A*, see DESIGN.md). The alive sets are interned into
    // the measure's interner (for ghw shared with the cover-cache targets:
    // one arena, one id space); the best g per state lives in the dense side
    // table `seen_g` (`u32::MAX` = never visited), and `seen_count` counts
    // closed-set insertions only.
    let mut seen_g: Vec<u32> = Vec::new();
    let mut seen_count: usize = 0;

    let root_children: Vec<u32> = match m.reduction(&eg, root_lb) {
        Some(v) => vec![v as u32],
        None => eg.alive().iter().map(|v| v as u32).collect(),
    };
    nodes.push(Node {
        parent: 0,
        vertex: u32::MAX,
        g: 0,
        f: root_lb as u32,
        depth: 0,
        reduced: root_children.len() == 1 && n > 1,
        children: root_children,
    });
    queue.push(root_lb, 0, 0);

    let mut current_path: Vec<u32> = Vec::new();
    let mut target_path: Vec<u32> = Vec::new();

    // Every exit yields (upper bound, the lower bound proven if nothing
    // degraded, ordering).
    let (upper, proven, ordering) = loop {
        let Some(entry_id) = queue.pop() else {
            // queue exhausted: every state with f < ub was visited
            break (ub, ub, root.order);
        };
        let entry_f = nodes[entry_id as usize].f as usize;
        if !ticker.tick() {
            // anytime: report the best proven lower bound (§5.3)
            break (ub, lb.max(entry_f).min(ub), root.order);
        }
        let s_id = entry_id as usize;
        path_of_into(&nodes, entry_id, &mut target_path);
        transform(&mut eg, &mut current_path, &target_path);

        // new lower bound found: the visited f-sequence is nondecreasing
        if (nodes[s_id].f as usize) > lb {
            lb = nodes[s_id].f as usize;
            telemetry.sample(budget.elapsed(), ub, lb.min(ub));
        }

        // goal: the partial solution already dominates the rest, so
        // finishing in any order realises exactly g
        let (s_g, s_f, s_depth) = (nodes[s_id].g, nodes[s_id].f, nodes[s_id].depth);
        if m.completion(&mut w, &eg) <= s_g as usize {
            let path: Vec<usize> = target_path.iter().map(|&v| v as usize).collect();
            break (
                s_g as usize,
                s_g as usize,
                complete_ordering(n, &path, (0..n).collect()),
            );
        }

        // expand: evaluate children of s
        let s_children = std::mem::take(&mut nodes[s_id].children); // §5.2.3
        let s_reduced = nodes[s_id].reduced;
        if s_reduced {
            telemetry.prune(|p| p.simplicial += 1);
        }
        for &v in &s_children {
            let v_us = v as usize;
            let (k, cost_exact) = m.cost(&mut w, &eg, v_us, ub);
            if !cost_exact {
                telemetry.prune(|p| p.capped_covers += 1);
            }
            eg.eliminate(v_us);
            let t_g = s_g.max(k as u32);
            let mut t_f = t_g.max(s_f);
            if (t_f as usize) < ub {
                t_f = t_f.max(m.residual_lb(&mut w, &eg) as u32);
            }
            let dominated = (t_f as usize) < ub && {
                let (key, _) = m.interner(&mut w).intern(eg.alive().blocks());
                let k = key as usize;
                if seen_g.len() <= k {
                    seen_g.resize(k + 1, u32::MAX);
                }
                if seen_g[k] <= t_g {
                    true
                } else {
                    if seen_g[k] == u32::MAX {
                        seen_count += 1;
                    }
                    seen_g[k] = t_g;
                    false
                }
            };
            if (t_f as usize) >= ub {
                telemetry.prune(|p| p.f_prunes += 1);
            } else if dominated {
                telemetry.prune(|p| p.dominance_hits += 1);
            }
            let mut unreduced = None;
            if (t_f as usize) < ub && !dominated {
                let forced = m.reduction(&eg, t_f as usize);
                let id = nodes.len() as u32;
                nodes.push(Node {
                    parent: entry_id,
                    vertex: v,
                    g: t_g,
                    f: t_f,
                    depth: s_depth + 1,
                    reduced: forced.is_some(),
                    children: forced.map(|w| vec![w as u32]).unwrap_or_default(),
                });
                queue.push(t_f as usize, (s_depth + 1) as usize, id);
                if forced.is_none() {
                    unreduced = Some(id as usize);
                }
            }
            eg.restore();
            // PR2 is evaluated in G^s, so a pushed child's successors are
            // listed only now, back in the parent graph
            if let Some(id) = unreduced {
                let children = child_successors(&eg, v_us, (!s_reduced).then_some(M::swappable));
                let cut = (eg.num_alive() - 1 - children.len()) as u64;
                telemetry.prune(|p| p.pr2_filtered += cut);
                nodes[id].children = children;
            }
        }
        if telemetry.on() {
            let seen_bytes = m.interner(&mut w).bytes()
                + seen_g.capacity() * std::mem::size_of::<u32>()
                + m.cache_bytes(&w);
            telemetry.peaks(queue.len(), seen_count, queue.bytes(), seen_bytes);
        }
    };

    // Optimality of the first goal and the visited-f bound both rely on the
    // proven pop order. A detected below-floor queue push (clamped so it
    // still pops) voids that order exactly like an inexact cost voids f:
    // the result falls back to the root bound and claims no exactness.
    let qd = queue.degraded();
    telemetry.note(|s| s.queue_degraded |= qd);
    let degraded = qd || m.degraded(&w);
    let lower = if degraded { root_lb.min(upper) } else { proven };
    telemetry.sample(budget.elapsed(), upper, lower);
    let cover_cache = m.cache_stats(&w).map(|(local, _)| local);
    if let Some(s) = cover_cache {
        telemetry.cache(s);
    }
    SearchResult {
        upper_bound: upper,
        lower_bound: lower,
        exact: !degraded && proven >= upper,
        ordering: Some(ordering),
        nodes_expanded: ticker.nodes(),
        elapsed: budget.elapsed(),
        cover_cache,
        stats: telemetry.finish(),
        faults: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    mod tw {
        use super::super::*;
        use crate::bb::{bb_tw, BbConfig};
        use ghd_core::eval::TwEvaluator;
        use ghd_core::EliminationOrdering;
        use ghd_hypergraph::generators::graphs;

        fn exact_tw(g: &Graph) -> usize {
            let r = astar_tw(g, SearchLimits::unlimited());
            assert!(r.exact, "A* did not complete");
            r.upper_bound
        }

        #[test]
        fn basic_families() {
            assert_eq!(exact_tw(&graphs::path(8)), 1);
            assert_eq!(exact_tw(&graphs::cycle(9)), 2);
            assert_eq!(exact_tw(&graphs::complete(7)), 6);
            assert_eq!(exact_tw(&graphs::mycielski(3)), 5); // Table 5.1: myciel3
        }

        #[test]
        fn grids_match_table_5_2() {
            for n in 2..=4 {
                assert_eq!(exact_tw(&graphs::grid(n)), n, "grid{n}");
            }
        }

        #[test]
        fn agrees_with_branch_and_bound_on_random_graphs() {
            for seed in 0..8u64 {
                let g = graphs::gnm_random(13, 30, seed);
                let a = astar_tw(&g, SearchLimits::unlimited());
                let b = bb_tw(&g, &BbConfig::default());
                assert!(a.exact && b.exact);
                assert_eq!(a.upper_bound, b.upper_bound, "seed {seed}");
            }
        }

        #[test]
        fn goal_ordering_realises_width() {
            let g = graphs::grid(4);
            let r = astar_tw(&g, SearchLimits::unlimited());
            if let Some(o) = r.ordering {
                let sigma = EliminationOrdering::new(o).unwrap();
                let w = TwEvaluator::new(&g).width(&sigma);
                assert!(w <= r.upper_bound);
            }
        }

        #[test]
        fn anytime_lower_bound_is_sound() {
            let g = graphs::queen(5); // tw = 18, too hard for 200 expansions
            let r = astar_tw(&g, SearchLimits::with_nodes(200));
            assert!(r.lower_bound <= 18);
            assert!(r.lower_bound >= 1);
            assert!(r.upper_bound >= 18);
            assert!(
                r.nodes_expanded <= 200,
                "budget overrun: {}",
                r.nodes_expanded
            );
        }

        #[test]
        fn stats_collection_is_behaviourally_free() {
            for (g, limits) in [
                (graphs::grid(4), SearchLimits::unlimited()),
                (graphs::queen(5), SearchLimits::with_nodes(200)),
            ] {
                let off = astar_tw(&g, limits.clone());
                let on = astar_tw(&g, limits.stats(true));
                assert_eq!(on.upper_bound, off.upper_bound);
                assert_eq!(on.lower_bound, off.lower_bound);
                assert_eq!(on.ordering, off.ordering);
                assert_eq!(on.nodes_expanded, off.nodes_expanded);
                assert!(off.stats.is_none());
                let stats = on.stats.expect("stats requested");
                assert!(!stats.incumbents.is_empty());
                if on.nodes_expanded > 1 {
                    assert!(stats.open_peak > 0, "heap high-water mark recorded");
                    assert!(stats.seen_peak > 0, "seen-set high-water mark recorded");
                }
            }
        }

        #[test]
        fn transform_walks_between_arbitrary_states() {
            let g = graphs::grid(3);
            let mut eg = EliminationGraph::new(&g);
            let snapshot = eg.to_graph();
            let mut cur: Vec<u32> = Vec::new();
            transform(&mut eg, &mut cur, &[0, 1, 2]);
            assert_eq!(eg.num_alive(), 6);
            transform(&mut eg, &mut cur, &[0, 5]);
            assert_eq!(eg.num_alive(), 7);
            assert_eq!(cur, vec![0, 5]);
            transform(&mut eg, &mut cur, &[]);
            assert_eq!(eg.to_graph(), snapshot);
        }
    }

    mod ghw {
        use super::super::*;
        use crate::bb::{bb_ghw, BbGhwConfig};
        use ghd_core::bucket::ghd_from_ordering;
        use ghd_core::setcover::CoverMethod;
        use ghd_core::EliminationOrdering;
        use ghd_hypergraph::generators::hypergraphs;

        fn exact_ghw(h: &Hypergraph) -> usize {
            let r = astar_ghw(h, SearchLimits::unlimited());
            assert!(r.exact, "A*-ghw did not complete");
            r.upper_bound
        }

        #[test]
        fn acyclic_and_clique_families() {
            assert_eq!(exact_ghw(&hypergraphs::acyclic_chain(4, 3, 1)), 1);
            assert_eq!(exact_ghw(&hypergraphs::clique(6)), 3);
            assert_eq!(exact_ghw(&hypergraphs::clique(5)), 3);
        }

        #[test]
        fn example5_has_ghw_2() {
            let h = Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
            assert_eq!(exact_ghw(&h), 2);
        }

        #[test]
        fn agrees_with_bb_ghw_on_random_hypergraphs() {
            for seed in 0..8u64 {
                let h = hypergraphs::random_hypergraph(11, 7, 3, seed);
                let a = astar_ghw(&h, SearchLimits::unlimited());
                let b = bb_ghw(&h, &BbGhwConfig::default());
                assert!(a.exact && b.exact);
                assert_eq!(a.upper_bound, b.upper_bound, "seed {seed}");
            }
        }

        #[test]
        fn goal_ordering_is_a_valid_witness() {
            let h = hypergraphs::clique(5);
            let r = astar_ghw(&h, SearchLimits::unlimited());
            if r.nodes_expanded > 0 {
                let sigma = EliminationOrdering::new(r.ordering.clone().unwrap()).unwrap();
                let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
                ghd.verify(&h).unwrap();
                assert_eq!(ghd.width(), r.upper_bound);
            }
        }

        #[test]
        fn anytime_lower_bound_is_sound() {
            let h = hypergraphs::grid2d(6);
            let r = astar_ghw(&h, SearchLimits::with_nodes(50));
            let full = bb_ghw(&h, &BbGhwConfig::default());
            if full.exact {
                assert!(r.lower_bound <= full.upper_bound);
            }
            assert!(
                r.nodes_expanded <= 50,
                "budget overrun: {}",
                r.nodes_expanded
            );
        }

        #[test]
        fn stats_collection_is_behaviourally_free() {
            for seed in 0..3u64 {
                let h = hypergraphs::random_hypergraph(11, 7, 3, seed);
                for limits in [SearchLimits::unlimited(), SearchLimits::with_nodes(60)] {
                    let off = astar_ghw(&h, limits.clone());
                    let on = astar_ghw(&h, limits.stats(true));
                    assert_eq!(on.upper_bound, off.upper_bound, "seed {seed}");
                    assert_eq!(on.lower_bound, off.lower_bound, "seed {seed}");
                    assert_eq!(on.ordering, off.ordering, "seed {seed}");
                    assert_eq!(on.nodes_expanded, off.nodes_expanded, "seed {seed}");
                    assert_eq!(on.cover_cache, off.cover_cache, "seed {seed}");
                    assert!(off.stats.is_none());
                    let stats = on.stats.expect("stats requested");
                    assert!(!stats.incumbents.is_empty(), "seed {seed}");
                }
            }
        }
    }
}
