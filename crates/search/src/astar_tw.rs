//! Algorithm A\*-tw (Chapter 5, Fig 5.1): best-first search over the
//! elimination-ordering tree, with min-fill upper bound, the combined
//! minor-min-width / minor-γ_R lower bound, reductions and PR2.
//!
//! The search state machinery follows §5.2: a single elimination graph is
//! transformed between visited states by restoring to the common prefix of
//! the two elimination paths (§5.2.1); visited states keep only their parent
//! link and vertex for path reconstruction, and their child lists are freed
//! after expansion (§5.2.3). Visiting order is (f ascending, depth
//! descending) per §5.3, and the maximum f-value of visited states is an
//! anytime treewidth lower bound.

use crate::common::{Budget, SearchLimits, SearchResult, Telemetry};
use crate::interner::StateInterner;
use crate::queue::BucketQueue;
use crate::rules::{child_successors, find_reduction_tw, swappable_tw};
use ghd_bounds::lower::{tw_lower_bound, tw_lower_bound_elim, LbScratch};
use ghd_bounds::upper::tw_upper_bound;
use ghd_hypergraph::{EliminationGraph, Graph};

pub(crate) struct Node {
    pub parent: u32,
    pub vertex: u32,
    pub g: u32,
    pub f: u32,
    pub depth: u32,
    pub reduced: bool,
    /// Candidate vertices to eliminate next; freed after expansion (§5.2.3).
    pub children: Vec<u32>,
}

/// Rebuilds the elimination path (root → node) of `id` into `path`
/// (a reusable scratch buffer — states store only `(parent, vertex)`).
pub(crate) fn path_of_into(nodes: &[Node], mut id: u32, path: &mut Vec<u32>) {
    path.clear();
    while id != 0 {
        path.push(nodes[id as usize].vertex);
        id = nodes[id as usize].parent;
    }
    path.reverse();
}

/// Transforms `eg` from the state reached via `current` to the state of
/// `target` by restoring to the common prefix and eliminating the rest.
pub(crate) fn transform(eg: &mut EliminationGraph, current: &mut Vec<u32>, target: &[u32]) {
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
    let n = g.num_vertices();
    let budget = Budget::new(&limits);
    let mut ticker = budget.worker();
    let mut telemetry = Telemetry::new(limits.collect_stats);
    let root_lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(g, None);
    let (ub, ub_order) = tw_upper_bound::<ghd_prng::rngs::StdRng>(g, None);
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

    let mut eg = EliminationGraph::new(g);
    let mut nodes: Vec<Node> = Vec::new();
    let mut queue = BucketQueue::new();
    let mut lb = root_lb;
    let mut lb_scratch = LbScratch::new();
    // duplicate detection: two states with the same eliminated set have the
    // same residual graph; the one with smaller g dominates (an improvement
    // over the thesis' A*, see DESIGN.md). The alive bitset's blocks are
    // hash-consed into `seen` (probes hash the borrowed `&[u64]`, the
    // canonical copy lands once in the bump arena) and the best g per state
    // lives in the dense side table `seen_g` (`u32::MAX` = unvisited).
    let mut seen = StateInterner::for_vertices(n);
    let mut seen_g: Vec<u32> = Vec::new();

    // root state
    let root_children: Vec<u32> = match find_reduction_tw(&eg, root_lb) {
        Some(w) => vec![w as u32],
        None => eg.alive().iter().map(|v| v as u32).collect(),
    };
    let root_reduced = root_children.len() == 1 && n > 1;
    nodes.push(Node {
        parent: 0,
        vertex: u32::MAX,
        g: 0,
        f: root_lb as u32,
        depth: 0,
        reduced: root_reduced,
        children: root_children,
    });
    queue.push(root_lb, 0, 0);

    let mut current_path: Vec<u32> = Vec::new();
    let mut target_path: Vec<u32> = Vec::new();

    while let Some(entry_id) = queue.pop() {
        let entry_f = nodes[entry_id as usize].f;
        if !ticker.tick() {
            // anytime: report the best proven lower bound (§5.3). A
            // degraded queue (below-floor push, detected and clamped)
            // voids the visited-f argument: fall back to the root bound.
            let qd = queue.degraded();
            telemetry.note(|s| s.queue_degraded |= qd);
            let lower_bound = if qd {
                root_lb.min(ub)
            } else {
                lb.max(entry_f as usize).min(ub)
            };
            telemetry.sample(budget.elapsed(), ub, lower_bound);
            return SearchResult {
                upper_bound: ub,
                lower_bound,
                exact: !qd && lb.max(entry_f as usize) >= ub,
                ordering: Some(ub_order.into_vec()),
                nodes_expanded: ticker.nodes(),
                elapsed: budget.elapsed(),
                cover_cache: None,
                stats: telemetry.finish(),
                faults: Vec::new(),
            };
        }
        let s_id = entry_id as usize;
        path_of_into(&nodes, entry_id, &mut target_path);
        transform(&mut eg, &mut current_path, &target_path);

        // new lower bound found: the visited f-sequence is nondecreasing
        if (nodes[s_id].f as usize) > lb {
            lb = nodes[s_id].f as usize;
            telemetry.sample(budget.elapsed(), ub, lb.min(ub));
        }

        // goal: the partial solution already dominates the rest
        if nodes[s_id].g as usize >= eg.num_alive().saturating_sub(1) {
            let mut order: Vec<usize> = {
                let in_path: std::collections::HashSet<u32> = target_path.iter().copied().collect();
                (0..n).filter(|&v| !in_path.contains(&(v as u32))).collect()
            };
            order.extend(target_path.iter().rev().map(|&v| v as usize));
            let width = nodes[s_id].g as usize;
            // optimality of the first goal relies on the proven pop order;
            // a degraded queue can only claim the ordering as an upper bound
            let qd = queue.degraded();
            telemetry.note(|s| s.queue_degraded |= qd);
            let lower_bound = if qd { root_lb.min(width) } else { width };
            telemetry.sample(budget.elapsed(), width, lower_bound);
            return SearchResult {
                upper_bound: width,
                lower_bound,
                exact: !qd,
                ordering: Some(order),
                nodes_expanded: ticker.nodes(),
                elapsed: budget.elapsed(),
                cover_cache: None,
                stats: telemetry.finish(),
                faults: Vec::new(),
            };
        }

        // expand: evaluate children of s
        let s_children = std::mem::take(&mut nodes[s_id].children); // §5.2.3
        let s_reduced = nodes[s_id].reduced;
        if s_reduced {
            telemetry.prune(|p| p.simplicial += 1);
        }
        let (s_g, s_f, s_depth) = (nodes[s_id].g, nodes[s_id].f, nodes[s_id].depth);
        for &v in &s_children {
            let v_us = v as usize;
            let d = eg.eliminate(v_us) as u32;
            let t_g = s_g.max(d);
            let mut t_f = t_g.max(s_f);
            if (t_f as usize) < ub {
                let h = tw_lower_bound_elim(&eg, &mut lb_scratch) as u32;
                t_f = t_f.max(h);
            }
            let dominated = (t_f as usize) < ub && {
                let (key, _) = seen.intern(eg.alive().blocks());
                let k = key as usize;
                if seen_g.len() <= k {
                    seen_g.resize(k + 1, u32::MAX);
                }
                if seen_g[k] <= t_g {
                    true
                } else {
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
                let forced = find_reduction_tw(&eg, t_f as usize);
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
                let children = child_successors(&eg, v_us, (!s_reduced).then_some(swappable_tw));
                let cut = (eg.num_alive() - 1 - children.len()) as u64;
                telemetry.prune(|p| p.pr2_filtered += cut);
                nodes[id].children = children;
            }
        }
        if telemetry.on() {
            telemetry.peaks(
                queue.len(),
                seen.len(),
                queue.bytes(),
                seen.bytes() + seen_g.capacity() * std::mem::size_of::<u32>(),
            );
        }
    }

    // queue exhausted: every state with f < ub was visited → tw = ub
    // (unless a detected below-floor push voided the visit order)
    let qd = queue.degraded();
    telemetry.note(|s| s.queue_degraded |= qd);
    let lower_bound = if qd { root_lb.min(ub) } else { ub };
    telemetry.sample(budget.elapsed(), ub, lower_bound);
    SearchResult {
        upper_bound: ub,
        lower_bound,
        exact: !qd,
        ordering: Some(ub_order.into_vec()),
        nodes_expanded: ticker.nodes(),
        elapsed: budget.elapsed(),
        cover_cache: None,
        stats: telemetry.finish(),
        faults: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb_tw::{bb_tw, BbConfig};
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
        assert!(r.nodes_expanded <= 200, "budget overrun: {}", r.nodes_expanded);
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
