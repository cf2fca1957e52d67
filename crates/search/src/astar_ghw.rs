//! Algorithm A\*-ghw (Chapter 9, Fig 9.1): best-first search for the
//! generalized hypertree width, built from the BB-ghw cost and heuristic
//! functions on the A\*-tw state machinery.

use crate::astar_tw::{path_of_into, transform, Node};
use crate::bb_ghw::residual_ghw_lb;
use crate::common::{Budget, SearchLimits, SearchResult, Telemetry};
use crate::interner::StateInterner;
use crate::queue::BucketQueue;
use crate::rules::{child_successors, find_simplicial, swappable_ghw};
use ghd_bounds::ksc::{ghw_lower_bound, KscTable};
use ghd_bounds::lower::LbScratch;
use ghd_bounds::upper::ghw_upper_bound;
use ghd_core::setcover::CoverCache;
use ghd_hypergraph::{BitSet, EliminationGraph, Hypergraph};

/// Computes the generalized hypertree width of `h` with A\*. Exact when it
/// terminates within limits; otherwise the maximum visited f-value is
/// reported as an anytime lower bound (the thesis notes A\*-ghw "returned
/// improved lower bounds" for several instances).
pub fn astar_ghw(h: &Hypergraph, limits: SearchLimits) -> SearchResult {
    let n = h.num_vertices();
    let budget = Budget::new(&limits);
    let mut ticker = budget.worker();
    let mut telemetry = Telemetry::new(limits.collect_stats);
    let root_lb = ghw_lower_bound::<ghd_prng::rngs::StdRng>(h, None);
    let (ub, ub_order) = ghw_upper_bound::<ghd_prng::rngs::StdRng>(h, None);
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
    // best-first expansion order revisits the same bags from many prefixes;
    // the transposition cache answers repeats without re-running the cover
    // branch and bound
    let mut cache = CoverCache::new();
    let ksc = KscTable::new(h);
    let mut lb_scratch = LbScratch::new();
    let mut eg = EliminationGraph::new(&primal);
    let mut nodes: Vec<Node> = Vec::new();
    let mut queue = BucketQueue::new();
    let mut lb = root_lb;
    // One interner canonicalises every vertex-set this search touches:
    // closed-set keys (alive blocks) and cover-cache targets (bag ∩ covered,
    // alive ∩ covered) share the same arena and id space. Dominance state
    // lives in a dense side table indexed by interned id (`u32::MAX` =
    // never visited); `seen_count` counts closed-set insertions only, so the
    // reported seen-peak matches the old per-map gauge.
    let mut seen = StateInterner::for_vertices(n);
    let mut seen_g: Vec<u32> = Vec::new();
    let mut seen_count: usize = 0;

    let root_children: Vec<u32> = match find_simplicial(&eg) {
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
    let mut bag = BitSet::new(n);
    let mut degraded = false;

    while let Some(entry_id) = queue.pop() {
        let entry_f = nodes[entry_id as usize].f;
        if !ticker.tick() {
            // a detected below-floor push voids the visited-f argument,
            // exactly like a capped cover does
            let qd = queue.degraded();
            degraded |= qd;
            telemetry.note(|s| s.queue_degraded |= qd);
            let lower_bound = if degraded {
                root_lb.min(ub)
            } else {
                lb.max(entry_f as usize).min(ub)
            };
            telemetry.sample(budget.elapsed(), ub, lower_bound);
            telemetry.cache(cache.stats());
            return SearchResult {
                upper_bound: ub,
                lower_bound,
                exact: !degraded && lb.max(entry_f as usize) >= ub,
                ordering: Some(ub_order.into_vec()),
                nodes_expanded: ticker.nodes(),
                elapsed: budget.elapsed(),
                cover_cache: Some(cache.stats()),
                stats: telemetry.finish(),
                faults: Vec::new(),
            };
        }
        let s_id = entry_id as usize;
        path_of_into(&nodes, entry_id, &mut target_path);
        transform(&mut eg, &mut current_path, &target_path);
        if (nodes[s_id].f as usize) > lb {
            lb = nodes[s_id].f as usize;
            telemetry.sample(budget.elapsed(), ub, lb.min(ub));
        }

        // goal: the residual vertex set is coverable within g, so finishing
        // in any order realises exactly g
        let s_g = nodes[s_id].g as usize;
        let done = eg.num_alive() == 0 || {
            bag.copy_from(eg.alive());
            bag.intersect_with(&covered);
            let (key, _) = seen.intern(bag.blocks());
            cache.greedy_cover_size_interned(key, &bag, h) <= s_g
        };
        if done {
            let in_path: std::collections::HashSet<u32> = target_path.iter().copied().collect();
            let mut order: Vec<usize> =
                (0..n).filter(|&v| !in_path.contains(&(v as u32))).collect();
            order.extend(target_path.iter().rev().map(|&v| v as usize));
            let width = s_g.max(1);
            let qd = queue.degraded();
            degraded |= qd;
            telemetry.note(|s| s.queue_degraded |= qd);
            let lower_bound = if degraded { root_lb.min(width) } else { width };
            telemetry.sample(budget.elapsed(), width, lower_bound);
            telemetry.cache(cache.stats());
            return SearchResult {
                upper_bound: width,
                lower_bound,
                exact: !degraded,
                ordering: Some(order),
                nodes_expanded: ticker.nodes(),
                elapsed: budget.elapsed(),
                cover_cache: Some(cache.stats()),
                stats: telemetry.finish(),
                faults: Vec::new(),
            };
        }

        let s_children = std::mem::take(&mut nodes[s_id].children);
        let s_reduced = nodes[s_id].reduced;
        if s_reduced {
            telemetry.prune(|p| p.simplicial += 1);
        }
        let (s_g, s_f, s_depth) = (nodes[s_id].g, nodes[s_id].f, nodes[s_id].depth);
        for &v in &s_children {
            let v_us = v as usize;
            // vertices in no hyperedge are unconstrained and need no cover
            // support, so the bag is restricted to the covered set up front
            bag.copy_from(eg.neighbors(v_us));
            bag.insert(v_us);
            bag.intersect_with(&covered);
            let (k, cover_exact) = {
                let (key, _) = seen.intern(bag.blocks());
                cache.exact_cover_size_capped_interned(key, &bag, h, ub)
            };
            if !cover_exact {
                degraded = true;
                telemetry.prune(|p| p.capped_covers += 1);
            }
            let k = k as u32;
            eg.eliminate(v_us);
            let t_g = s_g.max(k);
            let mut t_f = t_g.max(s_f);
            if (t_f as usize) < ub {
                t_f = t_f.max(residual_ghw_lb(&eg, &mut lb_scratch, &ksc) as u32);
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
                let forced = find_simplicial(&eg);
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
                let children = child_successors(&eg, v_us, (!s_reduced).then_some(swappable_ghw));
                let cut = (eg.num_alive() - 1 - children.len()) as u64;
                telemetry.prune(|p| p.pr2_filtered += cut);
                nodes[id].children = children;
            }
        }
        if telemetry.on() {
            telemetry.peaks(
                queue.len(),
                seen_count,
                queue.bytes(),
                seen.bytes()
                    + seen_g.capacity() * std::mem::size_of::<u32>()
                    + cache.bytes(),
            );
        }
    }

    let qd = queue.degraded();
    degraded |= qd;
    telemetry.note(|s| s.queue_degraded |= qd);
    let lower_bound = if degraded { root_lb } else { ub };
    telemetry.sample(budget.elapsed(), ub, lower_bound.min(ub));
    telemetry.cache(cache.stats());
    SearchResult {
        upper_bound: ub,
        lower_bound,
        exact: !degraded,
        ordering: Some(ub_order.into_vec()),
        nodes_expanded: ticker.nodes(),
        elapsed: budget.elapsed(),
        cover_cache: Some(cache.stats()),
        stats: telemetry.finish(),
        faults: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb_ghw::{bb_ghw, BbGhwConfig};
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
        assert!(r.nodes_expanded <= 50, "budget overrun: {}", r.nodes_expanded);
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
