//! Reduction rules (§4.4.3) and pruning rule 2 (§4.4.5) shared by the
//! branch-and-bound and A\* searches.

use ghd_hypergraph::EliminationGraph;

/// Finds a vertex that may be eliminated next without loss of optimality for
/// treewidth: a *simplicial* vertex (Definition 22), or a *strongly almost
/// simplicial* vertex (Definition 24) — almost simplicial with degree not
/// exceeding the current treewidth lower bound `lb`.
pub fn find_reduction_tw(eg: &EliminationGraph, lb: usize) -> Option<usize> {
    let mut almost: Option<usize> = None;
    for v in eg.alive().iter() {
        if eg.is_simplicial(v) {
            return Some(v);
        }
        if almost.is_none() && eg.degree(v) <= lb && eg.is_almost_simplicial(v) {
            almost = Some(v);
        }
    }
    almost
}

/// Finds a simplicial vertex (the reduction retained for the GHW searches,
/// §8.2: the clique `N[v]` appears in some bag of every decomposition, so
/// eliminating `v` first cannot hurt).
pub fn find_simplicial(eg: &EliminationGraph) -> Option<usize> {
    eg.alive().iter().find(|&v| eg.is_simplicial(v))
}

/// Pruning rule 2 (§4.4.5), evaluated in the graph *before* either vertex is
/// eliminated: `a` and `b` are swap-equivalent if they are non-adjacent, or
/// adjacent while each has another (alive) neighbour that is not a neighbour
/// of the other. Swapping two such consecutive vertices leaves the width of
/// the ordering unchanged, so only one interleaving needs exploration.
pub fn swappable_tw(eg: &EliminationGraph, a: usize, b: usize) -> bool {
    debug_assert!(eg.is_alive(a) && eg.is_alive(b) && a != b);
    !eg.has_edge(a, b) || (has_private_neighbour(eg, a, b) && has_private_neighbour(eg, b, a))
}

/// `N(a) \ N(b) \ {b}` is non-empty, tested word by word without copying
/// either row.
fn has_private_neighbour(eg: &EliminationGraph, a: usize, b: usize) -> bool {
    let (b_word, b_mask) = (b / 64, 1u64 << (b % 64));
    let nb = eg.neighbors(b).blocks();
    eg.neighbors(a).blocks().iter().zip(nb).enumerate().any(|(i, (&x, &y))| {
        let private = x & !y;
        (if i == b_word { private & !b_mask } else { private }) != 0
    })
}

/// The GHW-safe restriction of pruning rule 2 (§8.3): only the non-adjacent
/// case. When `a` and `b` are non-adjacent, eliminating them in either order
/// produces *identical* bags, hence identical set covers and identical GHD
/// widths. (The adjacent case of PR2 only preserves maximum bag
/// *cardinality*, which suffices for treewidth but not for cover sizes.)
pub fn swappable_ghw(eg: &EliminationGraph, a: usize, b: usize) -> bool {
    debug_assert!(eg.is_alive(a) && eg.is_alive(b) && a != b);
    !eg.has_edge(a, b)
}

/// The successor candidates of the child state reached by eliminating `a`,
/// computed in the parent graph `eg`, where pruning rule 2 must be
/// evaluated: every other alive vertex, in increasing order. With
/// `swappable`, PR2 keeps the branch eliminating the smaller-indexed vertex
/// first among a swappable pair: `b` (eliminated right after `a`) is pruned
/// iff `swappable(a, b)` and `b < a`.
pub fn child_successors(
    eg: &EliminationGraph,
    a: usize,
    swappable: Option<impl Fn(&EliminationGraph, usize, usize) -> bool>,
) -> Vec<u32> {
    eg.alive()
        .iter()
        .filter(|&b| b != a && !(b < a && swappable.as_ref().is_some_and(|sw| sw(eg, a, b))))
        .map(|b| b as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_hypergraph::Graph;

    #[test]
    fn simplicial_reduction_found() {
        // triangle + pendant: pendant (3) and all triangle vertices... vertex
        // 3 has a single neighbour → simplicial; 1, 2 are simplicial too.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        let eg = EliminationGraph::new(&g);
        assert!(find_reduction_tw(&eg, 0).is_some());
        assert!(find_simplicial(&eg).is_some());
    }

    #[test]
    fn strongly_almost_simplicial_requires_degree_bound() {
        // C4: every vertex is almost simplicial (deg 2), none simplicial.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let eg = EliminationGraph::new(&g);
        assert_eq!(find_simplicial(&eg), None);
        assert_eq!(find_reduction_tw(&eg, 1), None); // degree 2 > lb 1
        assert!(find_reduction_tw(&eg, 2).is_some());
    }

    #[test]
    fn pr2_nonadjacent_always_swappable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let eg = EliminationGraph::new(&g);
        assert!(swappable_tw(&eg, 0, 2));
        assert!(swappable_ghw(&eg, 0, 2));
        assert!(!swappable_ghw(&eg, 0, 1)); // adjacent → not ghw-swappable
    }

    #[test]
    fn pr2_adjacent_case_needs_private_neighbours() {
        // a-b adjacent; a has private neighbour x, b has private neighbour y
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3)]);
        let eg = EliminationGraph::new(&g);
        assert!(swappable_tw(&eg, 0, 1));
        // a-b adjacent, shared neighbour only → not swappable
        let g2 = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let eg2 = EliminationGraph::new(&g2);
        assert!(!swappable_tw(&eg2, 0, 1));
    }

    #[test]
    fn pr2_allowed_prunes_smaller_swappable_indices() {
        // path 0-1-2-3: after eliminating 2, vertex 0 (non-adjacent to 2,
        // index < 2) is pruned; 1 is adjacent to 2, but 1's other neighbour
        // is 0 and 2's is 3 → swappable, and 1 < 2 → pruned; 3 > 2 stays.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let eg = EliminationGraph::new(&g);
        assert_eq!(child_successors(&eg, 2, Some(swappable_tw)), vec![3]);
        let no_pr2 = None::<fn(&EliminationGraph, usize, usize) -> bool>;
        assert_eq!(child_successors(&eg, 2, no_pr2), vec![0, 1, 3]);
    }
}
