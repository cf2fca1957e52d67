//! Incremental vertex elimination with O(1)-undo, the workhorse of the
//! branch-and-bound and A\* searches.
//!
//! §5.2.1 of the thesis describes a graph object that can *eliminate* a
//! vertex (connect all its neighbours pairwise, then remove it) and *restore*
//! the most recently eliminated vertex, using an append-only adjacency log
//! (`A`, `E`) plus an adjacency matrix (`T`). This module implements the same
//! contract with an explicit undo stack over bit-set adjacency rows. The
//! fill step works a word at a time: each neighbour `u` of the eliminated
//! vertex gets `N(v) \ N[u]` OR-ed into its row, and every adjacency word
//! that changed is logged as `(row, word index, added bits)`. `restore`
//! clears those bits again, which is the information the thesis
//! reconstructs from `A`/`E`. Memory stays O(|V|² + fill).

use crate::bitset::BitSet;
use crate::graph::Graph;

/// One elimination step, retained so it can be undone.
///
/// The step does not own its fill: it lives in the eliminator's shared
/// `fill_log`, of which this records the length before the elimination. The
/// eliminated vertex's neighbourhood needs no copy at all — `adj[vertex]` is
/// never touched while the vertex is dead, so it still holds the
/// elimination-time neighbourhood when `restore` runs.
#[derive(Clone, Copy, Debug)]
struct Step {
    vertex: usize,
    fill_start: usize,
}

/// The fill bits one elimination OR-ed into one adjacency word.
#[derive(Clone, Copy, Debug)]
struct FillWord {
    row: u32,
    word: u32,
    added: u64,
}

/// A graph supporting `eliminate` / `restore` in LIFO order.
#[derive(Clone)]
pub struct EliminationGraph {
    adj: Vec<BitSet>,
    alive: BitSet,
    n_alive: usize,
    stack: Vec<Step>,
    /// Append-only log of changed adjacency words; `restore` clears the
    /// logged bits and truncates back to the step's `fill_start`.
    fill_log: Vec<FillWord>,
    /// Reusable buffer of the non-zero `(word index, word)` pairs of the
    /// eliminated vertex's row, so `eliminate` allocates nothing in the
    /// steady state.
    scratch: Vec<(usize, u64)>,
}

/// `(word index, bit mask)` of vertex `v` in a bit-set row.
#[inline]
fn bit(v: usize) -> (usize, u64) {
    (v / 64, 1u64 << (v % 64))
}

impl EliminationGraph {
    /// Wraps a static graph.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        EliminationGraph {
            adj: (0..n).map(|v| g.neighbors(v).clone()).collect(),
            alive: BitSet::full(n),
            n_alive: n,
            stack: Vec::new(),
            fill_log: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Total number of vertices (eliminated or not).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of not-yet-eliminated vertices.
    #[inline]
    pub fn num_alive(&self) -> usize {
        self.n_alive
    }

    /// `true` iff `v` has not been eliminated.
    #[inline]
    pub fn is_alive(&self, v: usize) -> bool {
        self.alive.contains(v)
    }

    /// The alive vertices.
    #[inline]
    pub fn alive(&self) -> &BitSet {
        &self.alive
    }

    /// Current neighbourhood of an alive vertex.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &BitSet {
        debug_assert!(self.is_alive(v));
        &self.adj[v]
    }

    /// Current degree of an alive vertex.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        debug_assert!(self.is_alive(v));
        self.adj[v].len()
    }

    /// O(1) adjacency test between alive vertices.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(v)
    }

    /// Number of eliminations that can currently be undone.
    #[inline]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Eliminates `v`: its neighbours become a clique and `v` is removed.
    /// Returns the degree of `v` at elimination time (the size of the bucket
    /// label minus one, i.e. the width contribution of this step).
    pub fn eliminate(&mut self, v: usize) -> usize {
        debug_assert!(self.is_alive(v), "eliminating a dead vertex");
        let mut nv = std::mem::take(&mut self.scratch);
        nv.clear();
        nv.extend(
            self.adj[v]
                .blocks()
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(|(i, &w)| (i, w)),
        );
        let fill_start = self.fill_log.len();
        let (v_word, v_bit) = bit(v);
        let mut deg = 0;
        for &(i, word) in &nv {
            deg += word.count_ones() as usize;
            let mut rest = word;
            while rest != 0 {
                let u = i * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                // row u gains N(v) \ N[u]; the other end w of each such fill
                // edge gains u when its own row is processed
                let (u_word, u_bit) = bit(u);
                let row = self.adj[u].blocks_mut();
                for &(j, nv_j) in &nv {
                    let mut added = nv_j & !row[j];
                    if j == u_word {
                        added &= !u_bit;
                    }
                    if added != 0 {
                        row[j] |= added;
                        self.fill_log.push(FillWord {
                            row: u as u32,
                            word: j as u32,
                            added,
                        });
                    }
                }
                row[v_word] &= !v_bit;
            }
        }
        self.scratch = nv;
        self.alive.remove(v);
        self.n_alive -= 1;
        self.stack.push(Step { vertex: v, fill_start });
        deg
    }

    /// Undoes the most recent elimination; returns the restored vertex.
    ///
    /// # Panics
    /// Panics if nothing has been eliminated.
    pub fn restore(&mut self) -> usize {
        let step = self.stack.pop().expect("restore with empty stack");
        for f in &self.fill_log[step.fill_start..] {
            self.adj[f.row as usize].blocks_mut()[f.word as usize] &= !f.added;
        }
        self.fill_log.truncate(step.fill_start);
        // `adj[step.vertex]` was never modified while dead, so it still holds
        // exactly the elimination-time neighbourhood.
        let nb = std::mem::take(&mut self.adj[step.vertex]);
        for u in nb.iter() {
            self.adj[u].insert(step.vertex);
        }
        self.adj[step.vertex] = nb;
        self.alive.insert(step.vertex);
        self.n_alive += 1;
        step.vertex
    }

    /// Number of fill edges the elimination of `v` would create right now.
    ///
    /// Counted without materialising the neighbourhood: each `u ∈ N(v)`
    /// misses `|N(v)| − 1 − |N(u) ∩ N(v)|` of its `|N(v)| − 1` potential
    /// partners, and every missing pair is counted from both ends.
    pub fn fill_in_count(&self, v: usize) -> usize {
        debug_assert!(self.is_alive(v));
        let nb = &self.adj[v];
        let deg = nb.len();
        if deg < 2 {
            return 0;
        }
        let mut present = 0usize;
        for u in nb.iter() {
            present += self.adj[u].intersection_len(nb);
        }
        deg * (deg - 1) / 2 - present / 2
    }

    /// `true` iff `u` is adjacent to every vertex of `set` other than `u`
    /// itself and `skip`, tested word by word with an early exit.
    #[inline]
    fn sees_all(&self, set: &[u64], u: usize, skip: usize) -> bool {
        let ((u_word, u_bit), (s_word, s_bit)) = (bit(u), bit(skip));
        let row = self.adj[u].blocks();
        set.iter().zip(row).enumerate().all(|(i, (&s, &r))| {
            let mut miss = s & !r;
            if i == u_word {
                miss &= !u_bit;
            }
            if i == s_word {
                miss &= !s_bit;
            }
            miss == 0
        })
    }

    /// `true` iff `N(v) \ {z}` is a clique.
    fn is_clique_without(&self, v: usize, z: usize) -> bool {
        let nv = self.adj[v].blocks();
        self.adj[v].iter().all(|u| u == z || self.sees_all(nv, u, z))
    }

    /// `true` iff alive vertex `v` is *simplicial*: its neighbourhood is a
    /// clique (Definition 22). Stops at the first missing neighbour pair.
    pub fn is_simplicial(&self, v: usize) -> bool {
        let nv = self.adj[v].blocks();
        self.adj[v].iter().all(|u| self.sees_all(nv, u, u))
    }

    /// `true` iff alive vertex `v` is *almost simplicial*: all but one of its
    /// neighbours induce a clique (Definition 23).
    ///
    /// Let `u0` be the first neighbour with a non-empty miss set
    /// `M(u0) = N(v) \ N[u0]`. Any `z` with `N(v) \ {z}` a clique must
    /// break every missing pair `{u0, w}`, so `z = u0`, or `M(u0) = {z}`.
    /// That leaves at most two candidates, each checked in one pass.
    pub fn is_almost_simplicial(&self, v: usize) -> bool {
        let nb = &self.adj[v];
        let nv = nb.blocks();
        let Some(u0) = nb.iter().find(|&u| !self.sees_all(nv, u, u)) else {
            return true; // simplicial: drop any neighbour
        };
        if self.is_clique_without(v, u0) {
            return true;
        }
        let (u_word, u_bit) = bit(u0);
        let mut missed = nv
            .iter()
            .zip(self.adj[u0].blocks())
            .enumerate()
            .map(|(i, (&s, &r))| (i, if i == u_word { s & !r & !u_bit } else { s & !r }))
            .filter(|&(_, m)| m != 0);
        match (missed.next(), missed.next()) {
            (Some((i, m)), None) if m.count_ones() == 1 => {
                self.is_clique_without(v, i * 64 + m.trailing_zeros() as usize)
            }
            _ => false,
        }
    }

    /// Materialises the current residual graph as a static [`Graph`] over the
    /// same vertex indices (dead vertices become isolated).
    pub fn to_graph(&self) -> Graph {
        let n = self.adj.len();
        let mut g = Graph::new(n);
        for u in self.alive.iter() {
            for v in self.adj[u].iter() {
                if v > u {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_prng::rngs::StdRng;
    use ghd_prng::RngExt;

    /// The pairwise kernels `EliminationGraph` used before its word-level
    /// ones: fill edges tested and inserted one neighbour pair at a time and
    /// logged as vertex pairs, and the O(deg²) almost-simplicial scan over
    /// every candidate `z`. Kept as the oracle of the differential tests.
    struct PairwiseOracle {
        adj: Vec<BitSet>,
        alive: BitSet,
        stack: Vec<(usize, usize)>,
        fill_log: Vec<(usize, usize)>,
    }

    impl PairwiseOracle {
        fn new(g: &Graph) -> Self {
            let n = g.num_vertices();
            PairwiseOracle {
                adj: (0..n).map(|v| g.neighbors(v).clone()).collect(),
                alive: BitSet::full(n),
                stack: Vec::new(),
                fill_log: Vec::new(),
            }
        }

        fn eliminate(&mut self, v: usize) -> usize {
            let neighbors = self.adj[v].to_vec();
            let fill_start = self.fill_log.len();
            for (i, &u) in neighbors.iter().enumerate() {
                for &w in &neighbors[i + 1..] {
                    if !self.adj[u].contains(w) {
                        self.adj[u].insert(w);
                        self.adj[w].insert(u);
                        self.fill_log.push((u, w));
                    }
                }
            }
            for &u in &neighbors {
                self.adj[u].remove(v);
            }
            self.alive.remove(v);
            self.stack.push((v, fill_start));
            neighbors.len()
        }

        fn restore(&mut self) -> usize {
            let (v, fill_start) = self.stack.pop().expect("restore with empty stack");
            for &(u, w) in &self.fill_log[fill_start..] {
                self.adj[u].remove(w);
                self.adj[w].remove(u);
            }
            self.fill_log.truncate(fill_start);
            for u in self.adj[v].to_vec() {
                self.adj[u].insert(v);
            }
            self.alive.insert(v);
            v
        }

        fn fill_in_count(&self, v: usize) -> usize {
            let nb = self.adj[v].to_vec();
            let mut fill = 0;
            for (i, &u) in nb.iter().enumerate() {
                fill += nb[i + 1..].iter().filter(|&&w| !self.adj[u].contains(w)).count();
            }
            fill
        }

        fn is_almost_simplicial(&self, v: usize) -> bool {
            let nb = &self.adj[v];
            let deg = nb.len();
            if deg <= 1 {
                return true;
            }
            'outer: for z in nb.iter() {
                for u in nb.iter() {
                    if u == z {
                        continue;
                    }
                    let missing = (deg - 1) - self.adj[u].intersection_len(nb);
                    let ok = missing == 0 || (missing == 1 && !self.adj[u].contains(z));
                    if !ok {
                        continue 'outer;
                    }
                }
                return true;
            }
            false
        }
    }

    /// Seeded walks of eliminate/restore on graphs whose rows span one,
    /// two and three words. After every step the adjacency rows, the
    /// returned degree and every alive vertex's reduction tests must match
    /// the pairwise oracle.
    #[test]
    fn word_level_kernels_match_pairwise_oracle() {
        let mut outcomes = [[0usize; 2]; 2]; // [simplicial][almost simplicial]
        for (n, density, steps, seed) in [(12, 3, 300, 1), (70, 12, 160, 2), (130, 25, 100, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.random_range(0..density) == 0 {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let mut eg = EliminationGraph::new(&g);
            let mut oracle = PairwiseOracle::new(&g);
            for step in 0..steps {
                if eg.depth() > 0 && (eg.num_alive() == 0 || rng.random_bool(0.4)) {
                    assert_eq!(eg.restore(), oracle.restore());
                } else {
                    let alive = eg.alive().to_vec();
                    let v = alive[rng.random_range(0..alive.len())];
                    assert_eq!(eg.eliminate(v), oracle.eliminate(v), "n={n} step {step}");
                }
                assert_eq!(eg.adj, oracle.adj, "n={n} step {step}: adjacency rows");
                assert_eq!(eg.alive, oracle.alive);
                for v in eg.alive().iter() {
                    let fill = oracle.fill_in_count(v);
                    let almost = oracle.is_almost_simplicial(v);
                    assert_eq!(eg.fill_in_count(v), fill, "n={n} step {step} v={v}");
                    assert_eq!(eg.is_simplicial(v), fill == 0, "n={n} step {step} v={v}");
                    assert_eq!(eg.is_almost_simplicial(v), almost, "n={n} step {step} v={v}");
                    outcomes[(fill == 0) as usize][almost as usize] += 1;
                }
            }
            while eg.depth() > 0 {
                assert_eq!(eg.restore(), oracle.restore());
            }
            assert_eq!(eg.to_graph(), g, "n={n}: walk returns to the input graph");
        }
        assert!(outcomes[1][1] > 0, "simplicial vertices were tested");
        assert!(outcomes[0][1] > 0, "almost- but not simplicial vertices were tested");
        assert!(outcomes[0][0] > 0, "vertices that are neither were tested");
    }

    /// The 6-vertex hypergraph primal graph of thesis Fig. 2.11:
    /// hyperedges {1,2,3}, {1,5,6}, {3,4,5} (0-indexed: {0,1,2},{0,4,5},{2,3,4}).
    fn fig_2_11_primal() -> Graph {
        Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (0, 4),
                (0, 5),
                (4, 5),
                (2, 3),
                (2, 4),
                (3, 4),
            ],
        )
    }

    #[test]
    fn eliminate_adds_fill_and_removes_vertex() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]); // star
        let mut eg = EliminationGraph::new(&g);
        let deg = eg.eliminate(0);
        assert_eq!(deg, 3);
        // neighbours 1,2,3 now form a triangle
        assert!(eg.has_edge(1, 2) && eg.has_edge(1, 3) && eg.has_edge(2, 3));
        assert!(!eg.is_alive(0));
        assert_eq!(eg.num_alive(), 3);
    }

    #[test]
    fn restore_is_exact_inverse() {
        let g = fig_2_11_primal();
        let mut eg = EliminationGraph::new(&g);
        let before = eg.to_graph();
        eg.eliminate(5);
        eg.eliminate(4);
        eg.eliminate(3);
        assert_eq!(eg.restore(), 3);
        assert_eq!(eg.restore(), 4);
        assert_eq!(eg.restore(), 5);
        assert_eq!(eg.to_graph(), before);
        assert_eq!(eg.num_alive(), 6);
    }

    #[test]
    fn thesis_fig_2_11_elimination_widths() {
        // σ = (x6..x1) eliminated in reverse listing order: x6 first is the
        // *last* position; Bucket Elimination processes buckets from the end.
        // Eliminating 5(=x6): N={0,4} → label {x6,x1,x5} (size 3).
        let g = fig_2_11_primal();
        let mut eg = EliminationGraph::new(&g);
        assert_eq!(eg.eliminate(5), 2);
        assert!(eg.has_edge(0, 4)); // already there
        assert_eq!(eg.eliminate(4), 3); // N = {0,2,3}
        assert!(eg.has_edge(0, 3) && eg.has_edge(0, 2) && eg.has_edge(2, 3));
        assert_eq!(eg.eliminate(3), 2); // N = {0,2}
        assert_eq!(eg.eliminate(2), 2); // N = {0,1}
        assert_eq!(eg.eliminate(1), 1);
        assert_eq!(eg.eliminate(0), 0);
    }

    #[test]
    fn simplicial_detection() {
        let g = fig_2_11_primal();
        let eg = EliminationGraph::new(&g);
        // vertex 1 (x2) has neighbours {0,2} which are adjacent → simplicial
        assert!(eg.is_simplicial(1));
        // vertex 0 (x1) has neighbours {1,2,4,5}; 1-4 not adjacent → not
        assert!(!eg.is_simplicial(0));
        // vertex 2 (x3): neighbours {0,1,3,4}; dropping 3 leaves {0,1,4}:
        // 1-4 not adjacent; dropping 1 leaves {0,3,4}: 0-3 not adjacent; not AS
        assert!(!eg.is_almost_simplicial(2));
        // vertex 5: neighbours {0,4} adjacent → simplicial (hence almost too)
        assert!(eg.is_almost_simplicial(5));
    }

    #[test]
    fn interleaved_eliminate_restore_random_walk() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut edges = Vec::new();
        for u in 0..12usize {
            for v in (u + 1)..12 {
                if rng.random_range(0..3) == 0 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(12, edges);
        let mut eg = EliminationGraph::new(&g);
        let snapshot = eg.to_graph();
        // random walk of eliminations/restores, returning to the root
        let mut depth = 0usize;
        for _ in 0..200 {
            if depth > 0 && (depth == 12 || rng.random_bool(0.5)) {
                eg.restore();
                depth -= 1;
            } else {
                let alive = eg.alive().to_vec();
                let v = alive[rng.random_range(0..alive.len())];
                eg.eliminate(v);
                depth += 1;
            }
        }
        while depth > 0 {
            eg.restore();
            depth -= 1;
        }
        assert_eq!(eg.to_graph(), snapshot);
    }
}
