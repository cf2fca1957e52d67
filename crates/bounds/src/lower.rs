//! Treewidth lower bound heuristics (§4.4.2): degeneracy (MMD),
//! minor-min-width / MMD+least-c (Fig 4.7) and minor-γ_R (Fig 4.8).
//!
//! All three are *minor-monotone*: they contract edges, and treewidth never
//! increases under taking minors, so the largest degree statistic observed
//! along the way lower-bounds the treewidth of the original graph.

use ghd_hypergraph::bitset::Iter as Bits;
use ghd_hypergraph::{BitSet, EliminationGraph, Graph};
use ghd_prng::rngs::StdRng;
use ghd_prng::{Rng, RngExt};

const BITS: usize = 64;

/// Reusable buffers for the minor-based lower bounds, so that per-node
/// heuristic calls inside the exact searches allocate nothing in the steady
/// state. One scratch serves any number of consecutive bound computations.
///
/// The contraction graph is one flat row-major buffer of `u64` words
/// (`N(v)` is `rows[v * words..(v + 1) * words]`), a `u32` degree per vertex
/// kept current by every contraction, and a bit mask of the vertices still
/// in the graph.
#[derive(Default)]
pub struct LbScratch {
    n: usize,
    words: usize,
    rows: Vec<u64>,
    deg: Vec<u32>,
    alive: Vec<u64>,
    live: usize,
    tied: Vec<usize>,
    seq: Vec<usize>,
}

#[inline]
fn bit(v: usize) -> (usize, u64) {
    (v / BITS, 1u64 << (v % BITS))
}

/// The least `(degree, index)` candidate, or — with `rng` — a uniform draw
/// among the minimum-degree candidates listed in index order.
fn pick_least<R: Rng + ?Sized>(
    cands: Bits<'_>,
    deg: &[u32],
    tied: &mut Vec<usize>,
    rng: &mut Option<&mut R>,
) -> usize {
    let mut best = usize::MAX;
    let mut best_deg = u32::MAX;
    for v in cands.clone() {
        if deg[v] < best_deg {
            best_deg = deg[v];
            best = v;
        }
    }
    match rng {
        Some(r) => {
            tied.clear();
            tied.extend(cands.filter(|&v| deg[v] == best_deg));
            tied[r.random_range(0..tied.len())]
        }
        None => best,
    }
}

impl LbScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the scratch and sizes it for `n` vertex slots.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(BITS);
        self.rows.clear();
        self.rows.resize(n * self.words, 0);
        self.deg.clear();
        self.deg.resize(n, 0);
        self.alive.clear();
        self.alive.resize(self.words, 0);
        self.live = 0;
    }

    /// Adds `v` to the graph with neighbourhood `row`.
    fn add_vertex(&mut self, v: usize, row: &BitSet) {
        let w = self.words;
        self.rows[v * w..(v + 1) * w].copy_from_slice(row.blocks());
        self.deg[v] = row.len() as u32;
        let (b, m) = bit(v);
        self.alive[b] |= m;
        self.live += 1;
    }

    /// Loads the contraction rows from a static graph.
    fn load_graph(&mut self, g: &Graph) {
        let n = g.num_vertices();
        self.reset(n);
        for v in 0..n {
            self.add_vertex(v, g.neighbors(v));
        }
    }

    /// Loads the alive vertices of an elimination graph without
    /// materialising it. The dead slots stay unloaded; they are the
    /// isolated vertices of `eg.to_graph()`.
    fn load_elim(&mut self, eg: &EliminationGraph) {
        self.reset(eg.num_vertices());
        for u in eg.alive().iter() {
            self.add_vertex(u, eg.neighbors(u));
        }
    }

    /// `true` iff the loaded graph, read over all `n` vertex slots (a slot
    /// not loaded counts as an isolated vertex), has an isolated vertex.
    fn has_isolated(&self) -> bool {
        self.live < self.n || Bits::over_blocks(&self.alive).any(|v| self.deg[v] == 0)
    }

    fn remove(&mut self, v: usize) {
        let (b, m) = bit(v);
        self.alive[b] &= !m;
        self.live -= 1;
    }

    /// Contracts the edge `(v, u)` into `u` and removes `v`, keeping every
    /// degree current.
    fn contract(&mut self, v: usize, u: usize) {
        let w = self.words;
        let (vb, vm) = bit(v);
        let (ub, um) = bit(u);
        // each other neighbour x of v loses v and gains u — unless x was
        // already adjacent to u, in which case its degree drops by one
        for i in 0..w {
            let mut word = self.rows[v * w + i];
            while word != 0 {
                let x = i * BITS + word.trailing_zeros() as usize;
                word &= word - 1;
                if x == u {
                    continue;
                }
                let rx = x * w;
                self.rows[rx + vb] &= !vm;
                if self.rows[rx + ub] & um != 0 {
                    self.deg[x] -= 1;
                } else {
                    self.rows[rx + ub] |= um;
                }
            }
        }
        // N(u) becomes (N(u) ∪ N(v)) \ {u, v}
        let mut d = 0;
        for i in 0..w {
            let mut r = self.rows[u * w + i] | self.rows[v * w + i];
            if i == ub {
                r &= !um;
            }
            if i == vb {
                r &= !vm;
            }
            self.rows[u * w + i] = r;
            d += r.count_ones();
        }
        self.deg[u] = d;
        self.rows[v * w..(v + 1) * w].fill(0);
        self.remove(v);
    }

    /// Contracts `v` into its least-degree neighbour, or removes it if it
    /// is isolated.
    fn contract_least<R: Rng + ?Sized>(&mut self, v: usize, rng: &mut Option<&mut R>) {
        if self.deg[v] == 0 {
            self.remove(v);
            return;
        }
        let w = self.words;
        let nv = Bits::over_blocks(&self.rows[v * w..(v + 1) * w]);
        let u = pick_least(nv, &self.deg, &mut self.tied, rng);
        self.contract(v, u);
    }

    /// Minor-min-width on the loaded graph. Without `rng` it stops as soon
    /// as at most `lb + 1` vertices remain: no vertex of such a graph, nor
    /// of any minor of it, has a degree above `lb`. With `rng` it runs to
    /// the end, so it draws exactly as many values as before the shortcut.
    fn mmw<R: Rng + ?Sized>(&mut self, mut rng: Option<&mut R>) -> usize {
        let exit_early = rng.is_none();
        let mut lb = 0;
        while self.live > 0 && !(exit_early && self.live <= lb + 1) {
            // (a) minimum-degree vertex v, (b) record its degree
            let v = pick_least(Bits::over_blocks(&self.alive), &self.deg, &mut self.tied, &mut rng);
            lb = lb.max(self.deg[v] as usize);
            // (a cont.) contract with minimum-degree neighbour
            self.contract_least(v, &mut rng);
        }
        lb
    }

    /// Minor-γ_R on the loaded graph.
    fn gamma_r<R: Rng + ?Sized>(&mut self, mut rng: Option<&mut R>) -> usize {
        let w = self.words;
        let mut lb = 0;
        while self.live > 0 {
            // (a) sort by degree ascending (stable: ties in index order)
            self.seq.clear();
            self.seq.extend(Bits::over_blocks(&self.alive));
            let deg = &self.deg;
            self.seq.sort_by_key(|&v| deg[v]);
            // (b) first vertex with a non-neighbour predecessor
            let rows = &self.rows;
            let found = self.seq.iter().enumerate().find_map(|(i, &v)| {
                let row = &rows[v * w..(v + 1) * w];
                self.seq[..i]
                    .iter()
                    .any(|&p| {
                        let (b, m) = bit(p);
                        row[b] & m == 0
                    })
                    .then_some(v)
            });
            let Some(v) = found else {
                // complete graph: γ = n − 1, nothing further to contract
                lb = lb.max(self.live - 1);
                break;
            };
            // (c,e) γ_R = degree(v), (d) contract with minimum-degree neighbour
            lb = lb.max(self.deg[v] as usize);
            self.contract_least(v, &mut rng);
        }
        lb
    }

    /// max(minor-min-width, minor-γ_R) of the graph `load` puts in the
    /// scratch. With deterministic tie-breaks, minor-γ_R repeats
    /// minor-min-width step for step on any graph with an isolated vertex
    /// (see DESIGN.md), so its pass is skipped there.
    fn mmw_gamma_r<R: Rng + ?Sized>(
        &mut self,
        mut rng: Option<&mut R>,
        load: impl Fn(&mut Self),
    ) -> usize {
        load(self);
        let gamma_differs = rng.is_some() || !self.has_isolated();
        let a = self.mmw(rng.as_deref_mut());
        if !gamma_differs {
            return a;
        }
        load(self);
        a.max(self.gamma_r(rng))
    }
}

/// The degeneracy / maximum-minimum-degree (MMD) lower bound: repeatedly
/// delete a minimum-degree vertex; the maximum such degree lower-bounds the
/// treewidth.
pub fn degeneracy(g: &Graph) -> usize {
    let mut adj: Vec<BitSet> = (0..g.num_vertices()).map(|v| g.neighbors(v).clone()).collect();
    let mut alive: Vec<usize> = (0..g.num_vertices()).collect();
    let mut lb = 0;
    while !alive.is_empty() {
        let (idx, &v) = alive
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| adj[v].len())
            .expect("nonempty");
        lb = lb.max(adj[v].len());
        let nv = std::mem::take(&mut adj[v]);
        for w in nv.iter() {
            adj[w].remove(v);
        }
        alive.swap_remove(idx);
    }
    lb
}

/// Algorithm *minor-min-width* (Fig 4.7), a.k.a. MMD+least-c: repeatedly
/// contract a minimum-degree vertex into its least-degree neighbour,
/// recording the maximum minimum degree seen. Ties broken randomly when
/// `rng` is given.
pub fn minor_min_width<R: Rng + ?Sized>(g: &Graph, rng: Option<&mut R>) -> usize {
    let mut scratch = LbScratch::new();
    scratch.load_graph(g);
    scratch.mmw(rng)
}

/// Algorithm *minor-γ_R* (Fig 4.8): based on Ramachandramurthi's γ
/// parameter. Each round sorts alive vertices by degree, finds the first
/// vertex not adjacent to all of its predecessors, records its degree, and
/// contracts it into its least-degree neighbour. If every vertex is adjacent
/// to all predecessors the remaining graph is complete and contributes
/// `n − 1`.
pub fn minor_gamma_r<R: Rng + ?Sized>(g: &Graph, rng: Option<&mut R>) -> usize {
    let mut scratch = LbScratch::new();
    scratch.load_graph(g);
    scratch.gamma_r(rng)
}

/// The combined treewidth lower bound used by A\*-tw and BB-ghw: the
/// maximum of [`minor_min_width`] and [`minor_gamma_r`] (§5.1).
pub fn tw_lower_bound<R: Rng + ?Sized>(g: &Graph, rng: Option<&mut R>) -> usize {
    LbScratch::new().mmw_gamma_r(rng, |s| s.load_graph(g))
}

/// [`tw_lower_bound`] evaluated directly on the residual of an elimination
/// graph, reusing `scratch` so that per-node calls inside A\*/BB allocate
/// nothing. Returns exactly `tw_lower_bound(&eg.to_graph(), None)`. Below
/// the root the residual has a dead (isolated) vertex, so this is one
/// minor-min-width pass.
pub fn tw_lower_bound_elim(eg: &EliminationGraph, scratch: &mut LbScratch) -> usize {
    scratch.mmw_gamma_r(None::<&mut StdRng>, |s| s.load_elim(eg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upper::tw_upper_bound;
    use ghd_hypergraph::generators::graphs;

    // Test-only oracle: the plain `Vec<BitSet>` contraction kernels the
    // flat kernel replaced, kept verbatim for equivalence checks.

    fn oracle_contract(adj: &mut [BitSet], alive: &mut Vec<usize>, v: usize, u: usize) {
        let nv = std::mem::take(&mut adj[v]);
        for w in nv.iter() {
            adj[w].remove(v);
            if w != u {
                adj[w].insert(u);
                adj[u].insert(w);
            }
        }
        adj[v] = nv;
        adj[v].clear();
        adj[u].remove(u);
        alive.retain(|&x| x != v);
    }

    fn oracle_pick(tied: &[usize], rng: &mut Option<&mut StdRng>) -> usize {
        match rng {
            Some(r) => tied[r.random_range(0..tied.len())],
            None => tied[0],
        }
    }

    fn oracle_rows(g: &Graph) -> (Vec<BitSet>, Vec<usize>) {
        let n = g.num_vertices();
        ((0..n).map(|v| g.neighbors(v).clone()).collect(), (0..n).collect())
    }

    fn oracle_contract_least(
        adj: &mut [BitSet],
        alive: &mut Vec<usize>,
        v: usize,
        rng: &mut Option<&mut StdRng>,
    ) {
        if adj[v].is_empty() {
            alive.retain(|&x| x != v);
            return;
        }
        let min_nb_deg = adj[v].iter().map(|u| adj[u].len()).min().expect("nonempty");
        let tied: Vec<usize> = adj[v].iter().filter(|&u| adj[u].len() == min_nb_deg).collect();
        let u = oracle_pick(&tied, rng);
        oracle_contract(adj, alive, v, u);
    }

    fn oracle_mmw(g: &Graph, mut rng: Option<&mut StdRng>) -> usize {
        let (mut adj, mut alive) = oracle_rows(g);
        let mut lb = 0;
        while !alive.is_empty() {
            let min_deg = alive.iter().map(|&v| adj[v].len()).min().expect("nonempty");
            let tied: Vec<usize> =
                alive.iter().copied().filter(|&v| adj[v].len() == min_deg).collect();
            let v = oracle_pick(&tied, &mut rng);
            lb = lb.max(adj[v].len());
            oracle_contract_least(&mut adj, &mut alive, v, &mut rng);
        }
        lb
    }

    fn oracle_gamma_r(g: &Graph, mut rng: Option<&mut StdRng>) -> usize {
        let (mut adj, mut alive) = oracle_rows(g);
        let mut lb = 0;
        while !alive.is_empty() {
            let mut seq = alive.clone();
            seq.sort_by_key(|&v| adj[v].len());
            let found = (0..seq.len())
                .find(|&i| seq[..i].iter().any(|&p| !adj[seq[i]].contains(p)))
                .map(|i| seq[i]);
            let Some(v) = found else {
                lb = lb.max(alive.len() - 1);
                break;
            };
            lb = lb.max(adj[v].len());
            oracle_contract_least(&mut adj, &mut alive, v, &mut rng);
        }
        lb
    }

    fn oracle_tw(g: &Graph, mut rng: Option<&mut StdRng>) -> usize {
        let a = oracle_mmw(g, rng.as_deref_mut());
        a.max(oracle_gamma_r(g, rng))
    }

    /// A seeded random graph with `isolated` extra vertices of degree 0
    /// (renumbered among the others).
    fn random_graph(seed: u64, isolated: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..40usize);
        let m = rng.random_range(0..=(n * (n - 1) / 2).min(4 * n));
        let core = graphs::gnm_random(n, m, seed);
        let total = n + isolated;
        let mut slot: Vec<usize> = (0..total).collect();
        for i in (1..total).rev() {
            slot.swap(i, rng.random_range(0..=i));
        }
        Graph::from_edges(total, core.edges().map(|(u, v)| (slot[u], slot[v])))
    }

    #[test]
    fn exact_on_cliques() {
        let g = graphs::complete(7);
        assert_eq!(degeneracy(&g), 6);
        assert_eq!(minor_min_width::<StdRng>(&g, None), 6);
        assert_eq!(minor_gamma_r::<StdRng>(&g, None), 6);
    }

    #[test]
    fn exact_on_trees_and_cycles() {
        let p = graphs::path(9);
        assert_eq!(minor_min_width::<StdRng>(&p, None), 1);
        let c = graphs::cycle(9);
        assert_eq!(minor_min_width::<StdRng>(&c, None), 2);
        assert_eq!(degeneracy(&c), 2);
    }

    #[test]
    fn grid_lower_bounds_are_sound_and_nontrivial() {
        for n in 2..=6 {
            let g = graphs::grid(n);
            let lb = tw_lower_bound::<StdRng>(&g, None);
            assert!(lb <= n, "grid{n}: lb {lb} exceeds treewidth {n}");
            assert!(lb >= 2.min(n), "grid{n}: lb {lb} uselessly small");
        }
    }

    #[test]
    fn lower_bounds_never_exceed_upper_bounds() {
        let mut rng = StdRng::seed_from_u64(13);
        for seed in 0..15u64 {
            let g = graphs::gnm_random(24, 60, seed);
            let lb = tw_lower_bound(&g, Some(&mut rng));
            let (ub, _) = tw_upper_bound(&g, Some(&mut rng));
            assert!(lb <= ub, "seed {seed}: lb {lb} > ub {ub}");
        }
    }

    #[test]
    fn minor_min_width_dominates_degeneracy_usually() {
        // MMW is provably ≥ MMD on every run with deterministic tie-break?
        // Not in general, but on these instances it should not be smaller
        // than half of it; we just sanity-check both are positive.
        let g = graphs::queen(5);
        let mmd = degeneracy(&g);
        let mmw = minor_min_width::<StdRng>(&g, None);
        assert!(mmd >= 1 && mmw >= 1);
        assert!(mmw <= 18); // known: tw(queen5_5) = 18
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::new(0);
        assert_eq!(degeneracy(&g), 0);
        assert_eq!(minor_min_width::<StdRng>(&g, None), 0);
        assert_eq!(minor_gamma_r::<StdRng>(&g, None), 0);
        let one = Graph::new(1);
        assert_eq!(minor_min_width::<StdRng>(&one, None), 0);
        assert_eq!(minor_gamma_r::<StdRng>(&one, None), 0);
    }

    #[test]
    fn isolated_vertices_are_harmless() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2); // triangle + 3 isolated
        assert_eq!(minor_min_width::<StdRng>(&g, None), 2);
        assert_eq!(degeneracy(&g), 2);
    }

    #[test]
    fn elim_kernels_match_oracle_after_eliminations() {
        let mut scratch = LbScratch::new();
        for seed in 0..60u64 {
            let g = random_graph(seed, (seed % 3) as usize);
            let n = g.num_vertices();
            let mut eg = EliminationGraph::new(&g);
            let mut pick = StdRng::seed_from_u64(seed ^ 0xE1);
            // the root state, then 1..k eliminations
            let k = pick.random_range(1..n.min(12));
            for step in 0..=k {
                let residual = eg.to_graph();
                // against the oracle and against the public whole-graph
                // bound on the materialised residual
                let tw = tw_lower_bound_elim(&eg, &mut scratch);
                let at = format!("seed {seed} after {step} eliminations");
                assert_eq!(tw, oracle_tw(&residual, None), "tw lb, {at}");
                assert_eq!(tw, tw_lower_bound::<StdRng>(&residual, None), "tw lb, {at}");
                let alive = eg.alive().to_vec();
                eg.eliminate(alive[pick.random_range(0..alive.len())]);
            }
        }
    }

    #[test]
    fn seeded_bounds_match_oracle_draw_for_draw() {
        for seed in 0..60u64 {
            let g = random_graph(seed, (seed % 4) as usize);
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                tw_lower_bound(&g, Some(&mut a)),
                oracle_tw(&g, Some(&mut b)),
                "tw lb, seed {seed}"
            );
            assert_eq!(
                minor_min_width(&g, Some(&mut a)),
                oracle_mmw(&g, Some(&mut b)),
                "mmw, seed {seed}"
            );
            assert_eq!(
                minor_gamma_r(&g, Some(&mut a)),
                oracle_gamma_r(&g, Some(&mut b)),
                "γ_R, seed {seed}"
            );
            // both streams consumed the same number of draws
            assert_eq!(a.next_u64(), b.next_u64(), "rng streams diverged, seed {seed}");
        }
    }

    #[test]
    fn unseeded_bounds_match_oracle_on_whole_graphs() {
        for seed in 0..60u64 {
            let g = random_graph(seed, (seed % 3) as usize);
            assert_eq!(tw_lower_bound::<StdRng>(&g, None), oracle_tw(&g, None), "seed {seed}");
            assert_eq!(minor_min_width::<StdRng>(&g, None), oracle_mmw(&g, None), "seed {seed}");
            assert_eq!(minor_gamma_r::<StdRng>(&g, None), oracle_gamma_r(&g, None), "seed {seed}");
        }
        for g in [graphs::queen(6), graphs::grid(6), graphs::complete(5), Graph::new(0)] {
            assert_eq!(tw_lower_bound::<StdRng>(&g, None), oracle_tw(&g, None));
        }
    }
}
