//! Golden counters: exact widths, orderings, node counts, prune counters,
//! A\* high-water marks and cover-cache counters of every search entry
//! point on a fixed set of small instances. No other test pins exact work
//! counts; this one does, so a refactor of the search core that changes
//! expansion order, pruning or cache traffic anywhere fails here first.
//!
//! Only deterministic runs are pinned: sequential searches and the
//! parallel drivers at one thread. To re-record after an *intended*
//! behaviour change, run with `GOLDEN_PRINT=1 -- --nocapture` and paste
//! the printed lines over the instance's table.

use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::{Graph, Hypergraph};
use ghd_search::{
    astar_ghw, astar_tw, bb_ghw, bb_ghw_parallel, bb_ghw_parallel_rootsplit, bb_tw, bb_tw_parallel,
    bb_tw_parallel_rootsplit, witness_ghw, witness_tw, BbConfig, BbGhwConfig, Budget, SearchLimits,
    SearchResult,
};

/// One pinned line per run: bounds, exactness, nodes, the six prune
/// counters, the A\* peaks, cover-cache hits/misses/entries and the
/// ordering.
fn line(run: &str, r: &SearchResult) -> String {
    let s = r.stats.as_ref().expect("golden runs collect stats");
    let p = &s.prunes;
    let cache = r.cover_cache.map_or("-".to_string(), |c| {
        format!("{}/{}/{}", c.hits, c.misses, c.entries)
    });
    format!(
        "{run}: ub={} lb={} exact={} nodes={} prunes={}/{}/{}/{}/{}/{} peaks={}/{} cache={cache} ord={:?}",
        r.upper_bound,
        r.lower_bound,
        r.exact,
        r.nodes_expanded,
        p.simplicial,
        p.pr2_filtered,
        p.pr1_closures,
        p.f_prunes,
        p.dominance_hits,
        p.capped_covers,
        s.open_peak,
        s.seen_peak,
        r.ordering.as_ref().expect("every run reports an ordering"),
    )
}

fn witness_line(width: usize, (ordering, nodes): (Option<Vec<usize>>, u64)) -> String {
    format!("witness@{width}: nodes={nodes} ord={ordering:?}")
}

fn check(name: &str, got: Vec<String>, want: &str) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("== {name}");
        for l in &got {
            println!("{l}");
        }
    }
    let want: Vec<&str> = want
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(got.len(), want.len(), "{name}: run count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{name}");
    }
}

fn stats() -> SearchLimits {
    SearchLimits::unlimited().stats(true)
}

fn nodes(n: u64) -> SearchLimits {
    SearchLimits::with_nodes(n).stats(true)
}

fn tw_runs(g: &Graph) -> Vec<String> {
    let cfg = |limits: SearchLimits| BbConfig {
        limits,
        ..BbConfig::default()
    };
    let full = bb_tw(g, &cfg(stats()));
    let width = full.upper_bound;
    let budget = Budget::new(&SearchLimits::unlimited());
    vec![
        line("bb", &full),
        line("bb/200", &bb_tw(g, &cfg(nodes(200)))),
        line("bb/20", &bb_tw(g, &cfg(nodes(20)))),
        witness_line(width, witness_tw(g, width, &BbConfig::default(), &budget)),
        line("steal/1", &bb_tw_parallel(g, &cfg(stats()), 1)),
        line("steal/1/20", &bb_tw_parallel(g, &cfg(nodes(20)), 1)),
        line(
            "rootsplit/1",
            &bb_tw_parallel_rootsplit(g, &cfg(stats()), 1),
        ),
        line("astar", &astar_tw(g, stats())),
        line("astar/200", &astar_tw(g, nodes(200))),
        line("astar/20", &astar_tw(g, nodes(20))),
    ]
}

fn ghw_runs(h: &Hypergraph) -> Vec<String> {
    let cfg = |limits: SearchLimits| BbGhwConfig {
        limits,
        ..BbGhwConfig::default()
    };
    let full = bb_ghw(h, &cfg(stats()));
    let width = full.upper_bound;
    let budget = Budget::new(&SearchLimits::unlimited());
    vec![
        line("bb", &full),
        line("bb/200", &bb_ghw(h, &cfg(nodes(200)))),
        line("bb/20", &bb_ghw(h, &cfg(nodes(20)))),
        witness_line(
            width,
            witness_ghw(h, width, &BbGhwConfig::default(), &budget),
        ),
        line("steal/1", &bb_ghw_parallel(h, &cfg(stats()), 1)),
        line("steal/1/20", &bb_ghw_parallel(h, &cfg(nodes(20)), 1)),
        line(
            "rootsplit/1",
            &bb_ghw_parallel_rootsplit(h, &cfg(stats()), 1),
        ),
        line("astar", &astar_ghw(h, stats())),
        line("astar/200", &astar_ghw(h, nodes(200))),
        line("astar/20", &astar_ghw(h, nodes(20))),
    ]
}

#[test]
fn tw_queen5() {
    check(
        "tw queen 5",
        tw_runs(&graphs::queen(5)),
        r#"
        bb: ub=18 lb=18 exact=true nodes=1403 prunes=179/16378/0/8992/0/0 peaks=0/0 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        bb/200: ub=18 lb=12 exact=false nodes=200 prunes=22/2264/0/1361/0/0 peaks=0/0 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        bb/20: ub=18 lb=12 exact=false nodes=20 prunes=2/199/0/130/0/0 peaks=0/0 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        witness@18: nodes=0 ord=Some([24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0])
        steal/1: ub=18 lb=18 exact=true nodes=1403 prunes=179/16378/0/8992/0/0 peaks=0/0 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        steal/1/20: ub=18 lb=13 exact=false nodes=20 prunes=2/216/0/126/0/0 peaks=0/0 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        rootsplit/1: ub=18 lb=18 exact=true nodes=1427 prunes=179/16978/0/8992/0/0 peaks=0/0 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        astar: ub=18 lb=18 exact=true nodes=1166 prunes=148/15541/0/5664/111/0 peaks=560/1165 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        astar/200: ub=18 lb=16 exact=false nodes=200 prunes=0/9063/0/660/0/0 peaks=470/661 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
        astar/20: ub=18 lb=14 exact=false nodes=20 prunes=0/2818/0/53/0/0 peaks=201/220 cache=- ord=[24, 22, 21, 20, 19, 18, 17, 15, 12, 11, 10, 8, 6, 4, 1, 16, 13, 9, 5, 3, 2, 7, 23, 14, 0]
    "#,
    );
}

#[test]
fn tw_grid5() {
    check(
        "tw grid 5",
        tw_runs(&graphs::grid(5)),
        r#"
        bb: ub=5 lb=5 exact=true nodes=43 prunes=12/215/0/104/0/0 peaks=0/0 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        bb/200: ub=5 lb=5 exact=true nodes=43 prunes=12/215/0/104/0/0 peaks=0/0 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        bb/20: ub=5 lb=4 exact=false nodes=20 prunes=12/35/0/28/0/0 peaks=0/0 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        witness@5: nodes=0 ord=Some([22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0])
        steal/1: ub=5 lb=5 exact=true nodes=43 prunes=12/215/0/104/0/0 peaks=0/0 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        steal/1/20: ub=5 lb=4 exact=false nodes=20 prunes=12/35/0/28/0/0 peaks=0/0 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        rootsplit/1: ub=5 lb=5 exact=true nodes=43 prunes=12/215/0/104/0/0 peaks=0/0 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        astar: ub=5 lb=5 exact=true nodes=43 prunes=12/215/0/104/0/0 peaks=12/42 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        astar/200: ub=5 lb=5 exact=true nodes=43 prunes=12/215/0/104/0/0 peaks=12/42 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
        astar/20: ub=5 lb=4 exact=false nodes=20 prunes=12/105/0/39/0/0 peaks=12/29 cache=- ord=[22, 17, 14, 13, 11, 10, 7, 2, 18, 12, 16, 8, 6, 23, 21, 19, 15, 9, 5, 3, 1, 24, 20, 4, 0]
    "#,
    );
}

#[test]
fn tw_gnm_16_34_seed2() {
    check(
        "tw gnm(16,34,2)",
        tw_runs(&graphs::gnm_random(16, 34, 2)),
        r#"
        bb: ub=6 lb=6 exact=true nodes=257 prunes=174/412/0/454/0/0 peaks=0/0 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        bb/200: ub=6 lb=5 exact=false nodes=200 prunes=137/333/0/306/0/0 peaks=0/0 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        bb/20: ub=6 lb=5 exact=false nodes=20 prunes=11/59/0/11/0/0 peaks=0/0 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        witness@6: nodes=0 ord=Some([14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0])
        steal/1: ub=6 lb=6 exact=true nodes=257 prunes=174/412/0/454/0/0 peaks=0/0 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        steal/1/20: ub=6 lb=5 exact=false nodes=20 prunes=12/16/0/59/0/0 peaks=0/0 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        rootsplit/1: ub=6 lb=6 exact=true nodes=257 prunes=174/412/0/454/0/0 peaks=0/0 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        astar: ub=6 lb=6 exact=true nodes=106 prunes=70/240/0/145/25/0 peaks=24/105 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        astar/200: ub=6 lb=6 exact=true nodes=106 prunes=70/240/0/145/25/0 peaks=24/105 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
        astar/20: ub=6 lb=5 exact=false nodes=20 prunes=12/98/0/39/1/0 peaks=24/41 cache=- ord=[14, 13, 12, 7, 5, 4, 3, 2, 8, 10, 15, 11, 6, 9, 1, 0]
    "#,
    );
}

#[test]
fn tw_gnm_16_34_seed9() {
    // the search improves on the min-fill bound: the witness rebuild runs
    check(
        "tw gnm(16,34,9)",
        tw_runs(&graphs::gnm_random(16, 34, 9)),
        r#"
        bb: ub=5 lb=5 exact=true nodes=18 prunes=15/0/1/20/0/0 peaks=0/0 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        bb/200: ub=5 lb=5 exact=true nodes=18 prunes=15/0/1/20/0/0 peaks=0/0 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        bb/20: ub=5 lb=5 exact=true nodes=18 prunes=15/0/1/20/0/0 peaks=0/0 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        witness@5: nodes=16 ord=Some([1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9])
        steal/1: ub=5 lb=5 exact=true nodes=34 prunes=28/0/1/30/0/0 peaks=0/0 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        steal/1/20: ub=5 lb=5 exact=true nodes=20 prunes=17/0/1/20/0/0 peaks=0/0 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        rootsplit/1: ub=5 lb=5 exact=true nodes=18 prunes=15/0/1/20/0/0 peaks=0/0 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        astar: ub=5 lb=5 exact=true nodes=17 prunes=14/10/0/11/1/0 peaks=11/24 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        astar/200: ub=5 lb=5 exact=true nodes=17 prunes=14/10/0/11/1/0 peaks=11/24 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
        astar/20: ub=5 lb=5 exact=true nodes=17 prunes=14/10/0/11/1/0 peaks=11/24 cache=- ord=[1, 3, 6, 8, 14, 15, 4, 0, 7, 5, 13, 10, 2, 12, 11, 9]
    "#,
    );
}

#[test]
fn tw_gnm_16_34_seed1_trivial_root() {
    // root lower bound meets the heuristic: every search returns at once
    check(
        "tw gnm(16,34,1)",
        tw_runs(&graphs::gnm_random(16, 34, 1)),
        r#"
        bb: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        bb/200: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        bb/20: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        witness@5: nodes=0 ord=Some([15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0])
        steal/1: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        steal/1/20: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        rootsplit/1: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        astar: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        astar/200: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
        astar/20: ub=5 lb=5 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[15, 10, 8, 5, 2, 11, 9, 3, 13, 14, 6, 4, 1, 12, 7, 0]
    "#,
    );
}

#[test]
fn ghw_grid2d_5() {
    check(
        "ghw grid2d 5",
        ghw_runs(&hypergraphs::grid2d(5)),
        r#"
        bb: ub=2 lb=2 exact=true nodes=59 prunes=16/120/1/187/0/0 peaks=0/0 cache=175/129/102 ord=[1, 4, 6, 9, 11, 12, 8, 10, 7, 5, 3, 2, 0]
        bb/200: ub=2 lb=2 exact=true nodes=59 prunes=16/120/1/187/0/0 peaks=0/0 cache=175/129/102 ord=[1, 4, 6, 9, 11, 12, 8, 10, 7, 5, 3, 2, 0]
        bb/20: ub=3 lb=2 exact=false nodes=20 prunes=4/44/0/49/0/0 peaks=0/0 cache=31/58/50 ord=[11, 9, 8, 7, 6, 5, 4, 3, 1, 12, 10, 2, 0]
        witness@2: nodes=59 ord=Some([1, 4, 6, 9, 11, 12, 8, 10, 7, 5, 3, 2, 0])
        steal/1: ub=2 lb=2 exact=true nodes=67 prunes=17/147/1/168/0/0 peaks=0/0 cache=159/141/91 ord=[1, 4, 6, 9, 11, 12, 8, 10, 7, 5, 3, 2, 0]
        steal/1/20: ub=2 lb=2 exact=true nodes=20 prunes=2/59/1/54/0/0 peaks=0/0 cache=11/82/60 ord=[1, 3, 4, 6, 7, 9, 2, 0, 5, 8, 10, 11, 12]
        rootsplit/1: ub=2 lb=2 exact=true nodes=71 prunes=16/276/1/187/0/0 peaks=0/0 cache=166/150/99 ord=[1, 4, 6, 9, 11, 12, 8, 10, 7, 5, 3, 2, 0]
        astar: ub=2 lb=2 exact=true nodes=9 prunes=1/76/0/40/0/0 peaks=24/31 cache=31/49/48 ord=[7, 9, 10, 11, 12, 8, 6, 5, 4, 3, 2, 1, 0]
        astar/200: ub=2 lb=2 exact=true nodes=9 prunes=1/76/0/40/0/0 peaks=24/31 cache=31/49/48 ord=[7, 9, 10, 11, 12, 8, 6, 5, 4, 3, 2, 1, 0]
        astar/20: ub=2 lb=2 exact=true nodes=9 prunes=1/76/0/40/0/0 peaks=24/31 cache=31/49/48 ord=[7, 9, 10, 11, 12, 8, 6, 5, 4, 3, 2, 1, 0]
    "#,
    );
}

#[test]
fn ghw_random_circuit_16_18_7() {
    check(
        "ghw circuit(16,18,7)",
        ghw_runs(&hypergraphs::random_circuit(16, 18, 7)),
        r#"
        bb: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=0/0 cache=14/41/39 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        bb/200: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=0/0 cache=14/41/39 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        bb/20: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=0/0 cache=14/41/39 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        witness@3: nodes=0 ord=Some([12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11])
        steal/1: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=0/0 cache=14/41/29 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        steal/1/20: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=0/0 cache=14/41/29 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        rootsplit/1: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=0/0 cache=14/41/39 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        astar: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=4/11 cache=14/41/39 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        astar/200: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=4/11 cache=14/41/39 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
        astar/20: ub=3 lb=3 exact=true nodes=12 prunes=8/9/0/32/0/0 peaks=4/11 cache=14/41/39 ord=[12, 10, 8, 7, 2, 0, 6, 4, 5, 1, 3, 9, 15, 14, 13, 11]
    "#,
    );
}

#[test]
fn ghw_random_hypergraph_11_7_3_seed4_trivial_root() {
    check(
        "ghw rh(11,7,3,4)",
        ghw_runs(&hypergraphs::random_hypergraph(11, 7, 3, 4)),
        r#"
        bb: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        bb/200: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        bb/20: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        witness@2: nodes=0 ord=Some([10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1])
        steal/1: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        steal/1/20: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        rootsplit/1: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        astar: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        astar/200: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
        astar/20: ub=2 lb=2 exact=true nodes=0 prunes=0/0/0/0/0/0 peaks=0/0 cache=- ord=[10, 7, 4, 3, 2, 6, 8, 9, 0, 5, 1]
    "#,
    );
}

#[test]
fn ghw_random_hypergraph_11_7_3_seed45() {
    check(
        "ghw rh(11,7,3,45)",
        ghw_runs(&hypergraphs::random_hypergraph(11, 7, 3, 45)),
        r#"
        bb: ub=2 lb=2 exact=true nodes=10 prunes=5/0/1/18/0/0 peaks=0/0 cache=10/27/25 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        bb/200: ub=2 lb=2 exact=true nodes=10 prunes=5/0/1/18/0/0 peaks=0/0 cache=10/27/25 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        bb/20: ub=2 lb=2 exact=true nodes=10 prunes=5/0/1/18/0/0 peaks=0/0 cache=10/27/25 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        witness@2: nodes=10 ord=Some([3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4])
        steal/1: ub=2 lb=2 exact=true nodes=20 prunes=10/0/1/20/0/0 peaks=0/0 cache=21/37/17 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        steal/1/20: ub=2 lb=2 exact=true nodes=20 prunes=10/0/1/20/0/0 peaks=0/0 cache=21/37/17 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        rootsplit/1: ub=2 lb=2 exact=true nodes=10 prunes=5/0/1/18/0/0 peaks=0/0 cache=10/27/25 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        astar: ub=2 lb=2 exact=true nodes=10 prunes=5/28/0/2/0/0 peaks=18/25 cache=10/27/25 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        astar/200: ub=2 lb=2 exact=true nodes=10 prunes=5/28/0/2/0/0 peaks=18/25 cache=10/27/25 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
        astar/20: ub=2 lb=2 exact=true nodes=10 prunes=5/28/0/2/0/0 peaks=18/25 cache=10/27/25 ord=[3, 5, 10, 7, 2, 1, 0, 9, 8, 6, 4]
    "#,
    );
}
