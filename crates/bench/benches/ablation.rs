//! Ablation benchmarks for the design choices called out in DESIGN.md: the
//! effect of the reduction rules, pruning rule 2, the per-node lower bound
//! heuristic and the cover cache on the exact searches, and greedy vs exact
//! covering in BB-ghw. Wall-clock per configuration on a fixed instance —
//! lower is better, and the full configuration should win.
//!
//! Driven by the dependency-free median-of-N harness in
//! `ghd_bench::timer` (the offline build has no criterion).

use ghd_bench::timer::Harness;
use ghd_core::setcover::CoverMethod;
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_search::{bb_ghw, bb_tw, BbConfig, BbGhwConfig, SearchLimits};
use std::hint::black_box;

fn bench_bb_tw_ablations(hn: &mut Harness) {
    let g = graphs::queen(5); // tw = 18, nontrivial but fast with pruning
    let configs: [(&str, BbConfig); 3] = [
        ("full", BbConfig::default()),
        (
            "no-pr2",
            BbConfig {
                use_pr2: false,
                ..BbConfig::default()
            },
        ),
        (
            "no-reductions",
            BbConfig {
                use_reductions: false,
                ..BbConfig::default()
            },
        ),
    ];
    for (name, cfg) in &configs {
        hn.bench(&format!("bb_tw_queen5_5/{name}"), || {
            let r = bb_tw(black_box(&g), cfg);
            assert_eq!(r.upper_bound, 18);
        });
    }
}

fn bench_bb_ghw_ablations(hn: &mut Harness) {
    let h = hypergraphs::random_hypergraph(13, 9, 3, 1);
    let configs: [(&str, BbGhwConfig); 5] = [
        ("full-exact-cover", BbGhwConfig::default()),
        (
            "no-cover-cache",
            BbGhwConfig {
                use_cover_cache: false,
                ..BbGhwConfig::default()
            },
        ),
        (
            "no-pr2",
            BbGhwConfig {
                use_pr2: false,
                ..BbGhwConfig::default()
            },
        ),
        (
            "no-reductions",
            BbGhwConfig {
                use_reductions: false,
                ..BbGhwConfig::default()
            },
        ),
        (
            "greedy-cover",
            BbGhwConfig {
                cover: CoverMethod::Greedy,
                ..BbGhwConfig::default()
            },
        ),
    ];
    for (name, cfg) in &configs {
        hn.bench(&format!("bb_ghw_random_13_9/{name}"), || {
            black_box(bb_ghw(black_box(&h), cfg));
        });
    }
}

fn bench_astar_vs_bb(hn: &mut Harness) {
    let g = graphs::grid(5);
    hn.bench("exact_tw_grid5/astar_tw", || {
        let r = ghd_search::astar_tw(black_box(&g), SearchLimits::unlimited());
        assert_eq!(r.upper_bound, 5);
    });
    hn.bench("exact_tw_grid5/bb_tw", || {
        let r = bb_tw(black_box(&g), &BbConfig::default());
        assert_eq!(r.upper_bound, 5);
    });
}

fn main() {
    let mut hn = Harness::from_env();
    bench_bb_tw_ablations(&mut hn);
    bench_bb_ghw_ablations(&mut hn);
    bench_astar_vs_bb(&mut hn);
    hn.finish();
}
