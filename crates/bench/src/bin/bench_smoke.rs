//! Smoke benchmark for the search runtime: times BB-ghw with the set-cover
//! transposition cache **on vs off**, checks the widths agree, and emits a
//! machine-readable `BENCH_search.json` next to the console table.
//!
//! The instances are chosen so the search *completes* well inside the
//! budget — a budget-capped run burns the whole budget either way, hiding
//! the cache's effect; on completing instances the node count is identical
//! by construction and the wall-clock difference is purely the memoized
//! covers. Two more sections record A\* runs on completing instances and
//! the safe-separator split on blocky ones. Nothing here gates on
//! seconds: `validate_bench` checks the artifact's counters.
//!
//! ```text
//! cargo run --release -p ghd-bench --bin bench_smoke -- \
//!     --time 30 --runs 3 --out BENCH_search.json
//! ```

use ghd_bench::instances::HypergraphInstance;
use ghd_bench::table::{Args, Table};
use ghd_bench::timer;
use ghd_core::bucket::ghd_from_ordering;
use ghd_core::eval::TwEvaluator;
use ghd_core::{CoverMethod, EliminationOrdering};
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::{Graph, Hypergraph};
use ghd_search::{
    astar_ghw, astar_tw, bb_ghw, bb_tw, split_tw, BbConfig, BbGhwConfig, SearchLimits, SearchStats,
};
use std::time::{Duration, Instant};

/// BB-ghw completes on each of these in well under a second, so cache
/// on/off is an apples-to-apples wall-clock comparison. Every instance is
/// chosen so the search actually *enters* the cover branch and bound and
/// revisits bags (`cache_hits > 0`) — trivially-reduced instances like
/// `adder_15` or `clique_10`, where preprocessing closes the gap at the
/// root and the cache never engages, say nothing about memoization.
fn smoke_suite() -> Vec<HypergraphInstance> {
    let hi = |name: &str, h: Hypergraph| HypergraphInstance {
        name: name.to_string(),
        hypergraph: h,
        reference_ub: None,
    };
    vec![
        hi("syn-rand_24", hypergraphs::random_hypergraph(24, 28, 4, 9)),
        hi("syn-circuit_35", hypergraphs::random_circuit(35, 38, 7)),
        hi("grid2d_6", hypergraphs::grid2d(6)),
        hi("grid2d_7", hypergraphs::grid2d(7)),
        hi("syn-circuit_30", hypergraphs::random_circuit(30, 32, 0xA)),
    ]
}

/// Chain `blocks` left to right: block `i > 0`'s vertex `at` is identified
/// with the previous block's last free vertex, so consecutive blocks share
/// exactly one cut vertex and the whole graph splits into `blocks.len()`
/// biconnected atoms.
fn chain_blocks(blocks: &[(Graph, usize)]) -> Graph {
    let total: usize =
        blocks.iter().map(|(g, _)| g.num_vertices()).sum::<usize>() - (blocks.len() - 1);
    let mut g = Graph::new(total);
    let mut base = 0;
    let mut prev_glue = 0;
    for (i, (b, at)) in blocks.iter().enumerate() {
        let map: Vec<usize> = (0..b.num_vertices())
            .map(|v| {
                if i > 0 && v == *at {
                    prev_glue
                } else if i > 0 && v > *at {
                    base + v - 1
                } else {
                    base + v
                }
            })
            .collect();
        for (u, v) in b.edges() {
            g.add_edge(map[u], map[v]);
        }
        prev_glue =
            if i > 0 { base + b.num_vertices() - 2 } else { base + b.num_vertices() - 1 };
        base += b.num_vertices() - usize::from(i > 0);
    }
    g
}

/// Blocky instances for the split sweep: hard irreducible blocks (queen
/// graphs survive every preprocessing rule) glued at safe separators. The
/// monolithic BB search pays for the product of the blocks' subtree sizes;
/// the split search pays for their sum — that gap, not parallelism, is
/// what the sweep measures. Names and seeds are fixed for baseline diffs.
fn split_suite() -> Vec<(&'static str, Graph)> {
    let q4 = graphs::queen(4);
    let r16 = graphs::gnm_random(16, 40, 7);
    vec![
        ("queen-pair_4", {
            // two queen(4) sharing the edge {0, 1}: a clique separator
            let qn = q4.num_vertices();
            let mut g = Graph::new(2 * qn - 2);
            for (u, v) in q4.edges() {
                g.add_edge(u, v);
            }
            let map: Vec<usize> =
                (0..qn).map(|v| if v < 2 { v } else { qn - 2 + v }).collect();
            for (u, v) in q4.edges() {
                g.add_edge(map[u], map[v]);
            }
            g
        }),
        ("queen-chain_3", chain_blocks(&[(q4.clone(), 0), (q4.clone(), 0), (q4.clone(), 0)])),
        ("gnm-pair_16", chain_blocks(&[(r16.clone(), 0), (r16.clone(), 0)])),
    ]
}

/// One row of the split sweep: the same exact BB-tw search with the
/// safe-separator split layer off vs on, best-of-`runs` wall clocks, and
/// the nodes each side expanded (the split side as block solves plus the
/// whole-instance witness). `validate_bench` gates on the node counts.
struct SplitRow {
    instance: String,
    vertices: usize,
    edges: usize,
    width: usize,
    exact: bool,
    certified: bool,
    wall_s_mono: f64,
    wall_s_split: f64,
    speedup: f64,
    nodes_mono: u64,
    nodes_blocks: u64,
    nodes_witness: u64,
    blocks: usize,
    kinds: Vec<String>,
}

/// A\*-tw rows: graphs on which A\*-tw *completes* in about a second, so the
/// reported wall clock measures the search and not the budget. Names and
/// seeds are fixed — the committed baseline diffs against them by name.
fn astar_tw_suite() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid_6", graphs::grid(6)),
        ("gnm_26_100", graphs::gnm_random(26, 100, 1)),
        ("gnm_34_85", graphs::gnm_random(34, 85, 5)),
        ("queen_5", graphs::queen(5)),
    ]
}

/// A\*-ghw rows, same completing-instances principle.
fn astar_ghw_suite() -> Vec<(&'static str, Hypergraph)> {
    vec![
        ("rand_24_28_4", hypergraphs::random_hypergraph(24, 28, 4, 9)),
        ("circuit_35", hypergraphs::random_circuit(35, 38, 7)),
        ("grid2d_6", hypergraphs::grid2d(6)),
        ("grid2d_7", hypergraphs::grid2d(7)),
    ]
}

/// One A\* benchmark row: the wall clock is the **median over
/// `GHD_BENCH_SAMPLES` stats-off runs** ([`timer::measure`]), and the
/// memory gauges come from one extra stats-on run, which is behaviourally
/// free and therefore describes exactly the timed runs.
struct AstarRow {
    instance: String,
    algo: &'static str,
    vertices: usize,
    edges: usize,
    width: usize,
    exact: bool,
    certified: bool,
    wall_s: f64,
    wall_s_min: f64,
    samples: usize,
    nodes_expanded: u64,
    open_peak: u64,
    seen_peak: u64,
    open_peak_bytes: u64,
    seen_peak_bytes: u64,
}

struct Row {
    instance: String,
    vertices: usize,
    edges: usize,
    width_off: usize,
    width_on: usize,
    lower_bound: usize,
    exact: bool,
    wall_off: f64,
    wall_on: f64,
    nodes_expanded: u64,
    hits: u64,
    misses: u64,
    hit_rate: f64,
    /// The reported width is backed by an independently re-verified GHD
    /// (Definition 13 checked from scratch); `validate_bench` requires it.
    certified: bool,
    /// Telemetry of one stats-enabled run (recording is behaviourally free,
    /// but the timed runs above stay stats-off so the wall clocks measure
    /// nothing but the search).
    stats: SearchStats,
}

fn main() {
    let args = Args::parse();
    let secs: f64 = args.get("time").unwrap_or(30.0);
    let runs: usize = args.get::<usize>("runs").unwrap_or(3).max(1);
    let out: String = args.get("out").unwrap_or_else(|| "BENCH_search.json".to_string());

    println!("bench_smoke — BB-ghw cover cache on/off ({secs}s safety budget, best of {runs})\n");
    let mut t = Table::new(&[
        "Hypergraph", "width", "status", "t_off[s]", "t_on[s]", "speedup", "hits", "hit%",
    ]);

    let mut rows: Vec<Row> = Vec::new();
    for inst in smoke_suite() {
        let h = &inst.hypergraph;
        let variant = |use_cache: bool| {
            let cfg = BbGhwConfig {
                limits: SearchLimits::with_time(Duration::from_secs_f64(secs)),
                use_cover_cache: use_cache,
                ..BbGhwConfig::default()
            };
            let mut best_wall = f64::INFINITY;
            let mut last = None;
            for _ in 0..runs {
                let t0 = Instant::now();
                let r = bb_ghw(h, &cfg);
                best_wall = best_wall.min(t0.elapsed().as_secs_f64());
                last = Some(r);
            }
            (best_wall, last.expect("runs >= 1"))
        };
        let (wall_off, r_off) = variant(false);
        let (wall_on, r_on) = variant(true);
        assert_eq!(
            r_off.upper_bound, r_on.upper_bound,
            "{}: cache changed the width",
            inst.name
        );
        assert_eq!(r_off.exact, r_on.exact, "{}: cache changed exactness", inst.name);
        let cache = r_on.cover_cache.unwrap_or_default();

        // one additional stats-enabled run for the telemetry record; it
        // must reproduce the timed runs exactly (recording never feeds back)
        let r_stats = bb_ghw(
            h,
            &BbGhwConfig {
                limits: SearchLimits::with_time(Duration::from_secs_f64(secs)).stats(true),
                use_cover_cache: true,
                ..BbGhwConfig::default()
            },
        );
        assert_eq!(
            r_stats.upper_bound, r_on.upper_bound,
            "{}: telemetry changed the width",
            inst.name
        );
        assert_eq!(
            r_stats.nodes_expanded, r_on.nodes_expanded,
            "{}: telemetry changed the node count",
            inst.name
        );
        let stats = r_stats.stats.expect("stats requested");

        // self-certification: rebuild the decomposition the incumbent
        // ordering induces and verify it independently; a mismatch is a
        // search bug and must abort the bench loudly rather than publish
        // an unbacked number
        let certified = {
            let ordering = r_on
                .ordering
                .clone()
                .unwrap_or_else(|| panic!("InternalError: {}: no ordering to certify", inst.name));
            let sigma = EliminationOrdering::new(ordering).unwrap_or_else(|| {
                panic!("InternalError: {}: ordering is not a permutation", inst.name)
            });
            let ghd = ghd_from_ordering(h, &sigma, CoverMethod::Exact);
            if let Err(e) = ghd.verify(h) {
                panic!("InternalError: {}: certificate rejected: {e}", inst.name);
            }
            if ghd.width() != r_on.upper_bound {
                panic!(
                    "InternalError: {}: certificate rejected: decomposition width {} != reported {}",
                    inst.name,
                    ghd.width(),
                    r_on.upper_bound
                );
            }
            true
        };

        let row = Row {
            instance: inst.name.clone(),
            vertices: h.num_vertices(),
            edges: h.num_edges(),
            width_off: r_off.upper_bound,
            width_on: r_on.upper_bound,
            lower_bound: r_stats.lower_bound,
            exact: r_on.exact,
            wall_off,
            wall_on,
            nodes_expanded: r_on.nodes_expanded,
            hits: cache.hits,
            misses: cache.misses,
            hit_rate: cache.hit_rate(),
            certified,
            stats,
        };
        t.row(vec![
            row.instance.clone(),
            row.width_on.to_string(),
            if row.exact { "exact" } else { "ub *" }.to_string(),
            format!("{:.3}", row.wall_off),
            format!("{:.3}", row.wall_on),
            format!("{:.2}x", row.wall_off / row.wall_on.max(1e-9)),
            row.hits.to_string(),
            format!("{:.0}%", row.hit_rate * 100.0),
        ]);
        rows.push(row);
    }
    t.print();

    let total_off: f64 = rows.iter().map(|r| r.wall_off).sum();
    let total_on: f64 = rows.iter().map(|r| r.wall_on).sum();
    println!(
        "\ntotal wall: cache off {:.3}s, cache on {:.3}s ({:.2}x)",
        total_off,
        total_on,
        total_off / total_on.max(1e-9)
    );

    // ---- A* section: best-first searches on completing instances --------
    println!("\nbench_smoke — A*-tw / A*-ghw on completing instances (median of GHD_BENCH_SAMPLES)\n");
    let mut at = Table::new(&[
        "Instance", "algo", "width", "status", "median[s]", "nodes", "open_pk", "seen_pk",
        "open_B", "seen_B",
    ]);
    let limits = SearchLimits::with_time(Duration::from_secs_f64(secs));
    let mut astar_rows: Vec<AstarRow> = Vec::new();
    for (name, g) in astar_tw_suite() {
        let sample = timer::measure(|| {
            std::hint::black_box(astar_tw(&g, limits.clone()));
        });
        let r = astar_tw(&g, limits.clone().stats(true));
        let stats = r.stats.as_ref().expect("stats requested");
        let certified = {
            let ordering = r
                .ordering
                .clone()
                .unwrap_or_else(|| panic!("InternalError: {name}: no ordering to certify"));
            let sigma = EliminationOrdering::new(ordering).unwrap_or_else(|| {
                panic!("InternalError: {name}: ordering is not a permutation")
            });
            let w = TwEvaluator::new(&g).width(&sigma);
            if w != r.upper_bound {
                panic!(
                    "InternalError: {name}: certificate rejected: ordering width {w} != reported {}",
                    r.upper_bound
                );
            }
            true
        };
        astar_rows.push(AstarRow {
            instance: name.to_string(),
            algo: "astar_tw",
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            width: r.upper_bound,
            exact: r.exact,
            certified,
            wall_s: sample.median_ns / 1e9,
            wall_s_min: sample.min_ns / 1e9,
            samples: sample.samples,
            nodes_expanded: r.nodes_expanded,
            open_peak: stats.open_peak,
            seen_peak: stats.seen_peak,
            open_peak_bytes: stats.open_peak_bytes,
            seen_peak_bytes: stats.seen_peak_bytes,
        });
    }
    for (name, h) in astar_ghw_suite() {
        let sample = timer::measure(|| {
            std::hint::black_box(astar_ghw(&h, limits.clone()));
        });
        let r = astar_ghw(&h, limits.clone().stats(true));
        let stats = r.stats.as_ref().expect("stats requested");
        let certified = {
            let ordering = r
                .ordering
                .clone()
                .unwrap_or_else(|| panic!("InternalError: {name}: no ordering to certify"));
            let sigma = EliminationOrdering::new(ordering).unwrap_or_else(|| {
                panic!("InternalError: {name}: ordering is not a permutation")
            });
            let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
            if let Err(e) = ghd.verify(&h) {
                panic!("InternalError: {name}: certificate rejected: {e}");
            }
            if ghd.width() != r.upper_bound {
                panic!(
                    "InternalError: {name}: certificate rejected: decomposition width {} != reported {}",
                    ghd.width(),
                    r.upper_bound
                );
            }
            true
        };
        astar_rows.push(AstarRow {
            instance: name.to_string(),
            algo: "astar_ghw",
            vertices: h.num_vertices(),
            edges: h.num_edges(),
            width: r.upper_bound,
            exact: r.exact,
            certified,
            wall_s: sample.median_ns / 1e9,
            wall_s_min: sample.min_ns / 1e9,
            samples: sample.samples,
            nodes_expanded: r.nodes_expanded,
            open_peak: stats.open_peak,
            seen_peak: stats.seen_peak,
            open_peak_bytes: stats.open_peak_bytes,
            seen_peak_bytes: stats.seen_peak_bytes,
        });
    }
    for r in &astar_rows {
        at.row(vec![
            r.instance.clone(),
            r.algo.to_string(),
            r.width.to_string(),
            if r.exact { "exact" } else { "ub *" }.to_string(),
            format!("{:.3}", r.wall_s),
            r.nodes_expanded.to_string(),
            r.open_peak.to_string(),
            r.seen_peak.to_string(),
            r.open_peak_bytes.to_string(),
            r.seen_peak_bytes.to_string(),
        ]);
    }
    at.print();

    // ---- split sweep: safe-separator divide and conquer on vs off -------
    println!("\nbench_smoke — BB-tw safe-separator split on vs off (best of {runs})\n");
    let mut spt = Table::new(&[
        "Graph", "width", "status", "t_mono[s]", "t_split[s]", "speedup", "n_mono", "n_blocks",
        "n_witness", "blocks", "kinds",
    ]);
    let mut split_rows: Vec<SplitRow> = Vec::new();
    for (name, g) in split_suite() {
        let cfg = BbConfig {
            limits: SearchLimits::with_time(Duration::from_secs_f64(secs)),
            ..BbConfig::default()
        };
        let mut wall_mono = f64::INFINITY;
        let mut mono = None;
        for _ in 0..runs {
            let t0 = Instant::now();
            let r = bb_tw(&g, &cfg);
            wall_mono = wall_mono.min(t0.elapsed().as_secs_f64());
            mono = Some(r);
        }
        let mono = mono.expect("runs >= 1");
        let mut wall_split = f64::INFINITY;
        let mut split = None;
        for _ in 0..runs {
            let t0 = Instant::now();
            let s = split_tw(&g, &cfg, 4, None);
            wall_split = wall_split.min(t0.elapsed().as_secs_f64());
            split = Some(s);
        }
        let split = split.expect("runs >= 1");
        assert!(split.report.split, "{name}: the split layer must engage");
        // the gated node counts are the same for any thread count
        let work = |r: &ghd_search::SplitReport| {
            (r.blocks.iter().map(|b| b.nodes).collect::<Vec<_>>(), r.witness_nodes)
        };
        assert_eq!(
            work(&split_tw(&g, &cfg, 1, None).report),
            work(&split.report),
            "{name}: node counts depend on the thread count"
        );
        assert_eq!(
            split.result.upper_bound, mono.upper_bound,
            "{name}: splitting changed the width"
        );
        assert_eq!(split.result.exact, mono.exact, "{name}: splitting changed exactness");
        assert_eq!(
            split.result.ordering, mono.ordering,
            "{name}: splitting changed the ordering"
        );
        // certify exactly like every other section: the reported width must
        // be realised by the returned elimination ordering
        let certified = {
            let ordering = split
                .result
                .ordering
                .clone()
                .unwrap_or_else(|| panic!("InternalError: {name}: no ordering to certify"));
            let sigma = EliminationOrdering::new(ordering).unwrap_or_else(|| {
                panic!("InternalError: {name}: ordering is not a permutation")
            });
            let w = TwEvaluator::new(&g).width(&sigma);
            if w != split.result.upper_bound {
                panic!(
                    "InternalError: {name}: certificate rejected: ordering width {w} != reported {}",
                    split.result.upper_bound
                );
            }
            true
        };
        let kinds: Vec<String> =
            split.report.blocks.iter().map(|b| b.kind.as_str().to_string()).collect();
        let row = SplitRow {
            instance: name.to_string(),
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            width: split.result.upper_bound,
            exact: split.result.exact,
            certified,
            wall_s_mono: wall_mono,
            wall_s_split: wall_split,
            speedup: wall_mono / wall_split.max(1e-9),
            nodes_mono: mono.nodes_expanded,
            nodes_blocks: work(&split.report).0.iter().sum(),
            nodes_witness: split.report.witness_nodes,
            blocks: split.report.blocks.len(),
            kinds,
        };
        spt.row(vec![
            row.instance.clone(),
            row.width.to_string(),
            if row.exact { "exact" } else { "ub *" }.to_string(),
            format!("{:.4}", row.wall_s_mono),
            format!("{:.4}", row.wall_s_split),
            format!("{:.2}x", row.speedup),
            row.nodes_mono.to_string(),
            row.nodes_blocks.to_string(),
            row.nodes_witness.to_string(),
            row.blocks.to_string(),
            row.kinds.join(","),
        ]);
        split_rows.push(row);
    }
    spt.print();

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"bb_ghw_cover_cache\",\n");
    json.push_str(&format!("  \"time_budget_s\": {secs},\n"));
    json.push_str(&format!("  \"runs\": {runs},\n"));
    json.push_str(&format!("  \"total_wall_s_cache_off\": {total_off:.6},\n"));
    json.push_str(&format!("  \"total_wall_s_cache_on\": {total_on:.6},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let incumbents: Vec<String> = r
            .stats
            .incumbents
            .iter()
            .map(|s| {
                format!(
                    "{{\"elapsed_s\": {:.6}, \"upper_bound\": {}, \"lower_bound\": {}}}",
                    s.elapsed.as_secs_f64(),
                    s.upper_bound,
                    s.lower_bound
                )
            })
            .collect();
        let faults: Vec<String> = r
            .stats
            .faults
            .iter()
            .map(|f| {
                format!(
                    "{{\"worker\": {}, \"task\": {}, \"payload\": \"{}\"}}",
                    f.worker,
                    f.task,
                    ghd_core::json::escape(&f.payload)
                )
            })
            .collect();
        let p = &r.stats.prunes;
        json.push_str(&format!(
            "    {{\"instance\": \"{}\", \"vertices\": {}, \"edges\": {}, \
             \"width\": {}, \"width_cache_off\": {}, \"lower_bound\": {}, \"exact\": {}, \
             \"certified\": {}, \"faults\": [{}], \
             \"wall_s_cache_off\": {:.6}, \"wall_s_cache_on\": {:.6}, \
             \"nodes_expanded\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \
             \"incumbents\": [{}], \
             \"prunes\": {{\"simplicial\": {}, \"pr2_filtered\": {}, \"pr1_closures\": {}, \
             \"f_prunes\": {}, \"dominance_hits\": {}, \"capped_covers\": {}}}}}{}\n",
            r.instance,
            r.vertices,
            r.edges,
            r.width_on,
            r.width_off,
            r.lower_bound,
            r.exact,
            r.certified,
            faults.join(", "),
            r.wall_off,
            r.wall_on,
            r.nodes_expanded,
            r.hits,
            r.misses,
            r.hit_rate,
            incumbents.join(", "),
            p.simplicial,
            p.pr2_filtered,
            p.pr1_closures,
            p.f_prunes,
            p.dominance_hits,
            p.capped_covers,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"astar_results\": [\n");
    for (i, r) in astar_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"instance\": \"{}\", \"algo\": \"{}\", \"vertices\": {}, \"edges\": {}, \
             \"width\": {}, \"exact\": {}, \"certified\": {}, \
             \"wall_s\": {:.6}, \"wall_s_min\": {:.6}, \"samples\": {}, \
             \"nodes_expanded\": {}, \
             \"open_peak\": {}, \"seen_peak\": {}, \
             \"open_peak_bytes\": {}, \"seen_peak_bytes\": {}}}{}\n",
            r.instance,
            r.algo,
            r.vertices,
            r.edges,
            r.width,
            r.exact,
            r.certified,
            r.wall_s,
            r.wall_s_min,
            r.samples,
            r.nodes_expanded,
            r.open_peak,
            r.seen_peak,
            r.open_peak_bytes,
            r.seen_peak_bytes,
            if i + 1 == astar_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"split_sweep\": [\n");
    for (i, r) in split_rows.iter().enumerate() {
        let kinds: Vec<String> = r.kinds.iter().map(|k| format!("\"{k}\"")).collect();
        json.push_str(&format!(
            "    {{\"instance\": \"{}\", \"vertices\": {}, \"edges\": {}, \
             \"width\": {}, \"exact\": {}, \"certified\": {}, \
             \"wall_s_mono\": {:.6}, \"wall_s_split\": {:.6}, \"speedup\": {:.4}, \
             \"nodes_mono\": {}, \"nodes_blocks\": {}, \"nodes_witness\": {}, \
             \"blocks\": {}, \"kinds\": [{}]}}{}\n",
            r.instance,
            r.vertices,
            r.edges,
            r.width,
            r.exact,
            r.certified,
            r.wall_s_mono,
            r.wall_s_split,
            r.speedup,
            r.nodes_mono,
            r.nodes_blocks,
            r.nodes_witness,
            r.blocks,
            kinds.join(", "),
            if i + 1 == split_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write BENCH_search.json");
    println!("wrote {out}");
}
