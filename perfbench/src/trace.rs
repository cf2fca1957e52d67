//! The traced run's layer walk: the public functions of each layer, called
//! one by one on the workload's own instances and timed from here (no span
//! lives inside the program). Searches a workload does not exercise run
//! under a small cap, so every layer is measured on every workload's
//! inputs without its cost taking over the run.

use crate::inst::{Inst, Kind};
use crate::serve::one_shot;
use crate::util::timed;
use crate::Metrics;
use ghd_bounds::ksc::ghw_lower_bound;
use ghd_bounds::lower::tw_lower_bound;
use ghd_bounds::upper::{ghw_upper_bound, tw_upper_bound};
use ghd_core::bucket::{ghd_from_ordering, vertex_elimination};
use ghd_core::{CoverMethod, EliminationOrdering};
use ghd_prng::rngs::StdRng;
use ghd_search::{
    astar_ghw, astar_tw, bb_ghw, bb_ghw_parallel, bb_ghw_parallel_rootsplit, bb_tw, bb_tw_parallel,
    bb_tw_parallel_rootsplit, preprocess_tw, split_ghw, split_tw, witness_ghw, witness_tw,
    BbConfig, BbGhwConfig, Budget, SearchLimits, SearchResult,
};
use std::time::Duration;

/// Which search the workload itself runs (its untraced solve path).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    /// `--method astar`, sequential.
    Astar,
    /// `--method bb --threads 2`: the split layer over the parallel BB.
    SplitBb,
}

/// One instance of the walk: what the untraced path runs on it.
pub struct Target<'a> {
    pub inst: &'a Inst,
    pub flags: Vec<String>,
    pub primary: Primary,
    /// Budget of the workload's own search on this instance.
    pub budget_s: f64,
    /// Run the BB / parallel layer uncapped (monolithic `bb-parallel` rows).
    pub full_par: bool,
}

/// Limits of a search the workload does not run itself.
fn capped() -> SearchLimits {
    SearchLimits {
        time_limit: Some(Duration::from_millis(500)),
        max_nodes: Some(20_000),
        ..SearchLimits::default()
    }
}

fn budget(secs: f64) -> SearchLimits {
    SearchLimits::with_time(Duration::from_secs_f64(secs))
}

/// Sums of the walk, turned into per-layer metrics at the end.
#[derive(Default)]
pub struct Walk {
    parse: f64,
    certify: f64,
    render: f64,
    lb: f64,
    ub: f64,
    gap: f64,
    separators: f64,
    preprocess: f64,
    eliminated: f64,
    astar: f64,
    astar_nodes: f64,
    pr2: f64,
    f_prunes: f64,
    simplicial: f64,
    open_bytes: f64,
    seen_bytes: f64,
    cover_hits: f64,
    cover_misses: f64,
    split: f64,
    blocks: f64,
    largest_block: f64,
    witness_nodes: f64,
    witness: f64,
    stitched: f64,
    bb_seq: f64,
    steal: f64,
    rootsplit: f64,
    published: f64,
    stolen: f64,
    retried: f64,
    seq_nodes: f64,
    par_nodes: f64,
    primary_off: f64,
    primary_on: f64,
    coverage: Vec<(String, f64)>,
    /// One-shot bodies (the serve session compares daemon replies to them).
    pub bodies: Vec<String>,
    /// One-shot solve seconds per instance.
    pub solve_s: Vec<f64>,
}

impl Walk {
    pub fn one(&mut self, t: &Target<'_>, tally: &mut crate::Tally) {
        let (res, solve_s) = timed(|| one_shot(t.inst, &t.flags));
        crate::serve::judge_answer(tally, t.inst, &res);
        self.bodies.push(res.map(|r| r.body).unwrap_or_default());
        self.solve_s.push(solve_s);
        let (parse, certify, render) = match t.inst.kind {
            Kind::Tw => self.tw(t),
            Kind::Ghw => self.ghw(t),
        };
        // The whole and its search term come from one `--stats json` solve,
        // which reports its own search time: timing the search in a separate
        // call would let host noise between the calls swamp the ratio. Only
        // the millisecond parts are timed apart.
        let mut flags = t.flags.clone();
        flags.extend(["--stats".to_string(), "json".to_string()]);
        let (stats, whole) = timed(|| one_shot(t.inst, &flags));
        let search = stats.map_or(0.0, |r| crate::serve::stats_field(&r.body, "elapsed_s"));
        self.coverage.push((
            t.inst.spec.clone(),
            (parse + search + certify + render) / whole,
        ));
    }

    /// Common bookkeeping of the A* and BB-family results.
    fn searches(
        &mut self,
        astar_off: (SearchResult, f64),
        astar_on: SearchResult,
        seq: (SearchResult, f64),
        steal: (SearchResult, f64),
        root: f64,
    ) {
        self.astar += astar_off.1;
        self.astar_nodes += astar_off.0.nodes_expanded as f64;
        if let Some(st) = &astar_on.stats {
            self.pr2 += st.prunes.pr2_filtered as f64;
            self.f_prunes += st.prunes.f_prunes as f64;
            self.simplicial += st.prunes.simplicial as f64;
            self.open_bytes = self.open_bytes.max(st.open_peak_bytes as f64);
            self.seen_bytes = self.seen_bytes.max(st.seen_peak_bytes as f64);
        }
        self.bb_seq += seq.1;
        self.seq_nodes += seq.0.nodes_expanded as f64;
        self.steal += steal.1;
        self.par_nodes += steal.0.nodes_expanded as f64;
        if let Some(st) = &steal.0.stats {
            for c in &st.worker_steals {
                self.published += c.published as f64;
                self.stolen += c.stolen as f64;
                self.retried += c.retried as f64;
            }
        }
        self.rootsplit += root;
    }

    fn cover(&mut self, r: &SearchResult) {
        if let Some(c) = &r.cover_cache {
            self.cover_hits += c.hits as f64;
            self.cover_misses += c.misses as f64;
        }
    }

    fn split_report(&mut self, r: &ghd_search::SplitReport, secs: f64) {
        self.split += secs;
        self.blocks += r.blocks.len() as f64;
        self.largest_block = self
            .largest_block
            .max(r.blocks.iter().map(|b| b.size).max().unwrap_or(0) as f64);
        self.witness_nodes += r.witness_nodes as f64;
        self.stitched += f64::from(u8::from(r.stitched));
    }

    /// Returns (parse, certify, render) seconds.
    fn tw(&mut self, t: &Target<'_>) -> (f64, f64, f64) {
        let (g, parse) = timed(|| ghd_cli::load_graph(&t.inst.text).expect("instance parses"));
        let (lb, tlb) = timed(|| tw_lower_bound::<StdRng>(&g, None));
        let ((ub, _), tub) = timed(|| tw_upper_bound::<StdRng>(&g, None));
        let (_, sep) = timed(|| {
            let b = ghd_hypergraph::separators::biconnected_components(&g);
            let a = ghd_hypergraph::separators::clique_separator_atoms(&g);
            (b.blocks.len(), a.atoms.len())
        });
        let (pre, tpre) = timed(|| preprocess_tw(&g));
        self.add_root(
            parse,
            tlb,
            tub,
            ub.saturating_sub(lb),
            sep,
            tpre,
            pre.eliminated.len(),
        );

        let own = budget(t.budget_s);
        let astar_limits = if t.primary == Primary::Astar {
            own.clone()
        } else {
            capped()
        };
        let astar_off = timed(|| astar_tw(&g, astar_limits.clone()));
        let (astar_on, astar_on_s) = timed(|| astar_tw(&g, astar_limits.clone().stats(true)));
        let split_cfg = |limits: SearchLimits| BbConfig {
            limits,
            ..BbConfig::default()
        };
        let split_limits = if t.primary == Primary::SplitBb {
            own.clone()
        } else {
            capped()
        };
        let (split_off, split_s) =
            timed(|| split_tw(&g, &split_cfg(split_limits.clone()), 2, None));
        self.split_report(&split_off.report, split_s);
        let (primary, primary_s, primary_on_s) = match t.primary {
            Primary::Astar => (astar_off.0.clone(), astar_off.1, astar_on_s),
            Primary::SplitBb => {
                let (_, on_s) =
                    timed(|| split_tw(&g, &split_cfg(split_limits.clone().stats(true)), 2, None));
                (split_off.result.clone(), split_s, on_s)
            }
        };
        self.primary_off += primary_s;
        self.primary_on += primary_on_s;

        let par_limits = if t.full_par { own.clone() } else { capped() };
        let seq = timed(|| bb_tw(&g, &split_cfg(par_limits.clone())));
        let steal = timed(|| bb_tw_parallel(&g, &split_cfg(par_limits.clone().stats(true)), 2));
        let (_, root) = timed(|| bb_tw_parallel_rootsplit(&g, &split_cfg(par_limits.clone()), 2));
        self.searches(astar_off, astar_on, seq, steal, root);

        let width = known_width(&primary, t.inst);
        let wit_limits = if t.primary == Primary::SplitBb {
            own
        } else {
            capped()
        };
        let (_, wsecs) = timed(|| {
            let cfg = split_cfg(wit_limits.clone());
            witness_tw(&g, width, &cfg, &Budget::new(&cfg.limits))
        });
        self.witness += wsecs;

        let sigma = primary.ordering.clone().and_then(EliminationOrdering::new);
        let (td, certify) = timed(|| {
            sigma.map(|s| {
                let td = vertex_elimination(&g, &s);
                td.verify_graph(&g).expect("certificate verifies");
                td
            })
        });
        let (_, render) = timed(|| td.as_ref().map(ghd_core::io::write_td));
        self.certify += certify;
        self.render += render;
        (parse, certify, render)
    }

    fn ghw(&mut self, t: &Target<'_>) -> (f64, f64, f64) {
        let (h, parse) =
            timed(|| ghd_hypergraph::io::parse_hypergraph(&t.inst.text).expect("instance parses"));
        let (lb, tlb) = timed(|| ghw_lower_bound::<StdRng>(&h, None));
        let ((ub, _), tub) = timed(|| ghw_upper_bound::<StdRng>(&h, None));
        let (_, sep) = timed(|| ghd_hypergraph::separators::hypergraph_components(&h).len());
        self.add_root(parse, tlb, tub, ub.saturating_sub(lb), sep, 0.0, 0);

        let own = budget(t.budget_s);
        let astar_limits = if t.primary == Primary::Astar {
            own.clone()
        } else {
            capped()
        };
        let astar_off = timed(|| astar_ghw(&h, astar_limits.clone()));
        let (astar_on, astar_on_s) = timed(|| astar_ghw(&h, astar_limits.clone().stats(true)));
        let cfg = |limits: SearchLimits| BbGhwConfig {
            limits,
            ..BbGhwConfig::default()
        };
        let split_limits = if t.primary == Primary::SplitBb {
            own.clone()
        } else {
            capped()
        };
        let (split_off, split_s) = timed(|| split_ghw(&h, &cfg(split_limits.clone()), 2, None));
        self.split_report(&split_off.report, split_s);
        let (primary, primary_s, primary_on_s) = match t.primary {
            Primary::Astar => (astar_off.0.clone(), astar_off.1, astar_on_s),
            Primary::SplitBb => {
                let (_, on_s) =
                    timed(|| split_ghw(&h, &cfg(split_limits.clone().stats(true)), 2, None));
                (split_off.result.clone(), split_s, on_s)
            }
        };
        self.cover(&primary);
        self.primary_off += primary_s;
        self.primary_on += primary_on_s;

        let par_limits = if t.full_par { own.clone() } else { capped() };
        let seq = timed(|| bb_ghw(&h, &cfg(par_limits.clone())));
        let steal = timed(|| bb_ghw_parallel(&h, &cfg(par_limits.clone().stats(true)), 2));
        let (_, root) = timed(|| bb_ghw_parallel_rootsplit(&h, &cfg(par_limits.clone()), 2));
        self.searches(astar_off, astar_on, seq, steal, root);

        let width = known_width(&primary, t.inst);
        let wit_limits = if t.primary == Primary::SplitBb {
            own
        } else {
            capped()
        };
        let (_, wsecs) = timed(|| {
            let c = cfg(wit_limits.clone());
            witness_ghw(&h, width, &c, &Budget::new(&c.limits))
        });
        self.witness += wsecs;

        let sigma = primary.ordering.clone().and_then(EliminationOrdering::new);
        let (ghd, certify) = timed(|| {
            sigma.map(|s| {
                let ghd = ghd_from_ordering(&h, &s, CoverMethod::Exact);
                ghd.verify(&h).expect("certificate verifies");
                ghd
            })
        });
        let (_, render) = timed(|| ghd.as_ref().map(|d| ghd_core::io::write_ghd(d, &h)));
        self.certify += certify;
        self.render += render;
        (parse, certify, render)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_root(
        &mut self,
        parse: f64,
        lb: f64,
        ub: f64,
        gap: usize,
        sep: f64,
        pre: f64,
        eliminated: usize,
    ) {
        self.parse += parse;
        self.lb += lb;
        self.ub += ub;
        self.gap += gap as f64;
        self.separators += sep;
        self.preprocess += pre;
        self.eliminated += eliminated as f64;
    }

    /// Coverage of each instance of the walk.
    pub fn coverage(&self) -> &[(String, f64)] {
        &self.coverage
    }

    pub fn metrics(&self, m: &mut Metrics) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        m.set(
            "trace.coverage",
            self.coverage
                .iter()
                .map(|c| c.1)
                .fold(f64::INFINITY, f64::min),
        );
        m.set("trace.overhead", ratio(self.primary_on, self.primary_off));
        m.set("cli.parse_s", self.parse);
        m.set("cli.certify_s", self.certify);
        m.set("cli.render_s", self.render);
        m.set("bounds.root_lb_s", self.lb);
        m.set("bounds.root_ub_s", self.ub);
        m.set("bounds.root_gap", self.gap);
        m.set("hypergraph.separators_s", self.separators);
        m.set("search.preprocess_s", self.preprocess);
        m.set("search.preprocess_eliminated", self.eliminated);
        m.set("search.astar_s", self.astar);
        m.set("search.nodes", self.astar_nodes);
        m.set(
            "search.us_per_node",
            ratio(self.astar - self.lb - self.ub, self.astar_nodes) * 1e6,
        );
        m.set("search.pr2_filtered", self.pr2);
        m.set("search.f_prunes", self.f_prunes);
        m.set("search.simplicial", self.simplicial);
        m.set("search.open_peak_bytes", self.open_bytes);
        m.set("search.seen_peak_bytes", self.seen_bytes);
        m.set("core.cover_hits", self.cover_hits);
        m.set("core.cover_misses", self.cover_misses);
        m.set(
            "core.cover_hit_rate",
            ratio(self.cover_hits, self.cover_hits + self.cover_misses),
        );
        m.set("search.split_s", self.split);
        m.set("search.split_blocks", self.blocks);
        m.set("search.split_largest_block", self.largest_block);
        m.set("search.witness_nodes", self.witness_nodes);
        m.set("search.witness_s", self.witness);
        m.set("search.split_stitched", self.stitched);
        m.set("search.bb_seq_s", self.bb_seq);
        m.set("par.steal_s", self.steal);
        m.set("par.rootsplit_s", self.rootsplit);
        m.set("par.steal_speedup", ratio(self.bb_seq, self.steal));
        m.set("par.rootsplit_speedup", ratio(self.bb_seq, self.rootsplit));
        m.set("par.published", self.published);
        m.set("par.stolen", self.stolen);
        m.set("par.retried", self.retried);
        m.set("par.node_overhead", ratio(self.par_nodes, self.seq_nodes));
    }
}

/// The width the witness reconstruction is asked to realise: the search's
/// own when exact, else the recorded one, else its upper bound.
fn known_width(r: &SearchResult, inst: &Inst) -> usize {
    if r.exact {
        r.upper_bound
    } else {
        inst.expected.unwrap_or(r.upper_bound)
    }
}
