//! The ghd benchmark: two workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. See README.md.
//!
//! ```text
//! ghd-perfbench --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ghd-perfbench --work DIR --self-test
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.

mod check;
mod inst;
mod serve;
mod trace;
mod util;

use inst::Inst;
use std::path::{Path, PathBuf};
use trace::{Primary, Target, Walk};
use util::{calib_samples, median, peak_rss_mb, timed, Rng};

/// End-to-end metrics (untraced run), every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("solve_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics (traced run), every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.calib_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("cli.parse_s", "s"),
    ("cli.certify_s", "s"),
    ("cli.render_s", "s"),
    ("bounds.root_lb_s", "s"),
    ("bounds.root_ub_s", "s"),
    ("bounds.root_gap", "count"),
    ("hypergraph.separators_s", "s"),
    ("search.preprocess_s", "s"),
    ("search.preprocess_eliminated", "count"),
    ("search.astar_s", "s"),
    ("search.nodes", "count"),
    ("search.us_per_node", "us"),
    ("search.pr2_filtered", "count"),
    ("search.f_prunes", "count"),
    ("search.simplicial", "count"),
    ("search.open_peak_bytes", "bytes"),
    ("search.seen_peak_bytes", "bytes"),
    ("core.cover_hits", "count"),
    ("core.cover_misses", "count"),
    ("core.cover_hit_rate", "ratio"),
    ("search.split_s", "s"),
    ("search.split_blocks", "count"),
    ("search.split_largest_block", "count"),
    ("search.witness_nodes", "count"),
    ("search.witness_s", "s"),
    ("search.split_stitched", "count"),
    ("search.bb_seq_s", "s"),
    ("par.steal_s", "s"),
    ("par.rootsplit_s", "s"),
    ("par.steal_speedup", "ratio"),
    ("par.rootsplit_speedup", "ratio"),
    ("par.published", "count"),
    ("par.stolen", "count"),
    ("par.retried", "count"),
    ("par.node_overhead", "ratio"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p99", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.miss_ms_p90", "ms"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.connect_ms_p90", "ms"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.hit_overhead_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.direct_solve_ms", "ms"),
    ("serve.replay_s", "s"),
    ("serve.replayed", "count"),
    ("serve.log_bytes", "bytes"),
    ("serve.hit_ratio", "ratio"),
    ("serve.errors", "count"),
    ("serve.busy", "count"),
];

pub const WORKLOADS: &[&str] = &["astar-exact", "bb-parallel"];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Operations attempted and how they went. A *wrong* answer (rejected
/// certificate, width off the record, daemon body unlike the one-shot
/// body, daemon error) makes the run incorrect; a *failed* one also covers
/// answers that are sound but not exact within budget, and `busy`.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    pub fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.fail(why);
    }

    pub fn absorb(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        for n in o.notes {
            self.note(n);
        }
    }

    fn note(&mut self, why: String) {
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

struct Args {
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        work: PathBuf::from(".bench_build/perfbench-work"),
        workload: String::new(),
        seed: 1,
        seconds: 45.0,
        trace: false,
        self_test: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let val = || {
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--work" => a.work = PathBuf::from(val()?),
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = val()? == "1",
            "--self-test" => {
                a.self_test = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// Size knobs; the self-test shrinks them.
#[derive(Clone, Copy)]
struct Size {
    /// Hits / fresh connections per instance in a batch serve session.
    hits: usize,
    connects: usize,
    /// Small stand-ins for the batch instance sets.
    tiny: bool,
}

const FULL: Size = Size {
    hits: 30,
    connects: 10,
    tiny: false,
};
const TINY: Size = Size {
    hits: 3,
    connects: 2,
    tiny: true,
};

/// Parses of the instance set in one set-up round: a round lasts
/// milliseconds, well above timer resolution.
const SETUP_REPEATS: usize = 200;
/// Fewest passes over a batch instance set.
const MIN_PASSES: usize = 3;
/// Per-instance budget of the batch workloads.
const BATCH_BUDGET_S: f64 = 30.0;
/// Budget of the known failure in the traced bb-parallel walk.
const KNOWN_FAILURE_BUDGET_S: f64 = 3.0;
const BB_METHOD: &[&str] = &["--method", "bb", "--threads", "2"];
const ASTAR_METHOD: &[&str] = &["--method", "astar"];

fn method_of(workload: &str) -> &'static [&'static str] {
    if workload == "bb-parallel" {
        BB_METHOD
    } else {
        ASTAR_METHOD
    }
}

fn batch_set(workload: &str, size: Size) -> Vec<Inst> {
    match (workload, size.tiny) {
        ("bb-parallel", false) => inst::bb_parallel(),
        (_, false) => inst::astar_exact(),
        ("bb-parallel", true) => vec![
            Inst::new(inst::Kind::Tw, "queen 4 x2"),
            Inst::new(inst::Kind::Ghw, "circuit 24 26 1002"),
        ],
        (_, true) => vec![
            Inst::new(inst::Kind::Tw, "grid 4"),
            Inst::new(inst::Kind::Ghw, "grid2d-h 4"),
        ],
    }
}

/// Untraced batch run: passes over the instance set in seeded order until
/// `seconds` have gone by, one solve at a time through the CLI solve path.
/// A set-up round runs before every solve, so the set-up figure is taken
/// over the same stretch of time as the solve figure.
fn batch(a: &Args, insts: &[Inst], tally: &mut Tally, m: &mut Metrics) {
    let method = method_of(&a.workload);
    let mut setups = Vec::new();
    let mut rng = Rng::new(a.seed);
    let mut order: Vec<usize> = (0..insts.len()).collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); insts.len()];
    let start = std::time::Instant::now();
    while times[0].len() < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
        rng.shuffle(&mut order);
        for &k in &order {
            setups.push(setup_round(insts));
            let i = &insts[k];
            let (res, secs) = timed(|| serve::one_shot(i, &i.flags(method, BATCH_BUDGET_S)));
            times[k].push(secs);
            serve::judge_answer(tally, i, &res);
        }
    }
    // per-instance medians first: one slow pass moves no instance's figure
    let per_inst: Vec<f64> = times.iter().map(|t| median(t)).collect();
    for (i, t) in insts.iter().zip(&times) {
        println!("{:<20} {:>3} solves, s: {t:.4?}", i.spec, t.len());
    }
    m.set("solve_s", per_inst.iter().sum());
    println!(
        "set-up: {} rounds, s per load of the set: {:.3e} .. {:.3e}",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );
    m.set("setup_s", median(&setups));
}

/// One set-up round: seconds to load the instance set once through the CLI
/// parsers (`load_graph` / `parse_hypergraph`), averaged over
/// `SETUP_REPEATS` loads. The texts were made before, so only the
/// program's parsing is timed.
fn setup_round(insts: &[Inst]) -> f64 {
    let ((), secs) = timed(|| {
        for _ in 0..SETUP_REPEATS {
            for i in insts {
                match i.kind {
                    inst::Kind::Tw => drop(std::hint::black_box(
                        ghd_cli::load_graph(&i.text).expect("parses"),
                    )),
                    inst::Kind::Ghw => drop(std::hint::black_box(
                        ghd_hypergraph::io::parse_hypergraph(&i.text).expect("parses"),
                    )),
                }
            }
        }
    });
    secs / SETUP_REPEATS as f64
}

/// Traced batch run: the layer walk, then the serve session.
fn batch_traced(a: &Args, insts: &[Inst], size: Size, tally: &mut Tally, m: &mut Metrics) {
    let method = method_of(&a.workload);
    let primary = if a.workload == "bb-parallel" {
        Primary::SplitBb
    } else {
        Primary::Astar
    };
    let mut targets: Vec<Target<'_>> = insts
        .iter()
        .map(|i| Target {
            inst: i,
            flags: i.flags(method, BATCH_BUDGET_S),
            primary,
            budget_s: BATCH_BUDGET_S,
            full_par: primary == Primary::SplitBb && !i.spec.contains(" x"),
        })
        .collect();
    let known = inst::bb_known_failure();
    if a.workload == "bb-parallel" && !size.tiny {
        targets.push(Target {
            inst: &known,
            flags: known.flags(method, KNOWN_FAILURE_BUDGET_S),
            primary,
            budget_s: KNOWN_FAILURE_BUDGET_S,
            full_par: false,
        });
    }
    // the known failure is measured, not judged: its tally stays apart
    let mut known_tally = Tally::default();
    let mut walk = Walk::default();
    for t in &targets {
        let tl = if std::ptr::eq(t.inst, &known) {
            &mut known_tally
        } else {
            &mut *tally
        };
        walk.one(t, tl);
    }
    for n in &known_tally.notes {
        println!("known failure (not counted): {n}");
    }
    walk.metrics(m);
    print_coverage(&walk);
    let n = insts.len();
    let flags: Vec<Vec<String>> = targets[..n].iter().map(|t| t.flags.clone()).collect();
    let (samples, stats, replay, log_bytes) = serve::session(
        &a.work,
        insts,
        &flags,
        &walk.bodies[..n],
        size.hits,
        size.connects,
        tally,
    );
    serve::ServeLayer {
        samples: samples.iter().collect(),
        stats: &stats,
        replay: &replay,
        log_bytes,
        cache_key_us: serve::cache_key_us(insts, method, BATCH_BUDGET_S),
        direct_solve_ms: median(&walk.solve_s[..n]) * 1e3,
    }
    .metrics(m);
}

fn print_coverage(walk: &Walk) {
    for (spec, c) in walk.coverage() {
        println!("trace.coverage {spec}: {c:.4}");
    }
}

/// One run of one workload; returns the JSON result line.
fn run(a: &Args, size: Size) -> (Tally, Metrics) {
    let mut calib = calib_samples();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let insts = batch_set(&a.workload, size);
    if a.trace {
        batch_traced(a, &insts, size, &mut tally, &mut m);
    } else {
        batch(a, &insts, &mut tally, &mut m);
    }
    calib.extend(calib_samples());
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!("host: {threads} hardware threads; calibration loop: {calib:.3?} ms");
    if a.trace {
        m.set("host.calib_ms", median(&calib));
    } else {
        m.set("peak_rss_mb", peak_rss_mb());
    }
    (tally, m)
}

fn json_line(tally: &Tally, m: &Metrics, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            let v = m
                .get(n)
                .unwrap_or_else(|| panic!("metric {n} was not measured"));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn report(a: &Args, tally: &Tally, m: &Metrics) {
    let names = if a.trace { PER_LAYER } else { END_TO_END };
    for (n, u) in names {
        println!("{:<32} {:>16.6} {u}", n, m.get(n).unwrap_or(f64::NAN));
    }
    for n in &tally.notes {
        println!("FAILED: {n}");
    }
    println!(
        "{}: attempted {}, failed {} (fail_frac {:.4}), wrong {}",
        a.workload,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.wrong
    );
}

fn fresh_dir(p: &Path) {
    let _ = std::fs::remove_dir_all(p);
    std::fs::create_dir_all(p).unwrap_or_else(|e| panic!("cannot create {}: {e}", p.display()));
}

/// Runs every workload at minimal size, traced and untraced, checks each
/// prints every metric of `BENCHMARK.json`, and checks that a corrupted
/// expected width and a mangled `.td` both count as failures.
fn self_test(work: &Path) -> bool {
    let spec = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let mut ok = true;
    let mut expect = |what: &str, cond: bool| {
        println!("self-test {}: {what}", if cond { "ok  " } else { "FAIL" });
        ok &= cond;
    };
    let unnamed: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| m.0)
        .filter(|n| !spec.contains(&format!("\"{n}\"")))
        .collect();
    expect(
        &format!("BENCHMARK.json names every metric {unnamed:?}"),
        unnamed.is_empty(),
    );
    for w in WORKLOADS {
        for trace in [false, true] {
            let a = Args {
                work: work.to_path_buf(),
                workload: w.to_string(),
                seed: 7,
                seconds: 0.0,
                trace,
                self_test: true,
            };
            fresh_dir(&a.work);
            let (tally, m) = run(&a, TINY);
            let names = if trace { PER_LAYER } else { END_TO_END };
            let missing: Vec<&str> = names
                .iter()
                .map(|n| n.0)
                .filter(|n| m.get(n).is_none())
                .collect();
            expect(
                &format!("{w} trace={trace} prints every metric {missing:?}"),
                missing.is_empty(),
            );
            expect(
                &format!("{w} trace={trace} answers correct"),
                tally.wrong == 0 && tally.attempted > 0,
            );
            let line = json_line(&tally, &m, names);
            expect(
                &format!("{w} trace={trace} result line has units"),
                names.iter().all(|(n, u)| {
                    line.contains(&format!("\"{n}\": {{\"value\": "))
                        && line.contains(&format!("\"unit\": \"{u}\""))
                }),
            );
        }
    }
    // a corrupted expected width must count as a (wrong) failure
    let mut g = inst::Inst::new(inst::Kind::Tw, "grid 4");
    g.expected = Some(5);
    let mut t = Tally::default();
    serve::judge_answer(
        &mut t,
        &g,
        &serve::one_shot(&g, &g.flags(ASTAR_METHOD, 10.0)),
    );
    expect(
        "corrupted expected width counts in fail_frac",
        t.failed == 1 && t.wrong == 1,
    );
    // a mangled .td must be rejected by the checker, not panic or pass
    g.expected = Some(4);
    let good = serve::one_shot(&g, &g.flags(ASTAR_METHOD, 10.0)).expect("grid 4 solves");
    let mut bad = good.body.clone();
    let cut = bad.rfind("\nb ").expect("a bag line");
    bad.replace_range(cut.., "\n");
    for (what, body, want_fail) in [
        ("intact .td", good.body.clone(), false),
        ("mangled .td", bad, true),
    ] {
        let mut t = Tally::default();
        let r = ghd_cli::SolveReport {
            body,
            ..good_clone(&good)
        };
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve::judge_answer(&mut t, &g, &Ok(r))
        }));
        expect(&format!("{what} judged without panic"), res.is_ok());
        expect(
            &format!(
                "{what} counts {} in fail_frac",
                if want_fail { "1" } else { "0" }
            ),
            t.failed == u64::from(want_fail),
        );
    }
    ok
}

fn good_clone(r: &ghd_cli::SolveReport) -> ghd_cli::SolveReport {
    ghd_cli::SolveReport {
        body: r.body.clone(),
        width: r.width,
        exact: r.exact,
        certified: r.certified,
        cacheable: r.cacheable,
        nodes_expanded: r.nodes_expanded,
        faults: r.faults,
        cancelled: r.cancelled,
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ghd-perfbench: {e}");
            std::process::exit(64);
        }
    };
    let work = a.work.join(std::process::id().to_string());
    if a.self_test {
        let ok = self_test(&work);
        let _ = std::fs::remove_dir_all(&work);
        println!("self-test {}", if ok { "passed" } else { "FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    fresh_dir(&work);
    let a = Args {
        work: work.clone(),
        ..a
    };
    let (tally, m) = run(&a, FULL);
    let _ = std::fs::remove_dir_all(&work);
    report(&a, &tally, &m);
    let names = if a.trace { PER_LAYER } else { END_TO_END };
    println!("{}", json_line(&tally, &m, names));
}
