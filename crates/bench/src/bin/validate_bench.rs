//! Schema validator for `BENCH_search.json` (the artifact `bench_smoke`
//! emits). Run by `scripts/tier1.sh` after the bench: a record that lost a
//! required key, reports `lower_bound > width`, carries an empty incumbent
//! trace, or whose width is not backed by a passing certificate
//! (`certified: true`) fails the gate *before* a human reads the numbers.
//!
//! Every `split_sweep` row must also show the split saving search: its
//! block solves plus the whole-instance witness expand fewer nodes than
//! the monolithic search.
//!
//! With `--baseline <file>` it additionally requires every row that is
//! exact in both files to reproduce the baseline's deterministic work
//! counters exactly: width, nodes expanded, prune counters, cover-cache
//! hits and misses, and the open/seen peak gauges. Seconds are reported
//! but never gated here (wall-clock regressions belong to `perfbench`,
//! which alternates runs on one host). Rows absent from the baseline are
//! reported but don't fail — new instances may be added freely.
//!
//! ```text
//! cargo run --release -p ghd-bench --bin validate_bench -- \
//!     BENCH_search.json --baseline results/BENCH_search_baseline.json
//! ```
//!
//! Exit status: 0 when every record validates, 1 otherwise (with one line
//! per violation on stderr).

use ghd_core::json::Json;

/// The deterministic work counters a row must reproduce from the baseline
/// (whichever of them the baseline row carries).
const COUNTERS: &[&str] = &[
    "width",
    "nodes_expanded",
    "prunes",
    "cache_hits",
    "cache_misses",
    "open_peak",
    "seen_peak",
    "open_peak_bytes",
    "seen_peak_bytes",
];

/// Required numeric keys of every result record.
const REQUIRED_NUMBERS: &[&str] = &[
    "vertices",
    "edges",
    "width",
    "width_cache_off",
    "lower_bound",
    "wall_s_cache_off",
    "wall_s_cache_on",
    "nodes_expanded",
    "cache_hits",
    "cache_misses",
];

fn check(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut err = |m: String| errs.push(m);

    if doc.get("bench").and_then(Json::as_str).is_none() {
        err("top-level `bench` string missing".to_string());
    }
    let results = match doc.get("results").and_then(Json::as_array) {
        Some(rs) if !rs.is_empty() => rs,
        Some(_) => {
            err("`results` is empty".to_string());
            return errs;
        }
        None => {
            err("top-level `results` array missing".to_string());
            return errs;
        }
    };

    for (i, r) in results.iter().enumerate() {
        let name = r
            .get("instance")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                err(format!("results[{i}]: `instance` string missing"));
                format!("results[{i}]")
            });
        for &key in REQUIRED_NUMBERS {
            if r.get(key).and_then(Json::as_f64).is_none() {
                err(format!("{name}: number `{key}` missing"));
            }
        }
        if r.get("exact").and_then(Json::as_bool).is_none() {
            err(format!("{name}: boolean `exact` missing"));
        }
        // every published width must carry a passing certificate: the
        // record has to say `certified: true`, anything else fails the gate
        match r.get("certified").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => err(format!("{name}: width is not certified")),
            None => err(format!("{name}: boolean `certified` missing")),
        }
        // the fault list must be present (normally empty; a bench that
        // completed *despite* contained worker faults is worth seeing)
        match r.get("faults").and_then(Json::as_array) {
            None => err(format!("{name}: `faults` array missing")),
            Some(fs) => {
                for (j, f) in fs.iter().enumerate() {
                    if f.get("task").and_then(Json::as_f64).is_none()
                        || f.get("payload").and_then(Json::as_str).is_none()
                    {
                        err(format!("{name}: faults[{j}] missing task/payload"));
                    }
                }
            }
        }
        if let (Some(lb), Some(ub)) = (
            r.get("lower_bound").and_then(Json::as_f64),
            r.get("width").and_then(Json::as_f64),
        ) {
            if lb > ub {
                err(format!("{name}: lower_bound {lb} > width {ub}"));
            }
            if r.get("exact").and_then(Json::as_bool) == Some(true) && lb != ub {
                err(format!("{name}: exact but lower_bound {lb} != width {ub}"));
            }
        }
        match r.get("incumbents").and_then(Json::as_array) {
            None => err(format!("{name}: `incumbents` array missing")),
            Some([]) => err(format!("{name}: incumbent trace is empty")),
            Some(incs) => {
                let mut prev = f64::NEG_INFINITY;
                for (j, inc) in incs.iter().enumerate() {
                    let t = inc.get("elapsed_s").and_then(Json::as_f64);
                    let lb = inc.get("lower_bound").and_then(Json::as_f64);
                    let ub = inc.get("upper_bound").and_then(Json::as_f64);
                    match (t, lb, ub) {
                        (Some(t), Some(lb), Some(ub)) => {
                            if lb > ub {
                                err(format!("{name}: incumbents[{j}] lb {lb} > ub {ub}"));
                            }
                            if t < prev {
                                err(format!("{name}: incumbents[{j}] not sorted by elapsed_s"));
                            }
                            prev = t;
                        }
                        _ => err(format!(
                            "{name}: incumbents[{j}] missing elapsed_s/lower_bound/upper_bound"
                        )),
                    }
                }
            }
        }
        if r.get("prunes").is_none() {
            err(format!("{name}: `prunes` object missing"));
        }
    }

    // A* rows (best-first searches): schema plus the memory gauges the
    // arena/interner/bucket-queue layer reports. Older artifacts without
    // the array are rejected — bench_smoke always emits it now.
    match doc.get("astar_results").and_then(Json::as_array) {
        None => err("top-level `astar_results` array missing".to_string()),
        Some([]) => err("`astar_results` is empty".to_string()),
        Some(rs) => {
            for (i, r) in rs.iter().enumerate() {
                let name = r
                    .get("instance")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| {
                        err(format!("astar_results[{i}]: `instance` string missing"));
                        format!("astar_results[{i}]")
                    });
                if r.get("algo").and_then(Json::as_str).is_none() {
                    err(format!("{name}: `algo` string missing"));
                }
                for &key in ASTAR_REQUIRED_NUMBERS {
                    if r.get(key).and_then(Json::as_f64).is_none() {
                        err(format!("{name}: number `{key}` missing"));
                    }
                }
                if r.get("exact").and_then(Json::as_bool).is_none() {
                    err(format!("{name}: boolean `exact` missing"));
                }
                match r.get("certified").and_then(Json::as_bool) {
                    Some(true) => {}
                    Some(false) => err(format!("{name}: width is not certified")),
                    None => err(format!("{name}: boolean `certified` missing")),
                }
                // a best-first run that expanded nodes must have recorded
                // its open/seen footprint — zero means the gauge went dark
                if r.get("nodes_expanded").and_then(Json::as_f64).unwrap_or(0.0) > 2.0 {
                    for key in ["open_peak_bytes", "seen_peak_bytes"] {
                        if r.get(key).and_then(Json::as_f64) == Some(0.0) {
                            err(format!("{name}: `{key}` is zero on a completing run"));
                        }
                    }
                }
            }
        }
    }
    // Safe-separator split-sweep rows: the monolithic vs split search plus
    // the block inventory. Mandatory — bench_smoke always emits the section.
    match doc.get("split_sweep").and_then(Json::as_array) {
        None => err("top-level `split_sweep` array missing".to_string()),
        Some([]) => err("`split_sweep` is empty".to_string()),
        Some(rs) => {
            for (i, r) in rs.iter().enumerate() {
                let name = r
                    .get("instance")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| {
                        err(format!("split_sweep[{i}]: `instance` string missing"));
                        format!("split_sweep[{i}]")
                    });
                for &key in SPLIT_REQUIRED_NUMBERS {
                    if r.get(key).and_then(Json::as_f64).is_none() {
                        err(format!("{name}: number `{key}` missing"));
                    }
                }
                if r.get("exact").and_then(Json::as_bool).is_none() {
                    err(format!("{name}: boolean `exact` missing"));
                }
                match r.get("certified").and_then(Json::as_bool) {
                    Some(true) => {}
                    Some(false) => err(format!("{name}: width is not certified")),
                    None => err(format!("{name}: boolean `certified` missing")),
                }
                // the block inventory must account for every block: one
                // separator kind per block, and a sweep row that didn't
                // actually split (one block) measures nothing
                match r.get("kinds").and_then(Json::as_array) {
                    None => err(format!("{name}: `kinds` array missing")),
                    Some(ks) => {
                        if ks.iter().any(|k| k.as_str().is_none()) {
                            err(format!("{name}: `kinds` has a non-string entry"));
                        }
                        let blocks = r.get("blocks").and_then(Json::as_f64).unwrap_or(-1.0);
                        if blocks >= 0.0 && ks.len() as f64 != blocks {
                            err(format!(
                                "{name}: {} kind(s) for {blocks} block(s)",
                                ks.len()
                            ));
                        }
                        if (0.0..2.0).contains(&blocks) {
                            err(format!("{name}: only {blocks} block(s) — row did not split"));
                        }
                    }
                }
                // the split gate, on deterministic work: solving the blocks
                // plus re-deriving the witness must expand fewer nodes than
                // the monolithic search (seconds are reported, not gated)
                let num = |key: &str| r.get(key).and_then(Json::as_f64);
                if let (Some(mono), Some(blocks), Some(witness)) =
                    (num("nodes_mono"), num("nodes_blocks"), num("nodes_witness"))
                {
                    if blocks + witness >= mono {
                        err(format!(
                            "{name}: split expanded {blocks} block + {witness} witness nodes, \
                             not fewer than the monolithic {mono}"
                        ));
                    }
                }
            }
        }
    }
    errs
}

/// Required numeric keys of every `split_sweep` record.
const SPLIT_REQUIRED_NUMBERS: &[&str] = &[
    "vertices",
    "edges",
    "width",
    "wall_s_mono",
    "wall_s_split",
    "speedup",
    "nodes_mono",
    "nodes_blocks",
    "nodes_witness",
    "blocks",
];

/// Required numeric keys of every `astar_results` record.
const ASTAR_REQUIRED_NUMBERS: &[&str] = &[
    "vertices",
    "edges",
    "width",
    "wall_s",
    "wall_s_min",
    "samples",
    "nodes_expanded",
    "open_peak",
    "seen_peak",
    "open_peak_bytes",
    "seen_peak_bytes",
];

/// Counter diff against a committed baseline document. Only rows *exact*
/// in both files are compared — a budget-capped run stops wherever its
/// budget ran out. Returns violations; prints one informational line per
/// row without a comparable baseline counterpart.
fn check_baseline(doc: &Json, base: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    // BB rows match by instance alone, A* rows by (instance, algo)
    for (section, match_algo) in [("results", false), ("astar_results", true)] {
        let rows = doc.get(section).and_then(Json::as_array).unwrap_or(&[]);
        let base_rows = base.get(section).and_then(Json::as_array).unwrap_or(&[]);
        for r in rows {
            if r.get("exact").and_then(Json::as_bool) != Some(true) {
                continue;
            }
            let inst = r.get("instance").and_then(Json::as_str).unwrap_or("?");
            let algo = r.get("algo").and_then(Json::as_str).unwrap_or("");
            let tag = if match_algo {
                format!("{algo}/{inst}")
            } else {
                inst.to_string()
            };
            let baseline = base_rows.iter().find(|b| {
                b.get("instance").and_then(Json::as_str) == Some(inst)
                    && (!match_algo || b.get("algo").and_then(Json::as_str) == Some(algo))
            });
            let Some(b) = baseline else {
                println!("validate_bench: {tag}: no baseline row (new instance, not compared)");
                continue;
            };
            if b.get("exact").and_then(Json::as_bool) != Some(true) {
                println!("validate_bench: {tag}: baseline row not exact, not compared");
                continue;
            }
            for &key in COUNTERS {
                let Some(want) = b.get(key) else { continue };
                let got = r.get(key);
                if got != Some(want) {
                    errs.push(format!("{tag}: {key} {} != baseline {}", show(got), show(Some(want))));
                }
            }
        }
    }
    errs
}

/// A counter value for a violation message.
fn show(v: Option<&Json>) -> String {
    match v {
        None => "missing".to_string(),
        Some(j) => j.as_f64().map_or_else(|| format!("{j:?}"), |x| x.to_string()),
    }
}

fn load(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_bench: cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate_bench: `{path}` is not valid JSON: {e:?}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut path: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--baseline" {
            baseline = Some(args.next().unwrap_or_else(|| {
                eprintln!("validate_bench: --baseline needs a file argument");
                std::process::exit(1);
            }));
        } else {
            path = Some(a);
        }
    }
    let path = path.unwrap_or_else(|| "BENCH_search.json".to_string());
    let doc = load(&path);
    let mut errs = check(&doc);
    if let Some(base_path) = baseline {
        let base = load(&base_path);
        errs.extend(check_baseline(&doc, &base));
    }
    if errs.is_empty() {
        let n = doc
            .get("results")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        println!("validate_bench: `{path}` OK ({n} records)");
    } else {
        for e in &errs {
            eprintln!("validate_bench: {e}");
        }
        eprintln!("validate_bench: `{path}` FAILED ({} violations)", errs.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete, valid document exercising all three sections.
    const WELL_FORMED: &str = r#"{"bench": "bb_ghw_cover_cache", "results": [
                {"instance": "g", "vertices": 4, "edges": 4, "width": 2,
                 "width_cache_off": 2, "lower_bound": 2, "exact": true,
                 "certified": true, "faults": [],
                 "wall_s_cache_off": 0.1, "wall_s_cache_on": 0.05,
                 "nodes_expanded": 12, "cache_hits": 3, "cache_misses": 4,
                 "incumbents": [{"elapsed_s": 0.0, "upper_bound": 3, "lower_bound": 1},
                                 {"elapsed_s": 0.01, "upper_bound": 2, "lower_bound": 2}],
                 "prunes": {"f_prunes": 5}}
            ],
            "astar_results": [
                {"instance": "a", "algo": "astar_tw", "vertices": 9, "edges": 12,
                 "width": 3, "exact": true, "certified": true,
                 "wall_s": 0.2, "wall_s_min": 0.18, "samples": 3,
                 "nodes_expanded": 120, "open_peak": 40, "seen_peak": 80,
                 "open_peak_bytes": 4096, "seen_peak_bytes": 9000}
            ],
            "split_sweep": [
                {"instance": "blocky", "vertices": 30, "edges": 76, "width": 11,
                 "exact": true, "certified": true,
                 "wall_s_mono": 0.005, "wall_s_split": 0.001, "speedup": 5.0,
                 "nodes_mono": 74, "nodes_blocks": 28, "nodes_witness": 0,
                 "blocks": 2, "kinds": ["clique-separator", "clique-separator"]}
            ]}"#;

    #[test]
    fn accepts_a_well_formed_document() {
        let doc = Json::parse(WELL_FORMED).unwrap();
        assert_eq!(check(&doc), Vec::<String>::new());
    }

    #[test]
    fn astar_rows_need_memory_gauges_and_certificates() {
        // zero peak bytes on a completing run means the gauge went dark
        let doc = Json::parse(
            r#"{"bench": "x", "results": [
                {"instance": "g", "vertices": 4, "edges": 4, "width": 2,
                 "width_cache_off": 2, "lower_bound": 2, "exact": true,
                 "certified": true, "faults": [],
                 "wall_s_cache_off": 0.1, "wall_s_cache_on": 0.05,
                 "nodes_expanded": 12, "cache_hits": 3, "cache_misses": 4,
                 "incumbents": [{"elapsed_s": 0.0, "upper_bound": 2, "lower_bound": 2}],
                 "prunes": {}}
            ],
            "astar_results": [
                {"instance": "a", "algo": "astar_tw", "vertices": 9, "edges": 12,
                 "width": 3, "exact": true, "certified": false,
                 "wall_s": 0.2, "wall_s_min": 0.18, "samples": 3,
                 "nodes_expanded": 120, "open_peak": 40, "seen_peak": 80,
                 "open_peak_bytes": 0, "seen_peak_bytes": 9000}
            ]}"#,
        )
        .unwrap();
        let errs = check(&doc);
        assert!(errs.iter().any(|e| e.contains("a: width is not certified")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("`open_peak_bytes` is zero")),
            "{errs:?}"
        );

        // the array itself is mandatory
        let doc = Json::parse(
            r#"{"bench": "x", "results": [
                {"instance": "g", "vertices": 4, "edges": 4, "width": 2,
                 "width_cache_off": 2, "lower_bound": 2, "exact": true,
                 "certified": true, "faults": [],
                 "wall_s_cache_off": 0.1, "wall_s_cache_on": 0.05,
                 "nodes_expanded": 12, "cache_hits": 3, "cache_misses": 4,
                 "incumbents": [{"elapsed_s": 0.0, "upper_bound": 2, "lower_bound": 2}],
                 "prunes": {}}
            ]}"#,
        )
        .unwrap();
        assert!(
            check(&doc).iter().any(|e| e.contains("`astar_results` array missing")),
            "{:?}",
            check(&doc)
        );
    }

    #[test]
    fn baseline_diff_flags_counter_drift_not_seconds() {
        let base = Json::parse(WELL_FORMED).unwrap();

        // identical run: nothing to report
        let doc = Json::parse(WELL_FORMED).unwrap();
        assert_eq!(check_baseline(&doc, &base), Vec::<String>::new());

        // slower or faster seconds are not a violation
        let slow = WELL_FORMED
            .replace("\"wall_s_cache_on\": 0.05", "\"wall_s_cache_on\": 5.0")
            .replace("\"wall_s\": 0.2", "\"wall_s\": 20.0");
        let doc = Json::parse(&slow).unwrap();
        assert_eq!(check_baseline(&doc, &base), Vec::<String>::new());

        // one counter off by one in each section: both flagged
        let drift = WELL_FORMED
            .replace("\"cache_misses\": 4", "\"cache_misses\": 5")
            .replace("\"seen_peak_bytes\": 9000", "\"seen_peak_bytes\": 9001")
            .replace("\"f_prunes\": 5", "\"f_prunes\": 6");
        let doc = Json::parse(&drift).unwrap();
        let errs = check_baseline(&doc, &base);
        assert_eq!(errs.len(), 3, "{errs:?}");
        assert!(errs.contains(&"g: cache_misses 5 != baseline 4".to_string()), "{errs:?}");
        assert!(errs.iter().any(|e| e.starts_with("g: prunes ")), "{errs:?}");
        assert!(
            errs.contains(&"astar_tw/a: seen_peak_bytes 9001 != baseline 9000".to_string()),
            "{errs:?}"
        );

        // a non-exact row stops wherever its budget ran out; never compared
        let capped = WELL_FORMED
            .replace("\"width\": 3, \"exact\": true", "\"width\": 3, \"exact\": false")
            .replace("\"nodes_expanded\": 120", "\"nodes_expanded\": 90");
        let doc = Json::parse(&capped).unwrap();
        assert_eq!(check_baseline(&doc, &base), Vec::<String>::new());

        // rows missing from the baseline are informational, not failures
        let renamed = WELL_FORMED.replace("\"instance\": \"a\"", "\"instance\": \"a2\"");
        let doc = Json::parse(&renamed).unwrap();
        assert_eq!(check_baseline(&doc, &base), Vec::<String>::new());
    }

    #[test]
    fn split_rows_need_a_real_split_and_a_consistent_inventory() {
        // the section itself is mandatory
        let doc = Json::parse(r#"{"bench": "x", "results": [{"instance": "g"}]}"#).unwrap();
        assert!(
            check(&doc).iter().any(|e| e.contains("`split_sweep` array missing")),
            "{:?}",
            check(&doc)
        );

        // one block means the layer never split: the row measures nothing
        let unsplit = WELL_FORMED.replace(
            "\"blocks\": 2, \"kinds\": [\"clique-separator\", \"clique-separator\"]",
            "\"blocks\": 1, \"kinds\": [\"component\"]",
        );
        let doc = Json::parse(&unsplit).unwrap();
        let errs = check(&doc);
        assert!(errs.iter().any(|e| e.contains("row did not split")), "{errs:?}");

        // the split must save search: blocks + witness < monolithic nodes
        let wasteful = WELL_FORMED.replace("\"nodes_witness\": 0", "\"nodes_witness\": 46");
        let errs = check(&Json::parse(&wasteful).unwrap());
        assert!(
            errs.iter().any(|e| e.contains("split expanded 28 block + 46 witness nodes")),
            "{errs:?}"
        );

        // the kind inventory must account for every block
        let mismatched = WELL_FORMED.replace(
            "\"kinds\": [\"clique-separator\", \"clique-separator\"]",
            "\"kinds\": [\"clique-separator\"]",
        );
        let doc = Json::parse(&mismatched).unwrap();
        let errs = check(&doc);
        assert!(errs.iter().any(|e| e.contains("1 kind(s) for 2 block(s)")), "{errs:?}");

        // an uncertified split width fails the gate
        let uncert = WELL_FORMED.replace(
            "\"exact\": true, \"certified\": true,\n                 \"wall_s_mono\"",
            "\"exact\": true, \"certified\": false,\n                 \"wall_s_mono\"",
        );
        let doc = Json::parse(&uncert).unwrap();
        let errs = check(&doc);
        assert!(errs.contains(&"blocky: width is not certified".to_string()), "{errs:?}");
    }

    #[test]
    fn rejects_missing_keys_bad_bounds_and_empty_traces() {
        let doc = Json::parse(
            r#"{"bench": "x", "results": [
                {"instance": "bad", "vertices": 1, "edges": 1, "width": 2,
                 "width_cache_off": 2, "lower_bound": 3, "exact": false,
                 "wall_s_cache_off": 0.1, "wall_s_cache_on": 0.1,
                 "nodes_expanded": 1, "cache_hits": 0, "cache_misses": 0,
                 "incumbents": [], "prunes": {}}
            ]}"#,
        )
        .unwrap();
        let errs = check(&doc);
        assert!(errs.iter().any(|e| e.contains("lower_bound 3 > width 2")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("incumbent trace is empty")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("`certified` missing")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("`faults` array missing")), "{errs:?}");

        // an uncertified width fails the gate even with everything else sane
        let doc = Json::parse(
            r#"{"bench": "x", "results": [
                {"instance": "u", "vertices": 4, "edges": 4, "width": 2,
                 "width_cache_off": 2, "lower_bound": 2, "exact": true,
                 "certified": false, "faults": [{"worker": 0, "task": 1, "payload": "boom"}],
                 "wall_s_cache_off": 0.1, "wall_s_cache_on": 0.05,
                 "nodes_expanded": 12, "cache_hits": 3, "cache_misses": 4,
                 "incumbents": [{"elapsed_s": 0.0, "upper_bound": 2, "lower_bound": 2}],
                 "prunes": {}}
            ]}"#,
        )
        .unwrap();
        let errs = check(&doc);
        assert!(errs.contains(&"u: width is not certified".to_string()), "{errs:?}");

        let doc = Json::parse(r#"{"bench": "x", "results": []}"#).unwrap();
        assert!(check(&doc).iter().any(|e| e.contains("empty")));

        let doc = Json::parse(r#"{"results": [{"instance": "y"}]}"#).unwrap();
        let errs = check(&doc);
        assert!(errs.iter().any(|e| e.contains("`bench` string missing")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("`width` missing")), "{errs:?}");
    }
}
