//! Golden answers of the CLI solve path: for a fixed set of instances and
//! flag sets, the full [`SolveReport`] (stdout body, width, exactness,
//! certification, cache admission, node count, faults, cancellation) and,
//! for rejected requests, the error kind and message.
//!
//! The values in [`GOLDEN`] were recorded by running this test against the
//! code before the tw/ghw solve paths were merged into one, and each case
//! gave the same values in 20 back-to-back runs there. Bodies are pinned by
//! length and FNV-1a hash after masking every `"elapsed_s": <num>` (wall
//! clock in `--stats json`). On a mismatch the test prints every case's
//! actual row in table syntax. The three `tw queen-pair --method bb …
//! --nodes 20` rows were recorded later, once the anytime tw stitch
//! emitted its orderings in elimination-ordering direction (before that
//! they claimed `11 <= width <= 20`).

use ghd_cli::{run, solve_ghw_text, solve_tw_text, CmdError, SolveReport};

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn gen(spec: &[&str]) -> String {
    run(&strings(&[&["gen"], spec].concat())).expect("generator runs")
}

/// Two copies of `queen 4` sharing vertex 1 (DIMACS numbering): two
/// biconnected blocks glued at a cut vertex.
fn queen_pair_at_cut_vertex() -> String {
    let col = gen(&["queen", "4"]);
    let edges: Vec<(usize, usize)> = col
        .lines()
        .filter_map(|l| l.strip_prefix("e "))
        .map(|l| {
            let mut it = l.split_whitespace().map(|t| t.parse::<usize>().unwrap());
            (it.next().unwrap(), it.next().unwrap())
        })
        .collect();
    let shift = |v: usize| if v == 1 { 1 } else { v + 15 };
    let mut out = format!("p edge 31 {}\n", 2 * edges.len());
    for &(u, v) in &edges {
        out.push_str(&format!("e {u} {v}\n"));
    }
    for &(u, v) in &edges {
        out.push_str(&format!("e {} {}\n", shift(u), shift(v)));
    }
    out
}

/// Two disjoint 5-cycles of binary hyperedges plus one isolated ternary
/// hyperedge: three components, one of them settled without search.
fn two_cycles_and_an_edge() -> String {
    let mut out = String::new();
    for (c, x) in [("a", "x"), ("b", "y")] {
        for i in 0..5 {
            out.push_str(&format!("{c}{i}({x}{i},{x}{}),\n", (i + 1) % 5));
        }
    }
    out.push_str("c(z0,z1,z2).\n");
    out
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Replaces the number after every `"elapsed_s": ` with `#`.
fn mask_elapsed(body: &str) -> String {
    const KEY: &str = "\"elapsed_s\": ";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(i) = rest.find(KEY) {
        out.push_str(&rest[..i + KEY.len()]);
        out.push('#');
        rest = rest[i + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

fn row(r: &Result<SolveReport, CmdError>) -> String {
    match r {
        Ok(r) => {
            let body = mask_elapsed(&r.body);
            format!(
                "width={} exact={} certified={} cacheable={} nodes={} faults={} cancelled={} \
                 body={}/{:016x}",
                r.width,
                r.exact,
                r.certified,
                r.cacheable,
                r.nodes_expanded,
                r.faults,
                r.cancelled,
                body.len(),
                fnv1a(&body)
            )
        }
        Err(e) => format!("error kind={:?} msg={}", e.kind, e.message),
    }
}

/// Every case: `(name, problem, instance text, flags)`.
fn cases() -> Vec<(String, &'static str, String, Vec<String>)> {
    let tw = [
        ("queen4", gen(&["queen", "4"])),
        ("gnm16", gen(&["gnm", "16", "34", "2"])),
        ("queen-pair", queen_pair_at_cut_vertex()),
    ];
    let ghw = [
        ("clique6", gen(&["clique", "6"])),
        ("grid2d-h4", gen(&["grid2d-h", "4"])),
        ("cycles-edge", two_cycles_and_an_edge()),
    ];
    let budgets: [&[&str]; 2] = [&["--time", "0"], &["--nodes", "20"]];
    let ga_size: &[&str] = &["--generations", "20", "--population", "30"];
    let mut out = Vec::new();
    let mut push = |problem: &'static str, inst: &str, text: &str, args: Vec<&str>| {
        let name = format!("{problem} {inst} {}", args.join(" "));
        out.push((name, problem, text.to_string(), strings(&args)));
    };
    for (problem, insts, methods, render) in [
        (
            "tw",
            &tw,
            &["astar", "bb", "ga", "sa", "minfill"][..],
            "--td",
        ),
        (
            "ghw",
            &ghw,
            &["astar", "bb", "ga", "saiga", "sa", "greedy"][..],
            "--show",
        ),
    ] {
        for (k, (inst, text)) in insts.iter().enumerate() {
            // the heuristics (slow in debug builds) run on the first instance
            let exact_only = k > 0;
            for m in methods
                .iter()
                .filter(|m| !exact_only || ["astar", "bb"].contains(m))
            {
                for b in budgets {
                    let mut args = [&["--method", m][..], b].concat();
                    if *m == "ga" {
                        args.extend_from_slice(ga_size);
                    }
                    push(problem, inst, text, args.clone());
                    args.push(render);
                    push(problem, inst, text, args);
                }
            }
            for m in ["astar", "bb"] {
                for b in budgets {
                    push(
                        problem,
                        inst,
                        text,
                        [&["--method", m, "--stats", "json"][..], b].concat(),
                    );
                }
            }
            for extra in [
                &["--threads", "2"][..],
                &["--no-split"],
                &["--threads", "2", "--no-split"],
            ] {
                let args = [&["--method", "bb", "--time", "0"][..], extra].concat();
                push(problem, inst, text, args.clone());
                push(problem, inst, text, [&args[..], &[render]].concat());
            }
            push(
                problem,
                inst,
                text,
                vec!["--method", "bb", "--nodes", "20", "--no-split", render],
            );
        }
        // rejected requests (the instance is well-formed unless noted)
        let text = &insts[0].1;
        for args in [
            &["--method", "nosuch"][..],
            &["--method", "ga", "--stats", "json"],
            &["--method", "nosuch", "--stats", "json"],
            &["--method", "bb", "--stats", "xml"],
            &["--method", "astar", "--threads", "2"],
            &["--method", "astar", "--no-split"],
            &["--method", "bb", "--steal-depth", "2"],
            &["--method", "bb", "--threads", "2", "--steal-depth", "0"],
            &["--method", "bb", "--time", "inf"],
        ] {
            push(problem, insts[0].0, text, args.to_vec());
        }
    }
    push(
        "tw",
        "malformed",
        "p edge 3 1\ne 1 99\n",
        vec!["--method", "bb"],
    );
    push("ghw", "malformed", "e1(a,b\n", vec!["--method", "bb"]);
    out
}

#[test]
fn solve_answers_match_the_recorded_golden_rows() {
    let mut actual = Vec::new();
    let mut mismatches = Vec::new();
    for (name, problem, text, args) in cases() {
        let r = match problem {
            "tw" => solve_tw_text(&text, &args),
            _ => solve_ghw_text(&text, &args),
        };
        let got = row(&r);
        match GOLDEN.iter().find(|(n, _)| *n == name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => mismatches.push(format!("{name}\n  want {want}\n  got  {got}")),
            None => mismatches.push(format!("{name}: no golden row")),
        }
        actual.push((name, got));
    }
    for (n, _) in GOLDEN {
        if !actual.iter().any(|(a, _)| a == n) {
            mismatches.push(format!("{n}: golden row without a case"));
        }
    }
    if !mismatches.is_empty() {
        let mut table = String::new();
        for (n, r) in &actual {
            table.push_str(&format!("    (\"{n}\", r#\"{r}\"#),\n"));
        }
        panic!(
            "{} mismatch(es):\n{}\n\nactual table:\n{table}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}

const GOLDEN: &[(&str, &str)] = &[
    (
        "tw queen4 --method astar --time 0",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=55/3e14da220ba359c6"#,
    ),
    (
        "tw queen4 --method astar --time 0 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/4caafad2fd1de95d"#,
    ),
    (
        "tw queen4 --method astar --nodes 20",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=55/3e14da220ba359c6"#,
    ),
    (
        "tw queen4 --method astar --nodes 20 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/4caafad2fd1de95d"#,
    ),
    (
        "tw queen4 --method bb --time 0",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=55/0ea2198803df86bd"#,
    ),
    (
        "tw queen4 --method bb --time 0 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/ee28900c8fa85c0e"#,
    ),
    (
        "tw queen4 --method bb --nodes 20",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=55/0ea2198803df86bd"#,
    ),
    (
        "tw queen4 --method bb --nodes 20 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/ee28900c8fa85c0e"#,
    ),
    (
        "tw queen4 --method ga --time 0 --generations 20 --population 30",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=48/3a85a9a9def73d73"#,
    ),
    (
        "tw queen4 --method ga --time 0 --generations 20 --population 30 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=516/6d4dc678a9f1e028"#,
    ),
    (
        "tw queen4 --method ga --nodes 20 --generations 20 --population 30",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=48/3a85a9a9def73d73"#,
    ),
    (
        "tw queen4 --method ga --nodes 20 --generations 20 --population 30 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=516/6d4dc678a9f1e028"#,
    ),
    (
        "tw queen4 --method sa --time 0",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=48/31e44e2795e81a37"#,
    ),
    (
        "tw queen4 --method sa --time 0 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=501/5f42601a3f8653e2"#,
    ),
    (
        "tw queen4 --method sa --nodes 20",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=48/31e44e2795e81a37"#,
    ),
    (
        "tw queen4 --method sa --nodes 20 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=501/5f42601a3f8653e2"#,
    ),
    (
        "tw queen4 --method minfill --time 0",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=51/dda0a965406a6967"#,
    ),
    (
        "tw queen4 --method minfill --time 0 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=529/dc3ddf81e023fdb4"#,
    ),
    (
        "tw queen4 --method minfill --nodes 20",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=51/dda0a965406a6967"#,
    ),
    (
        "tw queen4 --method minfill --nodes 20 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=529/dc3ddf81e023fdb4"#,
    ),
    (
        "tw queen4 --method astar --stats json --time 0",
        r#"width=11 exact=true certified=true cacheable=false nodes=14 faults=0 cancelled=false body=817/55141ed45c772151"#,
    ),
    (
        "tw queen4 --method astar --stats json --nodes 20",
        r#"width=11 exact=true certified=true cacheable=false nodes=14 faults=0 cancelled=false body=817/55141ed45c772151"#,
    ),
    (
        "tw queen4 --method bb --stats json --time 0",
        r#"width=11 exact=true certified=true cacheable=false nodes=14 faults=0 cancelled=false body=997/1557c3a9e67a6de3"#,
    ),
    (
        "tw queen4 --method bb --stats json --nodes 20",
        r#"width=11 exact=true certified=true cacheable=false nodes=14 faults=0 cancelled=false body=997/1557c3a9e67a6de3"#,
    ),
    (
        "tw queen4 --method bb --time 0 --threads 2",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=55/0ea2198803df86bd"#,
    ),
    (
        "tw queen4 --method bb --time 0 --threads 2 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/ee28900c8fa85c0e"#,
    ),
    (
        "tw queen4 --method bb --time 0 --no-split",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=55/0ea2198803df86bd"#,
    ),
    (
        "tw queen4 --method bb --time 0 --no-split --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/ee28900c8fa85c0e"#,
    ),
    (
        "tw queen4 --method bb --time 0 --threads 2 --no-split",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=55/0ea2198803df86bd"#,
    ),
    (
        "tw queen4 --method bb --time 0 --threads 2 --no-split --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/ee28900c8fa85c0e"#,
    ),
    (
        "tw queen4 --method bb --nodes 20 --no-split --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=14 faults=0 cancelled=false body=533/ee28900c8fa85c0e"#,
    ),
    (
        "tw gnm16 --method astar --time 0",
        r#"width=6 exact=true certified=true cacheable=true nodes=106 faults=0 cancelled=false body=54/657e1d49c4a66ab4"#,
    ),
    (
        "tw gnm16 --method astar --time 0 --td",
        r#"width=6 exact=true certified=true cacheable=true nodes=106 faults=0 cancelled=false body=393/267c87acd96a829e"#,
    ),
    (
        "tw gnm16 --method astar --nodes 20",
        r#"width=6 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=69/b608fdcb6e2ba405"#,
    ),
    (
        "tw gnm16 --method astar --nodes 20 --td",
        r#"width=6 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=408/f89eb0f7ac3ec93d"#,
    ),
    (
        "tw gnm16 --method bb --time 0",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=54/b38b3b8390efd031"#,
    ),
    (
        "tw gnm16 --method bb --time 0 --td",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=393/a293feac84e8cc51"#,
    ),
    (
        "tw gnm16 --method bb --nodes 20",
        r#"width=6 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=69/51bb481a94e8639e"#,
    ),
    (
        "tw gnm16 --method bb --nodes 20 --td",
        r#"width=6 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=408/06f9954db985e228"#,
    ),
    (
        "tw gnm16 --method astar --stats json --time 0",
        r#"width=6 exact=true certified=true cacheable=false nodes=106 faults=0 cancelled=false body=763/b0138d237fec44ee"#,
    ),
    (
        "tw gnm16 --method astar --stats json --nodes 20",
        r#"width=6 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=759/65246d56a8ca2db8"#,
    ),
    (
        "tw gnm16 --method bb --stats json --time 0",
        r#"width=6 exact=true certified=true cacheable=false nodes=257 faults=0 cancelled=false body=996/26f641c031ed2327"#,
    ),
    (
        "tw gnm16 --method bb --stats json --nodes 20",
        r#"width=6 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=993/0ed9f11f1baecec2"#,
    ),
    (
        "tw gnm16 --method bb --time 0 --threads 2",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=54/b38b3b8390efd031"#,
    ),
    (
        "tw gnm16 --method bb --time 0 --threads 2 --td",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=393/a293feac84e8cc51"#,
    ),
    (
        "tw gnm16 --method bb --time 0 --no-split",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=54/b38b3b8390efd031"#,
    ),
    (
        "tw gnm16 --method bb --time 0 --no-split --td",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=393/a293feac84e8cc51"#,
    ),
    (
        "tw gnm16 --method bb --time 0 --threads 2 --no-split",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=54/b38b3b8390efd031"#,
    ),
    (
        "tw gnm16 --method bb --time 0 --threads 2 --no-split --td",
        r#"width=6 exact=true certified=true cacheable=true nodes=257 faults=0 cancelled=false body=393/a293feac84e8cc51"#,
    ),
    (
        "tw gnm16 --method bb --nodes 20 --no-split --td",
        r#"width=6 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=408/06f9954db985e228"#,
    ),
    (
        "tw queen-pair --method astar --time 0",
        r#"width=11 exact=true certified=true cacheable=true nodes=200 faults=0 cancelled=false body=56/1a3e900d81403fc6"#,
    ),
    (
        "tw queen-pair --method astar --time 0 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=200 faults=0 cancelled=false body=1040/6f922d4d974b61e4"#,
    ),
    (
        "tw queen-pair --method astar --nodes 20",
        r#"width=11 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=72/b97f1778e1122abf"#,
    ),
    (
        "tw queen-pair --method astar --nodes 20 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=1056/b78d2efe3cf2dfc5"#,
    ),
    (
        "tw queen-pair --method bb --time 0",
        r#"width=11 exact=true certified=true cacheable=true nodes=28 faults=0 cancelled=false body=56/eacbcf73797c6cbd"#,
    ),
    (
        "tw queen-pair --method bb --time 0 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=28 faults=0 cancelled=false body=1040/b3318b6ff36c389f"#,
    ),
    (
        "tw queen-pair --method bb --nodes 20",
        r#"width=11 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=72/a25fab8941d3094d"#,
    ),
    (
        "tw queen-pair --method bb --nodes 20 --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=1048/8774404325e5b4b1"#,
    ),
    (
        "tw queen-pair --method astar --stats json --time 0",
        r#"width=11 exact=true certified=true cacheable=false nodes=200 faults=0 cancelled=false body=826/3a1ab08a77e0a117"#,
    ),
    (
        "tw queen-pair --method astar --stats json --nodes 20",
        r#"width=11 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=822/41b50df29b6fc354"#,
    ),
    (
        "tw queen-pair --method bb --stats json --time 0",
        r#"width=11 exact=true certified=true cacheable=false nodes=28 faults=0 cancelled=false body=1227/cbe45dcef248dca8"#,
    ),
    (
        "tw queen-pair --method bb --stats json --nodes 20",
        r#"width=11 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=1224/bb98b874e44990e5"#,
    ),
    (
        "tw queen-pair --method bb --time 0 --threads 2",
        r#"width=11 exact=true certified=true cacheable=true nodes=28 faults=0 cancelled=false body=56/eacbcf73797c6cbd"#,
    ),
    (
        "tw queen-pair --method bb --time 0 --threads 2 --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=28 faults=0 cancelled=false body=1040/b3318b6ff36c389f"#,
    ),
    (
        "tw queen-pair --method bb --time 0 --no-split",
        r#"width=11 exact=true certified=true cacheable=true nodes=200 faults=0 cancelled=false body=56/eacbcf73797c6cbd"#,
    ),
    (
        "tw queen-pair --method bb --time 0 --no-split --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=200 faults=0 cancelled=false body=1040/b3318b6ff36c389f"#,
    ),
    (
        "tw queen-pair --method bb --time 0 --threads 2 --no-split",
        r#"width=11 exact=true certified=true cacheable=true nodes=200 faults=0 cancelled=false body=56/eacbcf73797c6cbd"#,
    ),
    (
        "tw queen-pair --method bb --time 0 --threads 2 --no-split --td",
        r#"width=11 exact=true certified=true cacheable=true nodes=200 faults=0 cancelled=false body=1040/b3318b6ff36c389f"#,
    ),
    (
        "tw queen-pair --method bb --nodes 20 --no-split --td",
        r#"width=11 exact=false certified=true cacheable=false nodes=20 faults=0 cancelled=false body=1055/3503ff5d3354ca0c"#,
    ),
    (
        "tw queen4 --method nosuch",
        r#"error kind=Usage msg=unknown method `nosuch`"#,
    ),
    (
        "tw queen4 --method ga --stats json",
        r#"error kind=Usage msg=--stats json requires --method astar|bb (got `ga`)"#,
    ),
    (
        "tw queen4 --method nosuch --stats json",
        r#"error kind=Usage msg=--stats json requires --method astar|bb (got `nosuch`)"#,
    ),
    (
        "tw queen4 --method bb --stats xml",
        r#"error kind=Usage msg=unsupported --stats format `xml` (expected `json`)"#,
    ),
    (
        "tw queen4 --method astar --threads 2",
        r#"error kind=Usage msg=--threads requires --method bb (got `astar`)"#,
    ),
    (
        "tw queen4 --method astar --no-split",
        r#"error kind=Usage msg=--no-split requires --method bb (got `astar`)"#,
    ),
    (
        "tw queen4 --method bb --steal-depth 2",
        r#"error kind=Usage msg=--steal-depth requires --threads"#,
    ),
    (
        "tw queen4 --method bb --threads 2 --steal-depth 0",
        r#"error kind=Usage msg=bad --steal-depth: `0` (must be >= 1)"#,
    ),
    (
        "tw queen4 --method bb --time inf",
        r#"error kind=Usage msg=bad --time: `inf` (must be a finite number >= 0)"#,
    ),
    (
        "ghw clique6 --method astar --time 0",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=64/96e98117440d9f7e"#,
    ),
    (
        "ghw clique6 --method astar --time 0 --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/7eb9a1e7c4085b57"#,
    ),
    (
        "ghw clique6 --method astar --nodes 20",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=64/96e98117440d9f7e"#,
    ),
    (
        "ghw clique6 --method astar --nodes 20 --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/7eb9a1e7c4085b57"#,
    ),
    (
        "ghw clique6 --method bb --time 0",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=64/58fbdf9ae8e14a6d"#,
    ),
    (
        "ghw clique6 --method bb --time 0 --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/c474450cf69a0dbc"#,
    ),
    (
        "ghw clique6 --method bb --nodes 20",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=64/58fbdf9ae8e14a6d"#,
    ),
    (
        "ghw clique6 --method bb --nodes 20 --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/c474450cf69a0dbc"#,
    ),
    (
        "ghw clique6 --method ga --time 0 --generations 20 --population 30",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=57/e231c5b5999d85d9"#,
    ),
    (
        "ghw clique6 --method ga --time 0 --generations 20 --population 30 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=342/ed622b4238b4777e"#,
    ),
    (
        "ghw clique6 --method ga --nodes 20 --generations 20 --population 30",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=57/e231c5b5999d85d9"#,
    ),
    (
        "ghw clique6 --method ga --nodes 20 --generations 20 --population 30 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=342/ed622b4238b4777e"#,
    ),
    (
        "ghw clique6 --method saiga --time 0",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=60/1d2752d0dfb379c4"#,
    ),
    (
        "ghw clique6 --method saiga --time 0 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=344/831fdc60f4263d49"#,
    ),
    (
        "ghw clique6 --method saiga --nodes 20",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=60/1d2752d0dfb379c4"#,
    ),
    (
        "ghw clique6 --method saiga --nodes 20 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=344/831fdc60f4263d49"#,
    ),
    (
        "ghw clique6 --method sa --time 0",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=57/fb3f4b7106858db5"#,
    ),
    (
        "ghw clique6 --method sa --time 0 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=342/882f28809934c512"#,
    ),
    (
        "ghw clique6 --method sa --nodes 20",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=57/fb3f4b7106858db5"#,
    ),
    (
        "ghw clique6 --method sa --nodes 20 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=342/882f28809934c512"#,
    ),
    (
        "ghw clique6 --method greedy --time 0",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=74/3e93844d8d397484"#,
    ),
    (
        "ghw clique6 --method greedy --time 0 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=362/389f3cd3d1ef9cf1"#,
    ),
    (
        "ghw clique6 --method greedy --nodes 20",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=74/3e93844d8d397484"#,
    ),
    (
        "ghw clique6 --method greedy --nodes 20 --show",
        r#"width=3 exact=false certified=true cacheable=false nodes=0 faults=0 cancelled=false body=362/389f3cd3d1ef9cf1"#,
    ),
    (
        "ghw clique6 --method astar --stats json --time 0",
        r#"width=3 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=693/bebcc1f7e549efae"#,
    ),
    (
        "ghw clique6 --method astar --stats json --nodes 20",
        r#"width=3 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=693/bebcc1f7e549efae"#,
    ),
    (
        "ghw clique6 --method bb --stats json --time 0",
        r#"width=3 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=931/9b1bcaea50c8e147"#,
    ),
    (
        "ghw clique6 --method bb --stats json --nodes 20",
        r#"width=3 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=931/9b1bcaea50c8e147"#,
    ),
    (
        "ghw clique6 --method bb --time 0 --threads 2",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=64/58fbdf9ae8e14a6d"#,
    ),
    (
        "ghw clique6 --method bb --time 0 --threads 2 --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/c474450cf69a0dbc"#,
    ),
    (
        "ghw clique6 --method bb --time 0 --no-split",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=64/58fbdf9ae8e14a6d"#,
    ),
    (
        "ghw clique6 --method bb --time 0 --no-split --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/c474450cf69a0dbc"#,
    ),
    (
        "ghw clique6 --method bb --time 0 --threads 2 --no-split",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=64/58fbdf9ae8e14a6d"#,
    ),
    (
        "ghw clique6 --method bb --time 0 --threads 2 --no-split --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/c474450cf69a0dbc"#,
    ),
    (
        "ghw clique6 --method bb --nodes 20 --no-split --show",
        r#"width=3 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=352/c474450cf69a0dbc"#,
    ),
    (
        "ghw grid2d-h4 --method astar --time 0",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=63/99dbed5917cac69f"#,
    ),
    (
        "ghw grid2d-h4 --method astar --time 0 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/198dd3180b55afdd"#,
    ),
    (
        "ghw grid2d-h4 --method astar --nodes 20",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=63/99dbed5917cac69f"#,
    ),
    (
        "ghw grid2d-h4 --method astar --nodes 20 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/198dd3180b55afdd"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=63/053a681b87a04a5c"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/f966b67cd4a163ea"#,
    ),
    (
        "ghw grid2d-h4 --method bb --nodes 20",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=63/053a681b87a04a5c"#,
    ),
    (
        "ghw grid2d-h4 --method bb --nodes 20 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/f966b67cd4a163ea"#,
    ),
    (
        "ghw grid2d-h4 --method astar --stats json --time 0",
        r#"width=2 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=692/8eda951a3ee9fc1a"#,
    ),
    (
        "ghw grid2d-h4 --method astar --stats json --nodes 20",
        r#"width=2 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=692/8eda951a3ee9fc1a"#,
    ),
    (
        "ghw grid2d-h4 --method bb --stats json --time 0",
        r#"width=2 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=930/427d767c953c474d"#,
    ),
    (
        "ghw grid2d-h4 --method bb --stats json --nodes 20",
        r#"width=2 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=930/427d767c953c474d"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0 --threads 2",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=63/053a681b87a04a5c"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0 --threads 2 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/f966b67cd4a163ea"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0 --no-split",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=63/053a681b87a04a5c"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0 --no-split --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/f966b67cd4a163ea"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0 --threads 2 --no-split",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=63/053a681b87a04a5c"#,
    ),
    (
        "ghw grid2d-h4 --method bb --time 0 --threads 2 --no-split --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/f966b67cd4a163ea"#,
    ),
    (
        "ghw grid2d-h4 --method bb --nodes 20 --no-split --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=505/f966b67cd4a163ea"#,
    ),
    (
        "ghw cycles-edge --method astar --time 0",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=65/83411027ccf3e7a3"#,
    ),
    (
        "ghw cycles-edge --method astar --time 0 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=588/4ddaac3625f15338"#,
    ),
    (
        "ghw cycles-edge --method astar --nodes 20",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=65/83411027ccf3e7a3"#,
    ),
    (
        "ghw cycles-edge --method astar --nodes 20 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=588/4ddaac3625f15338"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=65/632944ceef967430"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=588/53ffb8db91a5a3f5"#,
    ),
    (
        "ghw cycles-edge --method bb --nodes 20",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=65/632944ceef967430"#,
    ),
    (
        "ghw cycles-edge --method bb --nodes 20 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=588/53ffb8db91a5a3f5"#,
    ),
    (
        "ghw cycles-edge --method astar --stats json --time 0",
        r#"width=2 exact=true certified=true cacheable=false nodes=4 faults=0 cancelled=false body=810/d189047186101b5d"#,
    ),
    (
        "ghw cycles-edge --method astar --stats json --nodes 20",
        r#"width=2 exact=true certified=true cacheable=false nodes=4 faults=0 cancelled=false body=810/d189047186101b5d"#,
    ),
    (
        "ghw cycles-edge --method bb --stats json --time 0",
        r#"width=2 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=1211/90e591f212e49cc7"#,
    ),
    (
        "ghw cycles-edge --method bb --stats json --nodes 20",
        r#"width=2 exact=true certified=true cacheable=false nodes=0 faults=0 cancelled=false body=1211/90e591f212e49cc7"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0 --threads 2",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=65/632944ceef967430"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0 --threads 2 --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=0 faults=0 cancelled=false body=588/53ffb8db91a5a3f5"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0 --no-split",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=65/632944ceef967430"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0 --no-split --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=588/53ffb8db91a5a3f5"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0 --threads 2 --no-split",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=65/632944ceef967430"#,
    ),
    (
        "ghw cycles-edge --method bb --time 0 --threads 2 --no-split --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=588/53ffb8db91a5a3f5"#,
    ),
    (
        "ghw cycles-edge --method bb --nodes 20 --no-split --show",
        r#"width=2 exact=true certified=true cacheable=true nodes=4 faults=0 cancelled=false body=588/53ffb8db91a5a3f5"#,
    ),
    (
        "ghw clique6 --method nosuch",
        r#"error kind=Usage msg=unknown method `nosuch`"#,
    ),
    (
        "ghw clique6 --method ga --stats json",
        r#"error kind=Usage msg=--stats json requires --method astar|bb (got `ga`)"#,
    ),
    (
        "ghw clique6 --method nosuch --stats json",
        r#"error kind=Usage msg=--stats json requires --method astar|bb (got `nosuch`)"#,
    ),
    (
        "ghw clique6 --method bb --stats xml",
        r#"error kind=Usage msg=unsupported --stats format `xml` (expected `json`)"#,
    ),
    (
        "ghw clique6 --method astar --threads 2",
        r#"error kind=Usage msg=--threads requires --method bb (got `astar`)"#,
    ),
    (
        "ghw clique6 --method astar --no-split",
        r#"error kind=Usage msg=--no-split requires --method bb (got `astar`)"#,
    ),
    (
        "ghw clique6 --method bb --steal-depth 2",
        r#"error kind=Usage msg=--steal-depth requires --threads"#,
    ),
    (
        "ghw clique6 --method bb --threads 2 --steal-depth 0",
        r#"error kind=Usage msg=bad --steal-depth: `0` (must be >= 1)"#,
    ),
    (
        "ghw clique6 --method bb --time inf",
        r#"error kind=Usage msg=bad --time: `inf` (must be a finite number >= 0)"#,
    ),
    (
        "tw malformed --method bb",
        r#"error kind=Data msg=parse error at line 2: edge endpoint out of range"#,
    ),
    (
        "ghw malformed --method bb",
        r#"error kind=Data msg=parse error at line 0: unterminated edge `e1`"#,
    ),
];
