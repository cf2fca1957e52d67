//! A deliberately naive certificate checker. It shares no code with
//! `ghd-core` or `ghd-hypergraph`: it re-parses the instance text and the
//! emitted answer text (`.td` for treewidth, the `--show` GHD listing for
//! ghw) with its own string handling, and checks
//!
//! * every vertex lies in some bag and every (hyper)edge inside one bag,
//! * the bags holding a vertex form a connected subtree,
//! * for ghw, λ names real hyperedges whose union covers χ,
//! * the decomposition's width equals the width the summary line claims.
//!
//! Everything is quadratic where that is simplest; instances are small.

use std::collections::{BTreeSet, HashMap};

/// What a checked answer claims, once the checker accepted it.
#[derive(Debug, PartialEq, Eq)]
pub struct Verdict {
    pub width: usize,
    pub exact: bool,
}

/// Parses the instance: vertex names and edges (as vertex-name lists).
struct Instance {
    vertices: BTreeSet<String>,
    edges: Vec<(String, Vec<String>)>,
}

fn parse_dimacs(text: &str) -> Result<Instance, String> {
    let mut n = None;
    let mut edges = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.first() {
            Some(&"p") => {
                n = Some(
                    f.get(2)
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or("bad p line")?,
                )
            }
            Some(&"e") if f.len() == 3 => {
                edges.push((String::new(), vec![f[1].to_string(), f[2].to_string()]));
            }
            Some(&"e") => return Err(format!("bad edge line `{line}`")),
            _ => {}
        }
    }
    let n = n.ok_or("no p line")?;
    let vertices: BTreeSet<String> = (1..=n).map(|v| v.to_string()).collect();
    for (_, e) in &edges {
        if e.iter().any(|v| !vertices.contains(v)) {
            return Err(format!("edge {e:?} names a vertex outside 1..{n}"));
        }
    }
    Ok(Instance { vertices, edges })
}

fn parse_hypergraph(text: &str) -> Result<Instance, String> {
    let mut body = String::new();
    for line in text.lines() {
        body.push_str(line.split(['%', '#']).next().unwrap_or(""));
        body.push('\n');
    }
    let mut vertices = BTreeSet::new();
    let mut edges = Vec::new();
    let mut rest = body.as_str();
    while let Some(open) = rest.find('(') {
        let name = rest[..open]
            .trim()
            .trim_start_matches([',', '.'])
            .trim()
            .to_string();
        let close = rest[open..].find(')').ok_or("unclosed `(`")? + open;
        let vs: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .collect();
        vertices.extend(vs.iter().cloned());
        edges.push((name, vs));
        rest = &rest[close + 1..];
    }
    if edges.is_empty() {
        return Err("no hyperedges".into());
    }
    Ok(Instance { vertices, edges })
}

/// Reads `width = W (exact)` / `lb <= width <= W (…)` from the summary line.
fn parse_claim(line: &str) -> Result<Verdict, String> {
    if let Some(pos) = line.find("width = ") {
        let w = line[pos + 8..].split_whitespace().next().unwrap_or("");
        let width = w.parse().map_err(|_| format!("bad width in `{line}`"))?;
        return Ok(Verdict {
            width,
            exact: line.ends_with("(exact)"),
        });
    }
    if let Some(pos) = line.find("width <= ") {
        let w = line[pos + 9..].split_whitespace().next().unwrap_or("");
        let width = w.parse().map_err(|_| format!("bad width in `{line}`"))?;
        return Ok(Verdict {
            width,
            exact: false,
        });
    }
    Err(format!("no width claim in `{line}`"))
}

/// A rooted or unrooted tree over nodes `0..k`, given as an edge list.
/// Returns an error unless it has `k-1` edges and is connected.
fn check_tree(k: usize, edges: &[(usize, usize)]) -> Result<(), String> {
    if k == 0 {
        return Err("decomposition has no nodes".into());
    }
    if edges.len() != k - 1 {
        return Err(format!("{k} nodes but {} tree edges", edges.len()));
    }
    let mut seen = vec![false; k];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(p) = stack.pop() {
        for &(a, b) in edges {
            for (x, y) in [(a, b), (b, a)] {
                if x == p && !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
    }
    if seen.iter().any(|s| !s) {
        return Err("decomposition tree is not connected".into());
    }
    Ok(())
}

/// The shared half of both checks: coverage and connectedness of bags.
fn check_bags(
    inst: &Instance,
    bags: &[BTreeSet<String>],
    tree: &[(usize, usize)],
) -> Result<(), String> {
    check_tree(bags.len(), tree)?;
    for v in &inst.vertices {
        let holders: Vec<usize> = (0..bags.len()).filter(|&p| bags[p].contains(v)).collect();
        if holders.is_empty() {
            return Err(format!("vertex {v} is in no bag"));
        }
        // a subforest of a tree is connected iff it has one edge fewer than nodes
        let inner = tree
            .iter()
            .filter(|(a, b)| bags[*a].contains(v) && bags[*b].contains(v))
            .count();
        if inner + 1 != holders.len() {
            return Err(format!("bags holding vertex {v} are not connected"));
        }
    }
    for (name, e) in &inst.edges {
        if !bags.iter().any(|b| e.iter().all(|v| b.contains(v))) {
            return Err(format!("edge {name}{e:?} lies in no bag"));
        }
    }
    for b in bags {
        if let Some(v) = b.iter().find(|v| !inst.vertices.contains(*v)) {
            return Err(format!("bag names unknown vertex {v}"));
        }
    }
    Ok(())
}

/// Checks a treewidth answer body (`--td`) against its DIMACS instance.
pub fn check_tw(instance: &str, body: &str) -> Result<Verdict, String> {
    let inst = parse_dimacs(instance)?;
    let mut lines = body.lines();
    lines.next(); // "graph: N vertices, M edges"
    let claim = parse_claim(lines.next().ok_or("missing summary line")?)?;
    let header: Vec<&str> = lines
        .next()
        .ok_or("missing `s td` line")?
        .split_whitespace()
        .collect();
    if header.len() != 5 || header[0] != "s" || header[1] != "td" {
        return Err(format!("bad td header {header:?}"));
    }
    let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number `{s}`"));
    let (k, max_bag, n) = (num(header[2])?, num(header[3])?, num(header[4])?);
    if n != inst.vertices.len() {
        return Err(format!(
            "td covers {n} vertices, instance has {}",
            inst.vertices.len()
        ));
    }
    let mut bags = vec![None; k];
    let mut tree = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [] => {}
            ["b", id, vs @ ..] => {
                let id = num(id)?;
                let slot = bags
                    .get_mut(id.wrapping_sub(1))
                    .ok_or(format!("bag id {id} out of range"))?;
                if slot.is_some() {
                    return Err(format!("bag {id} listed twice"));
                }
                *slot = Some(
                    vs.iter()
                        .map(|v| v.to_string())
                        .collect::<BTreeSet<String>>(),
                );
            }
            [a, b] => {
                let (a, b) = (num(a)?, num(b)?);
                if a == 0 || b == 0 || a > k || b > k {
                    return Err(format!("tree edge {a} {b} out of range"));
                }
                tree.push((a - 1, b - 1));
            }
            _ => return Err(format!("bad td line `{line}`")),
        }
    }
    let bags: Vec<BTreeSet<String>> = bags
        .into_iter()
        .enumerate()
        .map(|(i, b)| b.ok_or(format!("bag {} missing", i + 1)))
        .collect::<Result<_, _>>()?;
    check_bags(&inst, &bags, &tree)?;
    let widest = bags.iter().map(BTreeSet::len).max().unwrap_or(0);
    if widest != max_bag {
        return Err(format!(
            "header says max bag {max_bag}, bags reach {widest}"
        ));
    }
    if widest.saturating_sub(1) != claim.width {
        return Err(format!(
            "decomposition has width {}, summary claims {}",
            widest.saturating_sub(1),
            claim.width
        ));
    }
    Ok(claim)
}

/// Splits `{a,b,c}` into names.
fn braced(s: &str) -> Result<Vec<String>, String> {
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or(format!("expected {{…}}, got `{s}`"))?;
    Ok(inner
        .split(',')
        .filter(|x| !x.is_empty())
        .map(str::to_string)
        .collect())
}

/// Checks a ghw answer body (`--show`) against its hypergraph instance.
pub fn check_ghw(instance: &str, body: &str) -> Result<Verdict, String> {
    let inst = parse_hypergraph(instance)?;
    let edge_of: HashMap<&str, &Vec<String>> =
        inst.edges.iter().map(|(n, e)| (n.as_str(), e)).collect();
    let mut lines = body.lines();
    lines.next(); // "hypergraph: N vertices, M hyperedges"
    let claim = parse_claim(lines.next().ok_or("missing summary line")?)?;
    let header: Vec<&str> = lines
        .next()
        .ok_or("missing `ghd` line")?
        .split_whitespace()
        .collect();
    // "ghd K nodes, width W"
    if header.len() != 5 || header[0] != "ghd" || header[3] != "width" {
        return Err(format!("bad ghd header {header:?}"));
    }
    let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number `{s}`"));
    let (k, header_width) = (num(header[1])?, num(header[4])?);
    let mut bags = Vec::new();
    let mut tree = Vec::new();
    let mut widest = 0;
    for (i, line) in lines.filter(|l| !l.trim().is_empty()).enumerate() {
        // "P: chi {…} lambda {…} parent Q|-"
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 7
            || f[0] != format!("{}:", i + 1)
            || f[1] != "chi"
            || f[3] != "lambda"
            || f[5] != "parent"
        {
            return Err(format!("bad ghd line `{line}`"));
        }
        let chi: BTreeSet<String> = braced(f[2])?.into_iter().collect();
        let lambda = braced(f[4])?;
        let mut covered = BTreeSet::new();
        for e in &lambda {
            let vs = edge_of
                .get(e.as_str())
                .ok_or(format!("λ names unknown edge {e}"))?;
            covered.extend(vs.iter().cloned());
        }
        if let Some(v) = chi.iter().find(|v| !covered.contains(*v)) {
            return Err(format!("node {}: λ does not cover χ vertex {v}", i + 1));
        }
        widest = widest.max(lambda.len());
        if f[6] != "-" {
            let p = num(f[6])?;
            if p == 0 || p > k || p == i + 1 {
                return Err(format!("node {}: bad parent {p}", i + 1));
            }
            tree.push((i, p - 1));
        }
        bags.push(chi);
    }
    if bags.len() != k {
        return Err(format!("header says {k} nodes, listing has {}", bags.len()));
    }
    check_bags(&inst, &bags, &tree)?;
    if widest != header_width || widest != claim.width {
        return Err(format!(
            "λ reaches width {widest}; header says {header_width}, summary claims {}",
            claim.width
        ));
    }
    Ok(claim)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATH: &str = "p edge 3 2\ne 1 2\ne 2 3\n";
    const PATH_TD: &str = "graph: 3 vertices, 2 edges\nA*-tw: width = 1 (exact)\n\
                           s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n";

    #[test]
    fn accepts_a_valid_td() {
        assert_eq!(
            check_tw(PATH, PATH_TD),
            Ok(Verdict {
                width: 1,
                exact: true
            })
        );
    }

    #[test]
    fn rejects_broken_tds() {
        // wrong claimed width
        assert!(check_tw(PATH, &PATH_TD.replace("width = 1", "width = 2")).is_err());
        // edge 2-3 uncovered
        assert!(check_tw(PATH, &PATH_TD.replace("b 2 2 3", "b 2 2 1")).is_err());
        // vertex 2 in two disconnected bags
        let split =
            "graph\nA*-tw: width = 1 (exact)\ns td 3 2 3\nb 1 1 2\nb 2 1 3\nb 3 2 3\n1 2\n2 3\n";
        assert!(check_tw(PATH, split).is_err());
        // not a tree
        assert!(check_tw(PATH, &PATH_TD.replace("1 2\n", "")).is_err());
        // truncated
        assert!(check_tw(PATH, "graph\n").is_err());
    }

    const TRI: &str = "e1(a,b),\ne2(b,c),\ne3(c,a).\n";

    #[test]
    fn checks_ghds() {
        let ok = "hypergraph: 3 vertices, 3 hyperedges\nA*-ghw: width = 2 (exact)\n\
                  ghd 1 nodes, width 2\n1: chi {a,b,c} lambda {e1,e2} parent -\n";
        assert_eq!(
            check_ghw(TRI, ok),
            Ok(Verdict {
                width: 2,
                exact: true
            })
        );
        // λ leaves χ vertex c uncovered
        assert!(check_ghw(
            TRI,
            &ok.replace("{e1,e2}", "{e1}")
                .replace("width 2", "width 1")
                .replace("= 2", "= 1")
        )
        .is_err());
        // claimed width disagrees with λ
        assert!(check_ghw(TRI, &ok.replace("= 2", "= 1")).is_err());
        // unknown edge
        assert!(check_ghw(TRI, &ok.replace("e2}", "e9}")).is_err());
    }
}
