//! The benchmark's inputs. Fixed instances come from `ghd gen` (through
//! the CLI's public `run`), chains are glued here, and the expected widths
//! come from the hand-written `expected.txt`.

use crate::check::{check_ghw, check_tw, Verdict};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Tw,
    Ghw,
}

impl Kind {
    pub fn cmd(self) -> &'static str {
        match self {
            Kind::Tw => "tw",
            Kind::Ghw => "ghw",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Inst {
    /// `ghd gen` family and parameters, plus ` xK` for a K-copy chain.
    pub spec: String,
    pub kind: Kind,
    pub text: String,
    pub expected: Option<usize>,
}

impl Inst {
    /// Builds the instance `spec` (e.g. `queen 5 x2`, `circuit 35 38 7`).
    pub fn new(kind: Kind, spec: &str) -> Inst {
        let mut words: Vec<&str> = spec.split_whitespace().collect();
        let copies = match words.last().and_then(|w| w.strip_prefix('x')) {
            Some(k) => {
                let k = k.parse().expect("chain length");
                words.pop();
                k
            }
            None => 1,
        };
        let mut args = vec!["gen".to_string()];
        args.extend(words.iter().map(|w| w.to_string()));
        let text = ghd_cli::run(&args).unwrap_or_else(|e| panic!("ghd gen {spec}: {e}"));
        let text = if copies > 1 {
            chain(&text, copies)
        } else {
            text
        };
        Inst {
            spec: spec.to_string(),
            kind,
            text,
            expected: expected_width(kind, spec),
        }
    }

    /// The flags a request for this instance carries: the method and its
    /// extra arguments, a per-instance time budget, and the decomposition.
    pub fn flags(&self, method: &[&str], budget_s: f64) -> Vec<String> {
        let show = match self.kind {
            Kind::Tw => "--td",
            Kind::Ghw => "--show",
        };
        let mut f: Vec<String> = method.iter().map(|s| s.to_string()).collect();
        f.extend(["--time".to_string(), budget_s.to_string(), show.to_string()]);
        f
    }

    /// Checks an answer body with the naive checker.
    pub fn check(&self, body: &str) -> Result<Verdict, String> {
        match self.kind {
            Kind::Tw => check_tw(&self.text, body),
            Kind::Ghw => check_ghw(&self.text, body),
        }
    }
}

/// `k` copies of a DIMACS graph chained at cut vertices: vertex `n` of copy
/// `i` is vertex 1 of copy `i + 1`.
fn chain(text: &str, k: usize) -> String {
    let mut n = 0;
    let mut edges = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["p", _, nv, _] => n = nv.parse().expect("vertex count"),
            ["e", a, b] => edges.push((
                a.parse::<usize>().expect("vertex"),
                b.parse::<usize>().expect("vertex"),
            )),
            _ => {}
        }
    }
    let mut out = format!("p edge {} {}\n", k * (n - 1) + 1, k * edges.len());
    for c in 0..k {
        let off = c * (n - 1);
        for &(a, b) in &edges {
            out.push_str(&format!("e {} {}\n", a + off, b + off));
        }
    }
    out
}

/// Width recorded in `expected.txt` for `kind spec`, if any.
pub fn expected_width(kind: Kind, spec: &str) -> Option<usize> {
    include_str!("../expected.txt").lines().find_map(|line| {
        let f: Vec<&str> = line.split('|').map(str::trim).collect();
        (f.len() == 4 && f[0] == kind.cmd() && f[1] == spec)
            .then(|| f[2].parse().expect("expected width"))
    })
}

/// The `astar-exact` set.
pub fn astar_exact() -> Vec<Inst> {
    vec![
        Inst::new(Kind::Tw, "grid 6"),
        Inst::new(Kind::Tw, "queen 6"),
        Inst::new(Kind::Tw, "gnm 34 85 5"),
        Inst::new(Kind::Ghw, "circuit 35 38 7"),
        Inst::new(Kind::Ghw, "grid2d-h 8"),
    ]
}

/// The `bb-parallel` set: three monolithic instances, then the blocky ones.
pub fn bb_parallel() -> Vec<Inst> {
    vec![
        Inst::new(Kind::Ghw, "circuit 40 44 3"),
        Inst::new(Kind::Ghw, "circuit 35 38 7"),
        Inst::new(Kind::Tw, "gnm 26 70 3"),
        Inst::new(Kind::Tw, "queen 5 x2"),
        Inst::new(Kind::Tw, "myciel 4 x3"),
    ]
}

/// The glued `gnm 26 70 3` pair: a known failure of the split layer
/// (blocks are exact, the whole-instance witness does not finish), run
/// by the traced `bb-parallel` walk under a short budget.
pub fn bb_known_failure() -> Inst {
    Inst::new(Kind::Tw, "gnm 26 70 3 x2")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_glues_at_cut_vertices() {
        let t = chain("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", 3);
        assert_eq!(
            t,
            "p edge 7 9\ne 1 2\ne 2 3\ne 1 3\ne 3 4\ne 4 5\ne 3 5\ne 5 6\ne 6 7\ne 5 7\n"
        );
    }

    #[test]
    fn expected_file_names_every_fixed_instance() {
        for i in astar_exact()
            .iter()
            .chain(&bb_parallel())
            .chain([&bb_known_failure()])
        {
            assert!(i.expected.is_some(), "{} has no expected width", i.spec);
        }
    }
}
