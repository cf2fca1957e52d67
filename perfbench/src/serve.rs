//! `ghd-serve` driving: an in-process daemon on a unix socket, booted on a
//! cache log, and the clients that load it.

use crate::inst::Inst;
use crate::util::{median, quantile, timed};
use crate::Tally;
use ghd_serve::{Client, Request, Response, Server, ServerConfig};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub struct Daemon {
    handle: JoinHandle<String>,
}

/// Binds `addr` on `log`, replays it, and returns once a `ping` over the
/// returned connection is answered, with the seconds that took. The
/// connection is made before the accept loop starts, so the first accept
/// finds it waiting.
pub fn boot(addr: &str, log: &Path) -> (Daemon, Client, f64) {
    let t0 = Instant::now();
    let cfg = ServerConfig {
        log_path: Some(log.to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::bind(addr, cfg, Arc::new(ghd_cli::CliSolver::default()))
        .unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    let mut client = Client::connect(addr).expect("connect to a bound daemon");
    let handle = std::thread::spawn(move || server.run());
    let pong = client
        .request(&Request::control(None, "ping"))
        .expect("ping");
    assert_eq!(
        pong.body.as_deref(),
        Some("pong"),
        "daemon did not answer ping"
    );
    (Daemon { handle }, client, t0.elapsed().as_secs_f64())
}

/// `stats` body, then a graceful drain; waits for the daemon to exit.
pub fn shutdown(d: Daemon, mut client: Client) -> String {
    let stats = client
        .request(&Request::control(None, "stats"))
        .ok()
        .and_then(|r| r.body)
        .unwrap_or_default();
    let _ = client.request(&Request::control(None, "shutdown"));
    drop(client);
    d.handle.join().expect("daemon thread panicked");
    stats
}

/// A number field of the `stats` JSON body (0 when absent).
pub fn stats_field(stats: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    stats
        .find(&pat)
        .map(|p| &stats[p + pat.len()..])
        .and_then(|s| s.split([',', '}']).next()?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// One-shot answer through the CLI solve path (what `ghd tw|ghw` prints).
pub fn one_shot(inst: &Inst, flags: &[String]) -> Result<ghd_cli::SolveReport, ghd_cli::CmdError> {
    match inst.kind {
        crate::inst::Kind::Tw => ghd_cli::solve_tw_text(&inst.text, flags),
        crate::inst::Kind::Ghw => ghd_cli::solve_ghw_text(&inst.text, flags),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Hit,
    Miss,
    Connect,
}

/// One timed request and what came back.
pub struct Sample {
    pub kind: Kind,
    pub secs: f64,
    pub reply: Reply,
    /// FNV hash of the reply body.
    pub body_hash: u64,
}

/// What the benchmark keeps of a reply. Bodies are hashed as they arrive
/// and only the fields the metrics read are kept, so the load generator's
/// own memory hardly grows with the number of requests in `peak_rss_mb`.
pub enum Reply {
    Answered {
        cache_hit: Option<bool>,
        queue_wait_s: Option<f64>,
        wall_s: Option<f64>,
    },
    Refused {
        code: Option<i64>,
        error: Box<str>,
    },
    Transport(Box<str>),
}

impl Sample {
    /// Times `send` and keeps what the metrics and checks need of the reply.
    fn take(kind: Kind, send: impl FnOnce() -> std::io::Result<Response>) -> Sample {
        let (resp, secs) = timed(send);
        let (reply, body_hash) = match resp {
            Err(e) => (Reply::Transport(e.to_string().into()), 0),
            Ok(r) if !r.ok => (
                Reply::Refused {
                    code: r.code,
                    error: r.error.unwrap_or_default().into(),
                },
                0,
            ),
            Ok(r) => (
                Reply::Answered {
                    cache_hit: r.cache_hit,
                    queue_wait_s: r.queue_wait_s,
                    wall_s: r.wall_s,
                },
                r.body.map_or(0, |b| fnv(&b)),
            ),
        };
        Sample {
            kind,
            secs,
            reply,
            body_hash,
        }
    }
}

/// FNV-1a, 64 bits: compares reply bodies without keeping them.
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks one daemon reply against the one-shot body (by hash) it must equal.
pub fn judge_reply(tally: &mut Tally, s: &Sample, want_hit: bool, oneshot_hash: u64, what: &str) {
    match &s.reply {
        Reply::Transport(e) => tally.wrong(format!("{what}: transport error {e}")),
        Reply::Refused {
            code: Some(503),
            error,
        } => tally.fail(format!("{what}: {error}")),
        Reply::Refused { error, .. } => tally.wrong(format!("{what}: daemon error {error}")),
        Reply::Answered { cache_hit, .. } if *cache_hit != Some(want_hit) => tally.wrong(format!(
            "{what}: cache_hit {cache_hit:?}, expected {want_hit}"
        )),
        Reply::Answered { .. } if s.body_hash != oneshot_hash => {
            tally.wrong(format!("{what}: daemon body differs from one-shot"))
        }
        Reply::Answered { .. } => tally.ok(),
    }
}

/// Checks a one-shot answer: the checker accepts its body, the body and
/// the report agree, it is exact, and its width is the recorded one.
pub fn judge_answer(
    tally: &mut Tally,
    inst: &Inst,
    res: &Result<ghd_cli::SolveReport, ghd_cli::CmdError>,
) {
    let what = format!("{} {}", inst.kind.cmd(), inst.spec);
    let rep = match res {
        Ok(r) => r,
        Err(e) => return tally.wrong(format!("{what}: error {e}")),
    };
    match inst.check(&rep.body) {
        Err(e) => tally.wrong(format!("{what}: checker rejected the answer: {e}")),
        Ok(v) if v.width != rep.width => tally.wrong(format!(
            "{what}: body says {}, report {}",
            v.width, rep.width
        )),
        Ok(v) if !v.exact => tally.fail(format!(
            "{what}: not exact within budget (width <= {})",
            v.width
        )),
        Ok(v) if inst.expected.is_some_and(|w| w != v.width) => tally.wrong(format!(
            "{what}: width {}, expected {}",
            v.width,
            inst.expected.unwrap_or(0)
        )),
        Ok(_) => tally.ok(),
    }
}

/// `ghd-serve` layer metrics from a set of samples and the `stats` body.
pub struct ServeLayer<'a> {
    pub samples: Vec<&'a Sample>,
    pub stats: &'a str,
    /// `stats` of a daemon that booted on the log (replay figures).
    pub replay: &'a str,
    pub log_bytes: f64,
    pub cache_key_us: f64,
    pub direct_solve_ms: f64,
}

impl ServeLayer<'_> {
    pub fn metrics(&self, m: &mut crate::Metrics) {
        let of = |k: Kind| -> Vec<f64> {
            self.samples
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.secs * 1e3)
                .collect()
        };
        let (hit, miss, conn) = (of(Kind::Hit), of(Kind::Miss), of(Kind::Connect));
        // (round trip, queue_wait_s, wall_s) of the answered requests of one kind
        let timings = |k: Kind| -> Vec<(f64, f64, f64)> {
            self.samples
                .iter()
                .filter(|s| s.kind == k)
                .filter_map(|s| match s.reply {
                    Reply::Answered {
                        queue_wait_s: Some(q),
                        wall_s: Some(w),
                        ..
                    } => Some((s.secs, q, w)),
                    _ => None,
                })
                .collect()
        };
        let hit_over: Vec<f64> = timings(Kind::Hit)
            .iter()
            .map(|(t, q, _)| (t - q) * 1e6)
            .collect();
        let miss_t = timings(Kind::Miss);
        let queue_wait: Vec<f64> = miss_t.iter().map(|m| m.1).collect();
        let wall: Vec<f64> = miss_t.iter().map(|m| m.2).collect();
        m.set("serve.hit_ms_p50", quantile(&hit, 0.5));
        m.set("serve.hit_ms_p99", quantile(&hit, 0.99));
        m.set("serve.miss_ms_p50", quantile(&miss, 0.5));
        m.set("serve.miss_ms_p90", quantile(&miss, 0.9));
        m.set("serve.connect_ms_p50", quantile(&conn, 0.5));
        m.set("serve.connect_ms_p90", quantile(&conn, 0.9));
        m.set(
            "serve.accept_wait_ms",
            quantile(&conn, 0.5) - quantile(&hit, 0.5),
        );
        m.set("serve.hit_overhead_us", median(&hit_over));
        m.set("serve.cache_key_us", self.cache_key_us);
        m.set("serve.queue_wait_ms", median(&queue_wait) * 1e3);
        m.set("serve.solve_ms", median(&wall) * 1e3);
        m.set("serve.direct_solve_ms", self.direct_solve_ms);
        m.set("serve.replay_s", stats_field(self.replay, "boot_replay_s"));
        m.set("serve.replayed", stats_field(self.replay, "replayed"));
        m.set("serve.log_bytes", self.log_bytes);
        let completed = stats_field(self.stats, "completed");
        let hits = stats_field(self.stats, "hits");
        m.set(
            "serve.hit_ratio",
            if completed > 0.0 {
                hits / completed
            } else {
                0.0
            },
        );
        m.set("serve.errors", stats_field(self.stats, "errors"));
        m.set("serve.busy", stats_field(self.stats, "busy_rejections"));
    }
}

/// Median microseconds of `Solver::cache_key` over the request texts.
pub fn cache_key_us(insts: &[Inst], method: &[&str], budget_s: f64) -> f64 {
    use ghd_serve::Solver as _;
    let solver = ghd_cli::CliSolver::default();
    let mut us = Vec::new();
    for inst in insts {
        let flags = inst.flags(method, budget_s);
        for _ in 0..5 {
            let (key, secs) = timed(|| solver.cache_key(inst.kind.cmd(), &inst.text, &flags));
            assert!(key.is_some(), "request {} has no cache key", inst.spec);
            us.push(secs * 1e6);
        }
    }
    median(&us)
}

/// The serve layer on a batch workload's own instances (traced runs):
/// each instance once as a miss, then `hits` times over the same
/// connection and `connects` times over fresh connections; then a reboot
/// on the log for the replay figures.
pub fn session(
    work: &Path,
    insts: &[Inst],
    flags: &[Vec<String>],
    bodies: &[String],
    hits: usize,
    connects: usize,
    tally: &mut Tally,
) -> (Vec<Sample>, String, String, f64) {
    let addr = format!("unix:{}", work.join("t.sock").display());
    let log = work.join("trace.log");
    let _ = std::fs::remove_file(&log);
    let (d, mut c, _) = boot(&addr, &log);
    let mut samples = Vec::new();
    let mut send = |c: Option<&mut Client>, kind: Kind, k: usize, tally: &mut Tally| {
        let req = Request::solve(None, insts[k].kind.cmd(), &insts[k].text, &flags[k]);
        let s = Sample::take(kind, || match c {
            Some(c) => c.request(&req),
            None => Client::connect(&addr).and_then(|mut c| c.request(&req)),
        });
        judge_reply(
            tally,
            &s,
            kind != Kind::Miss,
            fnv(&bodies[k]),
            &format!("{kind:?} {}", insts[k].spec),
        );
        samples.push(s);
    };
    for k in 0..insts.len() {
        send(Some(&mut c), Kind::Miss, k, tally);
    }
    for _ in 0..hits {
        for k in 0..insts.len() {
            send(Some(&mut c), Kind::Hit, k, tally);
        }
    }
    for _ in 0..connects {
        for k in 0..insts.len() {
            send(None, Kind::Connect, k, tally);
        }
    }
    let stats = shutdown(d, c);
    let log_bytes = std::fs::metadata(&log).map_or(0.0, |m| m.len() as f64);
    let (d, c, _) = boot(&addr, &log);
    let replay = shutdown(d, c);
    (samples, stats, replay, log_bytes)
}
