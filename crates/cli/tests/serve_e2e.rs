//! End-to-end tests of `ghd serve` against the one-shot CLI: concurrent
//! mixed workloads must be byte-identical to `ghd tw`/`ghd ghw`, warm
//! cache probes must hit without expanding a node, and an injected worker
//! fault must degrade exactly one request — never the daemon.

use ghd_cli::{run, CliSolver};
use ghd_par::fault::{self, FaultPlan};
use ghd_serve::{Client, Request, Server, ServerConfig, Solver};
use std::sync::Arc;
use std::thread;

fn run_args(args: &[&str]) -> String {
    run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("command succeeds")
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn boot(cfg: ServerConfig) -> (String, thread::JoinHandle<String>) {
    boot_under(cfg, FaultPlan::new())
}

/// Boots a daemon whose run (and only its run) carries the fault `plan`.
fn boot_under(cfg: ServerConfig, plan: FaultPlan) -> (String, thread::JoinHandle<String>) {
    let server = Server::bind("127.0.0.1:0", cfg, Arc::new(CliSolver::default()) as Arc<dyn Solver>)
        .expect("bind a free port");
    let addr = server.local_addr();
    (
        addr,
        thread::spawn(move || {
            let _scope = fault::install(plan);
            server.run()
        }),
    )
}

fn shutdown(addr: &str, handle: thread::JoinHandle<String>) -> String {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    assert!(c.request(&Request::control(None, "shutdown")).expect("shutdown").ok);
    handle.join().expect("server thread")
}

/// Satellite contract: N concurrent clients submitting a mixed tw/ghw
/// workload get answers byte-identical to the one-shot CLI; a warm
/// re-run is answered entirely from the cache with zero nodes expanded.
#[test]
fn concurrent_mixed_workload_is_byte_identical_then_cached() {
    let grid = run_args(&["gen", "grid", "4"]);
    let clique = run_args(&["gen", "clique", "6"]);
    let gridh = run_args(&["gen", "grid2d-h", "4"]);
    let gpath = tmp("grid.col", &grid);
    let cpath = tmp("clique.hg", &clique);
    let hpath = tmp("gridh.hg", &gridh);

    // the ground truth: one-shot CLI output per (cmd, file, flags)
    let jobs: Vec<(String, String, Vec<String>, String)> = vec![
        ("tw".into(), grid.clone(), strings(&["--method", "bb"]), run_args(&["tw", &gpath, "--method", "bb"])),
        ("tw".into(), grid.clone(), strings(&["--method", "astar"]), run_args(&["tw", &gpath, "--method", "astar"])),
        ("ghw".into(), clique.clone(), strings(&["--method", "bb"]), run_args(&["ghw", &cpath, "--method", "bb"])),
        ("ghw".into(), gridh.clone(), strings(&["--method", "bb", "--show"]), run_args(&["ghw", &hpath, "--method", "bb", "--show"])),
    ];

    let (addr, handle) = boot(ServerConfig { workers: 3, ..ServerConfig::default() });

    // cold phase: 3 concurrent clients × the full mixed workload each
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let addr = addr.clone();
            let jobs = jobs.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for (i, (cmd, instance, args, expect)) in jobs.iter().enumerate() {
                    let id = Some((c * 10 + i) as u64);
                    let resp = client
                        .request(&Request::solve(id, cmd, instance, args))
                        .expect("roundtrip");
                    assert!(resp.ok, "{resp:?}");
                    assert_eq!(resp.id, id, "responses correlate in order");
                    assert_eq!(resp.body.as_deref(), Some(expect.as_str()), "byte-identity");
                    assert_eq!(resp.exact, Some(true));
                    assert_eq!(resp.certified, Some(true));
                    if resp.cache_hit == Some(true) {
                        assert_eq!(resp.nodes_expanded, Some(0), "hits cost nothing");
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // warm phase: every re-submission is a pure cache hit, and reports
    // the real time its key and probe took
    let mut client = Client::connect(&addr).expect("connect warm");
    for (cmd, instance, args, expect) in &jobs {
        let sent = std::time::Instant::now();
        let resp = client.request(&Request::solve(None, cmd, instance, args)).unwrap();
        let round_trip = sent.elapsed().as_secs_f64();
        assert_eq!(resp.cache_hit, Some(true), "warm run must hit: {cmd} {args:?}");
        assert_eq!(resp.nodes_expanded, Some(0));
        assert_eq!(resp.body.as_deref(), Some(expect.as_str()));
        let wall = resp.wall_s.expect("a hit reports wall_s");
        assert!(wall > 0.0 && wall < round_trip, "hit wall_s {wall} vs round trip {round_trip}");
    }
    // canonicalization: a re-commented, re-formatted copy of the same
    // instance is the same cache entry (and the same one-shot answer)
    let scrambled = format!("c a comment\n{}c another\n", grid.replace("\ne ", "\n e "));
    let resp = client
        .request(&Request::solve(None, "tw", &scrambled, &strings(&["--method", "bb"])))
        .unwrap();
    assert_eq!(resp.cache_hit, Some(true), "canonical form absorbs formatting");
    assert_eq!(resp.body.as_deref(), Some(jobs[0].3.as_str()));

    // `ghd submit` goes through the same path: body equals one-shot stdout
    let via_submit = run_args(&["submit", &addr, "tw", &gpath, "--method", "bb"]);
    assert_eq!(via_submit, jobs[0].3);
    assert_eq!(run_args(&["submit", &addr, "ping"]), "pong\n");
    let stats_body = run_args(&["submit", &addr, "stats"]);
    let v = ghd_core::json::Json::parse(&stats_body).expect("stats JSON");
    use ghd_core::json::Json;
    let hits = v.get("cache").and_then(|c| c.get("hits")).and_then(Json::as_f64).unwrap();
    assert!(hits >= 6.0, "warm phase + scramble + submit all hit: {hits}");
    assert_eq!(v.get("errors").and_then(Json::as_f64), Some(0.0));

    let summary = shutdown(&addr, handle);
    assert!(summary.contains("drained clean"), "{summary}");
    assert!(summary.contains("0 busy rejections"), "{summary}");
}

/// Satellite contract: one injected worker fault (via `ghd_par::fault`)
/// degrades the single request whose search it hit — the answer comes
/// back with anytime bounds and the fault count — and the daemon carries
/// on serving exact answers afterwards.
#[test]
fn injected_worker_fault_degrades_one_request_not_the_daemon() {
    let hg = run_args(&["gen", "grid2d-h", "5"]);
    // kill parallel task 0 twice: the runtime retries a faulted task
    // once, so a double kill makes the fault permanent for the first
    // request, and one-shot kills leave nothing for the requests after it
    let plan = FaultPlan::new().kill_task(0).kill_task(0);
    let (addr, handle) = boot_under(ServerConfig { workers: 1, ..ServerConfig::default() }, plan);
    let mut client = Client::connect(&addr).expect("connect");
    let args = strings(&["--method", "bb", "--threads", "2"]);

    let degraded =
        client.request(&Request::solve(Some(1), "ghw", &hg, &args)).expect("roundtrip");
    assert!(degraded.ok, "a faulted request is degraded, not dropped: {degraded:?}");
    assert!(degraded.faults.unwrap_or(0) >= 1, "{degraded:?}");
    assert_eq!(degraded.exact, Some(false), "exactness is withdrawn");
    let body = degraded.body.expect("anytime bounds body");
    assert!(body.contains("<= width <="), "{body}");

    // kills spent: the same request now completes exact on the same
    // daemon, and was never poisoned by the degraded result (which is
    // barred from the cache)
    let clean = client.request(&Request::solve(Some(2), "ghw", &hg, &args)).expect("roundtrip");
    assert!(clean.ok, "{clean:?}");
    assert_eq!(clean.faults, Some(0));
    assert_eq!(clean.exact, Some(true));
    assert_eq!(clean.cache_hit, Some(false), "degraded answers are never admitted");
    let expect = {
        let hpath = tmp("fault.hg", &hg);
        run_args(&["ghw", &hpath, "--method", "bb", "--threads", "2"])
    };
    assert_eq!(clean.body.as_deref(), Some(expect.as_str()), "byte-identity after recovery");

    let summary = shutdown(&addr, handle);
    assert!(summary.contains("drained clean"), "{summary}");
}

/// Tentpole contract: cancelling an in-flight hard solve returns a
/// *certified anytime* answer (`lb <= width <= ub (cancelled)`) to the
/// submitting client — with a real lower bound, exactly like a budget
/// expiry — while the daemon stays healthy and keeps serving exact
/// answers afterwards.
#[test]
fn cancel_mid_solve_returns_certified_bounds_and_daemon_survives() {
    // queen(7) is far beyond an exact solve in test time; `--time 0`
    // removes the wall clock, so only the cancel can stop the search
    let hard = run_args(&["gen", "queen", "7"]);
    let (addr, handle) = boot(ServerConfig { workers: 1, ..ServerConfig::default() });

    let solver = {
        let addr = addr.clone();
        let hard = hard.clone();
        thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect solver");
            client
                .request(&Request::solve(
                    Some(77),
                    "tw",
                    &hard,
                    &strings(&["--method", "bb", "--time", "0"]),
                ))
                .expect("solve roundtrip")
        })
    };

    // let the solve get into its search loop, then cancel it by id from
    // a second connection (the first is blocked awaiting its answer)
    thread::sleep(std::time::Duration::from_millis(400));
    let mut canceller = Client::connect(&addr).expect("connect canceller");
    let ack = canceller.request(&Request::cancel(Some(1), 77)).expect("cancel roundtrip");
    assert!(ack.ok, "{ack:?}");
    assert!(ack.body.as_deref().unwrap_or("").contains("cancelling"), "{ack:?}");

    let resp = solver.join().expect("solver thread");
    assert!(resp.ok, "cancellation degrades the answer, never drops it: {resp:?}");
    assert_eq!(resp.cancelled, Some(true), "{resp:?}");
    assert_eq!(resp.exact, Some(false), "exactness is withdrawn");
    assert_eq!(resp.cache_hit, Some(false), "anytime answers are never admitted");
    let body = resp.body.as_deref().expect("anytime bounds body");
    assert!(body.contains("<= width <="), "a lower bound is reported: {body}");
    assert!(body.contains("(cancelled)"), "the stop reason is named: {body}");
    // BB seeds its incumbent from min-fill, so even an early cancel
    // carries a re-verified ordering realising the upper bound
    assert_eq!(resp.certified, Some(true), "{resp:?}");

    // daemon health: the same daemon still answers exactly afterwards
    let easy = run_args(&["gen", "grid", "4"]);
    let after = canceller
        .request(&Request::solve(Some(2), "tw", &easy, &strings(&["--method", "bb"])))
        .expect("post-cancel roundtrip");
    assert!(after.ok, "{after:?}");
    assert_eq!(after.exact, Some(true));

    let summary = shutdown(&addr, handle);
    assert!(summary.contains("1 cancelled"), "{summary}");
}

/// Tentpole contract: with a cache log configured, exact answers survive
/// a daemon restart — boot replay re-verifies each record and warm
/// probes hit with zero node expansions — and a corrupted tail is
/// dropped at boot (truncated, logged), never replayed and never fatal.
#[test]
fn cache_log_replays_across_restart_and_drops_corrupt_tail() {
    use ghd_core::json::Json;

    let grid = run_args(&["gen", "grid", "4"]);
    let clique = run_args(&["gen", "clique", "6"]);
    let log = std::env::temp_dir().join(format!("ghd-serve-e2e-{}.cachelog", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let cfg = || ServerConfig {
        workers: 2,
        log_path: Some(log.clone()),
        ..ServerConfig::default()
    };

    // first life: two exact solves spill to the log, drain fsyncs it
    let (addr, handle) = boot(cfg());
    let mut client = Client::connect(&addr).expect("connect cold");
    let args = strings(&["--method", "bb"]);
    let cold_tw = client.request(&Request::solve(None, "tw", &grid, &args)).unwrap();
    let cold_ghw = client.request(&Request::solve(None, "ghw", &clique, &args)).unwrap();
    assert!(cold_tw.ok && cold_ghw.ok, "{cold_tw:?} {cold_ghw:?}");
    let summary = shutdown(&addr, handle);
    assert!(summary.contains("drained clean"), "{summary}");

    // simulate a torn append: a valid version byte then garbage, exactly
    // what a crash mid-write leaves behind
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0x01, 0xFF, 0xFF, 0xFF, 0x13]).unwrap();
    }

    // second life, same log: warm probes are pure replays
    let (addr, handle) = boot(cfg());
    let mut client = Client::connect(&addr).expect("connect warm");
    for (cmd, instance, cold) in [("tw", &grid, &cold_tw), ("ghw", &clique, &cold_ghw)] {
        let warm = client.request(&Request::solve(None, cmd, instance, &args)).unwrap();
        assert_eq!(warm.cache_hit, Some(true), "replayed entry answers {cmd}: {warm:?}");
        assert_eq!(warm.nodes_expanded, Some(0), "replays cost nothing");
        assert_eq!(warm.body, cold.body, "replayed body is byte-identical");
    }
    let stats = client.request(&Request::control(None, "stats")).unwrap().body.unwrap();
    let v = Json::parse(&stats).expect("stats JSON");
    assert_eq!(v.get("replayed").and_then(Json::as_f64), Some(2.0), "{stats}");
    assert_eq!(v.get("replay_verify_rejects").and_then(Json::as_f64), Some(0.0), "{stats}");

    let summary = shutdown(&addr, handle);
    assert!(summary.contains("drained clean"), "{summary}");
    let _ = std::fs::remove_file(&log);
}

fn tmp(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "ghd-serve-e2e-{}-{name}",
        std::process::id()
    ));
    std::fs::write(&path, content).expect("write temp file");
    path.to_string_lossy().into_owned()
}
