//! Interleaving-robustness tests for the work-stealing runtime: seeded
//! random delays injected at every task's containment boundary perturb the
//! steal schedule (who steals what, and when the shared incumbent tightens),
//! yet widths *and orderings* must equal the sequential search exactly —
//! the witness-reconstruction pass makes the reported ordering
//! schedule-independent, so any divergence here is a real determinism bug.

use ghd::hypergraph::generators::{graphs, hypergraphs};
use ghd::par::fault::{self, FaultPlan};
use ghd::search::{
    bb_ghw, bb_ghw_parallel, bb_tw, bb_tw_parallel, BbConfig, BbGhwConfig, SearchLimits,
    StealConfig, StealCounters,
};

/// 32 delay seeds crossed with threads {2, 4, 8} and three steal-depth
/// cutoffs, cycling so every combination class is hit without running the
/// full 32×3×3 product on every instance.
const SEEDS: u64 = 32;
const THREADS: [usize; 3] = [2, 4, 8];
const DEPTHS: [usize; 3] = [1, 3, 5];

#[test]
fn bb_ghw_ordering_is_schedule_independent_under_injected_delays() {
    for h in [
        hypergraphs::random_hypergraph(10, 7, 3, 1),
        hypergraphs::random_circuit(16, 18, 7),
    ] {
        let seq = bb_ghw(&h, &BbGhwConfig::default());
        assert!(seq.exact);
        for seed in 0..SEEDS {
            let threads = THREADS[(seed as usize) % THREADS.len()];
            let cfg = BbGhwConfig {
                steal: StealConfig {
                    depth: DEPTHS[(seed as usize / THREADS.len()) % DEPTHS.len()],
                },
                ..BbGhwConfig::default()
            };
            let _scope = fault::install(FaultPlan::new().delay(seed, 120));
            let par = bb_ghw_parallel(&h, &cfg, threads);
            assert!(par.faults.is_empty(), "seed {seed}: a delay is not a fault");
            assert!(par.exact, "seed {seed} threads {threads}");
            assert_eq!(par.upper_bound, seq.upper_bound, "seed {seed} threads {threads}");
            assert_eq!(par.ordering, seq.ordering, "seed {seed} threads {threads}");
        }
    }
}

#[test]
fn bb_tw_ordering_is_schedule_independent_under_injected_delays() {
    for g in [graphs::gnm_random(13, 32, 3), graphs::grid(4)] {
        let seq = bb_tw(&g, &BbConfig::default());
        assert!(seq.exact);
        for seed in 0..SEEDS {
            let threads = THREADS[(seed as usize) % THREADS.len()];
            let cfg = BbConfig {
                steal: StealConfig {
                    depth: DEPTHS[(seed as usize / THREADS.len()) % DEPTHS.len()],
                },
                ..BbConfig::default()
            };
            let _scope = fault::install(FaultPlan::new().delay(seed, 120));
            let par = bb_tw_parallel(&g, &cfg, threads);
            assert!(par.faults.is_empty(), "seed {seed}: a delay is not a fault");
            assert!(par.exact, "seed {seed} threads {threads}");
            assert_eq!(par.upper_bound, seq.upper_bound, "seed {seed} threads {threads}");
            assert_eq!(par.ordering, seq.ordering, "seed {seed} threads {threads}");
        }
    }
}

/// Delays combined with a mid-run kill: the retried task runs on a
/// perturbed schedule too, and the result must stay exact and
/// ordering-identical. The scheduler's books must balance: every
/// execution is the seed task, a published task, or the one retry.
#[test]
fn delays_plus_a_killed_task_still_converge_to_the_sequential_result() {
    let h = hypergraphs::grid2d(5);
    let seq = bb_ghw(&h, &BbGhwConfig::default());
    let cfg = BbGhwConfig {
        limits: SearchLimits::unlimited().stats(true),
        ..BbGhwConfig::default()
    };
    for seed in 0..8u64 {
        let threads = THREADS[(seed as usize) % THREADS.len()];
        let scope = fault::install(FaultPlan::new().delay(seed, 120).kill_task(1));
        let par = bb_ghw_parallel(&h, &cfg, threads);
        assert_eq!(scope.fired(), 1, "seed {seed}: kill did not fire");
        drop(scope);
        assert_eq!(par.faults.len(), 1, "seed {seed}");
        assert!(par.exact, "seed {seed}: retry lost exactness");
        assert_eq!(par.upper_bound, seq.upper_bound, "seed {seed}");
        assert_eq!(par.ordering, seq.ordering, "seed {seed}");
        let steals = &par.stats.as_ref().expect("stats requested").worker_steals;
        let sum = |f: fn(&StealCounters) -> u64| steals.iter().map(f).sum::<u64>();
        let (published, executed, retried) =
            (sum(|s| s.published), sum(|s| s.executed), sum(|s| s.retried));
        assert_eq!(executed, published + 1 + retried, "seed {seed}: {steals:?}");
        assert_eq!(retried, 1, "seed {seed}: the killed task runs again once");
    }
}
