//! Regression test for the release-mode id-packing overflow: a worker
//! shard that exhausts its local id space must be *detected* and degrade
//! soundly (fold into the expiry floor like a second fault), never wrap
//! its ids into another worker's range.
//!
//! The real capacity is `2^LOCAL_BITS` (~134M states per shard) — far past
//! what a test can intern — so the test shrinks it with a fault plan armed
//! for its own run only (`FaultPlan::shard_capacity`).

use ghd_search::bb_ghw::{bb_ghw, bb_ghw_parallel};
use ghd_par::fault::{install, FaultPlan};
use ghd_search::{BbGhwConfig, SearchLimits};
use ghd_hypergraph::generators::hypergraphs;

#[test]
fn shard_overflow_degrades_soundly_instead_of_wrapping() {
    // An instance hard enough to intern well past the shrunken capacity
    // (the greedy alive-cover memo interns one key per expanded node).
    // The true width is computed once at full capacity.
    let h = hypergraphs::random_hypergraph(14, 11, 4, 1);
    let full = bb_ghw(&h, &BbGhwConfig::default());
    assert!(full.exact, "reference run completes");
    let w = full.upper_bound;

    let cfg = BbGhwConfig {
        limits: SearchLimits::unlimited().stats(true),
        ..BbGhwConfig::default()
    };
    let _scope = install(FaultPlan::new().shard_capacity(2));
    let r = bb_ghw_parallel(&h, &cfg, 2);

    // Detection: the overflow is surfaced, not silent.
    let stats = r.stats.as_ref().expect("stats requested");
    assert!(
        stats.interner_overflow,
        "id-space exhaustion must be reported in SearchStats"
    );
    // Soundness: the degraded run keeps certified anytime bounds around
    // the true width and withdraws the exactness claim (the overflowed
    // shard abandoned part of the tree into the expiry floor).
    assert!(!r.exact, "an overflowed run may not claim exactness");
    assert!(r.lower_bound <= w, "lower bound stays sound: {} > {w}", r.lower_bound);
    assert!(r.upper_bound >= w, "upper bound stays sound: {} < {w}", r.upper_bound);
    assert!(r.lower_bound <= r.upper_bound);
}

#[test]
fn full_capacity_runs_stay_clean_and_exact() {
    let h = hypergraphs::random_hypergraph(10, 7, 4, 1);
    let cfg = BbGhwConfig {
        limits: SearchLimits::unlimited().stats(true),
        ..BbGhwConfig::default()
    };
    let seq = bb_ghw(&h, &cfg);
    let par = bb_ghw_parallel(&h, &cfg, 2);
    assert!(seq.exact && par.exact);
    assert_eq!(seq.upper_bound, par.upper_bound);
    for r in [&seq, &par] {
        let stats = r.stats.as_ref().expect("stats requested");
        assert!(!stats.interner_overflow);
        assert!(!stats.queue_degraded);
    }
}
