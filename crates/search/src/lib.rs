//! Exact anytime algorithms for treewidth and generalized hypertree width:
//! branch and bound (§4.4, Ch 8) and A\* (Ch 5, Ch 9), with the reduction
//! and pruning rules of §4.4.3–§4.4.5 and §8.2–§8.3.
//!
//! Two search drivers — depth-first branch and bound ([`bb`]) and
//! best-first A\* ([`astar`]) — run over two width measures, treewidth and
//! generalized hypertree width, which differ only in the cost of
//! eliminating a vertex, the residual heuristic, the completion bound and
//! the rules (`measure.rs`). Both walk the elimination-ordering tree
//! (vertices eliminated from the back of σ) over a single
//! incrementally-maintained [`ghd_hypergraph::EliminationGraph`], and are
//! *anytime*: given a [`SearchLimits`] budget they report the best upper
//! bound found plus a proven lower bound.

pub mod arena;
pub mod astar;
pub mod bb;
pub mod common;
pub mod interner;
mod measure;
pub mod preprocess;
pub mod queue;
pub mod rules;
pub mod sharded;
pub mod split;
pub mod steal;

pub use arena::WordArena;
pub use astar::{astar_ghw, astar_tw};
pub use interner::StateInterner;
pub use queue::BucketQueue;
pub use sharded::ShardedInterner;
pub use steal::StealConfig;
pub use bb::{
    bb_ghw, bb_ghw_budgeted, bb_ghw_parallel, bb_ghw_parallel_rootsplit, bb_tw, bb_tw_budgeted,
    bb_tw_parallel, bb_tw_parallel_rootsplit, witness_ghw, witness_tw, BbConfig, BbGhwConfig,
    LbMode,
};
pub use common::{
    Budget, CancelToken, IncumbentSample, PruneCounters, SearchLimits, SearchResult,
    SearchStats, StealCounters, Ticker,
};
pub use preprocess::{preprocess_tw, tw_with_preprocessing, Preprocessed};
pub use split::{
    split_ghw, split_tw, BlockOutcome, BlockSolution, BlockStore, SeparatorKind, SplitOutcome,
    SplitReport,
};

/// The BB-ghw entry points of [`bb`] under the module path
/// `ghd_search::bb_ghw`, for callers that import them from there.
pub mod bb_ghw {
    pub use crate::bb::{
        bb_ghw, bb_ghw_budgeted, bb_ghw_parallel, bb_ghw_parallel_rootsplit, witness_ghw,
        BbGhwConfig,
    };
}
