//! Per-worker interner shards with owner-tagged packed ids.
//!
//! The PR 5 memory subsystem ([`WordArena`] + [`StateInterner`]) is
//! single-threaded by design: interning hands out dense `u32` ids that
//! index per-search side tables. Under work stealing every worker needs its
//! own arena (interning through a shared lock would serialise the hottest
//! path of the search), so a [`ShardedInterner`] owns one
//! [`StateInterner`] per worker and tags every id with its owner:
//!
//! ```text
//! packed id = (worker << LOCAL_BITS) | local_id
//! ```
//!
//! with [`WORKER_BITS`] = 5 (≤ 32 workers) and [`LOCAL_BITS`] = 27
//! (≤ 128 Mi states per worker — far beyond what a search visits before
//! its node budget expires). Workers use the *local* id to index their own
//! dense side tables with zero contention; the *packed* id is the
//! process-wide stable name used when ids escape a worker (aggregation,
//! stats, debugging). Shards are split out of the container for the
//! duration of a parallel phase ([`ShardedInterner::split`]) and
//! reassembled afterwards ([`ShardedInterner::reassemble`]), so each
//! worker holds `&mut` access to exactly its own shard and the borrow
//! checker enforces the sharding discipline at compile time.
//!
//! [`WordArena`]: crate::arena::WordArena

use crate::interner::StateInterner;

/// Bits of a packed id reserved for the owning worker.
pub const WORKER_BITS: u32 = 5;
/// Bits of a packed id reserved for the worker-local dense id.
pub const LOCAL_BITS: u32 = 32 - WORKER_BITS;
/// Maximum number of workers the packing supports.
pub const MAX_WORKERS: usize = 1 << WORKER_BITS;

/// Worker-local id capacity per shard: `2^LOCAL_BITS` states, unless the
/// fault plan armed on the calling thread shrinks it
/// ([`ghd_par::fault::FaultPlan::shard_capacity`], a test hook). Every
/// shard constructed by [`ShardedInterner`] is capped here, so a local id
/// out of packing range is impossible by construction — overflow surfaces
/// as a refused `try_intern`, never as a wrapped id.
#[inline]
pub fn local_capacity() -> u32 {
    let full = 1u32 << LOCAL_BITS;
    ghd_par::fault::shard_capacity().map_or(full, |cap| cap.min(full))
}

/// Packs `(worker, local_id)` into one owner-tagged `u32`.
///
/// Out-of-range inputs are a checked condition in **all** build modes: a
/// wrapped id would silently alias another worker's states and corrupt
/// every id-indexed side table. Shard capacity gating
/// ([`local_capacity`]) makes the panic unreachable from the searches.
#[inline]
pub fn pack(worker: usize, local: u32) -> u32 {
    pack_checked(worker, local).expect("packed id out of range (worker or local id too large)")
}

/// Packs `(worker, local_id)` if both components fit their bit ranges;
/// `None` signals an overflow the caller must degrade on.
#[inline]
pub fn pack_checked(worker: usize, local: u32) -> Option<u32> {
    if worker < MAX_WORKERS && local < (1u32 << LOCAL_BITS) {
        Some(((worker as u32) << LOCAL_BITS) | local)
    } else {
        None
    }
}

/// Splits a packed id back into `(worker, local_id)`.
#[inline]
pub fn unpack(packed: u32) -> (usize, u32) {
    ((packed >> LOCAL_BITS) as usize, packed & ((1 << LOCAL_BITS) - 1))
}

/// A set of per-worker [`StateInterner`] shards (see the module docs).
pub struct ShardedInterner {
    shards: Vec<StateInterner>,
}

impl ShardedInterner {
    /// One shard per worker, each for keys of `width` words. Every shard's
    /// id space is capped at [`local_capacity`] so local ids always fit the
    /// packing; a full shard refuses fresh keys (`try_intern` → `None`) and
    /// its worker degrades soundly instead of wrapping.
    pub fn new(workers: usize, width: usize) -> Self {
        assert!(workers <= MAX_WORKERS, "id packing supports at most {MAX_WORKERS} workers");
        let cap = local_capacity();
        ShardedInterner {
            shards: (0..workers.max(1))
                .map(|_| StateInterner::with_limit(width, cap))
                .collect(),
        }
    }

    /// One shard per worker, sized for vertex-set keys over `0..n`.
    pub fn for_vertices(workers: usize, n: usize) -> Self {
        Self::new(workers, n.div_ceil(64))
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Hands the shards out, one per worker, for a parallel phase.
    pub fn split(self) -> Vec<StateInterner> {
        self.shards
    }

    /// Reassembles the container from the shards returned by the workers
    /// (in worker order).
    pub fn reassemble(shards: Vec<StateInterner>) -> Self {
        assert!(shards.len() <= MAX_WORKERS);
        ShardedInterner { shards }
    }

    /// Resolves a packed id to its canonical key storage, in whichever
    /// worker's shard owns it.
    pub fn get(&self, packed: u32) -> &[u64] {
        let (w, local) = unpack(packed);
        self.shards[w].get(local)
    }

    /// Total distinct keys across all shards. A key interned by two workers
    /// counts twice — shards are independent by design.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` iff no shard interned anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes reserved across all shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips() {
        for worker in [0usize, 1, 7, 31] {
            for local in [0u32, 1, 12345, (1 << LOCAL_BITS) - 1] {
                assert_eq!(unpack(pack(worker, local)), (worker, local));
            }
        }
    }

    #[test]
    fn packed_ids_resolve_across_shards() {
        let mut shards = ShardedInterner::for_vertices(4, 130).split();
        assert_eq!(shards.len(), 4);
        let mut packed = Vec::new();
        for (w, shard) in shards.iter_mut().enumerate() {
            // each worker interns a key unique to it plus one shared key
            let (own, fresh) = shard.intern(&[w as u64 + 1, 0, 0]);
            assert!(fresh);
            let (shared, _) = shard.intern(&[0xFFFF, 7, 7]);
            packed.push((pack(w, own), w as u64 + 1, pack(w, shared)));
        }
        let sharded = ShardedInterner::reassemble(shards);
        for (own_id, word0, shared_id) in packed {
            assert_eq!(sharded.get(own_id), &[word0, 0, 0]);
            assert_eq!(sharded.get(shared_id), &[0xFFFF, 7, 7]);
        }
        // the shared key was interned once per shard: shards are independent
        assert_eq!(sharded.len(), 8);
        assert!(sharded.bytes() > 0);
        assert!(!sharded.is_empty());
        assert_eq!(sharded.workers(), 4);
    }

    #[test]
    fn pack_checked_rejects_out_of_range_components() {
        assert_eq!(pack_checked(0, 0), Some(0));
        assert_eq!(
            pack_checked(MAX_WORKERS - 1, (1 << LOCAL_BITS) - 1),
            Some(u32::MAX)
        );
        assert_eq!(pack_checked(MAX_WORKERS, 0), None, "worker out of range");
        assert_eq!(pack_checked(0, 1 << LOCAL_BITS), None, "local id out of range");
        assert_eq!(pack_checked(1, u32::MAX), None);
    }

    /// With a shrunken capacity, a shard stops handing out fresh ids at the
    /// limit instead of wrapping into the next worker's id range.
    #[test]
    fn shards_refuse_fresh_keys_at_local_capacity() {
        let _scope = ghd_par::fault::install(ghd_par::fault::FaultPlan::new().shard_capacity(4));
        let mut shards = ShardedInterner::new(2, 1).split();
        for w in 0..4u64 {
            assert!(shards[0].try_intern(&[w]).is_some());
        }
        assert!(shards[0].at_capacity());
        assert_eq!(shards[0].try_intern(&[100]), None, "overflow is checked, not silent");
        // hits still resolve and the sibling shard is unaffected
        assert_eq!(shards[0].try_intern(&[2]).map(|(_, fresh)| fresh), Some(false));
        assert!(shards[1].try_intern(&[100]).is_some());
        // every handed-out local id still packs
        for local in 0..shards[0].len() as u32 {
            assert!(pack_checked(0, local).is_some());
        }
    }
}
