//! Per-run memoization of the search's redistribution costs.
//!
//! The §3.3 dynamic program re-prices the same redistribution over and
//! over: every `(pattern, fusion-triple)` combination at a node asks for
//! the same `(tensor, from, to)` redistributions of its unfused children
//! thousands of times. A [`CostMemo`] sits in front of
//! [`CostModel::redistribution_cost`] and caches the answers for the
//! lifetime of one optimizer run. (Rotation costs are not memoized here:
//! the search prices them from per-node tables of its own, keyed by the
//! block's layout and sliced set, without hashing.)
//!
//! The table is sharded behind small mutexes so parallel search workers
//! share it without serializing on one lock; hit/miss totals are kept in
//! two relaxed atomics and surface as the `dp.memo_hit` / `dp.memo_miss`
//! counters of the run.
//!
//! Memoized values are computed by exactly the formula the un-memoized
//! entry point uses, so a memoized search returns bit-identical costs.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tce_dist::Distribution;
use tce_expr::{IndexSet, IndexSpace, Tensor};

use crate::model::CostModel;

/// One priced `redistribution_cost(tensor, from, to, fused)` call.
/// `tensor` is a caller-chosen stable id of the array (the optimizer uses
/// the expression-tree node id), which is cheaper and collision-free
/// compared to hashing the dimension list; the grid and machine are fixed
/// for the memo's lifetime and need no key part.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    tensor: u32,
    from: Distribution,
    to: Distribution,
    fused: IndexSet,
}

fn shard_of(key: &Key, shards: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % shards
}

/// Sharded `(redistribution arguments) → cost` table for one optimizer run.
pub struct CostMemo {
    shards: Vec<Mutex<HashMap<Key, f64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for CostMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl CostMemo {
    /// A memo with the default shard count (plenty for the worker counts
    /// the search uses).
    pub fn new() -> Self {
        Self::with_shards(16)
    }

    /// A memo with `shards` independently locked partitions.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lookup_or(&self, key: Key, compute: impl FnOnce() -> f64) -> f64 {
        let shard = &self.shards[shard_of(&key, self.shards.len())];
        if let Some(&v) = shard.lock().expect("memo shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // Compute outside the lock: kernels are pure, so two workers racing
        // on the same key store the same value (one insert wins, both are
        // misses — which is why memo counters are interleaving-dependent).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.shards[shard_of(&key, self.shards.len())]
            .lock()
            .expect("memo shard poisoned")
            .insert(key, v);
        v
    }

    /// Memoized [`CostModel::redistribution_cost`].
    #[allow(clippy::too_many_arguments)]
    pub fn redistribution_cost(
        &self,
        cm: &CostModel,
        tensor_id: u32,
        tensor: &Tensor,
        space: &IndexSpace,
        from: Distribution,
        to: Distribution,
        fused: &IndexSet,
    ) -> f64 {
        if from == to {
            return 0.0; // the kernel's own fast path — not worth a table hit
        }
        let key = Key { tensor: tensor_id, from, to, fused: fused.clone() };
        self.lookup_or(key, || cm.redistribution_cost(tensor, space, from, to, fused))
    }

    /// Redistribution prices answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Redistribution prices computed and stored.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;

    fn setup() -> (CostModel, IndexSpace, Tensor) {
        let mut sp = IndexSpace::new();
        let b = sp.declare("b", 480);
        let e = sp.declare("e", 64);
        let f = sp.declare("f", 64);
        let l = sp.declare("l", 32);
        let t = Tensor::new("B", vec![b, e, f, l]);
        (CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap(), sp, t)
    }

    #[test]
    fn redistribution_matches_unmemoized_and_counts() {
        let (cm, sp, t) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let memo = CostMemo::new();
        let from = Distribution::pair(ix("b"), ix("f"));
        let to = Distribution::pair(ix("b"), ix("e"));
        let none = IndexSet::new();
        let direct = cm.redistribution_cost(&t, &sp, from, to, &none);
        let first = memo.redistribution_cost(&cm, 7, &t, &sp, from, to, &none);
        let second = memo.redistribution_cost(&cm, 7, &t, &sp, from, to, &none);
        assert_eq!(direct.to_bits(), first.to_bits());
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // Identity layouts bypass the table entirely.
        assert_eq!(memo.redistribution_cost(&cm, 7, &t, &sp, from, from, &none), 0.0);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // A different tensor id is a different entry even with equal dists.
        memo.redistribution_cost(&cm, 8, &t, &sp, from, to, &none);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    #[test]
    fn concurrent_workers_agree() {
        let (cm, sp, t) = setup();
        let ix = |s: &str| sp.lookup(s).unwrap();
        let memo = CostMemo::with_shards(4);
        let from = Distribution::pair(ix("b"), ix("f"));
        let dests: Vec<Distribution> = Distribution::enumerate(&t.dim_set(), true);
        let none = IndexSet::new();
        let compute = || -> Vec<u64> {
            dests
                .iter()
                .map(|&to| memo.redistribution_cost(&cm, 1, &t, &sp, from, to, &none).to_bits())
                .collect()
        };
        let mut results: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(compute)).collect();
            results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(memo.hits() + memo.misses(), (4 * dests.len() - 4) as u64);
    }
}
