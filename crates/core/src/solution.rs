//! Per-node solution sets for the §3.3 dynamic programming.
//!
//! Each solution at a node `v` records what the paper lists: the
//! distribution of `v`, the loop fusion between `v` and its parent, the
//! total communication cost of the subtree, and its memory usage — plus the
//! largest message (the temporary send/receive buffer the paper adds to the
//! memory requirement) and the decisions needed to reconstruct the plan.
//!
//! # Storage layout
//!
//! Solutions live in a struct-of-arrays **arena**: costs and memory numbers
//! in flat vectors (scanned millions of times per search), decision records
//! boxed in a parallel vector (touched only on accept and during plan
//! reconstruction). Entries evicted by later dominators stay in the arena
//! as *dead* storage so `sol_index` back-pointers remain valid while the
//! node is still being enumerated; [`SolutionSet::compact`] drops them once
//! the node is finished and nothing can reference them anymore.
//!
//! # The Pareto staircase
//!
//! Per `(dist, fusion)` key the live entries are additionally kept in a
//! **staircase**: sorted by `(comm_cost, storage index)` with prefix-minimum
//! envelopes over `mem_words` and `max_msg_words`. A dominance query binary
//! searches the cost axis and walks backwards, stopping as soon as the
//! envelope proves no earlier entry can dominate — the common cases ("clearly
//! dominated" and "clearly novel") resolve in O(log n). The staircase also
//! answers the branch-and-bound corner query ([`SolutionSet::dominates_corner`]):
//! *is some live entry at least as good as this idealized candidate on all
//! three axes?* — which lets the combine loops skip whole blocks of
//! candidates without constructing them.
//!
//! Every query is a pure reformulation of the first-dominator linear scan —
//! the same boolean on the same predicate — so accept/reject outcomes,
//! storage order, and counters are bit-identical to the pre-staircase
//! search. That scan survives only as the reference of this module's tests;
//! the `frontier` fuzz oracle checks the staircase search end to end
//! against a run with the corner queries switched off.
//!
//! # One entry per key
//!
//! The key pass (DESIGN.md §13) keeps, per key, only the lexicographically
//! least `(cost, mem, msg)` candidate that fits the limit, the first one
//! offered winning an exact tie ([`Keep::LeastPerKey`]). Its staircase is
//! that one entry, so the corner query is unchanged — and still sound: an
//! entry at least as good as a corner on all three axes is also
//! lexicographically at most every candidate the corner bounds.

use std::collections::HashMap;

use tce_dist::{CannonPattern, Distribution};
use tce_expr::{IndexId, NodeId};
use tce_fusion::FusionPrefix;

use crate::fx::FxHashMap;

/// How a child array arrives at its consuming contraction.
#[derive(Clone, Debug)]
pub struct ChildBinding {
    /// The child node.
    pub node: NodeId,
    /// Index of the chosen solution in the child's final solution set
    /// (`usize::MAX` for leaves, which have implicit zero-cost solutions).
    pub sol_index: usize,
    /// The distribution the child was produced in.
    pub produced_dist: Distribution,
    /// The distribution the contraction requires.
    pub required_dist: Distribution,
    /// The fusion prefix on this edge.
    pub fusion: FusionPrefix,
    /// Redistribution cost paid (zero when the layouts agree or the edge is
    /// fused).
    pub redist_cost: f64,
    /// Rotation cost paid for this array at this contraction (its "final"
    /// communication), zero when it stays fixed.
    pub rotate_cost: f64,
}

/// The decision record attached to a non-leaf solution.
#[derive(Clone, Debug)]
pub struct Choice {
    /// The communication pattern of the contraction (or `None` for
    /// reduce/elementwise nodes handled outside the Cannon framework).
    pub pattern: Option<CannonPattern>,
    /// Bindings for the children (1 or 2).
    pub children: Vec<ChildBinding>,
    /// Rotation cost of the *result* array at this node (its "initial"
    /// communication), zero when it stays fixed.
    pub result_rotate_cost: f64,
    /// The surrounding fused-loop prefix of this contraction.
    pub surrounding: FusionPrefix,
}

/// Struct-of-arrays storage for all solutions of one node (live and dead).
/// Scalar columns are flat vectors; decision records are boxed and only
/// touched on accept / plan reconstruction.
#[derive(Clone, Debug, Default)]
struct Arena {
    costs: Vec<f64>,
    mems: Vec<u128>,
    msgs: Vec<u128>,
    dists: Vec<Distribution>,
    fusions: Vec<FusionPrefix>,
    choices: Vec<Option<Box<Choice>>>,
}

impl Arena {
    fn len(&self) -> usize {
        self.costs.len()
    }

    fn push(
        &mut self,
        dist: Distribution,
        fusion: FusionPrefix,
        cost: f64,
        mem: u128,
        msg: u128,
        choice: Option<Box<Choice>>,
    ) {
        self.costs.push(cost);
        self.mems.push(mem);
        self.msgs.push(msg);
        self.dists.push(dist);
        self.fusions.push(fusion);
        self.choices.push(choice);
    }

    /// Keep only the (ascending) `live` indices, in order. Safe because
    /// `live[new] >= new` for every position, so each source slot is read
    /// before any write could reach it.
    fn compact_to(&mut self, live: &[u32]) {
        for (new, &old) in live.iter().enumerate() {
            let old = old as usize;
            if new != old {
                self.costs[new] = self.costs[old];
                self.mems[new] = self.mems[old];
                self.msgs[new] = self.msgs[old];
                self.dists[new] = self.dists[old];
                self.fusions.swap(new, old);
                self.choices.swap(new, old);
            }
        }
        self.costs.truncate(live.len());
        self.mems.truncate(live.len());
        self.msgs.truncate(live.len());
        self.dists.truncate(live.len());
        self.fusions.truncate(live.len());
        self.choices.truncate(live.len());
    }
}

/// One step of a key's Pareto staircase.
#[derive(Clone, Copy, Debug)]
struct Stair {
    /// Communication cost of the entry (the sort key, ties broken by
    /// ascending storage index).
    cost: f64,
    mem: u128,
    msg: u128,
    /// Minimum `mem` over the staircase prefix ending here (inclusive).
    env_mem: u128,
    /// Minimum `msg` over the staircase prefix ending here (inclusive).
    env_msg: u128,
    /// Storage index in the arena.
    idx: u32,
}

/// Per-`(dist, fusion)` bookkeeping: the live indices in storage order (the
/// iteration-order contract of [`SolutionSet::lookup`]) plus the staircase.
#[derive(Clone, Debug, Default)]
struct KeyFront {
    /// Live storage indices, ascending — lookup and candidate-enumeration
    /// order at the parent, which must never change (it feeds tie-breaks).
    live: Vec<u32>,
    /// Cost-sorted staircase with envelopes; empty with pruning off.
    stair: Vec<Stair>,
}

/// What a [`SolutionSet`] keeps of the candidates offered under one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Keep {
    /// Every candidate that fits the memory limit (the §3.3 pruning
    /// ablation).
    All,
    /// The Pareto staircase over `(cost, mem, msg)`: the exact search.
    Pareto,
    /// The lexicographically least `(cost, mem, msg)`, first on an exact
    /// tie: the key pass.
    LeastPerKey,
}

/// `a` is lexicographically at most `b` on `(cost, mem, msg)`.
fn lex_le(a: (f64, u128, u128), b: (f64, u128, u128)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && (a.1, a.2) <= (b.1, b.2))
}

/// Is some staircase entry at least as good as `(cost, mem, msg)` on all
/// three axes? Binary search on the cost axis, backward walk with envelope
/// early-exit.
fn stair_dominated(stair: &[Stair], cost: f64, mem: u128, msg: u128) -> bool {
    let p = stair.partition_point(|e| e.cost <= cost);
    for e in stair[..p].iter().rev() {
        // The envelope is the min over the whole prefix ending at `e`: if
        // even the min exceeds the candidate, no earlier entry qualifies.
        if e.env_mem > mem || e.env_msg > msg {
            return false;
        }
        if e.mem <= mem && e.msg <= msg {
            return true;
        }
    }
    false
}

/// Rebuild the envelope fields of `stair[from..]` from their predecessors.
fn rebuild_envelopes(stair: &mut [Stair], from: usize) {
    let (mut env_mem, mut env_msg) = if from == 0 {
        (u128::MAX, u128::MAX)
    } else {
        (stair[from - 1].env_mem, stair[from - 1].env_msg)
    };
    for e in stair[from..].iter_mut() {
        env_mem = env_mem.min(e.mem);
        env_msg = env_msg.min(e.msg);
        e.env_mem = env_mem;
        e.env_msg = env_msg;
    }
}

/// Remove `value` from an ascending index vector (no-op when absent).
fn remove_sorted(v: &mut Vec<u32>, value: u32) {
    if let Ok(pos) = v.binary_search(&value) {
        v.remove(pos);
    }
}

/// A resolved `(dist, fusion)` key of a [`SolutionSet`].
///
/// The combine loops offer millions of candidates that all share one key
/// (the key is fixed across an entire `(lopt, ropt)` block); resolving the
/// two hash lookups once per block instead of once per candidate is a
/// measurable win. `slot` is `None` while the key has never accepted a
/// solution — the keyed operations then skip dominance queries (nothing to
/// dominate) and create the key lazily on first accept, so a block that
/// rejects everything leaves no empty key behind.
#[derive(Clone, Copy, Debug)]
pub struct KeyHandle {
    slot: Option<u32>,
}

/// A node's solution set: an arena of all offered-and-accepted solutions
/// (live and dead), indexed by `(dist, fusion)` with a Pareto staircase per
/// key.
#[derive(Clone, Debug)]
pub struct SolutionSet {
    arena: Arena,
    /// Fusion-major so the hot path can look a key up from a borrowed
    /// `&FusionPrefix` without cloning. Maps to a slot in `fronts` so a
    /// resolved key ([`KeyHandle`]) survives later insertions. Fx-hashed
    /// (`crate::fx`): every combine block resolves one key, and every read
    /// that iterates the map sorts or only rebuilds it.
    keys: FxHashMap<FusionPrefix, FxHashMap<Distribution, u32>>,
    /// Per-key bookkeeping, indexed by the slots in `keys`. Slots are
    /// append-only while a node is enumerated (evictions mutate a front in
    /// place), which is what makes [`KeyHandle`]s stable.
    fronts: Vec<KeyFront>,
    /// All live storage indices, ascending — maintained incrementally so
    /// [`Self::live_indices`] is allocation-free.
    live_all: Vec<u32>,
    /// Candidates offered to `try_insert` (before pruning), for §3.3's
    /// pruning-effectiveness statistics.
    pub candidates_seen: u64,
    /// Candidates rejected as dominated.
    pub pruned_inferior: u64,
    /// Candidates rejected for exceeding the memory limit.
    pub pruned_memory: u64,
    /// Candidates that could reach a child's required layout only by
    /// inserting a redistribution (an unfused child produced elsewhere).
    pub redist_fallbacks: u64,
    /// Candidates disposed of by a branch-and-bound corner skip without a
    /// per-candidate dominance query (their `candidates_seen` /
    /// `pruned_*` classification is still counted exactly). Depends on
    /// worker-thread interleaving, like the memo counters.
    pub bnb_skip: u64,
    /// Corner-skip events (each covering one or more candidates). Also
    /// interleaving-dependent.
    pub bnb_block: u64,
    /// Candidates skipped because their certified floor plus the
    /// rest-of-tree floor exceeds a warm incumbent upper bound
    /// (heuristic warm-start). A subset of `bnb_skip`'s population;
    /// interleaving-dependent because a dominance tail-break can preempt
    /// later rows' warm checks.
    pub bnb_warm: u64,
    /// What each key keeps; memory-limit pruning is active in every mode.
    keep: Keep,
    /// Whether branch-and-bound corner queries are allowed (requires a
    /// staircase, i.e. not [`Keep::All`]).
    bounds_enabled: bool,
}

impl SolutionSet {
    /// Empty set with both mode knobs explicit: what each key keeps and
    /// branch-and-bound corner queries (forced off under [`Keep::All`],
    /// which keeps no staircase for the corner query to read).
    pub(crate) fn with_mode(keep: Keep, bounds: bool) -> Self {
        Self {
            arena: Arena::default(),
            keys: FxHashMap::default(),
            fronts: Vec::new(),
            live_all: Vec::new(),
            candidates_seen: 0,
            pruned_inferior: 0,
            pruned_memory: 0,
            redist_fallbacks: 0,
            bnb_skip: 0,
            bnb_block: 0,
            bnb_warm: 0,
            keep,
            bounds_enabled: bounds && keep != Keep::All,
        }
    }

    /// An empty set in the same mode — what worker threads start from so
    /// [`Self::absorb`] merges like with like.
    pub fn empty_like(&self) -> Self {
        Self::with_mode(self.keep, self.bounds_enabled)
    }

    /// Entries in storage (live + dead). Valid indices for the accessors
    /// are `0..len()`.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether nothing was ever accepted.
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 0
    }

    /// Communication cost (seconds) of entry `i`.
    pub fn cost(&self, i: usize) -> f64 {
        self.arena.costs[i]
    }

    /// Stored words of entry `i`.
    pub fn mem(&self, i: usize) -> u128 {
        self.arena.mems[i]
    }

    /// Largest message (words) of entry `i`.
    pub fn msg(&self, i: usize) -> u128 {
        self.arena.msgs[i]
    }

    /// Memory footprint of entry `i` including the staging buffer — the
    /// quantity checked against the per-processor limit.
    pub fn footprint(&self, i: usize) -> u128 {
        self.arena.mems[i] + self.arena.msgs[i]
    }

    /// Distribution of entry `i`.
    pub fn dist(&self, i: usize) -> Distribution {
        self.arena.dists[i]
    }

    /// Fusion prefix of entry `i`.
    pub fn fusion(&self, i: usize) -> &FusionPrefix {
        &self.arena.fusions[i]
    }

    /// Decision record of entry `i` (`None` for leaf-style entries).
    pub fn choice(&self, i: usize) -> Option<&Choice> {
        self.arena.choices[i].as_deref()
    }

    /// Resolve a `(dist, fusion)` key once, for a block of keyed operations
    /// ([`Self::try_insert`], [`Self::dominates_corner`]). The handle stays
    /// valid across insertions into this set (slots are append-only;
    /// evictions mutate fronts in place).
    pub fn key_handle(&self, dist: Distribution, fusion: &FusionPrefix) -> KeyHandle {
        KeyHandle { slot: self.keys.get(fusion).and_then(|m| m.get(&dist)).copied() }
    }

    /// Offer a candidate against a pre-resolved key (see
    /// [`Self::key_handle`]); it is kept only if it fits `mem_limit` and is
    /// not dominated by an existing solution with the same key. Existing
    /// solutions dominated by the newcomer are *marked dead* (their storage
    /// index survives so back-pointers stay valid, but they are excluded
    /// from key lookups). The candidate arrives as bare scalars and the
    /// decision record is built *only on accept* — for the overwhelmingly
    /// common rejected candidate this does no allocation at all. Counters
    /// are updated in order: seen, redist fallback, memory check, dominance
    /// check. `dist`/`fusion` must be the pair the handle was resolved for
    /// — they are only read to create the key on a first accept and to
    /// fill the arena columns.
    #[allow(clippy::too_many_arguments)]
    pub fn try_insert(
        &mut self,
        handle: &mut KeyHandle,
        dist: Distribution,
        fusion: &FusionPrefix,
        comm_cost: f64,
        mem_words: u128,
        max_msg_words: u128,
        has_redist: bool,
        mem_limit: u128,
        choice: impl FnOnce() -> Option<Box<Choice>>,
    ) -> bool {
        self.candidates_seen += 1;
        if has_redist {
            self.redist_fallbacks += 1;
        }
        if mem_words + max_msg_words > mem_limit {
            self.pruned_memory += 1;
            return false;
        }
        self.insert_checked(handle, dist, fusion, comm_cost, mem_words, max_msg_words, choice)
    }

    /// The dominance half of [`Self::try_insert`]: the candidate has
    /// already been counted and has already passed the memory limit.
    #[allow(clippy::too_many_arguments)]
    fn insert_checked(
        &mut self,
        handle: &mut KeyHandle,
        dist: Distribution,
        fusion: &FusionPrefix,
        cost: f64,
        mem: u128,
        msg: u128,
        choice: impl FnOnce() -> Option<Box<Choice>>,
    ) -> bool {
        let rejected = handle.slot.is_some_and(|s| {
            let stair = &self.fronts[s as usize].stair;
            match self.keep {
                Keep::All => false,
                Keep::Pareto => stair_dominated(stair, cost, mem, msg),
                Keep::LeastPerKey => {
                    stair.first().is_some_and(|e| lex_le((e.cost, e.mem, e.msg), (cost, mem, msg)))
                }
            }
        });
        if rejected {
            self.pruned_inferior += 1;
            return false;
        }
        let idx = self.arena.len() as u32;
        let slot = match handle.slot {
            Some(s) => s as usize,
            None => {
                let s = self.fronts.len();
                self.fronts.push(KeyFront::default());
                self.keys.entry_ref_or_clone(fusion).insert(dist, s as u32);
                handle.slot = Some(s as u32);
                s
            }
        };
        let kf = &mut self.fronts[slot];
        let newcomer = Stair { cost, mem, msg, env_mem: mem, env_msg: msg, idx };
        match self.keep {
            Keep::All => {}
            Keep::Pareto => {
                // Every entry the newcomer dominates has cost >= `cost`, so
                // eviction only scans the staircase tail.
                let p0 = kf.stair.partition_point(|e| e.cost < cost);
                let mut w = p0;
                for r in p0..kf.stair.len() {
                    let e = kf.stair[r];
                    if mem <= e.mem && msg <= e.msg {
                        remove_sorted(&mut kf.live, e.idx);
                        remove_sorted(&mut self.live_all, e.idx);
                    } else {
                        kf.stair[w] = e;
                        w += 1;
                    }
                }
                kf.stair.truncate(w);
                // Insert the newcomer after its cost ties (its storage index
                // is the maximum, keeping `(cost, idx)` order).
                let p = kf.stair.partition_point(|e| e.cost <= cost);
                kf.stair.insert(p, newcomer);
                rebuild_envelopes(&mut kf.stair, p0.min(p));
            }
            Keep::LeastPerKey => {
                // The newcomer is strictly less than the key's one entry.
                if let Some(e) = kf.stair.pop() {
                    kf.live.clear();
                    remove_sorted(&mut self.live_all, e.idx);
                }
                kf.stair.push(newcomer);
            }
        }
        kf.live.push(idx);
        self.live_all.push(idx);
        self.arena.push(dist, fusion.clone(), cost, mem, msg, choice());
        true
    }

    /// Branch-and-bound corner query: is some **live** solution with this
    /// key at least as good as `(cost, mem, msg)` on all three axes? When
    /// it is, every candidate of this key that the corner lower-bounds is
    /// dominated by that entry (transitivity of `≤`) and can be disposed of
    /// without being constructed. Only meaningful with corner queries on
    /// (see [`Self::bounds_active`]); returns `false` otherwise so callers
    /// degrade to the full loop.
    pub fn dominates_corner(&self, handle: &KeyHandle, cost: f64, mem: u128, msg: u128) -> bool {
        if !self.bounds_enabled {
            return false;
        }
        match handle.slot {
            Some(s) => stair_dominated(&self.fronts[s as usize].stair, cost, mem, msg),
            None => false,
        }
    }

    /// Whether branch-and-bound corner queries are active (pruning on,
    /// bounds not disabled).
    pub fn bounds_active(&self) -> bool {
        self.bounds_enabled
    }

    /// Account one candidate disposed of by a corner skip, replicating the
    /// exact counter semantics [`Self::try_insert`] would have applied: the
    /// candidate is seen, a redistribution fallback is recorded, and it is
    /// classified as memory-pruned when over the limit and dominated
    /// otherwise (the corner proof guarantees a live dominator exists).
    pub fn account_skipped(&mut self, has_redist: bool, footprint_words: u128, mem_limit: u128) {
        self.candidates_seen += 1;
        if has_redist {
            self.redist_fallbacks += 1;
        }
        if footprint_words > mem_limit {
            self.pruned_memory += 1;
        } else {
            self.pruned_inferior += 1;
        }
        self.bnb_skip += 1;
    }

    /// Bulk form of [`Self::account_skipped`]: `n` candidates disposed of
    /// by one corner skip, of which `redist_n` carried a redistribution
    /// fallback and `memory_n` exceeded the memory limit (the rest are
    /// dominated). The caller computes the split exactly — typically in
    /// O(1) from per-block aggregates when it can prove `memory_n == 0`,
    /// falling back to a per-candidate loop otherwise.
    pub fn account_skipped_many(&mut self, n: u64, redist_n: u64, memory_n: u64) {
        self.candidates_seen += n;
        self.redist_fallbacks += redist_n;
        self.pruned_memory += memory_n;
        self.pruned_inferior += n - memory_n;
        self.bnb_skip += n;
    }

    /// Fold a worker-local set into this one, replaying the worker's
    /// accepted candidates *in their original insertion order* through the
    /// dominance filter (or, under [`Keep::LeastPerKey`], the per-key
    /// minimum).
    ///
    /// Because dominance (`≤` on cost, memory, and buffer) is transitive,
    /// merging per-worker sets in the order their chunks partition the
    /// serial candidate stream reproduces the serial search *exactly*: each
    /// candidate's accept/reject outcome, the storage order of the arena
    /// (and thus every `sol_index` back-pointer and tie-break), and the
    /// `candidates_seen`/`pruned_*` totals are all bit-identical to a
    /// single-threaded run. A worker-local rejection (the dominator sat in
    /// the same chunk) and a merge-time rejection (the dominator sat in an
    /// earlier chunk) are the same rejection the serial run counted once.
    /// The same argument covers worker-local **corner skips**: the local
    /// dominator the corner proof found was offered earlier in the same
    /// chunk, so the serial run either kept it or kept something dominating
    /// it — either way the serial run rejects the skipped candidates as
    /// dominated too. Only the `bnb_skip`/`bnb_block` totals (how the work
    /// was avoided, not its outcome) depend on the thread count.
    ///
    /// Under [`Keep::LeastPerKey`] a chunk accepts exactly its running
    /// per-key minima, and the serial stream accepts a later chunk's
    /// candidate only if it undercuts everything before it — which is one
    /// of that chunk's running minima, replayed here against the same
    /// prefix minimum. So the replay is exact in this mode too.
    ///
    /// The caller must construct `other` with the same mode (see
    /// [`Self::empty_like`]); its entries already passed the shared memory
    /// limit, so no limit is re-checked here.
    pub fn absorb(&mut self, other: SolutionSet) {
        debug_assert_eq!(self.keep, other.keep);
        self.candidates_seen += other.candidates_seen;
        self.pruned_inferior += other.pruned_inferior;
        self.pruned_memory += other.pruned_memory;
        self.redist_fallbacks += other.redist_fallbacks;
        self.bnb_skip += other.bnb_skip;
        self.bnb_block += other.bnb_block;
        self.bnb_warm += other.bnb_warm;
        if self.is_empty() {
            // Replaying into an empty set meets each entry with exactly the
            // prefix `other` met it with, so it rebuilds `other` entry for
            // entry: take its storage whole (the first chunk of a merge).
            (self.arena, self.keys, self.fronts, self.live_all) =
                (other.arena, other.keys, other.fronts, other.live_all);
            return;
        }
        let Arena { costs, mems, msgs, dists, fusions, choices } = other.arena;
        let it = costs.into_iter().zip(mems).zip(msgs).zip(dists).zip(fusions).zip(choices);
        for (((((cost, mem), msg), dist), fusion), choice) in it {
            let mut handle = self.key_handle(dist, &fusion);
            self.insert_checked(&mut handle, dist, &fusion, cost, mem, msg, move || choice);
        }
    }

    /// Drop dead (evicted) entries from storage and renumber the survivors.
    ///
    /// Sound only once the node's enumeration is complete: evictions happen
    /// exclusively while the node itself is being combined, and parents are
    /// processed strictly later (postorder), so at that point **no
    /// back-pointer anywhere references a dead entry** — parents bind only
    /// indices that were live when they enumerated, and live entries are
    /// never evicted after their node finished. Must not be called on
    /// worker-local sets (absorb replays the full arena).
    pub fn compact(&mut self) -> usize {
        let dead = self.arena.len() - self.live_all.len();
        if dead == 0 {
            return 0;
        }
        let mut remap = vec![u32::MAX; self.arena.len()];
        for (new, &old) in self.live_all.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        self.arena.compact_to(&self.live_all);
        for kf in self.fronts.iter_mut() {
            for i in kf.live.iter_mut() {
                *i = remap[*i as usize];
            }
            for e in kf.stair.iter_mut() {
                e.idx = remap[e.idx as usize];
            }
        }
        self.live_all = (0..self.arena.len() as u32).collect();
        dead
    }

    /// Rewrite every index and node reference in this set through the
    /// given bijections — the level-1 subtree-reuse replay (`dp.rs`):
    /// a completed frontier computed at one subtree is cloned and remapped
    /// onto an isomorphic subtree of the same tree.
    ///
    /// Only *references* change: arena storage order, live/staircase
    /// bookkeeping, `sol_index` back-pointers, and every counter stay
    /// untouched, which is what makes the replayed frontier bit-identical
    /// to a fresh enumeration **provided the index bijection is monotone**
    /// in `IndexId` order (see `tce_expr::canon::SubtreeForm::
    /// monotone_bijection_to`) — every order-sensitive consumer
    /// ([`Self::lookup`], [`Self::fusions`], [`Self::key_summaries`])
    /// sorts by ids, and a monotone map preserves those orders.
    pub fn remap(
        &mut self,
        index_map: &HashMap<IndexId, IndexId>,
        node_map: &HashMap<NodeId, NodeId>,
    ) {
        let map_ix = |id: IndexId| index_map.get(&id).copied().unwrap_or(id);
        let map_dist =
            |d: Distribution| Distribution { d1: d.d1.map(map_ix), d2: d.d2.map(map_ix) };
        let map_fusion =
            |f: &FusionPrefix| FusionPrefix::new(f.iter().map(map_ix).collect::<Vec<_>>());
        for d in self.arena.dists.iter_mut() {
            *d = map_dist(*d);
        }
        for f in self.arena.fusions.iter_mut() {
            *f = map_fusion(f);
        }
        for choice in self.arena.choices.iter_mut().flatten() {
            if let Some(p) = &mut choice.pattern {
                p.i = p.i.map(map_ix);
                p.j = p.j.map(map_ix);
                p.k = p.k.map(map_ix);
            }
            choice.surrounding = map_fusion(&choice.surrounding);
            for b in choice.children.iter_mut() {
                b.node = node_map.get(&b.node).copied().unwrap_or(b.node);
                b.produced_dist = map_dist(b.produced_dist);
                b.required_dist = map_dist(b.required_dist);
                b.fusion = map_fusion(&b.fusion);
            }
        }
        let old_keys = std::mem::take(&mut self.keys);
        for (fusion, dists) in old_keys {
            let entry = self.keys.entry(map_fusion(&fusion)).or_default();
            for (dist, slot) in dists {
                entry.insert(map_dist(dist), slot);
            }
        }
    }

    /// Live solutions for a `(dist, fusion)` key, in storage order.
    pub fn lookup(&self, dist: Distribution, fusion: &FusionPrefix) -> Vec<usize> {
        match self.keys.get(fusion).and_then(|m| m.get(&dist)) {
            Some(&s) => self.fronts[s as usize].live.iter().map(|&i| i as usize).collect(),
            None => Vec::new(),
        }
    }

    /// Live solutions having the given fusion prefix (any distribution),
    /// in insertion order (sorted — hash-map iteration order must not leak
    /// into tie-breaking, or plans would differ between runs).
    pub fn with_fusion(&self, fusion: &FusionPrefix) -> Vec<usize> {
        let mut v: Vec<usize> = match self.keys.get(fusion) {
            Some(m) => m
                .values()
                .flat_map(|&s| self.fronts[s as usize].live.iter().map(|&i| i as usize))
                .collect(),
            None => Vec::new(),
        };
        v.sort_unstable();
        v
    }

    /// The distinct fusion prefixes present.
    pub fn fusions(&self) -> Vec<FusionPrefix> {
        let mut v: Vec<FusionPrefix> = self.keys.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of live (non-dominated) solutions.
    pub fn live_len(&self) -> usize {
        self.live_all.len()
    }

    /// Storage indices of the live (non-dominated) solutions, ascending.
    /// The arena also holds entries evicted by later dominators — kept only
    /// so back-pointers stay valid until [`Self::compact`] — so any scan
    /// choosing a winner must restrict itself to these indices. Backed by
    /// an incrementally maintained list: no allocation, and eviction keeps
    /// it current (see `live_index_list_tracks_eviction`).
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.live_all.iter().map(|&i| i as usize)
    }

    /// Distinct `(dist, fusion)` keys with at least one live solution.
    pub fn key_count(&self) -> usize {
        self.fronts.iter().filter(|kf| !kf.live.is_empty()).count()
    }

    /// Largest per-key live frontier (staircase occupancy).
    pub fn max_key_live(&self) -> usize {
        self.fronts.iter().map(|kf| kf.live.len()).max().unwrap_or(0)
    }

    /// Solutions alive on the frontier, as a `u64` to pair with
    /// `candidates_seen` in reports.
    pub fn total_live(&self) -> u64 {
        self.live_len() as u64
    }

    /// Estimated heap bytes held by this set's arena (live + dead entries):
    /// the struct-of-arrays columns plus the boxed decision records and
    /// their owned vectors. A deterministic function of arena *contents* —
    /// identical at any thread count, since absorb replays worker arenas
    /// into the same final storage — so it is safe to report in
    /// equivalence-checked statistics.
    pub fn arena_bytes(&self) -> u64 {
        use std::mem::size_of;
        let n = self.arena.len() as u64;
        let per_entry = size_of::<f64>()
            + 2 * size_of::<u128>()
            + size_of::<Distribution>()
            + size_of::<FusionPrefix>()
            + size_of::<Option<Box<Choice>>>();
        let mut bytes = n * per_entry as u64;
        for choice in self.arena.choices.iter().flatten() {
            bytes += size_of::<Choice>() as u64;
            bytes += (choice.children.len() * size_of::<ChildBinding>()) as u64;
        }
        bytes
    }

    /// Per-key frontier occupancy: every `(dist, fusion)` key with at
    /// least one live solution, sorted by `(fusion, dist)` so the listing
    /// is deterministic (hash-map iteration order must not leak out).
    pub fn key_summaries(&self) -> Vec<KeySummary> {
        let mut out: Vec<KeySummary> = self
            .keys
            .iter()
            .flat_map(|(fusion, dists)| {
                dists.iter().filter_map(move |(&dist, &slot)| {
                    let live = self.fronts[slot as usize].live.len();
                    (live > 0).then(|| KeySummary { dist, fusion: fusion.clone(), live })
                })
            })
            .collect();
        out.sort_by(|a, b| a.fusion.cmp(&b.fusion).then(a.dist.cmp(&b.dist)));
        out
    }
}

/// One `(dist, fusion)` key of a solution set with its live-frontier size
/// (see [`SolutionSet::key_summaries`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeySummary {
    /// The distribution component of the key.
    pub dist: Distribution,
    /// The fusion-prefix component of the key.
    pub fusion: FusionPrefix,
    /// Live (non-dominated) solutions under this key.
    pub live: usize,
}

/// `HashMap::entry` without cloning the key when it is already present.
trait EntryRefOrClone<V> {
    fn entry_ref_or_clone(&mut self, key: &FusionPrefix) -> &mut V;
}

impl<V: Default> EntryRefOrClone<V> for FxHashMap<FusionPrefix, V> {
    fn entry_ref_or_clone(&mut self, key: &FusionPrefix) -> &mut V {
        if !self.contains_key(key) {
            self.insert(key.clone(), V::default());
        }
        self.get_mut(key).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_expr::IndexSpace;

    /// One entry of a node's solution set, as a by-value record: the shape
    /// the tests offer candidates in (the storage itself is struct-of-arrays).
    #[derive(Clone, Debug)]
    struct Solution {
        /// Distribution in which this node's array is produced.
        dist: Distribution,
        /// Fusion prefix between this node and its parent (storage of this
        /// array is reduced by these dimensions).
        fusion: FusionPrefix,
        /// Total communication cost (seconds) of the subtree, including this
        /// node's contraction.
        comm_cost: f64,
        /// Per-processor words stored for all arrays of the subtree.
        mem_words: u128,
        /// Largest per-step message (words) anywhere in the subtree — the
        /// send/receive staging buffer.
        max_msg_words: u128,
        /// Decision record (`None` for leaves).
        choice: Option<Box<Choice>>,
    }

    impl SolutionSet {
        /// Empty set with dominance pruning and corner queries on.
        fn new() -> Self {
            Self::with_mode(Keep::Pareto, true)
        }

        /// Offer a candidate; it is kept only if it fits `mem_limit` and is not
        /// dominated by an existing solution with the same key. Existing
        /// solutions dominated by the newcomer are *marked dead* (their storage
        /// index survives so back-pointers stay valid, but they are excluded
        /// from key lookups).
        fn insert(&mut self, sol: Solution, mem_limit: u128) -> bool {
            let Solution { dist, fusion, comm_cost, mem_words, max_msg_words, choice } = sol;
            let has_redist =
                choice.as_ref().is_some_and(|c| c.children.iter().any(|b| b.redist_cost > 0.0));
            let mut handle = self.key_handle(dist, &fusion);
            self.try_insert(
                &mut handle,
                dist,
                &fusion,
                comm_cost,
                mem_words,
                max_msg_words,
                has_redist,
                mem_limit,
                move || choice,
            )
        }
    }

    fn sol(dist: Distribution, cost: f64, mem: u128, msg: u128) -> Solution {
        Solution {
            dist,
            fusion: FusionPrefix::empty(),
            comm_cost: cost,
            mem_words: mem,
            max_msg_words: msg,
            choice: None,
        }
    }

    fn dists() -> (Distribution, Distribution) {
        let mut sp = IndexSpace::new();
        let a = sp.declare("a", 4);
        let b = sp.declare("b", 4);
        (Distribution::pair(a, b), Distribution::pair(b, a))
    }

    fn live(set: &SolutionSet) -> Vec<usize> {
        set.live_indices().collect()
    }

    /// The pre-staircase frontier, kept as the staircase's reference: every
    /// accepted entry in a plain vector, a first-dominator linear scan over
    /// the live entries of the candidate's key, then eviction of every live
    /// entry of that key the newcomer dominates.
    /// `a` dominates `b` within one `(dist, fusion)` key: no worse on
    /// cost, memory, and buffer.
    fn dominates(a: &Solution, b: &Solution) -> bool {
        a.comm_cost <= b.comm_cost
            && a.mem_words <= b.mem_words
            && a.max_msg_words <= b.max_msg_words
    }

    #[derive(Default)]
    struct ScanRef {
        entries: Vec<Solution>,
        live: Vec<bool>,
        candidates_seen: u64,
        pruned_inferior: u64,
        pruned_memory: u64,
    }

    impl ScanRef {
        fn insert(&mut self, s: &Solution, mem_limit: u128) -> bool {
            self.candidates_seen += 1;
            if s.mem_words + s.max_msg_words > mem_limit {
                self.pruned_memory += 1;
                return false;
            }
            if self.live_of(s.dist, &s.fusion).any(|i| dominates(&self.entries[i], s)) {
                self.pruned_inferior += 1;
                return false;
            }
            for i in self.live_of(s.dist, &s.fusion).collect::<Vec<_>>() {
                self.live[i] = !dominates(s, &self.entries[i]);
            }
            self.entries.push(s.clone());
            self.live.push(true);
            true
        }

        fn live_of<'a>(
            &'a self,
            dist: Distribution,
            fusion: &'a FusionPrefix,
        ) -> impl Iterator<Item = usize> + 'a {
            (0..self.entries.len()).filter(move |&i| {
                self.live[i] && self.entries[i].dist == dist && self.entries[i].fusion == *fusion
            })
        }

        fn live_indices(&self) -> Vec<usize> {
            (0..self.live.len()).filter(|&i| self.live[i]).collect()
        }

        fn dominates_corner(&self, dist: Distribution, cost: f64, mem: u128, msg: u128) -> bool {
            let corner = sol(dist, cost, mem, msg);
            let hit =
                self.live_of(dist, &corner.fusion).any(|i| dominates(&self.entries[i], &corner));
            hit
        }
    }

    /// Everything the reference can observe of `set`: per-entry cost bits,
    /// memory and message words, the live indices, and the counters.
    fn assert_matches_ref(set: &SolutionSet, r: &ScanRef, ctx: &str) {
        assert_eq!(set.len(), r.entries.len(), "{ctx}: stored entries");
        for (i, e) in r.entries.iter().enumerate() {
            assert_eq!(set.cost(i).to_bits(), e.comm_cost.to_bits(), "{ctx}: cost of #{i}");
            assert_eq!(set.mem(i), e.mem_words, "{ctx}: mem of #{i}");
            assert_eq!(set.msg(i), e.max_msg_words, "{ctx}: msg of #{i}");
        }
        assert_eq!(live(set), r.live_indices(), "{ctx}: live indices");
        assert_eq!(set.candidates_seen, r.candidates_seen, "{ctx}: candidates_seen");
        assert_eq!(set.pruned_inferior, r.pruned_inferior, "{ctx}: pruned_inferior");
        assert_eq!(set.pruned_memory, r.pruned_memory, "{ctx}: pruned_memory");
    }

    #[test]
    fn dominated_candidates_are_pruned() {
        let (d1, _) = dists();
        let mut set = SolutionSet::new();
        assert!(set.insert(sol(d1, 10.0, 100, 5), u128::MAX));
        // Strictly worse on all axes: pruned.
        assert!(!set.insert(sol(d1, 11.0, 120, 6), u128::MAX));
        // Better cost, worse memory: kept (Pareto).
        assert!(set.insert(sol(d1, 8.0, 150, 5), u128::MAX));
        assert_eq!(set.live_len(), 2);
        assert_eq!(set.pruned_inferior, 1);
    }

    #[test]
    fn newcomer_can_evict() {
        let (d1, _) = dists();
        let mut set = SolutionSet::new();
        set.insert(sol(d1, 10.0, 100, 5), u128::MAX);
        set.insert(sol(d1, 9.0, 90, 4), u128::MAX); // dominates the first
        assert_eq!(set.live_len(), 1);
        assert_eq!(set.len(), 2, "dead storage survives for back-pointers");
        assert_eq!(live(&set), vec![1]);
    }

    #[test]
    fn memory_limit_pruning() {
        let (d1, _) = dists();
        let mut set = SolutionSet::new();
        assert!(!set.insert(sol(d1, 1.0, 100, 10), 105)); // 110 > 105
        assert!(set.insert(sol(d1, 2.0, 95, 10), 105));
        assert_eq!(set.pruned_memory, 1);
    }

    #[test]
    fn keys_are_independent() {
        let (d1, d2) = dists();
        let mut set = SolutionSet::new();
        set.insert(sol(d1, 10.0, 100, 5), u128::MAX);
        // Same numbers, different distribution: both live.
        assert!(set.insert(sol(d2, 10.0, 100, 5), u128::MAX));
        assert_eq!(set.live_len(), 2);
        assert_eq!(set.lookup(d1, &FusionPrefix::empty()).len(), 1);
        assert_eq!(set.fusions().len(), 1);
        assert_eq!(set.key_count(), 2);
        assert_eq!(set.max_key_live(), 1);
    }

    #[test]
    fn totals_count_offered_and_live() {
        let (d1, d2) = dists();
        let mut set = SolutionSet::new();
        set.insert(sol(d1, 10.0, 100, 5), u128::MAX);
        set.insert(sol(d1, 11.0, 120, 6), u128::MAX); // dominated
        set.insert(sol(d2, 9.0, 100, 5), u128::MAX);
        set.insert(sol(d2, 1.0, 200, 5), 100); // over the limit
        assert_eq!(set.candidates_seen, 4);
        assert_eq!(set.total_live(), 2);
        assert_eq!(set.total_live(), set.live_len() as u64);
    }

    #[test]
    fn live_indices_exclude_evicted_entries() {
        let (d1, d2) = dists();
        let mut set = SolutionSet::new();
        set.insert(sol(d1, 10.0, 100, 5), u128::MAX);
        set.insert(sol(d2, 3.0, 10, 1), u128::MAX);
        set.insert(sol(d1, 9.0, 90, 4), u128::MAX); // evicts index 0
        assert_eq!(set.len(), 3);
        assert_eq!(live(&set), vec![1, 2]);
    }

    /// The cached live-index list must track evictions immediately — the
    /// regression this guards: a stale cache would let the root scan or a
    /// frontier extraction resurrect a dominated solution.
    #[test]
    fn live_index_list_tracks_eviction() {
        let (d1, d2) = dists();
        let mut set = SolutionSet::new();
        set.insert(sol(d1, 10.0, 100, 5), u128::MAX);
        set.insert(sol(d2, 5.0, 50, 2), u128::MAX);
        assert_eq!(live(&set), vec![0, 1]);
        // Evicts #0; the list must reflect it on the very next call.
        set.insert(sol(d1, 9.0, 90, 4), u128::MAX);
        assert_eq!(live(&set), vec![1, 2]);
        // A second eviction in another key keeps the list sorted.
        set.insert(sol(d2, 4.0, 40, 1), u128::MAX);
        assert_eq!(live(&set), vec![2, 3]);
        assert_eq!(set.live_len(), 2);
    }

    /// Splitting one candidate stream across worker-local sets and
    /// absorbing them in order must reproduce the serial set exactly:
    /// same storage order, same live indices, same counters.
    #[test]
    fn absorb_replays_the_serial_stream() {
        let (d1, d2) = dists();
        // A stream exercising accept, cross-chunk rejection, same-chunk
        // rejection, eviction across chunks, and a memory-limit prune.
        let stream = [
            sol(d1, 10.0, 100, 5),
            sol(d2, 7.0, 70, 3),
            sol(d1, 11.0, 120, 6), // dominated by #0
            sol(d1, 8.0, 150, 5),  // Pareto vs #0 (cheaper, fatter)
            sol(d1, 12.0, 130, 7), // dominated by #0 (cross-chunk at merge)
            sol(d2, 6.0, 60, 2),   // evicts #1
            sol(d2, 5.0, 500, 2),  // over the limit
            sol(d1, 10.0, 100, 5), // dominated (equal) by #0
        ];
        let limit = 400u128;
        let mut serial = SolutionSet::new();
        for s in &stream {
            serial.insert(s.clone(), limit);
        }
        for split in 1..stream.len() {
            let mut merged = SolutionSet::new();
            for chunk in [&stream[..split], &stream[split..]] {
                let mut local = merged.empty_like();
                for s in chunk {
                    local.insert(s.clone(), limit);
                }
                merged.absorb(local);
            }
            assert_eq!(merged.len(), serial.len(), "split at {split}");
            for i in 0..merged.len() {
                assert_eq!(merged.cost(i).to_bits(), serial.cost(i).to_bits());
                assert_eq!(merged.mem(i), serial.mem(i));
                assert_eq!(merged.msg(i), serial.msg(i));
            }
            assert_eq!(live(&merged), live(&serial), "split at {split}");
            assert_eq!(merged.candidates_seen, serial.candidates_seen);
            assert_eq!(merged.pruned_inferior, serial.pruned_inferior, "split at {split}");
            assert_eq!(merged.pruned_memory, serial.pruned_memory);
        }
    }

    /// The staircase must answer exactly what the linear-scan reference
    /// answers, on a stream dense with cost ties and partial dominance.
    #[test]
    fn staircase_and_scan_reference_agree() {
        let (d1, d2) = dists();
        let costs = [5.0, 3.0, 5.0, 4.0, 3.0, 6.0, 2.0, 5.0];
        let mems = [50u128, 80, 50, 60, 70, 40, 90, 45];
        let msgs = [5u128, 3, 4, 6, 3, 2, 7, 4];
        let mut fast = SolutionSet::new();
        let mut slow = ScanRef::default();
        for k in 0..costs.len() {
            for j in 0..costs.len() {
                let d = if (k + j) % 2 == 0 { d1 } else { d2 };
                let s = sol(d, costs[k], mems[j], msgs[(k + j) % msgs.len()]);
                assert_eq!(
                    fast.insert(s.clone(), 200),
                    slow.insert(&s, 200),
                    "candidate ({k},{j}) accept/reject diverged"
                );
            }
        }
        assert_matches_ref(&fast, &slow, "dense stream");
    }

    #[test]
    fn corner_query_matches_exhaustive_predicate() {
        let (d1, _) = dists();
        let mut set = SolutionSet::new();
        set.insert(sol(d1, 5.0, 50, 5), u128::MAX);
        set.insert(sol(d1, 3.0, 80, 3), u128::MAX);
        set.insert(sol(d1, 7.0, 40, 7), u128::MAX);
        let f = FusionPrefix::empty();
        // Dominated corner: (5,50,5) is <= (6,60,6).
        assert!(set.dominates_corner(&set.key_handle(d1, &f), 6.0, 60, 6));
        // Equal corner counts (insert would reject ties as dominated).
        assert!(set.dominates_corner(&set.key_handle(d1, &f), 5.0, 50, 5));
        // Nothing has cost <= 2.
        assert!(!set.dominates_corner(&set.key_handle(d1, &f), 2.0, 1000, 1000));
        // Cost ok but nothing with cost <= 4 has mem <= 60.
        assert!(!set.dominates_corner(&set.key_handle(d1, &f), 4.0, 60, 100));
        // Unknown key.
        let (_, d2) = dists();
        assert!(!set.dominates_corner(&set.key_handle(d2, &f), 100.0, 1000, 1000));
    }

    /// With pruning off or bounds off the corner query must answer `false`
    /// even where the reference proves the corner dominated, so callers
    /// fall back to the full loop.
    #[test]
    fn corner_query_disabled_without_pruning_or_bounds() {
        let (d1, _) = dists();
        let f = FusionPrefix::empty();
        let mut r = ScanRef::default();
        r.insert(&sol(d1, 5.0, 50, 5), u128::MAX);
        assert!(r.dominates_corner(d1, 100.0, 1000, 1000));
        for mut set in
            [SolutionSet::with_mode(Keep::All, true), SolutionSet::with_mode(Keep::Pareto, false)]
        {
            set.insert(sol(d1, 5.0, 50, 5), u128::MAX);
            assert!(!set.bounds_active());
            assert!(!set.dominates_corner(&set.key_handle(d1, &f), 100.0, 1000, 1000));
        }
    }

    #[test]
    fn account_skipped_classifies_like_insert() {
        let mut set = SolutionSet::new();
        set.account_skipped(true, 50, 100); // fits: dominated
        set.account_skipped(false, 150, 100); // over: memory
        assert_eq!(set.candidates_seen, 2);
        assert_eq!(set.redist_fallbacks, 1);
        assert_eq!(set.pruned_inferior, 1);
        assert_eq!(set.pruned_memory, 1);
        assert_eq!(set.bnb_skip, 2);
    }

    #[test]
    fn compact_drops_dead_entries_and_renumbers() {
        let (d1, d2) = dists();
        let mut set = SolutionSet::new();
        set.insert(sol(d1, 10.0, 100, 5), u128::MAX); // 0: evicted below
        set.insert(sol(d2, 3.0, 10, 1), u128::MAX); // 1: survives
        set.insert(sol(d1, 9.0, 90, 4), u128::MAX); // 2: evicts 0
        set.insert(sol(d1, 8.0, 200, 4), u128::MAX); // 3: Pareto vs 2
        assert_eq!(set.len(), 4);
        assert_eq!(set.compact(), 1);
        assert_eq!(set.len(), 3);
        assert_eq!(live(&set), vec![0, 1, 2]);
        // Renumbered: old 1 -> 0, old 2 -> 1, old 3 -> 2.
        assert_eq!(set.mem(0), 10);
        assert_eq!(set.mem(1), 90);
        assert_eq!(set.mem(2), 200);
        assert_eq!(set.lookup(d2, &FusionPrefix::empty()), vec![0]);
        assert_eq!(set.lookup(d1, &FusionPrefix::empty()), vec![1, 2]);
        // Dominance state survives compaction: a candidate dominated by a
        // survivor is still rejected, and the corner query still fires.
        assert!(!set.insert(sol(d1, 9.5, 95, 5), u128::MAX));
        assert!(set.dominates_corner(&set.key_handle(d1, &FusionPrefix::empty()), 9.0, 90, 4));
        assert_eq!(set.compact(), 0, "second compaction is a no-op");
    }

    #[test]
    fn absorb_with_pruning_disabled_concatenates() {
        let (d1, _) = dists();
        let mut out = SolutionSet::with_mode(Keep::All, false);
        let mut local = out.empty_like();
        local.insert(sol(d1, 10.0, 100, 5), u128::MAX);
        local.insert(sol(d1, 11.0, 120, 6), u128::MAX); // dominated but kept
        out.absorb(local);
        assert_eq!(out.len(), 2);
        assert_eq!(out.live_len(), 2);
        assert_eq!(out.candidates_seen, 2);
        assert_eq!(out.pruned_inferior, 0);
    }

    /// Decode one random candidate over three keys, with few enough cost,
    /// memory and message values that ties on every axis are common.
    fn candidate(keys: &[Distribution; 3], code: u32) -> Solution {
        let cost = f64::from(code / 3 % 5) * 0.5;
        sol(keys[(code % 3) as usize], cost, u128::from(code / 15 % 5), u128::from(code / 75 % 4))
    }

    fn three_keys() -> [Distribution; 3] {
        let mut sp = IndexSpace::new();
        let a = sp.declare("a", 4);
        let b = sp.declare("b", 4);
        let c = sp.declare("c", 4);
        [Distribution::pair(a, b), Distribution::pair(b, a), Distribution::pair(a, c)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// On random tie-dense streams the staircase agrees with the scan
        /// reference candidate by candidate; its corner query is exactly
        /// "some live entry is <= the corner on all three axes"; and
        /// absorbing the stream cut at random chunk boundaries reproduces
        /// the serial set.
        #[test]
        fn staircase_matches_scan_reference_on_random_streams(
            stream in proptest::collection::vec(0u32..300, 1..48),
            corners in proptest::collection::vec(0u32..600, 6),
            cuts in proptest::collection::vec(proptest::bool::ANY, 48),
            limit in 3u32..8,
        ) {
            let keys = three_keys();
            let limit = u128::from(limit);
            let f = FusionPrefix::empty();
            let mut set = SolutionSet::new();
            let mut r = ScanRef::default();
            for (n, &code) in stream.iter().enumerate() {
                let s = candidate(&keys, code);
                proptest::prop_assert_eq!(set.insert(s.clone(), limit), r.insert(&s, limit));
                assert_matches_ref(&set, &r, &format!("after candidate {n}"));
                for &c in &corners {
                    let (d, cost) = (keys[(c % 3) as usize], f64::from(c / 3 % 10) * 0.25);
                    let (mem, msg) = (u128::from(c / 30 % 5), u128::from(c / 150 % 4));
                    proptest::prop_assert_eq!(
                        set.dominates_corner(&set.key_handle(d, &f), cost, mem, msg),
                        r.dominates_corner(d, cost, mem, msg),
                        "corner {}", c
                    );
                }
            }
            let mut merged = SolutionSet::new();
            let mut local = merged.empty_like();
            for (n, &code) in stream.iter().enumerate() {
                local.insert(candidate(&keys, code), limit);
                if cuts[n] {
                    merged.absorb(std::mem::replace(&mut local, merged.empty_like()));
                }
            }
            merged.absorb(local);
            assert_matches_ref(&merged, &r, "chunked absorb");
        }

        /// One entry per key: after every candidate, each key's live entry
        /// is the lexicographic minimum of the feasible candidates offered
        /// so far under it, the first one on an exact tie; the live lists
        /// hold exactly those entries; the corner query is "the live entry
        /// is <= the corner on all three axes"; and absorbing the stream
        /// cut at random chunk boundaries reproduces the serial set.
        #[test]
        fn one_entry_per_key_keeps_the_first_lexicographic_minimum(
            stream in proptest::collection::vec(0u32..300, 1..48),
            corners in proptest::collection::vec(0u32..600, 6),
            cuts in proptest::collection::vec(proptest::bool::ANY, 48),
            limit in 3u32..8,
        ) {
            let keys = three_keys();
            let limit = u128::from(limit);
            let f = FusionPrefix::empty();
            let lex = |s: &Solution| (s.comm_cost, s.mem_words, s.max_msg_words);
            // Each candidate carries its stream position as its decision
            // record, so the test can tell which of equal candidates is live.
            let tagged = |n: usize| {
                let mut s = candidate(&keys, stream[n]);
                s.choice = Some(Box::new(Choice {
                    pattern: None,
                    children: Vec::new(),
                    result_rotate_cost: n as f64,
                    surrounding: FusionPrefix::empty(),
                }));
                s
            };
            let mut set = SolutionSet::with_mode(Keep::LeastPerKey, true);
            for n in 0..stream.len() {
                set.insert(tagged(n), limit);
                let mut want_live = Vec::new();
                for &d in &keys {
                    let fits = |&m: &usize| {
                        let s = candidate(&keys, stream[m]);
                        s.dist == d && s.mem_words + s.max_msg_words <= limit
                    };
                    // `min_by` keeps the first of equal elements.
                    let best = (0..=n).filter(fits).min_by(|&a, &b| {
                        let (a, b) = (candidate(&keys, stream[a]), candidate(&keys, stream[b]));
                        lex(&a).partial_cmp(&lex(&b)).expect("no NaN costs")
                    });
                    let got = set.lookup(d, &f);
                    match best {
                        None => proptest::prop_assert!(got.is_empty()),
                        Some(m) => {
                            proptest::prop_assert_eq!(got.len(), 1, "key {:?}", d);
                            let i = got[0];
                            let tag = set.choice(i).map(|c| c.result_rotate_cost);
                            proptest::prop_assert_eq!(tag, Some(m as f64));
                            want_live.push(i);
                        }
                    }
                    for &c in &corners {
                        let (cost, mem) = (f64::from(c / 3 % 10) * 0.25, u128::from(c / 30 % 5));
                        let msg = u128::from(c / 150 % 4);
                        let want = got.first().is_some_and(|&i| {
                            set.cost(i) <= cost && set.mem(i) <= mem && set.msg(i) <= msg
                        });
                        proptest::prop_assert_eq!(
                            set.dominates_corner(&set.key_handle(d, &f), cost, mem, msg),
                            want
                        );
                    }
                }
                want_live.sort_unstable();
                proptest::prop_assert_eq!(live(&set), want_live);
                proptest::prop_assert_eq!(set.key_count(), set.live_len());
                proptest::prop_assert!(set.max_key_live() <= 1);
            }
            let mut merged = SolutionSet::with_mode(Keep::LeastPerKey, true);
            let mut local = merged.empty_like();
            for (n, &cut) in cuts.iter().enumerate().take(stream.len()) {
                local.insert(tagged(n), limit);
                if cut {
                    merged.absorb(std::mem::replace(&mut local, merged.empty_like()));
                }
            }
            merged.absorb(local);
            proptest::prop_assert_eq!(merged.len(), set.len());
            let tag = |s: &SolutionSet, i: usize| s.choice(i).map(|c| c.result_rotate_cost);
            for i in 0..set.len() {
                proptest::prop_assert_eq!(tag(&merged, i), tag(&set, i));
            }
            proptest::prop_assert_eq!(live(&merged), live(&set));
            proptest::prop_assert_eq!(
                (merged.candidates_seen, merged.pruned_inferior, merged.pruned_memory),
                (set.candidates_seen, set.pruned_inferior, set.pruned_memory)
            );
            // Compaction keeps exactly the live entries, one per key.
            let tags = |s: &SolutionSet| s.live_indices().map(|i| tag(s, i)).collect::<Vec<_>>();
            let before = tags(&set);
            set.compact();
            proptest::prop_assert_eq!(tags(&set), before);
            proptest::prop_assert_eq!(set.len(), set.key_count());
        }
    }
}
