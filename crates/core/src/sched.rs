//! Work-stealing scheduling of the per-node combine blocks.
//!
//! The combine loops hand the scheduler a flat list of *blocks* — each one
//! a `(pattern, fusion-triple)` or `(distribution, pair)` item standing
//! for one contiguous run of the node's serial candidate stream. Blocks
//! are wildly uneven: late blocks hit wider child slates, more
//! redistribution fallbacks, and colder memo entries, so the old
//! equal-count contiguous chunks routinely left every worker idle behind
//! one stuck on the heavy tail. Here each worker owns a contiguous
//! *region* of the block list fronted by an atomic cursor; workers claim
//! guided-size runs from their own region first and steal runs from other
//! regions once theirs is drained.
//!
//! **Determinism.** The bit-identity contract survives because every
//! claimed run is a *contiguous* slice of the serial block order, each run
//! is claimed exactly once (the cursors only move forward), and a worker
//! extends its current thread-local [`SolutionSet`] only when the next run
//! begins exactly where the previous one ended — so every local set covers
//! one contiguous span of the serial stream, tagged with its start index.
//! Merging the locals back in ascending start order is then precisely the
//! chunk-ordered replay [`SolutionSet::absorb`] proves bit-identical to
//! the serial search, for *any* partition the race happened to produce:
//! costs, storage order, `best_index` tie-breaks, and every deterministic
//! counter. Only `dp.steal` (who drained whose region) and the
//! `dp.memo_*`/`dp.bnb_*` families depend on the interleaving — see
//! [`tce_obs::NONDETERMINISTIC_COUNTERS`] and DESIGN.md §11.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::solution::SolutionSet;

/// Default per-extra-worker amortization floor: spawn another worker only
/// per this much *predicted* serial enumeration time (ns). Spawn plus the
/// ordered merge replay cost a low single-digit fraction of this, so nodes
/// below the floor run inline and the multi-thread wall clock can never
/// fall measurably behind serial — the regression EXPERIMENTS.md X9 records.
pub(crate) const DEFAULT_SPAWN_AMORT_NS: u64 = 10_000_000;

/// Blocks-per-worker fallback used before the model has a measurement
/// (first node of a run). Deliberately conservative — twice the old static
/// `MIN_ITEMS_PER_WORKER` — because mispredicting "spawn" costs real merge
/// time while mispredicting "inline" costs only the first node's speedup.
const UNCALIBRATED_BLOCKS_PER_WORKER: usize = 64;

/// Guided run sizing: claim a quarter of the remaining region per grab,
/// clamped to keep late grabs fine-grained and early grabs amortized.
const MAX_RUN: usize = 32;

/// How a node's candidate enumeration ran (surfaced as span args and
/// scheduler counters).
pub(crate) struct EnumStats {
    /// Worker threads actually used (1 = ran inline).
    pub workers: usize,
    /// Time spent merging worker-local frontiers, microseconds.
    pub merge_us: u128,
    /// Combine blocks scheduled (= the serial item count; deterministic).
    pub blocks: u64,
    /// Runs claimed from another worker's region (interleaving-dependent).
    pub steals: u64,
    /// Per-worker busy time, microseconds (empty for inline runs).
    pub busy_us: Vec<u64>,
}

/// Adaptive spawn threshold: an EWMA of measured enumeration cost per
/// block, fed back after every node, replacing the old static
/// `MIN_ITEMS_PER_WORKER`. The worker count it picks affects wall clock
/// only — any count yields bit-identical results — so learning from
/// wall-clock measurements cannot perturb the search.
struct SpawnModel {
    ns_per_block: f64,
    calibrated: bool,
}

impl SpawnModel {
    fn workers_for(&self, blocks: usize, threads: usize, amort_ns: u64) -> usize {
        if threads <= 1 || blocks == 0 {
            return 1;
        }
        if amort_ns == 0 {
            // Forced maximal spawning (tests and fuzz oracles exercise the
            // merge machinery even on nodes the model would run inline).
            return threads.min(blocks).max(1);
        }
        if !self.calibrated {
            return threads.min(blocks / UNCALIBRATED_BLOCKS_PER_WORKER).max(1);
        }
        let predicted_ns = self.ns_per_block * blocks as f64;
        (((predicted_ns / amort_ns as f64) as usize).min(blocks)).clamp(1, threads)
    }

    fn record(&mut self, blocks: usize, busy_ns: f64) {
        if blocks == 0 || busy_ns <= 0.0 {
            return;
        }
        let per = busy_ns / blocks as f64;
        self.ns_per_block = if self.calibrated { 0.5 * self.ns_per_block + 0.5 * per } else { per };
        self.calibrated = true;
    }
}

/// Per-node enumeration driver owned by one `optimize` run: the
/// worker-count policy (the adaptive [`SpawnModel`]) in front of the
/// work-stealing enumeration.
pub(crate) struct Scheduler {
    threads: usize,
    /// Hardware threads actually available; the adaptive path never
    /// spawns past this (workers beyond the core count only add context
    /// switching and merge cost to a CPU-bound search — the worker count
    /// never changes results, only wall clock). Forced spawning
    /// (`amort_ns == 0`) bypasses the cap so determinism tests exercise
    /// the merge machinery even on single-core machines.
    hw: usize,
    /// Per-extra-worker amortization floor, ns (0 = always spawn).
    amort_ns: u64,
    model: SpawnModel,
}

impl Scheduler {
    pub fn new(threads: usize, spawn_amort_ns: Option<u64>) -> Self {
        Self {
            threads,
            hw: std::thread::available_parallelism().map_or(usize::MAX, |n| n.get()),
            amort_ns: spawn_amort_ns.unwrap_or(DEFAULT_SPAWN_AMORT_NS),
            model: SpawnModel { ns_per_block: 0.0, calibrated: false },
        }
    }

    /// Run `chunk_fn` over every item of `items` (each item one combine
    /// block), filtered into `out` exactly as the serial loop would.
    /// `mk_state` builds one per-worker scratch state (slate caches, kernel
    /// buffers) that persists across that worker's claimed runs — pure
    /// memoization, shared by the serial and the parallel path.
    pub fn run<T: Sync, S: Send>(
        &mut self,
        items: &[T],
        out: &mut SolutionSet,
        mk_state: impl Fn() -> S + Sync,
        chunk_fn: impl Fn(&[T], &mut SolutionSet, &mut S) + Sync,
    ) -> EnumStats {
        let blocks = items.len() as u64;
        // Forced spawning ignores the hardware cap (see `hw`).
        let budget = if self.amort_ns == 0 { self.threads } else { self.threads.min(self.hw) };
        let workers = self.model.workers_for(items.len(), budget, self.amort_ns);
        if workers == 1 {
            let t0 = Instant::now();
            chunk_fn(items, out, &mut mk_state());
            self.model.record(items.len(), t0.elapsed().as_nanos() as f64);
            return EnumStats { workers: 1, merge_us: 0, blocks, steals: 0, busy_us: Vec::new() };
        }
        let stats = run_stealing(items, workers, out, &mk_state, &chunk_fn);
        // Summed busy time is the serial-equivalent enumeration cost (the
        // same work, minus racing memo refills), which is what the spawn
        // decision needs to predict.
        let busy_ns: u64 = stats.busy_us.iter().sum::<u64>().saturating_mul(1_000);
        self.model.record(items.len(), busy_ns as f64);
        stats
    }
}

/// Claim one guided-size run `[cur, cur+run)` from a region cursor, or
/// `None` when the region is drained. Cursors only advance, so every index
/// is claimed exactly once.
fn claim(cursor: &AtomicUsize, end: usize) -> Option<(usize, usize)> {
    let mut cur = cursor.load(Ordering::Relaxed);
    loop {
        if cur >= end {
            return None;
        }
        let remaining = end - cur;
        let run = (remaining / 4).clamp(1, MAX_RUN).min(remaining);
        match cursor.compare_exchange_weak(cur, cur + run, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return Some((cur, cur + run)),
            Err(seen) => cur = seen,
        }
    }
}

/// One worker-local output: a contiguous span `[start, end)` of the serial
/// block order and the frontier its blocks produced.
struct TaggedLocal {
    start: usize,
    end: usize,
    set: SolutionSet,
}

/// The work-stealing path. Worker `w` owns region `w` of a contiguous
/// equal partition of `items` and drains it front-to-back; once empty it
/// sweeps the other regions round-robin, claiming (stealing) runs from
/// their cursors. Successive runs that happen to be adjacent extend the
/// worker's current local set — in the no-steal case each worker therefore
/// produces exactly one local covering its region, so pruning locality and
/// merge cost match a plain equal-count split.
fn run_stealing<T: Sync, S: Send>(
    items: &[T],
    workers: usize,
    out: &mut SolutionSet,
    mk_state: &(impl Fn() -> S + Sync),
    chunk_fn: &(impl Fn(&[T], &mut SolutionSet, &mut S) + Sync),
) -> EnumStats {
    let len = items.len();
    let region = |r: usize| (r * len / workers, (r + 1) * len / workers);
    let cursors: Vec<AtomicUsize> = (0..workers).map(|r| AtomicUsize::new(region(r).0)).collect();
    let steal_count = AtomicU64::new(0);

    let mut locals: Vec<TaggedLocal> = Vec::with_capacity(workers);
    let mut busy_us = vec![0u64; workers];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursors = &cursors;
                let steal_count = &steal_count;
                let empty = out.empty_like();
                s.spawn(move || {
                    let t0 = Instant::now();
                    let mut state = mk_state();
                    let mut my_locals: Vec<TaggedLocal> = Vec::new();
                    // Own region first, then sweep the others. A full
                    // sweep of drained cursors terminates: cursors never
                    // retreat.
                    'work: loop {
                        let mut claimed = None;
                        for i in 0..workers {
                            let r = (w + i) % workers;
                            if let Some(run) = claim(&cursors[r], region(r).1) {
                                if r != w {
                                    steal_count.fetch_add(1, Ordering::Relaxed);
                                }
                                claimed = Some(run);
                                break;
                            }
                        }
                        let Some((start, end)) = claimed else { break 'work };
                        let local = match my_locals.last_mut() {
                            Some(last) if last.end == start => {
                                last.end = end;
                                last
                            }
                            _ => {
                                my_locals.push(TaggedLocal { start, end, set: empty.empty_like() });
                                my_locals.last_mut().expect("just pushed")
                            }
                        };
                        chunk_fn(&items[start..end], &mut local.set, &mut state);
                    }
                    (my_locals, t0.elapsed().as_micros() as u64)
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let (my_locals, us) = h.join().expect("search worker panicked");
            busy_us[w] = us;
            locals.extend(my_locals);
        }
    });

    // Merge in serial-stream order. The locals tile [0, len): each index
    // was claimed exactly once and adjacent claims were coalesced, so
    // sorting by start index reconstructs the serial block order.
    let merge_start = Instant::now();
    locals.sort_by_key(|l| l.start);
    debug_assert!(
        locals.first().map_or(len == 0, |l| l.start == 0)
            && locals.last().is_none_or(|l| l.end == len)
            && locals.windows(2).all(|p| p[0].end == p[1].start),
        "worker locals must tile the serial block order"
    );
    for local in locals {
        out.absorb(local.set);
    }
    EnumStats {
        workers,
        merge_us: merge_start.elapsed().as_micros(),
        blocks: len as u64,
        steals: steal_count.into_inner(),
        busy_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncalibrated_model_uses_block_count_fallback() {
        let m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        assert_eq!(m.workers_for(10, 4, DEFAULT_SPAWN_AMORT_NS), 1);
        assert_eq!(m.workers_for(64 * 3, 4, DEFAULT_SPAWN_AMORT_NS), 3);
        assert_eq!(m.workers_for(64 * 8, 4, DEFAULT_SPAWN_AMORT_NS), 4);
    }

    #[test]
    fn calibrated_model_scales_with_predicted_cost() {
        let mut m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        // 1e6 ns per block measured.
        m.record(100, 1e8);
        // 10 blocks → 1e7 ns predicted → exactly the amortization floor.
        assert_eq!(m.workers_for(10, 8, DEFAULT_SPAWN_AMORT_NS), 1);
        // 50 blocks → 5e7 ns predicted → 5 workers.
        assert_eq!(m.workers_for(50, 8, DEFAULT_SPAWN_AMORT_NS), 5);
        // Capped by the thread budget.
        assert_eq!(m.workers_for(1000, 8, DEFAULT_SPAWN_AMORT_NS), 8);
        // Tiny nodes stay inline no matter the calibration.
        assert_eq!(m.workers_for(2, 8, DEFAULT_SPAWN_AMORT_NS), 1);
    }

    #[test]
    fn forced_spawning_ignores_the_model() {
        let m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        assert_eq!(m.workers_for(3, 8, 0), 3);
        assert_eq!(m.workers_for(100, 8, 0), 8);
    }

    #[test]
    fn ewma_tracks_drifting_block_cost() {
        let mut m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        m.record(10, 1e7); // 1e6 ns/block
        m.record(10, 3e7); // 3e6 ns/block → EWMA 2e6
        assert!((m.ns_per_block - 2e6).abs() < 1.0, "{}", m.ns_per_block);
    }

    #[test]
    fn claim_covers_a_region_exactly_once() {
        let cursor = AtomicUsize::new(0);
        let mut seen = Vec::new();
        while let Some((s, e)) = claim(&cursor, 117) {
            assert!(s < e && e <= 117);
            seen.push((s, e));
        }
        assert_eq!(seen.first().map(|r| r.0), Some(0));
        assert_eq!(seen.last().map(|r| r.1), Some(117));
        assert!(seen.windows(2).all(|p| p[0].1 == p[1].0), "runs must tile");
        assert!(seen.iter().all(|&(s, e)| e - s <= MAX_RUN));
    }
}
