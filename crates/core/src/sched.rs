//! Work-stealing scheduling of the per-node combine blocks.
//!
//! The combine loops hand the scheduler a flat list of *blocks* — each one
//! a `(pattern, fusion-triple)` or `(distribution, pair)` item standing
//! for one contiguous run of the node's serial candidate stream. Blocks
//! are wildly uneven: late blocks hit wider child slates, more
//! redistribution fallbacks, and colder table cells, so the old
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
//! the flags in [`tce_obs::names::ALL`] and DESIGN.md §11.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::solution::SolutionSet;

/// Default per-extra-worker amortization floor: spawn another worker only
/// per this much *predicted* serial enumeration time (ns). Spawning and
/// joining cost a low single-digit fraction of this, so nodes below the
/// floor run inline — the regression EXPERIMENTS.md X9 records. The
/// ordered merge grows with the node and is weighed separately (see
/// [`SpawnModel`]).
pub(crate) const DEFAULT_SPAWN_AMORT_NS: u64 = 10_000_000;

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

/// Merge share assumed until a split was measured: the ordered merge's
/// time over the serial enumeration time of the same blocks. On the
/// enlarged `ccsd_tiny` cell's nodes split over two workers it reads
/// 0.05–0.70, median about a quarter (EXPERIMENTS.md X18): the merge
/// replays every entry a worker-local frontier accepted, and those
/// frontiers prune worse than the serial one.
const PRIOR_MERGE_SHARE: f64 = 0.25;

/// A split must be predicted to take less than this share of the serial
/// time — to save more than 10% — so a prediction that is merely even
/// never pays for spawn, join and run-to-run noise.
const SPAWN_GAIN: f64 = 0.9;

/// Adaptive spawn threshold, fed back after every node. The worker count
/// it picks affects wall clock only — any count yields bit-identical
/// results — so learning from wall-clock measurements cannot perturb the
/// search.
///
/// The model predicts a node's serial enumeration time from the measured
/// cost per block of the nodes run inline, and predicts nothing before one
/// was measured: the first node runs inline. The parallel wall it expects
/// is the serial time split over the workers at the parallel efficiency,
/// plus the ordered merge, which does not parallelize; it spawns only when
/// that is less than [`SPAWN_GAIN`] of the serial time. Efficiency and
/// merge share are taken as 1 and [`PRIOR_MERGE_SHARE`] until a split was
/// measured and then follow the split nodes' own wall time and
/// `merge_us`, so where more workers did not pay — a contended core, a
/// merge replay that eats the gain — the model stops spawning. A split
/// node's serial time is estimated afterwards from the
/// candidates it priced at the inline nodes' cost per candidate, which
/// varies far less between nodes than the cost per block; never from the
/// workers' busy time, which is wall clock and includes the time a worker
/// waited for a shared core.
struct SpawnModel {
    /// Serial enumeration cost per block and per candidate (ns), EWMAs
    /// over the inline nodes; `None` until one was measured.
    inline: Option<(f64, f64)>,
    /// Parallel efficiency (serial time over enumeration wall time ×
    /// workers; 1 = perfect scaling) and merge share, EWMAs over the split
    /// nodes; `None` until one was measured.
    parallel: Option<(f64, f64)>,
}

/// Exponentially weighted mean with weight ½ on the new sample.
fn ewma(old: f64, sample: f64) -> f64 {
    0.5 * old + 0.5 * sample
}

impl SpawnModel {
    fn new() -> Self {
        Self { inline: None, parallel: None }
    }

    fn workers_for(&self, blocks: usize, threads: usize, amort_ns: u64) -> usize {
        if threads <= 1 || blocks == 0 {
            return 1;
        }
        if amort_ns == 0 {
            // Forced maximal spawning (tests and fuzz oracles exercise the
            // merge machinery even on nodes the model would run inline).
            return threads.min(blocks).max(1);
        }
        let Some((ns_per_block, _)) = self.inline else { return 1 };
        let serial_ns = ns_per_block * blocks as f64;
        let workers = ((serial_ns / amort_ns as f64) as usize).min(blocks).clamp(1, threads);
        let (efficiency, merge_share) = self.parallel.unwrap_or((1.0, PRIOR_MERGE_SHARE));
        if workers > 1 && 1.0 / (efficiency * workers as f64) + merge_share < SPAWN_GAIN {
            workers
        } else {
            1
        }
    }

    /// A node of `blocks` blocks and `candidates` candidates ran inline in
    /// `wall_ns`.
    fn record_inline(&mut self, blocks: usize, candidates: u64, wall_ns: f64) {
        if blocks == 0 || candidates == 0 || wall_ns <= 0.0 {
            return;
        }
        let (b, c) = (wall_ns / blocks as f64, wall_ns / candidates as f64);
        self.inline = Some(self.inline.map_or((b, c), |(ob, oc)| (ewma(ob, b), ewma(oc, c))));
    }

    /// A node of `candidates` candidates ran on `workers` workers in
    /// `wall_ns`, `merge_ns` of it in the ordered merge. Forced spawning
    /// can split a node before any inline one was measured; with no serial
    /// cost to compare against, that run teaches nothing.
    fn record_parallel(&mut self, candidates: u64, workers: usize, wall_ns: f64, merge_ns: f64) {
        let Some((_, ns_per_candidate)) = self.inline else { return };
        if candidates == 0 || workers == 0 {
            return;
        }
        let serial_ns = ns_per_candidate * candidates as f64;
        let enum_ns = (wall_ns - merge_ns).max(1.0);
        let (e, m) = (serial_ns / (enum_ns * workers as f64), merge_ns.max(0.0) / serial_ns);
        self.parallel = Some(self.parallel.map_or((e, m), |(oe, om)| (ewma(oe, e), ewma(om, m))));
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

/// [`std::thread::available_parallelism`], read once per process: on
/// Linux each call reads the cgroup quota files (about 16 µs in a 2-vCPU
/// VM), and a request runs two or three searches.
pub(crate) fn available_parallelism() -> Option<usize> {
    static HW: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().ok().map(|n| n.get()))
}

impl Scheduler {
    pub fn new(threads: usize, spawn_amort_ns: Option<u64>) -> Self {
        Self {
            threads,
            hw: available_parallelism().unwrap_or(usize::MAX),
            amort_ns: spawn_amort_ns.unwrap_or(DEFAULT_SPAWN_AMORT_NS),
            model: SpawnModel::new(),
        }
    }

    /// Run `chunk_fn` over every item of `items` (each item one combine
    /// block), filtered into `out` exactly as the serial loop would.
    /// `mk_state` builds one per-worker scratch state (slate caches, kernel
    /// buffers, pricing tables) that persists across that worker's claimed
    /// runs — pure memoization, shared by the serial and the parallel path.
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
        let (t0, seen) = (Instant::now(), out.candidates_seen);
        if workers == 1 {
            chunk_fn(items, out, &mut mk_state());
            let wall_ns = t0.elapsed().as_nanos() as f64;
            self.model.record_inline(items.len(), out.candidates_seen - seen, wall_ns);
            return EnumStats { workers: 1, merge_us: 0, blocks, steals: 0, busy_us: Vec::new() };
        }
        let stats = run_stealing(items, workers, out, &mk_state, &chunk_fn);
        // The node's wall time includes spawning, joining and the merge.
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let merge_ns = stats.merge_us as f64 * 1e3;
        self.model.record_parallel(out.candidates_seen - seen, workers, wall_ns, merge_ns);
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
    fn uncalibrated_model_runs_inline() {
        let m = SpawnModel::new();
        assert_eq!(m.workers_for(10, 4, DEFAULT_SPAWN_AMORT_NS), 1);
        assert_eq!(m.workers_for(1_000_000, 4, DEFAULT_SPAWN_AMORT_NS), 1);
    }

    #[test]
    fn calibrated_model_scales_with_predicted_cost() {
        let mut m = SpawnModel::new();
        // 1e6 ns per block measured.
        m.record_inline(100, 1000, 1e8);
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
        let m = SpawnModel::new();
        assert_eq!(m.workers_for(3, 8, 0), 3);
        assert_eq!(m.workers_for(100, 8, 0), 8);
    }

    #[test]
    fn ewma_tracks_drifting_block_cost() {
        let mut m = SpawnModel::new();
        m.record_inline(10, 100, 1e7); // 1e6 ns/block, 1e5 ns/candidate
        m.record_inline(10, 100, 3e7); // 3e6 ns/block → EWMA 2e6
        let (per_block, per_candidate) = m.inline.unwrap();
        assert!((per_block - 2e6).abs() < 1.0, "{per_block}");
        assert!((per_candidate - 2e5).abs() < 1.0, "{per_candidate}");
    }

    /// Four workers that took as long as one would have: the next node
    /// the amortization floor alone would split runs inline.
    #[test]
    fn workers_that_did_not_pay_stop_spawning() {
        let mut m = SpawnModel::new();
        m.record_inline(100, 1000, 1e8); // 1e6 ns/block, 1e5 ns/candidate
        assert_eq!(m.workers_for(100, 4, DEFAULT_SPAWN_AMORT_NS), 4);
        // 1000 candidates (1e8 ns inline) ran on four workers in 1e8 ns.
        m.record_parallel(1000, 4, 1e8, 0.0);
        assert_eq!(m.workers_for(100, 4, DEFAULT_SPAWN_AMORT_NS), 1);
    }

    /// Perfect scaling with a free merge makes two workers pay; merges as
    /// long as the serial run stop even four.
    #[test]
    fn the_merge_counts_against_spawning() {
        let mut m = SpawnModel::new();
        m.record_inline(100, 1000, 1e8);
        for _ in 0..4 {
            m.record_parallel(1000, 4, 2.5e7, 0.0);
        }
        assert_eq!(m.workers_for(100, 2, DEFAULT_SPAWN_AMORT_NS), 2);
        for _ in 0..2 {
            m.record_parallel(1000, 4, 2.5e7 + 1e8, 1e8);
        }
        assert_eq!(m.workers_for(100, 4, DEFAULT_SPAWN_AMORT_NS), 1);
    }

    /// Forced spawning before any inline node measured teaches nothing.
    #[test]
    fn a_parallel_run_without_a_serial_cost_is_not_recorded() {
        let mut m = SpawnModel::new();
        m.record_parallel(1000, 2, 1e9, 0.0);
        assert!(m.parallel.is_none());
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
