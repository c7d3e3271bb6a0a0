//! Structured observability for the TCE workspace.
//!
//! Three pieces, all `std`-only:
//!
//! * **[`Counters`]** — a small named-counter bag owned by whatever is being
//!   measured (the DP search, a simulation). Bumping a counter is a plain
//!   integer add; the bag travels with the result so reports read the exact
//!   numbers of the run that produced them.
//! * **Spans and slices** — wall-clock [`span`]s (RAII: dropped ⇒ emitted)
//!   and explicit virtual-time [`slice_at`]s, both routed to the installed
//!   [`Sink`] as [`TraceEvent`]s on named lanes.
//! * **Sinks** — [`RecordingSink`] buffers events in memory for tests and
//!   programmatic inspection; [`ChromeTraceSink`] renders the Chrome
//!   trace-event JSON format loadable in `chrome://tracing` / Perfetto;
//!   [`stream::ProgressSink`] renders the JSONL progress stream. A
//!   `Vec<Arc<dyn Sink>>` is itself a sink that fans every event out.
//!
//! The installed sink is the crate's one process-wide switch. With none
//! installed every emission site is a single relaxed atomic load — the
//! "null sink" costs nothing measurable, so instrumentation can stay on in
//! release builds. [`metrics::Snapshot`] holds no global state: callers
//! render it from the counters a run returns.
//!
//! ```
//! let sink = std::sync::Arc::new(tce_obs::RecordingSink::new());
//! tce_obs::install(sink.clone());
//! {
//!     let _root = tce_obs::span("search", "optimize");
//!     tce_obs::counter_sample("nodes", 3);
//! }
//! tce_obs::uninstall();
//! assert_eq!(sink.events().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

mod chrome;
mod counters;
mod jsonfmt;
pub mod metrics;
mod sink;
pub mod stream;

pub use chrome::{ChromeTraceSink, TraceFlushGuard};
pub use counters::Counters;
pub use sink::{RecordingSink, Sink, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Counter names used by the DP search (`tce-core`). Centralised so the
/// CLI, benches, and tests spell them identically.
pub mod names {
    /// Candidate solutions generated across all nodes.
    pub const CANDIDATES: &str = "dp.candidates";
    /// Candidates rejected by the memory limit.
    pub const PRUNED_MEMORY: &str = "dp.pruned_memory";
    /// Candidates pruned as dominated (inferior).
    pub const PRUNED_INFERIOR: &str = "dp.pruned_inferior";
    /// Child solutions reachable only by inserting a redistribution.
    pub const REDIST_FALLBACKS: &str = "dp.redist_fallbacks";
    /// Solutions alive on the final frontier (all nodes).
    pub const FRONTIER: &str = "dp.frontier";
    /// Tree nodes processed.
    pub const NODES: &str = "dp.nodes";
    /// Redistribution prices answered from the per-run memo table (the
    /// memo prices redistributions only; rotation costs come from per-node
    /// block tables that count nothing here).
    ///
    /// Unlike the counters above, the memo numbers depend on worker-thread
    /// interleaving (two workers can race to fill the same entry), so they
    /// are excluded from serial-vs-parallel equivalence checks.
    pub const MEMO_HIT: &str = "dp.memo_hit";
    /// Redistribution prices computed and stored in the memo table.
    pub const MEMO_MISS: &str = "dp.memo_miss";
    /// Candidates skipped by an admissible lower-bound (branch-and-bound)
    /// corner query instead of being individually costed.
    ///
    /// Like the memo counters, the bnb numbers depend on worker-thread
    /// interleaving (each worker prunes against its own partial frontier,
    /// so smaller chunks skip less), so they are excluded from
    /// serial-vs-parallel equivalence checks. Every *pre-existing* `dp.*`
    /// counter is unchanged by the skips: skipped candidates are still
    /// classified and counted exactly as `insert` would have.
    pub const BNB_SKIP: &str = "dp.bnb_skip";
    /// Lower-bound corner queries that pruned a block (a row or tail of a
    /// combine loop). `bnb_skip / bnb_block` is the mean block size.
    pub const BNB_BLOCK: &str = "dp.bnb_block";
    /// Retired: corner prunes that only a per-node subtree floor made
    /// possible. No run emits it (a node's floor never reaches a live
    /// entry of that node, DESIGN.md §9), so it is not in [`ALL`] and
    /// reads 0 from every counter bag; the name stays for external readers.
    pub const BNB_FLOOR: &str = "dp.bnb_floor";
    /// Combine blocks scheduled across all nodes — the unit of work the
    /// work-stealing enumeration hands to workers (one block per
    /// admissible `(layout, fusion-triple)` item of a binary node and per
    /// `(distribution, fusion-pair)` item of a reduction; a Cannon layout
    /// whose rotation filters reject a triple never becomes a block). A
    /// pure function of the search space, so identical at every thread
    /// count including serial runs.
    pub const BLOCKS: &str = "dp.blocks";
    /// Combine-block runs a worker claimed from another worker's region of
    /// the serial stream. Zero in serial runs; in parallel runs the total
    /// depends on thread interleaving (who finishes first steals), so it is
    /// excluded from serial-vs-parallel equivalence checks.
    pub const STEAL: &str = "dp.steal";
    /// Histogram of per-worker busy time per node, microseconds (metrics
    /// snapshot only — wall-clock, never part of the deterministic counter
    /// bag). The spread between workers is the load-imbalance the stealing
    /// scheduler is there to close.
    pub const WORKER_BUSY_US: &str = "dp.worker_busy_us";
    /// High-water mark of solution-arena bytes held live during the search
    /// (committed frontiers plus the largest pre-compaction working set).
    pub const ARENA_HW_BYTES: &str = "dp.arena_hw_bytes";
    /// Histogram of candidates generated per node (metrics snapshot).
    pub const NODE_CANDIDATES: &str = "dp.node_candidates";
    /// Histogram of live frontier size per node (metrics snapshot).
    pub const NODE_LIVE: &str = "dp.node_live";
    /// Candidates skipped because their certified subtree floor plus the
    /// rest-of-tree floor already exceeds a warm incumbent upper bound
    /// (heuristic warm-start pruning). Interleaving-dependent like the
    /// other bnb counters: a dominance tail-break can preempt later rows'
    /// warm checks depending on which worker runs which block.
    pub const BNB_WARM: &str = "dp.bnb_warm";
    /// Nodes whose communication lower-bound enumeration fell back to the
    /// degenerate zero floor (`MAX_COMBOS_PER_NODE` trip in
    /// `tce_cost::lower_bound`). Computed once coordinator-side, so it is
    /// a deterministic function of the tree and appears in reports; a
    /// nonzero value means the certified gap is sound but not tight.
    pub const LB_FLOOR_FALLBACK: &str = "lb.floor_fallback";
    /// Nearest-grid scaled extrapolations served by
    /// `tce_cost::Characterization::rcost` during the run. Query counts
    /// follow the search's per-worker table fills (each worker fills its
    /// own cells), so this is interleaving-dependent.
    pub const RCOST_FALLBACK: &str = "cost.rcost_fallback";
    /// Internal nodes whose Pareto frontier was replayed from an
    /// isomorphic, already-solved subtree of the same run (level-1 plan
    /// cache). The replayed frontier is bit-identical to a fresh
    /// enumeration, so every deterministic counter above is unchanged;
    /// only the work done differs. Varies with
    /// `OptimizerConfig::disable_subtree_reuse`, so equivalence checks
    /// across that knob must skip it.
    pub const SUBTREE_HIT: &str = "dp.subtree_hit";
    /// Internal nodes enumerated fresh because no isomorphic subtree had
    /// been solved yet (or reuse is disabled / gated off).
    pub const SUBTREE_MISS: &str = "dp.subtree_miss";
    /// Level-2 (on-disk) plan-cache hits: a stored plan was loaded,
    /// rename-mapped, and passed the full static re-validation.
    pub const CACHE_HIT: &str = "cache.hit";
    /// Level-2 plan-cache misses (no entry for the canonical key).
    pub const CACHE_MISS: &str = "cache.miss";
    /// Plans persisted to the level-2 cache after a fresh search.
    pub const CACHE_STORE: &str = "cache.store";
    /// Level-2 entries evicted because the file was unreadable or failed
    /// to parse (truncation, torn writes, hand corruption).
    pub const CACHE_EVICT_CORRUPT: &str = "cache.evict_corrupt";
    /// Level-2 entries evicted for a stale schema or code-version stamp.
    pub const CACHE_EVICT_VERSION: &str = "cache.evict_version";
    /// Level-2 entries evicted because the stored characterization digest
    /// does not match the current cost model (different machine profile).
    pub const CACHE_EVICT_DIGEST: &str = "cache.evict_digest";
    /// Level-2 entries evicted because the stored plan failed the static
    /// check registry or its cost ledger after rename-mapping — the
    /// validation-on-load gate that keeps cache poisoning from ever
    /// returning a bad plan.
    pub const CACHE_EVICT_PLAN: &str = "cache.evict_plan";

    /// Every name above with its determinism flag, in declaration order:
    /// the one table [`intern`] and [`is_deterministic`] read.
    ///
    /// A flag is `false` when the counter's total depends on how the work
    /// was done rather than on what was computed, so serial-vs-parallel,
    /// cache-on-vs-off and reuse-on-vs-off equivalence checks and the
    /// byte-stable `tce report` skip it (the *values the search returns*
    /// never depend on it). That covers the memo pair (two workers racing
    /// on one memo key both count a miss), the branch-and-bound family
    /// (each worker prunes against its own partial frontier, so smaller
    /// chunks skip less), the steal count (which worker drains a region
    /// first is a race), the rcost fallbacks (query counts follow which
    /// worker fills which table cell), and the `dp.subtree_*` and `cache.*` counters, which are
    /// fixed for one configuration but vary with cache state and subtree
    /// reuse while the results stay bit-identical. The three histogram
    /// names never enter a [`crate::Counters`] bag; their flag is moot.
    pub const ALL: [(&str, bool); 28] = [
        (CANDIDATES, true),
        (PRUNED_MEMORY, true),
        (PRUNED_INFERIOR, true),
        (REDIST_FALLBACKS, true),
        (FRONTIER, true),
        (NODES, true),
        (MEMO_HIT, false),
        (MEMO_MISS, false),
        (BNB_SKIP, false),
        (BNB_BLOCK, false),
        (BLOCKS, true),
        (STEAL, false),
        (WORKER_BUSY_US, true),
        (ARENA_HW_BYTES, true),
        (NODE_CANDIDATES, true),
        (NODE_LIVE, true),
        (BNB_WARM, false),
        (LB_FLOOR_FALLBACK, true),
        (RCOST_FALLBACK, false),
        (SUBTREE_HIT, false),
        (SUBTREE_MISS, false),
        (CACHE_HIT, false),
        (CACHE_MISS, false),
        (CACHE_STORE, false),
        (CACHE_EVICT_CORRUPT, false),
        (CACHE_EVICT_VERSION, false),
        (CACHE_EVICT_DIGEST, false),
        (CACHE_EVICT_PLAN, false),
    ];

    /// Map a counter name back to its `'static` constant — needed to load
    /// a persisted counter bag into a [`crate::Counters`], whose `add`
    /// takes `&'static str`. `None` for names no release ever emitted.
    pub fn intern(name: &str) -> Option<&'static str> {
        ALL.iter().find(|&&(c, _)| c == name).map(|&(c, _)| c)
    }

    /// Whether `name`'s total is a function of the computation alone (see
    /// [`ALL`]). Names outside the table count as deterministic.
    pub fn is_deterministic(name: &str) -> bool {
        ALL.iter().find(|&&(c, _)| c == name).is_none_or(|&(_, d)| d)
    }
}

struct Global {
    enabled: AtomicBool,
    sink: Mutex<Option<Arc<dyn Sink>>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global { enabled: AtomicBool::new(false), sink: Mutex::new(None) })
}

/// The wall-clock origin all span timestamps are measured from (first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide trace epoch.
fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Install `sink` as the global event destination, replacing any previous
/// one. Emission sites become active immediately.
pub fn install(sink: Arc<dyn Sink>) {
    let g = global();
    *g.sink.lock().expect("obs sink lock poisoned") = Some(sink);
    g.enabled.store(true, Ordering::Release);
}

/// Remove and return the installed sink, disabling emission (the null-sink
/// fast path).
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let g = global();
    let prev = g.sink.lock().expect("obs sink lock poisoned").take();
    g.enabled.store(false, Ordering::Release);
    prev
}

/// Whether a sink is installed. One relaxed atomic load — cheap enough to
/// guard every emission site.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

fn emit(ev: TraceEvent) {
    if let Some(sink) = global().sink.lock().expect("obs sink lock poisoned").as_ref() {
        sink.event(ev);
    }
}

/// A live wall-clock span; emits a [`TraceEvent::Slice`] on drop. Obtain
/// via [`span`]/[`span_with`]. A disabled span is inert (no allocation, no
/// clock read).
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    lane: String,
    name: String,
    start_us: f64,
    args: Vec<(String, String)>,
}

impl Span {
    /// Attach a key/value argument, shown in the trace viewer's detail
    /// pane. No-op when the span is disabled.
    pub fn arg(&mut self, key: impl Into<String>, value: impl ToString) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key.into(), value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let end = now_us();
            emit(TraceEvent::Slice {
                lane: inner.lane,
                name: inner.name,
                ts_us: inner.start_us,
                dur_us: (end - inner.start_us).max(0.0),
                args: inner.args,
            });
        }
    }
}

/// Open a wall-clock span named `name` on `lane`. The slice is emitted when
/// the returned guard drops.
pub fn span(lane: &str, name: impl Into<String>) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            lane: lane.to_string(),
            name: name.into(),
            start_us: now_us(),
            args: Vec::new(),
        }),
    }
}

/// Emit a slice with an explicit (virtual) timeline position — used by the
/// simulator, whose clock is simulated seconds, not wall time.
pub fn slice_at(
    lane: &str,
    name: impl Into<String>,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(String, String)>,
) {
    if !enabled() {
        return;
    }
    emit(TraceEvent::Slice { lane: lane.to_string(), name: name.into(), ts_us, dur_us, args });
}

/// Record the current value of a named counter at the present wall-clock
/// instant (rendered by Chrome tracing as a counter track).
pub fn counter_sample(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    emit(TraceEvent::Counter { name: name.to_string(), ts_us: now_us(), value });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global sink is process-wide; run the install/uninstall tests under
    // one lock so parallel test threads don't race on it.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_by_default_and_inert() {
        let _guard = serial();
        uninstall();
        assert!(!enabled());
        let mut sp = span("lane", "noop");
        sp.arg("k", 1);
        drop(sp); // must not panic or emit
        counter_sample("c", 1);
        slice_at("lane", "s", 0.0, 1.0, vec![]);
    }

    #[test]
    fn span_emits_slice_with_args() {
        let _guard = serial();
        let sink = Arc::new(RecordingSink::new());
        install(sink.clone());
        {
            let mut sp = span("search", "node");
            sp.arg("candidates", 42);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        counter_sample("dp.candidates", 42);
        slice_at("step0", "Shift", 1.5e6, 0.5e6, vec![("bytes".into(), "64".into())]);
        uninstall();
        let evs = sink.events();
        assert_eq!(evs.len(), 3);
        match &evs[0] {
            TraceEvent::Slice { lane, name, dur_us, args, .. } => {
                assert_eq!(lane, "search");
                assert_eq!(name, "node");
                assert!(*dur_us >= 1000.0, "dur {dur_us}");
                assert_eq!(args[0], ("candidates".to_string(), "42".to_string()));
            }
            other => panic!("expected slice, got {other:?}"),
        }
        match &evs[1] {
            TraceEvent::Counter { name, value, .. } => {
                assert_eq!(name, "dp.candidates");
                assert_eq!(*value, 42);
            }
            other => panic!("expected counter, got {other:?}"),
        }
        match &evs[2] {
            TraceEvent::Slice { ts_us, dur_us, .. } => {
                assert_eq!(*ts_us, 1.5e6);
                assert_eq!(*dur_us, 0.5e6);
            }
            other => panic!("expected slice, got {other:?}"),
        }
    }

    #[test]
    fn name_table_lists_every_constant_once_with_its_flag() {
        // Every `pub const NAME: &str` of `names`, read from this file,
        // except the retired `BNB_FLOOR`, which no run emits.
        let consts: Vec<&str> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| {
                let rest = l.trim().strip_prefix("pub const ")?;
                rest.split_once(": &str = \"")?.1.strip_suffix("\";")
            })
            .filter(|&n| n != names::BNB_FLOOR)
            .collect();
        let table: Vec<&str> = names::ALL.iter().map(|&(n, _)| n).collect();
        assert_eq!(consts, table, "table must list the constants in declaration order");
        for name in &table {
            assert_eq!(table.iter().filter(|n| *n == name).count(), 1, "{name} listed twice");
            assert_eq!(names::intern(name), Some(*name));
        }
        let mut nondeterministic: Vec<&str> =
            table.iter().copied().filter(|n| !names::is_deterministic(n)).collect();
        nondeterministic.sort_unstable();
        let mut expected = vec![
            names::MEMO_HIT,
            names::MEMO_MISS,
            names::BNB_SKIP,
            names::BNB_BLOCK,
            names::BNB_WARM,
            names::STEAL,
            names::RCOST_FALLBACK,
            names::SUBTREE_HIT,
            names::SUBTREE_MISS,
            names::CACHE_HIT,
            names::CACHE_MISS,
            names::CACHE_STORE,
            names::CACHE_EVICT_CORRUPT,
            names::CACHE_EVICT_VERSION,
            names::CACHE_EVICT_DIGEST,
            names::CACHE_EVICT_PLAN,
        ];
        expected.sort_unstable();
        assert_eq!(nondeterministic, expected);
        assert!(names::is_deterministic("no.such_counter"));
        assert_eq!(names::intern("no.such_counter"), None);
    }

    #[test]
    fn fan_out_delivers_each_event_to_every_sink() {
        let (a, b) = (Arc::new(RecordingSink::new()), Arc::new(RecordingSink::new()));
        let fan: Vec<Arc<dyn Sink>> = vec![a.clone(), b.clone()];
        fan.event(TraceEvent::Counter { name: "c".into(), ts_us: 1.0, value: 2 });
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn uninstall_returns_sink_and_disables() {
        let _guard = serial();
        let sink = Arc::new(RecordingSink::new());
        install(sink);
        assert!(enabled());
        assert!(uninstall().is_some());
        assert!(!enabled());
        assert!(uninstall().is_none());
    }
}
