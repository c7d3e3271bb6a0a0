//! Level-2 persistent plan cache (`tce-plan-cache/v4`).
//!
//! Memoizes full optimization outcomes — the [`ExecutionPlan`], its cost
//! scalars, the certified communication floor, and the run's
//! deterministic counter/statistics bag — on disk, keyed by everything
//! that can influence the result:
//!
//! * the **canonical expression hash** (`tce_expr::canonical_form`):
//!   commutative + index-rename normal form, so `sum[b] A[a,b]*B[b,c]`
//!   and `sum[q] B2[q,r]*A2[p,q]` share an entry;
//! * the **processor count and memory limit**;
//! * the **cost-model digest** ([`tce_cost::CostModel::digest`]), which
//!   folds in the machine parameters and the full `RCost`
//!   characterization tables, so a plan memoized for one machine profile
//!   can never be served for another;
//! * a **configuration digest** over every `OptimizerConfig` knob that
//!   can change the stored outcome (search-space switches, warm upper bound,
//!   pins and output layout in canonical numbering);
//! * the **code version**.
//!
//! ## Trust model: validate on load, never on faith
//!
//! A cache entry is *advice*, not truth. On every hit the stored plan is
//! rename-mapped onto the live tree through the canonical-form bijection
//! and re-validated by the registered plan checker (the full `tce-check`
//! pass registry with the live cost model and memory limit — which
//! recomputes every redistribution/rotation cost bit-exactly and re-adds
//! the ledger). Any mismatch — parse failure, stale schema or code
//! version, foreign characterization digest, or a plan that no longer
//! checks — **evicts the entry with a reason-specific counter and falls
//! back to a fresh search**. Corruption can cost time, never
//! correctness, and never silently.
//!
//! ## Layout
//!
//! One JSON file per entry, named by the hex key digest, in a flat
//! directory (default `~/.cache/tce`, overridable with `--plan-cache`).
//! Every entry is written to a per-writer temp file and renamed into
//! place, so concurrent clients never read a torn entry. The persistent
//! hit/miss/eviction totals shown by `tce cache stats` live in the
//! append-only journal `stats.log`: one counter-name line per event, each
//! added by a single `write` to a file opened for appending, so concurrent
//! processes never lose one another's counts. A `stats.json` left by a
//! `v3` build is ignored.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use tce_cost::CostModel;
use tce_dist::Distribution;
use tce_expr::{canonical_form, CanonicalForm, ExprTree, Fnv128, IndexId, NodeId};
use tce_fusion::FusionPrefix;

use crate::check::check_plan;
use crate::dp::{NodeStats, Optimized, OptimizerConfig};
use crate::plan::{ExecutionPlan, PlanOperand, PlanStep};

/// Schema stamp written into every entry; bump on any incompatible
/// change to the entry layout or the key digest.
pub const PLAN_CACHE_SCHEMA: &str = "tce-plan-cache/v4";

/// Code version stamp: entries written by another build are evicted
/// (`cache.evict_version`) rather than trusted across releases.
const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

fn hex128(v: u128) -> String {
    format!("{v:032x}")
}

/// The fully resolved cache key for one optimization request, plus the
/// canonical form used to translate plans between the entry's canonical
/// ids and the live tree.
pub struct CacheKey {
    /// Canonical (commutative, rename-invariant) expression hash.
    pub expr_hash: u128,
    /// Processor count of the target grid.
    pub procs: u32,
    /// Resolved per-processor memory limit (words).
    pub mem_limit_words: u128,
    /// [`CostModel::digest`] — machine + characterization + grid.
    pub cost_digest: u128,
    /// Digest over every result-relevant [`OptimizerConfig`] knob.
    pub cfg_digest: u128,
    form: CanonicalForm,
}

impl CacheKey {
    /// The entry file name: hex digest over every key component.
    pub fn file_name(&self) -> String {
        let mut h = Fnv128::new();
        h.write_u128(self.expr_hash);
        h.write_u32(self.procs);
        h.write_u128(self.mem_limit_words);
        h.write_u128(self.cost_digest);
        h.write_u128(self.cfg_digest);
        format!("{}.json", hex128(h.finish()))
    }
}

/// Compute the cache key for `(tree, cm, cfg)`, or `None` when the
/// request is not cacheable: pinned fusion/pattern baselines key by raw
/// node ids (not subtree structure), and a pin or output index that does
/// not map into the canonical numbering would make the key ambiguous.
pub fn cache_key(tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig) -> Option<CacheKey> {
    if cfg.fixed_fusion.is_some() || cfg.fixed_patterns.is_some() {
        return None;
    }
    let form = canonical_form(tree);
    let number: HashMap<IndexId, u32> =
        form.index_order.iter().enumerate().map(|(n, &ix)| (ix, n as u32)).collect();
    let mut h = Fnv128::new();
    h.write_u64(cfg.max_prefix_len as u64);
    let mut flags = 0u64;
    for (bit, on) in [
        cfg.allow_replication,
        cfg.allow_unrelated_rotation,
        cfg.disable_pruning,
        cfg.disable_lower_bounds,
    ]
    .into_iter()
    .enumerate()
    {
        if on {
            flags |= 1 << bit;
        }
    }
    h.write_u64(flags);
    match cfg.warm_upper_bound {
        None => h.write(&[0]),
        Some(ub) => {
            h.write(&[1]);
            h.write_u64(ub.to_bits());
        }
    }
    // Canonical output-layout signature.
    fn dist_sig(h: &mut Fnv128, d: Distribution, number: &HashMap<IndexId, u32>) -> Option<()> {
        for half in [d.d1, d.d2] {
            match half {
                None => h.write(&[0]),
                Some(ix) => {
                    h.write(&[1]);
                    h.write_u32(*number.get(&ix)?);
                }
            }
        }
        Some(())
    }
    match cfg.output_dist {
        None => h.write(&[0]),
        Some(d) => {
            h.write(&[1]);
            dist_sig(&mut h, d, &number)?;
        }
    }
    // Canonical pin signature: one slot per leaf in canonical node order.
    for &node in &form.node_order {
        let n = tree.node(node);
        if !n.is_leaf() {
            continue;
        }
        match cfg.input_dists.get(&n.tensor.name) {
            None => h.write(&[0]),
            Some(&d) => {
                h.write(&[2]);
                dist_sig(&mut h, d, &number)?;
            }
        }
    }
    Some(CacheKey {
        expr_hash: form.hash,
        procs: cm.grid.num_procs(),
        mem_limit_words: cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words()),
        cost_digest: cm.digest(),
        cfg_digest: h.finish(),
        form,
    })
}

/// One stored per-node statistics row, keyed by canonical node position
/// (the live tree's postorder may visit commuted operands in a different
/// order than the tree the entry was stored from).
#[derive(Serialize, Deserialize)]
struct StoredNodeStats {
    position: u32,
    candidates: u64,
    pruned_inferior: u64,
    pruned_memory: u64,
    redist_fallbacks: u64,
    live: u64,
    keys: u64,
    widest_front: u64,
    arena_hw_bytes: u64,
    floor_exact: bool,
}

#[derive(Serialize, Deserialize)]
struct CounterRow {
    name: String,
    value: u64,
}

/// The on-disk entry. The plan (and statistics) are stored in canonical
/// ids — node ids are canonical positions, index ids canonical numbers,
/// array names the placeholder `n<position>` — so one entry serves every
/// isomorphic rendering of the expression.
#[derive(Serialize, Deserialize)]
struct Entry {
    schema: String,
    code_version: String,
    expr_hash: String,
    procs: u32,
    mem_limit_words: u128,
    cost_digest: String,
    cfg_digest: String,
    /// The canonical expression rendered back to `.tce` source
    /// (placeholder names), so `tce cache verify` can rebuild the tree
    /// and run the full plan checker without the original workload file.
    workload: String,
    plan: ExecutionPlan,
    comm_cost: f64,
    mem_words: u128,
    max_msg_words: u128,
    output_redist_cost: f64,
    comm_lower_bound: f64,
    comm_floor_exact: bool,
    arena_hw_bytes: u64,
    counters: Vec<CounterRow>,
    stats: Vec<StoredNodeStats>,
}

/// A successful cache hit: the plan rename-mapped onto the live tree and
/// a synthetic [`Optimized`] carrying the stored scalars, counters, and
/// per-node statistics verbatim.
///
/// `opt.sets` is empty — a cached run has no solution frontiers, so
/// callers must not feed it to `extract_plan` / `explain` /
/// `root_frontier` (the plan is already here).
pub struct CachedRun {
    /// The re-validated plan in live-tree ids and names.
    pub plan: ExecutionPlan,
    /// Synthetic optimization outcome (empty `sets`).
    pub opt: Optimized,
}

/// What a lookup did, for observability: `cache.hit`, `cache.miss`, and
/// (on an eviction) the reason counter that preceded the miss.
pub struct LookupOutcome {
    /// The hit, if the entry survived validation.
    pub run: Option<Box<CachedRun>>,
    /// `tce_obs::names::CACHE_EVICT_*` when the invalid entry was deleted
    /// (`None` when another process replaced it first).
    pub evicted: Option<&'static str>,
}

/// The counter journal's file name in the cache directory.
const JOURNAL: &str = "stats.log";

/// The counters the journal records, in `tce cache stats` order.
const JOURNAL_COUNTERS: [&str; 7] = [
    tce_obs::names::CACHE_HIT,
    tce_obs::names::CACHE_MISS,
    tce_obs::names::CACHE_STORE,
    tce_obs::names::CACHE_EVICT_CORRUPT,
    tce_obs::names::CACHE_EVICT_VERSION,
    tce_obs::names::CACHE_EVICT_DIGEST,
    tce_obs::names::CACHE_EVICT_PLAN,
];

/// Aggregate cache state for `tce cache stats`.
pub struct CacheStats {
    /// Entry files present.
    pub entries: u64,
    /// Total bytes of entry files.
    pub bytes: u64,
    /// Persistent `(counter name, total)` pairs, fixed order.
    pub counters: Vec<(&'static str, u64)>,
}

/// Per-entry outcome of `tce cache verify`.
pub struct VerifyOutcome {
    /// Entry file name.
    pub file: String,
    /// `Ok` description or the failure reason.
    pub result: Result<String, String>,
}

/// Handle to one on-disk cache directory.
pub struct PlanCache {
    dir: PathBuf,
}

impl PlanCache {
    /// Open (without creating) the cache at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The platform default directory: `$XDG_CACHE_HOME/tce`, else
    /// `$HOME/.cache/tce`, else `None` (cache disabled).
    pub fn default_location() -> Option<PathBuf> {
        if let Some(x) = std::env::var_os("XDG_CACHE_HOME") {
            if !x.is_empty() {
                return Some(PathBuf::from(x).join("tce"));
            }
        }
        let home = std::env::var_os("HOME")?;
        if home.is_empty() {
            return None;
        }
        Some(PathBuf::from(home).join(".cache").join("tce"))
    }

    /// The directory this handle points at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Append one `counter` event to the journal: a single `write` of one
    /// line to a file opened for appending, so concurrent appends from
    /// any number of processes all land. Best effort, like the cache.
    fn record(&self, counter: &'static str) {
        use std::io::Write as _;
        let path = self.dir.join(JOURNAL);
        let open = || std::fs::OpenOptions::new().create(true).append(true).open(&path);
        let file = open().or_else(|_| std::fs::create_dir_all(&self.dir).and_then(|()| open()));
        if let Ok(mut f) = file {
            let _ = f.write_all(format!("{counter}\n").as_bytes());
        }
    }

    /// Look the key up, validating any entry found. An invalid entry is
    /// evicted — the file deleted and the reason recorded — and the lookup
    /// reports a miss: corruption costs time, never a wrong plan and never
    /// silence. Only the bytes that failed validation are deleted: an entry
    /// another process stored in the meantime survives, and then no
    /// eviction is counted.
    pub fn lookup(&self, tree: &ExprTree, cm: &CostModel, key: &CacheKey) -> LookupOutcome {
        let path = self.entry_path(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.record(tce_obs::names::CACHE_MISS);
            return LookupOutcome { run: None, evicted: None };
        };
        let evict = |reason: &'static str| {
            let evicted = evict_if_unchanged(&path, &text).then_some(reason);
            if let Some(reason) = evicted {
                self.record(reason);
            }
            self.record(tce_obs::names::CACHE_MISS);
            LookupOutcome { run: None, evicted }
        };
        let entry: Entry = match serde_json::from_str(&text) {
            Ok(e) => e,
            Err(_) => return evict(tce_obs::names::CACHE_EVICT_CORRUPT),
        };
        if entry.schema != PLAN_CACHE_SCHEMA || entry.code_version != CODE_VERSION {
            return evict(tce_obs::names::CACHE_EVICT_VERSION);
        }
        if entry.cost_digest != hex128(key.cost_digest) {
            return evict(tce_obs::names::CACHE_EVICT_DIGEST);
        }
        if entry.expr_hash != hex128(key.expr_hash)
            || entry.procs != key.procs
            || entry.mem_limit_words != key.mem_limit_words
            || entry.cfg_digest != hex128(key.cfg_digest)
        {
            return evict(tce_obs::names::CACHE_EVICT_CORRUPT);
        }
        let Some(run) = instantiate(tree, cm, key, &entry) else {
            return evict(tce_obs::names::CACHE_EVICT_PLAN);
        };
        self.record(tce_obs::names::CACHE_HIT);
        LookupOutcome { run: Some(Box::new(run)), evicted: None }
    }

    /// Persist a fresh outcome under `key` (atomic write).
    pub fn store(
        &self,
        tree: &ExprTree,
        key: &CacheKey,
        plan: &ExecutionPlan,
        opt: &Optimized,
    ) -> Result<(), String> {
        let position: HashMap<NodeId, u32> =
            key.form.node_order.iter().enumerate().map(|(p, &n)| (n, p as u32)).collect();
        let number: HashMap<IndexId, u32> =
            key.form.index_order.iter().enumerate().map(|(n, &ix)| (ix, n as u32)).collect();
        let canon_plan = plan_to_canonical(plan, &position, &number)
            .ok_or_else(|| "plan does not map onto the canonical form".to_string())?;
        let mut stats = Vec::with_capacity(opt.stats.len());
        let internal: Vec<NodeId> =
            tree.postorder().into_iter().filter(|&n| !tree.node(n).is_leaf()).collect();
        if internal.len() != opt.stats.len() {
            return Err("statistics do not cover the internal nodes".to_string());
        }
        for (node, s) in internal.iter().zip(&opt.stats) {
            let Some(&p) = position.get(node) else {
                return Err("internal node outside the canonical form".to_string());
            };
            stats.push(StoredNodeStats {
                position: p,
                candidates: s.candidates,
                pruned_inferior: s.pruned_inferior,
                pruned_memory: s.pruned_memory,
                redist_fallbacks: s.redist_fallbacks,
                live: s.live as u64,
                keys: s.keys as u64,
                widest_front: s.widest_front as u64,
                arena_hw_bytes: s.arena_hw_bytes,
                floor_exact: s.floor_exact,
            });
        }
        let mut counters: Vec<CounterRow> = opt
            .counters
            .iter()
            .map(|(name, value)| CounterRow { name: name.to_string(), value })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let entry = Entry {
            schema: PLAN_CACHE_SCHEMA.to_string(),
            code_version: CODE_VERSION.to_string(),
            expr_hash: hex128(key.expr_hash),
            procs: key.procs,
            mem_limit_words: key.mem_limit_words,
            cost_digest: hex128(key.cost_digest),
            cfg_digest: hex128(key.cfg_digest),
            workload: canonical_source(tree, &key.form)
                .ok_or_else(|| "tree does not render canonically".to_string())?,
            plan: canon_plan,
            comm_cost: opt.comm_cost,
            mem_words: opt.mem_words,
            max_msg_words: opt.max_msg_words,
            output_redist_cost: opt.output_redist_cost,
            comm_lower_bound: opt.comm_lower_bound,
            comm_floor_exact: opt.comm_floor_exact,
            arena_hw_bytes: opt.arena_hw_bytes,
            counters,
            stats,
        };
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating plan cache {}: {e}", self.dir.display()))?;
        let json = serde_json::to_string_pretty(&entry).map_err(|e| e.to_string())?;
        atomic_write(&self.entry_path(key), &json)
            .map_err(|e| format!("writing plan cache entry: {e}"))?;
        self.record(tce_obs::names::CACHE_STORE);
        Ok(())
    }

    fn entry_files(&self) -> Vec<PathBuf> {
        let Ok(rd) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut files: Vec<PathBuf> = rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                // A `v3` build's counter file is not an entry.
                p.extension().is_some_and(|x| x == "json")
                    && p.file_name().is_some_and(|n| n != "stats.json")
            })
            .collect();
        files.sort();
        files
    }

    /// Entry count, byte total, and the persistent counters (the
    /// journal's lines per counter name).
    pub fn stats(&self) -> CacheStats {
        let files = self.entry_files();
        let bytes = files.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
        let journal = std::fs::read_to_string(self.dir.join(JOURNAL)).unwrap_or_default();
        let mut counters: Vec<(&'static str, u64)> =
            JOURNAL_COUNTERS.iter().map(|&n| (n, 0)).collect();
        for line in journal.lines() {
            if let Some(c) = counters.iter_mut().find(|(n, _)| *n == line) {
                c.1 += 1;
            }
        }
        CacheStats { entries: files.len() as u64, bytes, counters }
    }

    /// Re-check every stored entry: parse, stamps, and — by rebuilding
    /// the canonical workload and rename-mapping the plan onto it — the
    /// full model-free plan-check registry. Returns one outcome per
    /// entry file.
    pub fn verify(&self) -> Vec<VerifyOutcome> {
        self.entry_files()
            .into_iter()
            .map(|path| {
                let file =
                    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                VerifyOutcome { result: verify_entry(&path), file }
            })
            .collect()
    }

    /// Delete every entry file, the counter journal (and a `v3`
    /// `stats.json`) and any temp file a killed writer left behind;
    /// returns how many entries were removed.
    pub fn clear(&self) -> Result<u64, String> {
        let files = self.entry_files();
        let mut removed = 0u64;
        for f in &files {
            std::fs::remove_file(f).map_err(|e| format!("removing {}: {e}", f.display()))?;
            removed += 1;
        }
        let _ = std::fs::remove_file(self.dir.join(JOURNAL));
        let _ = std::fs::remove_file(self.dir.join("stats.json"));
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for p in rd.flatten().map(|e| e.path()) {
                if p.extension().is_some_and(|x| x == "tmp") {
                    let _ = std::fs::remove_file(p);
                }
            }
        }
        Ok(removed)
    }
}

/// A temp-file name next to `path`, unique per call (pid plus a
/// process-wide sequence number), so concurrent users of one file,
/// threads or processes, never share a temp file. `tce cache clear`
/// removes any a killed process left behind.
fn unique_tmp(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{}.tmp", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
    path.with_file_name(name)
}

/// Write `text` to `path` through a temp file and a rename, so readers
/// see the old file or the new one, never a mix.
fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = unique_tmp(path);
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Delete the entry at `path` only if it still holds `text`, the bytes
/// that failed validation; returns whether they were deleted. The file is
/// first renamed to a private quarantine name, so no other process can
/// replace it while it is compared. If it is not `text` — another process
/// stored a fresh entry after `text` was read — it is linked back to
/// `path`, which fails harmlessly when a still newer entry is already
/// there, and the quarantine name is removed either way.
///
/// Cold and never inlined: eviction is the rare path, and inlined into
/// [`PlanCache::lookup`] it cost every warm hit about a millisecond.
#[cold]
#[inline(never)]
fn evict_if_unchanged(path: &Path, text: &str) -> bool {
    let quarantine = unique_tmp(path);
    if std::fs::rename(path, &quarantine).is_err() {
        return false; // already gone: another process evicted it
    }
    let unchanged = std::fs::read(&quarantine).is_ok_and(|bytes| bytes == text.as_bytes());
    if !unchanged {
        let _ = std::fs::hard_link(&quarantine, path);
    }
    let _ = std::fs::remove_file(&quarantine);
    unchanged
}

/// Validate one entry file against its own embedded canonical workload.
fn verify_entry(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let entry: Entry = serde_json::from_str(&text).map_err(|e| format!("corrupt JSON: {e}"))?;
    if entry.schema != PLAN_CACHE_SCHEMA {
        return Err(format!("stale schema `{}`", entry.schema));
    }
    if entry.code_version != CODE_VERSION {
        return Err(format!("stale code version `{}`", entry.code_version));
    }
    let tree = tce_expr::parse(&entry.workload)
        .map_err(|e| format!("embedded workload does not parse: {e}"))?
        .to_sequence()
        .map_err(|e| format!("embedded workload is malformed: {e}"))?
        .to_tree()
        .map_err(|e| format!("embedded workload has no tree: {e}"))?;
    let form = canonical_form(&tree);
    if hex128(form.hash) != entry.expr_hash {
        return Err("embedded workload does not match the stored expression hash".to_string());
    }
    let plan = plan_from_canonical(&entry.plan, &tree, &form)
        .ok_or("plan does not map onto the canonical form")?;
    check_plan(&tree, &plan, None, None)
        .to_result()
        .map_err(|e| format!("plan fails static checks:\n{e}"))?;
    Ok(format!("{} steps, comm {:.3} s", plan.steps.len(), plan.comm_cost))
}

/// Rebuild a [`CachedRun`] from a validated-looking entry; `None` sends
/// the caller down the `cache.evict_plan` path.
fn instantiate(
    tree: &ExprTree,
    cm: &CostModel,
    key: &CacheKey,
    entry: &Entry,
) -> Option<CachedRun> {
    let plan = plan_from_canonical(&entry.plan, tree, &key.form)?;
    // The gate: full static re-validation with the live cost model and
    // memory limit — the cost passes recompute every redistribution and
    // rotation bit-exactly and re-add the ledger.
    if !check_plan(tree, &plan, Some(cm), Some(key.mem_limit_words)).is_clean() {
        return None;
    }
    // The checker only sees the plan; tie the headline scalars to it so a
    // corrupted `comm_cost`/footprint cannot outlive plan validation.
    let drift = (entry.comm_cost - (plan.comm_cost + entry.output_redist_cost)).abs();
    if drift > 1e-9 * plan.comm_cost.abs().max(1.0)
        || entry.mem_words != plan.mem_words
        || entry.max_msg_words != plan.max_msg_words
    {
        return None;
    }
    let mut counters = tce_obs::Counters::new();
    for row in &entry.counters {
        counters.add(tce_obs::names::intern(&row.name)?, row.value);
    }
    let by_position: HashMap<u32, &StoredNodeStats> =
        entry.stats.iter().map(|s| (s.position, s)).collect();
    if by_position.len() != entry.stats.len() {
        return None; // duplicate positions
    }
    let mut stats = Vec::with_capacity(entry.stats.len());
    for node in tree.postorder() {
        if tree.node(node).is_leaf() {
            continue;
        }
        let s = by_position.get(&key.form.position_of(node)?)?;
        stats.push(NodeStats {
            name: tree.node(node).tensor.name.clone(),
            candidates: s.candidates,
            pruned_inferior: s.pruned_inferior,
            pruned_memory: s.pruned_memory,
            redist_fallbacks: s.redist_fallbacks,
            live: s.live as usize,
            keys: s.keys as usize,
            widest_front: s.widest_front as usize,
            arena_hw_bytes: s.arena_hw_bytes,
            floor_exact: s.floor_exact,
        });
    }
    if stats.len() != entry.stats.len() {
        return None; // stored stats do not cover the internal nodes
    }
    let opt = Optimized {
        comm_cost: entry.comm_cost,
        mem_words: entry.mem_words,
        max_msg_words: entry.max_msg_words,
        sets: HashMap::new(),
        best_index: 0,
        output_redist_cost: entry.output_redist_cost,
        stats,
        arena_hw_bytes: entry.arena_hw_bytes,
        counters,
        worker_busy_us: Default::default(),
        comm_lower_bound: entry.comm_lower_bound,
        comm_floor_exact: entry.comm_floor_exact,
        lifted: None,
    };
    Some(CachedRun { plan, opt })
}

fn map_dist(d: Distribution, f: &impl Fn(IndexId) -> Option<IndexId>) -> Option<Distribution> {
    let half = |h: Option<IndexId>| -> Option<Option<IndexId>> {
        match h {
            None => Some(None),
            Some(ix) => f(ix).map(Some),
        }
    };
    Some(Distribution { d1: half(d.d1)?, d2: half(d.d2)? })
}

fn map_fusion(p: &FusionPrefix, f: &impl Fn(IndexId) -> Option<IndexId>) -> Option<FusionPrefix> {
    let ids: Vec<IndexId> = p.iter().map(f).collect::<Option<_>>()?;
    // `FusionPrefix::new` rejects duplicates by panicking; an entry is
    // untrusted input, so pre-check and fail the mapping instead.
    for (i, a) in ids.iter().enumerate() {
        if ids[..i].contains(a) {
            return None;
        }
    }
    Some(FusionPrefix::new(ids))
}

fn map_plan(
    plan: &ExecutionPlan,
    node: &impl Fn(NodeId) -> Option<NodeId>,
    ix: &impl Fn(IndexId) -> Option<IndexId>,
    name: &impl Fn(NodeId) -> String,
) -> Option<ExecutionPlan> {
    let mut steps = Vec::with_capacity(plan.steps.len());
    for s in &plan.steps {
        let n = node(s.node)?;
        let mut pattern = s.pattern;
        if let Some(p) = &mut pattern {
            let half = |h: Option<IndexId>| -> Option<Option<IndexId>> {
                match h {
                    None => Some(None),
                    Some(i) => ix(i).map(Some),
                }
            };
            p.i = half(p.i)?;
            p.j = half(p.j)?;
            p.k = half(p.k)?;
        }
        let mut operands = Vec::with_capacity(s.operands.len());
        for o in &s.operands {
            let on = node(o.node)?;
            operands.push(PlanOperand {
                node: on,
                name: name(on),
                required_dist: map_dist(o.required_dist, ix)?,
                produced_dist: map_dist(o.produced_dist, ix)?,
                fusion: map_fusion(&o.fusion, ix)?,
                redist_cost: o.redist_cost,
                rotate_cost: o.rotate_cost,
                is_leaf: o.is_leaf,
            });
        }
        steps.push(PlanStep {
            node: n,
            result_name: name(n),
            pattern,
            result_dist: map_dist(s.result_dist, ix)?,
            result_fusion: map_fusion(&s.result_fusion, ix)?,
            result_rotate_cost: s.result_rotate_cost,
            surrounding: map_fusion(&s.surrounding, ix)?,
            operands,
        });
    }
    Some(ExecutionPlan {
        steps,
        comm_cost: plan.comm_cost,
        mem_words: plan.mem_words,
        max_msg_words: plan.max_msg_words,
    })
}

fn plan_to_canonical(
    plan: &ExecutionPlan,
    position: &HashMap<NodeId, u32>,
    number: &HashMap<IndexId, u32>,
) -> Option<ExecutionPlan> {
    map_plan(
        plan,
        &|n| position.get(&n).map(|&p| NodeId(p)),
        &|i| number.get(&i).map(|&x| IndexId(x)),
        &|n| format!("n{}", n.0),
    )
}

fn plan_from_canonical(
    stored: &ExecutionPlan,
    tree: &ExprTree,
    form: &CanonicalForm,
) -> Option<ExecutionPlan> {
    let mut plan = map_plan(
        stored,
        &|n| form.node_order.get(n.0 as usize).copied(),
        &|i| form.index_order.get(i.0 as usize).copied(),
        &|n| tree.node(n).tensor.name.clone(),
    )?;
    align_operands(tree, &mut plan)?;
    Some(plan)
}

/// Restore the `operands[0] == left child` invariant on a remapped plan.
///
/// Two isomorphic trees share one canonical form, but the canonical
/// walk's chosen operand order for a commutative contraction may mirror
/// this tree's declared order. A mirrored step arrives with its operand
/// entries swapped relative to `tree.children`, and the Cannon pattern's
/// `I`/`J` groups mirrored with them. Transposing both is an exact
/// relabeling: for every participant array `operand_dist`, the rotating
/// role, and the travel dimension are preserved, so the recomputed costs
/// and layouts are bit-identical to the stored ones.
fn align_operands(tree: &ExprTree, plan: &mut ExecutionPlan) -> Option<()> {
    use tce_dist::Role;
    for step in &mut plan.steps {
        let children = tree.children(step.node);
        if children.len() != 2 || step.operands.len() != 2 {
            continue;
        }
        if step.operands[0].node == children[0] && step.operands[1].node == children[1] {
            continue;
        }
        if step.operands[0].node != children[1] || step.operands[1].node != children[0] {
            return None; // not a permutation of this node's children
        }
        step.operands.swap(0, 1);
        if let Some(p) = &mut step.pattern {
            std::mem::swap(&mut p.i, &mut p.j);
            let flip = |r: Role| match r {
                Role::I => Role::J,
                Role::J => Role::I,
                Role::K => Role::K,
            };
            p.assign.dim1 = flip(p.assign.dim1);
            p.assign.dim2 = flip(p.assign.dim2);
        }
    }
    Some(())
}

/// Render the canonical form of the tree back to parseable `.tce` source
/// with placeholder names (`x<number>` indices, `n<position>` arrays) —
/// the expression record `tce cache verify` rebuilds and checks against.
/// `None` when the form does not cover the tree.
fn canonical_source(tree: &ExprTree, form: &CanonicalForm) -> Option<String> {
    let number: HashMap<IndexId, usize> =
        form.index_order.iter().enumerate().map(|(n, &ix)| (ix, n)).collect();
    let position: HashMap<NodeId, usize> =
        form.node_order.iter().enumerate().map(|(p, &n)| (n, p)).collect();
    let (inputs, statements): (Vec<NodeId>, Vec<NodeId>) =
        form.node_order.iter().partition(|&&n| tree.node(n).is_leaf());
    let uncovered = std::cell::Cell::new(false);
    let name = |prefix: char, found: Option<&usize>| match found {
        Some(x) => format!("{prefix}{x}"),
        None => {
            uncovered.set(true);
            String::new()
        }
    };
    let src = tce_expr::printer::render_tce(
        tree,
        &tce_expr::printer::TceLayout {
            ranges: &form.index_order,
            inputs: &inputs,
            statements: &statements,
            index_name: &|ix| name('x', number.get(&ix)),
            array_name: &|n| name('n', position.get(&n)),
            swapped: &|_| false,
        },
    );
    (!uncovered.get()).then_some(src)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tce-evict-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn leftovers(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn eviction_deletes_the_bytes_that_failed_validation() {
        let dir = fresh_dir("same");
        let path = dir.join("k.json");
        std::fs::write(&path, "corrupt").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(evict_if_unchanged(&path, &text));
        assert!(leftovers(&dir).is_empty(), "{:?}", leftovers(&dir));
        // A second evictor finds nothing to delete and counts nothing.
        assert!(!evict_if_unchanged(&path, &text));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_replaced_between_read_and_evict_survives() {
        let dir = fresh_dir("replaced");
        let path = dir.join("k.json");
        std::fs::write(&path, "corrupt").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Another process stores a fresh entry after the read.
        atomic_write(&path, "fresh entry").unwrap();
        assert!(!evict_if_unchanged(&path, &text), "a replaced entry is not an eviction");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "fresh entry");
        assert_eq!(leftovers(&dir), ["k.json"], "the quarantine name is removed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
