//! Level-2 on-disk plan cache: round-trip bit-identity, rename-invariant
//! hits, the eviction ladder, and concurrent writers.

use std::path::PathBuf;

use tce_core::{
    cache_key, extract_plan, optimize, validate_plan, ExecutionPlan, OptimizerConfig, PlanCache,
    PLAN_CACHE_SCHEMA,
};
use tce_cost::{CostModel, MachineModel};
use tce_expr::examples::{ccsd_tree, PaperExtents};
use tce_expr::{parse, ExprTree};

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tce-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tree_of(src: &str) -> ExprTree {
    parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap()
}

const CHAIN: &str = "\
range a, b, c, d = 16;
T1[a,c] = sum[b] A[a,b] * B[b,c];
T2[a,d] = sum[c] T1[a,c] * C[c,d];
";

/// The same contraction with every index renamed and both contractions'
/// operands commuted — must map to the same cache entry.
const CHAIN_RENAMED: &str = "\
range p, q, r, s = 16;
U1[p,r] = sum[q] Y[q,r] * X[p,q];
U2[p,s] = sum[r] Z[r,s] * U1[p,r];
";

const CHAIN_INPUTS: &str = "input A[a,b]; input B[b,c]; input C[c,d];\n";
const CHAIN_RENAMED_INPUTS: &str = "input X[p,q]; input Y[q,r]; input Z[r,s];\n";

fn with_inputs(ranges_then_stmts: &str, inputs: &str) -> String {
    let (first, rest) = ranges_then_stmts.split_once('\n').unwrap();
    format!("{first}\n{inputs}{rest}")
}

/// Round trip under the default search space and the enlarged one
/// (replication + unrelated rotation).
#[test]
fn store_then_lookup_is_bit_identical() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let base = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let enlarged =
        OptimizerConfig { allow_replication: true, allow_unrelated_rotation: true, ..base.clone() };
    for (tag, cfg) in [("roundtrip", base), ("roundtrip-enlarged", enlarged)] {
        let opt = optimize(&tree, &cm, &cfg).unwrap();
        let plan = extract_plan(&tree, &opt);
        // Every CHAIN array has two dimensions, so only the enlarged space
        // can leave a grid dimension undistributed: the enlarged input must
        // really round-trip a replicated plan, not repeat the base one.
        let replicated = plan.steps.iter().any(|s| {
            std::iter::once(s.result_dist)
                .chain(s.operands.iter().flat_map(|o| [o.required_dist, o.produced_dist]))
                .any(|d| d.d1.is_none() || d.d2.is_none())
        });
        assert_eq!(replicated, cfg.allow_replication, "{tag}: replicated layout in plan");

        let cache = PlanCache::at(tmp_cache(tag));
        let key = cache_key(&tree, &cm, &cfg).expect("cacheable");
        // Cold: miss.
        assert!(cache.lookup(&tree, &cm, &key).run.is_none(), "{tag}");
        cache.store(&tree, &key, &plan, &opt).unwrap();
        // Warm: hit, bit-identical.
        let hit = cache.lookup(&tree, &cm, &key).run.expect("warm hit");
        assert_eq!(hit.plan.to_json(), plan.to_json(), "{tag}");
        assert_eq!(hit.opt.comm_cost.to_bits(), opt.comm_cost.to_bits(), "{tag}");
        assert_eq!(hit.opt.mem_words, opt.mem_words, "{tag}");
        assert_eq!(hit.opt.max_msg_words, opt.max_msg_words, "{tag}");
        assert_eq!(hit.opt.output_redist_cost.to_bits(), opt.output_redist_cost.to_bits());
        assert_eq!(hit.opt.comm_lower_bound.to_bits(), opt.comm_lower_bound.to_bits());
        assert_eq!(hit.opt.comm_floor_exact, opt.comm_floor_exact, "{tag}");
        assert_eq!(hit.opt.arena_hw_bytes, opt.arena_hw_bytes, "{tag}");
        assert_eq!(format!("{:?}", hit.opt.stats), format!("{:?}", opt.stats), "{tag}");
        for (name, value) in opt.counters.iter() {
            assert_eq!(hit.opt.counters.get(name), value, "{tag}: counter {name} diverged");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "{tag}");
        assert!(stats.bytes > 0, "{tag}");
        // Persistent totals recorded across the calls above.
        assert_eq!(counter(&cache, "cache.hit"), 1, "{tag}");
        assert_eq!(counter(&cache, "cache.miss"), 1, "{tag}");
        assert_eq!(counter(&cache, "cache.store"), 1, "{tag}");
        // verify() accepts the entry; clear() empties the directory.
        let verified = cache.verify();
        assert_eq!(verified.len(), 1, "{tag}");
        verified[0].result.as_ref().unwrap();
        assert_eq!(cache.clear().unwrap(), 1, "{tag}");
        assert_eq!(cache.stats().entries, 0, "{tag}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}

#[test]
fn renamed_commuted_expression_hits_same_entry() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let renamed = tree_of(&with_inputs(CHAIN_RENAMED, CHAIN_RENAMED_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let key2 = cache_key(&renamed, &cm, &cfg).unwrap();
    assert_eq!(key.expr_hash, key2.expr_hash, "canonical hashes differ");
    assert_eq!(key.file_name(), key2.file_name());

    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("rename"));
    cache.store(&tree, &key, &plan, &opt).unwrap();

    // The mapped plan must be valid on the renamed tree and match the
    // fresh optimum's cost bit-for-bit. (The *plans* may be mirror
    // images: fresh search enumerates operands in declared order, so a
    // commuted source can legally pick the symmetric equal-cost layout.)
    let hit = cache.lookup(&renamed, &cm, &key2).run.expect("isomorphic hit");
    validate_plan(&renamed, &hit.plan).unwrap();
    let fresh = optimize(&renamed, &cm, &cfg).unwrap();
    assert_eq!(hit.opt.comm_cost.to_bits(), fresh.comm_cost.to_bits());
    assert_eq!(hit.plan.comm_cost.to_bits(), extract_plan(&renamed, &fresh).comm_cost.to_bits());
    assert_eq!(hit.opt.mem_words, fresh.mem_words);
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn corrupt_and_stale_entries_are_evicted() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("evict"));
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let path = cache.dir().join(key.file_name());

    // Truncated JSON → evict_corrupt.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert!(out.run.is_none());
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_CORRUPT));
    assert!(!path.exists(), "evicted entry must be deleted");

    // Stale version stamp → evict_version.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace(PLAN_CACHE_SCHEMA, "tce-plan-cache/v0")).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_VERSION));

    // Foreign characterization digest → evict_digest.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let digest = format!("{:032x}", key.cost_digest);
    std::fs::write(&path, text.replace(&digest, &format!("{:032x}", !key.cost_digest))).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_DIGEST));

    // A plan failing validation → evict_plan. Break a stored step cost so
    // the ledger no longer adds up.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let cost = format!("{:?}", plan.comm_cost);
    let broken = text.replacen(&cost, &format!("{:?}", plan.comm_cost + 7.5), 1);
    assert_ne!(broken, text, "fixture must actually change the entry");
    std::fs::write(&path, broken).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_PLAN));

    // After every eviction the persistent totals tell the story.
    assert_eq!(counter(&cache, "cache.evict_corrupt"), 1);
    assert_eq!(counter(&cache, "cache.evict_version"), 1);
    assert_eq!(counter(&cache, "cache.evict_digest"), 1);
    assert_eq!(counter(&cache, "cache.evict_plan"), 1);
    assert_eq!(counter(&cache, "cache.store"), 4);
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// The load gate re-prices every cost term, not just the ledger sum: an
/// entry whose step ledger, headline and footprint all still add up but
/// whose rotation is charged to the wrong array is evicted as a bad plan.
#[test]
fn misattributed_rotation_cost_is_evicted() {
    let tree = ccsd_tree(PaperExtents::tiny());
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
    let cfg = OptimizerConfig { threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("misattributed"));
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let path = cache.dir().join(key.file_name());
    cache.store(&tree, &key, &plan, &opt).unwrap();

    // Move half of one operand's rotation cost onto its step's result.
    let mut entry: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let stored = serde_json::to_string(entry.get("plan").unwrap()).unwrap();
    let mut stored = ExecutionPlan::from_json(&stored).unwrap();
    let step = stored
        .steps
        .iter_mut()
        .find(|s| s.operands.iter().any(|o| o.rotate_cost > 0.0))
        .expect("a step rotates an operand");
    let op = step.operands.iter_mut().find(|o| o.rotate_cost > 0.0).unwrap();
    let moved = op.rotate_cost / 2.0;
    op.rotate_cost -= moved;
    step.result_rotate_cost += moved;
    let ledger = stored.sum_step_comm();
    assert!((ledger - stored.comm_cost).abs() <= 1e-9 * stored.comm_cost, "ledger must add up");
    assert_eq!((stored.mem_words, stored.max_msg_words), (plan.mem_words, plan.max_msg_words));
    entry.insert("plan", serde_json::from_str(&stored.to_json()).unwrap());
    std::fs::write(&path, serde_json::to_string_pretty(&entry).unwrap()).unwrap();

    let out = cache.lookup(&tree, &cm, &key);
    assert!(out.run.is_none(), "misattributed entry was served");
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_PLAN));
    assert!(!path.exists(), "evicted entry must be deleted");
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// Concurrent clients of one directory: each writer renames its own temp
/// file into place, so no `store` fails on a rename another writer already
/// did and no reader ever sees a torn entry, and every counter event
/// lands in the append-only journal, so the totals are exact.
#[test]
fn concurrent_writers_of_one_key_never_tear_files() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let cache = PlanCache::at(tmp_cache("concurrent"));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (tree, cm, key, plan, opt, cache) = (&tree, &cm, &key, &plan, &opt, &cache);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    cache
                        .store(tree, key, plan, opt)
                        .unwrap_or_else(|e| panic!("thread {t} round {round}: store: {e}"));
                    let hit = cache.lookup(tree, cm, key);
                    assert!(hit.run.is_some(), "thread {t} round {round}: {:?}", hit.evicted);
                }
            });
        }
    });
    let total = (THREADS * ROUNDS) as u64;
    assert_eq!(counter(&cache, tce_obs::names::CACHE_STORE), total, "lost store counts");
    assert_eq!(counter(&cache, tce_obs::names::CACHE_HIT), total, "lost hit counts");
    assert_eq!(counter(&cache, tce_obs::names::CACHE_MISS), 0);
    let verified = cache.verify();
    assert_eq!(verified.len(), 1);
    verified[0].result.as_ref().unwrap();
    // clear() also sweeps temp files a killed writer would leave behind.
    std::fs::write(cache.dir().join("stray.json.1.2.tmp"), "{").unwrap();
    assert_eq!(cache.clear().unwrap(), 1);
    assert_eq!(std::fs::read_dir(cache.dir()).unwrap().count(), 0, "files left after clear");
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// A `stats.json` left by a `v3` build is neither an entry nor a source
/// of counts: `verify` skips it, `stats` reads only the journal, and
/// `clear` removes it.
#[test]
fn leftover_v3_stats_file_is_ignored() {
    let cache = PlanCache::at(tmp_cache("v3-stats"));
    std::fs::create_dir_all(cache.dir()).unwrap();
    std::fs::write(
        cache.dir().join("stats.json"),
        r#"{"schema":"tce-plan-cache/v3","hit":5,"miss":2,"store":2}"#,
    )
    .unwrap();
    assert!(cache.verify().is_empty(), "stats.json was verified as an entry");
    let stats = cache.stats();
    assert_eq!(stats.entries, 0);
    assert!(stats.counters.iter().all(|&(_, v)| v == 0), "{:?}", stats.counters);
    assert_eq!(cache.clear().unwrap(), 0);
    assert_eq!(std::fs::read_dir(cache.dir()).unwrap().count(), 0, "files left after clear");
    let _ = std::fs::remove_dir_all(cache.dir());
}

fn counter(cache: &PlanCache, name: &str) -> u64 {
    cache.stats().counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).unwrap()
}
