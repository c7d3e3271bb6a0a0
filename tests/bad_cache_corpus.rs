//! Pinning tests over `golden/bad_cache/`: a corpus of corrupt and stale
//! level-2 plan-cache entries, each of which must be **evicted with its
//! specific reason** (never served, never a crash) when looked up against
//! the fixed reference request — `workloads/ccsd_tiny.tce` on 16
//! processors with the default optimizer configuration.
//!
//! The corpus files embed the canonical expression hash, the cost-model
//! digest, and the configuration digest as computed today, so they double
//! as golden pins of the whole keying scheme: an accidental change to
//! canonicalization or digesting surfaces here as the wrong eviction
//! reason. After an *intentional* format change, regenerate with
//!
//! ```text
//! cargo test --test bad_cache_corpus regen_bad_cache_corpus -- --ignored
//! ```

use std::path::PathBuf;

use tensor_contraction_opt::core::portfolio::plan;
use tensor_contraction_opt::core::{
    cache_key, extract_plan, optimize, OptimizerConfig, PlanCache, PLAN_CACHE_SCHEMA,
};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::ExprTree;
use tensor_contraction_opt::opmin::lower_program;

fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/bad_cache"))
}

fn reference_tree() -> ExprTree {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/ccsd_tiny.tce");
    let src = std::fs::read_to_string(path).expect("ccsd_tiny.tce shipped");
    lower_program(&tensor_contraction_opt::expr::parse(&src).expect("parses"))
        .expect("lowers")
        .to_tree()
        .expect("tree")
}

fn reference_model() -> CostModel {
    CostModel::for_square(MachineModel::itanium_cluster(), 16).expect("16 is square")
}

/// `(corpus file, expected eviction reason)` — reasons are the
/// `tce_obs::names::CACHE_EVICT_*` counter names reported by
/// `LookupOutcome::evicted`.
const CORPUS: [(&str, &str); 4] = [
    ("truncated.json", "cache.evict_corrupt"),
    ("stale_version.json", "cache.evict_version"),
    ("wrong_digest.json", "cache.evict_digest"),
    ("bad_plan.json", "cache.evict_plan"),
];

#[test]
fn every_corpus_entry_is_evicted_with_its_reason() {
    let tree = reference_tree();
    let cm = reference_model();
    let cfg = OptimizerConfig::default();
    let key = cache_key(&tree, &cm, &cfg).expect("default request is cacheable");

    for (file, expected) in CORPUS {
        let content = std::fs::read_to_string(corpus_dir().join(file))
            .unwrap_or_else(|e| panic!("{file}: corpus file unreadable ({e}); regenerate with `cargo test --test bad_cache_corpus regen_bad_cache_corpus -- --ignored`"));
        let dir = std::env::temp_dir().join(format!("tce-bad-cache-{}-{file}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp cache dir");
        let entry_path = dir.join(key.file_name());
        std::fs::write(&entry_path, &content).expect("install corpus entry");

        let cache = PlanCache::at(&dir);
        let outcome = cache.lookup(&tree, &cm, &key);
        assert!(outcome.run.is_none(), "{file}: corrupt entry was served");
        assert_eq!(outcome.evicted, Some(expected), "{file}: wrong eviction reason");
        assert!(!entry_path.exists(), "{file}: evicted entry not deleted");

        // The poisoned lookup must not poison the pipeline: a fresh search
        // and store through the same directory succeeds.
        let opt = optimize(&tree, &cm, &cfg).expect("fresh search succeeds");
        let plan = extract_plan(&tree, &opt);
        cache.store(&tree, &key, &plan, &opt).expect("store after eviction");
        assert!(
            cache.lookup(&tree, &cm, &key).run.is_some(),
            "{file}: fresh entry misses after eviction"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regenerate the corpus from the live implementation. `#[ignore]`d: run
/// explicitly after an intentional change to the entry format, the
/// canonicalizer, or the digesting scheme.
#[test]
#[ignore = "writes golden/bad_cache from the live implementation"]
fn regen_bad_cache_corpus() {
    let tree = reference_tree();
    let cm = reference_model();
    let cfg = OptimizerConfig::default();
    let key = cache_key(&tree, &cm, &cfg).expect("default request is cacheable");
    // The warm-started search `tce optimize` stores, serial so the stored
    // interleaving-dependent counters (`dp.steal`, `dp.bnb_*`) come out
    // the same on every machine.
    let serial = OptimizerConfig { threads: 1, ..OptimizerConfig::default() };
    let opt = plan(&tree, &cm, &serial).expect("reference search succeeds").opt;
    let plan = extract_plan(&tree, &opt);

    let dir = std::env::temp_dir().join(format!("tce-bad-cache-regen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = PlanCache::at(&dir);
    cache.store(&tree, &key, &plan, &opt).expect("store reference entry");
    let good = std::fs::read_to_string(dir.join(key.file_name())).expect("read entry");

    // A plan that maps but fails the static checks: break the step ledger.
    let mut broken = plan.clone();
    broken.comm_cost += 7.5;
    cache.clear().expect("clear");
    cache.store(&tree, &key, &broken, &opt).expect("store broken entry");
    let bad_plan = std::fs::read_to_string(dir.join(key.file_name())).expect("read entry");
    let _ = std::fs::remove_dir_all(&dir);

    let out = corpus_dir();
    std::fs::create_dir_all(&out).expect("create corpus dir");
    std::fs::write(out.join("truncated.json"), &good[..120.min(good.len())])
        .expect("truncated.json");
    std::fs::write(
        out.join("stale_version.json"),
        good.replacen(PLAN_CACHE_SCHEMA, "tce-plan-cache/v2", 1),
    )
    .expect("stale_version.json");
    let digest = good
        .split("\"cost_digest\": \"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("entry has a cost digest");
    let flipped: String = digest.chars().map(|c| if c == '0' { '1' } else { '0' }).collect();
    std::fs::write(out.join("wrong_digest.json"), good.replacen(digest, &flipped, 1))
        .expect("wrong_digest.json");
    std::fs::write(out.join("bad_plan.json"), bad_plan).expect("bad_plan.json");
}
