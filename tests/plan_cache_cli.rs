//! End-to-end CLI coverage for the level-2 plan cache: a cold
//! `tce optimize` stores an entry, the warm rerun hits it with
//! byte-identical `--json` output, and the `tce cache` subcommands
//! (`stats`, `verify`, `clear`) manage the directory; concurrent processes
//! keep exact totals and evict a corrupt entry once. The runs pin
//! `--threads 1`: the `--json` observability section carries the
//! interleaving-dependent `dp.steal` / `dp.bnb_*` counters, which only a
//! serial search reproduces run to run.

use std::path::Path;
use std::process::Command;

fn tce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tce")).args(args).output().expect("run tce")
}

fn workload() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/ccsd_tiny.tce").to_string()
}

#[test]
fn cold_store_warm_hit_byte_identical_json_and_cache_subcommands() {
    let dir = std::env::temp_dir().join(format!("tce-cache-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("utf-8 path");
    let src = workload();

    // Cold run: miss, search, store.
    let cold = tce(&[
        "optimize",
        &src,
        "--procs",
        "16",
        "--threads",
        "1",
        "--json",
        "--plan-cache",
        cache,
    ]);
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold.status.success(), "cold run failed: {cold_err}");
    assert!(cold_err.contains("plan cache: stored"), "no store notice: {cold_err}");
    assert!(!cold_err.contains("warm hit"), "cold run claims a hit: {cold_err}");

    // Warm run: hit, no search, byte-identical machine output.
    let warm = tce(&[
        "optimize",
        &src,
        "--procs",
        "16",
        "--threads",
        "1",
        "--json",
        "--plan-cache",
        cache,
    ]);
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm.status.success(), "warm run failed: {warm_err}");
    assert!(warm_err.contains("plan cache: warm hit"), "no hit notice: {warm_err}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "warm --json output is not byte-identical to cold"
    );

    // --no-plan-cache bypasses the directory entirely.
    let off = tce(&[
        "optimize",
        &src,
        "--procs",
        "16",
        "--threads",
        "1",
        "--json",
        "--plan-cache",
        cache,
        "--no-plan-cache",
    ]);
    let off_err = String::from_utf8_lossy(&off.stderr);
    assert!(off.status.success(), "bypass run failed: {off_err}");
    assert!(!off_err.contains("plan cache:"), "bypass still touched the cache: {off_err}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&off.stdout),
        "cache-off output differs from cold"
    );

    // Subcommands: stats sees one entry, verify finds it clean, clear
    // empties the directory.
    let stats = tce(&["cache", "stats", "--plan-cache", cache]);
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    assert!(stats.status.success(), "{}", String::from_utf8_lossy(&stats.stderr));
    assert!(stats_out.contains("entries: 1"), "stats: {stats_out}");
    assert!(stats_out.contains("hit"), "stats: {stats_out}");

    let verify = tce(&["cache", "verify", "--plan-cache", cache]);
    let verify_out = String::from_utf8_lossy(&verify.stdout);
    assert!(verify.status.success(), "{}", String::from_utf8_lossy(&verify.stderr));
    assert!(verify_out.contains("ok"), "verify: {verify_out}");
    assert!(!verify_out.contains("BAD"), "verify: {verify_out}");

    let clear = tce(&["cache", "clear", "--plan-cache", cache]);
    let clear_out = String::from_utf8_lossy(&clear.stdout);
    assert!(clear.status.success(), "{}", String::from_utf8_lossy(&clear.stderr));
    assert!(clear_out.contains('1'), "clear: {clear_out}");
    assert!(
        !entries_remain(&dir),
        "entries remain after clear: {:?}",
        std::fs::read_dir(&dir).map(|d| d.count())
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// One cold store, then 16 warm processes at once on the same directory:
/// the append-only counter journal records every event, so `tce cache
/// stats` shows exact totals.
#[test]
fn concurrent_warm_processes_keep_exact_totals() {
    let dir = std::env::temp_dir().join(format!("tce-cache-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("utf-8 path");
    let src = workload();
    let args = ["optimize", &src, "--procs", "16", "--threads", "1", "--plan-cache", cache];
    let cold = tce(&args);
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let warm: Vec<_> = (0..16)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_tce"))
                .args(args)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn tce")
        })
        .collect();
    for child in warm {
        let out = child.wait_with_output().expect("wait for tce");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success() && err.contains("warm hit"), "{err}");
    }
    let stats = tce(&["cache", "stats", "--plan-cache", cache]);
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    for line in ["  cache.hit: 16", "  cache.miss: 1", "  cache.store: 1"] {
        assert!(stats_out.lines().any(|l| l == line), "missing `{line}`: {stats_out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight processes start at once on a directory whose entry for their key
/// is corrupt. Each one that reads the corrupt bytes evicts them, but only
/// those bytes: an entry another process has stored by then survives. So
/// exactly one eviction is counted, every process prints the same plan,
/// and the directory ends with one entry that verifies clean.
#[test]
fn concurrent_processes_evict_a_corrupt_entry_once() {
    let dir = std::env::temp_dir().join(format!("tce-cache-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.to_str().expect("utf-8 path");
    let src = workload();
    let args =
        ["optimize", &src, "--procs", "16", "--threads", "1", "--json", "--plan-cache", cache];
    let cold = tce(&args);
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("the cold run stored an entry");
    std::fs::write(&entry, "{ not an entry").expect("corrupt the entry");
    std::fs::remove_file(dir.join("stats.log")).expect("reset the journal");

    let runs: Vec<_> = (0..8)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_tce"))
                .args(args)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn tce")
        })
        .collect();
    for child in runs {
        let out = child.wait_with_output().expect("wait for tce");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&cold.stdout),
            "a concurrent run printed another plan"
        );
    }
    let stats = tce(&["cache", "stats", "--plan-cache", cache]);
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    for line in ["  entries: 1", "  cache.evict_corrupt: 1"] {
        assert!(stats_out.lines().any(|l| l == line), "missing `{line}`: {stats_out}");
    }
    let verify = tce(&["cache", "verify", "--plan-cache", cache]);
    let verify_out = String::from_utf8_lossy(&verify.stdout);
    assert!(verify.status.success(), "{}", String::from_utf8_lossy(&verify.stderr));
    assert!(verify_out.contains("ok") && !verify_out.contains("BAD"), "verify: {verify_out}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn entries_remain(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(Result::ok).any(|e| {
                e.file_name().to_string_lossy().ends_with(".json") && e.file_name() != "stats.json"
            })
        })
        .unwrap_or(false)
}

#[test]
fn unknown_cache_action_is_an_error() {
    let out = tce(&["cache", "frobnicate"]);
    assert!(!out.status.success());
}

/// A warm hit runs no search, but `--metrics-out` still describes the run
/// the cache served (the snapshot of the search that stored it), and the
/// flags that need a live search say on stderr why they wrote nothing.
#[test]
fn warm_hit_writes_metrics_from_the_cached_run() {
    let dir = std::env::temp_dir().join(format!("tce-cache-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf-8 path");
    let src = workload();
    let run = |metrics: &Path, extra: &[&str]| {
        let metrics = metrics.to_str().expect("utf-8 path");
        let mut args =
            vec!["optimize", &src, "--procs", "16", "--threads", "1", "--plan-cache", cache];
        args.extend_from_slice(&["--metrics-out", metrics]);
        args.extend_from_slice(extra);
        let out = tce(&args);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "run failed: {err}");
        err
    };
    let snapshot = |path: &Path| -> serde_json::Value {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{} not written: {e}", path.display()));
        serde_json::from_str(&text).expect("metrics JSON parses")
    };

    let (cold_m, warm_m) = (dir.join("cold.json"), dir.join("warm.json"));
    let cold_err = run(&cold_m, &[]);
    assert!(cold_err.contains("plan cache: stored"), "{cold_err}");
    let warm_err = run(&warm_m, &["--progress"]);
    assert!(warm_err.contains("plan cache: warm hit"), "{warm_err}");
    assert!(warm_err.contains("no search ran"), "no note on the idle --progress: {warm_err}");
    let (cold, warm) = (snapshot(&cold_m), snapshot(&warm_m));
    for v in [&cold, &warm] {
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("tce-metrics/v1"));
    }
    // The deterministic search numbers are the cached run's own.
    let candidates = |v: &serde_json::Value| {
        v.get("counters").and_then(|c| c.get("dp.candidates")).and_then(|c| c.as_u64())
    };
    assert!(candidates(&cold).is_some_and(|c| c > 0), "{cold:?}");
    assert_eq!(candidates(&cold), candidates(&warm));
    assert_eq!(cold.get("gauges"), warm.get("gauges"));

    let _ = std::fs::remove_dir_all(&dir);
}
