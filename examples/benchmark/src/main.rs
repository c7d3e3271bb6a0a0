//! End-to-end benchmark of the `tce` binary, with per-layer timings from
//! a traced in-process replay. See README.md next to this crate.
//!
//! ```text
//! # everything: four workloads, both phases, results + trace under DIR
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- --seed 1 --out DIR
//! # one workload, one phase; the last stdout line is a JSON summary
//! … -- --workload paper-suite --seed 1 --seconds 20 --trace 0
//! # judge run(s) B against run(s) A
//! … -- --compare A.json B.json
//! ```

mod compare;
mod e2e;
mod inproc;
mod setup;
mod spawn;
mod spec;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{Number, Value};
use tensor_contraction_opt::core::PlanCache;
use tensor_contraction_opt::obs::{names, ChromeTraceSink};

use crate::e2e::{Env, Limit, Run};
use crate::inproc::CacheOutcome;
use crate::spec::Spec;
use crate::stats::{median, percentile};
use crate::traced::{LayerRow, Replayed};
use crate::workloads::Workload;

/// Set-up runs at least this many times and for at least
/// `SETUP_MIN_SECONDS` (at most `SETUP_MAX_REPEATS` times); `setup_s` is
/// the median. Short set-ups repeat more, so their median stays steady.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 50;
/// `--smoke`: requests per client in each phase.
const SMOKE_REQUESTS: usize = 2;
/// The traced replay must attribute at least this share of its wall time
/// to layer spans, or the per-layer numbers do not explain the run.
const MIN_COVERAGE: f64 = 0.95;
/// Tail latency needs ten samples beyond it: p90 from 100 requests up.
const P90_MIN_REQUESTS: usize = 100;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<u64>,
    /// `Some(on)`: run only the traced (`true`) or untraced phase and end
    /// with one JSON summary line.
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n\
     \x20      benchmark --compare A B   (A, B: results files or directories of them)\n\
     workloads: paper-suite, search-enlarged, cache-warm, simulate-verify"
        .to_string()
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().ok_or_else(|| format!("missing value for {flag}\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads.push(
                    Workload::parse(&v)
                        .ok_or_else(|| format!("unknown workload `{v}`\n{}", usage()))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                o.compare = Some((a, b));
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

/// The repository this benchmark belongs to.
fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(spawn::SPAWNER_FLAG) {
        return spawn::serve();
    }
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = Spec::load(&repo_root()).and_then(|spec| match &opts.compare {
        Some((a, b)) => compare::run(&spec, a, b).map(|()| true),
        None => run(&opts, &spec).map(|results| results.iter().all(WorkloadResult::correct)),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Build the release `tce` binary from this checkout and return its path.
fn build_tce(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["build", "--release", "--bin", "tce", "--message-format=json-render-diagnostics"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building tce failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .filter(|v| {
            v.get("target").and_then(|t| t.get("name")).and_then(Value::as_str) == Some("tce")
        })
        .find_map(|v| v.get("executable").and_then(Value::as_str).map(PathBuf::from))
        .ok_or_else(|| "cargo reported no tce executable".into())
}

/// Everything one workload run produced.
struct WorkloadResult {
    workload: Workload,
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
    end_to_end: Vec<(&'static str, &'static str, Option<f64>)>,
    per_layer: Vec<(&'static str, &'static str, f64)>,
    layers: Vec<LayerRow>,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Run the selected workloads, print and record their results.
fn run(opts: &Options, spec: &Spec) -> Result<Vec<WorkloadResult>, String> {
    if opts.trace.is_some() && opts.workloads.len() != 1 {
        return Err("--trace runs one workload: pass --workload".into());
    }
    tensor_contraction_opt::check::install();
    let root = repo_root();
    let tce = build_tce(&root)?;
    let out = match &opts.out {
        Some(o) => o.clone(),
        None => tce.parent().and_then(Path::parent).unwrap_or(&root).join("tce-benchmark"),
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let out = out.canonicalize().map_err(|e| format!("{}: {e}", out.display()))?;
    let env = Env { tce, root: root.clone(), xdg_cache: out.join("xdg-cache") };
    let seconds = opts.seconds.unwrap_or(spec.run_seconds);
    let sink = Arc::new(ChromeTraceSink::new());

    let mut results = Vec::new();
    for &w in &opts.workloads {
        let r = run_workload(w, opts, seconds, &env, &out.join(w.name()), &sink)?;
        print_result(&r, opts.seed);
        results.push(r);
    }
    if opts.trace != Some(false) {
        let path = out.join("trace.json");
        sink.write_to(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {} ({} events)", path.display(), sink.len());
    }
    let doc = Value::Object(vec![
        ("schema".into(), Value::String("tce-benchmark/v1".into())),
        ("seed".into(), num(opts.seed as f64)),
        ("seconds".into(), num(seconds as f64)),
        ("smoke".into(), Value::Bool(opts.smoke)),
        (
            "available_parallelism".into(),
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads".into(), Value::Array(results.iter().map(result_json).collect())),
    ]);
    let name = match opts.trace {
        None => "results.json".to_string(),
        Some(t) => format!("results-{}-trace{}.json", opts.workloads[0].name(), u8::from(t)),
    };
    let path = out.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())? + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    if let Some(traced) = opts.trace {
        println!("{}", summary_line(&results[0], spec, traced)?);
    }
    Ok(results)
}

fn run_workload(
    w: Workload,
    opts: &Options,
    seconds: u64,
    env: &Env,
    dir: &Path,
    sink: &Arc<ChromeTraceSink>,
) -> Result<WorkloadResult, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let setup = loop {
        let start = Instant::now();
        let s = setup::run(w, opts.seed, &env.root, &dir.join("setup"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        let enough =
            setup_s.len() >= SETUP_MIN_REPEATS && setup_s.iter().sum::<f64>() >= SETUP_MIN_SECONDS;
        if opts.smoke || enough || setup_s.len() >= SETUP_MAX_REPEATS {
            break s;
        }
    };
    let mut r = WorkloadResult {
        workload: w,
        errors: setup.errors.clone(),
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        layers: Vec::new(),
    };

    if opts.trace != Some(true) {
        let limit = if opts.smoke {
            Limit::Count(SMOKE_REQUESTS)
        } else {
            Limit::Until(Instant::now() + Duration::from_secs(seconds))
        };
        let cache = fresh_copy(&setup.prefill_dir, &dir.join("cache-e2e"))?;
        let run = e2e::closed_loop(env, &setup, w.clients(), limit, &cache, &dir.join("io"))?;
        r.account(&run);
        r.end_to_end =
            end_to_end_metrics(&setup_s, &run, setup.plan_comm_s(), setup.certified_gap_frac());
    }

    if opts.trace != Some(false) {
        let n = if opts.smoke { SMOKE_REQUESTS.min(w.trace_prefix()) } else { w.trace_prefix() };
        let traced_cache = fresh_copy(&setup.prefill_dir, &dir.join("cache-traced"))?;
        let untraced_cache = fresh_copy(&setup.prefill_dir, &dir.join("cache-untraced"))?;
        let (traced, untraced) =
            traced::replay(&setup, &env.root, (&traced_cache, &untraced_cache), n, sink);
        r.account_replay(&traced);
        r.account_replay(&untraced);

        let cache = fresh_copy(&setup.prefill_dir, &dir.join("cache-trace-e2e"))?;
        let before = stats_total(&cache);
        let run =
            e2e::closed_loop(env, &setup, w.clients(), Limit::Count(n), &cache, &dir.join("io"))?;
        let lost = cache_tally(&run) - (stats_total(&cache) - before);
        r.account(&run);

        r.per_layer = traced::per_layer_metrics(&setup, &traced, &untraced, &run, lost as f64);
        r.layers = traced::layer_table(&traced);
        let coverage = r.per_layer.iter().find(|m| m.0 == "trace.coverage").map_or(0.0, |m| m.2);
        if coverage < MIN_COVERAGE {
            r.errors.push(format!(
                "trace.coverage {coverage:.3} < {MIN_COVERAGE}: the layer spans leave too much of the request unexplained"
            ));
        }
    }
    Ok(r)
}

impl WorkloadResult {
    fn account(&mut self, run: &Run) {
        self.attempted += run.samples.len();
        self.failed += run.failed();
        self.errors.extend(run.samples.iter().filter_map(|s| s.error.clone()));
    }

    fn account_replay(&mut self, replays: &[Replayed]) {
        self.attempted += replays.len();
        self.failed += replays.iter().filter(|r| r.error.is_some()).count();
        self.errors.extend(replays.iter().filter_map(|r| r.error.clone()));
    }
}

/// Empty `dst`, then copy the files of `src` (if any) into it.
fn fresh_copy(src: &Path, dst: &Path) -> Result<PathBuf, String> {
    let io = |e: std::io::Error| format!("preparing {}: {e}", dst.display());
    if dst.exists() {
        std::fs::remove_dir_all(dst).map_err(io)?;
    }
    std::fs::create_dir_all(dst).map_err(io)?;
    if src.is_dir() {
        for entry in std::fs::read_dir(src).map_err(io)? {
            let entry = entry.map_err(io)?;
            std::fs::copy(entry.path(), dst.join(entry.file_name())).map_err(io)?;
        }
    }
    Ok(dst.to_path_buf())
}

/// Hits + misses + stores recorded in the cache's `stats.json`.
fn stats_total(dir: &Path) -> i64 {
    PlanCache::at(dir)
        .stats()
        .counters
        .iter()
        .filter(|(n, _)| [names::CACHE_HIT, names::CACHE_MISS, names::CACHE_STORE].contains(n))
        .map(|(_, v)| *v as i64)
        .sum()
}

/// The same total as the clients saw it: a hit is one lookup, a stored
/// miss a lookup plus a store.
fn cache_tally(run: &Run) -> i64 {
    run.samples
        .iter()
        .map(|s| match s.cache {
            CacheOutcome::Off => 0,
            CacheOutcome::Hit | CacheOutcome::Missed => 1,
            CacheOutcome::Stored => 2,
        })
        .sum()
}

fn end_to_end_metrics(
    setup_s: &[f64],
    run: &Run,
    plan_comm_s: f64,
    certified_gap_frac: f64,
) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let lat: Vec<f64> = run.ok().map(|s| s.latency_ms).collect();
    let rss: Vec<f64> = run.ok().map(|s| s.rss_kib as f64 / 1024.0).collect();
    let n = run.samples.len();
    vec![
        ("setup_s", "s", median(setup_s)),
        ("latency_ms_p50", "ms", median(&lat)),
        ("latency_ms_p90", "ms", if n >= P90_MIN_REQUESTS { percentile(&lat, 90.0) } else { None }),
        ("throughput_rps", "1/s", run.throughput_rps()),
        ("error_rate", "ratio", (n > 0).then(|| run.failed() as f64 / n as f64)),
        ("peak_rss_mb", "MiB", median(&rss)),
        ("plan_comm_s", "model_s", Some(plan_comm_s)),
        ("certified_gap_frac", "ratio", Some(certified_gap_frac)),
        ("requests", "count", Some(n as f64)),
    ]
}

fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

fn metric_json(unit: &str, value: Option<f64>) -> Value {
    Value::Object(vec![
        ("value".into(), value.map_or(Value::Null, num)),
        ("unit".into(), Value::String(unit.into())),
    ])
}

fn result_json(r: &WorkloadResult) -> Value {
    let mut fields = vec![
        ("workload".to_string(), Value::String(r.workload.name().into())),
        ("correct".to_string(), Value::Bool(r.correct())),
        ("attempted".to_string(), num(r.attempted as f64)),
        ("failed".to_string(), num(r.failed as f64)),
        (
            "errors".to_string(),
            Value::Array(r.errors.iter().take(20).map(|e| Value::String(e.clone())).collect()),
        ),
    ];
    if !r.end_to_end.is_empty() {
        let m = r.end_to_end.iter().map(|(n, u, v)| (n.to_string(), metric_json(u, *v))).collect();
        fields.push(("end_to_end".into(), Value::Object(m)));
    }
    if !r.per_layer.is_empty() {
        let m =
            r.per_layer.iter().map(|(n, u, v)| (n.to_string(), metric_json(u, Some(*v)))).collect();
        fields.push(("per_layer".into(), Value::Object(m)));
        let rows = r
            .layers
            .iter()
            .map(|l| {
                Value::Object(vec![
                    ("layer".into(), Value::String(l.layer.into())),
                    ("requests".into(), num(l.requests as f64)),
                    ("median_ms".into(), num(l.median_ms)),
                    ("total_ms".into(), num(l.total_ms)),
                ])
            })
            .collect();
        fields.push(("layers".into(), Value::Array(rows)));
    }
    Value::Object(fields)
}

fn print_result(r: &WorkloadResult, seed: u64) {
    println!("== {} (seed {seed}) ==", r.workload.name());
    for (name, unit, value) in &r.end_to_end {
        match value {
            Some(v) => println!("  {name:<24} {v:>14.6} {unit}"),
            None => println!("  {name:<24} {:>14} {unit}", "n/a"),
        }
    }
    if !r.layers.is_empty() {
        let total: f64 = r.layers.iter().map(|l| l.total_ms).sum();
        println!("  layer self time over the traced replay:");
        println!(
            "    {:<20} {:>8} {:>11} {:>11} {:>6}",
            "layer", "requests", "median ms", "total ms", "share"
        );
        for l in &r.layers {
            println!(
                "    {:<20} {:>8} {:>11.3} {:>11.3} {:>5.1}%",
                l.layer,
                l.requests,
                l.median_ms,
                l.total_ms,
                100.0 * l.total_ms / total.max(f64::MIN_POSITIVE)
            );
        }
        for (name, unit, value) in &r.per_layer {
            println!("  {name:<24} {value:>14.6} {unit}");
        }
    }
    println!(
        "  checks: {} ({} attempted, {} failed)",
        if r.correct() { "all passed" } else { "FAILED" },
        r.attempted,
        r.failed
    );
    for e in r.errors.iter().take(5) {
        println!("    {e}");
    }
}

/// The one-line JSON summary: the metrics `BENCHMARK.json` lists for the
/// phase that ran.
fn summary_line(r: &WorkloadResult, spec: &Spec, traced: bool) -> Result<String, String> {
    let listed = if traced { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::new();
    for m in listed {
        let found = if traced {
            r.per_layer.iter().find(|x| x.0 == m.name).map(|x| (x.1, Some(x.2)))
        } else {
            r.end_to_end.iter().find(|x| x.0 == m.name).map(|x| (x.1, x.2))
        };
        let missing =
            || format!("BENCHMARK.json lists `{}`, which this run did not measure", m.name);
        let (unit, value) = found.ok_or_else(missing)?;
        if unit != m.unit {
            return Err(format!(
                "BENCHMARK.json gives `{}` in {}, the benchmark measures {unit}",
                m.name, m.unit
            ));
        }
        metrics.push((m.name.clone(), metric_json(unit, Some(value.ok_or_else(missing)?))));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), Value::Number(Number::UInt(r.attempted as u128))),
        ("failed".into(), Value::Number(Number::UInt(r.failed as u128))),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(n: usize) -> Run {
        let start = Instant::now();
        let samples = (0..n)
            .map(|i| e2e::Sample {
                client: 0,
                latency_ms: 10.0 + i as f64,
                rss_kib: 1024,
                error: None,
                cache: CacheOutcome::Off,
                end: start + Duration::from_millis(10 * (i as u64 + 1)),
            })
            .collect();
        Run { samples, start }
    }

    fn value(metrics: &[(&str, &str, Option<f64>)], name: &str) -> Option<f64> {
        metrics.iter().find(|m| m.0 == name).and_then(|m| m.2)
    }

    #[test]
    fn p90_needs_a_hundred_requests() {
        let few = end_to_end_metrics(&[1.0], &run_of(99), 1.0, 0.5);
        assert_eq!(value(&few, "latency_ms_p90"), None);
        assert_eq!(value(&few, "requests"), Some(99.0));
        let enough = end_to_end_metrics(&[1.0], &run_of(100), 1.0, 0.5);
        assert_eq!(value(&enough, "latency_ms_p90"), Some(99.0));
        assert_eq!(value(&enough, "latency_ms_p50"), Some(59.5));
        assert_eq!(value(&enough, "error_rate"), Some(0.0));
    }
}
