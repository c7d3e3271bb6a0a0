//! `tce` — the command-line front end to the whole pipeline.
//!
//! ```text
//! tce optimize <file.tce> --procs 16 [--mem-gb 4] [--asym F] [options]
//! tce compile  <file.tce>                 # opmin + fused loop code
//! tce simulate <file.tce> --procs 4      # execute & verify (small extents)
//! tce frontier <file.tce> --procs 16     # memory/comm Pareto frontier
//! tce check    <file.tce> --plan p.json  # statically verify a saved plan
//! tce lint     <file.tce> [--json]       # whole-program source lints (TCE1xx)
//! tce explain  <file.tce> --procs 16     # per-node decision record
//! tce report   <file.tce> --procs 16     # machine-readable JSON roll-up
//! ```
//!
//! The input format is the `tce-expr` text notation (see README):
//! `range`/`input` declarations followed by contraction statements; terms
//! with three or more factors are decomposed by operation minimization
//! automatically.
//!
//! Observability: `--trace out.json` writes a Chrome trace-event file
//! (open in `chrome://tracing` or Perfetto) of the DP search or, for
//! simulate, the simulated communication timeline; `--stats` prints the
//! search/communication summary tables; `--progress[=MS]` streams JSONL
//! progress records while the search runs; `--metrics-out FILE` writes the
//! run's metrics snapshot (Prometheus text or JSON). Trace and progress
//! are sinks of the one installed `tce_obs` sink; the snapshot is rendered
//! from the run the command used, cached or fresh.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use tensor_contraction_opt::obs;
use tensor_contraction_opt::obs::ChromeTraceSink;

use tensor_contraction_opt::check::check_plan;
use tensor_contraction_opt::core::portfolio::{plan as plan_with, plan_explained};
use tensor_contraction_opt::core::{
    build_provenance, build_report, extract_plan, metrics_snapshot, optimize, render_plan_dot,
    render_provenance, render_report, report_json, root_frontier, validate_plan, OptimizeError,
    Optimized, OptimizerConfig,
};
use tensor_contraction_opt::cost::units::{fmt_paper_bytes, words_to_bytes};
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::printer::{render_sequence, render_unfused_loops};
use tensor_contraction_opt::expr::{parse, ExprError, ExprTree, FormulaSequence, Program};
use tensor_contraction_opt::fusion::{code::render_fused, minimize_memory};
use tensor_contraction_opt::opmin::lower_program;
use tensor_contraction_opt::sim::simulate_traced;

struct Args {
    command: String,
    file: String,
    procs: u32,
    mem_gb: Option<f64>,
    asym: f64,
    allow_replication: bool,
    allow_unrelated_rotation: bool,
    dot: bool,
    json: bool,
    spmd: bool,
    plan_file: Option<String>,
    /// `NAME=d1,d2` pinned input layouts.
    pin_inputs: Vec<(String, String)>,
    /// `d1,d2` required output layout.
    output_dist: Option<String>,
    seed: u64,
    /// Chrome trace-event output path.
    trace: Option<String>,
    /// Print the search/communication statistics tables.
    stats: bool,
    /// Stream JSONL progress (heartbeat interval in ms) while optimizing.
    progress: Option<u64>,
    /// Where the progress stream goes (default: stderr).
    progress_out: Option<String>,
    /// Write a metrics snapshot here after the run (`.prom` suffix =
    /// Prometheus text format, anything else = JSON).
    metrics_out: Option<String>,
    /// report: also execute the plan on the virtual cluster and include
    /// the measured per-kind roll-up.
    report_simulate: bool,
    /// Worker threads for the search (0 = all cores).
    threads: usize,
    /// Statically verify the optimizer's plan even in release builds.
    verify: bool,
    /// fuzz: number of generator seeds to run.
    fuzz_seeds: u64,
    /// fuzz: first generator seed.
    fuzz_start: u64,
    /// fuzz: replay one `.tce` workload through the differential loop.
    replay: Option<String>,
    /// fuzz: directory for minimized reproducers (`none` disables).
    corpus: String,
    /// lint: treat warnings as errors (non-zero exit).
    deny_warnings: bool,
    /// optimize/cache: explicit plan-cache directory (overrides the
    /// platform default `~/.cache/tce`).
    plan_cache: Option<String>,
    /// optimize: disable the persistent plan cache entirely.
    no_plan_cache: bool,
    /// optimize: disable the level-1 in-run subtree reuse (ablation).
    no_subtree_reuse: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tce <command> <file.tce> [options]
       tce fuzz [--seeds N] [--start S] [--replay file.tce] [--corpus DIR]
       tce cache <stats|verify|clear> [--plan-cache DIR]

commands:
  optimize   run the memory-constrained communication optimization and
             print the report and plan
  compile    print the formula sequence, unfused loops, and memory-minimal
             fused loops
  simulate   execute the plan on the virtual cluster, verify against the
             sequential reference, and report simulated time
  frontier   print the memory/communication Pareto frontier at the root
  check      statically verify a plan (a saved --plan artifact, or a
             freshly optimized one) against the workload: structure,
             shapes, distributions, Cannon patterns, fusion, memory,
             and costs, with stable TCE0xx diagnostics
  lint       whole-program static analysis of the source itself: unused
             and shadowed declarations, dangling indices, inconsistent
             references, grid-indivisible extents, uncharacterized
             grids, and the memory-feasibility prover, with stable
             TCE1xx diagnostics (same pass on `optimize` as a pre-pass)
  explain    per-node decision record of the winning plan: the winning
             (distribution, fusion) pair and the per-kind communication
             breakdown, then a search-effort section with the top
             runner-ups the search kept and the frontier shape
  report     machine-readable JSON roll-up of the whole run (schema
             tce-report/v5): headline costs, per-kind attribution and
             per-node plan provenance, plus a `search` section (counters,
             live counts, runner-ups, frontier keys) that depends on
             search effort; with --simulate, also the measured per-kind
             totals from the virtual cluster
  fuzz       differential fuzzing: random trees through optimizer,
             checker, simulator, and exhaustive search; failures are
             minimized and pinned as reproducers (no file argument)
  cache      manage the persistent plan cache: `stats` (entries, bytes,
             hit/miss/eviction totals), `verify` (re-check every stored
             plan against its embedded canonical workload, exit 1 on
             corruption), `clear` (delete all entries)

options:
  --procs N              processors in the (square) virtual grid [16]
  --threads N            worker threads for the search; results are
                         identical at any count [0 = all cores]
  --mem-gb G             per-node memory limit in GB (overrides the model)
  --asym F               dim2 links F times slower than dim1 links [1.0]
  --replication          also search replicated (undistributed) layouts
  --unrelated-rotation   also rotate arrays not carrying all fused loops
  --pin-input NAME=d1,d2 fix an input array's initial distribution
  --output-dist d1,d2    require the final output in this distribution
  --seed S               RNG seed for simulate's input data [42]
  --plan plan.json       simulate/check: use a saved plan instead of
                         optimizing
  --verify               optimize: statically verify the winning plan even
                         in release builds (debug builds always do)
  --dot                  optimize: emit the plan as Graphviz dot
  --json                 optimize: emit the plan as JSON (with an
                         `observability` section of search counters);
                         lint/check: emit diagnostics as JSON
  --deny-warnings        lint: exit non-zero on warnings too
  --spmd                 optimize: emit SPMD pseudocode for the plan
  --trace out.json       write a Chrome trace-event file (chrome://tracing,
                         Perfetto): DP-search spans and counters, or for
                         simulate the virtual-time communication timeline
  --stats                print search statistics (optimize) and per-kind
                         communication totals (simulate)
  --progress[=MS]        stream JSONL progress records (start/node/
                         heartbeat/done) while the search runs; heartbeats
                         at most every MS ms [500]
  --progress-out FILE    where the progress stream is written [stderr]
  --metrics-out FILE     write the run's metrics snapshot (also on a plan-
                         cache hit); a `.prom` suffix selects Prometheus
                         text format, anything else tce-metrics/v1 JSON
  --simulate             report: execute the plan on the virtual cluster
                         and include the measured per-kind roll-up (needs
                         simulatable extents, e.g. ccsd_tiny)
  --seeds N              fuzz: generator seeds to run [50]
  --start S              fuzz: first generator seed [0]
  --replay file.tce      fuzz: run one workload (e.g. a pinned reproducer)
                         through the full differential loop
  --corpus DIR           fuzz: where minimized reproducers are pinned
                         [golden/fuzz_corpus]; `none` disables
  --plan-cache DIR       optimize/cache: plan-cache directory
                         [$XDG_CACHE_HOME/tce or ~/.cache/tce]
  --no-plan-cache        optimize: skip the persistent plan cache (cached
                         entries are neither read nor written)
  --no-subtree-reuse     optimize: disable the level-1 in-run subtree
                         reuse (ablation; results are bit-identical)"
    );
    ExitCode::from(2)
}

/// Report a malformed flag value and exit with code 2.
fn bad_value(flag: &str, value: &str) -> ExitCode {
    eprintln!("invalid value `{value}` for {flag}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    // `fuzz` generates its own workloads and takes no file positional.
    let file = if command == "fuzz" { String::new() } else { argv.next().ok_or_else(usage)? };
    let mut args = Args {
        command,
        file,
        procs: 16,
        mem_gb: None,
        asym: 1.0,
        allow_replication: false,
        allow_unrelated_rotation: false,
        dot: false,
        json: false,
        spmd: false,
        plan_file: None,
        pin_inputs: Vec::new(),
        output_dist: None,
        seed: 42,
        trace: None,
        stats: false,
        progress: None,
        progress_out: None,
        metrics_out: None,
        report_simulate: false,
        threads: 0,
        verify: false,
        fuzz_seeds: 50,
        fuzz_start: 0,
        replay: None,
        corpus: "golden/fuzz_corpus".into(),
        deny_warnings: false,
        plan_cache: None,
        no_plan_cache: false,
        no_subtree_reuse: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> Result<String, ExitCode> {
            argv.next().ok_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        // Parse a flag's value, exiting 2 with a named message when it is
        // malformed (`--procs sixteen` must not panic).
        macro_rules! parsed {
            ($flag:literal) => {{
                let raw = value($flag)?;
                raw.parse().map_err(|_| bad_value($flag, &raw))?
            }};
        }
        match flag.as_str() {
            "--procs" => args.procs = parsed!("--procs"),
            "--threads" => args.threads = parsed!("--threads"),
            "--mem-gb" => args.mem_gb = Some(parsed!("--mem-gb")),
            "--asym" => args.asym = parsed!("--asym"),
            "--seed" => args.seed = parsed!("--seed"),
            "--trace" => args.trace = Some(value("--trace")?),
            "--stats" => args.stats = true,
            "--progress" => args.progress = Some(500),
            "--progress-out" => args.progress_out = Some(value("--progress-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--simulate" => args.report_simulate = true,
            "--verify" => args.verify = true,
            "--replication" => args.allow_replication = true,
            "--unrelated-rotation" => args.allow_unrelated_rotation = true,
            "--dot" => args.dot = true,
            "--json" => args.json = true,
            "--spmd" => args.spmd = true,
            "--plan" => args.plan_file = Some(value("--plan")?),
            "--pin-input" => {
                let v = value("--pin-input")?;
                let (name, dist) = v.split_once('=').ok_or_else(|| {
                    eprintln!("--pin-input expects NAME=d1,d2");
                    usage()
                })?;
                args.pin_inputs.push((name.to_string(), dist.to_string()));
            }
            "--output-dist" => args.output_dist = Some(value("--output-dist")?),
            "--seeds" => args.fuzz_seeds = parsed!("--seeds"),
            "--start" => args.fuzz_start = parsed!("--start"),
            "--replay" => args.replay = Some(value("--replay")?),
            "--corpus" => args.corpus = value("--corpus")?,
            "--deny-warnings" => args.deny_warnings = true,
            "--plan-cache" => args.plan_cache = Some(value("--plan-cache")?),
            "--no-plan-cache" => args.no_plan_cache = true,
            "--no-subtree-reuse" => args.no_subtree_reuse = true,
            other if other.starts_with("--progress=") => {
                let raw = &other["--progress=".len()..];
                args.progress = Some(raw.parse().map_err(|_| bad_value("--progress", raw))?);
            }
            other => {
                eprintln!("unknown flag `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

fn load_tree(path: &str) -> Result<ExprTree, String> {
    load_tree_spanned(path).map(|(tree, _)| tree)
}

/// Source positions of array declarations, by name (1-based line, column).
type DeclSpans = std::collections::HashMap<String, (usize, usize)>;

/// Load a tree, also returning the source positions of array declarations
/// so diagnostics can be anchored as `file:line:col`.
fn load_tree_spanned(path: &str) -> Result<(ExprTree, DeclSpans), String> {
    let (seq, spans) = load_sequence(path)?;
    let tree = seq.to_tree().map_err(|e| e.to_string())?;
    Ok((tree, spans))
}

/// Read, parse and lower a `.tce` file to its formula sequence, with the
/// source positions of its array declarations.
fn load_sequence(path: &str) -> Result<(FormulaSequence, DeclSpans), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let prog = parse(&src).map_err(|e| match e {
        ExprError::Parse { line, col, ref msg } => {
            format!("{path}:{line}:{col}: {msg}")
        }
        other => other.to_string(),
    })?;
    let spans = prog.spans.clone();
    let seq = lower_program(&prog).map_err(|e| e.to_string())?;
    Ok((seq, spans))
}

fn cost_model(args: &Args) -> Result<CostModel, String> {
    let mut machine = if args.asym == 1.0 {
        MachineModel::itanium_cluster()
    } else {
        MachineModel::itanium_asymmetric(args.asym)
    };
    if let Some(gb) = args.mem_gb {
        machine.mem_per_node_bytes =
            (gb * 1024.0 * tensor_contraction_opt::cost::units::PAPER_MB) as u64;
    }
    CostModel::for_square(machine, args.procs)
        .ok_or_else(|| format!("{} is not a perfect square", args.procs))
}

fn parse_dist(
    spec: &str,
    tree: &ExprTree,
) -> Result<tensor_contraction_opt::dist::Distribution, String> {
    let (a, b) =
        spec.split_once(',').ok_or_else(|| format!("distribution `{spec}` must be `d1,d2`"))?;
    let look = |n: &str| {
        tree.space
            .lookup(n.trim())
            .ok_or_else(|| format!("unknown index `{n}` in distribution `{spec}`"))
    };
    Ok(tensor_contraction_opt::dist::Distribution::pair(look(a)?, look(b)?))
}

fn opt_config(args: &Args, tree: &ExprTree) -> Result<OptimizerConfig, String> {
    let mut cfg = OptimizerConfig {
        allow_replication: args.allow_replication,
        allow_unrelated_rotation: args.allow_unrelated_rotation,
        threads: args.threads,
        verify: args.verify,
        disable_subtree_reuse: args.no_subtree_reuse,
        ..Default::default()
    };
    for (name, spec) in &args.pin_inputs {
        cfg.input_dists.insert(name.clone(), parse_dist(spec, tree)?);
    }
    if let Some(spec) = &args.output_dist {
        cfg.output_dist = Some(parse_dist(spec, tree)?);
    }
    Ok(cfg)
}

/// Run `f` with the flags' observability installed as the one `tce_obs`
/// sink: a Chrome trace of `trace`, the JSONL progress stream when
/// `progress` and `--progress` are both set, and a fan-out of the two
/// when both are on. With neither, `f` runs plain. A
/// [`obs::TraceFlushGuard`] holds the trace path, so the file is written
/// even when `f` fails partway or panics — a partial timeline is exactly
/// what debugging a failure needs.
fn with_sinks<T>(
    args: &Args,
    trace: Option<&str>,
    progress: bool,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let mut sinks: Vec<Arc<dyn obs::Sink>> = Vec::new();
    if let (true, Some(every_ms)) = (progress, args.progress) {
        let writer: Box<dyn std::io::Write + Send> = match &args.progress_out {
            Some(path) => Box::new(
                std::fs::File::create(path)
                    .map_err(|e| format!("creating progress stream {path}: {e}"))?,
            ),
            None => Box::new(std::io::stderr()),
        };
        sinks.push(Arc::new(obs::stream::ProgressSink::new(writer, every_ms)));
    }
    let chrome = trace.map(|path| {
        let sink = Arc::new(ChromeTraceSink::new());
        sinks.push(sink.clone());
        (obs::TraceFlushGuard::new(sink.clone(), path), sink, path)
    });
    match sinks.len() {
        0 => return f(),
        1 => obs::install(sinks.remove(0)),
        _ => obs::install(Arc::new(sinks)),
    }
    let result = f();
    obs::uninstall();
    if let Some((guard, sink, path)) = chrome {
        guard.finish().map_err(|e| format!("writing trace {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} ({} events)", sink.len());
    }
    result
}

/// Run one search under the flags' observability: `--trace` when `trace`
/// (simulate keeps its trace for the simulated timeline), `--progress`,
/// and `--metrics-out` rendered from the returned run.
fn search(
    args: &Args,
    trace: bool,
    f: impl FnOnce() -> Result<Optimized, OptimizeError>,
) -> Result<Optimized, String> {
    let trace = args.trace.as_deref().filter(|_| trace);
    let opt = with_sinks(args, trace, true, || f().map_err(|e| e.to_string()))?;
    write_metrics(args, &opt)?;
    Ok(opt)
}

/// Write `--metrics-out`, if given, from `opt`: Prometheus text for a
/// `.prom` path, else the `tce-metrics/v1` JSON schema.
fn write_metrics(args: &Args, opt: &Optimized) -> Result<(), String> {
    let Some(path) = &args.metrics_out else { return Ok(()) };
    let snap = metrics_snapshot(opt);
    let text = if path.ends_with(".prom") { snap.to_prometheus() } else { snap.to_json() };
    std::fs::write(path, text).map_err(|e| format!("writing metrics {path}: {e}"))?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
}

/// The `observability` section of `--json` output: the run's search
/// counters plus the per-node breakdown.
fn observability_json(opt: &Optimized) -> serde_json::Value {
    use serde_json::{Number, Value};
    let num = |v: u64| Value::Number(Number::UInt(u128::from(v)));
    let counters =
        Value::Object(opt.counters.iter().map(|(name, v)| (name.to_string(), num(v))).collect());
    let nodes = Value::Array(
        opt.stats
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.clone())),
                    ("candidates".to_string(), num(s.candidates)),
                    ("pruned_inferior".to_string(), num(s.pruned_inferior)),
                    ("pruned_memory".to_string(), num(s.pruned_memory)),
                    ("redist_fallbacks".to_string(), num(s.redist_fallbacks)),
                    ("live".to_string(), num(s.live as u64)),
                ])
            })
            .collect(),
    );
    Value::Object(vec![("counters".to_string(), counters), ("nodes".to_string(), nodes)])
}

/// Where a command writes its stdout.
type Out<'a> = &'a mut dyn Write;

/// Why a command stopped early.
enum Failure {
    /// A diagnostic for stderr.
    Msg(String),
    /// Writing to stdout failed. Every `std::io::Error` a command passes up
    /// with `?` is one of these: commands turn file errors into messages.
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Msg(msg)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Stdout(e)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let mut stdout = std::io::stdout().lock();
    let out: Out = &mut stdout;
    let result = match args.command.as_str() {
        "optimize" => cmd_optimize(&args, out),
        "compile" => cmd_compile(&args, out),
        "simulate" => cmd_simulate(&args, out),
        "frontier" => cmd_frontier(&args, out),
        "check" => cmd_check(&args, out),
        "lint" => cmd_lint(&args, out),
        "explain" => cmd_explain(&args, out),
        "report" => cmd_report(&args, out),
        "fuzz" => cmd_fuzz(&args, out),
        "cache" => cmd_cache(&args, out),
        _ => return usage(),
    };
    match result.and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`tce ... | head`): nothing left to say.
        Err(Failure::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("tce: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Msg(e)) => {
            eprintln!("tce: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Read and parse the source file; a parse error comes back as
/// `<file>: <error>`.
fn parse_source(args: &Args) -> Result<Program, String> {
    let src =
        std::fs::read_to_string(&args.file).map_err(|e| format!("reading {}: {e}", args.file))?;
    parse(&src).map_err(|e| format!("{}: {e}", args.file))
}

/// Lint a parsed program and its lowering with the full pass registry
/// (cost-model passes included) and return the report.
fn lint_report(
    args: &Args,
    cm: &CostModel,
    prog: &Program,
    lowered: &Result<FormulaSequence, ExprError>,
) -> tensor_contraction_opt::check::diag::CheckReport {
    use tensor_contraction_opt::lint::{lint_program, LintOptions};
    lint_program(
        prog,
        lowered,
        &LintOptions { file: Some(&args.file), cm: Some(cm), ..LintOptions::default() },
    )
}

fn cmd_lint(args: &Args, out: Out) -> Result<(), Failure> {
    let cm = cost_model(args)?;
    let prog = parse_source(args)?;
    let report = lint_report(args, &cm, &prog, &lower_program(&prog));
    if args.json {
        writeln!(out, "{}", report.render_json())?;
    } else if report.diagnostics.is_empty() {
        writeln!(out, "{}: clean ({} passes)", args.file, report.passes_run.len())?;
    } else {
        write!(out, "{}", report.render_human())?;
    }
    let errors = report.error_count();
    let warnings = report.warning_count();
    if errors > 0 {
        Err(format!("{errors} error(s) found").into())
    } else if args.deny_warnings && warnings > 0 {
        Err(format!("{warnings} warning(s) found (denied by --deny-warnings)").into())
    } else {
        Ok(())
    }
}

/// The level-2 plan cache selected by the flags: an explicit
/// `--plan-cache` directory, else the platform default, else `None`
/// (caching off) under `--no-plan-cache` or when no cache directory can
/// be determined.
fn resolve_plan_cache(args: &Args) -> Option<tensor_contraction_opt::core::PlanCache> {
    use tensor_contraction_opt::core::PlanCache;
    if args.no_plan_cache {
        return None;
    }
    let dir = match &args.plan_cache {
        Some(d) => std::path::PathBuf::from(d),
        None => PlanCache::default_location()?,
    };
    Some(PlanCache::at(dir))
}

fn cmd_cache(args: &Args, out: Out) -> Result<(), Failure> {
    let cache = resolve_plan_cache(args)
        .ok_or_else(|| "no plan-cache directory (pass --plan-cache DIR or set HOME)".to_string())?;
    match args.file.as_str() {
        "stats" => {
            let s = cache.stats();
            writeln!(out, "plan cache at {}", cache.dir().display())?;
            writeln!(out, "  entries: {}", s.entries)?;
            writeln!(out, "  bytes:   {}", s.bytes)?;
            for (name, value) in &s.counters {
                writeln!(out, "  {name}: {value}")?;
            }
            Ok(())
        }
        "verify" => {
            let outcomes = cache.verify();
            if outcomes.is_empty() {
                writeln!(out, "plan cache at {}: empty", cache.dir().display())?;
                return Ok(());
            }
            let mut bad = 0usize;
            for o in &outcomes {
                match &o.result {
                    Ok(desc) => writeln!(out, "  ok  {} ({desc})", o.file)?,
                    Err(why) => {
                        bad += 1;
                        writeln!(out, "  BAD {} — {why}", o.file)?;
                    }
                }
            }
            if bad == 0 {
                writeln!(out, "{} entries verified clean", outcomes.len())?;
                Ok(())
            } else {
                Err(format!("{bad} of {} entries failed verification", outcomes.len()).into())
            }
        }
        "clear" => {
            let removed = cache.clear()?;
            writeln!(out, "removed {removed} entries from {}", cache.dir().display())?;
            Ok(())
        }
        other => {
            Err(format!("unknown cache action `{other}` (expected stats, verify, or clear)").into())
        }
    }
}

fn cmd_optimize(args: &Args, out: Out) -> Result<(), Failure> {
    let cm = cost_model(args)?;
    // Cheap static pre-pass: a lint *error* means the search (or the
    // simulation of its plan) is doomed — abort with the anchored
    // diagnostics instead; warnings are forwarded to stderr. The search
    // runs on the same lowering the lint read.
    let prog = parse_source(args)?;
    let lowered = lower_program(&prog);
    let lint = lint_report(args, &cm, &prog, &lowered);
    if !lint.diagnostics.is_empty() {
        eprint!("{}", lint.render_human());
    }
    if !lint.is_clean() {
        return Err(format!(
            "{} lint error(s) in {} (see `tce lint`)",
            lint.error_count(),
            args.file
        )
        .into());
    }
    let tree = lowered.map_err(|e| e.to_string())?.to_tree().map_err(|e| e.to_string())?;
    let cfg = opt_config(args, &tree)?;
    // Level-2 plan cache: consult before searching. A hit has already
    // been rename-mapped onto this tree and re-validated by the full
    // check registry (cost model and memory limit included) inside
    // `lookup`, so the whole DP search is skipped; anything suspect was
    // evicted with a reason and falls through to a fresh search.
    let cache = resolve_plan_cache(args);
    let key =
        cache.as_ref().and_then(|_| tensor_contraction_opt::core::cache_key(&tree, &cm, &cfg));
    let mut cached = None;
    if let (Some(c), Some(k)) = (&cache, &key) {
        let out = c.lookup(&tree, &cm, k);
        if let Some(reason) = out.evicted {
            eprintln!("plan cache: evicted invalid entry ({reason}); re-optimizing");
        }
        cached = out.run;
    }
    let warm = cached.is_some();
    let (opt, plan) = match cached {
        Some(run) => {
            if let Some(k) = &key {
                eprintln!("plan cache: warm hit (canonical hash {:032x})", k.expr_hash);
            }
            if args.trace.is_some() || args.progress.is_some() {
                eprintln!("plan cache: no search ran, so there was nothing to trace or stream");
            }
            write_metrics(args, &run.opt)?;
            (run.opt, run.plan)
        }
        None => {
            // Text output explains the plan, so it runs the explained
            // search: the memory limit is checked at the root alone, and
            // the same run gives the optimum with the limit lifted.
            let serve = if args.json || args.dot || args.spmd { plan_with } else { plan_explained };
            let opt = search(args, true, || serve(&tree, &cm, &cfg).map(|p| p.opt))?;
            let plan = extract_plan(&tree, &opt);
            validate_plan(&tree, &plan)?;
            if let (Some(c), Some(k)) = (&cache, &key) {
                match c.store(&tree, k, &plan, &opt) {
                    Ok(()) => {
                        eprintln!("plan cache: stored {}", c.dir().join(k.file_name()).display())
                    }
                    Err(e) => eprintln!("plan cache: store failed: {e}"),
                }
            }
            (opt, plan)
        }
    };
    if args.stats {
        writeln!(out, "search statistics:")?;
        write!(out, "{}", tensor_contraction_opt::core::render_search_stats(&opt))?;
        writeln!(out)?;
    }
    if opt.output_redist_cost > 0.0 {
        writeln!(
            out,
            "(final output redistribution into the requested layout: {:.1} s)",
            opt.output_redist_cost
        )?;
    }
    if args.dot {
        write!(out, "{}", render_plan_dot(&tree, &plan))?;
        return Ok(());
    }
    if args.json {
        let mut v = serde_json::to_value(&plan).map_err(|e| e.to_string())?;
        v.insert("observability", observability_json(&opt));
        writeln!(out, "{}", serde_json::to_string_pretty(&v).map_err(|e| e.to_string())?)?;
        return Ok(());
    }
    if args.spmd {
        write!(out, "{}", tensor_contraction_opt::core::render_spmd(&tree, &plan, args.procs))?;
        return Ok(());
    }
    write!(out, "{}", render_report(&build_report(&tree, &plan, &cm)))?;
    if warm {
        // The per-node decision record needs the search's solution sets,
        // which a cached run skips producing — re-deriving it would cost
        // the search the cache just saved. `tce explain` still works.
        if let Some(k) = &key {
            writeln!(
                out,
                "\ncache: level-2 warm hit (canonical hash {:032x}); plan revalidated on \
                 load — run `tce explain` for the per-node decision record",
                k.expr_hash
            )?;
        }
    } else {
        // Explain from the run just finished: it carries the optimum with
        // the limit lifted, so nothing is searched again.
        match tensor_contraction_opt::core::Explanation::from_run(&tree, &cm, &cfg, &opt, &plan) {
            Ok(e) => writeln!(out, "\n{}", e.text)?,
            Err(e) => eprintln!("explain: {e}"),
        }
    }
    writeln!(out, "\nplan:")?;
    for step in &plan.steps {
        let fusion = if step.result_fusion.is_empty() {
            String::new()
        } else {
            format!(" fused ({})", tree.space.render(step.result_fusion.as_slice()))
        };
        writeln!(
            out,
            "  {} in {}{} — step comm {:.3} s",
            step.result_name,
            step.result_dist.render(&tree.space),
            fusion,
            step.step_comm()
        )?;
    }
    Ok(())
}

fn cmd_compile(args: &Args, out: Out) -> Result<(), Failure> {
    let (seq, _) = load_sequence(&args.file)?;
    let tree = seq.to_tree().map_err(|e| e.to_string())?;
    writeln!(out, "--- formula sequence ---")?;
    write!(out, "{}", render_sequence(&seq))?;
    writeln!(out, "\n--- unfused loops ---")?;
    write!(out, "{}", render_unfused_loops(&tree))?;
    let mm = minimize_memory(&tree, usize::MAX);
    writeln!(out, "\n--- memory-minimal fused loops ---")?;
    write!(out, "{}", render_fused(&tree, &mm.config))?;
    writeln!(out, "\nintermediate words after fusion: {}", mm.words)?;
    Ok(())
}

/// Turn a simulator error into an actionable CLI diagnostic.
fn render_sim_error(e: tensor_contraction_opt::sim::SimError) -> String {
    use tensor_contraction_opt::sim::SimError;
    match &e {
        SimError::Indivisible { index, extent, parts } => format!(
            "{e}\nhint: declare `{index}` with an extent divisible by {parts} \
             (e.g. {}) or simulate on fewer processors",
            extent.next_multiple_of(u64::from(*parts)).max(u64::from(*parts))
        ),
        SimError::NonSquareGrid => {
            format!("{e}\nhint: pass a processor count that is a perfect square (4, 16, 64, ...)")
        }
        SimError::ReferenceTooLarge { .. } => format!(
            "{e}\nhint: the simulator holds every array whole; use smaller extents \
             (e.g. workloads/ccsd_tiny.tce)"
        ),
        SimError::Inconsistent(_) => {
            format!("{e}\nhint: this is a bug; re-run with --trace and report it")
        }
    }
}

fn cmd_simulate(args: &Args, out: Out) -> Result<(), Failure> {
    let tree = load_tree(&args.file)?;
    let cm = cost_model(args)?;
    // Either replay a saved plan artifact or optimize fresh.
    let plan = match &args.plan_file {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let plan = tensor_contraction_opt::core::ExecutionPlan::from_json(&json)
                .map_err(|e| e.to_string())?;
            validate_plan(&tree, &plan)?;
            plan
        }
        None => {
            let cfg = opt_config(args, &tree)?;
            let opt = search(args, false, || plan_with(&tree, &cm, &cfg).map(|p| p.opt))?;
            extract_plan(&tree, &opt)
        }
    };
    let (report, events) = with_sinks(args, args.trace.as_deref(), false, || {
        simulate_traced(&tree, &plan, &cm, args.seed, true).map_err(render_sim_error)
    })?;
    writeln!(
        out,
        "simulated {} processors: comm {:.4} s (predicted {:.4} s), compute {:.4} s",
        args.procs, report.metrics.comm_seconds, plan.comm_cost, report.metrics.compute_seconds
    )?;
    writeln!(
        out,
        "messages/proc {}, volume/proc {} B, peak {} words/proc, flops {}",
        report.metrics.messages,
        report.metrics.volume_bytes,
        report.metrics.peak_words,
        report.metrics.total_flops
    )?;
    writeln!(out, "max |error| vs sequential reference: {:.3e}", report.max_abs_err)?;
    // Per-step communication breakdown.
    let mut by_step: Vec<(String, f64)> = Vec::new();
    for e in &events {
        match by_step.iter_mut().find(|(s, _)| *s == e.step) {
            Some((_, t)) => *t += e.seconds,
            None => by_step.push((e.step.clone(), e.seconds)),
        }
    }
    writeln!(out, "per-step communication:")?;
    for (step, secs) in by_step {
        writeln!(out, "  {step}: {secs:.4} s")?;
    }
    if args.stats {
        use tensor_contraction_opt::sim::{per_kind_totals, CommKind};
        writeln!(out, "communication by kind:")?;
        writeln!(
            out,
            "  {:<12} {:>8} {:>10} {:>16} {:>12}",
            "kind", "rounds", "messages", "bytes/proc", "seconds"
        )?;
        for (kind, t) in CommKind::ALL.iter().zip(per_kind_totals(&events).iter()) {
            writeln!(
                out,
                "  {:<12} {:>8} {:>10} {:>16} {:>12.4}",
                kind.name(),
                t.rounds,
                t.messages,
                t.bytes,
                t.seconds
            )?;
        }
    }
    if !report.verified() {
        return Err(Failure::Msg("verification failed".into()));
    }
    Ok(())
}

/// Shared front half of `explain` and `report`: load, optimize (with the
/// full observability surface available), and hand back tree + model + run.
fn optimize_for_provenance(args: &Args) -> Result<(ExprTree, CostModel, Optimized), String> {
    let tree = load_tree(&args.file)?;
    let cm = cost_model(args)?;
    let cfg = opt_config(args, &tree)?;
    let opt = search(args, true, || plan_with(&tree, &cm, &cfg).map(|p| p.opt))?;
    Ok((tree, cm, opt))
}

/// How many runner-up candidates `explain`/`report` record per node.
const PROVENANCE_TOP_K: usize = 3;

fn cmd_explain(args: &Args, out: Out) -> Result<(), Failure> {
    let (tree, cm, opt) = optimize_for_provenance(args)?;
    let prov = build_provenance(&tree, &opt, &cm, PROVENANCE_TOP_K);
    write!(out, "{}", render_provenance(&tree, &prov))?;
    // Cache line: the canonical identity of this expression and how much
    // of the search the in-run subtree reuse absorbed. `explain` always
    // re-optimizes (the decision record needs the live solution sets),
    // so level 2 is reported as not consulted.
    let form = tensor_contraction_opt::expr::canonical_form(&tree);
    writeln!(
        out,
        "cache: canonical hash {:032x}; level-1 subtree reuse {} hit / {} miss; \
         level-2 not consulted (explain re-optimizes for the decision record)",
        form.hash,
        opt.counters.get(obs::names::SUBTREE_HIT),
        opt.counters.get(obs::names::SUBTREE_MISS),
    )?;
    Ok(())
}

/// The `simulator` section of `tce report --simulate`: measured end-to-end
/// metrics plus the traced per-kind roll-up.
fn simulator_json(
    report: &tensor_contraction_opt::sim::SimReport,
    events: &[tensor_contraction_opt::sim::CommEvent],
) -> serde_json::Value {
    use serde_json::{Number, Value};
    use tensor_contraction_opt::sim::{per_kind_totals, CommKind};
    let fnum = |v: f64| Value::Number(Number::Float(v));
    let unum = |v: u128| Value::Number(Number::UInt(v));
    let by_kind = Value::Object(
        CommKind::ALL
            .iter()
            .zip(per_kind_totals(events).iter())
            .map(|(kind, t)| {
                (
                    kind.name().to_string(),
                    Value::Object(vec![
                        ("rounds".to_string(), unum(u128::from(t.rounds))),
                        ("messages".to_string(), unum(u128::from(t.messages))),
                        ("bytes_per_proc".to_string(), unum(t.bytes)),
                        ("seconds".to_string(), fnum(t.seconds)),
                    ]),
                )
            })
            .collect(),
    );
    Value::Object(vec![
        ("comm_seconds".to_string(), fnum(report.metrics.comm_seconds)),
        ("compute_seconds".to_string(), fnum(report.metrics.compute_seconds)),
        ("messages_per_proc".to_string(), unum(u128::from(report.metrics.messages))),
        ("volume_bytes_per_proc".to_string(), unum(report.metrics.volume_bytes)),
        ("peak_words_per_proc".to_string(), unum(report.metrics.peak_words)),
        ("total_flops".to_string(), unum(report.metrics.total_flops)),
        ("max_abs_err".to_string(), fnum(report.max_abs_err)),
        ("by_kind".to_string(), by_kind),
    ])
}

fn cmd_report(args: &Args, out: Out) -> Result<(), Failure> {
    let (tree, cm, opt) = optimize_for_provenance(args)?;
    let mut v = report_json(&tree, &opt, &cm, PROVENANCE_TOP_K);
    if args.report_simulate {
        let plan = extract_plan(&tree, &opt);
        let (report, events) =
            simulate_traced(&tree, &plan, &cm, args.seed, true).map_err(render_sim_error)?;
        v.insert("simulator", simulator_json(&report, &events));
    }
    writeln!(out, "{}", serde_json::to_string_pretty(&v).map_err(|e| e.to_string())?)?;
    Ok(())
}

fn cmd_check(args: &Args, out: Out) -> Result<(), Failure> {
    let (tree, spans) = load_tree_spanned(&args.file)?;
    let cm = cost_model(args)?;
    let plan = match &args.plan_file {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            tensor_contraction_opt::core::ExecutionPlan::from_json(&json)
                .map_err(|e| format!("parsing {path}: {e}"))?
        }
        None => {
            let cfg = opt_config(args, &tree)?;
            let opt = search(args, true, || plan_with(&tree, &cm, &cfg).map(|p| p.opt))?;
            extract_plan(&tree, &opt)
        }
    };
    let mut report = check_plan(&tree, &plan, Some(&cm), Some(cm.mem_limit_words()));
    // Anchor findings at the source declaration of the array they concern.
    for d in &mut report.diagnostics {
        if let Some(node) = d.node.filter(|n| n.as_usize() < tree.len()) {
            let name = &tree.node(node).tensor.name;
            if let Some(&(line, col)) = spans.get(name.as_str()) {
                d.notes.push(format!("`{name}` declared at {}:{line}:{col}", args.file));
            }
        }
    }
    if args.json {
        writeln!(out, "{}", report.render_json())?;
    } else {
        write!(out, "{}", report.render_human())?;
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} error(s) found", report.error_count()).into())
    }
}

fn cmd_fuzz(args: &Args, out: Out) -> Result<(), Failure> {
    let cfg =
        tensor_contraction_opt::fuzz::FuzzConfig { data_seed: args.seed, ..Default::default() };
    // Replay mode: one workload file through the full differential loop.
    if let Some(path) = &args.replay {
        let stats = tensor_contraction_opt::fuzz::replay_file(path, &cfg)
            .map_err(|f| format!("replay {path}: {f}"))?;
        writeln!(
            out,
            "replay {path}: clean ({} optimizer configs, {} simulations{})",
            stats.optimizations,
            stats.simulations,
            if stats.exhaustive { ", exhaustive oracle" } else { "" }
        )?;
        return Ok(());
    }
    let corpus = (args.corpus != "none").then(|| std::path::PathBuf::from(&args.corpus));
    let mut log = |line: &str| eprintln!("{line}");
    let summary = tensor_contraction_opt::fuzz::run_seeds(
        args.fuzz_start,
        args.fuzz_seeds,
        &cfg,
        corpus.as_deref(),
        &mut log,
    );
    writeln!(
        out,
        "fuzzed seeds {}..{}: {} optimizer configs, {} simulations, \
         {} trees covered by the exhaustive oracle, \
         key pass found no plan on {} of {} feasible warm-start runs",
        args.fuzz_start,
        args.fuzz_start + summary.seeds_run,
        summary.optimizations,
        summary.simulations,
        summary.exhaustive_trees,
        summary.key_pass_misses,
        summary.key_pass_runs,
    )?;
    if summary.failures.is_empty() {
        writeln!(out, "no discrepancies found")?;
        Ok(())
    } else {
        for f in &summary.failures {
            writeln!(out, "seed {}: {}", f.seed, f.failure)?;
            if let Some(p) = &f.path {
                writeln!(out, "  reproducer: {}", p.display())?;
            }
        }
        Err(format!(
            "{} of {} seeds found discrepancies",
            summary.failures.len(),
            summary.seeds_run
        )
        .into())
    }
}

fn cmd_frontier(args: &Args, out: Out) -> Result<(), Failure> {
    let tree = load_tree(&args.file)?;
    let cm = cost_model(args)?;
    let cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..opt_config(args, &tree)? };
    let opt = search(args, true, || optimize(&tree, &cm, &cfg))?;
    writeln!(out, "{:>16} {:>14}   fits", "footprint/proc", "comm (s)")?;
    for p in root_frontier(&tree, &opt) {
        writeln!(
            out,
            "{:>16} {:>14.2}   {}",
            fmt_paper_bytes(words_to_bytes(p.footprint_words)),
            p.comm_cost,
            if p.footprint_words <= cm.mem_limit_words() { "yes" } else { "no" }
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_tree() -> ExprTree {
        parse(
            "range i = 8; range j = 8; range k = 8;\n\
             input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n",
        )
        .unwrap()
        .to_sequence()
        .unwrap()
        .to_tree()
        .unwrap()
    }

    #[test]
    fn parse_dist_accepts_pairs_and_rejects_junk() {
        let tree = demo_tree();
        let d = parse_dist("i,j", &tree).unwrap();
        assert_eq!(d.render(&tree.space), "<i,j>");
        let d = parse_dist(" k , i ", &tree).unwrap();
        assert_eq!(d.render(&tree.space), "<k,i>");
        assert!(parse_dist("i", &tree).is_err());
        assert!(parse_dist("i,zz", &tree).is_err());
    }

    #[test]
    fn opt_config_collects_pins() {
        let tree = demo_tree();
        let args = Args {
            command: "optimize".into(),
            file: String::new(),
            procs: 4,
            mem_gb: None,
            asym: 1.0,
            allow_replication: false,
            allow_unrelated_rotation: true,
            dot: false,
            json: false,
            spmd: false,
            plan_file: None,
            pin_inputs: vec![("A".into(), "i,k".into())],
            output_dist: Some("i,j".into()),
            seed: 1,
            trace: None,
            stats: false,
            progress: None,
            progress_out: None,
            metrics_out: None,
            report_simulate: false,
            threads: 3,
            verify: false,
            fuzz_seeds: 50,
            fuzz_start: 0,
            replay: None,
            corpus: "golden/fuzz_corpus".into(),
            deny_warnings: false,
            plan_cache: None,
            no_plan_cache: false,
            no_subtree_reuse: false,
        };
        let cfg = opt_config(&args, &tree).unwrap();
        assert!(cfg.allow_unrelated_rotation);
        assert_eq!(cfg.threads, 3);
        assert!(cfg.input_dists.contains_key("A"));
        assert!(cfg.output_dist.is_some());
    }
}
