//! One request served in-process, calling the layers in the order
//! `cmd_optimize` / `cmd_simulate` of `src/bin/tce.rs` call them, each
//! call wrapped in a benchmark-owned span.
//!
//! The printed output is rebuilt byte for byte as `tce` prints it, so the
//! same checks verify the spawned binary and this replay.

use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::{Number, Value};
use tensor_contraction_opt::core::portfolio::plan as plan_with;
use tensor_contraction_opt::core::{
    build_report, cache_key, explain, extract_plan, render_report, validate_plan, ExecutionPlan,
    Optimized, PlanCache,
};
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::lint::{lint_source, LintOptions};
use tensor_contraction_opt::obs::names;
use tensor_contraction_opt::opmin::lower_program;
use tensor_contraction_opt::sim::simulate_traced;

use crate::workloads::{Command, Program, Request};

/// Span names: the layers of the request path.
pub mod layer {
    pub const CLI: &str = "cli";
    pub const COST_MODEL: &str = "cost.model";
    pub const LINT: &str = "lint";
    pub const PARSE: &str = "expr.parse";
    pub const LOWER: &str = "opmin.lower";
    pub const CACHE_KEY: &str = "core.cache.key";
    pub const CACHE_LOOKUP: &str = "core.cache.lookup";
    pub const CACHE_STORE: &str = "core.cache.store";
    pub const DP: &str = "core.dp";
    pub const EXTRACT: &str = "core.plan.extract";
    pub const CHECK: &str = "check";
    pub const REPORT: &str = "core.report";
    pub const EXPLAIN: &str = "core.explain";
    pub const SIM: &str = "sim";
}

/// Records benchmark-owned spans for one request: the request span and,
/// flat beneath it, one span per layer call. When tracing is on, every
/// span also goes to the installed `tce_obs` sink, where the program's own
/// `dp/*` spans nest under it in `trace.json`.
pub struct Tracer {
    on: bool,
    layers: Vec<(&'static str, Duration)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, layers: Vec::new() }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let _sink_span = tensor_contraction_opt::obs::span("benchmark", name);
        let start = Instant::now();
        let out = f();
        self.layers.push((name, start.elapsed()));
        out
    }

    /// The recorded layer spans, in call order.
    pub fn layers(&self) -> &[(&'static str, Duration)] {
        &self.layers
    }
}

/// Level-2 cache outcome of one optimize request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// `--no-plan-cache` (or simulate).
    Off,
    Hit,
    /// Lookup missed; the fresh plan was stored.
    Stored,
    /// Lookup missed and the store failed.
    Missed,
}

/// What the DP reported, for the `core.dp.*` metrics.
pub struct DpSample {
    pub candidates: u64,
    pub frontier: u64,
    pub bnb_skip: u64,
    pub bnb_floor: u64,
    pub memo_hit: u64,
    pub memo_miss: u64,
    pub subtree_hit: u64,
    pub subtree_miss: u64,
    pub arena_hw_bytes: u64,
}

impl DpSample {
    fn of(opt: &Optimized) -> Self {
        let c = &opt.counters;
        DpSample {
            candidates: c.get(names::CANDIDATES),
            frontier: c.get(names::FRONTIER),
            bnb_skip: c.get(names::BNB_SKIP),
            bnb_floor: c.get(names::BNB_FLOOR),
            memo_hit: c.get(names::MEMO_HIT),
            memo_miss: c.get(names::MEMO_MISS),
            subtree_hit: c.get(names::SUBTREE_HIT),
            subtree_miss: c.get(names::SUBTREE_MISS),
            arena_hw_bytes: opt.arena_hw_bytes,
        }
    }
}

/// What the simulator reported, for the `sim.*` metrics.
pub struct SimSample {
    pub flops: u128,
    pub messages: u64,
    pub volume_bytes: u128,
}

/// One served request.
pub struct Served {
    pub stdout: String,
    pub cache: CacheOutcome,
    pub dp: Option<DpSample>,
    pub sim: Option<SimSample>,
    /// The tree the request optimized (for side measurements).
    pub tree: ExprTree,
}

/// Serve `req` in-process. `Err` is what `tce` would report on stderr
/// before exiting 1.
pub fn serve(
    req: &Request,
    program: &Program,
    root: &Path,
    cache_dir: &Path,
    tr: &mut Tracer,
) -> Result<Served, String> {
    match req.command {
        Command::Simulate => simulate(req, program, root, tr),
        Command::OptimizeText | Command::OptimizeJson => {
            optimize(req, program, root, cache_dir, tr)
        }
    }
}

fn read(root: &Path, program: &Program, tr: &mut Tracer) -> Result<String, String> {
    let path = root.join(&program.arg);
    tr.span(layer::CLI, || std::fs::read_to_string(&path))
        .map_err(|e| format!("reading {}: {e}", program.arg))
}

fn load(src: &str, tr: &mut Tracer) -> Result<ExprTree, String> {
    let prog = tr.span(layer::PARSE, || parse(src)).map_err(|e| e.to_string())?;
    tr.span(layer::LOWER, || lower_program(&prog).and_then(|seq| seq.to_tree()))
        .map_err(|e| e.to_string())
}

fn optimize(
    req: &Request,
    program: &Program,
    root: &Path,
    cache_dir: &Path,
    tr: &mut Tracer,
) -> Result<Served, String> {
    let cm = tr.span(layer::COST_MODEL, || req.cost_model());
    let src = read(root, program, tr)?;
    let lint = tr.span(layer::LINT, || {
        lint_source(
            &src,
            &LintOptions { file: Some(&program.arg), cm: Some(&cm), ..LintOptions::default() },
        )
    })?;
    if !lint.is_clean() {
        return Err(format!("{} lint error(s) in {}", lint.error_count(), program.arg));
    }
    let src = read(root, program, tr)?;
    let tree = load(&src, tr)?;
    let cfg = req.config();

    let cache = req.cached.then(|| PlanCache::at(cache_dir));
    let key = match &cache {
        Some(_) => tr.span(layer::CACHE_KEY, || cache_key(&tree, &cm, &cfg)),
        None => None,
    };
    let mut hit = None;
    if let (Some(c), Some(k)) = (&cache, &key) {
        hit = tr.span(layer::CACHE_LOOKUP, || c.lookup(&tree, &cm, k)).run;
    }
    let mut outcome = if cache.is_some() { CacheOutcome::Missed } else { CacheOutcome::Off };
    let mut dp = None;
    let (opt, plan) = match hit {
        Some(run) => {
            outcome = CacheOutcome::Hit;
            (run.opt, run.plan)
        }
        None => {
            let planned =
                tr.span(layer::DP, || plan_with(&tree, &cm, &cfg)).map_err(|e| e.to_string())?;
            dp = Some(DpSample::of(&planned.opt));
            let plan = tr.span(layer::EXTRACT, || extract_plan(&tree, &planned.opt));
            tr.span(layer::CHECK, || validate_plan(&tree, &plan))?;
            if let (Some(c), Some(k)) = (&cache, &key) {
                if tr.span(layer::CACHE_STORE, || c.store(&tree, k, &plan, &planned.opt)).is_ok() {
                    outcome = CacheOutcome::Stored;
                }
            }
            (planned.opt, plan)
        }
    };

    let mut out = redistribution_note(&opt);
    if req.command == Command::OptimizeJson {
        out.push_str(&tr.span(layer::REPORT, || render_json(&plan, &opt))?);
    } else {
        // Text requests never use the plan cache, so `tce` always explains.
        out.push_str(&tr.span(layer::REPORT, || render_report(&build_report(&tree, &plan, &cm))));
        if let Ok(e) = tr.span(layer::EXPLAIN, || explain(&tree, &cm, &cfg)) {
            out.push_str(&format!("\n{}\n", e.text));
        }
        out.push_str(&tr.span(layer::CLI, || plan_section(&tree, &plan)));
    }
    Ok(Served { stdout: out, cache: outcome, dp, sim: None, tree })
}

/// The note `tce optimize` prints first when the plan ends with a
/// redistribution into a requested output layout.
pub fn redistribution_note(opt: &Optimized) -> String {
    if opt.output_redist_cost > 0.0 {
        format!(
            "(final output redistribution into the requested layout: {:.1} s)\n",
            opt.output_redist_cost
        )
    } else {
        String::new()
    }
}

/// `tce optimize --json` output: the plan JSON plus the `observability`
/// section `tce` adds.
pub fn render_json(plan: &ExecutionPlan, opt: &Optimized) -> Result<String, String> {
    let num = |v: u64| Value::Number(Number::UInt(u128::from(v)));
    let mut v: Value = serde_json::from_str(&plan.to_json())
        .map_err(|e| format!("internal plan JSON error: {e}"))?;
    let counters =
        Value::Object(opt.counters.iter().map(|(n, v)| (n.to_string(), num(v))).collect());
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
    v.insert(
        "observability",
        Value::Object(vec![("counters".to_string(), counters), ("nodes".to_string(), nodes)]),
    );
    Ok(serde_json::to_string_pretty(&v).map_err(|e| e.to_string())? + "\n")
}

/// The `plan:` section that ends `tce optimize`'s text output.
pub fn plan_section(tree: &ExprTree, plan: &ExecutionPlan) -> String {
    let mut out = String::from("\nplan:\n");
    for step in &plan.steps {
        let fusion = if step.result_fusion.is_empty() {
            String::new()
        } else {
            format!(" fused ({})", tree.space.render(step.result_fusion.as_slice()))
        };
        out.push_str(&format!(
            "  {} in {}{} — step comm {:.3} s\n",
            step.result_name,
            step.result_dist.render(&tree.space),
            fusion,
            step.step_comm()
        ));
    }
    out
}

fn simulate(
    req: &Request,
    program: &Program,
    root: &Path,
    tr: &mut Tracer,
) -> Result<Served, String> {
    let src = read(root, program, tr)?;
    let tree = load(&src, tr)?;
    let cm = tr.span(layer::COST_MODEL, || req.cost_model());
    let planned =
        tr.span(layer::DP, || plan_with(&tree, &cm, &req.config())).map_err(|e| e.to_string())?;
    let plan = tr.span(layer::EXTRACT, || extract_plan(&tree, &planned.opt));
    let (report, events) = tr
        .span(layer::SIM, || simulate_traced(&tree, &plan, &cm, req.sim_seed, true))
        .map_err(|e| e.to_string())?;
    let out = tr.span(layer::CLI, || {
        let m = &report.metrics;
        let mut out = format!(
            "simulated {} processors: comm {:.4} s (predicted {:.4} s), compute {:.4} s\n",
            req.procs, m.comm_seconds, plan.comm_cost, m.compute_seconds
        );
        out.push_str(&format!(
            "messages/proc {}, volume/proc {} B, peak {} words/proc, flops {}\n",
            m.messages, m.volume_bytes, m.peak_words, m.total_flops
        ));
        out.push_str(&format!("max |error| vs sequential reference: {:.3e}\n", report.max_abs_err));
        let mut by_step: Vec<(String, f64)> = Vec::new();
        for e in &events {
            match by_step.iter_mut().find(|(s, _)| *s == e.step) {
                Some((_, t)) => *t += e.seconds,
                None => by_step.push((e.step.clone(), e.seconds)),
            }
        }
        out.push_str("per-step communication:\n");
        for (step, secs) in by_step {
            out.push_str(&format!("  {step}: {secs:.4} s\n"));
        }
        out
    });
    if report.max_abs_err > 1e-9 {
        return Err("verification failed".into());
    }
    let sim = SimSample {
        flops: report.metrics.total_flops,
        messages: report.metrics.messages,
        volume_bytes: report.metrics.volume_bytes,
    };
    Ok(Served {
        stdout: out,
        cache: CacheOutcome::Off,
        dp: Some(DpSample::of(&planned.opt)),
        sim: Some(sim),
        tree,
    })
}
