//! Set-up: generate the inputs, compute every reference plan in-process,
//! check it independently, derive the expected output, and pre-fill the
//! plan cache. Everything here happens before the first timed request and
//! is what `setup_s` measures.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;
use tensor_contraction_opt::check::check_plan;
use tensor_contraction_opt::core::portfolio::plan as plan_with;
use tensor_contraction_opt::core::{
    build_report, cache_key, extract_plan, render_report, PlanCache,
};

use crate::inproc::{plan_section, redistribution_note, render_json};
use crate::workloads::{load_tree, Command, Inputs, RefKey, Request, Workload};

/// Communication costs of the shipped programs, pinned to the bit.
const PINNED: &str = include_str!("../reference.json");

/// What a correct response prints.
pub enum Expected {
    /// Text optimize: the report table that opens the output and the
    /// `plan:` section that closes it.
    Text { report: String, plan: String },
    /// JSON optimize: the whole output, byte for byte.
    Json(String),
    /// Simulate: the predicted cost as printed (`{:.4}`).
    Simulate { predicted: String },
}

pub struct Setup {
    pub inputs: Inputs,
    pub expected: HashMap<RefKey, Expected>,
    /// Failed set-up checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Σ cost and Σ certified floor over the seed-independent programs.
    pub quality_cost: f64,
    pub quality_floor: f64,
    /// `cache-warm`: the pre-filled cache directory.
    pub prefill_dir: PathBuf,
    /// `cache-warm`: wall time of each pre-fill store (ms).
    pub store_ms: Vec<f64>,
    /// `cache-warm`: size of each pre-filled entry (bytes).
    pub entry_bytes: Vec<u64>,
}

impl Setup {
    pub fn plan_comm_s(&self) -> f64 {
        self.quality_cost
    }

    pub fn certified_gap_frac(&self) -> f64 {
        (self.quality_cost - self.quality_floor) / self.quality_cost
    }

    /// The expected output of `req` (every request has one).
    pub fn expected(&self, req: &Request) -> &Expected {
        &self.expected[&req.reference_key()]
    }
}

/// Run the whole set-up for `workload` under `dir` (emptied first).
pub fn run(workload: Workload, seed: u64, root: &Path, dir: &Path) -> Result<Setup, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let input_dir = dir.join("inputs");
    std::fs::create_dir_all(&input_dir)
        .map_err(|e| format!("creating {}: {e}", input_dir.display()))?;
    let inputs = Inputs::generate(workload, seed, root, &input_dir)?;
    inputs.write_files()?;
    let pinned = pinned_costs()?;

    let mut setup = Setup {
        expected: HashMap::new(),
        errors: Vec::new(),
        quality_cost: 0.0,
        quality_floor: 0.0,
        prefill_dir: dir.join("prefill"),
        store_ms: Vec::new(),
        entry_bytes: Vec::new(),
        inputs,
    };
    let cache = PlanCache::at(&setup.prefill_dir);
    // Cache file name and cost bits of each stored program, to hold every
    // renamed isomorph to its base.
    let mut stored: HashMap<usize, (String, u64)> = HashMap::new();
    for req in reference_requests(&setup.inputs) {
        let program = &setup.inputs.programs[req.program];
        let what = format!(
            "{} at {} procs{}",
            program.name,
            req.procs,
            if req.enlarged { " (enlarged)" } else { "" }
        );
        let tree = load_tree(&program.source).map_err(|e| format!("{what}: {e}"))?;
        let cm = req.cost_model();
        let cfg = req.config();
        let key = if req.cached { cache_key(&tree, &cm, &cfg) } else { None };

        // A renamed isomorph's reference is what a clean cache returns for
        // it: its base's stored plan, mapped onto its own names.
        let (opt, plan) = match (program.base, &key) {
            (Some(base), Some(key)) => {
                let Some(run) = cache.lookup(&tree, &cm, key).run else {
                    return Err(format!(
                        "{what}: the pre-filled cache misses this renamed isomorph"
                    ));
                };
                match stored.get(&base) {
                    Some((file, bits))
                        if *file == key.file_name() && *bits == run.opt.comm_cost.to_bits() => {}
                    _ => setup.errors.push(format!(
                        "{what}: the cache serves it a different key or cost than its base"
                    )),
                }
                (run.opt, run.plan)
            }
            _ => {
                let opt = plan_with(&tree, &cm, &cfg).map_err(|e| format!("{what}: {e}"))?.opt;
                let plan = extract_plan(&tree, &opt);
                (opt, plan)
            }
        };

        let check = check_plan(&tree, &plan, Some(&cm), Some(cm.mem_limit_words()));
        if !check.is_clean() {
            setup.errors.push(format!(
                "{what}: reference plan fails the check registry:\n{}",
                check.render_human()
            ));
        }
        if opt.comm_cost < opt.comm_lower_bound {
            setup.errors.push(format!(
                "{what}: cost {} is below its certified floor {}",
                opt.comm_cost, opt.comm_lower_bound
            ));
        }
        if program.shipped {
            match pinned.get(&(
                program.name.clone(),
                req.procs,
                req.enlarged,
                req.mem_gb.map(str::to_string),
            )) {
                Some(&pin) if pin.to_bits() == opt.comm_cost.to_bits() => {}
                Some(&pin) => setup.errors.push(format!(
                    "{what}: cost {:?} differs from the pinned {pin:?} in reference.json",
                    opt.comm_cost
                )),
                None => setup.errors.push(format!(
                    "{what}: no pinned cost in reference.json (this build computes {:?})",
                    opt.comm_cost
                )),
            }
        }
        if program.quality {
            setup.quality_cost += opt.comm_cost;
            setup.quality_floor += opt.comm_lower_bound;
        }

        let redist = redistribution_note(&opt);
        let expected = match req.command {
            Command::OptimizeText => Expected::Text {
                report: redist + &render_report(&build_report(&tree, &plan, &cm)),
                plan: plan_section(&tree, &plan),
            },
            Command::OptimizeJson => Expected::Json(redist + &render_json(&plan, &opt)?),
            Command::Simulate => Expected::Simulate { predicted: format!("{:.4}", plan.comm_cost) },
        };
        setup.expected.insert(req.reference_key(), expected);

        if let (true, Some(key)) = (setup.inputs.prefill.contains(&req.program), &key) {
            let start = Instant::now();
            cache.store(&tree, key, &plan, &opt).map_err(|e| format!("{what}: pre-fill: {e}"))?;
            setup.store_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let entry = setup.prefill_dir.join(key.file_name());
            let len =
                std::fs::metadata(&entry).map_err(|e| format!("{}: {e}", entry.display()))?.len();
            setup.entry_bytes.push(len);
            stored.insert(req.program, (key.file_name(), opt.comm_cost.to_bits()));
        }
    }
    Ok(setup)
}

/// One request per distinct expected output of the workload, in program
/// order: pre-filled bases come before their isomorphs, and the quality
/// sums add up in the same order whatever the seed.
fn reference_requests(inputs: &Inputs) -> Vec<Request> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    let mut consider = |req: Request| {
        if !seen.contains(&req.reference_key()) {
            seen.push(req.reference_key());
            out.push(req);
        }
    };
    match inputs.workload {
        // Every program of these streams shows up within the first block
        // (paper-suite) or the first two requests (the others).
        Workload::PaperSuite | Workload::SearchEnlarged | Workload::SimulateVerify => {
            for i in 0..8 {
                consider(inputs.request(0, i));
            }
        }
        Workload::CacheWarm => {
            let template = inputs.request(0, 0);
            for program in 0..inputs.programs.len() {
                consider(Request { program, ..template.clone() });
            }
        }
    }
    out.sort_by_key(|r| (r.program, r.procs));
    out
}

/// `(program, procs, enlarged, --mem-gb) → communication seconds`.
type Pins = HashMap<(String, u32, bool, Option<String>), f64>;

fn pinned_costs() -> Result<Pins, String> {
    let v: Value = serde_json::from_str(PINNED).map_err(|e| format!("reference.json: {e}"))?;
    let rows =
        v.get("comm_cost").and_then(Value::as_array).ok_or("reference.json: no comm_cost list")?;
    rows.iter()
        .map(|r| {
            let program = r.get("program").and_then(Value::as_str);
            let procs = r.get("procs").and_then(Value::as_u64).and_then(|p| u32::try_from(p).ok());
            let enlarged = matches!(r.get("enlarged"), Some(Value::Bool(true)));
            let mem_gb = r.get("mem_gb").and_then(Value::as_str).map(str::to_string);
            let seconds = r.get("seconds").and_then(Value::as_f64);
            match (program, procs, seconds) {
                (Some(p), Some(n), Some(s)) => Ok(((p.to_string(), n, enlarged, mem_gb), s)),
                _ => Err(format!("reference.json: malformed row {r:?}")),
            }
        })
        .collect()
}

/// Check one response against its expected output.
pub fn verify(expected: &Expected, stdout: &str) -> Result<(), String> {
    match expected {
        Expected::Text { report, plan } => {
            if !stdout.starts_with(report.as_str()) {
                let want = line_starting(report, "Total communication:");
                let got = line_starting(stdout, "Total communication:");
                return Err(format!(
                    "report differs from the reference (want `{want}`, got `{got}`)"
                ));
            }
            if !stdout.ends_with(plan.as_str()) {
                return Err("`plan:` section differs from the reference plan".into());
            }
            Ok(())
        }
        Expected::Json(json) if stdout == json => Ok(()),
        Expected::Json(_) => Err("JSON output is not byte-identical to the cold reference".into()),
        Expected::Simulate { predicted } => {
            let err: f64 = line_starting(stdout, "max |error| vs sequential reference:")
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("no `max |error|` line")?;
            if err.is_nan() || err > 1e-9 {
                return Err(format!("max |error| {err:e} exceeds 1e-9"));
            }
            let want = format!("(predicted {predicted} s)");
            if !line_starting(stdout, "simulated ").contains(&want) {
                return Err(format!("simulated cost line lacks `{want}`"));
            }
            Ok(())
        }
    }
}

fn line_starting<'a>(text: &'a str, prefix: &str) -> &'a str {
    text.lines().find(|l| l.starts_with(prefix)).unwrap_or("")
}
