//! The four workloads: their programs and request streams, generated from
//! the workload seed alone.
//!
//! Every request is a description of one `tce` command line
//! ([`Request::argv`]); the end-to-end phase spawns it, and the traced
//! phase replays the same description in-process. Streams are unbounded
//! and deterministic: request `i` of client `c` depends only on the seed,
//! `c` and `i`, so a closed loop can run for as long as the clock allows.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use tensor_contraction_opt::bench::randtree::{random_tree, TreeParams};
use tensor_contraction_opt::core::{cache_key, OptimizerConfig};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::printer::render_tce_source;
use tensor_contraction_opt::expr::{parse, ExprTree, IndexId, NodeId, NodeKind};
use tensor_contraction_opt::lint::{lint_source, LintOptions};
use tensor_contraction_opt::opmin::lower_program;

/// The shipped programs, as `workloads/<name>.tce`.
pub const SHIPPED: [&str; 6] = ["ccsd", "ccsd_tiny", "fig1", "ladder", "repeated", "transform"];

/// `paper-suite` block: one slot per shipped program, `ccsd` twice. With
/// six equal slots the median latency falls in the gap between the third
/// and fourth fastest programs and jumps by a quarter when one request
/// more or less of either fits in the run; seven slots put it inside
/// `ccsd`'s own cluster (the paper's running example).
const PAPER_SUITE_SLOTS: [usize; 7] = [0, 0, 1, 2, 3, 4, 5];

/// Every request searches with one thread. On a 2-vCPU machine a second
/// thread barely speeds these searches up (`ccsd_tiny` at 16 procs: 48.3
/// vs 49.2 ms median; enlarged: 2.56 vs 2.71 s) but doubles the spread
/// between requests (7.6% vs 3.3% inter-quartile), since it waits on
/// whichever vCPU the host stalls, and makes the enlarged search's peak
/// RSS depend on thread interleaving.
const THREADS: usize = 1;

/// `cache-warm`: random programs pre-filled next to the shipped ones.
const WARM_RANDOM_BASES: usize = 20;
/// `cache-warm`: renamed isomorphs generated per pre-filled program.
const WARM_VARIANTS: usize = 2;
/// `cache-warm`: size of the fresh-program pool both clients draw from.
const WARM_FRESH: usize = 20;
/// `cache-warm`: percent of requests that are renamed isomorphs.
const WARM_ISOMORPH_PCT: u64 = 80;
/// Random bases come from generator seeds counted up from here; fresh
/// programs from a seed-derived point far above it, so the two never meet.
const BASE_SEED_START: u64 = 1;

/// `search-enlarged`: per-node memory (`--mem-gb`). With replication and
/// no binding limit every array can be stored whole and the optimum costs
/// 0 s; this limit forces fusion, keeps ~95% of the unconstrained
/// search's 11.5M candidates, and gives a plan that communicates.
const ENLARGED_MEM_GB: &str = "0.0001";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    SearchEnlarged,
    CacheWarm,
    SimulateVerify,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::SearchEnlarged,
        Workload::CacheWarm,
        Workload::SimulateVerify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::SearchEnlarged => "search-enlarged",
            Workload::CacheWarm => "cache-warm",
            Workload::SimulateVerify => "simulate-verify",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop clients issuing requests concurrently.
    pub fn clients(self) -> usize {
        match self {
            Workload::CacheWarm => 2,
            _ => 1,
        }
    }

    /// Requests per client the traced phase replays.
    pub fn trace_prefix(self) -> usize {
        match self {
            Workload::PaperSuite => 60,
            Workload::SearchEnlarged => 1,
            Workload::CacheWarm => 100,
            Workload::SimulateVerify => 10,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Command {
    /// `tce optimize` with the default text output.
    OptimizeText,
    /// `tce optimize --json`.
    OptimizeJson,
    /// `tce simulate`.
    Simulate,
}

/// One `tce` invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub command: Command,
    /// Index into [`Inputs::programs`].
    pub program: usize,
    pub procs: u32,
    /// `--replication --unrelated-rotation`.
    pub enlarged: bool,
    /// `--mem-gb`.
    pub mem_gb: Option<&'static str>,
    /// `--plan-cache DIR` instead of `--no-plan-cache` (optimize only).
    pub cached: bool,
    /// `--seed` of `tce simulate`.
    pub sim_seed: u64,
}

impl Request {
    /// The command line after the binary name. `cache_dir` is the shared
    /// plan-cache directory of cached requests.
    pub fn argv(&self, program: &Program, cache_dir: &Path) -> Vec<String> {
        let mut a: Vec<String> = match self.command {
            Command::OptimizeText | Command::OptimizeJson => vec!["optimize".into()],
            Command::Simulate => vec!["simulate".into()],
        };
        a.push(program.arg.clone());
        a.extend(["--procs".into(), self.procs.to_string()]);
        if self.enlarged {
            a.extend(["--replication".into(), "--unrelated-rotation".into()]);
        }
        if let Some(gb) = self.mem_gb {
            a.extend(["--mem-gb".into(), gb.into()]);
        }
        a.extend(["--threads".into(), THREADS.to_string()]);
        match self.command {
            Command::Simulate => a.extend(["--seed".into(), self.sim_seed.to_string()]),
            Command::OptimizeJson | Command::OptimizeText => {
                if self.command == Command::OptimizeJson {
                    a.push("--json".into());
                }
                if self.cached {
                    a.extend(["--plan-cache".into(), cache_dir.display().to_string()]);
                } else {
                    a.push("--no-plan-cache".into());
                }
            }
        }
        a
    }

    /// The optimizer configuration `tce` derives from this command line.
    pub fn config(&self) -> OptimizerConfig {
        OptimizerConfig {
            allow_replication: self.enlarged,
            allow_unrelated_rotation: self.enlarged,
            threads: THREADS,
            ..OptimizerConfig::default()
        }
    }

    /// The cost model `tce` builds from this command line.
    pub fn cost_model(&self) -> CostModel {
        let mut machine = MachineModel::itanium_cluster();
        if let Some(gb) = self.mem_gb {
            let gb: f64 = gb.parse().expect("the workloads pass valid --mem-gb values");
            machine.mem_per_node_bytes = (gb * 1024.0 * PAPER_MB) as u64;
        }
        CostModel::for_square(machine, self.procs)
            .expect("the workloads only use square processor counts")
    }

    /// What the expected output depends on: two requests with the same
    /// key must print the same plan.
    pub fn reference_key(&self) -> RefKey {
        (self.program, self.procs, self.enlarged, self.mem_gb, self.command)
    }
}

/// Program, procs, enlarged, memory limit and command of a request.
pub type RefKey = (usize, u32, bool, Option<&'static str>, Command);

/// One `.tce` program a workload sends.
pub struct Program {
    /// Short name (shipped file stem, `r<seed>`, `r<seed>-v<k>`, …).
    pub name: String,
    pub source: String,
    /// The file argument as passed to `tce` (relative to the repository
    /// root for shipped programs).
    pub arg: String,
    /// Where a generated program must be written before use.
    pub generated: Option<PathBuf>,
    /// A shipped `workloads/*.tce` file (its costs are pinned).
    pub shipped: bool,
    /// Counted in the plan-quality metrics. Only seed-independent
    /// programs are, so `plan_comm_s` and `certified_gap_frac` read the
    /// same on every seed.
    pub quality: bool,
    /// For a renamed isomorph: the pre-filled program it must hit.
    pub base: Option<usize>,
}

/// A workload's programs and request streams for one seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub programs: Vec<Program>,
    /// `cache-warm`: the programs pre-filled into the cache.
    pub prefill: Vec<usize>,
    /// `cache-warm`: the renamed isomorphs and the fresh pool the request
    /// streams draw from.
    variants: Vec<usize>,
    fresh: Vec<usize>,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`. Generated programs
    /// are placed under `input_dir` (see [`Program::generated`]).
    pub fn generate(
        workload: Workload,
        seed: u64,
        root: &Path,
        input_dir: &Path,
    ) -> Result<Self, String> {
        let mut inputs = Inputs {
            workload,
            seed,
            programs: Vec::new(),
            prefill: Vec::new(),
            variants: Vec::new(),
            fresh: Vec::new(),
        };
        match workload {
            Workload::PaperSuite => {
                for name in SHIPPED {
                    inputs.programs.push(shipped(root, name)?);
                }
            }
            Workload::SearchEnlarged | Workload::SimulateVerify => {
                inputs.programs.push(shipped(root, "ccsd_tiny")?);
            }
            Workload::CacheWarm => inputs.generate_cache_warm(root, input_dir)?,
        }
        Ok(inputs)
    }

    fn generate_cache_warm(&mut self, root: &Path, dir: &Path) -> Result<(), String> {
        let template = cache_warm_request();
        let cm = template.cost_model();
        let cfg = template.config();
        let mut seen: HashSet<String> = HashSet::new();
        for name in SHIPPED {
            let p = shipped(root, name)?;
            seen.insert(key_of(&load_tree(&p.source)?, &cm, &cfg)?);
            self.programs.push(p);
        }
        let mut candidate = BASE_SEED_START;
        while self.programs.len() < SHIPPED.len() + WARM_RANDOM_BASES {
            if let Some(src) = usable_random_program(candidate, &cm, &cfg, &mut seen) {
                let name = format!("r{candidate}");
                self.programs.push(generated(dir, name, src, true, None));
            }
            candidate += 1;
        }
        self.prefill = (0..self.programs.len()).collect();

        for base in self.prefill.clone() {
            let tree = load_tree(&self.programs[base].source)?;
            for v in 0..WARM_VARIANTS {
                let mut rng = Rng::new(&[self.seed, 0x150, base as u64, v as u64]);
                let src = render_renamed(&tree, &mut rng)?;
                let name = format!("{}-v{v}", self.programs[base].name);
                self.variants.push(self.programs.len());
                self.programs.push(generated(dir, name, src, false, Some(base)));
            }
        }

        let mut rng = Rng::new(&[self.seed, 0xf5e5]);
        let mut start = 1_000_000 + rng.below(1 << 40);
        while self.fresh.len() < WARM_FRESH {
            if let Some(src) = usable_random_program(start, &cm, &cfg, &mut seen) {
                self.fresh.push(self.programs.len());
                self.programs.push(generated(dir, format!("f{start}"), src, false, None));
            }
            start += 1;
        }
        Ok(())
    }

    /// Request `i` of client `client`.
    pub fn request(&self, client: usize, i: usize) -> Request {
        let slots = PAPER_SUITE_SLOTS.len();
        match self.workload {
            Workload::PaperSuite => {
                let mut order: Vec<usize> = PAPER_SUITE_SLOTS.to_vec();
                Rng::new(&[self.seed, client as u64, (i / slots) as u64]).shuffle(&mut order);
                Request { program: order[i % slots], ..text_request() }
            }
            Workload::SearchEnlarged => Request {
                procs: 64,
                enlarged: true,
                mem_gb: Some(ENLARGED_MEM_GB),
                ..text_request()
            },
            Workload::CacheWarm => {
                let mut rng = Rng::new(&[self.seed, 0xca, client as u64, i as u64]);
                let program = if rng.below(100) < WARM_ISOMORPH_PCT {
                    self.variants[rng.below(self.variants.len() as u64) as usize]
                } else {
                    self.fresh[rng.below(self.fresh.len() as u64) as usize]
                };
                Request { program, ..cache_warm_request() }
            }
            Workload::SimulateVerify => Request {
                command: Command::Simulate,
                procs: if i.is_multiple_of(2) { 4 } else { 16 },
                sim_seed: Rng::new(&[self.seed, 0x51, client as u64, i as u64]).below(1 << 31),
                ..text_request()
            },
        }
    }

    /// Write the generated programs to disk.
    pub fn write_files(&self) -> Result<(), String> {
        for p in &self.programs {
            if let Some(path) = &p.generated {
                std::fs::write(path, &p.source)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }
}

/// `tce optimize <program 0> --procs 16 --threads 1 --no-plan-cache`.
fn text_request() -> Request {
    Request {
        command: Command::OptimizeText,
        program: 0,
        procs: 16,
        enlarged: false,
        mem_gb: None,
        cached: false,
        sim_seed: 0,
    }
}

/// `tce optimize <program 0> --procs 16 --threads 1 --json --plan-cache DIR`.
fn cache_warm_request() -> Request {
    Request { command: Command::OptimizeJson, cached: true, ..text_request() }
}

/// Parse and lower a `.tce` source the way `tce` does.
pub fn load_tree(src: &str) -> Result<ExprTree, String> {
    let prog = parse(src).map_err(|e| e.to_string())?;
    let seq = lower_program(&prog).map_err(|e| e.to_string())?;
    seq.to_tree().map_err(|e| e.to_string())
}

fn key_of(tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig) -> Result<String, String> {
    cache_key(tree, cm, cfg).map(|k| k.file_name()).ok_or_else(|| "uncacheable program".into())
}

fn shipped(root: &Path, name: &str) -> Result<Program, String> {
    let arg = format!("workloads/{name}.tce");
    let source =
        std::fs::read_to_string(root.join(&arg)).map_err(|e| format!("reading {arg}: {e}"))?;
    Ok(Program {
        name: name.to_string(),
        source,
        arg,
        generated: None,
        shipped: true,
        quality: true,
        base: None,
    })
}

fn generated(
    dir: &Path,
    name: String,
    source: String,
    quality: bool,
    base: Option<usize>,
) -> Program {
    let path = dir.join(format!("{name}.tce"));
    Program {
        arg: path.display().to_string(),
        name,
        source,
        generated: Some(path),
        shipped: false,
        quality,
        base,
    }
}

/// `random_tree(seed)` rendered as source, if `tce optimize` takes it
/// without a diagnostic and it is not isomorphic to a program already in
/// `seen` (a repeat would hit the cache where a miss is meant).
fn usable_random_program(
    seed: u64,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    seen: &mut HashSet<String>,
) -> Option<String> {
    let tree = random_tree(seed, &TreeParams::default());
    if tree.ids().any(|n| tree.node(n).tensor.dims.is_empty()) {
        return None;
    }
    let src = render_tce_source(&tree);
    let lint = lint_source(&src, &LintOptions { cm: Some(cm), ..LintOptions::default() }).ok()?;
    if !lint.diagnostics.is_empty() {
        return None;
    }
    let key = key_of(&load_tree(&src).ok()?, cm, cfg).ok()?;
    seen.insert(key).then_some(src)
}

/// Render `tree` with every index and array renamed by a seeded
/// permutation and the `range`/`input` declarations in reverse order.
/// Re-parsing renumbers every index and node, so the result is a
/// different program text for the same canonical expression.
pub fn render_renamed(tree: &ExprTree, rng: &mut Rng) -> Result<String, String> {
    let post = tree.postorder();
    if post.iter().any(|&n| tree.node(n).tensor.dims.is_empty()) {
        return Err("scalar arrays cannot be written in .tce source".into());
    }
    let mut index_ids: Vec<usize> = (0..tree.space.len()).collect();
    rng.shuffle(&mut index_ids);
    let index_name = |d: IndexId| format!("i{}", index_ids[d.as_usize()]);
    let mut arrays: Vec<&str> = Vec::new();
    for &n in &post {
        let name = tree.node(n).tensor.name.as_str();
        if !arrays.contains(&name) {
            arrays.push(name);
        }
    }
    let mut array_ids: Vec<usize> = (0..arrays.len()).collect();
    rng.shuffle(&mut array_ids);
    let term = |n: NodeId| {
        let t = &tree.node(n).tensor;
        let slot = arrays.iter().position(|&a| a == t.name).expect("every array was collected");
        let dims: Vec<String> = t.dims.iter().map(|&d| index_name(d)).collect();
        format!("T{}[{}]", array_ids[slot], dims.join(","))
    };

    let mut used: Vec<IndexId> = Vec::new();
    for &n in &post {
        let node = tree.node(n);
        let sums = match &node.kind {
            NodeKind::Contract { sum, .. } => sum.iter().collect(),
            NodeKind::Reduce { sum, .. } => vec![*sum],
            NodeKind::Leaf => Vec::new(),
        };
        for d in node.tensor.dims.iter().copied().chain(sums) {
            if !used.contains(&d) {
                used.push(d);
            }
        }
    }
    used.sort_by_key(|d| std::cmp::Reverse(d.as_usize()));

    let mut src = String::new();
    for d in used {
        let _ = writeln!(src, "range {} = {};", index_name(d), tree.space.extent(d));
    }
    let mut declared: Vec<&str> = Vec::new();
    for &n in post.iter().rev() {
        let node = tree.node(n);
        if node.is_leaf() && !declared.contains(&node.tensor.name.as_str()) {
            declared.push(node.tensor.name.as_str());
            let _ = writeln!(src, "input {};", term(n));
        }
    }
    for &n in &post {
        match &tree.node(n).kind {
            NodeKind::Leaf => {}
            NodeKind::Contract { sum, left, right } => {
                let sums: Vec<String> = sum.iter().map(index_name).collect();
                let sum = if sums.is_empty() {
                    String::new()
                } else {
                    format!("sum[{}] ", sums.join(","))
                };
                let _ = writeln!(src, "{} = {sum}{} * {};", term(n), term(*left), term(*right));
            }
            NodeKind::Reduce { sum, child } => {
                let _ = writeln!(src, "{} = sum[{}] {};", term(n), index_name(*sum), term(*child));
            }
        }
    }
    Ok(src)
}

/// SplitMix64: a small, seedable, platform-independent generator, so
/// inputs depend on nothing but the seed.
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by every part of `parts`.
    pub fn new(parts: &[u64]) -> Self {
        let mut state = 0x7ce5_eed0_0000_0000;
        for &p in parts {
            state = mix(state ^ p);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a run sends: program texts and the first requests'
    /// command lines. `generate` only names the generated files.
    fn fingerprint(w: Workload, seed: u64) -> String {
        let inputs =
            Inputs::generate(w, seed, &crate::repo_root(), Path::new("inputs")).expect("inputs");
        let mut s = String::new();
        for p in &inputs.programs {
            s += &p.arg;
            s += &p.source;
        }
        for client in 0..w.clients() {
            for i in 0..50 {
                let r = inputs.request(client, i);
                s += &r.argv(&inputs.programs[r.program], Path::new("CACHE")).join(" ");
                s.push('\n');
            }
        }
        s
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(fingerprint(w, 1), fingerprint(w, 1), "{}", w.name());
            // search-enlarged sends one fixed request whatever the seed.
            let differs = fingerprint(w, 1) != fingerprint(w, 2);
            assert_eq!(differs, w != Workload::SearchEnlarged, "{}", w.name());
        }
    }

    #[test]
    fn renamed_isomorphs_share_their_base_cache_key() {
        let template = cache_warm_request();
        let (cm, cfg) = (template.cost_model(), template.config());
        let key = |p: &Program| {
            key_of(&load_tree(&p.source).expect("parses"), &cm, &cfg).expect("cacheable")
        };
        for seed in [1, 2] {
            let inputs = Inputs::generate(
                Workload::CacheWarm,
                seed,
                &crate::repo_root(),
                Path::new("inputs"),
            )
            .expect("inputs");
            let mut variants = 0;
            for p in inputs.programs.iter().filter(|p| p.base.is_some()) {
                let base = &inputs.programs[p.base.expect("filtered")];
                assert_ne!(p.source, base.source, "{} is not renamed", p.name);
                assert_eq!(key(p), key(base), "{} keys apart from its base", p.name);
                variants += 1;
            }
            assert_eq!(variants, (SHIPPED.len() + WARM_RANDOM_BASES) * WARM_VARIANTS);
        }
    }
}
