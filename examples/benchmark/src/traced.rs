//! The traced phase: replay a prefix of a workload's requests in-process
//! with benchmark-owned spans around each layer call, and derive the
//! per-layer metrics from those spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tensor_contraction_opt::cost::lower_bound::{comm_lower_bound, mem_floor_words};
use tensor_contraction_opt::expr::canonical_form;
use tensor_contraction_opt::obs::{self, ChromeTraceSink};
use tensor_contraction_opt::sim::einsum;

use crate::e2e::Run;
use crate::inproc::{layer, serve, CacheOutcome, DpSample, SimSample, Tracer};
use crate::setup::{verify, Setup};
use crate::stats::median;
use crate::workloads::Command;

/// Side measurements: a function the request path calls only inside
/// another layer, called once more after the request so its cost shows
/// on its own. They are not part of the request's wall time.
pub mod side {
    pub const FLOOR: &str = "cost.floor";
    pub const CANON: &str = "expr.canon";
    pub const REFERENCE: &str = "sim.reference";
}

/// One replayed request.
pub struct Replayed {
    pub wall: Duration,
    /// Layer spans under the request span (self time = duration: layer
    /// spans do not nest, and the program's own spans count toward the
    /// layer that called them).
    pub layers: Vec<(&'static str, Duration)>,
    /// Side measurements.
    pub side: Vec<(&'static str, Duration)>,
    pub error: Option<String>,
    pub cache: CacheOutcome,
    pub dp: Option<DpSample>,
    pub sim: Option<SimSample>,
}

/// Replay requests `0..n` of client 0 twice each, alternating: once
/// traced (layer spans recorded and mirrored into `sink`, plus the side
/// measurements) on `traced_cache`, once untraced on `untraced_cache`.
/// Alternating keeps drift in the machine's speed out of the difference
/// between the two passes.
pub fn replay(
    setup: &Setup,
    root: &Path,
    (traced_cache, untraced_cache): (&Path, &Path),
    n: usize,
    sink: &Arc<ChromeTraceSink>,
) -> (Vec<Replayed>, Vec<Replayed>) {
    let mut traced = Vec::with_capacity(n);
    let mut untraced = Vec::with_capacity(n);
    for i in 0..n {
        obs::install(sink.clone());
        traced.push(replay_one(setup, root, traced_cache, i, true));
        obs::uninstall();
        untraced.push(replay_one(setup, root, untraced_cache, i, false));
    }
    (traced, untraced)
}

fn replay_one(setup: &Setup, root: &Path, cache_dir: &Path, i: usize, traced: bool) -> Replayed {
    let workload = setup.inputs.workload.name();
    let req = setup.inputs.request(0, i);
    let program = &setup.inputs.programs[req.program];
    let mut tr = Tracer::new(traced);
    let request_span = traced.then(|| obs::span("benchmark", format!("{workload} request {i}")));
    let start = Instant::now();
    let served = serve(&req, program, root, cache_dir, &mut tr);
    let wall = start.elapsed();
    drop(request_span);

    let mut side = Tracer::new(traced);
    let (error, cache, dp, sim) = match served {
        Err(e) => (Some(e), CacheOutcome::Off, None, None),
        Ok(s) => {
            if traced {
                let cm = req.cost_model();
                side.span(side::FLOOR, || {
                    (
                        comm_lower_bound(&s.tree, &cm, req.enlarged),
                        mem_floor_words(&s.tree, &cm, usize::MAX),
                    )
                });
                side.span(side::CANON, || canonical_form(&s.tree));
                if req.command == Command::Simulate {
                    side.span(side::REFERENCE, || {
                        einsum::evaluate(&s.tree, &einsum::random_inputs(&s.tree, req.sim_seed))
                    });
                }
            }
            (verify(setup.expected(&req), &s.stdout).err(), s.cache, s.dp, s.sim)
        }
    };
    Replayed {
        wall,
        layers: tr.layers().to_vec(),
        side: side.layers().to_vec(),
        error: error.map(|e| format!("in-process {workload} request {i}: {e}")),
        cache,
        dp,
        sim,
    }
}

/// Per-layer self time of a replay: one row per layer name.
pub struct LayerRow {
    pub layer: &'static str,
    /// Requests that called the layer.
    pub requests: usize,
    /// Median per-request self time over those requests (ms).
    pub median_ms: f64,
    pub total_ms: f64,
}

/// Self time by span name over `lists` (one list per request), in
/// first-call order.
fn rows<'a>(lists: impl Iterator<Item = &'a [(&'static str, Duration)]>) -> Vec<LayerRow> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut per_request: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    for list in lists {
        let mut m = BTreeMap::new();
        for &(name, d) in list {
            if !order.contains(&name) {
                order.push(name);
            }
            *m.entry(name).or_insert(0.0) += ms(d);
        }
        per_request.push(m);
    }
    order
        .into_iter()
        .map(|layer| {
            let xs: Vec<f64> = per_request.iter().filter_map(|m| m.get(layer).copied()).collect();
            LayerRow {
                layer,
                requests: xs.len(),
                median_ms: median(&xs).unwrap_or(0.0),
                total_ms: xs.iter().sum(),
            }
        })
        .collect()
}

/// Self time by layer, plus the request span's own uncovered time as
/// `(request)`.
pub fn layer_table(replays: &[Replayed]) -> Vec<LayerRow> {
    let mut table = rows(replays.iter().map(|r| r.layers.as_slice()));
    let uncovered: Vec<f64> = replays
        .iter()
        .map(|r| ms(r.wall) - r.layers.iter().map(|(_, d)| ms(*d)).sum::<f64>())
        .collect();
    table.push(LayerRow {
        layer: "(request)",
        requests: uncovered.len(),
        median_ms: median(&uncovered).unwrap_or(0.0),
        total_ms: uncovered.iter().sum(),
    });
    table
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics as `(name, unit, value)`. Layer times are
/// medians over the requests that called the layer; a layer the
/// workload's requests never call reads 0.
pub fn per_layer_metrics(
    setup: &Setup,
    traced: &[Replayed],
    untraced: &[Replayed],
    e2e: &Run,
    stats_lost: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let layers = rows(traced.iter().map(|r| r.layers.as_slice()));
    let sides = rows(traced.iter().map(|r| r.side.as_slice()));
    let row = |table: &[LayerRow], name: &str| {
        table.iter().find(|r| r.layer == name).map(|r| (r.median_ms, r.total_ms))
    };
    let layer_ms = |name| row(&layers, name).map_or(0.0, |r| r.0);
    let layer_total_s = |name| row(&layers, name).map_or(0.0, |r| r.1 / 1e3);
    let side_ms = |name| row(&sides, name).map_or(0.0, |r| r.0);
    let wall_s = |rs: &[Replayed]| rs.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>();

    let dps: Vec<&DpSample> = traced.iter().filter_map(|r| r.dp.as_ref()).collect();
    let dp_sum = |f: fn(&DpSample) -> u64| dps.iter().map(|d| f(d) as f64).sum::<f64>();
    let dp_mean = |f: fn(&DpSample) -> u64| ratio(dp_sum(f), dps.len() as f64);
    let arena_hw = dps.iter().map(|d| d.arena_hw_bytes).max().unwrap_or(0);

    let sims: Vec<&SimSample> = traced.iter().filter_map(|r| r.sim.as_ref()).collect();
    let sim_median = |f: fn(&SimSample) -> f64| {
        median(&sims.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let sim_gflop = sims.iter().map(|s| s.flops as f64).sum::<f64>() / 1e9;

    let lookups = traced.iter().filter(|r| r.cache != CacheOutcome::Off).count();
    let hits = traced.iter().filter(|r| r.cache == CacheOutcome::Hit).count();
    let entry_kib =
        ratio(setup.entry_bytes.iter().sum::<u64>() as f64, setup.entry_bytes.len() as f64)
            / 1024.0;

    let covered_s = layers.iter().map(|r| r.total_ms).sum::<f64>() / 1e3;
    let e2e_ms: Vec<f64> = e2e.ok().filter(|s| s.client == 0).map(|s| s.latency_ms).collect();
    let inproc_ms: Vec<f64> = untraced.iter().map(|r| ms(r.wall)).collect();
    let cli_overhead = median(&e2e_ms).unwrap_or(0.0) - median(&inproc_ms).unwrap_or(0.0);

    vec![
        ("core.dp.ms", "ms", layer_ms(layer::DP)),
        ("core.dp.candidates", "count", dp_mean(|d| d.candidates)),
        ("core.dp.live_ratio", "ratio", ratio(dp_sum(|d| d.frontier), dp_sum(|d| d.candidates))),
        (
            "core.dp.candidates_per_s",
            "1/s",
            ratio(dp_sum(|d| d.candidates), layer_total_s(layer::DP)),
        ),
        ("core.dp.bnb_skip", "count", dp_mean(|d| d.bnb_skip)),
        ("core.dp.bnb_floor", "count", dp_mean(|d| d.bnb_floor)),
        (
            "core.dp.memo_hit_ratio",
            "ratio",
            ratio(dp_sum(|d| d.memo_hit), dp_sum(|d| d.memo_hit + d.memo_miss)),
        ),
        (
            "core.dp.subtree_hit_ratio",
            "ratio",
            ratio(dp_sum(|d| d.subtree_hit), dp_sum(|d| d.subtree_hit + d.subtree_miss)),
        ),
        ("core.dp.arena_hw_mb", "MiB", arena_hw as f64 / (1024.0 * 1024.0)),
        ("core.explain.ms", "ms", layer_ms(layer::EXPLAIN)),
        ("cli.overhead_ms", "ms", cli_overhead),
        ("lint.ms", "ms", layer_ms(layer::LINT)),
        ("expr.parse_ms", "ms", layer_ms(layer::PARSE)),
        ("opmin.lower_ms", "ms", layer_ms(layer::LOWER)),
        ("cost.floor_ms", "ms", side_ms(side::FLOOR)),
        ("core.plan.extract_ms", "ms", layer_ms(layer::EXTRACT)),
        ("check.ms", "ms", layer_ms(layer::CHECK)),
        ("core.report.ms", "ms", layer_ms(layer::REPORT)),
        ("cost.floor_cover", "ratio", ratio(setup.quality_floor, setup.quality_cost)),
        ("expr.canon.ms", "ms", side_ms(side::CANON)),
        ("core.cache.key_ms", "ms", layer_ms(layer::CACHE_KEY)),
        ("core.cache.lookup_ms", "ms", layer_ms(layer::CACHE_LOOKUP)),
        ("core.cache.hit_ratio", "ratio", ratio(hits as f64, lookups as f64)),
        ("core.cache.stats_lost", "count", stats_lost),
        ("core.cache.store_ms", "ms", median(&setup.store_ms).unwrap_or(0.0)),
        ("core.cache.entry_kb", "KiB", entry_kib),
        ("sim.ms", "ms", layer_ms(layer::SIM)),
        ("sim.reference_ms", "ms", side_ms(side::REFERENCE)),
        ("sim.gflops", "GFLOP/s", ratio(sim_gflop, layer_total_s(layer::SIM))),
        ("sim.messages", "count", sim_median(|s| s.messages as f64)),
        ("sim.volume_bytes", "bytes", sim_median(|s| s.volume_bytes as f64)),
        ("trace.coverage", "ratio", ratio(covered_s, wall_s(traced))),
        (
            "trace.overhead_frac",
            "ratio",
            ratio(wall_s(traced) - wall_s(untraced), wall_s(untraced)),
        ),
    ]
}
