//! Shared rendering of DP-search statistics.
//!
//! One formatter used by the `tce … --stats` CLI flag, experiment S2
//! (`repro S2`) and the metrics snapshot rendered from the same run. All
//! read [`Optimized::stats`] and [`Optimized::counters`], which the search
//! fills from the per-node [`SolutionSet`] counters. The per-node rows
//! and the totals depend only on the search space; the `bound skips:`
//! line depends on how the work was split across worker threads, so S2
//! and the CLI print the same table only at the same `--threads` (S2 runs
//! at 1).

use std::fmt::Write as _;

use crate::dp::Optimized;

/// Header + one row per node + a totals line, aligned for terminals.
pub fn render_search_stats(opt: &Optimized) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>10} {:>12} {:>12} {:>10} {:>6} {:>7} {:>10}",
        "node",
        "candidates",
        "kept",
        "pruned-dom",
        "pruned-mem",
        "redist-fb",
        "keys",
        "widest",
        "mem hw"
    );
    for s in &opt.stats {
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>10} {:>12} {:>12} {:>10} {:>6} {:>7} {:>10}",
            s.name,
            s.candidates,
            s.live,
            s.pruned_inferior,
            s.pruned_memory,
            s.redist_fallbacks,
            s.keys,
            s.widest_front,
            s.arena_hw_bytes
        );
    }
    let c = &opt.counters;
    let candidates = c.get(tce_obs::names::CANDIDATES);
    let frontier = c.get(tce_obs::names::FRONTIER);
    let _ = writeln!(
        out,
        "total: {candidates} candidates over {} nodes, {frontier} kept ({:.1}x reduction)",
        c.get(tce_obs::names::NODES),
        candidates as f64 / (frontier.max(1)) as f64,
    );
    let (skips, blocks) = (c.get(tce_obs::names::BNB_SKIP), c.get(tce_obs::names::BNB_BLOCK));
    if skips > 0 {
        let _ = writeln!(
            out,
            "bound skips: {skips} candidates in {blocks} blocks ({:.1}% of candidates, {:.1} per block)",
            100.0 * skips as f64 / (candidates.max(1)) as f64,
            skips as f64 / (blocks.max(1)) as f64,
        );
    }
    out
}

/// The run's metrics snapshot (`--metrics-out`): every counter of the bag
/// except the high-water mark, which is the `dp.arena_hw_bytes` gauge (a
/// Prometheus name has one type), the per-node `dp.node_candidates` /
/// `dp.node_live` histograms and the wall-clock `dp.worker_busy_us`
/// histogram. A pure function of the returned run, so a cached run renders
/// the snapshot of the search that stored it (without busy times).
pub fn metrics_snapshot(opt: &Optimized) -> tce_obs::metrics::Snapshot {
    use tce_obs::{metrics::Histogram, names};
    let mut node_candidates = Histogram::default();
    let mut node_live = Histogram::default();
    for s in &opt.stats {
        node_candidates.observe(s.candidates);
        node_live.observe(s.live as u64);
    }
    let histograms = [
        (names::NODE_CANDIDATES, node_candidates),
        (names::NODE_LIVE, node_live),
        (names::WORKER_BUSY_US, opt.worker_busy_us.clone()),
    ];
    tce_obs::metrics::Snapshot {
        counters: opt.counters.iter().filter(|&(n, _)| n != names::ARENA_HW_BYTES).collect(),
        gauges: vec![(names::ARENA_HW_BYTES, opt.arena_hw_bytes)],
        histograms: histograms.into_iter().filter(|(_, h)| h.count > 0).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{optimize, OptimizerConfig};
    use tce_cost::{CostModel, MachineModel};
    use tce_expr::parse;

    #[test]
    fn table_reflects_counters_and_accessors() {
        let src = "range i = 8; range j = 8; range k = 8;\n\
                   input A[i,k]; input B[k,j];\nC[i,j] = sum[k] A[i,k]*B[k,j];\n";
        let tree = parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let text = render_search_stats(&opt);
        assert!(text.contains("candidates"), "{text}");
        assert!(text.contains('C'), "{text}");
        assert!(text.contains("keys"), "{text}");
        assert!(text.contains("mem hw"), "{text}");
        // The per-key occupancy columns agree with the set accessors.
        for s in &opt.stats {
            let set = opt.sets.values().find(|v| v.candidates_seen == s.candidates);
            if let Some(set) = set {
                assert!(s.keys <= s.live || s.live == 0);
                assert!(s.widest_front <= s.live);
                assert_eq!(s.keys, set.key_count());
                assert_eq!(s.widest_front, set.max_key_live());
            }
        }
        // The high-water column is monotone in postorder and the run-wide
        // peak matches the final node's value.
        for pair in opt.stats.windows(2) {
            assert!(pair[1].arena_hw_bytes >= pair[0].arena_hw_bytes);
        }
        assert_eq!(opt.stats.last().unwrap().arena_hw_bytes, opt.arena_hw_bytes);
        assert!(opt.arena_hw_bytes > 0);

        // The totals line agrees with both the counters bag and the
        // per-set accessors.
        let total_candidates: u64 = opt.sets.values().map(|s| s.candidates_seen).sum();
        let total_live: u64 = opt.sets.values().map(|s| s.total_live()).sum();
        assert_eq!(total_candidates, opt.counters.get(tce_obs::names::CANDIDATES));
        assert_eq!(total_live, opt.counters.get(tce_obs::names::FRONTIER));
        assert!(text.contains(&format!("total: {total_candidates} candidates")));
        // And with the per-node stats view.
        let from_stats: u64 = opt.stats.iter().map(|s| s.candidates).sum();
        assert_eq!(from_stats, total_candidates);
    }
}
