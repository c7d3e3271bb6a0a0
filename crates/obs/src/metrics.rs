//! Typed metrics: counters, gauges, and log₂-bucketed histograms.
//!
//! A [`Snapshot`] is a point-in-time set of named metrics, rendered as
//! Prometheus text format or schema-stable JSON. It holds no process-wide
//! state: a caller builds it from the numbers a run hands back (the DP
//! search's come from `tce_core::metrics_snapshot`), so a snapshot always
//! describes exactly one run.
//!
//! # Histogram bucketing
//!
//! Buckets are powers of two: bucket 0 holds the value `0`, bucket `i`
//! (1 ≤ i ≤ 64) holds values in `[2^(i−1), 2^i − 1]`. Every `u64` has
//! exactly one bucket (`u64::MAX` lands in bucket 64).

use crate::jsonfmt::{json_number, json_string, sep};

/// Number of histogram buckets: one for zero plus one per bit position.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[i]` counts `[2^(i−1), 2^i−1]`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (`u128`: 2⁶⁴ observations of `u64::MAX`
    /// cannot overflow it).
    pub sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

/// The bucket index of `value`: 0 for zero, else one past the position of
/// the highest set bit.
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    fn last_used_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

/// A point-in-time set of metrics, ready for export. All three sections
/// are sorted by metric name, so equal snapshots render byte-identically.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Monotone counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(&'static str, Histogram)>,
}

/// A metric name as a Prometheus identifier: `tce_` prefix, and every
/// character outside `[a-zA-Z0-9_]` replaced by `_` (`dp.candidates` →
/// `tce_dp_candidates`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("tce_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out
}

impl Snapshot {
    /// Render as Prometheus text exposition format (what a `/metrics`
    /// endpoint serves). Histogram buckets are cumulative with `le` upper
    /// bounds, capped by the conventional `+Inf` bucket; empty trailing
    /// buckets are elided.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {value}");
        }
        for (name, value) in &self.gauges {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {value}");
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} histogram");
            let last = h.last_used_bucket().unwrap_or(0);
            let mut cumulative = 0u64;
            for i in 0..=last {
                cumulative += h.buckets[i];
                let _ = writeln!(out, "{p}_bucket{{le=\"{}\"}} {cumulative}", bucket_upper(i));
            }
            let _ = writeln!(out, "{p}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{p}_sum {}", h.sum);
            let _ = writeln!(out, "{p}_count {}", h.count);
        }
        out
    }

    /// Render as schema-stable JSON (`tce-metrics/v1`): three sorted
    /// name-keyed objects; histogram buckets are keyed by their inclusive
    /// upper bound and carry per-bucket (non-cumulative) counts, empty
    /// buckets elided.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n\"schema\":\"tce-metrics/v1\",\n\"counters\":{");
        let mut first = true;
        for (name, value) in &self.counters {
            sep(&mut out, &mut first);
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\n\"gauges\":{");
        let mut first = true;
        for (name, value) in &self.gauges {
            sep(&mut out, &mut first);
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\n\"histograms\":{");
        let mut first = true;
        for (name, h) in &self.histograms {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"mean\":{},\"buckets\":{{",
                json_string(name),
                h.count,
                h.sum,
                json_number(if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 }),
            );
            let mut bfirst = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if bfirst {
                    bfirst = false;
                } else {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{c}", bucket_upper(i));
            }
            out.push_str("}}");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_handles_zero_and_max() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every bucket's range is [upper(i-1)+1, upper(i)].
        for v in [0u64, 1, 2, 3, 4, 5, 255, 256, 1 << 40, u64::MAX - 1, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "{v} above its bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper(b - 1), "{v} below its bucket {b}");
            }
        }
    }

    fn demo_snapshot() -> Snapshot {
        let mut live = Histogram::default();
        for v in [0, 3, 5] {
            live.observe(v);
        }
        Snapshot {
            counters: vec![("dp.candidates", 42)],
            gauges: vec![("dp.arena_hw_bytes", 4096)],
            histograms: vec![("dp.node_live", live)],
        }
    }

    /// Golden: the Prometheus exposition shape is pinned byte for byte.
    #[test]
    fn prometheus_export_shape_is_pinned() {
        let text = demo_snapshot().to_prometheus();
        let expected = "\
# TYPE tce_dp_candidates counter
tce_dp_candidates 42
# TYPE tce_dp_arena_hw_bytes gauge
tce_dp_arena_hw_bytes 4096
# TYPE tce_dp_node_live histogram
tce_dp_node_live_bucket{le=\"0\"} 1
tce_dp_node_live_bucket{le=\"1\"} 1
tce_dp_node_live_bucket{le=\"3\"} 2
tce_dp_node_live_bucket{le=\"7\"} 3
tce_dp_node_live_bucket{le=\"+Inf\"} 3
tce_dp_node_live_sum 8
tce_dp_node_live_count 3
";
        assert_eq!(text, expected);
    }

    /// Golden: the JSON export shape is pinned byte for byte.
    #[test]
    fn json_export_shape_is_pinned() {
        let json = demo_snapshot().to_json();
        let expected = "{\n\
\"schema\":\"tce-metrics/v1\",\n\
\"counters\":{\"dp.candidates\":42},\n\
\"gauges\":{\"dp.arena_hw_bytes\":4096},\n\
\"histograms\":{\"dp.node_live\":{\"count\":3,\"sum\":8,\"mean\":2.6666666666666665,\"buckets\":{\"0\":1,\"3\":1,\"7\":1}}}\n\
}\n";
        assert_eq!(json, expected);
    }
}
