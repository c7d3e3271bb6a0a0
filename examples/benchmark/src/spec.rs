//! `BENCHMARK.json` at the repository root: the metrics the benchmark
//! reports, with their units, directions and regression bounds.

use std::path::Path;

use serde_json::Value;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let rows = v
                .get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))?;
            rows.iter()
                .map(|r| {
                    let s = |k: &str| r.get(k).and_then(Value::as_str).map(str::to_string);
                    Ok(MetricSpec {
                        name: s("name").ok_or("BENCHMARK.json: metric without a name")?,
                        unit: s("unit").ok_or("BENCHMARK.json: metric without a unit")?,
                        lower_is_better: s("better").as_deref() == Some("lower"),
                        bound: r.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}
