//! A `--smoke` run of every workload through the real binary: every check
//! passes, and every metric `BENCHMARK.json` lists is measured in its unit.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_run_passes_every_check() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let run = Command::new(env!("CARGO_BIN_EXE_tce-benchmark"))
        .args(["--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark runs");
    assert!(
        run.status.success(),
        "smoke run failed ({}):\n{}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let spec = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"));
    let results = read_json(&out.join("results.json"));
    let workloads = results.get("workloads").and_then(Value::as_array).expect("workloads list");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w.get("workload").and_then(Value::as_str).expect("workload name");
        assert_eq!(w.get("correct"), Some(&Value::Bool(true)), "{name}: {:?}", w.get("errors"));
        let e2e = w.get("end_to_end").expect("end-to-end metrics");
        let error_rate = e2e.get("error_rate").and_then(|m| m.get("value")).and_then(Value::as_f64);
        assert_eq!(error_rate, Some(0.0), "{name}");
        for (section, measured) in
            [("end_to_end", e2e), ("per_layer", w.get("per_layer").expect("per-layer metrics"))]
        {
            for m in spec.get(section).and_then(Value::as_array).expect("metric list") {
                let metric = m.get("name").and_then(Value::as_str).expect("metric name");
                let got = measured
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name}: `{metric}` not measured"));
                assert_eq!(got.get("unit"), m.get("unit"), "{name}: unit of `{metric}`");
                assert!(
                    got.get("value").and_then(Value::as_f64).is_some(),
                    "{name}: `{metric}` has no value"
                );
            }
        }
    }
}
