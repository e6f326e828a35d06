//! Drives the built binary the way the driver does, at a tenth of the size.

use std::process::Command;

use predis_telemetry::Json;

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// `--smoke` runs every workload in both kinds of run; every result line
/// must be correct and list exactly the metrics BENCHMARK.json promises for
/// that kind of run.
#[test]
fn smoke_prints_a_correct_result_line_per_workload_and_kind() {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let contract = Json::parse(&contract).expect("BENCHMARK.json parses");
    let kinds = [
        names(&contract, "end_to_end"),
        names(&contract, "per_layer"),
    ];
    let workloads = names(&contract, "workloads");

    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke run failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), workloads.len() * kinds.len(), "{stdout}");
    for (i, line) in lines.iter().enumerate() {
        let doc = Json::parse(line).expect("a result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("no metrics in {line}")
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, kinds[i % kinds.len()], "line {i}");
        for (name, body) in metrics {
            let value = body.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} in line {i}");
            assert!(body.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
}

/// A workload the benchmark does not have is refused with an error and no
/// result line.
#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
