//! Holds one `BENCH_*.json` artifact of `bench_all` against another: same
//! behaviour, or not.
//!
//! Usage: `compare_bench <baseline.json> <new.json>` — one mode, no flags.
//!
//! Every run must exist in both artifacts with bit-identical `tps`,
//! `p50/p99`, `bytes`, `payload_clones`, `events_processed` and trace
//! `fingerprint`, and `mem.bytes_per_node` within `MEM_REGRESSION_PCT` of
//! the baseline; the `engine` block (threads, partitions, barriers) is
//! ignored, so artifacts from different `PREDIS_SIM_THREADS` compare equal.
//! Exits 0 when they match, 1 with one `MISMATCH` line per difference, 2 on
//! a bad command line or an unreadable artifact.

use predis_bench::BenchArtifact;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, new_path] = args.as_slice() else {
        eprintln!("usage: compare_bench <baseline.json> <new.json>");
        std::process::exit(2);
    };
    let load = |path: &str| {
        BenchArtifact::read(path).unwrap_or_else(|e| {
            eprintln!("compare_bench: {e}");
            std::process::exit(2);
        })
    };
    let baseline = load(baseline_path);
    let mismatches = baseline.compare(&load(new_path));
    for m in &mismatches {
        println!("MISMATCH  {m}");
    }
    if !mismatches.is_empty() {
        std::process::exit(1);
    }
    println!("identical: {} runs match", baseline.runs.len());
}
