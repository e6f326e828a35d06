//! Shared helpers for the figure-regeneration harness.
//!
//! Each `src/bin/fig*.rs` binary reproduces one table/figure of the paper;
//! the Criterion benches under `benches/` run scaled-down versions of the
//! same experiments so `cargo bench` exercises every harness.

#![deny(unsafe_code)]

use predis_telemetry::RunReport;

pub mod artifact;
pub mod suite;
pub mod sweep;
pub mod trace;

pub use artifact::{
    bench_file_name, BenchArtifact, BenchEntry, BENCH_SCHEMA_VERSION, MEM_BYTES_PER_NODE_BUDGET,
    MEM_REGRESSION_PCT,
};
pub use sweep::{sweep, SweepOutcome, SweepPoint};
pub use trace::{
    export_chrome_trace, first_divergence, parse_timelines_jsonl, read_trace, BundleRow,
    Divergence, ExportStats, TraceRecord,
};

/// Root directory the figure binaries write their machine-readable
/// reports to. Each suite keeps its outputs under its own
/// [`suite_dir`]`(name)` so reruns of one figure never mix with another's
/// stale files.
pub const RESULTS_DIR: &str = "results";

/// Per-suite output directory: `results/<suite>/`.
pub fn suite_dir(suite: &str) -> String {
    format!("{RESULTS_DIR}/{suite}")
}

/// Common figure-binary command-line options.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// `--quick`: the scaled-down grid CI runs.
    pub quick: bool,
    /// Output directory for this figure's reports ([`suite_dir`]).
    pub dir: String,
}

/// Parses the shared figure-binary flags and wires up observability.
///
/// `--quick` selects the scaled-down grid. `--trace` turns on full event
/// capture by exporting `PREDIS_TRACE_DIR=<suite dir>/trace` — it must run
/// before [`run_figure`] spawns the worker pool, which is why the flag is
/// handled here rather than per-run. Captures can then be converted for
/// Perfetto with the `trace_export` binary.
pub fn fig_opts(suite: &str) -> FigOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = suite_dir(suite);
    if args.iter().any(|a| a == "--trace") {
        let trace_dir = format!("{dir}/trace");
        std::env::set_var("PREDIS_TRACE_DIR", &trace_dir);
        println!("trace capture on: {trace_dir}/<run>.trace.jsonl");
    }
    FigOpts {
        quick: args.iter().any(|a| a == "--quick"),
        dir,
    }
}

/// Writes a [`RunReport`] under `dir` and prints its rendered summary
/// (per-stage bundle-lifecycle percentiles, labeled counters).
pub fn emit_report(dir: &str, report: &RunReport) {
    println!("\n{}", report.render());
    match report.write_to_dir(dir) {
        Ok(path) => println!("report written to {}", path.display()),
        Err(e) => eprintln!("could not write report {}: {e}", report.name),
    }
}

/// Runs a figure's grid across all cores (honoring `PREDIS_THREADS`) and
/// returns outcomes in point order.
pub fn run_figure(points: &[SweepPoint]) -> Vec<SweepOutcome> {
    sweep(points, &predis_parallel::Pool::default())
}

/// A report metric for table display: `NaN` (rendered `-`) when absent.
pub fn metric_or_nan(report: &RunReport, key: &str) -> f64 {
    report.metric(key).unwrap_or(f64::NAN)
}

/// Clones an outcome's report and stamps the wall-derived
/// `engine.events_per_sec` metric next to the deterministic
/// `engine.events_processed` the experiment recorded.
///
/// The stamp happens here — on the written copy — rather than inside the
/// experiments, because events/sec depends on wall clock and the in-memory
/// sweep reports must stay byte-identical across pool widths.
pub fn report_with_perf(outcome: &SweepOutcome) -> RunReport {
    let mut report = outcome.report.clone();
    let events = report.metric("engine.events_processed").unwrap_or(0.0);
    report.set_metric(
        "engine.events_per_sec",
        events * 1000.0 / outcome.wall_ms.max(1) as f64,
    );
    report
}

/// Emits the showcase reports of a finished figure sweep into `dir`, each
/// stamped with its wall-derived `engine.events_per_sec` (see
/// [`report_with_perf`]).
pub fn emit_showcases(dir: &str, points: &[SweepPoint], outcomes: &[SweepOutcome]) {
    for (point, outcome) in points.iter().zip(outcomes) {
        if point.showcase {
            emit_report(dir, &report_with_perf(outcome));
        }
    }
}

/// Prints a fixed-width table with a title (the figures' output format).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float with no decimals (throughput cells).
pub fn f0(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.0}")
    }
}

/// Formats a float with one decimal (latency cells).
pub fn f1(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.1}")
    }
}
