//! The identity harness and the layer microbenches.
//!
//! Each `src/bin/fig*.rs` binary reproduces one table/figure of the paper;
//! `bench_all` runs every grid point of all of them and folds the results
//! into one [`BenchArtifact`], which `compare_bench` holds against the
//! checked-in baseline: same tree, same bytes. The Criterion benches under
//! `benches/` time one layer each (crypto, erasure, engine, proposal sizes,
//! the Multi-Zone stripe path, the consensus vote path). How fast whole
//! runs execute is the repo benchmark's question (`benchmark/`).

#![deny(unsafe_code)]

use predis_telemetry::RunReport;

pub mod artifact;
pub mod suite;
pub mod sweep;
pub mod trace;

pub use artifact::{
    bench_file_name, BenchArtifact, BenchEntry, EngineEntry, MemEntry, BENCH_SCHEMA_VERSION,
    MEM_BYTES_PER_NODE_BUDGET, MEM_REGRESSION_PCT,
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

/// The flags of one harness invocation, as [`flags_or_usage`] accepted them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The value given with `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.0.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }
}

/// Parses `args` strictly: every argument must be one of `switches` (which
/// stand alone) or one of `valued` (which take the next argument), given at
/// most once. A misspelt flag must not silently run a different experiment
/// — `--quik` on CI's command line would be the full 97-point grid.
fn parse_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.has(arg) {
            return Err(format!("flag `{arg}` given twice"));
        }
        let value = if switches.contains(&arg.as_str()) {
            None
        } else if valued.contains(&arg.as_str()) {
            match it.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return Err(format!("flag `{arg}` wants a value")),
            }
        } else {
            return Err(format!("unknown argument `{arg}`"));
        };
        flags.0.push((arg.clone(), value));
    }
    Ok(flags)
}

/// The process arguments, parsed strictly (every one a declared switch or
/// valued flag, given at most once); on a bad command line prints the error
/// and `usage` to stderr and exits 2.
pub fn flags_or_usage(usage: &str, switches: &[&str], valued: &[&str]) -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flags(&args, switches, valued).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {usage}");
        std::process::exit(2);
    })
}

/// Parses the shared figure-binary flags and wires up observability.
///
/// `--quick` selects the scaled-down grid. `--trace` turns on full event
/// capture by exporting `PREDIS_TRACE_DIR=<suite dir>/trace` — it must run
/// before [`run_figure`] spawns the worker pool, which is why the flag is
/// handled here rather than per-run. Captures can then be converted for
/// Perfetto with the `trace_export` binary. Anything else on the command
/// line is a usage error (exit 2).
pub fn fig_opts(suite: &str) -> FigOpts {
    let flags = flags_or_usage(
        &format!("{suite} [--quick] [--trace]"),
        &["--quick", "--trace"],
        &[],
    );
    let dir = suite_dir(suite);
    if flags.has("--trace") {
        let trace_dir = format!("{dir}/trace");
        std::env::set_var("PREDIS_TRACE_DIR", &trace_dir);
        println!("trace capture on: {trace_dir}/<run>.trace.jsonl");
    }
    FigOpts {
        quick: flags.has("--quick"),
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

/// Emits the showcase reports of a finished figure sweep into `dir`.
pub fn emit_showcases(dir: &str, points: &[SweepPoint], outcomes: &[SweepOutcome]) {
    for (point, outcome) in points.iter().zip(outcomes) {
        if point.showcase {
            emit_report(dir, &outcome.report);
        }
    }
}

/// The failed scenario checks of a finished sweep, one
/// `run: check → got … / want …` line each (see
/// [`predis::experiments::check_failures`]).
fn failed_checks(outcomes: &[SweepOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .flat_map(|o| {
            predis::experiments::check_failures(&o.report)
                .into_iter()
                .map(move |line| format!("{}: {line}", o.report.name))
        })
        .collect()
}

/// Prints every failed scenario check of a finished sweep to stderr and
/// exits 1 if there was one: a failed check fails the binary, after its
/// tables are out, without unwinding through the worker pool.
pub fn exit_on_failed_checks(outcomes: &[SweepOutcome]) {
    let failed = failed_checks(outcomes);
    for row in &failed {
        eprintln!("scenario check failed: {row}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use predis::experiments::{Check, NetEnv, ScenarioSetup, ThroughputSetup, World};

    /// A scenario whose check cannot hold comes back from the pool as a
    /// report carrying the failure — nothing unwinds through `Pool::map` —
    /// and is the one row [`exit_on_failed_checks`] prints.
    #[test]
    fn a_failed_scenario_check_is_a_row_not_a_panic() {
        let scenario = |name: &str, tps: f64| {
            let setup = ScenarioSetup {
                name: name.into(),
                world: World::Consensus(ThroughputSetup {
                    n_c: 4,
                    clients: 4,
                    offered_tps: 1_000.0,
                    env: NetEnv::Lan,
                    duration_secs: 2,
                    warmup_secs: 1,
                    ..Default::default()
                }),
                injections: vec![],
                checks: vec![Check::MinThroughputTps { tps }],
            };
            SweepPoint::scenario(format!("scenario_{name}"), setup)
        };
        let points = [scenario("meets", 1.0), scenario("cannot", 1e9)];
        let outcomes = sweep(&points, &predis_parallel::Pool::new(2));
        let rows = failed_checks(&outcomes);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert!(
            rows[0].starts_with("scenario_cannot: MinThroughputTps")
                && rows[0].contains("want >= 1000000000 tx/s"),
            "{rows:?}"
        );
    }

    #[test]
    fn flags_parse_strictly() {
        let switches = ["--quick", "--mem-warn-only"];
        let valued = ["--only", "--out"];
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_flags(&args, &switches, &valued)
        };
        let ok = parse("--quick --only fig8_ --out /tmp/x.json").unwrap();
        assert!(ok.has("--quick") && !ok.has("--mem-warn-only"));
        assert_eq!(ok.value("--only"), Some("fig8_"));
        assert_eq!(ok.value("--out"), Some("/tmp/x.json"));
        assert_eq!(parse("").unwrap(), Flags::default());
        for (line, want) in [
            ("--only fig8_star_1mb --quik", "unknown argument `--quik`"),
            ("--quick --out", "flag `--out` wants a value"),
            ("--out --quick", "flag `--out` wants a value"),
            ("--quick --quick", "flag `--quick` given twice"),
            ("--only a --only b", "flag `--only` given twice"),
            ("fig8_", "unknown argument `fig8_`"),
            ("--trace", "unknown argument `--trace`"),
        ] {
            assert_eq!(parse(line).unwrap_err(), want, "`{line}`");
        }
    }
}
