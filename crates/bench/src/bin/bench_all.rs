//! Runs the whole benchmark suite (fig4–fig8 + ablations) across all
//! cores and merges every run's headline numbers into one
//! `BENCH_<schema>.json` artifact.
//!
//! Every grid point is an independent deterministic simulation, so two
//! passes of one tree write byte-identical artifacts — CI runs the suite
//! twice and `cmp`s the files, then holds the artifact against the
//! checked-in baseline with `compare_bench`.
//!
//! Usage: `bench_all [--quick] [--only PREFIX] [--threads N] [--out PATH]
//! [--mem-warn-only]` — anything else is a usage error (exit 2).
//!
//! * `--quick`   — the scaled-down grids (what CI runs).
//! * `--only P`  — restrict to points whose name starts with `P`
//!   (e.g. `--only fig6_`).
//! * `--threads` — pool width override (default: all cores, or
//!   `PREDIS_THREADS`).
//! * `--out`     — artifact path (default
//!   `results/bench_all/BENCH_<schema>.json`).
//! * `--mem-warn-only` — downgrade the mega-scale per-node memory budget
//!   to a warning (PR builds warn, main builds gate).
//!
//! All outputs live under `results/bench_all/`; an unfiltered run clears
//! that directory's stale `.json` reports first, so a renamed or removed
//! suite point can never leak an outdated report into later tooling.
//!
//! Before writing the artifact the suite enforces the scenario checks
//! (a failed check prints its `check → got / want` row and exits 1) and
//! the zero-copy gate: every throughput run's `msg.payload_clones` must
//! stay O(1) per produced payload unit (see `check_payload_clones`), or the
//! run exits nonzero.

use std::time::Instant;

use predis::experiments::World;
use predis_bench::{
    bench_file_name, exit_on_failed_checks, f0, f1, flags_or_usage, print_table, suite, suite_dir,
    sweep, BenchArtifact, SweepOutcome, SweepPoint, MEM_BYTES_PER_NODE_BUDGET,
};
use predis_parallel::Pool;

/// The zero-copy gate: payload materializations must stay O(1) per produced
/// payload unit (bundle, proposal, microblock, fork), independent of the
/// committee size and full-node fan-out. A deep-copy-per-recipient
/// regression multiplies clones by `n_c`, which this bound catches; the
/// multiplier of 2 absorbs rare legitimate extra materializations
/// (conflict-proof gossip, catch-up state transfer).
fn check_payload_clones(point: &SweepPoint, outcome: &SweepOutcome) -> Result<(), String> {
    if point.is_scenario() || !matches!(point.runner.world, World::Consensus(_)) {
        return Ok(()); // propagation runs share via `Shared`, not counted
    }
    let report = &outcome.report;
    let clones = report.metric("msg.payload_clones").unwrap_or(0.0) as u64;
    let units: u64 = [
        "predis.bundles_produced",
        "pbft.proposals",
        "hs.proposals",
        "micro.produced",
    ]
    .iter()
    .map(|c| report.counter_total(c))
    .sum::<u64>()
        + 2 * report.counter_total("byz.forked_heights");
    let bound = 2 * units + 64;
    if clones > bound {
        return Err(format!(
            "{}: {clones} payload clones > bound {bound} (2 x {units} produced units + 64) — \
             the message plane is deep-copying per recipient again",
            point.name
        ));
    }
    if units > 0 && clones == 0 {
        return Err(format!(
            "{}: produced {units} payload units but recorded 0 materializations — \
             the payload_clones counter is disconnected",
            point.name
        ));
    }
    Ok(())
}

/// The mega-scale memory gate: every fig9 run must record a
/// `mem.bytes_per_node` under the absolute budget. The estimate is a
/// deterministic function of container capacities, so a budget breach is a
/// real structural regression (a per-node map came back, or block state
/// stopped being retired), not runner noise.
fn check_mem_budget(point: &SweepPoint, outcome: &SweepOutcome) -> Result<(), String> {
    if point.is_scenario() || !matches!(point.runner.world, World::MegaScale(_)) {
        return Ok(()); // the budget is calibrated for the fig9 node mix
    }
    if point.name.starts_with("fig9_crowd") {
        // The flash-crowd point doubles the offered *rate*, and in-flight
        // block state is legitimately proportional to the bundle rate.
        // The budget guards against per-node state growing with the
        // *fleet size*, which the steady-rate grid points cover.
        return Ok(());
    }
    let bytes_per_node: u64 = outcome
        .report
        .meta
        .get("mem.bytes_per_node")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    if bytes_per_node == 0 {
        return Err(format!(
            "{}: no mem.bytes_per_node recorded — the engine's actor-footprint \
             sampling is disconnected",
            point.name
        ));
    }
    if bytes_per_node > MEM_BYTES_PER_NODE_BUDGET {
        return Err(format!(
            "{}: {bytes_per_node} B/node > budget {MEM_BYTES_PER_NODE_BUDGET} B — \
             per-node state is no longer O(1) in the fleet size",
            point.name
        ));
    }
    Ok(())
}

fn main() {
    let flags = flags_or_usage(
        "bench_all [--quick] [--only PREFIX] [--threads N] [--out PATH] [--mem-warn-only]",
        &["--quick", "--mem-warn-only"],
        &["--only", "--threads", "--out"],
    );
    let quick = flags.has("--quick");
    let only = flags.value("--only").unwrap_or_default();
    let dir = suite_dir("bench_all");
    let out = match flags.value("--out") {
        Some(path) => path.to_string(),
        None => format!("{dir}/{}", bench_file_name()),
    };
    let pool = match flags.value("--threads") {
        Some(n) => Pool::new(n.parse().unwrap_or_else(|_| {
            eprintln!("--threads wants a positive integer, got {n:?}");
            std::process::exit(2);
        })),
        None => Pool::default(),
    };

    let points = suite::filter_prefix(suite::suite(quick), only);
    if points.is_empty() {
        eprintln!("no suite points match prefix {only:?}");
        std::process::exit(2);
    }
    // An unfiltered run regenerates every report, so stale per-run .json
    // files in the suite directory can only be leftovers of renamed or
    // removed points — clear them rather than letting them shadow current
    // data. Merged BENCH_* artifacts are kept: CI writes several per
    // workflow (second pass, profiled pass) and diffs them afterwards.
    if only.is_empty() {
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if path.extension().and_then(|e| e.to_str()) == Some("json")
                    && !name.starts_with("BENCH_")
                {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
    }
    println!(
        "bench_all: {} runs ({}) across {} worker thread(s), sha256 backend {}",
        points.len(),
        if quick { "--quick" } else { "full" },
        pool.threads(),
        predis_crypto::sha256::backend()
    );

    let started = Instant::now();
    let outcomes = sweep(&points, &pool);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let mut rows = Vec::new();
    let mut spans_dropped = Vec::new();
    let mut capture_errors = Vec::new();
    let mut profile_run_ns = 0u64;
    let mut profile_attr_ns = 0u64;
    for (point, outcome) in points.iter().zip(&outcomes) {
        if let Err(e) = outcome.report.write_to_dir(&dir) {
            eprintln!("could not write report {}: {e}", outcome.report.name);
        }
        let dropped = outcome
            .report
            .metric("timeline.spans_dropped")
            .unwrap_or(0.0);
        if dropped > 0.0 {
            spans_dropped.push(format!("{}: {dropped:.0} spans", point.name));
        }
        let trace_errors = outcome.report.counter_total("trace.capture_errors");
        if trace_errors > 0 {
            capture_errors.push(format!("{}: {trace_errors} error(s)", point.name));
        }
        profile_run_ns += outcome.report.profile_run_ns;
        profile_attr_ns += outcome.report.profile_attributed_ns();
        rows.push(vec![
            point.name.clone(),
            f0(outcome.report.metric("throughput_tps").unwrap_or(0.0)),
            f1(outcome
                .report
                .metric("p99_latency_ms")
                .or_else(|| outcome.report.metric("to_100_ms"))
                .unwrap_or(f64::NAN)),
            f0(outcome
                .report
                .metric("engine.events_processed")
                .unwrap_or(f64::NAN)),
            outcome.wall_ms.to_string(),
        ]);
    }
    print_table(
        "bench_all suite",
        &["run", "tps", "p99/to100_ms", "events", "wall_ms"],
        &rows,
    );

    // Dropped lifecycle spans mean the latency percentiles above were
    // computed over a *sample* of bundles — loud warning, not a failure,
    // because the cap is a deliberate memory bound.
    if !spans_dropped.is_empty() {
        eprintln!(
            "\nWARNING: bundle-timeline capacity was exceeded in {} run(s); \
             stage-latency percentiles are computed over a truncated sample:",
            spans_dropped.len()
        );
        for s in &spans_dropped {
            eprintln!("  {s}");
        }
    }

    // A latched trace-capture IO error means the on-disk event capture is
    // truncated even though the run itself (and its in-memory fingerprint)
    // completed fine — warn loudly so a forensic capture is not trusted
    // silently.
    if !capture_errors.is_empty() {
        eprintln!(
            "\nWARNING: trace capture hit IO errors in {} run(s); the written \
             .trace.jsonl files are incomplete:",
            capture_errors.len()
        );
        for s in &capture_errors {
            eprintln!("  {s}");
        }
    }

    // With PREDIS_PROFILE on, nearly all dispatch-loop wall time must be
    // attributed to actor/event cells — a large gap means the profiler is
    // missing work and its per-actor numbers cannot be trusted.
    if profile_run_ns > 0 {
        let pct = profile_attr_ns as f64 / profile_run_ns as f64 * 100.0;
        println!(
            "\ndispatch profile: {:.1}s total loop time, {pct:.1}% attributed to actors",
            profile_run_ns as f64 / 1e9
        );
        if pct < 95.0 {
            eprintln!(
                "WARNING: dispatch profiler attributed only {pct:.1}% of loop wall time \
                 (expected >= 95%) — per-actor numbers are unreliable"
            );
        }
    }

    exit_on_failed_checks(&outcomes);

    let clone_violations: Vec<String> = points
        .iter()
        .zip(&outcomes)
        .filter_map(|(p, o)| check_payload_clones(p, o).err())
        .collect();
    if !clone_violations.is_empty() {
        for v in &clone_violations {
            eprintln!("zero-copy gate: {v}");
        }
        std::process::exit(1);
    }

    // The absolute per-node memory budget for mega-scale runs.
    // `--mem-warn-only` downgrades it to a warning (PR builds warn, main
    // builds gate).
    let mem_violations: Vec<String> = points
        .iter()
        .zip(&outcomes)
        .filter_map(|(p, o)| check_mem_budget(p, o).err())
        .collect();
    if !mem_violations.is_empty() {
        for v in &mem_violations {
            eprintln!("memory gate: {v}");
        }
        if flags.has("--mem-warn-only") {
            eprintln!("memory gate: --mem-warn-only set, not failing the run");
        } else {
            std::process::exit(1);
        }
    }

    let artifact = BenchArtifact::from_sweep(&points, &outcomes);
    if let Err(e) = artifact.write(&out) {
        eprintln!("could not write artifact {out}: {e}");
        std::process::exit(2);
    }

    println!(
        "\n{} runs in {:.1}s wall",
        outcomes.len(),
        elapsed_ms as f64 / 1e3
    );
    println!("artifact written to {out}");
}
