//! The scenario plane — config-driven fault & adversary runs.
//!
//! Every scenario is pure data (`predis::experiments::ScenarioSetup`). To
//! prove it, this binary serializes each scenario to JSON, parses it back,
//! and runs the *parsed* copy: what executes is exactly what a config file
//! would say, with no per-scenario code in this binary. A scenario whose
//! liveness/safety checks fail is printed with its `check → got / want`
//! rows after the table, and the binary exits 1.
//!
//! Usage: `cargo run -p predis-bench --release --bin fig_scenarios [--quick] [--trace]`

use predis::experiments::ScenarioSetup;
use predis_bench::sweep::SweepPoint;
use predis_bench::{
    emit_showcases, exit_on_failed_checks, f0, fig_opts, metric_or_nan, print_table, run_figure,
    suite,
};

fn main() {
    let opts = fig_opts("fig_scenarios");

    // Round-trip every scenario through its JSON encoding before running:
    // the sweep below executes the parsed copies, not the originals.
    let points: Vec<SweepPoint> = suite::scenario_points(opts.quick)
        .into_iter()
        .map(|point| {
            let scenario = &point.runner;
            let text = scenario.to_json();
            let parsed = ScenarioSetup::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: config re-parse failed: {e}", point.name));
            assert_eq!(
                &parsed, scenario,
                "{}: JSON round trip changed the scenario",
                point.name
            );
            SweepPoint {
                runner: parsed,
                ..point
            }
        })
        .collect();

    let outcomes = run_figure(&points);

    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(&outcomes)
        .map(|(p, o)| {
            let mut row = p.labels.clone();
            row.push(f0(metric_or_nan(&o.report, "scenario.checks_passed")));
            let tps = o.report.metric("throughput_tps").unwrap_or(0.0);
            row.push(if tps > 0.0 { f0(tps) } else { "-".into() });
            let blocks = o.report.metric("complete_blocks").unwrap_or(0.0);
            row.push(if blocks > 0.0 { f0(blocks) } else { "-".into() });
            row.push(o.report.counter_total("ban.hits").to_string());
            row.push(o.report.counter_total("zone.stripes_rejected").to_string());
            row
        })
        .collect();
    print_table(
        "Scenario plane: config-driven fault & adversary runs",
        &[
            "scenario",
            "world",
            "checks_passed",
            "tps",
            "blocks",
            "ban_hits",
            "rejected",
        ],
        &rows,
    );
    emit_showcases(&opts.dir, &points, &outcomes);

    exit_on_failed_checks(&outcomes);
}
