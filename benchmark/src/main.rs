//! The repository's benchmark: the host cost of simulating four sustainable
//! workloads, end to end and layer by layer. See README.md.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --smoke
//! benchmark --sweep-rate <name> [--seed <n>]
//! benchmark --compare <a.jsonl> <b.jsonl>
//! ```

mod alloc;
mod floor;
mod metrics;
mod probes;
mod rep;
mod run;
mod spans;
mod workloads;

use std::process::ExitCode;

use predis_telemetry::Json;

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::rep::{Mode, RepRequest};
use crate::run::RunRequest;
use crate::workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `run_seconds` of BENCHMARK.json: the default when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 26.0;

/// Command-line arguments, checked where they enter.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    child: bool,
    mode: Option<Mode>,
    rate_mult: Option<f64>,
    smoke: bool,
    sweep_rate: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v}: not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err(format!("--seconds {v}: must be within (0, 3600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--child" => args.child = true,
            "--mode" => {
                let v = value("a rep mode")?;
                args.mode = Some(Mode::by_name(&v).ok_or_else(|| format!("--mode {v}: unknown"))?);
            }
            "--rate-mult" => {
                let v = value("a multiplier")?;
                let m: f64 = v
                    .parse()
                    .map_err(|_| format!("--rate-mult {v}: not a number"))?;
                if !(m > 0.0 && m <= 1_000.0) {
                    return Err(format!("--rate-mult {v}: must be within (0, 1000]"));
                }
                args.rate_mult = Some(m);
            }
            "--smoke" => args.smoke = true,
            "--sweep-rate" => args.sweep_rate = Some(value("a workload name")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.spec().name).collect();
        format!(
            "unknown workload `{name}`; known: {}, all",
            known.join(", ")
        )
    })
}

/// Runs one workload and prints its result line; `Ok(false)` when a check
/// failed.
fn bench_one(req: &RunRequest) -> Result<bool, String> {
    let outcome = run::run(req)?;
    let (title, defs) = if req.trace {
        ("per-layer metrics (traced run)", PER_LAYER)
    } else {
        ("end-to-end metrics", END_TO_END)
    };
    outcome.print_table(&format!("[{}] {title}", req.workload.spec().name), defs);
    println!("{}", outcome.result_line(defs)?);
    Ok(outcome.correct)
}

fn bench(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().unwrap_or("all");
    let workloads = if name == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![workload_named(name)?]
    };
    let mut all_correct = true;
    for workload in workloads {
        all_correct &= bench_one(&RunRequest {
            workload,
            seed: args.seed.unwrap_or(1),
            seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
            trace: args.trace,
            smoke: false,
        })?;
    }
    Ok(all_correct)
}

/// Every workload in both kinds of run, one cycle each at a tenth of the
/// horizon: exercises every code path of the benchmark in seconds.
fn smoke(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            all_correct &= bench_one(&RunRequest {
                workload,
                seed: args.seed.unwrap_or(1),
                seconds: 1.0,
                trace,
                smoke: true,
            })?;
        }
    }
    Ok(all_correct)
}

/// Runs the workload once at each of five fixed offered rates and prints
/// what the simulated clients see, then the highest rate that meets the
/// latency limit without shortfall. Not part of the timed run.
fn sweep_rate(name: &str, seed: u64) -> Result<(), String> {
    let workload = workload_named(name)?;
    let spec = workload.spec();
    println!(
        "{}: p99 limit {} ms, stable window {}-{} s",
        spec.name,
        spec.p99_limit_ms,
        spec.warmup_ms as f64 / 1e3,
        spec.horizon_ms as f64 / 1e3
    );
    println!("| offered tx/s | sim_tps | sim_p50_ms | sim_p99_ms | commit_share | sustainable |");
    println!("|---|---|---|---|---|---|");
    let mut best = None;
    for mult in spec.sweep {
        let rep = run::spawn_rep(&RepRequest {
            workload,
            seed,
            mode: Mode::Plain,
            rate_mult: mult,
            smoke: false,
        })?;
        let offered = workload.offered_tps(seed, mult);
        let window_s = (spec.horizon_ms - spec.warmup_ms) as f64 / 1e3;
        let share = rep.commit_share(window_s);
        let p99 = rep.fact("latency.p99_ms");
        let sustainable = share >= 0.97 && p99 <= spec.p99_limit_ms;
        if sustainable {
            best = Some(offered);
        }
        println!(
            "| {:.0} | {:.0} | {:.1} | {:.1} | {:.4} | {} |",
            offered,
            rep.fact("tps"),
            rep.fact("latency.p50_ms"),
            p99,
            share,
            if sustainable { "yes" } else { "no" }
        );
    }
    match best {
        Some(rate) => println!("highest sustainable rate of the five: {rate:.0} tx/s"),
        None => println!("none of the five rates is sustainable"),
    }
    Ok(())
}

/// The end-to-end values of every result line of a file written by
/// `--workload all`.
fn read_results(path: &str) -> Result<Vec<Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let metrics = doc
            .get("metrics")
            .ok_or_else(|| format!("{path}: line without metrics"))?;
        out.push(
            END_TO_END
                .iter()
                .map(|d| {
                    metrics
                        .get(d.name)
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{path}: no value for {}", d.name))
                })
                .collect::<Result<_, _>>()?,
        );
    }
    if out.len() != Workload::ALL.len() {
        return Err(format!(
            "{path}: {} result lines, expected one per workload ({})",
            out.len(),
            Workload::ALL.len()
        ));
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction; negative when `b` is better.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Two sets of runs of the same code must agree within every bound, in
/// either direction.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    let mut all_within = true;
    println!(
        "{:<12} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for (w, (ra, rb)) in Workload::ALL.iter().zip(a.iter().zip(&b)) {
        for (def, (&va, &vb)) in END_TO_END.iter().zip(ra.iter().zip(rb)) {
            let diff = worsening(def, va, vb);
            let within = diff.abs() <= def.bound;
            all_within &= within;
            println!(
                "{:<12} {:<22} {:>16.6} {:>16.6} {:>+9.3} {:>7.1}{}",
                w.spec().name,
                def.name,
                va,
                vb,
                diff * 100.0,
                def.bound * 100.0,
                if within { "" } else { "  MISS" }
            );
        }
    }
    Ok(all_within)
}

/// Exit code 1 for a failed check, where a person or a script reads it.
fn pass(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.child {
        let name = args.workload.as_deref().ok_or("--child needs --workload")?;
        let rep = rep::run(&RepRequest {
            workload: workload_named(name)?,
            seed: args.seed.unwrap_or(1),
            mode: args.mode.ok_or("--child needs --mode")?,
            rate_mult: args.rate_mult.unwrap_or(1.0),
            smoke: args.smoke,
        })?;
        print!("{}", rep.to_json().to_pretty_string());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &args.compare {
        return compare(a, b).map(pass);
    }
    if let Some(name) = &args.sweep_rate {
        sweep_rate(name, args.seed.unwrap_or(1))?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.smoke {
        return smoke(&args).map(pass);
    }
    // A failed check is reported in the result line (`correct: false`),
    // which is what the driver reads; the run itself completed.
    bench(&args)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse_args(&argv("--workload mz_flow --seed 7 --seconds 24 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("mz_flow"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(24.0), true));
        assert!(!a.child && !a.smoke);
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            "--seed x",
            "--seed",
            "--seconds 0",
            "--seconds -3",
            "--seconds nan",
            "--trace 2",
            "--mode warp",
            "--rate-mult 0",
            "--frobnicate",
            "--compare onlyone",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "`{bad}` should be refused");
        }
        assert!(workload_named("nope").unwrap_err().contains("pbft_batch"));
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let rate = END_TO_END.iter().find(|d| d.name == "sim_rate").unwrap();
        let rss = END_TO_END.iter().find(|d| d.name == "peak_rss_mb").unwrap();
        assert!(worsening(rate, 10.0, 9.0) > 0.0);
        assert!(worsening(rate, 10.0, 11.0) < 0.0);
        assert!(worsening(rss, 10.0, 11.0) > 0.0);
        assert_eq!(worsening(rss, 10.0, 10.0), 0.0);
    }
}
