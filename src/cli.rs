//! The `predis-dataflow` command line: run any of the framework's
//! experiments from flags, without writing Rust.
//!
//! Subcommands map 1:1 onto the experiment runners in [`predis`]:
//!
//! ```text
//! predis-dataflow throughput  --protocol p-pbft --nc 4 --load 10000 --env wan
//! predis-dataflow propagation --topology multizone:12 --block-mb 10 --fulls 100
//! predis-dataflow topology    --mode multizone:12 --fulls 48 --nc 4
//! predis-dataflow model       --nc 4,8,16
//! ```
//!
//! Parsing is hand-rolled (`--key value` pairs) to keep the dependency set
//! at the workspace's approved crates.

use std::fmt;

use predis::experiments::{
    DistMode, FaultSpec, NetEnv, PropagationSetup, Protocol, ThroughputSetup, Topology,
    TopologySetup,
};
use predis::model::{predis_tps, ModelInputs};
use predis::multizone::FegConfig;
use predis::sim::{LatencyModel, SimDuration};

/// A CLI-level error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// The `--key value` pairs of one subcommand invocation.
#[derive(Debug)]
pub struct Flags {
    /// The keys the subcommand declared; reading any other is a bug.
    allowed: &'static [&'static str],
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses the `--key value` pairs of subcommand `cmd`, which reads
    /// exactly the keys in `allowed`. Stray positionals, a flag without a
    /// value, a flag `cmd` does not read and a repeated flag are errors: a
    /// misspelt `--lod 40000` must not silently run the default load.
    pub fn parse(
        cmd: &str,
        args: &[String],
        allowed: &'static [&'static str],
    ) -> Result<Flags, CliError> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return err(format!("unexpected argument '{a}' (flags are --key value)"));
            };
            if !allowed.contains(&key) {
                return err(format!(
                    "unknown flag --{key} for `{cmd}` (it reads: --{})",
                    allowed.join(", --")
                ));
            }
            if pairs.iter().any(|(k, _)| k == key) {
                return err(format!("flag --{key} given twice to `{cmd}`"));
            }
            let Some(value) = it.next() else {
                return err(format!("flag --{key} is missing a value"));
            };
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags { allowed, pairs })
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(self.allowed.contains(&key), "undeclared flag --{key}");
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// A comma-separated list of numbers (empty if absent).
    pub fn num_list<T: std::str::FromStr>(&self, key: &str) -> Result<Vec<T>, CliError> {
        match self.get(key) {
            None => Ok(Vec::new()),
            Some(v) => v
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| CliError(format!("--{key}: cannot parse '{s}'")))
                })
                .collect(),
        }
    }
}

fn parse_protocol(s: &str) -> Result<Protocol, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "pbft" => Ok(Protocol::Pbft),
        "p-pbft" | "ppbft" => Ok(Protocol::PPbft),
        "hotstuff" | "hs" => Ok(Protocol::HotStuff),
        "p-hs" | "phs" => Ok(Protocol::PHs),
        "narwhal" => Ok(Protocol::Narwhal),
        "stratus" => Ok(Protocol::Stratus),
        other => err(format!(
            "unknown protocol '{other}' (pbft, p-pbft, hotstuff, p-hs, narwhal, stratus)"
        )),
    }
}

fn parse_env(s: &str) -> Result<NetEnv, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "lan" => Ok(NetEnv::Lan),
        "wan" => Ok(NetEnv::Wan),
        other => err(format!("unknown env '{other}' (lan, wan)")),
    }
}

fn parse_topology(s: &str) -> Result<Topology, CliError> {
    let lower = s.to_ascii_lowercase();
    if lower == "star" {
        return Ok(Topology::Star);
    }
    if lower == "random" {
        return Ok(Topology::Random {
            degree: 8,
            feg: FegConfig::default(),
        });
    }
    if let Some(z) = lower.strip_prefix("multizone:") {
        let zones: usize = z
            .parse()
            .map_err(|_| CliError(format!("bad zone count '{z}'")))?;
        if zones == 0 {
            return err("zone count must be positive");
        }
        return Ok(Topology::MultiZone { zones });
    }
    err(format!(
        "unknown topology '{s}' (star, random, multizone:<zones>)"
    ))
}

fn parse_mode(s: &str) -> Result<DistMode, CliError> {
    let lower = s.to_ascii_lowercase();
    if lower == "star" {
        return Ok(DistMode::Star);
    }
    if let Some(z) = lower.strip_prefix("multizone:") {
        let zones: usize = z
            .parse()
            .map_err(|_| CliError(format!("bad zone count '{z}'")))?;
        if zones == 0 {
            return err("zone count must be positive");
        }
        return Ok(DistMode::MultiZone { zones });
    }
    err(format!("unknown mode '{s}' (star, multizone:<zones>)"))
}

/// Usage text printed by `--help` / bad invocations.
pub const USAGE: &str = "predis-dataflow — run Predis + Multi-Zone experiments

USAGE:
  predis-dataflow throughput  [--protocol p-pbft] [--nc 4] [--load 10000]
                              [--env wan|lan] [--secs 15] [--warmup 5]
                              [--bundle 50] [--batch 800] [--mbps 100]
                              [--clients 8] [--seed 1]
                              [--silent i,j] [--selective i,j]
  predis-dataflow propagation [--topology multizone:12|star|random]
                              [--block-mb 10] [--fulls 100] [--nc 8]
                              [--blocks 8] [--interval-secs 5] [--seed 3]
  predis-dataflow topology    [--mode multizone:12|star] [--fulls 48]
                              [--nc 4] [--gen 26000] [--secs 15] [--seed 1]
  predis-dataflow model       [--nc 4,8,16] [--mbps 100] [--tx-size 512]
  predis-dataflow series      [--protocol p-pbft] [--load 10000] [--secs 20]
                              [--bucket-ms 1000] (throughput over time)
  predis-dataflow compare     [--protocols p-pbft,pbft] [--load 20000]
                              [--nc 4] [--env wan] [--secs 15]
";

/// A subcommand's handler.
type Command = fn(&Flags) -> Result<String, CliError>;

/// Every subcommand: its name, the flags it reads, and its handler.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    (
        "throughput",
        &[
            "protocol",
            "nc",
            "load",
            "env",
            "secs",
            "warmup",
            "bundle",
            "batch",
            "mbps",
            "clients",
            "seed",
            "silent",
            "selective",
            "tx-size",
            "per-node-mbps",
            "pipeline",
        ],
        cmd_throughput,
    ),
    (
        "propagation",
        &[
            "topology",
            "block-mb",
            "fulls",
            "nc",
            "blocks",
            "interval-secs",
            "seed",
            "mbps",
            "max-children",
            "locality",
        ],
        cmd_propagation,
    ),
    (
        "topology",
        &[
            "mode", "fulls", "nc", "gen", "secs", "seed", "clients", "tx-size", "mbps", "warmup",
        ],
        cmd_topology,
    ),
    ("model", &["nc", "mbps", "tx-size"], cmd_model),
    (
        "series",
        &["protocol", "load", "secs", "bucket-ms", "env", "nc", "seed"],
        cmd_series,
    ),
    (
        "compare",
        &["protocols", "load", "nc", "env", "secs", "seed"],
        cmd_compare,
    ),
];

/// Executes a CLI invocation (everything after the binary name); returns
/// the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on bad flags.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return err(USAGE);
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        return Ok(USAGE.to_string());
    }
    match COMMANDS.iter().find(|(name, ..)| name == cmd) {
        Some((name, allowed, handler)) => handler(&Flags::parse(name, rest, allowed)?),
        None => err(format!("unknown subcommand '{cmd}'\n\n{USAGE}")),
    }
}

fn cmd_throughput(flags: &Flags) -> Result<String, CliError> {
    let protocol = parse_protocol(flags.get("protocol").unwrap_or("p-pbft"))?;
    let env = parse_env(flags.get("env").unwrap_or("wan"))?;
    let setup = ThroughputSetup {
        protocol,
        n_c: flags.num("nc", 4usize)?,
        clients: flags.num("clients", 8usize)?,
        offered_tps: flags.num("load", 10_000.0f64)?,
        tx_size: flags.num("tx-size", 512usize)?,
        bundle_size: flags.num("bundle", 50usize)?,
        batch_size: flags.num("batch", 800usize)?,
        env,
        mbps: flags.num("mbps", 100u64)?,
        duration_secs: flags.num("secs", 15u64)?,
        warmup_secs: flags.num("warmup", 5u64)?,
        seed: flags.num("seed", 1u64)?,
        faults: FaultSpec {
            silent: flags.num_list("silent")?,
            selective: flags.num_list("selective")?,
            ..FaultSpec::none()
        },
        per_node_mbps: flags.num_list("per-node-mbps")?,
        pipeline: flags.num("pipeline", 8usize)?,
        ..Default::default()
    };
    setup.validate().map_err(CliError)?;
    let s = setup.run();
    Ok(format!(
        "{} n_c={} {:?} offered={:.0} tx/s\n\
         throughput : {:.0} tx/s\n\
         committed  : {} txs\n\
         latency    : mean {:.1} ms, p50 {:.1} ms, p99 {:.1} ms\n",
        setup.protocol.name(),
        setup.n_c,
        env,
        setup.offered_tps,
        s.throughput_tps,
        s.committed_txs,
        s.mean_latency_ms,
        s.p50_latency_ms,
        s.p99_latency_ms,
    ))
}

fn cmd_propagation(flags: &Flags) -> Result<String, CliError> {
    let topology = parse_topology(flags.get("topology").unwrap_or("multizone:12"))?;
    let block_mb: u64 = flags.num("block-mb", 10u64)?;
    let setup = PropagationSetup {
        n_c: flags.num("nc", 8usize)?,
        full_nodes: flags.num("fulls", 100usize)?,
        block_bytes: block_mb * 1_000_000,
        interval: SimDuration::from_secs(flags.num("interval-secs", 5u64)?),
        blocks: flags.num("blocks", 8u64)?,
        mbps: flags.num("mbps", 100u64)?,
        latency: LatencyModel::lan(),
        max_children: flags.num("max-children", 24usize)?,
        locality_zones: flags
            .get("locality")
            .is_some_and(|v| v == "true" || v == "1"),
        seed: flags.num("seed", 3u64)?,
    };
    if setup.blocks == 0 {
        return err("--blocks must be positive");
    }
    setup.validate(&topology).map_err(CliError)?;
    let r = setup.run(&topology);
    Ok(format!(
        "{topology:?}, {block_mb} MB blocks, {} full nodes\n\
         to 50%  : {:.0} ms\n\
         to 90%  : {:.0} ms\n\
         to 100% : {:.0} ms\n\
         complete: {}/{} blocks\n",
        setup.full_nodes, r.to_50_ms, r.to_90_ms, r.to_100_ms, r.complete_blocks, r.produced_blocks,
    ))
}

fn cmd_topology(flags: &Flags) -> Result<String, CliError> {
    let mode = parse_mode(flags.get("mode").unwrap_or("multizone:12"))?;
    let setup = TopologySetup {
        n_c: flags.num("nc", 4usize)?,
        full_nodes: flags.num("fulls", 48usize)?,
        mode,
        gen_tps: flags.num("gen", 26_000.0f64)?,
        clients: flags.num("clients", 4usize)?,
        tx_size: flags.num("tx-size", 512usize)?,
        mbps: flags.num("mbps", 100u64)?,
        duration_secs: flags.num("secs", 15u64)?,
        warmup_secs: flags.num("warmup", 5u64)?,
        seed: flags.num("seed", 1u64)?,
    };
    setup.validate().map_err(CliError)?;
    let r = setup.run();
    Ok(format!(
        "{mode:?}, {} full nodes, n_c={}\n\
         consensus throughput : {:.0} tx/s\n\
         consensus upload     : {} MB\n",
        setup.full_nodes,
        setup.n_c,
        r.throughput_tps,
        r.consensus_upload_bytes / 1_000_000,
    ))
}

fn cmd_series(flags: &Flags) -> Result<String, CliError> {
    use predis::sim::{SimDuration, SimTime};
    let protocol = parse_protocol(flags.get("protocol").unwrap_or("p-pbft"))?;
    let env = parse_env(flags.get("env").unwrap_or("wan"))?;
    let secs: u64 = flags.num("secs", 20u64)?;
    let bucket = SimDuration::from_millis(flags.num("bucket-ms", 1_000u64)?);
    if bucket.is_zero() {
        return err("--bucket-ms must be positive");
    }
    let setup = ThroughputSetup {
        protocol,
        n_c: flags.num("nc", 4usize)?,
        offered_tps: flags.num("load", 10_000.0f64)?,
        env,
        duration_secs: secs,
        warmup_secs: 0,
        seed: flags.num("seed", 1u64)?,
        ..Default::default()
    };
    setup.validate().map_err(CliError)?;
    let sim = setup.run_sim();
    let until = SimTime::from_secs(secs);
    let series = sim.metrics().throughput_series(bucket, until);
    let peak = series.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    let mut out = format!(
        "{} throughput over time ({} buckets of {}):
",
        setup.protocol.name(),
        series.len(),
        bucket
    );
    for (i, tps) in series.iter().enumerate() {
        let bar = "#".repeat((tps / peak * 50.0).round() as usize);
        out.push_str(&format!(
            "{:>6.1}s {:>9.0} tx/s |{bar}
",
            (i as f64 + 1.0) * bucket.as_secs_f64(),
            tps
        ));
    }
    match sim.metrics().stable_from(bucket, until, 0.10) {
        Some(idx) => out.push_str(&format!(
            "stable from {:.1}s; stable-window mean {:.0} tx/s
",
            idx as f64 * bucket.as_secs_f64(),
            series[idx..].iter().sum::<f64>() / (series.len() - idx) as f64
        )),
        None => out.push_str(
            "run never settled (offered load above capacity?)
",
        ),
    }
    Ok(out)
}

fn cmd_compare(flags: &Flags) -> Result<String, CliError> {
    let protocols: Vec<Protocol> = match flags.get("protocols") {
        None => vec![Protocol::PPbft, Protocol::Pbft],
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(parse_protocol)
            .collect::<Result<_, _>>()?,
    };
    if protocols.is_empty() {
        return err("--protocols needs at least one protocol");
    }
    let env = parse_env(flags.get("env").unwrap_or("wan"))?;
    let secs: u64 = flags.num("secs", 15u64)?;
    let mut out = format!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}
",
        "protocol", "tps", "mean_ms", "p50_ms", "p99_ms"
    );
    for protocol in protocols {
        let setup = ThroughputSetup {
            protocol,
            n_c: flags.num("nc", 4usize)?,
            offered_tps: flags.num("load", 20_000.0f64)?,
            env,
            duration_secs: secs,
            warmup_secs: secs / 3,
            seed: flags.num("seed", 1u64)?,
            ..Default::default()
        };
        setup.validate().map_err(CliError)?;
        let s = setup.run();
        out.push_str(&format!(
            "{:>10} {:>10.0} {:>10.1} {:>10.1} {:>10.1}
",
            protocol.name(),
            s.throughput_tps,
            s.mean_latency_ms,
            s.p50_latency_ms,
            s.p99_latency_ms
        ));
    }
    Ok(out)
}

fn cmd_model(flags: &Flags) -> Result<String, CliError> {
    let mut ncs: Vec<usize> = flags.num_list("nc")?;
    if ncs.is_empty() {
        ncs = vec![4, 8, 16, 32, 64];
    }
    let mbps: u64 = flags.num("mbps", 100u64)?;
    let tx_size: usize = flags.num("tx-size", 512usize)?;
    let mut out = String::from("Eq.2 Predis TPS upper bound\n  n_c      tps\n");
    for n_c in ncs {
        if n_c < 2 {
            return err("--nc entries must be at least 2 for the model");
        }
        let tps = predis_tps(ModelInputs {
            n_c,
            upload_bps: mbps * 1_000_000,
            tx_size,
        });
        out.push_str(&format!("{n_c:>5} {tps:>8.0}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const UNIT_KEYS: &[&str] = &["nc", "env", "load", "silent", "selective"];

    fn flags(line: &str) -> Result<Flags, CliError> {
        Flags::parse("unit", &args(line), UNIT_KEYS)
    }

    #[test]
    fn flags_parse_pairs() {
        let f = flags("--nc 4 --env lan").unwrap();
        assert_eq!(f.get("nc"), Some("4"));
        assert_eq!(f.get("env"), Some("lan"));
        assert_eq!(f.get("load"), None);
        assert_eq!(f.num("nc", 0usize).unwrap(), 4);
        assert_eq!(f.num("load", 7usize).unwrap(), 7);
    }

    #[test]
    fn flags_reject_malformed() {
        assert!(flags("positional").is_err());
        assert!(flags("--nc").is_err());
        let f = flags("--nc abc").unwrap();
        assert!(f.num("nc", 0usize).is_err());
    }

    /// A flag the subcommand does not read, or one given twice, is an error
    /// naming the flag and the subcommand — never a silently different run.
    #[test]
    fn unknown_and_repeated_flags_are_rejected_per_subcommand() {
        for (line, flag) in [
            ("throughput --lod 40000 --secs 3", "unknown flag --lod"),
            (
                "throughput --load 1000 --load 40000",
                "flag --load given twice",
            ),
            ("throughput --fulls 10", "unknown flag --fulls"),
            ("propagation --mode star", "unknown flag --mode"),
            ("topology --topology star", "unknown flag --topology"),
            ("model --nc 4 --nc 8", "flag --nc given twice"),
            ("series --warmup 1", "unknown flag --warmup"),
            ("compare --protocol pbft", "unknown flag --protocol"),
        ] {
            let cmd = line.split(' ').next().unwrap();
            let e = run(&args(line)).expect_err(line);
            assert!(
                e.0.contains(flag) && e.0.contains(&format!("`{cmd}`")),
                "`{line}`: {e}"
            );
        }
    }

    /// Every flag the usage text advertises for a subcommand is one it
    /// declares (the handlers' own reads are checked by `Flags::get`).
    #[test]
    fn usage_advertises_only_declared_flags() {
        let mut current: &[&str] = &[];
        for word in USAGE.split_whitespace() {
            if let Some((_, allowed, _)) = COMMANDS.iter().find(|(name, ..)| *name == word) {
                current = allowed;
            }
            if let Some(flag) = word.strip_prefix("[--") {
                assert!(current.contains(&flag), "usage advertises --{flag}");
            }
        }
    }

    #[test]
    fn num_list_parses_commas() {
        let f = flags("--silent 1,2,3").unwrap();
        assert_eq!(f.num_list::<usize>("silent").unwrap(), vec![1, 2, 3]);
        assert_eq!(
            f.num_list::<usize>("selective").unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn protocol_and_env_names() {
        assert_eq!(parse_protocol("P-PBFT").unwrap(), Protocol::PPbft);
        assert_eq!(parse_protocol("narwhal").unwrap(), Protocol::Narwhal);
        assert!(parse_protocol("raft").is_err());
        assert_eq!(parse_env("LAN").unwrap(), NetEnv::Lan);
        assert!(parse_env("moon").is_err());
    }

    #[test]
    fn topology_strings() {
        assert_eq!(parse_topology("star").unwrap(), Topology::Star);
        assert_eq!(
            parse_topology("multizone:12").unwrap(),
            Topology::MultiZone { zones: 12 }
        );
        assert!(parse_topology("multizone:0").is_err());
        assert!(parse_topology("mesh").is_err());
        assert_eq!(parse_mode("star").unwrap(), DistMode::Star);
        assert!(parse_mode("random").is_err());
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&args("help")).unwrap().contains("USAGE"));
        assert!(run(&args("frobnicate")).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn model_subcommand_is_instant() {
        let out = run(&args("model --nc 4,8")).unwrap();
        assert!(out.contains("Eq.2"));
        // 4 nodes, 100 Mbps, 512 B: ~32.6 ktps.
        assert!(out.contains("32552") || out.contains("3255"));
        assert!(run(&args("model --nc 1")).is_err());
    }

    #[test]
    fn compare_rejects_empty_protocol_list() {
        assert!(run(&args("compare --protocols ,")).is_err());
        assert!(run(&args("compare --protocols raft")).is_err());
    }

    #[test]
    fn throughput_validation() {
        assert!(run(&args("throughput --warmup 20 --secs 10")).is_err());
        assert!(run(&args("throughput --protocol bogus")).is_err());
    }

    /// Out-of-range flags come back as errors naming the setup field, not
    /// as panics from inside the build.
    #[test]
    fn unwirable_flags_are_errors_not_panics() {
        for (line, field) in [
            ("throughput --nc 4 --silent 0,1,2,3", "no honest replica"),
            ("topology --nc 0", "n_c"),
            ("propagation --topology star --nc 0", "n_c"),
            ("throughput --nc 65", "n_c (65) must be at most 64"),
            (
                "topology --mode star --nc 65",
                "n_c (65) must be at most 64",
            ),
            ("topology --mode multizone:12 --nc 65", "n_c (65)"),
            ("propagation --topology multizone:12 --nc 65", "n_c (65)"),
            ("throughput --mbps 0", "mbps"),
        ] {
            let e = run(&args(line)).expect_err(line);
            assert!(e.0.contains(field), "`{line}`: {e}");
        }
    }

    #[test]
    fn tiny_throughput_run_end_to_end() {
        let out = run(&args(
            "throughput --protocol p-pbft --nc 4 --load 1000 --env lan --secs 3 --warmup 1 --seed 5",
        ))
        .unwrap();
        assert!(out.contains("P-PBFT"), "{out}");
        assert!(out.contains("throughput"), "{out}");
    }
}
