//! The scenario plane: a config-driven fault & adversary DSL.
//!
//! A [`ScenarioSetup`] is plain data — a [`World`] to build, a list of
//! [`Injection`]s to apply to the built world before it starts, and a list
//! of [`Check`]s to assert after the run. A plain suite point is the same
//! thing with no injections and no checks ([`ScenarioSetup::plain`]), so
//! every run in the repo goes through [`ScenarioSetup::run_report`].
//! Nothing in a scenario is hand-wired code: the `scenarios` bench suite and the `fig_scenarios` binary drive every scenario from the
//! same serialized structs (see [`ScenarioSetup::to_json`] /
//! [`ScenarioSetup::from_json`]), so adding a scenario is adding data, not
//! adding a runner.
//!
//! # Determinism rules
//!
//! Every injection compiles down to machinery that is already deterministic
//! and thread-count invariant:
//!
//! * crash-shaped injections ([`Injection::Outage`],
//!   [`Injection::ChurnStorm`]) become [`FaultPlan`] crash windows —
//!   time-deterministic, and the parallel engine replays the revive-tick
//!   boundary bit-identically at any `PREDIS_SIM_THREADS`;
//! * link-shaped injections ([`Injection::Partition`]) become `FaultPlan`
//!   link blocks — also time-deterministic;
//! * [`Injection::Jitter`] randomizes propagation via counter-keyed
//!   per-link streams (each draw is a hash of stream seed, link, and the
//!   link's draw index), so jittered runs execute in parallel and still
//!   stay fingerprint-identical at any thread count;
//! * adversary injections ([`Injection::ByzantineRelayers`],
//!   [`Injection::EquivocationStorm`]) and load shaping
//!   ([`Injection::Straggler`], [`Injection::FlashCrowd`]) are pure actor /
//!   topology configuration with no scheduling side channel.
//!
//! Checks are evaluated on the run's deterministic metrics, so a check that
//! passes once passes at every thread count or it is an engine bug.

use predis_multizone::{MultiZoneNode, NetMsg, PropagationSetup, StripeFault, Topology};
use predis_sim::prelude::*;
use predis_sim::{FaultPlan, Metrics};
use predis_telemetry::json::{located, named, record, tagged, variant, Json, Shape};
use predis_telemetry::RunReport;
use serde::{Deserialize, Serialize};

use crate::experiments::megascale::MegaScaleSetup;
use crate::experiments::throughput::{NetEnv, Protocol, ThroughputSetup};
use crate::experiments::world::{Setup, World};

/// The scenario file's shape of a Multi-Zone dissemination world: a LAN
/// [`PropagationSetup`] with scattered zones under
/// [`Topology::MultiZone`], which is what [`ZoneWorld::world`] compiles it
/// to. Sources announce every block, so full nodes can detect overdue
/// blocks and re-fetch — the recovery paths the Byzantine and churn
/// scenarios exercise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneWorld {
    /// Consensus committee size (= stripe sources).
    pub n_c: usize,
    /// Number of zones; full nodes are assigned round-robin.
    pub zones: usize,
    /// Number of full nodes (ids `n_c..n_c + full_nodes`).
    pub full_nodes: usize,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Blocks to produce.
    pub blocks: u64,
    /// Block interval, milliseconds.
    pub interval_ms: u64,
    /// Upload bandwidth per node, Mbps.
    pub mbps: u64,
    /// Per-node subscriber cap.
    pub max_children: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ZoneWorld {
    fn default() -> Self {
        ZoneWorld {
            n_c: 4,
            zones: 3,
            full_nodes: 30,
            block_bytes: 1_000_000,
            blocks: 4,
            interval_ms: 2_000,
            mbps: 100,
            max_children: 24,
            seed: 13,
        }
    }
}

impl ZoneWorld {
    /// The [`World::Net`] this shape describes.
    pub fn world(&self) -> World {
        World::Net(
            PropagationSetup {
                n_c: self.n_c,
                full_nodes: self.full_nodes,
                block_bytes: self.block_bytes,
                interval: SimDuration::from_millis(self.interval_ms),
                blocks: self.blocks,
                mbps: self.mbps,
                latency: LatencyModel::lan(),
                max_children: self.max_children,
                locality_zones: false,
                seed: self.seed,
            },
            Topology::MultiZone { zones: self.zones },
        )
    }
}

/// One fault or adversary to compile onto the world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Injection {
    /// Crash `nodes` during `[from_ms, until_ms)`; they revive with state
    /// intact and re-run `on_start` (rejoin). Compiles to
    /// [`FaultPlan::crash_for`].
    Outage {
        /// Node ids to crash (world-specific id layout, see [`World`]).
        nodes: Vec<u32>,
        /// Crash time, ms.
        from_ms: u64,
        /// Revive time, ms (exclusive — the revive tick is up).
        until_ms: u64,
    },
    /// Repeated crash/rejoin cycles: each node crashes at
    /// `first_ms + k * (down_ms + up_ms)` for `down_ms`, `cycles` times.
    /// Compiles to multi-window [`FaultPlan`] churn.
    ChurnStorm {
        /// Node ids that churn.
        nodes: Vec<u32>,
        /// First crash time, ms.
        first_ms: u64,
        /// Downtime per cycle, ms.
        down_ms: u64,
        /// Uptime between cycles, ms.
        up_ms: u64,
        /// Number of crash/rejoin cycles.
        cycles: u32,
    },
    /// Symmetric partition between node sets `a` and `b` during
    /// `[from_ms, until_ms)`. Compiles to [`FaultPlan::partition`].
    Partition {
        /// One side of the cut.
        a: Vec<u32>,
        /// The other side.
        b: Vec<u32>,
        /// Partition start, ms.
        from_ms: u64,
        /// Partition end, ms (exclusive).
        until_ms: u64,
    },
    /// Uniform random propagation jitter up to `max_ms` on every link (a
    /// WAN weather model). Draws come from counter-keyed per-link streams,
    /// so the run parallelizes and stays thread-count invariant anyway.
    Jitter {
        /// Jitter bound, ms.
        max_ms: u64,
    },
    /// Throttle one node's uplink to `mbps` (slow leader / straggler). In
    /// a [`World::Consensus`] the node must be a replica, whose bundle
    /// production is paced by the same uplink.
    Straggler {
        /// The throttled node.
        node: u32,
        /// Its uplink bandwidth, Mbps.
        mbps: u64,
    },
    /// The first `count` full nodes become Byzantine relayers with the
    /// given stripe fault (withhold or corrupt). Multi-Zone [`World::Net`]
    /// only.
    ByzantineRelayers {
        /// How many full nodes turn Byzantine.
        count: u32,
        /// What they do to the stripes they relay.
        fault: StripeFault,
    },
    /// Committee members `producers` run the §III-E forking attacker
    /// (two conflicting bundles per height). [`World::Consensus`] only.
    EquivocationStorm {
        /// Equivocating committee indices.
        producers: Vec<u32>,
    },
    /// The per-zone client swarms ramp to `peak_mult` times their base
    /// rate starting at `at_secs`. [`World::MegaScale`] only.
    FlashCrowd {
        /// Ramp start, simulated seconds.
        at_secs: u64,
        /// Ramp length, seconds.
        ramp_secs: u64,
        /// Peak rate multiplier.
        peak_mult: f64,
    },
}

/// A liveness or safety assertion evaluated after the run. A failing check
/// panics with the scenario name, so a scenario sweep fails loudly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Check {
    /// `throughput_tps` over the stable window must reach `tps`.
    MinThroughputTps {
        /// Minimum sustained throughput, tx/s.
        tps: f64,
    },
    /// Commit progress must resume after a disruption: throughput over
    /// `[after_ms, horizon)` must reach `min_tps`.
    ThroughputResumesAfter {
        /// Window start, ms (set to the disruption's end).
        after_ms: u64,
        /// Minimum throughput over the window, tx/s.
        min_tps: f64,
    },
    /// Total committed transactions over the whole run must reach `txs`.
    MinCommittedTxs {
        /// Minimum committed transactions.
        txs: u64,
    },
    /// At least `blocks` blocks must have propagated to 100% of full
    /// nodes (Zone world).
    MinCompleteBlocks {
        /// Minimum fully propagated blocks.
        blocks: u64,
    },
    /// A counter total must reach `min` (e.g. `zone.stripes_rejected`).
    CounterAtLeast {
        /// Counter name.
        counter: String,
        /// Minimum total.
        min: u64,
    },
    /// A counter total must be exactly zero (e.g. no rejected stripes in
    /// an honest run).
    CounterZero {
        /// Counter name.
        counter: String,
    },
    /// The ban list must have engaged: `ban.hits >= 1` (an equivocator
    /// was detected, proven, and banned).
    BanListEngaged,
}

/// One scenario: a world, the injections to compile onto it, and the
/// checks that must hold afterwards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSetup {
    /// Short scenario name, stamped as the `scenario` report meta (empty
    /// for a plain world, which stamps no `scenario.*` keys).
    pub name: String,
    /// The world to build.
    pub world: World,
    /// Faults and adversaries to inject.
    pub injections: Vec<Injection>,
    /// Assertions evaluated after the run.
    pub checks: Vec<Check>,
}

impl ScenarioSetup {
    /// `world` as it is: no name, no injections, no checks — what a plain
    /// suite point runs.
    pub fn plain(world: World) -> ScenarioSetup {
        ScenarioSetup {
            name: String::new(),
            world,
            injections: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Serializes the scenario to deterministic pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics on a world the file format has no shape for: it encodes
    /// `consensus`, `zone` ([`ZoneWorld`]) and `megascale` worlds.
    pub fn to_json(&self) -> String {
        Shape::to_json(self).to_pretty_string()
    }

    /// Parses a scenario written by [`ScenarioSetup::to_json`] (or by
    /// hand — the encoding is the DSL's config-file format) and
    /// [`ScenarioSetup::validate`]s it.
    pub fn from_json(text: &str) -> Result<ScenarioSetup, String> {
        let scenario: ScenarioSetup = Shape::from_json(&Json::parse(text)?)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Checks the world's parameters, that the world supports every
    /// injection, and that a straggler is a node the world has.
    /// [`ScenarioSetup::from_json`] calls this, so a parsed scenario cannot
    /// fail while it is being wired.
    pub fn validate(&self) -> Result<(), String> {
        let at = |what: String| format!("scenario `{}`: {what}", self.name);
        self.world
            .validate()
            .map_err(|e| at(format!("world: {e}")))?;
        for (i, inj) in self.injections.iter().enumerate() {
            let supported = match inj {
                Injection::EquivocationStorm { .. } => matches!(self.world, World::Consensus(_)),
                Injection::FlashCrowd { .. } => matches!(self.world, World::MegaScale(_)),
                Injection::ByzantineRelayers { .. } => {
                    matches!(self.world, World::Net(_, Topology::MultiZone { .. }))
                }
                _ => true,
            };
            if !supported {
                return Err(at(format!(
                    "injections[{i}]: {inj:?} is not supported by this world"
                )));
            }
            if let Injection::Straggler { node, mbps } = inj {
                // A consensus straggler is a replica: its production pacing
                // follows its uplink (see `lowered_world`).
                let nodes = match &self.world {
                    World::Consensus(s) => s.n_c,
                    other => other.node_count(),
                };
                if *node as usize >= nodes {
                    return Err(at(format!(
                        "injections[{i}].node: {node} is outside the {nodes} nodes"
                    )));
                }
                if *mbps == 0 {
                    return Err(at(format!("injections[{i}].mbps: must be positive")));
                }
            }
        }
        Ok(())
    }

    /// Builds the world, applies every injection, runs to the world's
    /// horizon, evaluates every check, and snapshots a [`RunReport`] named
    /// `run_name`. The `scenario` meta and the `scenario.checks_passed`
    /// metric (how many checks held) are stamped when the scenario has a
    /// name. A failed check is a result, not a panic: the report then also
    /// carries a `scenario.check_failures` meta, one
    /// `check → got … / want …` line per failure (see [`check_failures`]).
    ///
    /// # Panics
    ///
    /// Panics on a hand-built scenario that [`ScenarioSetup::validate`]
    /// would have rejected.
    pub fn run_report(&self, run_name: &str) -> RunReport {
        let mut report = match &self.lowered_world() {
            World::Consensus(s) => self.drive(s, run_name),
            World::Flow(s) => self.drive(s, run_name),
            World::Net(s, topology) => self.drive(&(s, topology), run_name),
            World::MegaScale(s) => self.drive(s, run_name),
        };
        if !self.name.is_empty() {
            report.set_meta("scenario", &self.name);
            let passed = self.checks.len() - check_failures(&report).len();
            report.set_metric("scenario.checks_passed", passed as f64);
        }
        report
    }

    /// The one build → inject → run → report → check path.
    fn drive<S: Setup>(&self, setup: &S, run_name: &str) -> RunReport {
        let mut sim = setup.build();
        self.inject(&mut sim);
        sim.run_named(run_name, setup.horizon());
        let mut report = setup.report(&setup.result(&sim), &sim, run_name);
        let failures = self.eval_checks(sim.metrics(), &report, setup.horizon());
        if !failures.is_empty() {
            report.set_meta(CHECK_FAILURES_META, failures.join("\n"));
        }
        report
    }

    /// The world with the injections its setup has a field for folded in:
    /// a consensus straggler also paces its bundle production by its uplink
    /// (Eq. 1's `x_i`), equivocators are replicas of another kind, and the
    /// flash crowd is the swarms' own ramp.
    fn lowered_world(&self) -> World {
        let mut world = self.world.clone();
        for inj in &self.injections {
            match (&mut world, inj) {
                (World::Consensus(s), Injection::Straggler { node, mbps }) => {
                    if s.per_node_mbps.is_empty() {
                        s.per_node_mbps = vec![s.mbps; s.n_c];
                    }
                    s.per_node_mbps[*node as usize] = *mbps;
                }
                (World::Consensus(s), Injection::EquivocationStorm { producers }) => {
                    s.faults
                        .equivocators
                        .extend(producers.iter().map(|&p| p as usize));
                }
                (
                    World::MegaScale(s),
                    Injection::FlashCrowd {
                        at_secs,
                        ramp_secs,
                        peak_mult,
                    },
                ) => {
                    s.crowd_at_secs = *at_secs;
                    s.crowd_ramp_secs = *ramp_secs;
                    s.crowd_peak_mult = *peak_mult;
                }
                _ => {}
            }
        }
        world
    }

    /// Applies the engine-level injections to the built world: crash and
    /// link windows as a [`FaultPlan`], jitter and straggler uplinks on the
    /// network, Byzantine relayers on the first `count` full nodes
    /// (round-robin membership spreads them across zones).
    fn inject<M: Payload>(&self, sim: &mut Sim<M>) {
        let mut plan = FaultPlan::none();
        for inj in &self.injections {
            match inj {
                Injection::Outage {
                    nodes,
                    from_ms,
                    until_ms,
                } => {
                    for &n in nodes {
                        plan.crash_for(
                            NodeId(n),
                            SimTime::from_millis(*from_ms),
                            SimTime::from_millis(*until_ms),
                        );
                    }
                }
                Injection::ChurnStorm {
                    nodes,
                    first_ms,
                    down_ms,
                    up_ms,
                    cycles,
                } => {
                    for &n in nodes {
                        for k in 0..*cycles as u64 {
                            let at = first_ms + k * (down_ms + up_ms);
                            plan.crash_for(
                                NodeId(n),
                                SimTime::from_millis(at),
                                SimTime::from_millis(at + down_ms),
                            );
                        }
                    }
                }
                Injection::Partition {
                    a,
                    b,
                    from_ms,
                    until_ms,
                } => {
                    let a: Vec<NodeId> = a.iter().map(|&n| NodeId(n)).collect();
                    let b: Vec<NodeId> = b.iter().map(|&n| NodeId(n)).collect();
                    plan.partition(
                        &a,
                        &b,
                        SimTime::from_millis(*from_ms),
                        SimTime::from_millis(*until_ms),
                    );
                }
                Injection::Jitter { max_ms } => sim
                    .network_mut()
                    .set_jitter(SimDuration::from_millis(*max_ms)),
                Injection::Straggler { node, mbps } => {
                    sim.network_mut().set_upload_mbps(NodeId(*node), *mbps)
                }
                Injection::ByzantineRelayers { count, fault } => {
                    let mut left = *count;
                    for id in 0..sim.node_count() as u32 {
                        if left == 0 {
                            break;
                        }
                        if let Some(full) =
                            sim.actor_as_mut::<ActorOf<MultiZoneNode, NetMsg>>(NodeId(id))
                        {
                            full.core_mut().set_stripe_fault(*fault);
                            left -= 1;
                        }
                    }
                }
                // Folded into the setup by `lowered_world`.
                Injection::EquivocationStorm { .. } | Injection::FlashCrowd { .. } => {}
            }
        }
        sim.set_faults(plan);
    }

    /// Evaluates every check; one `check → got … / want …` line per failure.
    fn eval_checks(&self, metrics: &Metrics, report: &RunReport, horizon: SimTime) -> Vec<String> {
        let mut failures = Vec::new();
        for check in &self.checks {
            let mut fail = |got: String, want: String| {
                failures.push(format!("{check:?} → got {got} / want {want}"));
            };
            match check {
                Check::MinThroughputTps { tps } => {
                    let got = report.metric("throughput_tps").unwrap_or(0.0);
                    if got < *tps {
                        fail(format!("{got:.0} tx/s"), format!(">= {tps:.0} tx/s"));
                    }
                }
                Check::ThroughputResumesAfter { after_ms, min_tps } => {
                    let got = metrics.throughput_tps(SimTime::from_millis(*after_ms), horizon);
                    if got < *min_tps {
                        fail(
                            format!("{got:.0} tx/s after {after_ms} ms"),
                            format!(">= {min_tps:.0} tx/s"),
                        );
                    }
                }
                Check::MinCommittedTxs { txs } => {
                    let got = metrics.committed_txs_in(SimTime::ZERO, horizon);
                    if got < *txs {
                        fail(format!("{got} txs"), format!(">= {txs} txs"));
                    }
                }
                Check::MinCompleteBlocks { blocks } => {
                    let got = report.metric("complete_blocks").unwrap_or(0.0) as u64;
                    if got < *blocks {
                        fail(format!("{got} blocks"), format!(">= {blocks} blocks"));
                    }
                }
                Check::CounterAtLeast { counter, min } => {
                    let got = report.counter_total(counter);
                    if got < *min {
                        fail(format!("{counter} = {got}"), format!(">= {min}"));
                    }
                }
                Check::CounterZero { counter } => {
                    let got = report.counter_total(counter);
                    if got != 0 {
                        fail(format!("{counter} = {got}"), "0".into());
                    }
                }
                Check::BanListEngaged => {
                    let got = report.counter_total("ban.hits");
                    if got == 0 {
                        fail("ban.hits = 0".into(), ">= 1".into());
                    }
                }
            }
        }
        failures
    }
}

/// The meta key a report carries only when a scenario check failed.
const CHECK_FAILURES_META: &str = "scenario.check_failures";

/// The failed checks of a scenario run, one `check → got … / want …` line
/// each; empty when every check held (or the run had none).
pub fn check_failures(report: &RunReport) -> Vec<&str> {
    report
        .meta
        .get(CHECK_FAILURES_META)
        .map(|lines| lines.lines().collect())
        .unwrap_or_default()
}

// The scenario file format: each record lists its fields once, and the one
// codec (`predis_telemetry::json`) generates the encoder and the decoder from
// that list. `StripeFault`'s shape sits beside `StripeFault`.

named!(NetEnv { Lan => "lan", Wan => "wan" });
named!(Protocol {
    Pbft => "PBFT",
    PPbft => "P-PBFT",
    HotStuff => "HotStuff",
    PHs => "P-HS",
    Narwhal => "Narwhal",
    Stratus => "Stratus"
});

// Fields a setup has but the file does not list (`ThroughputSetup`'s
// `faults` and `per_node_mbps`, `MegaScaleSetup`'s flash crowd) are set by
// injections; in a file they are unknown members.
record!(ThroughputSetup {
    protocol,
    n_c,
    clients,
    offered_tps,
    tx_size,
    bundle_size,
    batch_size,
    env,
    jitter_ms,
    mbps,
    duration_secs,
    warmup_secs,
    seed,
    pipeline,
    ..Default::default()
});
record!(ZoneWorld {
    n_c,
    zones,
    full_nodes,
    block_bytes,
    blocks,
    interval_ms,
    mbps,
    max_children,
    seed
});
record!(MegaScaleSetup {
    n_c,
    zones,
    zone_size,
    users_per_zone,
    per_user_tps,
    poisson,
    tx_size,
    bundle_txs,
    mbps,
    duration_secs,
    warmup_secs,
    seed,
    ..Default::default()
});
record!(ScenarioSetup {
    name,
    world,
    injections,
    checks
});

tagged!(Injection {
    "outage" => Outage { nodes, from_ms, until_ms },
    "churn_storm" => ChurnStorm { nodes, first_ms, down_ms, up_ms, cycles },
    "partition" => Partition { a, b, from_ms, until_ms },
    "jitter" => Jitter { max_ms },
    "straggler" => Straggler { node, mbps },
    "byzantine_relayers" => ByzantineRelayers { count, fault },
    "equivocation_storm" => EquivocationStorm { producers },
    "flash_crowd" => FlashCrowd { at_secs, ramp_secs, peak_mult },
});

tagged!(Check {
    "min_throughput_tps" => MinThroughputTps { tps },
    "throughput_resumes_after" => ThroughputResumesAfter { after_ms, min_tps },
    "min_committed_txs" => MinCommittedTxs { txs },
    "min_complete_blocks" => MinCompleteBlocks { blocks },
    "counter_at_least" => CounterAtLeast { counter, min },
    "counter_zero" => CounterZero { counter },
    "ban_list_engaged" => BanListEngaged {},
});

impl Shape for World {
    /// Panics on a world the file format has no shape for.
    fn to_json(&self) -> Json {
        let (tag, body) = match self {
            World::Consensus(s) => ("consensus", s.to_json()),
            World::Net(p, Topology::MultiZone { zones }) => {
                let shape = ZoneWorld {
                    n_c: p.n_c,
                    zones: *zones,
                    full_nodes: p.full_nodes,
                    block_bytes: p.block_bytes,
                    blocks: p.blocks,
                    interval_ms: p.interval.as_millis(),
                    mbps: p.mbps,
                    max_children: p.max_children,
                    seed: p.seed,
                };
                ("zone", shape.to_json())
            }
            World::MegaScale(s) => ("megascale", s.to_json()),
            other => panic!("{other:?} has no scenario-file shape"),
        };
        Json::Obj(vec![(tag.into(), body)])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let (tag, body) = variant(v)?;
        located(tag, || match tag {
            "consensus" => Shape::from_json(body).map(World::Consensus),
            "zone" => ZoneWorld::from_json(body).map(|w| w.world()),
            "megascale" => Shape::from_json(body).map(World::MegaScale),
            _ => Err("not one of `consensus`, `zone`, `megascale`".into()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::throughput::{NetEnv, Protocol};

    fn every_variant_scenario() -> ScenarioSetup {
        ScenarioSetup {
            name: "kitchen_sink".into(),
            world: World::Consensus(ThroughputSetup {
                protocol: Protocol::PPbft,
                n_c: 4,
                env: NetEnv::Lan,
                offered_tps: 1_234.5,
                ..Default::default()
            }),
            injections: vec![
                Injection::Outage {
                    nodes: vec![3],
                    from_ms: 2_000,
                    until_ms: 4_000,
                },
                Injection::ChurnStorm {
                    nodes: vec![5, 6],
                    first_ms: 1_000,
                    down_ms: 500,
                    up_ms: 1_500,
                    cycles: 3,
                },
                Injection::Partition {
                    a: vec![0],
                    b: vec![1, 2],
                    from_ms: 100,
                    until_ms: 200,
                },
                Injection::Jitter { max_ms: 10 },
                Injection::Straggler { node: 0, mbps: 25 },
                Injection::EquivocationStorm { producers: vec![3] },
            ],
            checks: vec![
                Check::MinThroughputTps { tps: 100.0 },
                Check::ThroughputResumesAfter {
                    after_ms: 4_000,
                    min_tps: 50.0,
                },
                Check::MinCommittedTxs { txs: 10 },
                Check::MinCompleteBlocks { blocks: 2 },
                Check::CounterAtLeast {
                    counter: "zone.stripes_rejected".into(),
                    min: 1,
                },
                Check::CounterZero {
                    counter: "zone.stripes_rejected".into(),
                },
                Check::BanListEngaged,
            ],
        }
    }

    #[test]
    fn json_round_trip_covers_every_check_and_consensus_injection() {
        let scenario = every_variant_scenario();
        let text = scenario.to_json();
        let back = ScenarioSetup::from_json(&text).expect("parse");
        assert_eq!(back, scenario);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn zone_and_megascale_worlds_round_trip() {
        for (world, injection) in [
            (
                ZoneWorld::default().world(),
                Injection::ByzantineRelayers {
                    count: 2,
                    fault: StripeFault::Corrupt,
                },
            ),
            (
                World::MegaScale(MegaScaleSetup {
                    zones: 3,
                    zone_size: 10,
                    ..Default::default()
                }),
                Injection::FlashCrowd {
                    at_secs: 4,
                    ramp_secs: 2,
                    peak_mult: 2.5,
                },
            ),
        ] {
            let scenario = ScenarioSetup {
                name: "w".into(),
                world,
                injections: vec![injection],
                checks: vec![],
            };
            let back = ScenarioSetup::from_json(&scenario.to_json()).expect("parse");
            assert_eq!(back, scenario);
        }
    }

    fn tiny_consensus(duration_secs: u64) -> ThroughputSetup {
        ThroughputSetup {
            protocol: Protocol::PPbft,
            n_c: 4,
            clients: 4,
            offered_tps: 1_000.0,
            env: NetEnv::Lan,
            duration_secs,
            warmup_secs: 1,
            seed: 77,
            ..Default::default()
        }
    }

    #[test]
    fn outage_scenario_commits_resume_after_revival() {
        let report = ScenarioSetup {
            name: "unit_outage".into(),
            world: World::Consensus(tiny_consensus(6)),
            injections: vec![Injection::Outage {
                nodes: vec![3],
                from_ms: 2_000,
                until_ms: 4_000,
            }],
            checks: vec![
                Check::ThroughputResumesAfter {
                    after_ms: 4_000,
                    min_tps: 100.0,
                },
                Check::MinCommittedTxs { txs: 500 },
            ],
        }
        .run_report("scenario_unit_outage");
        assert_eq!(report.meta.get("scenario").unwrap(), "unit_outage");
        assert_eq!(report.metric("scenario.checks_passed"), Some(2.0));
    }

    #[test]
    fn failing_check_is_reported_not_panicked() {
        let report = ScenarioSetup {
            name: "unit_fails".into(),
            world: World::Consensus(tiny_consensus(2)),
            injections: vec![],
            checks: vec![
                Check::MinThroughputTps { tps: 1e9 },
                Check::CounterZero {
                    counter: "ban.hits".into(),
                },
            ],
        }
        .run_report("scenario_unit_fails");
        assert_eq!(report.metric("scenario.checks_passed"), Some(1.0));
        let failures = check_failures(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("MinThroughputTps")
                && failures[0].contains("want >= 1000000000"),
            "{failures:?}"
        );
    }

    /// Each defect a scenario file can carry is rejected when parsed, with
    /// an error naming the scenario and the offending injection or field.
    #[test]
    fn from_json_rejects_what_the_world_cannot_run() {
        let scenario = |world: World, injections: Vec<Injection>| ScenarioSetup {
            name: "unit_bad".into(),
            world,
            injections,
            checks: vec![],
        };
        let cases = [
            (
                scenario(
                    World::Consensus(tiny_consensus(2)),
                    vec![
                        Injection::Jitter { max_ms: 1 },
                        Injection::ByzantineRelayers {
                            count: 1,
                            fault: StripeFault::Withhold,
                        },
                    ],
                ),
                "injections[1]: ByzantineRelayers",
            ),
            (
                scenario(
                    ZoneWorld {
                        zones: 0,
                        ..Default::default()
                    }
                    .world(),
                    vec![],
                ),
                "world: zones must be at least 1",
            ),
            (
                scenario(
                    ZoneWorld {
                        n_c: 0,
                        ..Default::default()
                    }
                    .world(),
                    vec![],
                ),
                "world: n_c must be at least 1",
            ),
            (
                scenario(
                    ZoneWorld {
                        n_c: 65,
                        ..Default::default()
                    }
                    .world(),
                    vec![],
                ),
                "world: n_c (65) must be at most 64",
            ),
            (
                scenario(
                    World::Consensus(ThroughputSetup {
                        n_c: 65,
                        ..tiny_consensus(2)
                    }),
                    vec![],
                ),
                "world: n_c (65) must be at most 64",
            ),
            (
                scenario(
                    World::MegaScale(MegaScaleSetup {
                        n_c: 65,
                        ..Default::default()
                    }),
                    vec![],
                ),
                "world: n_c (65) must be at most 64",
            ),
            (
                scenario(
                    World::Consensus(tiny_consensus(2)),
                    vec![Injection::Straggler { node: 4, mbps: 10 }],
                ),
                "injections[0].node: 4 is outside the 4 nodes",
            ),
        ];
        for (bad, want) in cases {
            let err = ScenarioSetup::from_json(&bad.to_json()).expect_err(want);
            assert!(err.starts_with("scenario `unit_bad`: "), "{err}");
            assert!(err.contains(want), "{err}");
        }
    }

    /// The file of a scenario over `world` with `extra` spliced in after the
    /// world's `n_c`, parsed.
    fn parse_with(world: World, extra: &str) -> Result<ScenarioSetup, String> {
        let text = ScenarioSetup::plain(world).to_json();
        let spliced = text.replacen("\"n_c\": 4,", &format!("\"n_c\": 4, {extra},"), 1);
        assert_ne!(spliced, text, "the world has no `n_c` of 4");
        ScenarioSetup::from_json(&spliced)
    }

    #[test]
    fn a_consensus_world_with_faults_is_rejected_not_run_without_them() {
        let err = parse_with(
            World::Consensus(tiny_consensus(2)),
            r#""faults": {"silent": [1]}"#,
        );
        assert_eq!(
            err.unwrap_err(),
            "`world.consensus.faults`: not a member of ThroughputSetup"
        );
    }

    #[test]
    fn a_consensus_world_with_per_node_mbps_is_rejected_not_run_unpaced() {
        let err = parse_with(
            World::Consensus(tiny_consensus(2)),
            r#""per_node_mbps": [10]"#,
        );
        assert_eq!(
            err.unwrap_err(),
            "`world.consensus.per_node_mbps`: not a member of ThroughputSetup"
        );
    }

    #[test]
    fn a_megascale_world_with_a_crowd_is_rejected_not_run_without_one() {
        let err = parse_with(
            World::MegaScale(MegaScaleSetup::default()),
            r#""crowd_peak_mult": 2.0"#,
        );
        assert_eq!(
            err.unwrap_err(),
            "`world.megascale.crowd_peak_mult`: not a member of MegaScaleSetup"
        );
    }

    #[test]
    fn a_member_given_twice_is_rejected_not_read_first_wins() {
        let err = parse_with(World::Consensus(tiny_consensus(2)), r#""n_c": 7"#);
        assert_eq!(err.unwrap_err(), "`world.consensus.n_c`: given twice");
    }

    #[test]
    fn equivocation_scenario_engages_the_ban_list() {
        let report = ScenarioSetup {
            name: "unit_equiv".into(),
            world: World::Consensus(tiny_consensus(4)),
            injections: vec![Injection::EquivocationStorm { producers: vec![3] }],
            checks: vec![Check::BanListEngaged, Check::MinCommittedTxs { txs: 100 }],
        }
        .run_report("scenario_unit_equiv");
        assert!(report.counter_total("ban.hits") >= 1);
    }
}
