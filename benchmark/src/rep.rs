//! One rep, run in a child process of its own: build the world, run it to
//! the horizon in timed slices, collect the run's counters, then time a
//! batch of further world builds. The child prints one JSON document; the
//! parent parses it back into a [`Rep`].

use std::collections::BTreeMap;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use predis::experiments::{MegaScaleResult, TopologyResult};
use predis_consensus::{ClientCore, ClientSwarm, ConsMsg, CLIENT_LATENCY};
use predis_sim::prelude::*;
use predis_sim::CommitEvent;
use predis_telemetry::{Json, RunReport};

use crate::alloc;
use crate::floor::bucket_quantile;
use crate::workloads::{Spec, Workload, SLICES};

/// Set-up batches a rep times after its run.
const SETUP_BATCHES: usize = 2;

/// How a rep runs its world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// 100 timed slices, one thread, nothing observed: the measured reps.
    Plain,
    /// One `run_until` to the horizon: shows slicing changes no outcome.
    OneShot,
    /// As `Plain` with the dispatch profiler on.
    Traced,
    /// As `Plain` on the two-thread windowed engine.
    Mt2,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Plain, Mode::OneShot, Mode::Traced, Mode::Mt2];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::OneShot => "oneshot",
            Mode::Traced => "traced",
            Mode::Mt2 => "mt2",
        }
    }

    pub fn by_name(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// What the parent asks of a child.
#[derive(Debug, Clone, Copy)]
pub struct RepRequest {
    pub workload: Workload,
    pub seed: u64,
    pub mode: Mode,
    /// Multiplier on the offered rate (1 except under `--sweep-rate`).
    pub rate_mult: f64,
    /// Horizon and warm-up divided by ten (`--smoke`).
    pub smoke: bool,
}

impl RepRequest {
    pub fn horizon_ms(&self) -> u64 {
        self.workload.spec().horizon_ms / if self.smoke { 10 } else { 1 }
    }

    pub fn warmup_ms(&self) -> u64 {
        self.workload.spec().warmup_ms / if self.smoke { 10 } else { 1 }
    }
}

/// One dispatch-profiler cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileCell {
    pub actor: String,
    pub event: String,
    pub count: u64,
    pub ns: u64,
}

/// Everything a child reports. Times are nanosecond offsets from the
/// child's start, which `epoch_ns` places on the wall clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rep {
    pub mode: String,
    pub fingerprint: String,
    pub epoch_ns: u64,
    /// `[start, end]` of the world build.
    pub build: [u64; 2],
    /// `[start, end]` of every `run_until` slice.
    pub slices: Vec<[u64; 2]>,
    /// `[start, end]` of snapshotting the run into a `RunReport`.
    pub report: [u64; 2],
    /// `[start, end]` of `RunReport::to_json`.
    pub to_json: [u64; 2],
    /// Wall of each fixed-count batch of further world builds.
    pub setup_batches_ns: Vec<u64>,
    /// Peak resident set of the child up to the end of the run, KiB.
    pub vm_hwm_kb: u64,
    /// Peak of the summed actor footprint, sampled at every slice edge (so
    /// a one-shot rep, with one edge, sees less of it).
    pub peak_actor_bytes: u64,
    /// Allocations inside the timed slices.
    pub allocs: u64,
    /// Transactions submitted up to one latency limit before the horizon
    /// (sliced reps only): the cohort every one of which must be confirmed.
    pub cohort_submitted: Option<u64>,
    /// Transactions submitted up to the end of the warm-up (sliced reps
    /// only); the rest were offered inside the stable window.
    pub warmup_submitted: Option<u64>,
    /// Facts that depend on the program and its input alone; they must be
    /// bit-equal in every rep of a run.
    pub exact: BTreeMap<String, f64>,
    pub profile: Vec<ProfileCell>,
    /// Two-thread engine: barrier windows, events per partition.
    pub windows: u64,
    pub partition_events: Vec<u64>,
}

impl Rep {
    /// Wall of each slice.
    pub fn slice_walls(&self) -> Vec<u64> {
        self.slices.iter().map(|s| s[1] - s[0]).collect()
    }

    /// Wall of all slices.
    pub fn run_wall_ns(&self) -> u64 {
        self.slice_walls().iter().sum()
    }

    pub fn fact(&self, name: &str) -> f64 {
        self.exact.get(name).copied().unwrap_or(0.0)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.fact(&format!("counter.{name}"))
    }

    /// Share of the transactions offered inside a stable window of
    /// `window_s` seconds that committed there; 0 for a one-shot rep, which
    /// did not stop at the window's start to count.
    pub fn commit_share(&self, window_s: f64) -> f64 {
        let Some(before) = self.warmup_submitted else {
            return 0.0;
        };
        let offered = self.fact("submitted") - before as f64;
        if offered > 0.0 {
            self.fact("tps") * window_s / offered
        } else {
            0.0
        }
    }

    pub fn to_json(&self) -> Json {
        let pair = |p: &[u64; 2]| Json::Arr(vec![Json::U64(p[0]), Json::U64(p[1])]);
        let list = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::U64(x)).collect());
        Json::Obj(vec![
            ("mode".into(), Json::Str(self.mode.clone())),
            ("fingerprint".into(), Json::Str(self.fingerprint.clone())),
            ("epoch_ns".into(), Json::U64(self.epoch_ns)),
            ("build".into(), pair(&self.build)),
            (
                "slices".into(),
                Json::Arr(self.slices.iter().map(pair).collect()),
            ),
            ("report".into(), pair(&self.report)),
            ("to_json".into(), pair(&self.to_json)),
            ("setup_batches_ns".into(), list(&self.setup_batches_ns)),
            ("vm_hwm_kb".into(), Json::U64(self.vm_hwm_kb)),
            ("peak_actor_bytes".into(), Json::U64(self.peak_actor_bytes)),
            ("allocs".into(), Json::U64(self.allocs)),
            (
                "cohort_submitted".into(),
                self.cohort_submitted.map_or(Json::Null, Json::U64),
            ),
            (
                "warmup_submitted".into(),
                self.warmup_submitted.map_or(Json::Null, Json::U64),
            ),
            (
                "exact".into(),
                Json::Obj(
                    self.exact
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "profile".into(),
                Json::Arr(
                    self.profile
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("actor".into(), Json::Str(c.actor.clone())),
                                ("event".into(), Json::Str(c.event.clone())),
                                ("count".into(), Json::U64(c.count)),
                                ("ns".into(), Json::U64(c.ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("windows".into(), Json::U64(self.windows)),
            ("partition_events".into(), list(&self.partition_events)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Rep, String> {
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("child output lacks `{k}`"))
        };
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not a whole number"))
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{k}` is not a string"))
        };
        let list = |j: &Json, k: &str| -> Result<Vec<u64>, String> {
            j.as_arr()
                .ok_or_else(|| format!("`{k}` is not an array"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("`{k}` holds a non-number"))
                })
                .collect()
        };
        let pair = |j: &Json, k: &str| -> Result<[u64; 2], String> {
            match list(j, k)?.as_slice() {
                [a, b] if a <= b => Ok([*a, *b]),
                _ => Err(format!("`{k}` is not a [start, end] pair")),
            }
        };
        let Json::Obj(exact) = field("exact")? else {
            return Err("`exact` is not an object".into());
        };
        let mut profile = Vec::new();
        for cell in field("profile")?
            .as_arr()
            .ok_or("`profile` is not an array")?
        {
            let get = |k: &str| {
                cell.get(k)
                    .ok_or_else(|| format!("profile cell lacks `{k}`"))
            };
            profile.push(ProfileCell {
                actor: get("actor")?.as_str().ok_or("bad actor")?.to_string(),
                event: get("event")?.as_str().ok_or("bad event")?.to_string(),
                count: get("count")?.as_u64().ok_or("bad count")?,
                ns: get("ns")?.as_u64().ok_or("bad ns")?,
            });
        }
        Ok(Rep {
            mode: text("mode")?,
            fingerprint: text("fingerprint")?,
            epoch_ns: num("epoch_ns")?,
            build: pair(field("build")?, "build")?,
            slices: field("slices")?
                .as_arr()
                .ok_or("`slices` is not an array")?
                .iter()
                .map(|s| pair(s, "slices"))
                .collect::<Result<_, _>>()?,
            report: pair(field("report")?, "report")?,
            to_json: pair(field("to_json")?, "to_json")?,
            setup_batches_ns: list(field("setup_batches_ns")?, "setup_batches_ns")?,
            vm_hwm_kb: num("vm_hwm_kb")?,
            peak_actor_bytes: num("peak_actor_bytes")?,
            allocs: num("allocs")?,
            cohort_submitted: field("cohort_submitted")?.as_u64(),
            warmup_submitted: field("warmup_submitted")?.as_u64(),
            exact: exact
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("fact `{k}` is not a number"))
                })
                .collect::<Result<_, _>>()?,
            profile,
            windows: num("windows")?,
            partition_events: list(field("partition_events")?, "partition_events")?,
        })
    }
}

/// Runs one rep in this process.
pub fn run(req: &RepRequest) -> Result<Rep, String> {
    let w = req.workload;
    let spec = w.spec();
    let rate = w.offered_tps(req.seed, req.rate_mult);
    match w {
        Workload::PbftBatch | Workload::PbftPredis => {
            let setup = w.throughput_setup(rate);
            measure(req, &spec, &|| setup.build_sim_named(""), &|sim, _, _| {
                setup.report(sim, spec.name)
            })
        }
        Workload::MzFlow => {
            let setup = w.topology_setup(rate);
            measure(
                req,
                &spec,
                &|| setup.run_with_sim_named("").1,
                &|sim, throughput_tps, consensus_upload_bytes| {
                    let result = TopologyResult {
                        throughput_tps,
                        consensus_upload_bytes,
                    };
                    setup.report(&result, sim, spec.name)
                },
            )
        }
        Workload::MzMega => {
            let setup = w.megascale_setup(rate);
            measure(
                req,
                &spec,
                &|| setup.run_with_sim_named("").1,
                &|sim, throughput_tps, consensus_upload_bytes| {
                    let peak = sim.peak_actor_bytes();
                    let result = MegaScaleResult {
                        throughput_tps,
                        consensus_upload_bytes,
                        full_nodes: setup.full_nodes(),
                        peak_actor_bytes: peak,
                        bytes_per_node: peak / sim.node_count().max(1) as u64,
                    };
                    setup.report(&result, sim, spec.name)
                },
            )
        }
    }
}

/// `(submitted, confirmed)` summed over every client actor of the world.
fn client_totals<M: Payload>(sim: &Sim<M>) -> (u64, u64) {
    (0..sim.node_count() as u32)
        .map(NodeId)
        .fold((0, 0), |(s, c), node| {
            if let Some(a) = sim.actor_as::<ActorOf<ClientCore, ConsMsg>>(node) {
                (s + a.core().submitted, c + a.core().confirmed)
            } else if let Some(a) = sim.actor_as::<ActorOf<ClientSwarm, ConsMsg>>(node) {
                (s + a.core().submitted, c + a.core().confirmed)
            } else {
                (s, c)
            }
        })
}

/// Committed transactions per second over the stable window, measured
/// between the first and the last commit inside it: the transactions of
/// every commit after the first, over the time between the two. Counting
/// whole blocks against the fixed window instead would move the rate by a
/// block (5 % on `mz_mega`) whenever a commit crosses a window edge.
fn aligned_tps(commits: &[CommitEvent], from: SimTime, to: SimTime) -> f64 {
    let mut inside = commits.iter().filter(|c| c.at >= from && c.at <= to);
    let Some(first) = inside.next() else {
        return 0.0;
    };
    let (mut last_at, mut txs) = (first.at, 0u64);
    for c in inside {
        last_at = c.at;
        txs += c.txs;
    }
    let span = last_at.saturating_since(first.at).as_secs_f64();
    if span > 0.0 {
        txs as f64 / span
    } else {
        0.0
    }
}

/// Peak resident set size of this process so far, KiB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

type BuildFn<'a, M> = &'a dyn Fn() -> Sim<M>;
type ReportFn<'a, M> = &'a dyn Fn(&Sim<M>, f64, u64) -> RunReport;

fn measure<M: Payload>(
    req: &RepRequest,
    spec: &Spec,
    build: BuildFn<'_, M>,
    report: ReportFn<'_, M>,
) -> Result<Rep, String> {
    let epoch_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("clock before 1970: {e}"))?
        .as_nanos() as u64;
    let t0 = Instant::now();
    let at = || t0.elapsed().as_nanos() as u64;

    let build_start = at();
    let mut sim = build();
    let build_end = at();
    match req.mode {
        Mode::Traced => sim.enable_profiling(),
        Mode::Mt2 => sim.set_sim_threads(2),
        // PREDIS_SIM_THREADS may be set in the caller's environment.
        Mode::Plain | Mode::OneShot => sim.set_sim_threads(1),
    }

    let horizon_ns = req.horizon_ms() * 1_000_000;
    let slices = if req.mode == Mode::OneShot { 1 } else { SLICES };
    // The cohort boundary: the last slice edge at least one latency limit
    // before the horizon.
    let slice_ms = req.horizon_ms() as f64 / SLICES as f64;
    let drain = ((spec.p99_limit_ms / slice_ms).ceil() as u64).clamp(1, SLICES - 1);
    let cohort_edge = SLICES - drain;
    // The warm-up ends on a slice edge (a test pins that for every workload).
    let warmup_edge = req.warmup_ms() * SLICES / req.horizon_ms();

    let mut walls = Vec::with_capacity(slices as usize);
    let mut partition_events: Vec<u64> = Vec::with_capacity(64);
    let mut cohort_submitted = None;
    let mut warmup_submitted = None;
    let allocs0 = alloc::count();
    for i in 1..=slices {
        let until = SimTime::from_nanos(horizon_ns / slices * i);
        let start = at();
        sim.run_until(until);
        walls.push([start, at()]);
        if req.mode == Mode::Mt2 {
            let counts = sim.partition_event_counts();
            if partition_events.len() < counts.len() {
                partition_events.resize(counts.len(), 0);
            }
            for (sum, c) in partition_events.iter_mut().zip(counts) {
                *sum += c;
            }
        }
        if slices == SLICES && i == cohort_edge {
            cohort_submitted = Some(client_totals(&sim).0);
        }
        if slices == SLICES && i == warmup_edge {
            warmup_submitted = Some(client_totals(&sim).0);
        }
    }
    let allocs1 = alloc::count();
    let vm_hwm_kb = vm_hwm_kb()?;

    let from = SimTime::from_millis(req.warmup_ms());
    let to = SimTime::from_millis(req.horizon_ms());
    let tps = aligned_tps(sim.metrics().commits(), from, to);
    let upload: u64 = (0..spec.n_c as u32)
        .map(|i| sim.network().bytes_sent(NodeId(i)))
        .sum();
    let report_start = at();
    let run_report = report(&sim, tps, upload);
    let report_end = at();
    let text = run_report.to_json();
    let json_end = at();
    std::hint::black_box(text);

    let mut exact = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        exact.insert(k.to_string(), v);
    };
    put("events", sim.events_processed() as f64);
    put("nodes", sim.node_count() as f64);
    put("tps", tps);
    put("upload_bytes", upload as f64);
    let (submitted, confirmed) = client_totals(&sim);
    put("submitted", submitted as f64);
    put("confirmed", confirmed as f64);
    if let Some(h) = sim.metrics().latency_histogram(CLIENT_LATENCY) {
        let buckets: Vec<(u64, u64, u64)> = h.nonzero_buckets().collect();
        put("latency.count", h.count() as f64);
        put("latency.mean_ms", h.mean().unwrap_or(0.0) / 1e6);
        put("latency.p50_ms", bucket_quantile(&buckets, 0.5) / 1e6);
        put("latency.p99_ms", bucket_quantile(&buckets, 0.99) / 1e6);
        put("latency.max_ms", h.max().unwrap_or(0) as f64 / 1e6);
    }
    let mut cells = 0u64;
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    // What the committee itself received, apart from clients and full nodes.
    let (mut committee_deliveries, mut committee_bytes) = (0u64, 0u64);
    for c in &run_report.counters {
        cells += 1;
        *totals.entry(c.name.as_str()).or_default() += c.value;
        if c.labels.node.is_some_and(|n| n < spec.n_c as u64) {
            match c.name.as_str() {
                "node.deliveries" => committee_deliveries += c.value,
                "node.delivered_bytes" => committee_bytes += c.value,
                _ => {}
            }
        }
    }
    put("counter_cells", cells as f64);
    put("committee.deliveries", committee_deliveries as f64);
    put("committee.delivered_bytes", committee_bytes as f64);
    for (name, total) in totals {
        put(&format!("counter.{name}"), total as f64);
    }
    for key in [
        "msg.payload_clones",
        "msg.bytes_cloned",
        "wire_size.computed",
    ] {
        put(key, run_report.metric(key).unwrap_or(0.0));
    }
    put("timeline_count", run_report.timeline_count as f64);
    put("timeline_dropped", run_report.timeline_dropped as f64);
    for stage in &run_report.stages {
        put(
            &format!("stage.{}.p50_ms", stage.segment),
            stage.summary.p50 as f64 / 1e6,
        );
    }

    let fingerprint = sim.fingerprint();
    let peak_actor_bytes = sim.peak_actor_bytes();
    let profile = run_report
        .profile
        .iter()
        .map(|p| ProfileCell {
            actor: p.actor.clone(),
            event: p.event.clone(),
            count: p.count,
            ns: p.ns,
        })
        .collect();
    let windows = sim.windows_run();
    drop(run_report);
    drop(sim);

    // Set-up: batches of a fixed count of further builds, each kept alive
    // until its clock stops so that tearing worlds down is not charged to
    // building them.
    let setup_batches_ns = (0..SETUP_BATCHES)
        .map(|_| {
            let batch_start = Instant::now();
            let worlds: Vec<Sim<M>> = (0..spec.setup_builds).map(|_| build()).collect();
            let wall = batch_start.elapsed().as_nanos() as u64;
            drop(worlds);
            wall
        })
        .collect();

    Ok(Rep {
        mode: req.mode.name().to_string(),
        fingerprint,
        epoch_ns,
        build: [build_start, build_end],
        slices: walls,
        report: [report_start, report_end],
        to_json: [report_end, json_end],
        setup_batches_ns,
        vm_hwm_kb,
        peak_actor_bytes,
        allocs: allocs1 - allocs0,
        cohort_submitted,
        warmup_submitted,
        exact,
        profile,
        windows,
        partition_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_round_trips_through_json_text() {
        let rep = Rep {
            mode: "traced".into(),
            fingerprint: "00ff".into(),
            epoch_ns: 1_700_000_000_000_000_123,
            build: [1, 2],
            slices: vec![[3, 5], [5, 9]],
            report: [9, 10],
            to_json: [10, 12],
            setup_batches_ns: vec![21_000_000, 20_500_000],
            vm_hwm_kb: 4096,
            peak_actor_bytes: 12_345,
            allocs: 7,
            cohort_submitted: Some(99),
            warmup_submitted: Some(11),
            exact: [
                ("tps".to_string(), 1999.3600000000001),
                ("events".into(), 5.0),
            ]
            .into(),
            profile: vec![ProfileCell {
                actor: "ActorOf<ClientCore, ConsMsg>".into(),
                event: "timer".into(),
                count: 3,
                ns: 450,
            }],
            windows: 4,
            partition_events: vec![10, 12],
        };
        let text = rep.to_json().to_pretty_string();
        let back = Rep::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rep);
        assert_eq!(rep.slice_walls(), vec![2, 4]);
        assert_eq!(rep.run_wall_ns(), 6);
    }

    #[test]
    fn aligned_tps_counts_between_the_first_and_last_commit_inside() {
        let at = |ms, txs| CommitEvent {
            at: SimTime::from_millis(ms),
            txs,
        };
        let commits = [
            at(900, 50),
            at(1_000, 70),
            at(1_500, 100),
            at(2_000, 100),
            at(2_100, 80),
        ];
        let (from, to) = (SimTime::from_millis(1_000), SimTime::from_millis(2_050));
        // 200 txs in the second between the commits at 1.0 s and 2.0 s.
        assert_eq!(aligned_tps(&commits, from, to), 200.0);
        assert_eq!(aligned_tps(&commits[..2], from, to), 0.0);
        assert_eq!(aligned_tps(&[], from, to), 0.0);
    }

    #[test]
    fn from_json_names_the_missing_field() {
        let err = Rep::from_json(&Json::Obj(vec![])).unwrap_err();
        assert!(err.contains("exact") || err.contains("mode"), "{err}");
    }
}
