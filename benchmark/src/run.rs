//! The parent: runs the reps of one workload as child processes for the
//! asked number of seconds, checks that they agree, and turns their slice
//! walls and counters into the metrics of the table.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use predis_telemetry::Json;

use crate::floor::{highest_supported_percentile, least, median, slice_floor_ns};
use crate::metrics::{Outcome, Values};
use crate::probes::{self, MemChase, Probe, Shape};
use crate::rep::{Mode, Rep, RepRequest};
use crate::spans::SpanLog;
use crate::workloads::{Spec, Workload, TX_SIZE};

/// What one benchmark run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest {
    pub workload: Workload,
    pub seed: u64,
    /// How long the reps are cycled for.
    pub seconds: f64,
    /// Per-layer run: profiled and two-thread reps, probes, span log.
    pub trace: bool,
    /// One cycle at a tenth of the horizon; only agreement is gated.
    pub smoke: bool,
}

/// The kinds of rep one cycle runs, in order. Every kind is run once per
/// cycle, so each samples the whole run and none sits in one noisy phase.
pub fn cycle_modes(trace: bool) -> &'static [Mode] {
    if trace {
        &[Mode::Plain, Mode::Traced, Mode::Mt2]
    } else {
        &[Mode::Plain]
    }
}

/// Runs one rep in a child process and waits for it.
pub fn spawn_rep(req: &RepRequest) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", req.workload.spec().name])
        .args(["--seed", &req.seed.to_string()])
        .args(["--mode", req.mode.name()])
        .args(["--rate-mult", &req.rate_mult.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if req.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end, so none outlives the parent.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a child rep: {e}"))?;
    if !out.status.success() {
        return Err(format!("child rep ended with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    Rep::from_json(&Json::parse(&text)?)
}

fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Where the traced run writes its span log.
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace_{}.json", workload.spec().name))
}

/// All reps of a run, by kind.
#[derive(Default)]
struct Reps {
    oneshot: Vec<Rep>,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    mt2: Vec<Rep>,
}

impl Reps {
    fn of(&mut self, mode: Mode) -> &mut Vec<Rep> {
        match mode {
            Mode::OneShot => &mut self.oneshot,
            Mode::Plain => &mut self.plain,
            Mode::Traced => &mut self.traced,
            Mode::Mt2 => &mut self.mt2,
        }
    }

    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.oneshot
            .iter()
            .chain(&self.plain)
            .chain(&self.traced)
            .chain(&self.mt2)
    }
}

fn floor_s(reps: &[Rep]) -> f64 {
    let walls: Vec<Vec<u64>> = reps.iter().map(Rep::slice_walls).collect();
    slice_floor_ns(&walls) as f64 / 1e9
}

/// Median wall of the reps' timed slices, seconds: what the floor replaces.
fn median_rep_wall_s(reps: &[Rep]) -> f64 {
    let walls: Vec<f64> = reps.iter().map(|r| r.run_wall_ns() as f64 / 1e9).collect();
    median(&walls)
}

/// Parent-side measurements of a traced run.
struct Traced {
    probes: Vec<Probe>,
    chase: MemChase,
    compute_ms: Vec<f64>,
    memchase_ms: Vec<f64>,
    spans: SpanLog,
    started_epoch_ns: u64,
}

impl Traced {
    /// One batch of every probe and both host kernels, with their spans.
    fn cycle(&mut self, t0: Instant, cycle: u64) {
        let at = || t0.elapsed().as_nanos() as u64;
        let start = at();
        let root = self.spans.push("probes", start, start, None, cycle);
        let wall = probes::host_compute();
        self.spans
            .push("host.compute", start, at(), Some(root), cycle);
        self.compute_ms.push(wall.as_secs_f64() * 1e3);
        let chase_start = at();
        let wall = self.chase.run();
        self.spans
            .push("host.memchase", chase_start, at(), Some(root), cycle);
        self.memchase_ms.push(wall.as_secs_f64() * 1e3);
        for p in &mut self.probes {
            let probe_start = at();
            p.batch();
            self.spans.push(
                format!("probe.{}", p.name),
                probe_start,
                at(),
                Some(root),
                cycle,
            );
        }
        self.spans.set_end(root, at());
    }

    /// The spans of one child rep, placed on the parent's clock through the
    /// wall-clock instants both processes noted at their start.
    fn rep_spans(&mut self, rep: &Rep, spawned_ns: u64, ended_ns: u64, id: u64) {
        let base = rep.epoch_ns.saturating_sub(self.started_epoch_ns);
        let root = self
            .spans
            .push(format!("rep.{}", rep.mode), spawned_ns, ended_ns, None, id);
        let mut child = |name: &str, at: [u64; 2]| {
            self.spans
                .push(name, base + at[0], base + at[1], Some(root), id);
        };
        child("core.build", rep.build);
        for slice in &rep.slices {
            child("sim.run_until", *slice);
        }
        child("core.report", rep.report);
        child("telemetry.to_json", rep.to_json);
    }

    fn probe_ns(&self, name: &str) -> f64 {
        self.probes
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.ns_per_op)
    }
}

/// Input sizes of the probes, from the reference rep's counts.
fn shape(spec: &Spec, reference: &Rep, horizon_s: f64) -> Shape {
    let f = (spec.n_c - 1) / 3;
    let nodes = reference.fact("nodes") as usize;
    // Little's law with the LAN's 25 ms one-way delay as the time in flight.
    let in_flight = reference.counter("net.messages") / horizon_s * 0.025;
    let cuts = reference.counter("predis.cuts_made").max(1.0);
    let per_cut = reference.counter("predis.bundles_produced") / cuts / spec.n_c as f64;
    Shape {
        n_c: spec.n_c,
        f,
        bundle_txs: spec.bundle_txs,
        tx_size: TX_SIZE,
        fanout: spec.fanout,
        nodes: nodes.max(1),
        depth: (nodes + in_flight as usize).max(1),
        bundles_per_cut: (per_cut.ceil() as usize).clamp(1, 64),
    }
}

/// Every way the reps of a run can disagree or the workload can fail to be
/// sustainable; an empty list is a correct run.
fn faults(req: &RunRequest, reps: &Reps) -> Vec<String> {
    let spec = req.workload.spec();
    let mut out = Vec::new();
    let Some(reference) = reps.plain.first() else {
        return vec!["no plain rep completed".into()];
    };
    for rep in reps.all() {
        if rep.fingerprint != reference.fingerprint {
            out.push(format!(
                "{} rep fingerprint {} differs from {}",
                rep.mode, rep.fingerprint, reference.fingerprint
            ));
        }
        for (name, want) in &reference.exact {
            let got = rep.exact.get(name).copied();
            if got.map(f64::to_bits) != Some(want.to_bits()) {
                out.push(format!(
                    "{} rep `{name}` = {got:?}, plain rep has {want}",
                    rep.mode
                ));
            }
        }
        if rep.exact.len() != reference.exact.len() {
            out.push(format!(
                "{} rep reports other facts than the plain rep",
                rep.mode
            ));
        }
    }
    for rep in &reps.plain {
        let counts = |r: &Rep| (r.allocs, r.cohort_submitted, r.warmup_submitted);
        if counts(rep) != counts(reference) {
            out.push(format!(
                "plain reps disagree on (allocs, cohort, warm-up submissions): {:?} vs {:?}",
                counts(rep),
                counts(reference)
            ));
        }
    }
    if req.smoke {
        return out;
    }
    let share = reference.commit_share(window_s(req));
    if share < 0.97 {
        out.push(format!(
            "commit_share {share:.4}: under 97 % of the txs offered in the stable window committed"
        ));
    }
    let p99 = reference.fact("latency.p99_ms");
    if p99 > spec.p99_limit_ms {
        out.push(format!(
            "sim_p99_ms {p99:.1} over its limit of {} ms",
            spec.p99_limit_ms
        ));
    }
    let samples = reference.fact("latency.count") as u64;
    if highest_supported_percentile(samples).is_none_or(|q| q < 0.99) {
        out.push(format!(
            "{samples} latency samples do not support a 99th percentile"
        ));
    }
    let cohort = reference.cohort_submitted.unwrap_or(0);
    let confirmed = reference.fact("confirmed") as u64;
    if cohort == 0 || confirmed < cohort {
        out.push(format!(
            "{confirmed} txs confirmed of the {cohort} submitted a latency limit before the horizon"
        ));
    }
    for counter in ["pbft.view_changes_started", "zone.stripes_rejected"] {
        let n = reference.counter(counter);
        if n != 0.0 {
            out.push(format!(
                "`{counter}` = {n}: a fault in a fault-free workload"
            ));
        }
    }
    out
}

/// Length of the stable window, simulated seconds.
fn window_s(req: &RunRequest) -> f64 {
    let spec = req.workload.spec();
    (spec.horizon_ms - spec.warmup_ms) as f64 / 1e3 / if req.smoke { 10.0 } else { 1.0 }
}

/// Runs the benchmark of one workload and returns its metrics.
pub fn run(req: &RunRequest) -> Result<Outcome, String> {
    let started_epoch_ns = epoch_ns();
    let t0 = Instant::now();
    let at = || t0.elapsed().as_nanos() as u64;
    let spec = req.workload.spec();
    let rep_request = |mode| RepRequest {
        workload: req.workload,
        seed: req.seed,
        mode,
        rate_mult: 1.0,
        smoke: req.smoke,
    };
    let horizon_s = rep_request(Mode::Plain).horizon_ms() as f64 / 1e3;

    let mut reps = Reps::default();
    // A traced run starts with one one-shot rep: the reference that sliced,
    // profiled and two-thread reps must all reproduce, and the source of
    // the counts the probes' inputs are sized from. The end-to-end run
    // spends all its time on measured reps.
    let mut traced = None;
    if req.trace {
        let spawned = at();
        let oneshot = spawn_rep(&rep_request(Mode::OneShot))?;
        let mut t = Traced {
            probes: probes::all(shape(&spec, &oneshot, horizon_s)),
            chase: MemChase::new(),
            compute_ms: Vec::new(),
            memchase_ms: Vec::new(),
            spans: SpanLog::default(),
            started_epoch_ns,
        };
        t.rep_spans(&oneshot, spawned, at(), 0);
        reps.oneshot.push(oneshot);
        traced = Some(t);
    }

    // Cycle for the asked time. A cycle is not started when the last one
    // shows it would end after the deadline.
    let measuring = Instant::now();
    let deadline = Duration::from_secs_f64(req.seconds);
    let mut cycles = 0u64;
    let mut last_cycle = Duration::ZERO;
    while cycles == 0 || (!req.smoke && measuring.elapsed() + last_cycle <= deadline) {
        let cycle_start = Instant::now();
        cycles += 1;
        for &mode in cycle_modes(req.trace) {
            let spawned = at();
            let rep = spawn_rep(&rep_request(mode))?;
            if let Some(t) = &mut traced {
                t.rep_spans(&rep, spawned, at(), cycles);
            }
            reps.of(mode).push(rep);
        }
        if let Some(t) = &mut traced {
            t.cycle(t0, cycles);
        }
        last_cycle = cycle_start.elapsed();
    }

    let problems = faults(req, &reps);
    for p in &problems {
        eprintln!("FAILED CHECK [{}]: {p}", spec.name);
    }
    let reference = &reps.plain[0];
    let floor = floor_s(&reps.plain);
    let setup_batches: Vec<f64> = reps
        .plain
        .iter()
        .flat_map(|r| r.setup_batches_ns.iter().map(|&ns| ns as f64))
        .collect();
    let setup_s = least(&setup_batches) / spec.setup_builds as f64 / 1e9;

    let mut v = Values::new();
    if req.trace {
        let t = traced.as_mut().expect("traced runs keep parent-side state");
        per_layer(&mut v, &spec, &reps, t, floor, setup_s);
        v.insert("host.wall_s", t0.elapsed().as_secs_f64());
        let path = trace_path(req.workload);
        t.spans
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "[{}] {} spans written to {}",
            spec.name,
            t.spans.spans().len(),
            path.display()
        );
    } else {
        let rss: Vec<f64> = reps
            .plain
            .iter()
            .map(|r| r.vm_hwm_kb as f64 / 1024.0)
            .collect();
        v.insert("setup_s", setup_s);
        v.insert("sim_rate", horizon_s / floor);
        v.insert("peak_rss_mb", median(&rss));
        v.insert("allocs_per_sim_s", reference.allocs as f64 / horizon_s);
        v.insert("sim_tps", reference.fact("tps"));
        v.insert("sim_p50_ms", reference.fact("latency.p50_ms"));
        v.insert("sim_p99_ms", reference.fact("latency.p99_ms"));
        // Per transaction submitted: uploads and submissions both flow
        // steadily, while commits arrive a block at a time, so dividing by
        // commits would move the ratio by a block at the horizon.
        v.insert(
            "upload_bytes_per_tx",
            reference.fact("upload_bytes") / reference.fact("submitted").max(1.0),
        );
        v.insert("commit_share", reference.commit_share(window_s(req)));
    }
    eprintln!(
        "[{}] seed {} | {} cycles in {:.1} s | floor {:.3} s, median rep {:.3} s | {} latency samples, \
         p99 limit {} ms | set-up least {:.3e} s, median {:.3e} s per build",
        spec.name,
        req.seed,
        cycles,
        measuring.elapsed().as_secs_f64(),
        floor,
        median_rep_wall_s(&reps.plain),
        reference.fact("latency.count"),
        spec.p99_limit_ms,
        setup_s,
        median(&setup_batches) / spec.setup_builds as f64 / 1e9,
    );

    // A failed check fails every operation of the run.
    let attempted = reference.cohort_submitted.unwrap_or(0).max(1);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: if problems.is_empty() { 0 } else { attempted },
        values: v,
    })
}

/// Least wall, over the traced reps, of every profiler cell whose actor
/// name holds one of `kinds` and whose event is one of `events`.
fn cells(traced: &[Rep], kinds: &[&str], events: &[&str]) -> (f64, f64) {
    let Some(first) = traced.first() else {
        return (0.0, 0.0);
    };
    let (mut count, mut ns) = (0.0, 0.0);
    for (i, cell) in first.profile.iter().enumerate() {
        if kinds.iter().any(|k| cell.actor.contains(k)) && events.contains(&cell.event.as_str()) {
            count += cell.count as f64;
            ns += traced
                .iter()
                .filter_map(|r| r.profile.get(i))
                .map(|c| c.ns)
                .min()
                .unwrap_or(0) as f64;
        }
    }
    (count, ns)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

const CONSENSUS_ACTORS: &[&str] = &["PbftNode", "FlowConsensusNode"];
const CLIENT_ACTORS: &[&str] = &["ClientCore", "ClientSwarm"];
const ZONE_ACTORS: &[&str] = &["MultiZoneNode"];
const ALL_EVENTS: &[&str] = &["deliver", "timer", "start", "other"];

fn per_layer(v: &mut Values, spec: &Spec, reps: &Reps, t: &Traced, floor: f64, setup_s: f64) {
    let x = &reps.plain[0];
    let n_c = spec.n_c as f64;
    let events = x.fact("events");
    let deliveries = x.counter("node.deliveries");
    let timers = x.counter("node.timers");
    let proposals = x.counter("pbft.proposals");
    let committed = x.counter("txs_committed");

    // sim
    v.insert("sim.events", events);
    v.insert("sim.deliveries", deliveries);
    v.insert("sim.timers", timers);
    v.insert("sim.messages", x.counter("net.messages"));
    v.insert("sim.ns_per_event", ratio(floor * 1e9, events));
    let queue_ns = t.probe_ns("sim.queue_ns_per_op");
    let multicast_ns = t.probe_ns("sim.multicast_ns_per_msg");
    v.insert("sim.queue_ns_per_op", queue_ns);
    v.insert("sim.net_schedule_ns", t.probe_ns("sim.net_schedule_ns"));
    v.insert("sim.multicast_ns_per_msg", multicast_ns);
    let sim_est = (deliveries * multicast_ns + timers * queue_ns) / 1e9;
    v.insert("sim.est_s", sim_est);
    let mt2 = reps.mt2.first();
    let windows = mt2.map_or(0.0, |r| r.windows as f64);
    let parts: Vec<f64> = mt2.map_or(Vec::new(), |r| {
        r.partition_events.iter().map(|&e| e as f64).collect()
    });
    let mean_part = parts.iter().sum::<f64>() / parts.len().max(1) as f64;
    v.insert("sim.mt2_speedup", ratio(floor, floor_s(&reps.mt2)));
    v.insert("sim.mt2_windows", windows);
    v.insert("sim.mt2_events_per_window", ratio(events, windows));
    // Largest partition over the mean; 1 when the engine did not engage.
    v.insert(
        "sim.mt2_partition_imbalance",
        if mean_part > 0.0 {
            parts.iter().copied().fold(0.0, f64::max) / mean_part
        } else {
            1.0
        },
    );

    // consensus
    let (_, all_ns) = cells(&reps.traced, &[""], ALL_EVENTS);
    let (_, cons_ns) = cells(&reps.traced, CONSENSUS_ACTORS, ALL_EVENTS);
    let (deliver_n, deliver_ns) = cells(&reps.traced, CONSENSUS_ACTORS, &["deliver"]);
    let (timer_n, timer_ns) = cells(&reps.traced, CONSENSUS_ACTORS, &["timer"]);
    let (_, client_ns) = cells(&reps.traced, CLIENT_ACTORS, ALL_EVENTS);
    v.insert("consensus.actor_s", cons_ns / 1e9);
    v.insert("consensus.actor_share", ratio(cons_ns, all_ns));
    v.insert("consensus.ns_per_delivery", ratio(deliver_ns, deliver_n));
    v.insert("consensus.ns_per_timer", ratio(timer_ns, timer_n));
    v.insert(
        "consensus.ns_per_event",
        ratio(deliver_ns + timer_ns, deliver_n + timer_n),
    );
    v.insert("consensus.client_actor_s", client_ns / 1e9);
    v.insert("consensus.proposals", proposals);
    v.insert("consensus.txs_per_proposal", ratio(committed, proposals));
    v.insert(
        "consensus.stage_commit_p50_ms",
        x.fact("stage.proposed->committed.p50_ms"),
    );
    v.insert(
        "consensus.msgs_per_block",
        ratio(x.fact("committee.deliveries"), proposals),
    );
    v.insert(
        "consensus.bytes_per_tx",
        ratio(x.fact("committee.delivered_bytes"), committed),
    );
    v.insert(
        "consensus.view_changes",
        x.counter("pbft.view_changes_started"),
    );
    v.insert("consensus.latency_samples", x.fact("latency.count"));

    // mempool
    let accepted = x.counter("predis.bundles_accepted");
    let produced = x.counter("predis.bundles_produced");
    let tip_updates = x.counter("mempool.tip_updates");
    let cuts = x.counter("predis.cuts_made");
    let insert_ns = t.probe_ns("mempool.insert_ns");
    let build_block_ns = t.probe_ns("mempool.build_block_ns");
    let validate_ns = t.probe_ns("mempool.validate_block_ns");
    v.insert("mempool.bundles_accepted", accepted);
    v.insert("mempool.tip_updates", tip_updates);
    v.insert("mempool.cuts", cuts);
    v.insert("mempool.insert_ns", insert_ns);
    v.insert("mempool.cut_ns", t.probe_ns("mempool.cut_ns"));
    v.insert("mempool.build_block_ns", build_block_ns);
    v.insert("mempool.validate_block_ns", validate_ns);
    v.insert("mempool.produce_ns", t.probe_ns("mempool.produce_ns"));
    // Every accepted bundle is inserted once (its validity check is shared
    // and charged to `types`); the leader builds each cut's block and the
    // other replicas validate it.
    let mempool_est =
        (accepted * insert_ns + cuts * build_block_ns + cuts * (n_c - 1.0) * validate_ns) / 1e9;
    v.insert("mempool.est_s", mempool_est);
    v.insert(
        "mempool.stage_tip_acked_p50_ms",
        x.fact("stage.multicast->tip_acked.p50_ms"),
    );
    v.insert(
        "mempool.stage_cut_p50_ms",
        x.fact("stage.tip_acked->cut.p50_ms"),
    );

    // types
    let build_ns = t.probe_ns("types.bundle_build_ns");
    let verify_ns = t.probe_ns("types.bundle_verify_ns");
    let merge_ns = t.probe_ns("types.tiplist_merge_ns");
    let digest_ns = t.probe_ns("types.block_digest_ns");
    v.insert("types.bundle_build_ns", build_ns);
    v.insert("types.bundle_verify_ns", verify_ns);
    v.insert("types.tiplist_merge_ns", merge_ns);
    v.insert("types.block_digest_ns", digest_ns);
    // A bundle is built once and checked once (receivers share the memo);
    // every tip update merges one tip list; every replica digests a block.
    let types_est =
        (produced * (build_ns + verify_ns) + tip_updates * merge_ns + cuts * n_c * digest_ns) / 1e9;
    v.insert("types.est_s", types_est);
    v.insert("types.payload_clones", x.fact("msg.payload_clones"));
    v.insert("types.bytes_cloned", x.fact("msg.bytes_cloned"));
    v.insert("types.wire_size_computed", x.fact("wire_size.computed"));

    // crypto
    let mb_per_s = |bytes: f64, ns: f64| ratio(bytes * 1e3, ns);
    v.insert(
        "crypto.sha256_mb_per_s",
        mb_per_s((64 << 10) as f64, t.probe_ns("crypto.sha256_ns_per_64kib")),
    );
    for name in [
        "crypto.merkle_root_ns",
        "crypto.merkle_verify_ns",
        "crypto.sign_ns",
        "crypto.verify_ns",
    ] {
        v.insert(name, t.probe_ns(name));
    }

    // erasure
    let blob = (spec.bundle_txs * TX_SIZE) as f64;
    let encodes = x.counter("zone.rs_encodes");
    let decodes = x.counter("zone.rs_decodes");
    v.insert("erasure.encodes", encodes);
    v.insert("erasure.decodes", decodes);
    v.insert(
        "erasure.encode_mb_per_s",
        mb_per_s(blob, t.probe_ns("erasure.encode_ns_per_bundle")),
    );
    v.insert(
        "erasure.decode_mb_per_s",
        mb_per_s(blob, t.probe_ns("erasure.decode_ns_per_bundle")),
    );
    v.insert(
        "erasure.decode_fast_mb_per_s",
        mb_per_s(blob, t.probe_ns("erasure.decode_fast_ns_per_bundle")),
    );

    // multizone
    let (_, zone_ns) = cells(&reps.traced, ZONE_ACTORS, ALL_EVENTS);
    let (zone_deliver_n, zone_deliver_ns) = cells(&reps.traced, ZONE_ACTORS, &["deliver"]);
    v.insert("multizone.actor_s", zone_ns / 1e9);
    v.insert("multizone.actor_share", ratio(zone_ns, all_ns));
    v.insert(
        "multizone.ns_per_delivery",
        ratio(zone_deliver_ns, zone_deliver_n),
    );
    v.insert("multizone.stripe_sends", x.counter("zone.stripe_sends"));
    v.insert("multizone.heartbeats", x.counter("zone.heartbeats"));
    v.insert("multizone.promotions", x.counter("zone.relayer_promotions"));
    v.insert(
        "multizone.redundancy_shed",
        x.counter("zone.redundancy_shed"),
    );
    v.insert(
        "multizone.bytes_per_node",
        ratio(x.peak_actor_bytes as f64, x.fact("nodes")),
    );
    // Every source encodes every bundle, so encodes / n_c bundles were
    // offered to each of the full nodes; a decode is one node holding one.
    v.insert(
        "multizone.delivery_share",
        ratio(decodes, encodes / n_c * spec.full_nodes as f64),
    );
    v.insert(
        "multizone.stripes_rejected",
        x.counter("zone.stripes_rejected"),
    );

    // telemetry
    for name in [
        "telemetry.counter_incr_ns",
        "telemetry.counter_incr_named_ns",
        "telemetry.hist_record_ns",
        "telemetry.timeline_mark_ns",
    ] {
        v.insert(name, t.probe_ns(name));
    }
    v.insert("telemetry.counter_cells", x.fact("counter_cells"));
    v.insert("telemetry.timeline_count", x.fact("timeline_count"));
    v.insert("telemetry.timeline_dropped", x.fact("timeline_dropped"));
    let span_ms = |pick: fn(&Rep) -> [u64; 2]| {
        let walls: Vec<f64> = reps
            .all()
            .map(|r| (pick(r)[1] - pick(r)[0]) as f64 / 1e6)
            .collect();
        least(&walls)
    };
    v.insert("telemetry.report_json_ms", span_ms(|r| r.to_json));

    // parallel, core
    v.insert(
        "parallel.pool_map_us_per_task",
        t.probe_ns("parallel.pool_map_us_per_task") / 1e3,
    );
    v.insert(
        "core.setup_us_per_node",
        ratio(setup_s * 1e6, x.fact("nodes")),
    );
    v.insert("core.report_s", span_ms(|r| r.report) / 1e3);

    // host: the noise gauge and the ledger's remainder.
    v.insert("host.compute_ms", least(&t.compute_ms));
    v.insert("host.memchase_ms", least(&t.memchase_ms));
    v.insert(
        "host.rep_excess_pct",
        (ratio(median_rep_wall_s(&reps.plain), floor) - 1.0) * 100.0,
    );
    v.insert(
        "host.trace_overhead_pct",
        (ratio(floor_s(&reps.traced), floor) - 1.0) * 100.0,
    );
    v.insert(
        "host.unattributed_s",
        floor - sim_est - mempool_est - types_est,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::ProfileCell;

    #[test]
    fn a_traced_cycle_runs_every_kind_of_rep_once_in_a_fixed_order() {
        assert_eq!(cycle_modes(false), [Mode::Plain]);
        assert_eq!(cycle_modes(true), [Mode::Plain, Mode::Traced, Mode::Mt2]);
        // Three cycles interleave the kinds: no kind runs twice in a row.
        let order: Vec<Mode> = (0..3)
            .flat_map(|_| cycle_modes(true).iter().copied())
            .collect();
        assert!(order.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(order[3], Mode::Plain);
    }

    fn rep_with(cells_ns: &[u64]) -> Rep {
        Rep {
            profile: cells_ns
                .iter()
                .enumerate()
                .map(|(i, &ns)| ProfileCell {
                    actor: [
                        "ActorOf<PbftNode<BatchPlane>, ConsMsg>",
                        "ActorOf<ClientCore, ConsMsg>",
                    ][i % 2]
                        .to_string(),
                    event: "deliver".into(),
                    count: 10,
                    ns,
                })
                .collect(),
            ..Rep::default()
        }
    }

    #[test]
    fn profiler_cells_take_the_least_wall_per_cell() {
        let traced = [rep_with(&[500, 90]), rep_with(&[400, 120])];
        assert_eq!(
            cells(&traced, CONSENSUS_ACTORS, &["deliver"]),
            (10.0, 400.0)
        );
        assert_eq!(cells(&traced, CLIENT_ACTORS, ALL_EVENTS), (10.0, 90.0));
        assert_eq!(cells(&traced, &[""], ALL_EVENTS), (20.0, 490.0));
        assert_eq!(cells(&traced, ZONE_ACTORS, ALL_EVENTS), (0.0, 0.0));
        assert_eq!(cells(&[], &[""], ALL_EVENTS), (0.0, 0.0));
    }

    fn sustainable_rep() -> Rep {
        let mut rep = Rep {
            mode: "plain".into(),
            fingerprint: "aa".into(),
            allocs: 5,
            cohort_submitted: Some(100),
            // 2 000 tx/s were offered throughout the stable window.
            warmup_submitted: Some(100_000 - 2_000 * window_s(&request()) as u64),
            ..Rep::default()
        };
        for (k, v) in [
            ("tps", 2_000.0),
            ("submitted", 100_000.0),
            ("latency.p99_ms", 80.0),
            ("latency.count", 119_000.0),
            ("confirmed", 118.0),
        ] {
            rep.exact.insert(k.into(), v);
        }
        rep
    }

    fn request() -> RunRequest {
        RunRequest {
            workload: Workload::PbftBatch,
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
        }
    }

    #[test]
    fn agreeing_sustainable_reps_raise_no_fault() {
        let reps = Reps {
            plain: vec![sustainable_rep(), sustainable_rep()],
            oneshot: vec![Rep {
                mode: "oneshot".into(),
                cohort_submitted: None,
                warmup_submitted: None,
                ..sustainable_rep()
            }],
            ..Reps::default()
        };
        assert_eq!(faults(&request(), &reps), Vec::<String>::new());
    }

    #[test]
    fn every_kind_of_miss_is_named_with_its_values() {
        let mut reps = Reps::default();
        let mut other = sustainable_rep();
        other.fingerprint = "bb".into();
        other.exact.insert("confirmed".into(), 117.0);
        other.allocs = 6;
        reps.plain = vec![sustainable_rep(), other];
        let found = faults(&request(), &reps).join("\n");
        assert!(found.contains("fingerprint bb differs from aa"), "{found}");
        assert!(found.contains("`confirmed` = Some(117.0)"), "{found}");
        assert!(found.contains("(6, Some(100), Some("), "{found}");

        let mut slow = sustainable_rep();
        slow.exact.insert("latency.p99_ms".into(), 900.0);
        slow.exact.insert("tps".into(), 1_000.0);
        slow.exact.insert("confirmed".into(), 99.0);
        slow.exact
            .insert("counter.pbft.view_changes_started".into(), 2.0);
        slow.exact.insert("latency.count".into(), 500.0);
        reps.plain = vec![slow];
        let found = faults(&request(), &reps).join("\n");
        for needle in [
            "over its limit",
            "commit_share 0.5000",
            "99 txs confirmed of the 100",
            "view_changes",
            "500 latency samples",
        ] {
            assert!(found.contains(needle), "missing `{needle}` in {found}");
        }
        // A smoke run gates agreement only.
        let smoke = RunRequest {
            smoke: true,
            ..request()
        };
        assert_eq!(faults(&smoke, &reps), Vec::<String>::new());
        assert_eq!(faults(&request(), &Reps::default()).len(), 1);
    }
}
