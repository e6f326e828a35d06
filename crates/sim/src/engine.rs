//! The deterministic discrete-event engine.
//!
//! [`Sim`] owns the event queue, the [`Network`] model, the [`FaultPlan`],
//! the metrics sink, and one [`Actor`] per node. Events are totally ordered
//! by `(time, order key)`, the key fixed by whoever created the event (the
//! driver, or the node whose dispatch scheduled it), so two runs with the
//! same seed and the same actor set produce byte-identical traces.
//!
//! The hot path is engineered for zero steady-state allocation: the future
//! event set is a hierarchical timer wheel (see the `queue` module), the
//! per-dispatch op buffer is pooled and reused, per-node delivery counters
//! go through [`CounterHandle`](crate::metrics::CounterHandle)s minted
//! once at [`Sim::add_node`], and timer cancellation flips a generation
//! counter instead of growing a tombstone set.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::actor::Payload;
use crate::actor::{Actor, NodeId};
use crate::dispatch::{order_key, Capture, Core, Sequencer, MAX_NODES};
use crate::faults::FaultPlan;
use crate::metrics::Metrics;
use crate::net::{LinkConfig, Network};
use crate::parallel::Fallback;
#[cfg(test)]
use crate::parallel::WindowPolicy;
use crate::profile::{short_type_name, DispatchProfile};
use crate::queue::{Event, EventKind, TimerWheel};
use crate::time::SimTime;
use crate::trace::{TraceCapture, TraceDigest};
use predis_telemetry::RunReport;
use predis_types::payload_stats;

/// The sequential scheduler's side of the sequencing seam: every new event
/// goes to the one global wheel, and the next one comes from it.
impl<M> Sequencer<M> for TimerWheel<M> {
    #[inline]
    fn schedule(&mut self, event: Event<M>) {
        self.push(event);
    }

    #[inline]
    fn pop_next(&mut self, horizon: SimTime) -> Option<Event<M>> {
        TimerWheel::pop_next(self, horizon)
    }
}

/// A deterministic discrete-event simulation over message type `M`.
///
/// Everything one dispatch touches lives in `core` — per node, one
/// `NodeRecord` — and the pending events in `queue`; both are `pub(crate)`
/// because a parallel session moves the records and the events into
/// per-worker cores and wheels, and back.
pub struct Sim<M> {
    now: SimTime,
    pub(crate) core: Core<M>,
    pub(crate) queue: TimerWheel<M>,
    /// Events the driver has created (starts, injections, crash and revive
    /// bookkeeping): its order-key counter.
    driver_events: u64,
    net_rng: SmallRng,
    pub(crate) events_processed: u64,
    /// Nodes whose crash event has been scheduled.
    crash_scheduled: Vec<bool>,
    /// Interned actor-kind names, indexed by the core's per-node kind
    /// index.
    kind_names: Vec<String>,
    /// Every raw [`Actor::kind_name`] seen so far with its kind index, so a
    /// name is shortened only the first time its type is added.
    raw_kinds: Vec<(&'static str, u16)>,
    /// Worker count requested for windowed parallel execution (seeded from
    /// `PREDIS_SIM_THREADS`, default 1 = sequential).
    pub(crate) threads: usize,
    /// Caller-declared affinity groups: nodes listed together must land in
    /// the same partition. Consulted by the parallel planner.
    pub(crate) partition_hint: Option<Vec<Vec<NodeId>>>,
    /// Workers actually used by the most recent `run_until` (1 = sequential).
    pub(crate) threads_used: usize,
    /// Why the planner sent the most recent `run_until` down the sequential
    /// loop although more than one thread was requested.
    fallback: Option<Fallback>,
    /// Events dispatched per partition during the most recent parallel run.
    pub(crate) partition_events: Vec<u64>,
    /// Lookahead windows (barriers) executed by the parallel engine,
    /// cumulative over the run. Zero when every `run_until` ran
    /// sequentially.
    pub(crate) windows: u64,
    /// Lets a differential test run the parallel engine on the original
    /// fixed global-min window stride.
    #[cfg(test)]
    pub(crate) window_policy: WindowPolicy,
    /// Peak of Σ [`Actor::approx_bytes`] over all live actors, sampled at
    /// the end of every `run_until` call. Powers the `mem.*` report metrics
    /// that gate the per-node memory footprint at mega-scale.
    peak_actor_bytes: u64,
}

impl<M: Payload> Sim<M> {
    /// Creates an empty simulation seeded with `seed`. The same seed, node
    /// set, and actor logic reproduce the same run exactly.
    pub fn new(seed: u64, mut network: Network) -> Self {
        // A new simulation opens a new accounting epoch for this thread's
        // payload counters (pool workers are reused between grid points),
        // so [`Sim::report`] sees only this run's clones.
        payload_stats::reset();
        // Seed the per-link counter-keyed random streams (jitter, fault
        // omission) from the simulation seed, decorrelated from the node
        // and engine RNG streams.
        network.set_stream_seed(seed.wrapping_mul(0xff51_afd7_ed55_8ccd) ^ 0x5851_f42d_4c95_7f2d);
        Sim {
            now: SimTime::ZERO,
            core: Core::new(network),
            queue: TimerWheel::new(),
            driver_events: 0,
            net_rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            events_processed: 0,
            crash_scheduled: Vec::new(),
            kind_names: Vec::new(),
            raw_kinds: Vec::new(),
            threads: sim_threads_from_env(),
            partition_hint: None,
            threads_used: 1,
            fallback: None,
            partition_events: Vec::new(),
            windows: 0,
            #[cfg(test)]
            window_policy: WindowPolicy::default(),
            peak_actor_bytes: 0,
        }
    }

    /// The digest over every event popped so far (always on): each node's
    /// streaming digest of the events popped for it, combined in node
    /// order.
    pub fn digest(&self) -> TraceDigest {
        TraceDigest::combine(self.core.nodes.iter().map(|rec| &rec.digest))
    }

    /// The finalized trace fingerprint: 32 hex chars identifying the
    /// canonical event stream processed so far, node by node. Two runs with
    /// equal fingerprints handed every node byte-identical events in the
    /// same order — what determinism needs, since no dispatch reads another
    /// node's interleaving.
    pub fn fingerprint(&self) -> String {
        self.digest().fingerprint()
    }

    /// Turns on the dispatch profiler (per-actor-kind × per-event-kind
    /// counts and wall-time attribution). See [`crate::profile`].
    pub fn enable_profiling(&mut self) {
        self.core
            .profile
            .get_or_insert_with(DispatchProfile::default);
    }

    /// The dispatch profile, if profiling is enabled.
    pub fn profile(&self) -> Option<&DispatchProfile> {
        self.core.profile.as_ref()
    }

    /// Interned actor-kind names (index = the profiler's kind index).
    pub fn kind_names(&self) -> &[String] {
        &self.kind_names
    }

    /// Starts streaming every canonical event to a JSONL capture at `path`,
    /// one line per event in pop order. On the parallel engine each worker
    /// buffers its window's pops and the barrier merges the buffers into
    /// the file (DESIGN §9), so what it writes does not depend on the
    /// thread count.
    pub fn enable_capture(&mut self, path: impl Into<std::path::PathBuf>) -> std::io::Result<()> {
        self.core.capture = Some(Capture::File(TraceCapture::create(path)?));
        Ok(())
    }

    /// Applies the observability environment switches for a run named
    /// `run_name`: `PREDIS_PROFILE=1` enables the dispatch profiler and
    /// `PREDIS_TRACE_DIR=<dir>` starts a full capture at
    /// `<dir>/<run_name>.trace.jsonl` (name sanitized like report files).
    pub fn apply_observability_env(&mut self, run_name: &str) {
        if matches!(std::env::var("PREDIS_PROFILE"), Ok(v) if !v.is_empty() && v != "0") {
            self.enable_profiling();
        }
        if let Ok(dir) = std::env::var("PREDIS_TRACE_DIR") {
            if !dir.is_empty() {
                let safe: String = run_name
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                let path = std::path::Path::new(&dir).join(format!("{safe}.trace.jsonl"));
                if let Err(e) = self.enable_capture(&path) {
                    eprintln!(
                        "warning: could not start trace capture at {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }

    /// Finalizes an active capture: flushes the event stream and writes the
    /// bundle-lifecycle sidecar `<stem>.timelines.jsonl` next to it.
    /// Harmless when no capture is active. I/O failures warn on stderr
    /// rather than panicking — a run's results are worth more than its
    /// trace.
    pub fn finish_observability(&mut self) {
        if let Some(Capture::File(cap)) = self.core.capture.take() {
            let path = cap.path().to_path_buf();
            match cap.finish() {
                Ok(p) => {
                    let file = p.file_name().and_then(|f| f.to_str()).unwrap_or("");
                    let stem = file.strip_suffix(".trace.jsonl").unwrap_or(file);
                    let sidecar = p.with_file_name(format!("{stem}.timelines.jsonl"));
                    if let Err(e) = self.core.metrics.timelines().write_jsonl(&sidecar) {
                        eprintln!(
                            "warning: could not write timeline sidecar {}: {e}",
                            sidecar.display()
                        );
                    }
                }
                Err(e) => {
                    // Latched IO failures would otherwise vanish into
                    // stderr; the counter surfaces them in the run report
                    // so `bench_all` can warn about silently truncated
                    // captures.
                    self.core.metrics.incr("trace.capture_errors", 1);
                    eprintln!("warning: trace capture {} failed: {e}", path.display());
                }
            }
        }
    }

    /// The one run protocol: applies the observability environment for a
    /// run named `name` (skipped when `name` is empty), runs to `until`, and
    /// flushes any capture.
    pub fn run_named(&mut self, name: &str, until: SimTime) {
        if !name.is_empty() {
            self.apply_observability_env(name);
        }
        self.run_until(until);
        self.finish_observability();
    }

    /// The part of a [`RunReport`] every experiment shares: the metrics
    /// snapshot, this run's payload-clone counters and event count, and the
    /// run's forensic identity — the `trace.fingerprint` meta key (always),
    /// the engine path (`engine.threads`; `engine.partition_events` and
    /// `engine.windows` when the parallel engine ran; `engine.fallback`, the
    /// planner's reason, when more than one thread was requested and the
    /// most recent run was sequential all the same), the `mem.*` footprint,
    /// and the `profile` block (when profiling ran).
    pub fn report(&self, name: &str) -> RunReport {
        let mut report = self.core.metrics.run_report(name);
        let stats = payload_stats::snapshot();
        report.set_metric("msg.payload_clones", stats.payload_clones as f64);
        report.set_metric("msg.bytes_cloned", stats.bytes_cloned as f64);
        report.set_metric("wire_size.computed", stats.wire_size_computed as f64);
        report.set_metric("engine.events_processed", self.events_processed as f64);
        let meta = &mut report.meta;
        meta.insert("trace.fingerprint".into(), self.fingerprint());
        meta.insert("engine.threads".into(), self.threads_used.to_string());
        if let Some(why) = self.fallback {
            meta.insert("engine.fallback".into(), why.as_str().into());
        }
        if !self.partition_events.is_empty() {
            let counts: Vec<String> = self.partition_events.iter().map(u64::to_string).collect();
            meta.insert("engine.partition_events".into(), counts.join(","));
        }
        if self.windows > 0 {
            meta.insert("engine.windows".into(), self.windows.to_string());
        }
        if self.peak_actor_bytes > 0 && self.node_count() > 0 {
            let per_node = self.peak_actor_bytes / self.node_count() as u64;
            meta.insert(
                "mem.resident_bytes".into(),
                self.peak_actor_bytes.to_string(),
            );
            meta.insert("mem.bytes_per_node".into(), per_node.to_string());
        }
        if let Some(p) = &self.core.profile {
            p.stamp(&self.kind_names, &mut report);
        }
        report
    }

    /// Installs a fault plan. Must be called before [`Sim::run_until`] to
    /// have crash events scheduled.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.core.faults = faults;
    }

    /// Requests `threads` lookahead-window workers for subsequent
    /// [`Sim::run_until`] calls (clamped to at least 1; the construction
    /// default comes from `PREDIS_SIM_THREADS`). The engine falls back to
    /// the sequential scheduler whenever a parallel run cannot help:
    /// nothing queued before the horizon, fewer than two partitions, or a
    /// zero lookahead — and stamps which as `engine.fallback`. The
    /// profiler, a capture, network jitter and randomized message omission
    /// all run fine in parallel. Results are bit-identical either way.
    pub fn set_sim_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Lookahead windows (barriers) the parallel engine has executed
    /// so far, cumulative over the simulation's lifetime. Zero when every
    /// run was sequential.
    pub fn windows_run(&self) -> u64 {
        self.windows
    }

    /// Declares partition affinity: nodes listed in one group are placed in
    /// the same partition by the parallel planner (groups are packed onto
    /// workers; nodes not mentioned get singleton groups). Experiments use
    /// this to keep a zone's members together so intra-zone traffic never
    /// crosses a partition boundary.
    pub fn set_partition_hint(&mut self, groups: Vec<Vec<NodeId>>) {
        self.partition_hint = Some(groups);
    }

    /// Workers actually used by the most recent [`Sim::run_until`]
    /// (1 = it ran sequentially).
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    /// Events dispatched per partition during the most recent parallel run
    /// (empty when the last run was sequential).
    pub fn partition_event_counts(&self) -> &[u64] {
        &self.partition_events
    }

    /// Adds a node with the given link config and behaviour; its
    /// [`Actor::on_start`] runs at time `start_at` (use
    /// [`SimTime::ZERO`] for initial members; later times model joins).
    ///
    /// # Panics
    ///
    /// Panics if `start_at` is before [`Sim::now`], or if the simulation
    /// already holds [`MAX_NODES`] nodes: an event's order key has 24 bits
    /// for its creator, and node `i` is creator `i + 1`. (The setups reject
    /// a world that large as an input error before building it.)
    #[track_caller]
    pub fn add_node(
        &mut self,
        link: LinkConfig,
        actor: Box<dyn Actor<M>>,
        start_at: SimTime,
    ) -> NodeId {
        assert!(
            self.node_count() < MAX_NODES,
            "cannot add a node: the simulation already holds {MAX_NODES}, \
             the most an event's 24-bit creator slot can name"
        );
        assert!(
            start_at >= self.now,
            "cannot start a node in the past: {start_at} is before now, {}",
            self.now
        );
        let kind = self.intern_kind(actor.kind_name());
        let index = self.node_count() as u64;
        let node_seed = self.net_rng.gen::<u64>() ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let rng = SmallRng::seed_from_u64(node_seed);
        let id = self.core.add_node(link, actor, rng, kind);
        self.crash_scheduled.push(false);
        self.schedule_from_driver(start_at, id, EventKind::Start);
        id
    }

    /// The dense kind index of an actor whose raw kind name is `raw`, for
    /// dispatch profiling: the hot path indexes by it and never touches the
    /// name again. Raw names that shorten alike share one index.
    fn intern_kind(&mut self, raw: &'static str) -> u16 {
        if let Some(&(_, kind)) = self.raw_kinds.iter().find(|(seen, _)| *seen == raw) {
            return kind;
        }
        let short = short_type_name(raw);
        let kind = match self.kind_names.iter().position(|k| *k == short) {
            Some(kind) => kind,
            None => {
                self.kind_names.push(short);
                self.kind_names.len() - 1
            }
        } as u16;
        self.raw_kinds.push((raw, kind));
        kind
    }

    /// Files an event the driver creates. Its key is creator slot 0, so at
    /// one instant it pops before anything a node's dispatch created.
    fn schedule_from_driver(&mut self, at: SimTime, node: NodeId, kind: EventKind<M>) {
        let seq = order_key(0, &mut self.driver_events);
        self.queue.push(Event {
            at,
            seq,
            node,
            kind,
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.core.network.len()
    }

    /// Number of events processed so far (for throughput accounting and
    /// budget checks in tests).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The measurement sink.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The network model (bandwidth accounting lives here).
    pub fn network(&self) -> &Network {
        &self.core.network
    }

    /// Mutable access to the network model, for re-rating links or setting
    /// jitter on a built world before it starts.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.core.network
    }

    /// Downcasts the actor at `node` to a concrete type for post-run
    /// inspection; `None` if the type does not match or the node was removed.
    pub fn actor_as<A: 'static>(&self, node: NodeId) -> Option<&A> {
        let actor = self.core.nodes.get(node.index())?.actor.as_deref()?;
        (actor as &dyn Any).downcast_ref::<A>()
    }

    /// The mutable twin of [`Sim::actor_as`], for configuring an actor of a
    /// built world before it starts.
    pub fn actor_as_mut<A: 'static>(&mut self, node: NodeId) -> Option<&mut A> {
        let actor = self.core.nodes.get_mut(node.index())?;
        (actor.actor.as_deref_mut()? as &mut dyn Any).downcast_mut::<A>()
    }

    /// Injects a message from the outside world (no bandwidth accounting on
    /// the sender side), delivered to `to` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`Sim::now`], or if `to` is not a node of
    /// this simulation (a *sent* message to such a node is an accounted
    /// drop; an injected one is a caller bug).
    #[track_caller]
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: M, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot inject into the past: {at} is before now, {}",
            self.now
        );
        assert!(
            to.index() < self.node_count(),
            "cannot inject to {to}: the simulation has {} nodes",
            self.node_count()
        );
        let bytes = msg.wire_size();
        self.schedule_from_driver(at, to, EventKind::Deliver { from, msg, bytes });
    }

    fn schedule_crashes(&mut self) {
        for idx in 0..self.node_count() {
            if self.crash_scheduled[idx] {
                continue;
            }
            let node = NodeId(idx as u32);
            let windows: Vec<_> = self.core.faults.crash_windows(node).collect();
            if windows.is_empty() {
                continue;
            }
            self.crash_scheduled[idx] = true;
            for (at, until) in windows {
                self.schedule_from_driver(at, node, EventKind::Crash);
                if let Some(r) = until {
                    self.schedule_from_driver(r, node, EventKind::Revive);
                }
            }
        }
    }

    /// Runs the simulation until `horizon` (inclusive of events at exactly
    /// `horizon`); afterwards `now() == horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is before [`Sim::now`]: the clock never runs
    /// back, so nothing the driver files later can land behind an event
    /// already dispatched.
    #[track_caller]
    pub fn run_until(&mut self, horizon: SimTime) {
        assert!(
            horizon >= self.now,
            "cannot run into the past: {horizon} is before now, {}",
            self.now
        );
        self.schedule_crashes();
        // More than one thread requested: the parallel engine runs the whole
        // span, or names the gate condition that sends the run back here.
        self.fallback = None;
        if self.threads > 1 {
            self.fallback = crate::parallel::run_until_parallel(self, horizon).err();
        }
        if self.threads == 1 || self.fallback.is_some() {
            self.threads_used = 1;
            self.partition_events.clear();
            self.events_processed += self.core.drain(&mut self.queue, horizon);
        }
        self.now = horizon;
        self.sample_memory();
    }

    /// Samples Σ [`Actor::approx_bytes`] over all live actors and folds it
    /// into the peak. Runs once per `run_until` (experiments that advance
    /// the clock in steps get one sample per step — "periodic" at the
    /// caller's cadence) so the O(nodes) walk never sits on the event hot
    /// path. Deterministic: it reads actor state, never wall-clock RSS.
    fn sample_memory(&mut self) {
        let total: u64 = self
            .core
            .nodes
            .iter()
            .filter_map(|n| n.actor.as_deref())
            .map(|a| a.approx_bytes() as u64)
            .sum();
        self.peak_actor_bytes = self.peak_actor_bytes.max(total);
    }

    /// Peak of the summed actor footprint so far (0 before any run).
    pub fn peak_actor_bytes(&self) -> u64 {
        self.peak_actor_bytes
    }
}

/// The construction-time default worker count: `PREDIS_SIM_THREADS` when it
/// parses to a positive integer, else 1 (sequential).
fn sim_threads_from_env() -> usize {
    std::env::var("PREDIS_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl<M> std::fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.core.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::actor::{Context, TimerTag};
    use crate::metrics::Labels;
    use crate::net::LatencyModel;
    use crate::time::SimDuration;

    #[derive(Debug, Clone)]
    enum Msg {
        Ping(u64),
        Pong(#[allow(dead_code)] u64),
    }
    impl Payload for Msg {
        fn wire_size(&self) -> usize {
            64
        }
    }

    /// Sends a ping to everyone on start; replies pong to pings; counts pongs.
    #[derive(Debug, Default)]
    struct PingPong {
        pongs: u64,
        pings_seen: u64,
    }

    impl Actor<Msg> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let me = ctx.node();
            let all: Vec<NodeId> = (0..ctx.node_count())
                .map(NodeId)
                .filter(|&n| n != me)
                .collect();
            ctx.multicast(all, Msg::Ping(me.0 as u64));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(x) => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong(x));
                }
                Msg::Pong(_) => {
                    self.pongs += 1;
                    ctx.metrics().incr("pongs", 1);
                }
            }
        }
    }

    fn build(n: usize, seed: u64) -> Sim<Msg> {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim = Sim::new(seed, net);
        for _ in 0..n {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::new(PingPong::default()),
                SimTime::ZERO,
            );
        }
        sim
    }

    #[test]
    fn all_pings_are_ponged() {
        let mut sim = build(4, 42);
        sim.run_until(SimTime::from_secs(1));
        // 4 nodes * 3 peers pings, each ponged.
        assert_eq!(sim.metrics().counter("pongs"), 12);
        for i in 0..4 {
            let a = sim.actor_as::<PingPong>(NodeId(i)).unwrap();
            assert_eq!(a.pongs, 3);
            assert_eq!(a.pings_seen, 3);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = build(5, 7);
        let mut b = build(5, 7);
        a.run_until(SimTime::from_secs(2));
        b.run_until(SimTime::from_secs(2));
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.metrics().counter("pongs"), b.metrics().counter("pongs"));
        assert_eq!(
            a.network().bytes_sent(NodeId(0)),
            b.network().bytes_sent(NodeId(0))
        );
    }

    #[test]
    fn crashed_node_goes_silent() {
        let mut sim = build(4, 1);
        let mut faults = FaultPlan::none();
        // Crash node 3 before start: it never pings or pongs.
        faults.crash(NodeId(3), SimTime::ZERO);
        sim.set_faults(faults);
        sim.run_until(SimTime::from_secs(1));
        // Node 3 sends nothing; others get pongs only from 2 live peers.
        let a = sim.actor_as::<PingPong>(NodeId(0)).unwrap();
        assert_eq!(a.pongs, 2);
    }

    #[test]
    fn timers_fire_and_cancel() {
        #[derive(Debug, Default)]
        struct T {
            fired: Vec<u32>,
        }
        impl Actor<Msg> for T {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(10), TimerTag::of_kind(1));
                let cancel_me = ctx.set_timer(SimDuration::from_millis(20), TimerTag::of_kind(2));
                ctx.set_timer(SimDuration::from_millis(30), TimerTag::of_kind(3));
                ctx.cancel_timer(cancel_me);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, tag: TimerTag) {
                self.fired.push(tag.kind);
            }
        }
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(0, net);
        let n = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(T::default()),
            SimTime::ZERO,
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.actor_as::<T>(n).unwrap().fired, vec![1, 3]);
    }

    #[test]
    fn late_start_models_join() {
        let mut sim = build(2, 9);
        // Add a third node that joins at t=10s.
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(PingPong::default()),
            SimTime::from_secs(10),
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.actor_as::<PingPong>(NodeId(2)).unwrap().pings_seen, 0);
        sim.run_until(SimTime::from_secs(20));
        // After joining it pinged both peers and they ponged.
        assert_eq!(sim.actor_as::<PingPong>(NodeId(2)).unwrap().pongs, 2);
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut sim = build(2, 3);
        sim.run_until(SimTime::from_secs(1));
        let before = sim.actor_as::<PingPong>(NodeId(0)).unwrap().pings_seen;
        sim.inject(NodeId(0), NodeId(1), Msg::Ping(99), SimTime::from_secs(2));
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(
            sim.actor_as::<PingPong>(NodeId(0)).unwrap().pings_seen,
            before + 1
        );
    }

    #[test]
    #[should_panic(expected = "past")]
    fn inject_rejects_past() {
        let mut sim = build(2, 3);
        sim.run_until(SimTime::from_secs(5));
        sim.inject(NodeId(0), NodeId(1), Msg::Ping(1), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "cannot inject to n2: the simulation has 2 nodes")]
    fn inject_rejects_unknown_node() {
        let mut sim = build(2, 3);
        sim.inject(NodeId(2), NodeId(1), Msg::Ping(1), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "cannot run into the past: 1.000000s is before now, 5.000000s")]
    fn run_until_rejects_an_earlier_horizon() {
        let mut sim = build(2, 3);
        sim.run_until(SimTime::from_secs(5));
        sim.run_until(SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(
        expected = "cannot start a node in the past: 1.000000s is before now, 5.000000s"
    )]
    fn add_node_rejects_a_start_in_the_past() {
        let mut sim = build(2, 3);
        sim.run_until(SimTime::from_secs(5));
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(PingPong::default()),
            SimTime::from_secs(1),
        );
    }

    /// A self-rearming ticker: counts fires; on_start arms one chain.
    #[derive(Debug, Default)]
    struct Ticker {
        fired: u32,
        starts: u32,
        period: SimDuration,
    }
    impl Ticker {
        fn with_period(period: SimDuration) -> Self {
            Ticker {
                period,
                ..Ticker::default()
            }
        }
    }
    impl Actor<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.starts += 1;
            ctx.set_timer(self.period, TimerTag::of_kind(1));
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerTag) {
            self.fired += 1;
            ctx.set_timer(self.period, TimerTag::of_kind(1));
        }
    }

    #[test]
    fn revive_reruns_start_and_invalidates_old_timers() {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(5, net);
        let n = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(Ticker::with_period(SimDuration::from_millis(100))),
            SimTime::ZERO,
        );
        let mut faults = FaultPlan::none();
        faults.crash_for(n, SimTime::from_secs(2), SimTime::from_secs(3));
        sim.set_faults(faults);
        sim.run_until(SimTime::from_secs(4));
        let t = sim.actor_as::<Ticker>(n).unwrap();
        // on_start ran twice: initial + revival.
        assert_eq!(t.starts, 2);
        // ~10 fires per live second; if the pre-crash chain survived
        // revival, the post-revival rate would double (~40 fires total).
        assert!(
            (28..=32).contains(&t.fired),
            "expected ~30 fires (no double chains), got {}",
            t.fired
        );
        // State persisted across the crash (not a fresh actor).
        assert!(t.fired > 20);
    }

    #[test]
    fn messages_during_crash_window_are_lost_but_later_ones_deliver() {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(6, net);
        let a = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(PingPong::default()),
            SimTime::ZERO,
        );
        let b = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(PingPong::default()),
            SimTime::ZERO,
        );
        let mut faults = FaultPlan::none();
        faults.crash_for(b, SimTime::from_secs(2), SimTime::from_secs(3));
        sim.set_faults(faults);
        sim.run_until(SimTime::from_secs(1));
        let before = sim.actor_as::<PingPong>(b).unwrap().pings_seen;
        // Sent while b is down: lost.
        sim.inject(b, a, Msg::Ping(1), SimTime::from_millis(2500));
        // Sent after revival: delivered.
        sim.inject(b, a, Msg::Ping(2), SimTime::from_millis(3500));
        sim.run_until(SimTime::from_secs(4));
        let after = sim.actor_as::<PingPong>(b).unwrap().pings_seen;
        assert_eq!(after, before + 1, "exactly the post-revival ping arrives");
    }

    /// Counts starts and messages; never re-arms anything.
    #[derive(Debug, Default)]
    struct Counter {
        starts: u32,
        messages: u32,
    }
    impl Actor<Msg> for Counter {
        fn on_start(&mut self, _: &mut Context<'_, Msg>) {
            self.starts += 1;
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            self.messages += 1;
        }
    }

    #[test]
    fn deliver_at_revive_tick_is_processed_despite_earlier_seq() {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(8, net);
        let n = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(Counter::default()),
            SimTime::ZERO,
        );
        let mut faults = FaultPlan::none();
        faults.crash_for(n, SimTime::from_secs(2), SimTime::from_secs(3));
        sim.set_faults(faults);
        // Injected before the first run, so its order key precedes the
        // bookkeeping revive event's — the scheduler pops it first at t=3s.
        sim.inject(n, n, Msg::Ping(1), SimTime::from_secs(3));
        sim.run_until(SimTime::from_secs(4));
        let c = sim.actor_as::<Counter>(n).unwrap();
        assert_eq!(
            c.messages, 1,
            "a deliver at exactly the revive tick must be processed"
        );
        // Inline revival ran on_start once; the later bookkeeping revive
        // event must not run it again.
        assert_eq!(c.starts, 2, "initial start + exactly one revival");
    }

    #[test]
    fn voluntary_halt_is_not_resurrected_by_revive() {
        #[derive(Debug, Default)]
        struct Leaver {
            starts: u32,
            fired: u32,
        }
        impl Actor<Msg> for Leaver {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.starts += 1;
                ctx.set_timer(SimDuration::from_secs(1), TimerTag::of_kind(1));
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerTag) {
                self.fired += 1;
                ctx.halt(); // leaves the network for good
            }
        }
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(9, net);
        let n = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(Leaver::default()),
            SimTime::ZERO,
        );
        // A crash window scheduled after the voluntary departure: its revive
        // event must not bring the node back.
        let mut faults = FaultPlan::none();
        faults.crash_for(n, SimTime::from_secs(2), SimTime::from_secs(3));
        sim.set_faults(faults);
        sim.inject(n, n, Msg::Ping(1), SimTime::from_millis(3500));
        sim.run_until(SimTime::from_secs(5));
        let l = sim.actor_as::<Leaver>(n).unwrap();
        assert_eq!(l.starts, 1, "revive must not re-start a voluntary leaver");
        assert_eq!(l.fired, 1);
    }

    #[test]
    fn churn_windows_crash_and_revive_repeatedly() {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(10, net);
        let n = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(Ticker::with_period(SimDuration::from_millis(100))),
            SimTime::ZERO,
        );
        let mut faults = FaultPlan::none();
        faults
            .crash_for(n, SimTime::from_secs(1), SimTime::from_secs(2))
            .crash_for(n, SimTime::from_secs(3), SimTime::from_secs(4));
        sim.set_faults(faults);
        sim.run_until(SimTime::from_secs(5));
        let t = sim.actor_as::<Ticker>(n).unwrap();
        // Initial start plus one revival per window.
        assert_eq!(t.starts, 3);
        // ~10 fires per live second, three live seconds, one chain.
        assert!(
            (26..=32).contains(&t.fired),
            "expected ~30 fires across two outages, got {}",
            t.fired
        );
    }

    #[test]
    fn sends_to_unknown_nodes_account_full_drop_metrics() {
        #[derive(Debug)]
        struct Stray;
        impl Actor<Msg> for Stray {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(NodeId(7), Msg::Ping(0)); // no such node
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(2, net);
        sim.add_node(LinkConfig::paper_default(), Box::new(Stray), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(1));
        let m = sim.metrics();
        assert_eq!(m.counter("net.dropped"), 1);
        assert_eq!(m.counter("net.dropped_bytes"), 64);
        assert_eq!(m.labeled_counter("node.drops", Labels::node(7)), 1);
        // The send is still counted even though it never hit a wire.
        assert_eq!(m.counter("net.messages"), 1);
        assert_eq!(m.counter("net.bytes"), 64);
    }

    #[test]
    fn far_future_timers_cross_the_wheel_horizon() {
        // A 12-hour period exceeds the wheel's 2^45 ns ≈ 9.8 h horizon, so
        // every re-arm lands in the far heap and is pulled back in.
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(11, net);
        let n = sim.add_node(
            LinkConfig::paper_default(),
            Box::new(Ticker::with_period(SimDuration::from_secs(12 * 3600))),
            SimTime::ZERO,
        );
        sim.run_until(SimTime::from_secs(72 * 3600));
        assert_eq!(sim.actor_as::<Ticker>(n).unwrap().fired, 6);
    }

    #[test]
    fn fingerprint_is_identical_across_reruns_and_sensitive_to_inputs() {
        let run = |seed: u64, n: usize| {
            let mut sim = build(n, seed);
            sim.run_until(SimTime::from_secs(1));
            (sim.fingerprint(), sim.digest().count())
        };
        let (fp_a, folded) = run(42, 4);
        let (fp_b, _) = run(42, 4);
        assert_eq!(fp_a, fp_b, "identical runs must fingerprint identically");
        assert_eq!(fp_a.len(), 32);
        // The digest saw every processed event.
        let mut sim = build(4, 42);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(folded, sim.events_processed());
        // A different node count, or one extra injected message, changes
        // the stream and therefore the print. (A different *seed* need not:
        // on a zero-jitter LAN the PingPong stream is seed-independent.)
        assert_ne!(run(42, 5).0, fp_a);
        let mut perturbed = build(4, 42);
        perturbed.inject(
            NodeId(0),
            NodeId(1),
            Msg::Ping(99),
            SimTime::from_millis(500),
        );
        perturbed.run_until(SimTime::from_secs(1));
        assert_ne!(perturbed.fingerprint(), fp_a);
    }

    #[test]
    fn profiled_run_attributes_dispatch_time_per_actor_kind() {
        let mut sim = build(4, 7);
        sim.enable_profiling();
        sim.run_until(SimTime::from_secs(1));
        let p = sim.profile().expect("profiling enabled");
        assert_eq!(p.events(), sim.events_processed());
        assert!(p.run_ns() > 0);
        assert!(
            p.attributed_ns() <= p.run_ns(),
            "cells cannot exceed the loop total"
        );
        // On a real (non-virtualized-clock) machine nearly all loop time is
        // charged to cells; keep the test bound loose to avoid flakiness.
        assert!(
            p.attributed_ns() * 2 >= p.run_ns(),
            "attributed {} of {} ns",
            p.attributed_ns(),
            p.run_ns()
        );
        assert_eq!(sim.kind_names(), &["PingPong".to_string()]);
        let report = sim.report("profiled");
        assert_eq!(report.meta.get("trace.fingerprint").unwrap().len(), 32);
        assert!(!report.profile.is_empty());
        assert!(report.profile.iter().all(|e| e.actor == "PingPong"));
        let deliver: u64 = report
            .profile
            .iter()
            .filter(|e| e.event == "deliver")
            .map(|e| e.count)
            .sum();
        let start: u64 = report
            .profile
            .iter()
            .filter(|e| e.event == "start")
            .map(|e| e.count)
            .sum();
        assert_eq!(start, 4);
        assert_eq!(deliver + start, sim.events_processed());
        // Profiling must not perturb the simulated outcome.
        let mut plain = build(4, 7);
        plain.run_until(SimTime::from_secs(1));
        assert_eq!(sim.fingerprint(), plain.fingerprint());
    }

    /// Two types whose names differ only in their module path.
    mod twin_a {
        #[derive(Debug)]
        pub struct Twin;
    }
    mod twin_b {
        #[derive(Debug)]
        pub struct Twin;
    }
    impl Actor<Msg> for twin_a::Twin {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
    }
    impl Actor<Msg> for twin_b::Twin {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
    }

    #[test]
    fn raw_kinds_that_shorten_alike_share_one_kind() {
        let mut sim = build(1, 3);
        sim.enable_profiling();
        let link = LinkConfig::paper_default;
        sim.add_node(link(), Box::new(twin_a::Twin), SimTime::ZERO);
        sim.add_node(link(), Box::new(twin_b::Twin), SimTime::ZERO);
        sim.add_node(link(), Box::new(twin_a::Twin), SimTime::ZERO);
        assert_eq!(sim.raw_kinds.len(), 3, "each raw name is cached once");
        assert_eq!(
            sim.kind_names(),
            &["PingPong".to_string(), "Twin".to_string()]
        );
        sim.run_until(SimTime::from_secs(1));
        let report = sim.report("twins");
        let starts = |actor: &str| {
            let starts = report.profile.iter().filter(|e| e.event == "start");
            starts
                .filter(|e| e.actor == actor)
                .map(|e| e.count)
                .sum::<u64>()
        };
        assert_eq!((starts("PingPong"), starts("Twin")), (1, 3));
    }

    #[test]
    fn capture_streams_one_line_per_canonical_event() {
        let dir = std::env::temp_dir().join(format!("predis-engine-test-{}", std::process::id()));
        let path = dir.join("capture.trace.jsonl");
        let mut sim = build(3, 21);
        sim.enable_capture(&path).expect("start capture");
        sim.run_until(SimTime::from_secs(1));
        sim.finish_observability();
        let text = std::fs::read_to_string(&path).expect("capture written");
        assert_eq!(text.lines().count() as u64, sim.events_processed());
        assert!(text.starts_with("{\"t\":0,\"seq\":0,\"node\":0,\"kind\":\"start\""));
        assert!(text.contains("\"kind\":\"deliver\""));
        // The timelines sidecar appears next to the capture (empty run ⇒
        // empty file, but it exists).
        assert!(dir.join("capture.timelines.jsonl").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capture_io_errors_surface_as_a_counter() {
        // /dev/full accepts the open but fails every flushed write with
        // ENOSPC — a deterministic stand-in for a disk filling up mid-run.
        if !std::path::Path::new("/dev/full").exists() {
            return; // non-Linux dev machine; CI (Linux) always runs this
        }
        let mut sim = build(3, 21);
        sim.enable_capture("/dev/full").expect("open capture");
        sim.run_until(SimTime::from_secs(1));
        sim.finish_observability();
        let report = sim.metrics().run_report("capture_errors");
        assert_eq!(report.counter_total("trace.capture_errors"), 1);
        // A healthy capture never touches the counter.
        let dir = std::env::temp_dir().join(format!("predis-engine-ok-{}", std::process::id()));
        let mut ok = build(3, 21);
        ok.enable_capture(dir.join("ok.trace.jsonl")).expect("open");
        ok.run_until(SimTime::from_secs(1));
        ok.finish_observability();
        let report = ok.metrics().run_report("capture_ok");
        assert_eq!(report.counter_total("trace.capture_errors"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Order pinning. A zero-size message has no serialization delay, so it
    /// lands exactly one 25 ms LAN hop after it is sent: every probe below
    /// makes its events meet at one instant.
    #[derive(Debug, Clone)]
    struct Tag(u32);
    impl Payload for Tag {
        fn wire_size(&self) -> usize {
            0
        }
    }

    /// The timer tag a probe logs as 0 when its echo timer fires.
    const ECHO: u32 = 7;

    /// Sends tagged messages to node 0 — from `on_start`, or from a
    /// zero-delay timer armed there — and logs, in pop order, the tags of
    /// what it is handed; on receiving `echo_on` it arms a zero-delay timer
    /// (logged as 0).
    #[derive(Debug, Default)]
    struct Probe {
        start_sends: Vec<u32>,
        timer_sends: Vec<u32>,
        echo_on: Option<u32>,
        log: Vec<u32>,
    }
    impl Actor<Tag> for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_, Tag>) {
            for &tag in &self.start_sends {
                ctx.send(NodeId(0), Tag(tag));
            }
            if !self.timer_sends.is_empty() {
                ctx.set_timer(SimDuration::ZERO, TimerTag::of_kind(1));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Tag>, _: NodeId, Tag(tag): Tag) {
            self.log.push(tag);
            if self.echo_on == Some(tag) {
                ctx.set_timer(SimDuration::ZERO, TimerTag::of_kind(ECHO));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Tag>, tag: TimerTag) {
            if tag.kind == ECHO {
                return self.log.push(0);
            }
            for &tag in &self.timer_sends {
                ctx.send(NodeId(0), Tag(tag));
            }
        }
    }

    /// Runs `probes` (node `i` is `probes[i]`) on `threads` (node 0 alone in
    /// its partition), capturing to `capture` if given, and injecting
    /// `Tag(99)` for node 0 at 25 ms once 10 ms have run.
    fn probe_run(probes: Vec<Probe>, threads: usize, capture: Option<&Path>) -> Sim<Tag> {
        let mut sim = Sim::new(1, Network::new(LatencyModel::lan(), SimDuration::ZERO));
        sim.set_sim_threads(threads);
        for probe in probes {
            sim.add_node(LinkConfig::paper_default(), Box::new(probe), SimTime::ZERO);
        }
        let rest = (1..sim.node_count() as u32).map(NodeId).collect();
        sim.set_partition_hint(vec![vec![NodeId(0)], rest]);
        if let Some(path) = capture {
            sim.enable_capture(path).expect("start capture");
        }
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.threads_used(), threads);
        sim.inject(NodeId(0), NodeId(0), Tag(99), SimTime::from_millis(25));
        sim.run_until(SimTime::from_secs(1));
        sim.finish_observability();
        sim
    }

    /// What node 0 logged running `probes` on one thread and on two.
    fn node0_logs(probes: impl Fn() -> Vec<Probe>) -> Vec<Vec<u32>> {
        [1, 2]
            .map(|threads| {
                let sim = probe_run(probes(), threads, None);
                sim.actor_as::<Probe>(NodeId(0)).unwrap().log.clone()
            })
            .into()
    }

    /// At one instant the driver's events pop first — even one created
    /// after everything else — then node-created events by creator index,
    /// then in creation order: node 3 sends before node 1 does (its start
    /// pops before node 1's timer), and node 1's messages pop first.
    #[test]
    fn same_instant_events_pop_driver_first_then_by_creator_and_counter() {
        let probes = || {
            vec![
                Probe::default(),
                Probe {
                    timer_sends: vec![10, 11],
                    ..Probe::default()
                },
                Probe::default(),
                Probe {
                    start_sends: vec![30, 31],
                    ..Probe::default()
                },
            ]
        };
        for log in node0_logs(probes) {
            assert_eq!(log, [99, 10, 11, 30, 31]);
        }
    }

    /// The probe world where an event keyed below the one dispatching it
    /// pops next: node 2 and node 3 message node 0 at 25 ms, and node 0
    /// echoes node 2's message with a zero-delay timer.
    fn keyed_below_probes() -> Vec<Probe> {
        vec![
            Probe {
                echo_on: Some(20),
                ..Probe::default()
            },
            Probe::default(),
            Probe {
                start_sends: vec![20],
                ..Probe::default()
            },
            Probe {
                start_sends: vec![30],
                ..Probe::default()
            },
        ]
    }

    /// An event scheduled at `now` whose key is below the key of the event
    /// being dispatched pops next: node 0's echo timer (creator 1) comes
    /// between node 2's message that armed it (creator 3) and node 3's
    /// (creator 4), all at 25 ms.
    #[test]
    fn an_event_keyed_below_the_one_dispatching_pops_next() {
        for log in node0_logs(keyed_below_probes) {
            assert_eq!(log, [99, 20, 0, 30]);
        }
    }

    /// A capture is written in pop order, which is not `(t, seq)` order
    /// here: the echo timer's line follows the line of the message that
    /// armed it although its key is smaller. On two threads the barrier
    /// merges the workers' window buffers by their heads, so the file is
    /// the one-thread file byte for byte; a merge that sorted by `(t, seq)`
    /// would move the timer's line up.
    #[test]
    fn two_thread_capture_keeps_pop_order_where_it_is_not_key_order() {
        let dir = std::env::temp_dir().join(format!("predis-engine-pop-{}", std::process::id()));
        let capture = |threads: usize| {
            let path = dir.join(format!("t{threads}.trace.jsonl"));
            let sim = probe_run(keyed_below_probes(), threads, Some(&path));
            assert_eq!(sim.windows_run() > 0, threads > 1);
            std::fs::read_to_string(&path).expect("capture written")
        };
        let one = capture(1);
        assert!(one == capture(2), "the two captures differ");
        let keys: Vec<(u64, u64)> = one
            .lines()
            .map(|line| {
                let mut numbers = line
                    .split(|c: char| !c.is_ascii_digit())
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().expect("a number"));
                (numbers.next().unwrap(), numbers.next().unwrap())
            })
            .collect();
        assert!(keys.windows(2).any(|w| w[0] > w[1]), "lines in key order");
        std::fs::remove_dir_all(&dir).ok();
    }
}
