//! The chaos fixture shared by the differential suites of `parallel.rs`
//! (1 vs N threads, adaptive vs fixed stride, profiled and captured at 1
//! and 2 threads): a workload that reaches every arm of the engine core,
//! and the equivalence every scheduler must meet on it. The queue's own
//! oracle, `ClassicHeap`, is driven at queue level in `queue.rs`.

use rand::Rng;

use crate::actor::{Actor, Context, NodeId, Payload, TimerId, TimerTag};
use crate::engine::Sim;
use crate::faults::FaultPlan;
use crate::metrics::{CounterHandle, Labels};
use crate::net::{LatencyModel, LinkConfig, Network, Region};
use crate::time::{SimDuration, SimTime};

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Msg {
    Ping(u64),
    Pong(u64),
    /// Zero wire size: no serialization delay, so its arrival time is
    /// exactly `send time + propagation` — the lookahead boundary.
    Instant,
}

impl Payload for Msg {
    fn wire_size(&self) -> usize {
        match self {
            Msg::Ping(_) | Msg::Pong(_) => 64,
            Msg::Instant => 0,
        }
    }
}

/// The node that leaves for good mid-run, and when.
pub(crate) const LEAVER: NodeId = NodeId(1);
const LEAVE_AT: SimTime = SimTime::from_millis(1800);
const LEAVE: u32 = 9;

/// Randomized actor whose every decision comes from the node's
/// deterministic RNG — identical behaviour under any scheduler that
/// replays the same per-node event order.
#[derive(Debug)]
pub(crate) struct Chaos {
    held: Vec<TimerId>,
    budget: u32,
    /// Minted in the constructor, before any metrics sink exists.
    acts: CounterHandle,
    /// Minted in `on_start`, which may run on a partition worker (a late
    /// join, a revival) while the engine's sink is forked.
    acts_by_node: Option<CounterHandle>,
}

impl Default for Chaos {
    fn default() -> Chaos {
        Chaos {
            held: Vec::new(),
            budget: 0,
            acts: CounterHandle::of("chaos.acts", Labels::GLOBAL),
            acts_by_node: None,
        }
    }
}

impl Chaos {
    fn act(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        // Sends, multicasts and timers keep the weights that make the
        // workload self-sustaining until the budget runs out.
        match ctx.rng().gen_range(0..12u32) {
            0 | 1 => {
                let n = ctx.node_count();
                let to = NodeId(ctx.rng().gen_range(0..n));
                ctx.send(to, Msg::Ping(self.budget as u64));
            }
            2 | 3 => {
                let all: Vec<NodeId> = (0..ctx.node_count()).map(NodeId).collect();
                ctx.multicast(all, Msg::Pong(self.budget as u64));
            }
            4..=7 => {
                let delay = SimDuration::from_millis(ctx.rng().gen_range(1..400));
                let id = ctx.set_timer(delay, TimerTag::of_kind(2));
                if ctx.rng().gen_bool(0.5) {
                    self.held.push(id);
                }
            }
            8 => {
                if let Some(id) = self.held.pop() {
                    ctx.cancel_timer(id);
                }
            }
            9 => self.stray(ctx),
            10 => self.measure(ctx),
            // A rare second way out, at whatever instant the draw lands (not
            // for the leaver, whose farewell every case relies on).
            11 if self.budget < 4 && ctx.node() != LEAVER => ctx.halt(),
            _ => {}
        }
    }

    /// A send to a node that was never added: a drop accounted in a cell
    /// nobody interned up front.
    fn stray(&mut self, ctx: &mut Context<'_, Msg>) {
        let beyond = ctx.node_count() + ctx.rng().gen_range(0..3u32);
        ctx.send(NodeId(beyond), Msg::Ping(0));
    }

    /// One write to every metrics store a worker fork merges back.
    fn measure(&mut self, ctx: &mut Context<'_, Msg>) {
        let (me, now) = (ctx.node().0 as u64, ctx.now());
        let sample = SimDuration::from_micros(ctx.rng().gen_range(1..50_000));
        let by_node = self.acts_by_node.expect("minted in on_start");
        let m = ctx.metrics();
        m.incr_handle(self.acts, 1);
        m.incr_handle(by_node, 1);
        m.record_latency("chaos.lat", sample);
        m.record_commit(now, me + 1);
        m.mark_arrival(me % 2, now);
    }
}

impl Actor<Msg> for Chaos {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = Labels::node(ctx.node().0 as u64);
        self.acts_by_node = Some(CounterHandle::of("chaos.acts_by_node", me));
        self.budget += 40;
        // Re-armed on every (re)start: a revival kills the old epoch's
        // timers, and the departure must not depend on the crash schedule.
        if ctx.node() == LEAVER && ctx.now() < LEAVE_AT {
            ctx.set_timer(
                LEAVE_AT.saturating_since(ctx.now()),
                TimerTag::of_kind(LEAVE),
            );
        }
        self.act(ctx);
        self.act(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
        self.act(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: TimerTag) {
        if tag.kind == LEAVE {
            // The farewell makes every generated case cover the arms the
            // draws above only probably reach — then the node is gone:
            // later traffic to it, and any crash window's revive, must
            // leave it halted under every scheduler.
            self.stray(ctx);
            self.measure(ctx);
            return ctx.halt();
        }
        self.act(ctx);
        self.act(ctx);
    }
}

/// A sim on `threads` workers with `nodes` chaos actors, a twice-crashing
/// node, optional jitter and omission loss, and the revive-boundary
/// injection.
pub(crate) fn chaos_sim(
    seed: u64,
    nodes: u32,
    crash_node: u32,
    regional: bool,
    jitter_ms: u64,
    omit: bool,
    threads: usize,
) -> Sim<Msg> {
    let model = if regional {
        LatencyModel::cn_wan()
    } else {
        LatencyModel::lan()
    };
    let net = Network::new(model, SimDuration::from_millis(jitter_ms));
    let mut sim = Sim::new(seed, net);
    sim.set_sim_threads(threads);
    for i in 0..nodes {
        let region = Region(if regional { (i % 4) as u8 } else { 0 });
        // The last node joins late to exercise unstarted delivery.
        let start = if i == nodes - 1 {
            SimTime::from_millis(700)
        } else {
            SimTime::ZERO
        };
        sim.add_node(
            LinkConfig::paper_default().in_region(region),
            Box::<Chaos>::default(),
            start,
        );
    }
    let mut faults = FaultPlan::none();
    if omit {
        // Randomized omission on one sender: exercises the counter-keyed
        // fault draws alongside the crash churn.
        faults.omit_outgoing(NodeId((crash_node + 1) % nodes), 0.2);
    }
    // Two windows on one node: churn, not a single crash-recovery.
    faults
        .crash_for(
            NodeId(crash_node % nodes),
            SimTime::from_millis(500),
            SimTime::from_millis(1500),
        )
        .crash_for(
            NodeId(crash_node % nodes),
            SimTime::from_millis(2500),
            SimTime::from_millis(3000),
        );
    sim.set_faults(faults);
    // Regression (revive boundary): this deliver lands at exactly the
    // revive tick and was sequenced *before* the bookkeeping revive event
    // (crash/revive seqs are allocated at the first run). It must be
    // processed, and identically by every scheduler.
    sim.inject(
        NodeId(crash_node % nodes),
        NodeId((crash_node + 1) % nodes),
        Msg::Ping(77),
        SimTime::from_millis(1500),
    );
    sim
}

/// Asserts that two sims which ran the same workload are in identical
/// observable state: the event stream, and everything a report reads from
/// the metrics stores. Raw commit and arrival *order* is not compared —
/// `Metrics::absorb_worker` leaves it unspecified across shards, and every
/// consumer sorts or buckets.
pub(crate) fn assert_equivalent(a: &Sim<Msg>, b: &Sim<Msg>) {
    assert_eq!(a.events_processed(), b.events_processed());
    assert_eq!(a.fingerprint(), b.fingerprint(), "fingerprints diverged");
    let (ma, mb) = (a.metrics(), b.metrics());
    assert!(ma.counters() == mb.counters(), "counter cells diverged");
    // The report snapshot: the counter cells once more, as a report renders
    // them, and every latency histogram.
    assert_eq!(
        ma.run_report("chaos").to_json(),
        mb.run_report("chaos").to_json(),
        "reports diverged"
    );
    let (bucket, until) = (SimDuration::from_millis(250), a.now());
    assert_eq!(
        ma.throughput_series(bucket, until),
        mb.throughput_series(bucket, until),
        "throughput series diverged"
    );
    let arrivals = |m: &crate::metrics::Metrics| {
        let mut keys: Vec<u64> = m.arrival_keys().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                let mut times = m.arrivals(k).to_vec();
                times.sort_unstable();
                (k, times)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(arrivals(ma), arrivals(mb), "arrivals diverged");
}

/// Asserts that the run reached the arms a plain send/timer workload never
/// does: an unknown-destination drop, a voluntary halt that stuck, and a
/// latency histogram with samples.
pub(crate) fn assert_covers_the_rare_arms(sim: &Sim<Msg>) {
    assert!(sim.now() > LEAVE_AT, "the run must outlast the departure");
    assert!(sim.metrics().counter("net.dropped") > 0);
    assert!(sim.metrics().latency_count("chaos.lat") > 0);
    let leaver = &sim.core.nodes[LEAVER.index()];
    assert!(
        leaver.halted && !leaver.crash_halted,
        "the leaver must stay voluntarily halted"
    );
}
