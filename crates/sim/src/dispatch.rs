//! The engine core: the one dispatch loop, and the one rule for what a
//! popped event does.
//!
//! [`Core`] holds the state a dispatch touches — one [`NodeRecord`] per
//! node, the [`Network`], the [`FaultPlan`], the metrics sink and the
//! engine's counter handles, the optional capture and dispatch profiler,
//! the pooled op buffer — and owns the crate's only dispatch loop
//! (`drain`), `dispatch`, `run_on_start`, `apply_ops` and `record_drop`.
//! The sequential scheduler runs it over every node; a partition worker of
//! the parallel engine runs the same code over the records of its
//! partition, once per window. The one thing the two disagree on — where a
//! new event goes, and where the next one comes from — is the
//! [`Sequencer`] they hand it. How a new event is ordered is not theirs to
//! decide: its creator fixes its key ([`order_key`]).

use std::time::Instant;

use rand::rngs::SmallRng;

use crate::actor::{Actor, Context, NodeId, Op, Payload};
use crate::faults::FaultPlan;
use crate::metrics::{CounterHandle, Labels, Metrics};
use crate::net::{LinkConfig, Network};
use crate::profile::{bucket_of, DispatchProfile};
use crate::queue::{Event, EventKind, TimerSlots};
use crate::time::SimTime;
use crate::trace::{CanonEvent, TraceCapture, TraceDigest};

/// Bits of an order key below the creator slot.
const COUNTER_BITS: u32 = 40;

/// The most nodes a simulation holds: node `i` is creator slot `i + 1`,
/// and a slot has the 24 bits of an order key above the counter.
pub const MAX_NODES: usize = (1 << (64 - COUNTER_BITS)) - 1;

/// The order key of the next event creator `slot` makes,
/// `slot << 40 | counter`, advancing the creator's counter. Slot 0 is the
/// driver (starts, injections, crash and revive bookkeeping), slot `i + 1`
/// node `i` (what its dispatches schedule). Keys are unique and final when
/// made: no scheduler renumbers an event, so events at one instant pop
/// driver first, then by creator index, then in creation order.
pub(crate) fn order_key(slot: usize, counter: &mut u64) -> u64 {
    debug_assert!(
        *counter < 1 << COUNTER_BITS,
        "creator slot {slot} has made 2^{COUNTER_BITS} events"
    );
    let key = ((slot as u64) << COUNTER_BITS) | *counter;
    *counter += 1;
    key
}

/// Handles for the global network counters, minted at construction.
#[derive(Debug, Clone, Copy)]
struct NetHandles {
    messages: CounterHandle,
    bytes: CounterHandle,
    dropped: CounterHandle,
    dropped_bytes: CounterHandle,
}

/// Handles for the counters only a node's own events bump, minted at
/// `add_node`.
#[derive(Debug, Clone, Copy)]
struct NodeHandles {
    deliveries: CounterHandle,
    delivered_bytes: CounterHandle,
    timers: CounterHandle,
}

/// Everything the engine keeps per node. One record is one move when the
/// parallel engine hands a node to a partition worker and one move back.
pub(crate) struct NodeRecord<M> {
    pub(crate) actor: Option<Box<dyn Actor<M>>>,
    rng: SmallRng,
    timers: TimerSlots,
    /// Incremented on revival: timers armed in an older epoch are dead.
    epoch: u32,
    pub(crate) halted: bool,
    /// True only when `halted` was set by the fault plan (crash event or
    /// in-window check), never by a voluntary [`Op::Halt`]. Plan-driven
    /// revival consults this so it can bring a crashed node back up at the
    /// revive tick without ever resurrecting a node that chose to leave.
    pub(crate) crash_halted: bool,
    started: bool,
    handles: NodeHandles,
    /// Events this node's dispatches have created: its order-key counter.
    created: u64,
    /// Fingerprint of every event popped for this node, before any filter.
    pub(crate) digest: TraceDigest,
}

impl<M> NodeRecord<M> {
    /// The order key of the next event node `me` (this record's node)
    /// creates.
    fn next_key(&mut self, me: NodeId) -> u64 {
        order_key(me.index() + 1, &mut self.created)
    }

    fn crash(&mut self) {
        self.halted = true;
        self.crash_halted = true;
    }

    /// Crash-recovery: the node resumes with its state intact; its
    /// pre-crash timers belong to the old epoch and are dead, and the
    /// actor's `on_start` re-arms what it needs.
    fn revive(&mut self) {
        self.halted = false;
        self.crash_halted = false;
        self.epoch += 1;
    }
}

/// The sequencing seam: the one thing a scheduler decides for the core.
pub(crate) trait Sequencer<M> {
    /// Files a new event, its order key already fixed by its creator.
    fn schedule(&mut self, event: Event<M>);
    /// Pops the least filed event by `(at, seq)` if it is at or before
    /// `horizon`.
    fn pop_next(&mut self, horizon: SimTime) -> Option<Event<M>>;
}

/// Where an open capture's canonical events go.
pub(crate) enum Capture {
    /// The capture file, written as events pop.
    File(TraceCapture),
    /// A partition worker's pops of the current window, in its pop order;
    /// the barrier merges every worker's buffer into the file.
    Window(Vec<CanonEvent>),
}

/// The canonical tuple of a popped event, carrying the event's own key.
fn canon_of<M>(event: &Event<M>) -> CanonEvent {
    let (kind, from, bytes, tag) = match &event.kind {
        EventKind::Start => (0, None, 0, None),
        EventKind::Deliver { from, bytes, .. } => (1, Some(*from), *bytes as u64, None),
        EventKind::Timer { tag, .. } => (2, None, 0, Some(*tag)),
        EventKind::Crash => (3, None, 0, None),
        EventKind::Revive => (4, None, 0, None),
    };
    CanonEvent {
        at_nanos: event.at.as_nanos(),
        seq: event.seq,
        node: event.node.0,
        kind,
        from,
        bytes,
        tag,
    }
}

/// Node records plus everything a dispatch reads or writes besides them.
pub(crate) struct Core<M> {
    pub(crate) nodes: Vec<NodeRecord<M>>,
    /// Global node index -> position in `nodes`. Empty when this core holds
    /// every node, where the position *is* the global index.
    local: Vec<u32>,
    pub(crate) network: Network,
    pub(crate) faults: FaultPlan,
    pub(crate) metrics: Metrics,
    net_handles: NetHandles,
    /// `node.drops` handle of every node, by global index. A drop is
    /// accounted where the *sender* runs, which under partitioning is not
    /// where the recipient's record lives — so these stay a table every
    /// core carries whole, not a field of the record.
    drops: Vec<CounterHandle>,
    /// The open capture, if any: the file itself on the core the
    /// sequential loop runs, a window buffer on a partition worker's.
    pub(crate) capture: Option<Capture>,
    /// The dispatch profiler, when on. A sink like the metrics: a worker's
    /// core starts with an empty one, and teardown absorbs it.
    pub(crate) profile: Option<DispatchProfile>,
    /// Interned actor-kind index of every node, by global index: the row
    /// the profiler charges the node's events to.
    kind_of_node: Vec<u16>,
    /// Pooled op buffer handed to each callback and drained by
    /// `apply_ops`; its capacity survives across events.
    ops_scratch: Vec<Op<M>>,
}

impl<M: Payload> Core<M> {
    pub(crate) fn new(network: Network) -> Self {
        Core {
            nodes: Vec::new(),
            local: Vec::new(),
            network,
            faults: FaultPlan::none(),
            metrics: Metrics::new(),
            net_handles: NetHandles {
                messages: CounterHandle::of("net.messages", Labels::GLOBAL),
                bytes: CounterHandle::of("net.bytes", Labels::GLOBAL),
                dropped: CounterHandle::of("net.dropped", Labels::GLOBAL),
                dropped_bytes: CounterHandle::of("net.dropped_bytes", Labels::GLOBAL),
            },
            drops: Vec::new(),
            capture: None,
            profile: None,
            kind_of_node: Vec::new(),
            ops_scratch: Vec::new(),
        }
    }

    /// Adds a node: its link, its record, its counter handles, and its
    /// actor-kind index `kind`.
    pub(crate) fn add_node(
        &mut self,
        link: LinkConfig,
        actor: Box<dyn Actor<M>>,
        rng: SmallRng,
        kind: u16,
    ) -> NodeId {
        let id = self.network.add_link(link);
        debug_assert_eq!(id.index(), self.nodes.len());
        let labels = Labels::node(id.0 as u64);
        let handles = NodeHandles {
            deliveries: CounterHandle::of("node.deliveries", labels),
            delivered_bytes: CounterHandle::of("node.delivered_bytes", labels),
            timers: CounterHandle::of("node.timers", labels),
        };
        self.drops.push(CounterHandle::of("node.drops", labels));
        self.kind_of_node.push(kind);
        self.nodes.push(NodeRecord {
            actor: Some(actor),
            rng,
            timers: TimerSlots::new(),
            epoch: 0,
            halted: false,
            crash_halted: false,
            started: false,
            handles,
            created: 0,
            digest: TraceDigest::default(),
        });
        id
    }

    /// A partition worker's core: shared-read state cloned, the metrics
    /// sink an empty fork, an empty profile and window buffer when the
    /// profiler and a capture are on, and room for `owned` records — the
    /// caller moves the partition's in, in the order `local` numbers them.
    pub(crate) fn fork(&self, local: Vec<u32>, owned: usize) -> Self {
        Core {
            nodes: Vec::with_capacity(owned),
            local,
            network: self.network.clone(),
            faults: self.faults.clone(),
            metrics: self.metrics.fork_for_worker(),
            net_handles: self.net_handles,
            drops: self.drops.clone(),
            capture: self.capture.as_ref().map(|_| Capture::Window(Vec::new())),
            profile: self.profile.as_ref().map(|_| DispatchProfile::default()),
            kind_of_node: self.kind_of_node.clone(),
            ops_scratch: Vec::new(),
        }
    }

    #[inline]
    fn slot(&self, node: NodeId) -> usize {
        self.local
            .get(node.index())
            .map_or(node.index(), |&l| l as usize)
    }

    /// Pops and dispatches every event `order` holds at or before `horizon`
    /// and returns how many it popped: the one dispatch loop, run by the
    /// sequential scheduler over the global wheel and by a partition worker
    /// over its own, once per window. With the profiler on it reads the
    /// clock once after each dispatch and charges the interval since the
    /// previous reading — the first from the loop's start — to the cell of
    /// the event just dispatched, so a cell absorbs the pop and the actor
    /// callback; the loop's own time goes to `run_ns`. With the profiler
    /// off it reads no clock.
    pub(crate) fn drain<S: Sequencer<M>>(&mut self, order: &mut S, horizon: SimTime) -> u64 {
        let start = self.profile.is_some().then(Instant::now);
        let (mut last, mut popped) = (start, 0);
        while let Some(event) = order.pop_next(horizon) {
            popped += 1;
            let cell = last.map(|prev| {
                let kind = self.kind_of_node[event.node.index()] as usize;
                (prev, kind, bucket_of(&event.kind))
            });
            self.dispatch(order, event);
            if let (Some((prev, kind, bucket)), Some(p)) = (cell, &mut self.profile) {
                let now = Instant::now();
                p.record(kind, bucket, now.duration_since(prev).as_nanos() as u64);
                last = Some(now);
            }
        }
        if let (Some(start), Some(p)) = (start, &mut self.profile) {
            p.add_run_ns(start.elapsed().as_nanos() as u64);
        }
        popped
    }

    /// Dispatches one popped event: folded into its node's digest (and the
    /// capture, when one is open) before any filter — the *canonical*
    /// stream, including events a halted or unstarted node will ignore —
    /// then run.
    #[inline]
    fn dispatch<S: Sequencer<M>>(&mut self, order: &mut S, event: Event<M>) {
        let idx = self.slot(event.node);
        let canon = canon_of(&event);
        self.nodes[idx].digest.fold_event(&canon);
        match &mut self.capture {
            Some(Capture::File(cap)) => cap.record(&canon),
            Some(Capture::Window(log)) => log.push(canon),
            None => {}
        }
        self.react(order, idx, event);
    }

    fn react<S: Sequencer<M>>(&mut self, order: &mut S, idx: usize, event: Event<M>) {
        let (at, node) = (event.at, event.node);
        let rec = &mut self.nodes[idx];
        // Every popped timer event retires its slot, no matter how the
        // event is disposed of below — the pop is the slot's last
        // outstanding reference, so it must recycle even when the node is
        // halted, unstarted, or mid-crash. `timer_live` is false when a
        // cancel got there first.
        let timer_live = match event.kind {
            EventKind::Timer { id, .. } => rec.timers.resolve(id),
            _ => true,
        };
        if let EventKind::Revive = event.kind {
            // A node that already revived inline (below), or that halted
            // voluntarily rather than by plan, stays as it is — the
            // bookkeeping event is a no-op for it.
            if !rec.crash_halted {
                return;
            }
            rec.revive();
        } else if rec.halted {
            // Revival is plan-driven, not event-driven: the crash window is
            // `[at, until)`, so a crash-halted node whose window has closed
            // is up *now*, even when this event's queue position beat the
            // bookkeeping revive event's. Without this, a deliver staged at
            // exactly the revive tick with a smaller order key would be
            // silently dropped.
            if !rec.crash_halted || self.faults.is_crashed(node, at) {
                return;
            }
            rec.revive();
            if rec.started {
                self.run_on_start(order, at, node, idx);
            }
        }
        let rec = &mut self.nodes[idx];
        match event.kind {
            // A node only participates once its Start event has run; traffic
            // addressed to a not-yet-joined node dies on the wire.
            EventKind::Start => rec.started = true,
            _ if !rec.started => return,
            EventKind::Crash => return rec.crash(),
            EventKind::Timer { .. } if !timer_live => return,
            EventKind::Timer { epoch, .. } if epoch != rec.epoch => return,
            _ => {}
        }
        if self.faults.is_crashed(node, at) {
            return rec.crash();
        }
        match &event.kind {
            EventKind::Deliver { bytes, .. } => {
                self.metrics.incr_handle(rec.handles.deliveries, 1);
                self.metrics
                    .incr_handle(rec.handles.delivered_bytes, *bytes as u64);
            }
            EventKind::Timer { .. } => self.metrics.incr_handle(rec.handles.timers, 1),
            _ => {}
        }
        self.call(order, at, node, idx, event.kind);
    }

    /// Runs the actor's `on_start` outside a Start/Revive event — the
    /// inline-revival path when a crash window closes before the
    /// bookkeeping revive event has dispatched. What it schedules is the
    /// node's own creation, keyed like the rest of its dispatch.
    fn run_on_start<S: Sequencer<M>>(
        &mut self,
        order: &mut S,
        at: SimTime,
        node: NodeId,
        idx: usize,
    ) {
        self.call(order, at, node, idx, EventKind::Start);
    }

    /// Hands `kind` to the actor of `node` and applies the ops it queued.
    fn call<S: Sequencer<M>>(
        &mut self,
        order: &mut S,
        at: SimTime,
        node: NodeId,
        idx: usize,
        kind: EventKind<M>,
    ) {
        let rec = &mut self.nodes[idx];
        let Some(actor) = rec.actor.as_deref_mut() else {
            return;
        };
        let mut ops = std::mem::take(&mut self.ops_scratch);
        debug_assert!(ops.is_empty());
        let mut ctx = Context {
            now: at,
            node,
            node_count: self.network.len() as u32,
            link_free_at: self.network.link_free_at(node),
            timers: &mut rec.timers,
            ops: &mut ops,
            rng: &mut rec.rng,
            metrics: &mut self.metrics,
        };
        match kind {
            EventKind::Start | EventKind::Revive => actor.on_start(&mut ctx),
            EventKind::Deliver { from, msg, .. } => actor.on_message(&mut ctx, from, msg),
            EventKind::Timer { tag, .. } => actor.on_timer(&mut ctx, tag),
            EventKind::Crash => unreachable!("a crash never reaches the actor"),
        }
        self.apply_ops(order, at, node, idx, &mut ops);
        // Return the (now empty) buffer to the pool, keeping its capacity.
        self.ops_scratch = ops;
    }

    fn apply_ops<S: Sequencer<M>>(
        &mut self,
        order: &mut S,
        at: SimTime,
        node: NodeId,
        idx: usize,
        ops: &mut Vec<Op<M>>,
    ) {
        for op in ops.drain(..) {
            match op {
                Op::Send { to, msg, bytes } => {
                    // The memoized size must equal the recomputed one for
                    // every message that crosses the simulated network —
                    // this is what keeps payload sharing bandwidth-neutral.
                    debug_assert_eq!(
                        bytes,
                        msg.wire_size(),
                        "cached wire size diverged from recomputed size"
                    );
                    self.metrics.incr_handle(self.net_handles.messages, 1);
                    self.metrics
                        .incr_handle(self.net_handles.bytes, bytes as u64);
                    // A destination that was never added is rejected at the
                    // NIC (it has no link to schedule on), but still counts
                    // as a fully accounted drop — bytes and the
                    // per-recipient cell included, exactly like the
                    // fault-plan branch below.
                    if to.index() >= self.network.len() {
                        self.record_drop(to, bytes);
                        continue;
                    }
                    let sched = self.network.schedule(at, node, to, bytes);
                    // Omission/crash/partition checks happen at send time
                    // (bandwidth is consumed either way; the bytes die in
                    // flight). Jitter and omission draws come from the
                    // sender link's counter-keyed stream: only the core
                    // holding the sender ever draws on it, in the order the
                    // sender's events dispatch, so the stream advances
                    // identically under any partitioning.
                    let network = &mut self.network;
                    if !self
                        .faults
                        .delivers(node, to, at, || network.next_draw(node))
                    {
                        self.record_drop(to, bytes);
                        continue;
                    }
                    order.schedule(Event {
                        at: sched.arrives,
                        seq: self.nodes[idx].next_key(node),
                        node: to,
                        kind: EventKind::Deliver {
                            from: node,
                            msg,
                            bytes,
                        },
                    });
                }
                Op::SetTimer { id, fire_at, tag } => {
                    let rec = &mut self.nodes[idx];
                    let epoch = rec.epoch;
                    order.schedule(Event {
                        at: fire_at,
                        seq: rec.next_key(node),
                        node,
                        kind: EventKind::Timer { id, tag, epoch },
                    });
                }
                Op::CancelTimer { id } => self.nodes[idx].timers.cancel(id),
                Op::Halt => self.nodes[idx].halted = true,
            }
        }
    }

    /// Accounts a message that died on the wire (fault plan or nonexistent
    /// destination).
    fn record_drop(&mut self, to: NodeId, bytes: usize) {
        self.metrics.incr_handle(self.net_handles.dropped, 1);
        self.metrics
            .incr_handle(self.net_handles.dropped_bytes, bytes as u64);
        match self.drops.get(to.index()) {
            Some(&handle) => self.metrics.incr_handle(handle, 1),
            // Out-of-range destination: no minted handle, take the
            // name-based path so the per-recipient cell still exists in
            // the report.
            None => self
                .metrics
                .incr_labeled("node.drops", Labels::node(to.index() as u64), 1),
        }
    }
}
