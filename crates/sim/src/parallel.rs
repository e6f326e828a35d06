//! Conservative parallel discrete-event simulation (PDES).
//!
//! The sequential engine processes one global `(time, seq)`-ordered event
//! stream. This module splits the node set into partitions — one worker
//! thread each — and lets every partition advance its **own** timer wheel
//! concurrently, exploiting the classic conservative-PDES observation: a
//! message from another partition cannot arrive sooner than the
//! cross-partition propagation latency, the **lookahead**. Execution
//! proceeds in lockstep windows:
//!
//! 1. **Window (parallel)** — each worker drains its wheel up to the shared
//!    pop horizon. Events it generates stay local (provisionally sequenced)
//!    when they land inside the window on an owned node; everything else
//!    goes to a per-window outbox.
//! 2. **Barrier (sequential)** — the driver merges the per-partition
//!    dispatch logs back into the single global `(time, seq)` order with a
//!    loser-tree k-way merge (the logs are already sorted), replaying
//!    sequence-number assignment, the canonical [`TraceDigest`] fold and
//!    capture exactly as the sequential engine would have; then it routes
//!    outbox events (which provably land beyond the window) to their
//!    owners' wheels, batched per destination, and picks the next window.
//!
//! Each window closes at `min over partitions p with pending events of
//! (p's exact next event time + p's minimum outgoing cross-partition
//! latency) − 1` — a per-partition-pair lookahead matrix plus a
//! next-event-time bound. Sparse or bursty topologies therefore run long
//! windows with few barriers: an idle stretch is crossed in one hop to the
//! true next event ([`TimerWheel::earliest_event_time`]), not crawled
//! through in fixed strides from a coarse wheel-bucket bound. The original
//! single global `L = min cross-partition latency` stride survives in test
//! builds only, as the differential oracle of a proptest below.
//!
//! Because everything order-sensitive — sequencing, digest, capture, RNG
//! draws — is either partition-local or replayed at the barrier in merged
//! order, the result is **bit-identical** to the sequential engine for any
//! thread count. Randomized network jitter and fault
//! omission hold too: their draws come from per-link counter-keyed streams
//! (`hash(stream_seed, link, draw_index)`), each link is drawn only by the
//! partition that owns its sender, and a partition dispatches its nodes'
//! events in exactly the sequential order — so every link observes the
//! sequential draw sequence regardless of thread interleaving. The
//! differential tests at the bottom of this file and the CI determinism
//! matrix hold the engine to that: same fingerprint, same counters, at 1,
//! 2, or 8 threads, jittered or not.
//!
//! Parallelism silently disengages (the caller falls back to the sequential
//! loop) only when it could not be equivalent or could not help: profiling
//! (wall-clock attribution is per-thread), fewer than two partitions, or
//! zero lookahead.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::actor::{Actor, Context, NodeId, Op, Payload, TimerTag};
use crate::engine::{NetHandles, NodeHandles, Sim};
use crate::faults::FaultPlan;
use crate::metrics::{Labels, Metrics};
use crate::net::{LatencyModel, Network, Region};
use crate::queue::{Event, EventKind, TimerSlots, TimerWheel};
use crate::time::{SimDuration, SimTime};
use crate::trace::CanonEvent;

use predis_parallel::run_lockstep;
use predis_types::payload_stats;

/// Provisional sequence numbers handed to events staged inside a window,
/// before the barrier merge assigns their real ones. The high bit keeps
/// every provisional number above every final number, which is exactly the
/// order the sequential engine would produce: an event generated during the
/// window always sequences after every event that already existed when the
/// window began.
const PROVISIONAL_BASE: u64 = 1 << 63;

/// How the lockstep driver picks each window's shared pop horizon — a
/// choice only tests have: release builds always run
/// [`adaptive_pop_horizon`]. Both policies produce the exact same event
/// stream (the conservative guarantee — no cross-partition arrival inside a
/// window — holds for either); they differ only in how many barriers it
/// takes to get there.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum WindowPolicy {
    /// [`adaptive_pop_horizon`].
    #[default]
    Adaptive,
    /// The original fixed stride: every window is exactly
    /// `L = min cross-partition latency` long, starting from the earliest
    /// pending wheel lower bound. Strictly never fewer barriers than
    /// [`WindowPolicy::Adaptive`].
    FixedMinL,
}

/// One entry of a partition's per-window dispatch log: the canonical
/// pre-filter record of a popped event (everything [`CanonEvent`] needs),
/// plus how many order-sensitive side effects its dispatch produced.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    at: SimTime,
    /// Final sequence number, or `PROVISIONAL_BASE + k` for the `k`-th
    /// event staged by this partition in this window.
    seq: u64,
    node: u32,
    /// Canonical kind code (same encoding as [`crate::trace::CANON_KINDS`]).
    kind: u64,
    from: Option<NodeId>,
    bytes: u64,
    tag: Option<TimerTag>,
    /// Number of [`Effect`]s this dispatch appended.
    effects: u32,
}

/// An order-sensitive side effect of one dispatch, replayed at the barrier
/// against the global engine state in exact merged order.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// The dispatch scheduled an event that stayed in this partition's
    /// wheel: assign the next global sequence number to the partition's
    /// next staged event (staged order equals effect order by
    /// construction).
    StagedSeq,
    /// The dispatch scheduled an event beyond the window or across a
    /// partition boundary: assign the next global sequence number to
    /// outbox slot `i`.
    OutboxSeq(u32),
}

/// A node partition: one worker thread's complete, self-contained slice of
/// the simulation. Per-node state (actors, RNGs, liveness flags, timer
/// arenas) is *moved* in at session start and moved back at teardown;
/// shared-read state (network, fault plan, counter handles) is cloned; the
/// metrics sink is a zeroed fork absorbed back at teardown.
struct Shard<M> {
    id: u32,
    /// Owned nodes, ascending global index; position = local index.
    nodes: Vec<u32>,
    /// Global node index -> owning partition id.
    owner: Vec<u32>,
    /// Global node index -> local index within its owning partition.
    local: Vec<u32>,
    node_count_total: u32,
    wheel: TimerWheel<M>,
    // Per-owned-node state, locally indexed.
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    rngs: Vec<SmallRng>,
    halted: Vec<bool>,
    /// Mirror of `Sim::crash_halted`: plan-driven halts only, so inline
    /// revival never resurrects a voluntary `Op::Halt`.
    crash_halted: Vec<bool>,
    started: Vec<bool>,
    epochs: Vec<u32>,
    timers: Vec<TimerSlots>,
    // Cloned / forked global state.
    network: Network,
    faults: FaultPlan,
    metrics: Metrics,
    net_handles: NetHandles,
    node_handles: Vec<NodeHandles>,
    ops_scratch: Vec<Op<M>>,
    // Window state.
    pop_horizon: SimTime,
    log: Vec<LogEntry>,
    effects: Vec<Effect>,
    outbox: Vec<Event<M>>,
    staged_count: u64,
    // Barrier-merge cursors (driver side).
    log_cursor: usize,
    effect_cursor: usize,
    /// Final sequence numbers assigned (in staging order) to this window's
    /// staged events; indexed by the provisional offset `k`.
    staged_final: Vec<u64>,
}

impl<M: Payload> Shard<M> {
    /// Drains every event up to (and including) the window's pop horizon,
    /// mirroring the sequential engine's dispatch exactly.
    fn run_window(&mut self) {
        while let Some(event) = self.wheel.pop_next(self.pop_horizon) {
            self.dispatch(event);
        }
    }

    /// The partition-local twin of `Sim::dispatch`. Every branch below
    /// matches the sequential engine line for line; global side effects
    /// (sequence numbers, digest, capture) are recorded as log entries and
    /// [`Effect`]s for the barrier to replay in merged order.
    fn dispatch(&mut self, event: Event<M>) {
        let (kind, from, bytes, tag) = match &event.kind {
            EventKind::Start => (0u64, None, 0u64, None),
            EventKind::Deliver { from, bytes, .. } => (1, Some(*from), *bytes as u64, None),
            EventKind::Timer { tag, .. } => (2, None, 0, Some(*tag)),
            EventKind::Crash => (3, None, 0, None),
            EventKind::Revive => (4, None, 0, None),
        };
        let entry = self.log.len();
        self.log.push(LogEntry {
            at: event.at,
            seq: event.seq,
            node: event.node.0,
            kind,
            from,
            bytes,
            tag,
            effects: 0,
        });
        let node = event.node;
        let idx = self.local[node.index()] as usize;
        // Effects emitted from here on (including an inline revival's
        // `on_start` ops) belong to this log entry, so the barrier replays
        // them inside this event's slot.
        let effects_before = self.effects.len();
        let timer_live = match event.kind {
            EventKind::Timer { id, .. } => self.timers[idx].resolve(id),
            _ => true,
        };
        if let EventKind::Revive = event.kind {
            if !self.crash_halted[idx] {
                return;
            }
            self.halted[idx] = false;
            self.crash_halted[idx] = false;
            self.epochs[idx] += 1;
        } else if self.halted[idx] {
            // Plan-driven revival, exactly as in the sequential engine: the
            // window `[at, until)` has closed, so the node is up at `until`
            // regardless of how this event's seq interleaves with the
            // bookkeeping revive event's.
            if self.crash_halted[idx] && !self.faults.is_crashed(node, event.at) {
                self.halted[idx] = false;
                self.crash_halted[idx] = false;
                self.epochs[idx] += 1;
                if self.started[idx] {
                    self.run_on_start(event.at, node);
                    self.log[entry].effects = (self.effects.len() - effects_before) as u32;
                }
            } else {
                return;
            }
        }
        match event.kind {
            EventKind::Start => self.started[idx] = true,
            _ if !self.started[idx] => return,
            EventKind::Crash => {
                self.halted[idx] = true;
                self.crash_halted[idx] = true;
                return;
            }
            EventKind::Timer { .. } if !timer_live => return,
            EventKind::Timer { epoch, .. } if epoch != self.epochs[idx] => return,
            _ => {}
        }
        if self.faults.is_crashed(node, event.at) {
            self.halted[idx] = true;
            self.crash_halted[idx] = true;
            return;
        }
        match &event.kind {
            EventKind::Deliver { bytes, .. } => {
                let handles = self.node_handles[node.index()];
                self.metrics.incr_handle(handles.deliveries, 1);
                self.metrics
                    .incr_handle(handles.delivered_bytes, *bytes as u64);
            }
            EventKind::Timer { .. } => {
                self.metrics
                    .incr_handle(self.node_handles[node.index()].timers, 1);
            }
            _ => {}
        }
        let mut actor = match self.actors[idx].take() {
            Some(a) => a,
            None => return,
        };
        let mut ops = std::mem::take(&mut self.ops_scratch);
        debug_assert!(ops.is_empty());
        {
            let mut ctx = Context {
                now: event.at,
                node,
                node_count: self.node_count_total,
                link_free_at: self.network.link_free_at(node),
                timers: &mut self.timers[idx],
                ops: &mut ops,
                rng: &mut self.rngs[idx],
                metrics: &mut self.metrics,
            };
            match event.kind {
                EventKind::Start | EventKind::Revive => actor.on_start(&mut ctx),
                EventKind::Deliver { from, msg, .. } => actor.on_message(&mut ctx, from, msg),
                EventKind::Timer { tag, .. } => actor.on_timer(&mut ctx, tag),
                EventKind::Crash => unreachable!("handled above"),
            }
        }
        self.actors[idx] = Some(actor);
        self.apply_ops(event.at, node, &mut ops);
        self.log[entry].effects = (self.effects.len() - effects_before) as u32;
        self.ops_scratch = ops;
    }

    /// Partition-local twin of `Sim::run_on_start` (inline revival).
    fn run_on_start(&mut self, at: SimTime, node: NodeId) {
        let idx = self.local[node.index()] as usize;
        let mut actor = match self.actors[idx].take() {
            Some(a) => a,
            None => return,
        };
        let mut ops = std::mem::take(&mut self.ops_scratch);
        debug_assert!(ops.is_empty());
        {
            let mut ctx = Context {
                now: at,
                node,
                node_count: self.node_count_total,
                link_free_at: self.network.link_free_at(node),
                timers: &mut self.timers[idx],
                ops: &mut ops,
                rng: &mut self.rngs[idx],
                metrics: &mut self.metrics,
            };
            actor.on_start(&mut ctx);
        }
        self.actors[idx] = Some(actor);
        self.apply_ops(at, node, &mut ops);
        self.ops_scratch = ops;
    }

    fn apply_ops(&mut self, at: SimTime, node: NodeId, ops: &mut Vec<Op<M>>) {
        for op in ops.drain(..) {
            match op {
                Op::Send { to, msg, bytes } => {
                    debug_assert_eq!(
                        bytes,
                        msg.wire_size(),
                        "cached wire size diverged from recomputed size"
                    );
                    if to.index() >= self.node_count_total as usize {
                        self.metrics.incr_handle(self.net_handles.messages, 1);
                        self.metrics
                            .incr_handle(self.net_handles.bytes, bytes as u64);
                        self.record_drop(to, bytes);
                        continue;
                    }
                    // Jitter and omission draws come from the sender's
                    // counter-keyed link stream. Only this partition ever
                    // draws on this link, and it dispatches its nodes'
                    // events in exactly the sequential order, so the draw
                    // counter advances identically at every thread count.
                    let sched = self.network.schedule(at, node, to, bytes);
                    self.metrics.incr_handle(self.net_handles.messages, 1);
                    self.metrics
                        .incr_handle(self.net_handles.bytes, bytes as u64);
                    let network = &mut self.network;
                    if !self
                        .faults
                        .delivers(node, to, at, || network.next_draw(node))
                    {
                        self.record_drop(to, bytes);
                        continue;
                    }
                    self.push_event(
                        sched.arrives,
                        to,
                        EventKind::Deliver {
                            from: node,
                            msg,
                            bytes,
                        },
                    );
                }
                Op::SetTimer { id, fire_at, tag } => {
                    let epoch = self.epochs[self.local[node.index()] as usize];
                    self.push_event(fire_at, node, EventKind::Timer { id, tag, epoch });
                }
                Op::CancelTimer { id } => {
                    self.timers[self.local[node.index()] as usize].cancel(id);
                }
                Op::Halt => {
                    self.halted[self.local[node.index()] as usize] = true;
                }
            }
        }
    }

    /// Stages an event locally when it provably belongs to this partition's
    /// current window; otherwise parks it in the outbox for the barrier to
    /// sequence and route. Staying inside the window is what lets the
    /// provisional sequence numbers resolve before any later window runs.
    fn push_event(&mut self, at: SimTime, to: NodeId, kind: EventKind<M>) {
        if self.owner[to.index()] == self.id && at <= self.pop_horizon {
            let seq = PROVISIONAL_BASE + self.staged_count;
            self.staged_count += 1;
            self.effects.push(Effect::StagedSeq);
            self.wheel.push(Event {
                at,
                seq,
                node: to,
                kind,
            });
        } else {
            self.effects
                .push(Effect::OutboxSeq(self.outbox.len() as u32));
            self.outbox.push(Event {
                at,
                seq: 0, // patched by the barrier's OutboxSeq replay
                node: to,
                kind,
            });
        }
    }

    /// Partition-local twin of `Sim::record_drop`, on the forked sink.
    fn record_drop(&mut self, to: NodeId, bytes: usize) {
        self.metrics.incr_handle(self.net_handles.dropped, 1);
        self.metrics
            .incr_handle(self.net_handles.dropped_bytes, bytes as u64);
        match self.node_handles.get(to.index()) {
            Some(handles) => self.metrics.incr_handle(handles.drops, 1),
            None => self
                .metrics
                .incr_labeled("node.drops", Labels::node(to.index() as u64), 1),
        }
    }
}

/// A partitioning of the node set plus its lookahead structure.
struct Plan {
    owner: Vec<u32>,
    local: Vec<u32>,
    parts: Vec<Vec<u32>>,
    /// Row minima of the pairwise lookahead matrix: `out_min[p]` is the
    /// minimum one-way propagation latency from any node in partition `p`
    /// to any node in a *different* partition — the earliest any send from
    /// `p` can cross a partition boundary. The adaptive window bound only
    /// ever needs these row minima (the shared pop horizon is a min over
    /// receivers anyway), so the full matrix is not retained.
    out_min: Vec<SimDuration>,
    /// Global minimum of the matrix: the fixed window stride of
    /// [`WindowPolicy::FixedMinL`].
    #[cfg(test)]
    l_min: SimDuration,
}

/// Partitions the node set for `sim.threads` workers.
///
/// Affinity comes from [`Sim::set_partition_hint`] when present (each hint
/// group stays whole; unmentioned nodes become singletons); otherwise nodes
/// group by region under a regional latency model and are free under a
/// uniform one. Groups pack greedy largest-first onto the least-loaded
/// worker. Lookahead is computed as a per-partition-pair matrix — the
/// minimum one-way propagation latency between the two partitions' region
/// sets — folded into per-partition outgoing minima and a global minimum.
///
/// Returns `None` (sequential fallback) when fewer than two partitions
/// materialize or the global minimum lookahead is zero.
fn plan_partitions<M: Payload>(sim: &Sim<M>) -> Option<Plan> {
    let n = sim.actors.len();
    if n < 2 {
        return None;
    }
    let mut groups: Vec<Vec<u32>> = Vec::new();
    if let Some(hint) = &sim.partition_hint {
        let mut seen = vec![false; n];
        for hint_group in hint {
            let mut group = Vec::new();
            for node in hint_group {
                let i = node.index();
                if i < n && !seen[i] {
                    seen[i] = true;
                    group.push(i as u32);
                }
            }
            if !group.is_empty() {
                groups.push(group);
            }
        }
        for (i, seen) in seen.iter().enumerate() {
            if !seen {
                groups.push(vec![i as u32]);
            }
        }
    } else {
        match sim.network.latency_model() {
            LatencyModel::Regional { .. } => {
                let mut by_region: BTreeMap<Region, Vec<u32>> = BTreeMap::new();
                for i in 0..n {
                    let region = sim.network.link_config(NodeId(i as u32)).region;
                    by_region.entry(region).or_default().push(i as u32);
                }
                groups.extend(by_region.into_values());
            }
            LatencyModel::Uniform(_) => groups.extend((0..n).map(|i| vec![i as u32])),
        }
    }
    let bins = sim.threads.min(groups.len());
    if bins < 2 {
        return None;
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); bins];
    for g in order {
        let bin = (0..bins)
            .min_by_key(|&b| parts[b].len())
            .expect("bins >= 2");
        parts[bin].extend(&groups[g]);
    }
    for part in &mut parts {
        part.sort_unstable();
    }
    debug_assert!(parts.iter().all(|p| !p.is_empty()));
    let mut owner = vec![0u32; n];
    let mut local = vec![0u32; n];
    for (p, part) in parts.iter().enumerate() {
        for (l, &g) in part.iter().enumerate() {
            owner[g as usize] = p as u32;
            local[g as usize] = l as u32;
        }
    }
    let model = sim.network.latency_model();
    let regions: Vec<Vec<Region>> = parts
        .iter()
        .map(|part| {
            let mut rs: Vec<Region> = part
                .iter()
                .map(|&g| sim.network.link_config(NodeId(g)).region)
                .collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        })
        .collect();
    // Pairwise lookahead matrix over the partitions' region sets. The
    // diagonal is meaningless (intra-partition traffic never crosses a
    // barrier) and stays at the `None` placeholder.
    let nparts = parts.len();
    let mut direct: Vec<Vec<Option<SimDuration>>> = vec![vec![None; nparts]; nparts];
    for p in 0..nparts {
        for q in 0..nparts {
            if p == q {
                continue;
            }
            for &a in &regions[p] {
                for &b in &regions[q] {
                    let d = model.latency(a, b);
                    if direct[p][q].is_none_or(|cur| d < cur) {
                        direct[p][q] = Some(d);
                    }
                }
            }
        }
    }
    let out_min: Vec<SimDuration> = (0..nparts)
        .map(|p| {
            direct[p]
                .iter()
                .flatten()
                .min()
                .copied()
                .expect("at least two non-empty partitions")
        })
        .collect();
    let l_min = *out_min.iter().min().expect("at least two partitions");
    if l_min.is_zero() {
        return None;
    }
    Some(Plan {
        owner,
        local,
        parts,
        out_min,
        #[cfg(test)]
        l_min,
    })
}

/// The [`WindowPolicy::FixedMinL`] pop horizon: one `l_min` stride from the
/// previous window's end, or from the earliest pending wheel lower bound
/// when every wheel is idle past it. The window end is *exclusive*:
/// `pop_next` is inclusive, so the last nanosecond of every window belongs
/// to the next one — which is exactly where a cross-partition send emitted
/// at the window's first instant can land.
#[cfg(test)]
fn fixed_pop_horizon<M>(
    shards: &[Shard<M>],
    l_min: SimDuration,
    horizon: SimTime,
    prev_end: &mut SimTime,
) -> Option<SimTime> {
    let lb = shards
        .iter()
        .filter_map(|s| s.wheel.earliest_lower_bound())
        .min()
        .filter(|&lb| lb <= horizon)?;
    let w_start = lb.max(*prev_end);
    *prev_end = w_start + l_min;
    Some(SimTime::from_nanos(prev_end.as_nanos() - 1).min(horizon))
}

/// The pop horizon of the next window, the latest provably-safe instant:
/// `min over partitions p with pending events of (p's exact next event time
/// + out_min[p]) − 1`, clipped to the run horizon.
///
/// Safety: every cross-partition arrival produced inside the window departs
/// at some dispatch time `t ≥ exact_p` on its partition `p` and lands no
/// earlier than `t + out_min[p]`, i.e. strictly beyond the returned pop
/// horizon — so routing it at the barrier is never late. Progress: the
/// bound is at least `min_p exact_p + l_min − 1 ≥ min_p exact_p`, so the
/// globally earliest event always falls inside the window; no separate
/// progress floor is needed. Idle partitions contribute nothing (a
/// partition with no pending events cannot originate a send).
///
/// Returns `None` when no partition has an event at or before `horizon`.
fn adaptive_pop_horizon<M: Payload>(
    shards: &[Shard<M>],
    out_min: &[SimDuration],
    horizon: SimTime,
) -> Option<SimTime> {
    let mut earliest: Option<SimTime> = None;
    let mut bound: Option<u64> = None;
    for (p, shard) in shards.iter().enumerate() {
        let Some(t) = shard.wheel.earliest_event_time() else {
            continue;
        };
        if earliest.is_none_or(|cur| t < cur) {
            earliest = Some(t);
        }
        let b = t.as_nanos().saturating_add(out_min[p].as_nanos());
        if bound.is_none_or(|cur| b < cur) {
            bound = Some(b);
        }
    }
    if earliest? > horizon {
        return None;
    }
    let bound = bound.expect("bound is set whenever earliest is");
    Some(SimTime::from_nanos(bound - 1).min(horizon))
}

/// Runs the simulation in parallel up to `horizon`. Returns `false`
/// (without touching any state) when no viable partitioning exists; the
/// caller then runs the sequential loop. On `true`, the event stream,
/// digest, capture, metrics, RNG states, and queue contents are
/// bit-identical to what the sequential loop would have produced.
pub(crate) fn run_until_parallel<M: Payload>(sim: &mut Sim<M>, horizon: SimTime) -> bool {
    if !sim.queue.is_wheel() {
        return false;
    }
    match sim.queue.earliest_lower_bound() {
        Some(lb) if lb <= horizon => {}
        _ => return false, // nothing to run; the sequential loop is free
    }
    let Some(plan) = plan_partitions(sim) else {
        return false;
    };
    let nparts = plan.parts.len();
    let total = sim.actors.len();

    // ---- Session start: carve the engine into shards. ----
    let mut shards: Vec<Shard<M>> = plan
        .parts
        .iter()
        .enumerate()
        .map(|(p, nodes)| Shard {
            id: p as u32,
            nodes: nodes.clone(),
            owner: plan.owner.clone(),
            local: plan.local.clone(),
            node_count_total: total as u32,
            wheel: TimerWheel::new(),
            actors: Vec::with_capacity(nodes.len()),
            rngs: Vec::with_capacity(nodes.len()),
            halted: Vec::with_capacity(nodes.len()),
            crash_halted: Vec::with_capacity(nodes.len()),
            started: Vec::with_capacity(nodes.len()),
            epochs: Vec::with_capacity(nodes.len()),
            timers: Vec::with_capacity(nodes.len()),
            network: sim.network.clone(),
            faults: sim.faults.clone(),
            metrics: sim.metrics.fork_for_worker(),
            net_handles: sim.net_handles,
            node_handles: sim.node_handles.clone(),
            ops_scratch: Vec::new(),
            pop_horizon: SimTime::ZERO,
            log: Vec::new(),
            effects: Vec::new(),
            outbox: Vec::new(),
            staged_count: 0,
            log_cursor: 0,
            effect_cursor: 0,
            staged_final: Vec::new(),
        })
        .collect();
    for shard in shards.iter_mut() {
        for i in 0..shard.nodes.len() {
            let g = shard.nodes[i] as usize;
            shard.actors.push(sim.actors[g].take());
            shard.rngs.push(std::mem::replace(
                &mut sim.node_rngs[g],
                SmallRng::seed_from_u64(0),
            ));
            shard.halted.push(sim.halted[g]);
            shard.crash_halted.push(sim.crash_halted[g]);
            shard.started.push(sim.started[g]);
            shard.epochs.push(sim.epochs[g]);
            shard
                .timers
                .push(std::mem::replace(&mut sim.timers[g], TimerSlots::new()));
        }
    }
    // Distribute the pending event set; the engine keeps a fresh wheel that
    // teardown refills with whatever outlives the horizon.
    let mut old_queue = std::mem::replace(&mut sim.queue, crate::queue::EventQueue::wheel());
    while let Some(event) = old_queue.pop_next(SimTime::MAX) {
        let p = plan.owner[event.node.index()] as usize;
        shards[p].wheel.push(event);
    }

    // ---- Lockstep window loop. ----
    let mut counts = vec![0u64; nparts];
    let mut scratch: MergeScratch<M> = MergeScratch {
        tree: Vec::new(),
        keys: Vec::new(),
        winners: Vec::new(),
        routes: (0..nparts).map(|_| Vec::new()).collect(),
    };
    #[cfg(test)]
    let mut fixed_prev_end =
        (sim.window_policy == WindowPolicy::FixedMinL).then_some(SimTime::ZERO);
    // Mutable only for the oracle's stride state.
    #[cfg_attr(not(test), allow(unused_mut))]
    let mut next_pop_horizon = |shards: &[Shard<M>]| {
        #[cfg(test)]
        if let Some(prev_end) = &mut fixed_prev_end {
            return fixed_pop_horizon(shards, plan.l_min, horizon, prev_end);
        }
        adaptive_pop_horizon(shards, &plan.out_min, horizon)
    };
    let first_pop = next_pop_horizon(&shards);
    let (mut shards, harvests) = if let Some(mut pop_horizon) = first_pop {
        for shard in shards.iter_mut() {
            shard.pop_horizon = pop_horizon;
        }
        run_lockstep(
            shards,
            |_p, shard: &mut Shard<M>| shard.run_window(),
            |shards: &mut Vec<Shard<M>>| {
                merge_window(sim, shards, &mut counts, &mut scratch);
                if pop_horizon == horizon {
                    return false;
                }
                let Some(next) = next_pop_horizon(shards) else {
                    return false;
                };
                pop_horizon = next;
                for shard in shards.iter_mut() {
                    shard.pop_horizon = pop_horizon;
                }
                true
            },
            // Harvested on the worker's own thread: payload-stats counters
            // are thread-local, so this is the only place they are visible.
            |_p, _shard: &mut Shard<M>| payload_stats::snapshot(),
        )
    } else {
        (shards, Vec::new())
    };

    // ---- Teardown: move everything back into the engine. ----
    for stats in harvests {
        payload_stats::add(stats);
    }
    for shard in shards.iter_mut() {
        for i in 0..shard.nodes.len() {
            let g = shard.nodes[i] as usize;
            sim.actors[g] = shard.actors[i].take();
            std::mem::swap(&mut sim.node_rngs[g], &mut shard.rngs[i]);
            sim.halted[g] = shard.halted[i];
            sim.crash_halted[g] = shard.crash_halted[i];
            sim.started[g] = shard.started[i];
            sim.epochs[g] = shard.epochs[i];
            std::mem::swap(&mut sim.timers[g], &mut shard.timers[i]);
            sim.network
                .adopt_link_state(NodeId(g as u32), &shard.network);
        }
        debug_assert!(shard.outbox.is_empty() && shard.log.is_empty());
        while let Some(event) = shard.wheel.pop_next(SimTime::MAX) {
            debug_assert!(
                event.seq < PROVISIONAL_BASE,
                "only finally-sequenced events may outlive a window"
            );
            sim.queue.push(event);
        }
        sim.metrics
            .absorb_worker(std::mem::replace(&mut shard.metrics, Metrics::new()));
    }
    sim.threads_used = nparts;
    sim.partition_events = counts;
    true
}

/// Driver-owned scratch reused across every barrier of a parallel session:
/// the loser-tree state and the per-destination outbox routing buffers.
/// Pooling these (plus the shards' own log/effect/outbox vectors, which are
/// cleared rather than dropped) makes the steady-state barrier
/// allocation-free.
struct MergeScratch<M> {
    /// `tree[i]`, `i >= 1`: the shard that *lost* the match at internal
    /// node `i`; `tree[0]`: the overall winner.
    tree: Vec<u32>,
    /// Per-shard resolved `(at_nanos, seq)` log-head key;
    /// `(u64::MAX, u64::MAX)` once the shard's log is exhausted.
    keys: Vec<(u64, u64)>,
    /// Build-time winner propagation (leaf-initialized, internal nodes
    /// filled bottom-up).
    winners: Vec<u32>,
    /// Outbox events grouped by destination shard, drained into the
    /// destination wheels once per barrier.
    routes: Vec<Vec<Event<M>>>,
}

/// Sentinel key for an exhausted shard log. Never collides with a real
/// entry: resolved sequence numbers stay below [`PROVISIONAL_BASE`].
const MERGE_DONE: (u64, u64) = (u64::MAX, u64::MAX);

/// Resolved `(at_nanos, seq)` of a shard's current log head. A provisional
/// head resolves through `staged_final`: its creator dispatched earlier in
/// the same shard's log (staging is a side effect of an earlier local
/// dispatch), so its final seq was already assigned by the time the head
/// can win the merge.
fn head_key<M: Payload>(shard: &Shard<M>) -> (u64, u64) {
    match shard.log.get(shard.log_cursor) {
        Some(e) => {
            let rseq = if e.seq >= PROVISIONAL_BASE {
                shard.staged_final[(e.seq - PROVISIONAL_BASE) as usize]
            } else {
                e.seq
            };
            (e.at.as_nanos(), rseq)
        }
        None => MERGE_DONE,
    }
}

/// The barrier: merges every partition's window log back into the global
/// `(time, seq)` order and replays each dispatch's global side effects —
/// digest fold, capture, sequence assignment — exactly as the sequential
/// engine interleaved them. Afterwards routes outbox events (now finally
/// sequenced) to their owners' wheels for the next window.
///
/// The logs are already sorted (each shard dispatches its slice of the
/// global order in order), so the merge is a loser-tree k-way merge:
/// selecting each next event costs one leaf-to-root path of `log2(k)`
/// comparisons instead of a full `k`-way scan.
fn merge_window<M: Payload>(
    sim: &mut Sim<M>,
    shards: &mut [Shard<M>],
    counts: &mut [u64],
    scratch: &mut MergeScratch<M>,
) {
    sim.windows += 1;
    let k = shards.len();
    scratch.keys.clear();
    scratch.keys.extend(shards.iter().map(head_key));
    // Build the loser tree bottom-up. Leaf `j` (shard `j`) sits below
    // internal node `(k + j) / 2`; node 1 is the root; `tree[0]` holds the
    // winner of the whole bracket.
    scratch.tree.clear();
    scratch.tree.resize(k, 0);
    scratch.winners.clear();
    scratch.winners.resize(2 * k, 0);
    for j in 0..k {
        scratch.winners[k + j] = j as u32;
    }
    for i in (1..k).rev() {
        let a = scratch.winners[2 * i];
        let b = scratch.winners[2 * i + 1];
        let (w, l) = if scratch.keys[a as usize] <= scratch.keys[b as usize] {
            (a, b)
        } else {
            (b, a)
        };
        scratch.winners[i] = w;
        scratch.tree[i] = l;
    }
    scratch.tree[0] = if k == 1 { 0 } else { scratch.winners[1] };
    loop {
        let s = scratch.tree[0] as usize;
        let (at_nanos, rseq) = scratch.keys[s];
        if (at_nanos, rseq) == MERGE_DONE {
            break;
        }
        let at = SimTime::from_nanos(at_nanos);
        let shard = &mut shards[s];
        let e = shard.log[shard.log_cursor];
        shard.log_cursor += 1;
        counts[s] += 1;
        sim.events_processed += 1;
        sim.now = at;
        let canon = CanonEvent {
            at_nanos: at.as_nanos(),
            seq: rseq,
            node: e.node,
            kind: e.kind,
            from: e.from,
            bytes: e.bytes,
            tag: e.tag,
        };
        sim.digest.fold_event(&canon);
        if let Some(cap) = &mut sim.capture {
            cap.record(&canon);
        }
        for _ in 0..e.effects {
            let effect = shard.effects[shard.effect_cursor];
            shard.effect_cursor += 1;
            match effect {
                Effect::StagedSeq => {
                    let seq = sim.next_seq();
                    shard.staged_final.push(seq);
                }
                Effect::OutboxSeq(i) => {
                    shard.outbox[i as usize].seq = sim.next_seq();
                }
            }
        }
        // Re-seed the winner's leaf and replay its matches up to the root:
        // the running champion swaps with any stored loser that now beats
        // it. Strict `<` keeps ties (only the exhausted sentinel can tie —
        // resolved seqs are unique) with the incumbent, which is arbitrary
        // but consistent.
        scratch.keys[s] = head_key(&shards[s]);
        let mut cur = s as u32;
        let mut node = (k + s) / 2;
        while node >= 1 {
            if scratch.keys[scratch.tree[node] as usize] < scratch.keys[cur as usize] {
                std::mem::swap(&mut scratch.tree[node], &mut cur);
            }
            node /= 2;
        }
        scratch.tree[0] = cur;
    }
    for shard in shards.iter_mut() {
        debug_assert_eq!(shard.effect_cursor, shard.effects.len());
        shard.log.clear();
        shard.effects.clear();
        shard.log_cursor = 0;
        shard.effect_cursor = 0;
        shard.staged_final.clear();
        shard.staged_count = 0;
    }
    // Route the freshly sequenced outbox events, grouped per destination
    // shard so each wheel is touched once. (Insertion order is irrelevant:
    // the wheel pops by `(at, seq)` and sequence numbers are unique.)
    // Conservative guarantee: each event lands strictly beyond the window
    // that produced it, so no partition ever receives an event for a
    // window it already ran. Draining in place (instead of moving the
    // vectors) keeps the outbox and route allocations warm across windows.
    for shard in shards.iter_mut() {
        let mut outbox = std::mem::take(&mut shard.outbox);
        let pop_horizon = shard.pop_horizon;
        for event in outbox.drain(..) {
            debug_assert!(
                event.at > pop_horizon,
                "outbox event at {} must land strictly beyond the window ({pop_horizon})",
                event.at,
            );
            debug_assert!(event.seq < PROVISIONAL_BASE, "outbox seq left unpatched");
            let dest = shard.owner[event.node.index()] as usize;
            scratch.routes[dest].push(event);
        }
        shard.outbox = outbox;
    }
    for (dest, route) in scratch.routes.iter_mut().enumerate() {
        let wheel = &mut shards[dest].wheel;
        for event in route.drain(..) {
            wheel.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::TimerId;
    use crate::engine::Sim;
    use crate::faults::FaultPlan;
    use crate::net::LinkConfig;
    use proptest::prelude::*;
    use rand::Rng;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Msg {
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

    /// Randomized actor whose every decision comes from the node's
    /// deterministic RNG — identical behaviour under any scheduler that
    /// replays the same per-node event order.
    #[derive(Debug, Default)]
    struct Chaos {
        held: Vec<TimerId>,
        budget: u32,
    }

    impl Chaos {
        fn act(&mut self, ctx: &mut Context<'_, Msg>) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            match ctx.rng().gen_range(0..6u32) {
                0 => {
                    let n = ctx.node_count();
                    let to = NodeId(ctx.rng().gen_range(0..n));
                    ctx.send(to, Msg::Ping(self.budget as u64));
                }
                1 => {
                    let all: Vec<NodeId> = (0..ctx.node_count()).map(NodeId).collect();
                    ctx.multicast(all, Msg::Pong(self.budget as u64));
                }
                2 | 3 => {
                    let delay = SimDuration::from_millis(ctx.rng().gen_range(1..400));
                    let id = ctx.set_timer(delay, TimerTag::of_kind(2));
                    if ctx.rng().gen_bool(0.5) {
                        self.held.push(id);
                    }
                }
                4 => {
                    if let Some(id) = self.held.pop() {
                        ctx.cancel_timer(id);
                    }
                }
                _ => {}
            }
        }
    }

    impl Actor<Msg> for Chaos {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.budget += 40;
            self.act(ctx);
            self.act(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            self.act(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerTag) {
            self.act(ctx);
            self.act(ctx);
        }
    }

    fn chaos_sim(
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
            // Randomized omission on one sender: exercises the
            // counter-keyed fault draws alongside the crash churn.
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
        // Regression (revive boundary): a deliver at exactly the revive tick
        // sequenced before the bookkeeping revive event must be processed,
        // identically at every thread count.
        sim.inject(
            NodeId(crash_node % nodes),
            NodeId((crash_node + 1) % nodes),
            Msg::Ping(77),
            SimTime::from_millis(1500),
        );
        sim
    }

    /// Asserts that two sims which ran the same workload are in
    /// byte-identical observable state.
    fn assert_equivalent(par: &Sim<Msg>, seq: &Sim<Msg>) {
        assert_eq!(par.events_processed(), seq.events_processed());
        assert_eq!(
            par.fingerprint(),
            seq.fingerprint(),
            "fingerprints diverged"
        );
        assert!(
            par.metrics().counters() == seq.metrics().counters(),
            "counter cells diverged"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn parallel_replays_sequential_exactly(
            seed in 0u64..1_000_000,
            nodes in 3u32..8,
            crash_node in 0u32..8,
            regional in proptest::bool::ANY,
            threads in 2usize..9,
        ) {
            let mut par = chaos_sim(seed, nodes, crash_node, regional, 0, false, threads);
            let mut seq = chaos_sim(seed, nodes, crash_node, regional, 0, false, 1);
            // Split the run so queue and RNG state carry across parallel
            // sessions (teardown/rebuild is exercised three times).
            let mut prev_events = 0;
            for h in [1u64, 2, 4] {
                par.run_until(SimTime::from_secs(h));
                seq.run_until(SimTime::from_secs(h));
                // Per-partition counts are per-session: they must sum to the
                // events this session dispatched.
                prop_assert_eq!(
                    par.partition_event_counts().iter().sum::<u64>(),
                    par.events_processed() - prev_events,
                    "partition counts must sum to the session total"
                );
                prev_events = par.events_processed();
                if h == 1 {
                    // The first second is always busy (start events, chaos
                    // budget); later sessions may drain the queue and fall
                    // back to the trivially sequential path.
                    prop_assert!(par.threads_used() > 1, "parallel engine never engaged");
                }
            }
            prop_assert_eq!(seq.threads_used(), 1);
            prop_assert_eq!(par.fingerprint(), seq.fingerprint(), "fingerprints diverged");
            prop_assert_eq!(par.events_processed(), seq.events_processed());
            prop_assert!(
                par.metrics().counters() == seq.metrics().counters(),
                "counter cells diverged"
            );
        }
    }

    /// A message dispatched at a window's first instant whose arrival is
    /// *exactly* `send + lookahead` lands on the lookahead horizon — the
    /// first nanosecond of the next window, the tightest legal landing
    /// spot for a cross-partition send. It must be routed at the barrier
    /// and dispatched there, never inside the window that produced it.
    #[test]
    fn cross_partition_send_on_the_lookahead_horizon() {
        #[derive(Debug)]
        struct Boundary;
        impl Actor<Msg> for Boundary {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if ctx.node() == NodeId(0) {
                    ctx.send(NodeId(1), Msg::Instant);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _: Msg) {
                // Bounce once so the reply crosses back the other way.
                if ctx.node() == NodeId(1) {
                    ctx.send(from, Msg::Ping(1));
                }
            }
        }
        let build = |threads: usize| {
            let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
            let mut sim = Sim::new(7, net);
            sim.set_sim_threads(threads);
            for _ in 0..2 {
                sim.add_node(
                    LinkConfig::paper_default(),
                    Box::new(Boundary),
                    SimTime::ZERO,
                );
            }
            sim.set_partition_hint(vec![vec![NodeId(0)], vec![NodeId(1)]]);
            sim.run_until(SimTime::from_secs(1));
            sim
        };
        let par = build(2);
        let seq = build(1);
        assert_eq!(par.threads_used(), 2);
        // The zero-size send departs at t=0 and arrives at exactly the
        // 25 ms lookahead: both deliveries must have happened.
        assert_eq!(par.metrics().counter_total("node.deliveries"), 2);
        assert_equivalent(&par, &seq);
    }

    /// An entire partition (a "zone") crashes mid-window and revives later:
    /// its workers keep popping (and discarding) traffic for the dead
    /// nodes, and the merged stream must still be byte-identical.
    #[test]
    fn fully_crashed_partition_mid_window() {
        let build = |threads: usize| {
            let mut sim = chaos_sim(11, 6, 0, false, 0, false, threads);
            sim.set_partition_hint(vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3), NodeId(4), NodeId(5)],
            ]);
            let mut faults = FaultPlan::none();
            for n in [3u32, 4, 5] {
                // 512.3 ms sits strictly inside a 25 ms-aligned window.
                faults.crash_for(
                    NodeId(n),
                    SimTime::from_nanos(512_300_000),
                    SimTime::from_millis(1200),
                );
            }
            sim.set_faults(faults);
            sim.run_until(SimTime::from_secs(2));
            sim
        };
        let par = build(2);
        let seq = build(1);
        assert_eq!(par.threads_used(), 2);
        assert_equivalent(&par, &seq);
    }

    /// The revive-boundary regression under partitioning: the crashed
    /// node's partition revives it inline when the deliver at the revive
    /// tick pops before the bookkeeping revive event, and the merged
    /// stream must still be byte-identical to the sequential engine's.
    #[test]
    fn deliver_at_revive_tick_is_thread_count_invariant() {
        let build = |threads: usize| {
            let mut sim = chaos_sim(17, 6, 2, false, 0, false, threads);
            sim.set_partition_hint(vec![
                vec![NodeId(0), NodeId(1), NodeId(2)],
                vec![NodeId(3), NodeId(4), NodeId(5)],
            ]);
            sim.run_until(SimTime::from_secs(4));
            sim
        };
        let par = build(2);
        let eight = build(8);
        let seq = build(1);
        assert_eq!(par.threads_used(), 2);
        assert_equivalent(&par, &seq);
        assert_equivalent(&eight, &seq);
    }

    /// More threads than partitions: a hint that globs every node into one
    /// group leaves nothing to parallelize, so the engine must fall back
    /// to the sequential scheduler — and still match it exactly.
    #[test]
    fn single_partition_config_falls_back_to_sequential() {
        let build = |threads: usize, hint: bool| {
            let mut sim = chaos_sim(13, 4, 1, false, 0, false, threads);
            if hint {
                sim.set_partition_hint(vec![(0..4).map(NodeId).collect()]);
            }
            sim.run_until(SimTime::from_secs(2));
            sim
        };
        let par = build(8, true);
        let seq = build(1, false);
        assert_eq!(par.threads_used(), 1, "one partition cannot run parallel");
        assert!(par.partition_event_counts().is_empty());
        assert_equivalent(&par, &seq);
    }

    /// Region-grouped planning under the paper's WAN matrix: partitions
    /// never split a region (absent a hint), and the lookahead is the
    /// minimum off-diagonal latency of the matrix (10 ms for CN).
    #[test]
    fn planner_groups_regions_and_derives_lookahead() {
        let net = Network::new(LatencyModel::cn_wan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(3, net);
        sim.set_sim_threads(8);
        for i in 0..12u32 {
            sim.add_node(
                LinkConfig::paper_default().in_region(Region((i % 4) as u8)),
                Box::<Chaos>::default(),
                SimTime::ZERO,
            );
        }
        let plan = plan_partitions(&sim).expect("12 nodes over 4 regions must partition");
        assert_eq!(plan.parts.len(), 4, "one partition per region");
        // Row minima of the CN matrix (min off-diagonal entry per region).
        let expected_out_min = [16u64, 14, 10, 10];
        for (p, part) in plan.parts.iter().enumerate() {
            let r = sim.network().link_config(NodeId(part[0])).region;
            assert!(
                part.iter()
                    .all(|&g| sim.network().link_config(NodeId(g)).region == r),
                "regions must not be split across partitions"
            );
            assert_eq!(
                plan.out_min[p],
                SimDuration::from_millis(expected_out_min[r.0 as usize]),
                "outgoing lookahead for region {}",
                r.0
            );
        }
        assert_eq!(plan.l_min, SimDuration::from_millis(10));
    }

    /// Uniform model, free packing: lookahead is the uniform latency and
    /// nodes spread across all requested workers.
    #[test]
    fn planner_packs_uniform_nodes_freely() {
        let net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut sim: Sim<Msg> = Sim::new(3, net);
        sim.set_sim_threads(3);
        for _ in 0..7 {
            sim.add_node(
                LinkConfig::paper_default(),
                Box::<Chaos>::default(),
                SimTime::ZERO,
            );
        }
        let plan = plan_partitions(&sim).expect("uniform nodes must partition");
        assert_eq!(plan.parts.len(), 3);
        assert_eq!(plan.l_min, SimDuration::from_millis(25));
        assert!(
            plan.out_min
                .iter()
                .all(|&d| d == SimDuration::from_millis(25)),
            "uniform model: every pairwise lookahead is the uniform latency"
        );
        let sizes: Vec<usize> = plan.parts.iter().map(Vec::len).collect();
        assert!(sizes.iter().all(|&s| s >= 2), "balanced packing: {sizes:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The adaptive window policy must produce the exact event stream
        /// of the fixed min-L stride — in fewer (or equal) barriers. The
        /// stepwise argument (each adaptive pop horizon dominates the
        /// fixed one from the same frontier) makes `<=` structural, so any
        /// violation is a real safety or bookkeeping bug.
        #[test]
        fn adaptive_matches_fixed_min_l_with_fewer_barriers(
            seed in 0u64..1_000_000,
            nodes in 3u32..8,
            crash_node in 0u32..8,
            regional in proptest::bool::ANY,
            threads in 2usize..9,
        ) {
            let run = |policy: WindowPolicy| {
                let mut sim = chaos_sim(seed, nodes, crash_node, regional, 0, false, threads);
                sim.window_policy = policy;
                sim.run_until(SimTime::from_secs(4));
                sim
            };
            let adaptive = run(WindowPolicy::Adaptive);
            let fixed = run(WindowPolicy::FixedMinL);
            prop_assert!(adaptive.threads_used() > 1, "adaptive run never engaged");
            prop_assert_eq!(
                adaptive.fingerprint(),
                fixed.fingerprint(),
                "window policy must not change the event stream"
            );
            prop_assert_eq!(adaptive.events_processed(), fixed.events_processed());
            prop_assert!(
                adaptive.metrics().counters() == fixed.metrics().counters(),
                "counter cells diverged across window policies"
            );
            prop_assert!(adaptive.windows_run() > 0, "no barriers counted");
            prop_assert!(
                adaptive.windows_run() <= fixed.windows_run(),
                "adaptive took {} barriers, fixed min-L {}",
                adaptive.windows_run(),
                fixed.windows_run()
            );
        }

        /// Jittered (and randomly omitting) runs no longer fall back to the
        /// sequential engine: the counter-keyed per-link draw streams must
        /// make them bit-identical at every thread count.
        #[test]
        fn jittered_runs_are_thread_count_invariant(
            seed in 0u64..1_000_000,
            nodes in 3u32..8,
            crash_node in 0u32..8,
            jitter_ms in 1u64..10,
            omit in proptest::bool::ANY,
        ) {
            let run = |threads: usize| {
                let mut sim = chaos_sim(seed, nodes, crash_node, false, jitter_ms, omit, threads);
                sim.run_until(SimTime::from_secs(3));
                sim
            };
            let seq = run(1);
            let two = run(2);
            let eight = run(8);
            prop_assert_eq!(seq.threads_used(), 1);
            prop_assert!(
                two.threads_used() > 1,
                "a jittered run must engage the parallel engine"
            );
            for par in [&two, &eight] {
                prop_assert_eq!(
                    par.fingerprint(),
                    seq.fingerprint(),
                    "jittered fingerprints diverged from sequential"
                );
                prop_assert_eq!(par.events_processed(), seq.events_processed());
                prop_assert!(
                    par.metrics().counters() == seq.metrics().counters(),
                    "counter cells diverged"
                );
            }
        }
    }
}
