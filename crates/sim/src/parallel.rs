//! Conservative parallel discrete-event simulation (PDES).
//!
//! The sequential engine processes one global `(time, key)`-ordered event
//! stream, each event's key fixed by whoever created it. This module splits
//! the node set into partitions — one worker thread each — and lets every
//! partition advance its **own** timer wheel concurrently, exploiting the
//! classic conservative-PDES observation: a message from another partition
//! cannot arrive sooner than the cross-partition propagation latency, the
//! **lookahead**. Execution proceeds in lockstep windows:
//!
//! 1. **Window (parallel)** — each worker drains its wheel up to the shared
//!    pop horizon, in the engine's one dispatch loop. An event it creates
//!    for one of its own nodes goes straight into its wheel; one for another
//!    partition's node goes to its outbox.
//! 2. **Barrier (sequential)** — the driver routes outbox events (which
//!    provably land beyond the window) to their owners' wheels and picks the
//!    next window. No event is merged or replayed; only an open capture's
//!    window buffers are merged into its file.
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
//! Why nothing needs replaying: a worker receives no cross-partition event
//! inside its window, so what it pops there is exactly what the sequential
//! engine pops for its nodes in that span, under the same keys, in the same
//! `(time, key)` order — the global order restricted to one partition *is*
//! the partition's own order. Everything order-sensitive lives with one node
//! (actor, RNG, timers, trace digest, order-key counter) or one sending link
//! (jitter and omission draws come from counter-keyed streams
//! `hash(stream_seed, link, draw_index)`), and only the partition that owns
//! it ever touches it. So the result is **bit-identical** to the sequential
//! engine for any thread count. The differential tests at the bottom of this
//! file and the CI determinism matrix hold the engine to that: same
//! fingerprint, same counters, at 1, 2, or 8 threads, jittered or not.
//!
//! Parallelism disengages (the caller falls back to the sequential loop,
//! and the run report says why: [`Fallback`]) only when it could not help:
//! nothing queued, fewer than two partitions, or zero lookahead. The
//! observers are no reason: a worker's core profiles its own partition and
//! buffers its window's pops for an open capture, and teardown and the
//! barrier fold those back.

use std::collections::BTreeMap;

use crate::actor::{NodeId, Payload};
use crate::dispatch::{Capture, Core, Sequencer};
use crate::engine::Sim;
use crate::net::{LatencyModel, Region};
use crate::queue::{Event, TimerWheel};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceCapture;

use predis_parallel::run_lockstep;
use predis_types::payload_stats;

/// The gate condition that sent a run with more than one thread requested
/// back to the sequential scheduler; stamped as `engine.fallback`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fallback {
    /// Nothing is queued at or before the horizon.
    Idle,
    /// The planner found fewer than two partitions.
    OnePartition,
    /// Some pair of partitions has zero propagation latency between them.
    ZeroLookahead,
}

impl Fallback {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Fallback::Idle => "idle",
            Fallback::OnePartition => "one-partition",
            Fallback::ZeroLookahead => "zero-lookahead",
        }
    }
}

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

/// A node partition: one worker thread's complete, self-contained slice of
/// the simulation — the engine core over the partition's node records
/// (*moved* in at session start and moved back at teardown; shared-read
/// state cloned, the metrics sink an empty fork absorbed at teardown), run
/// under the window sequencer instead of the global queue.
struct Shard<M> {
    core: Core<M>,
    order: WindowOrder<M>,
    /// The current window's shared, inclusive pop horizon.
    pop_horizon: SimTime,
    /// Events this shard has popped in the session.
    popped: u64,
}

/// A partition worker's side of the sequencing seam: its own wheel, and an
/// outbox for the barrier.
struct WindowOrder<M> {
    id: u32,
    /// Global node index -> owning partition id.
    owner: Vec<u32>,
    wheel: TimerWheel<M>,
    outbox: Vec<Event<M>>,
}

impl<M: Payload> Shard<M> {
    /// Drains every event up to (and including) the window's pop horizon.
    fn run_window(&mut self) {
        self.popped += self.core.drain(&mut self.order, self.pop_horizon);
    }
}

impl<M> Sequencer<M> for WindowOrder<M> {
    /// An event for an owned node joins this partition's wheel, inside the
    /// window or beyond it — its key is final either way. Anything else
    /// waits in the outbox for the barrier to route.
    fn schedule(&mut self, event: Event<M>) {
        if self.owner[event.node.index()] == self.id {
            self.wheel.push(event);
        } else {
            self.outbox.push(event);
        }
    }

    fn pop_next(&mut self, horizon: SimTime) -> Option<Event<M>> {
        self.wheel.pop_next(horizon)
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
/// Returns the [`Fallback`] when fewer than two partitions materialize or
/// the global minimum lookahead is zero.
fn plan_partitions<M: Payload>(sim: &Sim<M>) -> Result<Plan, Fallback> {
    let n = sim.node_count();
    if n < 2 {
        return Err(Fallback::OnePartition);
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
        match sim.core.network.latency_model() {
            LatencyModel::Regional { .. } => {
                let mut by_region: BTreeMap<Region, Vec<u32>> = BTreeMap::new();
                for i in 0..n {
                    let region = sim.core.network.link_config(NodeId(i as u32)).region;
                    by_region.entry(region).or_default().push(i as u32);
                }
                groups.extend(by_region.into_values());
            }
            LatencyModel::Uniform(_) => groups.extend((0..n).map(|i| vec![i as u32])),
        }
    }
    let bins = sim.threads.min(groups.len());
    if bins < 2 {
        return Err(Fallback::OnePartition);
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
    let model = sim.core.network.latency_model();
    let regions: Vec<Vec<Region>> = parts
        .iter()
        .map(|part| {
            let mut rs: Vec<Region> = part
                .iter()
                .map(|&g| sim.core.network.link_config(NodeId(g)).region)
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
        return Err(Fallback::ZeroLookahead);
    }
    Ok(Plan {
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
        .filter_map(|s| s.order.wheel.earliest_lower_bound())
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
        let Some(t) = shard.order.wheel.earliest_event_time() else {
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

/// Runs the simulation in parallel up to `horizon`, or returns (without
/// touching any state) the gate condition that rules it out; the caller
/// then runs the sequential loop. Parallelism is only engaged when it
/// provably cannot change the event stream. Jitter and randomized omission
/// are *not* fallbacks: their draws come from per-link counter-keyed
/// streams whose values depend only on each link's own send count, so any
/// thread interleaving replays them exactly. On `Ok`, every node's event
/// stream and digest, the metrics, RNG states, and queue contents are
/// bit-identical to what the sequential loop would have produced.
pub(crate) fn run_until_parallel<M: Payload>(
    sim: &mut Sim<M>,
    horizon: SimTime,
) -> Result<(), Fallback> {
    match sim.queue.earliest_lower_bound() {
        Some(lb) if lb <= horizon => {}
        _ => return Err(Fallback::Idle), // the sequential loop is free
    }
    let plan = plan_partitions(sim)?;
    let nparts = plan.parts.len();

    // ---- Session start: carve the engine into shards, one move per node
    // (ascending global index, which is how `plan.local` numbers them). ----
    let mut shards: Vec<Shard<M>> = (0u32..)
        .zip(&plan.parts)
        .map(|(id, part)| Shard {
            core: sim.core.fork(plan.local.clone(), part.len()),
            order: WindowOrder {
                id,
                owner: plan.owner.clone(),
                wheel: TimerWheel::new(),
                outbox: Vec::new(),
            },
            pop_horizon: SimTime::ZERO,
            popped: 0,
        })
        .collect();
    for (record, &p) in std::mem::take(&mut sim.core.nodes)
        .into_iter()
        .zip(&plan.owner)
    {
        shards[p as usize].core.nodes.push(record);
    }
    // Distribute the pending event set; the engine keeps a fresh wheel that
    // teardown refills with whatever outlives the horizon.
    let mut old_queue = std::mem::replace(&mut sim.queue, TimerWheel::new());
    while let Some(event) = old_queue.pop_next(SimTime::MAX) {
        let p = plan.owner[event.node.index()] as usize;
        shards[p].order.wheel.push(event);
    }

    // ---- Lockstep window loop. ----
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
    let (shards, harvests) = if let Some(mut pop_horizon) = first_pop {
        for shard in shards.iter_mut() {
            shard.pop_horizon = pop_horizon;
        }
        run_lockstep(
            shards,
            |_p, shard: &mut Shard<M>| shard.run_window(),
            |shards: &mut Vec<Shard<M>>| {
                sim.windows += 1;
                if let Some(Capture::File(file)) = &mut sim.core.capture {
                    merge_window_captures(shards, file);
                }
                route_outboxes(shards);
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
    let mut records = Vec::with_capacity(nparts);
    let mut counts = Vec::with_capacity(nparts);
    for (shard, part) in shards.into_iter().zip(&plan.parts) {
        let Shard {
            core,
            mut order,
            popped,
            ..
        } = shard;
        for &g in part {
            sim.core.network.adopt_link_state(NodeId(g), &core.network);
        }
        debug_assert!(order.outbox.is_empty());
        while let Some(event) = order.wheel.pop_next(SimTime::MAX) {
            sim.queue.push(event);
        }
        sim.core.metrics.absorb_worker(core.metrics);
        if let (Some(all), Some(part)) = (&mut sim.core.profile, core.profile) {
            all.absorb(part);
        }
        sim.events_processed += popped;
        counts.push(popped);
        records.push(core.nodes.into_iter());
    }
    // One move back per node: each shard holds its records in ascending
    // global order, so pulling from the owner's in turn restores the table.
    sim.core.nodes = plan
        .owner
        .iter()
        .map(|&p| records[p as usize].next().expect("one record per node"))
        .collect();
    sim.threads_used = nparts;
    sim.partition_events = counts;
    Ok(())
}

/// The barrier's work: hand every outbox event to its owner's wheel. Each
/// lands strictly beyond the window that produced it (the conservative
/// guarantee), so no partition ever receives an event for a window it
/// already ran; insertion order is irrelevant, since a wheel pops by
/// `(at, key)` and keys are unique. Draining in place keeps the outbox
/// allocations warm across windows.
fn route_outboxes<M>(shards: &mut [Shard<M>]) {
    for p in 0..shards.len() {
        let mut outbox = std::mem::take(&mut shards[p].order.outbox);
        let pop_horizon = shards[p].pop_horizon;
        for event in outbox.drain(..) {
            debug_assert!(
                event.at > pop_horizon,
                "outbox event at {} must land strictly beyond the window ({pop_horizon})",
                event.at,
            );
            let dest = shards[p].order.owner[event.node.index()] as usize;
            shards[dest].order.wheel.push(event);
        }
        shards[p].order.outbox = outbox;
    }
}

/// The barrier's capture step: appends the window's pops, which each
/// worker buffered in its own pop order, to the capture file. Each step
/// writes the least head by `(at, seq)` across the buffers. A buffer is the
/// sequential pop order restricted to its partition, and no event of
/// another partition can land inside the window, so the least head is the
/// event the sequential loop pops next. This is a merge, not a sort: a
/// dispatch that files an event at the same instant under a smaller key
/// pops that event next, so one buffer need not be in `(at, seq)` order.
fn merge_window_captures<M>(shards: &mut [Shard<M>], file: &mut TraceCapture) {
    let mut logs: Vec<_> = shards
        .iter_mut()
        .filter_map(|shard| match &mut shard.core.capture {
            Some(Capture::Window(log)) => Some(log.drain(..).peekable()),
            _ => None,
        })
        .collect();
    loop {
        let least = (0..logs.len())
            .filter_map(|i| logs[i].peek().map(|e| (e.at_nanos, e.seq, i)))
            .min();
        let Some((_, _, i)) = least else { return };
        file.record(&logs[i].next().expect("peeked"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Context};
    use crate::chaos::{assert_covers_the_rare_arms, assert_equivalent, chaos_sim, Chaos, Msg};
    use crate::engine::Sim;
    use crate::faults::FaultPlan;
    use crate::net::{LinkConfig, Network};
    use proptest::prelude::*;

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
            assert_equivalent(&par, &seq);
            assert_covers_the_rare_arms(&par);
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
    /// nodes, and every node's stream must still be byte-identical.
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
    /// tick pops before the bookkeeping revive event, and every node's
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
        assert_eq!(stamped_fallback(&par).as_deref(), Some("one-partition"));
        assert_eq!(stamped_fallback(&seq), None, "one thread asked for no more");
    }

    /// The `engine.fallback` meta key of the sim's report, if stamped.
    fn stamped_fallback(sim: &Sim<Msg>) -> Option<String> {
        sim.report("fallback").meta.get("engine.fallback").cloned()
    }

    /// `nodes` actors that start and then never do anything, on a LAN of
    /// the given latency, with two threads requested.
    fn inert_sim(nodes: usize, latency: SimDuration) -> Sim<Msg> {
        #[derive(Debug)]
        struct Inert;
        impl Actor<Msg> for Inert {
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let net = Network::new(LatencyModel::Uniform(latency), SimDuration::ZERO);
        let mut sim = Sim::new(5, net);
        sim.set_sim_threads(2);
        for _ in 0..nodes {
            sim.add_node(LinkConfig::paper_default(), Box::new(Inert), SimTime::ZERO);
        }
        sim
    }

    /// The profiler rides in every worker's core: a profiled run engages
    /// the parallel engine, and absorbing the workers' profiles gives the
    /// one-thread cell counts (their nanoseconds are wall time, so they
    /// differ).
    #[test]
    fn profiled_runs_engage_the_parallel_engine() {
        let run = |threads: usize| {
            let mut sim = chaos_sim(3, 6, 0, false, 0, false, threads);
            sim.enable_profiling();
            for h in [1u64, 2, 4] {
                sim.run_until(SimTime::from_secs(h));
            }
            sim
        };
        let (one, two) = (run(1), run(2));
        assert!(two.windows_run() > 0, "the profiled run never engaged");
        let cells = |sim: &Sim<Msg>| {
            let report = sim.report("profiled");
            let cells = report.profile.into_iter();
            cells
                .map(|e| (e.actor, e.event, e.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(cells(&one), cells(&two));
        assert_eq!(one.fingerprint(), two.fingerprint());
        for sim in [&one, &two] {
            let p = sim.profile().expect("profiling enabled");
            assert_eq!(p.events(), sim.events_processed());
            assert!(p.attributed_ns() <= p.run_ns());
        }
    }

    /// Asking for two threads does not change a single byte of a capture.
    #[test]
    fn two_thread_capture_is_byte_identical_to_one_thread_capture() {
        let dir = capture_dir("bytes");
        let capture = |threads: usize| {
            let path = dir.join(format!("t{threads}.trace.jsonl"));
            let mut sim = chaos_sim(19, 6, 2, true, 0, true, threads);
            sim.enable_capture(&path).expect("start capture");
            for h in [1u64, 2, 4] {
                sim.run_until(SimTime::from_secs(h));
            }
            sim.finish_observability();
            (sim, std::fs::read(&path).expect("capture written"))
        };
        let (one, one_bytes) = capture(1);
        let (two, two_bytes) = capture(2);
        assert!(two.windows_run() > 0, "the two-thread run never engaged");
        assert!(!one_bytes.is_empty());
        assert!(one_bytes == two_bytes, "the two captures differ");
        assert_equivalent(&one, &two);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A per-test temporary directory for captures.
    fn capture_dir(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("predis-parallel-{test}-{}", std::process::id()))
    }

    #[test]
    fn idle_fallback_is_stamped_for_the_idle_run_only() {
        let mut sim = inert_sim(2, SimDuration::from_millis(25));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.threads_used(), 2, "the start events run in parallel");
        assert_eq!(stamped_fallback(&sim), None);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.threads_used(), 1);
        assert_eq!(stamped_fallback(&sim).as_deref(), Some("idle"));
    }

    #[test]
    fn zero_lookahead_fallback_is_stamped() {
        let mut sim = inert_sim(2, SimDuration::ZERO);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.threads_used(), 1);
        assert_eq!(stamped_fallback(&sim).as_deref(), Some("zero-lookahead"));
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
            // The window policy must not change the event stream.
            assert_equivalent(&adaptive, &fixed);
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
                assert_equivalent(par, &seq);
            }
        }
    }
}
