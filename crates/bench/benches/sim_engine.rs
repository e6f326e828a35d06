//! Event throughput of the discrete-event engine (the substrate cost every
//! experiment pays).
//!
//! * `sim_ring_10s_16nodes`: one token round a ring — the queue never holds
//!   more than one event, so this is dispatch and link scheduling alone.
//! * `sim_fanout_depth64` / `sim_fanout_depth2000`: a constant population
//!   of tokens crossing the four-region WAN, sized so that about 64 or
//!   about 2 000 events share one 2.1 ms tick of the timer wheel — the
//!   regimes of the repo benchmark's three small worlds and of `mz_mega`.
//!   Each case first prints its event count and events per tick; wall time
//!   per iteration over that count is the cost of one event.

use criterion::{criterion_group, criterion_main, Criterion};
use predis_sim::prelude::*;

#[derive(Debug, Clone)]
struct Tick;
impl Payload for Tick {
    fn wire_size(&self) -> usize {
        64
    }
}

/// A ring of nodes forwarding a token as fast as links allow.
#[derive(Debug)]
struct Ring;
impl Actor<Tick> for Ring {
    fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
        if ctx.node().0 == 0 {
            let next = NodeId((ctx.node().0 + 1) % ctx.node_count());
            ctx.send(next, Tick);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Tick>, _from: NodeId, _msg: Tick) {
        let next = NodeId((ctx.node().0 + 1) % ctx.node_count());
        ctx.send(next, Tick);
    }
}

/// Peers a node multicasts to, and arrivals it waits for before it does.
const FANOUT: u32 = 3;

/// Re-multicasts to the next [`FANOUT`] nodes — one in each other region —
/// on every `FANOUT`-th arrival, so the tokens released at start neither
/// multiply nor die out.
#[derive(Debug)]
struct Fanout {
    /// Multicasts released at start.
    rounds: u32,
    arrivals: u32,
}

impl Fanout {
    fn multicast(ctx: &mut Context<'_, Tick>) {
        let (me, nodes) = (ctx.node().0, ctx.node_count());
        ctx.multicast((1..=FANOUT).map(|step| NodeId((me + step) % nodes)), Tick);
    }
}

impl Actor<Tick> for Fanout {
    fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
        for _ in 0..self.rounds {
            Fanout::multicast(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Tick>, _from: NodeId, _msg: Tick) {
        self.arrivals += 1;
        if self.arrivals.is_multiple_of(FANOUT) {
            Fanout::multicast(ctx);
        }
    }
}

/// `nodes` nodes spread round-robin over the WAN's four regions, joining
/// over the first 20 ms so the token waves start out of phase, each
/// releasing `rounds × FANOUT` tokens; run for `millis` simulated ms.
fn fanout(nodes: u32, rounds: u32, millis: u64) -> u64 {
    let mut sim: Sim<Tick> = Sim::new(1, Network::new(LatencyModel::cn_wan(), SimDuration::ZERO));
    for node in 0..nodes {
        let mut link = LinkConfig::paper_default();
        link.region = Region((node % 4) as u8);
        let actor = Box::new(Fanout {
            rounds,
            arrivals: 0,
        });
        let joins = SimTime::from_nanos(u64::from(node) * 20_000_000 / u64::from(nodes));
        sim.add_node(link, actor, joins);
    }
    sim.run_until(SimTime::from_millis(millis));
    sim.events_processed()
}

fn bench_fanout(c: &mut Criterion, id: &str, nodes: u32, rounds: u32, millis: u64) {
    let events = fanout(nodes, rounds, millis);
    let ticks = (millis * 1_000_000) >> 21;
    println!(
        "{id}: {events} events per iteration, {} per 2.1 ms tick",
        events / ticks
    );
    c.bench_function(id, |b| b.iter(|| fanout(nodes, rounds, millis)));
}

fn bench(c: &mut Criterion) {
    bench_fanout(c, "sim_fanout_depth64", 64, 3, 30_000);
    bench_fanout(c, "sim_fanout_depth2000", 2048, 3, 1_000);

    c.bench_function("sim_ring_10s_16nodes", |b| {
        b.iter(|| {
            let net = Network::new(
                LatencyModel::Uniform(SimDuration::from_micros(100)),
                SimDuration::ZERO,
            );
            let mut sim: Sim<Tick> = Sim::new(1, net);
            for _ in 0..16 {
                sim.add_node(LinkConfig::paper_default(), Box::new(Ring), SimTime::ZERO);
            }
            sim.run_until(SimTime::from_secs(10));
            sim.events_processed()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
