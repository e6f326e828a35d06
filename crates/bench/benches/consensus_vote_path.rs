//! The ordering shells' per-delivery bookkeeping — what
//! `consensus.ns_per_delivery` of the repo benchmark's `pbft_batch`
//! workload measures — in isolation: replica 1 of an 8-node committee runs
//! alone (its peers and the client are sinks) and is handed 10 000 queued
//! deliveries, so a tenth of µs/iter reads as ns per delivery, queue pop
//! and dispatch included.
//!
//! * `pbft_votes_full_pipeline`: the steady state of a non-leader
//!   `PbftNode<BatchPlane>` with eight slots in flight — per slot one
//!   pre-prepare (14 transactions, the workload's mean), six prepares and
//!   seven commits, execution, garbage collection and the client reply
//!   included; 714 slots, so the retention window slides throughout.
//! * `batch_submit_50k_table`: one client `Submit` of an unseen transaction
//!   against a plane that already tracks 50 000 proposed ones.
//! * `batch_validate_commit_50k`: a `BatchPlane` alone (no shell) handed one
//!   14-transaction batch per delivery, which it validates and then
//!   commits, against a table that already tracks 50 000 executed ids — the
//!   insert side of the same table.
//! * `hotstuff_votes`: `HsVote`s to the next leader, five of every seven
//!   forming a QC and advancing the round.
//!
//! Everything the replica sends leaves on a 25 ms link, past the horizon of
//! the timed span.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use predis_consensus::planes::BatchPlane;
use predis_consensus::{
    ConsMsg, ConsensusConfig, DataPlane, HotStuffNode, PbftNode, ProposalCheck, Roster,
};
use predis_crypto::Hash;
use predis_sim::prelude::*;
use predis_types::{ClientId, ProposalPayload, SeqNum, Transaction, TxId, View};

const N_C: u32 = 8;
const ME: NodeId = NodeId(1);
const DELIVERIES: u64 = 10_000;
const PIPELINE: u64 = 8;
const TXS_PER_SLOT: u64 = 14;

#[derive(Debug)]
struct Sink;

impl Actor<ConsMsg> for Sink {
    fn on_message(&mut self, _: &mut Context<'_, ConsMsg>, _: NodeId, _: ConsMsg) {}
}

/// A committee of sinks around replica 1, built by `core`.
fn lone_replica<C>(core: impl FnOnce(Roster, ConsensusConfig) -> C) -> Sim<ConsMsg>
where
    C: ProtocolCore<ConsMsg> + 'static,
{
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<ConsMsg> = Sim::new(3, network);
    let roster = Roster::new((0..N_C).map(NodeId).collect(), vec![NodeId(N_C)]);
    let mut core = Some(core(roster, ConsensusConfig::default()));
    for node in 0..=N_C {
        let actor: Box<dyn Actor<ConsMsg>> = match core.take_if(|_| NodeId(node) == ME) {
            Some(core) => Box::new(ActorOf::<_, ConsMsg>::new(core)),
            None => Box::new(Sink),
        };
        sim.add_node(LinkConfig::paper_default(), actor, SimTime::ZERO);
    }
    sim
}

fn pbft_replica() -> Sim<ConsMsg> {
    lone_replica(|roster, cfg| {
        let plane = BatchPlane::new(cfg.batch_size);
        PbftNode::new(ME.index(), roster, cfg, plane)
    })
}

/// Queues `msgs` for the replica one microsecond apart from `start_ms`.
fn inject_all(sim: &mut Sim<ConsMsg>, start_ms: u64, msgs: impl Iterator<Item = (u32, ConsMsg)>) {
    for (k, (from, msg)) in msgs.enumerate() {
        let at = SimTime::from_nanos(start_ms * 1_000_000 + k as u64 * 1_000);
        sim.inject(ME, NodeId(from), msg, at);
    }
}

fn preprepare(seq: u64, txs: u64) -> (u32, ConsMsg, Hash) {
    let first = seq * 1_000;
    let txs = (first..first + txs)
        .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
        .collect();
    let payload = ProposalPayload::Batch(txs);
    let digest = payload.digest();
    let msg = ConsMsg::PrePrepare {
        view: View(0),
        seq: SeqNum(seq),
        payload: payload.into(),
    };
    (0, msg, digest)
}

/// Slots `1..=PIPELINE` pre-prepared, then per slot `s` the pre-prepare of
/// `s + PIPELINE` and every peer's votes for `s`.
fn pbft_votes() -> Sim<ConsMsg> {
    let mut sim = pbft_replica();
    let slots = DELIVERIES / (1 + 6 + 7);
    let mut digests = Vec::new();
    let mut proposals: Vec<(u32, ConsMsg)> = Vec::new();
    for seq in 1..=slots + PIPELINE {
        let (from, msg, digest) = preprepare(seq, TXS_PER_SLOT);
        proposals.push((from, msg));
        digests.push(digest);
    }
    let mut proposals = proposals.into_iter();
    inject_all(&mut sim, 1, proposals.by_ref().take(PIPELINE as usize));
    // Past the arrival of the warm-up's own votes at the sinks.
    sim.run_until(SimTime::from_millis(29));
    let votes = (1..=slots).flat_map(|seq| {
        let (view, digest) = (View(0), digests[seq as usize - 1]);
        let seq = SeqNum(seq);
        let prepares = (2..N_C).map(move |p| (p, ConsMsg::Prepare { view, seq, digest }));
        let commits = (0..N_C)
            .filter(|&p| NodeId(p) != ME)
            .map(move |p| (p, ConsMsg::Commit { view, seq, digest }));
        proposals.next().into_iter().chain(prepares).chain(commits)
    });
    inject_all(&mut sim, 30, votes);
    sim
}

/// 63 pre-prepared (never committed) full batches, then unseen submits.
fn batch_submits() -> Sim<ConsMsg> {
    let mut sim = pbft_replica();
    let proposals = (1..=63).map(|seq| {
        let (from, msg, _) = preprepare(seq, 800);
        (from, msg)
    });
    inject_all(&mut sim, 1, proposals);
    // Past the arrival of the warm-up's own votes at the sinks.
    sim.run_until(SimTime::from_millis(29));
    let submits = (0..DELIVERIES).map(|i| {
        let tx = Transaction::new(TxId((1 << 40) | i), ClientId(1), 0);
        (N_C, ConsMsg::Submit(tx))
    });
    inject_all(&mut sim, 30, submits);
    sim
}

/// Client `k % 8`'s transaction `k / 8`: arrivals interleave eight
/// clients, each minting dense ids.
fn interleaved(k: u64) -> Transaction {
    let client = k % 8;
    Transaction::new(TxId((client << 40) | (k / 8)), ClientId(client as u32), 0)
}

/// A batch plane that executes 50 000 transactions when it starts, then
/// validates and commits the batch of every pre-prepare it is handed.
#[derive(Debug)]
struct PlaneAlone(BatchPlane);

impl Actor<ConsMsg> for PlaneAlone {
    fn on_start(&mut self, ctx: &mut Context<'_, ConsMsg>) {
        let txs = (0..50_000).map(interleaved).collect();
        let payload = ProposalPayload::Batch(txs);
        let z = Hash::ZERO;
        self.0.commit(&mut ctx.narrow(), z, z, z, &payload);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ConsMsg>, _: NodeId, msg: ConsMsg) {
        let ConsMsg::PrePrepare { payload, .. } = msg else {
            return;
        };
        let (ctx, z) = (&mut ctx.narrow(), Hash::ZERO);
        let check = self.0.validate(ctx, 0, z, z, z, &payload);
        assert_eq!(check, ProposalCheck::Accept);
        let executed = self.0.commit(ctx, z, z, z, &payload);
        assert_eq!(executed.map(|txs| txs.len()), Some(TXS_PER_SLOT as usize));
    }
}

/// The plane with 50 000 executed ids, then the next batches of fresh
/// ones in arrival order.
fn batch_commits() -> Sim<ConsMsg> {
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<ConsMsg> = Sim::new(3, network);
    let plane = PlaneAlone(BatchPlane::new(ConsensusConfig::default().batch_size));
    let me = sim.add_node(LinkConfig::paper_default(), Box::new(plane), SimTime::ZERO);
    sim.run_until(SimTime::from_millis(29));
    for seq in 0..DELIVERIES {
        let first = 50_000 + seq * TXS_PER_SLOT;
        let txs = (first..first + TXS_PER_SLOT).map(interleaved).collect();
        let msg = ConsMsg::PrePrepare {
            view: View(0),
            seq: SeqNum(seq),
            payload: ProposalPayload::Batch(txs).into(),
        };
        let at = SimTime::from_nanos(30_000_000 + seq * 1_000);
        sim.inject(me, me, msg, at);
    }
    sim
}

/// Votes for the blocks of rounds 8, 16, … (replica 1 leads the round
/// after each), one from every peer.
fn hotstuff_votes() -> Sim<ConsMsg> {
    let mut sim = lone_replica(|roster, cfg| {
        let plane = BatchPlane::new(cfg.batch_size);
        HotStuffNode::new(ME.index(), roster, cfg, plane)
    });
    let peers = N_C as u64 - 1;
    let votes = (0..DELIVERIES).map(|k| {
        let round = View((1 + k / peers) * N_C as u64);
        let block = Hash::digest(&round.0.to_le_bytes());
        let from = [0, 2, 3, 4, 5, 6, 7][(k % peers) as usize];
        (from, ConsMsg::HsVote { block, round })
    });
    inject_all(&mut sim, 30, votes);
    sim
}

/// Builds a replica with its timed deliveries queued.
type World = fn() -> Sim<ConsMsg>;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus_vote_path");
    let cases: [(&str, World); 4] = [
        ("pbft_votes_full_pipeline", pbft_votes),
        ("batch_submit_50k_table", batch_submits),
        ("batch_validate_commit_50k", batch_commits),
        ("hotstuff_votes", hotstuff_votes),
    ];
    for (name, build) in cases {
        // Finished worlds are dropped after the clock stops.
        let mut spent = Vec::new();
        g.bench_function(name, |b| {
            b.iter_batched(
                build,
                |mut sim| {
                    sim.run_until(SimTime::from_millis(45));
                    spent.push(sim);
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
