//! Liveness under faults: leader crashes trigger view changes (PBFT) and
//! pacemaker round advances (HotStuff); an equivocating producer is banned
//! network-wide and the committee keeps committing (§III-D, §III-E).

use predis::consensus::planes::PredisPlane;
use predis::consensus::{
    ClientCore, ConsMsg, ConsensusConfig, EquivocatingProducer, HotStuffNode, PbftNode, Roster,
};
use predis::experiments::Protocol;
use predis::sim::prelude::*;
use predis::types::{ChainId, ClientId};

/// Builds a P-PBFT or P-HS network directly so faults can be injected at
/// the simulator level; returns (sim, roster).
fn build(
    protocol: Protocol,
    n_c: usize,
    seed: u64,
    attacker: Option<usize>,
) -> (Sim<ConsMsg>, Roster) {
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<ConsMsg> = Sim::new(seed, network);
    let cons: Vec<NodeId> = (0..n_c as u32).map(NodeId).collect();
    let clients: Vec<NodeId> = vec![NodeId(n_c as u32), NodeId(n_c as u32 + 1)];
    let roster = Roster::new(cons, clients.clone());
    let mut cfg = ConsensusConfig::default().paced_production(n_c, 512, 100_000_000);
    cfg.view_timeout = SimDuration::from_millis(800);
    // Record metrics at a replica that is neither attacker nor the crashed
    // initial leader (node 0).
    cfg.metrics_replica = 1;
    for me in 0..n_c {
        let actor: Box<dyn Actor<ConsMsg>> = if Some(me) == attacker {
            Box::new(ActorOf::<_, ConsMsg>::new(EquivocatingProducer::new(
                me,
                roster.clone(),
                cfg.clone(),
            )))
        } else {
            match protocol {
                Protocol::PPbft => Box::new(ActorOf::<_, ConsMsg>::new(PbftNode::new(
                    me,
                    roster.clone(),
                    cfg.clone(),
                    PredisPlane::new(me, roster.clone(), cfg.clone()),
                ))),
                Protocol::PHs => Box::new(ActorOf::<_, ConsMsg>::new(HotStuffNode::new(
                    me,
                    roster.clone(),
                    cfg.clone(),
                    PredisPlane::new(me, roster.clone(), cfg.clone()),
                ))),
                _ => unreachable!("liveness tests use the Predis variants"),
            }
        };
        sim.add_node(LinkConfig::paper_default(), actor, SimTime::ZERO);
    }
    for (i, &node) in clients.iter().enumerate() {
        let client = ClientCore::new(ClientId(i as u32), roster.clone(), 1_000.0, 512);
        let _ = node;
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, ConsMsg>::new(client)),
            SimTime::ZERO,
        );
    }
    (sim, roster)
}

#[test]
fn pbft_survives_leader_crash() {
    let (mut sim, _) = build(Protocol::PPbft, 4, 31, None);
    // Let it commit, then kill the view-0 leader (node 0).
    let mut faults = FaultPlan::none();
    faults.crash(NodeId(0), SimTime::from_secs(4));
    sim.set_faults(faults);
    sim.run_until(SimTime::from_secs(14));
    let before = sim
        .metrics()
        .committed_txs_in(SimTime::ZERO, SimTime::from_secs(4));
    let after = sim
        .metrics()
        .committed_txs_in(SimTime::from_secs(6), SimTime::from_secs(14));
    assert!(before > 500, "committed {before} before the crash");
    assert!(
        after > 2_000,
        "view change must restore progress: only {after} txs after the crash"
    );
    assert!(sim.metrics().counter("pbft.views_entered") >= 1);
}

#[test]
fn hotstuff_survives_replica_crash() {
    let (mut sim, _) = build(Protocol::PHs, 4, 37, None);
    // Crash a non-leader replica: rotation will hit its rounds, the
    // pacemaker must skip them.
    let mut faults = FaultPlan::none();
    faults.crash(NodeId(2), SimTime::from_secs(4));
    sim.set_faults(faults);
    sim.run_until(SimTime::from_secs(16));
    let after = sim
        .metrics()
        .committed_txs_in(SimTime::from_secs(6), SimTime::from_secs(16));
    assert!(
        after > 2_000,
        "pacemaker must route around the dead replica: only {after} txs"
    );
    assert!(sim.metrics().counter("hs.timeouts") >= 1);
}

#[test]
fn equivocator_is_banned_everywhere_and_progress_continues() {
    let (mut sim, _) = build(Protocol::PPbft, 4, 41, Some(3));
    sim.run_until(SimTime::from_secs(12));
    for me in 0..3u32 {
        let node = sim
            .actor_as::<ActorOf<PbftNode<PredisPlane>, ConsMsg>>(NodeId(me))
            .expect("honest replica");
        assert!(
            node.core()
                .plane()
                .mempool()
                .ban_list()
                .is_banned(ChainId(3)),
            "replica {me} must ban the equivocator"
        );
    }
    let committed = sim.metrics().counter("txs_committed");
    assert!(
        committed > 3_000,
        "honest majority must keep committing, got {committed}"
    );
}

#[test]
fn omission_faults_degrade_but_do_not_halt() {
    // Seed picked (after the move to counter-keyed omission streams) so the
    // drop pattern exercises a few view changes without cascading: the run
    // degrades visibly but stays an order of magnitude above the bar.
    let (mut sim, _) = build(Protocol::PPbft, 4, 11, None);
    let mut faults = FaultPlan::none();
    // One replica's outgoing messages are lossy (10%).
    faults.omit_outgoing(NodeId(2), 0.10);
    sim.set_faults(faults);
    sim.run_until(SimTime::from_secs(12));
    let committed = sim.metrics().counter("txs_committed");
    assert!(
        committed > 3_000,
        "10% omission at one replica must not halt the system, got {committed}"
    );
    assert!(sim.metrics().counter("net.dropped") > 0);
}

#[test]
fn censored_clients_reroute_to_honest_replicas() {
    // §III-E censorship attack: a client's entry replica is silent, so its
    // transactions vanish — until the resubmission timer consigns them to
    // the next replica.
    use predis::consensus::SilentNode;
    let n_c = 4usize;
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<ConsMsg> = Sim::new(61, network);
    let cons: Vec<NodeId> = (0..n_c as u32).map(NodeId).collect();
    let clients = vec![NodeId(n_c as u32)];
    let roster = Roster::new(cons, clients);
    let mut cfg = ConsensusConfig::default().paced_production(n_c, 512, 100_000_000);
    cfg.metrics_replica = 1;
    cfg.reply_spread = 2; // f + 1: confirmations survive a faulty entry
                          // Client 0's entry replica is index 0 — make it silent.
    for me in 0..n_c {
        let actor: Box<dyn Actor<ConsMsg>> = if me == 0 {
            Box::new(SilentNode)
        } else {
            Box::new(ActorOf::<_, ConsMsg>::new(PbftNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                PredisPlane::new(me, roster.clone(), cfg.clone()),
            )))
        };
        sim.add_node(LinkConfig::paper_default(), actor, SimTime::ZERO);
    }
    let client = ClientCore::new(ClientId(0), roster.clone(), 500.0, 512)
        .resubmit_unconfirmed_after(SimDuration::from_millis(600));
    sim.add_node(
        LinkConfig::paper_default(),
        Box::new(ActorOf::<_, ConsMsg>::new(client)),
        SimTime::ZERO,
    );
    sim.run_until(SimTime::from_secs(12));
    let c = sim
        .actor_as::<ActorOf<ClientCore, ConsMsg>>(NodeId(n_c as u32))
        .unwrap()
        .core();
    assert!(c.resubmitted > 0, "censored txs must be resubmitted");
    assert!(
        c.confirmed > 1_000,
        "resubmitted txs must eventually commit, got {}",
        c.confirmed
    );
}

/// A Byzantine PBFT leader that equivocates: it sends *different* batches
/// for the same slot to different halves of the committee.
#[derive(Debug)]
struct EquivocatingPbftLeader {
    roster: Roster,
}

impl predis::sim::Actor<ConsMsg> for EquivocatingPbftLeader {
    fn on_start(&mut self, ctx: &mut predis::sim::Context<'_, ConsMsg>) {
        use predis::types::{ProposalPayload, SeqNum, Transaction, TxId, View};
        let mk = |salt: u64| {
            ProposalPayload::Batch(vec![Transaction::new(
                TxId(salt),
                predis::types::ClientId(u32::MAX),
                0,
            )])
        };
        let half = (self.roster.n() - 1) / 2;
        for (i, peer) in self.roster.peers_of(0).enumerate() {
            let payload = if i < half { mk(1) } else { mk(2) };
            ctx.send(
                peer,
                ConsMsg::PrePrepare {
                    view: View(0),
                    seq: SeqNum(1),
                    payload: payload.into(),
                },
            );
        }
        // And then it goes silent forever.
    }
    fn on_message(
        &mut self,
        _ctx: &mut predis::sim::Context<'_, ConsMsg>,
        _from: predis::sim::NodeId,
        _msg: ConsMsg,
    ) {
    }
}

#[test]
fn pbft_equivocating_leader_cannot_split_the_committee() {
    use predis::consensus::planes::BatchPlane;
    let n_c = 4usize;
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<ConsMsg> = Sim::new(67, network);
    let cons: Vec<NodeId> = (0..n_c as u32).map(NodeId).collect();
    let clients = vec![NodeId(n_c as u32)];
    let roster = Roster::new(cons, clients);
    let cfg = ConsensusConfig {
        view_timeout: SimDuration::from_millis(600),
        metrics_replica: 1,
        ..ConsensusConfig::default()
    };
    for me in 0..n_c {
        let actor: Box<dyn Actor<ConsMsg>> = if me == 0 {
            Box::new(EquivocatingPbftLeader {
                roster: roster.clone(),
            })
        } else {
            Box::new(ActorOf::<_, ConsMsg>::new(PbftNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                BatchPlane::new(cfg.batch_size),
            )))
        };
        sim.add_node(LinkConfig::paper_default(), actor, SimTime::ZERO);
    }
    let client = ClientCore::new(ClientId(0), roster.clone(), 1_000.0, 512).broadcast_submissions();
    sim.add_node(
        LinkConfig::paper_default(),
        Box::new(ActorOf::<_, ConsMsg>::new(client)),
        SimTime::ZERO,
    );
    sim.run_until(SimTime::from_secs(12));
    // Safety: the conflicting slot never commits two ways — all honest
    // replicas execute identical sequences. (The forged batches may commit
    // at most once.) Liveness: a view change replaces the equivocator and
    // real traffic commits.
    let committed = sim.metrics().counter("txs_committed");
    assert!(
        committed > 3_000,
        "committee must replace the equivocating leader, got {committed}"
    );
    assert!(sim.metrics().counter("pbft.views_entered") >= 1);
    let execs: Vec<u64> = (1..4u32)
        .map(|me| {
            sim.actor_as::<ActorOf<PbftNode<BatchPlane>, ConsMsg>>(NodeId(me))
                .unwrap()
                .core()
                .executed_txs()
        })
        .collect();
    let spread = execs.iter().max().unwrap() - execs.iter().min().unwrap();
    assert!(spread <= 1_600, "honest replicas diverged: {execs:?}");
}

#[test]
fn crashed_replica_recovers_and_catches_up() {
    // Crash-recovery: replica 2 is down for two seconds, revives with its
    // state intact, detects the gap from peers' commit messages, fetches
    // the missed slots (and their bundles), and converges back to the
    // committee's execution point.
    let (mut sim, _) = build(Protocol::PPbft, 4, 47, None);
    let mut faults = FaultPlan::none();
    faults.crash_for(NodeId(2), SimTime::from_secs(4), SimTime::from_secs(6));
    sim.set_faults(faults);
    sim.run_until(SimTime::from_secs(16));
    let execs: Vec<u64> = (0..4u32)
        .map(|me| {
            sim.actor_as::<ActorOf<PbftNode<PredisPlane>, ConsMsg>>(NodeId(me))
                .unwrap()
                .core()
                .executed_txs()
        })
        .collect();
    // The committee never stalled (3 of 4 suffice), so total commits are
    // healthy...
    assert!(
        sim.metrics().counter("txs_committed") > 20_000,
        "commits: {}",
        sim.metrics().counter("txs_committed")
    );
    // ...and the recovered replica is within one catch-up window of the
    // others instead of missing two seconds of history (~4,000 txs).
    let max = *execs.iter().max().unwrap();
    let recovered = execs[2];
    assert!(
        max - recovered < 2_000,
        "replica 2 failed to catch up: {execs:?}"
    );
    assert!(sim.metrics().counter("pbft.catchup_requests") >= 1);
}

#[test]
fn crashed_hotstuff_replica_recovers_and_catches_up() {
    let (mut sim, _) = build(Protocol::PHs, 4, 49, None);
    let mut faults = FaultPlan::none();
    faults.crash_for(NodeId(2), SimTime::from_secs(4), SimTime::from_secs(6));
    sim.set_faults(faults);
    sim.run_until(SimTime::from_secs(16));
    let execs: Vec<u64> = (0..4u32)
        .map(|me| {
            sim.actor_as::<ActorOf<HotStuffNode<PredisPlane>, ConsMsg>>(NodeId(me))
                .unwrap()
                .core()
                .executed_txs()
        })
        .collect();
    assert!(
        sim.metrics().counter("txs_committed") > 20_000,
        "commits: {}",
        sim.metrics().counter("txs_committed")
    );
    let max = *execs.iter().max().unwrap();
    let recovered = execs[2];
    assert!(
        max - recovered < 3_000,
        "replica 2 failed to catch up: {execs:?}"
    );
    assert!(sim.metrics().counter("hs.catchup_requests") >= 1);
}
