//! Direct tests of the consensus shells' observable protocol behaviour
//! (quorum progress, leader rotation, commit rules), complementing the
//! throughput-level e2e suite.

use predis_consensus::planes::{AckRule, BatchPlane, MicroPlane, PredisPlane};
use predis_consensus::{ClientCore, ConsMsg, ConsensusConfig, HotStuffNode, PbftNode, Roster};
use predis_crypto::Hash;
use predis_sim::prelude::*;
use predis_types::{ClientId, ProposalPayload, SeqNum, SizedPayload, Transaction, TxId, View};

fn wire(n_c: usize, seed: u64) -> (Sim<ConsMsg>, Roster, ConsensusConfig) {
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let sim: Sim<ConsMsg> = Sim::new(seed, network);
    let cons: Vec<NodeId> = (0..n_c as u32).map(NodeId).collect();
    let clients: Vec<NodeId> = (n_c as u32..n_c as u32 + 4).map(NodeId).collect();
    let roster = Roster::new(cons, clients);
    let cfg = ConsensusConfig::default().paced_production(n_c, 512, 100_000_000);
    (sim, roster, cfg)
}

fn add_clients(sim: &mut Sim<ConsMsg>, roster: &Roster, rate: f64, broadcast: bool) {
    for c in 0..4u32 {
        let mut client = ClientCore::new(ClientId(c), roster.clone(), rate / 4.0, 512);
        if broadcast {
            client = client.broadcast_submissions();
        }
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, ConsMsg>::new(client)),
            SimTime::ZERO,
        );
    }
}

#[test]
fn pbft_stays_in_view_zero_when_healthy_and_executes_in_order() {
    let (mut sim, roster, cfg) = wire(4, 81);
    for me in 0..4 {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, ConsMsg>::new(PbftNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                BatchPlane::new(cfg.batch_size),
            ))),
            SimTime::ZERO,
        );
    }
    add_clients(&mut sim, &roster, 2_000.0, true);
    sim.run_until(SimTime::from_secs(8));
    for me in 0..4u32 {
        let node = sim
            .actor_as::<ActorOf<PbftNode<BatchPlane>, ConsMsg>>(NodeId(me))
            .unwrap()
            .core();
        assert_eq!(node.view(), View(0), "replica {me} changed view needlessly");
        assert!(node.last_exec() > SeqNum(5), "replica {me} barely executed");
        assert!(
            node.executed_txs > 5_000,
            "replica {me}: {}",
            node.executed_txs
        );
    }
    // All replicas executed the same number of transactions (state machine
    // replication), modulo slots still in flight at the horizon.
    let counts: Vec<u64> = (0..4u32)
        .map(|me| {
            sim.actor_as::<ActorOf<PbftNode<BatchPlane>, ConsMsg>>(NodeId(me))
                .unwrap()
                .core()
                .executed_txs
        })
        .collect();
    let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
    assert!(
        spread <= 2 * cfg.batch_size as u64,
        "replicas diverged: {counts:?}"
    );
    assert_eq!(sim.metrics().counter("pbft.view_changes_started"), 0);
}

#[test]
fn hotstuff_rounds_advance_and_replicas_agree() {
    let (mut sim, roster, cfg) = wire(4, 83);
    for me in 0..4 {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, ConsMsg>::new(HotStuffNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                PredisPlane::new(me, roster.clone(), cfg.clone()),
            ))),
            SimTime::ZERO,
        );
    }
    add_clients(&mut sim, &roster, 2_000.0, false);
    sim.run_until(SimTime::from_secs(8));
    let mut rounds = Vec::new();
    let mut blocks = Vec::new();
    for me in 0..4u32 {
        let node = sim
            .actor_as::<ActorOf<HotStuffNode<PredisPlane>, ConsMsg>>(NodeId(me))
            .unwrap()
            .core();
        rounds.push(node.round());
        blocks.push(node.executed_blocks);
        assert!(node.high_qc().round > View(10), "replica {me} qc stalled");
    }
    // Rounds are pipelined at network speed: LAN RTT ~50 ms per round means
    // dozens of rounds in 8 s, and replicas are within a few rounds of each
    // other.
    assert!(rounds.iter().all(|r| r.0 > 20), "rounds: {rounds:?}");
    let spread = blocks.iter().max().unwrap() - blocks.iter().min().unwrap();
    assert!(spread <= 4, "executed blocks diverged: {blocks:?}");
    // No timeouts in a healthy run.
    assert_eq!(sim.metrics().counter("hs.timeouts"), 0);
}

#[test]
fn narwhal_certifies_before_proposing() {
    let (mut sim, roster, cfg) = wire(4, 85);
    for me in 0..4 {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, ConsMsg>::new(HotStuffNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                MicroPlane::new(me, roster.clone(), cfg.clone(), AckRule::ReliableBroadcast),
            ))),
            SimTime::ZERO,
        );
    }
    add_clients(&mut sim, &roster, 2_000.0, false);
    sim.run_until(SimTime::from_secs(8));
    let m = sim.metrics();
    let produced = m.counter("micro.produced");
    let certified = m.counter("micro.certified");
    assert!(produced > 50);
    // Every produced microblock ends up certified (certificates counted
    // once per node that learns them, so certified >= produced).
    assert!(
        certified >= produced,
        "produced {produced} but certified only {certified}"
    );
    assert!(m.counter("txs_committed") > 5_000);
}

#[test]
fn pbft_leader_rotation_follows_view() {
    let (_, roster, _) = wire(4, 0);
    assert_eq!(roster.leader_of(0), 0);
    assert_eq!(roster.leader_of(1), 1);
    assert_eq!(roster.leader_of(4), 0);
    assert_eq!(roster.leader_of(7), 3);
}

// ---- the PBFT vote path under hand-scripted delivery ----
//
// Replica 3 of a 4-node committee runs alone: its peers (and the client)
// are sinks, so the test decides every message it sees and in what order.
// The pinned fingerprints are what the `BTreeMap`/`HashSet` shell this one
// replaced dispatched for the same scripts — same executed sequence, same
// votes sent, same replies.

#[derive(Debug)]
struct Sink;

impl Actor<ConsMsg> for Sink {
    fn on_message(&mut self, _: &mut Context<'_, ConsMsg>, _: NodeId, _: ConsMsg) {}
}

const UNDER_TEST: NodeId = NodeId(3);

fn lone_replica(cfg: &ConsensusConfig) -> Sim<ConsMsg> {
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<ConsMsg> = Sim::new(5, network);
    let roster = Roster::new((0..4).map(NodeId).collect(), vec![NodeId(4)]);
    for _ in 0..3 {
        sim.add_node(LinkConfig::paper_default(), Box::new(Sink), SimTime::ZERO);
    }
    let node = PbftNode::new(3, roster, cfg.clone(), BatchPlane::new(cfg.batch_size));
    sim.add_node(
        LinkConfig::paper_default(),
        Box::new(ActorOf::<_, ConsMsg>::new(node)),
        SimTime::ZERO,
    );
    sim.add_node(LinkConfig::paper_default(), Box::new(Sink), SimTime::ZERO);
    sim
}

fn under_test(sim: &Sim<ConsMsg>) -> &PbftNode<BatchPlane> {
    sim.actor_as::<ActorOf<PbftNode<BatchPlane>, ConsMsg>>(UNDER_TEST)
        .unwrap()
        .core()
}

/// A batch of `n` transactions of client 0 starting at id `first`.
fn batch(first: u64, n: u64) -> SizedPayload<ProposalPayload> {
    let txs = (first..first + n)
        .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
        .collect();
    ProposalPayload::Batch(txs).into()
}

/// Delivers `msg` to the replica under test as if sent by replica `from`.
fn deliver(sim: &mut Sim<ConsMsg>, at_ms: u64, from: u32, msg: ConsMsg) {
    sim.inject(UNDER_TEST, NodeId(from), msg, SimTime::from_millis(at_ms));
}

fn prepare(seq: u64, digest: Hash) -> ConsMsg {
    ConsMsg::Prepare {
        view: View(0),
        seq: SeqNum(seq),
        digest,
    }
}

fn commit(seq: u64, digest: Hash) -> ConsMsg {
    ConsMsg::Commit {
        view: View(0),
        seq: SeqNum(seq),
        digest,
    }
}

fn preprepare(seq: u64, payload: &SizedPayload<ProposalPayload>) -> ConsMsg {
    ConsMsg::PrePrepare {
        view: View(0),
        seq: SeqNum(seq),
        payload: payload.clone(),
    }
}

#[test]
fn pbft_counts_votes_that_arrive_before_the_preprepare_once_each() {
    let cfg = ConsensusConfig::default();
    let mut sim = lone_replica(&cfg);
    let (one, two) = (batch(0, 5), batch(5, 7));
    let (d1, d2) = (one.digest(), two.digest());
    let wrong = Hash::digest(b"not the proposal");

    // Slot 1: prepares and a commit race ahead of the pre-prepare, with
    // duplicates and wrong-digest votes mixed in.
    deliver(&mut sim, 1, 1, prepare(1, d1));
    deliver(&mut sim, 2, 2, prepare(1, d1));
    deliver(&mut sim, 2, 1, prepare(1, d1)); // duplicate
    deliver(&mut sim, 3, 1, commit(1, d1));
    deliver(&mut sim, 3, 2, commit(1, wrong)); // not counted
    deliver(&mut sim, 4, 2, prepare(1, wrong)); // not counted
    sim.run_until(SimTime::from_millis(5));
    assert_eq!(under_test(&sim).last_exec(), SeqNum(0));
    // The pre-prepare completes the prepare quorum (1, 2, leader, self): the
    // replica commits, but holds only two commit votes (1 and its own).
    deliver(&mut sim, 6, 0, preprepare(1, &one));
    deliver(&mut sim, 7, 1, commit(1, d1)); // duplicate: still two
    sim.run_until(SimTime::from_millis(8));
    assert_eq!(under_test(&sim).last_exec(), SeqNum(0));
    deliver(&mut sim, 9, 2, commit(1, d1));
    sim.run_until(SimTime::from_millis(10));
    assert_eq!(under_test(&sim).last_exec(), SeqNum(1));
    assert_eq!(under_test(&sim).executed_txs, 5);

    // Slot 2: a full commit quorum is on record before the payload exists;
    // the slot executes the moment the pre-prepare validates.
    for from in 0..3 {
        deliver(&mut sim, 11, from, commit(2, d2));
    }
    sim.run_until(SimTime::from_millis(12));
    assert_eq!(under_test(&sim).last_exec(), SeqNum(1));
    deliver(&mut sim, 13, 0, preprepare(2, &two));
    sim.run_until(SimTime::from_millis(50));
    let node = under_test(&sim);
    assert_eq!(node.last_exec(), SeqNum(2));
    assert_eq!((node.executed_blocks, node.executed_txs), (2, 12));
    assert_eq!(node.view(), View(0));
    assert_eq!(sim.metrics().counter("batch.txs_executed"), 12);
    assert_eq!(sim.metrics().counter("pbft.votes_out_of_window"), 0);
    assert_eq!(sim.fingerprint(), "c6886d82ea36346411cd2bf49dc35c96");
}

#[test]
fn pbft_drops_votes_beyond_the_window_without_growing_to_reach_them() {
    let cfg = ConsensusConfig::default();
    let mut sim = lone_replica(&cfg);
    let one = batch(0, 5);
    let d1 = one.digest();
    let far = Hash::digest(b"far");

    deliver(&mut sim, 1, 1, prepare(u64::MAX, far));
    deliver(&mut sim, 2, 2, commit(1 << 40, far));
    deliver(&mut sim, 3, 1, commit(100_000, far));
    // Ordinary traffic is unaffected.
    deliver(&mut sim, 4, 0, preprepare(1, &one));
    deliver(&mut sim, 5, 1, prepare(1, d1));
    deliver(&mut sim, 6, 1, commit(1, d1));
    deliver(&mut sim, 6, 2, commit(1, d1));
    sim.run_until(SimTime::from_millis(50));
    let node = under_test(&sim);
    assert_eq!(node.last_exec(), SeqNum(1));
    assert!(
        node.retained_slots() <= 2,
        "window grew to {} slots",
        node.retained_slots()
    );
    assert_eq!(sim.metrics().counter("pbft.votes_out_of_window"), 3);
    // The far references still start one catch-up, as they always did.
    assert_eq!(sim.metrics().counter("pbft.catchup_requests"), 1);
    assert_eq!(sim.fingerprint(), "4b78ccc72810be75171f568774eefba8");

    // A pre-prepare out there is dropped the same way (the old shell would
    // have validated and prepared it), and the edge of the window is exact:
    // `retention + 2 * pipeline` slots past the execution point.
    let edge = 1 + (cfg.retention + 2 * cfg.pipeline) as u64;
    deliver(&mut sim, 60, 0, preprepare(1 << 40, &batch(100, 1)));
    deliver(&mut sim, 61, 1, prepare(edge + 1, far));
    deliver(&mut sim, 62, 1, prepare(edge, far));
    sim.run_until(SimTime::from_millis(100));
    assert_eq!(sim.metrics().counter("pbft.votes_out_of_window"), 5);
    assert_eq!(under_test(&sim).retained_slots(), edge as usize + 1);
}

/// Four replicas, four broadcasting clients, small blocks and a short
/// retention so the window slides many times in a few seconds.
fn sliding_committee(seed: u64) -> (Sim<ConsMsg>, ConsensusConfig) {
    let (mut sim, roster, cfg) = wire(4, seed);
    let cfg = ConsensusConfig {
        batch_size: 40,
        retention: 24,
        ..cfg
    };
    for me in 0..4 {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, ConsMsg>::new(PbftNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                BatchPlane::new(cfg.batch_size),
            ))),
            SimTime::ZERO,
        );
    }
    add_clients(&mut sim, &roster, 2_000.0, true);
    (sim, cfg)
}

#[test]
fn revived_replica_catches_up_across_a_window_slide() {
    let (mut sim, cfg) = sliding_committee(87);
    let mut faults = FaultPlan::none();
    faults.crash_for(
        UNDER_TEST,
        SimTime::from_millis(1_000),
        SimTime::from_millis(1_100),
    );
    sim.set_faults(faults);
    sim.run_until(SimTime::from_secs(4));
    let executed: Vec<(SeqNum, u64)> = (0..4u32)
        .map(|me| {
            let node = sim
                .actor_as::<ActorOf<PbftNode<BatchPlane>, ConsMsg>>(NodeId(me))
                .unwrap()
                .core();
            assert_eq!(node.view(), View(0), "replica {me}");
            assert!(
                node.retained_slots() <= 2 * cfg.retention + 2 * cfg.pipeline + 1,
                "replica {me} retains {} slots",
                node.retained_slots()
            );
            (node.last_exec(), node.executed_txs)
        })
        .collect();
    assert!(sim.metrics().counter("pbft.slots_caught_up") > 0);
    // The window slid well past the outage, and the revived replica is
    // back in the live pipeline.
    assert!(executed[0].0 > SeqNum(10 * cfg.retention as u64));
    assert!(
        executed[0].0 .0 - executed[3].0 .0 <= cfg.pipeline as u64,
        "{executed:?}"
    );
    assert_eq!(sim.metrics().counter("pbft.votes_out_of_window"), 0);
    assert_eq!(sim.fingerprint(), "5e9ea1b7da5d435a3975ae6fea91e961");
    assert_eq!(
        format!("{executed:?}"),
        "[(SeqNum(392), 7760), (SeqNum(392), 7760), (SeqNum(392), 7760), (SeqNum(392), 7760)]"
    );
}

#[test]
fn batch_queue_drains_on_every_replica_and_a_quiet_committee_keeps_its_view() {
    let (mut sim, _) = sliding_committee(89);
    // The clients fall silent at 3 s; the replicas run on for five view
    // timeouts with nothing left to order.
    let mut faults = FaultPlan::none();
    for client in 4..8 {
        faults.crash(NodeId(client), SimTime::from_secs(3));
    }
    sim.set_faults(faults);
    let replica = |sim: &Sim<ConsMsg>, me: u32| -> (usize, View) {
        let node = sim
            .actor_as::<ActorOf<PbftNode<BatchPlane>, ConsMsg>>(NodeId(me))
            .unwrap()
            .core();
        (node.plane().pending(), node.view())
    };
    sim.run_until(SimTime::from_millis(2_900));
    for me in 0..4 {
        // Under load a queue holds what is in flight (2 000 tx/s x ~50 ms
        // to commit), not the 5 800 transactions submitted so far.
        let (pending, _) = replica(&sim, me);
        assert!(pending < 400, "replica {me} still queues {pending}");
    }
    sim.run_until(SimTime::from_secs(13));
    for me in 0..4 {
        assert_eq!(replica(&sim, me), (0, View(0)), "replica {me}");
    }
    assert_eq!(sim.metrics().counter("pbft.view_changes_started"), 0);
    assert!(sim.metrics().counter("txs_committed") > 5_500);
}
