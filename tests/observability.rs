//! Observability plumbing end-to-end: the canonical event stream and the
//! throughput series work on real consensus runs.

use std::path::Path;

use predis::consensus::planes::PredisPlane;
use predis::consensus::{ClientCore, ConsMsg, ConsensusConfig, PbftNode, Roster};
use predis::sim::prelude::*;
use predis::types::ClientId;
use predis_telemetry::Json;

/// A 5 s P-PBFT run; with `capture`, every event is also streamed there.
fn run_traced(seed: u64, capture: Option<&Path>) -> Sim<ConsMsg> {
    let n_c = 4usize;
    let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
    let mut sim: Sim<ConsMsg> = Sim::new(seed, network);
    if let Some(path) = capture {
        sim.enable_capture(path).expect("start capture");
    }
    let cons: Vec<NodeId> = (0..n_c as u32).map(NodeId).collect();
    let clients = vec![NodeId(n_c as u32)];
    let roster = Roster::new(cons, clients);
    let cfg = ConsensusConfig::default().paced_production(n_c, 512, 100_000_000);
    for me in 0..n_c {
        sim.add_node(
            LinkConfig::paper_default(),
            Box::new(ActorOf::<_, ConsMsg>::new(PbftNode::new(
                me,
                roster.clone(),
                cfg.clone(),
                PredisPlane::new(me, roster.clone(), cfg.clone()),
            ))),
            SimTime::ZERO,
        );
    }
    let client = ClientCore::new(ClientId(0), roster.clone(), 2_000.0, 512);
    sim.add_node(
        LinkConfig::paper_default(),
        Box::new(ActorOf::<_, ConsMsg>::new(client)),
        SimTime::ZERO,
    );
    sim.run_until(SimTime::from_secs(5));
    sim.finish_observability();
    sim
}

#[test]
fn trace_captures_consensus_traffic() {
    let dir = std::env::temp_dir().join(format!("predis-observability-{}", std::process::id()));
    let path = dir.join("consensus.trace.jsonl");
    let sim = run_traced(101, Some(&path));
    let m = sim.metrics();
    // A busy consensus run generates plenty of deliveries and timers.
    let deliveries = m.counter_total("node.deliveries");
    let timers = m.counter_total("node.timers");
    assert!(deliveries > 1_000, "deliveries: {deliveries}");
    assert!(timers > 500, "timers: {timers}");
    // Every sent message is delivered or dropped, except the handful still
    // in flight when the horizon cut the run.
    let sent = m.counter("net.messages");
    let accounted = deliveries + m.counter("net.dropped");
    assert!(accounted <= sent);
    assert!(
        sent - accounted < 500,
        "too many unaccounted messages: {} of {}",
        sent - accounted,
        sent
    );
    // Delivered bytes dominated by bundles (25 KB each).
    assert!(m.counter_total("node.delivered_bytes") > 1_000_000);

    // The capture holds the whole stream: one line per processed event, in
    // time order, and deliveries to a specific node are filterable.
    let text = std::fs::read_to_string(&path).expect("read capture back");
    assert_eq!(text.lines().count() as u64, sim.events_processed());
    let mut last = 0;
    let mut node0_deliveries = 0;
    for line in text.lines() {
        let event = Json::parse(line).expect("capture line parses");
        let t = event.get("t").and_then(Json::as_u64).expect("t");
        assert!(t >= last, "capture went back in time: {line}");
        last = t;
        if event.get("kind").and_then(Json::as_str) == Some("deliver")
            && event.get("node").and_then(Json::as_u64) == Some(0)
        {
            assert!(event.get("from").is_some(), "{line}");
            node0_deliveries += 1;
        }
    }
    assert!(node0_deliveries > 0);
    // The stream is pre-filter, so it can only exceed what actors were
    // handed.
    assert!(node0_deliveries >= m.labeled_counter("node.deliveries", Labels::node(0)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn throughput_series_reflects_commit_cadence() {
    let sim = run_traced(103, None);
    let series = sim
        .metrics()
        .throughput_series(SimDuration::from_millis(500), SimTime::from_secs(5));
    assert_eq!(series.len(), 10);
    // After the first bucket the committee sustains the 2k offered load.
    let tail_mean: f64 = series[2..].iter().sum::<f64>() / 8.0;
    assert!(
        (1_500.0..2_500.0).contains(&tail_mean),
        "tail mean {tail_mean:.0} tx/s, series {series:?}"
    );
    let stable = sim
        .metrics()
        .stable_from(SimDuration::from_millis(500), SimTime::from_secs(5), 0.25)
        .expect("a fixed-rate run settles");
    assert!(stable <= 3, "stabilized late: bucket {stable}");
}
