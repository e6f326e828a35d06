//! Property tests of the network model: link FIFO, bandwidth accounting,
//! and propagation bounds.

use proptest::prelude::*;

use predis_sim::{LatencyModel, LinkConfig, Network, NodeId, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A link is FIFO: departures of successive sends never reorder, and
    /// each transmission takes exactly size/bandwidth.
    #[test]
    fn link_is_fifo_and_work_conserving(
        sizes in proptest::collection::vec(1usize..100_000, 1..20),
        mbps in 1u64..1000,
    ) {
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let a = net.add_link(LinkConfig::paper_default().with_mbps(mbps));
        let b = net.add_link(LinkConfig::paper_default().with_mbps(mbps));
        let mut last_depart = SimTime::ZERO;
        let mut total_bits = 0u128;
        for &s in &sizes {
            let sched = net.schedule(SimTime::ZERO, a, b, s);
            prop_assert!(sched.departs >= last_depart, "FIFO violated");
            last_depart = sched.departs;
            total_bits += s as u128 * 8;
            prop_assert_eq!(sched.arrives, sched.departs + net.propagation(a, b));
        }
        // Work conservation: total bits / rate bounds the last departure
        // within per-message integer-division rounding (one ns per send).
        let expected = total_bits * 1_000_000_000 / (mbps as u128 * 1_000_000);
        let got = last_depart.as_nanos() as u128;
        prop_assert!(got <= expected && expected - got <= sizes.len() as u128,
            "work conservation: got {got}, expected ~{expected}");
        prop_assert_eq!(net.bytes_sent(a) as usize, sizes.iter().sum::<usize>());
        prop_assert_eq!(net.bytes_sent(b), 0);
    }

    /// One transmission-time formula: `tx_delay` and `schedule` both give
    /// the `u128` quotient `bytes × 8 × 10⁹ / bps`, for sizes on either
    /// side of where that product leaves `u64` (≈ 2³¹ bytes).
    #[test]
    fn tx_time_is_the_wide_quotient_at_every_size(
        raw in any::<u64>(),
        size_bits in 0u32..=36,
        bps in 1_000u64..=1_000_000_000_000,
    ) {
        let bytes = (raw & ((1u64 << size_bits) - 1)) as usize;
        let want = (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64;
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let mut config = LinkConfig::paper_default();
        config.upload_bps = bps;
        let a = net.add_link(config);
        let b = net.add_link(config);
        prop_assert_eq!(net.tx_delay(a, bytes), SimDuration::from_nanos(want));
        let sent = net.schedule(SimTime::from_nanos(17), a, b, bytes);
        prop_assert_eq!(sent.departs, SimTime::from_nanos(17 + want));
    }

    /// Concurrent senders never interfere with each other's links.
    #[test]
    fn links_are_independent(n in 2usize..10, size in 1usize..1_000_000) {
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| net.add_link(LinkConfig::paper_default()))
            .collect();
        let mut departs = Vec::new();
        for i in 0..n {
            let dst = nodes[(i + 1) % n];
            departs.push(net.schedule(SimTime::ZERO, nodes[i], dst, size).departs);
        }
        // Every sender's first transmission departs at the same time.
        for d in &departs {
            prop_assert_eq!(*d, departs[0]);
        }
    }

    /// Jitter never exceeds its bound and never makes arrivals precede
    /// departures + base propagation.
    #[test]
    fn jitter_bounded(jitter_us in 0u64..10_000, size in 0usize..10_000) {
        let bound = SimDuration::from_micros(jitter_us);
        let mut net = Network::new(LatencyModel::lan(), bound);
        let a = net.add_link(LinkConfig::paper_default());
        let b = net.add_link(LinkConfig::paper_default());
        for _ in 0..20 {
            let now = net.link_free_at(a);
            let s = net.schedule(now, a, b, size);
            let base = s.departs + net.propagation(a, b);
            prop_assert!(s.arrives >= base);
            prop_assert!(s.arrives.saturating_since(base) <= bound);
        }
    }
}
