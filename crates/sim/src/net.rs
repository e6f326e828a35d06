//! The network model: upload-bandwidth serialization plus propagation latency.
//!
//! The model follows the paper's bandwidth accounting: each node owns an
//! *upload link* of fixed capacity; a message of `s` bytes occupies the link
//! for `s / bandwidth` seconds (so a multicast to `k` peers serializes `k`
//! copies), then travels for `latency(src, dst)`. This is the property that
//! makes Predis's constant-size proposals and Multi-Zone's O(n_c) relayer
//! fan-out measurable.

use serde::{Deserialize, Serialize};

use crate::actor::NodeId;
use crate::time::{SimDuration, SimTime};

/// A geographic region used to derive pairwise latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Region(pub u8);

/// One-way latencies (in milliseconds) between the four Alibaba Cloud
/// regions used by the paper's WAN deployment: Ulanqab (CN-north),
/// Shanghai (CN-east), Chengdu (CN-southwest), Shenzhen (CN-south).
///
/// Values are representative public inter-region RTT/2 figures; the paper
/// does not publish its matrix, so the reproduction only relies on the
/// magnitudes (intra-region ~1ms, inter-region 15-20ms).
pub const CN_REGION_LATENCY_MS: [[u64; 4]; 4] = [
    [1, 16, 19, 20],
    [16, 1, 15, 14],
    [19, 15, 1, 10],
    [20, 14, 10, 1],
];

/// Names of the regions in [`CN_REGION_LATENCY_MS`] order.
pub const CN_REGION_NAMES: [&str; 4] = ["Ulanqab", "Shanghai", "Chengdu", "Shenzhen"];

/// How pairwise propagation latency is derived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every pair of distinct nodes has the same one-way latency
    /// (the paper's LAN emulation: `tc` with 25 ms).
    Uniform(SimDuration),
    /// Latency depends on the regions of the two endpoints.
    Regional {
        /// `matrix[a][b]` = one-way latency from region `a` to region `b`.
        matrix: Vec<Vec<SimDuration>>,
    },
}

impl LatencyModel {
    /// The paper's LAN environment: 25 ms one-way everywhere.
    pub fn lan() -> Self {
        LatencyModel::Uniform(SimDuration::from_millis(25))
    }

    /// The paper's WAN environment: the four Chinese regions.
    pub fn cn_wan() -> Self {
        let matrix = CN_REGION_LATENCY_MS
            .iter()
            .map(|row| row.iter().map(|&ms| SimDuration::from_millis(ms)).collect())
            .collect();
        LatencyModel::Regional { matrix }
    }

    /// One-way latency between two regions.
    ///
    /// # Panics
    ///
    /// Panics for [`LatencyModel::Regional`] if a region index is out of
    /// range of the matrix.
    pub fn latency(&self, from: Region, to: Region) -> SimDuration {
        match self {
            LatencyModel::Uniform(d) => *d,
            LatencyModel::Regional { matrix } => matrix[from.0 as usize][to.0 as usize],
        }
    }

    /// Number of regions this model distinguishes (1 for uniform).
    pub fn region_count(&self) -> usize {
        match self {
            LatencyModel::Uniform(_) => 1,
            LatencyModel::Regional { matrix } => matrix.len(),
        }
    }
}

/// Per-node link configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Upload capacity in bits per second. The paper's instances are
    /// 100 Mbps.
    pub upload_bps: u64,
    /// Region the node lives in (drives pairwise latency).
    pub region: Region,
}

impl LinkConfig {
    /// A 100 Mbps link (the paper's instance bandwidth) in region 0.
    pub fn paper_default() -> Self {
        LinkConfig {
            upload_bps: 100_000_000,
            region: Region(0),
        }
    }

    /// Sets the region, builder-style.
    pub fn in_region(mut self, region: Region) -> Self {
        self.region = region;
        self
    }

    /// Sets the upload bandwidth in megabits per second, builder-style.
    pub fn with_mbps(mut self, mbps: u64) -> Self {
        self.upload_bps = mbps * 1_000_000;
        self
    }
}

/// Mutable state of one node's upload link.
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    pub config: LinkConfig,
    /// Earliest time the upload link is free.
    pub busy_until: SimTime,
    /// Total bytes ever enqueued on the link (bandwidth accounting).
    pub bytes_sent: u64,
    /// How many random words this link has drawn from its stream. Jitter
    /// and fault-omission randomness are *counter-keyed*: the `i`-th draw
    /// on a link is a pure hash of `(stream_seed, link, i)`, so the value
    /// depends only on how many sends that link has made — not on the
    /// global interleaving of sends across links. That is what lets the
    /// parallel engine replay jittered runs bit-identically: each
    /// partition owns its nodes' links and therefore their draw counters.
    pub draws: u64,
}

/// The simulated network: computes departure and arrival times for sends.
#[derive(Debug, Clone)]
pub struct Network {
    latency: LatencyModel,
    /// Random jitter added to each propagation, up to this bound.
    jitter: SimDuration,
    /// Seed for the per-link counter-keyed random streams (derived from
    /// the simulation seed at `Sim` construction).
    stream_seed: u64,
    links: Vec<LinkState>,
}

/// The outcome of scheduling one message on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// When the last byte leaves the sender's upload link.
    pub departs: SimTime,
    /// When the message arrives at the destination.
    pub arrives: SimTime,
}

/// Time to serialize `bytes` onto a link of `bps` bits per second:
/// `bits × 10⁹ / bps` nanoseconds, truncated. The division runs in `u64`
/// whenever `bytes × 8 × 10⁹` fits (up to ≈ 2³¹ bytes) and in `u128`
/// otherwise; the quotient is the same either way.
#[inline]
fn tx_time(bytes: usize, bps: u64) -> SimDuration {
    const NANOS_PER_BYTE_AT_1_BPS: u64 = 8 * 1_000_000_000;
    let nanos = match (bytes as u64).checked_mul(NANOS_PER_BYTE_AT_1_BPS) {
        Some(bit_nanos) => bit_nanos / bps,
        None => (bytes as u128 * NANOS_PER_BYTE_AT_1_BPS as u128 / bps as u128) as u64,
    };
    SimDuration::from_nanos(nanos)
}

impl Network {
    /// Creates a network with the given latency model and propagation jitter
    /// bound (jitter is sampled uniformly in `[0, jitter]`).
    pub fn new(latency: LatencyModel, jitter: SimDuration) -> Self {
        Network {
            latency,
            jitter,
            stream_seed: 0,
            links: Vec::new(),
        }
    }

    /// Seeds the per-link counter-keyed random streams. Called once by
    /// `Sim` construction with a value derived from the simulation seed.
    pub(crate) fn set_stream_seed(&mut self, seed: u64) {
        self.stream_seed = seed;
    }

    /// Registers a node's link; returns its [`NodeId`].
    pub fn add_link(&mut self, config: LinkConfig) -> NodeId {
        assert!(config.upload_bps > 0, "upload bandwidth must be positive");
        let id = NodeId(self.links.len() as u32);
        self.links.push(LinkState {
            config,
            busy_until: SimTime::ZERO,
            bytes_sent: 0,
            draws: 0,
        });
        id
    }

    /// Number of registered links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no links are registered.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The transmission (serialization) delay of `bytes` on `node`'s link.
    pub fn tx_delay(&self, node: NodeId, bytes: usize) -> SimDuration {
        tx_time(bytes, self.links[node.index()].config.upload_bps)
    }

    /// One-way propagation latency between two nodes (excludes jitter).
    pub fn propagation(&self, from: NodeId, to: NodeId) -> SimDuration {
        let a = self.links[from.index()].config.region;
        let b = self.links[to.index()].config.region;
        self.latency.latency(a, b)
    }

    /// The next word of `from`'s counter-keyed random stream: a pure hash
    /// of `(stream_seed, from, draw_index)` (SplitMix64-style finalizer),
    /// advancing the link's draw counter. Because the value depends only
    /// on the link and its own draw count, the stream is invariant under
    /// any interleaving of *other* links' activity — the property the
    /// parallel engine relies on for bit-identical jittered replay.
    pub(crate) fn next_draw(&mut self, from: NodeId) -> u64 {
        let link = &mut self.links[from.index()];
        let idx = link.draws;
        link.draws += 1;
        let mut z = self
            .stream_seed
            .wrapping_add((from.0 as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(idx.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Schedules a message of `bytes` from `from` to `to` at time `now`:
    /// serializes on the sender's upload link, then propagates. When the
    /// jitter bound is nonzero, one word is drawn from the sender link's
    /// counter-keyed stream; zero jitter draws nothing.
    pub fn schedule(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: usize) -> Scheduled {
        let link = &mut self.links[from.index()];
        let start = now.max(link.busy_until);
        let departs = start + tx_time(bytes, link.config.upload_bps);
        link.busy_until = departs;
        link.bytes_sent += bytes as u64;
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            let bound = self.jitter.as_nanos();
            let word = self.next_draw(from);
            // Uniform in [0, bound]; the `bound == u64::MAX` span is the
            // degenerate full-range case (never hit in practice).
            let nanos = if bound == u64::MAX {
                word
            } else {
                word % (bound + 1)
            };
            SimDuration::from_nanos(nanos)
        };
        let arrives = departs + self.propagation(from, to) + jitter;
        Scheduled { departs, arrives }
    }

    /// Total bytes node has enqueued on its upload link so far.
    pub fn bytes_sent(&self, node: NodeId) -> u64 {
        self.links[node.index()].bytes_sent
    }

    /// The time at which node's upload link drains (becomes idle).
    pub fn link_free_at(&self, node: NodeId) -> SimTime {
        self.links[node.index()].busy_until
    }

    /// The link configuration of a node.
    pub fn link_config(&self, node: NodeId) -> LinkConfig {
        self.links[node.index()].config
    }

    /// The latency model pairwise propagation is derived from.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The propagation-jitter bound (zero disables jitter draws entirely).
    pub fn jitter(&self) -> SimDuration {
        self.jitter
    }

    /// Sets the propagation-jitter bound of an already wired network.
    pub fn set_jitter(&mut self, jitter: SimDuration) {
        self.jitter = jitter;
    }

    /// Re-rates `node`'s upload link to `mbps` megabits per second.
    pub fn set_upload_mbps(&mut self, node: NodeId, mbps: u64) {
        assert!(mbps > 0, "upload bandwidth must be positive");
        self.links[node.index()].config.upload_bps = mbps * 1_000_000;
    }

    /// Copies `node`'s mutable link state (busy-until, bytes-sent, draw
    /// counter) from a forked network back into this one. The parallel
    /// engine clones the network per partition — each partition only ever
    /// schedules sends *from* its own nodes, so writing those nodes' links
    /// back restores the exact single-threaded state, including the
    /// position of each link's counter-keyed random stream.
    pub(crate) fn adopt_link_state(&mut self, node: NodeId, from: &Network) {
        let theirs = &from.links[node.index()];
        let ours = &mut self.links[node.index()];
        ours.busy_until = theirs.busy_until;
        ours.bytes_sent = theirs.bytes_sent;
        ours.draws = theirs.draws;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_delay_is_size_over_bandwidth() {
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let n = net.add_link(LinkConfig::paper_default()); // 100 Mbps
                                                           // 12_500_000 bytes = 100 Mbit -> exactly 1 second.
        assert_eq!(net.tx_delay(n, 12_500_000), SimDuration::from_secs(1));
        // 1250 bytes = 10 kbit -> 100 microseconds.
        assert_eq!(net.tx_delay(n, 1250), SimDuration::from_micros(100));
    }

    #[test]
    fn sends_serialize_on_the_upload_link() {
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let a = net.add_link(LinkConfig::paper_default());
        let b = net.add_link(LinkConfig::paper_default());
        let c = net.add_link(LinkConfig::paper_default());
        let s1 = net.schedule(SimTime::ZERO, a, b, 12_500_000);
        let s2 = net.schedule(SimTime::ZERO, a, c, 12_500_000);
        // Second copy waits for the first to drain: multicast costs 2x.
        assert_eq!(s1.departs, SimTime::from_secs(1));
        assert_eq!(s2.departs, SimTime::from_secs(2));
        assert_eq!(
            s1.arrives,
            SimTime::from_secs(1) + SimDuration::from_millis(25)
        );
        assert_eq!(
            s2.arrives,
            SimTime::from_secs(2) + SimDuration::from_millis(25)
        );
    }

    #[test]
    fn independent_links_do_not_interfere() {
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let a = net.add_link(LinkConfig::paper_default());
        let b = net.add_link(LinkConfig::paper_default());
        let s1 = net.schedule(SimTime::ZERO, a, b, 12_500_000);
        let s2 = net.schedule(SimTime::ZERO, b, a, 12_500_000);
        assert_eq!(s1.departs, s2.departs);
    }

    #[test]
    fn regional_latency_is_asymmetric_capable() {
        let model = LatencyModel::cn_wan();
        assert_eq!(model.region_count(), 4);
        assert_eq!(
            model.latency(Region(0), Region(1)),
            SimDuration::from_millis(16)
        );
        assert_eq!(
            model.latency(Region(2), Region(3)),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            model.latency(Region(1), Region(1)),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn bandwidth_accounting_accumulates() {
        let mut net = Network::new(LatencyModel::lan(), SimDuration::ZERO);
        let a = net.add_link(LinkConfig::paper_default());
        let b = net.add_link(LinkConfig::paper_default());
        net.schedule(SimTime::ZERO, a, b, 1000);
        net.schedule(SimTime::ZERO, a, b, 500);
        assert_eq!(net.bytes_sent(a), 1500);
        assert_eq!(net.bytes_sent(b), 0);
    }

    #[test]
    fn jitter_stays_within_bound() {
        let bound = SimDuration::from_millis(2);
        let mut net = Network::new(LatencyModel::lan(), bound);
        net.set_stream_seed(7);
        let a = net.add_link(LinkConfig::paper_default());
        let b = net.add_link(LinkConfig::paper_default());
        for _ in 0..100 {
            let s = net.schedule(SimTime::ZERO, a, b, 0);
            let base = net.propagation(a, b);
            let extra = s.arrives.saturating_since(SimTime::ZERO + base);
            assert!(extra <= bound, "jitter {extra} exceeds bound {bound}");
        }
    }

    /// The property the parallel engine leans on: a link's jitter draws
    /// depend only on the link's own draw count, never on when other links
    /// send. Interleaving sends from `b` must not perturb `a`'s stream.
    #[test]
    fn jitter_draws_are_counter_keyed_per_link() {
        let bound = SimDuration::from_millis(5);
        let mk = || {
            let mut net = Network::new(LatencyModel::lan(), bound);
            net.set_stream_seed(42);
            let a = net.add_link(LinkConfig::paper_default());
            let b = net.add_link(LinkConfig::paper_default());
            (net, a, b)
        };
        // Run 1: `a` sends 10 times back-to-back.
        let (mut n1, a1, b1) = mk();
        let solo: Vec<SimTime> = (0..10)
            .map(|_| n1.schedule(SimTime::ZERO, a1, b1, 0).arrives)
            .collect();
        // Run 2: `b`'s sends interleave with `a`'s.
        let (mut n2, a2, b2) = mk();
        let mut interleaved = Vec::new();
        for _ in 0..10 {
            n2.schedule(SimTime::ZERO, b2, a2, 0);
            interleaved.push(n2.schedule(SimTime::ZERO, a2, b2, 0).arrives);
        }
        assert_eq!(solo, interleaved);
        // And the draw counter survives a fork/adopt round-trip.
        let forked = n1.clone();
        let mut main = n1;
        main.adopt_link_state(a1, &forked);
        let x = main.schedule(SimTime::ZERO, a1, b1, 0).arrives;
        let mut forked = forked;
        let y = forked.schedule(SimTime::ZERO, a1, b1, 0).arrives;
        assert_eq!(x, y);
    }

    #[test]
    fn link_config_builders() {
        let cfg = LinkConfig::paper_default()
            .with_mbps(50)
            .in_region(Region(2));
        assert_eq!(cfg.upload_bps, 50_000_000);
        assert_eq!(cfg.region, Region(2));
    }
}
