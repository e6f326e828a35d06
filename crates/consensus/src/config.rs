//! Shared configuration for consensus-layer actors.

use predis_sim::{NodeId, SimDuration};
use predis_types::ClientId;

/// Who is who in a consensus deployment: the consensus committee and the
/// clients, by simulator node id. Shared (cheaply cloned) by every actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    /// Consensus nodes, indexed by their chain id.
    pub consensus: Vec<NodeId>,
    /// Client nodes, indexed by [`ClientId`].
    pub clients: Vec<NodeId>,
}

impl Roster {
    /// Builds a roster.
    ///
    /// # Panics
    ///
    /// Panics if there are no consensus nodes, or more than
    /// [`VoteSet::CAPACITY`]: every vote tally in the crate is one mask over
    /// committee indices. Experiment setups reject such an `n_c` with a
    /// located error before any roster is built.
    pub fn new(consensus: Vec<NodeId>, clients: Vec<NodeId>) -> Roster {
        assert!(!consensus.is_empty(), "need at least one consensus node");
        assert!(
            consensus.len() <= VoteSet::CAPACITY,
            "a committee holds at most {} nodes",
            VoteSet::CAPACITY
        );
        Roster { consensus, clients }
    }

    /// Number of consensus nodes (`n_c`).
    pub fn n(&self) -> usize {
        self.consensus.len()
    }

    /// The fault bound `f = (n_c − 1) / 3`.
    pub fn f(&self) -> usize {
        (self.n() - 1) / 3
    }

    /// The quorum size `2f + 1` used by both PBFT and HotStuff.
    pub fn quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// The index of `node` in the committee, if it is a consensus node.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.consensus.iter().position(|&n| n == node)
    }

    /// The committee node at `index`.
    pub fn consensus_node(&self, index: usize) -> NodeId {
        self.consensus[index % self.n()]
    }

    /// All committee members except `index`, in committee order.
    pub fn peers_of(&self, index: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.consensus
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i != index)
            .map(|(_, &n)| n)
    }

    /// The leader of a view/round under round-robin rotation.
    pub fn leader_of(&self, view: u64) -> usize {
        (view % self.n() as u64) as usize
    }

    /// The entry replica a client submits to (and receives replies from):
    /// deterministic spread of clients over the committee.
    pub fn entry_replica(&self, client: ClientId) -> usize {
        client.0 as usize % self.n()
    }

    /// The simulator node of a client.
    pub fn client_node(&self, client: ClientId) -> NodeId {
        self.clients[client.0 as usize]
    }
}

/// Who has voted: a set of committee indices in one word.
///
/// Every tally on the ordering path (PBFT prepares, commits and view-change
/// votes, HotStuff votes and new-views, microblock acks) is a set of
/// committee members, and a committee holds at most [`VoteSet::CAPACITY`]
/// ([`Roster::new`] asserts it), so membership is a bit and a quorum test a
/// population count.
///
/// # Examples
///
/// ```
/// use predis_consensus::VoteSet;
///
/// let mut prepares = VoteSet::default();
/// assert!(prepares.insert(2));
/// assert!(!prepares.insert(2)); // a duplicate vote counts once
/// assert!(prepares.insert(5));
/// assert_eq!(prepares.len(), 2);
/// assert!(prepares.contains(5) && !prepares.contains(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VoteSet(u64);

impl VoteSet {
    /// The largest committee a set can tally.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// Records a vote by committee member `index`; `true` if it is new.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`VoteSet::CAPACITY`].
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < Self::CAPACITY, "committee index out of range");
        let bit = 1u64 << index;
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// True if member `index` has voted.
    pub fn contains(&self, index: usize) -> bool {
        index < Self::CAPACITY && self.0 & (1u64 << index) != 0
    }

    /// How many members have voted.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if nobody has voted.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// Tunables for the consensus shells and data planes.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusConfig {
    /// Max transactions per bundle (Predis) — paper default 50.
    pub bundle_size: usize,
    /// Max transactions per batch/microblock proposal — paper default 800.
    pub batch_size: usize,
    /// Interval between bundle-production attempts. Set from Eq. 1 pacing:
    /// the time one bundle takes to multicast to `n_c − 1` peers.
    pub production_interval: SimDuration,
    /// Heartbeat: produce a partial (or empty) bundle if nothing was
    /// produced for this long. Tip-list acknowledgements ride on bundles,
    /// so this bounds Predis's acknowledgement latency under light load;
    /// heartbeat bundles are a few hundred bytes, so a small value is
    /// nearly free.
    pub heartbeat: SimDuration,
    /// View-change / pacemaker timeout.
    pub view_timeout: SimDuration,
    /// How often a leader checks whether it can propose.
    pub propose_interval: SimDuration,
    /// PBFT pipelining window (max in-flight slots).
    pub pipeline: usize,
    /// Maximum digests per Narwhal/Stratus proposal (paper default 1000).
    pub max_digests: usize,
    /// Which replica records commit metrics (so runs with faulty nodes can
    /// point at an honest one).
    pub metrics_replica: usize,
    /// Backpressure: producers and leaders hold off when their upload link
    /// is backlogged beyond this (bandwidth sharing with other duties).
    pub max_link_backlog: SimDuration,
    /// Executed slots retained for serving crash-recovery catch-up
    /// requests (a replica down longer than `retention / commit-rate`
    /// cannot catch up and would need a snapshot transfer, which is out of
    /// scope).
    pub retention: usize,
    /// How many replicas (starting at the client's entry replica) reply to
    /// each committed transaction. 1 is bandwidth-optimal for fault-free
    /// measurement runs; set to `f + 1` to tolerate faulty entry replicas
    /// (clients deduplicate).
    pub reply_spread: usize,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            bundle_size: 50,
            batch_size: 800,
            production_interval: SimDuration::from_millis(6),
            heartbeat: SimDuration::from_millis(20),
            view_timeout: SimDuration::from_secs(2),
            propose_interval: SimDuration::from_millis(5),
            pipeline: 8,
            max_digests: 1000,
            metrics_replica: 0,
            max_link_backlog: SimDuration::from_millis(200),
            retention: 256,
            reply_spread: 1,
        }
    }
}

impl ConsensusConfig {
    /// Computes the Eq.1-paced production interval: the upload time of one
    /// full bundle multicast to `n_c − 1` peers at `upload_bps`.
    pub fn paced_production(
        mut self,
        n_c: usize,
        tx_size: usize,
        upload_bps: u64,
    ) -> ConsensusConfig {
        let bundle_bytes = (self.bundle_size * tx_size + 256) as u64;
        let copies = n_c.saturating_sub(1).max(1) as u64;
        let nanos = bundle_bytes * 8 * copies * 1_000_000_000 / upload_bps.max(1);
        self.production_interval = SimDuration::from_nanos(nanos);
        self
    }
}

/// Timer kinds used by consensus actors (namespaced per subsystem).
pub mod timers {
    /// PBFT view-change timer.
    pub const PBFT_VIEW: u32 = 100;
    /// PBFT propose tick.
    pub const PBFT_PROPOSE: u32 = 101;
    /// HotStuff pacemaker timer.
    pub const HS_PACEMAKER: u32 = 200;
    /// HotStuff propose tick.
    pub const HS_PROPOSE: u32 = 201;
    /// Client submission tick.
    pub const CLIENT_SUBMIT: u32 = 300;
    /// Data plane production tick.
    pub const PLANE_PRODUCE: u32 = 400;
    /// Data plane missing-data refetch tick.
    pub const PLANE_REFETCH: u32 = 402;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(n: usize, c: usize) -> Roster {
        Roster::new(
            (0..n as u32).map(NodeId).collect(),
            (n as u32..(n + c) as u32).map(NodeId).collect(),
        )
    }

    #[test]
    fn quorums_match_bft_arithmetic() {
        let r = roster(4, 2);
        assert_eq!(r.f(), 1);
        assert_eq!(r.quorum(), 3);
        let r16 = roster(16, 0);
        assert_eq!(r16.f(), 5);
        assert_eq!(r16.quorum(), 11);
    }

    #[test]
    fn leader_rotates() {
        let r = roster(4, 0);
        assert_eq!(r.leader_of(0), 0);
        assert_eq!(r.leader_of(5), 1);
        assert_eq!(r.consensus_node(5), NodeId(1));
    }

    #[test]
    fn peers_excludes_self() {
        let r = roster(4, 0);
        let peers: Vec<NodeId> = r.peers_of(1).collect();
        assert_eq!(peers, vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(r.index_of(NodeId(2)), Some(2));
        assert_eq!(r.index_of(NodeId(9)), None);
    }

    #[test]
    fn rosters_stop_at_the_mask_width() {
        assert_eq!(roster(VoteSet::CAPACITY, 0).n(), 64);
        let too_wide = std::panic::catch_unwind(|| roster(VoteSet::CAPACITY + 1, 0));
        assert!(too_wide.is_err(), "a 65-node committee must not build");
    }

    #[test]
    fn clients_spread_over_replicas() {
        let r = roster(4, 8);
        let mut counts = [0usize; 4];
        for c in 0..8 {
            counts[r.entry_replica(ClientId(c))] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
        assert_eq!(r.client_node(ClientId(0)), NodeId(4));
    }

    #[test]
    fn paced_production_matches_eq1() {
        // 50 txs x 512 B + 256 B header = 25856 B; x 3 copies at 100 Mbps
        // = 25856 * 24 / 100e6 s ≈ 6.2 ms.
        let cfg = ConsensusConfig::default().paced_production(4, 512, 100_000_000);
        let ms = cfg.production_interval.as_millis_f64();
        assert!((6.0..6.5).contains(&ms), "got {ms} ms");
    }
}
