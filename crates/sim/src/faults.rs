//! Fault injection: crashes, message omission, and link partitions.
//!
//! The paper's network-layer threat model lets malicious full nodes *delay or
//! omit* messages (Section II); consensus-layer Byzantine behaviour
//! (equivocation, selective sending, refusing to vote) is modelled by
//! dedicated Byzantine actor implementations in the consensus crate, while
//! this module covers everything the network itself can do to honest
//! protocol traffic.

use crate::actor::NodeId;
use crate::time::SimTime;

/// A directed link suppression active during a time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkBlock {
    from: NodeId,
    to: NodeId,
    start: SimTime,
    end: SimTime,
}

/// Per-node fault configuration.
#[derive(Debug, Clone, Default)]
struct NodeFaults {
    /// Crash windows `[at, until)`, kept sorted by start and non-overlapping;
    /// `until == None` is a fail-stop (never revives) and must be last.
    /// Multiple windows model churn: a node that crashes and rejoins
    /// repeatedly over one run.
    windows: Vec<(SimTime, Option<SimTime>)>,
    /// Probability that any *outgoing* message is silently dropped
    /// (bandwidth is still consumed — the bytes leave the NIC and die).
    omission_prob: f64,
}

impl NodeFaults {
    fn push_window(&mut self, at: SimTime, until: Option<SimTime>) {
        self.windows.push((at, until));
        self.windows.sort_by_key(|&(a, _)| a);
        for pair in self.windows.windows(2) {
            let (_, u0) = pair[0];
            let (a1, _) = pair[1];
            let end = u0.expect("a fail-stop crash window must be the node's last");
            assert!(end <= a1, "crash windows on one node must not overlap");
        }
    }
}

/// A declarative fault plan applied by the engine while scheduling messages.
///
/// # Examples
///
/// ```
/// use predis_sim::{FaultPlan, NodeId, SimTime};
///
/// let mut plan = FaultPlan::none();
/// plan.crash(NodeId(3), SimTime::from_secs(10))           // fail-stop
///     .crash_for(NodeId(4), SimTime::from_secs(5), SimTime::from_secs(8))
///     .omit_outgoing(NodeId(1), 0.05)                     // 5% loss
///     .partition(&[NodeId(0)], &[NodeId(2)], SimTime::ZERO, SimTime::from_secs(2));
/// assert!(plan.is_crashed(NodeId(4), SimTime::from_secs(6)));
/// assert!(!plan.is_crashed(NodeId(4), SimTime::from_secs(9))); // revived
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    nodes: Vec<NodeFaults>,
    blocks: Vec<LinkBlock>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeFaults {
        let idx = node.index();
        if self.nodes.len() <= idx {
            self.nodes.resize(idx + 1, NodeFaults::default());
        }
        &mut self.nodes[idx]
    }

    /// Crashes `node` at `at`: it stops sending, receiving and firing timers.
    ///
    /// # Panics
    ///
    /// Panics if the fail-stop overlaps or precedes an existing window for
    /// the node (a fail-stop must be its last window).
    pub fn crash(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.node_mut(node).push_window(at, None);
        self
    }

    /// Crashes `node` during `[at, until)` and revives it afterwards with
    /// its state intact (a crash-recovery fault). The engine re-runs the
    /// actor's `on_start` at revival; timers armed before the crash are
    /// invalidated. The boundary is half-open on both sides of the engine:
    /// a message delivered at exactly `until` is processed normally, no
    /// matter how its queue position interleaves with the bookkeeping
    /// revive event. Call repeatedly with disjoint windows to model churn.
    ///
    /// # Panics
    ///
    /// Panics if `until <= at` or the window overlaps an existing one.
    pub fn crash_for(&mut self, node: NodeId, at: SimTime, until: SimTime) -> &mut Self {
        assert!(until > at, "revival must come after the crash");
        self.node_mut(node).push_window(at, Some(until));
        self
    }

    /// The time `node` first revives, if a recovery is scheduled.
    pub fn revive_time(&self, node: NodeId) -> Option<SimTime> {
        self.nodes
            .get(node.index())
            .and_then(|n| n.windows.first())
            .and_then(|&(_, until)| until)
    }

    /// All crash windows for `node` as `(at, until)` pairs, sorted by start;
    /// `until == None` means fail-stop. The engine schedules one
    /// crash/revive event pair per window.
    pub fn crash_windows(
        &self,
        node: NodeId,
    ) -> impl Iterator<Item = (SimTime, Option<SimTime>)> + '_ {
        self.nodes
            .get(node.index())
            .map(|n| n.windows.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Drops each outgoing message of `node` independently with probability
    /// `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn omit_outgoing(&mut self, node: NodeId, prob: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0,1]");
        self.node_mut(node).omission_prob = prob;
        self
    }

    /// Suppresses all messages from `from` to `to` during `[start, end)`.
    pub fn block_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> &mut Self {
        self.blocks.push(LinkBlock {
            from,
            to,
            start,
            end,
        });
        self
    }

    /// Symmetric partition between the node sets `a` and `b` during
    /// `[start, end)`.
    pub fn partition(
        &mut self,
        a: &[NodeId],
        b: &[NodeId],
        start: SimTime,
        end: SimTime,
    ) -> &mut Self {
        for &x in a {
            for &y in b {
                self.block_link(x, y, start, end);
                self.block_link(y, x, start, end);
            }
        }
        self
    }

    /// The time `node` first crashes, if any.
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.nodes
            .get(node.index())
            .and_then(|n| n.windows.first())
            .map(|&(at, _)| at)
    }

    /// True if the node is crashed at time `at` (inside any crash window
    /// `[at, until)` — the revive tick itself is *up*).
    pub fn is_crashed(&self, node: NodeId, at: SimTime) -> bool {
        let Some(nf) = self.nodes.get(node.index()) else {
            return false;
        };
        nf.windows.iter().any(|&(c, r)| match r {
            Some(r) => at >= c && at < r,
            None => at >= c,
        })
    }

    /// Decides whether a message sent now from `from` to `to` is delivered.
    /// Randomized omission pulls one word from `draw` — the caller supplies
    /// the sender link's counter-keyed stream — and converts it to a
    /// uniform f64 in `[0, 1)` by the standard 53-bit mantissa mapping.
    /// `draw` is invoked only when the sender has a nonzero omission rate,
    /// so fault-free sends never advance any stream.
    pub fn delivers(
        &self,
        from: NodeId,
        to: NodeId,
        now: SimTime,
        draw: impl FnOnce() -> u64,
    ) -> bool {
        if self.is_crashed(from, now) || self.is_crashed(to, now) {
            return false;
        }
        if self
            .blocks
            .iter()
            .any(|b| b.from == from && b.to == to && now >= b.start && now < b.end)
        {
            return false;
        }
        let p = self
            .nodes
            .get(from.index())
            .map_or(0.0, |n| n.omission_prob);
        if p > 0.0 {
            let sample = (draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if sample < p {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    /// Deterministic `delivers` paths must not consume randomness at all.
    fn no_draw() -> u64 {
        unreachable!("deterministic delivery decision must not draw")
    }

    #[test]
    fn no_faults_delivers() {
        let plan = FaultPlan::none();
        assert!(plan.delivers(NodeId(0), NodeId(1), SimTime::ZERO, no_draw));
    }

    #[test]
    fn crash_stops_both_directions() {
        let mut plan = FaultPlan::none();
        plan.crash(NodeId(1), SimTime::from_secs(5));
        assert!(plan.delivers(NodeId(0), NodeId(1), SimTime::from_secs(4), no_draw));
        assert!(!plan.delivers(NodeId(0), NodeId(1), SimTime::from_secs(5), no_draw));
        assert!(!plan.delivers(NodeId(1), NodeId(0), SimTime::from_secs(6), no_draw));
        assert!(plan.is_crashed(NodeId(1), SimTime::from_secs(5)));
        assert!(!plan.is_crashed(NodeId(0), SimTime::from_secs(5)));
    }

    #[test]
    fn link_block_is_directed_and_windowed() {
        let mut plan = FaultPlan::none();
        plan.block_link(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(plan.delivers(NodeId(0), NodeId(1), SimTime::ZERO, no_draw));
        assert!(!plan.delivers(NodeId(0), NodeId(1), SimTime::from_secs(1), no_draw));
        // Reverse direction unaffected.
        assert!(plan.delivers(NodeId(1), NodeId(0), SimTime::from_secs(1), no_draw));
        // Window end is exclusive.
        assert!(plan.delivers(NodeId(0), NodeId(1), SimTime::from_secs(2), no_draw));
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut plan = FaultPlan::none();
        plan.partition(
            &[NodeId(0)],
            &[NodeId(1), NodeId(2)],
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert!(!plan.delivers(NodeId(0), NodeId(2), SimTime::from_secs(1), no_draw));
        assert!(!plan.delivers(NodeId(2), NodeId(0), SimTime::from_secs(1), no_draw));
        assert!(plan.delivers(NodeId(1), NodeId(2), SimTime::from_secs(1), no_draw));
    }

    #[test]
    fn omission_probability_is_respected() {
        let mut plan = FaultPlan::none();
        plan.omit_outgoing(NodeId(0), 0.5);
        let mut r = rng();
        let delivered = (0..10_000)
            .filter(|_| plan.delivers(NodeId(0), NodeId(1), SimTime::ZERO, || r.next_u64()))
            .count();
        assert!((4_000..6_000).contains(&delivered), "got {delivered}");
        // Other nodes unaffected — and they never draw.
        assert!((0..100).all(|_| plan.delivers(NodeId(1), NodeId(0), SimTime::ZERO, no_draw)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn omission_rejects_bad_probability() {
        FaultPlan::none().omit_outgoing(NodeId(0), 1.5);
    }

    #[test]
    fn crash_window_is_half_open() {
        let mut plan = FaultPlan::none();
        plan.crash_for(NodeId(2), SimTime::from_secs(4), SimTime::from_secs(6));
        assert!(!plan.is_crashed(NodeId(2), SimTime::from_millis(3_999)));
        assert!(plan.is_crashed(NodeId(2), SimTime::from_secs(4)));
        assert!(plan.is_crashed(NodeId(2), SimTime::from_millis(5_999)));
        // The revive tick itself is up: `until` is exclusive.
        assert!(!plan.is_crashed(NodeId(2), SimTime::from_secs(6)));
        assert_eq!(plan.crash_time(NodeId(2)), Some(SimTime::from_secs(4)));
        assert_eq!(plan.revive_time(NodeId(2)), Some(SimTime::from_secs(6)));
    }

    #[test]
    fn multiple_windows_model_churn() {
        let mut plan = FaultPlan::none();
        plan.crash_for(NodeId(1), SimTime::from_secs(2), SimTime::from_secs(3))
            .crash_for(NodeId(1), SimTime::from_secs(5), SimTime::from_secs(7));
        assert!(plan.is_crashed(NodeId(1), SimTime::from_secs(2)));
        assert!(!plan.is_crashed(NodeId(1), SimTime::from_secs(3)));
        assert!(!plan.is_crashed(NodeId(1), SimTime::from_secs(4)));
        assert!(plan.is_crashed(NodeId(1), SimTime::from_secs(6)));
        assert!(!plan.is_crashed(NodeId(1), SimTime::from_secs(7)));
        let windows: Vec<_> = plan.crash_windows(NodeId(1)).collect();
        assert_eq!(
            windows,
            vec![
                (SimTime::from_secs(2), Some(SimTime::from_secs(3))),
                (SimTime::from_secs(5), Some(SimTime::from_secs(7))),
            ]
        );
        // Windows sort regardless of insertion order.
        let mut rev = FaultPlan::none();
        rev.crash_for(NodeId(0), SimTime::from_secs(5), SimTime::from_secs(7))
            .crash_for(NodeId(0), SimTime::from_secs(2), SimTime::from_secs(3));
        assert_eq!(rev.crash_time(NodeId(0)), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn final_window_may_be_fail_stop() {
        let mut plan = FaultPlan::none();
        plan.crash_for(NodeId(3), SimTime::from_secs(1), SimTime::from_secs(2))
            .crash(NodeId(3), SimTime::from_secs(10));
        assert!(!plan.is_crashed(NodeId(3), SimTime::from_secs(5)));
        assert!(plan.is_crashed(NodeId(3), SimTime::from_secs(100)));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_windows_are_rejected() {
        FaultPlan::none()
            .crash_for(NodeId(0), SimTime::from_secs(1), SimTime::from_secs(5))
            .crash_for(NodeId(0), SimTime::from_secs(4), SimTime::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "fail-stop")]
    fn window_after_fail_stop_is_rejected() {
        FaultPlan::none()
            .crash(NodeId(0), SimTime::from_secs(1))
            .crash_for(NodeId(0), SimTime::from_secs(4), SimTime::from_secs(6));
    }
}
