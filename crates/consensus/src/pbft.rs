//! A PBFT consensus shell over a pluggable [`DataPlane`].
//!
//! Three-phase PBFT (pre-prepare / prepare / commit) with slot pipelining,
//! rotating-leader views, and a timeout-driven view change. Combined with
//! [`crate::planes::BatchPlane`] it is the paper's PBFT baseline; with
//! [`crate::planes::PredisPlane`] it is **P-PBFT**.
//!
//! The view change is deliberately simplified relative to full PBFT: on a
//! `2f + 1` quorum of view-change messages the new leader resumes proposing
//! from the last *executed* slot, without re-certifying prepared-but-
//! unexecuted slots. This preserves liveness under the crash/mute faults
//! the paper's Fig. 6 injects (which is what the experiments exercise), but
//! is not a full treatment of cross-view prepared certificates; DESIGN.md
//! records the simplification.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use predis_crypto::Hash;
use predis_sim::{Codec, NarrowContext, NodeId, ProtocolCore, TimerTag};
use predis_types::{IdMap, ProposalPayload, SeqNum, SizedPayload, Transaction, View};

use crate::config::{timers, ConsensusConfig, Roster, VoteSet};
use crate::msg::ConsMsg;
use crate::plane::{DataPlane, ProposalCheck};
use crate::replica::Replica;

/// Per-slot consensus state.
#[derive(Debug)]
struct Slot {
    digest: Hash,
    /// Shared with the delivered pre-prepare (and, on the leader, with
    /// every outgoing copy): cloning a slot's payload is an `Arc` bump.
    payload: Option<SizedPayload<ProposalPayload>>,
    /// Payload digest of the predecessor proposal (the plane's `parent`).
    parent: Hash,
    /// This node validated the payload and prepared.
    validated: bool,
    /// Validation returned `Defer`; retry when the plane progresses.
    deferred: bool,
    prepares: VoteSet,
    commits: VoteSet,
    sent_commit: bool,
    committed: bool,
    executed: bool,
}

impl Slot {
    fn new(digest: Hash, parent: Hash) -> Slot {
        Slot {
            digest,
            payload: None,
            parent,
            validated: false,
            deferred: false,
            prepares: VoteSet::default(),
            commits: VoteSet::default(),
            sent_commit: false,
            committed: false,
            executed: false,
        }
    }
}

/// Which of a slot's two vote tallies a message feeds.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Prepare,
    Commit,
}

/// The slot table: live slots are the contiguous range
/// `[last_exec − retention, next_seq]`, so it is a dense window indexed by
/// `seq − base`, with `None` for a sequence number nothing has referenced.
///
/// Invariant: `entries[i]` is slot `base + i`, i.e. exactly the sequence
/// numbers `base ≤ seq < base + entries.len()` are addressable. Nothing is
/// allocated until the first slot is touched.
#[derive(Debug, Default)]
struct SlotWindow {
    base: u64,
    entries: VecDeque<Option<Slot>>,
}

impl SlotWindow {
    fn index(&self, seq: SeqNum) -> Option<usize> {
        let offset = usize::try_from(seq.0.checked_sub(self.base)?).ok()?;
        (offset < self.entries.len()).then_some(offset)
    }

    fn get(&self, seq: SeqNum) -> Option<&Slot> {
        self.entries[self.index(seq)?].as_ref()
    }

    fn get_mut(&mut self, seq: SeqNum) -> Option<&mut Slot> {
        let i = self.index(seq)?;
        self.entries[i].as_mut()
    }

    /// The (possibly vacant) entry for `seq`, growing the window up to
    /// `seq`; `None` if `seq` lies below the window or at or beyond `end`.
    fn entry(&mut self, seq: SeqNum, end: u64) -> Option<&mut Option<Slot>> {
        if seq.0 >= end {
            return None;
        }
        let offset = usize::try_from(seq.0.checked_sub(self.base)?).ok()?;
        if offset >= self.entries.len() {
            self.entries.resize_with(offset + 1, || None);
        }
        Some(&mut self.entries[offset])
    }

    /// The plane's `parent` for slot `seq`: its predecessor's digest.
    fn parent_of(&self, seq: SeqNum) -> Hash {
        if seq.0 <= 1 {
            return Hash::ZERO;
        }
        self.get(SeqNum(seq.0 - 1)).map_or(Hash::ZERO, |s| s.digest)
    }

    /// Forgets every slot below `keep_from`.
    fn drop_below(&mut self, keep_from: u64) {
        while self.base < keep_from && self.entries.pop_front().is_some() {
            self.base += 1;
        }
        self.base = self.base.max(keep_from);
    }

    /// Forgets every slot not yet executed, and the vacant tail that leaves.
    fn drop_unexecuted(&mut self) {
        for entry in &mut self.entries {
            if entry.as_ref().is_some_and(|slot| !slot.executed) {
                *entry = None;
            }
        }
        while self.entries.back().is_some_and(Option::is_none) {
            self.entries.pop_back();
        }
    }

    /// The occupied slots in sequence order.
    fn iter(&self) -> impl Iterator<Item = (SeqNum, &Slot)> {
        let seqs = (self.base..).map(SeqNum);
        seqs.zip(&self.entries)
            .filter_map(|(seq, entry)| Some((seq, entry.as_ref()?)))
    }
}

/// A PBFT replica parameterised by its data plane. It dereferences to its
/// [`Replica`], which holds the plane, the execution counters and the
/// executed log.
///
/// # Examples
///
/// ```
/// use predis_consensus::planes::PredisPlane;
/// use predis_consensus::{ConsensusConfig, PbftNode, Roster};
/// use predis_sim::NodeId;
///
/// let roster = Roster::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)], vec![]);
/// let cfg = ConsensusConfig::default();
/// // Replica 1 of a P-PBFT committee; install with ActorOf::new(node).
/// let node = PbftNode::new(1, roster.clone(), cfg.clone(),
///                          PredisPlane::new(1, roster, cfg));
/// assert_eq!(node.view(), predis_types::View(0));
/// ```
#[derive(Debug)]
pub struct PbftNode<P> {
    replica: Replica<P, SizedPayload<ProposalPayload>>,
    view: View,
    next_seq: SeqNum,
    slots: SlotWindow,
    /// Some slot may be waiting on a deferred validation (cleared by the
    /// first plane-progress scan that finds none).
    any_deferred: bool,
    view_votes: IdMap<View, VoteSet>,
    progressed: bool,
    /// Consecutive fruitless view changes (drives exponential timeout
    /// backoff, reset on execution progress).
    backoff: u32,
    /// Highest slot seen referenced by any peer message (lag detector).
    highest_seen: SeqNum,
}

impl<P> Deref for PbftNode<P> {
    type Target = Replica<P, SizedPayload<ProposalPayload>>;

    fn deref(&self) -> &Self::Target {
        &self.replica
    }
}

impl<P> DerefMut for PbftNode<P> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.replica
    }
}

impl<P: DataPlane> PbftNode<P> {
    /// Creates a replica for committee member `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub fn new(me: usize, roster: Roster, cfg: ConsensusConfig, plane: P) -> PbftNode<P> {
        PbftNode {
            // Slots are numbered from 1.
            replica: Replica::new(me, roster, cfg, plane, 1),
            view: View(0),
            next_seq: SeqNum(1),
            slots: SlotWindow::default(),
            any_deferred: false,
            view_votes: IdMap::default(),
            progressed: false,
            backoff: 0,
            highest_seen: SeqNum(0),
        }
    }

    /// The replica's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The last executed slot: slots execute in order from 1, so it is the
    /// execution count.
    pub fn last_exec(&self) -> SeqNum {
        SeqNum(self.replica.executed_blocks())
    }

    /// Number of slots currently retained (bounded by garbage collection
    /// behind the execution point and by the window ahead of it).
    pub fn retained_slots(&self) -> usize {
        self.slots.entries.len()
    }

    /// One past the highest sequence number this replica keeps state for:
    /// the retention window again, ahead of the execution point. A replica
    /// further behind than `retention` cannot catch up at all (its peers
    /// have dropped the slots it needs), so nothing it could still execute
    /// lies beyond that plus the slots in flight; a vote out there is
    /// dropped instead of growing the table to reach it.
    fn window_end(&self) -> u64 {
        let cfg = &self.replica.cfg;
        let ahead = (cfg.retention + 2 * cfg.pipeline) as u64;
        self.last_exec().0.saturating_add(ahead).saturating_add(1)
    }

    /// The entry for `seq` if the window reaches it; counts the drop if not.
    fn slot_entry<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        seq: SeqNum,
    ) -> Option<&mut Option<Slot>> {
        let end = self.window_end();
        let entry = self.slots.entry(seq, end);
        if entry.is_none() {
            ctx.metrics().incr("pbft.votes_out_of_window", 1);
        }
        entry
    }

    fn leader(&self) -> usize {
        self.replica.roster.leader_of(self.view.0)
    }

    /// True if slot `seq` lies more than two pipelines past the execution
    /// point: this replica lags and should catch up.
    fn behind(&self, seq: SeqNum) -> bool {
        seq.0 > self.last_exec().0 + 2 * self.replica.cfg.pipeline as u64
    }

    fn try_propose<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        if self.replica.mute || self.leader() != self.replica.me {
            return;
        }
        while self.next_seq.0 - self.last_exec().0 <= self.replica.cfg.pipeline as u64 {
            let seq = self.next_seq;
            let parent = self.slots.parent_of(seq);
            let Some(payload) = self.replica.plane.make_proposal(ctx, parent, self.view) else {
                break;
            };
            // Wrap once: the slot table and every recipient share it.
            let payload = SizedPayload::from(payload);
            let digest = payload.digest();
            let mut slot = Slot::new(digest, parent);
            slot.payload = Some(payload.clone());
            slot.validated = true;
            slot.prepares.insert(self.replica.me);
            let end = self.window_end();
            *self
                .slots
                .entry(seq, end)
                .expect("the pipeline fits the window") = Some(slot);
            ctx.multicast(
                self.replica.peers(),
                ConsMsg::PrePrepare {
                    view: self.view,
                    seq,
                    payload,
                },
            );
            ctx.metrics().incr("pbft.proposals", 1);
            self.next_seq = seq.next();
        }
    }

    fn on_preprepare<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        sender: usize,
        view: View,
        seq: SeqNum,
        payload: SizedPayload<ProposalPayload>,
    ) {
        let leader = self.replica.roster.leader_of(view.0);
        if view != self.view || sender != leader || seq <= self.last_exec() {
            return;
        }
        let digest = payload.digest();
        let parent = self.slots.parent_of(seq);
        let Some(entry) = self.slot_entry(ctx, seq) else {
            return;
        };
        let slot = entry.get_or_insert_with(|| Slot::new(digest, parent));
        if slot.payload.is_none() {
            slot.digest = digest;
            slot.parent = parent;
            slot.payload = Some(payload);
            // The leader's pre-prepare doubles as its prepare.
            slot.prepares.insert(leader);
        } else if slot.digest != digest {
            // Equivocating leader: refuse; the view timer handles it.
            return;
        }
        self.revalidate_slot(ctx, seq);
    }

    /// (Re-)validates a slot's payload and sends our prepare when accepted.
    fn revalidate_slot<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        seq: SeqNum,
    ) {
        let Some(slot) = self.slots.get(seq) else {
            return;
        };
        if slot.validated {
            return;
        }
        let Some(payload) = slot.payload.clone() else {
            return;
        };
        let parent = slot.parent;
        let id = slot.digest;
        let proposer = self.leader();
        // A slot's digest is its payload's (memoized) digest, so it serves
        // as both the proposal id and the payload digest.
        let check = self
            .replica
            .plane
            .validate(ctx, proposer, parent, id, id, &payload);
        let slot = self.slots.get_mut(seq).expect("exists");
        match check {
            ProposalCheck::Accept => {
                slot.validated = true;
                slot.deferred = false;
                slot.prepares.insert(self.replica.me);
                if !self.replica.mute {
                    ctx.multicast(
                        self.replica.peers(),
                        ConsMsg::Prepare {
                            view: self.view,
                            seq,
                            digest: id,
                        },
                    );
                }
                self.check_quorums(ctx, seq);
            }
            ProposalCheck::Defer => {
                slot.deferred = true;
                self.any_deferred = true;
            }
            ProposalCheck::Reject => {
                ctx.metrics().incr("pbft.rejected_proposals", 1);
            }
        }
    }

    fn check_quorums<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        seq: SeqNum,
    ) {
        let quorum = self.replica.roster.quorum();
        let Some(slot) = self.slots.get_mut(seq) else {
            return;
        };
        if slot.validated && !slot.sent_commit && slot.prepares.len() >= quorum {
            slot.sent_commit = true;
            slot.commits.insert(self.replica.me);
            if !self.replica.mute {
                ctx.multicast(
                    self.replica.peers(),
                    ConsMsg::Commit {
                        view: self.view,
                        seq,
                        digest: slot.digest,
                    },
                );
            }
        }
        if !slot.committed && slot.commits.len() >= quorum && slot.payload.is_some() {
            slot.committed = true;
            self.try_execute(ctx);
        }
    }

    fn try_execute<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        loop {
            let next = self.last_exec().next();
            let Some(slot) = self.slots.get(next) else {
                break;
            };
            if !slot.committed || slot.executed {
                break;
            }
            let Some(payload) = slot.payload.clone() else {
                break;
            };
            let (parent, id) = (slot.parent, slot.digest);
            if !self.replica.execute(ctx, parent, id, id, payload, drop) {
                break; // data still missing; plane progress will retry
            }
            self.slots.get_mut(next).expect("checked").executed = true;
            self.progressed = true;
            self.backoff = 0;
            // Checkpoint-style garbage collection: keep the executed slots
            // the replica's log keeps for catch-up, drop the rest.
            let retention = self.replica.cfg.retention as u64;
            self.slots.drop_below(next.0.saturating_sub(retention));
        }
    }

    /// Crash-recovery: when peers reference slots far beyond our execution
    /// point, fetch the gap from the sender.
    fn note_peer_seq<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        seq: SeqNum,
    ) {
        if seq > self.highest_seen {
            self.highest_seen = seq;
        }
        if self.behind(seq) && self.replica.request_catch_up(ctx, from) {
            ctx.metrics().incr("pbft.catchup_requests", 1);
        }
    }

    /// State transfer from `from`: each applied slot is filed as executed.
    fn on_catch_up<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        slots: Vec<(SeqNum, ProposalPayload, Vec<Transaction>)>,
    ) {
        let window = &mut self.slots;
        let applied = self
            .replica
            .apply_catch_up(ctx, slots, |seq, digest, payload| {
                let payload = SizedPayload::from(payload);
                let parent = window.parent_of(seq);
                let slot = window
                    .entry(seq, u64::MAX)
                    .expect("the next slot to execute is inside the window")
                    .get_or_insert_with(|| Slot::new(digest, parent));
                slot.digest = digest;
                slot.parent = parent;
                slot.payload = Some(payload.clone());
                slot.committed = true;
                slot.executed = true;
                (parent, payload)
            });
        if applied > 0 {
            self.progressed = true;
            ctx.metrics().incr("pbft.slots_caught_up", applied);
        }
        self.try_execute(ctx);
        // Still behind: fetch the next window.
        if self.behind(self.highest_seen) {
            self.replica.request_catch_up(ctx, from);
        }
    }

    fn on_plane_progress<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
    ) {
        if self.any_deferred {
            let deferred: Vec<SeqNum> = self
                .slots
                .iter()
                .filter(|(_, s)| s.deferred && !s.validated)
                .map(|(seq, _)| seq)
                .collect();
            self.any_deferred = !deferred.is_empty();
            for seq in deferred {
                self.revalidate_slot(ctx, seq);
            }
        }
        self.try_execute(ctx);
    }

    /// Records a prepare or commit vote by committee member `sender`.
    fn on_vote<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        sender: usize,
        phase: Phase,
        view: View,
        seq: SeqNum,
        digest: Hash,
    ) {
        if view != self.view {
            return;
        }
        let Some(entry) = self.slot_entry(ctx, seq) else {
            return;
        };
        // A vote that raced ahead of the pre-prepare opens the slot under
        // the digest it names; one for another digest is not counted.
        let slot = entry.get_or_insert_with(|| Slot::new(digest, Hash::ZERO));
        if slot.digest != digest {
            return;
        }
        match phase {
            Phase::Prepare => slot.prepares.insert(sender),
            Phase::Commit => slot.commits.insert(sender),
        };
        self.check_quorums(ctx, seq);
    }

    fn start_view_change<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
    ) {
        if self.replica.mute {
            return;
        }
        let new_view = self.view.next();
        ctx.metrics().incr("pbft.view_changes_started", 1);
        let me = self.replica.me;
        self.view_votes.entry(new_view).or_default().insert(me);
        ctx.multicast(
            self.replica.peers(),
            ConsMsg::ViewChange {
                new_view,
                last_exec: self.last_exec(),
            },
        );
        self.maybe_enter_view(ctx, new_view);
    }

    fn maybe_enter_view<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        v: View,
    ) {
        if v <= self.view {
            return;
        }
        let votes = self.view_votes.get(&v).map_or(0, VoteSet::len);
        if votes < self.replica.roster.quorum() {
            return;
        }
        self.enter_view(ctx, v);
        if self.leader() == self.replica.me && !self.replica.mute {
            ctx.multicast(
                self.replica.peers(),
                ConsMsg::NewView {
                    view: v,
                    resume_from: self.last_exec().next(),
                },
            );
            self.try_propose(ctx);
        }
    }

    fn enter_view<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        v: View,
    ) {
        self.view = v;
        ctx.metrics().incr("pbft.views_entered", 1);
        // Abandon unexecuted slots: their payloads will be re-proposed by
        // the new leader (Predis bundles and batch transactions survive in
        // the planes).
        self.slots.drop_unexecuted();
        self.next_seq = self.last_exec().next();
        self.progressed = true; // fresh view: give the new leader a full timeout
    }
}

impl<P: DataPlane> ProtocolCore<ConsMsg> for PbftNode<P> {
    fn start<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        self.replica.plane.init(ctx);
        let cfg = &self.replica.cfg;
        ctx.set_timer(cfg.view_timeout, TimerTag::of_kind(timers::PBFT_VIEW));
        ctx.set_timer(
            cfg.propose_interval,
            TimerTag::of_kind(timers::PBFT_PROPOSE),
        );
    }

    fn message<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        msg: ConsMsg,
    ) {
        let (progressed, sender) = self.replica.offer(ctx, from, &msg);
        if progressed {
            self.on_plane_progress(ctx);
        }
        let Some(sender) = sender else {
            return;
        };
        match msg {
            ConsMsg::PrePrepare { view, seq, payload } => {
                self.on_preprepare(ctx, sender, view, seq, payload)
            }
            ConsMsg::Prepare { view, seq, digest } => {
                self.note_peer_seq(ctx, from, seq);
                self.on_vote(ctx, sender, Phase::Prepare, view, seq, digest)
            }
            ConsMsg::Commit { view, seq, digest } => {
                self.note_peer_seq(ctx, from, seq);
                self.on_vote(ctx, sender, Phase::Commit, view, seq, digest)
            }
            ConsMsg::CatchUpResponse { slots } => self.on_catch_up(ctx, from, slots),
            ConsMsg::ViewChange { new_view, .. } => {
                self.view_votes.entry(new_view).or_default().insert(sender);
                self.maybe_enter_view(ctx, new_view);
            }
            ConsMsg::NewView { view, resume_from }
                if view > self.view && sender == self.replica.roster.leader_of(view.0) =>
            {
                self.enter_view(ctx, view);
                self.next_seq = resume_from.max(self.last_exec().next());
            }
            _ => {}
        }
    }

    fn timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) {
        if self.replica.plane.on_timer(ctx, tag) {
            // Production may have refilled the pool; leaders try to propose.
            self.try_propose(ctx);
            return;
        }
        match tag.kind {
            timers::PBFT_PROPOSE => {
                self.try_propose(ctx);
                ctx.set_timer(
                    self.replica.cfg.propose_interval,
                    TimerTag::of_kind(timers::PBFT_PROPOSE),
                );
            }
            timers::PBFT_VIEW => {
                let idle = !self.progressed;
                self.progressed = false;
                // Suspect the leader when there is work outstanding — either
                // in-flight slots or unordered data in the plane (§III-D:
                // the bundle-arrival timer).
                let outstanding =
                    self.slots.iter().any(|(_, s)| !s.executed) || self.replica.plane.has_pending();
                if idle && outstanding {
                    self.start_view_change(ctx);
                    self.backoff = (self.backoff + 1).min(6);
                }
                // Exponential backoff keeps successive view changes from
                // racing the slower replicas during long outages.
                let timeout = self.replica.cfg.view_timeout * (1u64 << self.backoff.min(6));
                ctx.set_timer(timeout, TimerTag::of_kind(timers::PBFT_VIEW));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(window: &mut SlotWindow, seq: u64, end: u64) -> bool {
        match window.entry(SeqNum(seq), end) {
            Some(entry) => {
                entry.get_or_insert_with(|| Slot::new(Hash::ZERO, Hash::ZERO));
                true
            }
            None => false,
        }
    }

    fn occupied(window: &SlotWindow) -> Vec<u64> {
        window.iter().map(|(seq, _)| seq.0).collect()
    }

    #[test]
    fn window_addresses_exactly_base_to_base_plus_len() {
        let mut window = SlotWindow::default();
        assert!(window.entries.capacity() == 0, "nothing pre-sized");
        assert!(window.get(SeqNum(0)).is_none());
        // Growth stops at `end`, however far the sequence number lies.
        assert!(open(&mut window, 3, 10) && open(&mut window, 9, 10));
        assert!(!open(&mut window, 10, 10) && !open(&mut window, u64::MAX, 10));
        assert_eq!((window.base, window.entries.len()), (0, 10));
        assert_eq!(occupied(&window), [3, 9]);
        assert!(window.get(SeqNum(4)).is_none(), "vacant inside the window");

        // Sliding drops the front, keeps indices true, and refuses what
        // fell off.
        window.drop_below(4);
        assert_eq!((window.base, window.entries.len()), (4, 6));
        assert_eq!(occupied(&window), [9]);
        assert!(!open(&mut window, 3, 20));
        assert!(window.get_mut(SeqNum(9)).is_some());
        // Past everything held: the window empties and still moves on.
        window.drop_below(50);
        assert_eq!((window.base, window.entries.len()), (50, 0));
        assert!(open(&mut window, 50, 60));
        assert_eq!(window.entries.len(), 1);
    }

    #[test]
    fn a_view_change_keeps_executed_slots_only() {
        let mut window = SlotWindow::default();
        for seq in 1..=6 {
            open(&mut window, seq, 10);
        }
        for seq in 1..=3 {
            window.get_mut(SeqNum(seq)).unwrap().executed = true;
        }
        window.drop_unexecuted();
        assert_eq!(occupied(&window), [1, 2, 3]);
        assert_eq!(window.entries.len(), 4, "vacant tail trimmed");
    }
}
