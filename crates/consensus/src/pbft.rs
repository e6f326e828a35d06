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

use std::borrow::Cow;
use std::collections::VecDeque;

use predis_crypto::Hash;
use predis_sim::{Codec, NarrowContext, NodeId, ProtocolCore, TimerTag};
use predis_types::{IdMap, ProposalPayload, SeqNum, SizedPayload, Transaction, View};

use crate::config::{timers, ConsensusConfig, Roster, VoteSet};
use crate::msg::ConsMsg;
use crate::plane::{DataPlane, ProposalCheck};

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
    /// Executed transactions, retained (within the GC window) for serving
    /// crash-recovery state transfer — unless they are the payload's own
    /// batch, which is served from the payload.
    kept_txs: Option<Vec<Transaction>>,
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
            kept_txs: None,
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

/// A PBFT replica parameterised by its data plane.
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
    me: usize,
    roster: Roster,
    cfg: ConsensusConfig,
    plane: P,
    view: View,
    next_seq: SeqNum,
    last_exec: SeqNum,
    slots: SlotWindow,
    /// Some slot may be waiting on a deferred validation (cleared by the
    /// first plane-progress scan that finds none).
    any_deferred: bool,
    view_votes: IdMap<View, VoteSet>,
    /// `deliver_commit`'s reusable sort buffer.
    reply_scratch: Vec<(u32, u32)>,
    progressed: bool,
    /// Consecutive fruitless view changes (drives exponential timeout
    /// backoff, reset on execution progress).
    backoff: u32,
    /// Highest slot seen referenced by any peer message (lag detector).
    highest_seen: SeqNum,
    /// A catch-up request is in flight (cleared when a response arrives).
    syncing: bool,
    /// Byzantine mute mode: track state but never propose or vote (Fig. 6).
    mute: bool,
    /// Total transactions this replica has executed.
    pub executed_txs: u64,
    /// Total proposals this replica has executed.
    pub executed_blocks: u64,
}

impl<P: DataPlane> PbftNode<P> {
    /// Creates a replica for committee member `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub fn new(me: usize, roster: Roster, cfg: ConsensusConfig, plane: P) -> PbftNode<P> {
        assert!(me < roster.n(), "committee index out of range");
        PbftNode {
            me,
            roster,
            cfg,
            plane,
            view: View(0),
            next_seq: SeqNum(1),
            last_exec: SeqNum(0),
            slots: SlotWindow::default(),
            any_deferred: false,
            view_votes: IdMap::default(),
            reply_scratch: Vec::new(),
            progressed: false,
            backoff: 0,
            highest_seen: SeqNum(0),
            syncing: false,
            mute: false,
            executed_txs: 0,
            executed_blocks: 0,
        }
    }

    /// Byzantine variant: never proposes or votes (Fig. 6 "refuse to vote").
    pub fn muted(mut self) -> Self {
        self.mute = true;
        self
    }

    /// The data plane (post-run inspection).
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// Mutable access to the data plane (composed actors drain produced
    /// bundles through this).
    pub fn plane_mut(&mut self) -> &mut P {
        &mut self.plane
    }

    /// The replica's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The last executed slot.
    pub fn last_exec(&self) -> SeqNum {
        self.last_exec
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
        let ahead = (self.cfg.retention + 2 * self.cfg.pipeline) as u64;
        self.last_exec.0.saturating_add(ahead).saturating_add(1)
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

    fn is_leader(&self) -> bool {
        self.roster.leader_of(self.view.0) == self.me
    }

    fn parent_digest(&self, seq: SeqNum) -> Hash {
        if seq.0 <= 1 {
            return Hash::ZERO;
        }
        self.slots
            .get(SeqNum(seq.0 - 1))
            .map_or(Hash::ZERO, |s| s.digest)
    }

    fn try_propose<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        if self.mute || !self.is_leader() {
            return;
        }
        while self.next_seq.0 - self.last_exec.0 <= self.cfg.pipeline as u64 {
            let seq = self.next_seq;
            let parent = self.parent_digest(seq);
            let Some(payload) = self.plane.make_proposal(ctx, parent, self.view) else {
                break;
            };
            // Wrap once: the slot table and every recipient share it.
            let payload = SizedPayload::from(payload);
            let digest = payload.digest();
            let mut slot = Slot::new(digest, parent);
            slot.payload = Some(payload.clone());
            slot.validated = true;
            slot.prepares.insert(self.me);
            let end = self.window_end();
            *self
                .slots
                .entry(seq, end)
                .expect("the pipeline fits the window") = Some(slot);
            ctx.multicast(
                self.roster.peers_of(self.me),
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
        from: NodeId,
        view: View,
        seq: SeqNum,
        payload: SizedPayload<ProposalPayload>,
    ) {
        if view != self.view || self.roster.index_of(from) != Some(self.roster.leader_of(view.0)) {
            return;
        }
        if seq <= self.last_exec {
            return;
        }
        let digest = payload.digest();
        let parent = self.parent_digest(seq);
        let leader = self.roster.leader_of(view.0);
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
        let proposer = self.roster.leader_of(self.view.0);
        // A slot's digest is its payload's (memoized) digest, so it serves
        // as both the proposal id and the payload digest.
        let check = self.plane.validate(ctx, proposer, parent, id, id, &payload);
        let slot = self.slots.get_mut(seq).expect("exists");
        match check {
            ProposalCheck::Accept => {
                slot.validated = true;
                slot.deferred = false;
                slot.prepares.insert(self.me);
                if !self.mute {
                    ctx.multicast(
                        self.roster.peers_of(self.me),
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
        let quorum = self.roster.quorum();
        let Some(slot) = self.slots.get_mut(seq) else {
            return;
        };
        if slot.validated && !slot.sent_commit && slot.prepares.len() >= quorum {
            slot.sent_commit = true;
            slot.commits.insert(self.me);
            if !self.mute {
                ctx.multicast(
                    self.roster.peers_of(self.me),
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
            let next = self.last_exec.next();
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
            let Some(txs) = self.plane.commit(ctx, parent, id, id, &payload) else {
                break; // data still missing; plane progress will retry
            };
            self.executed_blocks += 1;
            self.executed_txs += txs.len() as u64;
            deliver_commit(
                ctx,
                self.me,
                &self.roster,
                &self.cfg,
                &txs,
                &mut self.reply_scratch,
            );
            let slot = self.slots.get_mut(next).expect("checked");
            slot.executed = true;
            slot.kept_txs = kept_for_catch_up(txs);
            self.last_exec = next;
            self.progressed = true;
            self.backoff = 0;
            // Checkpoint-style garbage collection: keep a retention window
            // of executed slots for crash-recovery catch-up, drop the rest.
            self.slots
                .drop_below(next.0.saturating_sub(self.cfg.retention as u64));
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
        let behind = seq.0 > self.last_exec.0 + 2 * self.cfg.pipeline as u64;
        if behind && !self.syncing && !self.mute {
            self.syncing = true;
            ctx.metrics().incr("pbft.catchup_requests", 1);
            ctx.send(
                from,
                ConsMsg::CatchUpRequest {
                    from: self.last_exec.next(),
                },
            );
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
        if self.mute {
            return;
        }
        let new_view = self.view.next();
        ctx.metrics().incr("pbft.view_changes_started", 1);
        self.view_votes.entry(new_view).or_default().insert(self.me);
        ctx.multicast(
            self.roster.peers_of(self.me),
            ConsMsg::ViewChange {
                new_view,
                last_exec: self.last_exec,
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
        if votes < self.roster.quorum() {
            return;
        }
        self.enter_view(ctx, v);
        if self.is_leader() && !self.mute {
            ctx.multicast(
                self.roster.peers_of(self.me),
                ConsMsg::NewView {
                    view: v,
                    resume_from: self.last_exec.next(),
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
        self.next_seq = self.last_exec.next();
        self.progressed = true; // fresh view: give the new leader a full timeout
    }
}

/// Sends commit metrics and client replies for an executed proposal.
/// Shared by the PBFT and HotStuff shells; `scratch` is the calling shell's
/// reusable buffer (its contents on entry are ignored).
pub(crate) fn deliver_commit<M: Codec<ConsMsg>>(
    ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
    me: usize,
    roster: &Roster,
    cfg: &ConsensusConfig,
    txs: &[Transaction],
    scratch: &mut Vec<(u32, u32)>,
) {
    if me == cfg.metrics_replica {
        ctx.metrics().incr("txs_committed", txs.len() as u64);
        let now = ctx.now();
        ctx.metrics().record_commit(now, txs.len() as u64);
    }
    // Each replica replies to the clients whose entry replica it is; with
    // `reply_spread > 1` the next replicas also reply, so a faulty entry
    // cannot suppress confirmations (clients deduplicate).
    let n = roster.n();
    let spread = cfg.reply_spread.max(1);
    scratch.clear();
    for (i, tx) in txs.iter().enumerate() {
        let offset = (me + n - roster.entry_replica(tx.client)) % n;
        if offset < spread && (tx.client.0 as usize) < roster.clients.len() {
            scratch.push((tx.client.0, i as u32));
        }
    }
    // One reply per client, clients in id order and each client's
    // transactions in block order: the pairs are distinct, so the unstable
    // (allocation-free) sort has exactly one outcome.
    scratch.sort_unstable();
    for run in scratch.chunk_by(|a, b| a.0 == b.0) {
        let confirmed = run
            .iter()
            .map(|&(_, i)| (txs[i as usize].id, txs[i as usize].submitted_at_nanos))
            .collect();
        let dst = roster.clients[run[0].0 as usize];
        ctx.send(dst, ConsMsg::Reply { txs: confirmed });
    }
}

/// What a shell keeps of a plane's [`DataPlane::commit`] result to serve
/// catch-up later: nothing when the plane executed the payload's own batch
/// whole (borrowed), since [`catch_up_txs`] reads that off the payload.
pub(crate) fn kept_for_catch_up(txs: Cow<'_, [Transaction]>) -> Option<Vec<Transaction>> {
    match txs {
        Cow::Owned(txs) => Some(txs),
        Cow::Borrowed(_) => None,
    }
}

/// What a catch-up response ships as an executed proposal's transactions:
/// the inverse of [`kept_for_catch_up`].
pub(crate) fn catch_up_txs(
    kept: &Option<Vec<Transaction>>,
    payload: &ProposalPayload,
) -> Vec<Transaction> {
    match (kept, payload) {
        (Some(kept), _) => kept.clone(),
        (None, ProposalPayload::Batch(txs)) => txs.clone(),
        (None, _) => Vec::new(),
    }
}

impl<P: DataPlane> ProtocolCore<ConsMsg> for PbftNode<P> {
    fn start<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>) {
        self.plane.init(ctx);
        ctx.set_timer(self.cfg.view_timeout, TimerTag::of_kind(timers::PBFT_VIEW));
        ctx.set_timer(
            self.cfg.propose_interval,
            TimerTag::of_kind(timers::PBFT_PROPOSE),
        );
    }

    fn message<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        msg: ConsMsg,
    ) {
        let outcome = self.plane.handle(ctx, from, &msg);
        if outcome.progressed {
            self.on_plane_progress(ctx);
        }
        if outcome.consumed {
            return;
        }
        let Some(sender) = self.roster.index_of(from) else {
            return;
        };
        match msg {
            ConsMsg::PrePrepare { view, seq, payload } => {
                self.on_preprepare(ctx, from, view, seq, payload)
            }
            ConsMsg::Prepare { view, seq, digest } => {
                self.note_peer_seq(ctx, from, seq);
                self.on_vote(ctx, sender, Phase::Prepare, view, seq, digest)
            }
            ConsMsg::Commit { view, seq, digest } => {
                self.note_peer_seq(ctx, from, seq);
                self.on_vote(ctx, sender, Phase::Commit, view, seq, digest)
            }
            ConsMsg::CatchUpRequest { from: start } => {
                let mut slots = Vec::new();
                let mut seq = start;
                while slots.len() < 8 {
                    match self.slots.get(seq) {
                        Some(s) if s.executed => {
                            let payload = s.payload.as_ref().expect("executed slots have payloads");
                            // Deep clone: catch-up responses ship owned
                            // content (rare, crash-recovery only).
                            slots.push((
                                seq,
                                (**payload).clone(),
                                catch_up_txs(&s.kept_txs, payload),
                            ));
                            seq = seq.next();
                        }
                        _ => break,
                    }
                }
                if !slots.is_empty() {
                    ctx.send(from, ConsMsg::CatchUpResponse { slots });
                }
            }
            ConsMsg::CatchUpResponse { slots } => {
                self.syncing = false;
                for (seq, payload, txs) in slots {
                    if seq != self.last_exec.next()
                        || self.slots.get(seq).is_some_and(|s| s.executed)
                    {
                        continue;
                    }
                    // State transfer: the quorum already executed this slot
                    // and replied to its clients; we apply it directly and
                    // let the plane fast-forward its internal anchors.
                    let digest = payload.digest();
                    let parent = self.parent_digest(seq);
                    let txs = self
                        .plane
                        .catch_up(ctx, parent, digest, digest, &payload, txs);
                    self.executed_blocks += 1;
                    self.executed_txs += txs.len() as u64;
                    let end = self.window_end();
                    let slot = self
                        .slots
                        .entry(seq, end)
                        .expect("the next slot to execute is inside the window")
                        .get_or_insert_with(|| Slot::new(digest, parent));
                    slot.digest = digest;
                    slot.parent = parent;
                    slot.payload = Some(payload.into());
                    slot.committed = true;
                    slot.executed = true;
                    slot.kept_txs = Some(txs);
                    self.last_exec = seq;
                    self.progressed = true;
                    ctx.metrics().incr("pbft.slots_caught_up", 1);
                }
                self.try_execute(ctx);
                // Still behind: fetch the next window.
                if self.highest_seen.0 > self.last_exec.0 + 2 * self.cfg.pipeline as u64 {
                    self.syncing = true;
                    ctx.send(
                        from,
                        ConsMsg::CatchUpRequest {
                            from: self.last_exec.next(),
                        },
                    );
                }
            }
            ConsMsg::ViewChange { new_view, .. } => {
                self.view_votes.entry(new_view).or_default().insert(sender);
                self.maybe_enter_view(ctx, new_view);
            }
            ConsMsg::NewView { view, resume_from }
                if view > self.view
                    && self.roster.index_of(from) == Some(self.roster.leader_of(view.0)) =>
            {
                self.enter_view(ctx, view);
                self.next_seq = resume_from.max(self.last_exec.next());
            }
            _ => {}
        }
    }

    fn timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) {
        if self.plane.on_timer(ctx, tag) {
            // Production may have refilled the pool; leaders try to propose.
            self.try_propose(ctx);
            return;
        }
        match tag.kind {
            timers::PBFT_PROPOSE => {
                self.try_propose(ctx);
                ctx.set_timer(
                    self.cfg.propose_interval,
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
                    self.slots.iter().any(|(_, s)| !s.executed) || self.plane.has_pending();
                if idle && outstanding {
                    self.start_view_change(ctx);
                    self.backoff = (self.backoff + 1).min(6);
                }
                // Exponential backoff keeps successive view changes from
                // racing the slower replicas during long outages.
                let timeout = self.cfg.view_timeout * (1u64 << self.backoff.min(6));
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
