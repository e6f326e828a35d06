//! What a consensus replica does alike under every shell: the data-plane
//! hand-off, execution with its client replies, and crash-recovery
//! catch-up.
//!
//! A shell ([`crate::PbftNode`], [`crate::HotStuffNode`]) keeps only its
//! ordering state and embeds one [`Replica`]. Every committed proposal runs
//! through `Replica::execute`, the one commit point, and every execution —
//! local, or received by state transfer — is appended to one log indexed by
//! execution number, which serves other replicas' catch-up requests.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Deref;

use predis_crypto::Hash;
use predis_sim::{Codec, NarrowContext, NodeId};
use predis_types::{ProposalPayload, SeqNum, Transaction};

use crate::config::{ConsensusConfig, Roster};
use crate::msg::ConsMsg;
use crate::plane::DataPlane;

/// Executions one catch-up response carries at most.
const CATCH_UP_BATCH: usize = 8;

/// One executed proposal in the log.
#[derive(Debug)]
struct Entry<B> {
    /// The handle the shell held the proposal by (shared, not copied).
    proposal: B,
    /// The executed transactions, unless they are the payload's own batch
    /// (what [`DataPlane::commit`] returns borrowed), served from the payload.
    kept: Option<Vec<Transaction>>,
}

/// The part of a consensus replica that is not ordering.
///
/// `B` is the handle the shell holds a proposal by, which the executed log
/// keeps. A shell dereferences to its replica, so [`Replica::plane`],
/// [`Replica::executed_txs`] and the rest read the same on every shell.
///
/// Executions are numbered on the wire from a per-shell `first` index: PBFT
/// slots count from 1, HotStuff executions from 0. A catch-up request names
/// the requester's next index.
#[derive(Debug)]
pub struct Replica<P, B> {
    pub(crate) me: usize,
    pub(crate) roster: Roster,
    pub(crate) cfg: ConsensusConfig,
    pub(crate) plane: P,
    /// Byzantine mute mode: track state but never propose or vote (Fig. 6).
    pub(crate) mute: bool,
    /// A catch-up request is in flight (cleared when a response arrives).
    syncing: bool,
    executed_txs: u64,
    executed_blocks: u64,
    /// Wire index of `log.front()`.
    log_base: u64,
    /// Every execution from `log_base` on. A local execution evicts the
    /// entries whose wire index is below `executed_blocks − retention`: PBFT
    /// keeps `retention + 1` slots, HotStuff `retention` blocks.
    log: VecDeque<Entry<B>>,
    /// The client-reply sort buffer.
    reply_scratch: Vec<(u32, u32)>,
}

impl<P, B> Replica<P, B> {
    /// The data plane (post-run inspection).
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// Mutable access to the data plane (composed actors drain produced
    /// bundles through this).
    pub fn plane_mut(&mut self) -> &mut P {
        &mut self.plane
    }

    /// Byzantine variant: never proposes or votes (Fig. 6 "refuse to vote").
    pub fn mute(&mut self) {
        self.mute = true;
    }

    /// Total transactions this replica has executed.
    pub fn executed_txs(&self) -> u64 {
        self.executed_txs
    }

    /// Total proposals this replica has executed.
    pub fn executed_blocks(&self) -> u64 {
        self.executed_blocks
    }
}

impl<P: DataPlane, B: Deref<Target = ProposalPayload>> Replica<P, B> {
    /// A replica for committee member `me` whose first execution is wire
    /// index `first`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of committee range.
    pub(crate) fn new(
        me: usize,
        roster: Roster,
        cfg: ConsensusConfig,
        plane: P,
        first: u64,
    ) -> Self {
        assert!(me < roster.n(), "committee index out of range");
        Replica {
            me,
            roster,
            cfg,
            plane,
            mute: false,
            syncing: false,
            executed_txs: 0,
            executed_blocks: 0,
            log_base: first,
            log: VecDeque::new(),
            reply_scratch: Vec::new(),
        }
    }

    /// Every other committee member.
    pub(crate) fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roster.peers_of(self.me)
    }

    /// Wire index of the next execution.
    fn next_index(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }

    /// Offers a delivered message to the plane, and serves a committee
    /// member's catch-up request. Returns whether the plane progressed (the
    /// shell re-tries what waited on data) and, if the message is the
    /// shell's, its sender's committee index.
    pub(crate) fn offer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        msg: &ConsMsg,
    ) -> (bool, Option<usize>) {
        let outcome = self.plane.handle(ctx, from, msg);
        let sender = match msg {
            _ if outcome.consumed => None,
            ConsMsg::CatchUpRequest { from: start } if self.roster.index_of(from).is_some() => {
                self.serve_catch_up(ctx, from, *start);
                None
            }
            _ => self.roster.index_of(from),
        };
        (outcome.progressed, sender)
    }

    /// Executes a committed proposal: the plane's commit, the counters, the
    /// client replies, then the log, whose evictions go to `evicted`. False
    /// if the plane still misses data (the shell retries on progress).
    pub(crate) fn execute<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        parent: Hash,
        id: Hash,
        digest: Hash,
        proposal: B,
        mut evicted: impl FnMut(B),
    ) -> bool {
        let Some(txs) = self.plane.commit(ctx, parent, id, digest, &proposal) else {
            return false;
        };
        self.executed_blocks += 1;
        self.executed_txs += txs.len() as u64;
        self.reply(ctx, &txs);
        let kept = matches!(txs, Cow::Owned(_)).then(|| txs.into_owned());
        self.log.push_back(Entry { proposal, kept });
        let keep_from = self
            .executed_blocks
            .saturating_sub(self.cfg.retention as u64);
        // Every execution is logged, so the stale prefix never outruns the log.
        let stale = keep_from.saturating_sub(self.log_base);
        self.log_base += stale;
        for old in self.log.drain(..stale as usize) {
            evicted(old.proposal);
        }
        true
    }

    /// Sends commit metrics and client replies for executed `txs`.
    fn reply<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        txs: &[Transaction],
    ) {
        if self.me == self.cfg.metrics_replica {
            ctx.metrics().incr("txs_committed", txs.len() as u64);
            let now = ctx.now();
            ctx.metrics().record_commit(now, txs.len() as u64);
        }
        // Each replica replies to the clients whose entry replica it is; with
        // `reply_spread > 1` the next replicas also reply, so a faulty entry
        // cannot suppress confirmations (clients deduplicate).
        let n = self.roster.n();
        let spread = self.cfg.reply_spread.max(1);
        self.reply_scratch.clear();
        for (i, tx) in txs.iter().enumerate() {
            let offset = (self.me + n - self.roster.entry_replica(tx.client)) % n;
            if offset < spread && (tx.client.0 as usize) < self.roster.clients.len() {
                self.reply_scratch.push((tx.client.0, i as u32));
            }
        }
        // One reply per client, clients in id order and each client's
        // transactions in block order: the pairs are distinct, so the unstable
        // (allocation-free) sort has exactly one outcome.
        self.reply_scratch.sort_unstable();
        for run in self.reply_scratch.chunk_by(|a, b| a.0 == b.0) {
            let confirmed = run
                .iter()
                .map(|&(_, i)| (txs[i as usize].id, txs[i as usize].submitted_at_nanos))
                .collect();
            let dst = self.roster.clients[run[0].0 as usize];
            ctx.send(dst, ConsMsg::Reply { txs: confirmed });
        }
    }

    /// Asks `peer` for the executions after this replica's, unless a request
    /// is in flight or the replica is mute. True if one was sent.
    pub(crate) fn request_catch_up<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        peer: NodeId,
    ) -> bool {
        if self.syncing || self.mute {
            return false;
        }
        self.syncing = true;
        let from = SeqNum(self.next_index());
        ctx.send(peer, ConsMsg::CatchUpRequest { from });
        true
    }

    /// Answers a catch-up request with the logged executions from wire index
    /// `start` on, if the log still holds it.
    fn serve_catch_up<M: Codec<ConsMsg>>(
        &self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        to: NodeId,
        start: SeqNum,
    ) {
        let offset = start.0.checked_sub(self.log_base);
        let Some(offset) = offset.and_then(|o| usize::try_from(o).ok()) else {
            return;
        };
        // Deep clones: responses ship owned content (rare, crash-recovery
        // only).
        let slots: Vec<_> = (start.0..)
            .zip(self.log.iter().skip(offset))
            .take(CATCH_UP_BATCH)
            .map(|(index, entry)| {
                let txs = match (&entry.kept, &*entry.proposal) {
                    (Some(kept), _) => kept.clone(),
                    (None, ProposalPayload::Batch(txs)) => txs.clone(),
                    (None, _) => Vec::new(),
                };
                (SeqNum(index), (*entry.proposal).clone(), txs)
            })
            .collect();
        if !slots.is_empty() {
            ctx.send(to, ConsMsg::CatchUpResponse { slots });
        }
    }

    /// Applies a catch-up response: each entry at the next wire index goes
    /// through [`DataPlane::catch_up`] and into the log. The quorum already
    /// executed it and replied to its clients. `file` enters the execution
    /// into the shell's ordering state, and returns the parent the plane is
    /// told and the handle the log keeps. Returns how many entries applied.
    pub(crate) fn apply_catch_up<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        slots: Vec<(SeqNum, ProposalPayload, Vec<Transaction>)>,
        mut file: impl FnMut(SeqNum, Hash, ProposalPayload) -> (Hash, B),
    ) -> u64 {
        self.syncing = false;
        let mut applied = 0;
        for (index, payload, txs) in slots {
            if index.0 != self.next_index() {
                continue;
            }
            let digest = payload.digest();
            let (parent, proposal) = file(index, digest, payload);
            let txs = self
                .plane
                .catch_up(ctx, parent, digest, digest, &proposal, txs);
            self.executed_blocks += 1;
            self.executed_txs += txs.len() as u64;
            self.log.push_back(Entry {
                proposal,
                kept: Some(txs),
            });
            applied += 1;
        }
        applied
    }
}
