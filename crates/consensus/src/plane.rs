//! The data plane abstraction: how proposals get their content.
//!
//! The paper's framing separates *data production* from *ordering*. We make
//! that separation literal: a consensus **shell** (PBFT or chained HotStuff)
//! orders opaque [`ProposalPayload`]s, and a [`DataPlane`] decides what a
//! payload contains and how it is pre-distributed:
//!
//! * [`crate::planes::BatchPlane`] — vanilla: transactions travel in the
//!   proposal itself;
//! * [`crate::planes::PredisPlane`] — the paper's contribution: bundles are
//!   pre-distributed, proposals are constant-size Predis blocks;
//! * [`crate::planes::MicroPlane`] — Narwhal-style (RBC, `n_c − f` acks) or
//!   Stratus-style (PAB, `f + 1` acks) certified microblocks with
//!   digest-list proposals.

use std::borrow::Cow;

use predis_crypto::Hash;
use predis_sim::{Codec, NarrowContext, NodeId, TimerTag};
use predis_types::{ProposalPayload, Transaction, View};

use crate::msg::ConsMsg;

/// The verdict of a data plane on a received proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposalCheck {
    /// Vote for it.
    Accept,
    /// Never vote for it (malformed or references banned producers).
    Reject,
    /// Cannot decide yet — referenced data is missing and has been
    /// requested; the shell should retry when the plane reports progress.
    Defer,
}

/// What happened inside [`DataPlane::handle`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneOutcome {
    /// The message belonged to the data plane and was processed.
    pub consumed: bool,
    /// New data became available: the shell should re-try deferred
    /// validations and stalled executions.
    pub progressed: bool,
}

impl PlaneOutcome {
    /// A message the plane did not recognise.
    pub const IGNORED: PlaneOutcome = PlaneOutcome {
        consumed: false,
        progressed: false,
    };
    /// Consumed without unblocking anything.
    pub const CONSUMED: PlaneOutcome = PlaneOutcome {
        consumed: true,
        progressed: false,
    };
    /// Consumed and may have unblocked deferred work.
    pub const PROGRESSED: PlaneOutcome = PlaneOutcome {
        consumed: true,
        progressed: true,
    };
}

/// A proposal-content strategy plugged into a consensus shell.
///
/// `parent` arguments are the payload digest of the consensus-predecessor
/// proposal ([`Hash::ZERO`] at genesis) so planes that thread state through
/// the block chain (Predis cuts) can key off it.
/// (`Send` because consensus shells are simulation actors, which the
/// parallel engine moves between partition worker threads.)
pub trait DataPlane: std::fmt::Debug + Send + 'static {
    /// Called once at node start (arm production timers etc.).
    fn init<M: Codec<ConsMsg>>(&mut self, ctx: &mut NarrowContext<'_, '_, M, ConsMsg>);

    /// True if data is waiting to be ordered — the paper's leader-suspicion
    /// trigger ("a timer upon the arrival of a new bundle", §III-D): if
    /// this holds and no block arrives within the timeout, replicas start
    /// a view change.
    fn has_pending(&self) -> bool;

    /// Offers a received message to the plane.
    fn handle<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        from: NodeId,
        msg: &ConsMsg,
    ) -> PlaneOutcome;

    /// Offers a fired timer to the plane; `true` if it was the plane's.
    fn on_timer<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        tag: TimerTag,
    ) -> bool;

    /// Asks the plane (as leader) for the next proposal extending `parent`.
    /// `None` means nothing to propose right now.
    fn make_proposal<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        parent: Hash,
        view: View,
    ) -> Option<ProposalPayload>;

    /// Validates a proposal received from `proposer` extending `parent`.
    /// `id` is the consensus-level identity of the proposal (PBFT: the
    /// payload digest; HotStuff: the block hash), under which planes thread
    /// per-proposal state such as Predis cuts. `digest` is
    /// `payload.digest()`, here and in [`DataPlane::commit`] /
    /// [`DataPlane::catch_up`]: the shell derives it once per proposal to
    /// name the proposal at all (PBFT votes on it, HotStuff hashes it into
    /// the block id), so planes take it from the shell instead of digesting
    /// the payload again.
    fn validate<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        proposer: usize,
        parent: Hash,
        id: Hash,
        digest: Hash,
        payload: &ProposalPayload,
    ) -> ProposalCheck;

    /// Executes a committed proposal, returning its transactions — or
    /// `None` if data is still missing (the shell will retry after the
    /// plane reports progress).
    ///
    /// A plane whose proposals carry their transactions returns them
    /// borrowed, and only ever the payload's whole `Batch` list (or the
    /// empty slice): the shells keep no second copy of a borrowed result
    /// and serve catch-up from the payload itself.
    fn commit<'p, M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        parent: Hash,
        id: Hash,
        digest: Hash,
        payload: &'p ProposalPayload,
    ) -> Option<Cow<'p, [Transaction]>>;

    /// Applies a proposal received via crash-recovery state transfer: the
    /// transactions were already executed by the quorum and arrive with the
    /// payload. Planes fast-forward whatever internal state the payload
    /// anchors (Predis: the bundle chains jump to the block's cut).
    fn catch_up<M: Codec<ConsMsg>>(
        &mut self,
        ctx: &mut NarrowContext<'_, '_, M, ConsMsg>,
        parent: Hash,
        id: Hash,
        digest: Hash,
        payload: &ProposalPayload,
        txs: Vec<Transaction>,
    ) -> Vec<Transaction> {
        let _ = (ctx, parent, id, digest, payload);
        txs
    }
}
