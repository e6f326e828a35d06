//! The consensus-layer message vocabulary.
//!
//! One enum covers every evaluated protocol (PBFT, chained HotStuff, their
//! Predis variants, and the Narwhal-style / Stratus-style baselines) so that
//! all of them run over the same simulated wire with the same size
//! accounting.

use predis_crypto::{Hash, Sha256};
use predis_sim::Payload;
use predis_types::{
    ChainId, ConflictProof, Height, ProposalPayload, SeqNum, SizedBundle, SizedPayload,
    Transaction, TxId, View, WireSize, FRAME_OVERHEAD, HASH_WIRE, SIG_WIRE, U32_WIRE, U64_WIRE,
};
use serde::{Deserialize, Serialize};

/// A quorum certificate over a block (HotStuff). Signature aggregation is
/// assumed, so the wire cost is one signature plus metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Qc {
    /// The certified block.
    pub block: Hash,
    /// The round the block was proposed in.
    pub round: View,
}

impl Qc {
    /// The genesis QC, certifying the zero block at round 0.
    pub const GENESIS: Qc = Qc {
        block: Hash::ZERO,
        round: View(0),
    };
}

impl WireSize for Qc {
    fn wire_size(&self) -> usize {
        HASH_WIRE + U64_WIRE + SIG_WIRE
    }
}

/// A chained-HotStuff block proposal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HsBlockMsg {
    /// The block's identity (hash over parent/round/payload digest).
    pub hash: Hash,
    /// Parent block hash (must equal `justify.block`).
    pub parent: Hash,
    /// Proposal round.
    pub round: View,
    /// The carried payload.
    pub payload: ProposalPayload,
    /// QC justifying the parent.
    pub justify: Qc,
}

impl HsBlockMsg {
    /// Computes the canonical hash of a block's contents, given its
    /// payload's digest (`payload.digest()`; the caller keeps it for the
    /// data plane).
    pub fn compute_hash(parent: Hash, round: View, payload_digest: Hash) -> Hash {
        Hash::digest_parts(&[
            b"hs-block",
            parent.as_bytes(),
            &round.0.to_be_bytes(),
            payload_digest.as_bytes(),
        ])
    }
}

impl WireSize for HsBlockMsg {
    fn wire_size(&self) -> usize {
        // hash + parent + round + payload + justify + leader signature.
        HASH_WIRE * 2 + U64_WIRE + self.payload.wire_size() + self.justify.wire_size() + SIG_WIRE
    }
}

/// A Narwhal/Stratus-style microblock: a producer-sequenced batch of
/// transactions multicast ahead of consensus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroBlock {
    /// The producing node's chain id.
    pub producer: ChainId,
    /// Producer-local sequence number.
    pub seq: u64,
    /// The batched transactions.
    pub txs: Vec<Transaction>,
}

impl MicroBlock {
    /// The microblock's digest, streamed field by field.
    pub fn digest(&self) -> Hash {
        let mut h = Sha256::new();
        h.update(b"micro");
        h.update(&self.producer.0.to_be_bytes());
        h.update(&self.seq.to_be_bytes());
        for tx in &self.txs {
            h.update(tx.hash().as_bytes());
        }
        Hash(h.finalize())
    }
}

impl WireSize for MicroBlock {
    fn wire_size(&self) -> usize {
        U32_WIRE
            + U64_WIRE
            + self.txs.iter().map(WireSize::wire_size).sum::<usize>()
            + SIG_WIRE
            + FRAME_OVERHEAD
    }
}

/// Every message exchanged by consensus-layer actors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsMsg {
    // ---- client traffic ----
    /// A client submits a transaction to a consensus node.
    Submit(Transaction),
    /// A consensus node confirms committed transactions to a client; each
    /// entry carries the id and original submit time (for latency
    /// measurement at the client).
    Reply {
        /// `(tx id, submitted_at_nanos)` per confirmed transaction.
        txs: Vec<(TxId, u64)>,
    },

    // ---- Predis data plane ----
    /// A pre-distributed bundle. Shared: every recipient (and the sender's
    /// own mempool) holds the same allocation, sized once at construction.
    Bundle(SizedBundle),
    /// Request for a missing bundle (§III-D liveness path).
    BundleRequest {
        /// The chain to fetch from.
        chain: ChainId,
        /// The wanted height.
        height: Height,
    },
    /// Gossiped equivocation evidence (§III-E).
    ConflictGossip(SizedPayload<ConflictProof>),

    // ---- Narwhal/Stratus data plane ----
    /// A microblock broadcast. Shared like [`ConsMsg::Bundle`].
    Micro(SizedPayload<MicroBlock>),
    /// An availability acknowledgement (one signature) for a microblock.
    MicroAck {
        /// Digest of the acknowledged microblock.
        digest: Hash,
        /// Its producer.
        producer: ChainId,
    },
    /// Request to refetch a microblock body by digest.
    MicroRequest {
        /// Digest of the wanted microblock.
        digest: Hash,
    },
    /// The producer announces a formed certificate so everyone may treat
    /// the microblock as available.
    MicroCert {
        /// Digest of the certified microblock.
        digest: Hash,
        /// Its producer.
        producer: ChainId,
        /// Transactions in the certified microblock (metadata).
        txs: u32,
    },

    // ---- PBFT ----
    /// Leader's pre-prepare carrying the proposal.
    PrePrepare {
        /// Current view.
        view: View,
        /// Slot number.
        seq: SeqNum,
        /// The proposal, shared between the leader's slot table and every
        /// replica's delivery.
        payload: SizedPayload<ProposalPayload>,
    },
    /// Prepare vote.
    Prepare {
        /// Current view.
        view: View,
        /// Slot number.
        seq: SeqNum,
        /// Digest of the proposal being prepared.
        digest: Hash,
    },
    /// Commit vote.
    Commit {
        /// Current view.
        view: View,
        /// Slot number.
        seq: SeqNum,
        /// Digest of the proposal being committed.
        digest: Hash,
    },
    /// View-change request.
    ViewChange {
        /// The view being moved to.
        new_view: View,
        /// The sender's last executed slot.
        last_exec: SeqNum,
    },
    /// New-view announcement by the incoming leader.
    NewView {
        /// The established view.
        view: View,
        /// The slot to resume proposing from.
        resume_from: SeqNum,
    },

    /// A lagging replica asks a peer for executed proposals from `from`
    /// (crash-recovery catch-up). Responses are served from the peer's
    /// retained window; in this simulation peers are trusted to respond
    /// honestly (full PBFT would carry checkpoint certificates).
    CatchUpRequest {
        /// First slot the requester is missing.
        from: SeqNum,
    },
    /// A batch of executed proposals answering a catch-up request, with
    /// the executed transactions (Predis bundles are pruned once committed,
    /// so state transfer must ship the content, not just the metadata).
    CatchUpResponse {
        /// `(slot, payload, executed transactions)`, consecutive from the
        /// requested slot.
        slots: Vec<(SeqNum, ProposalPayload, Vec<Transaction>)>,
    },

    // ---- chained HotStuff ----
    /// Leader's block proposal, shared across recipients and block stores.
    HsProposal(SizedPayload<HsBlockMsg>),
    /// A replica's vote, sent to the next leader.
    HsVote {
        /// Voted block.
        block: Hash,
        /// Voted round.
        round: View,
    },
    /// Pacemaker timeout message carrying the sender's highest QC.
    HsNewView {
        /// The round being entered.
        round: View,
        /// The sender's highest QC.
        qc: Qc,
    },
}

impl Payload for ConsMsg {
    fn wire_size(&self) -> usize {
        match self {
            ConsMsg::Submit(tx) => tx.wire_size() + FRAME_OVERHEAD,
            ConsMsg::Reply { txs } => txs.len() * (U64_WIRE + U64_WIRE) + SIG_WIRE + FRAME_OVERHEAD,
            ConsMsg::Bundle(b) => b.wire_size() + FRAME_OVERHEAD,
            ConsMsg::BundleRequest { .. } => U32_WIRE + U64_WIRE + FRAME_OVERHEAD,
            ConsMsg::ConflictGossip(p) => p.wire_size() + FRAME_OVERHEAD,
            ConsMsg::Micro(m) => m.wire_size() + FRAME_OVERHEAD,
            ConsMsg::MicroAck { .. } => HASH_WIRE + U32_WIRE + SIG_WIRE + FRAME_OVERHEAD,
            ConsMsg::MicroRequest { .. } => HASH_WIRE + FRAME_OVERHEAD,
            ConsMsg::MicroCert { .. } => HASH_WIRE + U32_WIRE * 2 + SIG_WIRE + FRAME_OVERHEAD,
            ConsMsg::PrePrepare { payload, .. } => {
                U64_WIRE * 2 + payload.wire_size() + SIG_WIRE + FRAME_OVERHEAD
            }
            ConsMsg::Prepare { .. } | ConsMsg::Commit { .. } => {
                U64_WIRE * 2 + HASH_WIRE + SIG_WIRE + FRAME_OVERHEAD
            }
            ConsMsg::ViewChange { .. } => U64_WIRE * 2 + SIG_WIRE + FRAME_OVERHEAD,
            ConsMsg::CatchUpRequest { .. } => U64_WIRE + SIG_WIRE + FRAME_OVERHEAD,
            ConsMsg::CatchUpResponse { slots } => {
                slots
                    .iter()
                    .map(|(_, p, txs)| {
                        U64_WIRE
                            + p.wire_size()
                            + txs.iter().map(WireSize::wire_size).sum::<usize>()
                    })
                    .sum::<usize>()
                    + SIG_WIRE
                    + FRAME_OVERHEAD
            }
            ConsMsg::NewView { .. } => U64_WIRE * 2 + SIG_WIRE + FRAME_OVERHEAD,
            ConsMsg::HsProposal(b) => b.wire_size() + FRAME_OVERHEAD,
            ConsMsg::HsVote { .. } => HASH_WIRE + U64_WIRE + SIG_WIRE + FRAME_OVERHEAD,
            ConsMsg::HsNewView { qc, .. } => U64_WIRE + qc.wire_size() + SIG_WIRE + FRAME_OVERHEAD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predis_types::ClientId;

    #[test]
    fn vote_messages_are_small() {
        let prep = ConsMsg::Prepare {
            view: View(1),
            seq: SeqNum(2),
            digest: Hash::ZERO,
        };
        assert!(prep.wire_size() < 200);
        let vote = ConsMsg::HsVote {
            block: Hash::ZERO,
            round: View(1),
        };
        assert!(vote.wire_size() < 200);
    }

    #[test]
    fn batch_preprepare_dominated_by_txs() {
        let txs: Vec<Transaction> = (0..800)
            .map(|i| Transaction::new(TxId(i), ClientId(0), 0))
            .collect();
        let msg = ConsMsg::PrePrepare {
            view: View(0),
            seq: SeqNum(1),
            payload: ProposalPayload::Batch(txs).into(),
        };
        assert!(msg.wire_size() > 800 * 512);
        assert!(msg.wire_size() < 800 * 512 + 1000);
    }

    #[test]
    fn microblock_digest_changes_with_content() {
        let mk = |seq: u64, tx: u64| MicroBlock {
            producer: ChainId(1),
            seq,
            txs: vec![Transaction::new(TxId(tx), ClientId(0), 0)],
        };
        assert_ne!(mk(0, 1).digest(), mk(0, 2).digest());
        assert_ne!(mk(0, 1).digest(), mk(1, 1).digest());
        assert_eq!(mk(0, 1).digest(), mk(0, 1).digest());
    }

    #[test]
    fn hs_block_hash_is_content_addressed() {
        let p = ProposalPayload::Batch(vec![]);
        let a = HsBlockMsg::compute_hash(Hash::ZERO, View(1), p.digest());
        let b = HsBlockMsg::compute_hash(Hash::ZERO, View(2), p.digest());
        assert_ne!(a, b);
    }

    /// Golden wire sizes: one fixture per [`ConsMsg`] variant, asserting
    /// the exact byte count. Any change to the size model must update these
    /// numbers consciously — they are what the bandwidth accounting charges.
    #[test]
    fn golden_wire_size_per_variant() {
        use predis_crypto::{Keypair, SignerId};
        use predis_types::{Bundle, ConflictProof, Height, TipList};

        let tx = Transaction::new(TxId(1), ClientId(0), 0); // 512 B payload
        let key = Keypair::for_node(SignerId(0));
        let mk_bundle = |salt: u64| {
            Bundle::build(
                ChainId(0),
                Height(1),
                Hash::ZERO,
                TipList::new(4), // header = 188 + 8*4 = 220
                vec![Transaction::new(TxId(salt), ClientId(0), 0)],
                Hash::ZERO,
                &key,
            )
        };
        let proof = ConflictProof {
            a: mk_bundle(1).header,
            b: mk_bundle(2).header,
        };
        let micro = MicroBlock {
            producer: ChainId(0),
            seq: 1,
            txs: vec![tx],
        };
        let hs_block = HsBlockMsg {
            hash: Hash::ZERO,
            parent: Hash::ZERO,
            round: View(1),
            payload: ProposalPayload::Batch(vec![]),
            justify: Qc::GENESIS,
        };

        let cases: Vec<(ConsMsg, usize)> = vec![
            (ConsMsg::Submit(tx), 528),
            (
                ConsMsg::Reply {
                    txs: vec![(TxId(1), 0)],
                },
                96,
            ),
            (ConsMsg::Bundle(mk_bundle(1).into()), 748),
            (
                ConsMsg::BundleRequest {
                    chain: ChainId(0),
                    height: Height(1),
                },
                28,
            ),
            (ConsMsg::ConflictGossip(proof.into()), 456),
            (ConsMsg::Micro(micro.into()), 620),
            (
                ConsMsg::MicroAck {
                    digest: Hash::ZERO,
                    producer: ChainId(0),
                },
                116,
            ),
            (ConsMsg::MicroRequest { digest: Hash::ZERO }, 48),
            (
                ConsMsg::MicroCert {
                    digest: Hash::ZERO,
                    producer: ChainId(0),
                    txs: 50,
                },
                120,
            ),
            (
                ConsMsg::PrePrepare {
                    view: View(0),
                    seq: SeqNum(1),
                    payload: ProposalPayload::Batch(vec![tx]).into(),
                },
                624,
            ),
            (
                ConsMsg::Prepare {
                    view: View(0),
                    seq: SeqNum(1),
                    digest: Hash::ZERO,
                },
                128,
            ),
            (
                ConsMsg::Commit {
                    view: View(0),
                    seq: SeqNum(1),
                    digest: Hash::ZERO,
                },
                128,
            ),
            (
                ConsMsg::ViewChange {
                    new_view: View(1),
                    last_exec: SeqNum(0),
                },
                96,
            ),
            (
                ConsMsg::NewView {
                    view: View(1),
                    resume_from: SeqNum(1),
                },
                96,
            ),
            (ConsMsg::CatchUpRequest { from: SeqNum(1) }, 88),
            (
                ConsMsg::CatchUpResponse {
                    slots: vec![(SeqNum(1), ProposalPayload::Batch(vec![tx]), vec![tx])],
                },
                1128,
            ),
            (ConsMsg::HsProposal(hs_block.into()), 272),
            (
                ConsMsg::HsVote {
                    block: Hash::ZERO,
                    round: View(1),
                },
                120,
            ),
            (
                ConsMsg::HsNewView {
                    round: View(1),
                    qc: Qc::GENESIS,
                },
                192,
            ),
        ];
        for (msg, expect) in cases {
            assert_eq!(msg.wire_size(), expect, "wire size drifted for {msg:?}");
        }
    }

    #[test]
    fn reply_size_scales_with_tx_count() {
        let one = ConsMsg::Reply {
            txs: vec![(TxId(1), 0)],
        };
        let many = ConsMsg::Reply {
            txs: (0..100).map(|i| (TxId(i), 0)).collect(),
        };
        assert!(many.wire_size() > one.wire_size());
        assert_eq!(many.wire_size() - one.wire_size(), 99 * 16);
    }
}
