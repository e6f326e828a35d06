//! # predis-consensus
//!
//! The consensus layer of the Predis data flow framework: PBFT and chained
//! HotStuff shells over pluggable *data planes*, reproducing every protocol
//! the paper evaluates —
//!
//! | Paper name | Construction here |
//! |---|---|
//! | PBFT | [`PbftNode`] + [`planes::BatchPlane`] |
//! | HotStuff | [`HotStuffNode`] + [`planes::BatchPlane`] |
//! | **P-PBFT** | [`PbftNode`] + [`planes::PredisPlane`] |
//! | **P-HS** | [`HotStuffNode`] + [`planes::PredisPlane`] |
//! | Narwhal | [`HotStuffNode`] + [`planes::MicroPlane`] (RBC acks) |
//! | Stratus | [`HotStuffNode`] + [`planes::MicroPlane`] (PAB acks) |
//!
//! plus open-loop [`ClientCore`]s and the Byzantine behaviours of Fig. 6.
//!
//! A shell keeps only its ordering state — PBFT its view, slot window,
//! votes, view change and lag detector; HotStuff its round, QCs, block tree,
//! 3-chain rule and pacemaker — and embeds one [`Replica`], which owns the
//! rest: the plane, execution and client replies, and crash-recovery
//! catch-up from one log of executed proposals.
//!
//! Actors are [`predis_sim::ProtocolCore`]s over [`ConsMsg`]; wrap them in
//! [`predis_sim::ActorOf`] to install into a simulation (see the
//! integration tests and the `predis` facade crate for full wiring).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod byzantine;
pub mod client;
pub mod config;
pub mod hotstuff;
pub mod msg;
pub mod pbft;
pub mod plane;
pub mod planes;
pub mod replica;

pub use byzantine::{EquivocatingProducer, SilentNode};
pub use client::{ClientCore, ClientSwarm, FlashCrowd, OpenLoop, CLIENT_LATENCY};
pub use config::{timers, ConsensusConfig, Roster, VoteSet};
pub use hotstuff::HotStuffNode;
pub use msg::{ConsMsg, HsBlockMsg, MicroBlock, Qc};
pub use pbft::PbftNode;
pub use plane::{DataPlane, PlaneOutcome, ProposalCheck};
pub use replica::Replica;
