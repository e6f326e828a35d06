//! # predis-sim
//!
//! A deterministic discrete-event network simulator with bandwidth-accurate
//! links, built as the experimental substrate for the Predis + Multi-Zone
//! data flow framework (ICDCS 2023).
//!
//! The model captures the two quantities the paper's arguments rest on:
//!
//! * **upload-link serialization** — a node's sends queue on its own upload
//!   link (`size / bandwidth` each), so a multicast of a 4 MB block to 100
//!   full nodes costs 400 MB of upload time, while a constant-size Predis
//!   block costs almost nothing;
//! * **propagation latency** — either a uniform latency (the paper's LAN
//!   emulation via `tc`) or a regional matrix (the paper's 4-region Alibaba
//!   WAN).
//!
//! # Examples
//!
//! ```
//! use predis_sim::prelude::*;
//!
//! #[derive(Debug, Clone)]
//! struct Hello;
//! impl Payload for Hello {
//!     fn wire_size(&self) -> usize { 16 }
//! }
//!
//! #[derive(Debug, Default)]
//! struct Greeter { seen: u32 }
//! impl Actor<Hello> for Greeter {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         let me = ctx.node();
//!         let peers: Vec<NodeId> =
//!             (0..ctx.node_count()).map(NodeId).filter(|&n| n != me).collect();
//!         ctx.multicast(peers, Hello);
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: NodeId, _msg: Hello) {
//!         self.seen += 1;
//!     }
//! }
//!
//! let network = Network::new(LatencyModel::lan(), SimDuration::ZERO);
//! let mut sim = Sim::new(42, network);
//! for _ in 0..3 {
//!     sim.add_node(LinkConfig::paper_default(), Box::new(Greeter::default()), SimTime::ZERO);
//! }
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.actor_as::<Greeter>(NodeId(0)).unwrap().seen, 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod actor;
#[cfg(test)]
mod chaos;
pub(crate) mod dispatch;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod net;
pub(crate) mod parallel;
pub mod profile;
pub(crate) mod queue;
pub mod time;
pub mod trace;

pub use actor::{
    Actor, ActorOf, Codec, Context, NarrowContext, NodeId, Payload, ProtocolCore, TimerId, TimerTag,
};
pub use dispatch::MAX_NODES;
pub use engine::Sim;
pub use faults::FaultPlan;
pub use metrics::{
    BundleKey, CommitEvent, CounterHandle, Labels, Metrics, RunReport, RunSummary, Stage,
};
pub use net::{LatencyModel, LinkConfig, Network, Region, Scheduled};
/// The repo's one JSON codec, for crates that reach telemetry through this
/// one (a scenario-file shape must sit beside the type it encodes).
pub use predis_telemetry::json;
pub use profile::{DispatchProfile, PROFILE_EVENTS};
pub use time::{SimDuration, SimTime};
pub use trace::{CanonEvent, TraceCapture, TraceDigest, CANON_KINDS};

/// Convenient glob import for simulation authors.
pub mod prelude {
    pub use crate::actor::{
        Actor, ActorOf, Codec, Context, NarrowContext, NodeId, Payload, ProtocolCore, TimerId,
        TimerTag,
    };
    pub use crate::engine::Sim;
    pub use crate::faults::FaultPlan;
    pub use crate::metrics::{BundleKey, Labels, Metrics, Stage};
    pub use crate::net::{LatencyModel, LinkConfig, Network, Region};
    pub use crate::time::{SimDuration, SimTime};
}
