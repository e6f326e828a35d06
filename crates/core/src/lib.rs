//! # predis
//!
//! The core facade of the **Predis + Multi-Zone data flow framework**, a
//! from-scratch Rust reproduction of *"A Data Flow Framework with High
//! Throughput and Low Latency for Permissioned Blockchains"* (ICDCS 2023).
//!
//! The framework separates a permissioned blockchain into:
//!
//! * **data production** (consensus layer): [`predis_consensus`] provides
//!   PBFT and chained-HotStuff shells over pluggable data planes — vanilla
//!   batches, the paper's Predis bundle mempool, or Narwhal/Stratus-style
//!   certified microblocks;
//! * **data distribution** (network layer): [`predis_multizone`] provides
//!   the Multi-Zone relayer/stripe topology plus star and random(FEG)
//!   baselines.
//!
//! Everything runs on [`predis_sim`], a deterministic discrete-event
//! simulator with bandwidth-accurate upload links.
//!
//! # Quickstart
//!
//! ```
//! use predis::experiments::{NetEnv, Protocol, ThroughputSetup};
//!
//! let summary = ThroughputSetup {
//!     protocol: Protocol::PHs,
//!     n_c: 4,
//!     offered_tps: 2_000.0,
//!     env: NetEnv::Lan,
//!     duration_secs: 5,
//!     warmup_secs: 2,
//!     ..Default::default()
//! }
//! .run();
//! assert!(summary.throughput_tps > 1_000.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod model;
pub mod msg;

pub use experiments::{
    Check, DistMode, FaultSpec, Injection, NetEnv, PropagationResult, PropagationSetup, Protocol,
    ScenarioSetup, ThroughputSetup, Topology, TopologyResult, TopologySetup, World, ZoneWorld,
};
pub use msg::FlowMsg;

// Re-export the building blocks for users assembling custom deployments.
pub use predis_consensus as consensus;
pub use predis_crypto as crypto;
pub use predis_erasure as erasure;
pub use predis_mempool as mempool;
pub use predis_multizone as multizone;
pub use predis_parallel as parallel;
pub use predis_sim as sim;
pub use predis_sim::RunSummary;
pub use predis_types as types;
