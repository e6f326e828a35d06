//! Experiment runners reproducing the paper's evaluation. A [`World`] names
//! which planes a run attaches; each setup below provides the four items of
//! [`Setup`] and is otherwise built, driven and reported by one path (see
//! [`world`]):
//!
//! * [`throughput`] — consensus only: throughput–latency sweeps (Fig. 4,
//!   Fig. 5) and fault injection (Fig. 6);
//! * [`topology`] — consensus feeding a dissemination layer (Fig. 7);
//! * dissemination only, block propagation latency (Fig. 8), lives in
//!   [`predis_multizone::PropagationSetup`], re-exported here;
//! * [`megascale`] — Multi-Zone dissemination at up to 10^5 full nodes
//!   with per-zone client swarms (Fig. 9);
//! * [`scenario`] — the config-driven fault & adversary DSL applied to any
//!   of the worlds above (the `fig_scenarios` suite).

pub mod megascale;
pub mod scenario;
pub mod throughput;
pub mod topology;
pub mod world;

pub use megascale::{MegaScaleResult, MegaScaleSetup};
pub use predis_multizone::{PropagationResult, PropagationSetup, Topology};
pub use scenario::{check_failures, Check, Injection, ScenarioSetup, ZoneWorld};
pub use throughput::{FaultSpec, NetEnv, Protocol, ThroughputSetup};
pub use topology::{DistMode, FlowConsensusNode, TopologyResult, TopologySetup};
pub use world::{Setup, World};
