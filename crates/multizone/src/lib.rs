//! # predis-multizone
//!
//! The network layer of the data flow framework: **Multi-Zone** (§IV of the
//! paper) plus the star and random(FEG) baseline topologies it is evaluated
//! against.
//!
//! Multi-Zone splits the full-node network into zones; each zone converges
//! to `n_c` relayers (Algorithms 1–2), consensus node *i* serves only
//! stripe *i* of each Reed-Solomon-coded bundle to its per-zone relayer,
//! and relayers/ordinary nodes forward stripes down capped subscription
//! trees. Any `n_c − f` stripes reconstruct a bundle; a constant-size
//! Predis-block announcement lets every node rebuild full blocks locally —
//! so consensus-layer upload stays O(n_c) no matter how many full nodes
//! join, and large-block propagation latency collapses (Fig. 7, Fig. 8).
//!
//! Use [`PropagationSetup`] to wire a full experiment:
//!
//! ```no_run
//! use predis_multizone::{PropagationSetup, Topology};
//!
//! let setup = PropagationSetup { block_bytes: 10_000_000, ..Default::default() };
//! let mz = setup.run(&Topology::MultiZone { zones: 12 });
//! let star = setup.run(&Topology::Star);
//! println!("multi-zone 100%: {:.0} ms vs star {:.0} ms", mz.to_100_ms, star.to_100_ms);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dense;
pub mod experiment;
pub mod msg;
pub mod random;
pub mod source;
pub mod star;
pub mod zone;

pub use experiment::{
    round_robin, validate_node_count, validate_stripes, PropagationResult, PropagationSetup,
    Topology,
};
pub use msg::{net_timers, BundleId, NetMsg, RelayerInfo};
pub use random::{FegConfig, FegNode, RandomSource};
pub use source::{SubCap, SyntheticLoad, ZoneSource};
pub use star::{BlockSink, StarSource};
pub use zone::{MultiZoneNode, StripeFault, ZoneConfig};
