//! Unified telemetry for the Predis/Multi-Zone stack.
//!
//! Every layer of the system — the deterministic simulator, the consensus
//! data planes, the mempool, and the Multi-Zone dissemination overlay —
//! records into the same small set of primitives, and every experiment
//! binary reads its results back out of one [`RunReport`]:
//!
//! * [`LogHistogram`] — bounded log-bucketed (HDR-style) histograms with a
//!   fixed ~15 KB footprint and ≤ 1/32 relative bucket error, replacing
//!   unbounded per-sample latency vectors.
//! * [`Counters`] with [`Labels`] — monotonic counters labeled by node /
//!   chain / zone, each key named process-wide by one [`CounterHandle`].
//! * [`Timelines`] — per-bundle lifecycle spans keyed by
//!   [`BundleKey`] `(producer, chain, height)`, stamping the eight
//!   [`Stage`]s `produced → multicast → tip_acked → cut → proposed →
//!   committed → stripe_encoded → zone_delivered` and deriving per-stage
//!   latency histograms from them.
//! * [`RunReport`] — a machine-readable snapshot of all of the above,
//!   serialized to JSON under `results/` by the repo's one codec ([`json`]:
//!   each record lists its fields once; no external deps), plus a
//!   human-readable summary table.
//!
//! The crate is deliberately free of dependencies — including the rest of
//! the workspace — so any layer can use it without cycles. Time is plain
//! `u64` nanoseconds; the simulator's `SimTime`/`SimDuration` convert at
//! the boundary.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod counters;
pub mod hist;
pub mod json;
pub mod report;
pub mod timeline;

pub use counters::{CounterHandle, Counters, Labels};
pub use hist::{HistogramSummary, LogHistogram};
pub use json::Json;
pub use report::{CounterEntry, HistogramEntry, ProfileEntry, RunReport, StageEntry};
pub use timeline::{BundleKey, Stage, Timeline, Timelines};
