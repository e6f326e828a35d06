//! Umbrella crate for the Predis + Multi-Zone data flow framework: re-exports
//! the `predis` facade and hosts the `predis-dataflow` CLI.
//!
//! Most users should depend on the [`predis`] crate directly; this package
//! exists to tie the workspace's examples, integration tests, and command
//! line together.

#![deny(unsafe_code)]

pub mod cli;

pub use predis::*;
