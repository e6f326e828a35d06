//! The one description of a run: a [`World`] names which planes are
//! attached, and every world is built, driven and reported the same way.
//!
//! A setup provides the four items of [`Setup`]; the observability
//! switches, the run to the horizon and the common report tail live on
//! [`Sim`] ([`Sim::run_named`], [`Sim::report`]); injections and checks
//! attach in [`crate::experiments::ScenarioSetup::run_report`], which holds
//! the only per-world dispatch of a run.

use predis_consensus::VoteSet;
use predis_multizone::{NetMsg, PropagationResult, PropagationSetup, Topology};
use predis_sim::{Payload, RunReport, Sim, SimTime};
use serde::{Deserialize, Serialize};

use crate::experiments::megascale::MegaScaleSetup;
use crate::experiments::scenario::ScenarioSetup;
use crate::experiments::throughput::ThroughputSetup;
use crate::experiments::topology::TopologySetup;

/// What an experiment setup contributes to a run. Everything else exists
/// once.
pub trait Setup {
    /// The wire type of the simulation the setup wires.
    type Msg: Payload;
    /// The setup's typed headline result.
    type Result;

    /// Wires the world: a pure function of the setup that never runs it.
    fn build(&self) -> Sim<Self::Msg>;

    /// How far a run of this world goes.
    fn horizon(&self) -> SimTime;

    /// Reads the typed result off a finished simulation.
    fn result(&self, sim: &Sim<Self::Msg>) -> Self::Result;

    /// Adds the setup's own meta and headline metrics to `report`. Values
    /// the run could not measure (latency when nothing committed) are
    /// omitted rather than stored as `NaN`; consumers that need a key read
    /// it through [`RunReport::require_metric`].
    fn headline(&self, result: &Self::Result, report: &mut RunReport);

    /// Builds the world, runs it to its horizon under the observability
    /// switches for `name` (`""` skips them), and reads the result.
    fn run_with_sim_named(&self, name: &str) -> (Self::Result, Sim<Self::Msg>) {
        let mut sim = self.build();
        sim.run_named(name, self.horizon());
        (self.result(&sim), sim)
    }

    /// Snapshots a finished simulation into a [`RunReport`]: the common
    /// tail of [`Sim::report`] plus this setup's [`Setup::headline`].
    fn report(&self, result: &Self::Result, sim: &Sim<Self::Msg>, name: &str) -> RunReport {
        let mut report = sim.report(name);
        self.headline(result, &mut report);
        report
    }
}

impl Setup for (&PropagationSetup, &Topology) {
    type Msg = NetMsg;
    type Result = PropagationResult;

    fn build(&self) -> Sim<NetMsg> {
        self.0.build(self.1)
    }

    fn horizon(&self) -> SimTime {
        self.0.horizon()
    }

    fn result(&self, sim: &Sim<NetMsg>) -> PropagationResult {
        self.0.result(sim)
    }

    fn headline(&self, result: &PropagationResult, report: &mut RunReport) {
        self.0.headline(result, report);
    }
}

/// The three shapes the paper evaluates the framework in, plus the
/// mega-scale extension: which planes are attached, not how a run is driven.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum World {
    /// Consensus only (Figs. 4–6): node ids `0..n_c` are replicas, clients
    /// follow.
    Consensus(ThroughputSetup),
    /// Consensus feeding a dissemination layer (Fig. 7): replicas, then full
    /// nodes, then clients.
    Flow(TopologySetup),
    /// Dissemination only (Fig. 8): node ids `0..n_c` are block sources,
    /// full nodes follow (under Multi-Zone in zone round-robin order).
    Net(PropagationSetup, Topology),
    /// The mega-scale Fig. 9 world: replicas, zone-contiguous full nodes,
    /// one client swarm per zone.
    MegaScale(MegaScaleSetup),
}

impl World {
    /// Runs the world as it is — no injections, no checks — and snapshots a
    /// [`RunReport`] named `name`.
    pub fn run_report(&self, name: &str) -> RunReport {
        ScenarioSetup::plain(self.clone()).run_report(name)
    }

    /// Checks the setup's parameters; see each setup's `validate`.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            World::Consensus(s) => s.validate(),
            World::Flow(s) => s.validate(),
            World::Net(s, topology) => s.validate(topology),
            World::MegaScale(s) => s.validate(),
        }
    }

    /// How many nodes the built world holds (ids `0..node_count`).
    pub fn node_count(&self) -> usize {
        match self {
            World::Consensus(s) => s.node_count(),
            World::Flow(s) => s.node_count(),
            World::Net(s, _) => s.node_count(),
            World::MegaScale(s) => s.node_count(),
        }
    }
}

/// The consensus committee and bandwidth rules every setup shares. The
/// committee bound is the width of the shells' vote masks
/// ([`VoteSet::CAPACITY`]): a wider roster would not build.
pub(crate) fn validate_committee(n_c: usize, mbps: u64) -> Result<(), String> {
    if n_c < 1 {
        return Err("n_c must be at least 1".into());
    }
    if n_c > VoteSet::CAPACITY {
        return Err(format!(
            "n_c ({n_c}) must be at most {}: vote tallies are one word",
            VoteSet::CAPACITY
        ));
    }
    if mbps == 0 {
        return Err("mbps must be positive".into());
    }
    Ok(())
}

/// The measurement-window rule of the setups that run for `duration_secs`.
pub(crate) fn validate_window(warmup_secs: u64, duration_secs: u64) -> Result<(), String> {
    if warmup_secs >= duration_secs {
        return Err(format!(
            "warmup_secs ({warmup_secs}) must be smaller than duration_secs ({duration_secs})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DistMode;

    #[test]
    fn committees_stop_at_the_vote_mask_width() {
        let worlds = |n_c: usize| {
            [
                World::Consensus(ThroughputSetup {
                    n_c,
                    ..Default::default()
                }),
                World::Flow(TopologySetup {
                    n_c,
                    mode: DistMode::Star,
                    ..Default::default()
                }),
            ]
        };
        for world in worlds(VoteSet::CAPACITY) {
            assert_eq!(world.validate(), Ok(()));
        }
        for world in worlds(VoteSet::CAPACITY + 1) {
            let err = world.validate().expect_err("65 replicas");
            assert_eq!(
                err,
                "n_c (65) must be at most 64: vote tallies are one word"
            );
        }
    }
}
