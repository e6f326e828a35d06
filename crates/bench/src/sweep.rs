//! Parallel deterministic experiment sweeps.
//!
//! Every figure of the paper is a grid of *independent* simulation runs:
//! each grid point owns its seed, its `Sim`, and its `Metrics` sink, and
//! shares no mutable state with any other point. A [`SweepPoint`] captures
//! one such run as plain data (a `ScenarioSetup` — the world, and for
//! scenario-plane points its injections and checks — plus display metadata);
//! [`sweep`] fans a slice of points across a [`Pool`] and returns one
//! [`SweepOutcome`] per point, in input order.
//!
//! Determinism: the simulation is a pure function of its setup (fixed seed,
//! per-node RNGs derived from it, events ordered by `(time, seq)`), and the
//! `Sim` is constructed *inside* the worker closure, so the produced
//! [`RunReport`]s are byte-identical regardless of pool width or scheduling
//! order. Only the measured wall-clock time varies between runs.

use std::time::Instant;

use predis::experiments::{
    MegaScaleSetup, PropagationSetup, ScenarioSetup, ThroughputSetup, Topology, TopologySetup,
    World,
};
use predis_parallel::Pool;
use predis_telemetry::RunReport;

/// One independent grid point of a figure.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Unique report name; becomes the `results/<name>.json` stem and the
    /// key in the merged benchmark artifact, so it must not collide across
    /// the whole suite.
    pub name: String,
    /// Which table of the figure the point belongs to (0-based).
    pub section: usize,
    /// Leading table cells (protocol, config, load, ...) for display.
    pub labels: Vec<String>,
    /// Whether the figure binary prints this point's full report.
    pub showcase: bool,
    /// The experiment to run: a world, plus — for a scenario-plane point,
    /// which is the kind with a scenario name — injections and checks.
    pub runner: ScenarioSetup,
}

impl SweepPoint {
    /// A scenario-plane grid point.
    pub fn scenario(name: impl Into<String>, setup: ScenarioSetup) -> SweepPoint {
        SweepPoint {
            name: name.into(),
            section: 0,
            labels: Vec::new(),
            showcase: false,
            runner: setup,
        }
    }

    /// A grid point that runs `world` as it is.
    pub fn world(name: impl Into<String>, world: World) -> SweepPoint {
        SweepPoint::scenario(name, ScenarioSetup::plain(world))
    }

    /// A throughput (Figs. 4–6, ablations) grid point.
    pub fn throughput(name: impl Into<String>, setup: ThroughputSetup) -> SweepPoint {
        SweepPoint::world(name, World::Consensus(setup))
    }

    /// A topology (Fig. 7) grid point.
    pub fn topology(name: impl Into<String>, setup: TopologySetup) -> SweepPoint {
        SweepPoint::world(name, World::Flow(setup))
    }

    /// A propagation (Fig. 8) grid point.
    pub fn propagation(
        name: impl Into<String>,
        setup: PropagationSetup,
        topology: Topology,
    ) -> SweepPoint {
        SweepPoint::world(name, World::Net(setup, topology))
    }

    /// A mega-scale (Fig. 9) grid point.
    pub fn megascale(name: impl Into<String>, setup: MegaScaleSetup) -> SweepPoint {
        SweepPoint::world(name, World::MegaScale(setup))
    }

    /// True for a scenario-plane point (its runner carries a scenario name),
    /// false for a plain figure point.
    pub fn is_scenario(&self) -> bool {
        !self.runner.name.is_empty()
    }

    /// Assigns the point to a table section.
    pub fn section(mut self, section: usize) -> SweepPoint {
        self.section = section;
        self
    }

    /// Sets the leading display cells.
    pub fn labels(mut self, labels: Vec<String>) -> SweepPoint {
        self.labels = labels;
        self
    }

    /// Marks the point as the figure's showcase report.
    pub fn showcase(mut self) -> SweepPoint {
        self.showcase = true;
        self
    }

    /// Runs the point to completion and snapshots its report.
    ///
    /// The simulation is constructed, run, and torn down entirely within
    /// this call, so concurrent `run`s share nothing.
    pub fn run(&self) -> RunReport {
        self.runner.run_report(&self.name)
    }
}

/// The result of one sweep point: its report plus how long it took.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The point's run report (deterministic for a fixed setup).
    pub report: RunReport,
    /// Wall-clock milliseconds the run took on this machine (the one field
    /// that is *not* deterministic).
    pub wall_ms: u64,
}

/// Runs every point across `pool`, returning outcomes in point order.
pub fn sweep(points: &[SweepPoint], pool: &Pool) -> Vec<SweepOutcome> {
    pool.map(points.iter().collect(), |point| {
        let start = Instant::now();
        let report = point.run();
        SweepOutcome {
            report,
            wall_ms: start.elapsed().as_millis() as u64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use predis::experiments::{NetEnv, Protocol};

    fn tiny_point(seed: u64) -> SweepPoint {
        SweepPoint::throughput(
            format!("sweep_unit_seed{seed}"),
            ThroughputSetup {
                protocol: Protocol::PPbft,
                n_c: 4,
                clients: 4,
                offered_tps: 1_000.0,
                env: NetEnv::Lan,
                duration_secs: 2,
                warmup_secs: 1,
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn sweep_outcomes_follow_point_order_and_are_deterministic() {
        let points: Vec<SweepPoint> = (0..4).map(tiny_point).collect();
        let wide = sweep(&points, &Pool::new(4));
        let narrow = sweep(&points, &Pool::new(1));
        assert_eq!(wide.len(), points.len());
        for (i, (w, n)) in wide.iter().zip(&narrow).enumerate() {
            assert_eq!(w.report.name, points[i].name);
            // Byte-identical reports regardless of pool width.
            assert_eq!(w.report.to_json(), n.report.to_json(), "point {i}");
            // The fingerprint is present and pool-width independent — the
            // event stream a worker replays does not depend on who runs it.
            let fp = w.report.meta.get("trace.fingerprint").expect("fingerprint");
            assert_eq!(fp.len(), 32);
            assert_eq!(fp, n.report.meta.get("trace.fingerprint").unwrap());
        }
    }
}
