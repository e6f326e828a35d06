//! Dispatch profiling: per-actor-kind × per-event-kind event counts and
//! wall-time attribution for the engine's dispatch loop.
//!
//! Profiling is optional ([`crate::engine::Sim::enable_profiling`] or
//! `PREDIS_PROFILE=1`); when off the dispatch loop reads no clock. When on,
//! the engine's one dispatch loop takes one `Instant` reading after each
//! event and charges the elapsed wall time since the previous reading to
//! the cell of the actor kind that just ran — so a cell absorbs the actor
//! callback *and* the queue/bookkeeping work around it, which is what makes
//! the attribution cover ≥95% of the loop instead of just callback bodies.
//!
//! The profile is a sink like the metrics, so it runs on either engine
//! path: a partition worker profiles its own partition into an empty
//! profile that session teardown absorbs. Cells add, and [`run_ns`]
//! becomes the workers' summed loop time rather than wall time.
//!
//! [`run_ns`]: DispatchProfile::run_ns
//!
//! Actor kinds are interned to dense indices at [`crate::engine::Sim::add_node`]
//! time (the PR 5 handle trick): the hot path indexes a `Vec` of cells by
//! `(kind_index, event_bucket)` and never touches a `HashMap` or a string.

use predis_telemetry::{ProfileEntry, RunReport};

use crate::queue::EventKind;

/// Event buckets a profiled dispatch is charged to.
pub const PROFILE_EVENTS: [&str; 4] = ["deliver", "timer", "start", "other"];

/// Bucket for message deliveries.
const BUCKET_DELIVER: usize = 0;
/// Bucket for timer firings.
const BUCKET_TIMER: usize = 1;
/// Bucket for `on_start` dispatches (including revives).
const BUCKET_START: usize = 2;
/// Bucket for everything else (crash processing, filtered events).
const BUCKET_OTHER: usize = 3;

/// The bucket an event of `kind` is charged to.
pub(crate) fn bucket_of<M>(kind: &EventKind<M>) -> usize {
    match kind {
        EventKind::Deliver { .. } => BUCKET_DELIVER,
        EventKind::Timer { .. } => BUCKET_TIMER,
        EventKind::Start | EventKind::Revive => BUCKET_START,
        EventKind::Crash => BUCKET_OTHER,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    count: u64,
    ns: u64,
}

/// Dense per-actor-kind × per-event-kind dispatch accounting.
#[derive(Debug, Default)]
pub struct DispatchProfile {
    /// `cells[kind_index]` = one [`Cell`] per entry of [`PROFILE_EVENTS`].
    cells: Vec<[Cell; 4]>,
    run_ns: u64,
}

impl DispatchProfile {
    /// Charges `ns` of wall time (and one event) to a cell, growing the
    /// dense table on first sight of a kind index.
    #[inline]
    pub(crate) fn record(&mut self, kind_index: usize, bucket: usize, ns: u64) {
        if kind_index >= self.cells.len() {
            self.cells.resize(kind_index + 1, [Cell::default(); 4]);
        }
        let cell = &mut self.cells[kind_index][bucket];
        cell.count += 1;
        cell.ns += ns;
    }

    /// Adds wall time spent in the dispatch loop itself.
    pub(crate) fn add_run_ns(&mut self, ns: u64) {
        self.run_ns += ns;
    }

    /// Adds a partition worker's profile to this one: cell by cell, and
    /// its loop time to this one's.
    pub(crate) fn absorb(&mut self, worker: DispatchProfile) {
        if self.cells.len() < worker.cells.len() {
            self.cells.resize(worker.cells.len(), [Cell::default(); 4]);
        }
        for (row, theirs) in self.cells.iter_mut().zip(worker.cells) {
            for (cell, their) in row.iter_mut().zip(theirs) {
                cell.count += their.count;
                cell.ns += their.ns;
            }
        }
        self.run_ns += worker.run_ns;
    }

    /// Total wall time of the profiled dispatch loop, in nanoseconds.
    pub fn run_ns(&self) -> u64 {
        self.run_ns
    }

    /// Total events charged across all cells.
    pub fn events(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.count)
            .sum()
    }

    /// Total wall time attributed across all cells, in nanoseconds.
    pub fn attributed_ns(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|row| row.iter())
            .map(|c| c.ns)
            .sum()
    }

    /// Renders the non-empty cells as report entries, in deterministic
    /// `(kind_index, event_bucket)` order. `kind_names[i]` names kind `i`.
    pub fn entries(&self, kind_names: &[String]) -> Vec<ProfileEntry> {
        let mut out = Vec::new();
        for (i, row) in self.cells.iter().enumerate() {
            let actor = kind_names.get(i).map(String::as_str).unwrap_or("<unknown>");
            for (b, cell) in row.iter().enumerate() {
                if cell.count > 0 {
                    out.push(ProfileEntry {
                        actor: actor.to_string(),
                        event: PROFILE_EVENTS[b].to_string(),
                        count: cell.count,
                        ns: cell.ns,
                    });
                }
            }
        }
        out
    }

    /// Stamps the profile block onto a report.
    pub fn stamp(&self, kind_names: &[String], report: &mut RunReport) {
        report.profile = self.entries(kind_names);
        report.profile_run_ns = self.run_ns;
    }
}

/// Strips module paths from a type name, keeping generic structure:
/// `predis_sim::actor::ActorOf<predis::consensus::PbftNode<...>, ...>` →
/// `ActorOf<PbftNode<...>, ...>`.
pub fn short_type_name(full: &str) -> String {
    let mut out = String::with_capacity(full.len());
    let mut ident = String::new();
    for c in full.chars() {
        if c.is_alphanumeric() || c == '_' || c == ':' {
            ident.push(c);
        } else {
            if !ident.is_empty() {
                out.push_str(ident.rsplit("::").next().unwrap_or(&ident));
                ident.clear();
            }
            out.push(c);
        }
    }
    if !ident.is_empty() {
        out.push_str(ident.rsplit("::").next().unwrap_or(&ident));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_type_name_strips_paths_and_keeps_generics() {
        assert_eq!(short_type_name("alpha::beta::Gamma"), "Gamma");
        assert_eq!(
            short_type_name("a::ActorOf<b::c::PbftNode<d::PredisPlane>, e::ConsMsg>"),
            "ActorOf<PbftNode<PredisPlane>, ConsMsg>"
        );
        assert_eq!(short_type_name("Plain"), "Plain");
        assert_eq!(short_type_name("x::y::Pair<u64, u64>"), "Pair<u64, u64>");
    }

    #[test]
    fn cells_accumulate_and_render_in_order() {
        let mut p = DispatchProfile::default();
        p.record(1, BUCKET_TIMER, 50);
        p.record(0, BUCKET_DELIVER, 100);
        p.record(0, BUCKET_DELIVER, 25);
        p.record(0, BUCKET_START, 10);
        p.add_run_ns(500);
        assert_eq!(p.events(), 4);
        assert_eq!(p.attributed_ns(), 185);
        assert_eq!(p.run_ns(), 500);
        let names = vec!["A".to_string(), "B".to_string()];
        let entries = p.entries(&names);
        assert_eq!(entries.len(), 3);
        assert_eq!(
            (entries[0].actor.as_str(), entries[0].event.as_str()),
            ("A", "deliver")
        );
        assert_eq!((entries[0].count, entries[0].ns), (2, 125));
        assert_eq!(
            (entries[1].actor.as_str(), entries[1].event.as_str()),
            ("A", "start")
        );
        assert_eq!(
            (entries[2].actor.as_str(), entries[2].event.as_str()),
            ("B", "timer")
        );
        let mut report = RunReport::new("p");
        p.stamp(&names, &mut report);
        assert_eq!(report.profile.len(), 3);
        assert_eq!(report.profile_run_ns, 500);
        assert_eq!(report.profile_attributed_ns(), 185);
    }

    #[test]
    fn absorb_adds_cells_and_loop_time() {
        let mut main = DispatchProfile::default();
        main.record(0, BUCKET_DELIVER, 100);
        main.add_run_ns(150);
        let mut worker = DispatchProfile::default();
        worker.record(0, BUCKET_DELIVER, 40);
        worker.record(2, BUCKET_TIMER, 5);
        worker.add_run_ns(60);
        main.absorb(worker);
        assert_eq!(
            (main.events(), main.attributed_ns(), main.run_ns()),
            (3, 145, 210)
        );
        let names = ["A", "B", "C"].map(String::from);
        let cells: Vec<_> = main
            .entries(&names)
            .into_iter()
            .map(|e| (e.actor, e.event, e.count, e.ns))
            .collect();
        assert_eq!(
            cells,
            [
                ("A".into(), "deliver".into(), 2, 140),
                ("C".into(), "timer".into(), 1, 5)
            ]
        );
    }

    #[test]
    fn other_bucket_exists_for_filtered_events() {
        let mut p = DispatchProfile::default();
        p.record(0, BUCKET_OTHER, 7);
        let entries = p.entries(&["A".to_string()]);
        assert_eq!(entries[0].event, "other");
    }
}
