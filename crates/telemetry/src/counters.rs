//! Labeled counters.
//!
//! A metric name plus a [`Labels`] triple (node, chain, zone — each
//! optional) keys a `u64` cell. Every key is interned once per process, in
//! one table, by [`CounterHandle::of`]: a read-locked lookup, with the
//! write lock taken only the first time a key is seen. A handle is the
//! key's index in that table, so one handle names the same cell in every
//! [`Counters`] — the engine's sink, a partition worker's fork, a test's
//! own sink — and may be minted before any sink exists.
//! [`Counters::incr_by_handle`] is a dense-array add; the name-based
//! [`Counters::incr`] is the same add after one table lookup.
//!
//! The table is an ordered map, not a hash map: at the 30 000 keys of a
//! 2 500-node world a hash index of these 64-byte keys holds several MB
//! more at its peak, and the map's walk is already the report order.
//!
//! The table never shrinks. Ids never reach a report: [`Counters::iter`]
//! yields the written cells in `(name, labels)` order, so no report depends
//! on which thread or which world interned a key first. A sink's cell
//! vectors grow to the highest id it writes, so a world that touches an id
//! minted by a larger world in the same process pays at most 9 B (a `u64`
//! cell and a touched flag) per table entry below that id.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

use crate::json::{Json, Shape};

/// Dimension labels for a counter cell. Unset dimensions mean "global".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels {
    /// Node (replica or full node) the observation belongs to.
    pub node: Option<u64>,
    /// Bundle chain (one per producer in Predis).
    pub chain: Option<u64>,
    /// Multi-Zone zone index.
    pub zone: Option<u64>,
}

impl Labels {
    /// No labels: a global, run-wide cell.
    pub const GLOBAL: Labels = Labels {
        node: None,
        chain: None,
        zone: None,
    };

    /// Labels with only the node dimension set.
    pub fn node(node: u64) -> Labels {
        Labels {
            node: Some(node),
            ..Labels::GLOBAL
        }
    }

    /// Labels with only the chain dimension set.
    pub fn chain(chain: u64) -> Labels {
        Labels {
            chain: Some(chain),
            ..Labels::GLOBAL
        }
    }

    /// Labels with only the zone dimension set.
    pub fn zone(zone: u64) -> Labels {
        Labels {
            zone: Some(zone),
            ..Labels::GLOBAL
        }
    }

    /// Returns these labels with the chain dimension added.
    pub fn and_chain(mut self, chain: u64) -> Labels {
        self.chain = Some(chain);
        self
    }

    /// Returns these labels with the zone dimension added.
    pub fn and_zone(mut self, zone: u64) -> Labels {
        self.zone = Some(zone);
        self
    }

    /// Canonical text form: `node=3,chain=1` (empty string when global).
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.node {
            parts.push(format!("node={n}"));
        }
        if let Some(c) = self.chain {
            parts.push(format!("chain={c}"));
        }
        if let Some(z) = self.zone {
            parts.push(format!("zone={z}"));
        }
        parts.join(",")
    }

    /// Parses the canonical text form produced by [`Labels::render`].
    pub fn parse(s: &str) -> Result<Labels, String> {
        let mut out = Labels::GLOBAL;
        if s.is_empty() {
            return Ok(out);
        }
        for part in s.split(',') {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad label part {part:?}"))?;
            let val: u64 = val
                .parse()
                .map_err(|e| format!("bad label value {val:?}: {e}"))?;
            match key {
                "node" => out.node = Some(val),
                "chain" => out.chain = Some(val),
                "zone" => out.zone = Some(val),
                other => return Err(format!("unknown label dimension {other:?}")),
            }
        }
        Ok(out)
    }
}

/// Labels as their rendered string.
impl Shape for Labels {
    fn to_json(&self) -> Json {
        Json::Str(self.render())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        Labels::parse(&String::from_json(v)?)
    }
}

type Key = (&'static str, Labels);

/// The process-wide key table: key -> handle id, ids in interning order.
static TABLE: RwLock<BTreeMap<Key, u32>> = RwLock::new(BTreeMap::new());

/// Runs `f` over the table under its read lock. An insert is the table's
/// only write, so a panic elsewhere cannot leave it half-written and a
/// poisoned lock is read through.
fn read<R>(f: impl FnOnce(&BTreeMap<Key, u32>) -> R) -> R {
    f(&TABLE.read().unwrap_or_else(PoisonError::into_inner))
}

/// One counter cell, named by its interned `(name, labels)` key. Valid in
/// every [`Counters`] of the process; incrementing through it is a
/// dense-array add with no key lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(u32);

impl CounterHandle {
    /// The handle of `(name, labels)`, interning the key on first sight.
    pub fn of(name: &'static str, labels: Labels) -> CounterHandle {
        let key = (name, labels);
        if let Some(id) = read(|t| t.get(&key).copied()) {
            return CounterHandle(id);
        }
        let mut t = TABLE.write().unwrap_or_else(PoisonError::into_inner);
        let id = u32::try_from(t.len()).expect("fewer than 2^32 counter keys");
        CounterHandle(*t.entry(key).or_insert(id))
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A sink of labeled counter cells, indexed by [`CounterHandle`].
#[derive(Debug, Clone, Default)]
pub struct Counters {
    cells: Vec<u64>,
    /// Whether the cell was ever written: unwritten cells (ids this sink
    /// only grew past) stay out of `iter`/`len`.
    touched: Vec<bool>,
}

impl Counters {
    /// An empty sink.
    pub fn new() -> Self {
        Counters::default()
    }

    /// The handle of `(name, labels)` — [`CounterHandle::of`], for callers
    /// that hold a sink.
    pub fn handle(&mut self, name: &'static str, labels: Labels) -> CounterHandle {
        CounterHandle::of(name, labels)
    }

    /// Adds `by` to the cell (creating it at zero).
    pub fn incr(&mut self, name: &'static str, labels: Labels, by: u64) {
        self.incr_by_handle(CounterHandle::of(name, labels), by);
    }

    /// Adds `by` to a handle's cell — the O(1) hot path.
    #[inline]
    pub fn incr_by_handle(&mut self, handle: CounterHandle, by: u64) {
        let idx = handle.index();
        if idx >= self.cells.len() {
            self.grow(idx);
        }
        self.cells[idx] += by;
        self.touched[idx] = true;
    }

    #[cold]
    fn grow(&mut self, idx: usize) {
        self.cells.resize(idx + 1, 0);
        self.touched.resize(idx + 1, false);
    }

    /// The cell's value, or 0 if never written.
    pub fn get(&self, name: &str, labels: Labels) -> u64 {
        read(|t| t.get(&(name, labels)).copied())
            .and_then(|id| self.cells.get(id as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of all cells with this metric name, across every label combination.
    pub fn total(&self, name: &str) -> u64 {
        self.iter()
            .filter(|&(n, _, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// All written cells, in deterministic `(name, labels)` order: the
    /// table's walk, restricted to this sink's written ids.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Labels, u64)> {
        let cells: Vec<(&'static str, Labels, u64)> = read(|t| {
            t.iter()
                .filter(|&(_, &id)| self.touched.get(id as usize) == Some(&true))
                .map(|(&(name, labels), &id)| (name, labels, self.cells[id as usize]))
                .collect()
        });
        cells.into_iter()
    }

    /// Number of distinct written cells.
    pub fn len(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }

    /// True when no written cell exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds every written cell of `other` into `self`, cell by cell.
    pub fn absorb(&mut self, other: &Counters) {
        if other.cells.len() > self.cells.len() {
            self.grow(other.cells.len() - 1);
        }
        for (i, (&value, &touched)) in other.cells.iter().zip(&other.touched).enumerate() {
            if touched {
                self.cells[i] += value;
                self.touched[i] = true;
            }
        }
    }
}

/// Logical equality: the same written cells with the same values.
impl PartialEq for Counters {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Counters {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_accumulates_per_label() {
        let mut c = Counters::new();
        c.incr("tips.updated", Labels::node(1), 1);
        c.incr("tips.updated", Labels::node(1), 2);
        c.incr("tips.updated", Labels::node(2), 5);
        assert_eq!(c.get("tips.updated", Labels::node(1)), 3);
        assert_eq!(c.get("tips.updated", Labels::node(2)), 5);
        assert_eq!(c.get("tips.updated", Labels::GLOBAL), 0);
        assert_eq!(c.total("tips.updated"), 8);
    }

    #[test]
    fn labels_render_parse_round_trip() {
        for l in [
            Labels::GLOBAL,
            Labels::node(3),
            Labels::chain(9),
            Labels::zone(2),
            Labels::node(1).and_chain(2).and_zone(3),
        ] {
            assert_eq!(Labels::parse(&l.render()).unwrap(), l);
        }
        assert!(Labels::parse("shard=1").is_err());
        assert!(Labels::parse("node=x").is_err());
    }

    #[test]
    fn handles_hit_the_same_cells_as_names() {
        let mut c = Counters::new();
        let h = c.handle("node.deliveries", Labels::node(1));
        c.incr_by_handle(h, 2);
        c.incr("node.deliveries", Labels::node(1), 3);
        c.incr_by_handle(h, 1);
        assert_eq!(c.get("node.deliveries", Labels::node(1)), 6);
        // Re-interning the same key returns the same handle.
        assert_eq!(c.handle("node.deliveries", Labels::node(1)), h);
        assert_eq!(CounterHandle::of("node.deliveries", Labels::node(1)), h);
    }

    #[test]
    fn unwritten_handles_are_invisible() {
        let mut c = Counters::new();
        let _idle = CounterHandle::of("test.unwritten.idle", Labels::node(7));
        let hot = CounterHandle::of("test.unwritten.hot", Labels::node(7));
        // Growing to `hot` covers `idle`'s cell without writing it.
        c.incr_by_handle(hot, 1);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        let cells: Vec<_> = c.iter().collect();
        assert_eq!(cells, vec![("test.unwritten.hot", Labels::node(7), 1)]);
        // get() reads an unwritten cell, and a never-interned key, as zero.
        assert_eq!(c.get("test.unwritten.idle", Labels::node(7)), 0);
        assert_eq!(c.get("test.unwritten.never", Labels::node(7)), 0);
    }

    #[test]
    fn equality_ignores_interning_differences() {
        let low = CounterHandle::of("test.eq.low", Labels::GLOBAL);
        let high = CounterHandle::of("test.eq.high", Labels::node(1));
        // `a` grows past `low`'s cell without writing it; `b` gets the same
        // one cell through an absorb.
        let mut a = Counters::new();
        a.incr_by_handle(high, 4);
        let mut b = Counters::new();
        b.absorb(&a);
        assert_eq!(a, b);

        b.incr_by_handle(high, 1);
        assert_ne!(a, b);
        // A zero write still creates a cell.
        a.incr_by_handle(high, 1);
        a.incr_by_handle(low, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn one_handle_names_one_cell_in_every_sink() {
        // Minted before any sink exists, as an actor's constructor does.
        let early = CounterHandle::of("test.sinks.early", Labels::node(3));
        let mut main = Counters::new();
        main.incr_by_handle(early, 2);
        // A fork starts empty and grows on its own writes.
        let mut fork = Counters::new();
        fork.incr_by_handle(early, 5);
        fork.incr("test.sinks.early", Labels::node(3), 1);
        main.absorb(&fork);
        main.incr("test.sinks.early", Labels::node(3), 1);
        assert_eq!(main.get("test.sinks.early", Labels::node(3)), 9);
        assert_eq!(main.len(), 1);
    }

    #[test]
    fn handle_minted_on_a_live_fork_lands_on_main() {
        let mut main = Counters::new();
        main.incr("test.fork.before", Labels::GLOBAL, 1);
        let mut fork = Counters::new();
        // Interned while the fork is live: an id `main` has never grown to.
        let mid = CounterHandle::of("test.fork.mid", Labels::node(1));
        fork.incr_by_handle(mid, 2);
        assert_eq!(main.get("test.fork.mid", Labels::node(1)), 0);
        main.absorb(&fork);
        // The same handle, and the same key by name, keep working on main.
        main.incr_by_handle(mid, 1);
        main.incr("test.fork.mid", Labels::node(1), 1);
        assert_eq!(main.get("test.fork.mid", Labels::node(1)), 4);
        assert_eq!(main.get("test.fork.before", Labels::GLOBAL), 1);
    }

    #[test]
    fn iteration_is_deterministic() {
        // Interned in reverse key order, on another thread.
        std::thread::spawn(|| {
            for name in ["test.order.c", "test.order.b", "test.order.a"] {
                for node in [2, 1] {
                    CounterHandle::of(name, Labels::node(node));
                }
            }
        })
        .join()
        .unwrap();
        let mut c = Counters::new();
        for name in ["test.order.b", "test.order.c", "test.order.a"] {
            for node in [1, 2] {
                c.incr(name, Labels::node(node), node);
            }
        }
        c.incr("test.order.a", Labels::GLOBAL, 9);
        let keys: Vec<_> = c.iter().map(|(n, l, _)| (n, l.node)).collect();
        assert_eq!(
            keys,
            vec![
                ("test.order.a", None),
                ("test.order.a", Some(1)),
                ("test.order.a", Some(2)),
                ("test.order.b", Some(1)),
                ("test.order.b", Some(2)),
                ("test.order.c", Some(1)),
                ("test.order.c", Some(2)),
            ]
        );
    }
}
