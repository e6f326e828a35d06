//! Dense, cache-friendly containers backing the Multi-Zone node plane.
//!
//! [`crate::zone::MultiZoneNode`] used to carry ~12 `BTreeMap`/`HashMap`s
//! per node; at 10^5 simulated full nodes the pointer-chasing and
//! per-entry overhead of those maps dominates resident memory. The
//! containers here replace them with flat arrays and interned handles
//! while preserving the *exact* iteration orders of the maps they
//! replace (ascending stripe / ascending `NodeId` / ascending pending
//! block), because iteration order decides message emission order and
//! therefore the run's trace fingerprint. (The stripe-keyed maps became
//! the node's own per-stripe route records, one fixed `n_c` array walked
//! in stripe order; they need no container here.)
//!
//! * [`StripeSet`] — stripe set as one `u64` bitmask (`n_c ≤`
//!   [`MAX_STRIPES`]).
//! * [`PeerMap`] — `NodeId`-keyed map with interned dense handles (the
//!   counter-interning trick applied to actors): each peer is assigned a
//!   small index on first contact, values live in a dense vector, and a
//!   sorted handle list keeps `BTreeMap`-compatible ascending iteration.
//! * [`U64Set`] — sorted-vector set of block ids, for the small sets
//!   read in ascending order (completed, announced, pulled): 8 bytes per
//!   entry instead of a tree node per entry.
//! * [`BlockTable`] — everything else a node knows per block (stripes
//!   held, decoded bits, pull attempts, announcement, size) in one
//!   open-addressed table of inline [`BlockEntry`]s. Block ids are bundle
//!   *digests* in the consensus-duty worlds, so the table is keyed by
//!   hash, not position: O(1) per stripe at any size, and no allocation
//!   per single-bundle block.
//! * [`ZoneRoster`] — a zone's member list, one `Arc<[NodeId]>` shared
//!   by every member.
//!
//! Every heap-owning container reports an `approx_bytes`
//! ([`BlockTable::approx_bytes`], for one) so the engine's `mem.*`
//! accounting can gate the footprint.

use predis_sim::{NodeId, SimTime};
use rand::Rng;

// ---------------------------------------------------------------------
// StripeSet
// ---------------------------------------------------------------------

/// The most stripes (= consensus nodes) a Multi-Zone world can have:
/// [`StripeSet`] and the per-bundle stripe masks of [`BlockEntry`] are one
/// `u64` each. The setups' `validate` reject a larger `n_c`.
pub const MAX_STRIPES: usize = 64;

/// A set of stripe indices as a single `u64` bitmask.
///
/// Iteration is ascending, matching the `BTreeSet<u32>` it replaces.
/// Requires `n_c ≤` [`MAX_STRIPES`] (asserted at node construction);
/// out-of-range inserts are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StripeSet(u64);

impl FromIterator<u32> for StripeSet {
    fn from_iter<I: IntoIterator<Item = u32>>(stripes: I) -> StripeSet {
        let mut set = StripeSet::EMPTY;
        for s in stripes {
            set.insert(s);
        }
        set
    }
}

impl StripeSet {
    /// The empty set.
    pub const EMPTY: StripeSet = StripeSet(0);

    /// Inserts `stripe`; true if it was not present.
    pub fn insert(&mut self, stripe: u32) -> bool {
        if stripe as usize >= MAX_STRIPES {
            return false;
        }
        let mask = 1u64 << stripe;
        let fresh = self.0 & mask == 0;
        self.0 |= mask;
        fresh
    }

    /// Removes `stripe`; true if it was present.
    pub fn remove(&mut self, stripe: u32) -> bool {
        if stripe as usize >= MAX_STRIPES {
            return false;
        }
        let mask = 1u64 << stripe;
        let had = self.0 & mask != 0;
        self.0 &= !mask;
        had
    }

    /// Membership test.
    pub fn contains(self, stripe: u32) -> bool {
        (stripe as usize) < MAX_STRIPES && self.0 >> stripe & 1 == 1
    }

    /// Number of stripes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set intersection.
    pub fn intersection(self, other: StripeSet) -> StripeSet {
        StripeSet(self.0 & other.0)
    }

    /// Set union.
    pub fn union(self, other: StripeSet) -> StripeSet {
        StripeSet(self.0 | other.0)
    }

    /// Smallest member, if any.
    pub fn first(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros())
        }
    }

    /// Members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let s = bits.trailing_zeros();
            bits &= bits - 1;
            Some(s)
        })
    }

    /// Members in ascending order, collected.
    pub fn to_vec(self) -> Vec<u32> {
        self.iter().collect()
    }
}

// ---------------------------------------------------------------------
// PeerMap
// ---------------------------------------------------------------------

/// A `NodeId`-keyed map with interned dense handles.
///
/// Each distinct peer is assigned a small dense index on first insert;
/// values live in `vals[handle]` and a sorted handle list preserves the
/// ascending-`NodeId` iteration order of the `BTreeMap` it replaces.
/// Removal clears the value but keeps the handle interned, so the
/// footprint is bounded by the number of *distinct* peers ever seen
/// (zone-local, small) rather than churn volume.
#[derive(Debug, Clone, Default)]
pub struct PeerMap<V> {
    /// handle -> peer id, in interning order.
    ids: Vec<NodeId>,
    /// handle -> live value.
    vals: Vec<Option<V>>,
    /// Handles sorted by `NodeId`, for ordered iteration and lookup.
    order: Vec<u32>,
    live: usize,
}

impl<V> PeerMap<V> {
    /// An empty map.
    pub fn new() -> PeerMap<V> {
        PeerMap {
            ids: Vec::new(),
            vals: Vec::new(),
            order: Vec::new(),
            live: 0,
        }
    }

    fn lookup(&self, id: NodeId) -> Result<usize, usize> {
        self.order
            .binary_search_by_key(&id, |&h| self.ids[h as usize])
    }

    /// Inserts, returning the previous value for `id`.
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        match self.lookup(id) {
            Ok(pos) => {
                let h = self.order[pos] as usize;
                let old = self.vals[h].replace(value);
                if old.is_none() {
                    self.live += 1;
                }
                old
            }
            Err(pos) => {
                let h = self.ids.len() as u32;
                self.ids.push(id);
                self.vals.push(Some(value));
                self.order.insert(pos, h);
                self.live += 1;
                None
            }
        }
    }

    /// The value for `id`, if live.
    pub fn get(&self, id: NodeId) -> Option<&V> {
        let pos = self.lookup(id).ok()?;
        self.vals[self.order[pos] as usize].as_ref()
    }

    /// Removes and returns the value for `id` (the handle stays interned).
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let pos = self.lookup(id).ok()?;
        let old = self.vals[self.order[pos] as usize].take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Whether `id` has a live value.
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live entries in ascending `NodeId` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> + '_ {
        self.order.iter().filter_map(move |&h| {
            self.vals[h as usize]
                .as_ref()
                .map(|v| (self.ids[h as usize], v))
        })
    }

    /// Live values in ascending `NodeId` order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.vals.capacity() * std::mem::size_of::<Option<V>>()
            + self.order.capacity() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------
// U64Set
// ---------------------------------------------------------------------

/// A sorted-vector set of `u64` keys (8 bytes per entry).
///
/// Iteration via [`U64Set::as_slice`] is ascending, matching the
/// `BTreeSet<u64>` it replaces.
#[derive(Debug, Clone, Default)]
pub struct U64Set(Vec<u64>);

impl U64Set {
    /// An empty set.
    pub fn new() -> U64Set {
        U64Set(Vec::new())
    }

    /// Inserts `key`; true if it was not present.
    pub fn insert(&mut self, key: u64) -> bool {
        match self.0.binary_search(&key) {
            Ok(_) => false,
            Err(pos) => {
                self.0.insert(pos, key);
                true
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, key: u64) -> bool {
        self.0.binary_search(&key).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// All members in ascending order.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Releases capacity slack left over from a transient burst.
    pub fn shrink_to_fit(&mut self) {
        self.0.shrink_to_fit();
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.0.capacity() * 8
    }
}

// ---------------------------------------------------------------------
// BlockTable / BlockEntry
// ---------------------------------------------------------------------

const OCCUPIED: u8 = 1;
/// Announced and incomplete: `bundles` and `at` describe the announcement.
const PENDING: u8 = 1 << 1;
/// Reconstructed: only `size` and `hint` are kept, to serve pulls.
const DONE: u8 = 1 << 2;
const HINT: u8 = 1 << 3;
const DECODED0: u8 = 1 << 4;

/// Everything a full node knows about one block, in 56 bytes: stripes
/// held, decoded bit and pull attempts of bundle 0, the announcement
/// (bundle count + arrival time) once seen, and the decoded size and
/// bundle-size hint that outlive completion. Blocks of the consensus duty
/// are one bundle each, so only the synthetic multi-bundle loads ever
/// allocate the spill.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    key: u64,
    /// Stripes held of bundle 0.
    stripes: u64,
    size: u64,
    /// The announcement's arrival while pending, else the first data
    /// arrival (`SimTime::MAX`: none yet). One field serves both because a
    /// block never stops being pending except by leaving, the expiry sweep
    /// reads it on unannounced blocks only and recovery on pending ones.
    at: SimTime,
    bundles: u32,
    hint: u32,
    /// Pull attempts of bundle 0 (saturating).
    pulls: u8,
    flags: u8,
    /// Bundles `1..`.
    spill: Option<Box<Spill>>,
}

/// Per-bundle state of bundles `1..`, indexed by `idx - 1`.
#[derive(Debug, Clone, Default)]
struct Spill {
    stripes: Vec<u64>,
    /// Bitset: bundle decoded (and from then on held whole, servable).
    decoded: Vec<u64>,
    pulls: Vec<u8>,
}

/// `v[i]`, growing `v` by exactly what is missing: `resize` alone reserves
/// amortized (min capacity 4), and with many blocks live at once the slack
/// is what the memory gate ends up measuring.
fn slot_at<T: Copy + Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.reserve_exact(i + 1 - v.len());
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

fn bit_get(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

fn bit_set(words: &mut Vec<u64>, i: usize) -> bool {
    let word = slot_at(words, i / 64);
    let fresh = *word >> (i % 64) & 1 == 0;
    *word |= 1 << (i % 64);
    fresh
}

impl BlockEntry {
    const EMPTY: BlockEntry = BlockEntry {
        key: 0,
        stripes: 0,
        size: 0,
        at: SimTime::MAX,
        bundles: 0,
        hint: 0,
        pulls: 0,
        flags: 0,
        spill: None,
    };

    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn spill_mut(&mut self) -> &mut Spill {
        self.spill.get_or_insert_with(Box::default)
    }

    /// The announced bundle count, if the block is pending.
    pub fn pending(&self) -> Option<u32> {
        self.has(PENDING).then_some(self.bundles)
    }

    /// When the announcement arrived, if pending.
    pub fn ann_at(&self) -> Option<SimTime> {
        self.has(PENDING).then_some(self.at)
    }

    /// Whether the block was reconstructed (only its size and hint remain).
    pub fn is_done(&self) -> bool {
        self.has(DONE)
    }

    /// Records the first data arrival for the block (later calls, and
    /// calls on an announced block, are no-ops).
    pub fn note_touch(&mut self, at: SimTime) {
        if !self.has(PENDING) && self.at == SimTime::MAX {
            self.at = at;
        }
    }

    /// When the first data of a still unannounced block arrived — the age
    /// reference for expiring never-announced blocks.
    pub fn first_touch(&self) -> Option<SimTime> {
        (!self.has(PENDING) && self.at != SimTime::MAX).then_some(self.at)
    }

    /// Records one stripe of bundle `idx`. Returns `None` on a
    /// duplicate, else the number of distinct stripes now held.
    pub fn add_stripe(&mut self, idx: u32, stripe: u32) -> Option<u32> {
        if stripe as usize >= MAX_STRIPES {
            return None;
        }
        let word = match idx {
            0 => &mut self.stripes,
            _ => slot_at(&mut self.spill_mut().stripes, idx as usize - 1),
        };
        let mask = 1u64 << stripe;
        if *word & mask != 0 {
            return None;
        }
        *word |= mask;
        Some(word.count_ones())
    }

    /// Marks bundle `idx` decoded; true if newly set.
    pub fn mark_decoded(&mut self, idx: u32) -> bool {
        if idx > 0 {
            return bit_set(&mut self.spill_mut().decoded, idx as usize - 1);
        }
        let fresh = !self.has(DECODED0);
        self.flags |= DECODED0;
        fresh
    }

    /// Whether bundle `idx` is decoded: reconstructed from `k` stripes or
    /// pulled whole, and servable to pulls either way.
    pub fn is_decoded(&self, idx: u32) -> bool {
        match (idx, &self.spill) {
            (0, _) => self.has(DECODED0),
            (_, Some(spill)) => bit_get(&spill.decoded, idx as usize - 1),
            (_, None) => false,
        }
    }

    /// Whether every bundle that has received at least one stripe is
    /// decoded. With no announcement there is no authoritative bundle
    /// count, so "all bundles seen so far" is the strongest completion
    /// signal available (the ann-less retirement condition).
    pub fn all_decoded(&self) -> bool {
        (self.stripes == 0 || self.has(DECODED0))
            && self.spill.as_ref().is_none_or(|spill| {
                let mut words = spill.stripes.iter().enumerate();
                words.all(|(i, &w)| w == 0 || bit_get(&spill.decoded, i))
            })
    }

    /// Whether every bundle seen holds all `n_c` stripes. Once true, the
    /// stripe plane has nothing further to deliver for this block —
    /// retiring it earlier (at `k` of `n_c` stripes) would let the
    /// remaining stripes resurrect it as a new, never-decodable block.
    pub fn holds_all_stripes(&self, n_c: u32) -> bool {
        let spilled = self.spill.iter().flat_map(|spill| &spill.stripes);
        std::iter::once(&self.stripes)
            .chain(spilled)
            .all(|w| w.count_ones() >= n_c)
    }

    /// Increments bundle `idx`'s pull-attempt counter, returning the new
    /// value (saturating at 255 — only the `≤ 2` threshold matters).
    pub fn bump_pull(&mut self, idx: u32) -> u32 {
        let pulls = match idx {
            0 => &mut self.pulls,
            _ => slot_at(&mut self.spill_mut().pulls, idx as usize - 1),
        };
        *pulls = pulls.saturating_add(1);
        *pulls as u32
    }

    /// Decoded payload bytes accounted to the block so far.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Accounts `bytes` more decoded payload to the block.
    pub fn add_size(&mut self, bytes: u64) {
        self.size += bytes;
    }

    /// Replaces the accounted size (a block received whole).
    pub fn set_size(&mut self, bytes: u64) {
        self.size = bytes;
    }

    /// The bundle payload size learned from the first decode, if any.
    pub fn hint(&self) -> Option<u32> {
        self.has(HINT).then_some(self.hint)
    }

    /// Records the bundle payload size; only the first call sticks.
    pub fn note_hint(&mut self, bundle_bytes: u32) {
        if !self.has(HINT) {
            self.flags |= HINT;
            self.hint = bundle_bytes;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.spill.as_ref().map_or(0, |spill| {
            std::mem::size_of::<Spill>()
                + (spill.stripes.capacity() + spill.decoded.capacity()) * 8
                + spill.pulls.capacity()
        })
    }
}

/// Slots needed to hold `len` entries at a load of at most 7/8 with one
/// slot always empty (probes stop at an empty slot).
fn fit(len: usize) -> usize {
    match len {
        0 => 0,
        _ => len + len / 7 + 1,
    }
}

/// Block id → [`BlockEntry`], one open-addressed array of inline entries.
///
/// Block ids are bundle *digests* under the consensus duty (one block per
/// bundle, uniformly random keys) and small counters under the synthetic
/// loads, so the home slot is a Fibonacci-mixed multiply-shift of the id:
/// lookup and insert are O(1) for both, with linear probing and
/// backward-shift deletion (no tombstones). Capacity is not a power of
/// two — the multiply-shift maps onto any length — so the table grows by
/// half, not double: from 8 blocks up a tracked block never costs more
/// than 96 bytes, and 64 after [`BlockTable::compact`].
///
/// Table order is hash order. The two places order is observable are
/// served separately: pending blocks are also kept in a small ascending
/// key list (recovery pulls walk it; empty in worlds without
/// announcements), and callers of [`BlockTable::iter`] sort.
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    slots: Box<[BlockEntry]>,
    /// Occupied slots, done blocks included.
    len: u32,
    done: u32,
    /// The slot [`entry`](BlockTable::entry) lent out last. A spill is
    /// allocated only through that `&mut`, and the borrow has ended by the
    /// time the table is called again, so this is the one slot that can
    /// hold a spill `spilled` has not seen. (The four fields are `u32`s and
    /// a flag so that the table is still seven words.)
    lent: u32,
    /// Whether a spill was ever seen in the table. While false (every
    /// world but the synthetic multi-bundle loads),
    /// [`approx_bytes`](BlockTable::approx_bytes) has nothing to walk for.
    spilled: bool,
    /// Ids of the pending blocks, ascending.
    pending: Vec<u64>,
}

impl BlockTable {
    /// An empty table (owns no allocation until the first block).
    pub fn new() -> BlockTable {
        BlockTable::default()
    }

    fn home(&self, block: u64) -> usize {
        let mixed = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed as u128 * self.slots.len() as u128) >> 64) as usize
    }

    /// The slot probed after `i`.
    fn after(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// The slot holding `block`, or else the empty slot it would go to.
    fn probe(&self, block: u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mut i = self.home(block);
        loop {
            let entry = &self.slots[i];
            if !entry.has(OCCUPIED) {
                return Err(i);
            }
            if entry.key == block {
                return Ok(i);
            }
            i = self.after(i);
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the lent slot holds a spill (or whatever slot has taken its
    /// place since: an occupied slot's spill is a spill all the same).
    fn lent_spills(&self) -> bool {
        let lent = self.slots.get(self.lent as usize);
        lent.is_some_and(|entry| entry.spill.is_some())
    }

    /// Looks at the lent slot before another is lent or slots move.
    fn settle(&mut self) {
        self.spilled = self.spilled || self.lent_spills();
    }

    fn rehash(&mut self, slots: usize) {
        self.settle();
        let fresh = vec![BlockEntry::EMPTY; slots].into_boxed_slice();
        let old = std::mem::replace(&mut self.slots, fresh);
        for entry in old.into_vec().into_iter().filter(|e| e.has(OCCUPIED)) {
            let i = self.probe(entry.key).expect_err("keys are unique");
            self.slots[i] = entry;
        }
    }

    /// The entry for `block`, if any (tracked or done).
    pub fn get(&self, block: u64) -> Option<&BlockEntry> {
        self.probe(block).ok().map(|i| &self.slots[i])
    }

    /// The entry for `block`, created when absent.
    pub fn entry(&mut self, block: u64) -> &mut BlockEntry {
        self.settle();
        let i = match self.probe(block) {
            Ok(i) => i,
            Err(mut i) => {
                if fit(self.len() + 1) > self.slots.len() {
                    self.rehash(fit((self.len() + self.len() / 2).max(self.len() + 1)));
                    i = self.probe(block).expect_err("block is absent");
                }
                self.slots[i] = BlockEntry {
                    key: block,
                    flags: OCCUPIED,
                    ..BlockEntry::EMPTY
                };
                self.len += 1;
                i
            }
        };
        self.lent = u32::try_from(i).expect("a table holds < 2^32 blocks");
        &mut self.slots[i]
    }

    /// Marks `block` pending with `bundles` bundles, announced at `at`
    /// (ignored once the block is done).
    pub fn set_pending(&mut self, block: u64, bundles: u32, at: SimTime) {
        let entry = self.entry(block);
        if entry.is_done() {
            return;
        }
        entry.flags |= PENDING;
        entry.bundles = bundles;
        entry.at = at;
        if let Err(pos) = self.pending.binary_search(&block) {
            self.pending.insert(pos, block);
        }
    }

    fn unpend(&mut self, block: u64) {
        if let Ok(pos) = self.pending.binary_search(&block) {
            self.pending.remove(pos);
        }
    }

    /// Marks `block` done, dropping its in-flight state but keeping its
    /// size and hint; false if it already was.
    pub fn complete(&mut self, block: u64) -> bool {
        let entry = self.entry(block);
        if entry.is_done() {
            return false;
        }
        *entry = BlockEntry {
            key: block,
            size: entry.size,
            hint: entry.hint,
            flags: OCCUPIED | DONE | (entry.flags & HINT),
            ..BlockEntry::EMPTY
        };
        self.done += 1;
        self.unpend(block);
        true
    }

    /// Drops every trace of `block`.
    pub fn retire(&mut self, block: u64) {
        self.settle();
        let Ok(mut hole) = self.probe(block) else {
            return;
        };
        let gone = std::mem::replace(&mut self.slots[hole], BlockEntry::EMPTY);
        self.len -= 1;
        self.done -= u32::from(gone.is_done());
        self.unpend(block);
        // Close the hole: an entry further down its probe run moves up
        // unless that would place it before its home slot.
        let mut next = hole;
        loop {
            next = self.after(next);
            if !self.slots[next].has(OCCUPIED) {
                return;
            }
            let home = self.home(self.slots[next].key);
            let stays = if hole <= next {
                hole < home && home <= next
            } else {
                hole < home || home <= next
            };
            if !stays {
                self.slots.swap(hole, next);
                hole = next;
            }
        }
    }

    /// Number of pending (announced, incomplete) blocks.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of tracked blocks (pending or merely receiving stripes).
    pub fn live_len(&self) -> usize {
        (self.len - self.done) as usize
    }

    /// Every tracked block, in table (hash) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &BlockEntry)> + '_ {
        let tracked = |e: &&BlockEntry| e.flags & (OCCUPIED | DONE) == OCCUPIED;
        self.slots.iter().filter(tracked).map(|e| (e.key, e))
    }

    /// Pending blocks in ascending block order.
    pub fn pending_iter(&self) -> impl Iterator<Item = (u64, &BlockEntry)> + '_ {
        self.pending
            .iter()
            .filter_map(|&block| Some((block, self.get(block)?)))
    }

    /// Releases what a transient burst left behind: rebuilds the table at
    /// the exact fit once it holds more slots than growth would give it.
    pub fn compact(&mut self) {
        if self.slots.len() > fit(self.len() + self.len() / 2) {
            self.rehash(fit(self.len()));
        }
    }

    /// Approximate heap footprint in bytes. The engine samples it on every
    /// actor at the end of every `run_until`, so the slots are walked for
    /// their spills only once the table has seen one.
    pub fn approx_bytes(&self) -> usize {
        let spills = if self.spilled || self.lent_spills() {
            self.walked_spill_bytes()
        } else {
            0
        };
        debug_assert_eq!(spills, self.walked_spill_bytes());
        self.slots.len() * std::mem::size_of::<BlockEntry>() + spills + self.pending.capacity() * 8
    }

    fn walked_spill_bytes(&self) -> usize {
        self.slots.iter().map(BlockEntry::heap_bytes).sum()
    }
}

// ---------------------------------------------------------------------
// ZoneRoster
// ---------------------------------------------------------------------

/// Zone membership, shared between all members of a zone.
///
/// The full member list lives in one `Arc<[NodeId]>` per zone instead of
/// one owned `Vec` per node (which alone would blow a 4 KiB/node budget
/// at zone size 1000). `my_pos` marks this node's own slot so peer
/// iteration and random peer choice skip it — with *exactly* the same
/// RNG draw as `choose` on the list without it: one
/// `gen_range(0..len-1)` call, mapped over the gap.
#[derive(Debug, Clone)]
pub struct ZoneRoster {
    list: std::sync::Arc<[NodeId]>,
    /// This node's index in `list`, or `u32::MAX` when the list does not
    /// hold it.
    my_pos: u32,
}

impl ZoneRoster {
    /// `me`'s view of the zone list `zone`, shared by all members.
    pub fn new(zone: std::sync::Arc<[NodeId]>, me: NodeId) -> ZoneRoster {
        let my_pos = zone
            .iter()
            .position(|&n| n == me)
            .map_or(u32::MAX, |p| p as u32);
        ZoneRoster { list: zone, my_pos }
    }

    /// Number of fellow members (self excluded).
    pub fn peer_count(&self) -> usize {
        self.list.len() - usize::from(self.my_pos != u32::MAX)
    }

    /// Fellow members in list order (self excluded).
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.list
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i as u32 != self.my_pos)
            .map(|(_, &n)| n)
    }

    /// A uniformly random fellow member, drawing exactly one
    /// `gen_range(0..peer_count)` — identical to `SliceRandom::choose`
    /// on the list of peers alone.
    pub fn choose_other<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        let n = self.peer_count();
        if n == 0 {
            return None;
        }
        let i = rng.gen_range(0..n);
        let skip = usize::from(self.my_pos != u32::MAX && i as u32 >= self.my_pos);
        Some(self.list[i + skip])
    }

    /// Approximate heap footprint in bytes, amortizing the shared list
    /// over its current reference count.
    pub fn approx_bytes(&self) -> usize {
        let shared = self.list.len() * std::mem::size_of::<NodeId>();
        shared / std::sync::Arc::strong_count(&self.list).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_set_matches_btreeset_order() {
        let mut s = StripeSet::EMPTY;
        assert!(s.insert(3));
        assert!(s.insert(0));
        assert!(!s.insert(3));
        assert_eq!(s.to_vec(), vec![0, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.first(), Some(0));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.first(), Some(3));
        let other = StripeSet::from_iter([3, 5]);
        assert_eq!(s.intersection(other).to_vec(), vec![3]);
        assert_eq!(s.union(other).to_vec(), vec![3, 5]);
    }

    #[test]
    fn peer_map_iterates_ascending_and_recycles_handles() {
        let mut m: PeerMap<&str> = PeerMap::new();
        assert_eq!(m.insert(NodeId(9), "nine"), None);
        assert_eq!(m.insert(NodeId(2), "two"), None);
        assert_eq!(m.insert(NodeId(9), "NINE"), Some("nine"));
        assert_eq!(m.len(), 2);
        let order: Vec<NodeId> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec![NodeId(2), NodeId(9)]);
        assert_eq!(m.remove(NodeId(2)), Some("two"));
        assert!(!m.contains_key(NodeId(2)));
        assert_eq!(m.len(), 1);
        // Re-inserting a removed peer reuses its interned handle.
        m.insert(NodeId(2), "again");
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(NodeId(2)), Some(&"again"));
    }

    #[test]
    fn u64_set_stays_sorted() {
        let mut s = U64Set::new();
        assert!(s.insert(7));
        assert!(s.insert(3));
        assert!(!s.insert(7));
        assert_eq!(s.as_slice(), &[3, 7]);
        assert!(s.contains(3) && !s.contains(4));
    }

    #[test]
    fn block_table_tracks_and_retires() {
        let mut t = BlockTable::new();
        assert_eq!(t.entry(5).add_stripe(0, 2), Some(1));
        assert_eq!(t.entry(5).add_stripe(0, 2), None);
        assert_eq!(t.entry(5).add_stripe(0, 4), Some(2));
        assert_eq!(t.entry(5).add_stripe(0, MAX_STRIPES as u32), None);
        t.set_pending(5, 2, SimTime::ZERO);
        assert_eq!(t.pending_count(), 1);
        assert!(t.entry(5).mark_decoded(0));
        assert!(!t.entry(5).mark_decoded(0));
        assert!(t.get(5).unwrap().is_decoded(0));
        assert!(!t.get(5).unwrap().is_decoded(1));
        // Bundle 0 (the only one with stripes) is decoded.
        assert!(t.get(5).unwrap().all_decoded());
        assert_eq!(t.entry(5).add_stripe(1, 0), Some(1));
        assert!(!t.get(5).unwrap().all_decoded());
        assert_eq!(t.entry(5).bump_pull(1), 1);
        assert_eq!(t.entry(5).bump_pull(1), 2);
        // A second block, then retire the first: nothing of it is left.
        t.set_pending(9, 1, SimTime::ZERO);
        t.retire(5);
        assert_eq!(t.pending_count(), 1);
        assert_eq!(t.live_len(), 1);
        assert!(t.get(5).is_none());
        let slot = t.entry(5);
        assert!(slot.pending().is_none() && !slot.is_decoded(0));
        assert_eq!(t.live_len(), 2);
        // Pending iteration is ascending by block.
        let blocks: Vec<u64> = t.pending_iter().map(|(b, _)| b).collect();
        assert_eq!(blocks, vec![9]);
        // A done block stops being tracked but keeps its size and hint.
        t.entry(9).add_size(700);
        t.entry(9).note_hint(70);
        t.entry(9).note_hint(80);
        assert!(t.complete(9) && !t.complete(9));
        assert_eq!((t.pending_count(), t.live_len()), (0, 1));
        let done = t.get(9).unwrap();
        assert!(done.is_done() && done.first_touch().is_none());
        assert_eq!((done.size(), done.hint()), (700, Some(70)));
        t.set_pending(9, 3, SimTime::ZERO);
        assert_eq!(t.pending_count(), 0);
    }

    /// What the table replaced cost ~270 B per tracked single-bundle
    /// block, three heap words of it in allocations of the block's own.
    #[test]
    fn single_bundle_block_costs_at_most_96_bytes_and_no_allocation() {
        assert!(std::mem::size_of::<BlockEntry>() <= 56);
        for keys in [sequential as fn(u64) -> u64, digest] {
            let mut t = BlockTable::new();
            for n in 1..=20_000u64 {
                let slot = t.entry(keys(n));
                slot.note_touch(SimTime::from_millis(n));
                for stripe in 0..4 {
                    slot.add_stripe(0, stripe);
                }
                slot.mark_decoded(0);
                slot.add_size(25_600);
                slot.note_hint(25_600);
                assert_eq!(slot.heap_bytes(), 0);
                if n >= 8 {
                    assert!(t.approx_bytes() <= 96 * n as usize, "{n} blocks");
                }
            }
            // Compaction brings a drained table back to the exact fit.
            for n in 1_000..=20_000 {
                t.retire(keys(n));
            }
            t.compact();
            assert!(t.approx_bytes() <= 66 * t.live_len());
            for n in 1..1_000 {
                t.retire(keys(n));
            }
            t.compact();
            assert_eq!(t.approx_bytes(), 0);
        }
    }

    /// What `approx_bytes` was before it learnt to skip the walk.
    fn walked(t: &BlockTable) -> usize {
        t.slots.len() * std::mem::size_of::<BlockEntry>()
            + t.walked_spill_bytes()
            + t.pending.capacity() * 8
    }

    /// `approx_bytes` walks the slots only once the table has seen a
    /// spill. Through growth, rehashing, completion, retirement and
    /// compaction it never misses one — also when the only spill is in the
    /// entry lent out last — and the table did not grow to know it.
    #[test]
    fn approx_bytes_equals_the_walking_sum_on_a_table_that_spills() {
        assert_eq!(std::mem::size_of::<BlockTable>(), 56);
        let mut t = BlockTable::new();
        for n in 0..600u64 {
            // Single-bundle blocks first: the first spill comes late, into
            // a table that has been rehashed and retired from.
            let bundles = if n < 300 { 1 } else { 5 };
            let slot = t.entry(digest(n));
            for idx in 0..(n % bundles) as u32 {
                slot.add_stripe(idx, (n % 7) as u32);
            }
            assert_eq!(t.approx_bytes(), walked(&t));
            let idx = (n % 100 % bundles) as u32;
            match n % 6 {
                0 => drop(t.entry(digest(n / 2)).mark_decoded(idx)),
                1 => drop(t.entry(digest(n / 2)).bump_pull(idx)),
                2 => t.set_pending(digest(n), 4, SimTime::ZERO),
                3 => drop(t.complete(digest(n / 3))),
                4 => t.retire(digest(n / 4)),
                _ => t.compact(),
            }
            assert_eq!(t.approx_bytes(), walked(&t));
            assert!(n >= 300 || t.walked_spill_bytes() == 0);
        }
        assert!(t.walked_spill_bytes() > 0, "the script must spill");
        for n in 0..600 {
            t.retire(digest(n));
        }
        assert_eq!(t.walked_spill_bytes(), 0);
        assert_eq!(t.approx_bytes(), walked(&t));
    }

    /// The table's first spill sits in the entry lent out last when a
    /// retirement's backward shift, or a compaction, moves that entry to
    /// another slot: it is still counted.
    #[test]
    fn a_first_spill_in_the_lent_entry_survives_slots_moving() {
        let filled = |blocks: u64| {
            let mut t = BlockTable::new();
            for n in 0..blocks {
                t.entry(digest(n));
            }
            t
        };
        for spiller in 0..12 {
            for retired in (0..12).filter(|&n| n != spiller) {
                let mut t = filled(12);
                t.entry(digest(spiller)).add_stripe(1, 0);
                t.retire(digest(retired));
                assert!(t.walked_spill_bytes() > 0);
                assert_eq!(t.approx_bytes(), walked(&t));
            }
            let mut t = filled(40);
            for n in 12..40 {
                t.retire(digest(n));
            }
            t.entry(digest(spiller)).add_stripe(1, 0);
            let before = t.slots.len();
            t.compact();
            assert!(t.slots.len() < before, "compaction must rebuild the table");
            assert!(t.walked_spill_bytes() > 0);
            assert_eq!(t.approx_bytes(), walked(&t));
        }
    }

    fn sequential(n: u64) -> u64 {
        n
    }

    /// Ids as the consensus duty mints them: `bundle.hash().to_u64()`.
    fn digest(n: u64) -> u64 {
        predis_crypto::Hash::digest(&n.to_le_bytes()).to_u64()
    }

    /// The sorted vectors this table replaced paid O(n) per first stripe
    /// of a bundle; here the slots a lookup inspects do not grow with the
    /// number of tracked blocks.
    #[test]
    fn probe_length_does_not_grow_with_table_size() {
        for keys in [sequential as fn(u64) -> u64, digest] {
            for n in [16u64, 4_096, 65_536] {
                let mut t = BlockTable::new();
                for i in 0..n {
                    t.entry(keys(i));
                    // Churn, as the retire-on-decode worlds produce it.
                    if i % 3 == 2 {
                        t.retire(keys(i - 1));
                    }
                }
                let slots = t.slots.len();
                let probes = |block: u64| {
                    let at = t.probe(block).expect("tracked");
                    (at + slots - t.home(block)) % slots + 1
                };
                let tracked: Vec<u64> = t.iter().map(|(block, _)| block).collect();
                let total: usize = tracked.iter().map(|&b| probes(b)).sum();
                let worst = tracked.iter().map(|&b| probes(b)).max().unwrap();
                assert!(total <= 5 * tracked.len(), "{n}: mean {total}/{n}");
                assert!(worst <= 128, "{n}: worst {worst}");
            }
        }
    }

    #[test]
    fn roster_skips_self_with_one_draw() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let full: std::sync::Arc<[NodeId]> =
            vec![NodeId(1), NodeId(4), NodeId(7), NodeId(9)].into();
        // At every position of `me`, and with `me` not in the list at all:
        // the peers are the list without `me`, and the same seed picks the
        // same peer as `choose` on that list.
        for me in [NodeId(1), NodeId(4), NodeId(7), NodeId(9), NodeId(100)] {
            let roster = ZoneRoster::new(full.clone(), me);
            let peers: Vec<NodeId> = full.iter().copied().filter(|&n| n != me).collect();
            assert_eq!(roster.peer_count(), peers.len());
            assert_eq!(roster.peers().collect::<Vec<_>>(), peers);
            for seed in 0..64u64 {
                let mut a = SmallRng::seed_from_u64(seed);
                let mut b = SmallRng::seed_from_u64(seed);
                let want = peers.as_slice().choose(&mut a).copied();
                assert_eq!(roster.choose_other(&mut b), want, "{me} seed {seed}");
            }
        }
    }
}
