//! The engine's future-event set: a hierarchical timer wheel plus the
//! generation-counted timer-slot table.
//!
//! The discrete-event loop pops millions of events per simulated second,
//! and a binary heap pays `O(log n)` comparisons — and as many moves of a
//! whole event — on every one of them. A hashed hierarchical timer wheel
//! (Varghese & Lauck) files an event with one write: near-future events
//! land in fine-grained buckets (one tick = 2²¹ ns ≈ 2.1 ms; level 0 spans
//! 64 of them, wider than any LAN or WAN hop), farther events in
//! exponentially coarser wheels that cascade down as the cursor reaches
//! them, and anything beyond the wheel horizon (2⁴⁵ ns ≈ 9.8 h) falls back
//! to a small binary heap.
//!
//! The current tick orders 16-byte keys, not events. When the cursor
//! reaches a level-0 bucket, the bucket's vector becomes the current tick
//! by a swap; one scan builds a [`Key`] per event, the keys are sorted
//! once, and a pop takes the next key and the event out of its slot. An
//! event is written into a bucket once per level it visits and read out
//! once; ordering never moves it. Events that arrive for the tick already
//! being drained go to a side vector with a small heap of their keys, and
//! a pop takes the lesser of the two heads.
//!
//! Ordering is preserved exactly: within one tick key order *is*
//! `(time, seq)` order whatever order the events arrived in, coarser
//! buckets are re-scattered before anything in them is popped, and the
//! cursor only ever advances to the earliest occupied bucket — so the wheel
//! replays the same total `(time, seq)` order as the old global heap,
//! event-for-event. DESIGN §8 has the full argument.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::actor::{NodeId, TimerId, TimerTag};
use crate::time::SimTime;

/// What happens when an event is dispatched to its node.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// The node joins the simulation and its actor's `on_start` runs.
    Start,
    /// A message arrives.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// The message itself.
        msg: M,
        /// Wire size memoized when the message was sent; delivery metrics
        /// and the trace read it instead of re-walking the payload.
        bytes: usize,
    },
    /// An armed timer fires.
    Timer {
        /// Slot-and-generation handle minted by [`TimerSlots::arm`].
        id: TimerId,
        /// Actor-chosen discriminator passed back to `on_timer`.
        tag: TimerTag,
        /// Node epoch at arming time; a revival bumps the epoch and
        /// orphans older timers.
        epoch: u32,
    },
    /// The node fail-stops (from the fault plan).
    Crash,
    /// The node recovers from a crash window.
    Revive,
}

/// A scheduled event, totally ordered by `(at, seq)`. `seq` is the order
/// key its creator fixed (`dispatch::order_key`), unique across the run.
pub(crate) struct Event<M> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    pub(crate) kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// log2 of the tick width in nanoseconds: one tick ≈ 2.1 ms. Level 0 then
/// spans 64 ticks ≈ 134 ms — wider than any one LAN/WAN hop — so nearly
/// every delivery files straight into a level-0 bucket (one placement, no
/// cascade), and a tick's key sort stays small (only events within one 2 ms
/// window ever share it).
const TICK_BITS: u32 = 21;
/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; ticks differing only in the low `SLOT_BITS * LEVELS`
/// bits are wheel-resident, everything farther goes to the fallback heap.
const LEVELS: usize = 4;
/// Total tick bits covered by the wheels (horizon ≈ 2^45 ns ≈ 9.8 h).
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_BITS
}

/// What the current tick orders instead of events:
/// `(at − tick base): TICK_BITS bits | seq: 64 bits | slot index: 32 bits`
/// in one primitive, so comparing two keys compares `(at, seq)` — `seq` is
/// unique, so the index bits never decide — and the low word says where the
/// event sits. The whole `seq` is carried because nothing here may assume
/// buckets fill in `seq` order: `seq` is the creator's order key
/// (`creator slot << 40 | counter`), so a node with a small index routinely
/// creates an event after a larger one did, and the parallel engine routes
/// outbox events shard by shard.
type Key = u128;

const KEY_SEQ_SHIFT: u32 = 32;
const KEY_OFFSET_SHIFT: u32 = KEY_SEQ_SHIFT + 64;
/// Greater than every key (a key has `KEY_OFFSET_SHIFT + TICK_BITS` bits).
const NO_KEY: Key = Key::MAX;

#[inline]
fn key_of(offset: u64, seq: u64, index: usize) -> Key {
    debug_assert!(offset >> TICK_BITS == 0);
    (Key::from(offset) << KEY_OFFSET_SHIFT) | (Key::from(seq) << KEY_SEQ_SHIFT) | index as Key
}

/// Hierarchical timer wheel over [`Event`]s. See the module docs for the
/// layout and the ordering argument.
pub(crate) struct TimerWheel<M> {
    /// Tick of the bucket currently being drained. Invariant: no stored
    /// event has a tick below this, and `cur_tick <= tick_of(now)`.
    cur_tick: u64,
    /// The level-0 bucket the cursor reached, swapped in whole: a slot is
    /// `take()`n when its key pops, nothing else moves.
    run: Vec<Option<Event<M>>>,
    /// One key per event of `run`, sorted ascending when the bucket was
    /// swapped in; `run_keys[run_next..]` are still to pop.
    run_keys: Vec<Key>,
    run_next: usize,
    /// Events that arrived for `cur_tick` after (or without) a swap, apart
    /// from `run`: appended there, every bucket vector in circulation would
    /// ratchet up to the largest tick ever drained instead of the largest
    /// bucket ever filled.
    late: Vec<Option<Event<M>>>,
    /// Keys of `late`'s filled slots.
    late_keys: BinaryHeap<Reverse<Key>>,
    /// `LEVELS * SLOTS` buckets, flattened level-major. A level-`l` slot
    /// groups events whose tick agrees with the cursor above digit `l`
    /// and first differs at digit `l`. Every stored entry is `Some`; the
    /// `Option` (free: `Event` has a niche) is what lets `run` be emptied
    /// slot by slot in key order.
    slots: Vec<Vec<Option<Event<M>>>>,
    /// Per-level occupancy bitmap (bit = slot has events).
    occupied: [u64; LEVELS],
    /// Events beyond the wheel horizon.
    far: BinaryHeap<Reverse<Event<M>>>,
    /// Reused buffer for cascading a coarse bucket (keeps the drain
    /// allocation-free once warm).
    cascade_scratch: Vec<Option<Event<M>>>,
    len: usize,
}

impl<M> TimerWheel<M> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            cur_tick: 0,
            run: Vec::new(),
            run_keys: Vec::new(),
            run_next: 0,
            late: Vec::new(),
            late_keys: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            far: BinaryHeap::new(),
            cascade_scratch: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Stores an event. `event.at` must not lie behind the cursor — every
    /// engine call that files an event refuses a time before `now`, and a
    /// debug build panics here. In a
    /// release build a past-time push is clamped to the cursor: an event of
    /// an earlier tick is ordered, checked against the horizon and reported
    /// by the `earliest_*` queries as if it fired at the first nanosecond of
    /// the cursor's tick (ties by `seq` as ever), and pops with its `at`
    /// field as pushed.
    pub(crate) fn push(&mut self, event: Event<M>) {
        self.len += 1;
        self.place(event);
    }

    /// Files an event into the structure matching its distance from the
    /// cursor. Does not touch `len` (cascades re-place events).
    fn place(&mut self, event: Event<M>) {
        debug_assert!(
            tick_of(event.at) >= self.cur_tick,
            "event scheduled behind the wheel cursor"
        );
        let tick = tick_of(event.at).max(self.cur_tick);
        let diff = tick ^ self.cur_tick;
        if diff == 0 {
            let offset = event.at.as_nanos().saturating_sub(self.tick_base());
            let index = self.late.len();
            assert!(index <= u32::MAX as usize, "a tick holds < 2^32 events");
            self.late_keys
                .push(Reverse(key_of(offset, event.seq, index)));
            self.late.push(Some(event));
            return;
        }
        // Highest differing digit picks the level: the event's digits
        // above it match the cursor, so the bucket needs no further
        // qualification and is drained before the cursor's digit at that
        // level can pass it.
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.far.push(Reverse(event));
            return;
        }
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(Some(event));
        self.occupied[level] |= 1 << slot;
    }

    /// First nanosecond of the cursor's tick.
    #[inline]
    fn tick_base(&self) -> u64 {
        self.cur_tick << TICK_BITS
    }

    /// The least key of the current tick — the sorted run's head or the
    /// late heap's, whichever is less — or [`NO_KEY`], and whether it is
    /// the run's.
    #[inline]
    fn current_head(&self) -> (Key, bool) {
        let run = self.run_keys.get(self.run_next).copied().unwrap_or(NO_KEY);
        let late = self.late_keys.peek().map_or(NO_KEY, |&Reverse(key)| key);
        (run.min(late), run < late)
    }

    /// The time a key of the current tick stands for, in nanoseconds.
    #[inline]
    fn key_time(&self, key: Key) -> u64 {
        self.tick_base() + (key >> KEY_OFFSET_SHIFT) as u64
    }

    /// Moves the cursor off a tick with nothing left to pop.
    fn move_cursor(&mut self, tick: u64) {
        debug_assert!(self.current_head().0 == NO_KEY);
        self.cur_tick = tick;
        // Only emptied slots are left in these.
        self.run.clear();
        self.run_keys.clear();
        self.run_next = 0;
        self.late.clear();
    }

    /// The earliest occupied bucket of `level` strictly ahead of the
    /// cursor, as `(base tick, slot)`. At each level only slots above the
    /// cursor's digit can be occupied (lower digits would have placed at a
    /// finer level).
    fn first_bucket_ahead(&self, level: usize) -> Option<(u64, usize)> {
        let width = SLOT_BITS * level as u32;
        let digit = (self.cur_tick >> width) & (SLOTS as u64 - 1);
        let ahead = self.occupied[level] & ((!0u64 << digit) << 1);
        if ahead == 0 {
            return None;
        }
        let slot = ahead.trailing_zeros() as usize;
        let span = (1u64 << (width + SLOT_BITS)) - 1;
        Some(((self.cur_tick & !span) | ((slot as u64) << width), slot))
    }

    /// Folds the current tick's exact head time, the far heap's, and
    /// `bucket_floor` of each level's first bucket ahead into a minimum.
    fn earliest_by(
        &self,
        bucket_floor: impl Fn(u64, &[Option<Event<M>>]) -> u64,
    ) -> Option<SimTime> {
        let buckets = (0..LEVELS).filter_map(|level| {
            let (base, slot) = self.first_bucket_ahead(level)?;
            Some(bucket_floor(base, &self.slots[level * SLOTS + slot]))
        });
        let far = self.far.peek().map(|Reverse(head)| head.at.as_nanos());
        let (head, _) = self.current_head();
        let current = (head != NO_KEY).then(|| self.key_time(head));
        current
            .into_iter()
            .chain(buckets)
            .chain(far)
            .min()
            .map(SimTime::from_nanos)
    }

    /// A cheap lower bound on the earliest stored event's time, or `None`
    /// when empty. The current tick and the far heap report exact head
    /// times; wheel buckets report their base tick (every event in a
    /// bucket fires at or after it), so the bound may undershoot by at most
    /// one bucket span. The parallel engine uses this to skip idle windows
    /// without draining anything.
    pub(crate) fn earliest_lower_bound(&self) -> Option<SimTime> {
        self.earliest_by(|base, _| base << TICK_BITS)
    }

    /// The *exact* earliest stored event time, or `None` when empty.
    ///
    /// Costs one scan of the first-ahead bucket per level (the earliest
    /// event always lives in its level's first occupied slot: any earlier
    /// slot of the same level holds only strictly earlier ticks). The
    /// parallel engine's adaptive window policy calls this at barriers so
    /// idle jumps land on the true next event instead of crawling from a
    /// coarse bucket base in lookahead-sized steps.
    pub(crate) fn earliest_event_time(&self) -> Option<SimTime> {
        self.earliest_by(|_, bucket| {
            let times = bucket.iter().flatten().map(|event| event.at.as_nanos());
            times.min().expect("an occupied bucket holds an event")
        })
    }

    /// Pops the next event with `at <= horizon`, in exact `(at, seq)`
    /// order, or `None` (leaving the cursor untouched past the horizon).
    pub(crate) fn pop_next(&mut self, horizon: SimTime) -> Option<Event<M>> {
        loop {
            // 1. The current tick replays exact order, key by key.
            let (key, from_run) = self.current_head();
            if key != NO_KEY {
                if self.key_time(key) > horizon.as_nanos() {
                    return None;
                }
                let index = key as u32 as usize;
                let event = if from_run {
                    self.run_next += 1;
                    self.run[index].take()
                } else {
                    self.late_keys.pop();
                    self.late[index].take()
                };
                self.len -= 1;
                return Some(event.expect("a pending key names a filled slot"));
            }

            // 2. Earliest occupied bucket strictly ahead of the cursor:
            //    the least base among the levels' first buckets.
            let nearest = (0..LEVELS)
                .filter_map(|level| {
                    let (base, slot) = self.first_bucket_ahead(level)?;
                    Some((base, level, slot))
                })
                .min();

            let Some((base, level, slot)) = nearest else {
                // 3. Wheels empty — pull the far heap's front window in.
                let head_at = match self.far.peek() {
                    Some(Reverse(head)) => head.at,
                    None => return None,
                };
                if head_at > horizon {
                    return None;
                }
                self.move_cursor(tick_of(head_at));
                while let Some(Reverse(head)) = self.far.peek() {
                    if (tick_of(head.at) ^ self.cur_tick) >> WHEEL_BITS != 0 {
                        break;
                    }
                    let Reverse(event) = self.far.pop().expect("peeked");
                    self.place(event);
                }
                continue;
            };

            // Nothing in the bucket can fire before its base tick; if even
            // that is past the horizon, stop without advancing the cursor
            // (keeps `cur_tick <= tick_of(now)` for future pushes).
            if base << TICK_BITS > horizon.as_nanos() {
                return None;
            }
            self.move_cursor(base);
            self.occupied[level] &= !(1u64 << slot);
            // Nobody gives up capacity: the bucket and the emptied run
            // trade places and the cascade scratch is reused, so
            // steady-state draining never allocates.
            if level == 0 {
                // A level-0 bucket holds exactly one tick: it becomes the
                // run as it lies, and one sort of its keys orders it.
                std::mem::swap(&mut self.run, &mut self.slots[slot]);
                assert!(
                    self.run.len() <= u32::MAX as usize,
                    "a tick holds < 2^32 events"
                );
                let keys = self.run.iter().enumerate().map(|(index, slot)| {
                    let event = slot.as_ref().expect("buckets store filled slots");
                    key_of(event.at.as_nanos() - (base << TICK_BITS), event.seq, index)
                });
                self.run_keys.extend(keys);
                self.run_keys.sort_unstable();
            } else {
                // Coarser bucket: re-scatter relative to the new cursor.
                let mut scratch = std::mem::take(&mut self.cascade_scratch);
                scratch.append(&mut self.slots[level * SLOTS + slot]);
                for event in scratch.drain(..).flatten() {
                    self.place(event);
                }
                self.cascade_scratch = scratch;
            }
        }
    }
}

/// Timer liveness via slot generations instead of a tombstone set.
///
/// `arm` hands out `TimerId`s packing `(generation << 32) | slot`;
/// `resolve` (called when the timer event pops) and `cancel` both bump
/// the slot's generation, so whichever happens second sees a stale id and
/// becomes a no-op. Slots recycle through a free list, so a run's live
/// timer count — not its total timer count — bounds the memory, and
/// cancelled timers of crashed or revived nodes cost nothing beyond
/// their slot flip. (The old `HashSet<TimerId>` tombstones leaked
/// whenever a cancelled timer's pop was swallowed by a halted node.)
#[derive(Debug, Default)]
pub(crate) struct TimerSlots {
    /// Current generation per slot; ids carrying an older one are dead.
    gens: Vec<u32>,
    /// Slots available for re-arming.
    free: Vec<u32>,
}

impl TimerSlots {
    pub(crate) fn new() -> Self {
        TimerSlots::default()
    }

    /// Mints a live timer id.
    pub(crate) fn arm(&mut self) -> TimerId {
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.gens.push(0);
                self.gens.len() - 1
            }
        };
        TimerId((u64::from(self.gens[slot]) << 32) | slot as u64)
    }

    /// Consumes the id: true if it was still live (the slot is freed for
    /// reuse either way once the generation matches).
    pub(crate) fn resolve(&mut self, id: TimerId) -> bool {
        let slot = (id.0 & u64::from(u32::MAX)) as usize;
        let gen = (id.0 >> 32) as u32;
        match self.gens.get_mut(slot) {
            Some(g) if *g == gen => {
                *g = g.wrapping_add(1);
                self.free.push(slot as u32);
                true
            }
            _ => false,
        }
    }

    /// Cancels a timer; a later `resolve` of the same id returns false.
    pub(crate) fn cancel(&mut self, id: TimerId) {
        self.resolve(id);
    }

    /// Slots ever allocated (== peak live timers), for leak assertions.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.gens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn ev(at_nanos: u64, seq: u64) -> Event<()> {
        Event {
            at: SimTime::from_nanos(at_nanos),
            seq,
            node: NodeId(0),
            kind: EventKind::Start,
        }
    }

    /// The old scheduler — one global `(at, seq)` heap — kept as the
    /// ordering oracle of the differential below.
    struct ClassicHeap<M> {
        heap: BinaryHeap<Reverse<Event<M>>>,
    }

    impl<M> ClassicHeap<M> {
        fn new() -> Self {
            ClassicHeap {
                heap: BinaryHeap::new(),
            }
        }

        fn push(&mut self, event: Event<M>) {
            self.heap.push(Reverse(event));
        }

        fn pop_next(&mut self, horizon: SimTime) -> Option<Event<M>> {
            match self.heap.peek() {
                Some(Reverse(head)) if head.at <= horizon => {
                    Some(self.heap.pop().expect("peeked").0)
                }
                _ => None,
            }
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    /// The wheel and its oracle, fed the same operations; every step
    /// compares everything the two report.
    struct Pair {
        wheel: TimerWheel<()>,
        heap: ClassicHeap<()>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                wheel: TimerWheel::new(),
                heap: ClassicHeap::new(),
            }
        }

        fn push(&mut self, at_nanos: u64, seq: u64) {
            self.wheel.push(ev(at_nanos, seq));
            self.heap.push(ev(at_nanos, seq));
            self.check();
        }

        /// One pop from each side: the same `(at nanos, seq)` or `None`.
        fn pop(&mut self, horizon: u64) -> Option<(u64, u64)> {
            let horizon = SimTime::from_nanos(horizon);
            let wheel = self.wheel.pop_next(horizon);
            let heap = self.heap.pop_next(horizon);
            let wheel = wheel.map(|e| (e.at.as_nanos(), e.seq));
            let heap = heap.map(|e| (e.at.as_nanos(), e.seq));
            assert_eq!(wheel, heap, "pop diverged from the oracle");
            self.check();
            wheel
        }

        fn check(&self) {
            assert_eq!(self.wheel.len(), self.heap.len());
            let exact = self.heap.heap.peek().map(|Reverse(head)| head.at);
            assert_eq!(self.wheel.earliest_event_time(), exact);
            let bound = self.wheel.earliest_lower_bound();
            assert_eq!(bound.is_some(), exact.is_some());
            assert!(bound <= exact, "lower bound {bound:?} overshoots {exact:?}");
        }
    }

    /// Drives the wheel and the classic heap through the same random
    /// script and demands the same pops and the same answers to every
    /// query after every step. The script issues every queue operation the
    /// engines do, and more: order keys arrive shuffled, tie on `at`, and
    /// mix the driver's slot with random and top-bit creator slots
    /// (`>= 1 << 63`); between two pops, events land in the tick being
    /// drained, before and behind what it still holds, and far ahead, as a
    /// dispatch that arms a timer or sends files them; drains stop at
    /// horizons in the middle of a tick and the next burst starts there.
    /// Offsets are log-uniform up to `spread_bits`, so one script reaches
    /// the drained tick, every level, and the far heap.
    fn differential(seed: u64, spread_bits: u32) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pair = Pair::new();
        let mut minted = 0u64;
        // Unique by the low 40 bits, any order by the high 24.
        let mut mint = |rng: &mut SmallRng| {
            minted += 1;
            let high = match rng.gen_range(0..3u32) {
                0 => 0,
                1 => 1 << 23,
                _ => rng.gen_range(0..1u64 << 24),
            };
            (high << 40) | minted
        };
        let offset = |rng: &mut SmallRng| {
            let bits = rng.gen_range(0..=spread_bits);
            rng.gen_range(0..1u64 << bits)
        };
        let mut now = 0u64;
        for _round in 0..200 {
            let mut burst: Vec<(u64, u64)> = Vec::new();
            for _ in 0..rng.gen_range(0..8u32) {
                let at = match burst.last() {
                    Some(&(tied, _)) if rng.gen_bool(0.3) => tied,
                    _ => now + offset(&mut rng),
                };
                burst.push((at, mint(&mut rng)));
            }
            burst.shuffle(&mut rng);
            for (at, seq) in burst {
                pair.push(at, seq);
            }
            let horizon = now + offset(&mut rng);
            while let Some((at, _)) = pair.pop(horizon) {
                now = at;
                if rng.gen_bool(0.25) {
                    let tick_end = now | ((1 << TICK_BITS) - 1);
                    pair.push(rng.gen_range(now..=tick_end), mint(&mut rng));
                }
                if rng.gen_bool(0.25) {
                    pair.push(now + offset(&mut rng), mint(&mut rng));
                }
            }
            now = now.max(horizon);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn wheel_matches_heap_for_any_insertion_order(
            seed in any::<u64>(),
            spread_bits in 0u32..=TICK_BITS + WHEEL_BITS + 6,
        ) {
            differential(seed, spread_bits);
        }
    }

    #[test]
    fn wheel_matches_heap_within_level0() {
        differential(1, TICK_BITS + 2);
    }

    #[test]
    fn wheel_matches_heap_across_levels() {
        differential(2, TICK_BITS + WHEEL_BITS - 4);
    }

    #[test]
    fn wheel_matches_heap_including_far_heap() {
        // Offsets beyond the wheel horizon exercise the far fallback.
        differential(3, TICK_BITS + WHEEL_BITS + 6);
    }

    /// The exact earliest-event query must agree with the true pending
    /// minimum at every point of a randomized push/pop interleaving —
    /// including when events sit mid-bucket in coarse levels, where the
    /// cheap lower bound undershoots. ([`Pair::check`] compares both
    /// queries with the oracle after every step.)
    #[test]
    fn earliest_event_time_matches_true_minimum() {
        differential(9, TICK_BITS + WHEEL_BITS - 2);
    }

    #[test]
    fn seq_breaks_ties_within_one_tick() {
        let mut wheel = TimerWheel::new();
        for seq in [5u64, 1, 3, 2, 4] {
            wheel.push(ev(100, seq));
        }
        let order: Vec<u64> = std::iter::from_fn(|| wheel.pop_next(SimTime::MAX))
            .map(|e| e.seq)
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn horizon_is_inclusive_and_cursor_stays_put() {
        let mut wheel = TimerWheel::new();
        wheel.push(ev(1 << 30, 0));
        assert!(wheel.pop_next(SimTime::from_nanos((1 << 30) - 1)).is_none());
        // The failed pop must not have advanced the cursor: a nearer event
        // pushed afterwards still pops first.
        wheel.push(ev(1 << 20, 1));
        let e = wheel.pop_next(SimTime::from_nanos(1 << 30)).unwrap();
        assert_eq!(e.seq, 1);
        assert_eq!(wheel.pop_next(SimTime::from_nanos(1 << 30)).unwrap().seq, 0);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn pushes_during_drain_of_same_tick_stay_ordered() {
        let mut wheel = TimerWheel::new();
        wheel.push(ev(100, 0));
        wheel.push(ev(200, 1));
        assert_eq!(wheel.pop_next(SimTime::MAX).unwrap().seq, 0);
        // Same tick as the event just popped, later seq.
        wheel.push(ev(150, 2));
        assert_eq!(wheel.pop_next(SimTime::MAX).unwrap().seq, 2);
        assert_eq!(wheel.pop_next(SimTime::MAX).unwrap().seq, 1);
    }

    /// Late arrivals live apart from the run: a tick that swells while it
    /// drains must not leave its size behind in the vectors that circulate
    /// between the buckets and the run.
    #[test]
    fn a_swollen_tick_does_not_ratchet_the_circulating_vectors() {
        const BURST: u64 = 10_000;
        const BUCKET: u64 = 8;
        let tick = 1u64 << TICK_BITS;
        let mut wheel = TimerWheel::new();
        let mut seq = 0u64..;
        let mut next = |at: u64| ev(at, seq.next().unwrap());
        // Swap a bucket in, then swell its tick while it drains.
        wheel.push(next(tick));
        assert!(wheel.pop_next(SimTime::MAX).is_some());
        for i in 0..BURST {
            wheel.push(next(tick + 1 + i));
        }
        for t in 2..202 {
            for i in 0..BUCKET {
                wheel.push(next(t * tick + i));
            }
            while wheel.pop_next(SimTime::from_nanos(t * tick - 1)).is_some() {}
        }
        while wheel.pop_next(SimTime::MAX).is_some() {}
        assert_eq!(wheel.len(), 0);
        let circulating: usize =
            wheel.run.capacity() + wheel.slots.iter().map(Vec::capacity).sum::<usize>();
        assert!(
            circulating <= (SLOTS + 1) * 4 * BUCKET as usize,
            "{circulating} slots of capacity circulate after buckets of {BUCKET}"
        );
    }

    /// Pins the rustdoc of [`TimerWheel::push`]: a debug build refuses a
    /// push behind the cursor, a release build files it at the cursor
    /// tick's first nanosecond and hands it back unchanged.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "event scheduled behind the wheel cursor")
    )]
    fn past_time_push_is_clamped_to_the_cursor() {
        let tick = 1u64 << TICK_BITS;
        let mut wheel = TimerWheel::new();
        wheel.push(ev(5 * tick + 100, 7));
        wheel.push(ev(5 * tick + 200, 3));
        assert_eq!(wheel.pop_next(SimTime::MAX).unwrap().seq, 7);
        wheel.push(ev(2 * tick + 9, 9));
        wheel.push(ev(5 * tick, 8));
        let base = SimTime::from_nanos(5 * tick);
        assert_eq!(wheel.earliest_event_time(), Some(base));
        assert_eq!(wheel.earliest_lower_bound(), Some(base));
        assert!(wheel.pop_next(SimTime::from_nanos(5 * tick - 1)).is_none());
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| wheel.pop_next(base))
            .map(|e| (e.at.as_nanos(), e.seq))
            .collect();
        assert_eq!(order, vec![(5 * tick, 8), (2 * tick + 9, 9)]);
        assert_eq!(wheel.pop_next(SimTime::MAX).unwrap().seq, 3);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn timer_slots_recycle_and_invalidate() {
        let mut slots = TimerSlots::new();
        let a = slots.arm();
        let b = slots.arm();
        assert_ne!(a, b);
        assert!(slots.resolve(a), "first resolve sees a live timer");
        assert!(!slots.resolve(a), "second resolve of the same id is dead");
        slots.cancel(b);
        assert!(!slots.resolve(b), "cancelled timer never fires");
        // The freed slots are reused with a fresh generation.
        let c = slots.arm();
        let d = slots.arm();
        assert_eq!(slots.slot_count(), 2);
        assert_ne!(c, a);
        assert_ne!(d, b);
        assert!(slots.resolve(c));
        assert!(slots.resolve(d));
    }

    #[test]
    fn timer_slots_growth_is_bounded_by_live_timers() {
        let mut slots = TimerSlots::new();
        for _ in 0..10_000 {
            let id = slots.arm();
            slots.cancel(id);
        }
        assert_eq!(slots.slot_count(), 1, "arm/cancel churn reuses one slot");
    }

    #[test]
    fn fabricated_timer_ids_are_dead() {
        let mut slots = TimerSlots::new();
        assert!(!slots.resolve(TimerId(42)), "unknown slot");
        let real = slots.arm();
        assert!(!slots.resolve(TimerId(real.0 | (7 << 32))), "wrong gen");
        assert!(slots.resolve(real));
    }
}
