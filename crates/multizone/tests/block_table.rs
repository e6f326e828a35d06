//! Differential test of [`BlockTable`] against a `BTreeMap` model: the
//! table must answer every per-block question like a map of plain records,
//! walk pending blocks in ascending order and expire unannounced blocks in
//! ascending order — the two orders a run's fingerprint depends on — for
//! random-digest and sequential ids alike, across growth, compaction,
//! retirement and re-touch of the same id, and with bundle indices high
//! enough to leave the inline bundle.

use std::collections::{BTreeMap, BTreeSet};

use predis_multizone::dense::{BlockEntry, BlockTable, MAX_STRIPES};
use predis_sim::{SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Default)]
struct ModelSlot {
    stripes: BTreeMap<u32, BTreeSet<u32>>,
    decoded: BTreeSet<u32>,
    pulls: BTreeMap<u32, u32>,
    pending: Option<(u32, SimTime)>,
    touched: Option<SimTime>,
    size: u64,
    hint: Option<u32>,
    done: bool,
}

impl ModelSlot {
    fn first_touch(&self) -> Option<SimTime> {
        self.touched.filter(|_| self.pending.is_none())
    }

    fn all_decoded(&self) -> bool {
        self.stripes.keys().all(|idx| self.decoded.contains(idx))
    }

    fn holds_all_stripes(&self, n_c: u32) -> bool {
        let top = self.stripes.keys().next_back().copied().unwrap_or(0);
        (0..=top).all(|idx| self.stripes.get(&idx).map_or(0, BTreeSet::len) as u32 >= n_c)
    }
}

/// Ids as the consensus duty mints them: `bundle.hash().to_u64()`.
fn digest(n: u64) -> u64 {
    predis_crypto::Hash::digest(&n.to_le_bytes()).to_u64()
}

const EXPIRY: SimDuration = SimDuration::from_millis(40);

fn same_slot(got: Option<&BlockEntry>, want: Option<&ModelSlot>, idx: u32) -> Result<(), String> {
    let (Some(got), Some(want)) = (got, want) else {
        return match (got.is_some(), want.is_some()) {
            (false, false) => Ok(()),
            (got, want) => Err(format!("tracked: table {got}, model {want}")),
        };
    };
    // (pending, ann_at, first_touch, decoded, all_decoded, holds_all at
    // n_c 1 and 4, size, hint, done)
    let table = (
        got.pending(),
        got.ann_at(),
        got.first_touch(),
        got.is_decoded(idx),
        got.all_decoded(),
        [1, 4].map(|n_c| got.holds_all_stripes(n_c)),
        got.size(),
        got.hint(),
        got.is_done(),
    );
    let model = (
        want.pending.map(|(bundles, _)| bundles),
        want.pending.map(|(_, at)| at),
        want.first_touch(),
        want.decoded.contains(&idx),
        want.all_decoded(),
        [1, 4].map(|n_c| want.holds_all_stripes(n_c)),
        want.size,
        want.hint,
        want.done,
    );
    if table == model {
        Ok(())
    } else {
        Err(format!("table: {table:?}\nmodel: {model:?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_matches_btreemap_model(
        ops in proptest::collection::vec(any::<u64>(), 200..4000),
        pool in 64u64..700,
        digests in 0u8..2,
    ) {
        let mut table = BlockTable::new();
        let mut model: BTreeMap<u64, ModelSlot> = BTreeMap::new();
        let mut peak = 0;
        for (step, &word) in ops.iter().enumerate() {
            let now = SimTime::from_millis(step as u64);
            let n = (word >> 4) % pool;
            let block = if digests == 1 { digest(n) } else { n };
            let idx = match (word >> 20) % 4 {
                0 => ((word >> 24) % 201) as u32,
                _ => 0,
            };
            let arg = ((word >> 40) % (MAX_STRIPES as u64 + 2)) as u32;
            // The node never mutates a done block (it checks `is_done`
            // first), so neither does the test.
            let done = model.get(&block).is_some_and(|slot| slot.done);
            match word % 16 {
                0..=5 if !done => {
                    let got = table.entry(block);
                    got.note_touch(now);
                    let want = model.entry(block).or_default();
                    want.touched.get_or_insert(now);
                    let count = ((arg as usize) < MAX_STRIPES).then(|| {
                        let held = want.stripes.entry(idx).or_default();
                        held.insert(arg).then_some(held.len() as u32)
                    });
                    prop_assert_eq!(got.add_stripe(idx, arg), count.flatten());
                }
                6 if !done => {
                    let got = table.entry(block);
                    let want = model.entry(block).or_default();
                    prop_assert_eq!(got.mark_decoded(idx), want.decoded.insert(idx));
                    got.add_size(arg as u64);
                    want.size += arg as u64;
                    got.note_hint(arg);
                    want.hint.get_or_insert(arg);
                }
                7 if !done => {
                    let pulls = model.entry(block).or_default().pulls.entry(idx).or_default();
                    *pulls = (*pulls + 1).min(255);
                    prop_assert_eq!(table.entry(block).bump_pull(idx), *pulls);
                }
                8 => {
                    table.set_pending(block, arg, now);
                    let want = model.entry(block).or_default();
                    if !want.done {
                        want.pending = Some((arg, now));
                    }
                }
                9 | 10 => {
                    table.retire(block);
                    model.remove(&block);
                }
                11 => {
                    let want = model.entry(block).or_default();
                    prop_assert_eq!(table.complete(block), !want.done);
                    *want = ModelSlot {
                        size: want.size,
                        hint: want.hint,
                        done: true,
                        ..Default::default()
                    };
                }
                12 if !done => {
                    table.entry(block).set_size(word >> 8);
                    model.entry(block).or_default().size = word >> 8;
                }
                13 => table.compact(),
                _ => {}
            }
            if let Err(diff) = same_slot(table.get(block), model.get(&block), idx) {
                return Err(TestCaseError::fail(format!("step {step}, block {block}: {diff}")));
            }
            let tracked = model.values().filter(|slot| !slot.done).count();
            prop_assert_eq!(table.live_len(), tracked);
            peak = peak.max(tracked);
            if word % 64 != 63 && step + 1 != ops.len() {
                continue;
            }
            // The two observable orders, and every slot.
            let pending: Vec<u64> = table.pending_iter().map(|(block, _)| block).collect();
            let want: Vec<u64> = model
                .iter()
                .filter(|(_, slot)| slot.pending.is_some())
                .map(|(&block, _)| block)
                .collect();
            prop_assert_eq!(table.pending_count(), want.len());
            prop_assert_eq!(pending, want);
            let stale = |touch: Option<SimTime>| {
                touch.is_some_and(|t| now.saturating_since(t) >= EXPIRY)
            };
            let mut expired: Vec<u64> = table
                .iter()
                .filter(|(_, slot)| stale(slot.first_touch()))
                .map(|(block, _)| block)
                .collect();
            expired.sort_unstable();
            let want: Vec<u64> = model
                .iter()
                .filter(|(_, slot)| !slot.done && stale(slot.first_touch()))
                .map(|(&block, _)| block)
                .collect();
            prop_assert_eq!(expired, want);
            for (&block, want) in &model {
                if let Err(diff) = same_slot(table.get(block), Some(want), 0) {
                    let at = format!("sweep at {step}, block {block}");
                    return Err(TestCaseError::fail(format!("{at}: {diff}")));
                }
            }
        }
        // Every case grows the table through 2, 4, 7, 12, 19 and 30 slots,
        // the largest through 400+ blocks.
        prop_assert!(peak >= 30, "peak {}", peak);
    }
}
