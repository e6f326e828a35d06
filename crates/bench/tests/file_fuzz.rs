//! The files the suite reads, mutated: every suite scenario's `to_json()`
//! (quick and full) and the checked-in baseline artifact are truncated,
//! bit-flipped, given a duplicated member or spliced with a `\uXXXX` escape
//! (the telemetry fuzz's operators). `ScenarioSetup::from_json` and
//! `BenchArtifact::from_json` return a value or an error and never unwind,
//! and a member given twice is always an error.

#[path = "../../telemetry/tests/mutate/mod.rs"]
mod mutate;

use std::panic::{catch_unwind, AssertUnwindSafe};

use predis::experiments::ScenarioSetup;
use predis_bench::{suite, BenchArtifact};

use mutate::{mutate, DUPLICATE};

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline/BENCH_17.json");

/// Mutated copies of each document.
const CASES: u64 = 128;

type Reader = fn(&str) -> Result<(), String>;

fn read_scenario(text: &str) -> Result<(), String> {
    ScenarioSetup::from_json(text).map(drop)
}

fn read_artifact(text: &str) -> Result<(), String> {
    BenchArtifact::from_json(text).map(drop)
}

/// splitmix64: the case parameters, reproducible without a fuzz crate.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn mutated_files_read_or_fail_without_unwinding() {
    let mut docs: Vec<(String, Reader)> = [true, false]
        .into_iter()
        .flat_map(suite::scenario_points)
        .map(|p| (p.runner.to_json(), read_scenario as Reader))
        .collect();
    assert_eq!(docs.len(), 16, "the suite's scenarios, quick and full");
    let baseline = std::fs::read_to_string(BASELINE).expect("the baseline is checked in");
    docs.push((baseline, read_artifact));

    let mut state = 28;
    for (doc, read) in &docs {
        for _ in 0..CASES {
            let op = (next(&mut state) % 4) as u8;
            let at = next(&mut state) as usize;
            let bit = (next(&mut state) % 7) as u32;
            let [escape, high] = [next(&mut state) as u16, next(&mut state) as u16 % 2];
            let text = mutate(doc, op, at, bit, escape, high == 1);
            let outcome = catch_unwind(AssertUnwindSafe(|| read(&text)));
            let Ok(read) = outcome else {
                panic!("the reader unwound on {text:?}");
            };
            // Both files are written pretty, so a changed text is a duplicate.
            if op == DUPLICATE && text != *doc {
                assert!(read.is_err(), "a duplicate was read: {text}");
            }
        }
    }
}

#[test]
fn the_baseline_reads_and_writes_back_byte_for_byte() {
    let text = std::fs::read_to_string(BASELINE).expect("the baseline is checked in");
    let artifact = BenchArtifact::read(BASELINE).expect("the baseline reads");
    assert_eq!(artifact.runs.len(), 97);
    assert!(
        artifact.to_json() == text,
        "the baseline wrote back different bytes"
    );
}
