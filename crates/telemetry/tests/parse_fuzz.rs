//! Mutation fuzz of the JSON codec. Run reports and the JSON module's
//! round-trip samples are truncated, bit-flipped, given a duplicated key or
//! spliced with a `\uXXXX` escape; `Json::parse` and `RunReport::from_json`
//! must return — a value or an error — and never unwind, and a report with
//! a member given twice is an error.

mod mutate;

use std::panic::{catch_unwind, AssertUnwindSafe};

use predis_telemetry::{
    BundleKey, Counters, Json, Labels, LogHistogram, RunReport, Stage, Timelines,
};
use proptest::prelude::*;

use mutate::{mutate, DUPLICATE};

/// A report with counters, histograms, stage timelines and text that is
/// not plain ASCII.
fn report_text() -> String {
    let mut counters = Counters::new();
    counters.incr("mempool.tip_updates", Labels::node(0).and_chain(1), 17);
    counters.incr("zone.stripe_sends", Labels::zone(2), 400);
    counters.incr("net.messages", Labels::GLOBAL, 3);
    let mut lat = LogHistogram::new();
    for v in [1_000_000u64, 2_000_000, 40_000_000] {
        lat.record(v);
    }
    let mut timelines = Timelines::default();
    for height in 0..3u64 {
        let key = BundleKey {
            producer: 1,
            chain: 1,
            height,
        };
        timelines.mark(key, Stage::Produced, height * 1_000_000);
        timelines.mark(key, Stage::Committed, height * 1_000_000 + 900_000);
    }
    let mut report = RunReport::new("fuzz-λ∞").with_meta("note", "tab\there, quote \" é");
    report.set_metric("throughput_tps", 12_345.5);
    report.add_counters(&counters);
    report.add_histogram("client_latency", &lat);
    report.add_timelines(&timelines);
    report.to_json()
}

/// The documents every case mutates: a report, and the JSON module's
/// round-trip samples.
fn documents() -> Vec<String> {
    let samples = Json::Obj(vec![
        ("name".into(), Json::Str("fig8".into())),
        (
            "values".into(),
            Json::Arr(vec![
                Json::U64(1),
                Json::F64(2.25),
                Json::Null,
                Json::I64(-42),
            ]),
        ),
        (
            "flags".into(),
            Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
        ),
        (
            "text".into(),
            Json::Str("a \"quote\"\nnewline\ttab \\slash λ∞ \u{1}".into()),
        ),
        ("empty_arr".into(), Json::Arr(vec![])),
        ("empty_obj".into(), Json::Obj(vec![])),
    ]);
    vec![
        report_text(),
        samples.to_string(),
        samples.to_pretty_string(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_documents_parse_or_fail_without_unwinding(
        which in 0usize..3,
        op in 0u8..4,
        at in any::<usize>(),
        bit in 0u32..7,
        escape in any::<u16>(),
        high in proptest::bool::ANY,
    ) {
        let docs = documents();
        let text = mutate(&docs[which], op, at, bit, escape, high);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = Json::parse(&text);
            RunReport::from_json(&text)
        }));
        prop_assert!(outcome.is_ok(), "the parser unwound on {text:?}");
        // The report is written pretty, so a changed text is a duplicate.
        if which == 0 && op == DUPLICATE && text != docs[0] {
            prop_assert!(outcome.unwrap().is_err(), "a duplicate was read: {text:?}");
        }
    }
}

#[test]
fn unmutated_documents_round_trip() {
    for doc in documents() {
        let v = Json::parse(&doc).expect("valid");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
    let text = report_text();
    assert_eq!(RunReport::from_json(&text).unwrap().to_json(), text);
}
