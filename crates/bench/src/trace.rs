//! Trace forensics: parsing captured event streams, exporting them as
//! Chrome-trace/Perfetto JSON, and locating the first divergence between
//! two captures.
//!
//! The simulation engine (with `PREDIS_TRACE_DIR` set) streams every
//! canonical dispatch event as one JSONL line — see
//! `predis_sim::TraceCapture` — and writes a `<stem>.timelines.jsonl`
//! sidecar with per-bundle lifecycle stamps. This module is the read side:
//!
//! - [`TraceRecord`] parses one capture line back into typed fields.
//! - [`export_chrome_trace`] converts a capture (plus the optional bundle
//!   timelines sidecar) into the Trace Event Format that
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//!   directly: each simulated node becomes a track of instant events, and
//!   each bundle's pipeline stages become duration spans.
//! - [`first_divergence`] walks two captures in lockstep and reports the
//!   first event where they disagree, with surrounding context — the tool
//!   `compare_bench` points at when trace fingerprints mismatch.

use std::collections::BTreeSet;
use std::io::{self, BufRead};

use predis_telemetry::json::{record, Json, Ordered, Shape};

/// One canonical dispatch event parsed back from a capture line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of dispatch, in nanoseconds.
    pub t: u64,
    /// The event's order key (total order within one instant): fixed by
    /// whoever created the event, `creator << 40 | creator's counter`, with
    /// creator 0 the driver and creator `i + 1` node `i`.
    pub seq: u64,
    /// Node the event was dispatched on.
    pub node: u32,
    /// Canonical kind: `start`/`deliver`/`timer`/`crash`/`revive`.
    pub kind: String,
    /// Sending node, for `deliver` events.
    pub from: Option<u32>,
    /// Estimated wire bytes, for `deliver` events (0 otherwise).
    pub bytes: u64,
    /// Timer tag `(kind, a, b)`, for `timer` events.
    pub tag: Option<[u64; 3]>,
}

// The capture writer (`predis_sim::TraceCapture::record`) writes the same
// members in the same order, by hand: it is on the dispatch path.
record!(TraceRecord {
    t,
    seq,
    node,
    kind,
    #[optional]
    from,
    bytes,
    #[optional]
    tag,
});

impl TraceRecord {
    /// Parses one capture JSONL line.
    pub fn parse(line: &str) -> Result<TraceRecord, String> {
        Shape::from_json(&Json::parse(line)?)
    }

    /// Human-oriented one-line rendering for diff output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "t={:.6}ms seq={} node={} {}",
            self.t as f64 / 1e6,
            self.seq,
            self.node,
            self.kind
        );
        if let Some(f) = self.from {
            out.push_str(&format!(" from={f}"));
        }
        if self.bytes != 0 {
            out.push_str(&format!(" bytes={}", self.bytes));
        }
        if let Some(tag) = self.tag {
            out.push_str(&format!(" tag=[{},{},{}]", tag[0], tag[1], tag[2]));
        }
        out
    }
}

/// One bundle's lifecycle stamps from a `.timelines.jsonl` sidecar (the
/// writer is `predis_telemetry::Timelines::write_jsonl`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleRow {
    /// Producing node.
    pub producer: u32,
    /// Chain (zone) the bundle belongs to.
    pub chain: u32,
    /// Height within the chain.
    pub height: u64,
    /// `(stage name, nanos)` stamps in pipeline order, recorded stages only.
    pub stages: Ordered<u64>,
}

record!(BundleRow {
    producer,
    chain,
    height,
    stages
});

/// Parses a bundle-timelines sidecar (one JSON object per line).
pub fn parse_timelines_jsonl(text: &str) -> Result<Vec<BundleRow>, String> {
    (text.lines().filter(|line| !line.trim().is_empty()))
        .map(|line| Shape::from_json(&Json::parse(line)?))
        .collect()
}

/// What [`export_chrome_trace`] actually wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportStats {
    /// Instant events emitted (one per trace record, up to the limit).
    pub events: usize,
    /// Trace records dropped because the limit was hit.
    pub dropped: usize,
    /// Bundle pipeline spans emitted.
    pub spans: usize,
}

/// Converts a captured event stream plus optional bundle timelines into a
/// Chrome Trace Event Format document (`{"traceEvents": [...]}`).
///
/// Layout: pid 0 holds one track (tid) per simulated node carrying instant
/// events for every dispatch; pid 1 holds one track per chain carrying a
/// duration span per adjacent recorded stage pair of every bundle. All
/// timestamps are microseconds of virtual time, so the viewer's timeline is
/// the simulation clock, not wall time.
///
/// At most `limit` instant events are emitted (viewers choke on multi-
/// million-event files); the drop count is reported in [`ExportStats`] and
/// a trailing metadata event so truncation is visible inside the viewer too.
pub fn export_chrome_trace(
    records: &[TraceRecord],
    bundles: &[BundleRow],
    limit: usize,
) -> (Json, ExportStats) {
    let us = |ns: u64| Json::F64(ns as f64 / 1000.0);
    let mut events: Vec<Json> = Vec::new();
    let mut stats = ExportStats {
        events: 0,
        dropped: 0,
        spans: 0,
    };

    // Process/track naming first, so viewers label everything up front.
    events.push(meta_event(
        "process_name",
        0,
        None,
        vec![("name".into(), Json::Str("simulated nodes".into()))],
    ));
    if !bundles.is_empty() {
        events.push(meta_event(
            "process_name",
            1,
            None,
            vec![("name".into(), Json::Str("bundle lifecycle".into()))],
        ));
    }
    let nodes: BTreeSet<u32> = records.iter().map(|r| r.node).collect();
    for node in &nodes {
        events.push(meta_event(
            "thread_name",
            0,
            Some(u64::from(*node)),
            vec![("name".into(), Json::Str(format!("node {node}")))],
        ));
    }
    let chains: BTreeSet<u32> = bundles.iter().map(|b| b.chain).collect();
    for chain in &chains {
        events.push(meta_event(
            "thread_name",
            1,
            Some(u64::from(*chain)),
            vec![("name".into(), Json::Str(format!("chain {chain}")))],
        ));
    }

    // One instant event per dispatched event, up to the limit.
    for r in records {
        if stats.events >= limit {
            stats.dropped += 1;
            continue;
        }
        stats.events += 1;
        let mut args = vec![("seq".into(), Json::U64(r.seq))];
        if let Some(f) = r.from {
            args.push(("from".into(), Json::U64(u64::from(f))));
        }
        if r.bytes != 0 {
            args.push(("bytes".into(), Json::U64(r.bytes)));
        }
        if let Some(tag) = r.tag {
            args.push(("tag".into(), tag.to_json()));
        }
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(r.kind.clone())),
            ("ph".into(), Json::Str("i".into())),
            ("ts".into(), us(r.t)),
            ("pid".into(), Json::U64(0)),
            ("tid".into(), Json::U64(u64::from(r.node))),
            ("s".into(), Json::Str("t".into())),
            ("args".into(), Json::Obj(args)),
        ]));
    }

    // One span per adjacent recorded stage pair of every bundle.
    for b in bundles {
        for pair in b.stages.0.windows(2) {
            let (ref from_stage, start) = pair[0];
            let (ref to_stage, end) = pair[1];
            if end < start {
                continue;
            }
            stats.spans += 1;
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(format!("{from_stage}→{to_stage}"))),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), us(start)),
                ("dur".into(), us(end - start)),
                ("pid".into(), Json::U64(1)),
                ("tid".into(), Json::U64(u64::from(b.chain))),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("producer".into(), Json::U64(u64::from(b.producer))),
                        ("height".into(), Json::U64(b.height)),
                    ]),
                ),
            ]));
        }
    }

    if stats.dropped > 0 {
        events.push(meta_event(
            "truncated",
            0,
            None,
            vec![("dropped_events".into(), Json::U64(stats.dropped as u64))],
        ));
    }

    let doc = Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ]);
    (doc, stats)
}

fn meta_event(name: &str, pid: u64, tid: Option<u64>, args: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::U64(pid)),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid".into(), Json::U64(tid)));
    }
    pairs.push(("args".into(), Json::Obj(args)));
    Json::Obj(pairs)
}

/// Reads a whole capture file into records (use for export; the diff path
/// streams instead).
pub fn read_trace(path: &std::path::Path) -> io::Result<Vec<TraceRecord>> {
    let file = std::fs::File::open(path)?;
    let mut records = Vec::new();
    for (i, line) in io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(TraceRecord::parse(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), i + 1),
            )
        })?);
    }
    Ok(records)
}

/// The first point where two captures disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index of the first differing event.
    pub index: usize,
    /// The last `context` shared events before the divergence (rendered).
    pub common: Vec<String>,
    /// Up to `context` events of trace A from the divergence on (rendered);
    /// empty if A ended first.
    pub a: Vec<String>,
    /// Same for trace B.
    pub b: Vec<String>,
}

impl Divergence {
    /// Multi-line human-readable report.
    pub fn render(&self, name_a: &str, name_b: &str) -> String {
        let mut out = format!("first divergence at event {}\n", self.index);
        if !self.common.is_empty() {
            out.push_str("shared prefix ends with:\n");
            for line in &self.common {
                out.push_str(&format!("    {line}\n"));
            }
        }
        for (name, side) in [(name_a, &self.a), (name_b, &self.b)] {
            out.push_str(&format!("{name}:\n"));
            if side.is_empty() {
                out.push_str("    <end of trace>\n");
            }
            for (i, line) in side.iter().enumerate() {
                let marker = if i == 0 { ">>> " } else { "    " };
                out.push_str(&format!("{marker}{line}\n"));
            }
        }
        out
    }
}

/// Streams two captures in lockstep and returns the first divergence with
/// ±`context` events of context, or `Ok(None)` if they are identical.
/// Memory is O(`context`) regardless of trace length.
pub fn first_divergence<A: BufRead, B: BufRead>(
    a: A,
    b: B,
    context: usize,
) -> io::Result<Option<Divergence>> {
    let mut lines_a = a.lines();
    let mut lines_b = b.lines();
    let mut common: std::collections::VecDeque<String> = std::collections::VecDeque::new();
    let mut index = 0usize;
    loop {
        let la = lines_a.next().transpose()?;
        let lb = lines_b.next().transpose()?;
        match (la, lb) {
            (None, None) => return Ok(None),
            (la, lb) if la == lb => {
                // Identical line on both sides; slide the context window.
                if common.len() == context {
                    common.pop_front();
                }
                if context > 0 {
                    common.push_back(render_line(&la.unwrap()));
                }
                index += 1;
            }
            (la, lb) => {
                let take =
                    |first: Option<String>, rest: &mut dyn Iterator<Item = io::Result<String>>| {
                        let mut side: Vec<String> = Vec::new();
                        if let Some(line) = first {
                            side.push(render_line(&line));
                            for line in rest.take(context.saturating_sub(1)) {
                                match line {
                                    Ok(l) => side.push(render_line(&l)),
                                    Err(_) => break,
                                }
                            }
                        }
                        side
                    };
                return Ok(Some(Divergence {
                    index,
                    common: common.into_iter().collect(),
                    a: take(la, &mut lines_a),
                    b: take(lb, &mut lines_b),
                }));
            }
        }
    }
}

/// Renders a capture line for humans, falling back to the raw text when it
/// does not parse (so the diff still shows *something* on corrupt input).
fn render_line(line: &str) -> String {
    match TraceRecord::parse(line) {
        Ok(r) => r.render(),
        Err(_) => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: &str = concat!(
        "{\"t\":0,\"seq\":0,\"node\":0,\"kind\":\"start\",\"bytes\":0}\n",
        "{\"t\":1000000,\"seq\":7,\"node\":2,\"kind\":\"deliver\",\"from\":1,\"bytes\":512}\n",
        "{\"t\":2000000,\"seq\":9,\"node\":1,\"kind\":\"timer\",\"bytes\":0,\"tag\":[3,4,5]}\n",
    );

    #[test]
    fn trace_record_parses_all_shapes() {
        let records: Vec<TraceRecord> = LINES
            .lines()
            .map(|l| TraceRecord::parse(l).unwrap())
            .collect();
        assert_eq!(records[0].kind, "start");
        assert_eq!(records[0].from, None);
        assert_eq!(records[1].from, Some(1));
        assert_eq!(records[1].bytes, 512);
        assert_eq!(records[2].tag, Some([3, 4, 5]));
        assert!(records[1].render().contains("deliver from=1 bytes=512"));
    }

    /// A node id past `u32` is an error naming the member, not node 0.
    #[test]
    fn a_capture_line_with_a_wide_id_is_a_located_error() {
        let wide = u64::from(u32::MAX) + 1;
        for (member, line) in [
            (
                "node",
                LINES
                    .lines()
                    .next()
                    .unwrap()
                    .replace("\"node\":0", &format!("\"node\":{wide}")),
            ),
            (
                "from",
                LINES
                    .lines()
                    .nth(1)
                    .unwrap()
                    .replace("\"from\":1", &format!("\"from\":{wide}")),
            ),
        ] {
            let err = TraceRecord::parse(&line).unwrap_err();
            assert_eq!(err, format!("`{member}`: not a u32"), "{line}");
        }
    }

    #[test]
    fn a_timelines_line_with_a_wide_id_is_a_located_error() {
        let wide = u64::from(u32::MAX) + 1;
        for (member, line) in [
            (
                "producer",
                format!(r#"{{"producer":{wide},"chain":1,"height":3,"stages":{{}}}}"#),
            ),
            (
                "chain",
                format!(r#"{{"producer":0,"chain":{wide},"height":3,"stages":{{}}}}"#),
            ),
        ] {
            let err = parse_timelines_jsonl(&line).unwrap_err();
            assert_eq!(err, format!("`{member}`: not a u32"), "{line}");
        }
    }

    #[test]
    fn export_builds_valid_trace_event_json() {
        let records: Vec<TraceRecord> = LINES
            .lines()
            .map(|l| TraceRecord::parse(l).unwrap())
            .collect();
        let bundles = parse_timelines_jsonl(
            "{\"producer\":0,\"chain\":1,\"height\":3,\"stages\":{\"produced\":1000,\"multicast\":3000,\"committed\":9000}}\n",
        )
        .unwrap();
        let (doc, stats) = export_chrome_trace(&records, &bundles, 100);
        assert_eq!(stats.events, 3);
        assert_eq!(stats.dropped, 0);
        // produced→multicast and multicast→committed.
        assert_eq!(stats.spans, 2);
        // The document must itself be parseable JSON with a traceEvents array.
        let back = Json::parse(&doc.to_pretty_string()).unwrap();
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 process names + 3 node tracks + 1 chain track + 3 instants + 2 spans.
        assert_eq!(events.len(), 11);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(
            span.get("name").and_then(Json::as_str),
            Some("produced→multicast")
        );
        assert_eq!(span.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn export_limit_drops_and_flags_excess_events() {
        let records: Vec<TraceRecord> = LINES
            .lines()
            .map(|l| TraceRecord::parse(l).unwrap())
            .collect();
        let (doc, stats) = export_chrome_trace(&records, &[], 2);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.dropped, 1);
        let text = doc.to_pretty_string();
        assert!(text.contains("truncated"), "{text}");
        assert!(text.contains("dropped_events"), "{text}");
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let d = first_divergence(LINES.as_bytes(), LINES.as_bytes(), 3).unwrap();
        assert_eq!(d, None);
    }

    #[test]
    fn first_divergence_reports_index_and_context() {
        let altered = LINES.replace("\"bytes\":512", "\"bytes\":513");
        let d = first_divergence(LINES.as_bytes(), altered.as_bytes(), 2)
            .unwrap()
            .expect("must diverge");
        assert_eq!(d.index, 1);
        assert_eq!(d.common.len(), 1); // only one shared event before it
        assert!(d.a[0].contains("bytes=512"), "{:?}", d.a);
        assert!(d.b[0].contains("bytes=513"), "{:?}", d.b);
        let report = d.render("a.jsonl", "b.jsonl");
        assert!(report.contains("first divergence at event 1"), "{report}");
        assert!(report.contains(">>> "), "{report}");
    }

    #[test]
    fn truncated_trace_diverges_at_missing_event() {
        let shorter: String = LINES.lines().take(2).collect::<Vec<_>>().join("\n") + "\n";
        let d = first_divergence(LINES.as_bytes(), shorter.as_bytes(), 5)
            .unwrap()
            .expect("must diverge");
        assert_eq!(d.index, 2);
        assert!(!d.a.is_empty());
        assert!(d.b.is_empty());
        assert!(d.render("a", "b").contains("<end of trace>"));
    }
}
