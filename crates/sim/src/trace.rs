//! Event tracing: trace forensics for the deterministic engine.
//!
//! Two observers share the one canonical event stream
//! (`(time, seq, node, kind, from, bytes, tag)`):
//!
//! * [`TraceDigest`] — an always-on O(1)-memory streaming fingerprint folded
//!   over *every* event the engine pops, finalized as a 128-bit hex string.
//!   Two runs with equal fingerprints processed byte-identical event
//!   streams; this is strictly stronger than comparing end-of-run metrics.
//! * [`TraceCapture`] — an optional full capture streaming one JSON line per
//!   event to disk, the input to the `trace_export` (Perfetto) and
//!   `trace_diff` (first-divergence) tools. Enable with
//!   [`crate::engine::Sim::enable_capture`] or the `PREDIS_TRACE_DIR`
//!   environment variable.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};

use crate::actor::{NodeId, TimerTag};

/// Canonical event-kind names of the digest/capture stream, indexed by the
/// kind code the engine folds (start=0, deliver=1, timer=2, crash=3,
/// revive=4).
pub const CANON_KINDS: [&str; 5] = ["start", "deliver", "timer", "crash", "revive"];

/// The canonical tuple of one dispatched event, built once per pop and
/// handed to every observer (digest, capture).
#[derive(Debug, Clone, Copy)]
pub struct CanonEvent {
    /// Virtual dispatch time in nanoseconds.
    pub at_nanos: u64,
    /// Global scheduling sequence number.
    pub seq: u64,
    /// Dispatching node.
    pub node: u32,
    /// Kind code (index into [`CANON_KINDS`]).
    pub kind: u64,
    /// Sender, for deliveries.
    pub from: Option<NodeId>,
    /// Estimated wire bytes, for deliveries (0 otherwise).
    pub bytes: u64,
    /// Timer tag, for timer firings.
    pub tag: Option<TimerTag>,
}

/// An always-on streaming fingerprint of the canonical event stream.
///
/// Every event the engine pops is folded as a fixed sequence of `u64` words
/// through a two-lane multiply–rotate–xor mix (constants from the
/// SplitMix64/Murmur3 family). The state is 24 bytes regardless of run
/// length, folding costs a few nanoseconds per event, and the final
/// [`TraceDigest::fingerprint`] avalanches both lanes so single-bit
/// perturbations of any field of any event flip the rendered hex.
///
/// The mix is hand-rolled and fully deterministic: no `DefaultHasher`
/// (unspecified across Rust releases), no platform dependence, so
/// fingerprints are comparable across machines and CI runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDigest {
    lo: u64,
    hi: u64,
    count: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            lo: 0x9e37_79b9_7f4a_7c15,
            hi: 0xc2b2_ae3d_27d4_eb4f,
            count: 0,
        }
    }
}

fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl TraceDigest {
    /// Folds one word into both lanes.
    #[inline]
    fn mix(&mut self, w: u64) {
        self.lo = (self.lo ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
        self.hi = (self.hi ^ self.lo)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(31);
    }

    /// Folds one canonical event.
    #[inline]
    pub fn fold_event(&mut self, e: &CanonEvent) {
        self.count += 1;
        self.mix(e.at_nanos);
        self.mix(e.seq);
        self.mix(u64::from(e.node) ^ (e.kind << 32));
        // Sentinel 0 for "no sender" keeps NodeId(0) distinguishable.
        self.mix(e.from.map(|n| u64::from(n.0) + 1).unwrap_or(0));
        self.mix(e.bytes);
        match e.tag {
            Some(t) => {
                self.mix(u64::from(t.kind) | (1 << 63));
                self.mix(t.a);
                self.mix(t.b);
            }
            None => {
                self.mix(0);
                self.mix(0);
                self.mix(0);
            }
        }
    }

    /// Events folded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The finalized fingerprint as 32 lowercase hex chars.
    ///
    /// Finalization copies the state, so the digest can keep folding — the
    /// fingerprint is a pure function of the events folded so far.
    pub fn fingerprint(&self) -> String {
        let mut d = self.clone();
        d.mix(d.count);
        let lo = avalanche(d.lo ^ d.hi.rotate_left(17));
        let hi = avalanche(d.hi ^ lo);
        format!("{lo:016x}{hi:016x}")
    }
}

/// A full event capture streaming one JSON line per canonical event.
///
/// Lines are hand-formatted (deterministic field order, no float formatting)
/// so captures of identical runs are byte-identical and diffable with
/// `trace_diff`. Write errors are latched and reported at
/// [`TraceCapture::finish`] rather than panicking mid-run.
#[derive(Debug)]
pub struct TraceCapture {
    writer: BufWriter<File>,
    path: PathBuf,
    events: u64,
    failed: Option<io::Error>,
}

impl TraceCapture {
    /// Starts a capture at `path`, creating parent directories.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<TraceCapture> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(TraceCapture {
            writer: BufWriter::new(File::create(&path)?),
            path,
            events: 0,
            failed: None,
        })
    }

    #[inline]
    pub(crate) fn record(&mut self, e: &CanonEvent) {
        if self.failed.is_some() {
            return;
        }
        self.events += 1;
        let res = (|| -> io::Result<()> {
            write!(
                self.writer,
                "{{\"t\":{},\"seq\":{},\"node\":{},\"kind\":\"{}\"",
                e.at_nanos, e.seq, e.node, CANON_KINDS[e.kind as usize]
            )?;
            if let Some(f) = e.from {
                write!(self.writer, ",\"from\":{}", f.0)?;
            }
            write!(self.writer, ",\"bytes\":{}", e.bytes)?;
            if let Some(t) = e.tag {
                write!(self.writer, ",\"tag\":[{},{},{}]", t.kind, t.a, t.b)?;
            }
            self.writer.write_all(b"}\n")
        })();
        if let Err(err) = res {
            self.failed = Some(err);
        }
    }

    /// Where the capture is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flushes and closes the capture, returning its path (or the first
    /// write error encountered).
    pub fn finish(mut self) -> io::Result<PathBuf> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal canonical event for digest tests.
    fn bare(at_nanos: u64, seq: u64) -> CanonEvent {
        CanonEvent {
            at_nanos,
            seq,
            node: 0,
            kind: 1,
            from: None,
            bytes: 8,
            tag: None,
        }
    }

    fn canon_stream() -> Vec<CanonEvent> {
        (0..8u64)
            .map(|i| CanonEvent {
                at_nanos: 1_000_000 * i,
                seq: i,
                node: (i % 3) as u32,
                kind: i % 5,
                from: Some(NodeId((i % 2) as u32)),
                bytes: 64 + i,
                tag: Some(TimerTag::new(i as u32, i * 7, i * 13)),
            })
            .collect()
    }

    fn digest_of(events: &[CanonEvent]) -> String {
        let mut d = TraceDigest::default();
        for e in events {
            d.fold_event(e);
        }
        d.fingerprint()
    }

    #[test]
    fn fingerprint_is_deterministic_across_reruns() {
        let events = canon_stream();
        assert_eq!(digest_of(&events), digest_of(&events));
        assert_eq!(digest_of(&events).len(), 32);
        assert_ne!(digest_of(&events), digest_of(&[]));
        // Finalization is a pure function of the folded prefix: rendering
        // the fingerprint does not disturb further folding.
        let mut d = TraceDigest::default();
        d.fold_event(&bare(1, 1));
        let early = d.fingerprint();
        assert_eq!(early, d.fingerprint());
        d.fold_event(&bare(2, 2));
        assert_ne!(early, d.fingerprint());
    }

    #[test]
    fn fingerprint_changes_when_any_single_field_is_perturbed() {
        let base = canon_stream();
        let reference = digest_of(&base);
        // Each mutation tweaks exactly one field of one event.
        type Mutator = fn(&mut CanonEvent);
        let mutators: Vec<(&str, Mutator)> = vec![
            ("at", |e| e.at_nanos += 1),
            ("seq", |e| e.seq += 1),
            ("node", |e| e.node += 1),
            ("kind", |e| e.kind = (e.kind + 1) % 5),
            ("from-value", |e| {
                e.from = Some(NodeId(e.from.unwrap().0 + 1))
            }),
            ("from-absent", |e| e.from = None),
            ("bytes", |e| e.bytes += 1),
            ("tag-a", |e| {
                let t = e.tag.unwrap();
                e.tag = Some(TimerTag::new(t.kind, t.a + 1, t.b));
            }),
            ("tag-b", |e| {
                let t = e.tag.unwrap();
                e.tag = Some(TimerTag::new(t.kind, t.a, t.b + 1));
            }),
            ("tag-absent", |e| e.tag = None),
        ];
        for idx in 0..base.len() {
            for (name, m) in &mutators {
                let mut perturbed = base.clone();
                m(&mut perturbed[idx]);
                assert_ne!(
                    digest_of(&perturbed),
                    reference,
                    "perturbing {name} of event {idx} must change the fingerprint"
                );
            }
            let mut perturbed = base.clone();
            let t = perturbed[idx].tag.unwrap();
            perturbed[idx].tag = Some(TimerTag::new(t.kind + 1, t.a, t.b));
            assert_ne!(
                digest_of(&perturbed),
                reference,
                "perturbing tag kind of event {idx} must change the fingerprint"
            );
        }
        // Reordering two events (same multiset) also diverges.
        let mut swapped = base.clone();
        swapped.swap(2, 5);
        assert_ne!(digest_of(&swapped), reference);
    }

    #[test]
    fn capture_writes_deterministic_jsonl() {
        let dir = std::env::temp_dir().join(format!("predis-trace-test-{}", std::process::id()));
        let path = dir.join("unit.trace.jsonl");
        let mut cap = TraceCapture::create(&path).expect("create capture");
        cap.record(&CanonEvent {
            at_nanos: 1_000,
            seq: 0,
            node: 2,
            kind: 1,
            from: Some(NodeId(0)),
            bytes: 512,
            tag: None,
        });
        cap.record(&CanonEvent {
            at_nanos: 2_000,
            seq: 1,
            node: 2,
            kind: 2,
            from: None,
            bytes: 0,
            tag: Some(TimerTag::new(3, 7, 0)),
        });
        cap.record(&CanonEvent {
            at_nanos: 3_000,
            seq: 2,
            node: 0,
            kind: 0,
            from: None,
            bytes: 0,
            tag: None,
        });
        assert_eq!(cap.events(), 3);
        let written = cap.finish().expect("finish");
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(
            text,
            "{\"t\":1000,\"seq\":0,\"node\":2,\"kind\":\"deliver\",\"from\":0,\"bytes\":512}\n\
             {\"t\":2000,\"seq\":1,\"node\":2,\"kind\":\"timer\",\"bytes\":0,\"tag\":[3,7,0]}\n\
             {\"t\":3000,\"seq\":2,\"node\":0,\"kind\":\"start\",\"bytes\":0}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
