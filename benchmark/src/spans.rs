//! The traced run's span log: kept in memory, written out once at exit.

use std::io::Write as _;
use std::path::Path;

/// One timed interval. Times are nanoseconds since the parent started;
/// `parent` is the index of the span that caused this one, and spans of one
/// rep share `rep`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index, for children to name as parent.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        rep: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            rep,
        });
        self.spans.len() - 1
    }

    /// Closes a span that was pushed before its children ran.
    pub fn set_end(&mut self, index: usize, end_ns: u64) {
        self.spans[index].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as one JSON array, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_log_parses_back() {
        let mut log = SpanLog::default();
        let root = log.push("rep", 5, 9, None, 2);
        log.push("core.build", 5, 6, Some(root), 2);
        // Under the package's ignored `out/`, so the test writes nothing
        // outside its checkout.
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace.json");
        log.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = predis_telemetry::Json::parse(&text).unwrap();
        let spans = doc.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("core.build"));
    }
}
