//! In-memory spans recorded around the calls into each layer, written
//! out as JSON lines when the traced pass ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed (`setup.topology`, `run.slice[3]`, …).
    pub name: String,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of this span in the log.
    pub id: u32,
    /// Enclosing span.
    pub parent: Option<u32>,
    /// Counts taken at the same boundary (engine counter deltas).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span log of one traced pass. A disabled log records nothing, so
/// the end-to-end pass shares the set-up code without paying for spans.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn off() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// A recording log; span times count from now.
    pub fn on() -> SpanLog {
        SpanLog {
            enabled: true,
            ..SpanLog::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span; `None` when the log is off.
    pub fn open(&mut self, name: &str, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            id,
            parent,
            counts: Vec::new(),
        });
        Some(id)
    }

    /// End the span `open` returned.
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Attach a count to an open or closed span.
    pub fn count(&mut self, id: Option<u32>, key: &'static str, value: u64) {
        if let Some(id) = id {
            self.spans[id as usize].counts.push((key, value));
        }
    }

    /// Time `f` as a span under `parent`.
    pub fn scoped<T>(&mut self, name: &str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name` (0 when there is none).
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Write one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{parent},\"workload\":\"{workload}\"",
                s.name, s.start_ns, s.end_ns, s.id
            );
            for (key, value) in &s.counts {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::off();
        let id = log.open("run", None);
        log.count(id, "events", 3);
        log.close(id);
        assert_eq!(log.scoped("x", id, || 7), 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut log = SpanLog::on();
        let run = log.open("run", None);
        for _ in 0..2 {
            log.scoped("run.slice", run, || std::hint::black_box(1 + 1));
        }
        log.count(run, "events", 9);
        log.close(run);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(log.secs("run") >= log.secs("run.slice"));
        assert_eq!(spans[0].counts, vec![("events", 9)]);
    }
}
