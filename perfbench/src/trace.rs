//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, and written out when the run ends.
//!
//! A span's layer is its name up to the first `.` (`model.breakdown` →
//! `model`). Self time is a span's duration minus the part of it its child
//! spans cover; time of the traced region outside every span is reported
//! as unattributed rather than spread over the layers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. When off, [`Tracer::span`] only runs its closure, so the
/// same code path measures the untraced baseline for the overhead figure.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span; returns its handle for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let v = f();
        self.exit(id);
        v
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// time covered by its direct children.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Time covered by top-level spans, in nanoseconds.
    pub fn covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Write every span as one JSON line: name, start, end, parent.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("dse.system");
        t.span("model.breakdown", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let by = t.self_ns_by_layer();
        let total = t.spans()[0].dur_ns();
        assert_eq!(by["dse"] + by["model"], total);
        assert!(by["model"] >= 2_000_000);
        assert_eq!(t.covered_ns(), total);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("sim.run", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
