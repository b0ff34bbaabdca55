//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files around its calls into each
//! layer's public functions: a name (`<layer>.<call>`), the id of the solve
//! or job it belongs to, start and end, and the enclosing span.  They stay in
//! memory and are written out once, at the end of a traced run.  A span's
//! *self time* is its duration minus the time its child spans cover; summed
//! per name, self times attribute the run's wall time to layers.
//!
//! When disabled (the timed runs) nothing is recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `nd-runtime.execute`.
    pub name: &'static str,
    /// Solve or job id shared by every span of one solve or job (0 = setup
    /// and other run-level work).
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span recorder for the benchmark's (single) driving thread.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span nested in the innermost open one.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let r = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.stack.pop();
        r
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Share of `wall_ns` covered by span self times.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        let covered: u64 = self.self_times().values().sum();
        covered as f64 / wall_ns.max(1) as f64
    }

    /// Writes every span as tab-separated values
    /// (`name id parent start_ns end_ns`, parent `-` for a root span).
    ///
    /// # Errors
    /// Returns the I/O error if the file cannot be written.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        spans.time("outer", 1, |s| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.time("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let st = spans.self_times();
        let (outer, inner) = (st["outer"], st["inner"]);
        assert!(inner >= 4_000_000);
        assert!(outer >= 2_000_000 && outer < inner, "{outer} vs {inner}");
        assert_eq!(spans.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        spans.time("x", 0, |_| ());
        assert!(spans.spans().is_empty());
    }
}
