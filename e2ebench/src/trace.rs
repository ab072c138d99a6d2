//! Host-clock spans recorded around the benchmark's calls into each
//! layer.
//!
//! Every timed section goes through [`Tracer::begin`]/[`Tracer::end`],
//! which always return the section's duration (the end-to-end metrics
//! are built from those). Only a traced run keeps the spans: name,
//! start, end and parent, in memory until [`Tracer::write`] dumps them
//! when the run ends. An untraced run records no span.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
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
}

/// An open section returned by [`Tracer::begin`].
#[must_use = "close the section with Tracer::end"]
pub struct Open {
    started: Instant,
    /// Index of the span in `Tracer::spans` (traced runs only).
    slot: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let slot = if self.enabled {
            let ns = (started - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        Open { started, slot }
    }

    /// Closes a section and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            assert_eq!(
                self.stack.pop(),
                Some(slot),
                "spans must close innermost first"
            );
            self.spans[slot].end_ns = (now - self.origin).as_nanos() as u64;
        }
        now - open.started
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children are nested, so that part is their sum).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// Self times (ns) of every span with this name, in recording order.
    pub fn self_ns_of(&self, name: &str) -> Vec<u64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
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
    fn untraced_run_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let o = t.begin("a");
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.end(o) >= Duration::from_millis(2));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(Duration::from_millis(5));
        t.end(inner);
        let whole = t.end(outer);
        let inner_ns = t.spans()[1].dur_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        let outer_self = t.self_ns_of("outer")[0];
        assert_eq!(outer_self, t.spans()[0].dur_ns() - inner_ns);
        assert!(outer_self < whole.as_nanos() as u64);
        assert_eq!(t.self_ns_of("inner"), vec![inner_ns]);
    }
}
