//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans live in memory while the workload runs and are written out once
//! at exit; a disabled trace records nothing, so the untraced run pays
//! only a branch per call.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call: `name` ran from `start_ns` to `end_ns` (since the trace
/// origin) for unit or request `id`, inside span `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder.
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span (`None` when tracing is off).
pub type Open = Option<u32>;

impl Trace {
    pub fn new(enabled: bool, origin: Instant) -> Trace {
        Trace {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the trace origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return None;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now_ns();
        let h = self.record(name, id, parent, start, start)?;
        self.open.push(h);
        Some(h)
    }

    /// End the span `h` (which must be the innermost open one).
    pub fn close(&mut self, h: Open) {
        if let Some(h) = h {
            let end = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(h), "spans close innermost first");
            self.spans[h as usize].end_ns = end;
        }
    }

    /// Record a span whose interval the caller measured itself.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Open {
        if !self.enabled {
            return None;
        }
        let h = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        Some(h)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as CSV: `index,name,id,parent,start_ns,end_ns,self_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index,name,id,parent,start_ns,end_ns,self_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{},{},{parent},{},{},{own}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total duration and total self time per span name, nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_ns - s.start_ns;
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("unit", ROOT, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 50, 60),
            span("a.inner", 1, 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 10, 5]);
        let t = totals_by_name(&spans);
        assert_eq!(t["unit"], (100, 60));
        assert_eq!(t["a"], (30, 25));
    }

    #[test]
    fn overlapping_children_count_once() {
        // Requests in flight together under one round span.
        let spans = [
            span("round", ROOT, 0, 100),
            span("request", 0, 10, 50),
            span("request", 0, 30, 70),
            span("request", 0, 60, 65),
            span("request", 0, 90, 120),
        ];
        // Covered: [10, 70) and [90, 100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Trace::new(true, Instant::now());
        let u = t.open("unit", 7);
        let c = t.open("call", 7);
        t.close(c);
        t.close(u);
        let r = t.record("request", 8, ROOT, 5, 9);
        assert_eq!(r, Some(2));
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent, s[1].id), (ROOT, 0, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Trace::new(false, Instant::now());
        let h = off.open("unit", 1);
        off.close(h);
        assert_eq!(h, None);
        assert!(off.spans().is_empty());
    }
}
