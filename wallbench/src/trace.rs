//! In-memory spans around calls into the fitting stack's layers.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! are kept in memory while the benchmark runs and written out when it
//! ends. A span's self time is its duration minus the time its child
//! spans cover; per-layer metrics are medians of self times by name.
//!
//! An untraced run uses a disabled [`Tracer`], whose [`Tracer::span`]
//! only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span times, e.g. `basis.design`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an interval measured elsewhere (for example a wait that
    /// started on another thread) as a root span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let at = |t: Instant| {
                u64::try_from(t.saturating_duration_since(self.origin).as_nanos())
                    .unwrap_or(u64::MAX)
            };
            self.spans.push(Span {
                name,
                start_ns: at(start),
                end_ns: at(end),
                parent: None,
            });
        }
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_time)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times grouped by span name, in nanoseconds.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name).or_default().push(t as f64);
        }
        out
    }

    /// Tab-separated dump: id, parent, name, start, end, self time.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, t)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{t}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_times_ns();
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(selfs[0], spans[0].duration_ns() - children);
        assert!(selfs[1] >= 3_000_000);
        assert_eq!(t.self_times_by_name()["inner"].len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
