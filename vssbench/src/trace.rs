//! The benchmark's own in-memory span recorder.
//!
//! One root span per op and one child span per call into a layer's public
//! function. Spans are kept in memory and written out as JSON lines when the
//! workload ends; nothing is recorded when tracing is off, which is how the
//! end-to-end metrics are always measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The op this span belongs to; every span of one op shares it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (its index in the recorder).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// A per-thread recorder. `Tracer::off()` makes every call a no-op, so
/// workload code is written once for both passes.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Keeps ids unique when several client threads record at once.
    id_base: u64,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            id_base: 0,
            spans: None,
        }
    }

    /// A recording tracer. Threads of one run share `origin` and use
    /// distinct `lane`s.
    pub fn on(origin: Instant, lane: u64) -> Self {
        Self {
            origin,
            id_base: lane << 40,
            spans: Some(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now. `parent == None` makes it the op's root.
    pub fn begin(&mut self, op: u64, parent: Option<Open>, name: &'static str) -> Open {
        let now = self.now_ns();
        let id_base = self.id_base;
        let Some(spans) = self.spans.as_mut() else {
            return Open(None);
        };
        let parent = parent.and_then(|p| p.0).map(|index| spans[index].id);
        spans.push(Span {
            id: id_base + spans.len() as u64 + 1,
            parent,
            op,
            name,
            start_ns: now,
            end_ns: now,
        });
        Open(Some(spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        let now = self.now_ns();
        if let (Some(spans), Some(index)) = (self.spans.as_mut(), open.0) {
            spans[index].end_ns = now;
        }
    }

    /// Synthesises finished children of `parent`, laid end to end from the
    /// parent's start, from durations the program reported (`ReadStats`,
    /// `WriteReport`, `JointTimings`): the benchmark may not add spans inside
    /// the crates, so their own accounting stands in for a boundary span.
    pub fn children(&mut self, parent: Open, parts: &[(&'static str, Duration)]) {
        let id_base = self.id_base;
        let (Some(spans), Some(index)) = (self.spans.as_mut(), parent.0) else {
            return;
        };
        let (parent_id, op, mut at) = (spans[index].id, spans[index].op, spans[index].start_ns);
        for &(name, duration) in parts {
            let end = at + duration.as_nanos() as u64;
            spans.push(Span {
                id: id_base + spans.len() as u64 + 1,
                parent: Some(parent_id),
                op,
                name,
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover (overlapping children are not double-counted, and a child
/// reaching past its parent is clipped).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += selfs[&span.id];
    }
    out
}

/// One JSON object per line: `id`, `parent` (null for a root), `op`, `name`,
/// `start_ns`, `end_ns` — times in ns from the start of the pass.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, parent, span.op, span.name, span.start_ns, span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100; children 10..30, 20..50 (overlap), 90..120 (clipped to 100).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            span(5, Some(3), 25, 35),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (40 + 10));
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30 - 10);
        assert_eq!(selfs[&5], 10);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals["child"].count, 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let root = tracer.begin(1, None, "op");
        tracer.children(root, &[("part", Duration::from_millis(1))]);
        tracer.end(root);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn synthesised_children_share_the_op_and_nest_under_the_root() {
        let mut tracer = Tracer::on(Instant::now(), 2);
        let root = tracer.begin(9, None, "op");
        tracer.children(
            root,
            &[
                ("plan", Duration::from_nanos(5)),
                ("decode", Duration::from_nanos(7)),
            ],
        );
        tracer.end(root);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 9 && s.id >> 40 == 2));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[2].duration_ns(), 7);
        let lines = to_json_lines(&spans);
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.lines().next().unwrap().contains("\"parent\":null"));
    }
}
