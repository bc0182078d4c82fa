//! In-memory spans around the harness's calls into each layer.
//!
//! A span records its name, start, end, the span that caused it and the
//! operation it belongs to. Spans stay in memory for the whole traced rep
//! and are written out once, after it, so recording never does I/O inside
//! the measured region.

use crate::clock::{self, Stamp};
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the operation the span belongs to (spans of one op share it).
    pub op: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Stamp,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans opened from here on belong to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Record a span around `f`; spans `f` opens become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        total_s(&self.spans, name)
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the leaf spans (those that opened no span of their
    /// own) that are not inside, and are not, a span named in `outside`.
    pub fn leaf_total_s(&self, outside: &[&str]) -> f64 {
        let excluded = |mut id: usize| loop {
            if outside.contains(&self.spans[id].name) {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        };
        let is_leaf = |id: usize| !self.spans.iter().any(|s| s.parent == Some(id));
        let ns: u64 = (0..self.spans.len())
            .filter(|&id| is_leaf(id) && !excluded(id))
            .map(|id| self.spans[id].dur_ns())
            .sum();
        ns as f64 / 1e9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON, one object per span, times as the host's clock
    /// read them; `to_reference` is the factor that compensates them for
    /// clock drift (see `clock::pace`).
    pub fn to_json(&self, to_reference: f64) -> String {
        let mut out = format!("{{\"to_reference\": {to_reference}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"self_ns\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op, self_ns(&self.spans, i)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

pub fn total_s(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum();
    ns as f64 / 1e9
}

/// A span's self time: its duration minus what its direct children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    spans[id].dur_ns().saturating_sub(children)
}

/// Assert self-time arithmetic on a hand-built tree (`selfcheck`).
pub fn selfcheck() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
    };
    // root [0, 100) > a [10, 40) > c [15, 20);  root > b [50, 90)
    let tree = [
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 50, 90, Some(0)),
        span("c", 15, 20, Some(1)),
    ];
    assert_eq!(
        self_ns(&tree, 0),
        30,
        "grandchildren are not subtracted twice"
    );
    assert_eq!(self_ns(&tree, 1), 25);
    assert_eq!(self_ns(&tree, 2), 40);
    assert_eq!(self_ns(&tree, 3), 5);
    let all: u64 = (0..tree.len()).map(|i| self_ns(&tree, i)).sum();
    assert_eq!(all, tree[0].dur_ns(), "self times partition the root");
    assert!((total_s(&tree, "a") - 30e-9).abs() < 1e-15);

    let mut tr = Tracer::new();
    tr.set_op(3);
    tr.span("outer", |tr| tr.span("inner", |_| ()));
    let s = tr.spans();
    assert_eq!((s[0].parent, s[1].parent, s[1].op), (None, Some(0), 3));
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
}
