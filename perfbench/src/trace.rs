//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] that is off only runs the closure it is handed, so the
//! untraced runs that give the end-to-end metrics pay nothing for it. When
//! on, each span records its name, start, end and parent; spans stay in
//! memory and are written as JSONL once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `orchestrator.tick`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for the run `run_id`; records nothing unless `on`.
    pub fn new(on: bool, run_id: String) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "cannot toggle inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. Spans opened by `f` on the
    /// tracer it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(count, total seconds)` over the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, f64) {
        let (count, ns) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(c, t), s| (c + 1, t + s.dur_ns()));
        (count, ns as f64 * 1e-9)
    }

    /// The spans as JSONL, one object per line, sharing this run's id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                crate::json::quote(&self.run_id),
                crate::json::quote(s.name),
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}
