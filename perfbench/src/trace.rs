//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark's own seam wrappers (see `seams`)
//! around calls into the program's layers. Each span has a name, a
//! start, an end, the span that caused it, and the id of the request it
//! belongs to. Within one thread the causing span is the innermost open
//! span; across the wire the server-side span names its request id
//! (carried in the benchmark's request body), and analysis parents it
//! under that request's client span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Causing span on the same thread, 0 for none.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread: `(span id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Span,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.tracer.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.tracer
            .spans
            .lock()
            .expect("span sink poisoned")
            .push(self.span.clone());
    }
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// A fresh id for a request that starts outside any span.
    pub fn next_req(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span. `req` names the request explicitly (a root or a
    /// server-side span); otherwise the span joins the request of the
    /// innermost open span on this thread, or starts a new one.
    pub fn span(&self, name: &'static str, req: Option<u64>) -> SpanGuard<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (parent, inherited) = OPEN.with(|o| o.borrow().last().copied().unwrap_or((0, 0)));
        let req = match req {
            Some(r) => r,
            None if inherited != 0 => inherited,
            None => id,
        };
        OPEN.with(|o| o.borrow_mut().push((id, req)));
        SpanGuard {
            tracer: self,
            span: Span {
                id,
                parent,
                req,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            },
        }
    }

    /// Completed spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Write every span as tab-separated `id parent req name start end`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-span self time plus the request-level nesting verdict.
pub struct Analysis {
    /// `span id -> self ns` (duration minus the part its children cover).
    pub self_ns: BTreeMap<u64, u64>,
    /// Requests whose non-root self times sum past the root wall.
    pub violations: Vec<String>,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Group spans by request, resolve cross-thread parents (a parentless
/// span of a request hangs under that request's root — its earliest
/// parentless span), compute self times, and check that every
/// request's non-root self times sum to at most the root's wall. The
/// sum exceeds the wall exactly when a child outlives its parent or
/// siblings overlap, so a breakdown that fails it does not add up.
pub fn analyze(spans: &[Span]) -> Analysis {
    let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut self_ns = BTreeMap::new();
    let mut violations = Vec::new();
    for (req, group) in &by_req {
        let root = group
            .iter()
            .filter(|s| s.parent == 0)
            .min_by_key(|s| (s.start_ns, s.id))
            .copied();
        let Some(root) = root else {
            violations.push(format!("request {req}: no root span"));
            continue;
        };
        let parent_of = |s: &Span| {
            if s.id == root.id {
                0
            } else if s.parent == 0 {
                root.id
            } else {
                s.parent
            }
        };
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in group {
            let p = parent_of(s);
            if p != 0 {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut child_self_sum = 0u64;
        for s in group {
            let kids = children.remove(&s.id).unwrap_or_default();
            let own = s.dur_ns() - covered(kids, s.start_ns, s.end_ns);
            self_ns.insert(s.id, own);
            if s.id != root.id {
                child_self_sum += own;
            }
        }
        if child_self_sum > root.dur_ns() {
            violations.push(format!(
                "request {req} ({}): child self times {child_self_sum} ns exceed the \
                 {} ns wall",
                root.name,
                root.dur_ns()
            ));
        }
    }
    Analysis {
        self_ns,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, req: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_pass_and_self_time_subtracts_them() {
        let spans = vec![
            span(1, 0, 1, 0, 100),
            span(2, 1, 1, 10, 30),
            span(3, 1, 1, 40, 50),
            // Cross-thread child of request 1, joined through its id.
            span(4, 0, 1, 60, 90),
        ];
        let a = analyze(&spans);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.self_ns[&1], 100 - 20 - 10 - 30);
        assert_eq!(a.self_ns[&4], 30);
    }

    #[test]
    fn overlapping_siblings_fail_the_nesting_check() {
        let spans = vec![
            span(1, 0, 7, 0, 100),
            span(2, 1, 7, 0, 80),
            span(3, 1, 7, 20, 100),
        ];
        let a = analyze(&spans);
        assert_eq!(a.violations.len(), 1);
    }

    #[test]
    fn thread_local_parenting() {
        let t = Tracer::new();
        {
            let _op = t.span("op", None);
            let _child = t.span("child", None);
        }
        let spans = t.spans();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, op.id);
        assert_eq!(child.req, op.req);
        assert!(analyze(&spans).violations.is_empty());
    }
}
