//! Spans around the benchmark's calls into the program, kept in memory
//! and written out as Chrome trace events when the run ends.
//!
//! The program itself is not instrumented here: spans open and close in
//! the benchmark's own code, around public entry points
//! (`Workload::program`, `ClusterRun::build`, `ClusterRun::run`,
//! `run_many`, the report functions, `explore`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc;

/// One closed span. `parent` indexes the tracer's span list; spans of
/// one iteration share `iter`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u64,
    /// Allocation calls counted between open and close (children
    /// included; 0 while allocator counting is off).
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    iter: AtomicU64,
}

/// Where a new span hangs: the tracer and the enclosing span.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    pub parent: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            iter: AtomicU64::new(0),
        }
    }

    /// Spans opened from now on belong to iteration `iter`.
    pub fn set_iteration(&self, iter: u64) {
        self.iter.store(iter, Ordering::Relaxed);
    }

    pub fn root(&self) -> Ctx<'_> {
        Ctx {
            tracer: self,
            parent: None,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a panic while the span list was locked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Runs `f` inside a span named `name` when tracing (`ctx` is `Some`),
/// and bare when not. `f` receives the context its own children hang
/// from. The span closes when `f` returns; if `f` unwinds, the span
/// stays zero-length and the panic goes on to the caller.
pub fn spanned<T>(ctx: Option<Ctx<'_>>, name: &str, f: impl FnOnce(Option<Ctx<'_>>) -> T) -> T {
    let Some(ctx) = ctx else {
        return f(None);
    };
    let tracer = ctx.tracer;
    let allocs_before = alloc::counted().0;
    let start_ns = tracer.now_ns();
    let id = {
        let mut spans = tracer.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: ctx.parent,
            iter: tracer.iter.load(Ordering::Relaxed),
            allocs: 0,
        });
        spans.len() - 1
    };
    let out = f(Some(Ctx {
        tracer,
        parent: Some(id),
    }));
    let end_ns = tracer.now_ns();
    let allocs = alloc::counted().0 - allocs_before;
    let mut spans = tracer.lock();
    spans[id].end_ns = end_ns;
    spans[id].allocs = allocs;
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (worker threads), so coverage is the length of their union.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// `(total duration, total allocation calls, span count)` of the spans
/// named `name` in iteration `iter`.
pub fn totals(spans: &[Span], name: &str, iter: u64) -> (f64, u64, u64) {
    let mut out = (0.0, 0, 0);
    for s in spans.iter().filter(|s| s.iter == iter && s.name == name) {
        out.0 += s.duration_ns() as f64 / 1e9;
        out.1 += s.allocs;
        out.2 += 1;
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete (`"ph":"X"`) event per span, microsecond timestamps, with
/// the span's id, parent, iteration and self time under `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"iter\":{},\"self_us\":{:.3},\"allocs\":{}}}}}",
                json_escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.iter,
                self_ns[id] as f64 / 1e3,
                s.allocs,
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            iter: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("cell", 10, 40, Some(0)),
            span("cell", 50, 90, Some(0)),
            span("run", 15, 35, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 40, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two workers inside one sweep span, overlapping on 30..50, and
        // a child that outlives its parent is clipped to it.
        let spans = vec![
            span("sweep", 0, 100, None),
            span("cell", 10, 50, Some(0)),
            span("cell", 30, 70, Some(0)),
            span("cell", 90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn spanned_nests_and_is_inert_without_a_tracer() {
        assert!(spanned(None, "x", |ctx| ctx.is_none()));
        let tracer = Tracer::new();
        tracer.set_iteration(3);
        let inner = spanned(Some(tracer.root()), "outer", |ctx| {
            spanned(ctx, "inner", |ctx| ctx.unwrap().parent)
        });
        let spans = tracer.spans();
        assert_eq!(inner, Some(1));
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(totals(&spans, "inner", 3).2, 1);
        assert_eq!(totals(&spans, "inner", 2).2, 0);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![span("a \"quoted\" name", 1_000, 3_000, None)];
        let doc = chrome_trace(&spans);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 1);
        assert!(doc.contains("a \\\"quoted\\\" name"));
        assert!(doc.contains("\"ts\":1.000,\"dur\":2.000"));
    }
}
