//! Benchmark-side tracing: spans recorded in memory around each call
//! into a layer's public functions, written out only when the run ends.
//!
//! Nothing is added inside the program. Where the program already has
//! obs instruments, their `(count, total_ns)` deltas across a benchmark
//! span are attached as that span's children ([`RegNode`] trees), so a
//! span's self time is its duration minus its children's.
//!
//! An inert tracer (end-to-end runs) reads no clock and stores nothing.

use crate::json::{self, Value};
use std::time::Instant;

/// One span. `source` is `"bench"` for spans timed here and
/// `"registry"` for children synthesized from obs timer deltas (those
/// carry the delta's call count and are laid end to end from the
/// parent's start: their duration is measured, their position is not).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Arm / epoch / node the span belongs to (free text, may be empty).
    pub ctx: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub source: &'static str,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A tree of existing obs timer names nested the way the program nests
/// them at run time.
pub struct RegNode {
    pub name: &'static str,
    pub children: &'static [RegNode],
}

const fn leaf(name: &'static str) -> RegNode {
    RegNode {
        name,
        children: &[],
    }
}

/// What `Simulator::run_epoch` records: one `core.epoch.turn` per alive
/// node, inside it the lazy snapshot rebuild (graph), the residual view,
/// the policy solve and the absorb of a committed rewire.
pub const RUN_EPOCH_TREE: &[RegNode] = &[RegNode {
    name: "core.epoch.turn",
    children: &[
        leaf("graph.apsp.build"),
        leaf("graph.widest.build"),
        leaf("core.epoch.turn.residual"),
        leaf("core.epoch.turn.solver"),
        leaf("core.epoch.turn.absorb"),
    ],
}];

/// Duration of a span with nothing in it: what the clock reads between
/// a start and an end taken back to back, averaged over many pairs. A
/// traced run reports this as the time of a layer its workload never
/// entered — zero as measured (tens of nanoseconds), rather than a
/// literal that reads the same on every run.
pub fn empty_span_ns() -> f64 {
    const PAIRS: u32 = 1024;
    let total: u128 = (0..PAIRS)
        .map(|_| Instant::now().elapsed().as_nanos())
        .sum();
    total as f64 / f64::from(PAIRS)
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    id: u32,
    tree: &'static [RegNode],
    before: Vec<(u64, u64)>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

fn flatten(tree: &'static [RegNode], out: &mut Vec<&'static str>) {
    for node in tree {
        out.push(node.name);
        flatten(node.children, out);
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, ctx: impl FnOnce() -> String) -> Open {
        self.begin_with(name, ctx, &[])
    }

    /// Open a span and read the registry timers of `tree`, so that
    /// [`Tracer::end`] can attach their deltas as children.
    pub fn begin_with(
        &mut self,
        name: &'static str,
        ctx: impl FnOnce() -> String,
        tree: &'static [RegNode],
    ) -> Open {
        if !self.on {
            return Open {
                id: 0,
                tree,
                before: Vec::new(),
            };
        }
        let mut names = Vec::new();
        flatten(tree, &mut names);
        let before = names
            .iter()
            .map(|n| egoist_obs::registry().span_value(n))
            .collect();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            ctx: ctx(),
            start_ns: 0,
            end_ns: 0,
            calls: 1,
            source: "bench",
        });
        self.stack.push(id);
        // Clock read last, so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        Open { id, tree, before }
    }

    /// Close a span opened by `begin` / `begin_with`.
    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let popped = self.stack.pop();
        assert_eq!(popped, Some(open.id), "spans must close innermost first");
        self.spans[open.id as usize].end_ns = end;
        let mut cursor = 0;
        let start = self.spans[open.id as usize].start_ns;
        self.attach(open.tree, open.id, start, &open.before, &mut cursor);
    }

    fn attach(
        &mut self,
        tree: &'static [RegNode],
        parent: u32,
        mut at_ns: u64,
        before: &[(u64, u64)],
        cursor: &mut usize,
    ) {
        for node in tree {
            let (c0, ns0) = before[*cursor];
            *cursor += 1;
            let (c1, ns1) = egoist_obs::registry().span_value(node.name);
            let id = self.spans.len() as u32;
            let ns = ns1.saturating_sub(ns0);
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: node.name,
                ctx: String::new(),
                start_ns: at_ns,
                end_ns: at_ns + ns,
                calls: c1.saturating_sub(c0),
                source: "registry",
            });
            self.attach(node.children, id, at_ns, before, cursor);
            at_ns += ns;
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        ctx: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, ctx);
        let r = f();
        self.end(open);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration over spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Calls summed over spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// Self time (duration minus direct children) summed over spans
    /// named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns().saturating_sub(child_ns[s.id as usize]))
            .sum();
        ns as f64 / 1e6
    }

    /// Total duration of the top-level spans that started at or after
    /// `from_ns`, in ms: the part of a traced interval that named layer
    /// spans account for.
    pub fn top_level_ms_since(&self, from_ns: u64) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from_ns)
            .map(Span::ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Nanoseconds since the tracer was created (0 when inert).
    pub fn mark(&self) -> u64 {
        if self.on {
            self.now_ns()
        } else {
            0
        }
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                json::obj([
                    ("id", json::num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| json::num(p as f64)),
                    ),
                    ("name", json::text(s.name)),
                    ("workload", json::text(workload)),
                    ("ctx", json::text(&s.ctx)),
                    ("start_ns", json::num(s.start_ns as f64)),
                    ("end_ns", json::num(s.end_ns as f64)),
                    ("calls", json::num(s.calls as f64)),
                    ("source", json::text(s.source)),
                ])
            })
            .collect();
        json::obj([
            ("schema", json::text("egoist-benchmark-trace/v1")),
            ("workload", json::text(workload)),
            ("seed", json::num(seed as f64)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.span("core.measure", String::new, || 7);
        assert_eq!(r, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_ms("core.measure"), 0.0);
    }

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", String::new);
        t.span(
            "inner",
            || "e0".to_string(),
            || std::thread::sleep(std::time::Duration::from_millis(2)),
        );
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].ctx, "e0");
        assert!(t.total_ms("inner") >= 2.0);
        assert!(t.total_ms("outer") >= t.total_ms("inner"));
        let self_ms = t.self_ms("outer");
        assert!((self_ms - (t.total_ms("outer") - t.total_ms("inner"))).abs() < 1e-9);
        assert!((t.top_level_ms_since(0) - t.total_ms("outer")).abs() < 1e-9);
    }

    #[test]
    fn registry_deltas_become_children() {
        static TREE: &[RegNode] = &[RegNode {
            name: "benchtest.parent",
            children: &[leaf("benchtest.parent.child")],
        }];
        egoist_obs::enable();
        let parent = egoist_obs::registry().timer("benchtest.parent");
        let child = egoist_obs::registry().timer("benchtest.parent.child");
        parent.add_ns(5); // before the span: must not be attributed
        let mut t = Tracer::new(true);
        let open = t.begin_with("bench.call", String::new, TREE);
        parent.add_ns(1000);
        parent.add_ns(500);
        child.add_ns(300);
        t.end(open);
        let by_name = |n: &str| t.spans().iter().find(|s| s.name == n).unwrap().clone();
        let p = by_name("benchtest.parent");
        assert_eq!((p.ns(), p.calls, p.source), (1500, 2, "registry"));
        assert_eq!(p.parent, Some(by_name("bench.call").id));
        let c = by_name("benchtest.parent.child");
        assert_eq!((c.ns(), c.calls, c.parent), (300, 1, Some(p.id)));
        assert!((t.self_ms("benchtest.parent") - 1200.0 / 1e6).abs() < 1e-12);
        let doc = t.to_json("w", 3);
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
