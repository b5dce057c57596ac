//! Request-scoped span trees with cross-trace fan-in links.
//!
//! A [`Tracer`] allocates trace/span ids and records completed spans into a
//! [`FlightRecorder`]. The shape mirrors the
//! serving path it instruments:
//!
//! * every `Gateway::predict` call opens a **root span** — a fresh trace id
//!   that follows the request through admission and the queue;
//! * the replica's **fused forward** is a trace of its own (one batch serves
//!   many callers, so it cannot live inside any single caller's tree) and
//!   carries a [`SpanCtx`] *link* to every caller trace it fans in, while
//!   each caller's tree gains a `fused` child linking back — the two trees
//!   reference each other without either owning the other;
//! * the predictor's `map` and `head:<name>` spans attach to the fused trace
//!   through an *implicit* thread-local context ([`push_current`] /
//!   [`child_of_current`]), so the predictor needs no tracing parameters
//!   threaded through its API.
//!
//! A disabled tracer ([`Tracer::disabled`]) costs one branch per call site:
//! spans are zero-sized no-ops and no allocation happens.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::flight::FlightRecorder;

/// A span's coordinates: which trace it belongs to and which span it is.
///
/// `SpanCtx::NONE` (all zeros) means "not traced" and is safe to propagate
/// through job structs unconditionally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SpanCtx {
    /// Trace id; 0 = untraced.
    pub trace_id: u64,
    /// Span id within the trace; 0 = untraced.
    pub span_id: u64,
}

impl SpanCtx {
    /// The untraced context.
    pub const NONE: SpanCtx = SpanCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// True for the untraced context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }
}

/// One completed span as stored in the flight recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the tracer).
    pub span_id: u64,
    /// Parent span id within the same trace; 0 for roots.
    pub parent_id: u64,
    /// Span name, e.g. `predict`, `admission`, `head:runtime`.
    pub name: String,
    /// Free-form detail, e.g. `scripts=4`.
    pub detail: String,
    /// Cross-trace references (fused-batch fan-in/fan-out).
    pub links: Vec<SpanCtx>,
    /// Microseconds since the recorder's epoch at span start.
    pub start_micros: u64,
    /// Span duration in microseconds (0 for instantaneous events).
    pub duration_micros: u64,
}

struct TracerInner {
    recorder: FlightRecorder,
    next_id: AtomicU64,
}

/// Allocates span ids and records completed spans. Cloning shares state;
/// the default tracer is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer recording into `recorder`.
    pub fn new(recorder: &FlightRecorder) -> Self {
        Self::with_namespace(recorder, 0)
    }

    /// A tracer whose trace/span ids carry `namespace` in their top 16
    /// bits. Ids are allocated from a per-process counter starting at 1,
    /// so two processes' tracers hand out *colliding* ids — fatal once
    /// their spans are stitched into one fleet-wide trace. Give the
    /// router and every shard a distinct namespace and the low 48 bits
    /// (2^48 ids) never overlap across the fleet.
    pub fn with_namespace(recorder: &FlightRecorder, namespace: u16) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                recorder: recorder.clone(),
                next_id: AtomicU64::new(((namespace as u64) << 48) | 1),
            })),
        }
    }

    /// True when spans are actually recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn fresh_id(inner: &TracerInner) -> u64 {
        inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a root span: a fresh trace. Records on drop.
    pub fn root(&self, name: impl Into<String>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let trace_id = Self::fresh_id(inner);
        let span_id = Self::fresh_id(inner);
        Span::open(inner.clone(), trace_id, span_id, 0, name.into())
    }

    /// Open a child span under an explicit parent context. A no-op span is
    /// returned when the tracer is disabled or `parent` is untraced.
    pub fn span_within(&self, parent: SpanCtx, name: impl Into<String>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        if parent.is_none() {
            return Span { state: None };
        }
        let span_id = Self::fresh_id(inner);
        Span::open(
            inner.clone(),
            parent.trace_id,
            span_id,
            parent.span_id,
            name.into(),
        )
    }

    /// Record an instantaneous event span under `parent` immediately (no
    /// guard to hold — useful for marking progress that must be visible in
    /// a crash dump even if the surrounding span never completes).
    pub fn instant(
        &self,
        parent: SpanCtx,
        name: impl Into<String>,
        detail: impl Into<String>,
        links: Vec<SpanCtx>,
    ) {
        let Some(inner) = &self.inner else { return };
        if parent.is_none() {
            return;
        }
        let span_id = Self::fresh_id(inner);
        let now = inner.recorder.now_micros();
        inner.recorder.record(SpanRecord {
            trace_id: parent.trace_id,
            span_id,
            parent_id: parent.span_id,
            name: name.into(),
            detail: detail.into(),
            links,
            start_micros: now,
            duration_micros: 0,
        });
    }
}

struct ActiveSpan {
    inner: Arc<TracerInner>,
    ctx: SpanCtx,
    parent_id: u64,
    name: String,
    detail: String,
    links: Vec<SpanCtx>,
    start_micros: u64,
    started: Instant,
}

/// An open span; records itself into the flight recorder on drop.
///
/// A `Span` from a disabled tracer is inert: `ctx()` is
/// [`SpanCtx::NONE`] and all mutators are no-ops.
pub struct Span {
    state: Option<ActiveSpan>,
}

impl Span {
    fn open(
        inner: Arc<TracerInner>,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        name: String,
    ) -> Span {
        let start_micros = inner.recorder.now_micros();
        Span {
            state: Some(ActiveSpan {
                inner,
                ctx: SpanCtx { trace_id, span_id },
                parent_id,
                name,
                detail: String::new(),
                links: Vec::new(),
                start_micros,
                started: Instant::now(),
            }),
        }
    }

    /// This span's context (NONE when not recording).
    pub fn ctx(&self) -> SpanCtx {
        self.state.as_ref().map(|s| s.ctx).unwrap_or(SpanCtx::NONE)
    }

    /// True when the span will be recorded on drop.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// Open a child span of this one.
    pub fn child(&self, name: impl Into<String>) -> Span {
        match &self.state {
            Some(s) => {
                let span_id = Tracer::fresh_id(&s.inner);
                Span::open(
                    s.inner.clone(),
                    s.ctx.trace_id,
                    span_id,
                    s.ctx.span_id,
                    name.into(),
                )
            }
            None => Span { state: None },
        }
    }

    /// Attach a cross-trace link (fused-batch fan-in).
    pub fn add_link(&mut self, ctx: SpanCtx) {
        if let Some(s) = &mut self.state {
            if !ctx.is_none() {
                s.links.push(ctx);
            }
        }
    }

    /// Attach free-form detail (last call wins).
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if let Some(s) = &mut self.state {
            s.detail = detail.into();
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let duration_micros = s.started.elapsed().as_micros() as u64;
            s.inner.recorder.record(SpanRecord {
                trace_id: s.ctx.trace_id,
                span_id: s.ctx.span_id,
                parent_id: s.parent_id,
                name: s.name,
                detail: s.detail,
                links: s.links,
                start_micros: s.start_micros,
                duration_micros,
            });
        }
    }
}

// The implicit context stack: lets the predictor attach child spans without
// tracing parameters in its signatures.
thread_local! {
    static CURRENT: RefCell<Vec<(Tracer, SpanCtx)>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard from [`push_current`]; pops the context on drop.
pub struct CurrentGuard {
    pushed: bool,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        if self.pushed {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// Make `(tracer, ctx)` the current implicit context for this thread until
/// the returned guard drops. Disabled tracers and untraced contexts push
/// nothing.
pub fn push_current(tracer: &Tracer, ctx: SpanCtx) -> CurrentGuard {
    if !tracer.enabled() || ctx.is_none() {
        return CurrentGuard { pushed: false };
    }
    CURRENT.with(|c| c.borrow_mut().push((tracer.clone(), ctx)));
    CurrentGuard { pushed: true }
}

/// This thread's implicit context, if any: what another thread pushes with
/// [`push_current`] to record its spans under the same parent.
pub fn current() -> Option<(Tracer, SpanCtx)> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Open a child span under the current implicit context, or `None` when no
/// context is active. The name closure only runs when a span is actually
/// opened, so callers can defer `format!` off the untraced fast path.
pub fn child_of_current(name: impl FnOnce() -> String) -> Option<Span> {
    CURRENT.with(|c| {
        let cur = c.borrow();
        let (tracer, ctx) = cur.last()?;
        Some(tracer.span_within(*ctx, name()))
    })
}

/// Render one trace from `spans` as an indented ASCII tree, following
/// fused-batch links one hop (linked spans are annotated, not inlined).
/// Spans from other traces are ignored.
pub fn render_trace_tree(spans: &[SpanRecord], trace_id: u64) -> String {
    let mine: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    let mut out = String::new();
    fn emit(out: &mut String, all: &[&SpanRecord], parent: u64, depth: usize) {
        let mut children: Vec<&&SpanRecord> =
            all.iter().filter(|s| s.parent_id == parent).collect();
        children.sort_by_key(|s| (s.start_micros, s.span_id));
        for s in children {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("- {} [{} us]", s.name, s.duration_micros));
            if !s.detail.is_empty() {
                out.push_str(&format!(" {}", s.detail));
            }
            for l in &s.links {
                out.push_str(&format!(" -> link trace={} span={}", l.trace_id, l.span_id));
            }
            out.push('\n');
            emit(out, all, s.span_id, depth + 1);
        }
    }
    out.push_str(&format!("trace {trace_id}\n"));
    emit(&mut out, &mine, 0, 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightConfig, FlightRecorder};

    fn recorder() -> FlightRecorder {
        FlightRecorder::new(FlightConfig::default())
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        let mut root = t.root("r");
        assert!(!root.is_recording());
        assert_eq!(root.ctx(), SpanCtx::NONE);
        root.add_link(SpanCtx {
            trace_id: 1,
            span_id: 1,
        });
        root.set_detail("x");
        let child = root.child("c");
        assert!(!child.is_recording());
    }

    #[test]
    fn root_and_children_share_a_trace() {
        let rec = recorder();
        let t = Tracer::new(&rec);
        let root = t.root("predict");
        let root_ctx = root.ctx();
        {
            let child = root.child("admission");
            assert_eq!(child.ctx().trace_id, root_ctx.trace_id);
            assert_ne!(child.ctx().span_id, root_ctx.span_id);
        }
        drop(root);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        let admission = spans.iter().find(|s| s.name == "admission").unwrap();
        assert_eq!(admission.parent_id, root_ctx.span_id);
        let root_rec = spans.iter().find(|s| s.name == "predict").unwrap();
        assert_eq!(root_rec.parent_id, 0);
    }

    #[test]
    fn links_cross_traces() {
        let rec = recorder();
        let t = Tracer::new(&rec);
        let caller = t.root("predict");
        let mut fused = t.root("fused_forward");
        assert_ne!(fused.ctx().trace_id, caller.ctx().trace_id);
        fused.add_link(caller.ctx());
        let caller_ctx = caller.ctx();
        drop(fused);
        drop(caller);
        let spans = rec.snapshot();
        let fused = spans.iter().find(|s| s.name == "fused_forward").unwrap();
        assert_eq!(fused.links, vec![caller_ctx]);
    }

    #[test]
    fn implicit_context_nests_and_restores() {
        let rec = recorder();
        let t = Tracer::new(&rec);
        assert!(current().is_none());
        assert!(child_of_current(|| unreachable!()).is_none());
        let root = t.root("outer");
        {
            let _g = push_current(&t, root.ctx());
            assert_eq!(current().map(|(_, ctx)| ctx), Some(root.ctx()));
            let head = child_of_current(|| "head:runtime".to_string()).unwrap();
            assert_eq!(head.ctx().trace_id, root.ctx().trace_id);
        }
        assert!(current().is_none());
        // Disabled tracers never push.
        let _g = push_current(&Tracer::disabled(), SpanCtx::NONE);
        assert!(current().is_none());
    }

    #[test]
    fn namespaced_tracers_allocate_disjoint_ids() {
        let rec = recorder();
        let router = Tracer::with_namespace(&rec, 1);
        let shard = Tracer::with_namespace(&rec, 2);
        let a = router.root("r");
        let b = shard.root("s");
        assert_eq!(a.ctx().trace_id >> 48, 1);
        assert_eq!(b.ctx().trace_id >> 48, 2);
        assert_ne!(a.ctx().trace_id, b.ctx().trace_id);
        assert_ne!(a.ctx().span_id, b.ctx().span_id);
        // Adopting a foreign context keeps the foreign trace id while the
        // new span id stays in the adopter's namespace.
        let adopted = shard.span_within(a.ctx(), "adopted");
        assert_eq!(adopted.ctx().trace_id, a.ctx().trace_id);
        assert_eq!(adopted.ctx().span_id >> 48, 2);
    }

    #[test]
    fn instant_records_without_a_guard() {
        let rec = recorder();
        let t = Tracer::new(&rec);
        let root = t.root("r");
        t.instant(root.ctx(), "mark", "n=3", vec![]);
        // Recorded before the root guard drops.
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "mark");
        assert_eq!(spans[0].duration_micros, 0);
    }

    #[test]
    fn tree_rendering_indents_children_and_shows_links() {
        let rec = recorder();
        let t = Tracer::new(&rec);
        let mut root = t.root("predict");
        root.set_detail("scripts=1");
        let trace = root.ctx().trace_id;
        {
            let mut fused_link = root.child("fused");
            fused_link.add_link(SpanCtx {
                trace_id: 99,
                span_id: 7,
            });
        }
        drop(root);
        let txt = render_trace_tree(&rec.snapshot(), trace);
        assert!(txt.contains("- predict"), "{txt}");
        assert!(txt.contains("  - fused"), "{txt}");
        assert!(txt.contains("link trace=99 span=7"), "{txt}");
    }
}
