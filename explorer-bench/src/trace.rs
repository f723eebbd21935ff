//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span carries a name, a start, an end, its parent span and the pass
//! it belongs to. Spans stay in memory while the run measures and are
//! written out once it ends ([`Tracer::export`]). A layer's *self time*
//! is its span minus the part its child spans cover, so a stage call
//! that writes through to the store is charged for its compute, and the
//! store for the write.
//!
//! The traced code runs as one closed loop on a single session thread
//! (`with_threads(1)`), possibly hopping between the caller and the
//! session's one worker thread, but never running two spans at once. The
//! tracer therefore keeps one process-wide stack of open spans to find
//! each span's parent.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, as `layer.operation`.
    pub name: &'static str,
    /// The pass the span was recorded in.
    pub pass: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

/// The span recorder. Disabled, [`Tracer::span`] just calls its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no span panics while holding the tracer lock")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start recording spans for pass `pass`, or stop recording. No span
    /// is open across passes; a pass that panicked may have left some.
    pub fn set_pass(&self, pass: u32, enabled: bool) {
        let mut st = self.lock();
        st.pass = pass;
        st.open.clear();
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Run `f` inside a span named `name` (when recording).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let id = {
            let mut st = self.lock();
            let id = st.spans.len();
            let span = Span {
                name,
                pass: st.pass,
                parent: st.open.last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            };
            st.spans.push(span);
            st.open.push(id);
            id
        };
        let out = f();
        let end = self.now_ns();
        let mut st = self.lock();
        st.spans[id].end_ns = end;
        let closed = st.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in reverse order");
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write `spans` as JSON lines, one span per line, each with its
    /// self time.
    pub fn export(spans: &[Span], path: &Path) -> std::io::Result<()> {
        let selfs = self_times(spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"pass\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.pass, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (which run one after another inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Share of the root spans' wall time covered by their direct children,
/// in percent.
pub fn coverage_pct(spans: &[Span], roots: &[usize]) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
        .map(Span::duration_ns)
        .sum();
    let total: u64 = roots.iter().map(|&r| spans[r].duration_ns()).sum();
    100.0 * covered as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            pass: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("a.child", Some(1), 20, 30),
            span("b", Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        assert_eq!(coverage_pct(&spans, &[0]), 70.0);
    }

    #[test]
    fn coverage_pools_several_roots() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 0, 100),
            span("pass", None, 200, 300),
            span("b", Some(2), 200, 250),
        ];
        assert_eq!(coverage_pct(&spans, &[0, 2]), 75.0);
        assert_eq!(coverage_pct(&spans, &[2]), 50.0);
    }

    #[test]
    fn nested_calls_record_parents_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::default();
        tracer.span("off", || ());
        assert!(tracer.spans().is_empty());
        tracer.set_pass(3, true);
        let v = tracer.span("outer", || tracer.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn spans_opened_on_another_thread_nest_under_the_caller() {
        let tracer = Tracer::default();
        tracer.set_pass(0, true);
        tracer.span("outer", || {
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("worker", || ()));
            });
        });
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }
}
