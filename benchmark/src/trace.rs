//! Spans recorded by the benchmark's own client code around its calls
//! into each layer. Spans are held in memory during the window — one
//! buffer per client thread, no sharing — and written out when the
//! workload ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One timed interval. Spans of one request share `request`; `parent` is
/// the id of the span that caused this one (0 = a root span).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub thread: u16,
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client thread's span buffer. A disabled tracer records nothing,
/// so the untraced pass pays one branch per call.
pub struct Tracer {
    enabled: bool,
    thread: u16,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every thread of a workload so span times
    /// are comparable across buffers.
    pub fn new(enabled: bool, thread: u16, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            thread,
            origin,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Records one finished span and returns its id (for children to name
    /// as their parent); 0 when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            thread: self.thread,
            id,
            parent,
            request,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    /// Sets the parent of an already recorded span — for a root span that
    /// can only be recorded after its children have ended.
    pub fn adopt(&mut self, child: u32, parent: u32) {
        if let Some(span) = child
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.parent = parent;
        }
    }
}

/// Every thread's spans of one workload run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        self.spans.extend(tracer.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations, in microseconds, of the spans whose name starts with
    /// `prefix`.
    pub fn durations_us(&self, prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, in microseconds
    /// (0 when there are none).
    pub fn median_us(&self, name: &str) -> f64 {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        median(&mut durations)
    }

    /// Median *self* time of the spans called `name`, in microseconds: a
    /// span's duration minus the part of it its child spans cover.
    pub fn median_self_us(&self, name: &str) -> f64 {
        // Children are recorded by the same thread as their parent, so
        // (thread, parent id) identifies the parent.
        let mut covered = std::collections::HashMap::<(u16, u32), u64>::new();
        for span in self.spans.iter().filter(|s| s.parent != 0) {
            *covered.entry((span.thread, span.parent)).or_default() += span.duration_ns();
        }
        let mut selfs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children = covered.get(&(s.thread, s.id)).copied().unwrap_or(0);
                s.duration_ns().saturating_sub(children) as f64 / 1e3
            })
            .collect();
        median(&mut selfs)
    }

    /// Writes one JSON object per line: name, thread, id, parent,
    /// request, start and end in nanoseconds since the workload began.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"id\":{},\"parent\":{},\"request\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.thread, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_cover() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut tracer = Tracer::new(true, 0, origin);
        let send = tracer.record("send", 7, 0, at(0), at(10));
        let wait = tracer.record("wait", 7, 0, at(10), at(90));
        let root = tracer.record("submit", 7, 0, at(0), at(100));
        tracer.adopt(send, root);
        tracer.adopt(wait, root);
        let mut trace = Trace::default();
        trace.absorb(tracer);
        assert_eq!(trace.median_us("submit"), 100.0);
        assert_eq!(trace.median_self_us("submit"), 10.0);
        assert_eq!(trace.median_us("wait"), 80.0);
        assert_eq!(trace.median_us("absent"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(false, 0, origin);
        assert_eq!(tracer.record("x", 1, 0, origin, origin), 0);
        let mut trace = Trace::default();
        trace.absorb(tracer);
        assert_eq!(trace.len(), 0);
    }
}
