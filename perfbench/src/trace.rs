//! In-memory spans recorded by the benchmark around its calls into the
//! system, reduced to per-layer self time when the run ends.
//!
//! A span has a name (the layer, `module.operation`), start and end in ns
//! since the run's origin, the span that was open when it began (its
//! parent), the request it belongs to, and the thread that recorded it.
//! A disabled [`Tracer`] records nothing and costs a branch per call, so
//! the untraced run pays nothing for the instrumentation.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and operation, e.g. `flat.freeze`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (equal to the start while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<u32>,
    /// The request (epoch batch or read) the span belongs to.
    pub request: u64,
    /// Which benchmark thread recorded it (0 = main).
    pub thread: u8,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<u32>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u8,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder timing against `origin`; records only when `enabled`.
    pub fn new(enabled: bool, thread: u8, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            thread,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    #[inline]
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, request);
        let out = f();
        self.end(span);
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans in after this tracer's, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Per span name: `(spans, total ns, self ns)`, where self time is a
    /// span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.thread
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        let s = t.begin("a", 1);
        t.end(s);
        assert_eq!(t.time("b", 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, 0, Instant::now());
        let outer = t.begin("write", 1);
        t.time("apply", 1, || spin(200_000));
        t.time("freeze", 1, || spin(100_000));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let st = t.self_times();
        let (n, total, own) = st["write"];
        assert_eq!(n, 1);
        assert_eq!(total - own, spans[1].ns() + spans[2].ns());
        assert!(st["apply"].2 >= 200_000);
        assert_eq!(t.durations_ms("apply").len(), 1);
    }

    #[test]
    fn absorb_rebases_parents_and_writes_jsonl() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, 0, origin);
        main.time("read", 1, || ());
        let mut writer = Tracer::new(true, 1, origin);
        let w = writer.begin("write", 2);
        writer.time("rotate", 2, || ());
        writer.end(w);
        main.absorb(writer);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].thread, 1);

        let dir = crate::scratch::ScratchDir::new_in(&std::env::temp_dir(), "trace").unwrap();
        let path = dir.path().join("t.jsonl");
        main.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\"parent\":1"));
    }
}
