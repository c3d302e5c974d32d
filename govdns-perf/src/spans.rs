//! The traced runner's span recorder: spans are kept in memory while
//! the campaign runs and written out once it ends, so recording costs
//! two clock reads and a `Vec` push per span.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`round1`, `probe.domain`, `analysis.yearly`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Campaign index of the domain the span worked on, if any.
    pub domain: Option<u64>,
}

impl Span {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records properly nested spans from one thread.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn time<T>(&mut self, name: &'static str, domain: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, domain);
        let out = f();
        self.end(id);
        out
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, domain: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            domain,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: spans must nest.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.secs() * 1e6).collect()
    }

    /// Total duration of every span named `name`, seconds (0 for none).
    pub fn total_secs(&self, name: &str) -> f64 {
        // `fold` from +0.0: an empty float `sum` is -0.0.
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).fold(0.0, |a, b| a + b)
    }

    /// Each span's self time, seconds: its duration minus the part its
    /// children cover. Spans come from one thread, so children never
    /// overlap and the subtraction is exact.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Writes one JSON object per span, in opening order.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"domain\":{}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.domain),
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_roots() {
        let mut s = Spans::default();
        s.time("outer", None, || std::thread::sleep(std::time::Duration::from_millis(1)));
        let root = s.begin("root", None);
        s.time("child", Some(3), || std::thread::sleep(std::time::Duration::from_millis(2)));
        s.time("child", Some(4), || ());
        s.end(root);
        let own = s.self_secs();
        let roots: f64 = s.spans().iter().filter(|x| x.parent.is_none()).map(Span::secs).sum();
        let total: f64 = own.iter().sum();
        assert!((roots - total).abs() < 1e-12);
        assert!(own[1] >= 0.0 && own[1] < s.spans()[1].secs());
        assert_eq!(s.spans()[2].parent, Some(1));
        assert_eq!(s.durations_us("child").len(), 2);
    }
}
