//! Stage timing ([`Span`]) and live progress reporting
//! ([`ProgressEvent`]).

use std::borrow::Cow;
use std::time::{Duration, Instant};

use crate::Registry;

/// A scope timer for a named pipeline stage.
///
/// Obtained from [`Registry::span`]; the elapsed wall-clock time is
/// folded into the stage's total either explicitly via
/// [`Span::finish`] or implicitly on drop. Repeated spans under the
/// same name accumulate (total duration + invocation count), so
/// per-domain probe spans aggregate instead of exploding the snapshot.
#[derive(Debug)]
pub struct Span {
    registry: Registry,
    name: Cow<'static, str>,
    started: Instant,
    recorded: bool,
}

impl Span {
    pub(crate) fn new(registry: Registry, name: Cow<'static, str>) -> Self {
        Span { registry, name, started: Instant::now(), recorded: false }
    }

    /// Stage name this span accumulates under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time elapsed since the span started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Stops the timer, records the duration, and returns it.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        self.registry.record_stage(&self.name, elapsed);
        self.recorded = true;
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorded {
            self.registry.record_stage(&self.name, self.started.elapsed());
        }
    }
}

/// A live progress notification, emitted by the campaign runner every
/// N probed domains (and once at the end of each round).
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressEvent {
    /// Pipeline stage the event belongs to (e.g. `"round1"`).
    pub stage: String,
    /// Work items completed so far within the stage.
    pub done: usize,
    /// Total work items in the stage.
    pub total: usize,
    /// Queries issued campaign-wide at the time of the event.
    pub queries_issued: u64,
}

impl ProgressEvent {
    /// Completion ratio in `[0, 1]` (1 when `total` is zero).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.done as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_finish_and_on_drop() {
        let registry = Registry::new();
        let explicit = registry.span("stage.a");
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = explicit.finish();
        assert!(elapsed >= Duration::from_millis(2));

        {
            let _implicit = registry.span("stage.a");
        }

        let snap = registry.snapshot();
        let stage = &snap.stages["stage.a"];
        assert_eq!(stage.count, 2);
        assert!(stage.total_secs >= 0.002);
    }

    #[test]
    fn progress_fraction() {
        let e = ProgressEvent { stage: "round1".into(), done: 25, total: 100, queries_issued: 40 };
        assert!((e.fraction() - 0.25).abs() < 1e-12);
        let done = ProgressEvent { stage: "seed".into(), done: 0, total: 0, queries_issued: 0 };
        assert_eq!(done.fraction(), 1.0);
    }
}
