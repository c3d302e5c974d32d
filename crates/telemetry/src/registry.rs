//! The interning hub that owns all live metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::snapshot::StageSnapshot;
use crate::{Counter, Gauge, Histogram, QueryLedger, Span, TelemetrySnapshot};

/// The shared metric registry.
///
/// Cheaply cloneable (all clones observe the same metrics); name
/// lookups intern on first use and return shared handles, so hot paths
/// pay the map lookup once and work on per-thread stripes afterwards.
/// [`Registry::snapshot`] freezes everything into a
/// [`TelemetrySnapshot`].
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    stages: Mutex<BTreeMap<String, StageAccum>>,
    toplists: Mutex<BTreeMap<String, Vec<(String, u64)>>>,
    ledger: Mutex<Option<QueryLedger>>,
}

#[derive(Clone, Debug, Default)]
struct StageAccum {
    total: Duration,
    count: u64,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, created at zero on first
    /// use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner.counters.write().entry(name.to_owned()).or_default().clone()
    }

    /// The gauge registered under `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.gauges.read().get(name) {
            return g.clone();
        }
        self.inner.gauges.write().entry(name.to_owned()).or_default().clone()
    }

    /// The histogram registered under `name`, created with
    /// millisecond-latency buckets on first use.
    pub fn histogram_latency_ms(&self, name: &str) -> Histogram {
        self.histogram_or(name, Histogram::latency_ms)
    }

    /// The histogram registered under `name`, created with byte-size
    /// buckets on first use.
    pub fn histogram_bytes(&self, name: &str) -> Histogram {
        self.histogram_or(name, Histogram::bytes)
    }

    fn histogram_or(&self, name: &str, make: impl FnOnce() -> Histogram) -> Histogram {
        if let Some(h) = self.inner.histograms.read().get(name) {
            return h.clone();
        }
        self.inner.histograms.write().entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Starts a timer that accumulates into stage `name` when finished
    /// or dropped.
    pub fn span(&self, name: &str) -> Span {
        Span::new(self.clone(), name)
    }

    /// Folds an externally measured duration into stage `name`.
    pub fn record_stage(&self, name: &str, elapsed: Duration) {
        let mut stages = self.inner.stages.lock();
        let accum = stages.entry(name.to_owned()).or_default();
        accum.total += elapsed;
        accum.count += 1;
    }

    /// Replaces the top-N list published under `name` (e.g. busiest
    /// destinations). Entries are `(label, count)`, busiest first.
    pub fn set_toplist(&self, name: &str, entries: Vec<(String, u64)>) {
        self.inner.toplists.lock().insert(name.to_owned(), entries);
    }

    /// Publishes the campaign's query ledger (overwrites any previous
    /// one).
    pub fn set_ledger(&self, ledger: QueryLedger) {
        *self.inner.ledger.lock() = Some(ledger);
    }

    /// Freezes every metric into an owned, serializable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .inner
                .counters
                .read()
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .read()
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .read()
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            stages: self
                .inner
                .stages
                .lock()
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        StageSnapshot { total_secs: s.total.as_secs_f64(), count: s.count },
                    )
                })
                .collect(),
            toplists: self.inner.toplists.lock().clone(),
            ledger: self.inner.ledger.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_interned() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.counter("x").get(), 2);

        let h1 = r.histogram_latency_ms("h");
        let h2 = r.histogram_latency_ms("h");
        h1.record(1.0);
        h2.record(2.0);
        assert_eq!(r.snapshot().histograms["h"].count, 2);
    }

    #[test]
    fn clones_share_the_same_metrics() {
        let r = Registry::new();
        let view = r.clone();
        r.counter("shared").add(3);
        view.gauge("depth").set(-2);
        let snap = view.snapshot();
        assert_eq!(snap.counters["shared"], 3);
        assert_eq!(snap.gauges["depth"], -2);
    }

    #[test]
    fn snapshot_collects_everything() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(7);
        r.histogram_bytes("bytes").record(100.0);
        r.record_stage("round1", Duration::from_millis(5));
        r.set_toplist("busiest", vec![("10.0.0.1".into(), 9)]);
        r.set_ledger(QueryLedger { total: 1, ..Default::default() });

        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 1);
        assert_eq!(snap.gauges["g"], 7);
        assert_eq!(snap.histograms["bytes"].count, 1);
        assert_eq!(snap.stages["round1"].count, 1);
        assert_eq!(snap.toplists["busiest"][0].1, 9);
        assert_eq!(snap.ledger.as_ref().unwrap().total, 1);
    }

    #[test]
    fn registry_is_thread_safe() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for worker in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    let c = r.counter("net.queries");
                    let h = r.histogram_latency_ms("net.rtt_ms");
                    for i in 0..500 {
                        c.inc();
                        h.record(f64::from(worker * 500 + i));
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters["net.queries"], 2000);
        assert_eq!(snap.histograms["net.rtt_ms"].count, 2000);
    }
}
