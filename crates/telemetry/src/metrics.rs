//! Lock-free scalar metrics: [`Counter`] and [`Gauge`].

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use crate::Stripes;

/// A monotonically increasing event count.
///
/// Clones share the same [`Stripes`], so a hot loop interns its counter
/// once ([`crate::Registry::counter`]) and thereafter adds to its own
/// thread's stripe — no lock, no lookup, no cache line shared with
/// another worker. Reading sums the stripes.
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<Stripes>,
}

impl Default for Counter {
    fn default() -> Self {
        Counter { value: Arc::new(Stripes::new(1)) }
    }
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.add(0, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.sum(0)
    }
}

/// An instantaneous signed level (queue depth, live workers, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Shifts the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_clones_share_state() {
        let a = Counter::new();
        let b = a.clone();
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_and_shift() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(g.clone().get(), 7);
    }
}
