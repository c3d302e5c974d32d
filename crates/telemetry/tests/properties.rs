//! Property tests for the telemetry primitives: percentile estimates
//! must be monotone in the quantile, snapshot merging must behave like
//! the sum it claims to be, and the per-thread stripes must add up
//! to what one thread would have recorded.

use std::sync::Barrier;

use govdns_telemetry::{Counter, Histogram, Registry, Stripes};
use proptest::prelude::*;

proptest! {
    #[test]
    fn percentiles_are_monotone(
        values in prop::collection::vec(0u32..20_000, 1..200),
        a in 0u32..101,
        b in 0u32..101,
    ) {
        let h = Histogram::latency_ms();
        for &v in &values {
            h.record(f64::from(v));
        }
        let s = h.snapshot();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let plo = s.percentile(f64::from(lo) / 100.0);
        let phi = s.percentile(f64::from(hi) / 100.0);
        prop_assert!(plo <= phi, "p{} = {} > p{} = {}", lo, plo, hi, phi);
        prop_assert!(s.min <= plo, "p{} = {} below min {}", lo, plo, s.min);
        prop_assert!(phi <= s.max, "p{} = {} above max {}", hi, phi, s.max);
    }

    #[test]
    fn counter_merge_is_associative(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let snap = |v: u64| {
            let r = Registry::new();
            r.counter("queries").add(v);
            r.gauge("depth").add(v as i64 % 1000);
            r.snapshot()
        };
        // (a ⊕ b) ⊕ c
        let mut left = snap(a);
        left.merge(&snap(b));
        left.merge(&snap(c));
        // a ⊕ (b ⊕ c)
        let mut bc = snap(b);
        bc.merge(&snap(c));
        let mut right = snap(a);
        right.merge(&bc);
        prop_assert_eq!(left.counters["queries"], right.counters["queries"]);
        prop_assert_eq!(left.counters["queries"], a + b + c);
        prop_assert_eq!(left.gauges["depth"], right.gauges["depth"]);
    }

    #[test]
    fn histogram_merge_matches_recording_everything(
        xs in prop::collection::vec(0u32..20_000, 0..100),
        ys in prop::collection::vec(0u32..20_000, 0..100),
    ) {
        let part_a = Histogram::latency_ms();
        let part_b = Histogram::latency_ms();
        let whole = Histogram::latency_ms();
        for &v in &xs {
            part_a.record(f64::from(v));
            whole.record(f64::from(v));
        }
        for &v in &ys {
            part_b.record(f64::from(v));
            whole.record(f64::from(v));
        }
        let mut merged = part_a.snapshot();
        merged.merge(&part_b.snapshot());
        prop_assert_eq!(merged, whole.snapshot());
    }
}

/// Eight threads — as many as there are stripes — add known amounts to
/// one counter and record known integer values into one histogram; the
/// striped totals must equal a single-threaded recording of the same
/// values exactly, sum, min and max included.
#[test]
fn striped_metrics_sum_to_the_single_threaded_totals() {
    const THREADS: u32 = 8;
    let value = |t: u32, i: u32| f64::from((t * 7_919 + i * 104_729) % 20_000);
    let counter = Counter::new();
    let histogram = Histogram::latency_ms();
    // All threads write at once, not one after another.
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (counter, histogram, start) = (&counter, &histogram, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..2_000 {
                    counter.add(u64::from(t + 1));
                    histogram.record(value(t, i));
                }
            });
        }
    });
    let want = Histogram::latency_ms();
    for t in 0..THREADS {
        for i in 0..2_000 {
            want.record(value(t, i));
        }
    }
    assert_eq!(counter.get(), (1..=u64::from(THREADS)).sum::<u64>() * 2_000);
    assert_eq!(histogram.count(), u64::from(THREADS) * 2_000);
    assert_eq!(histogram.snapshot(), want.snapshot());

    // A restored cell reads back exactly, whatever the stripes held.
    let cells = Stripes::new(2);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cells, start) = (&cells, &start);
            scope.spawn(move || {
                start.wait();
                cells.add(0, u64::from(t) + 1);
                cells.add(1, 1);
            });
        }
    });
    cells.restore(0, 123_456_789);
    assert_eq!((cells.sum(0), cells.sum(1)), (123_456_789, u64::from(THREADS)));
}
