//! Per-thread counter stripes.
//!
//! A counter every probe worker bumps on every query is one cache line
//! that the cores pass back and forth; with a few dozen such writes per
//! delivery the transfers, not the arithmetic, set the cost. [`Stripes`]
//! gives each thread a copy of the cells on cache lines of its own, and
//! a read sums the copies.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How many copies of its cells a [`Stripes`] holds. Threads take
/// stripes round-robin in the order they first write, so this many
/// threads alive at once never share one.
const STRIPES: usize = 8;

/// Cells per [`Line`].
const LINE_CELLS: usize = 16;

/// Two cache lines' worth of cells, aligned so that no line is shared
/// between stripes (the adjacent-line prefetcher pulls lines in pairs).
#[repr(align(128))]
#[derive(Debug, Default)]
struct Line([AtomicU64; LINE_CELLS]);

/// A fixed number of `u64` cells, held once per stripe.
///
/// Writers go through [`local`](Stripes::local), the calling thread's
/// stripe; readers combine the stripes, by [`sum`](Stripes::sum) or by
/// walking [`lanes`](Stripes::lanes). A read that races writers sees
/// each stripe at some moment of its own, so it is exact only once the
/// writers have stopped — which is when totals are reported.
#[derive(Debug)]
pub struct Stripes {
    lines_per_stripe: usize,
    lines: Box<[Line]>,
}

/// One stripe of a [`Stripes`].
#[derive(Clone, Copy, Debug)]
pub struct Lane<'a> {
    lines: &'a [Line],
}

impl Stripes {
    /// `cells` cells per stripe, all zero.
    pub fn new(cells: usize) -> Self {
        let lines_per_stripe = cells.div_ceil(LINE_CELLS).max(1);
        let lines = (0..STRIPES * lines_per_stripe).map(|_| Line::default()).collect();
        Stripes { lines_per_stripe, lines }
    }

    /// The calling thread's stripe.
    pub fn local(&self) -> Lane<'_> {
        self.lane(stripe_index())
    }

    /// Every stripe, in a fixed order.
    pub fn lanes(&self) -> impl Iterator<Item = Lane<'_>> {
        self.lines.chunks(self.lines_per_stripe).map(|lines| Lane { lines })
    }

    fn lane(&self, index: usize) -> Lane<'_> {
        let start = index * self.lines_per_stripe;
        Lane { lines: &self.lines[start..start + self.lines_per_stripe] }
    }

    /// Adds `n` to `cell` in the calling thread's stripe.
    pub fn add(&self, cell: usize, n: u64) {
        self.local().add(cell, n);
    }

    /// The wrapping sum of `cell` over every stripe.
    pub fn sum(&self, cell: usize) -> u64 {
        self.lanes().fold(0, |acc, lane| acc.wrapping_add(lane.get(cell)))
    }

    /// Makes `cell` read `value`: the first stripe holds it and the
    /// others are cleared. Meant for quiescent moments (a resume), not
    /// for racing writers.
    pub fn restore(&self, cell: usize, value: u64) {
        for (i, lane) in self.lanes().enumerate() {
            lane.cell(cell).store(if i == 0 { value } else { 0 }, Ordering::Relaxed);
        }
    }
}

impl<'a> Lane<'a> {
    /// The atomic behind `cell` in this stripe.
    pub fn cell(self, cell: usize) -> &'a AtomicU64 {
        &self.lines[cell / LINE_CELLS].0[cell % LINE_CELLS]
    }

    /// Adds `n` to `cell`.
    pub fn add(self, cell: usize, n: u64) {
        self.cell(cell).fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `cell` in this stripe.
    pub fn get(self, cell: usize) -> u64 {
        self.cell(cell).load(Ordering::Relaxed)
    }
}

/// The calling thread's stripe index, assigned on its first call.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    INDEX.with(|&i| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_past_one_line_are_kept_apart() {
        let s = Stripes::new(LINE_CELLS + 3);
        for cell in 0..LINE_CELLS + 3 {
            s.add(cell, cell as u64 + 1);
        }
        for cell in 0..LINE_CELLS + 3 {
            assert_eq!(s.sum(cell), cell as u64 + 1);
        }
        assert_eq!(s.lanes().count(), STRIPES);
    }
}
