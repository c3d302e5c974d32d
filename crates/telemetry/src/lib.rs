//! # govdns-telemetry
//!
//! The observability substrate for the measurement pipeline.
//!
//! The paper's §III-D ethics section rests on *accounting*: the claim
//! that the campaign's query load is bounded per server and per round
//! must be measurable, not asserted. This crate provides the
//! primitives every stage of the pipeline reports into:
//!
//! * [`Counter`] / [`Gauge`] — lock-free, cheaply cloneable handles
//!   over shared atomics, safe to bump from worker threads; counters
//!   (and histograms) write to per-thread [`Stripes`];
//! * [`Histogram`] — fixed-bucket distributions (latency in
//!   milliseconds, sizes in bytes) answering p50/p90/p99 queries;
//! * [`Span`] — a scope timer that folds wall-clock durations into
//!   named pipeline stages (seed → discovery → round-1 → round-2);
//! * [`QueryLedger`] — the per-round and per-destination accounting
//!   that backs the report's ethics section;
//! * [`Registry`] — the interning hub that owns all of the above and
//!   freezes them into a [`TelemetrySnapshot`] with text, JSON, and
//!   CSV rendering.
//!
//! Handles are deliberately decoupled from the registry: a hot loop
//! interns its counter once and then increments its thread's stripe, so
//! instrumentation stays cheap enough for per-query paths (measured in
//! `crates/bench/benches/telemetry.rs`).
//!
//! ```
//! use govdns_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let queries = registry.counter("net.queries");
//! let rtt = registry.histogram_latency_ms("net.rtt_ms");
//! for i in 0..100 {
//!     queries.inc();
//!     rtt.record(f64::from(i));
//! }
//! let span = registry.span("round1");
//! span.finish();
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["net.queries"], 100);
//! assert!(snapshot.histograms["net.rtt_ms"].percentile(0.50) >= 32.0);
//! assert!(snapshot.stages.contains_key("round1"));
//! ```

#![warn(missing_docs)]

mod delta;
mod histogram;
mod metrics;
mod registry;
mod snapshot;
mod span;
mod stripe;

pub use delta::{ScalarDelta, TelemetryDelta};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use registry::Registry;
pub use snapshot::{QueryLedger, StageSnapshot, TelemetrySnapshot};
pub use span::{ProgressEvent, Span};
pub use stripe::{Lane, Stripes};
