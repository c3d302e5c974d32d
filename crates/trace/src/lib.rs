//! # govdns-trace — the measurement pipeline's flight recorder
//!
//! Aggregate telemetry (the `govdns-telemetry` registry) answers *how
//! many* queries failed; this crate answers *which* query failed and
//! *why*. Every attempt and every decision about it — fault verdicts,
//! limiter charges, breaker denials, backoffs, response classes — is a
//! [`TraceEvent`] recorded into a per-worker ring buffer
//! ([`WorkerTracer`]) and flushed per domain into a trace file framed by
//! [`govdns_model::frame`] under the tag `T1` — the journal's codec and
//! torn-tail discipline.
//!
//! [`OrderedSink`] is also the sink the write-ahead journal in
//! `govdns-core` writes through.
//!
//! Three properties drive the design:
//!
//! 1. **Determinism.** Sampling is a pure function of `(seed,
//!    domain-fnv64)`; events exclude interleaving-dependent state; the
//!    sink writes blocks in campaign index order through a reorder
//!    buffer. Identically seeded campaigns produce byte-identical trace
//!    files at any worker count (CI `cmp`s two of them).
//! 2. **Bounded memory.** The flight recorder keeps at most one ring of
//!    events per worker; on a breaker trip, retry exhaustion, REFUSED
//!    burst, or analysis panic it dumps the last-N events it holds.
//! 3. **A lock-free hot path.** Workers record into their own ring and
//!    hand each finished domain to an [`OrderedSink`] as one channel
//!    send; encoding and file writes run on the sink thread, and no
//!    worker ever takes a sink lock.
//!
//! ```
//! use govdns_trace::{EventRing, Step, TraceData, TraceRecord};
//!
//! let mut ring = EventRing::new(16);
//! ring.push(Step::ParentNs, TraceData::Send { dst: "198.41.0.4".parse().unwrap(), attempt: 0 });
//! let events = ring.take();
//!
//! // Records re-encode byte-identically — the file diff gate relies on it.
//! let record = govdns_trace::TraceRecord::Domain(govdns_trace::DomainBlock {
//!     index: 0,
//!     domain: "portal.gov.zz".into(),
//!     dropped: 0,
//!     events,
//! });
//! assert_eq!(TraceRecord::decode(&record.encode()).unwrap().encode(), record.encode());
//!
//! // Bytes that are not a trace record are an error, never a panic.
//! assert!(TraceRecord::decode("{\"kind\":\"mystery\"}").is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod diff;
mod event;
mod read;
mod ring;
mod sample;
mod sink;
mod tracer;

pub use codec::TraceRecord;
pub use diff::{
    align_blocks, divergence_context, first_divergence, read_trace_pair, AlignedBlock,
    EventDivergence,
};
pub use event::{DomainBlock, FlightDump, Step, TraceData, TraceEvent};
pub use read::{read_trace, TraceHeader, TraceLog};
pub use ring::EventRing;
pub use sample::{TraceSampler, SAMPLE_FULL};
pub use sink::{OrderedSink, SinkEncoder};
pub use tracer::{TraceSpec, Tracer, WorkerTracer, DEFAULT_FLIGHT_CAPACITY, DEFAULT_MAX_DUMPS};
