//! # govdns-diff — cross-run comparison and the regression corpus
//!
//! A measurement campaign is only trustworthy if a re-run can be
//! *compared* to it precisely. This crate turns two campaign outputs —
//! canonical dataset JSON, `T1` trace files, telemetry snapshots — into
//! a structured [`RunDiff`]:
//!
//! * **Dataset**: per-domain outcome-class transitions (for instance
//!   `authoritative → degraded`), attempt/query/elapsed shifts, and
//!   distribution summaries ([`DatasetDiff`]);
//! * **Remediation**: which prescribed-action tallies moved;
//! * **Smells**: which operational-smell verdicts appeared, resolved,
//!   or changed severity between the runs ([`SmellDiff`]);
//! * **Trace**: per-domain *first divergence* — the first event at
//!   which the two runs' recorded decision streams disagree, with the
//!   surrounding timeline from both sides ([`TraceDiff`]);
//! * **Telemetry**: opt-in counter/gauge/histogram deltas (wall-clock
//!   stages excluded), informational because they vary with worker
//!   count even when every probe outcome is identical.
//!
//! The determinism contract makes the diff a *gate*, not a heuristic:
//! identically seeded runs diff empty at any worker count, and any
//! non-empty diff of two same-seed runs is a regression. CI enforces
//! both directions.
//!
//! The second half is the regression corpus ([`CorpusCase`]): when a
//! campaign assertion or analysis fails, the offending domains' trace
//! blocks and the seeds that generated their world are archived into a
//! small JSON case that [`CorpusCase::replay`] re-executes against a
//! fresh simnet — byte-comparing the replayed trace blocks against the
//! recording — so the failure stays reproducible long after the run
//! that exposed it.
//!
//! ```
//! use govdns_diff::DatasetView;
//!
//! // Self-comparison of any view is empty — the CLI's `diff` mode
//! // builds views from two runs' `dataset.json` files instead.
//! let view = DatasetView::default();
//! assert!(view.diff(&view).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod dataset;
mod rundiff;
mod smelldiff;

pub use corpus::{
    parse_profile, profile_label, CorpusCase, CorpusDomain, ReplayMismatch, ReplayOutcome,
    ReplaySetup, CAPTURE_CAP,
};
pub use dataset::{ClassTransition, DatasetDiff, DatasetView, DomainRow, NamedShift, RttSummary};
pub use rundiff::{
    counts_from_json, remedies_delta, telemetry_from_json, BlockDivergence, RenderOptions, RunDiff,
    TraceDiff,
};
pub use smelldiff::{SmellDiff, SmellTransition, SmellView};
