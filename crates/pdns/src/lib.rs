//! # govdns-pdns
//!
//! A passive-DNS database in the mold of Farsight's DNSDB — the substrate
//! the study's longitudinal (2011–2020) analyses run on.
//!
//! The real DNSDB is fed by a worldwide sensor network and zone files and
//! coalesces observations of each unique `(rrname, rrtype, rdata)` tuple
//! into `first_seen`/`last_seen` timestamps with an observation count. The
//! paper issues *left-hand wildcard* searches (`*.gov.xx`) for NS records
//! to expand its seed domains into the full set of delegated government
//! zones, then buckets records by year to reconstruct deployment history.
//!
//! This crate reproduces exactly that query surface:
//!
//! * [`PdnsDb::observe_span`] — ingestion with DNSDB coalescing semantics,
//! * [`PdnsDb::scan_subtree`] — left-hand wildcard search as borrowed
//!   [`PdnsRef`] views, the one subtree scan every search is built on,
//! * [`PdnsDb::search_subtree`] — the same, cloned into owned entries,
//! * [`PdnsDb::search_subtree_in`] — restricted to a time window (the
//!   paper's "seen between 2020-01-01 and collection time" filter) and
//!   optionally one record type; both filters run on the borrowed scan,
//!   before any entry is materialised,
//! * [`SensorNetwork`] — simulated sensor coverage: records can be missed
//!   or observed late, so the database is an *under*-approximation of the
//!   zone truth, as in reality,
//! * [`filter`] — the paper's 7-day stability rule and the
//!   earliest-government-use cutoff,
//! * [`export`] — flat-file import/export, so the pipeline can run over a
//!   real passive-DNS dump instead of the simulated feed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod entry;
pub mod export;
pub mod filter;
mod sensor;

pub use db::PdnsDb;
pub use entry::{PdnsEntry, PdnsRef};
pub use sensor::{SensorConfig, SensorNetwork};
