//! # govdns-model
//!
//! The DNS data model underlying the govdns reproduction of the DSN 2022
//! study *"A Comprehensive, Longitudinal Study of Government DNS Deployment
//! at Global Scale"*.
//!
//! This crate provides the vocabulary every other crate in the workspace
//! speaks:
//!
//! * [`DomainName`] — a validated, case-normalized domain name with the
//!   label-level operations the measurement pipeline needs (parent, zone
//!   level, suffix tests).
//! * [`ResourceRecord`], [`RecordData`], [`RecordType`] — resource records
//!   for the types the study touches (NS, A, AAAA, SOA, CNAME, TXT, PTR).
//! * [`Zone`] — an authoritative zone with real *zone-cut* semantics: a
//!   lookup yields an authoritative answer, a referral with glue, NXDOMAIN,
//!   or NODATA exactly as an authoritative server implementation would
//!   decide it.
//! * [`Message`], [`Question`], [`Rcode`] — the query/response shapes the
//!   simulated network transports.
//! * [`wire`] — RFC 1035 wire-format encoding and decoding (with name
//!   compression), so the simulated traffic accounting measures realistic
//!   byte volumes.
//! * [`json`] — the one JSON codec behind every on-disk artifact: the
//!   journal, trace records, corpus cases and the canonical reports.
//! * [`fnv64`] — the one FNV-1a fingerprint: frame checksums, run
//!   fingerprints and generated-artifact pins.
//! * [`FxHashMap`] — the fast, unkeyed hasher of the in-memory maps on
//!   the query path (zone owners, server origins, the resolver cache).
//! * [`NameTable`] — dense in-memory [`NameId`]s for names, so the
//!   analyses group records by integer, not by label strings.
//! * [`frame`] — the one checksummed record framing, with its torn-tail
//!   discipline: the journal's `J1` and the trace file's `T1` records.
//! * [`SimDate`] — a chrono-free civil date used for the 2011–2020
//!   longitudinal timeline.
//!
//! ## Example
//!
//! ```
//! use govdns_model::{DomainName, Zone, RecordData, ZoneLookup};
//!
//! # fn main() -> Result<(), govdns_model::ModelError> {
//! let origin: DomainName = "gov.example".parse()?;
//! let mut zone = Zone::new(origin.clone());
//! let child: DomainName = "portal.gov.example".parse()?;
//! let ns: DomainName = "ns1.portal.gov.example".parse()?;
//! zone.add_ns(child.clone(), ns.clone());
//! zone.add_glue(ns, "192.0.2.1".parse().unwrap());
//!
//! // A query below the delegation point yields a referral, not an answer.
//! let q: DomainName = "www.portal.gov.example".parse()?;
//! match zone.lookup(&q, govdns_model::RecordType::A) {
//!     ZoneLookup::Referral { ns, .. } => assert_eq!(ns.name(), &child),
//!     other => panic!("expected referral, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod date;
mod error;
mod fnv;
pub mod frame;
mod fxhash;
pub mod json;
mod message;
mod name;
mod nametable;
mod record;
mod rrset;
mod soa;
pub mod wire;
mod zone;
pub mod zonefile;

pub use date::{DateRange, SimDate, Year, DAYS_PER_WEEK};
pub use error::ModelError;
pub use fnv::fnv64;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use message::{Message, MessageKind, Question, Rcode};
pub use name::{DomainName, Label, MAX_LABELS, MAX_NAME_LEN};
pub use nametable::{NameId, NameTable};
pub use record::{RecordData, RecordType, ResourceRecord, Ttl};
pub use rrset::RrSet;
pub use soa::Soa;
pub use zone::{Glue, Zone, ZoneLookup};
