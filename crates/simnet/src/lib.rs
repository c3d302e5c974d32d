//! # govdns-simnet
//!
//! A deterministic, in-memory internet of authoritative DNS servers — the
//! substrate the study's active measurements run against.
//!
//! The paper probed the real Internet from a university vantage point; this
//! crate substitutes a simulated one that exhibits every behaviour the
//! paper's pipeline must cope with:
//!
//! * [`ServerBehavior::Responsive`] servers answering from real [`Zone`]s
//!   with authoritative answers and referrals,
//! * [`ServerBehavior::Unresponsive`] hosts (query timeouts — the raw
//!   material of *fully* and *partially* defective delegations),
//! * [`ServerBehavior::Lame`] servers that are reachable but not
//!   authoritative (REFUSED / SERVFAIL / upward referrals),
//! * [`ServerBehavior::Parking`] services that answer *everything* and
//!   redirect traffic to themselves (the dangling-NS hijack scenario of
//!   §IV-D),
//! * the relative-label truncation bug (`ns` instead of `ns.example.com`)
//!   that the paper traces to trailing-dot typos in zone files.
//!
//! [`SimNetwork`] routes queries by IPv4 address with a latency model,
//! probabilistic loss, and wire-format byte accounting. [`StubResolver`]
//! provides iterative resolution from the simulated root, which the
//! measurement client uses to locate parent-zone nameservers.
//!
//! The [`AsnDb`] maps the simulated address plan to autonomous systems,
//! standing in for MaxMind's GeoIP2 ASN database in the diversity analysis
//! (Table I).
//!
//! [`Zone`]: govdns_model::Zone

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod asn;
mod fault;
mod latency;
mod network;
mod resolver;
mod server;

pub use addr::{dst_shard, prefix24, Prefix24, ShardedCounts, DST_SHARDS};
pub use asn::{Asn, AsnDb};
pub use fault::{
    ChaosProfile, FaultDecision, FaultKind, FaultPlan, FaultProfile, FaultRule, FaultScope,
    FaultStats,
};
pub use latency::LatencyModel;
pub use network::{DeliveryOutcome, DeliveryTrace, SimNetwork, TrafficStats};
pub use resolver::{CacheChanges, CacheEntry, ResolveError, ResolveResult, StubResolver};
pub use server::{AuthoritativeServer, LameMode, ServerBehavior};
