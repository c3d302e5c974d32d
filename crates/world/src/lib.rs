//! # govdns-world
//!
//! A synthetic e-government world, calibrated to the aggregates published
//! in the DSN 2022 study — the stand-in for the live Internet, Farsight's
//! DNSDB feed, the UN E-Government Knowledge Base, MaxMind's ASN database,
//! GoDaddy's storefront, and the Web Archive.
//!
//! [`WorldGenerator`] builds a [`World`] from a seed and a scale factor:
//!
//! * 193 UN member countries ([`countries`]) with their UN sub-regions,
//! * a third-party DNS provider market ([`ProviderCatalog`]) whose shares
//!   evolve 2011→2020 the way Tables II–III report (Amazon and Cloudflare
//!   growing from nothing, EveryDNS dying, DNSPod staying Chinese, ...),
//! * per-domain deployment timelines (creation, churn, provider
//!   migrations, single-NS cohorts with the observed ~20%/year turnover),
//! * a sensor-fed passive-DNS database covering the decade,
//! * an April-2021 DNS snapshot as simulated zones and servers, with every
//!   misconfiguration class the paper measures injected at calibrated
//!   rates ([`FaultClass`]): partial/fully defective delegations, stale
//!   records, typo'd nameserver names, relative-label truncation,
//!   parent/child inconsistencies of each Sommese category, and dangling
//!   NS targets whose registered domains are registrable,
//! * a [`Registrar`] with heavy-tailed pricing and a [`WebArchive`] of
//!   earliest government snapshots,
//! * the [`UnKnowledgeBase`] with the paper's documented seed-selection
//!   quirks (unresolvable links, MSQ mismatches, one squatted portal).
//!
//! The measurement pipeline (`govdns-core`) consumes only the interfaces a
//! real campaign would have: the knowledge base, the PDNS query API, the
//! network, the ASN database, and the registrar. Generation ground truth
//! stays available for validation tests via [`World::truth`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addressing;
pub mod calibration;
mod countries_data;
mod country;
mod deployment;
mod faults;
mod generator;
mod provider;
mod registrar;
mod timeline;
mod unkb;
mod webarchive;
mod world;

pub use addressing::AddressPlan;
pub use countries_data::countries;
pub use country::{Country, CountryCode, SubRegion};
pub use deployment::{DeploymentStyle, DiversityPolicy, NsPool};
pub use faults::{FaultClass, FaultPlan, InconsistencyKind};
pub use generator::{WorldConfig, WorldGenerator};
pub use govdns_pdns::SensorConfig;
pub use provider::{
    MatchRule, MatchTarget, MatcherIndex, NamingStyle, Provider, ProviderCatalog, ProviderId,
    ProviderMatcher,
};
pub use registrar::{PriceUsd, Registrar};
pub use timeline::{DomainTimeline, Epoch};
pub use unkb::{PortalEntry, RegistryDocs, UnKnowledgeBase};
pub use webarchive::WebArchive;
pub use world::{DomainTruth, World, WorldTruth};
