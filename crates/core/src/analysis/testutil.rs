//! Hand-built fixtures for analysis unit tests: probe builders, dataset
//! assembly, and a minimal campaign.

use std::net::Ipv4Addr;

use govdns_model::{DomainName, SimDate};
use govdns_simnet::{AsnDb, SimNetwork};
use govdns_world::{
    countries, Country, CountryCode, ProviderMatcher, Registrar, RegistryDocs, UnKnowledgeBase,
    WebArchive,
};

use crate::discovery::DiscoveredDomain;
use crate::probe::{DomainProbe, ResponseClass, ServerObservation, ServerProbe};
use crate::seed::{SeedDomain, SeedKind, SeedProvenance};
use crate::{Campaign, MeasurementDataset};

pub(crate) fn n(s: &str) -> DomainName {
    s.parse().expect("test names are valid")
}

/// Builder for a [`DomainProbe`].
pub(crate) struct ProbeBuilder {
    probe: DomainProbe,
}

impl ProbeBuilder {
    /// Sets the fetched SOA.
    pub(crate) fn soa(mut self, mname: &str, rname: &str) -> Self {
        self.probe.soa = Some(govdns_model::Soa::new(n(mname), n(rname)));
        self
    }

    pub(crate) fn new(domain: &str) -> Self {
        let domain = n(domain);
        ProbeBuilder {
            probe: DomainProbe {
                parent_zone: domain.parent(),
                domain,
                parent_addrs: vec![Ipv4Addr::new(10, 0, 0, 1)],
                parent_observations: vec![ServerObservation {
                    addr: Ipv4Addr::new(10, 0, 0, 1),
                    class: ResponseClass::Empty(0),
                    attempts: 1,
                }],
                parent_ns: Vec::new(),
                child_ns: Vec::new(),
                servers: Vec::new(),
                soa: None,
                queries: 1,
                elapsed_ms: 1,
                rounds: 1,
            },
        }
    }

    /// Parent-side NS set.
    pub(crate) fn parent(mut self, hosts: &[&str]) -> Self {
        self.probe.parent_ns = hosts.iter().map(|h| n(h)).collect();
        self
    }

    /// Child-side NS set.
    pub(crate) fn child(mut self, hosts: &[&str]) -> Self {
        self.probe.child_ns = hosts.iter().map(|h| n(h)).collect();
        self
    }

    /// Adds a server that answers authoritatively at `addr`.
    pub(crate) fn serving(mut self, host: &str, addr: [u8; 4]) -> Self {
        let host = n(host);
        self.probe.servers.push(ServerProbe {
            in_parent: self.probe.parent_ns.contains(&host),
            in_child: self.probe.child_ns.contains(&host),
            host: host.clone(),
            addrs: vec![Ipv4Addr::from(addr)],
            observations: vec![ServerObservation {
                addr: Ipv4Addr::from(addr),
                class: ResponseClass::Authoritative(
                    self.probe.child_ns.clone().into_iter().collect(),
                ),
                attempts: 1,
            }],
            recovered_in_round2: false,
        });
        self
    }

    /// Adds a server that answers authoritatively, but only after
    /// backoff retries — a *degraded* exchange.
    pub(crate) fn degraded_serving(mut self, host: &str, addr: [u8; 4]) -> Self {
        self = self.serving(host, addr);
        let server = self.probe.servers.last_mut().expect("just pushed");
        server.observations[0].attempts = 3;
        self
    }

    /// Adds a defective server: resolvable but silent.
    pub(crate) fn dead(mut self, host: &str, addr: [u8; 4]) -> Self {
        let host = n(host);
        self.probe.servers.push(ServerProbe {
            in_parent: self.probe.parent_ns.contains(&host),
            in_child: self.probe.child_ns.contains(&host),
            host,
            addrs: vec![Ipv4Addr::from(addr)],
            observations: vec![ServerObservation {
                addr: Ipv4Addr::from(addr),
                class: ResponseClass::Timeout,
                attempts: 1,
            }],
            recovered_in_round2: false,
        });
        self
    }

    /// Adds an unresolvable server.
    pub(crate) fn unresolvable(mut self, host: &str) -> Self {
        let host = n(host);
        self.probe.servers.push(ServerProbe {
            in_parent: self.probe.parent_ns.contains(&host),
            in_child: self.probe.child_ns.contains(&host),
            host,
            addrs: Vec::new(),
            observations: Vec::new(),
            recovered_in_round2: false,
        });
        self
    }

    /// Adds a server whose exchange a circuit breaker denied: the
    /// observation is `Skipped` with zero attempts — nothing was sent.
    pub(crate) fn quarantined(mut self, host: &str, addr: [u8; 4]) -> Self {
        let host = n(host);
        self.probe.servers.push(ServerProbe {
            in_parent: self.probe.parent_ns.contains(&host),
            in_child: self.probe.child_ns.contains(&host),
            host,
            addrs: vec![Ipv4Addr::from(addr)],
            observations: vec![ServerObservation {
                addr: Ipv4Addr::from(addr),
                class: ResponseClass::Skipped,
                attempts: 0,
            }],
            recovered_in_round2: false,
        });
        self
    }

    /// Adds a server that responds but without authority (lame).
    pub(crate) fn lame(mut self, host: &str, addr: [u8; 4]) -> Self {
        let host = n(host);
        self.probe.servers.push(ServerProbe {
            in_parent: self.probe.parent_ns.contains(&host),
            in_child: self.probe.child_ns.contains(&host),
            host,
            addrs: vec![Ipv4Addr::from(addr)],
            observations: vec![ServerObservation {
                addr: Ipv4Addr::from(addr),
                class: ResponseClass::Rejected(5),
                attempts: 1,
            }],
            recovered_in_round2: false,
        });
        self
    }

    /// Marks the parent as silent (no response at all).
    pub(crate) fn parent_silent(mut self) -> Self {
        for o in &mut self.probe.parent_observations {
            o.class = ResponseClass::Timeout;
        }
        self
    }

    pub(crate) fn build(self) -> DomainProbe {
        self.probe
    }
}

/// A dataset over `(probe, country-code)` pairs, with one suffix seed per
/// country mentioned.
pub(crate) fn dataset(probes: Vec<(DomainProbe, &str)>) -> MeasurementDataset {
    let mut seeds: Vec<SeedDomain> = Vec::new();
    let mut discovered = Vec::new();
    let mut only_probes = Vec::new();
    for (probe, cc) in probes {
        let country = CountryCode::new(cc);
        let seed_name = n(&format!("gov.{cc}"));
        if !seeds.iter().any(|s: &SeedDomain| s.country == country) {
            seeds.push(SeedDomain {
                country,
                name: seed_name.clone(),
                kind: SeedKind::ReservedSuffix,
                earliest_government_use: None,
                provenance: SeedProvenance::PortalLink,
                portal_resolved: true,
            });
        }
        discovered.push(DiscoveredDomain { name: probe.domain.clone(), country, seed: seed_name });
        only_probes.push(probe);
    }
    MeasurementDataset {
        seeds,
        discovered,
        probes: only_probes,
        traffic: Default::default(),
        faults: Default::default(),
        collection_date: SimDate::from_ymd(2021, 4, 15),
        retried: 0,
        telemetry: Default::default(),
    }
}

/// Owner of the pieces a [`Campaign`] borrows.
pub(crate) struct CampaignFixture {
    pub unkb: UnKnowledgeBase,
    pub docs: RegistryDocs,
    pub webarchive: WebArchive,
    pub pdns: govdns_pdns::PdnsDb,
    pub network: SimNetwork,
    pub roots: Vec<Ipv4Addr>,
    pub asn_db: AsnDb,
    pub registrar: Registrar,
    pub matchers: Vec<ProviderMatcher>,
    pub countries: Vec<Country>,
}

impl Default for CampaignFixture {
    fn default() -> Self {
        CampaignFixture {
            unkb: UnKnowledgeBase::new(),
            docs: RegistryDocs::new(),
            webarchive: WebArchive::new(),
            pdns: govdns_pdns::PdnsDb::new(),
            network: SimNetwork::new(0),
            roots: vec![Ipv4Addr::new(10, 0, 0, 1)],
            asn_db: AsnDb::new(),
            registrar: Registrar::new(),
            matchers: Vec::new(),
            countries: countries(),
        }
    }
}

impl CampaignFixture {
    pub(crate) fn campaign(&self) -> Campaign<'_> {
        Campaign {
            unkb: &self.unkb,
            registry_docs: &self.docs,
            webarchive: &self.webarchive,
            pdns: &self.pdns,
            network: &self.network,
            roots: &self.roots,
            asn_db: &self.asn_db,
            registrar: &self.registrar,
            matchers: &self.matchers,
            countries: &self.countries,
            collection_date: SimDate::from_ymd(2021, 4, 15),
        }
    }
}

use std::collections::BTreeMap;

use crate::analysis::longitudinal::{DomainHistory, Longitudinal};
use govdns_model::{DateRange, RecordData, Soa};
use govdns_pdns::PdnsEntry;
use proptest::prelude::*;

/// Builds one PDNS NS entry spanning `[from, to]` (inclusive, y/m/d).
pub(crate) fn ns_entry(
    owner: &str,
    target: &str,
    from: (i32, u32, u32),
    to: (i32, u32, u32),
) -> PdnsEntry {
    PdnsEntry {
        name: n(owner),
        rdata: govdns_model::RecordData::Ns(n(target)),
        first_seen: SimDate::from_ymd(from.0, from.1, from.2),
        last_seen: SimDate::from_ymd(to.0, to.1, to.2),
        count: 1,
    }
}

/// Builds one PDNS SOA entry spanning `[from, to]` (inclusive, y/m/d).
pub(crate) fn soa_entry(
    owner: &str,
    mname: &str,
    rname: &str,
    from: (i32, u32, u32),
    to: (i32, u32, u32),
) -> PdnsEntry {
    PdnsEntry {
        rdata: govdns_model::RecordData::Soa(govdns_model::Soa::new(n(mname), n(rname))),
        ..ns_entry(owner, mname, from, to)
    }
}

/// Builds a history under `gov.{cc}`.
pub(crate) fn history(owner: &str, cc: &str, entries: Vec<PdnsEntry>) -> DomainHistory {
    DomainHistory {
        name: n(owner),
        country: CountryCode::new(cc),
        seed: n(&format!("gov.{cc}")),
        ns_entries: entries,
        soa_entries: Vec::new(),
    }
}

/// Wraps histories into a longitudinal view.
pub(crate) fn longitudinal(histories: Vec<DomainHistory>) -> Longitudinal {
    Longitudinal::new(histories)
}

/// The whole-year range helper.
pub(crate) fn year(y: i32) -> DateRange {
    DateRange::year(y)
}

/// Owners: both nested seeds, names beneath each, a disposable name,
/// and a decoy outside both. Labels may hold a hyphen, so names whose
/// string order differs from their label order are drawn (`a-b.gov.zz`
/// sorts before `a.gov.zz` only as a string).
pub(crate) fn owner() -> impl Strategy<Value = DomainName> {
    (0u8..6, "[a-c][a-c-]{0,2}").prop_map(|(kind, label)| match kind {
        0 => n("gov.zz"),
        1 => n("city.gov.zz"),
        2 => n(&format!("{label}.gov.zz")),
        3 => n(&format!("{label}.city.gov.zz")),
        4 => n("x0a1b2c3d.gov.zz"),
        _ => n(&format!("{label}.gov.zx")),
    })
}

/// Records drawn by [`owner`], [`rdata`] and [`span`], with counts.
pub(crate) fn drawn_records() -> impl Strategy<Value = Vec<(DomainName, RecordData, DateRange, u64)>>
{
    prop::collection::vec((owner(), rdata(), span(), 1u64..5), 0..40)
}

impl CampaignFixture {
    /// A fixture whose PDNS holds `records`.
    pub(crate) fn with_records(records: Vec<(DomainName, RecordData, DateRange, u64)>) -> Self {
        let mut f = CampaignFixture::default();
        for (name, rdata, span, count) in records {
            f.pdns.observe_span(name, rdata, span, count);
        }
        f
    }
}

/// A reserved-suffix seed with no government-use cutoff.
pub(crate) fn seed(name: &str, cc: &str) -> SeedDomain {
    SeedDomain {
        country: CountryCode::new(cc),
        name: n(name),
        kind: SeedKind::ReservedSuffix,
        earliest_government_use: None,
        provenance: SeedProvenance::PortalLink,
        portal_resolved: true,
    }
}

/// The seeds [`owner`] draws under: `gov.zz` (zz), the nested
/// `city.gov.zz` (yy) and the decoy's `gov.zx` (zx), in either nesting
/// order, each with no cutoff or a government-use cutoff drawn from
/// 2010 to 2021.
pub(crate) fn drawn_seeds() -> impl Strategy<Value = Vec<SeedDomain>> {
    let cutoff = || {
        let (from, to) =
            (SimDate::from_ymd(2010, 1, 1).days(), SimDate::from_ymd(2021, 12, 31).days());
        (any::<bool>(), from..to)
            .prop_map(|(clamped, day)| clamped.then(|| SimDate::from_days(day)))
    };
    (any::<bool>(), cutoff(), cutoff(), cutoff()).prop_map(|(nested_first, a, b, c)| {
        let mut seeds = vec![seed("gov.zz", "zz"), seed("city.gov.zz", "yy"), seed("gov.zx", "zx")];
        if nested_first {
            seeds.swap(0, 1);
        }
        for (seed, cutoff) in seeds.iter_mut().zip([a, b, c]) {
            if cutoff.is_some() {
                seed.kind = SeedKind::RegisteredDomain;
                seed.earliest_government_use = cutoff;
            }
        }
        seeds
    })
}

/// NS records drawn from a small host pool (so one host serves many
/// names), plus SOA and A records under the same owners.
pub(crate) fn rdata() -> impl Strategy<Value = RecordData> {
    const HOSTS: [&str; 4] =
        ["ns1.gov.zz", "ns2.city.gov.zz", "ns1.prov.example", "ns2.prov.example"];
    (0u8..4, 0..HOSTS.len()).prop_map(|(kind, host)| match kind {
        0 | 1 => RecordData::Ns(n(HOSTS[host])),
        2 => RecordData::Soa(Soa::new(n(HOSTS[host]), n("hostmaster.gov.zz"))),
        _ => RecordData::A([192, 0, 2, host as u8].into()),
    })
}

/// Spans from 2008 to 2023: wholly before 2011, wholly after 2020,
/// single days, spans straddling one or more year boundaries, and spans
/// of whole years (January 1 to December 31).
pub(crate) fn span() -> impl Strategy<Value = DateRange> {
    let from = SimDate::from_ymd(2008, 1, 1).days();
    let to = SimDate::from_ymd(2023, 12, 31).days();
    (from..to, 0i64..1500, 0u8..4).prop_map(|(start, len, kind)| {
        let (first, last) = (SimDate::from_days(start), SimDate::from_days(start + len));
        match kind {
            0 => DateRange::new(SimDate::year_start(first.year()), SimDate::year_end(last.year())),
            _ => DateRange::new(first, last),
        }
    })
}

/// Histories over records drawn by [`owner`], [`rdata`] and [`span`]:
/// one per owner, holding its NS and SOA entries, under the longest of
/// the seeds `city.gov.zz` (country yy), `gov.zz` (zz) and the decoy's
/// `gov.zx` (zx). So `ns1.gov.zz` is private under `gov.zz` but not
/// under the other two.
pub(crate) fn drawn_histories() -> impl Strategy<Value = Vec<DomainHistory>> {
    const SEEDS: [(&str, &str); 3] = [("city.gov.zz", "yy"), ("gov.zz", "zz"), ("gov.zx", "zx")];
    drawn_records().prop_map(|records| {
        let mut by_name: BTreeMap<DomainName, DomainHistory> = BTreeMap::new();
        for (name, rdata, span, count) in records {
            let (seed, cc) = SEEDS
                .into_iter()
                .find(|(seed, _)| name.is_within(&n(seed)))
                .expect("every drawn owner lies under a seed");
            let h = by_name.entry(name.clone()).or_insert_with(|| DomainHistory {
                name: name.clone(),
                country: CountryCode::new(cc),
                seed: n(seed),
                ns_entries: Vec::new(),
                soa_entries: Vec::new(),
            });
            let entries = match rdata {
                RecordData::Ns(_) => &mut h.ns_entries,
                RecordData::Soa(_) => &mut h.soa_entries,
                _ => continue,
            };
            entries.push(PdnsEntry {
                name,
                rdata,
                first_seen: span.start,
                last_seen: span.end,
                count,
            });
        }
        by_name.into_values().collect()
    })
}
