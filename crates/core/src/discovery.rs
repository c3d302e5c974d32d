//! Domain discovery (§III-B): expand each seed into the list of studied
//! domains via left-hand wildcard PDNS searches, then filter.

use govdns_model::{DateRange, DomainName, NameId, RecordType, SimDate};
use govdns_pdns::{filter, PdnsEntry, PdnsRef};
use govdns_world::CountryCode;

use crate::seed::SeedDomain;
use crate::Campaign;

/// One domain selected for active measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredDomain {
    /// The domain to probe.
    pub name: DomainName,
    /// The country whose seed matched it.
    pub country: CountryCode,
    /// The seed (`d_gov`) it fell under.
    pub seed: DomainName,
}

/// Discovery parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveryConfig {
    /// Recency window: only records seen inside it qualify (the paper
    /// used 2020-01-01 through collection in February 2021).
    pub window: DateRange,
}

impl DiscoveryConfig {
    /// The paper's window, ending at the campaign's collection date.
    pub fn paper(collection: SimDate) -> Self {
        DiscoveryConfig { window: DateRange::new(SimDate::from_ymd(2020, 1, 1), collection) }
    }
}

/// Expands seeds into the studied domain list: wildcard NS search within
/// the window, the 7-day stability rule, the earliest-government-use
/// clamp for registered-domain seeds, and the disposable-name filter.
/// Sorted by name.
pub fn discover(
    campaign: &Campaign<'_>,
    seeds: &[SeedDomain],
    config: DiscoveryConfig,
) -> Vec<DiscoveredDomain> {
    let mut by_id = ById::new(campaign);
    for seed in seeds {
        let recent = |r: &PdnsRef<'_>| r.rtype() == RecordType::Ns && r.active_in(&config.window);
        for (id, e) in seed_entries(campaign, seed, recent) {
            if looks_disposable(&e.name) {
                continue;
            }
            let cur = by_id.entry(id, || DiscoveredDomain {
                name: e.name,
                country: seed.country,
                seed: seed.name.clone(),
            });
            // Longest-seed-wins: a registered-domain seed nested under
            // another country's suffix must not double-claim (not a case
            // the generated world produces, but cheap to get right).
            if seed.name.level() > cur.seed.level() {
                cur.seed = seed.name.clone();
                cur.country = seed.country;
            }
        }
    }
    let mut found = by_id.into_items();
    found.sort_unstable_by(|a, b| a.name.cmp(&b.name));
    found
}

/// The PDNS entries under `seed` that pass `keep` and the 7-day
/// stability rule, with the seed's earliest-government-use clamp applied,
/// each with its owner's name id. Only the entries that pass both are
/// materialised.
pub(crate) fn seed_entries<'a>(
    campaign: &Campaign<'a>,
    seed: &'a SeedDomain,
    keep: impl Fn(&PdnsRef<'_>) -> bool + 'a,
) -> impl Iterator<Item = (NameId, PdnsEntry)> + 'a {
    campaign
        .pdns
        .scan_subtree(&seed.name)
        .filter(move |r| keep(r) && filter::is_stable_ref(r))
        .map(|r| (r.name_id, r.to_entry()))
        .filter_map(|(id, e)| match seed.earliest_government_use {
            Some(cutoff) => filter::clamped_to_government_use(e, cutoff).map(|e| (id, e)),
            None => Some((id, e)),
        })
}

/// Values keyed by PDNS owner id, kept in first-seen order: a `Vec` of
/// slots and a dense id → slot index, so a grouping by name compares
/// integers, not labels.
pub(crate) struct ById<T> {
    slot_of: Vec<u32>,
    items: Vec<T>,
}

impl<T> ById<T> {
    const NONE: u32 = u32::MAX;

    /// An empty grouping over the owner ids of `campaign`'s PDNS.
    pub(crate) fn new(campaign: &Campaign<'_>) -> Self {
        ById { slot_of: vec![Self::NONE; campaign.pdns.owner_count()], items: Vec::new() }
    }

    /// `id`'s value, made by `new` at the id's first sight.
    pub(crate) fn entry(&mut self, id: NameId, new: impl FnOnce() -> T) -> &mut T {
        let slot = &mut self.slot_of[id.index()];
        if *slot == Self::NONE {
            *slot = self.items.len() as u32;
            self.items.push(new());
        }
        &mut self.items[*slot as usize]
    }

    /// The values, in first-seen order.
    pub(crate) fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// Heuristic for machine-generated, disposable subdomain labels — hex
/// blobs from DDoS-protection services and the like.
pub fn looks_disposable(name: &DomainName) -> bool {
    let Some(label) = name.labels().first() else { return false };
    let s = label.as_str();
    let body = s.strip_prefix('x').unwrap_or(s);
    body.len() >= 8
        && body.chars().all(|c| c.is_ascii_hexdigit())
        && body.chars().filter(|c| c.is_ascii_digit()).count() >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{self, drawn_records, drawn_seeds, CampaignFixture};
    use crate::seed::{SeedKind, SeedProvenance};
    use govdns_model::RecordData;
    use govdns_pdns::PdnsDb;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn seed(name: &str, cc: &str) -> SeedDomain {
        SeedDomain {
            country: CountryCode::new(cc),
            name: n(name),
            kind: SeedKind::ReservedSuffix,
            earliest_government_use: None,
            provenance: SeedProvenance::PortalLink,
            portal_resolved: true,
        }
    }

    fn span(a: (i32, u32, u32), b: (i32, u32, u32)) -> DateRange {
        DateRange::new(SimDate::from_ymd(a.0, a.1, a.2), SimDate::from_ymd(b.0, b.1, b.2))
    }

    fn campaign_with<'a>(pdns: &'a PdnsDb, fixture: &'a SeedFixture) -> Campaign<'a> {
        Campaign {
            unkb: &fixture.unkb,
            registry_docs: &fixture.docs,
            webarchive: &fixture.webarchive,
            pdns,
            network: &fixture.network,
            roots: &fixture.roots,
            asn_db: &fixture.asn_db,
            registrar: &fixture.registrar,
            matchers: &[],
            countries: &fixture.countries,
            collection_date: SimDate::from_ymd(2021, 4, 15),
        }
    }

    struct SeedFixture {
        unkb: govdns_world::UnKnowledgeBase,
        docs: govdns_world::RegistryDocs,
        webarchive: govdns_world::WebArchive,
        network: govdns_simnet::SimNetwork,
        roots: Vec<std::net::Ipv4Addr>,
        asn_db: govdns_simnet::AsnDb,
        registrar: govdns_world::Registrar,
        countries: Vec<govdns_world::Country>,
    }

    fn fixture() -> SeedFixture {
        SeedFixture {
            unkb: govdns_world::UnKnowledgeBase::new(),
            docs: govdns_world::RegistryDocs::new(),
            webarchive: govdns_world::WebArchive::new(),
            network: govdns_simnet::SimNetwork::new(0),
            roots: vec![std::net::Ipv4Addr::new(10, 0, 0, 1)],
            asn_db: govdns_simnet::AsnDb::new(),
            registrar: govdns_world::Registrar::new(),
            countries: govdns_world::countries(),
        }
    }

    fn ns(s: &str) -> RecordData {
        RecordData::Ns(n(s))
    }

    /// The name-keyed `discover` the id-keyed one replaced: domains
    /// grouped in a `BTreeMap` by name. `discover` must reproduce it
    /// exactly.
    fn discover_by_name(
        campaign: &Campaign<'_>,
        seeds: &[SeedDomain],
        config: DiscoveryConfig,
    ) -> Vec<DiscoveredDomain> {
        let mut by_name: BTreeMap<DomainName, DiscoveredDomain> = BTreeMap::new();
        for seed in seeds {
            let entries =
                campaign.pdns.search_subtree_in(&seed.name, config.window, Some(RecordType::Ns));
            let entries = filter::stable(entries);
            let entries: Box<dyn Iterator<Item = _>> = match seed.earliest_government_use {
                Some(cutoff) => Box::new(filter::clamp_to_government_use(entries, cutoff)),
                None => Box::new(entries),
            };
            for e in entries {
                if looks_disposable(&e.name) {
                    continue;
                }
                let candidate = DiscoveredDomain {
                    name: e.name.clone(),
                    country: seed.country,
                    seed: seed.name.clone(),
                };
                by_name
                    .entry(e.name)
                    .and_modify(|cur| {
                        if seed.name.level() > cur.seed.level() {
                            *cur = candidate.clone();
                        }
                    })
                    .or_insert(candidate);
            }
        }
        by_name.into_values().collect()
    }

    proptest! {
        #[test]
        fn discover_matches_the_name_keyed_oracle(
            records in drawn_records(),
            seeds in drawn_seeds(),
            window in testutil::span(),
        ) {
            let f = CampaignFixture::with_records(records);
            let campaign = f.campaign();
            let paper = DiscoveryConfig::paper(campaign.collection_date);
            for config in [paper, DiscoveryConfig { window }] {
                prop_assert_eq!(
                    discover(&campaign, &seeds, config),
                    discover_by_name(&campaign, &seeds, config)
                );
            }
        }
    }

    #[test]
    fn finds_recent_stable_records_only() {
        let mut db = PdnsDb::new();
        db.observe_span(n("a.gov.zz"), ns("ns1.gov.zz"), span((2015, 1, 1), (2021, 2, 1)), 9);
        db.observe_span(n("old.gov.zz"), ns("ns1.gov.zz"), span((2012, 1, 1), (2018, 1, 1)), 9);
        db.observe_span(n("blip.gov.zz"), ns("ns1.gov.zz"), span((2020, 5, 1), (2020, 5, 3)), 1);
        db.observe_span(n("other.gov.yy"), ns("ns1.gov.yy"), span((2015, 1, 1), (2021, 2, 1)), 9);
        let f = fixture();
        let c = campaign_with(&db, &f);
        let cfg = DiscoveryConfig::paper(SimDate::from_ymd(2021, 4, 15));
        let got = discover(&c, &[seed("gov.zz", "zz")], cfg);
        let names: Vec<String> = got.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(names, vec!["a.gov.zz"]);
        assert_eq!(got[0].country, CountryCode::new("zz"));
    }

    #[test]
    fn clamps_registered_domain_history() {
        let mut db = PdnsDb::new();
        // Record predating government ownership entirely.
        db.observe_span(n("x.portal.zz"), ns("ns1.x"), span((2011, 1, 1), (2013, 1, 1)), 9);
        // Record spanning the handover and the window.
        db.observe_span(n("y.portal.zz"), ns("ns1.y"), span((2012, 1, 1), (2021, 1, 1)), 9);
        let f = fixture();
        let c = campaign_with(&db, &f);
        let mut s = seed("portal.zz", "zz");
        s.kind = SeedKind::RegisteredDomain;
        s.earliest_government_use = Some(SimDate::from_ymd(2014, 1, 1));
        let cfg = DiscoveryConfig::paper(SimDate::from_ymd(2021, 4, 15));
        let got = discover(&c, &[s], cfg);
        let names: Vec<String> = got.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(names, vec!["y.portal.zz"]);
    }

    #[test]
    fn disposable_names_are_dropped() {
        assert!(looks_disposable(&n("x3fa9c2d41.gov.zz")));
        assert!(looks_disposable(&n("0a1b2c3d.gov.zz")));
        assert!(!looks_disposable(&n("health12.gov.zz")));
        assert!(!looks_disposable(&n("defense1.gov.zz")));
        assert!(!looks_disposable(&n("gov.zz")));

        let mut db = PdnsDb::new();
        db.observe_span(
            n("x0a1b2c3d.gov.zz"),
            ns("ns1.gov.zz"),
            span((2020, 1, 1), (2021, 1, 1)),
            9,
        );
        let f = fixture();
        let c = campaign_with(&db, &f);
        let cfg = DiscoveryConfig::paper(SimDate::from_ymd(2021, 4, 15));
        assert!(discover(&c, &[seed("gov.zz", "zz")], cfg).is_empty());
    }

    #[test]
    fn seeds_do_not_cross_contaminate() {
        let mut db = PdnsDb::new();
        db.observe_span(n("a.gov.zz"), ns("ns1.gov.zz"), span((2020, 1, 1), (2021, 1, 1)), 9);
        db.observe_span(n("b.gov.yy"), ns("ns1.gov.yy"), span((2020, 1, 1), (2021, 1, 1)), 9);
        let f = fixture();
        let c = campaign_with(&db, &f);
        let cfg = DiscoveryConfig::paper(SimDate::from_ymd(2021, 4, 15));
        let got = discover(&c, &[seed("gov.zz", "zz"), seed("gov.yy", "yy")], cfg);
        assert_eq!(got.len(), 2);
        let zz = got.iter().find(|d| d.name == n("a.gov.zz")).unwrap();
        assert_eq!(zz.country, CountryCode::new("zz"));
    }
}
