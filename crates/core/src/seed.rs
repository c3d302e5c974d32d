//! Seed-domain selection (§III-A): from each country's national-portal
//! link to the `d_gov` (reserved suffix or registered domain) that roots
//! the study of that country.

use govdns_model::{DomainName, SimDate};
use govdns_simnet::StubResolver;
use govdns_world::CountryCode;

use crate::Campaign;

/// How a seed domain was justified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedKind {
    /// A suffix documented as reserved for government use (`gov.au`).
    ReservedSuffix,
    /// A registered domain verified through the member-states
    /// questionnaire, Whois-equivalent evidence, or Web Archive history
    /// (`regjeringen.no`, `jis.gov.jm`).
    RegisteredDomain,
}

/// Where the FQDN used for extraction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedProvenance {
    /// The Knowledge Base portal link itself.
    PortalLink,
    /// The member-states questionnaire, used because the link was
    /// unresolvable or pointed at a third party.
    MsqFallback,
}

/// One selected seed domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedDomain {
    /// The country.
    pub country: CountryCode,
    /// The `d_gov`.
    pub name: DomainName,
    /// Suffix vs registered domain.
    pub kind: SeedKind,
    /// Earliest confirmed government use (registered-domain seeds only) —
    /// bounds PDNS history in discovery.
    pub earliest_government_use: Option<SimDate>,
    /// How the FQDN was chosen.
    pub provenance: SeedProvenance,
    /// Whether the portal link's FQDN resolved at all.
    pub portal_resolved: bool,
}

/// Selects a seed domain for every Knowledge Base entry, reproducing the
/// paper's decision procedure:
///
/// 1. resolve the portal link; on failure, or when the candidate domain
///    cannot be tied to a government and the questionnaire lists a
///    different domain, fall back to the questionnaire's FQDN;
/// 2. walk the FQDN's ancestors looking for a suffix the ccTLD registry
///    documents as reserved for government use;
/// 3. otherwise fall back to the registered domain (the FQDN minus a
///    leading `www`), verified via questionnaire/Web Archive evidence.
pub fn select_seeds(campaign: &Campaign<'_>) -> Vec<SeedDomain> {
    let resolver = StubResolver::new(campaign.network, campaign.roots.to_vec());
    let mut seeds = Vec::with_capacity(campaign.unkb.len());
    for entry in campaign.unkb.iter() {
        let portal_resolved = resolver.resolve_a(&entry.portal_fqdn).is_ok_and(|a| !a.is_empty());
        let mut fqdn = entry.portal_fqdn.clone();
        let mut provenance = SeedProvenance::PortalLink;

        let msq_differs = entry.msq_fqdn.as_ref().is_some_and(|m| *m != entry.portal_fqdn);
        if !portal_resolved && msq_differs {
            fqdn = entry.msq_fqdn.clone().expect("msq_differs implies presence");
            provenance = SeedProvenance::MsqFallback;
        }

        let mut choice = extract(campaign, &fqdn);
        // A registered domain with no government evidence and a differing
        // questionnaire domain is the squatted-link case: trust the
        // questionnaire instead.
        if let Extraction::Registered { verified: false } = choice {
            if msq_differs && provenance == SeedProvenance::PortalLink {
                fqdn = entry.msq_fqdn.clone().expect("msq_differs implies presence");
                provenance = SeedProvenance::MsqFallback;
                choice = extract(campaign, &fqdn);
            }
        }

        let seed = match choice {
            Extraction::Suffix(suffix) => SeedDomain {
                country: entry.country,
                name: suffix,
                kind: SeedKind::ReservedSuffix,
                earliest_government_use: None,
                provenance,
                portal_resolved,
            },
            Extraction::Registered { .. } => {
                // The registered domain is whichever ancestor the Web
                // Archive ties to a government (the paper's Whois/archive
                // verification); failing that, the FQDN minus its host
                // label.
                let registered = fqdn
                    .ancestors()
                    .filter(|a| a.level() >= 2)
                    .find(|a| campaign.webarchive.earliest_exact(a).is_some())
                    .unwrap_or_else(|| registered_domain_of(&fqdn));
                let earliest = campaign.webarchive.earliest_government_use(&registered);
                SeedDomain {
                    country: entry.country,
                    name: registered,
                    kind: SeedKind::RegisteredDomain,
                    earliest_government_use: earliest,
                    provenance,
                    portal_resolved,
                }
            }
        };
        seeds.push(seed);
    }
    seeds
}

enum Extraction {
    Suffix(DomainName),
    Registered {
        /// Whether independent evidence ties the domain to a government.
        verified: bool,
    },
}

/// Walks the FQDN's ancestors (deepest first, stopping above the TLD)
/// looking for a documented government suffix.
fn extract(campaign: &Campaign<'_>, fqdn: &DomainName) -> Extraction {
    for anc in fqdn.ancestors() {
        if anc.level() < 2 {
            break;
        }
        if campaign.registry_docs.suffix_reserved_for_government(&anc) == Some(true) {
            return Extraction::Suffix(anc);
        }
    }
    let registered = registered_domain_of(fqdn);
    let verified = campaign.webarchive.earliest_government_use(&registered).is_some();
    Extraction::Registered { verified }
}

/// The registered domain behind a portal FQDN: the name minus a leading
/// `www` (or other single host label when the name is deep enough).
fn registered_domain_of(fqdn: &DomainName) -> DomainName {
    let labels = fqdn.labels();
    if labels.len() > 2 && (labels[0].as_str() == "www" || labels.len() > 3) {
        fqdn.suffix(fqdn.level() - 1)
    } else {
        fqdn.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::RecordType;
    use govdns_pdns::PdnsDb;
    use govdns_simnet::{AsnDb, AuthoritativeServer, ServerBehavior, SimNetwork};
    use govdns_world::{
        countries, PortalEntry, Registrar, RegistryDocs, UnKnowledgeBase, WebArchive,
    };
    use std::net::Ipv4Addr;

    struct Fixture {
        unkb: UnKnowledgeBase,
        docs: RegistryDocs,
        webarchive: WebArchive,
        network: SimNetwork,
        roots: Vec<Ipv4Addr>,
        pdns: PdnsDb,
        asn_db: AsnDb,
        registrar: Registrar,
        countries: Vec<govdns_world::Country>,
    }

    impl Fixture {
        fn campaign(&self) -> Campaign<'_> {
            Campaign {
                unkb: &self.unkb,
                registry_docs: &self.docs,
                webarchive: &self.webarchive,
                pdns: &self.pdns,
                network: &self.network,
                roots: &self.roots,
                asn_db: &self.asn_db,
                registrar: &self.registrar,
                matchers: &[],
                countries: &self.countries,
                collection_date: govdns_model::SimDate::from_ymd(2021, 4, 15),
            }
        }
    }

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    /// A root zone that authoritatively hosts A records for a handful of
    /// portal FQDNs (one server does everything — enough for seed logic).
    fn fixture(resolvable: &[&str]) -> Fixture {
        let root_ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut zone = govdns_model::Zone::new(DomainName::root());
        zone.add_ns(DomainName::root(), n("ns1.rootns.net"));
        zone.add_a(n("ns1.rootns.net"), root_ip);
        for f in resolvable {
            zone.add_a(n(f), Ipv4Addr::new(10, 9, 9, 9));
        }
        let mut network = SimNetwork::new(1);
        network.add_server(
            AuthoritativeServer::new(root_ip, ServerBehavior::Responsive).with_zone(zone),
        );
        Fixture {
            unkb: UnKnowledgeBase::new(),
            docs: RegistryDocs::new(),
            webarchive: WebArchive::new(),
            network,
            roots: vec![root_ip],
            pdns: PdnsDb::new(),
            asn_db: AsnDb::new(),
            registrar: Registrar::new(),
            countries: countries(),
        }
    }

    #[test]
    fn documented_suffix_wins() {
        let mut f = fixture(&["www.australia.gov.au"]);
        f.docs.document(n("gov.au"), true);
        f.unkb.insert(PortalEntry {
            country: CountryCode::new("au"),
            portal_fqdn: n("www.australia.gov.au"),
            msq_fqdn: None,
        });
        let seeds = select_seeds(&f.campaign());
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].name, n("gov.au"));
        assert_eq!(seeds[0].kind, SeedKind::ReservedSuffix);
        assert!(seeds[0].portal_resolved);
    }

    #[test]
    fn undocumented_suffix_falls_back_to_registered_domain() {
        let mut f = fixture(&["www.jis.gov.jm"]);
        f.webarchive.record(n("jis.gov.jm"), govdns_model::SimDate::from_ymd(2004, 1, 1));
        f.unkb.insert(PortalEntry {
            country: CountryCode::new("jm"),
            portal_fqdn: n("www.jis.gov.jm"),
            msq_fqdn: None,
        });
        let seeds = select_seeds(&f.campaign());
        assert_eq!(seeds[0].name, n("jis.gov.jm"));
        assert_eq!(seeds[0].kind, SeedKind::RegisteredDomain);
        assert!(seeds[0].earliest_government_use.is_some());
    }

    #[test]
    fn norway_style_registered_domain() {
        let mut f = fixture(&["www.regjeringen.no"]);
        f.webarchive.record(n("regjeringen.no"), govdns_model::SimDate::from_ymd(2004, 5, 1));
        f.unkb.insert(PortalEntry {
            country: CountryCode::new("no"),
            portal_fqdn: n("www.regjeringen.no"),
            msq_fqdn: Some(n("www.regjeringen.no")),
        });
        let seeds = select_seeds(&f.campaign());
        assert_eq!(seeds[0].name, n("regjeringen.no"));
        assert_eq!(seeds[0].kind, SeedKind::RegisteredDomain);
    }

    #[test]
    fn unresolvable_link_uses_msq_when_it_differs() {
        let mut f = fixture(&["www.gov.zz"]);
        f.docs.document(n("gov.zz"), true);
        f.unkb.insert(PortalEntry {
            country: CountryCode::new("zz"),
            portal_fqdn: n("broken.portal.zz"),
            msq_fqdn: Some(n("www.gov.zz")),
        });
        let seeds = select_seeds(&f.campaign());
        assert!(!seeds[0].portal_resolved);
        assert_eq!(seeds[0].provenance, SeedProvenance::MsqFallback);
        assert_eq!(seeds[0].name, n("gov.zz"));
    }

    #[test]
    fn squatted_link_is_overridden_by_msq() {
        // The portal resolves, but to a third-party .com with no
        // government evidence; the questionnaire points at the real one.
        let mut f = fixture(&["zz-gov.com", "www.gov.zz"]);
        f.docs.document(n("gov.zz"), true);
        f.unkb.insert(PortalEntry {
            country: CountryCode::new("zz"),
            portal_fqdn: n("zz-gov.com"),
            msq_fqdn: Some(n("www.gov.zz")),
        });
        let seeds = select_seeds(&f.campaign());
        assert_eq!(seeds[0].provenance, SeedProvenance::MsqFallback);
        assert_eq!(seeds[0].name, n("gov.zz"));
        assert_eq!(seeds[0].kind, SeedKind::ReservedSuffix);
    }

    #[test]
    fn unresolvable_without_msq_still_extracts() {
        let mut f = fixture(&[]);
        f.docs.document(n("gov.zz"), true);
        f.unkb.insert(PortalEntry {
            country: CountryCode::new("zz"),
            portal_fqdn: n("old-portal.gov.zz"),
            msq_fqdn: None,
        });
        let seeds = select_seeds(&f.campaign());
        assert_eq!(seeds[0].name, n("gov.zz"));
        assert!(!seeds[0].portal_resolved);
        assert_eq!(seeds[0].provenance, SeedProvenance::PortalLink);
    }

    #[test]
    fn registered_domain_strips_www_only() {
        assert_eq!(registered_domain_of(&n("www.regjeringen.no")), n("regjeringen.no"));
        assert_eq!(registered_domain_of(&n("regjeringen.no")), n("regjeringen.no"));
        assert_eq!(registered_domain_of(&n("www.jis.gov.jm")), n("jis.gov.jm"));
        assert_eq!(registered_domain_of(&n("zz-gov.com")), n("zz-gov.com"));
    }

    #[test]
    fn resolver_actually_consults_the_network() {
        let mut f = fixture(&["www.gov.aa"]);
        f.docs.document(n("gov.aa"), true);
        f.unkb.insert(PortalEntry {
            country: CountryCode::new("aa"),
            portal_fqdn: n("www.gov.aa"),
            msq_fqdn: None,
        });
        let seeds = select_seeds(&f.campaign());
        assert!(seeds[0].portal_resolved);
        let _ = RecordType::A;
    }
}
