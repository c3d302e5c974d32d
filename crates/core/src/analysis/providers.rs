//! §IV-B — third-party DNS provider dependence (Tables II and III):
//! classify nameserver hostnames by provider, per year, and measure how
//! many domains, countries, and sub-region groups rely on each.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use govdns_model::{DomainName, Year};
use govdns_world::{Country, CountryCode};

use crate::analysis::attribution::{classify_hosts, soa_rule, HostLabel};
use crate::analysis::longitudinal::{year_bits, Longitudinal};
use crate::stats;
use crate::tables::{fmt_pct, TextTable};
use crate::Campaign;

/// The providers Table II tracks (ordered alphabetically as in the
/// paper).
pub const MAJOR_PROVIDERS: [&str; 8] = [
    "AWS DNS",
    "Azure DNS",
    "cloudflare.com",
    "dnspod.net",
    "dnsmadeeasy.com",
    "Dyn",
    "domaincontrol.com",
    "ultradns.net",
];

/// Usage of one provider in one year.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Domains with at least one NS at this provider.
    pub domains: usize,
    /// Domains relying solely on this provider (`d_1P`).
    pub d1p: usize,
    /// Sub-region groups covered (22 UN sub-regions + the top-10
    /// countries as their own groups).
    pub groups: BTreeSet<String>,
    /// Countries covered.
    pub countries: BTreeSet<CountryCode>,
}

/// One year's provider market.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderYearStats {
    /// The year.
    pub year: Year,
    /// Domains active in the year (the percentage denominator).
    pub total_domains: usize,
    /// Per-provider usage, keyed by classification label.
    pub per_label: BTreeMap<String, LabelStats>,
}

impl ProviderYearStats {
    /// Usage of one label (empty stats if unseen).
    pub fn usage(&self, label: &str) -> LabelStats {
        self.per_label.get(label).cloned().unwrap_or_default()
    }

    /// Providers ranked by the number of countries using them.
    pub fn top_by_countries(&self, n: usize) -> Vec<(&str, &LabelStats)> {
        let mut entries: Vec<(&str, &LabelStats)> =
            self.per_label.iter().map(|(k, v)| (k.as_str(), v)).collect();
        entries.sort_by_key(|(label, s)| {
            (std::cmp::Reverse(s.countries.len()), std::cmp::Reverse(s.domains), *label)
        });
        entries.into_iter().take(n).collect()
    }
}

/// The full longitudinal provider analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProviderAnalysis {
    /// Per-year markets, 2011–2020.
    pub years: Vec<ProviderYearStats>,
    /// Total number of sub-region groups (the percentage denominator in
    /// Tables II–III).
    pub total_groups: usize,
}

/// Every NS host some domain uses outside its own `d_gov`.
fn external_hosts(lon: &Longitudinal) -> impl Iterator<Item = &DomainName> {
    lon.histories().iter().flat_map(|h| {
        let hosts = h.ns_entries.iter().filter_map(|e| e.rdata.as_ns());
        hosts.filter(|host| !host.is_within(&h.seed))
    })
}

impl ProviderAnalysis {
    /// Classifies every domain-year and accumulates provider usage.
    pub fn compute(lon: &Longitudinal, campaign: &Campaign<'_>) -> Self {
        let top10 = lon.top10_countries();
        let country_index: BTreeMap<CountryCode, &Country> =
            campaign.countries.iter().map(|c| (c.code, c)).collect();
        let mut groups: HashMap<CountryCode, String> = HashMap::new();
        for h in lon.histories() {
            groups.entry(h.country).or_insert_with(|| {
                if top10.contains(&h.country) {
                    format!("country:{}", h.country)
                } else {
                    country_index
                        .get(&h.country)
                        .map(|c| c.sub_region.to_string())
                        .unwrap_or_else(|| "unknown".to_owned())
                }
            });
        }
        // 22 sub-regions + one group per top-10 country.
        let total_groups = govdns_world::SubRegion::all().len() + top10.len();
        let hosts = classify_hosts(campaign.matchers, external_hosts(lon));

        let mut markets: Vec<(usize, BTreeMap<&str, LabelStats>)> =
            year_bits().map(|_| Default::default()).collect();
        // Per NS entry of the current history: its years, and its host's
        // label (`None` for a host within the seed).
        let mut entries: Vec<(u16, Option<&HostLabel>)> = Vec::new();
        for (h, ix) in lon.indexed() {
            let group = &groups[&h.country];
            entries.clear();
            entries.extend(h.ns_entries.iter().zip(&ix.ns).filter_map(|(e, &years)| {
                let host = e.rdata.as_ns()?;
                Some((years, (!host.is_within(&h.seed)).then(|| &hosts[host])))
            }));
            for ((_, bit), (total_domains, per_label)) in year_bits().zip(&mut markets) {
                if ix.active & bit == 0 {
                    continue;
                }
                *total_domains += 1;
                let mut labels: BTreeSet<&str> = BTreeSet::new();
                let mut private = false;
                // Hostname rules first; for anonymous hostnames, fall
                // back to the zone's SOA (looked up at most once per
                // domain-year); else the host's registered domain.
                let mut by_soa = None;
                let soa = || {
                    let soa_entries = h.soa_entries.iter().zip(&ix.soa);
                    let active = soa_entries.filter(|&(_, &years)| years & bit != 0);
                    active
                        .filter_map(|(e, _)| e.rdata.as_soa())
                        .find_map(|soa| soa_rule(campaign.matchers, &soa.mname, &soa.rname))
                };
                for &(_, label) in entries.iter().filter(|&&(years, _)| years & bit != 0) {
                    match label {
                        None => private = true,
                        Some(label) => {
                            labels.insert(label.resolve(|| *by_soa.get_or_insert_with(soa)));
                        }
                    }
                }
                let single = labels.len() == 1 && !private;
                for label in labels {
                    let slot = per_label.entry(label).or_default();
                    slot.domains += 1;
                    if single {
                        slot.d1p += 1;
                    }
                    if !slot.groups.contains(group) {
                        slot.groups.insert(group.clone());
                    }
                    slot.countries.insert(h.country);
                }
            }
        }
        let years = year_bits()
            .zip(markets)
            .map(|((year, _), (total_domains, per_label))| {
                let per_label =
                    per_label.into_iter().map(|(label, s)| (label.to_owned(), s)).collect();
                ProviderYearStats { year, total_domains, per_label }
            })
            .collect();

        ProviderAnalysis { years, total_groups }
    }

    /// The stats for one year.
    pub fn year(&self, year: Year) -> Option<&ProviderYearStats> {
        self.years.iter().find(|y| y.year == year)
    }

    /// Countries using the single most widespread provider in `year`
    /// (the paper's 52 → 85 headline).
    pub fn top_provider_countries(&self, year: Year) -> usize {
        self.year(year)
            .and_then(|y| y.top_by_countries(1).first().map(|(_, s)| s.countries.len()))
            .unwrap_or(0)
    }

    /// Renders Table II: the eight major providers in 2011 and 2020.
    pub fn table2(&self) -> TextTable {
        let mut t = TextTable::new([
            "provider",
            "2011 domains",
            "2011 d1P",
            "2011 groups",
            "2020 domains",
            "2020 d1P",
            "2020 groups",
        ]);
        let y2011 = self.year(2011);
        let y2020 = self.year(2020);
        for label in MAJOR_PROVIDERS {
            let cell = |ys: Option<&ProviderYearStats>, what: u8| -> String {
                let Some(ys) = ys else { return "-".into() };
                let u = ys.usage(label);
                match what {
                    0 => format!(
                        "{} ({})",
                        u.domains,
                        fmt_pct(stats::pct(u.domains, ys.total_domains))
                    ),
                    1 => format!("{} ({})", u.d1p, fmt_pct(stats::pct(u.d1p, ys.total_domains))),
                    _ => format!(
                        "{} ({})",
                        u.groups.len(),
                        fmt_pct(stats::pct(u.groups.len(), self.total_groups))
                    ),
                }
            };
            t.push_row([
                label.to_owned(),
                cell(y2011, 0),
                cell(y2011, 1),
                cell(y2011, 2),
                cell(y2020, 0),
                cell(y2020, 1),
                cell(y2020, 2),
            ]);
        }
        t
    }

    /// Renders Table III for one year: the top ten providers by country
    /// coverage.
    pub fn table3(&self, year: Year) -> TextTable {
        let mut t = TextTable::new(["provider", "domains", "groups", "countries"]);
        if let Some(ys) = self.year(year) {
            for (label, s) in ys.top_by_countries(10) {
                t.push_row([
                    label.to_owned(),
                    format!("{} ({})", s.domains, fmt_pct(stats::pct(s.domains, ys.total_domains))),
                    format!(
                        "{} ({})",
                        s.groups.len(),
                        fmt_pct(stats::pct(s.groups.len(), self.total_groups))
                    ),
                    s.countries.len().to_string(),
                ]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{
        drawn_histories, history, longitudinal, n, ns_entry, soa_entry, CampaignFixture,
    };
    use govdns_model::DateRange;
    use govdns_world::{MatchRule, MatchTarget, ProviderMatcher};
    use proptest::prelude::*;

    /// Tables II–III as computed before the year index: per year, every
    /// active history's hosts re-found, hashed and tested against the
    /// seed. The indexed pass must reproduce it exactly.
    fn rescan(lon: &Longitudinal, campaign: &Campaign<'_>) -> ProviderAnalysis {
        let top10 = lon.top10_countries();
        let country_index: BTreeMap<CountryCode, &Country> =
            campaign.countries.iter().map(|c| (c.code, c)).collect();
        let group = |country: CountryCode| {
            if top10.contains(&country) {
                format!("country:{country}")
            } else {
                country_index
                    .get(&country)
                    .map(|c| c.sub_region.to_string())
                    .unwrap_or_else(|| "unknown".to_owned())
            }
        };
        let total_groups = govdns_world::SubRegion::all().len() + top10.len();
        let hosts = classify_hosts(campaign.matchers, external_hosts(lon));
        let years = Longitudinal::years()
            .map(|year| {
                let window = DateRange::year(year);
                let mut per_label: BTreeMap<String, LabelStats> = BTreeMap::new();
                let mut total_domains = 0usize;
                for h in lon.histories().iter().filter(|h| h.active_in(&window)) {
                    total_domains += 1;
                    let mut labels: BTreeSet<&str> = BTreeSet::new();
                    let mut private = false;
                    let mut by_soa = None;
                    let soa = || {
                        let soa_names = h.soa_names_in(&window);
                        soa_names.iter().find_map(|(m, r)| soa_rule(campaign.matchers, m, r))
                    };
                    for host in h.ns_hosts_in(&window) {
                        if host.is_within(&h.seed) {
                            private = true;
                            continue;
                        }
                        labels.insert(hosts[host].resolve(|| *by_soa.get_or_insert_with(soa)));
                    }
                    let single = labels.len() == 1 && !private;
                    for label in labels {
                        let slot = per_label.entry(label.to_owned()).or_default();
                        slot.domains += 1;
                        slot.d1p += usize::from(single);
                        slot.groups.insert(group(h.country));
                        slot.countries.insert(h.country);
                    }
                }
                ProviderYearStats { year, total_domains, per_label }
            })
            .collect();
        ProviderAnalysis { years, total_groups }
    }

    proptest! {
        #[test]
        fn the_indexed_pass_matches_the_per_year_rescan(histories in drawn_histories()) {
            // A hostname rule for the provider pool, and an SOA rule that
            // names the in-seed hosts when they serve another seed's zone.
            let f = CampaignFixture {
                matchers: vec![
                    ProviderMatcher {
                        label: "Prov DNS".to_owned(),
                        rule: MatchRule::RegisteredDomain(n("prov.example")),
                        target: MatchTarget::Hostname,
                    },
                    ProviderMatcher {
                        label: "City SOA".to_owned(),
                        rule: MatchRule::RegisteredDomain(n("city.gov.zz")),
                        target: MatchTarget::SoaName,
                    },
                ],
                ..CampaignFixture::default()
            };
            let lon = Longitudinal::new(histories);
            let campaign = f.campaign();
            prop_assert_eq!(
                ProviderAnalysis::compute(&lon, &campaign),
                rescan(&lon, &campaign)
            );
        }
    }

    #[allow(clippy::field_reassign_with_default)]
    fn fixture_with_matchers() -> CampaignFixture {
        let mut f = CampaignFixture::default();
        f.matchers = vec![
            ProviderMatcher {
                label: "AWS DNS".to_owned(),
                rule: MatchRule::SecondLabelPrefix("awsdns-".to_owned()),
                target: govdns_world::MatchTarget::Hostname,
            },
            ProviderMatcher {
                label: "cloudflare.com".to_owned(),
                rule: MatchRule::RegisteredDomain("cloudflare.com".parse().unwrap()),
                target: govdns_world::MatchTarget::Hostname,
            },
        ];
        f
    }

    fn demo() -> Longitudinal {
        longitudinal(vec![
            // Cloudflare-only all decade (d1P).
            history(
                "a.gov.br",
                "br",
                vec![
                    ns_entry("a.gov.br", "ada.ns.cloudflare.com", (2011, 1, 1), (2020, 12, 31)),
                    ns_entry("a.gov.br", "ben.ns.cloudflare.com", (2011, 1, 1), (2020, 12, 31)),
                ],
            ),
            // Migrated from an unknown host to Amazon mid-decade.
            history(
                "b.gov.br",
                "br",
                vec![
                    ns_entry("b.gov.br", "ns1.oldhost.net", (2011, 1, 1), (2015, 12, 31)),
                    ns_entry("b.gov.br", "ns-1.awsdns-00.com", (2016, 1, 1), (2020, 12, 31)),
                    ns_entry("b.gov.br", "ns-2.awsdns-01.net", (2016, 1, 1), (2020, 12, 31)),
                ],
            ),
            // Mixed Cloudflare + private: uses the provider but not d1P.
            history(
                "c.gov.de",
                "de",
                vec![
                    ns_entry("c.gov.de", "zoe.ns.cloudflare.com", (2018, 1, 1), (2020, 12, 31)),
                    ns_entry("c.gov.de", "ns1.gov.de", (2018, 1, 1), (2020, 12, 31)),
                ],
            ),
        ])
    }

    #[test]
    fn classification_and_d1p() {
        let f = fixture_with_matchers();
        let p = ProviderAnalysis::compute(&demo(), &f.campaign());
        let y2020 = p.year(2020).unwrap();
        let cf = y2020.usage("cloudflare.com");
        assert_eq!(cf.domains, 2);
        assert_eq!(cf.d1p, 1, "the mixed private deployment is not d1P");
        assert_eq!(cf.countries.len(), 2);
        let aws = y2020.usage("AWS DNS");
        assert_eq!(aws.domains, 1);
        assert_eq!(aws.d1p, 1);
        // 2011: no AWS yet; the unknown host is labeled by its registered
        // domain.
        let y2011 = p.year(2011).unwrap();
        assert_eq!(y2011.usage("AWS DNS").domains, 0);
        assert_eq!(y2011.usage("oldhost.net").domains, 1);
    }

    #[test]
    fn rankings_and_headline() {
        let f = fixture_with_matchers();
        let p = ProviderAnalysis::compute(&demo(), &f.campaign());
        let top_2020 = p.year(2020).unwrap().top_by_countries(10);
        assert_eq!(top_2020[0].0, "cloudflare.com");
        assert_eq!(p.top_provider_countries(2020), 2);
        assert_eq!(p.top_provider_countries(2011), 1);
    }

    #[test]
    fn groups_use_the_top10_rule() {
        let f = fixture_with_matchers();
        let lon = demo();
        // With only two countries in the data, both are "top 10" and get
        // their own groups.
        let p = ProviderAnalysis::compute(&lon, &f.campaign());
        let cf = p.year(2020).unwrap().usage("cloudflare.com");
        assert!(cf.groups.iter().all(|g| g.starts_with("country:")), "{:?}", cf.groups);
        assert_eq!(p.total_groups, 22 + lon.top10_countries().len());
    }

    #[test]
    fn tables_render_major_rows() {
        let f = fixture_with_matchers();
        let p = ProviderAnalysis::compute(&demo(), &f.campaign());
        let t2 = p.table2().to_text();
        for label in MAJOR_PROVIDERS {
            assert!(t2.contains(label), "Table II missing {label}");
        }
        assert!(p.table3(2020).to_text().contains("cloudflare.com"));
    }

    #[test]
    fn a_host_used_across_years_is_classified_once() {
        let f = fixture_with_matchers();
        let lon = longitudinal(vec![
            history(
                "a.gov.br",
                "br",
                vec![ns_entry("a.gov.br", "ada.ns.cloudflare.com", (2011, 1, 1), (2020, 12, 31))],
            ),
            history(
                "b.gov.de",
                "de",
                vec![ns_entry("b.gov.de", "ada.ns.cloudflare.com", (2015, 3, 1), (2020, 12, 31))],
            ),
        ]);
        let hosts = classify_hosts(&f.matchers, external_hosts(&lon));
        assert_eq!(hosts.len(), 1, "one distinct host, one classification");
        assert_eq!(hosts[&n("ada.ns.cloudflare.com")], HostLabel::Provider("cloudflare.com"));
        let p = ProviderAnalysis::compute(&lon, &f.campaign());
        for ys in &p.years {
            let expected = if ys.year < 2015 { 1 } else { 2 };
            assert_eq!(ys.usage("cloudflare.com").domains, expected, "{}", ys.year);
            assert_eq!(ys.per_label.len(), 1, "{}", ys.year);
        }
    }

    #[test]
    fn soa_fallback_follows_the_window_for_an_anonymous_host() {
        let mut f = fixture_with_matchers();
        for (label, domain) in
            [("Provider A", "provider-a.example"), ("Provider B", "provider-b.example")]
        {
            f.matchers.push(ProviderMatcher {
                label: label.to_owned(),
                rule: MatchRule::RegisteredDomain(n(domain)),
                target: MatchTarget::SoaName,
            });
        }
        let mut h = history(
            "a.gov.br",
            "br",
            vec![ns_entry("a.gov.br", "ns1.anon-host.net", (2011, 1, 1), (2020, 12, 31))],
        );
        h.soa_entries = vec![
            soa_entry(
                "a.gov.br",
                "ns1.anon-host.net",
                "hostmaster.provider-a.example",
                (2011, 1, 1),
                (2015, 12, 31),
            ),
            soa_entry(
                "a.gov.br",
                "ns1.anon-host.net",
                "hostmaster.provider-b.example",
                (2016, 1, 1),
                (2020, 12, 31),
            ),
        ];
        let lon = longitudinal(vec![h]);
        let hosts = classify_hosts(&f.matchers, external_hosts(&lon));
        assert_eq!(hosts[&n("ns1.anon-host.net")], HostLabel::Anonymous("anon-host.net".into()));
        let p = ProviderAnalysis::compute(&lon, &f.campaign());
        let labels = |year| p.year(year).unwrap().per_label.keys().cloned().collect::<Vec<_>>();
        assert_eq!(labels(2011), ["Provider A"]);
        assert_eq!(labels(2020), ["Provider B"]);
        assert_eq!(p.year(2020).unwrap().usage("Provider B").d1p, 1);
    }
}
