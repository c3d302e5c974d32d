//! §IV-B — third-party DNS provider dependence (Tables II and III):
//! classify nameserver hostnames by provider, per year, and measure how
//! many domains, countries, and sub-region groups rely on each.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

use govdns_model::{DomainName, Year};
use govdns_world::{Country, CountryCode};

use crate::analysis::attribution::{HostLabel, ProviderRules};
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

/// Dense ids for the names the year loop counts (provider labels,
/// groups, countries), so a domain-year's labels are a sorted `Vec` and
/// each year's usage a `Vec` indexed by label.
struct Interner<K>(HashMap<K, usize>);

impl<K: Hash + Eq> Interner<K> {
    fn new() -> Self {
        Interner(HashMap::new())
    }

    fn id(&mut self, name: K) -> usize {
        let next = self.0.len();
        *self.0.entry(name).or_insert(next)
    }

    /// The names, indexed by id.
    fn names(&self) -> Vec<&K> {
        let mut names: Vec<Option<&K>> = vec![None; self.0.len()];
        for (name, &id) in &self.0 {
            names[id] = Some(name);
        }
        names.into_iter().flatten().collect()
    }
}

/// A set of dense ids, one bit each.
#[derive(Debug, Clone, Default)]
struct IdSet(Vec<u64>);

impl IdSet {
    fn insert(&mut self, id: usize) {
        let word = id / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (id % 64);
    }

    /// The ids, ascending.
    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(word * 64 + bit)
            })
        })
    }
}

/// One label's usage in one year, over dense group and country ids.
#[derive(Debug, Clone, Default)]
struct Usage {
    domains: usize,
    d1p: usize,
    groups: IdSet,
    countries: IdSet,
}

/// An external host's label id. An anonymous host's label is its
/// registered domain unless an SOA rule matches the zone.
#[derive(Debug, Clone, Copy)]
enum HostId {
    Provider(usize),
    Anonymous(usize),
}

impl ProviderAnalysis {
    /// Classifies every domain-year and accumulates provider usage.
    pub fn compute(lon: &Longitudinal, campaign: &Campaign<'_>) -> Self {
        let top10 = lon.top10_countries();
        let country_index: BTreeMap<CountryCode, &Country> =
            campaign.countries.iter().map(|c| (c.code, c)).collect();
        let (mut countries, mut groups) = (Interner::new(), Interner::new());
        // Country → (country id, group id).
        let mut places: HashMap<CountryCode, (usize, usize)> = HashMap::new();
        for h in lon.histories() {
            places.entry(h.country).or_insert_with(|| {
                let group = if top10.contains(&h.country) {
                    format!("country:{}", h.country)
                } else {
                    country_index
                        .get(&h.country)
                        .map(|c| c.sub_region.to_string())
                        .unwrap_or_else(|| "unknown".to_owned())
                };
                (countries.id(h.country), groups.id(group))
            });
        }
        // 22 sub-regions + one group per top-10 country.
        let total_groups = govdns_world::SubRegion::all().len() + top10.len();
        let rules = ProviderRules::new(campaign.matchers);
        let mut labels: Interner<Cow<'_, str>> = Interner::new();
        // Each distinct external host, classified once.
        let mut hosts: HashMap<&DomainName, HostId> = HashMap::new();

        let mut markets: Vec<(usize, Vec<Usage>)> =
            year_bits().map(|_| Default::default()).collect();
        // Per NS entry of the current history: its years, and its host's
        // label (`None` for a host within the seed).
        let mut entries: Vec<(u16, Option<HostId>)> = Vec::new();
        let mut year_labels: Vec<usize> = Vec::new();
        for (h, ix) in lon.indexed() {
            let (country, group) = places[&h.country];
            entries.clear();
            entries.extend(h.ns_entries.iter().zip(&ix.ns).filter_map(|(e, &years)| {
                let host = e.rdata.as_ns()?;
                if host.is_within(&h.seed) {
                    return Some((years, None));
                }
                let id = *hosts.entry(host).or_insert_with(|| match rules.host_label(host) {
                    HostLabel::Provider(label) => HostId::Provider(labels.id(label.into())),
                    HostLabel::Anonymous(domain) => HostId::Anonymous(labels.id(domain.into())),
                });
                Some((years, Some(id)))
            }));
            for ((_, bit), (total_domains, usage)) in year_bits().zip(&mut markets) {
                if ix.active & bit == 0 {
                    continue;
                }
                *total_domains += 1;
                year_labels.clear();
                let mut private = false;
                // Hostname rules first; for anonymous hostnames, fall
                // back to the zone's SOA (looked up at most once per
                // domain-year); else the host's registered domain.
                let mut by_soa = None;
                let mut soa = || {
                    let soa_entries = h.soa_entries.iter().zip(&ix.soa);
                    let active = soa_entries.filter(|&(_, &years)| years & bit != 0);
                    active
                        .filter_map(|(e, _)| e.rdata.as_soa())
                        .find_map(|soa| rules.soa_rule(&soa.mname, &soa.rname))
                        .map(|label| labels.id(label.into()))
                };
                for &(_, host) in entries.iter().filter(|&&(years, _)| years & bit != 0) {
                    match host {
                        None => private = true,
                        Some(HostId::Provider(id)) => year_labels.push(id),
                        Some(HostId::Anonymous(id)) => {
                            year_labels.push(by_soa.get_or_insert_with(&mut soa).unwrap_or(id));
                        }
                    }
                }
                year_labels.sort_unstable();
                year_labels.dedup();
                let single = year_labels.len() == 1 && !private;
                for &id in &year_labels {
                    if id >= usage.len() {
                        usage.resize_with(id + 1, Usage::default);
                    }
                    let slot = &mut usage[id];
                    slot.domains += 1;
                    slot.d1p += usize::from(single);
                    slot.groups.insert(group);
                    slot.countries.insert(country);
                }
            }
        }
        let (labels, groups, countries) = (labels.names(), groups.names(), countries.names());
        let years = year_bits()
            .zip(markets)
            .map(|((year, _), (total_domains, usage))| {
                let used = usage.into_iter().enumerate().filter(|(_, u)| u.domains > 0);
                let per_label = used
                    .map(|(id, u)| {
                        let stats = LabelStats {
                            domains: u.domains,
                            d1p: u.d1p,
                            groups: u.groups.ids().map(|g| groups[g].clone()).collect(),
                            countries: u.countries.ids().map(|c| *countries[c]).collect(),
                        };
                        (labels[id].to_string(), stats)
                    })
                    .collect();
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

    /// Every NS host some domain uses outside its own `d_gov`.
    fn external_hosts(lon: &Longitudinal) -> impl Iterator<Item = &DomainName> {
        lon.histories().iter().flat_map(|h| {
            let hosts = h.ns_entries.iter().filter_map(|e| e.rdata.as_ns());
            hosts.filter(|host| !host.is_within(&h.seed))
        })
    }

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
        let rules = ProviderRules::new(campaign.matchers);
        let hosts = rules.classify_hosts(external_hosts(lon));
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
                        soa_names.iter().find_map(|(m, r)| rules.soa_rule(m, r))
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
    fn id_sets_list_their_ids_in_order_across_words() {
        let mut set = IdSet::default();
        for id in [200, 64, 0, 63, 64, 129] {
            set.insert(id);
        }
        assert_eq!(set.ids().collect::<Vec<_>>(), [0, 63, 64, 129, 200]);
        assert_eq!(IdSet::default().ids().count(), 0);
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
        let hosts = ProviderRules::new(&f.matchers).classify_hosts(external_hosts(&lon));
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
        let hosts = ProviderRules::new(&f.matchers).classify_hosts(external_hosts(&lon));
        assert_eq!(hosts[&n("ns1.anon-host.net")], HostLabel::Anonymous("anon-host.net".into()));
        let p = ProviderAnalysis::compute(&lon, &f.campaign());
        let labels = |year| p.year(year).unwrap().per_label.keys().cloned().collect::<Vec<_>>();
        assert_eq!(labels(2011), ["Provider A"]);
        assert_eq!(labels(2020), ["Provider B"]);
        assert_eq!(p.year(2020).unwrap().usage("Provider B").d1p, 1);
    }
}
