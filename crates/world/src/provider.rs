use std::collections::HashMap;

use govdns_model::DomainName;

use crate::country::{Country, CountryCode, EgovTier};
use crate::deployment::{DiversityPolicy, NsPool};

/// Index of a provider within the [`ProviderCatalog`].
pub type ProviderId = usize;

/// Calendar span of the market model.
const FIRST_YEAR: i32 = crate::calibration::FIRST_YEAR;
const LAST_YEAR: i32 = crate::calibration::LAST_YEAR;

/// How a provider names its servers — enough structure to reproduce the
/// classification rules the paper applies (regex for Amazon, registered
/// domains and SOA fields for the rest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamingStyle {
    /// `ns-<n>.awsdns-<k>.{com,net,org,info}` — matched by the `awsdns-`
    /// label prefix, the paper's regex case.
    AwsDns,
    /// `<word>.ns.cloudflare.com`.
    CloudflareNs,
    /// `ns1-<k>.azure-dns.com` / `ns2-<k>.azure-dns.net`.
    AzureDns,
    /// `ns1.p<k>.dynect.net`.
    DynStyle,
    /// `pns<k>.cloudns.net`.
    PnsNumbered {
        /// Registered domain the hosts live under.
        domain: String,
    },
    /// `ns<k>.<domain>` — the common shared-hosting shape.
    Numbered {
        /// Registered (or deeper) domain the hosts live under.
        domain: String,
    },
    /// White-label clusters: `ns{1,2}.dns-cluster<k>.net`. The hostnames
    /// do not identify the provider at all — only the SOA RNAME does,
    /// which is exactly the case the paper's MNAME/RNAME matching exists
    /// for.
    WhiteLabel,
}

const CLOUDFLARE_WORDS: [&str; 24] = [
    "ada", "ben", "cruz", "dee", "elma", "finn", "gail", "hugo", "igor", "jill", "kai", "lara",
    "max", "nina", "oleg", "pam", "quin", "rosa", "sam", "tara", "ursa", "vida", "walt", "zoe",
];

impl NamingStyle {
    /// The `idx`-th nameserver pair in this style.
    pub fn host_pair(&self, idx: usize) -> (DomainName, DomainName) {
        let parse = |s: String| s.parse().expect("generated hostnames are valid");
        match self {
            NamingStyle::AwsDns => {
                const TLDS: [&str; 4] = ["com", "net", "org", "info"];
                let a = format!("ns-{}.awsdns-{:02}.{}", (idx * 2) % 1024, idx % 64, TLDS[idx % 4]);
                let b = format!(
                    "ns-{}.awsdns-{:02}.{}",
                    (idx * 2 + 1) % 1024,
                    (idx + 17) % 64,
                    TLDS[(idx + 1) % 4]
                );
                (parse(a), parse(b))
            }
            NamingStyle::CloudflareNs => {
                let n = CLOUDFLARE_WORDS.len();
                let a = CLOUDFLARE_WORDS[idx % n];
                let b = CLOUDFLARE_WORDS[(idx + 7) % n];
                (parse(format!("{a}.ns.cloudflare.com")), parse(format!("{b}.ns.cloudflare.com")))
            }
            NamingStyle::AzureDns => (
                parse(format!("ns1-{:02}.azure-dns.com", idx % 100)),
                parse(format!("ns2-{:02}.azure-dns.net", idx % 100)),
            ),
            NamingStyle::DynStyle => (
                parse(format!("ns1.p{:02}.dynect.net", idx % 100)),
                parse(format!("ns2.p{:02}.dynect.net", idx % 100)),
            ),
            NamingStyle::PnsNumbered { domain } => (
                parse(format!("pns{}.{domain}", 11 + 2 * idx)),
                parse(format!("pns{}.{domain}", 12 + 2 * idx)),
            ),
            NamingStyle::Numbered { domain } => (
                parse(format!("ns{}.{domain}", 2 * idx + 1)),
                parse(format!("ns{}.{domain}", 2 * idx + 2)),
            ),
            NamingStyle::WhiteLabel => (
                parse(format!("ns1.dns-cluster{idx}.net")),
                parse(format!("ns2.dns-cluster{idx}.net")),
            ),
        }
    }

    /// The registered domains hostnames of this style fall under (used to
    /// build classification matchers and the dangling-NS registrar checks).
    pub fn registered_domains(&self) -> Vec<DomainName> {
        let parse = |s: &str| s.parse().expect("static domains are valid");
        match self {
            NamingStyle::AwsDns => Vec::new(), // matched by label prefix instead
            NamingStyle::CloudflareNs => vec![parse("cloudflare.com")],
            NamingStyle::AzureDns => vec![parse("azure-dns.com"), parse("azure-dns.net")],
            NamingStyle::DynStyle => vec![parse("dynect.net")],
            NamingStyle::PnsNumbered { domain } | NamingStyle::Numbered { domain } => {
                let name: DomainName = domain.parse().expect("generated domains are valid");
                vec![name.suffix(2)]
            }
            // White-label hostnames are deliberately anonymous.
            NamingStyle::WhiteLabel => Vec::new(),
        }
    }
}

/// A third-party DNS service provider in the market model.
#[derive(Debug, Clone, PartialEq)]
pub struct Provider {
    /// Catalog index.
    pub id: ProviderId,
    /// Display / classification label (`cloudflare.com`, `AWS DNS`, ...).
    pub label: String,
    /// Hostname scheme.
    pub style: NamingStyle,
    /// `Some(cc)` restricts the provider to one country (DNSPod, HiChina).
    pub scope: Option<CountryCode>,
    /// Customer-domain count at paper scale in 2011.
    pub count_2011: f64,
    /// Customer-domain count at paper scale in 2020.
    pub count_2020: f64,
    /// Countries the provider is marketable in, 2011.
    pub countries_2011: u32,
    /// Countries the provider is marketable in, 2020.
    pub countries_2020: u32,
    /// Fraction of customers using only this provider (Table II's d1P).
    pub d1p_rate: f64,
    /// Topological placement of the provider's pairs.
    pub diversity: DiversityPolicy,
    /// The provider's nameserver pool.
    pub pool: NsPool,
    /// Branded domain appearing in customer zones' SOA RNAME (hostmaster
    /// mailbox), when the provider sets one.
    pub soa_rname: Option<DomainName>,
    /// Whether this is a generated per-country local host.
    pub is_local: bool,
}

impl Provider {
    /// Target customer count at paper scale for `year` (log-space
    /// interpolation between the 2011 and 2020 anchors, so
    /// orders-of-magnitude growth looks like the paper's).
    pub fn target_count(&self, year: i32) -> f64 {
        let year = year.clamp(FIRST_YEAR, LAST_YEAR);
        let t = f64::from(year - FIRST_YEAR) / f64::from(LAST_YEAR - FIRST_YEAR);
        let lo = self.count_2011.max(0.5).ln();
        let hi = self.count_2020.max(0.5).ln();
        let v = (lo + (hi - lo) * t).exp();
        if v < 0.75 {
            0.0
        } else {
            v
        }
    }

    /// Number of countries the provider is marketable in during `year`.
    pub fn eligible_country_quota(&self, year: i32) -> u32 {
        let year = year.clamp(FIRST_YEAR, LAST_YEAR);
        let t = f64::from(year - FIRST_YEAR) / f64::from(LAST_YEAR - FIRST_YEAR);
        let lo = f64::from(self.countries_2011);
        let hi = f64::from(self.countries_2020);
        (lo + (hi - lo) * t).round() as u32
    }

    /// Whether the provider is marketable in `country` during `year`.
    ///
    /// Eligibility is a deterministic ranking (a stable hash of provider
    /// and country), so a provider's footprint grows monotonically as its
    /// quota grows — countries don't flap in and out.
    pub fn eligible_in(&self, country: &Country, year: i32) -> bool {
        if let Some(cc) = self.scope {
            return cc == country.code;
        }
        let quota = self.eligible_country_quota(year);
        if quota >= 193 {
            return true;
        }
        let rank = stable_rank(self.id as u64, country.code);
        // Large e-governments adopt earlier: bias their rank downward.
        let bias = match country.tier {
            EgovTier::Top10(_) => 0.35,
            EgovTier::High => 0.6,
            EgovTier::Medium => 0.85,
            EgovTier::Low => 1.0,
            EgovTier::Minimal => 1.15,
        };
        (rank * bias) < f64::from(quota) / 193.0
    }

    /// The provider's primary registered nameserver domain, if any.
    pub fn primary_ns_domain(&self) -> Option<DomainName> {
        self.style.registered_domains().into_iter().next()
    }
}

/// Deterministic rank in `[0, 1)` for (provider, country).
fn stable_rank(id: u64, code: CountryCode) -> f64 {
    let bytes = code.as_str().as_bytes();
    let mut z = id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(bytes[0]) << 8 | u64::from(bytes[1]));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// What a classification rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchTarget {
    /// Match against the nameserver hostname.
    Hostname,
    /// Match against the SOA MNAME/RNAME fields (the paper's fallback
    /// for providers whose hostnames are not distinctive).
    SoaName,
}

/// How the measurement pipeline recognizes a provider from a nameserver
/// hostname or a zone's SOA fields — public knowledge, the same kind the
/// paper applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderMatcher {
    /// Classification label.
    pub label: String,
    /// The rule.
    pub rule: MatchRule,
    /// What the rule applies to.
    pub target: MatchTarget,
}

/// One classification rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchRule {
    /// The hostname's second label starts with this prefix (Amazon's
    /// `awsdns-` pattern).
    SecondLabelPrefix(String),
    /// The hostname falls under this registered domain.
    RegisteredDomain(DomainName),
}

impl ProviderMatcher {
    /// Whether `host` matches this rule.
    pub fn matches(&self, host: &DomainName) -> bool {
        match &self.rule {
            MatchRule::SecondLabelPrefix(prefix) => {
                let labels = host.labels();
                labels.len() >= 2 && labels[1].as_str().starts_with(prefix.as_str())
            }
            MatchRule::RegisteredDomain(dom) => host.is_within(dom),
        }
    }
}

/// A list of provider rules indexed for classification. It answers what
/// a scan of the list for the first rule that matches answers, with a
/// few hash lookups instead of a test per rule: the matching rule with
/// the lowest position in the list.
#[derive(Debug, Clone)]
pub struct MatcherIndex<'m> {
    matchers: &'m [ProviderMatcher],
    /// Registered domain → the position of its earliest rule.
    domains: HashMap<DomainName, usize>,
    /// The label counts of those domains, ascending and distinct.
    levels: Vec<usize>,
    /// The positions of the prefix rules, ascending.
    prefixes: Vec<usize>,
}

impl<'m> MatcherIndex<'m> {
    /// Indexes the rules of `matchers` that apply to `target`, or every
    /// rule when `target` is `None`.
    pub fn new(matchers: &'m [ProviderMatcher], target: Option<MatchTarget>) -> Self {
        let mut domains = HashMap::new();
        let mut prefixes = Vec::new();
        for (pos, m) in matchers.iter().enumerate() {
            if target.is_some_and(|t| t != m.target) {
                continue;
            }
            match &m.rule {
                MatchRule::SecondLabelPrefix(_) => prefixes.push(pos),
                MatchRule::RegisteredDomain(dom) => {
                    domains.entry(dom.clone()).or_insert(pos);
                }
            }
        }
        let mut levels: Vec<usize> = domains.keys().map(DomainName::level).collect();
        levels.sort_unstable();
        levels.dedup();
        MatcherIndex { matchers, domains, levels, prefixes }
    }

    /// The first rule that matches `host`.
    pub fn first_match(&self, host: &DomainName) -> Option<&'m ProviderMatcher> {
        self.first_match_of(&[host])
    }

    /// The first rule that matches any of `names`.
    pub fn first_match_of(&self, names: &[&DomainName]) -> Option<&'m ProviderMatcher> {
        names.iter().filter_map(|name| self.position(name)).min().map(|pos| &self.matchers[pos])
    }

    /// The position of the first rule that matches `host`: the earliest
    /// registered-domain rule among the host's suffixes, unless a prefix
    /// rule before it matches.
    fn position(&self, host: &DomainName) -> Option<usize> {
        let labels = host.labels();
        let by_domain = self
            .levels
            .iter()
            .take_while(|&&n| n <= labels.len())
            .filter_map(|&n| self.domains.get(&labels[labels.len() - n..]).copied())
            .min();
        let before = by_domain.unwrap_or(usize::MAX);
        let mut prefixes = self.prefixes.iter().copied().take_while(|&pos| pos < before);
        prefixes.find(|&pos| self.matchers[pos].matches(host)).or(by_domain)
    }
}

#[allow(clippy::too_many_arguments)]
fn spec(
    label: &str,
    style: NamingStyle,
    scope: Option<&str>,
    count_2011: f64,
    count_2020: f64,
    countries_2011: u32,
    countries_2020: u32,
    d1p_rate: f64,
    diversity: DiversityPolicy,
    pool_pairs: usize,
) -> Provider {
    let pairs = (0..pool_pairs.max(1)).map(|i| style.host_pair(i)).collect();
    Provider {
        id: 0, // assigned on catalog insertion
        label: label.to_owned(),
        style,
        scope: scope.map(CountryCode::new),
        count_2011,
        count_2020,
        countries_2011,
        countries_2020,
        d1p_rate,
        diversity,
        pool: NsPool::new(pairs),
        soa_rname: None,
        is_local: false,
    }
}

fn named_providers() -> Vec<Provider> {
    use DiversityPolicy::{MultiAsn, MultiSlash24};
    let num = |d: &str| NamingStyle::Numbered { domain: d.to_owned() };
    vec![
        spec("AWS DNS", NamingStyle::AwsDns, None, 5.0, 5_193.0, 3, 78, 0.91, MultiAsn, 256),
        spec(
            "cloudflare.com",
            NamingStyle::CloudflareNs,
            None,
            12.0,
            4_136.0,
            8,
            100,
            0.75,
            MultiSlash24,
            120,
        ),
        spec("Azure DNS", NamingStyle::AzureDns, None, 0.0, 1_574.0, 0, 42, 0.73, MultiAsn, 100),
        spec(
            "dnspod.net",
            num("dnspod.net"),
            Some("cn"),
            373.0,
            700.0,
            1,
            1,
            0.82,
            MultiSlash24,
            40,
        ),
        spec(
            "dnsmadeeasy.com",
            num("dnsmadeeasy.com"),
            None,
            89.0,
            254.0,
            14,
            18,
            0.86,
            MultiAsn,
            20,
        ),
        spec("Dyn", NamingStyle::DynStyle, None, 7.0, 170.0, 3, 15, 0.77, MultiSlash24, 20),
        spec(
            "domaincontrol.com",
            num("domaincontrol.com"),
            None,
            283.0,
            1_582.0,
            50,
            72,
            0.80,
            MultiSlash24,
            80,
        ),
        spec("ultradns.net", num("ultradns.net"), None, 15.0, 66.0, 4, 7, 0.86, MultiAsn, 10),
        spec(
            "websitewelcome.com",
            num("websitewelcome.com"),
            None,
            424.0,
            745.0,
            56,
            57,
            0.80,
            MultiSlash24,
            60,
        ),
        spec(
            "zoneedit.com",
            num("zoneedit.com"),
            None,
            182.0,
            120.0,
            34,
            20,
            0.80,
            MultiSlash24,
            20,
        ),
        spec(
            "dreamhost.com",
            num("dreamhost.com"),
            None,
            243.0,
            210.0,
            31,
            22,
            0.80,
            MultiSlash24,
            30,
        ),
        spec(
            "bluehost.com",
            num("bluehost.com"),
            None,
            134.0,
            432.0,
            31,
            66,
            0.80,
            MultiSlash24,
            40,
        ),
        spec(
            "Hostgator",
            num("hostgator.com"),
            None,
            183.0,
            1_536.0,
            31,
            62,
            0.80,
            MultiSlash24,
            70,
        ),
        spec(
            "ixwebhosting.com",
            num("ixwebhosting.com"),
            None,
            98.0,
            40.0,
            30,
            10,
            0.80,
            MultiSlash24,
            12,
        ),
        spec(
            "hostmonster.com",
            num("hostmonster.com"),
            None,
            103.0,
            90.0,
            29,
            13,
            0.80,
            MultiSlash24,
            12,
        ),
        spec("everydns.net", num("everydns.net"), None, 259.0, 0.0, 28, 0, 0.80, MultiSlash24, 12),
        spec("pipedns.com", num("pipedns.com"), None, 48.0, 35.0, 26, 9, 0.80, MultiSlash24, 8),
        spec(
            "stabletransit.com",
            num("stabletransit.com"),
            None,
            57.0,
            55.0,
            24,
            11,
            0.80,
            MultiSlash24,
            8,
        ),
        spec(
            "digitalocean.com",
            num("digitalocean.com"),
            None,
            0.0,
            429.0,
            0,
            52,
            0.80,
            MultiSlash24,
            3,
        ),
        spec(
            "microsoftonline.com",
            num("bdm.microsoftonline.com"),
            None,
            0.0,
            135.0,
            0,
            46,
            0.60,
            MultiAsn,
            10,
        ),
        spec("wixdns.net", num("wixdns.net"), None, 0.0, 324.0, 0, 44, 0.90, MultiSlash24, 4),
        spec(
            "cloudns.net",
            NamingStyle::PnsNumbered { domain: "cloudns.net".to_owned() },
            None,
            0.0,
            225.0,
            0,
            43,
            0.80,
            MultiSlash24,
            20,
        ),
        spec(
            "hichina.com",
            num("hichina.com"),
            Some("cn"),
            2_000.0,
            6_900.0,
            1,
            1,
            0.85,
            MultiSlash24,
            120,
        ),
        spec(
            "xincache.com",
            num("xincache.com"),
            Some("cn"),
            1_050.0,
            3_450.0,
            1,
            1,
            0.85,
            MultiSlash24,
            60,
        ),
        spec(
            "dns-diy.com",
            num("dns-diy.com"),
            Some("cn"),
            650.0,
            1_960.0,
            1,
            1,
            0.85,
            MultiAsn,
            40,
        ),
        {
            // A white-label DNS wholesaler: anonymous cluster hostnames,
            // identifiable only through the SOA RNAME it stamps on
            // customer zones.
            let mut p = spec(
                "brandhost.example",
                NamingStyle::WhiteLabel,
                None,
                150.0,
                620.0,
                12,
                26,
                0.85,
                MultiSlash24,
                30,
            );
            p.soa_rname = Some("brandhost.example".parse().expect("static domain parses"));
            p
        },
    ]
}

/// The provider market: the ~25 named providers of Tables II–III plus
/// per-country local hosting companies that carry the heterogeneous bulk
/// of the ecosystem.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderCatalog {
    providers: Vec<Provider>,
}

impl ProviderCatalog {
    /// Builds the catalog for a set of countries. `local_diversity` picks
    /// each local provider's placement policy from its country's profile.
    pub fn build<F>(countries: &[Country], mut local_diversity: F) -> Self
    where
        F: FnMut(&Country, usize) -> DiversityPolicy,
    {
        let mut providers = named_providers();
        for country in countries {
            let locals = match country.tier {
                EgovTier::Top10(_) => 8,
                EgovTier::High => 5,
                EgovTier::Medium => 3,
                EgovTier::Low => 2,
                EgovTier::Minimal => 1,
            };
            for j in 0..locals {
                let cc = country.code.as_str();
                let domain = format!("webhost{}.{}", j + 1, cc);
                let style = NamingStyle::Numbered { domain };
                let pairs = (0..24).map(|i| style.host_pair(i)).collect();
                providers.push(Provider {
                    id: 0,
                    label: format!("webhost{}.{}", j + 1, cc),
                    style,
                    scope: Some(country.code),
                    count_2011: 0.0, // locals absorb whatever the named market leaves
                    count_2020: 0.0,
                    countries_2011: 1,
                    countries_2020: 1,
                    d1p_rate: 0.9,
                    diversity: local_diversity(country, j),
                    pool: NsPool::new(pairs),
                    soa_rname: None,
                    is_local: true,
                });
            }
        }
        for (i, p) in providers.iter_mut().enumerate() {
            p.id = i;
        }
        ProviderCatalog { providers }
    }

    /// The provider with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range — ids come from this catalog.
    pub fn get(&self, id: ProviderId) -> &Provider {
        &self.providers[id]
    }

    /// All providers.
    pub fn iter(&self) -> impl Iterator<Item = &Provider> {
        self.providers.iter()
    }

    /// Named (non-local) providers.
    pub fn named(&self) -> impl Iterator<Item = &Provider> {
        self.providers.iter().filter(|p| !p.is_local)
    }

    /// Local providers available in `country`.
    pub fn locals_of(&self, code: CountryCode) -> impl Iterator<Item = &Provider> + '_ {
        self.providers.iter().filter(move |p| p.is_local && p.scope == Some(code))
    }

    /// Number of providers.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }

    /// The classification rule set the measurement pipeline uses —
    /// equivalent to the paper's public knowledge of provider naming.
    pub fn matchers(&self) -> Vec<ProviderMatcher> {
        let mut out = Vec::new();
        for p in &self.providers {
            match &p.style {
                NamingStyle::AwsDns => out.push(ProviderMatcher {
                    label: p.label.clone(),
                    rule: MatchRule::SecondLabelPrefix("awsdns-".to_owned()),
                    target: MatchTarget::Hostname,
                }),
                style => {
                    for dom in style.registered_domains() {
                        out.push(ProviderMatcher {
                            label: p.label.clone(),
                            rule: MatchRule::RegisteredDomain(dom),
                            target: MatchTarget::Hostname,
                        });
                    }
                }
            }
            if let Some(rname) = &p.soa_rname {
                out.push(ProviderMatcher {
                    label: p.label.clone(),
                    rule: MatchRule::RegisteredDomain(rname.clone()),
                    target: MatchTarget::SoaName,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countries_data::countries;
    use proptest::prelude::*;

    fn catalog() -> ProviderCatalog {
        ProviderCatalog::build(&countries(), |_, _| DiversityPolicy::MultiSlash24)
    }

    #[test]
    fn named_providers_present_with_anchor_counts() {
        let cat = catalog();
        let aws = cat.named().find(|p| p.label == "AWS DNS").unwrap();
        assert_eq!(aws.count_2020, 5_193.0);
        let cf = cat.named().find(|p| p.label == "cloudflare.com").unwrap();
        assert_eq!(cf.count_2011, 12.0);
        assert_eq!(cat.named().count(), 26);
    }

    #[test]
    fn growth_interpolation_is_monotone_for_growers() {
        let cat = catalog();
        let aws = cat.named().find(|p| p.label == "AWS DNS").unwrap();
        let mut prev = 0.0;
        for y in 2011..=2020 {
            let c = aws.target_count(y);
            assert!(c >= prev, "AWS count should grow: {prev} -> {c} in {y}");
            prev = c;
        }
        assert!((aws.target_count(2020) - 5_193.0).abs() < 1.0);
    }

    #[test]
    fn dead_provider_reaches_zero() {
        let cat = catalog();
        let everydns = cat.named().find(|p| p.label == "everydns.net").unwrap();
        assert!(everydns.target_count(2011) > 200.0);
        assert_eq!(everydns.target_count(2020), 0.0);
    }

    #[test]
    fn scoped_providers_stay_scoped() {
        let cat = catalog();
        let all = countries();
        let cn = all.iter().find(|c| c.code.as_str() == "cn").unwrap();
        let br = all.iter().find(|c| c.code.as_str() == "br").unwrap();
        let dnspod = cat.named().find(|p| p.label == "dnspod.net").unwrap();
        assert!(dnspod.eligible_in(cn, 2020));
        assert!(!dnspod.eligible_in(br, 2020));
    }

    #[test]
    fn eligibility_grows_over_time() {
        let cat = catalog();
        let all = countries();
        let cf = cat.named().find(|p| p.label == "cloudflare.com").unwrap();
        let count_2011 = all.iter().filter(|c| cf.eligible_in(c, 2011)).count();
        let count_2020 = all.iter().filter(|c| cf.eligible_in(c, 2020)).count();
        assert!(count_2011 < 25, "cloudflare 2011 spread {count_2011}");
        assert!(count_2020 > 70, "cloudflare 2020 spread {count_2020}");
    }

    #[test]
    fn matchers_cover_the_same_cases() {
        let cat = catalog();
        let matchers = cat.matchers();
        let index = MatcherIndex::new(&matchers, Some(MatchTarget::Hostname));
        let cases = [
            ("ns-432.awsdns-21.net", "AWS DNS"),
            ("ns-12.awsdns-63.org", "AWS DNS"),
            ("ben.ns.cloudflare.com", "cloudflare.com"),
            ("zoe.ns.cloudflare.com", "cloudflare.com"),
            ("ns1-03.azure-dns.com", "Azure DNS"),
            ("ns2.p09.dynect.net", "Dyn"),
            ("pns13.cloudns.net", "cloudns.net"),
            ("ns7.domaincontrol.com", "domaincontrol.com"),
            ("ns3.bdm.microsoftonline.com", "microsoftonline.com"),
            ("ns2.webhost1.br", "webhost1.br"),
        ];
        for (host, label) in cases {
            let got = index.first_match(&host.parse().unwrap()).map(|m| m.label.as_str());
            assert_eq!(got, Some(label), "classifying {host}");
        }
        let host: DomainName = "ns1.gov.br".parse().unwrap();
        assert_eq!(MatcherIndex::new(&matchers, None).first_match(&host), None);
    }

    fn domain(name: &str) -> MatchRule {
        MatchRule::RegisteredDomain(name.parse().unwrap())
    }

    fn target() -> impl Strategy<Value = MatchTarget> {
        prop::sample::select(vec![MatchTarget::Hostname, MatchTarget::SoaName])
    }

    /// A rule list. A duplicated domain, a domain nested in it and a
    /// prefix rule are placed at drawn positions among up to eight rules
    /// drawn from a pool, so the prefix rule lands before, between or
    /// after domain rules; half the lists also hold a root-domain rule.
    /// Every rule has a drawn target.
    fn rules() -> impl Strategy<Value = Vec<ProviderMatcher>> {
        let pool = vec![
            domain("example.com"),
            domain("ns.example.com"),
            domain("other.net"),
            domain("brand.example"),
            domain("gov.zz"),
            domain("."),
            MatchRule::SecondLabelPrefix("awsdns-".into()),
            MatchRule::SecondLabelPrefix("ns".into()),
        ];
        let drawn = prop::collection::vec((prop::sample::select(pool), target()), 0..8);
        let placed = prop::collection::vec((0..16usize, target()), 5..6);
        (drawn, placed, any::<bool>()).prop_map(|(mut rules, placed, with_root)| {
            let required = [
                domain("example.com"),
                domain("example.com"),
                domain("ns.example.com"),
                MatchRule::SecondLabelPrefix("ns".into()),
                domain("."),
            ];
            let n = if with_root { 5 } else { 4 };
            for ((at, target), rule) in placed.into_iter().zip(required).take(n) {
                rules.insert(at % (rules.len() + 1), (rule, target));
            }
            let rules = rules.into_iter().enumerate();
            rules
                .map(|(i, (rule, target))| ProviderMatcher {
                    label: format!("rule {i}"),
                    rule,
                    target,
                })
                .collect()
        })
    }

    /// One-label, in-seed, deep, prefix-matched and unmatched hosts, and
    /// names under a domain only SOA rules may use.
    const HOSTS: [&str; 11] = [
        "ns",
        "com",
        "example.com",
        "ns.example.com",
        "a.ns.example.com",
        "a.b.ns.example.com",
        "ns1.a.gov.zz",
        "ns-1.awsdns-01.com",
        "x.other.net",
        "hostmaster.brand.example",
        "ns1.anon.org",
    ];

    proptest! {
        #[test]
        fn the_index_finds_the_scans_first_match(matchers in rules()) {
            let hosts: Vec<DomainName> = HOSTS.iter().map(|h| h.parse().unwrap()).collect();
            for target in [Some(MatchTarget::Hostname), Some(MatchTarget::SoaName), None] {
                let index = MatcherIndex::new(&matchers, target);
                let scan = |names: &[&DomainName]| {
                    let mut rules = matchers.iter().filter(|m| target.is_none_or(|t| m.target == t));
                    rules.find(|m| names.iter().any(|name| m.matches(name)))
                };
                for a in &hosts {
                    prop_assert_eq!(index.first_match(a), scan(&[a]));
                    for b in &hosts {
                        prop_assert_eq!(index.first_match_of(&[a, b]), scan(&[a, b]));
                    }
                }
            }
        }
    }

    #[test]
    fn host_pairs_are_distinct_within_pair() {
        for style in [
            NamingStyle::AwsDns,
            NamingStyle::CloudflareNs,
            NamingStyle::AzureDns,
            NamingStyle::DynStyle,
            NamingStyle::PnsNumbered { domain: "cloudns.net".into() },
            NamingStyle::Numbered { domain: "webhost1.br".into() },
        ] {
            for i in 0..40 {
                let (a, b) = style.host_pair(i);
                assert_ne!(a, b, "pair {i} of {style:?} collapsed");
            }
        }
    }
}
