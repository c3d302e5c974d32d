//! Provider attribution: which DNS provider runs a nameserver host. This
//! module holds the paper's rule, which every analysis that labels a host
//! shares:
//!
//! 1. the first hostname rule in `campaign.matchers` order;
//! 2. for a host no hostname rule matches, the first SOA rule that
//!    matches the zone's MNAME or RNAME (white-label providers);
//! 3. else the host's registered domain.
//!
//! [`ProviderRules`] reads both rule lists through a [`MatcherIndex`]:
//! a name's suffixes are looked up among the registered-domain rules and
//! only the prefix rules are tested one by one. The first match is the
//! matching rule with the lowest position, which is what a scan of the
//! list in order finds.
//!
//! Tables II–III apply it over the PDNS history
//! ([`providers`](crate::analysis::providers)). The §IV-A concentration
//! text and the provider-monoculture smell apply it over the active
//! probes, through one [`ProbedAttribution`] table.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use govdns_model::DomainName;
use govdns_world::{MatchTarget, MatcherIndex, ProviderMatcher};

use crate::MeasurementDataset;

/// What the hostname rules say about one NS host. It does not depend on
/// the zone, so each distinct host is classified once per analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HostLabel<'c> {
    /// A hostname rule matched.
    Provider(&'c str),
    /// No hostname rule matched: an SOA rule decides if one matches the
    /// zone, else this registered domain.
    Anonymous(String),
}

impl<'c> HostLabel<'c> {
    /// The host's label: its provider, or for an anonymous host the SOA
    /// rule's verdict (`soa` runs only then) or its registered domain.
    pub(crate) fn resolve(&self, soa: impl FnOnce() -> Option<&'c str>) -> &str {
        match self {
            HostLabel::Provider(label) => label,
            HostLabel::Anonymous(registered) => soa().unwrap_or(registered),
        }
    }
}

/// The paper's rule set, indexed once per analysis: the hostname rules
/// and the SOA rules of `campaign.matchers`, each answering with its
/// first matching rule in catalog order.
#[derive(Debug)]
pub(crate) struct ProviderRules<'c> {
    hostname: MatcherIndex<'c>,
    soa: MatcherIndex<'c>,
}

impl<'c> ProviderRules<'c> {
    pub(crate) fn new(matchers: &'c [ProviderMatcher]) -> Self {
        ProviderRules {
            hostname: MatcherIndex::new(matchers, Some(MatchTarget::Hostname)),
            soa: MatcherIndex::new(matchers, Some(MatchTarget::SoaName)),
        }
    }

    /// Classifies each distinct host in `hosts` once by the hostname
    /// rules.
    pub(crate) fn classify_hosts<'h>(
        &self,
        hosts: impl IntoIterator<Item = &'h DomainName>,
    ) -> HashMap<&'h DomainName, HostLabel<'c>> {
        let mut labels = HashMap::new();
        for host in hosts {
            labels.entry(host).or_insert_with(|| self.host_label(host));
        }
        labels
    }

    /// What the hostname rules say about `host`.
    pub(crate) fn host_label(&self, host: &DomainName) -> HostLabel<'c> {
        match self.hostname.first_match(host) {
            Some(m) => HostLabel::Provider(&m.label),
            None => HostLabel::Anonymous(host.suffix(2).to_string()),
        }
    }

    /// The first SOA rule that matches `mname` or `rname`.
    pub(crate) fn soa_rule(&self, mname: &DomainName, rname: &DomainName) -> Option<&'c str> {
        self.soa.first_match_of(&[mname, rname]).map(|m| m.label.as_str())
    }
}

/// One responsive probe's attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProbeAttribution<'a> {
    /// The provider labels of its external nameservers.
    pub labels: BTreeSet<&'a str>,
    /// Whether any nameserver lies inside its seed.
    pub private: bool,
}

/// One seed's provider mix over its responsive probes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SeedTally<'a> {
    /// Responsive domains under the seed.
    pub responsive: usize,
    /// Those with a private (in-seed) nameserver.
    pub private: usize,
    /// Provider label → domains using it.
    pub domains: BTreeMap<&'a str, usize>,
}

/// The external nameservers of a dataset's responsive probes, each
/// classified once by the hostname rules. A [`ProbedAttribution`]
/// borrows its labels from here and from the rules.
#[derive(Debug)]
pub(crate) struct ProbedHosts<'d, 'c> {
    rules: ProviderRules<'c>,
    labels: HashMap<&'d DomainName, HostLabel<'c>>,
}

impl<'d, 'c> ProbedHosts<'d, 'c> {
    /// Classifies the external hosts of every responsive probe.
    pub(crate) fn classify(ds: &'d MeasurementDataset, matchers: &'c [ProviderMatcher]) -> Self {
        let rules = ProviderRules::new(matchers);
        let labels = rules.classify_hosts(responsive(ds).flat_map(|i| external(ds, i)));
        ProbedHosts { rules, labels }
    }
}

/// The probes whose parent listed NS records.
fn responsive(ds: &MeasurementDataset) -> impl Iterator<Item = usize> + '_ {
    (0..ds.probes.len()).filter(|&i| ds.probes[i].parent_nonempty())
}

/// Probe `i`'s nameservers outside its seed, less one-label hosts.
fn external(ds: &MeasurementDataset, i: usize) -> impl Iterator<Item = &DomainName> {
    let (probe, seed) = (&ds.probes[i], ds.seed_of(i));
    let hosts = probe.parent_ns.iter().chain(&probe.child_ns);
    hosts.filter(move |h| !h.is_within(seed) && h.level() >= 2)
}

/// The attribution of every probe in a dataset, built once and read by
/// both the concentration analysis and the smell engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProbedAttribution<'a> {
    /// Per probe, in dataset order: `None` when the parent listed no NS.
    pub probes: Vec<Option<ProbeAttribution<'a>>>,
    /// Per seed with responsive probes.
    pub seeds: BTreeMap<&'a DomainName, SeedTally<'a>>,
}

impl<'a> ProbedAttribution<'a> {
    /// Attributes every responsive probe's nameservers. A host inside the
    /// probe's seed marks it private; a one-label host (a relative-label
    /// artifact) is skipped.
    pub(crate) fn build(ds: &'a MeasurementDataset, hosts: &'a ProbedHosts<'a, 'a>) -> Self {
        let mut probes = vec![None; ds.probes.len()];
        let mut seeds: BTreeMap<&DomainName, SeedTally> = BTreeMap::new();
        for i in responsive(ds) {
            let (probe, seed) = (&ds.probes[i], ds.seed_of(i));
            // The SOA is the probe's, so it is looked up at most once.
            let mut by_soa = None;
            let soa = || probe.soa.as_ref().and_then(|s| hosts.rules.soa_rule(&s.mname, &s.rname));
            let labels: BTreeSet<&str> = external(ds, i)
                .map(|host| hosts.labels[host].resolve(|| *by_soa.get_or_insert_with(soa)))
                .collect();
            let private = probe.parent_ns.iter().chain(&probe.child_ns).any(|h| h.is_within(seed));
            let tally = seeds.entry(seed).or_default();
            tally.responsive += 1;
            tally.private += usize::from(private);
            for &label in &labels {
                *tally.domains.entry(label).or_insert(0) += 1;
            }
            probes[i] = Some(ProbeAttribution { labels, private });
        }
        ProbedAttribution { probes, seeds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{dataset, CampaignFixture, ProbeBuilder};
    use crate::probe::DomainProbe;
    use crate::Campaign;
    use govdns_world::MatchRule;
    use proptest::prelude::*;

    /// The per-probe attribution the concentration analysis and the smell
    /// engine each ran before they shared one table.
    fn provider_labels(
        probe: &DomainProbe,
        seed: &DomainName,
        campaign: &Campaign<'_>,
    ) -> (BTreeSet<String>, bool) {
        let mut labels = BTreeSet::new();
        let mut private = false;
        for host in probe.ns_union() {
            if host.is_within(seed) {
                private = true;
                continue;
            }
            if host.level() < 2 {
                continue; // relative-label artifacts
            }
            let by_host = campaign
                .matchers
                .iter()
                .filter(|m| m.target == MatchTarget::Hostname)
                .find(|m| m.matches(&host))
                .map(|m| m.label.clone());
            let label = by_host
                .or_else(|| {
                    probe.soa.as_ref().and_then(|soa| {
                        campaign
                            .matchers
                            .iter()
                            .filter(|m| m.target == MatchTarget::SoaName)
                            .find(|m| m.matches(&soa.mname) || m.matches(&soa.rname))
                            .map(|m| m.label.clone())
                    })
                })
                .unwrap_or_else(|| host.suffix(2).to_string());
            labels.insert(label);
        }
        (labels, private)
    }

    /// Two hostname rules that overlap (first match wins) and two SOA
    /// rules.
    fn fixture() -> CampaignFixture {
        let rule = |label: &str, rule: MatchRule, target| ProviderMatcher {
            label: label.to_owned(),
            rule,
            target,
        };
        let domain = |s: &str| MatchRule::RegisteredDomain(s.parse().unwrap());
        CampaignFixture {
            matchers: vec![
                rule("Brand SOA", domain("brand.example"), MatchTarget::SoaName),
                rule(
                    "AWS DNS",
                    MatchRule::SecondLabelPrefix("awsdns-".into()),
                    MatchTarget::Hostname,
                ),
                rule("hichina.com", domain("hichina.com"), MatchTarget::Hostname),
                rule("hichina (dup)", domain("hichina.com"), MatchTarget::Hostname),
                rule("Other SOA", domain("other.example"), MatchTarget::SoaName),
            ],
            ..CampaignFixture::default()
        }
    }

    /// Hosts from a small pool, so hosts repeat across probes: in the
    /// seed, one-label, hostname-matched, anonymous, and hosts inside the
    /// SOA rules' domains (which no hostname rule matches).
    fn host() -> impl Strategy<Value = &'static str> {
        prop::sample::select(vec![
            "ns1.a.gov.zz",
            "ns.gov.yy",
            "ns",
            "ns-1.awsdns-01.com",
            "dns1.hichina.com",
            "dns2.hichina.com",
            "ns1.anon.net",
            "ns2.cluster.org",
            "ns.brand.example",
        ])
    }

    /// No SOA, or an SOA an SOA rule matches by MNAME, by RNAME, or not
    /// at all.
    fn soa() -> impl Strategy<Value = Option<(&'static str, &'static str)>> {
        prop::sample::select(vec![
            None,
            Some(("ns.brand.example", "hostmaster.anon.net")),
            Some(("ns1.anon.net", "hostmaster.other.example")),
            Some(("ns1.anon.net", "hostmaster.anon.net")),
        ])
    }

    /// A country index and the parent- and child-side NS sets.
    fn probe() -> impl Strategy<Value = (usize, Vec<&'static str>, Vec<&'static str>)> {
        (0..3usize, prop::collection::vec(host(), 0..4), prop::collection::vec(host(), 0..4))
    }

    proptest! {
        #[test]
        fn the_shared_table_matches_the_per_probe_oracle(
            specs in prop::collection::vec((probe(), soa()), 0..24),
        ) {
            let probes: Vec<(DomainProbe, &str)> = specs
                .iter()
                .enumerate()
                .map(|(i, ((cc, parent, child), soa))| {
                    let cc = ["zz", "yy", "xx"][*cc];
                    let mut b =
                        ProbeBuilder::new(&format!("d{i}.gov.{cc}")).parent(parent).child(child);
                    if let Some((mname, rname)) = soa {
                        b = b.soa(mname, rname);
                    }
                    (b.build(), cc)
                })
                .collect();
            let ds = dataset(probes);
            let f = fixture();
            let campaign = f.campaign();
            let hosts = ProbedHosts::classify(&ds, campaign.matchers);
            let table = ProbedAttribution::build(&ds, &hosts);

            // The oracle's owned labels, which its tally borrows.
            let oracle: Vec<_> = ds
                .probes
                .iter()
                .enumerate()
                .map(|(i, probe)| provider_labels(probe, ds.seed_of(i), &campaign))
                .collect();
            let mut seeds: BTreeMap<&DomainName, SeedTally> = BTreeMap::new();
            for (i, probe) in ds.probes.iter().enumerate() {
                if !probe.parent_nonempty() {
                    prop_assert_eq!(&table.probes[i], &None);
                    continue;
                }
                let (labels, private) = &oracle[i];
                let (labels, private): (BTreeSet<&str>, bool) =
                    (labels.iter().map(String::as_str).collect(), *private);
                let tally = seeds.entry(ds.seed_of(i)).or_default();
                tally.responsive += 1;
                tally.private += usize::from(private);
                for &label in &labels {
                    *tally.domains.entry(label).or_insert(0) += 1;
                }
                prop_assert_eq!(&table.probes[i], &Some(ProbeAttribution { labels, private }));
            }
            prop_assert_eq!(&table.seeds, &seeds);
        }
    }
}
