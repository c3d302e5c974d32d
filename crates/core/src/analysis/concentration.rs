//! §IV-A (text) — per-`d_gov` provider concentration: the paper observes
//! that over half of gov.cn's responsive subdomains sit on three Chinese
//! providers (HiChina 38%, XinCache 19%, DNS-DIY 10.8%) while gov.br's
//! most-used provider holds only ~6%. This module measures that mix for
//! every seed, plus a Herfindahl–Hirschman concentration index.

use govdns_model::DomainName;

use crate::analysis::attribution::{ProbedAttribution, ProbedHosts};
use crate::stats;
use crate::tables::{fmt_pct, TextTable};
use crate::{Campaign, MeasurementDataset};

/// Provider mix under one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedConcentration {
    /// The `d_gov`.
    pub seed: DomainName,
    /// Responsive domains under it.
    pub responsive: usize,
    /// Domains on a private (in-seed) deployment.
    pub private: usize,
    /// Provider label → domains using it, descending.
    pub providers: Vec<(String, usize)>,
    /// Herfindahl–Hirschman index over provider shares (0–10,000; higher
    /// = more concentrated). Private deployments count as one "provider".
    pub hhi: f64,
}

impl SeedConcentration {
    /// The dominant provider's share of responsive domains, in percent.
    pub fn top_share_pct(&self) -> f64 {
        self.providers.first().map(|&(_, n)| stats::pct(n, self.responsive)).unwrap_or(0.0)
    }
}

/// Concentration for every seed with responsive domains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConcentrationAnalysis {
    /// Per-seed mixes, ordered by responsive-domain count descending.
    pub seeds: Vec<SeedConcentration>,
}

impl ConcentrationAnalysis {
    /// Classifies every responsive domain's nameservers and aggregates
    /// per seed.
    pub fn compute(ds: &MeasurementDataset, campaign: &Campaign<'_>) -> Self {
        let hosts = ProbedHosts::classify(ds, campaign.matchers);
        ConcentrationAnalysis::from_attribution(&ProbedAttribution::build(ds, &hosts))
    }

    /// Reports the per-seed tallies of a probed attribution table.
    pub(crate) fn from_attribution(table: &ProbedAttribution<'_>) -> Self {
        let mut seeds: Vec<SeedConcentration> = table
            .seeds
            .iter()
            .map(|(&seed, tally)| {
                let (responsive, private) = (tally.responsive, tally.private);
                let mut providers: Vec<(String, usize)> =
                    tally.domains.iter().map(|(&label, &n)| (label.to_owned(), n)).collect();
                providers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let hhi = if responsive == 0 {
                    0.0
                } else {
                    let mut sum = 0.0;
                    for &(_, n) in &providers {
                        let share = 100.0 * n as f64 / responsive as f64;
                        sum += share * share;
                    }
                    let private_share = 100.0 * private as f64 / responsive as f64;
                    sum + private_share * private_share
                };
                SeedConcentration { seed: seed.clone(), responsive, private, providers, hhi }
            })
            .collect();
        seeds.sort_by_key(|s| std::cmp::Reverse(s.responsive));
        ConcentrationAnalysis { seeds }
    }

    /// The mix for one seed.
    pub fn seed(&self, seed: &DomainName) -> Option<&SeedConcentration> {
        self.seeds.iter().find(|s| s.seed == *seed)
    }

    /// Renders the top seeds with their top providers.
    pub fn table(&self, top_seeds: usize) -> TextTable {
        let mut t =
            TextTable::new(["d_gov", "responsive", "private", "top providers (share)", "HHI"]);
        for s in self.seeds.iter().take(top_seeds) {
            let top: Vec<String> = s
                .providers
                .iter()
                .take(3)
                .map(|(label, n)| format!("{label} ({})", fmt_pct(stats::pct(*n, s.responsive))))
                .collect();
            t.push_row([
                s.seed.to_string(),
                s.responsive.to_string(),
                s.private.to_string(),
                top.join(", "),
                format!("{:.0}", s.hhi),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{dataset, n, CampaignFixture, ProbeBuilder};
    use govdns_world::{MatchRule, ProviderMatcher};

    #[allow(clippy::field_reassign_with_default)]
    fn fixture() -> CampaignFixture {
        let mut f = CampaignFixture::default();
        f.matchers = vec![ProviderMatcher {
            label: "hichina.com".to_owned(),
            rule: MatchRule::RegisteredDomain("hichina.com".parse().unwrap()),
            target: govdns_world::MatchTarget::Hostname,
        }];
        f
    }

    #[test]
    fn measures_mix_and_private() {
        let probes = vec![
            // Two hichina customers.
            (
                ProbeBuilder::new("a.gov.cn")
                    .parent(&["dns1.hichina.com", "dns2.hichina.com"])
                    .child(&["dns1.hichina.com", "dns2.hichina.com"])
                    .serving("dns1.hichina.com", [192, 0, 2, 1])
                    .build(),
                "cn",
            ),
            (
                ProbeBuilder::new("b.gov.cn")
                    .parent(&["dns3.hichina.com", "dns4.hichina.com"])
                    .child(&["dns3.hichina.com", "dns4.hichina.com"])
                    .serving("dns3.hichina.com", [192, 0, 2, 2])
                    .build(),
                "cn",
            ),
            // One private, one other provider.
            (
                ProbeBuilder::new("c.gov.cn")
                    .parent(&["ns1.c.gov.cn", "ns2.c.gov.cn"])
                    .child(&["ns1.c.gov.cn", "ns2.c.gov.cn"])
                    .serving("ns1.c.gov.cn", [192, 0, 2, 3])
                    .build(),
                "cn",
            ),
            (
                ProbeBuilder::new("d.gov.cn")
                    .parent(&["ns1.other.net", "ns2.other.net"])
                    .child(&["ns1.other.net", "ns2.other.net"])
                    .serving("ns1.other.net", [192, 0, 2, 4])
                    .build(),
                "cn",
            ),
        ];
        let ds = dataset(probes);
        let f = fixture();
        let c = ConcentrationAnalysis::compute(&ds, &f.campaign());
        let cn = c.seed(&n("gov.cn")).unwrap();
        assert_eq!(cn.responsive, 4);
        assert_eq!(cn.private, 1);
        assert_eq!(cn.providers[0], ("hichina.com".to_owned(), 2));
        assert_eq!(cn.top_share_pct(), 50.0);
        // HHI: 50² (hichina) + 25² (other) + 25² (private) = 3750.
        assert!((cn.hhi - 3750.0).abs() < 1.0, "hhi {}", cn.hhi);
        assert!(c.table(5).to_text().contains("hichina.com"));
    }

    #[test]
    fn empty_dataset_yields_no_rows() {
        let ds = dataset(Vec::new());
        let f = fixture();
        let c = ConcentrationAnalysis::compute(&ds, &f.campaign());
        assert!(c.seeds.is_empty());
    }
}

#[cfg(test)]
mod soa_tests {
    use super::*;
    use crate::analysis::testutil::{dataset, n, CampaignFixture, ProbeBuilder};
    use govdns_world::{MatchRule, MatchTarget, ProviderMatcher};

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn white_label_hosts_classified_via_soa() {
        let mut f = CampaignFixture::default();
        f.matchers = vec![ProviderMatcher {
            label: "brandhost.example".to_owned(),
            rule: MatchRule::RegisteredDomain("brandhost.example".parse().unwrap()),
            target: MatchTarget::SoaName,
        }];
        let probes = vec![
            // Anonymous cluster hostnames + a branding SOA.
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.dns-cluster7.net", "ns2.dns-cluster7.net"])
                    .child(&["ns1.dns-cluster7.net", "ns2.dns-cluster7.net"])
                    .serving("ns1.dns-cluster7.net", [192, 0, 2, 1])
                    .soa("ns1.dns-cluster7.net", "hostmaster.brandhost.example")
                    .build(),
                "zz",
            ),
            // Same hostnames, no SOA: falls back to the registered domain.
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.dns-cluster9.net", "ns2.dns-cluster9.net"])
                    .child(&["ns1.dns-cluster9.net", "ns2.dns-cluster9.net"])
                    .serving("ns1.dns-cluster9.net", [192, 0, 2, 2])
                    .build(),
                "zz",
            ),
        ];
        let ds = dataset(probes);
        let c = ConcentrationAnalysis::compute(&ds, &f.campaign());
        let zz = c.seed(&n("gov.zz")).unwrap();
        let labels: Vec<&str> = zz.providers.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"brandhost.example"), "{labels:?}");
        assert!(labels.contains(&"dns-cluster9.net"), "{labels:?}");
        assert!(!labels.contains(&"dns-cluster7.net"), "{labels:?}");
    }
}
