//! §IV-C — defective ("lame") delegations and the hijack risk of
//! dangling NS targets (Figs 10, 11, 12).

use std::collections::{BTreeMap, BTreeSet};

use govdns_model::DomainName;
use govdns_world::CountryCode;

use crate::stats::{self, Cdf};
use crate::tables::{fmt_pct, TextTable};
use crate::{Campaign, MeasurementDataset};

/// Per-country defective-delegation counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountryDefects {
    /// Responsive domains examined.
    pub domains: usize,
    /// Domains with at least one defective nameserver.
    pub partial_or_full: usize,
    /// Domains where every nameserver is defective.
    pub full: usize,
    /// Domains with a defective nameserver among the parent-listed set.
    pub partial_parent: usize,
    /// Domains that answered only degraded (retries / second round) —
    /// the flakiness dimension a dead-or-alive classification hides.
    pub degraded: usize,
}

/// One registrable dangling NS domain.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailableNsDomain {
    /// The registrable registered domain.
    pub name: DomainName,
    /// Its price at the registrar.
    pub price_usd: f64,
    /// Government domains whose delegations reference it.
    pub affected: Vec<DomainName>,
    /// Countries those domains belong to.
    pub countries: BTreeSet<CountryCode>,
}

/// The full §IV-C result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelegationAnalysis {
    /// Responsive domains examined.
    pub domains: usize,
    /// Domains with any defective delegation (the 29.5% headline).
    pub any_defective: usize,
    /// Domains with a partial defective delegation involving
    /// parent-zone information (the 25.4% headline).
    pub partial_parent: usize,
    /// Fully defective delegations.
    pub fully_defective: usize,
    /// Domains that answered, but only after retries or a second round.
    pub degraded: usize,
    /// Per-country breakdown (Figs 10a/10b).
    pub per_country: BTreeMap<CountryCode, CountryDefects>,
    /// Registrable dangling NS domains (Fig 11).
    pub available: Vec<AvailableNsDomain>,
    /// Distinct government domains relying on registrable NS domains.
    pub affected_domains: usize,
    /// Countries with affected domains.
    pub affected_countries: usize,
    /// Of the affected domains, those with no authoritative answer at
    /// all (the "625" stale statistic).
    pub affected_fully_stale: usize,
    /// Registration-cost CDF (Fig 12).
    pub cost_cdf: Cdf,
}

impl DelegationAnalysis {
    /// Classifies every responsive probe and checks dangling NS targets
    /// against the registrar.
    pub fn compute(ds: &MeasurementDataset, campaign: &Campaign<'_>) -> Self {
        let seeds: Vec<&DomainName> = ds.seeds.iter().map(|s| &s.name).collect();
        let mut per_country: BTreeMap<CountryCode, CountryDefects> = BTreeMap::new();
        let mut any_defective = 0usize;
        let mut fully_defective = 0usize;
        let mut partial_parent = 0usize;
        let mut degraded = 0usize;
        let mut domains = 0usize;
        let mut available: BTreeMap<DomainName, AvailableNsDomain> = BTreeMap::new();
        let mut affected: BTreeSet<DomainName> = BTreeSet::new();
        let mut affected_countries: BTreeSet<CountryCode> = BTreeSet::new();
        let mut affected_fully_stale = 0usize;

        for (i, probe) in ds.probes.iter().enumerate() {
            if !probe.parent_nonempty() {
                continue;
            }
            domains += 1;
            let country = ds.country_of(i);
            let slot = per_country.entry(country).or_default();
            slot.domains += 1;

            let (any, full) = probe.defective();
            if any {
                any_defective += 1;
                slot.partial_or_full += 1;
            }
            if probe.degraded() {
                degraded += 1;
                slot.degraded += 1;
            }
            if full {
                fully_defective += 1;
                slot.full += 1;
            }
            let parent_defective = probe.servers.iter().any(|s| s.in_parent && s.is_defective());
            if parent_defective && !full {
                partial_parent += 1;
                slot.partial_parent += 1;
            }

            // Hijack risk: defective nameservers whose registered domain
            // lies outside every government seed and is registrable.
            let mut this_domain_flagged = false;
            for server in probe.servers.iter().filter(|s| s.is_defective()) {
                let host = &server.host;
                if host.level() < 2 || seeds.iter().any(|s| host.is_within(s)) {
                    continue;
                }
                let d_ns = host.suffix(2);
                let Some(price) = campaign.registrar.price_of(&d_ns) else { continue };
                let entry = available.entry(d_ns.clone()).or_insert_with(|| AvailableNsDomain {
                    name: d_ns,
                    price_usd: price,
                    affected: Vec::new(),
                    countries: BTreeSet::new(),
                });
                if !entry.affected.contains(&probe.domain) {
                    entry.affected.push(probe.domain.clone());
                }
                entry.countries.insert(country);
                affected.insert(probe.domain.clone());
                affected_countries.insert(country);
                this_domain_flagged = true;
            }
            if this_domain_flagged && !probe.has_authoritative_answer() {
                affected_fully_stale += 1;
            }
        }

        let available: Vec<AvailableNsDomain> = available.into_values().collect();
        let cost_cdf = Cdf::new(available.iter().map(|a| a.price_usd).collect());

        DelegationAnalysis {
            domains,
            any_defective,
            partial_parent,
            fully_defective,
            degraded,
            per_country,
            affected_domains: affected.len(),
            affected_countries: affected_countries.len(),
            affected_fully_stale,
            available,
            cost_cdf,
        }
    }

    /// Share of domains with any defective delegation.
    pub fn any_defective_pct(&self) -> f64 {
        stats::pct(self.any_defective, self.domains)
    }

    /// Share with a partial parent-side defective delegation.
    pub fn partial_parent_pct(&self) -> f64 {
        stats::pct(self.partial_parent, self.domains)
    }

    /// Share of domains that answered only degraded.
    pub fn degraded_pct(&self) -> f64 {
        stats::pct(self.degraded, self.domains)
    }

    /// Renders Figs 10a/10b: the 20 countries with the most defective
    /// delegations.
    pub fn per_country_table(&self) -> TextTable {
        let mut rows: Vec<(&CountryCode, &CountryDefects)> = self.per_country.iter().collect();
        rows.sort_by_key(|(c, d)| (std::cmp::Reverse(d.partial_or_full), **c));
        let mut t = TextTable::new([
            "country",
            "domains",
            "defective",
            "defective %",
            "fully defective",
            "partial (parent)",
            "degraded",
        ]);
        for (c, d) in rows.into_iter().take(20) {
            t.push_row([
                c.to_string(),
                d.domains.to_string(),
                d.partial_or_full.to_string(),
                fmt_pct(stats::pct(d.partial_or_full, d.domains)),
                d.full.to_string(),
                d.partial_parent.to_string(),
                d.degraded.to_string(),
            ]);
        }
        t
    }

    /// Renders Fig 11: registrable NS domains per country.
    pub fn available_table(&self) -> TextTable {
        let mut per_country: BTreeMap<CountryCode, (usize, BTreeSet<&DomainName>)> =
            BTreeMap::new();
        for a in &self.available {
            for &c in &a.countries {
                let slot = per_country.entry(c).or_default();
                slot.0 += a.affected.len();
                slot.1.insert(&a.name);
            }
        }
        let mut rows: Vec<_> = per_country.into_iter().collect();
        rows.sort_by_key(|(c, (n, _))| (std::cmp::Reverse(*n), *c));
        let mut t = TextTable::new(["country", "affected domains", "available d_ns"]);
        for (c, (n, dns)) in rows.into_iter().take(20) {
            t.push_row([c.to_string(), n.to_string(), dns.len().to_string()]);
        }
        t
    }

    /// Renders Fig 12: the registration-cost distribution.
    pub fn cost_table(&self) -> TextTable {
        let mut t = TextTable::new(["quantile", "price (USD)"]);
        if !self.cost_cdf.is_empty() {
            for (q, name) in
                [(0.0, "min"), (0.25, "p25"), (0.5, "median"), (0.75, "p75"), (1.0, "max")]
            {
                let v = if q == 0.0 {
                    self.cost_cdf.min().expect("non-empty")
                } else {
                    self.cost_cdf.quantile(q)
                };
                t.push_row([name.to_owned(), format!("{v:.2}")]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{dataset, n, CampaignFixture, ProbeBuilder};

    #[test]
    fn classifies_partial_and_full() {
        let probes = vec![
            // Healthy.
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [198, 51, 100, 1])
                    .build(),
                "zz",
            ),
            // Partial: one dead parent-listed server.
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.x", "ns9.x"])
                    .child(&["ns1.x", "ns9.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .dead("ns9.x", [192, 0, 2, 9])
                    .build(),
                "zz",
            ),
            // Fully defective.
            (
                ProbeBuilder::new("c.gov.zz")
                    .parent(&["ns1.c.gov.zz"])
                    .dead("ns1.c.gov.zz", [192, 0, 2, 7])
                    .build(),
                "zz",
            ),
            // Not responsive at all: excluded from the denominator.
            (ProbeBuilder::new("d.gov.zz").parent_silent().build(), "zz"),
        ];
        let ds = dataset(probes);
        let fixture = CampaignFixture::default();
        let d = DelegationAnalysis::compute(&ds, &fixture.campaign());
        assert_eq!(d.domains, 3);
        assert_eq!(d.any_defective, 2);
        assert_eq!(d.fully_defective, 1);
        assert_eq!(d.partial_parent, 1);
        assert!((d.any_defective_pct() - 200.0 / 3.0).abs() < 0.1);
        let zz = &d.per_country[&govdns_world::CountryCode::new("zz")];
        assert_eq!(zz.domains, 3);
        assert_eq!(zz.partial_or_full, 2);
    }

    #[test]
    fn hijack_checks_registrar_and_skips_gov_hosts() {
        let mut fixture = CampaignFixture::default();
        fixture.registrar.mark_available(n("deaddns.net"), 11.99);
        let probes = vec![
            // Defective host under a registrable domain.
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.deaddns.net", "ns2.x"])
                    .child(&["ns1.deaddns.net", "ns2.x"])
                    .serving("ns2.x", [192, 0, 2, 1])
                    .unresolvable("ns1.deaddns.net")
                    .build(),
                "zz",
            ),
            // Defective host under the government's own seed: no risk.
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.b.gov.zz", "ns2.x"])
                    .child(&["ns1.b.gov.zz", "ns2.x"])
                    .serving("ns2.x", [192, 0, 2, 1])
                    .dead("ns1.b.gov.zz", [192, 0, 2, 9])
                    .build(),
                "zz",
            ),
            // Defective host under a registered-but-taken domain.
            (
                ProbeBuilder::new("c.gov.zz")
                    .parent(&["ns1.takendns.net", "ns2.x"])
                    .child(&["ns1.takendns.net", "ns2.x"])
                    .serving("ns2.x", [192, 0, 2, 1])
                    .dead("ns1.takendns.net", [192, 0, 2, 8])
                    .build(),
                "zz",
            ),
        ];
        let ds = dataset(probes);
        let d = DelegationAnalysis::compute(&ds, &fixture.campaign());
        assert_eq!(d.available.len(), 1);
        assert_eq!(d.available[0].name, n("deaddns.net"));
        assert_eq!(d.available[0].affected, vec![n("a.gov.zz")]);
        assert_eq!(d.affected_domains, 1);
        assert_eq!(d.affected_countries, 1);
        assert_eq!(d.cost_cdf.min(), Some(11.99));
    }

    #[test]
    fn fully_stale_affected_are_counted() {
        let mut fixture = CampaignFixture::default();
        fixture.registrar.mark_available(n("deaddns.net"), 5.0);
        let ds = dataset(vec![(
            ProbeBuilder::new("a.gov.zz")
                .parent(&["ns1.deaddns.net", "ns2.deaddns.net"])
                .unresolvable("ns1.deaddns.net")
                .unresolvable("ns2.deaddns.net")
                .build(),
            "zz",
        )]);
        let d = DelegationAnalysis::compute(&ds, &fixture.campaign());
        assert_eq!(d.affected_domains, 1);
        assert_eq!(d.affected_fully_stale, 1);
        assert_eq!(d.fully_defective, 1);
    }

    #[test]
    fn tables_render() {
        let mut fixture = CampaignFixture::default();
        fixture.registrar.mark_available(n("deaddns.net"), 7.0);
        let ds = dataset(vec![(
            ProbeBuilder::new("a.gov.zz")
                .parent(&["ns1.deaddns.net", "ns2.x"])
                .child(&["ns1.deaddns.net", "ns2.x"])
                .serving("ns2.x", [192, 0, 2, 1])
                .unresolvable("ns1.deaddns.net")
                .build(),
            "zz",
        )]);
        let d = DelegationAnalysis::compute(&ds, &fixture.campaign());
        assert!(d.per_country_table().to_text().contains("zz"));
        assert!(d.available_table().to_text().contains("zz"));
        assert!(d.cost_table().to_text().contains("median"));
    }
}
