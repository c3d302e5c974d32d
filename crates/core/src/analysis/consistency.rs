//! §IV-D — parent/child NS-set consistency (Figs 13, 14) per the
//! Sommese et al. framework, plus the inconsistency-only hijack surface.

use std::collections::{BTreeMap, BTreeSet};

use govdns_model::DomainName;
use govdns_world::CountryCode;

use crate::probe::DomainProbe;
use crate::stats;
use crate::tables::{fmt_pct, TextTable};
use crate::{Campaign, MeasurementDataset};

/// The consistency categories of Fig 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyClass {
    /// `P == C`.
    Equal,
    /// `P ⊂ C` (strict).
    PSubsetC,
    /// `C ⊂ P` (strict).
    CSubsetP,
    /// Non-trivial intersection without containment.
    PartialOverlap,
    /// Disjoint NS sets, overlapping addresses.
    DisjointIpOverlap,
    /// Disjoint NS sets, disjoint addresses.
    DisjointNoIp,
}

impl ConsistencyClass {
    /// All classes, report order.
    pub fn all() -> [ConsistencyClass; 6] {
        [
            ConsistencyClass::Equal,
            ConsistencyClass::PSubsetC,
            ConsistencyClass::CSubsetP,
            ConsistencyClass::PartialOverlap,
            ConsistencyClass::DisjointIpOverlap,
            ConsistencyClass::DisjointNoIp,
        ]
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ConsistencyClass::Equal => "P = C",
            ConsistencyClass::PSubsetC => "P ⊂ C",
            ConsistencyClass::CSubsetP => "C ⊂ P",
            ConsistencyClass::PartialOverlap => "partial overlap",
            ConsistencyClass::DisjointIpOverlap => "disjoint, IPs overlap",
            ConsistencyClass::DisjointNoIp => "disjoint, IPs disjoint",
        }
    }
}

/// Classifies one probe (requires a non-empty `P` and `C`).
pub fn classify(probe: &DomainProbe) -> Option<ConsistencyClass> {
    let p: BTreeSet<&DomainName> = probe.parent_ns.iter().collect();
    let c: BTreeSet<&DomainName> = probe.child_ns.iter().collect();
    if p.is_empty() || c.is_empty() {
        return None;
    }
    Some(if p == c {
        ConsistencyClass::Equal
    } else if p.is_subset(&c) {
        ConsistencyClass::PSubsetC
    } else if c.is_subset(&p) {
        ConsistencyClass::CSubsetP
    } else if !p.is_disjoint(&c) {
        ConsistencyClass::PartialOverlap
    } else {
        // Disjoint hostnames: compare the addresses each side resolves
        // to, as the paper does.
        let addrs_of = |side: &BTreeSet<&DomainName>| -> BTreeSet<std::net::Ipv4Addr> {
            probe
                .servers
                .iter()
                .filter(|s| side.contains(&s.host))
                .flat_map(|s| s.addrs.iter().copied())
                .collect()
        };
        let ip_p = addrs_of(&p);
        let ip_c = addrs_of(&c);
        if !ip_p.is_disjoint(&ip_c) && !ip_p.is_empty() {
            ConsistencyClass::DisjointIpOverlap
        } else {
            ConsistencyClass::DisjointNoIp
        }
    })
}

/// One registrable domain reachable only through inconsistency.
#[derive(Debug, Clone, PartialEq)]
pub struct ParkedDanglingNs {
    /// The registrable registered domain.
    pub name: DomainName,
    /// Its price.
    pub price_usd: f64,
    /// Government domains referencing it.
    pub affected: Vec<DomainName>,
    /// Their countries.
    pub countries: BTreeSet<CountryCode>,
}

/// The full §IV-D result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConsistencyAnalysis {
    /// Domains with both sides observable.
    pub comparable: usize,
    /// Counts per class (Fig 13).
    pub by_class: BTreeMap<String, usize>,
    /// Share of comparable domains with `P == C`.
    pub equal_pct: f64,
    /// Equality share among second-level domains.
    pub equal_pct_second_level: f64,
    /// Equality share among deeper domains.
    pub equal_pct_deeper: f64,
    /// Among `P != C` domains, the share that also has a partial
    /// defective delegation (the 40.9% statistic).
    pub disagree_with_lame_pct: f64,
    /// Per-country disagreement rates (Fig 14): `(country, comparable,
    /// disagreeing)`.
    pub per_country: Vec<(CountryCode, usize, usize)>,
    /// Registrable parent-only NS domains whose hosts still answer (the
    /// parked-dangling hijack surface).
    pub parked: Vec<ParkedDanglingNs>,
    /// Distinct domains affected by parked dangling records.
    pub parked_affected_domains: usize,
    /// Countries involved.
    pub parked_affected_countries: usize,
    /// Minimum price among the parked registrable domains.
    pub parked_min_price: Option<f64>,
}

impl ConsistencyAnalysis {
    /// Runs the framework over all responsive probes.
    pub fn compute(ds: &MeasurementDataset, campaign: &Campaign<'_>) -> Self {
        let seeds: Vec<&DomainName> = ds.seeds.iter().map(|s| &s.name).collect();
        let mut by_class: BTreeMap<String, usize> = BTreeMap::new();
        let mut comparable = 0usize;
        let mut equal = 0usize;
        let mut second = (0usize, 0usize);
        let mut deeper = (0usize, 0usize);
        let mut disagree = 0usize;
        let mut disagree_with_lame = 0usize;
        let mut per_country: BTreeMap<CountryCode, (usize, usize)> = BTreeMap::new();
        let mut parked: BTreeMap<DomainName, ParkedDanglingNs> = BTreeMap::new();
        let mut parked_affected: BTreeSet<DomainName> = BTreeSet::new();
        let mut parked_countries: BTreeSet<CountryCode> = BTreeSet::new();

        for (i, probe) in ds.probes.iter().enumerate() {
            let Some(class) = classify(probe) else { continue };
            comparable += 1;
            *by_class.entry(class.label().to_owned()).or_insert(0) += 1;
            let country = ds.country_of(i);
            let slot = per_country.entry(country).or_insert((0, 0));
            slot.0 += 1;
            let level_slot = if probe.domain.level() == 2 { &mut second } else { &mut deeper };
            level_slot.0 += 1;
            if class == ConsistencyClass::Equal {
                equal += 1;
                level_slot.1 += 1;
                continue;
            }
            slot.1 += 1;
            disagree += 1;
            if probe.servers.iter().any(|s| s.is_defective()) {
                disagree_with_lame += 1;
            }

            // Hijack surface: symmetric-difference hosts that are *not*
            // defective (they answer — e.g. a parking service), whose
            // registered domain is nevertheless registrable.
            let p: BTreeSet<&DomainName> = probe.parent_ns.iter().collect();
            let c: BTreeSet<&DomainName> = probe.child_ns.iter().collect();
            for server in &probe.servers {
                let in_sym_diff = p.contains(&server.host) != c.contains(&server.host);
                if !in_sym_diff || server.is_defective() {
                    continue;
                }
                let host = &server.host;
                if host.level() < 2 || seeds.iter().any(|s| host.is_within(s)) {
                    continue;
                }
                let d_ns = host.suffix(2);
                let Some(price) = campaign.registrar.price_of(&d_ns) else { continue };
                let entry = parked.entry(d_ns.clone()).or_insert_with(|| ParkedDanglingNs {
                    name: d_ns,
                    price_usd: price,
                    affected: Vec::new(),
                    countries: BTreeSet::new(),
                });
                if !entry.affected.contains(&probe.domain) {
                    entry.affected.push(probe.domain.clone());
                }
                entry.countries.insert(country);
                parked_affected.insert(probe.domain.clone());
                parked_countries.insert(country);
            }
        }

        let mut per_country: Vec<(CountryCode, usize, usize)> =
            per_country.into_iter().map(|(c, (a, b))| (c, a, b)).collect();
        per_country.sort_by_key(|&(c, total, dis)| {
            (std::cmp::Reverse((dis * 10_000).checked_div(total.max(1)).unwrap_or(0)), c)
        });
        let parked: Vec<ParkedDanglingNs> = parked.into_values().collect();
        let parked_min_price =
            parked.iter().map(|p| p.price_usd).min_by(|a, b| a.partial_cmp(b).expect("finite"));

        ConsistencyAnalysis {
            comparable,
            by_class,
            equal_pct: stats::pct(equal, comparable),
            equal_pct_second_level: stats::pct(second.1, second.0),
            equal_pct_deeper: stats::pct(deeper.1, deeper.0),
            disagree_with_lame_pct: stats::pct(disagree_with_lame, disagree),
            per_country,
            parked_affected_domains: parked_affected.len(),
            parked_affected_countries: parked_countries.len(),
            parked,
            parked_min_price,
        }
    }

    /// Renders Fig 13.
    pub fn summary_table(&self) -> TextTable {
        let mut t = TextTable::new(["category", "domains", "share"]);
        for class in ConsistencyClass::all() {
            let n = self.by_class.get(class.label()).copied().unwrap_or(0);
            t.push_row([
                class.label().to_owned(),
                n.to_string(),
                fmt_pct(stats::pct(n, self.comparable)),
            ]);
        }
        t
    }

    /// Renders Fig 14: the countries with the highest disagreement rate.
    pub fn per_country_table(&self) -> TextTable {
        let mut t = TextTable::new(["country", "comparable", "disagreeing", "rate"]);
        for &(c, total, dis) in self.per_country.iter().take(20) {
            t.push_row([
                c.to_string(),
                total.to_string(),
                dis.to_string(),
                fmt_pct(stats::pct(dis, total)),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{dataset, n, CampaignFixture, ProbeBuilder};

    #[test]
    fn classify_covers_every_category() {
        // Equal.
        let p = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "ns2.x"])
            .child(&["ns2.x", "ns1.x"])
            .build();
        assert_eq!(classify(&p), Some(ConsistencyClass::Equal));
        // P ⊂ C.
        let p = ProbeBuilder::new("a.gov.zz").parent(&["ns1.x"]).child(&["ns1.x", "ns2.x"]).build();
        assert_eq!(classify(&p), Some(ConsistencyClass::PSubsetC));
        // C ⊂ P.
        let p = ProbeBuilder::new("a.gov.zz").parent(&["ns1.x", "ns2.x"]).child(&["ns1.x"]).build();
        assert_eq!(classify(&p), Some(ConsistencyClass::CSubsetP));
        // Partial overlap.
        let p = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "ns2.x"])
            .child(&["ns1.x", "ns3.x"])
            .build();
        assert_eq!(classify(&p), Some(ConsistencyClass::PartialOverlap));
        // Disjoint with shared addresses (alias hostnames).
        let p = ProbeBuilder::new("a.gov.zz")
            .parent(&["dns1.a.gov.zz"])
            .child(&["ns1.a.gov.zz"])
            .serving("dns1.a.gov.zz", [192, 0, 2, 1])
            .serving("ns1.a.gov.zz", [192, 0, 2, 1])
            .build();
        assert_eq!(classify(&p), Some(ConsistencyClass::DisjointIpOverlap));
        // Disjoint, different addresses.
        let p = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.old.example"])
            .child(&["ns1.new.example"])
            .serving("ns1.old.example", [192, 0, 2, 1])
            .serving("ns1.new.example", [198, 51, 100, 1])
            .build();
        assert_eq!(classify(&p), Some(ConsistencyClass::DisjointNoIp));
        // Unclassifiable: one side missing.
        let p = ProbeBuilder::new("a.gov.zz").parent(&["ns1.x"]).build();
        assert_eq!(classify(&p), None);
    }

    #[test]
    fn compute_aggregates_rates_and_levels() {
        let probes = vec![
            // Second-level (the apex itself): equal.
            (
                ProbeBuilder::new("gov.zz")
                    .parent(&["ns1.gov.zz"])
                    .child(&["ns1.gov.zz"])
                    .serving("ns1.gov.zz", [192, 0, 2, 1])
                    .build(),
                "zz",
            ),
            // Third-level equal.
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.x"])
                    .child(&["ns1.x"])
                    .serving("ns1.x", [192, 0, 2, 2])
                    .build(),
                "zz",
            ),
            // Third-level C ⊂ P with a dead leftover.
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.x", "ns9.x"])
                    .child(&["ns1.x"])
                    .serving("ns1.x", [192, 0, 2, 2])
                    .dead("ns9.x", [192, 0, 2, 9])
                    .build(),
                "zz",
            ),
            // Third-level partial overlap, all servers healthy.
            (
                ProbeBuilder::new("c.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns3.x"])
                    .serving("ns1.x", [192, 0, 2, 2])
                    .serving("ns2.x", [192, 0, 2, 3])
                    .serving("ns3.x", [192, 0, 2, 4])
                    .build(),
                "zz",
            ),
        ];
        let ds = dataset(probes);
        let fixture = CampaignFixture::default();
        let c = ConsistencyAnalysis::compute(&ds, &fixture.campaign());
        assert_eq!(c.comparable, 4);
        assert_eq!(c.by_class["P = C"], 2);
        assert_eq!(c.equal_pct, 50.0);
        assert_eq!(c.equal_pct_second_level, 100.0);
        assert!((c.equal_pct_deeper - 100.0 / 3.0).abs() < 0.1);
        // One of the two disagreeing domains has a defective server.
        assert_eq!(c.disagree_with_lame_pct, 50.0);
        assert_eq!(c.per_country.len(), 1);
        assert_eq!(c.per_country[0], (govdns_world::CountryCode::new("zz"), 4, 2));
    }

    #[test]
    fn parked_dangling_needs_responsive_symmetric_difference() {
        let mut fixture = CampaignFixture::default();
        fixture.registrar.mark_available(n("park1dns.com"), 450.0);
        let probes = vec![
            // Parent-extra host is responsive (parking) and registrable.
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.x", "ns1.park1dns.com"])
                    .child(&["ns1.x"])
                    .serving("ns1.x", [192, 0, 2, 2])
                    .serving("ns1.park1dns.com", [203, 0, 113, 1])
                    .build(),
                "zz",
            ),
            // Same registrable domain, but the host is dead — this is
            // §IV-C territory, not §IV-D.
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.x", "ns2.park1dns.com"])
                    .child(&["ns1.x"])
                    .serving("ns1.x", [192, 0, 2, 2])
                    .dead("ns2.park1dns.com", [203, 0, 113, 2])
                    .build(),
                "zz",
            ),
        ];
        let ds = dataset(probes);
        let c = ConsistencyAnalysis::compute(&ds, &fixture.campaign());
        assert_eq!(c.parked.len(), 1);
        assert_eq!(c.parked[0].affected, vec![n("a.gov.zz")]);
        assert_eq!(c.parked_affected_domains, 1);
        assert_eq!(c.parked_min_price, Some(450.0));
    }

    #[test]
    fn tables_render() {
        let ds = dataset(vec![(
            ProbeBuilder::new("a.gov.zz")
                .parent(&["ns1.x"])
                .child(&["ns1.x"])
                .serving("ns1.x", [192, 0, 2, 2])
                .build(),
            "zz",
        )]);
        let fixture = CampaignFixture::default();
        let c = ConsistencyAnalysis::compute(&ds, &fixture.campaign());
        let summary = c.summary_table().to_text();
        assert!(summary.contains("P = C"));
        assert!(c.per_country_table().to_text().contains("zz"));
    }
}
