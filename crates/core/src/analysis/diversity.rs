//! §IV-A — topological diversity of nameserver placement (Table I):
//! for multi-NS domains, how many resolve to more than one address, more
//! than one /24, and more than one autonomous system.

use std::collections::{BTreeMap, BTreeSet};

use govdns_simnet::prefix24;
use govdns_world::CountryCode;

use crate::stats;
use crate::tables::{fmt_pct, TextTable};
use crate::{Campaign, MeasurementDataset};

/// One Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityRow {
    /// Country code, or `None` for the all-country aggregate.
    pub country: Option<CountryCode>,
    /// Multi-NS domains considered.
    pub domains: usize,
    /// Share with more than one IPv4 address.
    pub multi_ip_pct: f64,
    /// Share with more than one /24 prefix.
    pub multi_24_pct: f64,
    /// Share with more than one ASN.
    pub multi_asn_pct: f64,
}

/// Table I: the aggregate row plus the ten countries with the most
/// multi-NS domains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiversityTable {
    /// Aggregate first, then the top ten countries.
    pub rows: Vec<DiversityRow>,
    /// Share of multi-/24 domains among second-level domains.
    pub second_level_multi_24_pct: f64,
    /// Share of multi-/24 domains among deeper domains.
    pub deeper_multi_24_pct: f64,
}

#[derive(Default, Clone, Copy)]
struct Acc {
    domains: usize,
    multi_ip: usize,
    multi_24: usize,
    multi_asn: usize,
}

impl Acc {
    fn add(&mut self, ip: bool, p24: bool, asn: bool) {
        self.domains += 1;
        self.multi_ip += usize::from(ip);
        self.multi_24 += usize::from(p24);
        self.multi_asn += usize::from(asn);
    }

    fn row(&self, country: Option<CountryCode>) -> DiversityRow {
        DiversityRow {
            country,
            domains: self.domains,
            multi_ip_pct: stats::pct(self.multi_ip, self.domains),
            multi_24_pct: stats::pct(self.multi_24, self.domains),
            multi_asn_pct: stats::pct(self.multi_asn, self.domains),
        }
    }
}

impl DiversityTable {
    /// Computes Table I over responsive domains with at least two
    /// nameservers, resolving placement through the campaign's ASN
    /// database.
    pub fn compute(ds: &MeasurementDataset, campaign: &Campaign<'_>) -> Self {
        let mut total = Acc::default();
        let mut per_country: BTreeMap<CountryCode, Acc> = BTreeMap::new();
        let mut second = Acc::default();
        let mut deeper = Acc::default();

        for (i, probe) in ds.probes.iter().enumerate() {
            if !probe.parent_nonempty() || probe.ns_union().len() < 2 {
                continue;
            }
            let addrs = probe.ns_addrs();
            if addrs.is_empty() {
                continue;
            }
            let prefixes: BTreeSet<_> = addrs.iter().map(|&a| prefix24(a)).collect();
            let asns: BTreeSet<_> =
                addrs.iter().filter_map(|&a| campaign.asn_db.lookup(a)).collect();
            let (ip, p24, asn) = (addrs.len() > 1, prefixes.len() > 1, asns.len() > 1);
            total.add(ip, p24, asn);
            per_country.entry(ds.country_of(i)).or_default().add(ip, p24, asn);
            if probe.domain.level() == 2 {
                second.add(ip, p24, asn);
            } else {
                deeper.add(ip, p24, asn);
            }
        }

        let mut ranked: Vec<(CountryCode, Acc)> = per_country.into_iter().collect();
        ranked.sort_by_key(|&(c, acc)| (std::cmp::Reverse(acc.domains), c));
        let mut rows = vec![total.row(None)];
        rows.extend(ranked.into_iter().take(10).map(|(c, acc)| acc.row(Some(c))));

        DiversityTable {
            rows,
            second_level_multi_24_pct: stats::pct(second.multi_24, second.domains),
            deeper_multi_24_pct: stats::pct(deeper.multi_24, deeper.domains),
        }
    }

    /// The aggregate row.
    pub fn total(&self) -> &DiversityRow {
        &self.rows[0]
    }

    /// Renders Table I.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["country", "domains", "|IP|>1", "|/24|>1", "|ASN|>1"]);
        for r in &self.rows {
            t.push_row([
                r.country.map_or_else(|| "total".to_owned(), |c| c.to_string()),
                r.domains.to_string(),
                fmt_pct(r.multi_ip_pct),
                fmt_pct(r.multi_24_pct),
                fmt_pct(r.multi_asn_pct),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{dataset, CampaignFixture, ProbeBuilder};

    fn fixture_with_asns() -> CampaignFixture {
        let mut f = CampaignFixture::default();
        f.asn_db.allocate("192.0.2.0".parse().unwrap(), "192.0.2.255".parse().unwrap(), 100);
        f.asn_db.allocate("198.51.100.0".parse().unwrap(), "198.51.100.255".parse().unwrap(), 200);
        f.asn_db.allocate("203.0.113.0".parse().unwrap(), "203.0.113.255".parse().unwrap(), 100);
        f
    }

    #[test]
    fn classifies_each_diversity_tier() {
        let probes = vec![
            // Same address twice.
            (
                ProbeBuilder::new("sameip.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [192, 0, 2, 1])
                    .build(),
                "zz",
            ),
            // Same /24, two addresses.
            (
                ProbeBuilder::new("same24.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [192, 0, 2, 2])
                    .build(),
                "zz",
            ),
            // Two /24s, one AS (192.0.2 and 203.0.113 are both AS 100).
            (
                ProbeBuilder::new("multi24.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [203, 0, 113, 1])
                    .build(),
                "zz",
            ),
            // Two ASes.
            (
                ProbeBuilder::new("multias.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [198, 51, 100, 1])
                    .build(),
                "zz",
            ),
            // Single-NS: excluded from Table I.
            (
                ProbeBuilder::new("single.gov.zz")
                    .parent(&["ns1.x"])
                    .child(&["ns1.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .build(),
                "zz",
            ),
        ];
        let ds = dataset(probes);
        let f = fixture_with_asns();
        let t = DiversityTable::compute(&ds, &f.campaign());
        let total = t.total();
        assert_eq!(total.domains, 4);
        assert_eq!(total.multi_ip_pct, 75.0);
        assert_eq!(total.multi_24_pct, 50.0);
        assert_eq!(total.multi_asn_pct, 25.0);
        // Monotonicity ip ≥ 24 ≥ asn.
        assert!(total.multi_ip_pct >= total.multi_24_pct);
        assert!(total.multi_24_pct >= total.multi_asn_pct);
    }

    #[test]
    fn per_country_rows_and_render() {
        let probes = vec![
            (
                ProbeBuilder::new("a.gov.aa")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [198, 51, 100, 1])
                    .build(),
                "aa",
            ),
            (
                ProbeBuilder::new("b.gov.bb")
                    .parent(&["ns1.y", "ns2.y"])
                    .child(&["ns1.y", "ns2.y"])
                    .serving("ns1.y", [192, 0, 2, 3])
                    .serving("ns2.y", [192, 0, 2, 4])
                    .build(),
                "bb",
            ),
        ];
        let ds = dataset(probes);
        let f = fixture_with_asns();
        let t = DiversityTable::compute(&ds, &f.campaign());
        assert_eq!(t.rows.len(), 3); // total + 2 countries
        let text = t.table().to_text();
        assert!(text.contains("total") && text.contains("aa") && text.contains("bb"));
    }
}
