//! §IV-A — nameserver replication: the decade of PDNS history (Figs 2,
//! 3, 4, 6, 7) and the active-measurement view (Figs 8, 9).

use std::collections::{BTreeMap, HashMap};

use govdns_model::{DomainName, Year};
use govdns_world::CountryCode;

use crate::analysis::longitudinal::{year_bits, year_mask, Longitudinal, YearIndex};
use crate::stats::{self, Cdf};
use crate::tables::{fmt_pct, TextTable};
use crate::MeasurementDataset;

/// Fig 2 + Fig 3: yearly PDNS totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct YearlyTotals {
    /// Per year: `(domains, countries, nameserver hostnames)`.
    pub rows: Vec<(Year, usize, usize, usize)>,
}

impl YearlyTotals {
    /// Computes the yearly totals over the *raw* PDNS data, as the paper
    /// presents Figs 2–3 (§III-B summarizes the data before the §III-C
    /// stability filtering; the 192.6k figure includes transient
    /// records).
    ///
    /// One borrowed NS scan per seed: each entry's overlap with the
    /// window becomes a year mask, ORed into per-name and per-host masks
    /// (so a name under nested seeds counts once) and into the seed
    /// country's mask.
    pub fn compute_raw(campaign: &crate::Campaign<'_>, seeds: &[crate::seed::SeedDomain]) -> Self {
        let mut domains: HashMap<&DomainName, u16> = HashMap::new();
        let mut hostnames: HashMap<&DomainName, u16> = HashMap::new();
        let mut countries: HashMap<CountryCode, u16> = HashMap::new();
        for seed in seeds {
            let mut seed_years = 0;
            for r in campaign.pdns.scan_subtree(&seed.name) {
                let Some(host) = r.rdata.as_ns() else { continue };
                let years = year_mask(r.first_seen, r.last_seen);
                *domains.entry(r.name).or_default() |= years;
                *hostnames.entry(host).or_default() |= years;
                seed_years |= years;
            }
            *countries.entry(seed.country).or_default() |= seed_years;
        }
        YearlyTotals::from_masks([
            domains.into_values().collect(),
            countries.into_values().collect(),
            hostnames.into_values().collect(),
        ])
    }

    /// Computes the yearly totals over the stability-filtered
    /// longitudinal index (the population the analyses run on).
    pub fn compute(lon: &Longitudinal) -> Self {
        let mut domains = Vec::new();
        let mut hostnames: HashMap<&DomainName, u16> = HashMap::new();
        let mut countries: HashMap<CountryCode, u16> = HashMap::new();
        for (h, ix) in lon.indexed() {
            domains.push(ix.active);
            *countries.entry(h.country).or_default() |= ix.active;
            for (e, &years) in h.ns_entries.iter().zip(&ix.ns) {
                if let Some(host) = e.rdata.as_ns() {
                    *hostnames.entry(host).or_default() |= years;
                }
            }
        }
        YearlyTotals::from_masks([
            domains,
            countries.into_values().collect(),
            hostnames.into_values().collect(),
        ])
    }

    /// One row per year from the domain, country and hostname year
    /// masks: how many of each hold the year.
    fn from_masks(masks: [Vec<u16>; 3]) -> Self {
        let active = |kind: usize, bit: u16| masks[kind].iter().filter(|&&m| m & bit != 0).count();
        let rows = year_bits()
            .map(|(year, bit)| (year, active(0, bit), active(1, bit), active(2, bit)))
            .collect();
        YearlyTotals { rows }
    }

    /// Domain count for a year.
    pub fn domains(&self, year: Year) -> usize {
        self.rows.iter().find(|r| r.0 == year).map_or(0, |r| r.1)
    }

    /// Nameserver-hostname count for a year.
    pub fn nameservers(&self, year: Year) -> usize {
        self.rows.iter().find(|r| r.0 == year).map_or(0, |r| r.3)
    }

    /// Renders Figs 2–3 as one table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["year", "domains", "countries", "nameservers"]);
        for &(y, d, c, ns) in &self.rows {
            t.push_row([y.to_string(), d.to_string(), c.to_string(), ns.to_string()]);
        }
        t
    }
}

/// Fig 4: domains per country in the 2020 PDNS data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomainsPerCountry {
    /// `(country, domains)` sorted descending.
    pub rows: Vec<(CountryCode, usize)>,
}

impl DomainsPerCountry {
    /// Computes Fig 4 for `year`.
    pub fn compute(lon: &Longitudinal, year: Year) -> Self {
        let mut map: BTreeMap<CountryCode, usize> = BTreeMap::new();
        for h in lon.active_in_year(year) {
            *map.entry(h.country).or_insert(0) += 1;
        }
        let mut rows: Vec<(CountryCode, usize)> = map.into_iter().collect();
        rows.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
        DomainsPerCountry { rows }
    }

    /// Renders the distribution.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["country", "domains"]);
        for (c, n) in &self.rows {
            t.push_row([c.to_string(), n.to_string()]);
        }
        t
    }
}

/// The per-year single-nameserver cohort and its churn (Fig 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SingleNsChurn {
    /// Per year: the count of `d_1NS` domains.
    pub d1ns_per_year: Vec<(Year, usize)>,
    /// Per year in 2012–2020: `(year, pct_new, pct_from_2011,
    /// pct_2011_cohort_gone)`.
    pub churn: Vec<(Year, f64, f64, f64)>,
}

impl SingleNsChurn {
    /// Identifies `d_1NS` cohorts per year and their overlap with the
    /// 2011 cohort.
    pub fn compute(lon: &Longitudinal) -> Self {
        let d1ns_per_year: Vec<(Year, usize)> =
            year_bits().map(|(year, bit)| (year, lon.count(bit, |ix| ix.single_ns))).collect();
        let base = d1ns_per_year[0].1;
        let churn = year_bits()
            .zip(&d1ns_per_year)
            .skip(1)
            .map(|((year, bit), &(_, cur))| {
                // New: single-NS now, not the year before.
                let new = lon.count(bit, |ix| ix.single_ns & !(ix.single_ns << 1));
                // Of the 2011 cohort: single-NS now, or no longer active.
                let cohort = |ix: &YearIndex| ix.single_ns & 1 != 0;
                let from_2011 = lon.count(bit, |ix| if cohort(ix) { ix.single_ns } else { 0 });
                let gone_2011 = lon.count(bit, |ix| if cohort(ix) { !ix.active } else { 0 });
                (
                    year,
                    stats::pct(new, cur),
                    stats::pct(from_2011, cur),
                    stats::pct(gone_2011, base),
                )
            })
            .collect();
        SingleNsChurn { d1ns_per_year, churn }
    }

    /// Renders Fig 6.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "year",
            "d1ns",
            "% new vs prev year",
            "% from 2011 cohort",
            "% of 2011 cohort gone",
        ]);
        for &(y, count) in &self.d1ns_per_year {
            let (pn, p11, g11) = self
                .churn
                .iter()
                .find(|c| c.0 == y)
                .map(|c| (fmt_pct(c.1), fmt_pct(c.2), fmt_pct(c.3)))
                .unwrap_or_else(|| ("-".into(), "-".into(), "-".into()));
            t.push_row([y.to_string(), count.to_string(), pn, p11, g11]);
        }
        t
    }
}

/// Fig 7: private-deployment share, `d_1NS` vs all domains, per year.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrivateShare {
    /// Per year: `(year, d1ns_private_pct, all_private_pct)`.
    pub rows: Vec<(Year, f64, f64)>,
}

impl PrivateShare {
    /// Computes Fig 7.
    pub fn compute(lon: &Longitudinal) -> Self {
        let rows = year_bits()
            .map(|(year, bit)| {
                let d1_private = lon.count(bit, |ix| ix.single_ns & ix.private);
                let all_private = lon.count(bit, |ix| ix.private);
                let (d1, all) = (lon.count(bit, |ix| ix.single_ns), lon.count(bit, |ix| ix.active));
                (year, stats::pct(d1_private, d1), stats::pct(all_private, all))
            })
            .collect();
        PrivateShare { rows }
    }

    /// Renders Fig 7.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["year", "d1ns private", "all domains private"]);
        for &(y, d1, all) in &self.rows {
            t.push_row([y.to_string(), fmt_pct(d1), fmt_pct(all)]);
        }
        t
    }
}

/// The active-measurement replication view (Figs 8 and 9 plus the §IV-A
/// headline shares).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveReplication {
    /// CDF of the number of nameservers (`|P ∪ C|`) per responsive
    /// domain (Fig 9).
    pub ns_count_cdf: Cdf,
    /// Share of responsive domains with ≥ 2 nameservers.
    pub multi_ns_share: f64,
    /// Responsive single-NS domains.
    pub d1ns_total: usize,
    /// Of those, the share with no authoritative response (Fig 8's
    /// 60.1% headline).
    pub d1ns_stale_share: f64,
    /// Per `d_gov`: `(seed, d1ns, d1ns without any authoritative
    /// response)` for seeds with at least one `d_1NS` (Fig 8).
    pub d1ns_stale_by_seed: Vec<(DomainName, usize, usize)>,
    /// Countries where ≥ 10% of responsive domains are single-NS.
    pub high_d1ns_countries: Vec<(CountryCode, usize, usize)>,
    /// Countries where no responsive domain has fewer than 2 NS.
    pub all_replicated_countries: usize,
    /// Responsive domains that answered only degradedly (backoff retries
    /// or a second round) — the replication picture for these is shakier
    /// than the NS counts alone suggest.
    pub degraded_total: usize,
    /// Of the degraded domains, how many are single-NS: flakiness with
    /// no replica to absorb it.
    pub degraded_d1ns: usize,
}

impl ActiveReplication {
    /// Computes the active view over responsive (non-empty-parent)
    /// domains.
    pub fn compute(ds: &MeasurementDataset) -> Self {
        let mut counts: Vec<f64> = Vec::new();
        let mut d1ns_total = 0usize;
        let mut d1ns_stale = 0usize;
        let mut by_seed: BTreeMap<DomainName, (usize, usize)> = BTreeMap::new();
        let mut per_country: BTreeMap<CountryCode, (usize, usize)> = BTreeMap::new();
        let mut degraded_total = 0usize;
        let mut degraded_d1ns = 0usize;

        for (i, probe) in ds.probes.iter().enumerate() {
            if !probe.parent_nonempty() {
                continue;
            }
            let n = probe.ns_union().len();
            counts.push(n as f64);
            if probe.degraded() {
                degraded_total += 1;
                if n == 1 {
                    degraded_d1ns += 1;
                }
            }
            let country = ds.country_of(i);
            let slot = per_country.entry(country).or_insert((0, 0));
            slot.0 += 1;
            if n == 1 {
                slot.1 += 1;
                d1ns_total += 1;
                let seed = ds.seed_of(i).clone();
                let s = by_seed.entry(seed).or_insert((0, 0));
                s.0 += 1;
                if !probe.has_authoritative_answer() {
                    d1ns_stale += 1;
                    s.1 += 1;
                }
            }
        }

        let multi = counts.iter().filter(|&&c| c >= 2.0).count();
        let multi_ns_share = stats::pct(multi, counts.len());
        let mut d1ns_stale_by_seed: Vec<(DomainName, usize, usize)> =
            by_seed.into_iter().map(|(s, (a, b))| (s, a, b)).collect();
        d1ns_stale_by_seed.sort_by_key(|&(_, a, _)| std::cmp::Reverse(a));
        let high_d1ns_countries: Vec<(CountryCode, usize, usize)> = per_country
            .iter()
            .filter(|(_, &(total, d1))| total > 0 && d1 * 10 >= total && d1 > 0)
            .map(|(&c, &(total, d1))| (c, total, d1))
            .collect();
        let all_replicated_countries =
            per_country.values().filter(|&&(total, d1)| total > 0 && d1 == 0).count();

        ActiveReplication {
            ns_count_cdf: Cdf::new(counts),
            multi_ns_share,
            d1ns_total,
            d1ns_stale_share: stats::pct(d1ns_stale, d1ns_total),
            d1ns_stale_by_seed,
            high_d1ns_countries,
            all_replicated_countries,
            degraded_total,
            degraded_d1ns,
        }
    }

    /// Renders Fig 9 as cumulative shares at 1..=6 nameservers.
    pub fn cdf_table(&self) -> TextTable {
        let mut t = TextTable::new(["nameservers <=", "share of domains"]);
        for k in 1..=6 {
            t.push_row([k.to_string(), fmt_pct(100.0 * self.ns_count_cdf.at(k as f64))]);
        }
        t
    }

    /// Renders Fig 8 (top 15 seeds by `d_1NS` count).
    pub fn stale_table(&self) -> TextTable {
        let mut t = TextTable::new(["d_gov", "d1ns", "no auth response", "share"]);
        for (seed, total, stale) in self.d1ns_stale_by_seed.iter().take(15) {
            t.push_row([
                seed.to_string(),
                total.to_string(),
                stale.to_string(),
                fmt_pct(stats::pct(*stale, *total)),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::longitudinal::DomainHistory;
    use crate::analysis::testutil::{
        dataset, drawn_histories, history, longitudinal, n, ns_entry, owner, rdata, span, year,
        CampaignFixture, ProbeBuilder,
    };
    use crate::seed::{SeedDomain, SeedKind, SeedProvenance};
    use crate::Campaign;
    use govdns_model::{DateRange, RecordType};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The ten-scan `compute_raw`: one windowed NS search per seed per
    /// year. The masked single pass must reproduce it exactly.
    fn compute_raw_oracle(campaign: &Campaign<'_>, seeds: &[SeedDomain]) -> YearlyTotals {
        let rows = Longitudinal::years()
            .map(|year| {
                let window = DateRange::year(year);
                let mut domains: BTreeSet<DomainName> = BTreeSet::new();
                let mut countries: BTreeSet<CountryCode> = BTreeSet::new();
                let mut hostnames: BTreeSet<DomainName> = BTreeSet::new();
                for seed in seeds {
                    for e in
                        campaign.pdns.search_subtree_in(&seed.name, window, Some(RecordType::Ns))
                    {
                        if let Some(host) = e.rdata.as_ns() {
                            hostnames.insert(host.clone());
                        }
                        domains.insert(e.name);
                        countries.insert(seed.country);
                    }
                }
                (year, domains.len(), countries.len(), hostnames.len())
            })
            .collect();
        YearlyTotals { rows }
    }

    /// The per-year rescans the year index replaced: Figs 2–3, 4, 6 and 7
    /// as they were computed before it, one pass over the entries per
    /// year. The indexed stages must reproduce them exactly.
    mod rescan {
        use super::*;

        pub(super) fn yearly(lon: &Longitudinal) -> YearlyTotals {
            let rows = Longitudinal::years()
                .map(|year| {
                    let window = DateRange::year(year);
                    let mut domains = 0usize;
                    let mut countries: BTreeSet<CountryCode> = BTreeSet::new();
                    let mut hostnames: BTreeSet<&DomainName> = BTreeSet::new();
                    for h in active_in_year(lon, year) {
                        domains += 1;
                        countries.insert(h.country);
                        hostnames.extend(h.ns_hosts_in(&window));
                    }
                    (year, domains, countries.len(), hostnames.len())
                })
                .collect();
            YearlyTotals { rows }
        }

        pub(super) fn per_country(lon: &Longitudinal, year: Year) -> DomainsPerCountry {
            let mut map: BTreeMap<CountryCode, usize> = BTreeMap::new();
            for h in active_in_year(lon, year) {
                *map.entry(h.country).or_insert(0) += 1;
            }
            let mut rows: Vec<(CountryCode, usize)> = map.into_iter().collect();
            rows.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
            DomainsPerCountry { rows }
        }

        pub(super) fn churn(lon: &Longitudinal) -> SingleNsChurn {
            let cohorts: Vec<(Year, BTreeSet<&DomainName>)> = Longitudinal::years()
                .map(|year| {
                    let set = active_in_year(lon, year)
                        .filter(|h| h.ns_mode(year) == Some(1))
                        .map(|h| &h.name)
                        .collect();
                    (year, set)
                })
                .collect();
            let d1ns_per_year = cohorts.iter().map(|(y, s)| (*y, s.len())).collect();
            let base = &cohorts[0].1;
            let mut churn = Vec::new();
            for w in cohorts.windows(2) {
                let (_, prev) = &w[0];
                let (year, cur) = &w[1];
                let new = cur.difference(prev).count();
                let from_2011 = cur.intersection(base).count();
                let active_names: BTreeSet<&DomainName> =
                    active_in_year(lon, *year).map(|h| &h.name).collect();
                let gone_2011 = base.iter().filter(|n| !active_names.contains(*n)).count();
                churn.push((
                    *year,
                    stats::pct(new, cur.len()),
                    stats::pct(from_2011, cur.len()),
                    stats::pct(gone_2011, base.len()),
                ));
            }
            SingleNsChurn { d1ns_per_year, churn }
        }

        pub(super) fn private_share(lon: &Longitudinal) -> PrivateShare {
            let rows = Longitudinal::years()
                .map(|year| {
                    let window = DateRange::year(year);
                    let (mut all, mut all_private, mut d1, mut d1_private) = (0, 0, 0, 0);
                    for h in active_in_year(lon, year) {
                        all += 1;
                        let private = h.private_in(&window);
                        all_private += usize::from(private);
                        if h.ns_mode(year) == Some(1) {
                            d1 += 1;
                            d1_private += usize::from(private);
                        }
                    }
                    (year, stats::pct(d1_private, d1), stats::pct(all_private, all))
                })
                .collect();
            PrivateShare { rows }
        }

        fn active_in_year(lon: &Longitudinal, year: Year) -> impl Iterator<Item = &DomainHistory> {
            let window = DateRange::year(year);
            lon.histories().iter().filter(move |h| h.active_in(&window))
        }
    }

    proptest! {
        #[test]
        fn indexed_stages_match_the_per_year_rescans(histories in drawn_histories()) {
            let lon = Longitudinal::new(histories);
            prop_assert_eq!(YearlyTotals::compute(&lon), rescan::yearly(&lon));
            for year in Longitudinal::years() {
                prop_assert_eq!(
                    DomainsPerCountry::compute(&lon, year),
                    rescan::per_country(&lon, year)
                );
            }
            prop_assert_eq!(SingleNsChurn::compute(&lon), rescan::churn(&lon));
            prop_assert_eq!(PrivateShare::compute(&lon), rescan::private_share(&lon));
        }
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

    proptest! {
        #[test]
        fn compute_raw_matches_the_ten_scan_oracle(
            records in prop::collection::vec((owner(), rdata(), span(), 1u64..5), 0..40),
            nested_first in any::<bool>(),
        ) {
            let mut f = CampaignFixture::default();
            for (name, rdata, span, count) in records {
                f.pdns.observe_span(name, rdata, span, count);
            }
            // Nested seeds with different countries, in either order.
            let mut seeds = vec![seed("gov.zz", "zz"), seed("city.gov.zz", "yy")];
            if nested_first {
                seeds.reverse();
            }
            let campaign = f.campaign();
            prop_assert_eq!(
                YearlyTotals::compute_raw(&campaign, &seeds).rows,
                compute_raw_oracle(&campaign, &seeds).rows
            );
        }
    }

    fn demo_longitudinal() -> Longitudinal {
        longitudinal(vec![
            // Replicated all decade, private.
            history(
                "a.gov.zz",
                "zz",
                vec![
                    ns_entry("a.gov.zz", "ns1.a.gov.zz", (2011, 1, 1), (2020, 12, 31)),
                    ns_entry("a.gov.zz", "ns2.a.gov.zz", (2011, 1, 1), (2020, 12, 31)),
                ],
            ),
            // Single-NS 2011-2015, provider-hosted.
            history(
                "b.gov.zz",
                "zz",
                vec![ns_entry("b.gov.zz", "ns1.prov.example", (2011, 1, 1), (2015, 6, 1))],
            ),
            // Single-NS appearing in 2016 (new cohort member).
            history(
                "c.gov.zz",
                "zz",
                vec![ns_entry("c.gov.zz", "ns9.c.gov.zz", (2016, 2, 1), (2020, 12, 31))],
            ),
            // Another country, replicated, appears 2014.
            history(
                "d.gov.yy",
                "yy",
                vec![
                    ns_entry("d.gov.yy", "ns1.x.example", (2014, 1, 1), (2020, 12, 31)),
                    ns_entry("d.gov.yy", "ns2.x.example", (2014, 1, 1), (2020, 12, 31)),
                ],
            ),
        ])
    }

    #[test]
    fn yearly_totals_count_domains_countries_hosts() {
        let y = YearlyTotals::compute(&demo_longitudinal());
        assert_eq!(y.domains(2011), 2);
        assert_eq!(y.domains(2014), 3);
        assert_eq!(y.domains(2020), 3); // b is gone by 2016
        let (_, _, countries_2014, _) = y.rows[3];
        assert_eq!(countries_2014, 2);
        assert_eq!(y.nameservers(2011), 3);
        assert_eq!(y.nameservers(2020), 5);
        assert!(y.table().to_text().contains("2020"));
    }

    #[test]
    fn domains_per_country_sorts_descending() {
        let d = DomainsPerCountry::compute(&demo_longitudinal(), 2020);
        assert_eq!(d.rows[0].1, 2); // zz: a + c
        assert_eq!(d.rows[1].1, 1); // yy: d
        assert!(d.table().to_csv().contains("zz"));
    }

    #[test]
    fn churn_tracks_cohorts() {
        let c = SingleNsChurn::compute(&demo_longitudinal());
        // 2011 cohort: {b}. 2016 cohort: {c} (b died, c new).
        let d1_2011 = c.d1ns_per_year.iter().find(|r| r.0 == 2011).unwrap().1;
        let d1_2016 = c.d1ns_per_year.iter().find(|r| r.0 == 2016).unwrap().1;
        assert_eq!(d1_2011, 1);
        assert_eq!(d1_2016, 1);
        let (_, pct_new, pct_2011, pct_gone) = *c.churn.iter().find(|r| r.0 == 2016).unwrap();
        assert_eq!(pct_new, 100.0);
        assert_eq!(pct_2011, 0.0);
        assert_eq!(pct_gone, 100.0, "b is inactive by 2016");
        assert!(c.table().to_text().contains("2016"));
    }

    #[test]
    fn private_share_separates_populations() {
        let p = PrivateShare::compute(&demo_longitudinal());
        // 2011: d1NS = {b} (provider) → 0% private; all = {a (private), b}
        // → 50%.
        let (_, d1_2011, all_2011) = p.rows[0];
        assert_eq!(d1_2011, 0.0);
        assert_eq!(all_2011, 50.0);
        // 2016+: d1NS = {c} (own host under gov.zz... c's host is
        // ns9.c.gov.zz, within the seed) → 100% private.
        let (_, d1_2016, _) = p.rows[5];
        assert_eq!(d1_2016, 100.0);
        assert!(p.table().to_text().contains("2016"));
    }

    #[test]
    fn ns_daily_mode_via_history() {
        let h = history(
            "m.gov.zz",
            "zz",
            vec![
                ns_entry("m.gov.zz", "ns1.m.gov.zz", (2015, 1, 1), (2015, 12, 31)),
                ns_entry("m.gov.zz", "ns2.m.gov.zz", (2015, 8, 1), (2015, 12, 31)),
            ],
        );
        // 7 months at 1 NS vs 5 at 2 NS → mode 1.
        assert_eq!(h.ns_mode(2015), Some(1));
        assert_eq!(h.ns_mode(2012), None);
        assert!(h.active_in(&year(2015)));
        assert!(!h.active_in(&year(2012)));
    }

    #[test]
    fn active_replication_counts_and_stale() {
        let ds = dataset(vec![
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [192, 0, 2, 2])
                    .build(),
                "zz",
            ),
            // Live single-NS, but only after retries: degraded.
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.b.gov.zz"])
                    .child(&["ns1.b.gov.zz"])
                    .degraded_serving("ns1.b.gov.zz", [192, 0, 2, 3])
                    .build(),
                "zz",
            ),
            // Stale single-NS.
            (
                ProbeBuilder::new("c.gov.zz")
                    .parent(&["ns1.c.gov.zz"])
                    .dead("ns1.c.gov.zz", [192, 0, 2, 4])
                    .build(),
                "zz",
            ),
            // Healthy pair in another country.
            (
                ProbeBuilder::new("d.gov.yy")
                    .parent(&["ns1.y", "ns2.y"])
                    .child(&["ns1.y", "ns2.y"])
                    .serving("ns1.y", [192, 0, 2, 5])
                    .serving("ns2.y", [192, 0, 2, 6])
                    .build(),
                "yy",
            ),
        ]);
        let ar = ActiveReplication::compute(&ds);
        assert_eq!(ar.d1ns_total, 2);
        assert_eq!(ar.d1ns_stale_share, 50.0);
        assert_eq!(ar.multi_ns_share, 50.0);
        assert_eq!(ar.ns_count_cdf.len(), 4);
        // zz has 3 domains of which 2 single → ≥10% list.
        assert_eq!(ar.high_d1ns_countries.len(), 1);
        assert_eq!(ar.high_d1ns_countries[0].0, govdns_world::CountryCode::new("zz"));
        // yy has no single-NS domain.
        assert_eq!(ar.all_replicated_countries, 1);
        // b.gov.zz answered only after retries and has no replica.
        assert_eq!(ar.degraded_total, 1);
        assert_eq!(ar.degraded_d1ns, 1);
        assert!(ar.cdf_table().to_text().contains("share"));
        assert!(ar.stale_table().to_text().contains("gov.zz"));
        let _ = n("x");
    }
}
