//! The shared longitudinal view: per-domain PDNS NS histories, built once
//! from the seeds and reused by the replication and provider analyses.

use std::collections::BTreeMap;

use govdns_model::{DateRange, DomainName, RecordType, SimDate, Year};
use govdns_pdns::{PdnsEntry, PdnsRef};
use govdns_world::CountryCode;

use crate::discovery::{seed_entries, ById};
use crate::seed::SeedDomain;
use crate::stats;
use crate::Campaign;

/// First year of the longitudinal window.
pub const FIRST_YEAR: Year = 2011;
/// Last year of the longitudinal window.
pub const LAST_YEAR: Year = 2020;

/// The years of the longitudinal window that `[first, last]` overlaps,
/// as a bit mask: bit `i` stands for `FIRST_YEAR + i`.
pub(crate) fn year_mask(first: SimDate, last: SimDate) -> u16 {
    let lo = first.year().max(FIRST_YEAR);
    let hi = last.year().min(LAST_YEAR);
    (lo..=hi).fold(0, |mask, y| mask | year_bit(y))
}

/// The years of the window that `[first, last]` covers from January 1
/// to December 31, as a year mask.
fn whole_year_mask(first: SimDate, last: SimDate) -> u16 {
    let (lo, hi) = (first.year(), last.year());
    let lo = if first == SimDate::year_start(lo) { lo } else { lo + 1 };
    let hi = if last == SimDate::year_end(hi) { hi } else { hi - 1 };
    (lo.max(FIRST_YEAR)..=hi.min(LAST_YEAR)).fold(0, |mask, y| mask | year_bit(y))
}

/// `year`'s bit in a year mask; 0 outside the window.
fn year_bit(year: Year) -> u16 {
    if (FIRST_YEAR..=LAST_YEAR).contains(&year) {
        1 << (year - FIRST_YEAR)
    } else {
        0
    }
}

/// The years of the window with their bits, in order.
pub(crate) fn year_bits() -> impl Iterator<Item = (Year, u16)> {
    Longitudinal::years().map(|year| (year, year_bit(year)))
}

/// One domain's NS record history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainHistory {
    /// The domain.
    pub name: DomainName,
    /// The country of the matching seed.
    pub country: CountryCode,
    /// The seed it fell under.
    pub seed: DomainName,
    /// Stable NS entries (post-filter) for this owner name.
    pub ns_entries: Vec<PdnsEntry>,
    /// Stable SOA entries for this owner name (MNAME/RNAME evidence).
    pub soa_entries: Vec<PdnsEntry>,
}

/// One history's row of the year index: its per-year facts over the
/// window, as year masks (see [`year_mask`]). Built once, when the
/// history joins a [`Longitudinal`], which never hands it out mutably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct YearIndex {
    /// Each NS entry's years, in `ns_entries` order.
    pub ns: Vec<u16>,
    /// Each SOA entry's years, in `soa_entries` order.
    pub soa: Vec<u16>,
    /// Years with any NS entry active.
    pub active: u16,
    /// Years whose active NS hosts all lie within the seed (the paper's
    /// lower bound on *private* deployment).
    pub private: u16,
    /// Years whose daily NS mode is 1 (the `d_1NS` cohorts, Fig 6).
    pub single_ns: u16,
}

impl YearIndex {
    fn new(h: &DomainHistory) -> Self {
        let masks = |entries: &[PdnsEntry]| -> Vec<u16> {
            entries.iter().map(|e| year_mask(e.first_seen, e.last_seen)).collect()
        };
        let (ns, soa) = (masks(&h.ns_entries), masks(&h.soa_entries));
        let (mut active, mut hosted, mut outside) = (0, 0, 0);
        // Years two or more NS spans meet, and years some span meets
        // without covering the whole year.
        let (mut shared, mut partial) = (0, 0);
        for (e, &years) in h.ns_entries.iter().zip(&ns) {
            shared |= active & years;
            active |= years;
            partial |= years & !whole_year_mask(e.first_seen, e.last_seen);
            if let Some(host) = e.rdata.as_ns() {
                hosted |= years;
                if !host.is_within(&h.seed) {
                    outside |= years;
                }
            }
        }
        // The Fig-5 mode per active year. Two cases need no sweep: a year
        // one span meets has mode 1 (every active day counts 1), and a
        // year two or more spans meet, each covering it whole, has not
        // (every day counts at least 2). Only the other years are swept.
        let mut single_ns = active & !shared;
        let swept = shared & partial;
        if swept != 0 {
            let spans: Vec<DateRange> = h.ns_entries.iter().map(PdnsEntry::span).collect();
            for (year, bit) in year_bits().filter(|&(_, bit)| swept & bit != 0) {
                if stats::ns_daily_mode(&spans, DateRange::year(year)) == Some(1) {
                    single_ns |= bit;
                }
            }
        }
        YearIndex { ns, soa, active, private: hosted & !outside, single_ns }
    }
}

/// The longitudinal dataset: every domain history under every seed, and
/// each history's year index.
#[derive(Debug, Clone)]
pub struct Longitudinal {
    /// Domain histories, sorted by name.
    histories: Vec<DomainHistory>,
    /// One row per history, in the same order.
    index: Vec<YearIndex>,
}

impl Longitudinal {
    /// Builds the view from the PDNS database: full 2011–2020 wildcard
    /// searches (no recency restriction), the stability filter, and the
    /// earliest-government-use clamp. Entries group by owner id, in scan
    /// order, and the histories are sorted by name once at the end.
    pub fn build(campaign: &Campaign<'_>, seeds: &[SeedDomain]) -> Self {
        let mut by_id = ById::new(campaign);
        for seed in seeds {
            let ns_or_soa = |r: &PdnsRef<'_>| matches!(r.rtype(), RecordType::Ns | RecordType::Soa);
            for (id, e) in seed_entries(campaign, seed, ns_or_soa) {
                let slot = by_id.entry(id, || DomainHistory {
                    name: e.name.clone(),
                    country: seed.country,
                    seed: seed.name.clone(),
                    ns_entries: Vec::new(),
                    soa_entries: Vec::new(),
                });
                // Longest-seed-wins on contested names.
                if seed.name.level() > slot.seed.level() {
                    slot.seed = seed.name.clone();
                    slot.country = seed.country;
                }
                if e.rtype() == RecordType::Soa {
                    slot.soa_entries.push(e);
                } else {
                    slot.ns_entries.push(e);
                }
            }
        }
        let mut histories = by_id.into_items();
        // Drop SOA-only names: a domain is studied for its NS records.
        histories.retain(|h| !h.ns_entries.is_empty());
        histories.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        Longitudinal::new(histories)
    }

    /// Indexes `histories`, which must have distinct names (as `build`
    /// yields them): the analyses count a domain once per history.
    pub fn new(histories: Vec<DomainHistory>) -> Self {
        let index = histories.iter().map(YearIndex::new).collect();
        Longitudinal { histories, index }
    }

    /// The domain histories, sorted by name.
    pub fn histories(&self) -> &[DomainHistory] {
        &self.histories
    }

    /// Each history with its year index.
    pub(crate) fn indexed(&self) -> impl Iterator<Item = (&DomainHistory, &YearIndex)> {
        self.histories.iter().zip(&self.index)
    }

    /// How many histories hold `bit` in the mask `years` picks.
    pub(crate) fn count(&self, bit: u16, years: impl Fn(&YearIndex) -> u16) -> usize {
        self.index.iter().filter(|ix| years(ix) & bit != 0).count()
    }

    /// The years covered.
    pub fn years() -> impl Iterator<Item = Year> {
        FIRST_YEAR..=LAST_YEAR
    }

    /// Histories active in a given year of the window (none outside it).
    pub fn active_in_year(&self, year: Year) -> impl Iterator<Item = &DomainHistory> {
        let bit = year_bit(year);
        self.indexed().filter(move |(_, ix)| ix.active & bit != 0).map(|(h, _)| h)
    }

    /// Per-country record counts (used for the "top 10 countries by
    /// records" grouping rule of Tables II–III).
    pub fn record_counts_by_country(&self) -> BTreeMap<CountryCode, u64> {
        let mut map = BTreeMap::new();
        for h in &self.histories {
            let records: u64 = h.ns_entries.iter().map(|e| e.count).sum();
            *map.entry(h.country).or_insert(0) += records;
        }
        map
    }

    /// The ten countries with the most records, descending.
    pub fn top10_countries(&self) -> Vec<CountryCode> {
        let mut counts: Vec<(CountryCode, u64)> =
            self.record_counts_by_country().into_iter().collect();
        counts.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
        counts.into_iter().take(10).map(|(c, _)| c).collect()
    }
}

/// The per-year helpers the year index replaced, kept as the reference
/// it is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    impl DomainHistory {
        /// Whether any NS record was active during `window`.
        pub fn active_in(&self, window: &DateRange) -> bool {
            self.ns_entries.iter().any(|e| e.active_in(window))
        }

        /// The paper's per-year deployment size: the mode of the daily count
        /// of simultaneously active NS records (Fig 5), or `None` if the
        /// domain was inactive that year.
        pub fn ns_mode(&self, year: Year) -> Option<usize> {
            let spans: Vec<DateRange> = self.ns_entries.iter().map(|e| e.span()).collect();
            stats::ns_daily_mode(&spans, DateRange::year(year))
        }

        /// NS target hostnames active during `window`.
        pub fn ns_hosts_in(&self, window: &DateRange) -> Vec<&DomainName> {
            self.ns_entries
                .iter()
                .filter(|e| e.active_in(window))
                .filter_map(|e| e.rdata.as_ns())
                .collect()
        }

        /// Whether the deployment in `window` is *private*: every active NS
        /// hostname lies within the domain's own `d_gov` (a lower bound, as
        /// in the paper).
        pub fn private_in(&self, window: &DateRange) -> bool {
            let hosts = self.ns_hosts_in(window);
            !hosts.is_empty() && hosts.iter().all(|h| h.is_within(&self.seed))
        }

        /// SOA MNAME/RNAME pairs observed during `window`.
        pub fn soa_names_in(&self, window: &DateRange) -> Vec<(&DomainName, &DomainName)> {
            self.soa_entries
                .iter()
                .filter(|e| e.active_in(window))
                .filter_map(|e| e.rdata.as_soa().map(|soa| (&soa.mname, &soa.rname)))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{drawn_histories, drawn_records, drawn_seeds, CampaignFixture};
    use govdns_pdns::filter;
    use proptest::prelude::*;

    /// The name-keyed `build` the id-keyed one replaced: entries grouped
    /// in a `BTreeMap` by owner name. `build` must reproduce it exactly.
    fn build_by_name(campaign: &Campaign<'_>, seeds: &[SeedDomain]) -> Longitudinal {
        let mut by_name: BTreeMap<DomainName, DomainHistory> = BTreeMap::new();
        for seed in seeds {
            let entries = campaign
                .pdns
                .scan_subtree(&seed.name)
                .filter(|r| matches!(r.rtype(), RecordType::Ns | RecordType::Soa))
                .map(PdnsRef::to_entry);
            let entries = filter::stable(entries);
            let entries: Vec<PdnsEntry> = match seed.earliest_government_use {
                Some(cutoff) => filter::clamp_to_government_use(entries, cutoff).collect(),
                None => entries.collect(),
            };
            for e in entries {
                let slot = by_name.entry(e.name.clone()).or_insert_with(|| DomainHistory {
                    name: e.name.clone(),
                    country: seed.country,
                    seed: seed.name.clone(),
                    ns_entries: Vec::new(),
                    soa_entries: Vec::new(),
                });
                if seed.name.level() > slot.seed.level() {
                    slot.seed = seed.name.clone();
                    slot.country = seed.country;
                }
                if e.rtype() == RecordType::Soa {
                    slot.soa_entries.push(e);
                } else {
                    slot.ns_entries.push(e);
                }
            }
        }
        Longitudinal::new(by_name.into_values().filter(|h| !h.ns_entries.is_empty()).collect())
    }

    #[test]
    fn whole_years_run_from_january_1_to_december_31() {
        let d = SimDate::from_ymd;
        let bits = |years: &[Year]| years.iter().fold(0, |mask, &y| mask | year_bit(y));
        assert_eq!(whole_year_mask(d(2012, 1, 1), d(2013, 12, 31)), bits(&[2012, 2013]));
        assert_eq!(whole_year_mask(d(2012, 1, 2), d(2014, 12, 30)), bits(&[2013]));
        assert_eq!(whole_year_mask(d(2012, 1, 2), d(2013, 12, 30)), 0);
        assert_eq!(whole_year_mask(d(2015, 3, 1), d(2015, 3, 1)), 0);
        assert_eq!(whole_year_mask(d(2008, 1, 1), d(2023, 12, 31)), 0x3ff);
    }

    proptest! {
        #[test]
        fn build_matches_the_name_keyed_oracle(records in drawn_records(), seeds in drawn_seeds()) {
            let f = CampaignFixture::with_records(records);
            let campaign = f.campaign();
            let got = Longitudinal::build(&campaign, &seeds);
            let want = build_by_name(&campaign, &seeds);
            prop_assert_eq!(got.histories(), want.histories());
            prop_assert_eq!(&got.index, &want.index);
        }
    }

    proptest! {
        #[test]
        fn the_year_index_matches_the_per_year_helpers(histories in drawn_histories()) {
            let lon = Longitudinal::new(histories);
            for (year, bit) in year_bits() {
                let window = DateRange::year(year);
                let held = |years: u16| years & bit != 0;
                for (h, ix) in lon.indexed() {
                    prop_assert_eq!(held(ix.active), h.active_in(&window));
                    prop_assert_eq!(held(ix.private), h.private_in(&window));
                    prop_assert_eq!(held(ix.single_ns), h.ns_mode(year) == Some(1));
                    let hosts: Vec<&DomainName> = h.ns_entries.iter().zip(&ix.ns)
                        .filter(|&(_, &years)| held(years))
                        .filter_map(|(e, _)| e.rdata.as_ns())
                        .collect();
                    prop_assert_eq!(hosts, h.ns_hosts_in(&window));
                    let soa: Vec<(&DomainName, &DomainName)> = h.soa_entries.iter().zip(&ix.soa)
                        .filter(|&(_, &years)| held(years))
                        .filter_map(|(e, _)| e.rdata.as_soa().map(|s| (&s.mname, &s.rname)))
                        .collect();
                    prop_assert_eq!(soa, h.soa_names_in(&window));
                }
                let active: Vec<&DomainHistory> =
                    lon.histories().iter().filter(|h| h.active_in(&window)).collect();
                prop_assert_eq!(lon.active_in_year(year).collect::<Vec<_>>(), active);
            }
            prop_assert_eq!(lon.active_in_year(FIRST_YEAR - 1).count(), 0);
            prop_assert_eq!(lon.active_in_year(LAST_YEAR + 1).count(), 0);
        }
    }
}
