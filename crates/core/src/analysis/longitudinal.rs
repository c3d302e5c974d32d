//! The shared longitudinal view: per-domain PDNS NS histories, built once
//! from the seeds and reused by the replication and provider analyses.

use std::collections::BTreeMap;

use govdns_model::{DateRange, DomainName, RecordType, SimDate, Year};
use govdns_pdns::{filter, PdnsEntry, PdnsRef};
use govdns_world::CountryCode;

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
    (lo..=hi).fold(0, |mask, y| mask | 1 << (y - FIRST_YEAR))
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

/// The longitudinal dataset: every domain history under every seed.
#[derive(Debug, Clone)]
pub struct Longitudinal {
    /// Domain histories, sorted by name.
    pub histories: Vec<DomainHistory>,
}

impl Longitudinal {
    /// Builds the view from the PDNS database: full 2011–2020 wildcard
    /// searches (no recency restriction), the stability filter, and the
    /// earliest-government-use clamp.
    pub fn build(campaign: &Campaign<'_>, seeds: &[SeedDomain]) -> Self {
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
        // Drop SOA-only names: a domain is studied for its NS records.
        let histories: Vec<DomainHistory> =
            by_name.into_values().filter(|h| !h.ns_entries.is_empty()).collect();
        Longitudinal { histories }
    }

    /// The years covered.
    pub fn years() -> impl Iterator<Item = Year> {
        FIRST_YEAR..=LAST_YEAR
    }

    /// Histories active in a given year.
    pub fn active_in_year(&self, year: Year) -> impl Iterator<Item = &DomainHistory> {
        let window = DateRange::year(year);
        self.histories.iter().filter(move |h| h.active_in(&window))
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
