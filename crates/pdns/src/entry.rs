use std::fmt;

use govdns_model::{DateRange, DomainName, NameId, RecordData, RecordType, SimDate};

/// One coalesced passive-DNS entry: a unique `(rrname, rrtype, rdata)`
/// tuple with the span over which sensors observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdnsEntry {
    /// The record's owner name.
    pub name: DomainName,
    /// The observed rdata.
    pub rdata: RecordData,
    /// First date any sensor reported the tuple.
    pub first_seen: SimDate,
    /// Most recent date any sensor reported the tuple.
    pub last_seen: SimDate,
    /// Total number of sensor reports coalesced into this entry.
    pub count: u64,
}

impl PdnsEntry {
    /// The record type of the rdata.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// The observation span as an inclusive range.
    pub fn span(&self) -> DateRange {
        DateRange::new(self.first_seen, self.last_seen)
    }

    /// Number of days between first and last observation (0 for a
    /// single-day record). The paper's stability filter drops entries
    /// where this is below 7.
    pub fn span_days(&self) -> i64 {
        self.last_seen - self.first_seen
    }

    /// Whether the entry was observed at any point within `window`.
    pub fn active_in(&self, window: &DateRange) -> bool {
        self.span().overlaps(window)
    }
}

/// A borrowed view of one entry, as [`crate::PdnsDb::scan_subtree`]
/// yields it: filters run on this view, and only the entries that pass
/// are materialised with [`PdnsRef::to_entry`].
#[derive(Debug, Clone, Copy)]
pub struct PdnsRef<'a> {
    /// The record's owner name.
    pub name: &'a DomainName,
    /// The owner name's id, below
    /// [`PdnsDb::owner_count`](crate::PdnsDb::owner_count).
    pub name_id: NameId,
    /// The observed rdata.
    pub rdata: &'a RecordData,
    /// The NS target's id in
    /// [`PdnsDb::ns_targets`](crate::PdnsDb::ns_targets), for NS rdata;
    /// `None` for every other type.
    pub ns_target: Option<NameId>,
    /// First date any sensor reported the tuple.
    pub first_seen: SimDate,
    /// Most recent date any sensor reported the tuple.
    pub last_seen: SimDate,
    /// Total number of sensor reports coalesced into this entry.
    pub count: u64,
}

impl PdnsRef<'_> {
    /// The record type of the rdata.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// Whether the entry was observed at any point within `window`.
    pub fn active_in(&self, window: &DateRange) -> bool {
        DateRange::new(self.first_seen, self.last_seen).overlaps(window)
    }

    /// Days between first and last observation, as
    /// [`PdnsEntry::span_days`].
    pub fn span_days(&self) -> i64 {
        self.last_seen - self.first_seen
    }

    /// Clones the view into an owned entry.
    pub fn to_entry(self) -> PdnsEntry {
        PdnsEntry {
            name: self.name.clone(),
            rdata: self.rdata.clone(),
            first_seen: self.first_seen,
            last_seen: self.last_seen,
            count: self.count,
        }
    }
}

impl fmt::Display for PdnsEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} [{} .. {}] x{}",
            self.name,
            self.rtype(),
            self.rdata,
            self.first_seen,
            self.last_seen,
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> PdnsEntry {
        PdnsEntry {
            name: "a.gov.zz".parse().unwrap(),
            rdata: RecordData::Ns("ns1.gov.zz".parse().unwrap()),
            first_seen: SimDate::from_ymd(2015, 1, 1),
            last_seen: SimDate::from_ymd(2015, 3, 1),
            count: 42,
        }
    }

    #[test]
    fn span_and_activity() {
        let e = entry();
        assert_eq!(e.span_days(), 59);
        assert!(e.active_in(&DateRange::year(2015)));
        assert!(!e.active_in(&DateRange::year(2016)));
        let edge = DateRange::new(SimDate::from_ymd(2015, 3, 1), SimDate::from_ymd(2015, 4, 1));
        assert!(e.active_in(&edge), "inclusive boundaries overlap");
    }

    #[test]
    fn display_mentions_type_and_span() {
        let s = entry().to_string();
        assert!(s.contains("NS") && s.contains("2015-01-01") && s.contains("x42"));
    }
}
