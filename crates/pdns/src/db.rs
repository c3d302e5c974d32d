use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use govdns_model::{DateRange, DomainName, NameId, NameTable, RecordData, RecordType, SimDate};

use crate::{PdnsEntry, PdnsRef};

/// A passive-DNS database with DNSDB semantics: observations of the same
/// `(rrname, rrtype, rdata)` tuple coalesce into one entry whose
/// `first_seen`/`last_seen` bracket every report.
///
/// Names are indexed by reversed label order so a left-hand wildcard
/// search (`*.gov.xx`) is a contiguous range scan.
///
/// Every owner name and every NS target also gets a dense [`NameId`]
/// when it is first observed, and each [`PdnsRef`] carries both, so a
/// consumer can group records by integer. Owners and targets are
/// numbered apart: an owner's id is its slot's creation order (the slot
/// map already tells a new owner, so no hashing), and a target's id
/// comes from the database's one [`NameTable`]. The ids live in memory
/// only: exports render names.
///
/// ```
/// use govdns_pdns::PdnsDb;
/// use govdns_model::{RecordData, SimDate, DateRange};
///
/// let mut db = PdnsDb::new();
/// let span = DateRange::new(SimDate::from_ymd(2015, 1, 1), SimDate::from_ymd(2019, 6, 1));
/// db.observe_span("portal.gov.zz".parse()?, RecordData::Ns("ns1.gov.zz".parse()?), span, 10);
///
/// let hits: Vec<_> = db.search_subtree(&"gov.zz".parse()?).collect();
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].count, 10);
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PdnsDb {
    /// reversed-name key → entries at that owner name.
    names: BTreeMap<String, NameEntries>,
    /// Ids of the NS targets.
    ns_targets: NameTable,
    total_entries: usize,
}

#[derive(Debug, Clone)]
struct NameEntries {
    name: DomainName,
    /// The owner's id: the number of owners observed before it.
    id: NameId,
    /// Keyed by `(rtype code, rdata presentation)` for a stable order.
    records: BTreeMap<(u16, String), Stamp>,
}

#[derive(Debug, Clone)]
struct Stamp {
    rdata: RecordData,
    /// The NS target's id, for NS rdata.
    ns_target: Option<NameId>,
    first_seen: SimDate,
    last_seen: SimDate,
    count: u64,
}

/// Reversed-label key: `www.gov.zz` → `zz.gov.www`. Range scans over a
/// suffix become prefix scans over this key.
fn rev_key(name: &DomainName) -> String {
    let mut labels: Vec<&str> = name.labels().iter().map(|l| l.as_str()).collect();
    labels.reverse();
    labels.join(".")
}

impl PdnsDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        PdnsDb::default()
    }

    /// Records that `rdata` was observed at `name` on every day of `span`,
    /// contributing `count` sensor reports.
    pub fn observe_span(
        &mut self,
        name: DomainName,
        rdata: RecordData,
        span: DateRange,
        count: u64,
    ) {
        self.observe_all(&name, [(rdata, span, count)]);
    }

    /// Records a run of `(rdata, span, count)` observations at `name`,
    /// each exactly as [`observe_span`](Self::observe_span) would. The
    /// reversed key is built and the name's slot found once for the whole
    /// run, not once per record. The slot is created at the first
    /// observation, so an empty run leaves the database unchanged.
    ///
    /// ```
    /// use govdns_pdns::PdnsDb;
    /// use govdns_model::{DateRange, RecordData, SimDate};
    ///
    /// let mut db = PdnsDb::new();
    /// let span = DateRange::new(SimDate::from_ymd(2015, 1, 1), SimDate::from_ymd(2019, 6, 1));
    /// let ns = |host: &str| host.parse().map(RecordData::Ns);
    /// db.observe_all(
    ///     &"portal.gov.zz".parse()?,
    ///     [(ns("ns1.gov.zz")?, span, 10), (ns("ns2.gov.zz")?, span, 10)],
    /// );
    /// assert_eq!(db.len(), 2);
    /// # Ok::<(), govdns_model::ModelError>(())
    /// ```
    pub fn observe_all(
        &mut self,
        name: &DomainName,
        observations: impl IntoIterator<Item = (RecordData, DateRange, u64)>,
    ) {
        let mut observations = observations.into_iter();
        let Some(first) = observations.next() else { return };
        let id = NameId::new(u32::try_from(self.names.len()).expect("fewer than 2^32 owners"));
        let slot = self.names.entry(rev_key(name)).or_insert_with(|| NameEntries {
            name: name.clone(),
            id,
            records: BTreeMap::new(),
        });
        for (rdata, span, count) in std::iter::once(first).chain(observations) {
            match slot.records.entry((rdata.rtype().code(), rdata.to_string())) {
                Entry::Occupied(mut stamp) => {
                    let stamp = stamp.get_mut();
                    stamp.first_seen = stamp.first_seen.min(span.start);
                    stamp.last_seen = stamp.last_seen.max(span.end);
                    stamp.count += count;
                }
                Entry::Vacant(vacant) => {
                    vacant.insert(Stamp {
                        ns_target: rdata.as_ns().map(|host| self.ns_targets.intern(host)),
                        rdata,
                        first_seen: span.start,
                        last_seen: span.end,
                        count,
                    });
                    self.total_entries += 1;
                }
            }
        }
    }

    /// Records a single-day observation.
    pub fn observe(&mut self, name: DomainName, rdata: RecordData, date: SimDate) {
        self.observe_span(name, rdata, DateRange::new(date, date), 1);
    }

    /// Number of unique `(rrname, rrtype, rdata)` entries.
    pub fn len(&self) -> usize {
        self.total_entries
    }

    /// Whether the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.total_entries == 0
    }

    /// Number of distinct owner names, which bounds every
    /// [`PdnsRef::name_id`].
    pub fn owner_count(&self) -> usize {
        self.names.len()
    }

    /// The ids of the NS targets observed so far: each
    /// [`PdnsRef::ns_target`] is one of them.
    pub fn ns_targets(&self) -> &NameTable {
        &self.ns_targets
    }

    /// All entries at exactly `name`, optionally restricted to one type.
    pub fn lookup(
        &self,
        name: &DomainName,
        rtype: Option<RecordType>,
    ) -> impl Iterator<Item = PdnsEntry> + '_ {
        self.names
            .get(&rev_key(name))
            .into_iter()
            .flat_map(NameEntries::refs)
            .filter(move |r| rtype.is_none_or(|t| r.rtype() == t))
            .map(PdnsRef::to_entry)
    }

    /// Left-hand wildcard scan, borrowed: every entry at `suffix` or
    /// beneath it, as views into the database. Callers filter these and
    /// materialise only the survivors.
    pub fn scan_subtree<'a>(
        &'a self,
        suffix: &DomainName,
    ) -> impl Iterator<Item = PdnsRef<'a>> + 'a {
        let prefix = rev_key(suffix);
        // Keys under the suffix are `prefix` itself plus `prefix.<more>`.
        // `/` is the successor of `.` in ASCII, which bounds the scan.
        // The root's key is empty and every key lies beneath it.
        let upper = match prefix.is_empty() {
            true => Bound::Unbounded,
            false => Bound::Excluded(format!("{prefix}/")),
        };
        self.names
            .range((Bound::Included(prefix.clone()), upper))
            .filter(move |(k, _)| {
                prefix.is_empty() || **k == prefix || k[prefix.len()..].starts_with('.')
            })
            .flat_map(|(_, slot)| slot.refs())
    }

    /// Left-hand wildcard search: every entry at `suffix` or beneath it.
    ///
    /// This is the DNSDB query shape the paper uses to expand each seed
    /// domain (`*.gov.xx` NS lookups).
    pub fn search_subtree<'a>(
        &'a self,
        suffix: &DomainName,
    ) -> impl Iterator<Item = PdnsEntry> + 'a {
        self.scan_subtree(suffix).map(PdnsRef::to_entry)
    }

    /// Wildcard search restricted to entries observed within `window` and
    /// optionally to one record type. Both filters run on the borrowed
    /// scan, so only matching entries are materialised.
    pub fn search_subtree_in<'a>(
        &'a self,
        suffix: &DomainName,
        window: DateRange,
        rtype: Option<RecordType>,
    ) -> impl Iterator<Item = PdnsEntry> + 'a {
        self.scan_subtree(suffix)
            .filter(move |r| r.active_in(&window) && rtype.is_none_or(|t| r.rtype() == t))
            .map(PdnsRef::to_entry)
    }

    /// Iterates over every entry in the database, in reversed-name order.
    pub fn iter(&self) -> impl Iterator<Item = PdnsEntry> + '_ {
        self.names.values().flat_map(NameEntries::refs).map(PdnsRef::to_entry)
    }
}

impl NameEntries {
    fn refs(&self) -> impl Iterator<Item = PdnsRef<'_>> {
        self.records.values().map(|s| PdnsRef {
            name: &self.name,
            name_id: self.id,
            rdata: &s.rdata,
            ns_target: s.ns_target,
            first_seen: s.first_seen,
            last_seen: s.last_seen,
            count: s.count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn ns(s: &str) -> RecordData {
        RecordData::Ns(n(s))
    }

    fn d(y: i32, m: u32, dd: u32) -> SimDate {
        SimDate::from_ymd(y, m, dd)
    }

    #[test]
    fn coalesces_overlapping_observations() {
        let mut db = PdnsDb::new();
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 10));
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2014, 12, 1));
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2015, 6, 1));
        assert_eq!(db.len(), 1);
        let e: Vec<_> = db.lookup(&n("a.gov.zz"), None).collect();
        assert_eq!(e[0].first_seen, d(2014, 12, 1));
        assert_eq!(e[0].last_seen, d(2015, 6, 1));
        assert_eq!(e[0].count, 3);
    }

    #[test]
    fn distinct_rdata_are_distinct_entries() {
        let mut db = PdnsDb::new();
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("a.gov.zz"), ns("ns2.gov.zz"), d(2015, 1, 1));
        db.observe(n("a.gov.zz"), RecordData::A("192.0.2.1".parse().unwrap()), d(2015, 1, 1));
        assert_eq!(db.len(), 3);
        assert_eq!(db.lookup(&n("a.gov.zz"), Some(RecordType::Ns)).count(), 2);
    }

    #[test]
    fn subtree_search_matches_label_boundaries_only() {
        let mut db = PdnsDb::new();
        db.observe(n("gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("b.a.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("xgov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1)); // decoy
        db.observe(n("gov.zx"), ns("ns1.gov.zz"), d(2015, 1, 1)); // decoy
        let hits: Vec<String> =
            db.search_subtree(&n("gov.zz")).map(|e| e.name.to_string()).collect();
        assert_eq!(hits.len(), 3);
        assert!(hits.contains(&"gov.zz".to_string()));
        assert!(hits.contains(&"a.gov.zz".to_string()));
        assert!(hits.contains(&"b.a.gov.zz".to_string()));
    }

    #[test]
    fn windowed_search_filters_by_activity() {
        let mut db = PdnsDb::new();
        db.observe_span(
            n("old.gov.zz"),
            ns("ns1.gov.zz"),
            DateRange::new(d(2011, 1, 1), d(2013, 1, 1)),
            5,
        );
        db.observe_span(
            n("new.gov.zz"),
            ns("ns1.gov.zz"),
            DateRange::new(d(2019, 1, 1), d(2021, 2, 1)),
            5,
        );
        let recent = DateRange::new(d(2020, 1, 1), d(2021, 2, 28));
        let hits: Vec<String> = db
            .search_subtree_in(&n("gov.zz"), recent, Some(RecordType::Ns))
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(hits, vec!["new.gov.zz"]);
    }

    #[test]
    fn iter_covers_everything() {
        let mut db = PdnsDb::new();
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("b.gov.yy"), ns("ns1.gov.yy"), d(2015, 1, 1));
        assert_eq!(db.iter().count(), 2);
        assert!(!db.is_empty());
    }

    #[test]
    fn the_root_subtree_is_the_whole_db() {
        let mut db = PdnsDb::new();
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("b.gov.yy"), ns("ns1.gov.yy"), d(2015, 1, 1));
        db.observe(n("b.gov.yy"), RecordData::A("192.0.2.1".parse().unwrap()), d(2015, 1, 1));
        assert_eq!(db.search_subtree(&DomainName::root()).count(), db.len());
        assert_eq!(db.search_subtree(&n("zz")).count(), 2);
    }

    #[test]
    fn refs_carry_the_ids_of_owner_and_target() {
        let mut db = PdnsDb::new();
        db.observe(n("a.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("b.gov.zz"), ns("ns1.gov.zz"), d(2015, 1, 1));
        db.observe(n("a.gov.zz"), ns("ns2.gov.zz"), d(2015, 1, 1));
        db.observe(n("ns1.gov.zz"), RecordData::A("192.0.2.1".parse().unwrap()), d(2015, 1, 1));
        // Owners are numbered by first observation, apart from targets:
        // ns1.gov.zz is both and has an id in each numbering.
        let owners = ["a.gov.zz", "b.gov.zz", "ns1.gov.zz"];
        assert_eq!(db.owner_count(), owners.len());
        assert_eq!(db.ns_targets().len(), 2);
        for r in db.scan_subtree(&n("gov.zz")) {
            assert_eq!(*r.name, n(owners[r.name_id.index()]));
            match r.rdata.as_ns() {
                Some(host) => {
                    assert_eq!(r.ns_target.map(|id| db.ns_targets().name(id)), Some(host))
                }
                None => assert_eq!(r.ns_target, None),
            }
        }
    }

    #[test]
    fn empty_db_finds_nothing() {
        let db = PdnsDb::new();
        assert!(db.is_empty());
        assert_eq!(db.search_subtree(&n("gov.zz")).count(), 0);
        assert_eq!(db.lookup(&n("gov.zz"), None).count(), 0);
    }
}
