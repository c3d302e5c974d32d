use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use crate::{DomainName, FxHashMap, FxHashSet, RecordData, RecordType, RrSet, Soa, Ttl};

const DEFAULT_TTL: Ttl = 3600;

/// The outcome of looking a name/type up in an authoritative zone.
///
/// This mirrors the decision an authoritative server makes when composing a
/// response: the distinction between an authoritative answer and a referral
/// at a zone cut is precisely what the study's Figure-1 measurement client
/// drives on (step ② is a referral from the parent; step ④ an authoritative
/// answer from the child). The RRsets are borrowed from the zone, so a
/// server copies each record once, into the reply it builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneLookup<'a> {
    /// The zone is authoritative for the name and holds the RRset.
    Answer(&'a RrSet),
    /// The name lies at or below a delegation: here are the NS records of
    /// the closest enclosing cut (whose owner is the delegation point),
    /// plus any in-zone glue addresses.
    Referral {
        /// The delegation NS RRset as stored in the parent.
        ns: &'a RrSet,
        /// Glue A records for NS targets that live under the origin.
        glue: Glue<'a>,
    },
    /// The name exists but carries no RRset of the requested type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
    /// The name is not within this zone's origin at all.
    OutOfZone,
}

/// The glue of a referral, yielded lazily in NS-target order: for each
/// target within the zone origin, every address of its A RRset.
#[derive(Clone)]
pub struct Glue<'a> {
    zone: &'a Zone,
    targets: std::slice::Iter<'a, RecordData>,
    current: Option<(&'a DomainName, std::slice::Iter<'a, RecordData>)>,
}

impl<'a> Iterator for Glue<'a> {
    type Item = (&'a DomainName, Ipv4Addr);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((target, addrs)) = &mut self.current {
                if let Some(addr) = addrs.find_map(RecordData::as_a) {
                    return Some((*target, addr));
                }
            }
            let target = self.targets.find_map(RecordData::as_ns)?;
            let in_zone = target.is_within(&self.zone.origin);
            let addrs = in_zone.then(|| self.zone.rrset(target, RecordType::A)).flatten();
            self.current = addrs.map(|set| (target, set.iter()));
        }
    }
}

impl PartialEq for Glue<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

impl Eq for Glue<'_> {}

impl fmt::Debug for Glue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// An authoritative DNS zone: an origin plus the records at and below it,
/// with delegation (zone-cut) semantics on lookup.
///
/// Records are held per owner name, per type, as [`RrSet`]s. NS RRsets at
/// names strictly below the origin define zone cuts; lookups at or beneath
/// a cut yield [`ZoneLookup::Referral`].
///
/// Owners are hashed ([`FxHashMap`]), so a lookup costs one hash per
/// candidate suffix. The iterators sort owners by name, so no output
/// sees hash order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    origin: DomainName,
    records: FxHashMap<DomainName, BTreeMap<RecordType, RrSet>>,
    /// Every strict ancestor of an owner, from the origin down: the names
    /// that have something beneath them. Zones only grow, so
    /// [`add_with_ttl`](Self::add_with_ttl) keeps this exact, and an
    /// empty non-terminal is one lookup rather than a scan of the zone.
    interior: FxHashSet<DomainName>,
}

impl Zone {
    /// Creates an empty zone rooted at `origin`.
    pub fn new(origin: DomainName) -> Self {
        Zone { origin, records: FxHashMap::default(), interior: FxHashSet::default() }
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &DomainName {
        &self.origin
    }

    /// Adds one piece of rdata at `name` with the default TTL.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not within the zone origin; callers construct
    /// zones programmatically and out-of-zone data is a builder bug.
    pub fn add(&mut self, name: DomainName, data: RecordData) {
        self.add_with_ttl(name, DEFAULT_TTL, data);
    }

    /// Adds one piece of rdata at `name` with an explicit TTL.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not within the zone origin.
    pub fn add_with_ttl(&mut self, name: DomainName, ttl: Ttl, data: RecordData) {
        assert!(name.is_within(&self.origin), "record owner {name} outside zone {}", self.origin);
        // Record the owner's ancestors, nearest first; once one is known,
        // so are all above it.
        for level in (self.origin.level()..name.level()).rev() {
            let labels = &name.labels()[name.level() - level..];
            if self.interior.contains(labels) {
                break;
            }
            self.interior.insert(name.suffix(level));
        }
        let rtype = data.rtype();
        self.records
            .entry(name.clone())
            .or_default()
            .entry(rtype)
            .or_insert_with(|| RrSet::new(name, rtype, ttl))
            .push(data);
    }

    /// Convenience: adds an NS record delegating (or serving) `name`.
    pub fn add_ns(&mut self, name: DomainName, target: DomainName) {
        self.add(name, RecordData::Ns(target));
    }

    /// Convenience: adds an A record.
    pub fn add_a(&mut self, name: DomainName, addr: Ipv4Addr) {
        self.add(name, RecordData::A(addr));
    }

    /// Convenience: adds a glue A record for an in-zone NS target.
    pub fn add_glue(&mut self, name: DomainName, addr: Ipv4Addr) {
        self.add_a(name, addr);
    }

    /// Sets the apex SOA (replacing any previous one).
    pub fn set_soa(&mut self, soa: Soa) {
        let apex = self.origin.clone();
        let mut set = RrSet::new(apex.clone(), RecordType::Soa, DEFAULT_TTL);
        set.push(RecordData::Soa(soa));
        self.records.entry(apex).or_default().insert(RecordType::Soa, set);
    }

    /// The apex SOA, if one is configured.
    pub fn soa(&self) -> Option<&Soa> {
        self.rrset(&self.origin, RecordType::Soa)?.iter().next()?.as_soa()
    }

    /// The RRset at exactly `name`/`rtype`, ignoring zone cuts.
    pub fn rrset(&self, name: &DomainName, rtype: RecordType) -> Option<&RrSet> {
        self.records.get(name)?.get(&rtype)
    }

    /// Iterates over every RRset in the zone, by owner name, then type.
    pub fn iter(&self) -> impl Iterator<Item = &RrSet> {
        self.owners().into_iter().flat_map(|(_, by_type)| by_type.values())
    }

    /// The owners and their RRsets, sorted by name.
    fn owners(&self) -> Vec<(&DomainName, &BTreeMap<RecordType, RrSet>)> {
        let mut owners: Vec<_> = self.records.iter().collect();
        owners.sort_unstable_by(|a, b| a.0.cmp(b.0));
        owners
    }

    /// Number of RRsets in the zone.
    pub fn rrset_count(&self) -> usize {
        self.records.values().map(BTreeMap::len).sum()
    }

    /// The delegation points of this zone: owners of NS RRsets strictly
    /// below the origin, in name order.
    pub fn delegations(&self) -> impl Iterator<Item = &RrSet> {
        self.owners().into_iter().filter_map(move |(name, by_type)| {
            if *name == self.origin {
                None
            } else {
                by_type.get(&RecordType::Ns)
            }
        })
    }

    /// Finds the zone cut at or above `name` and strictly below the
    /// origin, if any; `name` must lie within the origin.
    ///
    /// The referral goes to the *highest* cut (closest to the origin),
    /// because data below a cut is occluded, so the walk starts one label
    /// below the origin and goes down towards `name`.
    fn closest_cut(&self, name: &DomainName) -> Option<&RrSet> {
        let labels = name.labels();
        (0..labels.len() - self.origin.level())
            .rev()
            .find_map(|i| self.records.get(&labels[i..])?.get(&RecordType::Ns))
    }

    /// Authoritative lookup with zone-cut semantics. See [`ZoneLookup`].
    pub fn lookup(&self, name: &DomainName, rtype: RecordType) -> ZoneLookup<'_> {
        if !name.is_within(&self.origin) {
            return ZoneLookup::OutOfZone;
        }
        if let Some(ns) = self.closest_cut(name) {
            // Asking the parent for NS of the cut itself is still a
            // referral (non-authoritative), which is exactly what the
            // measurement pipeline's step ② consumes.
            let glue = Glue { zone: self, targets: ns.iter(), current: None };
            return ZoneLookup::Referral { ns, glue };
        }
        match self.records.get(name) {
            Some(by_type) => match by_type.get(&rtype) {
                Some(set) => ZoneLookup::Answer(set),
                None => match by_type.get(&RecordType::Cname) {
                    // A CNAME at the name answers any type (except CNAME,
                    // handled above when rtype == Cname).
                    Some(cname) if rtype != RecordType::Cname => ZoneLookup::Answer(cname),
                    _ => ZoneLookup::NoData,
                },
            },
            None => {
                // An "empty non-terminal": the name has no records but
                // names exist beneath it, so it is NoData, not NXDOMAIN.
                // Finding a subdomain among the owners means scanning
                // every owner of the zone on every NXDOMAIN, and a
                // TLD-like zone has an owner per delegation and per glue
                // host. The interior set answers it in one lookup.
                if self.interior.contains(name) {
                    ZoneLookup::NoData
                } else {
                    ZoneLookup::NxDomain
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(n("gov.example"));
        z.set_soa(Soa::new(n("ns1.gov.example"), n("hostmaster.gov.example")));
        z.add_ns(n("gov.example"), n("ns1.gov.example"));
        z.add_ns(n("gov.example"), n("ns2.gov.example"));
        z.add_a(n("ns1.gov.example"), Ipv4Addr::new(192, 0, 2, 1));
        z.add_a(n("www.gov.example"), Ipv4Addr::new(192, 0, 2, 80));
        // Delegation to a child zone, with glue.
        z.add_ns(n("portal.gov.example"), n("ns1.portal.gov.example"));
        z.add_glue(n("ns1.portal.gov.example"), Ipv4Addr::new(198, 51, 100, 1));
        z
    }

    #[test]
    fn answers_in_zone_data() {
        let z = sample_zone();
        match z.lookup(&n("www.gov.example"), RecordType::A) {
            ZoneLookup::Answer(set) => assert_eq!(set.len(), 1),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn apex_ns_is_an_answer_not_a_referral() {
        let z = sample_zone();
        match z.lookup(&n("gov.example"), RecordType::Ns) {
            ZoneLookup::Answer(set) => assert_eq!(set.len(), 2),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn delegation_yields_referral_with_glue() {
        let z = sample_zone();
        for q in ["portal.gov.example", "www.portal.gov.example", "a.b.portal.gov.example"] {
            match z.lookup(&n(q), RecordType::A) {
                ZoneLookup::Referral { ns, glue } => {
                    assert_eq!(ns.name(), &n("portal.gov.example"));
                    assert_eq!(ns.len(), 1);
                    assert_eq!(
                        glue.collect::<Vec<_>>(),
                        vec![(&n("ns1.portal.gov.example"), Ipv4Addr::new(198, 51, 100, 1))]
                    );
                }
                other => panic!("expected referral for {q}, got {other:?}"),
            }
        }
    }

    #[test]
    fn ns_query_at_cut_is_a_referral() {
        let z = sample_zone();
        assert!(matches!(
            z.lookup(&n("portal.gov.example"), RecordType::Ns),
            ZoneLookup::Referral { .. }
        ));
    }

    #[test]
    fn missing_name_is_nxdomain() {
        let z = sample_zone();
        assert_eq!(z.lookup(&n("absent.gov.example"), RecordType::A), ZoneLookup::NxDomain);
    }

    #[test]
    fn existing_name_wrong_type_is_nodata() {
        let z = sample_zone();
        assert_eq!(z.lookup(&n("www.gov.example"), RecordType::Txt), ZoneLookup::NoData);
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let mut z = Zone::new(n("gov.example"));
        z.add_a(n("a.b.gov.example"), Ipv4Addr::new(192, 0, 2, 9));
        assert_eq!(z.lookup(&n("b.gov.example"), RecordType::A), ZoneLookup::NoData);
    }

    #[test]
    fn out_of_zone_is_flagged() {
        let z = sample_zone();
        assert_eq!(z.lookup(&n("example.net"), RecordType::A), ZoneLookup::OutOfZone);
    }

    #[test]
    fn cname_answers_other_types() {
        let mut z = Zone::new(n("gov.example"));
        z.add(n("alias.gov.example"), RecordData::Cname(n("www.gov.example")));
        match z.lookup(&n("alias.gov.example"), RecordType::A) {
            ZoneLookup::Answer(set) => assert_eq!(set.rtype(), RecordType::Cname),
            other => panic!("expected cname answer, got {other:?}"),
        }
    }

    #[test]
    fn highest_cut_wins_for_nested_delegations() {
        let mut z = sample_zone();
        // Data *below* the portal cut is occluded, even NS data.
        z.add_ns(n("deep.portal.gov.example"), n("ns.elsewhere.example"));
        match z.lookup(&n("x.deep.portal.gov.example"), RecordType::A) {
            ZoneLookup::Referral { ns, .. } => assert_eq!(ns.name(), &n("portal.gov.example")),
            other => panic!("expected referral, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn rejects_out_of_zone_insert() {
        let mut z = Zone::new(n("gov.example"));
        z.add_a(n("other.example"), Ipv4Addr::new(192, 0, 2, 1));
    }

    #[test]
    fn soa_accessor() {
        let z = sample_zone();
        assert_eq!(z.soa().unwrap().mname, n("ns1.gov.example"));
    }

    #[test]
    fn delegations_lists_cuts_only() {
        let z = sample_zone();
        let cuts: Vec<String> = z.delegations().map(|s| s.name().to_string()).collect();
        assert_eq!(cuts, vec!["portal.gov.example"]);
    }
}
