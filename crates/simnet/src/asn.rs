use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// An autonomous-system number.
pub type Asn = u32;

/// A prefix→ASN database, the simulation's stand-in for MaxMind's GeoIP2
/// ASN database (which the paper uses to compute Table I's |ASNns| column).
///
/// Allocations are contiguous address ranges; lookup finds the covering
/// allocation, if any.
///
/// ```
/// use govdns_simnet::AsnDb;
/// let mut db = AsnDb::new();
/// db.allocate("10.0.0.0".parse()?, "10.0.255.255".parse()?, 64500);
/// assert_eq!(db.lookup("10.0.42.7".parse()?), Some(64500));
/// assert_eq!(db.lookup("192.0.2.1".parse()?), None);
/// # Ok::<(), std::net::AddrParseError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsnDb {
    // start-of-range → (end-of-range inclusive, asn)
    ranges: BTreeMap<u32, (u32, Asn)>,
}

impl AsnDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        AsnDb::default()
    }

    /// Registers an allocation covering `start..=end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or overlaps an existing allocation —
    /// address plans in the simulation are constructed, so an overlap is a
    /// generator bug worth failing loudly on.
    pub fn allocate(&mut self, start: Ipv4Addr, end: Ipv4Addr, asn: Asn) {
        let (s, e) = (u32::from(start), u32::from(end));
        assert!(s <= e, "inverted allocation {start}-{end}");
        if let Some((&ps, &(pe, pasn))) = self.ranges.range(..=e).next_back() {
            assert!(
                pe < s,
                "allocation {start}-{end} (AS{asn}) overlaps {}-{} (AS{pasn})",
                Ipv4Addr::from(ps),
                Ipv4Addr::from(pe),
            );
        }
        self.ranges.insert(s, (e, asn));
    }

    /// The ASN whose allocation covers `addr`, if any.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<Asn> {
        let a = u32::from(addr);
        let (_, &(end, asn)) = self.ranges.range(..=a).next_back()?;
        (a <= end).then_some(asn)
    }

    /// Number of allocations.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterates over `(start, end, asn)` allocations in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, Ipv4Addr, Asn)> + '_ {
        self.ranges.iter().map(|(&s, &(e, asn))| (Ipv4Addr::from(s), Ipv4Addr::from(e), asn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn lookup_hits_inside_range_only() {
        let mut db = AsnDb::new();
        db.allocate(ip("10.0.0.0"), ip("10.0.0.255"), 1);
        db.allocate(ip("10.0.2.0"), ip("10.0.2.255"), 2);
        assert_eq!(db.lookup(ip("10.0.0.0")), Some(1));
        assert_eq!(db.lookup(ip("10.0.0.255")), Some(1));
        assert_eq!(db.lookup(ip("10.0.1.0")), None);
        assert_eq!(db.lookup(ip("10.0.2.128")), Some(2));
        assert_eq!(db.lookup(ip("9.255.255.255")), None);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn rejects_overlap() {
        let mut db = AsnDb::new();
        db.allocate(ip("10.0.0.0"), ip("10.0.1.255"), 1);
        db.allocate(ip("10.0.1.0"), ip("10.0.2.255"), 2);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted() {
        let mut db = AsnDb::new();
        db.allocate(ip("10.0.1.0"), ip("10.0.0.0"), 1);
    }

    #[test]
    fn iter_in_order() {
        let mut db = AsnDb::new();
        db.allocate(ip("10.0.2.0"), ip("10.0.2.255"), 2);
        db.allocate(ip("10.0.0.0"), ip("10.0.0.255"), 1);
        let asns: Vec<Asn> = db.iter().map(|(_, _, a)| a).collect();
        assert_eq!(asns, vec![1, 2]);
        assert_eq!(db.len(), 2);
    }
}
