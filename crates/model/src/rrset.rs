use std::fmt;

use crate::{DomainName, RecordData, RecordType, ResourceRecord, Ttl};

/// A set of records sharing one owner name and type.
///
/// RRsets are the unit the passive-DNS database coalesces over and the unit
/// authoritative answers are assembled from. Duplicate rdata is rejected on
/// insert, matching RFC 2181 §5.
///
/// ```
/// use govdns_model::{RrSet, RecordType, RecordData};
/// let mut set = RrSet::new("gov.example".parse()?, RecordType::Ns, 3600);
/// set.push(RecordData::Ns("ns1.gov.example".parse()?));
/// set.push(RecordData::Ns("ns2.gov.example".parse()?));
/// set.push(RecordData::Ns("ns1.gov.example".parse()?)); // duplicate: ignored
/// assert_eq!(set.len(), 2);
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrSet {
    name: DomainName,
    rtype: RecordType,
    ttl: Ttl,
    rdata: Vec<RecordData>,
}

impl RrSet {
    /// Creates an empty RRset.
    pub fn new(name: DomainName, rtype: RecordType, ttl: Ttl) -> Self {
        RrSet { name, rtype, ttl, rdata: Vec::new() }
    }

    /// The owner name.
    pub fn name(&self) -> &DomainName {
        &self.name
    }

    /// The record type.
    pub fn rtype(&self) -> RecordType {
        self.rtype
    }

    /// The set-wide TTL.
    pub fn ttl(&self) -> Ttl {
        self.ttl
    }

    /// Adds rdata to the set, ignoring exact duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the rdata's type disagrees with the set's type — that is a
    /// programming error, not an input error.
    pub fn push(&mut self, data: RecordData) -> bool {
        assert_eq!(
            data.rtype(),
            self.rtype,
            "rdata type {} pushed into {} RRset",
            data.rtype(),
            self.rtype
        );
        if self.rdata.contains(&data) {
            return false;
        }
        self.rdata.push(data);
        true
    }

    /// Number of records in the set.
    pub fn len(&self) -> usize {
        self.rdata.len()
    }

    /// Whether the set holds no records.
    pub fn is_empty(&self) -> bool {
        self.rdata.is_empty()
    }

    /// Iterates over the rdata.
    pub fn iter(&self) -> std::slice::Iter<'_, RecordData> {
        self.rdata.iter()
    }

    /// Expands the set into full resource records.
    pub fn to_records(&self) -> Vec<ResourceRecord> {
        self.rdata
            .iter()
            .map(|d| ResourceRecord::new(self.name.clone(), self.ttl, d.clone()))
            .collect()
    }

    /// The NS targets, for NS RRsets; empty otherwise.
    pub fn ns_targets(&self) -> Vec<&DomainName> {
        self.rdata.iter().filter_map(RecordData::as_ns).collect()
    }
}

impl fmt::Display for RrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rr) in self.to_records().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{rr}")?;
        }
        Ok(())
    }
}

impl Extend<RecordData> for RrSet {
    fn extend<T: IntoIterator<Item = RecordData>>(&mut self, iter: T) {
        for d in iter {
            self.push(d);
        }
    }
}

impl<'a> IntoIterator for &'a RrSet {
    type Item = &'a RecordData;
    type IntoIter = std::slice::Iter<'a, RecordData>;
    fn into_iter(self) -> Self::IntoIter {
        self.rdata.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns_set() -> RrSet {
        let mut s = RrSet::new("gov.example".parse().unwrap(), RecordType::Ns, 300);
        s.push(RecordData::Ns("ns1.gov.example".parse().unwrap()));
        s.push(RecordData::Ns("ns2.gov.example".parse().unwrap()));
        s
    }

    #[test]
    fn dedupes_rdata() {
        let mut s = ns_set();
        assert!(!s.push(RecordData::Ns("ns1.gov.example".parse().unwrap())));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "rdata type")]
    fn rejects_mismatched_type() {
        let mut s = ns_set();
        s.push(RecordData::Txt("oops".into()));
    }

    #[test]
    fn expands_to_records() {
        let recs = ns_set().to_records();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.ttl == 300 && r.rtype() == RecordType::Ns));
    }

    #[test]
    fn ns_targets_extracts_names() {
        let s = ns_set();
        let t: Vec<String> = s.ns_targets().iter().map(|n| n.to_string()).collect();
        assert_eq!(t, vec!["ns1.gov.example", "ns2.gov.example"]);
    }
}
