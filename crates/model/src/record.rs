use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::{DomainName, Soa};

/// Time-to-live of a resource record, in seconds.
pub type Ttl = u32;

/// The record types the study's pipeline queries or observes.
///
/// Wire codes follow RFC 1035 / RFC 3596.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordType {
    /// IPv4 address record.
    A,
    /// Authoritative nameserver record — the study's main subject.
    Ns,
    /// Canonical-name alias.
    Cname,
    /// Start-of-authority; its MNAME/RNAME fields feed provider
    /// classification.
    Soa,
    /// Reverse-pointer record (the measurement host publishes one).
    Ptr,
    /// Free-form text record.
    Txt,
    /// IPv6 address record.
    Aaaa,
}

impl RecordType {
    /// The RFC wire code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
        }
    }

    /// Decodes a wire code, if it is a type this model supports.
    pub fn from_code(code: u16) -> Option<RecordType> {
        Some(match code {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            _ => return None,
        })
    }

    /// All supported types, in wire-code order.
    pub fn all() -> [RecordType; 7] {
        [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Ptr,
            RecordType::Txt,
            RecordType::Aaaa,
        ]
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Cname => "CNAME",
            RecordType::Soa => "SOA",
            RecordType::Ptr => "PTR",
            RecordType::Txt => "TXT",
            RecordType::Aaaa => "AAAA",
        };
        f.write_str(s)
    }
}

/// Typed rdata for a [`ResourceRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecordData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// An authoritative nameserver hostname.
    Ns(DomainName),
    /// An alias target.
    Cname(DomainName),
    /// Start-of-authority payload.
    Soa(Soa),
    /// A reverse-pointer target.
    Ptr(DomainName),
    /// Text payload.
    Txt(String),
    /// An IPv6 address.
    Aaaa(Ipv6Addr),
}

impl RecordData {
    /// The record type this data belongs to.
    pub fn rtype(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Cname(_) => RecordType::Cname,
            RecordData::Soa(_) => RecordType::Soa,
            RecordData::Ptr(_) => RecordType::Ptr,
            RecordData::Txt(_) => RecordType::Txt,
            RecordData::Aaaa(_) => RecordType::Aaaa,
        }
    }

    /// The NS target, if this is an NS record.
    pub fn as_ns(&self) -> Option<&DomainName> {
        match self {
            RecordData::Ns(n) => Some(n),
            _ => None,
        }
    }

    /// The IPv4 address, if this is an A record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RecordData::A(a) => Some(*a),
            _ => None,
        }
    }

    /// The SOA payload, if this is an SOA record.
    pub fn as_soa(&self) -> Option<&Soa> {
        match self {
            RecordData::Soa(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for RecordData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordData::A(a) => write!(f, "{a}"),
            RecordData::Ns(n) => write!(f, "{n}"),
            RecordData::Cname(n) => write!(f, "{n}"),
            RecordData::Soa(s) => write!(f, "{s}"),
            RecordData::Ptr(n) => write!(f, "{n}"),
            RecordData::Txt(t) => write!(f, "\"{t}\""),
            RecordData::Aaaa(a) => write!(f, "{a}"),
        }
    }
}

/// A single DNS resource record: owner name, TTL, and typed rdata.
///
/// ```
/// use govdns_model::{ResourceRecord, RecordData, RecordType};
/// let rr = ResourceRecord::new(
///     "portal.gov.example".parse()?,
///     3600,
///     RecordData::Ns("ns1.dns-provider.example".parse()?),
/// );
/// assert_eq!(rr.rtype(), RecordType::Ns);
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResourceRecord {
    /// The owner name the record is attached to.
    pub name: DomainName,
    /// Time-to-live in seconds.
    pub ttl: Ttl,
    /// The typed record payload.
    pub data: RecordData,
}

impl ResourceRecord {
    /// Creates a record.
    pub fn new(name: DomainName, ttl: Ttl, data: RecordData) -> Self {
        ResourceRecord { name, ttl, data }
    }

    /// The record's type.
    pub fn rtype(&self) -> RecordType {
        self.data.rtype()
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} IN {} {}", self.name, self.ttl, self.rtype(), self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for t in RecordType::all() {
            assert_eq!(RecordType::from_code(t.code()), Some(t));
        }
        assert_eq!(RecordType::from_code(999), None);
    }

    #[test]
    fn data_type_agreement() {
        let d = RecordData::A(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(d.rtype(), RecordType::A);
        assert_eq!(d.as_a(), Some(Ipv4Addr::new(192, 0, 2, 1)));
        assert!(d.as_ns().is_none());
    }

    #[test]
    fn display_is_zone_file_like() {
        let rr = ResourceRecord::new(
            "x.gov.example".parse().unwrap(),
            300,
            RecordData::Ns("ns1.gov.example".parse().unwrap()),
        );
        assert_eq!(rr.to_string(), "x.gov.example 300 IN NS ns1.gov.example");
    }
}
