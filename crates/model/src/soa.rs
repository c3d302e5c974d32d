use std::fmt;

use crate::DomainName;

/// Start-of-authority rdata.
///
/// The study uses the `MNAME` (primary master) and `RNAME` (responsible
/// mailbox) fields to attribute zones to third-party DNS providers whose
/// nameserver hostnames alone are not distinctive, so those two fields are
/// first-class here.
///
/// ```
/// use govdns_model::Soa;
/// let soa = Soa::new(
///     "ns-1.awsdns-00.example".parse()?,
///     "awsdns-hostmaster.amazon.example".parse()?,
/// );
/// assert!(soa.rname.to_string().contains("amazon"));
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Soa {
    /// Primary master nameserver for the zone.
    pub mname: DomainName,
    /// Mailbox of the responsible party, encoded as a domain name.
    pub rname: DomainName,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry interval, seconds.
    pub expire: u32,
    /// Negative-caching TTL, seconds.
    pub minimum: u32,
}

impl Soa {
    /// Creates an SOA with conventional timer defaults.
    pub fn new(mname: DomainName, rname: DomainName) -> Self {
        Soa { mname, rname, serial: 1, refresh: 7200, retry: 900, expire: 1_209_600, minimum: 3600 }
    }

    /// Sets the serial, returning the modified SOA.
    #[must_use]
    pub fn with_serial(mut self, serial: u32) -> Self {
        self.serial = serial;
        self
    }
}

impl fmt::Display for Soa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {} {}",
            self.mname,
            self.rname,
            self.serial,
            self.refresh,
            self.retry,
            self.expire,
            self.minimum
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let soa = Soa::new("ns1.x".parse().unwrap(), "hostmaster.x".parse().unwrap());
        assert_eq!(soa.serial, 1);
        assert!(soa.expire > soa.refresh);
        assert_eq!(soa.with_serial(42).serial, 42);
    }

    #[test]
    fn display_lists_all_fields() {
        let soa = Soa::new("ns1.x".parse().unwrap(), "hm.x".parse().unwrap());
        let s = soa.to_string();
        assert!(s.starts_with("ns1.x hm.x 1 "));
        assert_eq!(s.split_whitespace().count(), 7);
    }
}
