use std::collections::BTreeMap;

use govdns_model::{DomainName, SimDate};

/// The Web Archive stand-in: for each government-registered domain, the
/// earliest date a snapshot shows a government running a website there.
///
/// The paper uses this to bound PDNS history for seed domains that are
/// registered domains rather than reserved suffixes — a domain may have
/// had a previous, non-government life.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WebArchive {
    earliest: BTreeMap<DomainName, SimDate>,
}

impl WebArchive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        WebArchive::default()
    }

    /// Records the earliest government snapshot for `domain`.
    pub fn record(&mut self, domain: DomainName, date: SimDate) {
        self.earliest.entry(domain).and_modify(|d| *d = (*d).min(date)).or_insert(date);
    }

    /// The earliest government snapshot covering `domain`: an exact entry,
    /// or the entry of the closest enclosing recorded domain.
    pub fn earliest_government_use(&self, domain: &DomainName) -> Option<SimDate> {
        domain.ancestors().find_map(|anc| self.earliest.get(&anc).copied())
    }

    /// The earliest snapshot recorded for *exactly* `domain` — no
    /// inheritance from enclosing names. This is how seed selection pins
    /// down which ancestor is the government-registered domain.
    pub fn earliest_exact(&self, domain: &DomainName) -> Option<SimDate> {
        self.earliest.get(domain).copied()
    }

    /// Number of recorded domains.
    pub fn len(&self) -> usize {
        self.earliest.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.earliest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u32, dd: u32) -> SimDate {
        SimDate::from_ymd(y, m, dd)
    }

    #[test]
    fn records_and_inherits() {
        let mut wa = WebArchive::new();
        wa.record("regjeringen.no".parse().unwrap(), d(2004, 5, 1));
        assert_eq!(
            wa.earliest_government_use(&"www.regjeringen.no".parse().unwrap()),
            Some(d(2004, 5, 1))
        );
        assert_eq!(
            wa.earliest_government_use(&"regjeringen.no".parse().unwrap()),
            Some(d(2004, 5, 1))
        );
        assert_eq!(wa.earliest_government_use(&"other.no".parse().unwrap()), None);
    }

    #[test]
    fn keeps_the_earliest() {
        let mut wa = WebArchive::new();
        wa.record("jis.gov.jm".parse().unwrap(), d(2008, 1, 1));
        wa.record("jis.gov.jm".parse().unwrap(), d(2003, 1, 1));
        wa.record("jis.gov.jm".parse().unwrap(), d(2010, 1, 1));
        assert_eq!(wa.earliest_government_use(&"jis.gov.jm".parse().unwrap()), Some(d(2003, 1, 1)));
        assert_eq!(wa.len(), 1);
    }
}
