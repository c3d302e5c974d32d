use govdns_model::{DateRange, DomainName, SimDate};

use crate::country::CountryCode;
use crate::deployment::DeploymentStyle;

/// One stretch of a domain's deployment history during which its NS set
/// was stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// When this deployment was in effect.
    pub span: DateRange,
    /// Who operated the nameservers.
    pub style: DeploymentStyle,
    /// The NS RRset during the epoch.
    pub ns_hosts: Vec<DomainName>,
}

impl Epoch {
    /// Whether the domain ran on a single nameserver during this epoch.
    pub fn single_ns(&self) -> bool {
        self.ns_hosts.len() == 1
    }
}

/// A domain's full deployment history: chronological, non-overlapping
/// epochs from creation to removal (or to the present).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainTimeline {
    /// The domain.
    pub name: DomainName,
    /// The government operating it.
    pub country: CountryCode,
    /// Deployment epochs, chronological.
    pub epochs: Vec<Epoch>,
}

impl DomainTimeline {
    /// Creates a timeline with no epochs yet.
    pub fn new(name: DomainName, country: CountryCode) -> Self {
        DomainTimeline { name, country, epochs: Vec::new() }
    }

    /// Appends an epoch.
    ///
    /// # Panics
    ///
    /// Panics if the epoch starts before the previous one ends — the
    /// generator must produce chronological histories.
    pub fn push(&mut self, epoch: Epoch) {
        if let Some(last) = self.epochs.last() {
            assert!(
                epoch.span.start > last.span.end,
                "epoch starting {} overlaps previous ending {} for {}",
                epoch.span.start,
                last.span.end,
                self.name
            );
        }
        self.epochs.push(epoch);
    }

    /// Date the domain first appeared, if it has any history.
    pub fn created(&self) -> Option<SimDate> {
        self.epochs.first().map(|e| e.span.start)
    }

    /// Date the domain's last epoch ends.
    pub fn ends(&self) -> Option<SimDate> {
        self.epochs.last().map(|e| e.span.end)
    }

    /// The epoch in effect on `date`, if any.
    pub fn at(&self, date: SimDate) -> Option<&Epoch> {
        self.epochs.iter().find(|e| e.span.contains(date))
    }

    /// Whether any epoch overlaps `window`.
    pub fn active_in(&self, window: &DateRange) -> bool {
        self.epochs.iter().any(|e| e.span.overlaps(window))
    }

    /// Whether the domain ran on a single nameserver for the majority of
    /// its active days in `window` — the paper's per-year `NS_daily` mode
    /// reduced to the generator's epoch representation.
    pub fn mostly_single_ns_in(&self, window: &DateRange) -> bool {
        let mut single = 0i64;
        let mut multi = 0i64;
        for e in &self.epochs {
            if let Some(overlap) = e.span.intersect(window) {
                if e.single_ns() {
                    single += overlap.len_days();
                } else {
                    multi += overlap.len_days();
                }
            }
        }
        single > 0 && single >= multi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u32, dd: u32) -> SimDate {
        SimDate::from_ymd(y, m, dd)
    }

    fn epoch(from: SimDate, to: SimDate, hosts: &[&str]) -> Epoch {
        Epoch {
            span: DateRange::new(from, to),
            style: DeploymentStyle::Private,
            ns_hosts: hosts.iter().map(|h| h.parse().unwrap()).collect(),
        }
    }

    fn timeline() -> DomainTimeline {
        let mut t = DomainTimeline::new("a.gov.zz".parse().unwrap(), CountryCode::new("zz"));
        t.push(epoch(d(2012, 3, 1), d(2016, 5, 1), &["ns1.a.gov.zz"]));
        t.push(epoch(d(2016, 5, 2), d(2021, 4, 1), &["ns1.a.gov.zz", "ns2.a.gov.zz"]));
        t
    }

    #[test]
    fn accessors() {
        let t = timeline();
        assert_eq!(t.created(), Some(d(2012, 3, 1)));
        assert_eq!(t.ends(), Some(d(2021, 4, 1)));
        assert!(t.at(d(2014, 1, 1)).unwrap().single_ns());
        assert!(!t.at(d(2018, 1, 1)).unwrap().single_ns());
        assert!(t.at(d(2011, 1, 1)).is_none());
    }

    #[test]
    fn activity_windows() {
        let t = timeline();
        assert!(t.active_in(&DateRange::year(2013)));
        assert!(!t.active_in(&DateRange::year(2011)));
        assert!(t.active_in(&DateRange::year(2021)));
    }

    #[test]
    fn single_ns_majority_per_year() {
        let t = timeline();
        assert!(t.mostly_single_ns_in(&DateRange::year(2014)));
        assert!(!t.mostly_single_ns_in(&DateRange::year(2018)));
        // 2016 splits May 1 / May 2: multi holds the majority of days.
        assert!(!t.mostly_single_ns_in(&DateRange::year(2016)));
        assert!(!t.mostly_single_ns_in(&DateRange::year(2011)));
    }

    #[test]
    #[should_panic(expected = "overlaps previous")]
    fn rejects_overlapping_epochs() {
        let mut t = DomainTimeline::new("a.gov.zz".parse().unwrap(), CountryCode::new("zz"));
        t.push(epoch(d(2012, 1, 1), d(2014, 1, 1), &["ns1.a.gov.zz"]));
        t.push(epoch(d(2013, 1, 1), d(2015, 1, 1), &["ns2.a.gov.zz"]));
    }
}
