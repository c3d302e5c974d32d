use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use govdns_model::{DateRange, DomainName, RecordData};

use crate::PdnsDb;

/// Parameters of the simulated sensor network.
///
/// Farsight's sensors see only the traffic that happens to flow past them,
/// so a passive database *under*-approximates zone truth: some records are
/// never observed, and first-seen dates lag the record's actual creation.
/// Both effects matter to the study — they are why it validates seed
/// domains against other sources and treats PDNS-derived dates carefully.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Probability that a record is ever observed at all.
    pub coverage: f64,
    /// Maximum lag, in days, between a record appearing in a zone and the
    /// first sensor report (uniform in `0..=max_first_seen_lag_days`).
    pub max_first_seen_lag_days: i64,
    /// Maximum number of days before a record's removal that the last
    /// sensor report occurs.
    pub max_last_seen_lead_days: i64,
}

impl SensorConfig {
    /// Full, instantaneous coverage — sensor output equals zone truth.
    pub fn perfect() -> Self {
        SensorConfig { coverage: 1.0, max_first_seen_lag_days: 0, max_last_seen_lead_days: 0 }
    }

    /// Realistic coverage: a few records missed, observation dates lagging
    /// by up to a couple of weeks.
    pub fn realistic() -> Self {
        SensorConfig { coverage: 0.97, max_first_seen_lag_days: 14, max_last_seen_lead_days: 7 }
    }

    /// Draws whether a record that lived throughout `truth` is observed
    /// and, if so, the span sensors saw it over and its report count.
    fn sense(&self, rng: &mut SmallRng, truth: DateRange) -> Option<(DateRange, u64)> {
        if self.coverage < 1.0 && !rng.gen_bool(self.coverage) {
            return None;
        }
        let lag = if self.max_first_seen_lag_days > 0 {
            rng.gen_range(0..=self.max_first_seen_lag_days)
        } else {
            0
        };
        let lead = if self.max_last_seen_lead_days > 0 {
            rng.gen_range(0..=self.max_last_seen_lead_days)
        } else {
            0
        };
        let start = truth.start + lag;
        let end = truth.end + (-lead);
        if start > end {
            // The record lived for less time than the observation jitter;
            // sensors never caught a stable view of it.
            return None;
        }
        // Report volume scales (roughly) with the record's lifetime.
        let count = (truth.len_days() as u64 / 30).max(1);
        Some((DateRange::new(start, end), count))
    }
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig::realistic()
    }
}

/// The simulated sensor network feeding a [`PdnsDb`].
#[derive(Debug)]
pub struct SensorNetwork {
    config: SensorConfig,
    rng: SmallRng,
    db: PdnsDb,
}

impl SensorNetwork {
    /// Creates a sensor network with its own database.
    pub fn new(config: SensorConfig, seed: u64) -> Self {
        SensorNetwork { config, rng: SmallRng::seed_from_u64(seed), db: PdnsDb::new() }
    }

    /// Reports that `rdata` existed at `name` throughout `truth` (the
    /// record's actual lifetime in the zone). The database receives a
    /// possibly shortened span — or nothing, if no sensor saw the record.
    pub fn report_span(&mut self, name: DomainName, rdata: RecordData, truth: DateRange) {
        self.report_all(&name, [(rdata, truth)]);
    }

    /// Reports a run of `(rdata, truth)` records at `name`, streamed into
    /// one [`PdnsDb::observe_all`] run. Each record draws coverage, lag
    /// and lead exactly as [`report_span`](Self::report_span) would, in
    /// the same order, so a seed yields the same database either way.
    pub fn report_all(
        &mut self,
        name: &DomainName,
        records: impl IntoIterator<Item = (RecordData, DateRange)>,
    ) {
        let SensorNetwork { config, rng, db } = self;
        let observed = records.into_iter().filter_map(|(rdata, truth)| {
            config.sense(rng, truth).map(|(span, n)| (rdata, span, n))
        });
        db.observe_all(name, observed);
    }

    /// Consumes the network, yielding the accumulated database.
    pub fn into_db(self) -> PdnsDb {
        self.db
    }

    /// The database accumulated so far.
    pub fn db(&self) -> &PdnsDb {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::SimDate;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn ns(s: &str) -> RecordData {
        RecordData::Ns(n(s))
    }

    fn years(a: i32, b: i32) -> DateRange {
        DateRange::new(SimDate::from_ymd(a, 1, 1), SimDate::from_ymd(b, 12, 31))
    }

    #[test]
    fn perfect_sensors_record_exact_spans() {
        let mut s = SensorNetwork::new(SensorConfig::perfect(), 1);
        s.report_span(n("a.gov.zz"), ns("ns1.gov.zz"), years(2012, 2018));
        let db = s.into_db();
        let e: Vec<_> = db.lookup(&n("a.gov.zz"), None).collect();
        assert_eq!(e[0].first_seen, SimDate::from_ymd(2012, 1, 1));
        assert_eq!(e[0].last_seen, SimDate::from_ymd(2018, 12, 31));
    }

    #[test]
    fn imperfect_sensors_miss_some_records() {
        let cfg = SensorConfig { coverage: 0.5, ..SensorConfig::perfect() };
        let mut s = SensorNetwork::new(cfg, 42);
        for i in 0..200 {
            s.report_span(
                format!("d{i}.gov.zz").parse().unwrap(),
                ns("ns1.gov.zz"),
                years(2012, 2018),
            );
        }
        let got = s.into_db().len();
        assert!((60..140).contains(&got), "coverage 0.5 kept {got}/200");
    }

    #[test]
    fn lag_shrinks_observed_span() {
        let cfg = SensorConfig {
            coverage: 1.0,
            max_first_seen_lag_days: 10,
            max_last_seen_lead_days: 10,
        };
        let mut s = SensorNetwork::new(cfg, 7);
        s.report_span(n("a.gov.zz"), ns("ns1.gov.zz"), years(2012, 2018));
        let db = s.into_db();
        let e: Vec<_> = db.lookup(&n("a.gov.zz"), None).collect();
        assert!(e[0].first_seen >= SimDate::from_ymd(2012, 1, 1));
        assert!(e[0].last_seen <= SimDate::from_ymd(2018, 12, 31));
        assert!(e[0].first_seen <= SimDate::from_ymd(2012, 1, 11));
    }

    #[test]
    fn ephemeral_records_can_vanish_entirely() {
        let cfg = SensorConfig {
            coverage: 1.0,
            max_first_seen_lag_days: 30,
            max_last_seen_lead_days: 30,
        };
        let mut s = SensorNetwork::new(cfg, 9);
        let day = SimDate::from_ymd(2015, 6, 1);
        for i in 0..50 {
            s.report_span(
                format!("e{i}.gov.zz").parse().unwrap(),
                ns("ns1.gov.zz"),
                DateRange::new(day, day + 2),
            );
        }
        assert!(s.into_db().len() < 50, "some 3-day records should be missed");
    }
}
