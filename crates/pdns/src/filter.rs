//! The study's record filters (§III-C).
//!
//! Two filters precede every longitudinal analysis:
//!
//! 1. **Stability** — records whose observed span is shorter than 7 days
//!    are dropped. Short-lived records represent misconfigurations, DDoS
//!    protection churn, or expirations; 7 days is the largest default
//!    cache TTL among popular resolvers, so even a quickly corrected error
//!    can echo in sensors for that long.
//! 2. **Earliest government use** — for seed domains identified by a
//!    registered domain rather than a reserved suffix, observations before
//!    the earliest date a government demonstrably used the domain (via the
//!    Web Archive) are excluded.

use govdns_model::{SimDate, DAYS_PER_WEEK};

use crate::{PdnsEntry, PdnsRef};

/// The paper's stability threshold: 7 days.
pub const STABILITY_THRESHOLD_DAYS: i64 = DAYS_PER_WEEK;

/// Whether an entry passes the 7-day stability rule.
pub fn is_stable(entry: &PdnsEntry) -> bool {
    entry.span_days() >= STABILITY_THRESHOLD_DAYS
}

/// [`is_stable`] on a borrowed view, before the entry is materialised.
pub fn is_stable_ref(entry: &PdnsRef<'_>) -> bool {
    entry.span_days() >= STABILITY_THRESHOLD_DAYS
}

/// Keeps only entries whose observed span is at least
/// [`STABILITY_THRESHOLD_DAYS`].
pub fn stable<I>(entries: I) -> impl Iterator<Item = PdnsEntry>
where
    I: IntoIterator<Item = PdnsEntry>,
{
    entries.into_iter().filter(is_stable)
}

/// Keeps only entries still observed on or after `cutoff` — used to trim
/// pre-government history when a registered domain previously belonged to
/// someone else.
pub fn seen_since<I>(entries: I, cutoff: SimDate) -> impl Iterator<Item = PdnsEntry>
where
    I: IntoIterator<Item = PdnsEntry>,
{
    entries.into_iter().filter(move |e| e.last_seen >= cutoff)
}

/// Clamps entries to government use: drops entries entirely before
/// `government_start`, and advances `first_seen` to that date otherwise.
pub fn clamp_to_government_use<I>(
    entries: I,
    government_start: SimDate,
) -> impl Iterator<Item = PdnsEntry>
where
    I: IntoIterator<Item = PdnsEntry>,
{
    entries.into_iter().filter_map(move |e| clamped_to_government_use(e, government_start))
}

/// [`clamp_to_government_use`] for one entry: `None` if it ended before
/// `government_start`, else the entry with `first_seen` advanced to it.
pub fn clamped_to_government_use(
    mut entry: PdnsEntry,
    government_start: SimDate,
) -> Option<PdnsEntry> {
    if entry.last_seen < government_start {
        return None;
    }
    entry.first_seen = entry.first_seen.max(government_start);
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::{DomainName, RecordData};

    fn entry(first: SimDate, last: SimDate) -> PdnsEntry {
        let name: DomainName = "a.gov.zz".parse().unwrap();
        PdnsEntry {
            name: name.clone(),
            rdata: RecordData::Ns("ns1.gov.zz".parse().unwrap()),
            first_seen: first,
            last_seen: last,
            count: 1,
        }
    }

    fn d(y: i32, m: u32, dd: u32) -> SimDate {
        SimDate::from_ymd(y, m, dd)
    }

    #[test]
    fn stability_threshold_is_seven_days() {
        assert!(!is_stable(&entry(d(2015, 1, 1), d(2015, 1, 7)))); // 6-day span
        assert!(is_stable(&entry(d(2015, 1, 1), d(2015, 1, 8)))); // 7-day span
        let kept: Vec<_> =
            stable(vec![entry(d(2015, 1, 1), d(2015, 1, 2)), entry(d(2015, 1, 1), d(2016, 1, 1))])
                .collect();
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn seen_since_drops_expired_history() {
        let kept: Vec<_> = seen_since(
            vec![entry(d(2011, 1, 1), d(2012, 1, 1)), entry(d(2011, 1, 1), d(2020, 1, 1))],
            d(2015, 1, 1),
        )
        .collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].last_seen, d(2020, 1, 1));
    }

    #[test]
    fn clamp_advances_first_seen() {
        let kept: Vec<_> = clamp_to_government_use(
            vec![
                entry(d(2011, 1, 1), d(2012, 1, 1)), // entirely pre-government
                entry(d(2011, 1, 1), d(2020, 1, 1)), // straddles the cutoff
                entry(d(2016, 1, 1), d(2020, 1, 1)), // entirely after
            ],
            d(2014, 6, 1),
        )
        .collect();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].first_seen, d(2014, 6, 1));
        assert_eq!(kept[1].first_seen, d(2016, 1, 1));
    }
}
