use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

/// Days per week; the paper's PDNS stability filter keeps records whose
/// first-seen/last-seen span is at least this many days (the largest
/// resolver cache TTL among BIND, Unbound, MaraDNS, Windows DNS, and
/// Google Public DNS).
pub const DAYS_PER_WEEK: i64 = 7;

/// A calendar year in the study's timeline.
pub type Year = i32;

/// A civil date, stored as days since 1970-01-01 (proleptic Gregorian).
///
/// The longitudinal analyses only need day-resolution timestamps, year
/// bucketing, and day arithmetic, so this type replaces a chrono dependency.
///
/// ```
/// use govdns_model::SimDate;
/// let d = SimDate::from_ymd(2020, 2, 29);
/// assert_eq!(d.year(), 2020);
/// assert_eq!((d + 1).ymd(), (2020, 3, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDate(i64);

impl SimDate {
    /// Builds a date from a year/month/day triple.
    ///
    /// # Panics
    ///
    /// Panics if the month or day is out of range for a civil date.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            (1..=days_in_month(year, month)).contains(&day),
            "day {day} out of range for {year}-{month:02}"
        );
        SimDate(days_from_civil(year, month, day))
    }

    /// Builds a date from a raw day count since 1970-01-01.
    pub fn from_days(days: i64) -> Self {
        SimDate(days)
    }

    /// Days since 1970-01-01 (may be negative).
    pub fn days(self) -> i64 {
        self.0
    }

    /// The `(year, month, day)` triple.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0)
    }

    /// The calendar year.
    pub fn year(self) -> Year {
        self.ymd().0
    }

    /// January 1 of `year`.
    pub fn year_start(year: Year) -> Self {
        SimDate::from_ymd(year, 1, 1)
    }

    /// December 31 of `year`.
    pub fn year_end(year: Year) -> Self {
        SimDate::from_ymd(year, 12, 31)
    }

    /// Number of days from `self` to `other` (positive if `other` is later).
    pub fn days_until(self, other: SimDate) -> i64 {
        other.0 - self.0
    }

    /// The later of two dates.
    pub fn max(self, other: SimDate) -> SimDate {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The earlier of two dates.
    pub fn min(self, other: SimDate) -> SimDate {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl Add<i64> for SimDate {
    type Output = SimDate;
    fn add(self, rhs: i64) -> SimDate {
        SimDate(self.0 + rhs)
    }
}

impl AddAssign<i64> for SimDate {
    fn add_assign(&mut self, rhs: i64) {
        self.0 += rhs;
    }
}

impl Sub<SimDate> for SimDate {
    type Output = i64;
    fn sub(self, rhs: SimDate) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl FromStr for SimDate {
    type Err = String;

    /// Parses `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.splitn(3, '-');
        let err = || format!("invalid date `{s}`, expected YYYY-MM-DD");
        let y: i32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let m: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let d: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if !(1..=12).contains(&m) || !(1..=days_in_month(y, m)).contains(&d) {
            return Err(err());
        }
        Ok(SimDate::from_ymd(y, m, d))
    }
}

/// An inclusive date range `[start, end]`.
///
/// Used for PDNS time-window queries and per-year bucketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DateRange {
    /// First day of the range.
    pub start: SimDate,
    /// Last day of the range (inclusive).
    pub end: SimDate,
}

impl DateRange {
    /// Builds a range; `start` and `end` are both inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes `start`.
    pub fn new(start: SimDate, end: SimDate) -> Self {
        assert!(start <= end, "range end {end} precedes start {start}");
        DateRange { start, end }
    }

    /// The whole calendar year `year`.
    pub fn year(year: Year) -> Self {
        DateRange::new(SimDate::year_start(year), SimDate::year_end(year))
    }

    /// Whether `d` falls inside the range.
    pub fn contains(&self, d: SimDate) -> bool {
        self.start <= d && d <= self.end
    }

    /// Whether two inclusive ranges overlap by at least one day.
    pub fn overlaps(&self, other: &DateRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The intersection of two ranges, if non-empty.
    pub fn intersect(&self, other: &DateRange) -> Option<DateRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start <= end).then_some(DateRange { start, end })
    }

    /// Number of days in the range (≥ 1).
    pub fn len_days(&self) -> i64 {
        self.end - self.start + 1
    }

    /// Iterates over every date in the range.
    pub fn iter(&self) -> impl Iterator<Item = SimDate> + '_ {
        (self.start.days()..=self.end.days()).map(SimDate::from_days)
    }
}

fn is_leap(y: i32) -> bool {
    y % 4 == 0 && (y % 100 != 0 || y % 400 == 0)
}

fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month validated by caller"),
    }
}

// Howard Hinnant's civil-date algorithms (public domain).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(SimDate::from_ymd(1970, 1, 1).days(), 0);
        assert_eq!(SimDate::from_days(0).ymd(), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        assert_eq!(SimDate::from_ymd(2000, 3, 1).days(), 11_017);
        assert_eq!(SimDate::from_ymd(2011, 1, 1).year(), 2011);
        assert_eq!(SimDate::from_ymd(2020, 12, 31) - SimDate::from_ymd(2020, 1, 1), 365);
        assert_eq!(SimDate::from_ymd(2019, 12, 31) - SimDate::from_ymd(2019, 1, 1), 364);
    }

    #[test]
    fn leap_year_handling() {
        assert_eq!((SimDate::from_ymd(2020, 2, 28) + 1).ymd(), (2020, 2, 29));
        assert_eq!((SimDate::from_ymd(2100, 2, 28) + 1).ymd(), (2100, 3, 1));
        assert_eq!((SimDate::from_ymd(2000, 2, 28) + 1).ymd(), (2000, 2, 29));
    }

    #[test]
    #[should_panic(expected = "day 29 out of range")]
    fn rejects_bad_day() {
        let _ = SimDate::from_ymd(2019, 2, 29);
    }

    #[test]
    fn roundtrip_decade() {
        let mut d = SimDate::from_ymd(2010, 1, 1);
        let end = SimDate::from_ymd(2021, 12, 31);
        while d <= end {
            let (y, m, dd) = d.ymd();
            assert_eq!(SimDate::from_ymd(y, m, dd), d);
            d += 1;
        }
    }

    #[test]
    fn display_and_parse() {
        let d = SimDate::from_ymd(2021, 4, 9);
        assert_eq!(d.to_string(), "2021-04-09");
        assert_eq!("2021-04-09".parse::<SimDate>().unwrap(), d);
        assert!("2021-13-01".parse::<SimDate>().is_err());
        assert!("nonsense".parse::<SimDate>().is_err());
    }

    #[test]
    fn range_semantics() {
        let r = DateRange::year(2020);
        assert_eq!(r.len_days(), 366);
        assert!(r.contains(SimDate::from_ymd(2020, 7, 4)));
        assert!(!r.contains(SimDate::from_ymd(2021, 1, 1)));
        let s = DateRange::new(SimDate::from_ymd(2020, 12, 1), SimDate::from_ymd(2021, 2, 1));
        assert!(r.overlaps(&s));
        let i = r.intersect(&s).unwrap();
        assert_eq!(i.start, SimDate::from_ymd(2020, 12, 1));
        assert_eq!(i.end, SimDate::from_ymd(2020, 12, 31));
        let t = DateRange::year(2022);
        assert!(!r.overlaps(&t));
        assert!(r.intersect(&t).is_none());
    }

    #[test]
    fn range_iter_covers_every_day() {
        let r = DateRange::new(SimDate::from_ymd(2020, 2, 27), SimDate::from_ymd(2020, 3, 2));
        let days: Vec<String> = r.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            days,
            vec!["2020-02-27", "2020-02-28", "2020-02-29", "2020-03-01", "2020-03-02"]
        );
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn range_rejects_inverted() {
        let _ = DateRange::new(SimDate::from_ymd(2021, 1, 2), SimDate::from_ymd(2021, 1, 1));
    }
}
