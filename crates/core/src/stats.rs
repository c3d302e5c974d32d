//! Small statistics helpers shared by the analyses: the per-year
//! `NS_daily` mode (Fig 5), empirical CDFs (Figs 9 and 12), and
//! percentages.

use govdns_model::DateRange;

/// The mode of a multiset given as `(value, weight)` pairs; ties break
/// toward the smaller value. Returns `None` for an empty input.
pub fn weighted_mode<I>(pairs: I) -> Option<usize>
where
    I: IntoIterator<Item = (usize, i64)>,
{
    let mut weights: std::collections::BTreeMap<usize, i64> = std::collections::BTreeMap::new();
    for (v, w) in pairs {
        *weights.entry(v).or_insert(0) += w;
    }
    weights
        .into_iter()
        .filter(|&(_, w)| w > 0)
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(v, _)| v)
}

/// The paper's Fig-5 computation: given the spans during which individual
/// NS records were active, the number of simultaneously active records
/// per day, reduced to its mode over the days with at least one record.
///
/// Runs as a boundary sweep, not a per-day loop.
pub fn ns_daily_mode(spans: &[DateRange], year: DateRange) -> Option<usize> {
    let mut events: Vec<(i64, i64)> = Vec::new(); // (day, +1/-1)
    for s in spans {
        let Some(i) = s.intersect(&year) else { continue };
        events.push((i.start.days(), 1));
        events.push((i.end.days() + 1, -1));
    }
    if events.is_empty() {
        return None;
    }
    events.sort_unstable();
    let mut weights: Vec<(usize, i64)> = Vec::new();
    let mut active = 0i64;
    let mut prev_day = events[0].0;
    for (day, delta) in events {
        if day > prev_day && active > 0 {
            weights.push((active as usize, day - prev_day));
        }
        active += delta;
        prev_day = day;
    }
    weighted_mode(weights)
}

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF; non-finite samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN or infinite.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| x.is_finite()), "CDF samples must be finite");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0,1]`), by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// `(x, F(x))` points suitable for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted.iter().enumerate().map(|(i, &x)| (x, (i + 1) as f64 / n as f64)).collect()
    }
}

/// `part / whole` as a percentage, 0 when the denominator is 0.
pub fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::SimDate;

    fn d(y: i32, m: u32, dd: u32) -> SimDate {
        SimDate::from_ymd(y, m, dd)
    }

    #[test]
    fn mode_breaks_ties_low() {
        assert_eq!(weighted_mode(vec![(2, 5), (1, 5)]), Some(1));
        assert_eq!(weighted_mode(vec![(3, 10), (1, 5)]), Some(3));
        assert_eq!(weighted_mode(Vec::new()), None);
    }

    #[test]
    fn ns_daily_mode_matches_figure_5() {
        // Fig 5: a domain has 2 NS for most of the year, 1 NS briefly.
        let year = DateRange::year(2015);
        let spans = vec![
            DateRange::new(d(2015, 1, 1), d(2015, 12, 31)), // ns1 all year
            DateRange::new(d(2015, 1, 1), d(2015, 11, 1)),  // ns2 most of it
        ];
        assert_eq!(ns_daily_mode(&spans, year), Some(2));
        // A single record active 3 days: mode 1.
        let brief = vec![DateRange::new(d(2015, 5, 1), d(2015, 5, 3))];
        assert_eq!(ns_daily_mode(&brief, year), Some(1));
        // Nothing active in the year.
        let off = vec![DateRange::new(d(2012, 1, 1), d(2012, 2, 1))];
        assert_eq!(ns_daily_mode(&off, year), None);
    }

    #[test]
    fn ns_daily_mode_handles_replacement() {
        // One NS replaced mid-year by two others: 1 NS for 6 months,
        // 2 NS for 6 months minus a day — mode 1 (ties toward fewer days
        // is impossible here; check both windows).
        let year = DateRange::year(2015);
        let spans = vec![
            DateRange::new(d(2015, 1, 1), d(2015, 6, 30)),
            DateRange::new(d(2015, 7, 1), d(2015, 12, 31)),
            DateRange::new(d(2015, 7, 1), d(2015, 12, 31)),
        ];
        // 181 days at 1 NS vs 184 days at 2 NS.
        assert_eq!(ns_daily_mode(&spans, year), Some(2));
    }

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(2.0), 0.75);
        assert_eq!(cdf.at(10.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(3.0));
        assert_eq!(cdf.points().len(), 4);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn cdf_rejects_nan() {
        Cdf::new(vec![f64::NAN]);
    }

    #[test]
    fn pct_handles_zero() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(3, 0), 0.0);
    }
}
