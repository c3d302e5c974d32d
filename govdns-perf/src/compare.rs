//! `govdns-bench compare`: judges a change against its parent from
//! alternating runs of both, one verdict per workload and end-to-end
//! metric.
//!
//! - `improved`: at least ten pairs, the change wins at least nine
//!   tenths of them (ties count for neither side), its median is better
//!   by more than the parent's interquartile range, and no more checks
//!   failed than on the parent;
//! - `unresolved`: the parent's own spread (IQR over median) is wider
//!   than the metric's bound, unless every change run beats every
//!   parent run;
//! - `regressed`: the change's median is worse than the parent's by
//!   more than the bound;
//! - `unchanged`: otherwise.

use crate::json::Json;
use crate::stats;

/// Fewest pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// Share of pairs the change must win to claim a gain.
pub const WIN_SHARE: f64 = 0.9;

/// An end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// How much worse, as a share of the parent's median, still counts
    /// as no regression.
    pub bound: f64,
}

/// The end-to-end rules and workload names of a `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message if the document lacks them.
pub fn rules(bench: &Json) -> Result<(Vec<Rule>, Vec<String>), String> {
    let list = |key: &str| {
        bench.get(key).and_then(Json::as_arr).ok_or_else(|| format!("BENCHMARK.json lacks {key}"))
    };
    let mut rules = Vec::new();
    for m in list("end_to_end")? {
        let field = |k: &str| m.get(k).ok_or_else(|| format!("end_to_end entry lacks {k}"));
        rules.push(Rule {
            name: field("name")?.as_str().ok_or("metric name is not a string")?.to_owned(),
            lower_is_better: field("better")?.as_str() == Some("lower"),
            bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
        });
    }
    let workloads = list("workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or("workload without a name")?;
    Ok((rules, workloads))
}

/// One side's runs of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = stats::quartiles(values);
        Side { q1, median, q3 }
    }
}

/// The judgement on one workload and metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent runs.
    pub parent: Side,
    /// Change runs.
    pub change: Side,
    /// Pairs the change won, as a share of all pairs.
    pub win_share: f64,
    /// Pairs compared.
    pub pairs: usize,
    /// `improved`, `unchanged`, `unresolved` or `regressed`.
    pub verdict: &'static str,
}

/// A metric's value in one `results.json`.
fn value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("untraced")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Failed checks of one workload in one `results.json`, both runs.
fn failed(results: &Json, workload: &str) -> f64 {
    ["untraced", "traced"]
        .iter()
        .filter_map(|run| {
            results.get("workloads")?.get(workload)?.get(run)?.get("failed")?.as_f64()
        })
        .sum()
}

/// Judges every workload and metric over `(parent, change)` pairs of
/// `results.json` documents.
///
/// # Errors
///
/// Returns a message naming the first metric missing from a document.
pub fn compare(
    rules: &[Rule],
    workloads: &[String],
    pairs: &[(Json, Json)],
) -> Result<Vec<Verdict>, String> {
    let mut out = Vec::new();
    for workload in workloads {
        let more_failures = pairs.iter().any(|(p, c)| failed(c, workload) > failed(p, workload));
        for rule in rules {
            let mut parent = Vec::new();
            let mut change = Vec::new();
            for (i, (p, c)) in pairs.iter().enumerate() {
                let get = |doc: &Json| {
                    value(doc, workload, &rule.name)
                        .ok_or_else(|| format!("pair {}: no {workload} {}", i + 1, rule.name))
                };
                parent.push(get(p)?);
                change.push(get(c)?);
            }
            // `gain(a, b)` > 0 when b is better than a.
            let gain = |a: f64, b: f64| if rule.lower_is_better { a - b } else { b - a };
            let wins = parent.iter().zip(&change).filter(|(p, c)| gain(**p, **c) > 0.0).count();
            let win_share = wins as f64 / pairs.len().max(1) as f64;
            let (ps, cs) = (Side::of(&parent), Side::of(&change));
            let base = ps.median.abs();
            let spread = stats::ratio(ps.q3 - ps.q1, base);
            let worse_by = stats::ratio(-gain(ps.median, cs.median), base);
            let all_better = change.iter().all(|c| parent.iter().all(|p| gain(*p, *c) > 0.0));
            let verdict = if pairs.len() >= MIN_PAIRS
                && win_share >= WIN_SHARE
                && gain(ps.median, cs.median) > ps.q3 - ps.q1
                && !more_failures
            {
                "improved"
            } else if spread > rule.bound && !all_better {
                "unresolved"
            } else if worse_by > rule.bound {
                "regressed"
            } else {
                "unchanged"
            };
            out.push(Verdict {
                workload: workload.clone(),
                metric: rule.name.clone(),
                parent: ps,
                change: cs,
                win_share,
                pairs: pairs.len(),
                verdict,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn results(rate: f64) -> Json {
        json::parse(&format!(
            r#"{{"workloads": {{"probe": {{"untraced": {{"failed": 0,
                "metrics": {{"domains_per_s": {{"value": {rate}, "unit": "1/s"}}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn judge(parent: &[f64], change: &[f64]) -> &'static str {
        let rule = Rule { name: "domains_per_s".into(), lower_is_better: false, bound: 0.1 };
        let pairs: Vec<(Json, Json)> =
            parent.iter().zip(change).map(|(p, c)| (results(*p), results(*c))).collect();
        compare(&[rule], &["probe".into()], &pairs).unwrap()[0].verdict
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5];
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&parent, &faster), "improved");
        assert_eq!(judge(&parent, &slower), "regressed");
        assert_eq!(judge(&parent, &same), "unchanged");
        // Nine pairs cannot claim a gain, however clear.
        assert_eq!(judge(&parent[..9], &faster[..9]), "unchanged");
        // A parent spread wider than the bound leaves a loss unresolved.
        let noisy = [60.0, 140.0, 60.0, 140.0, 100.0, 60.0, 140.0, 100.0, 60.0, 140.0];
        assert_eq!(judge(&noisy, &slower), "unresolved");
    }
}
