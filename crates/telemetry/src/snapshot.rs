//! Frozen telemetry: [`TelemetrySnapshot`], [`StageSnapshot`], and the
//! §III-D [`QueryLedger`], with text / JSON / CSV rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use govdns_model::json::quoted;

use crate::HistogramSnapshot;

/// A frozen pipeline stage: accumulated wall-clock time and how many
/// spans contributed to it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageSnapshot {
    /// Total wall-clock seconds across all spans of this stage.
    pub total_secs: f64,
    /// Number of spans recorded under this stage.
    pub count: u64,
}

impl StageSnapshot {
    /// Mean seconds per span, or 0 when empty.
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs / self.count as f64
        }
    }
}

/// The campaign's query-load accounting, backing the report's §III-D
/// ethics section.
///
/// Every query the rate limiter admits is booked here: split by
/// measurement round, and summarized per destination so the "bounded
/// load per server" claim is checkable after the fact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryLedger {
    /// Total queries admitted by the rate limiter.
    pub total: u64,
    /// Queries per measurement round (`round1`, `round2`, `soa`,
    /// `side`).
    pub per_round: BTreeMap<String, u64>,
    /// The campaign-wide pacing limit (queries per second).
    pub max_qps: u32,
    /// Configured per-destination query budget (0 = uncapped).
    pub destination_cap: u64,
    /// Distinct destination addresses contacted (among queries the
    /// limiter attributed to a destination; side lookups a resolver
    /// performs on the limiter's behalf are booked without one).
    pub distinct_destinations: u64,
    /// Queries received by the single busiest attributed destination.
    /// The network's own per-destination accounting (the "busiest
    /// destinations" top list) is the ground-truth hot-spot view.
    pub busiest_destination_queries: u64,
    /// Destinations whose accounted load reached the cap.
    pub destinations_at_cap: u64,
}

impl QueryLedger {
    /// Whether the busiest destination stayed within the configured
    /// cap (vacuously true when uncapped).
    pub fn within_cap(&self) -> bool {
        self.destination_cap == 0 || self.busiest_destination_queries <= self.destination_cap
    }

    /// Folds another ledger into this one (totals and per-round counts
    /// sum; limits keep the stricter reading: max of both).
    pub fn merge(&mut self, other: &QueryLedger) {
        self.total += other.total;
        for (round, n) in &other.per_round {
            *self.per_round.entry(round.clone()).or_insert(0) += n;
        }
        self.max_qps = self.max_qps.max(other.max_qps);
        self.destination_cap = self.destination_cap.max(other.destination_cap);
        self.distinct_destinations = self.distinct_destinations.max(other.distinct_destinations);
        self.busiest_destination_queries =
            self.busiest_destination_queries.max(other.busiest_destination_queries);
        self.destinations_at_cap = self.destinations_at_cap.max(other.destinations_at_cap);
    }
}

/// Everything the [`crate::Registry`] knew at snapshot time, as owned
/// data: safe to store in datasets, serialize, merge, and render.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Stage timings by name.
    pub stages: BTreeMap<String, StageSnapshot>,
    /// Published top-N lists by name (`(label, count)`, busiest
    /// first).
    pub toplists: BTreeMap<String, Vec<(String, u64)>>,
    /// The campaign query ledger, if one was published.
    pub ledger: Option<QueryLedger>,
}

impl TelemetrySnapshot {
    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_total(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(name, _)| name.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// Folds another snapshot into this one: counters, gauges, stages,
    /// and ledgers sum; histograms merge bucket-wise; toplists combine
    /// by label and re-rank.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, s) in &other.stages {
            let mine = self.stages.entry(name.clone()).or_default();
            mine.total_secs += s.total_secs;
            mine.count += s.count;
        }
        for (name, entries) in &other.toplists {
            let mine = self.toplists.entry(name.clone()).or_default();
            let mut by_label: BTreeMap<String, u64> = mine.drain(..).collect();
            for (label, n) in entries {
                *by_label.entry(label.clone()).or_insert(0) += n;
            }
            let mut combined: Vec<(String, u64)> = by_label.into_iter().collect();
            combined.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            *mine = combined;
        }
        match (&mut self.ledger, &other.ledger) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (slot @ None, Some(theirs)) => *slot = Some(theirs.clone()),
            _ => {}
        }
    }

    /// Renders the snapshot as an indented, human-readable block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.stages.is_empty() {
            out.push_str("stages (wall clock):\n");
            for (name, s) in &self.stages {
                let _ = writeln!(
                    out,
                    "  {name:<28} {:>10.3} s  ({} span{})",
                    s.total_secs,
                    s.count,
                    if s.count == 1 { "" } else { "s" },
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<28} {v:>10}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<28} {v:>10}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "histograms:                         count       mean        p50        p90        p99        max\n",
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<28} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max,
                );
            }
        }
        for (name, entries) in &self.toplists {
            let _ = writeln!(out, "top {name}:");
            for (rank, (label, n)) in entries.iter().enumerate() {
                let _ = writeln!(out, "  #{:<3} {label:<24} {n:>10}", rank + 1);
            }
        }
        if let Some(ledger) = &self.ledger {
            out.push_str("query ledger (ethics accounting, cf. paper §III-D):\n");
            let _ = writeln!(out, "  total queries admitted       {:>10}", ledger.total);
            for (round, n) in &ledger.per_round {
                let _ = writeln!(out, "    {round:<26} {n:>10}");
            }
            let _ = writeln!(out, "  pacing limit                 {:>10} qps", ledger.max_qps);
            let cap = if ledger.destination_cap == 0 {
                "uncapped".to_owned()
            } else {
                ledger.destination_cap.to_string()
            };
            let _ = writeln!(out, "  per-destination cap          {cap:>10}");
            let _ = writeln!(
                out,
                "  distinct destinations        {:>10}",
                ledger.distinct_destinations
            );
            let _ = writeln!(
                out,
                "  busiest destination load     {:>10}  ({})",
                ledger.busiest_destination_queries,
                if ledger.within_cap() { "within cap" } else { "CAP EXCEEDED" },
            );
            let _ =
                writeln!(out, "  destinations at cap          {:>10}", ledger.destinations_at_cap);
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters and gauges as `govdns_<name>` samples (dots become
    /// underscores), histograms as `_count`/`_sum` plus `quantile`
    /// labels, stage timings as labeled seconds totals, toplists and
    /// the ledger as labeled gauges. Deterministic: everything iterates
    /// in `BTreeMap` order.
    pub fn render_prometheus(&self) -> String {
        fn metric(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 7);
            out.push_str("govdns_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        fn label(value: &str) -> String {
            value.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let m = metric(name);
            let _ = writeln!(out, "# TYPE {m} counter\n{m} {v}");
        }
        for (name, v) in &self.gauges {
            let m = metric(name);
            let _ = writeln!(out, "# TYPE {m} gauge\n{m} {v}");
        }
        for (name, h) in &self.histograms {
            let m = metric(name);
            let _ = writeln!(out, "# TYPE {m} summary");
            for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                let _ = writeln!(out, "{m}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{m}_sum {}\n{m}_count {}", h.sum, h.count);
        }
        if !self.stages.is_empty() {
            out.push_str("# TYPE govdns_stage_seconds_total counter\n");
            for (name, s) in &self.stages {
                let _ = writeln!(
                    out,
                    "govdns_stage_seconds_total{{stage=\"{}\"}} {}",
                    label(name),
                    s.total_secs
                );
            }
            out.push_str("# TYPE govdns_stage_spans_total counter\n");
            for (name, s) in &self.stages {
                let _ = writeln!(
                    out,
                    "govdns_stage_spans_total{{stage=\"{}\"}} {}",
                    label(name),
                    s.count
                );
            }
        }
        if !self.toplists.is_empty() {
            out.push_str("# TYPE govdns_toplist gauge\n");
            for (name, entries) in &self.toplists {
                for (rank, (entry_label, n)) in entries.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "govdns_toplist{{list=\"{}\",rank=\"{}\",label=\"{}\"}} {n}",
                        label(name),
                        rank + 1,
                        label(entry_label),
                    );
                }
            }
        }
        if let Some(ledger) = &self.ledger {
            let _ = writeln!(
                out,
                "# TYPE govdns_ledger_queries_total counter\ngovdns_ledger_queries_total {}",
                ledger.total
            );
            out.push_str("# TYPE govdns_ledger_round_queries_total counter\n");
            for (round, n) in &ledger.per_round {
                let _ = writeln!(
                    out,
                    "govdns_ledger_round_queries_total{{round=\"{}\"}} {n}",
                    label(round)
                );
            }
            for (name, v) in [
                ("govdns_ledger_max_qps", u64::from(ledger.max_qps)),
                ("govdns_ledger_destination_cap", ledger.destination_cap),
                ("govdns_ledger_distinct_destinations", ledger.distinct_destinations),
                ("govdns_ledger_busiest_destination_queries", ledger.busiest_destination_queries),
                ("govdns_ledger_destinations_at_cap", ledger.destinations_at_cap),
            ] {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
            }
        }
        out
    }

    /// Serializes the snapshot as a JSON object, written by hand so that
    /// its key order and number formatting stay byte-stable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_map(&mut out, "counters", &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push(',');
        push_map(&mut out, "gauges", &self.gauges, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push(',');
        push_map(&mut out, "histograms", &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max),
                json_f64(h.p50()),
                json_f64(h.p90()),
                json_f64(h.p99()),
            );
            for (i, (bound, n)) in h.bounds.iter().zip(&h.buckets).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{n}]", json_f64(*bound));
            }
            if let Some(overflow) = h.buckets.last() {
                if h.buckets.len() > h.bounds.len() {
                    if !h.bounds.is_empty() {
                        out.push(',');
                    }
                    let _ = write!(out, "[null,{overflow}]");
                }
            }
            out.push_str("]}");
        });
        out.push(',');
        push_map(&mut out, "stages", &self.stages, |out, s| {
            let _ =
                write!(out, "{{\"total_secs\":{},\"count\":{}}}", json_f64(s.total_secs), s.count);
        });
        out.push(',');
        push_map(&mut out, "toplists", &self.toplists, |out, entries| {
            out.push('[');
            for (i, (label, n)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{n}]", quoted(label));
            }
            out.push(']');
        });
        out.push_str(",\"ledger\":");
        match &self.ledger {
            None => out.push_str("null"),
            Some(ledger) => {
                let _ = write!(
                    out,
                    "{{\"total\":{},\"max_qps\":{},\"destination_cap\":{},\
                     \"distinct_destinations\":{},\"busiest_destination_queries\":{},\
                     \"destinations_at_cap\":{},\"per_round\":",
                    ledger.total,
                    ledger.max_qps,
                    ledger.destination_cap,
                    ledger.distinct_destinations,
                    ledger.busiest_destination_queries,
                    ledger.destinations_at_cap,
                );
                push_map(&mut out, "", &ledger.per_round, |out, v| {
                    let _ = write!(out, "{v}");
                });
                out.push('}');
            }
        }
        out.push('}');
        out
    }

    /// CSV of counters and gauges: `kind,name,value`.
    pub fn scalars_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter,{name},{v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge,{name},{v}");
        }
        out
    }

    /// CSV of stage timings: `stage,total_secs,spans,mean_secs`.
    pub fn stages_csv(&self) -> String {
        let mut out = String::from("stage,total_secs,spans,mean_secs\n");
        for (name, s) in &self.stages {
            let _ = writeln!(out, "{name},{:.6},{},{:.6}", s.total_secs, s.count, s.mean_secs());
        }
        out
    }

    /// CSV of histogram summaries:
    /// `histogram,count,mean,p50,p90,p99,min,max`.
    pub fn histograms_csv(&self) -> String {
        let mut out = String::from("histogram,count,mean,p50,p90,p99,min,max\n");
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.min,
                h.max,
            );
        }
        out
    }

    /// CSV of every published toplist: `list,rank,label,count`.
    pub fn toplists_csv(&self) -> String {
        let mut out = String::from("list,rank,label,count\n");
        for (name, entries) in &self.toplists {
            for (rank, (label, n)) in entries.iter().enumerate() {
                let _ = writeln!(out, "{name},{},{label},{n}", rank + 1);
            }
        }
        out
    }

    /// CSV of the query ledger as `field,value` rows (per-round counts
    /// become `round:<name>` fields). Empty string when no ledger was
    /// published.
    pub fn ledger_csv(&self) -> String {
        let Some(ledger) = &self.ledger else {
            return String::new();
        };
        let mut out = String::from("field,value\n");
        let _ = writeln!(out, "total,{}", ledger.total);
        for (round, n) in &ledger.per_round {
            let _ = writeln!(out, "round:{round},{n}");
        }
        let _ = writeln!(out, "max_qps,{}", ledger.max_qps);
        let _ = writeln!(out, "destination_cap,{}", ledger.destination_cap);
        let _ = writeln!(out, "distinct_destinations,{}", ledger.distinct_destinations);
        let _ = writeln!(out, "busiest_destination_queries,{}", ledger.busiest_destination_queries);
        let _ = writeln!(out, "destinations_at_cap,{}", ledger.destinations_at_cap);
        let _ = writeln!(out, "within_cap,{}", ledger.within_cap());
        out
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn push_map<V>(
    out: &mut String,
    key: &str,
    map: &BTreeMap<String, V>,
    mut render: impl FnMut(&mut String, &V),
) {
    if !key.is_empty() {
        let _ = write!(out, "{}:", quoted(key));
    }
    out.push('{');
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:", quoted(name));
        render(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> TelemetrySnapshot {
        let r = Registry::new();
        r.counter("probe.class.authoritative").add(5);
        r.counter("probe.class.timeout").add(2);
        r.gauge("runner.workers").set(4);
        let h = r.histogram_latency_ms("net.rtt_ms");
        for i in 1..=10 {
            h.record(f64::from(i) * 10.0);
        }
        r.record_stage("round1", std::time::Duration::from_millis(12));
        r.set_toplist("busiest destinations", vec![("10.0.0.1".into(), 7), ("10.0.0.2".into(), 3)]);
        r.set_ledger(QueryLedger {
            total: 7,
            per_round: [("round1".to_owned(), 7)].into_iter().collect(),
            max_qps: 200,
            destination_cap: 100,
            distinct_destinations: 2,
            busiest_destination_queries: 7,
            destinations_at_cap: 0,
        });
        r.snapshot()
    }

    #[test]
    fn render_text_mentions_every_section() {
        let text = sample().render_text();
        for needle in [
            "stages (wall clock)",
            "counters:",
            "gauges:",
            "histograms:",
            "top busiest destinations:",
            "query ledger",
            "probe.class.authoritative",
            "within cap",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = sample().to_json();
        // Hand-rolled writer: check balance and a few spot values.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"probe.class.authoritative\":5"));
        assert!(json.contains("\"total\":7"));
        assert!(json.contains("\"round1\""));
        assert!(!json.contains("\"ledger\":null"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn csv_helpers_have_headers_and_rows() {
        let snap = sample();
        assert!(snap.scalars_csv().starts_with("kind,name,value\n"));
        assert!(snap.scalars_csv().contains("counter,probe.class.timeout,2"));
        assert!(snap.scalars_csv().contains("gauge,runner.workers,4"));
        assert!(snap.stages_csv().lines().count() == 2);
        assert!(snap.histograms_csv().contains("net.rtt_ms,10,"));
        assert!(snap.toplists_csv().contains("busiest destinations,1,10.0.0.1,7"));
        assert!(snap.ledger_csv().contains("round:round1,7"));
        assert!(snap.ledger_csv().contains("within_cap,true"));
        assert!(TelemetrySnapshot::default().ledger_csv().is_empty());
    }

    #[test]
    fn merge_sums_and_reranks() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counters["probe.class.authoritative"], 10);
        assert_eq!(a.histograms["net.rtt_ms"].count, 20);
        assert_eq!(a.stages["round1"].count, 2);
        assert_eq!(a.toplists["busiest destinations"][0], ("10.0.0.1".to_owned(), 14));
        assert_eq!(a.ledger.as_ref().unwrap().total, 14);
        assert_eq!(a.ledger.as_ref().unwrap().per_round["round1"], 14);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = sample().render_prometheus();
        for needle in [
            "# TYPE govdns_probe_class_authoritative counter",
            "govdns_probe_class_authoritative 5",
            "# TYPE govdns_runner_workers gauge",
            "govdns_runner_workers 4",
            "govdns_net_rtt_ms{quantile=\"0.5\"}",
            "govdns_net_rtt_ms_count 10",
            "govdns_stage_seconds_total{stage=\"round1\"}",
            "govdns_toplist{list=\"busiest destinations\",rank=\"1\",label=\"10.0.0.1\"} 7",
            "govdns_ledger_queries_total 7",
            "govdns_ledger_round_queries_total{round=\"round1\"} 7",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Sample lines never carry a dot in the metric name.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(!name.contains('.'), "unsanitized metric name in {line:?}");
        }
    }

    #[test]
    fn counter_total_sums_by_prefix() {
        let snap = sample();
        assert_eq!(snap.counter_total("probe.class."), 7);
        assert_eq!(snap.counter_total("nope"), 0);
    }
}
