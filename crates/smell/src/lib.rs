//! # govdns-smell
//!
//! Operational smell detection with trace-cited evidence — the §V
//! companion to the measurement pipeline, per Radwan & Heckel's smell
//! catalogue ("Detecting and Refactoring Operational Smells within the
//! DNS"). The detectors themselves run over the measured delegation
//! graph in `govdns-core` ([`SmellAnalysis`], re-exported here); this
//! crate wraps them into a [`SmellReport`]:
//!
//! * **byte-stable canonical JSON** — fixed field order, no whitespace,
//!   integer severities: identically seeded campaigns produce
//!   byte-identical reports at any worker count, so the report is a CI
//!   gate artifact (same discipline as the SPOF and diff reports);
//! * **evidence chains** — every verdict cites flight-recorder events
//!   by `(domain, seq)`; `govdns_trace::TraceLog::resolve` checks each
//!   citation against the trace file;
//! * **filters and explain** — per-kind filtering and per-domain
//!   drill-downs for the `govdns smell` CLI;
//! * **round-tripping** — [`SmellReport::from_canonical_json`] parses a
//!   written report back, exactly, for `inspect` mode and for the
//!   smell-transition section of `govdns-diff`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use govdns_model::json::{self, escape_into, Json};
use govdns_model::DomainName;
use govdns_trace::Step;

pub use govdns_core::analysis::smells::{
    cycle_severity, glue_severity, lame_severity, monoculture_severity, stale_severity, Citation,
    SmellAnalysis, SmellKind, SmellVerdict,
};

/// A finished smell report: the analysis plus the campaign recipe that
/// produced it, with a byte-stable canonical encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct SmellReport {
    /// World/chaos/sampling seed of the run.
    pub seed: u64,
    /// Campaign scale, parts per million of the generated world.
    pub scale_ppm: u64,
    /// The smell pass (verdicts ordered by `(domain, kind)`).
    pub analysis: SmellAnalysis,
}

impl SmellReport {
    /// Wraps a computed analysis with its run recipe.
    pub fn from_analysis(analysis: &SmellAnalysis, seed: u64, scale_ppm: u64) -> Self {
        SmellReport { seed, scale_ppm, analysis: analysis.clone() }
    }

    /// Keeps only verdicts of one kind (summary counters recomputed).
    pub fn filtered(&self, kind: SmellKind) -> SmellReport {
        let verdicts: Vec<SmellVerdict> =
            self.analysis.verdicts.iter().filter(|v| v.kind == kind).cloned().collect();
        SmellReport { seed: self.seed, scale_ppm: self.scale_ppm, analysis: rebuild(verdicts) }
    }

    /// The canonical byte-stable encoding: fixed field order, no
    /// whitespace, integers only — two identically seeded runs produce
    /// identical bytes at any worker count.
    pub fn canonical_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ =
            write!(out, "{{\"seed\":{},\"scale_ppm\":{},\"verdicts\":[", self.seed, self.scale_ppm);
        for (i, v) in self.analysis.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"domain\":");
            escape_into(&v.domain.to_string(), &mut out);
            out.push_str(",\"country\":");
            escape_into(&v.country.to_string(), &mut out);
            let _ = write!(
                out,
                ",\"kind\":\"{}\",\"severity\":{},\"detail\":",
                v.kind.as_str(),
                v.severity
            );
            escape_into(&v.detail, &mut out);
            out.push_str(",\"refactoring\":");
            escape_into(&v.refactoring, &mut out);
            out.push_str(",\"evidence\":[");
            for (j, c) in v.evidence.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ =
                    write!(out, "{{\"seq\":{},\"step\":\"{}\",\"line\":", c.seq, c.step.as_str());
                escape_into(&c.line, &mut out);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("],\"by_kind\":{");
        for (i, (kind, count)) in self.analysis.by_kind.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\":{count}");
        }
        let _ = write!(
            out,
            "}},\"domains_affected\":{},\"evidence_cited\":{}}}",
            self.analysis.domains_affected, self.analysis.evidence_cited
        );
        out
    }

    /// Parses a canonical report back, exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_canonical_json(text: &str) -> Result<SmellReport, String> {
        let root = json::parse(text)?;
        let seed = root.get("seed").and_then(Json::as_u64).ok_or("missing seed")?;
        let scale_ppm = root.get("scale_ppm").and_then(Json::as_u64).ok_or("missing scale_ppm")?;
        let mut verdicts = Vec::new();
        for v in root.get("verdicts").and_then(Json::as_arr).ok_or("missing verdicts")? {
            let field = |k: &str| -> Result<&str, String> {
                v.get(k).and_then(Json::as_str).ok_or(format!("verdict missing {k}"))
            };
            let kind_label = field("kind")?;
            let kind =
                SmellKind::parse(kind_label).ok_or(format!("unknown smell kind {kind_label}"))?;
            let mut evidence = Vec::new();
            for c in v.get("evidence").and_then(Json::as_arr).ok_or("verdict missing evidence")? {
                let step = c.get("step").and_then(Json::as_str).ok_or("citation missing step")?;
                evidence.push(Citation {
                    seq: u32_field(c, "seq", "citation")?,
                    step: Step::parse(step).ok_or(format!("unknown citation step {step}"))?,
                    line: c
                        .get("line")
                        .and_then(Json::as_str)
                        .ok_or("citation missing line")?
                        .to_owned(),
                });
            }
            verdicts.push(SmellVerdict {
                kind,
                domain: field("domain")?.parse().map_err(|e| format!("bad domain: {e:?}"))?,
                country: field("country")?.parse()?,
                severity: u32_field(v, "severity", "verdict")?,
                detail: field("detail")?.to_owned(),
                refactoring: field("refactoring")?.to_owned(),
                evidence,
            });
        }
        let mut analysis = rebuild(verdicts);
        // Trust the recorded evidence tally (rebuild recomputes it from
        // the verdicts, which is the same number by construction — but
        // asserting the file's own value keeps round trips exact).
        analysis.evidence_cited =
            root.get("evidence_cited").and_then(Json::as_u64).ok_or("missing evidence_cited")?;
        Ok(SmellReport { seed, scale_ppm, analysis })
    }

    /// Deterministic human-readable summary (no worker counts, no
    /// paths — safe to `diff` across runs in CI smokes).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== operational smells (seed {}, scale {} ppm) ==",
            self.seed, self.scale_ppm
        );
        let _ = writeln!(
            out,
            "verdicts: {} across {} domains  |  evidence events cited: {}",
            self.analysis.verdicts.len(),
            self.analysis.domains_affected,
            self.analysis.evidence_cited
        );
        out.push_str(&self.analysis.table().to_text());
        out.push_str("worst verdicts:\n");
        out.push_str(&self.analysis.verdict_table(15).to_text());
        out
    }

    /// One-row-per-verdict CSV.
    pub fn to_csv(&self) -> String {
        self.analysis.to_csv()
    }

    /// The per-domain drill-down: every verdict on `domain` with its
    /// full evidence chain, or `None` when the domain is clean (or was
    /// never probed).
    pub fn explain(&self, domain: &DomainName) -> Option<String> {
        let verdicts = self.analysis.for_domain(domain);
        if verdicts.is_empty() {
            return None;
        }
        let mut out = String::new();
        let _ = writeln!(out, "{domain} — {} smell(s)", verdicts.len());
        for v in verdicts {
            let _ = writeln!(out, "  [{}] severity {}", v.kind.as_str(), v.severity);
            let _ = writeln!(out, "    {}", v.detail);
            let _ = writeln!(out, "    refactoring: {}", v.refactoring);
            if v.evidence.is_empty() {
                let _ = writeln!(out, "    evidence: (domain not sampled by the flight recorder)");
            } else {
                let _ = writeln!(out, "    evidence ({} events):", v.evidence.len());
                for c in &v.evidence {
                    let _ = writeln!(out, "      {}", c.line);
                }
            }
        }
        Some(out)
    }
}

/// Recomputes the summary counters over a verdict subset.
fn rebuild(verdicts: Vec<SmellVerdict>) -> SmellAnalysis {
    let mut by_kind = std::collections::BTreeMap::new();
    for v in &verdicts {
        *by_kind.entry(v.kind.as_str().to_owned()).or_insert(0usize) += 1;
    }
    let domains_affected = verdicts
        .iter()
        .map(|v| v.domain.to_string())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let evidence_cited = verdicts.iter().map(|v| v.evidence.len() as u64).sum();
    SmellAnalysis { verdicts, by_kind, domains_affected, evidence_cited }
}

/// Reads `obj[key]` as a `u32`; a missing, non-integer or wider value
/// is an error naming the `what` that lacks it.
fn u32_field(obj: &Json, key: &str, what: &str) -> Result<u32, String> {
    let value = obj.get(key).and_then(Json::as_u64).ok_or(format!("{what} missing {key}"))?;
    u32::try_from(value).map_err(|_| format!("{what} {key} {value} exceeds u32"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_world::CountryCode;

    fn n(s: &str) -> DomainName {
        s.parse().expect("valid test name")
    }

    fn sample() -> SmellReport {
        let verdicts = vec![
            SmellVerdict {
                kind: SmellKind::LameDelegation,
                domain: n("a.gov.zz"),
                country: CountryCode::new("zz"),
                severity: 65,
                detail: "1 of 2 listed nameservers do not serve the zone: [ns2.x.net]".to_owned(),
                refactoring: "drop or repair the lame NS records [ns2.x.net]".to_owned(),
                evidence: vec![Citation {
                    seq: 7,
                    step: Step::DirectProbe,
                    line: "#007 [direct_probe] response class=timeout dst=198.51.100.1 attempt=0 ms=1500".to_owned(),
                }],
            },
            SmellVerdict {
                kind: SmellKind::SingleHomedGlue,
                domain: n("b.gov.zz"),
                country: CountryCode::new("zz"),
                severity: 50,
                detail: "2 nameserver(s) resolve to 2 address(es), all in 192.0.2.0/24".to_owned(),
                refactoring: "add a replica in a different /24 network".to_owned(),
                evidence: Vec::new(),
            },
        ];
        SmellReport { seed: 7, scale_ppm: 10_000, analysis: rebuild(verdicts) }
    }

    #[test]
    fn canonical_json_round_trips_exactly() {
        let report = sample();
        let json = report.canonical_json();
        let back = SmellReport::from_canonical_json(&json).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.canonical_json(), json);
    }

    #[test]
    fn canonical_json_shape_is_fixed() {
        let json = sample().canonical_json();
        assert!(json.starts_with("{\"seed\":7,\"scale_ppm\":10000,\"verdicts\":["));
        assert!(json.contains("\"by_kind\":{\"lame_delegation\":1,\"single_homed_glue\":1}"));
        assert!(json.ends_with("\"domains_affected\":2,\"evidence_cited\":1}"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn decoder_rejects_wide_numbers_and_unknown_steps() {
        let json = sample().canonical_json();
        // 2^32 + 5 must not read back as 5.
        for (from, to) in [
            ("\"seq\":7", "\"seq\":4294967301"),
            ("\"severity\":65", "\"severity\":4294967301"),
            ("\"step\":\"direct_probe\"", "\"step\":\"no_such_step\""),
        ] {
            assert!(json.contains(from), "{from}");
            let bad = json.replacen(from, to, 1);
            assert!(SmellReport::from_canonical_json(&bad).is_err(), "{to} decoded");
        }
    }

    #[test]
    fn filtering_recomputes_summary() {
        let lame = sample().filtered(SmellKind::LameDelegation);
        assert_eq!(lame.analysis.verdicts.len(), 1);
        assert_eq!(lame.analysis.domains_affected, 1);
        assert_eq!(lame.analysis.evidence_cited, 1);
        assert!(!lame.analysis.by_kind.contains_key("single_homed_glue"));
        let empty = sample().filtered(SmellKind::CyclicDependency);
        assert!(empty.analysis.verdicts.is_empty());
    }

    #[test]
    fn explain_carries_evidence_lines() {
        let report = sample();
        let text = report.explain(&n("a.gov.zz")).expect("has verdicts");
        assert!(text.contains("[lame_delegation] severity 65"));
        assert!(text.contains("#007 [direct_probe]"));
        // The name is matched, not the typed text.
        assert_eq!(report.explain(&n("A.Gov.ZZ.")), Some(text));
        assert!(report.explain(&n("clean.gov.zz")).is_none());
    }

    #[test]
    fn render_text_is_deterministic() {
        assert_eq!(sample().render_text(), sample().render_text());
        assert!(sample().render_text().contains("operational smells (seed 7"));
    }
}
