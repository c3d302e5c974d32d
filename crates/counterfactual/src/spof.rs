//! The ranked single-points-of-failure report: which shared
//! infrastructure, when it fails, darkens the most governments.
//!
//! Every rendering (text table, CSV, canonical JSON) is a deterministic
//! function of the sweep inputs: entries are ranked by governments
//! darkened with fixed tiebreaks, collections are sorted, and the JSON
//! is hand-written with a fixed field order so CI can byte-compare two
//! identically-seeded sweeps.

use std::fmt::Write as _;

use govdns_core::DomainClass;
use govdns_model::json::quoted;

use crate::recovery::RecoveryEntry;
use crate::scenario::ScenarioKind;

/// One darkened domain's class transition under a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Darkened {
    /// The domain.
    pub domain: String,
    /// The country whose government it belongs to.
    pub country: String,
    /// Baseline class (resolvable: degraded or authoritative).
    pub from: DomainClass,
    /// Scenario class (dark: stale, removed, or unreachable).
    pub to: DomainClass,
}

/// One scenario's ranked outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpofEntry {
    /// Scenario identifier, `kind:subject`.
    pub id: String,
    /// Scenario family.
    pub kind: ScenarioKind,
    /// The failing subject.
    pub subject: String,
    /// Individual addresses in the blast set.
    pub blast_addrs: usize,
    /// Whole /24s in the blast set.
    pub blast_prefixes: usize,
    /// Baseline domains touching the blast set.
    pub candidate_domains: usize,
    /// Domains that went from resolvable to dark.
    pub domains_darkened: usize,
    /// Countries with at least one darkened domain.
    pub countries_darkened: usize,
    /// The darkened countries, sorted.
    pub countries: Vec<String>,
    /// Every darkened domain's transition, sorted by domain.
    pub darkened: Vec<Darkened>,
}

/// The ranked report over a full scenario sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpofReport {
    /// World seed of the sweep.
    pub seed: u64,
    /// World scale in parts-per-million.
    pub scale_ppm: u64,
    /// Baseline domains measured.
    pub baseline_domains: usize,
    /// Baseline domains already dark before any scenario.
    pub baseline_dark: usize,
    /// Scenario outcomes, ranked: countries darkened desc, then domains
    /// darkened desc, then id.
    pub entries: Vec<SpofEntry>,
    /// TTL-driven recovery timelines, one per swept scenario in ranked
    /// order — empty unless the sweep ran with recovery modeling, and
    /// omitted from every rendering when empty (so reports without it
    /// are byte-identical to pre-recovery reports).
    pub recovery: Vec<RecoveryEntry>,
}

/// Whether a class counts as dark: no authoritative answer reached the
/// vantage point (unreachable, removed, or stale).
pub fn is_dark(class: DomainClass) -> bool {
    class <= DomainClass::Stale
}

impl SpofReport {
    /// Sorts `entries` into rank order (in place, then returns self) —
    /// the one ordering every rendering shares. Recovery timelines are
    /// re-threaded onto the same order, so rank N's timeline is always
    /// `recovery[N]`.
    #[must_use]
    pub fn ranked(mut self) -> Self {
        self.entries.sort_by(|a, b| {
            b.countries_darkened
                .cmp(&a.countries_darkened)
                .then_with(|| b.domains_darkened.cmp(&a.domains_darkened))
                .then_with(|| a.id.cmp(&b.id))
        });
        if !self.recovery.is_empty() {
            let mut by_id: std::collections::BTreeMap<String, RecoveryEntry> =
                self.recovery.drain(..).map(|r| (r.id.clone(), r)).collect();
            self.recovery = self.entries.iter().filter_map(|e| by_id.remove(&e.id)).collect();
        }
        self
    }

    /// A copy restricted to one country: darkened lists are filtered to
    /// `cc`, counts recomputed, scenarios that no longer darken anything
    /// dropped, and the remainder re-ranked.
    #[must_use]
    pub fn filtered_by_country(&self, cc: &str) -> SpofReport {
        let entries: Vec<SpofEntry> = self
            .entries
            .iter()
            .filter_map(|e| {
                let darkened: Vec<Darkened> =
                    e.darkened.iter().filter(|d| d.country == cc).cloned().collect();
                if darkened.is_empty() {
                    return None;
                }
                Some(SpofEntry {
                    domains_darkened: darkened.len(),
                    countries_darkened: 1,
                    countries: vec![cc.to_owned()],
                    darkened,
                    ..e.clone()
                })
            })
            .collect();
        let kept: std::collections::BTreeSet<&str> =
            entries.iter().map(|e| e.id.as_str()).collect();
        let recovery = self
            .recovery
            .iter()
            .filter(|r| kept.contains(r.id.as_str()))
            .map(|r| RecoveryEntry {
                domains: r.domains.iter().filter(|d| d.country == cc).cloned().collect(),
                ..r.clone()
            })
            .collect();
        SpofReport { entries, recovery, ..self.clone() }.ranked()
    }

    /// The ranked table, fixed-width text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "single points of failure (seed {}, scale_ppm {}, {} scenarios, baseline {} domains, \
             {} already dark)",
            self.seed,
            self.scale_ppm,
            self.entries.len(),
            self.baseline_domains,
            self.baseline_dark
        );
        let _ = writeln!(
            out,
            "{:>4}  {:<40} {:<8} {:>9} {:>8} {:>10} {:>6}",
            "rank", "scenario", "kind", "countries", "domains", "candidates", "blast"
        );
        for (i, e) in self.entries.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4}  {:<40} {:<8} {:>9} {:>8} {:>10} {:>6}",
                i + 1,
                e.id,
                e.kind,
                e.countries_darkened,
                e.domains_darkened,
                e.candidate_domains,
                format!("{}a/{}p", e.blast_addrs, e.blast_prefixes),
            );
        }
        if !self.recovery.is_empty() {
            let (w, s) = (self.recovery[0].window_s, self.recovery[0].step_s);
            let _ = writeln!(out, "\nrecovery timelines (window {w}s, step {s}s)");
            let _ = writeln!(
                out,
                "{:<40} {:<28} {:>3} {:>9} {:>9}",
                "scenario", "domain", "cc", "dark_at_s", "recover_s"
            );
            for r in &self.recovery {
                for d in &r.domains {
                    let _ = writeln!(
                        out,
                        "{:<40} {:<28} {:>3} {:>9} {:>9}",
                        r.id,
                        d.domain,
                        d.country,
                        d.dark_at_s.map_or_else(|| "-".to_owned(), |t| t.to_string()),
                        d.recover_s.map_or_else(|| "-".to_owned(), |t| t.to_string()),
                    );
                }
            }
        }
        out
    }

    /// CSV: one row per scenario, rank order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "rank,id,kind,subject,blast_addrs,blast_prefixes,candidate_domains,\
             domains_darkened,countries_darkened,countries\n",
        );
        for (i, e) in self.entries.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{}",
                i + 1,
                e.id,
                e.kind,
                e.subject,
                e.blast_addrs,
                e.blast_prefixes,
                e.candidate_domains,
                e.domains_darkened,
                e.countries_darkened,
                e.countries.join(";"),
            );
        }
        if !self.recovery.is_empty() {
            out.push_str("\nscenario,window_s,step_s,domain,country,dark_at_s,recover_s\n");
            for r in &self.recovery {
                for d in &r.domains {
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{},{},{}",
                        r.id,
                        r.window_s,
                        r.step_s,
                        d.domain,
                        d.country,
                        d.dark_at_s.map_or_else(String::new, |t| t.to_string()),
                        d.recover_s.map_or_else(String::new, |t| t.to_string()),
                    );
                }
            }
        }
        out
    }

    /// Canonical JSON: hand-written, fixed field order, sorted
    /// collections — byte-stable across identically-seeded sweeps at
    /// any worker count.
    pub fn canonical_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"seed\":{},\"scale_ppm\":{},\"baseline\":{{\"domains\":{},\"dark\":{}}},\
             \"entries\":[",
            self.seed, self.scale_ppm, self.baseline_domains, self.baseline_dark
        );
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"kind\":\"{}\",\"subject\":{},\"blast_addrs\":{},\
                 \"blast_prefixes\":{},\"candidate_domains\":{},\"domains_darkened\":{},\
                 \"countries_darkened\":{},\"countries\":[",
                quoted(&e.id),
                e.kind,
                quoted(&e.subject),
                e.blast_addrs,
                e.blast_prefixes,
                e.candidate_domains,
                e.domains_darkened,
                e.countries_darkened,
            );
            for (j, c) in e.countries.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", quoted(c));
            }
            out.push_str("],\"darkened\":[");
            for (j, d) in e.darkened.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"domain\":{},\"country\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                    quoted(&d.domain),
                    quoted(&d.country),
                    d.from,
                    d.to,
                );
            }
            out.push_str("]}");
        }
        out.push(']');
        // The recovery section only exists when modeled: a sweep
        // without it renders byte-identically to pre-recovery reports.
        if !self.recovery.is_empty() {
            out.push_str(",\"recovery\":[");
            for (i, r) in self.recovery.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"id\":{},\"window_s\":{},\"step_s\":{},\"domains\":[",
                    quoted(&r.id),
                    r.window_s,
                    r.step_s,
                );
                for (j, d) in r.domains.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"domain\":{},\"country\":{},\"dark_at_s\":{},\
                         \"recover_s\":{}}}",
                        quoted(&d.domain),
                        quoted(&d.country),
                        d.dark_at_s.map_or_else(|| "null".to_owned(), |t| t.to_string()),
                        d.recover_s.map_or_else(|| "null".to_owned(), |t| t.to_string()),
                    );
                }
                out.push_str("]}");
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, countries: &[&str], domains: usize) -> SpofEntry {
        SpofEntry {
            id: id.to_owned(),
            kind: ScenarioKind::Provider,
            subject: id.split_once(':').map_or(id, |(_, s)| s).to_owned(),
            blast_addrs: 2,
            blast_prefixes: 0,
            candidate_domains: domains + 1,
            domains_darkened: domains,
            countries_darkened: countries.len(),
            countries: countries.iter().map(|&c| c.to_owned()).collect(),
            darkened: countries
                .iter()
                .enumerate()
                .map(|(i, &c)| Darkened {
                    domain: format!("d{i}.gov.{c}"),
                    country: c.to_owned(),
                    from: DomainClass::Authoritative,
                    to: DomainClass::Stale,
                })
                .collect(),
        }
    }

    fn report(entries: Vec<SpofEntry>) -> SpofReport {
        SpofReport {
            seed: 7,
            scale_ppm: 10_000,
            baseline_domains: 50,
            baseline_dark: 3,
            entries,
            recovery: Vec::new(),
        }
    }

    fn recovery(id: &str, domain: &str, cc: &str) -> RecoveryEntry {
        RecoveryEntry {
            id: id.to_owned(),
            window_s: 7200,
            step_s: 60,
            domains: vec![crate::recovery::DomainRecovery {
                domain: domain.to_owned(),
                country: cc.to_owned(),
                dark_at_s: Some(3600),
                recover_s: Some(60),
            }],
        }
    }

    #[test]
    fn ranking_orders_by_countries_then_domains_then_id() {
        let r = report(vec![
            entry("provider:b", &["aa"], 4),
            entry("provider:a", &["aa", "bb"], 2),
            entry("provider:c", &["aa"], 4),
        ])
        .ranked();
        let ids: Vec<&str> = r.entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["provider:a", "provider:b", "provider:c"]);
    }

    #[test]
    fn text_table_leads_with_rank() {
        let r = report(vec![entry("provider:a", &["aa", "bb"], 2)]).ranked();
        let text = r.render_text();
        assert!(text.contains("single points of failure"));
        assert!(text.lines().any(|l| l.trim_start().starts_with("1  provider:a")), "{text}");
    }

    #[test]
    fn csv_has_one_row_per_entry() {
        let r = report(vec![entry("provider:a", &["aa"], 1), entry("provider:b", &["bb"], 1)]);
        assert_eq!(r.to_csv().lines().count(), 3);
    }

    #[test]
    fn json_is_stable_and_escapes() {
        let mut e = entry("provider:a", &["aa"], 1);
        e.subject = "we\"ird\\label".to_owned();
        let r = report(vec![e]);
        let json = r.canonical_json();
        assert_eq!(json, r.clone().canonical_json(), "pure function of the report");
        assert!(json.contains("we\\\"ird\\\\label"));
        assert!(json.starts_with("{\"seed\":7,\"scale_ppm\":10000,"));
    }

    #[test]
    fn country_filter_recounts_and_drops_empties() {
        let r =
            report(vec![entry("provider:a", &["aa", "bb"], 2), entry("provider:b", &["bb"], 1)])
                .ranked();
        let f = r.filtered_by_country("aa");
        assert_eq!(f.entries.len(), 1);
        assert_eq!(f.entries[0].id, "provider:a");
        assert_eq!(f.entries[0].domains_darkened, 1);
        assert_eq!(f.entries[0].countries, vec!["aa".to_owned()]);
    }

    #[test]
    fn recovery_section_renders_only_when_present() {
        let bare = report(vec![entry("provider:a", &["aa"], 1)]).ranked();
        assert!(!bare.render_text().contains("recovery timelines"));
        assert!(!bare.to_csv().contains("window_s"));
        assert!(!bare.canonical_json().contains("\"recovery\""));
        let without = bare.canonical_json();

        let mut with = bare.clone();
        with.recovery = vec![recovery("provider:a", "d0.gov.aa", "aa")];
        let json = with.canonical_json();
        assert!(json.contains("\"recovery\":[{\"id\":\"provider:a\""));
        assert!(json.contains("\"dark_at_s\":3600"));
        assert!(json.starts_with(without.trim_end_matches('}')), "prefix-stable");
        assert!(with.render_text().contains("recovery timelines (window 7200s, step 60s)"));
        assert!(with.to_csv().contains("provider:a,7200,60,d0.gov.aa,aa,3600,60"));
    }

    #[test]
    fn ranking_rethreads_recovery_onto_entry_order() {
        let mut r =
            report(vec![entry("provider:b", &["aa"], 4), entry("provider:a", &["aa", "bb"], 2)]);
        r.recovery = vec![
            recovery("provider:b", "d.gov.aa", "aa"),
            recovery("provider:a", "d.gov.bb", "bb"),
        ];
        let ranked = r.ranked();
        let ids: Vec<&str> = ranked.entries.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["provider:a", "provider:b"]);
        let rids: Vec<&str> = ranked.recovery.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(rids, ids, "timelines follow rank order");
    }

    #[test]
    fn country_filter_narrows_recovery_timelines() {
        let mut r =
            report(vec![entry("provider:a", &["aa", "bb"], 2), entry("provider:b", &["bb"], 1)])
                .ranked();
        r.recovery = vec![
            {
                let mut e = recovery("provider:a", "d0.gov.aa", "aa");
                e.domains.push(crate::recovery::DomainRecovery {
                    domain: "d1.gov.bb".to_owned(),
                    country: "bb".to_owned(),
                    dark_at_s: None,
                    recover_s: None,
                });
                e
            },
            recovery("provider:b", "d0.gov.bb", "bb"),
        ];
        let f = r.filtered_by_country("aa");
        assert_eq!(f.recovery.len(), 1, "provider:b darkened nothing in aa");
        assert_eq!(f.recovery[0].id, "provider:a");
        assert_eq!(f.recovery[0].domains.len(), 1);
        assert_eq!(f.recovery[0].domains[0].domain, "d0.gov.aa");
    }

    #[test]
    fn dark_classes_are_the_bottom_three() {
        assert!(is_dark(DomainClass::Unreachable));
        assert!(is_dark(DomainClass::Removed));
        assert!(is_dark(DomainClass::Stale));
        assert!(!is_dark(DomainClass::Degraded));
        assert!(!is_dark(DomainClass::Authoritative));
    }
}
