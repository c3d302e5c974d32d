//! §V — operational smell detection over the measured delegation graph,
//! per Radwan & Heckel's smell catalogue ("Detecting and Refactoring
//! Operational Smells within the DNS"). One detector per smell:
//!
//! * **cyclic zone dependencies** — the zone's NS RRset is resolvable
//!   only through the zone itself (fully in-bailiwick NS sets held up by
//!   parent glue alone), or two measured zones host each other's
//!   nameservers;
//! * **single-homed glue** — every resolved nameserver address sits in
//!   one /24 (often one address, often one host);
//! * **stale parent NS** — the parent and child NS RRsets disagree (the
//!   Fig-13 drill-down, subsumed here so the verdict carries citations);
//! * **provider monoculture** — every external nameserver of a domain
//!   belongs to one third-party provider, with no private fallback;
//! * **lame-but-listed servers** — delegated nameservers that do not
//!   serve the zone (unresolvable, silent, or non-authoritative).
//!
//! Every [`SmellVerdict`] carries a proposed refactoring, a
//! deterministic integer severity (0–100, pure integer arithmetic so
//! reports are byte-stable), and — once [`SmellAnalysis::attach_evidence`]
//! has seen the flight-recorder log — an **evidence chain**: citations
//! of the exact recorded exchanges (parent vs child NS responses,
//! referral cuts, glue resolutions, response classes) that support the
//! verdict. A citation is `(domain, seq)`; `govdns_trace::TraceLog::resolve`
//! checks it against the trace file.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use govdns_model::{DomainName, Label};
use govdns_simnet::prefix24;
use govdns_trace::{DomainBlock, Step, TraceData, TraceLog};
use govdns_world::CountryCode;

use crate::analysis::attribution::{ProbeAttribution, ProbedAttribution, ProbedHosts};
use crate::analysis::consistency::{classify, ConsistencyClass};
use crate::tables::TextTable;
use crate::{Campaign, MeasurementDataset};

/// The smell catalogue, report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SmellKind {
    /// Resolution of the zone's NS set depends on the zone itself.
    CyclicDependency,
    /// All resolved nameserver addresses share one /24.
    SingleHomedGlue,
    /// Parent and child NS RRsets disagree.
    StaleParentNs,
    /// Every external nameserver belongs to a single provider.
    ProviderMonoculture,
    /// Listed nameservers that do not serve the zone.
    LameDelegation,
}

impl SmellKind {
    /// All smells, catalogue order.
    pub fn all() -> [SmellKind; 5] {
        [
            SmellKind::CyclicDependency,
            SmellKind::SingleHomedGlue,
            SmellKind::StaleParentNs,
            SmellKind::ProviderMonoculture,
            SmellKind::LameDelegation,
        ]
    }

    /// Stable wire label (CLI filters, JSON, telemetry counters).
    pub fn as_str(self) -> &'static str {
        match self {
            SmellKind::CyclicDependency => "cyclic_dependency",
            SmellKind::SingleHomedGlue => "single_homed_glue",
            SmellKind::StaleParentNs => "stale_parent_ns",
            SmellKind::ProviderMonoculture => "provider_monoculture",
            SmellKind::LameDelegation => "lame_delegation",
        }
    }

    /// Parses a wire label back into a kind.
    pub fn parse(s: &str) -> Option<SmellKind> {
        SmellKind::all().into_iter().find(|k| k.as_str() == s)
    }
}

/// One evidence citation: a flight-recorder event that supports a
/// verdict, by per-domain sequence number. The rendered line is carried
/// for human consumption; the `(domain, seq)` pair is what a checker
/// resolves against the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Citation {
    /// Per-domain event sequence number.
    pub seq: u32,
    /// Protocol step of the cited event.
    pub step: Step,
    /// The rendered timeline line.
    pub line: String,
}

/// One detected smell on one domain.
#[derive(Debug, Clone, PartialEq)]
pub struct SmellVerdict {
    /// Which smell.
    pub kind: SmellKind,
    /// The affected domain.
    pub domain: DomainName,
    /// Its country.
    pub country: CountryCode,
    /// Deterministic severity, 0–100 (integer arithmetic only).
    pub severity: u32,
    /// What the detector saw.
    pub detail: String,
    /// The proposed refactoring.
    pub refactoring: String,
    /// Flight-recorder citations supporting the verdict (empty until
    /// [`SmellAnalysis::attach_evidence`] runs, or when the domain was
    /// not sampled).
    pub evidence: Vec<Citation>,
}

/// The full smell pass over a dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SmellAnalysis {
    /// All verdicts, ordered by `(domain, kind)`.
    pub verdicts: Vec<SmellVerdict>,
    /// Verdict counts per smell label.
    pub by_kind: BTreeMap<String, usize>,
    /// Distinct domains with at least one verdict.
    pub domains_affected: usize,
    /// Total trace events cited across all verdicts.
    pub evidence_cited: u64,
}

// ---------------------------------------------------------------------
// Severity functions — public so property tests can pin monotonicity.
// All pure integer arithmetic: severities feed byte-stable reports.
// ---------------------------------------------------------------------

/// Severity of a cyclic dependency. Mutual cycles (two zones hosting
/// each other's NS) are worst; a self-contained NS set scores higher
/// the fewer glue addresses anchor it and the more of those anchors are
/// lame.
pub fn cycle_severity(mutual: bool, glue_addrs: usize, lame_anchors: usize, anchors: usize) -> u32 {
    if mutual {
        return 90;
    }
    let mut s = 50u32;
    if glue_addrs <= 1 {
        s += 25;
    }
    if let Some(lame_share) = (25 * lame_anchors).checked_div(anchors) {
        s += lame_share as u32;
    }
    s.min(100)
}

/// Severity of single-homed glue: monotone non-increasing in both the
/// number of listed hosts and the number of distinct addresses.
pub fn glue_severity(hosts: usize, addrs: usize) -> u32 {
    let mut s = 50u32;
    if hosts <= 1 {
        s += 30;
    }
    if addrs <= 1 {
        s += 20;
    }
    s
}

/// Severity of a parent/child NS disagreement, ordered by how far the
/// two views are apart; a lame server in the symmetric difference adds
/// a bump (the disagreement is load-bearing).
pub fn stale_severity(class: ConsistencyClass, lame_in_diff: bool) -> u32 {
    let base = match class {
        ConsistencyClass::Equal => 0,
        ConsistencyClass::PSubsetC => 40,
        ConsistencyClass::CSubsetP => 50,
        ConsistencyClass::PartialOverlap => 60,
        ConsistencyClass::DisjointIpOverlap => 75,
        ConsistencyClass::DisjointNoIp => 90,
    };
    (base + if lame_in_diff { 10 } else { 0 }).min(100)
}

/// Severity of a provider monoculture: monotone non-decreasing in the
/// provider's share (ppm) of the seed's responsive domains — a
/// monoculture on a provider that already carries the whole `d_gov` is
/// a bigger blast radius than one on a niche provider.
pub fn monoculture_severity(share_ppm: u64) -> u32 {
    40 + (share_ppm / 25_000).min(40) as u32
}

/// Severity of a lame-but-listed delegation: monotone non-decreasing in
/// the number of lame servers for a fixed listing size, 100 when every
/// listed server is lame.
pub fn lame_severity(lame: usize, listed: usize) -> u32 {
    if listed == 0 || lame == 0 {
        return 0;
    }
    30 + ((70 * lame.min(listed)) / listed) as u32
}

/// Renders a sorted name list as `[a, b, c]`.
fn name_list(names: &BTreeSet<&DomainName>) -> String {
    let rendered: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    format!("[{}]", rendered.join(", "))
}

impl SmellAnalysis {
    /// Runs every detector over the dataset. Verdicts are ordered by
    /// `(domain, kind)`; evidence chains stay empty until
    /// [`attach_evidence`](SmellAnalysis::attach_evidence) sees the
    /// trace log.
    pub fn compute(ds: &MeasurementDataset, campaign: &Campaign<'_>) -> Self {
        let hosts = ProbedHosts::classify(ds, campaign.matchers);
        SmellAnalysis::from_attribution(ds, &ProbedAttribution::build(ds, &hosts))
    }

    /// Runs every detector; the monoculture detector reads the probes'
    /// provider labels and per-seed tallies from `providers`.
    pub(crate) fn from_attribution(
        ds: &MeasurementDataset,
        providers: &ProbedAttribution<'_>,
    ) -> Self {
        // Pass 1: the cross-domain dependency graph for mutual cycles —
        // domain i depends on probed domain j when one of i's
        // nameservers lives inside j's zone.
        let index_of: HashMap<&[Label], usize> =
            ds.discovered.iter().enumerate().map(|(i, d)| (d.name.labels(), i)).collect();
        let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); ds.probes.len()];
        for (i, probe) in ds.probes.iter().enumerate() {
            for host in probe.parent_ns.iter().chain(&probe.child_ns) {
                let labels = host.labels();
                for k in 2..labels.len() {
                    if let Some(&j) = index_of.get(&labels[labels.len() - k..]) {
                        if j != i {
                            deps[i].insert(j);
                        }
                    }
                }
            }
        }

        // Pass 2: the detectors proper.
        let mut verdicts = Vec::new();
        for (i, probe) in ds.probes.iter().enumerate() {
            if !probe.parent_nonempty() {
                continue;
            }
            let domain = ds.discovered[i].name.clone();
            let country = ds.country_of(i);
            let seed = ds.seed_of(i);
            let ns = probe.ns_union();
            let mut push = |kind, severity, detail: String, refactoring: String| {
                verdicts.push(SmellVerdict {
                    kind,
                    domain: domain.clone(),
                    country,
                    severity,
                    detail,
                    refactoring,
                    evidence: Vec::new(),
                });
            };

            // --- cyclic zone dependencies ------------------------------
            let partners: BTreeSet<String> = deps[i]
                .iter()
                .filter(|&&j| deps[j].contains(&i))
                .map(|&j| ds.discovered[j].name.to_string())
                .collect();
            let in_bailiwick: Vec<&DomainName> =
                ns.iter().filter(|h| h.is_within(&domain)).collect();
            if !partners.is_empty() {
                let list: Vec<String> = partners.into_iter().collect();
                push(
                    SmellKind::CyclicDependency,
                    cycle_severity(true, 0, 0, 0),
                    format!(
                        "mutual dependency: this zone and [{}] host each other's nameservers",
                        list.join(", ")
                    ),
                    "re-home one side's NS set outside the partner zone to break the cycle"
                        .to_owned(),
                );
            } else if !ns.is_empty() && in_bailiwick.len() == ns.len() {
                let anchors: Vec<_> =
                    probe.servers.iter().filter(|s| s.host.is_within(&domain)).collect();
                let glue_addrs: BTreeSet<Ipv4Addr> =
                    anchors.iter().flat_map(|s| s.addrs.iter().copied()).collect();
                let lame_anchors = anchors.iter().filter(|s| s.is_defective()).count();
                push(
                    SmellKind::CyclicDependency,
                    cycle_severity(false, glue_addrs.len(), lame_anchors, anchors.len()),
                    format!(
                        "all {} listed nameservers live inside {domain}; resolution bootstraps only through {} glue address(es)",
                        ns.len(),
                        glue_addrs.len()
                    ),
                    "add an out-of-bailiwick nameserver so the zone resolves without its own glue"
                        .to_owned(),
                );
            }

            // --- single-homed glue -------------------------------------
            let addrs: BTreeSet<Ipv4Addr> =
                probe.servers.iter().flat_map(|s| s.addrs.iter().copied()).collect();
            let prefixes: BTreeSet<_> = addrs.iter().map(|&a| prefix24(a)).collect();
            if !addrs.is_empty() && prefixes.len() == 1 {
                let prefix = prefixes.iter().next().expect("nonempty");
                push(
                    SmellKind::SingleHomedGlue,
                    glue_severity(ns.len(), addrs.len()),
                    format!(
                        "{} nameserver(s) resolve to {} address(es), all in {prefix}",
                        ns.len(),
                        addrs.len()
                    ),
                    "add a replica in a different /24 network".to_owned(),
                );
            }

            // --- stale parent NS (subsumes the Fig-13 drill-down) ------
            if let Some(class) = classify(probe) {
                if class != ConsistencyClass::Equal {
                    let p: BTreeSet<&DomainName> = probe.parent_ns.iter().collect();
                    let c: BTreeSet<&DomainName> = probe.child_ns.iter().collect();
                    let p_only: BTreeSet<&DomainName> = p.difference(&c).copied().collect();
                    let c_only: BTreeSet<&DomainName> = c.difference(&p).copied().collect();
                    let lame_in_diff = probe.servers.iter().any(|s| {
                        (p_only.contains(&s.host) || c_only.contains(&s.host)) && s.is_defective()
                    });
                    push(
                        SmellKind::StaleParentNs,
                        stale_severity(class, lame_in_diff),
                        format!(
                            "parent and child NS sets disagree ({}): parent-only={} child-only={}",
                            class.label(),
                            name_list(&p_only),
                            name_list(&c_only)
                        ),
                        format!(
                            "synchronize the parent NS RRset with the child (CSYNC/EPP): add {}; remove {}",
                            name_list(&c_only),
                            name_list(&p_only)
                        ),
                    );
                }
            }

            // --- provider monoculture ----------------------------------
            let ProbeAttribution { labels, private } =
                providers.probes[i].as_ref().expect("responsive probes are attributed");
            if !private && labels.len() == 1 && ns.len() >= 2 {
                let label = labels.iter().next().expect("nonempty");
                let tally = &providers.seeds[seed];
                let responsive = tally.responsive;
                let on_provider = tally.domains.get(label).copied().unwrap_or(0);
                let share_ppm = if responsive == 0 {
                    0
                } else {
                    on_provider as u64 * 1_000_000 / responsive as u64
                };
                push(
                    SmellKind::ProviderMonoculture,
                    monoculture_severity(share_ppm),
                    format!(
                        "all {} nameservers on provider {label}, no private fallback ({on_provider} of {responsive} responsive domains under {seed} use it)",
                        ns.len()
                    ),
                    "add a secondary NS on an independent provider or a private replica".to_owned(),
                );
            }

            // --- lame-but-listed servers -------------------------------
            let listed = probe.servers.len();
            let lame: Vec<&DomainName> =
                probe.servers.iter().filter(|s| s.is_defective()).map(|s| &s.host).collect();
            if listed > 0 && !lame.is_empty() {
                let lame_set: BTreeSet<&DomainName> = lame.iter().copied().collect();
                push(
                    SmellKind::LameDelegation,
                    lame_severity(lame.len(), listed),
                    format!(
                        "{} of {listed} listed nameservers do not serve the zone: {}",
                        lame.len(),
                        name_list(&lame_set)
                    ),
                    format!("drop or repair the lame NS records {}", name_list(&lame_set)),
                );
            }
        }

        // String order, not `DomainName`'s label-vector order: the two
        // differ (`a-b.x` sorts before `a.x` only as a string).
        verdicts.sort_by_cached_key(|v| (v.domain.to_string(), v.kind));
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        for v in &verdicts {
            *by_kind.entry(v.kind.as_str().to_owned()).or_insert(0) += 1;
        }
        // A domain's verdicts are adjacent once sorted.
        let domains_affected = verdicts
            .iter()
            .enumerate()
            .filter(|&(k, v)| k == 0 || verdicts[k - 1].domain != v.domain)
            .count();
        SmellAnalysis { verdicts, by_kind, domains_affected, evidence_cited: 0 }
    }

    /// Fills every verdict's evidence chain from the flight-recorder
    /// log: the per-kind filter picks the recorded exchanges that
    /// support the verdict (capped, in sequence order), falling back to
    /// the block's opening event so a sampled domain always yields at
    /// least one resolvable citation.
    pub fn attach_evidence(&mut self, log: &TraceLog) {
        let blocks = log.blocks_by_name();
        let mut name = String::new();
        let mut cited = 0u64;
        for v in &mut self.verdicts {
            name.clear();
            let _ = write!(name, "{}", v.domain);
            let Some(block) = blocks.get(name.as_str()) else { continue };
            v.evidence = cite(v.kind, &name, block);
            cited += v.evidence.len() as u64;
        }
        self.evidence_cited = cited;
    }

    /// All verdicts on one domain, catalogue order.
    pub fn for_domain(&self, name: &str) -> Vec<&SmellVerdict> {
        self.verdicts.iter().filter(|v| v.domain.to_string() == name).collect()
    }

    /// By-kind summary: verdict count, affected domains, max severity.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["smell", "verdicts", "max_severity"]);
        for kind in SmellKind::all() {
            let label = kind.as_str();
            let count = self.by_kind.get(label).copied().unwrap_or(0);
            let max = self
                .verdicts
                .iter()
                .filter(|v| v.kind == kind)
                .map(|v| v.severity)
                .max()
                .unwrap_or(0);
            t.push_row([label.to_owned(), count.to_string(), max.to_string()]);
        }
        t
    }

    /// The worst verdicts: severity descending, then `(domain, kind)`.
    pub fn verdict_table(&self, top: usize) -> TextTable {
        let mut ranked: Vec<&SmellVerdict> = self.verdicts.iter().collect();
        ranked
            .sort_by_cached_key(|v| (std::cmp::Reverse(v.severity), v.domain.to_string(), v.kind));
        let mut t = TextTable::new(["domain", "smell", "severity", "evidence", "refactoring"]);
        for v in ranked.into_iter().take(top) {
            t.push_row([
                v.domain.to_string(),
                v.kind.as_str().to_owned(),
                v.severity.to_string(),
                v.evidence.len().to_string(),
                v.refactoring.clone(),
            ]);
        }
        t
    }

    /// One-row-per-verdict CSV (the report bundle's `smells.csv`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("domain,country,smell,severity,evidence_events,refactoring\n");
        for v in &self.verdicts {
            let _ = writeln!(
                out,
                "{},{},{},{},{},\"{}\"",
                v.domain,
                v.country,
                v.kind.as_str(),
                v.severity,
                v.evidence.len(),
                v.refactoring.replace('"', "\"\"")
            );
        }
        out
    }
}

/// Is the rendered host name inside `domain`? (Resolve events carry the
/// host as a string; this mirrors `DomainName::is_within` textually.)
fn host_within(host: &str, domain: &str) -> bool {
    host.strip_suffix(domain).is_some_and(|head| head.is_empty() || head.ends_with('.'))
}

/// The per-kind evidence filter: which recorded exchanges support a
/// verdict of this kind. Capped at [`MAX_CITATIONS`] in sequence order;
/// falls back to the block's first event so every sampled domain yields
/// a resolvable citation.
fn cite(kind: SmellKind, domain: &str, block: &DomainBlock) -> Vec<Citation> {
    /// Citations per verdict — enough to show the pattern without
    /// ballooning the report.
    const MAX_CITATIONS: usize = 8;
    let citation =
        |e: &govdns_trace::TraceEvent| Citation { seq: e.seq, step: e.step, line: e.render() };
    let mut cited: Vec<Citation> = block
        .events
        .iter()
        .filter(|e| match kind {
            // The referral that handed out the in-bailiwick targets, and
            // the side-resolutions of the zone's own nameservers.
            SmellKind::CyclicDependency => match &e.data {
                TraceData::Referral { .. } => true,
                TraceData::Resolve { host, .. } => host_within(host, domain),
                _ => false,
            },
            // The referral's target count plus every glue resolution —
            // together they show the single /24.
            SmellKind::SingleHomedGlue => {
                matches!(&e.data, TraceData::Referral { .. } | TraceData::Resolve { .. })
            }
            // The two NS views: parent-side and child-side responses,
            // plus the referral between them.
            SmellKind::StaleParentNs => match e.step {
                Step::ParentNs | Step::ChildNs => {
                    matches!(&e.data, TraceData::Response { .. })
                }
                Step::Referral => matches!(&e.data, TraceData::Referral { .. }),
                _ => false,
            },
            // The glue resolutions that place every NS on the provider.
            SmellKind::ProviderMonoculture => {
                matches!(&e.data, TraceData::Resolve { addrs, .. } if !addrs.is_empty())
            }
            // Failed glue resolutions and non-authoritative answers from
            // listed servers.
            SmellKind::LameDelegation => match &e.data {
                TraceData::Resolve { addrs, .. } => addrs.is_empty(),
                TraceData::Response { class, .. } => {
                    matches!(e.step, Step::ChildNs | Step::DirectProbe) && class != "authoritative"
                }
                _ => false,
            },
        })
        .take(MAX_CITATIONS)
        .map(citation)
        .collect();
    if cited.is_empty() {
        cited.extend(block.events.first().map(citation));
    }
    // The report keeps every verdict's citations: no spare capacity.
    cited.shrink_to_fit();
    cited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{dataset, CampaignFixture, ProbeBuilder};
    use govdns_world::{MatchRule, MatchTarget, ProviderMatcher};

    fn kinds_for(a: &SmellAnalysis, domain: &str) -> Vec<SmellKind> {
        a.for_domain(domain).iter().map(|v| v.kind).collect()
    }

    fn verdict<'a>(a: &'a SmellAnalysis, domain: &str, kind: SmellKind) -> &'a SmellVerdict {
        a.for_domain(domain)
            .into_iter()
            .find(|v| v.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} verdict on {domain}"))
    }

    #[test]
    fn self_contained_ns_set_is_cyclic() {
        let probes = vec![
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.a.gov.zz", "ns2.a.gov.zz"])
                    .child(&["ns1.a.gov.zz", "ns2.a.gov.zz"])
                    .serving("ns1.a.gov.zz", [192, 0, 2, 1])
                    .serving("ns2.a.gov.zz", [192, 0, 2, 2])
                    .build(),
                "zz",
            ),
            // One out-of-bailiwick NS breaks the cycle.
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.b.gov.zz", "ns.ext.net"])
                    .child(&["ns1.b.gov.zz", "ns.ext.net"])
                    .serving("ns1.b.gov.zz", [192, 0, 2, 3])
                    .serving("ns.ext.net", [198, 51, 100, 1])
                    .build(),
                "zz",
            ),
        ];
        let a = SmellAnalysis::compute(&dataset(probes), &CampaignFixture::default().campaign());
        assert!(kinds_for(&a, "a.gov.zz").contains(&SmellKind::CyclicDependency));
        assert!(!kinds_for(&a, "b.gov.zz").contains(&SmellKind::CyclicDependency));
        let v = verdict(&a, "a.gov.zz", SmellKind::CyclicDependency);
        assert!(v.detail.contains("bootstraps only through"), "{}", v.detail);
        assert!(v.refactoring.contains("out-of-bailiwick"));
    }

    #[test]
    fn mutual_hosting_is_cyclic_and_worst() {
        let probes = vec![
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns.b.gov.zz"])
                    .child(&["ns.b.gov.zz"])
                    .serving("ns.b.gov.zz", [192, 0, 2, 1])
                    .build(),
                "zz",
            ),
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns.a.gov.zz"])
                    .child(&["ns.a.gov.zz"])
                    .serving("ns.a.gov.zz", [198, 51, 100, 1])
                    .build(),
                "zz",
            ),
        ];
        let a = SmellAnalysis::compute(&dataset(probes), &CampaignFixture::default().campaign());
        for d in ["a.gov.zz", "b.gov.zz"] {
            let v = verdict(&a, d, SmellKind::CyclicDependency);
            assert_eq!(v.severity, 90);
            assert!(v.detail.contains("mutual dependency"), "{}", v.detail);
        }
    }

    #[test]
    fn one_prefix_is_single_homed() {
        let probes = vec![
            (
                ProbeBuilder::new("a.gov.zz")
                    .parent(&["ns1.x.net", "ns2.x.net"])
                    .child(&["ns1.x.net", "ns2.x.net"])
                    .serving("ns1.x.net", [192, 0, 2, 1])
                    .serving("ns2.x.net", [192, 0, 2, 9])
                    .build(),
                "zz",
            ),
            (
                ProbeBuilder::new("b.gov.zz")
                    .parent(&["ns1.x.net", "ns2.y.net"])
                    .child(&["ns1.x.net", "ns2.y.net"])
                    .serving("ns1.x.net", [192, 0, 2, 1])
                    .serving("ns2.y.net", [198, 51, 100, 1])
                    .build(),
                "zz",
            ),
        ];
        let a = SmellAnalysis::compute(&dataset(probes), &CampaignFixture::default().campaign());
        let v = verdict(&a, "a.gov.zz", SmellKind::SingleHomedGlue);
        assert_eq!(v.severity, glue_severity(2, 2));
        assert!(v.detail.contains("192.0.2.0/24"), "{}", v.detail);
        assert!(!kinds_for(&a, "b.gov.zz").contains(&SmellKind::SingleHomedGlue));
    }

    #[test]
    fn disagreeing_ns_sets_are_stale_with_sync_plan() {
        let probes = vec![(
            ProbeBuilder::new("a.gov.zz")
                .parent(&["old.x.net", "shared.x.net"])
                .child(&["new.x.net", "shared.x.net"])
                .serving("shared.x.net", [192, 0, 2, 1])
                .serving("new.x.net", [198, 51, 100, 1])
                .dead("old.x.net", [203, 0, 113, 1])
                .build(),
            "zz",
        )];
        let a = SmellAnalysis::compute(&dataset(probes), &CampaignFixture::default().campaign());
        let v = verdict(&a, "a.gov.zz", SmellKind::StaleParentNs);
        // Partial overlap (60) + lame server in the difference (10).
        assert_eq!(v.severity, 70);
        assert!(v.refactoring.contains("add [new.x.net]"), "{}", v.refactoring);
        assert!(v.refactoring.contains("remove [old.x.net]"), "{}", v.refactoring);
    }

    #[test]
    fn equal_ns_sets_are_not_stale() {
        let probes = vec![(
            ProbeBuilder::new("a.gov.zz")
                .parent(&["ns1.x.net", "ns2.y.net"])
                .child(&["ns1.x.net", "ns2.y.net"])
                .serving("ns1.x.net", [192, 0, 2, 1])
                .serving("ns2.y.net", [198, 51, 100, 1])
                .build(),
            "zz",
        )];
        let a = SmellAnalysis::compute(&dataset(probes), &CampaignFixture::default().campaign());
        assert!(!kinds_for(&a, "a.gov.zz").contains(&SmellKind::StaleParentNs));
    }

    #[test]
    fn single_provider_without_fallback_is_monoculture() {
        let f = CampaignFixture {
            matchers: vec![ProviderMatcher {
                label: "hichina.com".to_owned(),
                rule: MatchRule::RegisteredDomain("hichina.com".parse().unwrap()),
                target: MatchTarget::Hostname,
            }],
            ..CampaignFixture::default()
        };
        let probes = vec![
            (
                ProbeBuilder::new("a.gov.cn")
                    .parent(&["dns1.hichina.com", "dns2.hichina.com"])
                    .child(&["dns1.hichina.com", "dns2.hichina.com"])
                    .serving("dns1.hichina.com", [192, 0, 2, 1])
                    .serving("dns2.hichina.com", [198, 51, 100, 1])
                    .build(),
                "cn",
            ),
            // Provider + private replica: not a monoculture.
            (
                ProbeBuilder::new("b.gov.cn")
                    .parent(&["dns1.hichina.com", "ns1.b.gov.cn"])
                    .child(&["dns1.hichina.com", "ns1.b.gov.cn"])
                    .serving("dns1.hichina.com", [192, 0, 2, 1])
                    .serving("ns1.b.gov.cn", [203, 0, 113, 1])
                    .build(),
                "cn",
            ),
        ];
        let a = SmellAnalysis::compute(&dataset(probes), &f.campaign());
        let v = verdict(&a, "a.gov.cn", SmellKind::ProviderMonoculture);
        assert!(v.detail.contains("hichina.com"), "{}", v.detail);
        // Both responsive domains use the provider: share 100% → 80.
        assert_eq!(v.severity, monoculture_severity(1_000_000));
        assert!(!kinds_for(&a, "b.gov.cn").contains(&SmellKind::ProviderMonoculture));
    }

    #[test]
    fn defective_listed_servers_are_lame() {
        let probes = vec![(
            ProbeBuilder::new("a.gov.zz")
                .parent(&["ns1.x.net", "ns2.x.net"])
                .child(&["ns1.x.net", "ns2.x.net"])
                .serving("ns1.x.net", [192, 0, 2, 1])
                .dead("ns2.x.net", [198, 51, 100, 1])
                .build(),
            "zz",
        )];
        let a = SmellAnalysis::compute(&dataset(probes), &CampaignFixture::default().campaign());
        let v = verdict(&a, "a.gov.zz", SmellKind::LameDelegation);
        assert_eq!(v.severity, lame_severity(1, 2));
        assert!(v.detail.contains("ns2.x.net"), "{}", v.detail);
        assert!(v.refactoring.contains("drop or repair"));
    }

    #[test]
    fn severity_is_monotone_and_bounded() {
        // Lame: more lame servers → worse; all-lame is 100.
        assert!(lame_severity(1, 4) < lame_severity(2, 4));
        assert_eq!(lame_severity(4, 4), 100);
        // Glue: fewer hosts/addresses → worse.
        assert!(glue_severity(2, 2) < glue_severity(1, 2));
        assert!(glue_severity(1, 2) < glue_severity(1, 1));
        // Stale: the class ladder is ordered.
        assert!(
            stale_severity(ConsistencyClass::PSubsetC, false)
                < stale_severity(ConsistencyClass::DisjointNoIp, false)
        );
        // Monoculture: share-monotone.
        assert!(monoculture_severity(100_000) <= monoculture_severity(900_000));
        for s in [
            cycle_severity(true, 0, 0, 0),
            cycle_severity(false, 1, 3, 3),
            glue_severity(1, 1),
            stale_severity(ConsistencyClass::DisjointNoIp, true),
            monoculture_severity(2_000_000),
            lame_severity(9, 9),
        ] {
            assert!(s <= 100, "severity {s} out of range");
        }
    }

    #[test]
    fn evidence_from_the_name_map_matches_a_scan_per_verdict() {
        use govdns_trace::TraceEvent;

        let event = |seq: u32, step: Step, data: TraceData| TraceEvent { seq, step, data };
        let resolve = |seq: u32, host: &str, addrs: &[[u8; 4]]| {
            event(
                seq,
                Step::AddrResolve,
                TraceData::Resolve {
                    host: host.to_owned(),
                    addrs: addrs.iter().map(|&a| a.into()).collect(),
                },
            )
        };
        let referral = |seq: u32| {
            event(seq, Step::Referral, TraceData::Referral { cut: "gov.zz".into(), targets: 2 })
        };
        let response = |seq: u32, step: Step, class: &str| {
            let dst = [192, 0, 2, 1].into();
            event(seq, step, TraceData::Response { dst, attempt: 0, class: class.into(), ms: 9 })
        };
        let block = |domain: &str, events: Vec<TraceEvent>| DomainBlock {
            index: 0,
            domain: domain.to_owned(),
            dropped: 0,
            events,
        };
        // A resumed trace can hold two blocks of one name: `a.gov.zz`'s
        // first block must be the one cited.
        let log = TraceLog {
            domains: vec![
                block(
                    "a.gov.zz",
                    vec![
                        response(0, Step::ParentNs, "referral"),
                        referral(1),
                        resolve(2, "ns1.a.gov.zz", &[[192, 0, 2, 1]]),
                        resolve(3, "xa.gov.zz", &[]),
                        response(4, Step::ChildNs, "timeout"),
                    ],
                ),
                block("b.gov.zz", vec![resolve(0, "ns.b.gov.zz", &[])]),
                block("a.gov.zz", vec![referral(0), resolve(1, "ns2.a.gov.zz", &[]), referral(2)]),
                block(
                    "d.gov.zz",
                    vec![event(0, Step::DirectProbe, TraceData::Note { text: "x".into() })],
                ),
            ],
            ..TraceLog::default()
        };
        let mut analysis = SmellAnalysis::default();
        for domain in ["a.gov.zz", "b.gov.zz", "c.gov.zz", "d.gov.zz"] {
            for kind in SmellKind::all() {
                analysis.verdicts.push(SmellVerdict {
                    kind,
                    domain: domain.parse().unwrap(),
                    country: CountryCode::new("zz"),
                    severity: 1,
                    detail: String::new(),
                    refactoring: String::new(),
                    evidence: Vec::new(),
                });
            }
        }
        // The lookup the name map replaced: one scan of the log per
        // verdict, and the host test it was written with.
        let old_host_within = |host: &str, d: &str| host == d || host.ends_with(&format!(".{d}"));
        let mut want = analysis.clone();
        let mut cited = 0u64;
        for v in &mut want.verdicts {
            let name = v.domain.to_string();
            let Some(block) = log.domain(&name) else { continue };
            v.evidence = cite(v.kind, &name, block);
            cited += v.evidence.len() as u64;
            for e in &block.events {
                if let TraceData::Resolve { host, .. } = &e.data {
                    assert_eq!(host_within(host, &name), old_host_within(host, &name), "{host}");
                }
            }
        }
        want.evidence_cited = cited;
        analysis.attach_evidence(&log);
        assert_eq!(analysis, want);
        let a_cyclic = verdict(&analysis, "a.gov.zz", SmellKind::CyclicDependency);
        let seqs: Vec<u32> = a_cyclic.evidence.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, [1, 2], "the first block's referral and in-bailiwick resolve");
        assert!(verdict(&analysis, "c.gov.zz", SmellKind::LameDelegation).evidence.is_empty());
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in SmellKind::all() {
            assert_eq!(SmellKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SmellKind::parse("warp"), None);
    }
}
