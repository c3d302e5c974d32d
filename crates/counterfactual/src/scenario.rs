//! Failure-scenario enumeration: from a measured baseline dataset to
//! the set of counterfactual outages worth re-running the campaign
//! under.
//!
//! Four scenario families, mirroring the shared-infrastructure axes of
//! the paper's Table I:
//!
//! * [`ScenarioKind::Provider`] — a third-party DNS provider fails:
//!   every nameserver address whose hostname classifies to the provider
//!   goes dark.
//! * [`ScenarioKind::Asn`] — an autonomous system fails: every observed
//!   nameserver address inside the AS's allocations goes dark.
//! * [`ScenarioKind::Prefix`] — a /24 is withdrawn. The anycast model:
//!   a nameserver *hostname*'s addresses form one anycast service, so a
//!   prefix kill also takes out the sibling sites of any host with at
//!   least one address in the prefix (the origin behind them is gone).
//! * [`ScenarioKind::Cctld`] — a ccTLD registry fails: the parent-zone
//!   nameservers that delegate the country's government domains go
//!   dark, so *every* domain under the ccTLD loses its delegation path.
//!
//! Enumeration is a pure function of the baseline dataset plus public
//! classification knowledge (provider matchers, the prefix→ASN
//! database), so a seeded sweep always enumerates the same scenarios in
//! the same order.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use govdns_core::{MeasurementDataset, ScenarioSpec};
use govdns_model::fnv64;
use govdns_simnet::{prefix24, AsnDb, Prefix24};
use govdns_world::ProviderMatcher;

/// The scenario families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScenarioKind {
    /// All nameservers operated by one third-party DNS provider fail.
    Provider,
    /// One autonomous system fails.
    Asn,
    /// One /24 prefix is withdrawn (plus anycast siblings).
    Prefix,
    /// One ccTLD registry fails.
    Cctld,
    /// Two single failures at once — the compound outage.
    Compound,
}

impl ScenarioKind {
    /// Stable wire/report label.
    pub fn as_str(self) -> &'static str {
        match self {
            ScenarioKind::Provider => "provider",
            ScenarioKind::Asn => "asn",
            ScenarioKind::Prefix => "prefix",
            ScenarioKind::Cctld => "cctld",
            ScenarioKind::Compound => "compound",
        }
    }

    /// Parses [`as_str`](Self::as_str) output.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "provider" => ScenarioKind::Provider,
            "asn" => ScenarioKind::Asn,
            "prefix" => ScenarioKind::Prefix,
            "cctld" => ScenarioKind::Cctld,
            "compound" => ScenarioKind::Compound,
            _ => return None,
        })
    }

    /// Every kind, enumeration order.
    pub fn all() -> [ScenarioKind; 5] {
        [
            ScenarioKind::Provider,
            ScenarioKind::Asn,
            ScenarioKind::Prefix,
            ScenarioKind::Cctld,
            ScenarioKind::Compound,
        ]
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad`, not `write_str`: the report table relies on `{:<8}`.
        f.pad(self.as_str())
    }
}

/// A partial-outage dial: fail `k` of every `n` anycast sites.
///
/// `k == n` is the full outage; smaller `k` blackholes a hash-ranked
/// prefix of each site group, so the failed sets *nest* as the dial
/// turns — `(k+1)/n` always fails a superset of `k/n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialDial {
    /// Sites failed per group of `n`.
    pub k: u32,
    /// Group size the dial is expressed against.
    pub n: u32,
}

impl PartialDial {
    /// Parses `"k/n"` (e.g. `"1/3"`). `n` must be at least 1 and `k`
    /// at most `n`.
    pub fn parse(s: &str) -> Option<Self> {
        let (k, n) = s.split_once('/')?;
        let (k, n) = (k.trim().parse().ok()?, n.trim().parse().ok()?);
        (n >= 1 && k <= n).then_some(PartialDial { k, n })
    }
}

impl std::fmt::Display for PartialDial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.k, self.n)
    }
}

/// One enumerated failure scenario: a destination set to hard-fail,
/// plus the bookkeeping the ranked report needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The family.
    pub kind: ScenarioKind,
    /// The failing subject: a provider label, `AS64500`, a /24 in CIDR
    /// notation, a ccTLD label, or `id+id` for compounds.
    pub subject: String,
    /// Individual addresses taken out.
    pub blackhole_addrs: BTreeSet<Ipv4Addr>,
    /// Whole /24s taken out.
    pub blackhole_prefixes: BTreeSet<Prefix24>,
    /// Individual addresses degraded (probabilistically dropped) rather
    /// than hard-failed. Populated by [`degraded`](Self::degraded).
    pub degraded_addrs: BTreeSet<Ipv4Addr>,
    /// Whole /24s degraded.
    pub degraded_prefixes: BTreeSet<Prefix24>,
    /// Drop rate for the degraded sets, parts per million.
    pub degrade_ppm: u32,
    /// Anycast site groups inside the blast set — one group per
    /// nameserver hostname, each the hostname's address set. The
    /// partial dial fails `k/n` of every group; empty means the whole
    /// blast set is treated as one group.
    pub site_groups: Vec<Vec<Ipv4Addr>>,
    /// The baseline domains behind [`candidate_domains`]
    /// (compound scenarios union these).
    ///
    /// [`candidate_domains`]: Self::candidate_domains
    pub candidates: BTreeSet<String>,
    /// Baseline domains with at least one nameserver (or, for ccTLD
    /// scenarios, their delegation path) inside the blast set.
    pub candidate_domains: usize,
}

impl Scenario {
    /// Stable scenario identifier, `kind:subject`.
    pub fn id(&self) -> String {
        format!("{}:{}", self.kind, self.subject)
    }

    /// Lowers the scenario into the runner's fault-layer spec.
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            label: self.id(),
            blackhole_addrs: self.blackhole_addrs.iter().copied().collect(),
            blackhole_prefixes: self.blackhole_prefixes.iter().copied().collect(),
            degraded_addrs: self.degraded_addrs.iter().copied().collect(),
            degraded_prefixes: self.degraded_prefixes.iter().copied().collect(),
            degrade_ppm: self.degrade_ppm,
        }
    }

    /// Applies the partial dial: per site group, blackhole only the
    /// first `ceil(m·k/n)` addresses in the group's hash-ranked order
    /// (and likewise for the prefix set, ranked as one group). The
    /// ranking is a pure function of the addresses, so dialed blast
    /// sets nest as `k` grows. Subject becomes `{subject}~{k}of{n}`.
    #[must_use]
    pub fn dialed(&self, dial: PartialDial) -> Scenario {
        let groups: Vec<Vec<Ipv4Addr>> = if self.site_groups.is_empty() {
            vec![self.blackhole_addrs.iter().copied().collect()]
        } else {
            self.site_groups.clone()
        };
        let mut addrs = BTreeSet::new();
        let mut kept_groups = Vec::with_capacity(groups.len());
        for group in groups {
            let kept = dial_keep(&group, dial, |&a| u64::from(u32::from(a)));
            addrs.extend(kept.iter().copied());
            kept_groups.push(kept);
        }
        let prefixes: Vec<Prefix24> = self.blackhole_prefixes.iter().copied().collect();
        let kept_prefixes = dial_keep(&prefixes, dial, |p| u64::from(u32::from(p.network())));
        Scenario {
            subject: format!("{}~{}of{}", self.subject, dial.k, dial.n),
            blackhole_addrs: addrs,
            blackhole_prefixes: kept_prefixes.into_iter().collect(),
            site_groups: kept_groups,
            ..self.clone()
        }
    }

    /// Converts the hard blackhole into a probabilistic degradation at
    /// `ppm` parts per million. Subject becomes `{subject}~d{ppm}`.
    #[must_use]
    pub fn degraded(&self, ppm: u32) -> Scenario {
        Scenario {
            subject: format!("{}~d{ppm}", self.subject),
            blackhole_addrs: BTreeSet::new(),
            blackhole_prefixes: BTreeSet::new(),
            degraded_addrs: self.blackhole_addrs.clone(),
            degraded_prefixes: self.blackhole_prefixes.clone(),
            degrade_ppm: ppm,
            ..self.clone()
        }
    }
}

/// The hash-ranked dial selection: sorts `items` by (FNV hash, value)
/// and keeps the first `ceil(len·k/n)`. The order never depends on
/// `k`, so selections nest: the kept set at `k` is a subset of the
/// kept set at `k+1`.
fn dial_keep<T: Copy>(items: &[T], dial: PartialDial, key: impl Fn(&T) -> u64) -> Vec<T> {
    let mut ranked: Vec<(u64, u64, T)> = items
        .iter()
        .map(|it| {
            let k = key(it);
            (fnv64(&k.to_be_bytes()), k, *it)
        })
        .collect();
    ranked.sort_by_key(|a| (a.0, a.1));
    let m = items.len() as u64;
    let keep =
        m.saturating_mul(u64::from(dial.k)).div_ceil(u64::from(dial.n).max(1)).min(m) as usize;
    ranked.truncate(keep);
    ranked.into_iter().map(|(_, _, it)| it).collect()
}

/// Enumeration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationConfig {
    /// Keep at most this many scenarios per kind, ranked by candidate
    /// domains (descending), subject as the tiebreak. `0` keeps all.
    pub max_per_kind: usize,
    /// Also enumerate compound (two-at-once) scenarios, composed from
    /// the capped singles: provider×provider, provider×ccTLD, and
    /// provider×prefix pairs, each pair-kind capped at `max_per_kind`.
    pub compound: bool,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        EnumerationConfig { max_per_kind: 6, compound: false }
    }
}

/// Enumerates every failure scenario implied by a measured baseline,
/// capped per [`EnumerationConfig`], in a deterministic order
/// (provider, ASN, prefix, ccTLD, then compounds; within a kind by
/// blast size).
pub fn enumerate_scenarios(
    dataset: &MeasurementDataset,
    matchers: &[ProviderMatcher],
    asn_db: &AsnDb,
    config: EnumerationConfig,
) -> Vec<Scenario> {
    let mut out = Vec::new();
    out.extend(cap(provider_scenarios(dataset, matchers), config.max_per_kind));
    out.extend(cap(asn_scenarios(dataset, asn_db), config.max_per_kind));
    out.extend(cap(prefix_scenarios(dataset), config.max_per_kind));
    out.extend(cap(cctld_scenarios(dataset), config.max_per_kind));
    if config.compound {
        let compounds = compound_scenarios(&out, config.max_per_kind);
        out.extend(compounds);
    }
    out
}

/// Composes compound (two-at-once) scenarios from the enumerated
/// singles. Three pair kinds, in fixed order: provider×provider (two
/// providers fail together), provider×ccTLD (a provider *and* the
/// registry), provider×prefix (a provider plus a withdrawn /24). Each
/// pair-kind is capped at `max_per_pair` (0 = all), ranked like
/// singles: candidate-union size descending, then subject.
///
/// A compound's blast set is the union of its parts, so by
/// construction it darkens at least the union of what its components
/// darken alone.
pub fn compound_scenarios(singles: &[Scenario], max_per_pair: usize) -> Vec<Scenario> {
    let of_kind =
        |k: ScenarioKind| -> Vec<&Scenario> { singles.iter().filter(|s| s.kind == k).collect() };
    let providers = of_kind(ScenarioKind::Provider);
    let cctlds = of_kind(ScenarioKind::Cctld);
    let prefixes = of_kind(ScenarioKind::Prefix);

    let mut out = Vec::new();
    let mut pairs: Vec<(&Scenario, &Scenario)> = Vec::new();
    for (i, a) in providers.iter().enumerate() {
        for b in &providers[i + 1..] {
            pairs.push((a, b));
        }
    }
    out.extend(cap(pairs.drain(..).map(|(a, b)| compose(a, b)).collect(), max_per_pair));
    for &a in &providers {
        for &b in &cctlds {
            pairs.push((a, b));
        }
    }
    out.extend(cap(pairs.drain(..).map(|(a, b)| compose(a, b)).collect(), max_per_pair));
    for &a in &providers {
        for &b in &prefixes {
            pairs.push((a, b));
        }
    }
    out.extend(cap(pairs.drain(..).map(|(a, b)| compose(a, b)).collect(), max_per_pair));
    out
}

/// One compound scenario: the union of two singles' blast sets.
fn compose(a: &Scenario, b: &Scenario) -> Scenario {
    let candidates: BTreeSet<String> = a.candidates.union(&b.candidates).cloned().collect();
    let mut site_groups = a.site_groups.clone();
    site_groups.extend(b.site_groups.iter().cloned());
    Scenario {
        kind: ScenarioKind::Compound,
        subject: format!("{}+{}", a.id(), b.id()),
        blackhole_addrs: a.blackhole_addrs.union(&b.blackhole_addrs).copied().collect(),
        blackhole_prefixes: a.blackhole_prefixes.union(&b.blackhole_prefixes).copied().collect(),
        degraded_addrs: BTreeSet::new(),
        degraded_prefixes: BTreeSet::new(),
        degrade_ppm: 0,
        site_groups,
        candidate_domains: candidates.len(),
        candidates,
    }
}

/// Keeps the `n` largest scenarios of one kind (all of them when `n` is
/// zero), ordered by candidate-domain count descending, then subject.
fn cap(mut scenarios: Vec<Scenario>, n: usize) -> Vec<Scenario> {
    scenarios.sort_by(|a, b| {
        b.candidate_domains.cmp(&a.candidate_domains).then_with(|| a.subject.cmp(&b.subject))
    });
    if n > 0 {
        scenarios.truncate(n);
    }
    scenarios
}

fn provider_scenarios(dataset: &MeasurementDataset, matchers: &[ProviderMatcher]) -> Vec<Scenario> {
    // label → (addrs, candidate domains, host → anycast address set)
    type Group = (BTreeSet<Ipv4Addr>, BTreeSet<String>, BTreeMap<String, BTreeSet<Ipv4Addr>>);
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for probe in &dataset.probes {
        for server in &probe.servers {
            let Some(m) = matchers.iter().find(|m| m.matches(&server.host)) else { continue };
            let entry = groups.entry(m.label.clone()).or_default();
            entry.0.extend(server.addrs.iter().copied());
            entry.1.insert(probe.domain.to_string());
            entry.2.entry(server.host.to_string()).or_default().extend(server.addrs.iter());
        }
    }
    groups
        .into_iter()
        .filter(|(_, (addrs, _, _))| !addrs.is_empty())
        .map(|(label, (addrs, domains, hosts))| Scenario {
            kind: ScenarioKind::Provider,
            subject: label,
            blackhole_addrs: addrs,
            blackhole_prefixes: BTreeSet::new(),
            degraded_addrs: BTreeSet::new(),
            degraded_prefixes: BTreeSet::new(),
            degrade_ppm: 0,
            site_groups: hosts.into_values().map(|g| g.into_iter().collect()).collect(),
            candidate_domains: domains.len(),
            candidates: domains,
        })
        .collect()
}

fn asn_scenarios(dataset: &MeasurementDataset, asn_db: &AsnDb) -> Vec<Scenario> {
    let mut groups: BTreeMap<u32, (BTreeSet<Ipv4Addr>, BTreeSet<String>)> = BTreeMap::new();
    for probe in &dataset.probes {
        for addr in probe.ns_addrs() {
            let Some(asn) = asn_db.lookup(addr) else { continue };
            let entry = groups.entry(asn).or_default();
            entry.0.insert(addr);
            entry.1.insert(probe.domain.to_string());
        }
    }
    groups
        .into_iter()
        .map(|(asn, (addrs, domains))| Scenario {
            kind: ScenarioKind::Asn,
            subject: format!("AS{asn}"),
            blackhole_addrs: addrs,
            blackhole_prefixes: BTreeSet::new(),
            degraded_addrs: BTreeSet::new(),
            degraded_prefixes: BTreeSet::new(),
            degrade_ppm: 0,
            site_groups: Vec::new(),
            candidate_domains: domains.len(),
            candidates: domains,
        })
        .collect()
}

fn prefix_scenarios(dataset: &MeasurementDataset) -> Vec<Scenario> {
    // prefix → (anycast-sibling addrs outside the prefix, candidates)
    let mut groups: BTreeMap<Prefix24, (BTreeSet<Ipv4Addr>, BTreeSet<String>)> = BTreeMap::new();
    for probe in &dataset.probes {
        for server in &probe.servers {
            for &addr in &server.addrs {
                let p = prefix24(addr);
                let entry = groups.entry(p).or_default();
                // The host is one anycast service: a site in this
                // prefix dying means the origin behind every sibling
                // address of the same host is gone too.
                entry.0.extend(server.addrs.iter().copied().filter(|&a| prefix24(a) != p));
                entry.1.insert(probe.domain.to_string());
            }
        }
    }
    groups
        .into_iter()
        .map(|(p, (siblings, domains))| Scenario {
            kind: ScenarioKind::Prefix,
            subject: p.to_string(),
            blackhole_addrs: siblings,
            blackhole_prefixes: BTreeSet::from([p]),
            degraded_addrs: BTreeSet::new(),
            degraded_prefixes: BTreeSet::new(),
            degrade_ppm: 0,
            site_groups: Vec::new(),
            candidate_domains: domains.len(),
            candidates: domains,
        })
        .collect()
}

fn cctld_scenarios(dataset: &MeasurementDataset) -> Vec<Scenario> {
    let mut groups: BTreeMap<String, (BTreeSet<Ipv4Addr>, BTreeSet<String>)> = BTreeMap::new();
    for probe in &dataset.probes {
        let labels = probe.domain.labels();
        let Some(tld) = labels.last() else { continue };
        let entry = groups.entry(tld.as_str().to_owned()).or_default();
        entry.0.extend(probe.parent_addrs.iter().copied());
        entry.1.insert(probe.domain.to_string());
    }
    groups
        .into_iter()
        .filter(|(_, (addrs, _))| !addrs.is_empty())
        .map(|(tld, (addrs, domains))| Scenario {
            kind: ScenarioKind::Cctld,
            subject: tld,
            blackhole_addrs: addrs,
            blackhole_prefixes: BTreeSet::new(),
            degraded_addrs: BTreeSet::new(),
            degraded_prefixes: BTreeSet::new(),
            degrade_ppm: 0,
            site_groups: Vec::new(),
            candidate_domains: domains.len(),
            candidates: domains,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(kind: ScenarioKind, subject: &str, candidates: usize) -> Scenario {
        Scenario {
            kind,
            subject: subject.to_owned(),
            blackhole_addrs: BTreeSet::new(),
            blackhole_prefixes: BTreeSet::new(),
            degraded_addrs: BTreeSet::new(),
            degraded_prefixes: BTreeSet::new(),
            degrade_ppm: 0,
            site_groups: Vec::new(),
            candidates: (0..candidates).map(|i| format!("d{i}.gov.zz")).collect(),
            candidate_domains: candidates,
        }
    }

    fn with_addrs(mut s: Scenario, addrs: &[[u8; 4]]) -> Scenario {
        s.blackhole_addrs = addrs.iter().map(|o| Ipv4Addr::from(*o)).collect();
        s
    }

    #[test]
    fn ids_are_kind_prefixed() {
        assert_eq!(
            scenario(ScenarioKind::Provider, "cloudflare.com", 1).id(),
            "provider:cloudflare.com"
        );
        assert_eq!(scenario(ScenarioKind::Asn, "AS64500", 1).id(), "asn:AS64500");
    }

    #[test]
    fn kind_labels_roundtrip() {
        for k in ScenarioKind::all() {
            assert_eq!(ScenarioKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ScenarioKind::parse("meteor"), None);
    }

    #[test]
    fn cap_orders_by_blast_then_subject() {
        let capped = cap(
            vec![
                scenario(ScenarioKind::Asn, "AS3", 1),
                scenario(ScenarioKind::Asn, "AS2", 5),
                scenario(ScenarioKind::Asn, "AS1", 5),
            ],
            2,
        );
        let subjects: Vec<&str> = capped.iter().map(|s| s.subject.as_str()).collect();
        assert_eq!(subjects, ["AS1", "AS2"]);
    }

    #[test]
    fn cap_zero_keeps_all() {
        assert_eq!(
            cap((0..9).map(|i| scenario(ScenarioKind::Cctld, &format!("t{i}"), i)).collect(), 0)
                .len(),
            9
        );
    }

    #[test]
    fn partial_dial_parses_and_rejects() {
        assert_eq!(PartialDial::parse("1/3"), Some(PartialDial { k: 1, n: 3 }));
        assert_eq!(PartialDial::parse("3/3"), Some(PartialDial { k: 3, n: 3 }));
        assert_eq!(PartialDial::parse("0/4"), Some(PartialDial { k: 0, n: 4 }));
        assert_eq!(PartialDial::parse("4/3"), None, "k must not exceed n");
        assert_eq!(PartialDial::parse("1/0"), None);
        assert_eq!(PartialDial::parse("13"), None);
    }

    #[test]
    fn dialed_blast_sets_nest_as_the_dial_turns() {
        let base = with_addrs(
            scenario(ScenarioKind::Provider, "bigdns", 4),
            &[[10, 1, 0, 1], [10, 2, 0, 1], [10, 3, 0, 1], [10, 4, 0, 1], [10, 5, 0, 1]],
        );
        let mut prev = BTreeSet::new();
        for k in 0..=5 {
            let dialed = base.dialed(PartialDial { k, n: 5 });
            assert!(
                dialed.blackhole_addrs.is_superset(&prev),
                "k={k}: {:?} not ⊇ {prev:?}",
                dialed.blackhole_addrs
            );
            prev = dialed.blackhole_addrs;
        }
        assert_eq!(prev, base.blackhole_addrs, "k=n is the full outage");
        assert_eq!(base.dialed(PartialDial { k: 0, n: 5 }).blackhole_addrs.len(), 0);
        assert_eq!(base.dialed(PartialDial { k: 2, n: 5 }).subject, "bigdns~2of5");
    }

    #[test]
    fn dial_respects_site_groups() {
        let mut base = with_addrs(
            scenario(ScenarioKind::Provider, "bigdns", 2),
            &[[10, 1, 0, 1], [10, 1, 0, 2], [10, 2, 0, 1], [10, 2, 0, 2]],
        );
        base.site_groups = vec![
            vec![Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 2)],
            vec![Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 2, 0, 2)],
        ];
        let half = base.dialed(PartialDial { k: 1, n: 2 });
        // ceil(2·1/2) = 1 address failed per group — every hostname
        // keeps one live site.
        assert_eq!(half.blackhole_addrs.len(), 2);
        for group in &base.site_groups {
            let hit = group.iter().filter(|a| half.blackhole_addrs.contains(a)).count();
            assert_eq!(hit, 1, "exactly one site per group fails");
        }
    }

    #[test]
    fn degraded_moves_the_blast_into_the_degrade_sets() {
        let base = with_addrs(scenario(ScenarioKind::Provider, "bigdns", 1), &[[10, 1, 0, 1]]);
        let d = base.degraded(250_000);
        assert!(d.blackhole_addrs.is_empty());
        assert_eq!(d.degraded_addrs, base.blackhole_addrs);
        assert_eq!(d.degrade_ppm, 250_000);
        assert_eq!(d.subject, "bigdns~d250000");
        assert_eq!(d.id(), "provider:bigdns~d250000");
        let spec = d.spec();
        assert!(!spec.is_empty());
        assert_eq!(spec.degrade_ppm, 250_000);
    }

    #[test]
    fn compounds_union_blasts_and_candidates() {
        let a = with_addrs(scenario(ScenarioKind::Provider, "alpha", 3), &[[10, 1, 0, 1]]);
        let b = with_addrs(scenario(ScenarioKind::Provider, "beta", 2), &[[10, 2, 0, 1]]);
        let mut c = with_addrs(scenario(ScenarioKind::Cctld, "zz", 2), &[[10, 9, 0, 1]]);
        c.candidates = ["d9.gov.zz".to_owned(), "d0.gov.zz".to_owned()].into();
        c.candidate_domains = 2;
        let singles = vec![a.clone(), b.clone(), c.clone()];
        let compounds = compound_scenarios(&singles, 0);
        // one provider pair + two provider×cctld pairs
        assert_eq!(compounds.len(), 3);
        let pp = compounds.iter().find(|s| s.subject.contains("alpha+provider:beta")).unwrap();
        assert_eq!(pp.kind, ScenarioKind::Compound);
        assert_eq!(pp.id(), "compound:provider:alpha+provider:beta");
        assert!(pp.blackhole_addrs.is_superset(&a.blackhole_addrs));
        assert!(pp.blackhole_addrs.is_superset(&b.blackhole_addrs));
        assert_eq!(pp.candidate_domains, 3, "candidate union, not sum");
        let pc = compounds.iter().find(|s| s.subject == "provider:alpha+cctld:zz").unwrap();
        assert_eq!(pc.candidate_domains, 4, "d0 overlaps, d9 is new");
    }

    #[test]
    fn compound_pair_kinds_are_capped_independently() {
        let singles: Vec<Scenario> = (0..4)
            .map(|i| {
                with_addrs(
                    scenario(ScenarioKind::Provider, &format!("p{i}"), 4 - i),
                    &[[10, i as u8, 0, 1]],
                )
            })
            .collect();
        // 4 providers → 6 possible pairs, capped to 2.
        assert_eq!(compound_scenarios(&singles, 2).len(), 2);
    }
}
