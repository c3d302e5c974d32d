use std::collections::BTreeMap;
use std::fmt::Write as _;

use govdns_model::{DomainName, SimDate};
use govdns_simnet::{FaultStats, TrafficStats};
use govdns_telemetry::TelemetrySnapshot;
use govdns_world::CountryCode;

use crate::discovery::DiscoveredDomain;
use crate::probe::{DomainProbe, ResponseClass, ServerObservation, ServerProbe};
use crate::seed::SeedDomain;

/// The §III-B collection funnel: how many domains survived each stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Domains queried after discovery and filtering.
    pub queried: usize,
    /// Domains with ≥ 1 response from a parent-zone nameserver.
    pub parent_responsive: usize,
    /// Domains with ≥ 1 non-empty parent response.
    pub parent_nonempty: usize,
    /// Domains with ≥ 1 authoritative answer from their own nameservers.
    pub child_responsive: usize,
}

/// The complete output of a measurement campaign: seeds, the discovered
/// domain list, one probe per domain, and bookkeeping.
#[derive(Debug, Clone)]
pub struct MeasurementDataset {
    /// The seed domains.
    pub seeds: Vec<SeedDomain>,
    /// Discovered domains (country attribution included).
    pub discovered: Vec<DiscoveredDomain>,
    /// One probe per discovered domain, same order.
    pub probes: Vec<DomainProbe>,
    /// Simulated-network traffic totals for the campaign.
    pub traffic: TrafficStats,
    /// Injected-fault totals (all zero on a clean run).
    pub faults: FaultStats,
    /// Campaign date.
    pub collection_date: SimDate,
    /// Probes that received a second round.
    pub retried: usize,
    /// Frozen pipeline telemetry: stage timings, response-class
    /// counters, latency/size histograms, and the §III-D query ledger.
    pub telemetry: TelemetrySnapshot,
}

impl MeasurementDataset {
    /// The funnel counts.
    pub fn funnel(&self) -> Funnel {
        let mut f = Funnel { queried: self.probes.len(), ..Funnel::default() };
        for p in &self.probes {
            if p.parent_responsive() {
                f.parent_responsive += 1;
            }
            if p.parent_nonempty() {
                f.parent_nonempty += 1;
            }
            if p.has_authoritative_answer() {
                f.child_responsive += 1;
            }
        }
        f
    }

    /// Domains that answered, but only degraded (retries or round 2).
    pub fn degraded_count(&self) -> usize {
        self.probes.iter().filter(|p| p.degraded()).count()
    }

    /// Domains revived by the second probing round.
    pub fn recovered_in_round2_count(&self) -> usize {
        self.probes.iter().filter(|p| p.recovered_in_round2()).count()
    }

    /// Country of the `i`-th probe.
    pub fn country_of(&self, i: usize) -> CountryCode {
        self.discovered[i].country
    }

    /// Iterates `(probe, country)` pairs.
    pub fn probes_with_country(&self) -> impl Iterator<Item = (&DomainProbe, CountryCode)> + '_ {
        self.probes.iter().zip(self.discovered.iter().map(|d| d.country))
    }

    /// The seed (`d_gov`) each domain belongs to.
    pub fn seed_of(&self, i: usize) -> &DomainName {
        &self.discovered[i].seed
    }

    /// Per-country probe counts (for per-country figures).
    pub fn domains_per_country(&self) -> BTreeMap<CountryCode, usize> {
        let mut map = BTreeMap::new();
        for d in &self.discovered {
            *map.entry(d.country).or_insert(0) += 1;
        }
        map
    }

    /// One-row-per-domain CSV of the campaign's outcome — the artifact a
    /// downstream analyst would load into their own tooling.
    pub fn to_summary_csv(&self) -> String {
        let mut t = crate::tables::TextTable::new([
            "domain",
            "country",
            "seed",
            "parent_zone",
            "parent_responsive",
            "parent_ns",
            "child_ns",
            "authoritative",
            "degraded",
            "defective_ns",
            "total_ns",
            "addrs",
            "queries",
            "rounds",
        ]);
        for (i, p) in self.probes.iter().enumerate() {
            let defective = p.servers.iter().filter(|s| s.is_defective()).count();
            let join = |v: &[govdns_model::DomainName]| -> String {
                v.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(" ")
            };
            t.push_row([
                p.domain.to_string(),
                self.country_of(i).to_string(),
                self.seed_of(i).to_string(),
                p.parent_zone.as_ref().map(|z| z.to_string()).unwrap_or_default(),
                p.parent_responsive().to_string(),
                join(&p.parent_ns),
                join(&p.child_ns),
                p.has_authoritative_answer().to_string(),
                p.degraded().to_string(),
                defective.to_string(),
                p.servers.len().to_string(),
                p.ns_addrs().len().to_string(),
                p.queries.to_string(),
                p.rounds.to_string(),
            ]);
        }
        t.to_csv()
    }

    /// A canonical JSON rendering of the whole dataset: fixed field
    /// order, no whitespace, arrays in stored order.
    ///
    /// This is the determinism regression guard — two campaigns over
    /// the same seeded world with the same [`FaultPlan`] seed must
    /// produce byte-identical output (CI diffs exactly this). The
    /// telemetry snapshot is deliberately excluded: stage spans measure
    /// real wall-clock time, which never reproduces.
    ///
    /// [`FaultPlan`]: govdns_simnet::FaultPlan
    pub fn canonical_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        let _ = write!(out, "\"collection_date\":\"{}\"", self.collection_date);
        let _ = write!(out, ",\"retried\":{}", self.retried);
        let t = &self.traffic;
        let _ = write!(
            out,
            ",\"traffic\":{{\"queries_sent\":{},\"responses_received\":{},\"timeouts\":{},\
             \"bytes_sent\":{},\"bytes_received\":{},\"total_wait_ms\":{}}}",
            t.queries_sent,
            t.responses_received,
            t.timeouts,
            t.bytes_sent,
            t.bytes_received,
            t.total_wait_ms
        );
        let f = &self.faults;
        let _ = write!(
            out,
            ",\"faults\":{{\"flap_timeouts\":{},\"losses\":{},\"refused\":{},\"truncated\":{},\
             \"delayed\":{},\"outages\":{}}}",
            f.flap_timeouts, f.losses, f.refused, f.truncated, f.delayed, f.outages
        );
        out.push_str(",\"seeds\":[");
        for (i, s) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"country\":\"{}\",\"name\":\"{}\",\"kind\":\"{:?}\",\
                 \"earliest_government_use\":{},\"provenance\":\"{:?}\",\"portal_resolved\":{}}}",
                s.country,
                s.name,
                s.kind,
                s.earliest_government_use
                    .map(|d| format!("\"{d}\""))
                    .unwrap_or_else(|| "null".into()),
                s.provenance,
                s.portal_resolved
            );
        }
        out.push_str("],\"discovered\":[");
        for (i, d) in self.discovered.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"country\":\"{}\",\"seed\":\"{}\"}}",
                d.name, d.country, d.seed
            );
        }
        out.push_str("],\"probes\":[");
        for (i, p) in self.probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_probe(&mut out, p);
        }
        out.push_str("]}");
        out
    }
}

fn json_names(out: &mut String, names: &[DomainName]) {
    out.push('[');
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{n}\"");
    }
    out.push(']');
}

fn json_class(out: &mut String, class: &ResponseClass) {
    match class {
        ResponseClass::Authoritative(targets) => {
            out.push_str("{\"authoritative\":");
            json_names(out, targets);
            out.push('}');
        }
        ResponseClass::Referral { cut, targets, glue } => {
            let _ = write!(out, "{{\"referral\":{{\"cut\":\"{cut}\",\"targets\":");
            json_names(out, targets);
            out.push_str(",\"glue\":[");
            for (i, (host, addr)) in glue.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[\"{host}\",\"{addr}\"]");
            }
            out.push_str("]}}");
        }
        ResponseClass::Empty(rcode) => {
            let _ = write!(out, "{{\"empty\":{rcode}}}");
        }
        ResponseClass::Rejected(rcode) => {
            let _ = write!(out, "{{\"rejected\":{rcode}}}");
        }
        ResponseClass::Truncated => out.push_str("\"truncated\""),
        ResponseClass::Timeout => out.push_str("\"timeout\""),
        ResponseClass::Skipped => out.push_str("\"skipped\""),
    }
}

fn json_observations(out: &mut String, observations: &[ServerObservation]) {
    out.push('[');
    for (i, o) in observations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"addr\":\"{}\",\"attempts\":{},\"class\":", o.addr, o.attempts);
        json_class(out, &o.class);
        out.push('}');
    }
    out.push(']');
}

fn json_probe(out: &mut String, p: &DomainProbe) {
    let _ = write!(out, "{{\"domain\":\"{}\",\"parent_zone\":", p.domain);
    match &p.parent_zone {
        Some(z) => {
            let _ = write!(out, "\"{z}\"");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"parent_addrs\":[");
    for (i, a) in p.parent_addrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{a}\"");
    }
    out.push_str("],\"parent_observations\":");
    json_observations(out, &p.parent_observations);
    out.push_str(",\"parent_ns\":");
    json_names(out, &p.parent_ns);
    out.push_str(",\"child_ns\":");
    json_names(out, &p.child_ns);
    out.push_str(",\"servers\":[");
    for (i, s) in p.servers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_server(out, s);
    }
    out.push_str("],\"soa\":");
    match &p.soa {
        Some(soa) => {
            let _ = write!(
                out,
                "{{\"mname\":\"{}\",\"rname\":\"{}\",\"serial\":{}}}",
                soa.mname, soa.rname, soa.serial
            );
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"queries\":{},\"elapsed_ms\":{},\"rounds\":{},\"degraded\":{}}}",
        p.queries,
        p.elapsed_ms,
        p.rounds,
        p.degraded()
    );
}

fn json_server(out: &mut String, s: &ServerProbe) {
    let _ = write!(
        out,
        "{{\"host\":\"{}\",\"in_parent\":{},\"in_child\":{},\"recovered_in_round2\":{},\
         \"addrs\":[",
        s.host, s.in_parent, s.in_child, s.recovered_in_round2
    );
    for (i, a) in s.addrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{a}\"");
    }
    out.push_str("],\"observations\":");
    json_observations(out, &s.observations);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ResponseClass, ServerObservation, ServerProbe};
    use crate::seed::{SeedKind, SeedProvenance};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn probe(domain: &str, parent_responds: bool, p: &[&str], auth: bool) -> DomainProbe {
        let addr = Ipv4Addr::new(192, 0, 2, 1);
        DomainProbe {
            domain: n(domain),
            parent_zone: Some(n("gov.zz")),
            parent_addrs: vec![addr],
            parent_observations: if parent_responds {
                vec![ServerObservation { addr, class: ResponseClass::Empty(0), attempts: 1 }]
            } else {
                vec![ServerObservation { addr, class: ResponseClass::Timeout, attempts: 1 }]
            },
            parent_ns: p.iter().map(|s| n(s)).collect(),
            child_ns: Vec::new(),
            servers: p
                .iter()
                .map(|s| ServerProbe {
                    host: n(s),
                    in_parent: true,
                    in_child: false,
                    addrs: vec![addr],
                    observations: vec![ServerObservation {
                        addr,
                        class: if auth {
                            ResponseClass::Authoritative(vec![n(s)])
                        } else {
                            ResponseClass::Timeout
                        },
                        attempts: 1,
                    }],
                    recovered_in_round2: false,
                })
                .collect(),
            soa: None,
            queries: 1,
            elapsed_ms: 1,
            rounds: 1,
        }
    }

    #[test]
    fn funnel_counts_each_stage() {
        let ds = MeasurementDataset {
            seeds: vec![SeedDomain {
                country: CountryCode::new("zz"),
                name: n("gov.zz"),
                kind: SeedKind::ReservedSuffix,
                earliest_government_use: None,
                provenance: SeedProvenance::PortalLink,
                portal_resolved: true,
            }],
            discovered: (0..4)
                .map(|i| crate::discovery::DiscoveredDomain {
                    name: n(&format!("d{i}.gov.zz")),
                    country: CountryCode::new("zz"),
                    seed: n("gov.zz"),
                })
                .collect(),
            probes: vec![
                probe("d0.gov.zz", false, &[], false),            // parent dead
                probe("d1.gov.zz", true, &[], false),             // removed
                probe("d2.gov.zz", true, &["ns1.gov.zz"], false), // stale
                probe("d3.gov.zz", true, &["ns1.gov.zz"], true),  // healthy
            ],
            traffic: TrafficStats::default(),
            faults: FaultStats::default(),
            collection_date: SimDate::from_ymd(2021, 4, 15),
            retried: 0,
            telemetry: TelemetrySnapshot::default(),
        };
        let f = ds.funnel();
        assert_eq!(f.queried, 4);
        assert_eq!(f.parent_responsive, 3);
        assert_eq!(f.parent_nonempty, 2);
        assert_eq!(f.child_responsive, 1);
        assert_eq!(ds.domains_per_country()[&CountryCode::new("zz")], 4);
        assert_eq!(ds.country_of(2), CountryCode::new("zz"));
        assert_eq!(ds.seed_of(0), &n("gov.zz"));
    }

    fn tiny_dataset() -> MeasurementDataset {
        MeasurementDataset {
            seeds: Vec::new(),
            discovered: vec![crate::discovery::DiscoveredDomain {
                name: n("d0.gov.zz"),
                country: CountryCode::new("zz"),
                seed: n("gov.zz"),
            }],
            probes: vec![probe("d0.gov.zz", true, &["ns1.gov.zz"], true)],
            traffic: TrafficStats::default(),
            faults: FaultStats::default(),
            collection_date: SimDate::from_ymd(2021, 4, 15),
            retried: 0,
            telemetry: TelemetrySnapshot::default(),
        }
    }

    #[test]
    fn canonical_json_is_stable_and_structured() {
        let ds = tiny_dataset();
        let json = ds.canonical_json();
        assert_eq!(json, ds.canonical_json(), "rendering twice is identical");
        assert!(json.starts_with("{\"collection_date\":\"2021-04-15\""));
        assert!(json.contains("\"domain\":\"d0.gov.zz\""));
        assert!(json.contains("\"authoritative\":[\"ns1.gov.zz\"]"));
        assert!(json.contains("\"faults\":{\"flap_timeouts\":0"));
        assert!(json.contains("\"degraded\":false"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn degraded_counts_need_retries_or_round2() {
        let mut ds = tiny_dataset();
        assert_eq!(ds.degraded_count(), 0);
        ds.probes[0].servers[0].observations[0].attempts = 3;
        assert_eq!(ds.degraded_count(), 1, "retried-into-answer is degraded");
        ds.probes[0].servers[0].observations[0].attempts = 1;
        ds.probes[0].servers[0].recovered_in_round2 = true;
        assert_eq!(ds.degraded_count(), 1, "round-2 recovery is degraded");
        assert_eq!(ds.recovered_in_round2_count(), 1);
        assert!(ds.canonical_json().contains("\"degraded\":true"));
    }
}
