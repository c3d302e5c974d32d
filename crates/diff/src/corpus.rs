//! The regression corpus: frozen failure cases that replay.
//!
//! When a campaign assertion or analysis fails, the offending domains'
//! trace blocks plus everything needed to regenerate their world — the
//! world seed, scale, chaos plan, retry policy — are archived into a
//! [`CorpusCase`]. `replay` later re-probes *just those domains*
//! against a freshly generated simnet and byte-compares the new trace
//! blocks against the recorded ones, so a frozen failure keeps failing
//! (or is provably fixed) without re-running the whole campaign.
//!
//! Replay is only sound for configurations whose per-domain behaviour
//! is independent of global campaign state. [`CorpusCase::capture`]
//! enforces that: unlimited retry budget (a shared budget drains in
//! campaign order), no breakers (they quarantine based on global
//! failure history), and at most the Flaky chaos profile (whose fault
//! decisions are pure hashes of `(seed, destination, qname, attempt)`;
//! Hostile's REFUSED bursts depend on global per-destination ordinals).

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use govdns_core::report::Report;
use govdns_core::{Campaign, ProbeClient, RateLimiter, RetryPolicy};
use govdns_model::json::{self, escape_into, Json};
use govdns_model::DomainName;
use govdns_simnet::ChaosProfile;
use govdns_trace::{read_trace, TraceLog, TraceRecord, TraceSpec, Tracer};
use govdns_world::{WorldConfig, WorldGenerator};

/// How many offending domains a case archives at most.
pub const CAPTURE_CAP: usize = 8;

/// The campaign configuration a corpus case replays under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySetup {
    /// World seed.
    pub world_seed: u64,
    /// World scale in parts per million (exact, JSON-stable).
    pub scale_ppm: u64,
    /// Chaos profile and plan seed, when faults were installed.
    pub chaos: Option<(ChaosProfile, u64)>,
    /// Query-rate cap.
    pub max_qps: u32,
    /// Retry policy (its budget must be unlimited to be capturable).
    pub retry: RetryPolicy,
    /// Whether stale-looking domains got a second round.
    pub second_round: bool,
    /// Flight-recorder ring capacity the trace was recorded with.
    pub flight_capacity: usize,
}

impl ReplaySetup {
    /// Why this configuration cannot replay per-domain, or `None` when
    /// it can.
    pub fn replay_unsafe_reason(&self) -> Option<String> {
        if matches!(self.chaos, Some((ChaosProfile::Congested | ChaosProfile::Hostile, _))) {
            return Some(
                "chaos profile depends on global per-destination state; only flaky replays"
                    .to_string(),
            );
        }
        if self.retry.is_enabled() && self.retry.per_destination_budget.is_some() {
            return Some("bounded retry budget drains in campaign order".to_string());
        }
        None
    }
}

/// One archived domain: its campaign index and recorded trace block,
/// kept as the exact encoded record for byte comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusDomain {
    /// Campaign domain index at capture time.
    pub index: u64,
    /// The domain.
    pub domain: String,
    /// The encoded `TraceRecord::Domain` payload recorded at capture.
    pub payload: String,
}

/// A frozen failure case: setup plus recorded trace blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Case name (also the `corpus/<name>.json` file stem).
    pub name: String,
    /// What failed at capture time (assertion text, panicked analysis).
    pub trigger: String,
    /// The configuration to replay under.
    pub setup: ReplaySetup,
    /// The archived domains, campaign order.
    pub domains: Vec<CorpusDomain>,
}

impl CorpusCase {
    /// Archives the offending domains of a failed run.
    ///
    /// Offenders are taken from the report's flight-recorder citations
    /// (panicked analyses, dump-cited domains) padded with degraded
    /// domains, capped at [`CAPTURE_CAP`]; only domains with a sampled
    /// trace block qualify.
    ///
    /// # Errors
    ///
    /// Returns why the configuration is not replay-safe, or that no
    /// offending domain had a trace block.
    pub fn capture(
        name: &str,
        trigger: &str,
        setup: &ReplaySetup,
        report: &Report,
        log: &TraceLog,
    ) -> Result<CorpusCase, String> {
        if let Some(reason) = setup.replay_unsafe_reason() {
            return Err(format!("configuration is not replay-safe: {reason}"));
        }
        let mut domains = Vec::new();
        for domain in report.offending_domains(log, CAPTURE_CAP) {
            let block = log.domain(&domain).expect("offenders have trace blocks");
            domains.push(CorpusDomain {
                index: block.index,
                domain,
                payload: TraceRecord::Domain(block.clone()).encode(),
            });
        }
        if domains.is_empty() {
            return Err("no offending domain has a sampled trace block".to_string());
        }
        domains.sort_by_key(|d| d.index);
        Ok(CorpusCase {
            name: name.to_string(),
            trigger: trigger.to_string(),
            setup: setup.clone(),
            domains,
        })
    }

    /// Canonical JSON rendering (fixed field order, no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"name\":");
        escape_into(&self.name, &mut out);
        out.push_str(",\"trigger\":");
        escape_into(&self.trigger, &mut out);
        let s = &self.setup;
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",\"world_seed\":{},\"scale_ppm\":{},\"chaos\":{},\"max_qps\":{},\
                 \"second_round\":{},\"flight_capacity\":{},\"retry\":{{\"max_attempts\":{},\
                 \"base_backoff_ms\":{},\"max_backoff_ms\":{}}},\"domains\":[",
                s.world_seed,
                s.scale_ppm,
                match s.chaos {
                    None => "null".to_string(),
                    Some((profile, seed)) => format!("[\"{}\",{seed}]", profile_label(profile)),
                },
                s.max_qps,
                s.second_round,
                s.flight_capacity,
                s.retry.max_attempts,
                s.retry.base_backoff_ms,
                s.retry.max_backoff_ms,
            ),
        );
        for (i, d) in self.domains.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!("{{\"index\":{},\"domain\":", d.index),
            );
            escape_into(&d.domain, &mut out);
            out.push_str(",\"payload\":");
            escape_into(&d.payload, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parses a case back from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed field, or the first
    /// domain the case names twice: a campaign probes each name once, and
    /// the replay finds each domain's trace block by name.
    pub fn from_json(text: &str) -> Result<CorpusCase, String> {
        let doc = json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("corpus case lacks string {key:?}"))
        };
        let num = |value: Option<&Json>, what: &str| -> Result<u64, String> {
            value.and_then(Json::as_u64).ok_or_else(|| format!("corpus case lacks count {what:?}"))
        };
        let num32 = |value: Option<&Json>, what: &str| -> Result<u32, String> {
            u32::try_from(num(value, what)?)
                .map_err(|_| format!("corpus case {what:?} exceeds u32"))
        };
        let chaos = match doc.get("chaos") {
            None | Some(Json::Null) => None,
            Some(value) => {
                let pair = value.as_arr().filter(|a| a.len() == 2).ok_or("bad \"chaos\" pair")?;
                let label = pair[0].as_str().ok_or("bad chaos profile")?;
                let profile = parse_profile(label)
                    .ok_or_else(|| format!("unknown chaos profile {label:?}"))?;
                Some((profile, num(Some(&pair[1]), "chaos seed")?))
            }
        };
        let retry = doc.get("retry").ok_or("corpus case lacks \"retry\"")?;
        let retry = RetryPolicy {
            max_attempts: num32(retry.get("max_attempts"), "retry.max_attempts")?,
            base_backoff_ms: num32(retry.get("base_backoff_ms"), "retry.base_backoff_ms")?,
            max_backoff_ms: num32(retry.get("max_backoff_ms"), "retry.max_backoff_ms")?,
            per_destination_budget: None,
        };
        let domains = doc
            .get("domains")
            .and_then(Json::as_arr)
            .ok_or("corpus case lacks \"domains\"")?
            .iter()
            .map(|d| {
                Ok(CorpusDomain {
                    index: num(d.get("index"), "domain index")?,
                    domain: d
                        .get("domain")
                        .and_then(Json::as_str)
                        .ok_or("domain entry lacks a name")?
                        .to_owned(),
                    payload: d
                        .get("payload")
                        .and_then(Json::as_str)
                        .ok_or("domain entry lacks a payload")?
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut seen = BTreeSet::new();
        for d in &domains {
            let key =
                d.domain.parse::<DomainName>().map_or_else(|_| d.domain.clone(), |n| n.to_string());
            if !seen.insert(key) {
                return Err(format!("corpus case names domain {:?} twice", d.domain));
            }
        }
        let scale_ppm = num(doc.get("scale_ppm"), "scale_ppm")?;
        if !(1..=2_000_000).contains(&scale_ppm) {
            return Err(format!("corpus case scale_ppm {scale_ppm} outside 1..=2000000"));
        }
        let max_qps = num32(doc.get("max_qps"), "max_qps")?;
        if max_qps == 0 {
            return Err("corpus case max_qps must be positive".into());
        }
        Ok(CorpusCase {
            name: str_field("name")?,
            trigger: str_field("trigger")?,
            setup: ReplaySetup {
                world_seed: num(doc.get("world_seed"), "world_seed")?,
                scale_ppm,
                chaos,
                max_qps,
                retry,
                second_round: doc
                    .get("second_round")
                    .and_then(Json::as_bool)
                    .ok_or("corpus case lacks \"second_round\"")?,
                flight_capacity: num(doc.get("flight_capacity"), "flight_capacity")? as usize,
            },
            domains,
        })
    }

    /// Writes the case to `dir/<name>.json` and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads a case from a file.
    ///
    /// # Errors
    ///
    /// Returns filesystem errors and parse failures as text.
    pub fn load(path: &Path) -> Result<CorpusCase, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CorpusCase::from_json(&text)
    }

    /// Re-probes the archived domains against a freshly generated world
    /// and byte-compares each new trace block with the recorded one.
    ///
    /// # Errors
    ///
    /// Returns setup failures (world regeneration, trace I/O, a domain
    /// name that no longer parses) as text; recorded-vs-replayed
    /// disagreements are reported in the outcome, not as errors.
    pub fn replay(&self) -> Result<ReplayOutcome, String> {
        let s = &self.setup;
        let scale = s.scale_ppm as f64 / 1_000_000.0;
        let world =
            WorldGenerator::new(WorldConfig::small(s.world_seed).with_scale(scale)).generate();
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        if let Some((profile, seed)) = s.chaos {
            campaign.network.install_faults(Some(profile.plan(seed)));
        }
        let trace_path = std::env::temp_dir().join(format!(
            "govdns-replay-{}-{}.trace",
            std::process::id(),
            self.name
        ));
        let spec = TraceSpec {
            path: trace_path.clone(),
            seed: 0,
            sample_ppm: govdns_trace::SAMPLE_FULL,
            flight_capacity: s.flight_capacity,
            max_dumps: govdns_trace::DEFAULT_MAX_DUMPS,
        };
        let tracer = Tracer::create(&spec, self.domains.len() as u64, 0)
            .map_err(|e| format!("trace file: {e}"))?;
        let client = ProbeClient::new(
            campaign.network,
            campaign.roots.to_vec(),
            RateLimiter::new(s.max_qps),
        )
        .with_retry(s.retry)
        .with_tracer(tracer.worker());
        for (i, d) in self.domains.iter().enumerate() {
            let name: DomainName =
                d.domain.parse().map_err(|_| format!("bad domain name {:?}", d.domain))?;
            client.trace_begin(i as u64, &name);
            let mut probe = client.probe(&name);
            if s.second_round && probe.parent_nonempty() && !probe.has_authoritative_answer() {
                client.retry_child_side(&mut probe);
            }
            client.trace_end();
        }
        drop(client);
        tracer.finish();
        let log = read_trace(&trace_path).map_err(|e| format!("replayed trace: {e}"))?;
        let _ = std::fs::remove_file(&trace_path);

        let mut outcome = ReplayOutcome { domains: self.domains.len(), ..ReplayOutcome::default() };
        for d in &self.domains {
            let Some(block) = log.domain(&d.domain) else {
                outcome.mismatches.push(ReplayMismatch {
                    domain: d.domain.clone(),
                    detail: "replay produced no trace block".to_string(),
                });
                continue;
            };
            // The replay run numbers domains 0..n; restore the recorded
            // campaign index before comparing, so the archived bytes and
            // the replayed bytes differ only if *behaviour* differed.
            let mut block = block.clone();
            block.index = d.index;
            let replayed = TraceRecord::Domain(block.clone()).encode();
            if replayed == d.payload {
                outcome.matched += 1;
                continue;
            }
            let detail = match TraceRecord::decode(&d.payload) {
                Ok(TraceRecord::Domain(recorded)) => {
                    match govdns_trace::first_divergence(&recorded, &block) {
                        Some(div) => format!(
                            "first divergence at event {}: recorded {} / replayed {}",
                            div.pos,
                            div.a.as_ref().map_or("(stream end)".into(), |e| e.render()),
                            div.b.as_ref().map_or("(stream end)".into(), |e| e.render()),
                        ),
                        None => "event streams agree but encodings differ".to_string(),
                    }
                }
                Ok(_) => "recorded payload is not a domain block".to_string(),
                Err(e) => format!("recorded payload does not decode: {e}"),
            };
            outcome.mismatches.push(ReplayMismatch { domain: d.domain.clone(), detail });
        }
        Ok(outcome)
    }
}

/// The result of replaying a corpus case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Domains the case archives.
    pub domains: usize,
    /// Domains whose replayed trace block matched byte-for-byte.
    pub matched: usize,
    /// Domains that disagreed, with the first divergence located.
    pub mismatches: Vec<ReplayMismatch>,
}

impl ReplayOutcome {
    /// Whether every archived domain replayed byte-identically.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.matched == self.domains
    }
}

/// One domain whose replay disagreed with the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// The domain.
    pub domain: String,
    /// Where and how it first diverged.
    pub detail: String,
}

/// Stable corpus-file label for a chaos profile.
pub fn profile_label(profile: ChaosProfile) -> &'static str {
    match profile {
        ChaosProfile::Flaky => "flaky",
        ChaosProfile::Congested => "congested",
        ChaosProfile::Hostile => "hostile",
    }
}

/// Parses a corpus-file chaos label.
pub fn parse_profile(label: &str) -> Option<ChaosProfile> {
    Some(match label {
        "flaky" => ChaosProfile::Flaky,
        "congested" => ChaosProfile::Congested,
        "hostile" => ChaosProfile::Hostile,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> ReplaySetup {
        ReplaySetup {
            world_seed: 7,
            scale_ppm: 20_000,
            chaos: Some((ChaosProfile::Flaky, 7)),
            max_qps: 200,
            retry: RetryPolicy { per_destination_budget: None, ..RetryPolicy::adaptive() },
            second_round: true,
            flight_capacity: govdns_trace::DEFAULT_FLIGHT_CAPACITY,
        }
    }

    #[test]
    fn case_json_round_trips() {
        let case = CorpusCase {
            name: "ci-fail-providers".into(),
            trigger: "analysis_panic:providers".into(),
            setup: setup(),
            domains: vec![CorpusDomain {
                index: 12,
                domain: "portal.gov.zz".into(),
                payload: "{\"kind\":\"domain\",\"index\":12}".into(),
            }],
        };
        let json = case.to_json();
        let back = CorpusCase::from_json(&json).unwrap();
        assert_eq!(back, case);
        assert_eq!(back.to_json(), json, "re-encoding is byte-stable");
    }

    #[test]
    fn a_domain_named_twice_is_refused() {
        let domain = |index: u64, name: &str| CorpusDomain {
            index,
            domain: name.into(),
            payload: String::new(),
        };
        let mut case = CorpusCase {
            name: "twice".into(),
            trigger: "analysis_panic:providers".into(),
            setup: setup(),
            domains: vec![domain(3, "portal.gov.zz"), domain(9, "other.gov.zz")],
        };
        assert!(CorpusCase::from_json(&case.to_json()).is_ok());
        // Names compare as names: case folds away.
        case.domains.push(domain(11, "Portal.GOV.zz"));
        let err = CorpusCase::from_json(&case.to_json()).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn unsafe_setups_are_refused() {
        let mut s = setup();
        s.chaos = Some((ChaosProfile::Hostile, 7));
        assert!(s.replay_unsafe_reason().is_some());
        let mut s = setup();
        s.retry.per_destination_budget = Some(64);
        assert!(s.replay_unsafe_reason().is_some());
        assert!(setup().replay_unsafe_reason().is_none());
        let mut s = setup();
        s.chaos = None;
        assert!(s.replay_unsafe_reason().is_none(), "clean delivery always replays");
    }
}
