//! Deterministic JSON encoding for trace records.
//!
//! Records are written and read with `govdns_model::json`, the codec
//! the journal uses, so the encoding is byte-stable across platforms
//! and runs — the trace determinism CI gate literally `cmp`s two trace
//! files. Domain and dump records, which dominate a trace file, are
//! written straight into the output without a value tree. Decoding
//! returns an error, never panics, on bytes that do not match the
//! schema.

use std::net::Ipv4Addr;

use govdns_model::json::{self, escape_into, Json};

use crate::event::{DomainBlock, FlightDump, Step, TraceData, TraceEvent};

fn need_u32(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(v.need_u64(key)?).map_err(|_| format!("field `{key}` is out of range"))
}

fn addr_from(v: &Json) -> Result<Ipv4Addr, String> {
    let s = v.as_str().ok_or("address is not a string")?;
    s.parse().map_err(|_| format!("bad address {s:?}"))
}

// ---------------------------------------------------------- event codec

/// Writes one event object straight into `out` — no intermediate value
/// tree. Domain blocks dominate a trace file's bytes, and this runs on
/// the worker thread for every sampled event, so it avoids the per-field
/// key allocations of a [`Json`] tree. Field order must stay
/// byte-stable.
fn write_event(e: &TraceEvent, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"seq\":{},\"step\":\"{}\"", e.seq, e.step.as_str());
    match &e.data {
        TraceData::Send { dst, attempt } => {
            let _ = write!(out, ",\"kind\":\"send\",\"dst\":\"{dst}\",\"attempt\":{attempt}");
        }
        TraceData::Fault { dst, attempt, verdict, extra_ms } => {
            let _ = write!(out, ",\"kind\":\"fault\",\"dst\":\"{dst}\",\"attempt\":{attempt}");
            out.push_str(",\"verdict\":");
            escape_into(verdict, out);
            let _ = write!(out, ",\"extra_ms\":{extra_ms}");
        }
        TraceData::Response { dst, attempt, class, ms } => {
            let _ = write!(out, ",\"kind\":\"response\",\"dst\":\"{dst}\",\"attempt\":{attempt}");
            out.push_str(",\"class\":");
            escape_into(class, out);
            let _ = write!(out, ",\"ms\":{ms}");
        }
        TraceData::Referral { cut, targets } => {
            out.push_str(",\"kind\":\"referral\",\"cut\":");
            escape_into(cut, out);
            let _ = write!(out, ",\"targets\":{targets}");
        }
        TraceData::Resolve { host, addrs } => {
            out.push_str(",\"kind\":\"resolve\",\"host\":");
            escape_into(host, out);
            out.push_str(",\"addrs\":[");
            for (i, a) in addrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{a}\"");
            }
            out.push(']');
        }
        TraceData::Charge { round, dst } => {
            out.push_str(",\"kind\":\"charge\",\"round\":");
            escape_into(round, out);
            if let Some(dst) = dst {
                let _ = write!(out, ",\"dst\":\"{dst}\"");
            }
        }
        TraceData::RetryDenied { dst } => {
            let _ = write!(out, ",\"kind\":\"retry_denied\",\"dst\":\"{dst}\"");
        }
        TraceData::Backoff { dst, attempt, ms } => {
            let _ = write!(
                out,
                ",\"kind\":\"backoff\",\"dst\":\"{dst}\",\"attempt\":{attempt},\"ms\":{ms}"
            );
        }
        TraceData::BreakerDenied { dst } => {
            let _ = write!(out, ",\"kind\":\"breaker_denied\",\"dst\":\"{dst}\"");
        }
        TraceData::BreakerTrial { dst } => {
            let _ = write!(out, ",\"kind\":\"breaker_trial\",\"dst\":\"{dst}\"");
        }
        TraceData::Breaker { dst, transition } => {
            let _ = write!(out, ",\"kind\":\"breaker\",\"dst\":\"{dst}\"");
            out.push_str(",\"transition\":");
            escape_into(transition, out);
        }
        TraceData::Note { text } => {
            out.push_str(",\"kind\":\"note\",\"text\":");
            escape_into(text, out);
        }
    }
    out.push('}');
}

fn write_events(events: &[TraceEvent], out: &mut String) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(e, out);
    }
    out.push(']');
}

/// Encodes a `domain` record from a borrowed block — the per-domain hot
/// path [`Tracer::submit`](crate::Tracer::submit) runs on the worker
/// thread, outside the sink lock.
pub(crate) fn encode_domain(block: &DomainBlock) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + block.events.len() * 96);
    let _ = write!(out, "{{\"kind\":\"domain\",\"index\":{},\"domain\":", block.index);
    escape_into(&block.domain, &mut out);
    if block.dropped > 0 {
        let _ = write!(out, ",\"dropped\":{}", block.dropped);
    }
    out.push_str(",\"events\":");
    write_events(&block.events, &mut out);
    out.push('}');
    out
}

/// Encodes a `dump` record from a borrowed flight dump (worker-side,
/// at trigger time).
pub(crate) fn encode_dump(dump: &FlightDump) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + dump.events.len() * 96);
    out.push_str("{\"kind\":\"dump\",\"trigger\":");
    escape_into(&dump.trigger, &mut out);
    if let Some(index) = dump.index {
        let _ = write!(out, ",\"index\":{index}");
    }
    if let Some(domain) = &dump.domain {
        out.push_str(",\"domain\":");
        escape_into(domain, &mut out);
    }
    let _ = write!(out, ",\"ord\":{}", dump.ord);
    out.push_str(",\"events\":");
    write_events(&dump.events, &mut out);
    out.push('}');
    out
}

fn event_from_value(v: &Json) -> Result<TraceEvent, String> {
    let step_label = v.need_str("step")?;
    let step = Step::parse(step_label).ok_or_else(|| format!("unknown step `{step_label}`"))?;
    let dst = || addr_from(v.need("dst")?);
    let text = |key: &str| v.need_str(key).map(str::to_owned);
    let data = match v.need_str("kind")? {
        "send" => TraceData::Send { dst: dst()?, attempt: need_u32(v, "attempt")? },
        "fault" => TraceData::Fault {
            dst: dst()?,
            attempt: need_u32(v, "attempt")?,
            verdict: text("verdict")?,
            extra_ms: v.need_u64("extra_ms")?,
        },
        "response" => TraceData::Response {
            dst: dst()?,
            attempt: need_u32(v, "attempt")?,
            class: text("class")?,
            ms: v.need_u64("ms")?,
        },
        "referral" => TraceData::Referral { cut: text("cut")?, targets: v.need_u64("targets")? },
        "resolve" => TraceData::Resolve {
            host: text("host")?,
            addrs: v.need_arr("addrs")?.iter().map(addr_from).collect::<Result<_, _>>()?,
        },
        "charge" => TraceData::Charge {
            round: text("round")?,
            dst: v.get("dst").map(addr_from).transpose()?,
        },
        "retry_denied" => TraceData::RetryDenied { dst: dst()? },
        "backoff" => TraceData::Backoff {
            dst: dst()?,
            attempt: need_u32(v, "attempt")?,
            ms: v.need_u64("ms")?,
        },
        "breaker_denied" => TraceData::BreakerDenied { dst: dst()? },
        "breaker_trial" => TraceData::BreakerTrial { dst: dst()? },
        "breaker" => TraceData::Breaker { dst: dst()?, transition: text("transition")? },
        "note" => TraceData::Note { text: text("text")? },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(TraceEvent { seq: need_u32(v, "seq")?, step, data })
}

fn events_from_value(v: &Json) -> Result<Vec<TraceEvent>, String> {
    v.need_arr("events")?.iter().map(event_from_value).collect()
}

// --------------------------------------------------------- record codec

/// One framed record in a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// File header: always the first frame.
    Header {
        /// Format version (currently 1).
        version: u64,
        /// Sampling seed.
        seed: u64,
        /// Sampling rate in parts per million.
        sample_ppm: u64,
        /// Flight-recorder ring capacity (events per domain).
        flight_capacity: u64,
        /// Campaign domain count.
        domains: u64,
    },
    /// A runner stage boundary (`begin`/`end`), written single-threaded.
    Stage {
        /// Stage name (`round1`, ...).
        name: String,
        /// `begin` or `end`.
        mark: String,
    },
    /// The campaign resumed from a journal at this domain index.
    Resume {
        /// First freshly probed domain index.
        from: u64,
    },
    /// All events of one sampled domain.
    Domain(DomainBlock),
    /// A flight-recorder snapshot.
    Dump(FlightDump),
    /// Trailer: probing finished and the sink was flushed.
    Complete {
        /// Sampled domain blocks written.
        domains: u64,
        /// Events written across all blocks.
        events: u64,
        /// Flight dumps written.
        dumps: u64,
    },
}

impl TraceRecord {
    /// Byte-stable JSON encoding (one line, no whitespace).
    pub fn encode(&self) -> String {
        let value = match self {
            TraceRecord::Header { version, seed, sample_ppm, flight_capacity, domains } => {
                Json::obj(vec![
                    ("kind", Json::from("header")),
                    ("version", Json::from(*version)),
                    ("seed", Json::from(*seed)),
                    ("sample_ppm", Json::from(*sample_ppm)),
                    ("flight_capacity", Json::from(*flight_capacity)),
                    ("domains", Json::from(*domains)),
                ])
            }
            TraceRecord::Stage { name, mark } => Json::obj(vec![
                ("kind", Json::from("stage")),
                ("name", Json::from(name.as_str())),
                ("mark", Json::from(mark.as_str())),
            ]),
            TraceRecord::Resume { from } => {
                Json::obj(vec![("kind", Json::from("resume")), ("from", Json::from(*from))])
            }
            TraceRecord::Domain(block) => return encode_domain(block),
            TraceRecord::Dump(dump) => return encode_dump(dump),
            TraceRecord::Complete { domains, events, dumps } => Json::obj(vec![
                ("kind", Json::from("complete")),
                ("domains", Json::from(*domains)),
                ("events", Json::from(*events)),
                ("dumps", Json::from(*dumps)),
            ]),
        };
        let mut out = String::new();
        value.encode(&mut out);
        out
    }

    /// Decodes one record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem — malformed JSON, an
    /// unknown kind, or a missing or mistyped field. A record that
    /// passed its frame checksum yet fails here means a format bug,
    /// not torn bytes.
    pub fn decode(text: &str) -> Result<TraceRecord, String> {
        let v = json::parse(text)?;
        let text = |key: &str| v.need_str(key).map(str::to_owned);
        Ok(match v.need_str("kind")? {
            "header" => TraceRecord::Header {
                version: v.need_u64("version")?,
                seed: v.need_u64("seed")?,
                sample_ppm: v.need_u64("sample_ppm")?,
                flight_capacity: v.need_u64("flight_capacity")?,
                domains: v.need_u64("domains")?,
            },
            "stage" => TraceRecord::Stage { name: text("name")?, mark: text("mark")? },
            "resume" => TraceRecord::Resume { from: v.need_u64("from")? },
            "domain" => TraceRecord::Domain(DomainBlock {
                index: v.need_u64("index")?,
                domain: text("domain")?,
                dropped: if v.get("dropped").is_some() { need_u32(&v, "dropped")? } else { 0 },
                events: events_from_value(&v)?,
            }),
            "dump" => TraceRecord::Dump(FlightDump {
                trigger: text("trigger")?,
                index: if v.get("index").is_some() { Some(v.need_u64("index")?) } else { None },
                domain: if v.get("domain").is_some() { Some(text("domain")?) } else { None },
                ord: need_u32(&v, "ord")?,
                events: events_from_value(&v)?,
            }),
            "complete" => TraceRecord::Complete {
                domains: v.need_u64("domains")?,
                events: v.need_u64("events")?,
                dumps: v.need_u64("dumps")?,
            },
            other => return Err(format!("unknown kind `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Step;

    fn sample_block() -> DomainBlock {
        DomainBlock {
            index: 7,
            domain: "portal.gov.zz".into(),
            dropped: 0,
            events: vec![
                TraceEvent {
                    seq: 0,
                    step: Step::ParentNs,
                    data: TraceData::Charge { round: "round1".into(), dst: None },
                },
                TraceEvent {
                    seq: 1,
                    step: Step::ParentNs,
                    data: TraceData::Send { dst: "198.41.0.4".parse().unwrap(), attempt: 0 },
                },
                TraceEvent {
                    seq: 2,
                    step: Step::Referral,
                    data: TraceData::Referral { cut: "gov.zz".into(), targets: 2 },
                },
                TraceEvent {
                    seq: 3,
                    step: Step::AddrResolve,
                    data: TraceData::Resolve {
                        host: "ns1.gov.zz".into(),
                        addrs: vec!["192.0.2.1".parse().unwrap()],
                    },
                },
                TraceEvent {
                    seq: 4,
                    step: Step::ChildNs,
                    data: TraceData::Fault {
                        dst: "192.0.2.1".parse().unwrap(),
                        attempt: 0,
                        verdict: "flap".into(),
                        extra_ms: 0,
                    },
                },
                TraceEvent {
                    seq: 5,
                    step: Step::ChildNs,
                    data: TraceData::Response {
                        dst: "192.0.2.1".parse().unwrap(),
                        attempt: 0,
                        class: "timeout".into(),
                        ms: 900,
                    },
                },
            ],
        }
    }

    #[test]
    fn records_roundtrip_byte_identically() {
        let records = vec![
            TraceRecord::Header {
                version: 1,
                seed: 7,
                sample_ppm: 1_000_000,
                flight_capacity: 512,
                domains: 600,
            },
            TraceRecord::Stage { name: "round1".into(), mark: "begin".into() },
            TraceRecord::Resume { from: 150 },
            TraceRecord::Domain(sample_block()),
            TraceRecord::Dump(FlightDump {
                trigger: "retry_exhausted".into(),
                index: Some(7),
                domain: Some("portal.gov.zz".into()),
                ord: 0,
                events: sample_block().events,
            }),
            TraceRecord::Dump(FlightDump {
                trigger: "analysis_panic:providers".into(),
                index: None,
                domain: None,
                ord: 0,
                events: vec![],
            }),
            TraceRecord::Complete { domains: 600, events: 40_000, dumps: 3 },
        ];
        for r in records {
            let json = r.encode();
            let back = TraceRecord::decode(&json).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.encode(), json, "re-encode not byte-identical");
        }
    }

    #[test]
    fn strings_with_escapes_survive() {
        let r = TraceRecord::Stage { name: "a\"b\\c\nd\te\u{1}".into(), mark: "begin".into() };
        assert_eq!(TraceRecord::decode(&r.encode()), Ok(r));
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err = TraceRecord::decode("{\"kind\":\"mystery\"}").unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
    }
}
