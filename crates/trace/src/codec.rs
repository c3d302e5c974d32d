//! Deterministic JSON encoding for trace records.
//!
//! Records are written and read with `govdns_model::json`, the codec
//! the journal uses, so the encoding is byte-stable across platforms
//! and runs — the trace determinism CI gate literally `cmp`s two trace
//! files. Domain and dump records, which dominate a trace file, are
//! written straight into the output without a value tree, and every
//! record is decoded straight off a [`Cursor`] the same way: no value
//! tree, and no copy of a string a record does not keep.
//! Decoding returns an error, never panics, on bytes that do not match
//! the schema.

use std::borrow::Cow;
use std::net::Ipv4Addr;

use govdns_model::json::{escape_into, Cursor, Json, Kind};

use crate::event::{DomainBlock, FlightDump, Step, TraceData, TraceEvent};

// ---------------------------------------------------------- event codec

/// Writes one event object straight into `out` — no intermediate value
/// tree. Domain blocks dominate a trace file's bytes, and this runs on
/// the sink thread for every sampled event, so it avoids the per-field
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
/// path of the trace file's sink encoder, which runs it on the sink
/// thread as each block arrives in order.
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

    /// Decodes one record, reading it straight off a [`Cursor`].
    ///
    /// It accepts exactly the JSON documents [`json::parse`] accepts,
    /// and reads them as a lookup in their parsed tree would: the first
    /// of two equal keys wins, unknown keys are skipped, and a key a
    /// record of its kind does not read may hold any value.
    ///
    /// [`json::parse`]: govdns_model::json::parse
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem — malformed JSON, an
    /// unknown kind, or a missing or mistyped field. A record that
    /// passed its frame checksum yet fails here means a format bug,
    /// not torn bytes.
    pub fn decode(text: &str) -> Result<TraceRecord, String> {
        let mut cur = Cursor::new(text);
        let cur = &mut cur;
        let mut f = RecordFields::default();
        cur.object()?;
        while let Some(key) = cur.key()? {
            match &*key {
                "kind" if f.kind.is_none() => f.kind = Some(cur.as_str()?),
                "version" if f.version.is_none() => f.version = Some(cur.as_u64()?),
                "seed" if f.seed.is_none() => f.seed = Some(cur.as_u64()?),
                "sample_ppm" if f.sample_ppm.is_none() => f.sample_ppm = Some(cur.as_u64()?),
                "flight_capacity" if f.flight_capacity.is_none() => {
                    f.flight_capacity = Some(cur.as_u64()?);
                }
                "domains" if f.domains.is_none() => f.domains = Some(cur.as_u64()?),
                "name" if f.name.is_none() => f.name = Some(cur.as_str()?),
                "mark" if f.mark.is_none() => f.mark = Some(cur.as_str()?),
                "from" if f.from.is_none() => f.from = Some(cur.as_u64()?),
                "index" if f.index.is_none() => f.index = Some(cur.as_u64()?),
                "domain" if f.domain.is_none() => f.domain = Some(cur.as_str()?),
                "dropped" if f.dropped.is_none() => f.dropped = Some(cur.as_u64()?),
                // A block's or dump's event list, or the trailer's count.
                "events" if f.events.is_none() => {
                    if cur.peek()? == Kind::Array {
                        f.events = Some(events(cur)?);
                        f.event_count = Some(None);
                    } else {
                        f.events = Some(Err("field `events` is not an array".to_owned()));
                        f.event_count = Some(cur.as_u64()?);
                    }
                }
                "trigger" if f.trigger.is_none() => f.trigger = Some(cur.as_str()?),
                "ord" if f.ord.is_none() => f.ord = Some(cur.as_u64()?),
                "dumps" if f.dumps.is_none() => f.dumps = Some(cur.as_u64()?),
                _ => cur.skip()?,
            }
        }
        cur.finish()?;
        f.record()
    }
}

// ------------------------------------------------------- record decoding
//
// A record's kind may come after the fields it decides about, so every
// known key's first value is held until the object closes; only then
// are the fields the kind reads required, and only they must have the
// right type.

/// A known key's first value: `None` while the key is absent,
/// `Some(None)` when its value has the wrong type.
type Field<T> = Option<Option<T>>;

/// The value of a field a record reads.
fn need<T>(field: Field<T>, key: &str) -> Result<T, String> {
    optional(field, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

/// The value of a field a record may omit.
fn optional<T>(field: Field<T>, key: &str) -> Result<Option<T>, String> {
    match field {
        Some(None) => Err(format!("field `{key}` has the wrong type")),
        Some(value) => Ok(value),
        None => Ok(None),
    }
}

fn need_u32(field: Field<u64>, key: &str) -> Result<u32, String> {
    u32::try_from(need(field, key)?).map_err(|_| format!("field `{key}` is out of range"))
}

fn need_string(field: Field<Cow<'_, str>>, key: &str) -> Result<String, String> {
    need(field, key).map(Cow::into_owned)
}

/// An IPv4 address in a string; `None` for any other value.
fn addr(cur: &mut Cursor<'_>) -> Result<Option<Ipv4Addr>, String> {
    Ok(cur.as_str()?.and_then(|s| s.parse().ok()))
}

/// A list of addresses; `None` for any other value, or when an item is
/// not an address.
fn addrs(cur: &mut Cursor<'_>) -> Result<Option<Vec<Ipv4Addr>>, String> {
    if cur.peek()? != Kind::Array {
        cur.skip()?;
        return Ok(None);
    }
    cur.array()?;
    let mut list = Some(Vec::new());
    while cur.item()? {
        let item = addr(cur)?;
        list = list.zip(item).map(|(mut list, a)| {
            list.push(a);
            list
        });
    }
    Ok(list)
}

/// An `events` array: outer `Err` for malformed JSON, inner for an
/// event that does not match the schema. Events after the first bad
/// one are only checked for syntax: the list is an error already, but
/// the record may not read it.
fn events(cur: &mut Cursor<'_>) -> Result<Result<Vec<TraceEvent>, String>, String> {
    cur.array()?;
    let mut list = Ok(Vec::new());
    while cur.item()? {
        let Ok(events) = &mut list else {
            cur.skip()?;
            continue;
        };
        match event(cur)? {
            Ok(e) => events.push(e),
            Err(e) => list = Err(e),
        }
    }
    Ok(list)
}

#[derive(Default)]
struct RecordFields<'a> {
    kind: Field<Cow<'a, str>>,
    version: Field<u64>,
    seed: Field<u64>,
    sample_ppm: Field<u64>,
    flight_capacity: Field<u64>,
    domains: Field<u64>,
    name: Field<Cow<'a, str>>,
    mark: Field<Cow<'a, str>>,
    from: Field<u64>,
    index: Field<u64>,
    domain: Field<Cow<'a, str>>,
    dropped: Field<u64>,
    events: Option<Result<Vec<TraceEvent>, String>>,
    /// The trailer's `events`, a count where blocks hold a list.
    event_count: Field<u64>,
    trigger: Field<Cow<'a, str>>,
    ord: Field<u64>,
    dumps: Field<u64>,
}

impl RecordFields<'_> {
    fn record(self) -> Result<TraceRecord, String> {
        let events = || self.events.unwrap_or_else(|| Err("missing field `events`".to_owned()));
        Ok(match &*need(self.kind, "kind")? {
            "header" => TraceRecord::Header {
                version: need(self.version, "version")?,
                seed: need(self.seed, "seed")?,
                sample_ppm: need(self.sample_ppm, "sample_ppm")?,
                flight_capacity: need(self.flight_capacity, "flight_capacity")?,
                domains: need(self.domains, "domains")?,
            },
            "stage" => TraceRecord::Stage {
                name: need_string(self.name, "name")?,
                mark: need_string(self.mark, "mark")?,
            },
            "resume" => TraceRecord::Resume { from: need(self.from, "from")? },
            "domain" => TraceRecord::Domain(DomainBlock {
                index: need(self.index, "index")?,
                domain: need_string(self.domain, "domain")?,
                dropped: match self.dropped {
                    Some(_) => need_u32(self.dropped, "dropped")?,
                    None => 0,
                },
                events: events()?,
            }),
            "dump" => TraceRecord::Dump(FlightDump {
                trigger: need_string(self.trigger, "trigger")?,
                index: optional(self.index, "index")?,
                domain: optional(self.domain, "domain")?.map(Cow::into_owned),
                ord: need_u32(self.ord, "ord")?,
                events: events()?,
            }),
            "complete" => TraceRecord::Complete {
                domains: need(self.domains, "domains")?,
                events: need(self.event_count, "events")?,
                dumps: need(self.dumps, "dumps")?,
            },
            other => return Err(format!("unknown kind `{other}`")),
        })
    }
}

/// One event: outer `Err` for malformed JSON, inner for an event that
/// does not match the schema.
fn event(cur: &mut Cursor<'_>) -> Result<Result<TraceEvent, String>, String> {
    if cur.peek()? != Kind::Object {
        cur.skip()?;
        return Ok(Err("event is not an object".to_owned()));
    }
    let mut f = EventFields::default();
    cur.object()?;
    while let Some(key) = cur.key()? {
        match &*key {
            "seq" if f.seq.is_none() => f.seq = Some(cur.as_u64()?),
            "step" if f.step.is_none() => f.step = Some(cur.as_str()?),
            "kind" if f.kind.is_none() => f.kind = Some(cur.as_str()?),
            "dst" if f.dst.is_none() => f.dst = Some(addr(cur)?),
            "attempt" if f.attempt.is_none() => f.attempt = Some(cur.as_u64()?),
            "verdict" if f.verdict.is_none() => f.verdict = Some(cur.as_str()?),
            "extra_ms" if f.extra_ms.is_none() => f.extra_ms = Some(cur.as_u64()?),
            "class" if f.class.is_none() => f.class = Some(cur.as_str()?),
            "ms" if f.ms.is_none() => f.ms = Some(cur.as_u64()?),
            "cut" if f.cut.is_none() => f.cut = Some(cur.as_str()?),
            "targets" if f.targets.is_none() => f.targets = Some(cur.as_u64()?),
            "host" if f.host.is_none() => f.host = Some(cur.as_str()?),
            "addrs" if f.addrs.is_none() => f.addrs = Some(addrs(cur)?),
            "round" if f.round.is_none() => f.round = Some(cur.as_str()?),
            "transition" if f.transition.is_none() => f.transition = Some(cur.as_str()?),
            "text" if f.text.is_none() => f.text = Some(cur.as_str()?),
            _ => cur.skip()?,
        }
    }
    Ok(f.event())
}

#[derive(Default)]
struct EventFields<'a> {
    seq: Field<u64>,
    step: Field<Cow<'a, str>>,
    kind: Field<Cow<'a, str>>,
    dst: Field<Ipv4Addr>,
    attempt: Field<u64>,
    verdict: Field<Cow<'a, str>>,
    extra_ms: Field<u64>,
    class: Field<Cow<'a, str>>,
    ms: Field<u64>,
    cut: Field<Cow<'a, str>>,
    targets: Field<u64>,
    host: Field<Cow<'a, str>>,
    addrs: Field<Vec<Ipv4Addr>>,
    round: Field<Cow<'a, str>>,
    transition: Field<Cow<'a, str>>,
    text: Field<Cow<'a, str>>,
}

impl EventFields<'_> {
    fn event(self) -> Result<TraceEvent, String> {
        let step_label = need(self.step, "step")?;
        let step =
            Step::parse(&step_label).ok_or_else(|| format!("unknown step `{step_label}`"))?;
        let dst = self.dst;
        let data = match &*need(self.kind, "kind")? {
            "send" => TraceData::Send {
                dst: need(dst, "dst")?,
                attempt: need_u32(self.attempt, "attempt")?,
            },
            "fault" => TraceData::Fault {
                dst: need(dst, "dst")?,
                attempt: need_u32(self.attempt, "attempt")?,
                verdict: need_string(self.verdict, "verdict")?,
                extra_ms: need(self.extra_ms, "extra_ms")?,
            },
            "response" => TraceData::Response {
                dst: need(dst, "dst")?,
                attempt: need_u32(self.attempt, "attempt")?,
                class: need_string(self.class, "class")?,
                ms: need(self.ms, "ms")?,
            },
            "referral" => TraceData::Referral {
                cut: need_string(self.cut, "cut")?,
                targets: need(self.targets, "targets")?,
            },
            "resolve" => TraceData::Resolve {
                host: need_string(self.host, "host")?,
                addrs: need(self.addrs, "addrs")?,
            },
            "charge" => TraceData::Charge {
                round: need_string(self.round, "round")?,
                dst: optional(dst, "dst")?,
            },
            "retry_denied" => TraceData::RetryDenied { dst: need(dst, "dst")? },
            "backoff" => TraceData::Backoff {
                dst: need(dst, "dst")?,
                attempt: need_u32(self.attempt, "attempt")?,
                ms: need(self.ms, "ms")?,
            },
            "breaker_denied" => TraceData::BreakerDenied { dst: need(dst, "dst")? },
            "breaker_trial" => TraceData::BreakerTrial { dst: need(dst, "dst")? },
            "breaker" => TraceData::Breaker {
                dst: need(dst, "dst")?,
                transition: need_string(self.transition, "transition")?,
            },
            "note" => TraceData::Note { text: need_string(self.text, "text")? },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(TraceEvent { seq: need_u32(self.seq, "seq")?, step, data })
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
