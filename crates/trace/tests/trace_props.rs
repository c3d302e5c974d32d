//! Property tests for the flight recorder's determinism-bearing
//! primitives: the record codec must round-trip byte-identically (the
//! trace determinism CI gate `cmp`s whole files), the event ring must
//! behave as an append-only log below capacity and a sliding window at
//! it, and the sampler's verdicts must not depend on which thread asks.
//!
//! The record decoder reads straight off a JSON cursor. It is checked
//! against [`reference`], a decoder over the parsed `Json` tree, on
//! canonical records, on re-encodings of them that a tree lookup reads
//! the same way (reordered and duplicated keys, unknown keys of every
//! JSON type, escaped strings, whitespace, other spellings of
//! integers), and on every prefix and bit flip of a real domain block.
//! Timeline lines are checked against the `format!` rendering the same
//! way.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use govdns_model::json::{self, Json};
use govdns_trace::{
    DomainBlock, EventRing, FlightDump, Step, TraceData, TraceEvent, TraceRecord, TraceSampler,
    SAMPLE_FULL,
};
use proptest::prelude::*;

fn addr_strategy() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr::from)
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop::sample::select(vec![
        Step::ParentNs,
        Step::Referral,
        Step::ChildNs,
        Step::AddrResolve,
        Step::DirectProbe,
    ])
}

/// Printable text, including the JSON-hostile characters the codec must
/// escape (quotes, backslashes, control bytes).
fn text_strategy() -> impl Strategy<Value = String> {
    "[ -~\t\n\r\u{1}\u{e9}]{0,40}"
}

fn data_strategy() -> impl Strategy<Value = TraceData> {
    prop_oneof![
        (addr_strategy(), any::<u32>()).prop_map(|(dst, attempt)| TraceData::Send { dst, attempt }),
        (addr_strategy(), any::<u32>(), text_strategy(), any::<u64>()).prop_map(
            |(dst, attempt, verdict, extra_ms)| TraceData::Fault {
                dst,
                attempt,
                verdict,
                extra_ms
            }
        ),
        (addr_strategy(), any::<u32>(), text_strategy(), any::<u64>())
            .prop_map(|(dst, attempt, class, ms)| TraceData::Response { dst, attempt, class, ms }),
        (text_strategy(), any::<u64>())
            .prop_map(|(cut, targets)| TraceData::Referral { cut, targets }),
        (text_strategy(), prop::collection::vec(addr_strategy(), 0..4))
            .prop_map(|(host, addrs)| TraceData::Resolve { host, addrs }),
        (text_strategy(), any::<bool>(), addr_strategy())
            .prop_map(|(round, some, dst)| TraceData::Charge { round, dst: some.then_some(dst) }),
        addr_strategy().prop_map(|dst| TraceData::RetryDenied { dst }),
        (addr_strategy(), any::<u32>(), any::<u64>())
            .prop_map(|(dst, attempt, ms)| TraceData::Backoff { dst, attempt, ms }),
        addr_strategy().prop_map(|dst| TraceData::BreakerDenied { dst }),
        addr_strategy().prop_map(|dst| TraceData::BreakerTrial { dst }),
        (addr_strategy(), text_strategy())
            .prop_map(|(dst, transition)| TraceData::Breaker { dst, transition }),
        text_strategy().prop_map(|text| TraceData::Note { text }),
    ]
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (any::<u32>(), step_strategy(), data_strategy()).prop_map(|(seq, step, data)| TraceEvent {
        seq,
        step,
        data,
    })
}

fn events_strategy() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(event_strategy(), 0..8)
}

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(seed, sample_ppm, flight_capacity, domains)| TraceRecord::Header {
                version: 1,
                seed,
                sample_ppm,
                flight_capacity,
                domains,
            }
        ),
        (text_strategy(), text_strategy())
            .prop_map(|(name, mark)| TraceRecord::Stage { name, mark }),
        any::<u64>().prop_map(|from| TraceRecord::Resume { from }),
        (any::<u64>(), text_strategy(), any::<u32>(), events_strategy()).prop_map(
            |(index, domain, dropped, events)| TraceRecord::Domain(DomainBlock {
                index,
                domain,
                dropped,
                events,
            })
        ),
        (
            text_strategy(),
            (any::<bool>(), any::<u64>()),
            (any::<bool>(), text_strategy()),
            any::<u32>(),
            events_strategy(),
        )
            .prop_map(|(trigger, index, domain, ord, events)| TraceRecord::Dump(
                FlightDump {
                    trigger,
                    index: index.0.then_some(index.1),
                    domain: domain.0.then_some(domain.1),
                    ord,
                    events,
                }
            )),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(domains, events, dumps)| {
            TraceRecord::Complete { domains, events, dumps }
        }),
    ]
}

/// The tree decoder `TraceRecord::decode` replaced, kept as the
/// oracle: parse the whole document into a `Json` tree, then look each
/// field up in it.
mod reference {
    use std::net::Ipv4Addr;

    use govdns_model::json::{self, Json};
    use govdns_trace::{DomainBlock, FlightDump, Step, TraceData, TraceEvent, TraceRecord};

    fn need_u32(v: &Json, key: &str) -> Result<u32, String> {
        u32::try_from(v.need_u64(key)?).map_err(|_| format!("field `{key}` is out of range"))
    }

    fn addr_from(v: &Json) -> Result<Ipv4Addr, String> {
        let s = v.as_str().ok_or("address is not a string")?;
        s.parse().map_err(|_| format!("bad address {s:?}"))
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
            "referral" => {
                TraceData::Referral { cut: text("cut")?, targets: v.need_u64("targets")? }
            }
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

    /// The `format!` rendering `TraceEvent::render` replaced.
    pub fn render(e: &TraceEvent) -> String {
        let body = match &e.data {
            TraceData::Send { dst, attempt } => format!("send dst={dst} attempt={attempt}"),
            TraceData::Fault { dst, attempt, verdict, extra_ms } => {
                let extra =
                    if *extra_ms > 0 { format!(" extra_ms={extra_ms}") } else { String::new() };
                format!("fault verdict={verdict} dst={dst} attempt={attempt}{extra}")
            }
            TraceData::Response { dst, attempt, class, ms } => {
                format!("response class={class} dst={dst} attempt={attempt} ms={ms}")
            }
            TraceData::Referral { cut, targets } => format!("referral cut={cut} targets={targets}"),
            TraceData::Resolve { host, addrs } => {
                let rendered: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
                format!("resolve host={host} addrs=[{}]", rendered.join(","))
            }
            TraceData::Charge { round, dst } => match dst {
                Some(dst) => format!("charge round={round} dst={dst}"),
                None => format!("charge round={round}"),
            },
            TraceData::RetryDenied { dst } => format!("retry_denied dst={dst}"),
            TraceData::Backoff { dst, attempt, ms } => {
                format!("backoff dst={dst} attempt={attempt} ms={ms}")
            }
            TraceData::BreakerDenied { dst } => format!("breaker_denied dst={dst}"),
            TraceData::BreakerTrial { dst } => format!("breaker_trial dst={dst}"),
            TraceData::Breaker { dst, transition } => format!("breaker {transition} dst={dst}"),
            TraceData::Note { text } => format!("note {text}"),
        };
        format!("#{:03} [{}] {}", e.seq, e.step.as_str(), body)
    }

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

/// `TraceRecord::decode` and the reference return the same record, or
/// both an error. Returns whether they decoded.
fn agrees_with_reference(text: &str) -> bool {
    match (TraceRecord::decode(text), reference::decode(text)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got, want, "{text:?}");
            true
        }
        (Err(_), Err(_)) => false,
        (got, want) => panic!("decode {got:?}, reference {want:?}, on {text:?}"),
    }
}

/// How one re-encoding departs from the canonical bytes. It applies to
/// every object in the record: the record itself and each event.
#[derive(Debug, Clone)]
struct Mutation {
    /// Keys rotated left by this many places.
    rotate: usize,
    /// `(field, value, before)`: the field at this index (mod the field
    /// count) again, with another value, before the first field or
    /// after the last. A tree lookup reads whichever comes first.
    duplicate: Option<(usize, Json, bool)>,
    /// `(position, key, value)`: a key inserted there. Besides a key no
    /// record knows, it may be one another kind or event reads.
    extra: Option<(usize, &'static str, Json)>,
    /// Every string char in the BMP written as a `\uXXXX` escape.
    escape: bool,
    /// Whitespace around every token.
    spaced: bool,
    /// Non-negative integers spelled canonically (0), with leading
    /// zeros (1), `0` as `-0` (2), or with a fraction `.0` (3).
    numbers: u8,
}

/// Values of every JSON type, one level of nesting deep.
fn json_strategy() -> impl Strategy<Value = Json> {
    let scalar = || {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            any::<i64>().prop_map(|n| Json::Int(i128::from(n))),
            any::<u64>().prop_map(Json::from),
            any::<u32>().prop_map(|n| Json::Float(f64::from(n) / 8.0 + 0.5)),
            text_strategy().prop_map(Json::Str),
            addr_strategy().prop_map(|a| Json::Str(a.to_string())),
            step_strategy().prop_map(|s| Json::Str(s.as_str().to_owned())),
        ]
    };
    prop_oneof![
        scalar(),
        prop::collection::vec(scalar(), 0..3).prop_map(Json::Arr),
        prop::collection::vec(("[a-z]{1,6}", scalar()), 0..3)
            .prop_map(|fields| Json::Obj(fields.into_iter().collect())),
    ]
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    let keys = vec![
        "zz_unknown",
        "kind",
        "events",
        "index",
        "domain",
        "dropped",
        "dst",
        "ms",
        "addrs",
        "seq",
        "text",
        "step",
    ];
    (
        any::<usize>(),
        (any::<bool>(), any::<usize>(), json_strategy(), any::<bool>()),
        (any::<bool>(), any::<usize>(), prop::sample::select(keys), json_strategy()),
        (any::<bool>(), any::<bool>()),
        0u8..4,
    )
        .prop_map(
            |(
                rotate,
                (dup, at, dup_value, before),
                (extra, pos, key, value),
                (escape, spaced),
                numbers,
            )| {
                Mutation {
                    rotate,
                    duplicate: dup.then_some((at, dup_value, before)),
                    extra: extra.then_some((pos, key, value)),
                    escape,
                    spaced,
                    numbers,
                }
            },
        )
}

fn mutate(value: Json, m: &Mutation) -> Json {
    match value {
        Json::Arr(items) => Json::Arr(items.into_iter().map(|v| mutate(v, m)).collect()),
        Json::Obj(fields) => {
            let mut fields: Vec<(String, Json)> =
                fields.into_iter().map(|(k, v)| (k, mutate(v, m))).collect();
            if !fields.is_empty() {
                let n = fields.len();
                fields.rotate_left(m.rotate % n);
                if let Some((at, value, before)) = &m.duplicate {
                    let dup = (fields[at % n].0.clone(), value.clone());
                    if *before {
                        fields.insert(0, dup);
                    } else {
                        fields.push(dup);
                    }
                }
            }
            if let Some((pos, key, value)) = &m.extra {
                fields.insert(pos % (fields.len() + 1), ((*key).to_owned(), value.clone()));
            }
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Encodes `value` in the spelling `m` asks for.
fn write(value: &Json, m: &Mutation, out: &mut String) {
    let pad = |out: &mut String| {
        if m.spaced {
            out.push_str(" \n\t\r");
        }
    };
    let string = |s: &str, out: &mut String| {
        if !m.escape {
            json::escape_into(s, out);
            return;
        }
        out.push('"');
        for c in s.chars() {
            if u32::from(c) <= 0xFFFF {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            } else {
                out.push(c);
            }
        }
        out.push('"');
    };
    pad(out);
    match value {
        Json::Int(n) if *n >= 0 => match m.numbers {
            1 => {
                let _ = write!(out, "00{n}");
            }
            2 if *n == 0 => out.push_str("-0"),
            3 => {
                let _ = write!(out, "{n}.0");
            }
            _ => {
                let _ = write!(out, "{n}");
            }
        },
        Json::Str(s) => string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    pad(out);
                    out.push(',');
                }
                write(item, m, out);
                pad(out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out);
                string(key, out);
                pad(out);
                out.push(':');
                write(item, m, out);
                pad(out);
            }
            out.push('}');
        }
        other => other.encode(out),
    }
    pad(out);
}

/// The first domain block of the checked-in corpus case, as encoded at
/// capture: the block `tests/decoders.rs` at the workspace root cuts
/// and flips too.
fn corpus_block() -> String {
    let case = json::parse(include_str!("../../../corpus/providers-seed7.json")).unwrap();
    case.need_arr("domains").unwrap()[0].need_str("payload").unwrap().to_owned()
}

#[test]
fn every_prefix_and_bit_flip_of_a_block_decodes_as_the_reference_does() {
    let block = corpus_block();
    assert!(matches!(TraceRecord::decode(&block), Ok(TraceRecord::Domain(_))));
    assert!(agrees_with_reference(&block));
    for cut in (0..block.len()).filter(|&cut| block.is_char_boundary(cut)) {
        agrees_with_reference(&block[..cut]);
    }
    let mut decoded = 0;
    let mut bytes = block.into_bytes();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            bytes[i] ^= 1 << bit;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                decoded += usize::from(agrees_with_reference(text));
            }
            bytes[i] ^= 1 << bit;
        }
    }
    // Flips inside digits and names still decode: the comparison
    // covered successes, not just errors.
    assert!(decoded > 0);
}

proptest! {
    /// decode(encode(r)) == r and re-encoding is byte-identical — the
    /// property the file-level `cmp` determinism gate rests on.
    #[test]
    fn records_roundtrip_byte_identically(record in record_strategy()) {
        let json = record.encode();
        let back = TraceRecord::decode(&json).unwrap();
        prop_assert_eq!(&back, &record);
        prop_assert_eq!(back.encode(), json);
        prop_assert!(agrees_with_reference(&json));
    }

    /// Timeline lines are the ones `format!` wrote, byte for byte, for
    /// every event kind and any sequence number or count.
    #[test]
    fn rendered_lines_match_the_format_reference(
        events in events_strategy(),
        seq in prop::sample::select(vec![0u32, 7, 42, 99, 100, 999, 1000, u32::MAX]),
    ) {
        for mut e in events {
            prop_assert_eq!(e.render(), reference::render(&e));
            e.seq = seq;
            prop_assert_eq!(e.render(), reference::render(&e));
        }
    }

    /// Re-encodings a tree lookup reads the same way decode as the
    /// reference decodes them, to the same record or to an error.
    #[test]
    fn reencoded_records_decode_as_the_reference_does(
        record in record_strategy(),
        m in mutation_strategy(),
    ) {
        let tree = mutate(json::parse(&record.encode()).unwrap(), &m);
        let mut text = String::new();
        write(&tree, &m, &mut text);
        agrees_with_reference(&text);
        // Without a duplicate placed first, a `.0` on integers, or an
        // extra key a record reads, the record itself comes back.
        let harmless = m.duplicate.as_ref().is_none_or(|d| !d.2)
            && m.numbers != 3
            && m.extra.as_ref().is_none_or(|e| e.1 == "zz_unknown");
        if harmless {
            prop_assert_eq!(TraceRecord::decode(&text), Ok(record));
        }
    }

    /// Below capacity the ring is a plain append-only log: every pushed
    /// event is held, in push order, with dense sequence numbers and a
    /// zero drop count.
    #[test]
    fn ring_below_capacity_never_drops_or_reorders(
        cap in 1usize..64,
        pushes in prop::collection::vec((step_strategy(), text_strategy()), 0..64),
    ) {
        let mut ring = EventRing::new(cap);
        let n = pushes.len().min(cap);
        for (step, text) in pushes.iter().take(n).cloned() {
            ring.push(step, TraceData::Note { text });
        }
        prop_assert_eq!(ring.dropped(), 0);
        let held = ring.snapshot();
        prop_assert_eq!(held.len(), n);
        for (i, (event, (step, text))) in held.iter().zip(pushes.iter()).enumerate() {
            prop_assert_eq!(event.seq as usize, i);
            prop_assert_eq!(event.step, *step);
            prop_assert_eq!(&event.data, &TraceData::Note { text: text.clone() });
        }
    }

    /// At or above capacity the ring keeps exactly the last `cap`
    /// events, still in order, and accounts for every discard.
    #[test]
    fn ring_overflow_keeps_the_newest_in_order(
        cap in 1usize..32,
        total in 0usize..96,
    ) {
        let mut ring = EventRing::new(cap);
        for i in 0..total {
            ring.push(Step::ChildNs, TraceData::Note { text: format!("e{i}") });
        }
        let held = ring.snapshot();
        prop_assert_eq!(held.len(), total.min(cap));
        prop_assert_eq!(ring.dropped() as usize, total.saturating_sub(cap));
        let first = total.saturating_sub(cap);
        for (offset, event) in held.iter().enumerate() {
            prop_assert_eq!(event.seq as usize, first + offset);
            prop_assert_eq!(&event.data, &TraceData::Note { text: format!("e{}", first + offset) });
        }
    }

    /// Sampling verdicts are a pure function of (seed, domain hash):
    /// eight threads evaluating the same sampler agree with a single
    /// thread on every domain — no counters, no RNG state, no thread
    /// identity.
    #[test]
    fn sampler_is_thread_invariant(
        seed in any::<u64>(),
        sample_ppm in 0u32..=SAMPLE_FULL,
        hashes in prop::collection::vec(any::<u64>(), 1..128),
    ) {
        let sampler = TraceSampler::new(seed, sample_ppm);
        let single: Vec<bool> = hashes.iter().map(|&h| sampler.keep(h)).collect();
        let threaded: Vec<Vec<bool>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let hashes = &hashes;
                    scope.spawn(move || hashes.iter().map(|&h| sampler.keep(h)).collect())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().expect("sampler thread"))
                .collect()
        });
        for verdicts in threaded {
            prop_assert_eq!(&verdicts, &single);
        }
    }
}
