//! Property-based tests for the DNS data model: name parsing, wire codec
//! round-trips, date arithmetic, and zone lookup invariants, plus oracle
//! tests that hold the hot-path algorithms to the ones they replaced.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use proptest::prelude::*;

use govdns_model::{
    wire, DateRange, DomainName, Label, Message, RecordData, RecordType, ResourceRecord, RrSet,
    SimDate, Soa, Zone, ZoneLookup,
};

fn label_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,14}[a-z0-9]|[a-z]".prop_map(|s| s)
}

fn name_strategy() -> impl Strategy<Value = DomainName> {
    prop::collection::vec(label_strategy(), 1..5)
        .prop_map(|labels| labels.join(".").parse().expect("generated labels are valid"))
}

fn rdata_strategy() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RecordData::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| RecordData::Aaaa(o.into())),
        name_strategy().prop_map(RecordData::Ns),
        name_strategy().prop_map(RecordData::Cname),
        name_strategy().prop_map(RecordData::Ptr),
        "[ -~]{0,300}".prop_map(RecordData::Txt),
        (name_strategy(), name_strategy(), any::<u32>())
            .prop_map(|(m, r, serial)| { RecordData::Soa(Soa::new(m, r).with_serial(serial)) }),
    ]
}

fn message_strategy() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        name_strategy(),
        prop::sample::select(RecordType::all().to_vec()),
        prop::collection::vec((name_strategy(), any::<u32>(), rdata_strategy()), 0..6),
        any::<bool>(),
    )
        .prop_map(|(id, qname, qtype, answers, aa)| {
            let q = Message::query(id, qname, qtype);
            let mut r = q.response();
            if aa {
                r = r.authoritative();
            }
            r.answers = answers
                .into_iter()
                .map(|(name, ttl, data)| ResourceRecord::new(name, ttl, data))
                .collect();
            r
        })
}

proptest! {
    #[test]
    fn name_parse_display_roundtrip(name in name_strategy()) {
        let text = name.to_string();
        let back: DomainName = text.parse().unwrap();
        prop_assert_eq!(back, name);
    }

    #[test]
    fn name_parent_reduces_level(name in name_strategy()) {
        let parent = name.parent().unwrap();
        prop_assert_eq!(parent.level() + 1, name.level());
        prop_assert!(name.is_subdomain_of(&parent));
    }

    #[test]
    fn name_suffix_is_always_within(name in name_strategy(), k in 0usize..6) {
        let s = name.suffix(k);
        prop_assert!(name.is_within(&s));
    }

    #[test]
    fn ancestors_are_monotone(name in name_strategy()) {
        let chain: Vec<DomainName> = name.ancestors().collect();
        prop_assert_eq!(chain.len(), name.level() + 1);
        for w in chain.windows(2) {
            prop_assert!(w[0].is_subdomain_of(&w[1]));
        }
        prop_assert!(chain.last().unwrap().is_root());
    }

    #[test]
    fn wire_roundtrip_query(id in any::<u16>(), name in name_strategy()) {
        let q = Message::query(id, name, RecordType::Ns);
        let bytes = wire::encode(&q);
        prop_assert_eq!(wire::decode(&bytes).unwrap(), q);
    }

    #[test]
    fn wire_roundtrip_response(msg in message_strategy()) {
        let bytes = wire::encode(&msg);
        prop_assert_eq!(&bytes, &reference_wire::encode(&msg));
        prop_assert_eq!(wire::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn wire_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = wire::decode(&bytes);
    }

    #[test]
    fn date_ymd_roundtrip(days in -20_000i64..40_000) {
        let d = SimDate::from_days(days);
        let (y, m, dd) = d.ymd();
        prop_assert_eq!(SimDate::from_ymd(y, m, dd), d);
    }

    #[test]
    fn date_ordering_matches_days(a in -20_000i64..40_000, b in -20_000i64..40_000) {
        let (da, db) = (SimDate::from_days(a), SimDate::from_days(b));
        prop_assert_eq!(da < db, a < b);
        prop_assert_eq!(da.days_until(db), b - a);
    }

    #[test]
    fn range_intersection_is_commutative_and_contained(
        s1 in 0i64..1000, l1 in 0i64..400, s2 in 0i64..1000, l2 in 0i64..400,
    ) {
        let r1 = DateRange::new(SimDate::from_days(s1), SimDate::from_days(s1 + l1));
        let r2 = DateRange::new(SimDate::from_days(s2), SimDate::from_days(s2 + l2));
        let i12 = r1.intersect(&r2);
        let i21 = r2.intersect(&r1);
        prop_assert_eq!(i12, i21);
        prop_assert_eq!(i12.is_some(), r1.overlaps(&r2));
        if let Some(i) = i12 {
            prop_assert!(i.len_days() <= r1.len_days());
            prop_assert!(i.len_days() <= r2.len_days());
            prop_assert!(r1.contains(i.start) && r2.contains(i.start));
            prop_assert!(r1.contains(i.end) && r2.contains(i.end));
        }
    }

    #[test]
    fn zone_lookup_total(qname in name_strategy()) {
        // A fixed small zone: lookup must classify every name somewhere
        // and never panic.
        let origin: DomainName = "gov.zz".parse().unwrap();
        let mut z = Zone::new(origin.clone());
        z.add_ns(origin.clone(), "ns1.gov.zz".parse().unwrap());
        z.add_ns("child.gov.zz".parse().unwrap(), "ns1.child.gov.zz".parse().unwrap());
        let r = z.lookup(&qname, RecordType::A);
        if !qname.is_within(&origin) {
            prop_assert_eq!(r, ZoneLookup::OutOfZone);
        } else {
            prop_assert!(!matches!(r, ZoneLookup::OutOfZone));
        }
    }
}

proptest! {
    /// Any zone assembled from generated records serializes to master-file
    /// text that parses back to the identical zone.
    #[test]
    fn zonefile_roundtrip(
        records in prop::collection::vec((label_strategy(), rdata_strategy()), 0..12),
    ) {
        let origin: DomainName = "gov.zz".parse().unwrap();
        let mut zone = govdns_model::Zone::new(origin.clone());
        for (label, data) in records {
            // TXT content is restricted to what master files can carry
            // losslessly in this subset (no quotes/backslashes).
            let data = match data {
                RecordData::Txt(t) => {
                    RecordData::Txt(t.chars().filter(|c| *c != '"' && *c != '\\').collect())
                }
                other => other,
            };
            let owner = origin.prepend(&label).unwrap();
            zone.add(owner, data);
        }
        let text = govdns_model::zonefile::serialize(&zone);
        let back = govdns_model::zonefile::parse(&text).unwrap();
        prop_assert_eq!(back, zone);
    }

    /// The parser never panics on arbitrary printable input.
    #[test]
    fn zonefile_parse_never_panics(text in "[ -~\n]{0,400}") {
        let _ = govdns_model::zonefile::parse(&text);
    }
}

// ---------------------------------------------------------------------
// Oracles. Names share their labels and are looked up by borrowed label
// slices, the wire encoder keeps its compression table as a list of
// borrowed suffixes, and zones answer the empty-non-terminal question
// from an index. Each property below keeps the algorithm that was
// replaced as a reference and checks the new one gives the same result.
// ---------------------------------------------------------------------

/// Names drawn from a small label pool, so that suffixes repeat and
/// compression, shared ancestors and empty non-terminals all occur.
fn pooled_name_strategy(max_labels: usize) -> impl Strategy<Value = DomainName> {
    prop::collection::vec(prop::sample::select(vec!["a", "b", "ns1", "gov", "zz"]), 0..max_labels)
        .prop_map(|labels| {
            DomainName::from_labels(labels.iter().map(|l| Label::new(l).unwrap())).unwrap()
        })
}

fn pooled_rdata_strategy() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RecordData::A(o.into())),
        pooled_name_strategy(5).prop_map(RecordData::Ns),
        pooled_name_strategy(5).prop_map(RecordData::Cname),
        "[a-z]{0,8}".prop_map(RecordData::Txt),
        (pooled_name_strategy(4), pooled_name_strategy(4))
            .prop_map(|(m, r)| RecordData::Soa(Soa::new(m, r))),
    ]
}

/// Rdata of every variant from pooled names, with TXT at the lengths
/// where its 255-byte chunking changes shape.
fn every_rdata_strategy() -> impl Strategy<Value = RecordData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RecordData::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| RecordData::Aaaa(o.into())),
        pooled_name_strategy(5).prop_map(RecordData::Ns),
        pooled_name_strategy(5).prop_map(RecordData::Cname),
        pooled_name_strategy(5).prop_map(RecordData::Ptr),
        (pooled_name_strategy(4), pooled_name_strategy(4), any::<u32>())
            .prop_map(|(m, r, serial)| RecordData::Soa(Soa::new(m, r).with_serial(serial))),
        prop::sample::select(vec![0usize, 1, 254, 255, 256, 510, 511, 700])
            .prop_map(|n| RecordData::Txt("t".repeat(n))),
    ]
}

fn every_records() -> impl Strategy<Value = Vec<ResourceRecord>> {
    prop::collection::vec(
        (pooled_name_strategy(5), any::<u32>(), every_rdata_strategy())
            .prop_map(|(name, ttl, data)| ResourceRecord::new(name, ttl, data)),
        0..8,
    )
}

fn pooled_records() -> impl Strategy<Value = Vec<ResourceRecord>> {
    prop::collection::vec(
        (pooled_name_strategy(5), any::<u32>(), pooled_rdata_strategy())
            .prop_map(|(name, ttl, data)| ResourceRecord::new(name, ttl, data)),
        0..8,
    )
}

/// The encoder as it was: every suffix of every name, owned, in a
/// `HashMap`.
mod reference_wire {
    use std::collections::HashMap;

    use govdns_model::{DomainName, Message, MessageKind, RecordData, ResourceRecord};

    pub fn encode(msg: &Message) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut compress: HashMap<DomainName, u16> = HashMap::new();
        put_u16(&mut buf, msg.id);
        let mut flags = 0u16;
        if msg.kind == MessageKind::Response {
            flags |= 1 << 15;
        }
        if msg.aa {
            flags |= 1 << 10;
        }
        if msg.tc {
            flags |= 1 << 9;
        }
        flags |= u16::from(msg.rcode.code());
        put_u16(&mut buf, flags);
        put_u16(&mut buf, 1);
        put_u16(&mut buf, msg.answers.len() as u16);
        put_u16(&mut buf, msg.authority.len() as u16);
        put_u16(&mut buf, msg.additional.len() as u16);
        encode_name(&mut buf, &msg.question.name, &mut compress);
        put_u16(&mut buf, msg.question.rtype.code());
        put_u16(&mut buf, 1);
        for rr in msg.answers.iter().chain(&msg.authority).chain(&msg.additional) {
            encode_record(&mut buf, rr, &mut compress);
        }
        buf
    }

    fn put_u16(buf: &mut Vec<u8>, v: u16) {
        buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_be_bytes());
    }

    fn encode_name(buf: &mut Vec<u8>, name: &DomainName, compress: &mut HashMap<DomainName, u16>) {
        let labels = name.labels();
        for i in 0..labels.len() {
            let suffix = name.suffix(labels.len() - i);
            if let Some(&off) = compress.get(&suffix) {
                put_u16(buf, 0xC000 | off);
                return;
            }
            if buf.len() < 0x3FFF {
                compress.insert(suffix, buf.len() as u16);
            }
            let l = labels[i].as_str().as_bytes();
            buf.push(l.len() as u8);
            buf.extend_from_slice(l);
        }
        buf.push(0);
    }

    fn encode_record(
        buf: &mut Vec<u8>,
        rr: &ResourceRecord,
        compress: &mut HashMap<DomainName, u16>,
    ) {
        encode_name(buf, &rr.name, compress);
        put_u16(buf, rr.rtype().code());
        put_u16(buf, 1);
        put_u32(buf, rr.ttl);
        let len_pos = buf.len();
        put_u16(buf, 0);
        let rdata_start = buf.len();
        match &rr.data {
            RecordData::A(a) => buf.extend_from_slice(&a.octets()),
            RecordData::Aaaa(a) => buf.extend_from_slice(&a.octets()),
            RecordData::Ns(n) | RecordData::Cname(n) | RecordData::Ptr(n) => {
                encode_name(buf, n, compress)
            }
            RecordData::Soa(soa) => {
                encode_name(buf, &soa.mname, compress);
                encode_name(buf, &soa.rname, compress);
                for v in [soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum] {
                    put_u32(buf, v);
                }
            }
            RecordData::Txt(t) => {
                for chunk in t.as_bytes().chunks(255) {
                    buf.push(chunk.len() as u8);
                    buf.extend_from_slice(chunk);
                }
                if t.is_empty() {
                    buf.push(0);
                }
            }
        }
        let rdlen = (buf.len() - rdata_start) as u16;
        buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }
}

/// A [`ZoneLookup`] with its borrowed RRsets copied and its glue
/// collected, so the reference can build one from scratch.
#[derive(Debug, PartialEq)]
enum OwnedLookup {
    Answer(RrSet),
    Referral { cut: DomainName, ns: RrSet, glue: Vec<(DomainName, Ipv4Addr)> },
    NoData,
    NxDomain,
    OutOfZone,
}

impl From<ZoneLookup<'_>> for OwnedLookup {
    fn from(lookup: ZoneLookup<'_>) -> Self {
        match lookup {
            ZoneLookup::Answer(set) => OwnedLookup::Answer(set.clone()),
            ZoneLookup::Referral { ns, glue } => OwnedLookup::Referral {
                cut: ns.name().clone(),
                ns: ns.clone(),
                glue: glue.map(|(name, addr)| (name.clone(), addr)).collect(),
            },
            ZoneLookup::NoData => OwnedLookup::NoData,
            ZoneLookup::NxDomain => OwnedLookup::NxDomain,
            ZoneLookup::OutOfZone => OwnedLookup::OutOfZone,
        }
    }
}

/// `Zone::lookup` as it was: walk every ancestor for the highest cut,
/// then scan every owner for an empty non-terminal.
fn reference_lookup(zone: &Zone, name: &DomainName, rtype: RecordType) -> OwnedLookup {
    let origin = zone.origin();
    if !name.is_within(origin) {
        return OwnedLookup::OutOfZone;
    }
    let mut best = None;
    for anc in name.ancestors() {
        if anc == *origin || !anc.is_within(origin) {
            break;
        }
        if let Some(ns) = zone.rrset(&anc, RecordType::Ns) {
            best = Some(ns);
        }
    }
    if let Some(ns) = best {
        let mut glue = Vec::new();
        for target in ns.ns_targets() {
            if !target.is_within(origin) {
                continue;
            }
            for d in zone.rrset(target, RecordType::A).into_iter().flat_map(|set| set.iter()) {
                if let Some(addr) = d.as_a() {
                    glue.push((target.clone(), addr));
                }
            }
        }
        return OwnedLookup::Referral { cut: ns.name().clone(), ns: ns.clone(), glue };
    }
    let owners: BTreeSet<DomainName> = zone.iter().map(|set| set.name().clone()).collect();
    if owners.contains(name) {
        match (zone.rrset(name, rtype), zone.rrset(name, RecordType::Cname)) {
            (Some(set), _) => OwnedLookup::Answer(set.clone()),
            (None, Some(cname)) if rtype != RecordType::Cname => OwnedLookup::Answer(cname.clone()),
            _ => OwnedLookup::NoData,
        }
    } else if owners.iter().any(|k| k.is_subdomain_of(name)) {
        OwnedLookup::NoData
    } else {
        OwnedLookup::NxDomain
    }
}

/// A zone at `gov.zz` whose owners come from the label pool: nested
/// delegations with in-zone and out-of-zone targets, glue under cuts,
/// empty non-terminals, and — when neither the SOA nor a depth-0 owner
/// is drawn — an apex with no records at all.
fn pooled_zone_strategy() -> impl Strategy<Value = Zone> {
    (
        any::<bool>(),
        prop::collection::vec((pooled_name_strategy(4), pooled_rdata_strategy()), 0..24),
    )
        .prop_map(|(soa, records)| {
            let origin: DomainName = "gov.zz".parse().unwrap();
            let mut zone = Zone::new(origin.clone());
            if soa {
                zone.set_soa(Soa::new(
                    "ns1.gov.zz".parse().unwrap(),
                    "hostmaster.gov.zz".parse().unwrap(),
                ));
            }
            for (relative, data) in records {
                let owner = DomainName::from_labels(
                    relative.labels().iter().chain(origin.labels()).cloned(),
                )
                .unwrap();
                // Point some NS records back into the zone so glue exists.
                let data = match data {
                    RecordData::Ns(target) if target.level() % 2 == 0 => RecordData::Ns(
                        DomainName::from_labels(
                            target.labels().iter().chain(origin.labels()).cloned(),
                        )
                        .unwrap(),
                    ),
                    other => other,
                };
                zone.add(owner, data);
            }
            zone
        })
}

proptest! {
    #[test]
    fn wire_encode_matches_the_hashmap_encoder(
        qname in pooled_name_strategy(5),
        answers in pooled_records(),
        authority in pooled_records(),
        additional in pooled_records(),
        id in any::<u16>(),
    ) {
        let mut msg = Message::query(id, qname, RecordType::Ns).response();
        msg.answers = answers;
        msg.authority = authority;
        msg.additional = additional;
        let bytes = wire::encode(&msg);
        prop_assert_eq!(&bytes, &reference_wire::encode(&msg));
        prop_assert_eq!(wire::encoded_len(&msg), bytes.len());
        prop_assert_eq!(wire::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn encoded_len_is_the_encoded_size(
        qname in pooled_name_strategy(5),
        answers in every_records(),
        authority in every_records(),
        additional in every_records(),
        filler in prop::sample::select(vec![0usize, 30, 52, 53, 54, 70]),
    ) {
        let mut msg = Message::query(1, qname, RecordType::Ns).response();
        // 300-byte TXT records under a name of their own, 53 or more of
        // which push the drawn records past offset 0x3FFF, where the
        // suffixes they introduce can no longer be pointer targets.
        let owner: DomainName = "filler.example".parse().unwrap();
        let txt = RecordData::Txt("f".repeat(300));
        msg.answers = vec![ResourceRecord::new(owner, 60, txt); filler];
        msg.answers.extend(answers);
        msg.authority = authority;
        msg.additional = additional;
        let bytes = wire::encode(&msg);
        prop_assert_eq!(wire::encoded_len(&msg), bytes.len());
        prop_assert_eq!(wire::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn borrowed_suffix_lookups_match_owned_ones(
        keys in prop::collection::vec(pooled_name_strategy(5), 0..24),
        probes in prop::collection::vec(pooled_name_strategy(6), 1..12),
    ) {
        let hashed: HashMap<DomainName, usize> =
            keys.iter().cloned().enumerate().map(|(i, k)| (k, i)).collect();
        let ordered: BTreeMap<DomainName, usize> =
            keys.iter().cloned().enumerate().map(|(i, k)| (k, i)).collect();
        for name in probes.iter().chain(&keys) {
            let labels = name.labels();
            for i in 0..=labels.len() {
                let owned = name.suffix(labels.len() - i);
                prop_assert_eq!(hashed.get(&labels[i..]), hashed.get(&owned));
                prop_assert_eq!(ordered.get(&labels[i..]), ordered.get(&owned));
            }
        }
        let mut names = keys.clone();
        names.extend(probes);
        let mut as_labels: Vec<Vec<Label>> = names.iter().map(|n| n.labels().to_vec()).collect();
        names.sort();
        as_labels.sort();
        let sorted: Vec<Vec<Label>> = names.iter().map(|n| n.labels().to_vec()).collect();
        prop_assert_eq!(sorted, as_labels);
    }

    #[test]
    fn zone_lookup_matches_the_walk_and_scan(
        zone in pooled_zone_strategy(),
        qnames in prop::collection::vec(pooled_name_strategy(6), 1..16),
        rtype in prop::sample::select(RecordType::all().to_vec()),
    ) {
        let origin = zone.origin().clone();
        // Every owner and every ancestor of one, inside and outside the
        // zone, plus the drawn names placed under the origin and as-is.
        let mut asked: Vec<DomainName> =
            zone.iter().flat_map(|set| set.name().ancestors()).collect();
        for q in qnames {
            asked.push(
                DomainName::from_labels(q.labels().iter().chain(origin.labels()).cloned())
                    .unwrap(),
            );
            asked.push(q);
        }
        for name in &asked {
            for t in [rtype, RecordType::Ns, RecordType::A] {
                prop_assert_eq!(
                    OwnedLookup::from(zone.lookup(name, t)),
                    reference_lookup(&zone, name, t),
                    "{} {:?}",
                    name,
                    t
                );
            }
        }
    }
}

#[test]
fn wire_encode_matches_the_hashmap_encoder_past_the_pointer_limit() {
    // Owners introduced past offset 0x3FFF cannot be pointer targets, so
    // their repeats near the end must be written out in full.
    let mut msg = Message::query(7, "gov.zz".parse().unwrap(), RecordType::A).response();
    for i in 0..1200u32 {
        let owner: DomainName = format!("host{i}.gov.zz").parse().unwrap();
        msg.answers.push(ResourceRecord::new(owner, 300, RecordData::A(i.to_be_bytes().into())));
    }
    for i in (0..1200u32).step_by(37) {
        let owner: DomainName = format!("host{i}.gov.zz").parse().unwrap();
        let target: DomainName = format!("ns.host{i}.gov.zz").parse().unwrap();
        msg.additional.push(ResourceRecord::new(owner, 60, RecordData::Ns(target)));
    }
    let bytes = wire::encode(&msg);
    assert!(bytes.len() > 0x4000, "message is only {} bytes", bytes.len());
    assert_eq!(bytes, reference_wire::encode(&msg));
    assert_eq!(wire::decode(&bytes).unwrap(), msg);
}
