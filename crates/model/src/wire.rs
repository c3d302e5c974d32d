//! RFC 1035 wire-format encoding and decoding, with name compression.
//!
//! The simulated network transports [`Message`] values directly, but the
//! traffic accounting in the measurement pipeline reports realistic byte
//! volumes, and that requires encoding messages the way a real server
//! would — including compression pointers, which dominate the size of NS
//! answers. Round-tripping through this codec is also one of the model's
//! property-test surfaces.
//!
//! ```
//! use govdns_model::{Message, RecordType, wire};
//! let q = Message::query(9, "portal.gov.example".parse()?, RecordType::Ns);
//! let bytes = wire::encode(&q);
//! let back = wire::decode(&bytes)?;
//! assert_eq!(back, q);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::{
    DomainName, Label, Message, MessageKind, ModelError, Question, Rcode, RecordData, RecordType,
    ResourceRecord, Soa,
};

const FLAG_QR: u16 = 1 << 15;
const FLAG_AA: u16 = 1 << 10;
const FLAG_TC: u16 = 1 << 9;
const CLASS_IN: u16 = 1;
const POINTER_MASK: u8 = 0b1100_0000;

/// Name suffixes already written, each with the offset a compression
/// pointer to it would carry. A message holds a few dozen names, so a
/// linear scan of borrowed label slices beats hashing owned suffixes.
type Compression<'a> = Vec<(&'a [Label], u16)>;

/// Where the encoder's bytes go. [`encode`] writes them into a buffer;
/// [`encoded_len`] only counts them. Compression offsets depend on the
/// running length alone, so both take every branch the same way.
trait Sink {
    fn len(&self) -> usize;
    fn put(&mut self, bytes: &[u8]);
    /// Overwrites the two bytes at `at`, already counted in `len`.
    fn patch_u16(&mut self, at: usize, v: u16);
}

impl Sink for Vec<u8> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn patch_u16(&mut self, at: usize, v: u16) {
        self[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }
}

/// A sink that keeps only the byte count.
struct Count(usize);

impl Sink for Count {
    fn len(&self) -> usize {
        self.0
    }

    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn patch_u16(&mut self, _at: usize, _v: u16) {}
}

/// Encodes a message to wire format with name compression.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    write_message(&mut buf, msg);
    buf
}

/// Size in bytes of the encoded form of `msg`, computed by the same
/// writer as [`encode`] without building the bytes.
pub fn encoded_len(msg: &Message) -> usize {
    let mut count = Count(0);
    write_message(&mut count, msg);
    count.0
}

fn write_message(out: &mut impl Sink, msg: &Message) {
    let mut compress = Compression::with_capacity(16);
    put_u16(out, msg.id);
    let mut flags = 0u16;
    if msg.kind == MessageKind::Response {
        flags |= FLAG_QR;
    }
    if msg.aa {
        flags |= FLAG_AA;
    }
    if msg.tc {
        flags |= FLAG_TC;
    }
    flags |= u16::from(msg.rcode.code());
    put_u16(out, flags);
    put_u16(out, 1); // qdcount
    put_u16(out, msg.answers.len() as u16);
    put_u16(out, msg.authority.len() as u16);
    put_u16(out, msg.additional.len() as u16);

    encode_name(out, &msg.question.name, &mut compress);
    put_u16(out, msg.question.rtype.code());
    put_u16(out, CLASS_IN);

    for rr in msg.answers.iter().chain(&msg.authority).chain(&msg.additional) {
        encode_record(out, rr, &mut compress);
    }
}

fn put_u16(out: &mut impl Sink, v: u16) {
    out.put(&v.to_be_bytes());
}

fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_be_bytes());
}

fn encode_name<'a>(out: &mut impl Sink, name: &'a DomainName, compress: &mut Compression<'a>) {
    let labels = name.labels();
    for i in 0..labels.len() {
        let suffix = &labels[i..];
        // A suffix is recorded at most once, so the first offset wins.
        if let Some(&(_, off)) = compress.iter().find(|(known, _)| *known == suffix) {
            put_u16(out, 0xC000 | off);
            return;
        }
        // Pointers can only address the first 16 KiB - 2 bits of a message.
        if out.len() < 0x3FFF {
            compress.push((suffix, out.len() as u16));
        }
        let l = labels[i].as_str().as_bytes();
        out.put(&[l.len() as u8]);
        out.put(l);
    }
    out.put(&[0]);
}

fn encode_record<'a>(out: &mut impl Sink, rr: &'a ResourceRecord, compress: &mut Compression<'a>) {
    encode_name(out, &rr.name, compress);
    put_u16(out, rr.rtype().code());
    put_u16(out, CLASS_IN);
    put_u32(out, rr.ttl);
    let len_pos = out.len();
    put_u16(out, 0); // rdlength placeholder
    let rdata_start = out.len();
    match &rr.data {
        RecordData::A(a) => out.put(&a.octets()),
        RecordData::Aaaa(a) => out.put(&a.octets()),
        RecordData::Ns(n) | RecordData::Cname(n) | RecordData::Ptr(n) => {
            encode_name(out, n, compress)
        }
        RecordData::Soa(soa) => {
            encode_name(out, &soa.mname, compress);
            encode_name(out, &soa.rname, compress);
            put_u32(out, soa.serial);
            put_u32(out, soa.refresh);
            put_u32(out, soa.retry);
            put_u32(out, soa.expire);
            put_u32(out, soa.minimum);
        }
        RecordData::Txt(t) => {
            // Character-strings of up to 255 bytes each.
            for chunk in t.as_bytes().chunks(255) {
                out.put(&[chunk.len() as u8]);
                out.put(chunk);
            }
            if t.is_empty() {
                out.put(&[0]);
            }
        }
    }
    let rdlen = (out.len() - rdata_start) as u16;
    out.patch_u16(len_pos, rdlen);
}

/// Decodes a wire-format message.
///
/// # Errors
///
/// Returns a [`ModelError`] if the buffer is truncated, a compression
/// pointer is malformed, or a record type/rdata is invalid.
pub fn decode(bytes: &[u8]) -> Result<Message, ModelError> {
    let mut cur = Cursor { data: bytes, pos: 0 };
    let id = cur.u16()?;
    let flags = cur.u16()?;
    let qd = cur.u16()?;
    let an = cur.u16()?;
    let ns = cur.u16()?;
    let ar = cur.u16()?;
    if qd != 1 {
        return Err(ModelError::TruncatedWire);
    }
    let qname = cur.name()?;
    let qtype_code = cur.u16()?;
    let qtype =
        RecordType::from_code(qtype_code).ok_or(ModelError::UnknownRecordType(qtype_code))?;
    let _class = cur.u16()?;

    let mut msg = Message {
        id,
        kind: if flags & FLAG_QR != 0 { MessageKind::Response } else { MessageKind::Query },
        aa: flags & FLAG_AA != 0,
        tc: flags & FLAG_TC != 0,
        rcode: Rcode::from_code((flags & 0x0F) as u8).ok_or(ModelError::TruncatedWire)?,
        question: Question { name: qname, rtype: qtype },
        answers: Vec::with_capacity(an as usize),
        authority: Vec::with_capacity(ns as usize),
        additional: Vec::with_capacity(ar as usize),
    };
    for _ in 0..an {
        let rr = cur.record()?;
        msg.answers.push(rr);
    }
    for _ in 0..ns {
        let rr = cur.record()?;
        msg.authority.push(rr);
    }
    for _ in 0..ar {
        let rr = cur.record()?;
        msg.additional.push(rr);
    }
    Ok(msg)
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8, ModelError> {
        let b = *self.data.get(self.pos).ok_or(ModelError::TruncatedWire)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, ModelError> {
        let hi = self.u8()?;
        let lo = self.u8()?;
        Ok(u16::from_be_bytes([hi, lo]))
    }

    fn u32(&mut self) -> Result<u32, ModelError> {
        let a = self.u16()?;
        let b = self.u16()?;
        Ok((u32::from(a) << 16) | u32::from(b))
    }

    fn slice(&mut self, len: usize) -> Result<&[u8], ModelError> {
        let end = self.pos.checked_add(len).ok_or(ModelError::TruncatedWire)?;
        let s = self.data.get(self.pos..end).ok_or(ModelError::TruncatedWire)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a (possibly compressed) name starting at the cursor.
    fn name(&mut self) -> Result<DomainName, ModelError> {
        let mut labels = Vec::new();
        let mut pos = self.pos;
        let mut jumped = false;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > 256 {
                return Err(ModelError::BadCompressionPointer(pos as u16));
            }
            let len = *self.data.get(pos).ok_or(ModelError::TruncatedWire)?;
            if len & POINTER_MASK == POINTER_MASK {
                let lo = *self.data.get(pos + 1).ok_or(ModelError::TruncatedWire)?;
                let target = (u16::from(len & !POINTER_MASK) << 8) | u16::from(lo);
                if usize::from(target) >= pos {
                    // Forward pointers would allow loops.
                    return Err(ModelError::BadCompressionPointer(target));
                }
                if !jumped {
                    self.pos = pos + 2;
                    jumped = true;
                }
                pos = usize::from(target);
                continue;
            }
            if len & POINTER_MASK != 0 {
                return Err(ModelError::BadCompressionPointer(pos as u16));
            }
            if len == 0 {
                if !jumped {
                    self.pos = pos + 1;
                }
                break;
            }
            let start = pos + 1;
            let end = start + usize::from(len);
            let raw = self.data.get(start..end).ok_or(ModelError::TruncatedWire)?;
            let text =
                std::str::from_utf8(raw).map_err(|_| ModelError::InvalidCharacter('\u{FFFD}'))?;
            labels.push(Label::new(text)?);
            pos = end;
        }
        DomainName::from_labels(labels)
    }

    fn record(&mut self) -> Result<ResourceRecord, ModelError> {
        let name = self.name()?;
        let code = self.u16()?;
        let rtype = RecordType::from_code(code).ok_or(ModelError::UnknownRecordType(code))?;
        let _class = self.u16()?;
        let ttl = self.u32()?;
        let rdlen = usize::from(self.u16()?);
        let rdata_end = self.pos + rdlen;
        let data = match rtype {
            RecordType::A => {
                let o = self.slice(4)?;
                if rdlen != 4 {
                    return Err(ModelError::BadRdataLength { rtype: code, len: rdlen });
                }
                RecordData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RecordType::Aaaa => {
                if rdlen != 16 {
                    return Err(ModelError::BadRdataLength { rtype: code, len: rdlen });
                }
                let o = self.slice(16)?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(o);
                RecordData::Aaaa(Ipv6Addr::from(oct))
            }
            RecordType::Ns => RecordData::Ns(self.name()?),
            RecordType::Cname => RecordData::Cname(self.name()?),
            RecordType::Ptr => RecordData::Ptr(self.name()?),
            RecordType::Soa => {
                let mname = self.name()?;
                let rname = self.name()?;
                let serial = self.u32()?;
                let refresh = self.u32()?;
                let retry = self.u32()?;
                let expire = self.u32()?;
                let minimum = self.u32()?;
                RecordData::Soa(Soa { mname, rname, serial, refresh, retry, expire, minimum })
            }
            RecordType::Txt => {
                let mut text = String::new();
                while self.pos < rdata_end {
                    let len = usize::from(self.u8()?);
                    let chunk = self.slice(len)?;
                    text.push_str(
                        std::str::from_utf8(chunk)
                            .map_err(|_| ModelError::InvalidCharacter('\u{FFFD}'))?,
                    );
                }
                RecordData::Txt(text)
            }
        };
        if self.pos != rdata_end {
            return Err(ModelError::BadRdataLength { rtype: code, len: rdlen });
        }
        Ok(ResourceRecord { name, ttl, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RrSet;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn roundtrip(msg: &Message) {
        let bytes = encode(msg);
        let back = decode(&bytes).expect("decode");
        assert_eq!(&back, msg);
    }

    #[test]
    fn query_roundtrip() {
        roundtrip(&Message::query(1234, n("www.portal.gov.example"), RecordType::Ns));
    }

    #[test]
    fn answer_roundtrip_all_types() {
        let q = Message::query(7, n("x.gov.example"), RecordType::Ns);
        let mut r = q.response().authoritative();
        r.answers = vec![
            ResourceRecord::new(n("x.gov.example"), 60, RecordData::Ns(n("ns1.x.gov.example"))),
            ResourceRecord::new(
                n("x.gov.example"),
                60,
                RecordData::A("192.0.2.7".parse().unwrap()),
            ),
            ResourceRecord::new(
                n("x.gov.example"),
                60,
                RecordData::Aaaa("2001:db8::7".parse().unwrap()),
            ),
            ResourceRecord::new(n("x.gov.example"), 60, RecordData::Txt("hello world".into())),
            ResourceRecord::new(n("x.gov.example"), 60, RecordData::Cname(n("y.gov.example"))),
            ResourceRecord::new(n("x.gov.example"), 60, RecordData::Ptr(n("host.gov.example"))),
            ResourceRecord::new(
                n("x.gov.example"),
                60,
                RecordData::Soa(Soa::new(n("ns1.x.gov.example"), n("hm.x.gov.example"))),
            ),
        ];
        roundtrip(&r);
    }

    #[test]
    fn referral_roundtrip_with_glue() {
        let q = Message::query(9, n("deep.portal.gov.example"), RecordType::A);
        let mut ns = RrSet::new(n("portal.gov.example"), RecordType::Ns, 300);
        ns.push(RecordData::Ns(n("ns1.portal.gov.example")));
        ns.push(RecordData::Ns(n("ns2.portal.gov.example")));
        let r = q.response().with_authority(&ns).with_additional(ResourceRecord::new(
            n("ns1.portal.gov.example"),
            300,
            RecordData::A("198.51.100.1".parse().unwrap()),
        ));
        roundtrip(&r);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::query(9, n("portal.gov.example"), RecordType::Ns);
        let mut ns = RrSet::new(n("portal.gov.example"), RecordType::Ns, 300);
        for i in 1..=4 {
            ns.push(RecordData::Ns(format!("ns{i}.portal.gov.example").parse().unwrap()));
        }
        let r = q.response().authoritative().with_answer(&ns);
        let compressed = encode(&r).len();
        // Uncompressed, each of the 4 answers would repeat the 20-byte
        // owner name and the 20+ byte target suffix.
        let uncompressed_estimate = 12
            + r.question.name.wire_len()
            + 4
            + r.answers
                .iter()
                .map(|rr| rr.name.wire_len() + 10 + rr.data.as_ns().unwrap().wire_len())
                .sum::<usize>();
        assert!(
            compressed < uncompressed_estimate * 2 / 3,
            "compressed {compressed} not < 2/3 of {uncompressed_estimate}"
        );
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode(&Message::query(1, n("a.b.c"), RecordType::A));
        for cut in [0, 5, 11, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_forward_pointer() {
        // Header + a name that is just a pointer to itself.
        let mut bad = vec![0u8, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bad.extend_from_slice(&[0xC0, 12]); // pointer to offset 12 = itself
        bad.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(decode(&bad), Err(ModelError::BadCompressionPointer(_))));
    }

    #[test]
    fn empty_txt_roundtrips() {
        let q = Message::query(3, n("t.gov.example"), RecordType::Txt);
        let mut r = q.response().authoritative();
        r.answers =
            vec![ResourceRecord::new(n("t.gov.example"), 60, RecordData::Txt(String::new()))];
        roundtrip(&r);
    }

    #[test]
    fn long_txt_roundtrips() {
        let q = Message::query(3, n("t.gov.example"), RecordType::Txt);
        let mut r = q.response().authoritative();
        r.answers =
            vec![ResourceRecord::new(n("t.gov.example"), 60, RecordData::Txt("x".repeat(700)))];
        roundtrip(&r);
    }

    #[test]
    fn root_name_roundtrips() {
        roundtrip(&Message::query(2, DomainName::root(), RecordType::Ns));
    }
}
