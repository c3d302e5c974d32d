use std::fmt;

use crate::{DomainName, RecordType, ResourceRecord, RrSet};

/// DNS response codes used in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error (may still carry an empty answer section — NODATA).
    NoError,
    /// Malformed query.
    FormErr,
    /// Server failure.
    ServFail,
    /// The queried name does not exist.
    NxDomain,
    /// Query kind not implemented.
    NotImp,
    /// Server refuses to answer — the classic *lame* response.
    Refused,
}

impl Rcode {
    /// The RFC 1035 wire code.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Rcode> {
        Some(match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => return None,
        })
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rcode::NoError => "NOERROR",
            Rcode::FormErr => "FORMERR",
            Rcode::ServFail => "SERVFAIL",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::NotImp => "NOTIMP",
            Rcode::Refused => "REFUSED",
        };
        f.write_str(s)
    }
}

/// Whether a message is a query or a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A question sent to a server.
    Query,
    /// A server's reply.
    Response,
}

/// The single question a message carries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// The queried name.
    pub name: DomainName,
    /// The queried type.
    pub rtype: RecordType,
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} IN {}", self.name, self.rtype)
    }
}

/// A DNS message: the unit the simulated network transports.
///
/// ```
/// use govdns_model::{Message, RecordType, Rcode};
/// let q = Message::query(7, "portal.gov.example".parse()?, RecordType::Ns);
/// let r = q.response().authoritative();
/// assert_eq!(r.id, 7);
/// assert_eq!(r.rcode, Rcode::NoError);
/// assert!(r.aa);
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id, echoed by responses.
    pub id: u16,
    /// Query or response.
    pub kind: MessageKind,
    /// Authoritative-answer flag. The measurement pipeline treats only
    /// `aa`-set answers as authoritative responses.
    pub aa: bool,
    /// Truncation flag: the responder could not fit the full answer (or a
    /// middlebox clipped it). A truncated response carries no usable
    /// record sections and asks the client to retry.
    pub tc: bool,
    /// Response code (meaningful for responses; `NoError` on queries).
    pub rcode: Rcode,
    /// The question section (exactly one question, as in practice).
    pub question: Question,
    /// Answer records.
    pub answers: Vec<ResourceRecord>,
    /// Authority-section records (NS RRsets of referrals live here).
    pub authority: Vec<ResourceRecord>,
    /// Additional-section records (glue).
    pub additional: Vec<ResourceRecord>,
}

impl Message {
    /// Builds a query.
    pub fn query(id: u16, name: DomainName, rtype: RecordType) -> Self {
        Message {
            id,
            kind: MessageKind::Query,
            aa: false,
            tc: false,
            rcode: Rcode::NoError,
            question: Question { name, rtype },
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Starts a response echoing this query's id and question.
    pub fn response(&self) -> Message {
        Message {
            id: self.id,
            kind: MessageKind::Response,
            aa: false,
            tc: false,
            rcode: Rcode::NoError,
            question: self.question.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// Sets the authoritative-answer flag.
    #[must_use]
    pub fn authoritative(mut self) -> Message {
        self.aa = true;
        self
    }

    /// Sets the rcode.
    #[must_use]
    pub fn with_rcode(mut self, rcode: Rcode) -> Message {
        self.rcode = rcode;
        self
    }

    /// Appends an RRset to the answer section.
    #[must_use]
    pub fn with_answer(mut self, set: &RrSet) -> Message {
        self.answers.extend(set.to_records());
        self
    }

    /// Appends an RRset to the authority section (referral NS data).
    #[must_use]
    pub fn with_authority(mut self, set: &RrSet) -> Message {
        self.authority.extend(set.to_records());
        self
    }

    /// Appends a record to the additional section (glue).
    #[must_use]
    pub fn with_additional(mut self, rr: ResourceRecord) -> Message {
        self.additional.push(rr);
        self
    }

    /// Truncates the message in place: every record section is dropped
    /// and the `tc` flag set, as a size-limited responder would.
    pub fn truncate(&mut self) {
        self.tc = true;
        self.answers.clear();
        self.authority.clear();
        self.additional.clear();
    }

    /// Whether this is an authoritative answer for the question (`aa` set,
    /// `NOERROR`, response kind, not truncated).
    pub fn is_authoritative_answer(&self) -> bool {
        self.kind == MessageKind::Response && self.aa && !self.tc && self.rcode == Rcode::NoError
    }

    /// Whether this response is a referral: no answers, NS records in the
    /// authority section, `aa` clear.
    pub fn is_referral(&self) -> bool {
        self.kind == MessageKind::Response
            && !self.aa
            && self.rcode == Rcode::NoError
            && self.answers.is_empty()
            && self.authority.iter().any(|r| r.rtype() == RecordType::Ns)
    }

    /// NS targets found in the answer section.
    pub fn answer_ns_targets(&self) -> Vec<&DomainName> {
        self.answers.iter().filter_map(|r| r.data.as_ns()).collect()
    }

    /// NS targets found in the authority section.
    pub fn authority_ns_targets(&self) -> Vec<&DomainName> {
        self.authority.iter().filter_map(|r| r.data.as_ns()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecordData, RecordType};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn response_echoes_query() {
        let q = Message::query(42, n("x.gov"), RecordType::Ns);
        let r = q.response();
        assert_eq!(r.id, 42);
        assert_eq!(r.question, q.question);
        assert_eq!(r.kind, MessageKind::Response);
    }

    #[test]
    fn authoritative_answer_detection() {
        let q = Message::query(1, n("x.gov"), RecordType::Ns);
        let mut set = RrSet::new(n("x.gov"), RecordType::Ns, 300);
        set.push(RecordData::Ns(n("ns1.x.gov")));
        let r = q.response().authoritative().with_answer(&set);
        assert!(r.is_authoritative_answer());
        assert!(!r.is_referral());
        assert_eq!(r.answer_ns_targets(), vec![&n("ns1.x.gov")]);
    }

    #[test]
    fn referral_detection() {
        let q = Message::query(1, n("www.x.gov"), RecordType::A);
        let mut set = RrSet::new(n("x.gov"), RecordType::Ns, 300);
        set.push(RecordData::Ns(n("ns1.x.gov")));
        let r = q.response().with_authority(&set);
        assert!(r.is_referral());
        assert!(!r.is_authoritative_answer());
        assert_eq!(r.authority_ns_targets(), vec![&n("ns1.x.gov")]);
    }

    #[test]
    fn refused_is_neither() {
        let q = Message::query(1, n("x.gov"), RecordType::Ns);
        let r = q.response().with_rcode(Rcode::Refused);
        assert!(!r.is_referral());
        assert!(!r.is_authoritative_answer());
    }

    #[test]
    fn rcode_roundtrip() {
        for c in 0..=5u8 {
            assert_eq!(Rcode::from_code(c).unwrap().code(), c);
        }
        assert!(Rcode::from_code(9).is_none());
    }
}
