use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use govdns_model::{
    DomainName, Message, Rcode, RecordData, RecordType, ResourceRecord, RrSet, Zone, ZoneLookup,
};

/// How a lame (reachable but non-authoritative) server misbehaves.
///
/// The paper's *defective delegations* (§IV-C) cover servers that exist but
/// "do not answer queries for that zone"; these are the concrete ways that
/// happens in the wild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LameMode {
    /// Replies `REFUSED` — the classic lame response.
    Refused,
    /// Replies `SERVFAIL`.
    ServFail,
    /// Replies with a non-authoritative referral to the root ("upward
    /// referral"), an infamous BIND misconfiguration symptom.
    UpwardReferral,
    /// Replies `NOERROR` with no data and no `aa` bit.
    EmptyNonAuth,
}

/// What a simulated authoritative server does with queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerBehavior {
    /// Answers correctly from its configured zones.
    Responsive,
    /// Answers from its zones, but NS rdata is truncated to the first
    /// label — the trailing-dot zone-file typo the paper observes (`ns`
    /// leaking instead of `ns.example.com`).
    RelativeNameBug,
    /// Never replies; queries time out. Stale NS records pointing at
    /// decommissioned hosts look exactly like this.
    Unresponsive,
    /// Reachable but not serving the queried zones.
    Lame(LameMode),
    /// A parking service: authoritatively answers *any* question,
    /// directing traffic to itself — the §IV-D dangling-NS hijack
    /// scenario, where an expired provider domain is re-registered.
    Parking {
        /// Address every A query is answered with.
        web_ip: Ipv4Addr,
        /// Nameserver names every NS query is answered with.
        ns_names: Vec<DomainName>,
    },
}

/// A simulated authoritative nameserver bound to one IPv4 address.
///
/// Zones are shared `Arc`s: a third-party provider's server farm hosts the
/// same customer zone on every replica, and the generated worlds contain
/// providers serving tens of thousands of zones. An origin index keeps
/// per-query zone selection at `O(qname depth)` lookups, each keyed by a
/// borrowed slice of the qname's labels, so choosing a zone builds no
/// name.
///
/// ```
/// use govdns_simnet::{AuthoritativeServer, ServerBehavior};
/// use govdns_model::{Zone, Message, RecordType};
///
/// let mut zone = Zone::new("gov.zz".parse()?);
/// zone.add_ns("gov.zz".parse()?, "ns1.gov.zz".parse()?);
/// let server = AuthoritativeServer::new("192.0.2.1".parse().unwrap(), ServerBehavior::Responsive)
///     .with_zone(zone);
///
/// let q = Message::query(1, "gov.zz".parse()?, RecordType::Ns);
/// let r = server.handle(&q).expect("responsive server replies");
/// assert!(r.is_authoritative_answer());
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AuthoritativeServer {
    addr: Ipv4Addr,
    behavior: ServerBehavior,
    zones: Vec<Arc<Zone>>,
    by_origin: HashMap<DomainName, usize>,
}

impl AuthoritativeServer {
    /// Creates a server with no zones.
    pub fn new(addr: Ipv4Addr, behavior: ServerBehavior) -> Self {
        AuthoritativeServer { addr, behavior, zones: Vec::new(), by_origin: HashMap::new() }
    }

    /// Adds a zone (builder style).
    #[must_use]
    pub fn with_zone(mut self, zone: Zone) -> Self {
        self.add_zone(Arc::new(zone));
        self
    }

    /// Adds a (shared) zone the server is authoritative for. A later zone
    /// with the same origin replaces the earlier one in the index.
    pub fn add_zone(&mut self, zone: Arc<Zone>) {
        let origin = zone.origin().clone();
        self.zones.push(zone);
        self.by_origin.insert(origin, self.zones.len() - 1);
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The configured behavior.
    pub fn behavior(&self) -> &ServerBehavior {
        &self.behavior
    }

    /// The zones served (meaningful for responsive behaviors).
    pub fn zones(&self) -> &[Arc<Zone>] {
        &self.zones
    }

    /// Handles a query. `None` models a timeout (no packet ever returns).
    pub fn handle(&self, query: &Message) -> Option<Message> {
        match &self.behavior {
            ServerBehavior::Unresponsive => None,
            ServerBehavior::Lame(mode) => Some(self.lame_response(query, *mode)),
            ServerBehavior::Parking { web_ip, ns_names } => {
                Some(self.parking_response(query, *web_ip, ns_names))
            }
            ServerBehavior::Responsive => Some(self.zone_response(query, false)),
            ServerBehavior::RelativeNameBug => Some(self.zone_response(query, true)),
        }
    }

    fn lame_response(&self, query: &Message, mode: LameMode) -> Message {
        match mode {
            LameMode::Refused => query.response().with_rcode(Rcode::Refused),
            LameMode::ServFail => query.response().with_rcode(Rcode::ServFail),
            LameMode::EmptyNonAuth => query.response(),
            LameMode::UpwardReferral => {
                let mut roots = RrSet::new(DomainName::root(), RecordType::Ns, 86_400);
                roots.push(RecordData::Ns("a.root-servers.example".parse().expect("static name")));
                query.response().with_authority(&roots)
            }
        }
    }

    fn parking_response(
        &self,
        query: &Message,
        web_ip: Ipv4Addr,
        ns_names: &[DomainName],
    ) -> Message {
        let q = &query.question;
        let mut r = query.response().authoritative();
        match q.rtype {
            RecordType::Ns => {
                for ns in ns_names {
                    r.answers.push(ResourceRecord::new(
                        q.name.clone(),
                        300,
                        RecordData::Ns(ns.clone()),
                    ));
                }
            }
            RecordType::Aaaa
            | RecordType::Txt
            | RecordType::Soa
            | RecordType::Ptr
            | RecordType::Cname => {
                // Parking services typically answer A for anything and
                // NODATA elsewhere; keep the authoritative bit either way.
            }
            RecordType::A => {
                r.answers.push(ResourceRecord::new(q.name.clone(), 300, RecordData::A(web_ip)));
            }
        }
        r
    }

    /// Picks the zone with the longest origin enclosing `name`.
    fn best_zone(&self, name: &DomainName) -> Option<&Zone> {
        let labels = name.labels();
        (0..=labels.len())
            .find_map(|i| self.by_origin.get(&labels[i..]))
            .map(|&idx| &*self.zones[idx])
    }

    /// Builds the reply from the zone's borrowed RRsets, copying each
    /// record once, straight into its section.
    fn zone_response(&self, query: &Message, relative_bug: bool) -> Message {
        let q = &query.question;
        let Some(zone) = self.best_zone(&q.name) else {
            // Reachable, but not authoritative for anything enclosing the
            // qname: exactly what a lame delegation target does.
            return query.response().with_rcode(Rcode::Refused);
        };
        let mut r = query.response();
        match zone.lookup(&q.name, q.rtype) {
            ZoneLookup::Answer(set) => {
                r.aa = true;
                push_set(&mut r.answers, set, relative_bug);
                // Attach in-bailiwick glue for NS answers so clients can
                // chase targets without extra round trips.
                for target in set.iter().filter_map(RecordData::as_ns) {
                    if let Some(a) = zone.rrset(target, RecordType::A) {
                        push_set(&mut r.additional, a, false);
                    }
                }
            }
            ZoneLookup::Referral { ns, glue } => {
                push_set(&mut r.authority, ns, relative_bug);
                r.additional.extend(glue.map(|(name, addr)| {
                    ResourceRecord::new(name.clone(), ns.ttl(), RecordData::A(addr))
                }));
            }
            negative @ (ZoneLookup::NoData | ZoneLookup::NxDomain) => {
                r.aa = true;
                if negative == ZoneLookup::NxDomain {
                    r.rcode = Rcode::NxDomain;
                }
                if let Some(soa) = zone.rrset(zone.origin(), RecordType::Soa) {
                    push_set(&mut r.authority, soa, false);
                }
            }
            ZoneLookup::OutOfZone => r.rcode = Rcode::Refused,
        }
        r
    }
}

/// Appends `set`'s records to `section`. With `relative_bug`, every NS
/// target is truncated to its leading label — the relative-name
/// zone-file typo.
fn push_set(section: &mut Vec<ResourceRecord>, set: &RrSet, relative_bug: bool) {
    section.reserve(set.len());
    section.extend(set.iter().map(|data| {
        let data = match data {
            RecordData::Ns(target) if relative_bug && target.level() > 1 => {
                let first = target.labels()[..1].iter().cloned();
                RecordData::Ns(DomainName::from_labels(first).expect("one label is a valid name"))
            }
            other => other.clone(),
        };
        ResourceRecord::new(set.name().clone(), set.ttl(), data)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::Soa;
    use proptest::prelude::*;

    /// The lookup result the reply builder used to take: owned RRsets and
    /// a collected glue list.
    enum OwnedLookup {
        Answer(RrSet),
        Referral { ns: RrSet, glue: Vec<(DomainName, Ipv4Addr)> },
        NoData,
        NxDomain,
        OutOfZone,
    }

    fn owned_lookup(zone: &Zone, name: &DomainName, rtype: RecordType) -> OwnedLookup {
        match zone.lookup(name, rtype) {
            ZoneLookup::Answer(set) => OwnedLookup::Answer(set.clone()),
            ZoneLookup::Referral { ns, glue } => OwnedLookup::Referral {
                ns: ns.clone(),
                glue: glue.map(|(name, addr)| (name.clone(), addr)).collect(),
            },
            ZoneLookup::NoData => OwnedLookup::NoData,
            ZoneLookup::NxDomain => OwnedLookup::NxDomain,
            ZoneLookup::OutOfZone => OwnedLookup::OutOfZone,
        }
    }

    /// `zone_response` as it was: whole RRsets cloned into the message,
    /// NS targets mangled after the fact.
    fn reference_zone_response(
        server: &AuthoritativeServer,
        query: &Message,
        relative_bug: bool,
    ) -> Message {
        let q = &query.question;
        let Some(zone) = server.best_zone(&q.name) else {
            return query.response().with_rcode(Rcode::Refused);
        };
        match owned_lookup(zone, &q.name, q.rtype) {
            OwnedLookup::Answer(set) => {
                let mut r = query.response().authoritative().with_answer(&set);
                if relative_bug {
                    mangle_ns_targets(&mut r);
                }
                if set.rtype() == RecordType::Ns {
                    for target in set.ns_targets() {
                        if let Some(a) = zone.rrset(target, RecordType::A) {
                            for rr in a.to_records() {
                                r = r.with_additional(rr);
                            }
                        }
                    }
                }
                r
            }
            OwnedLookup::Referral { ns, glue } => {
                let mut r = query.response().with_authority(&ns);
                for (name, addr) in glue {
                    r = r.with_additional(ResourceRecord::new(name, ns.ttl(), RecordData::A(addr)));
                }
                if relative_bug {
                    mangle_ns_targets(&mut r);
                }
                r
            }
            OwnedLookup::NoData => {
                let mut r = query.response().authoritative();
                if let Some(soa) = zone.rrset(zone.origin(), RecordType::Soa) {
                    r = r.with_authority(soa);
                }
                r
            }
            OwnedLookup::NxDomain => {
                let mut r = query.response().authoritative().with_rcode(Rcode::NxDomain);
                if let Some(soa) = zone.rrset(zone.origin(), RecordType::Soa) {
                    r = r.with_authority(soa);
                }
                r
            }
            OwnedLookup::OutOfZone => query.response().with_rcode(Rcode::Refused),
        }
    }

    fn mangle_ns_targets(msg: &mut Message) {
        for rr in msg.answers.iter_mut().chain(msg.authority.iter_mut()) {
            if let RecordData::Ns(target) = &rr.data {
                if target.level() > 1 {
                    let first = target.labels()[0].as_str().to_owned();
                    rr.data = RecordData::Ns(first.parse().unwrap());
                }
            }
        }
    }

    /// A name under `gov.zz` from a small label pool, so owners, NS
    /// targets and queries collide: apex, cuts, names below cuts, glue
    /// hosts and empty non-terminals.
    fn pooled(max_labels: usize) -> impl Strategy<Value = DomainName> {
        prop::collection::vec(prop::sample::select(vec!["a", "b", "ns1", "www"]), 0..max_labels)
            .prop_map(|labels| {
                let origin: DomainName = "gov.zz".parse().unwrap();
                labels.iter().rev().fold(origin, |name, l| name.prepend(l).unwrap())
            })
    }

    /// Rdata for the pooled zone: A records (glue when the owner is an NS
    /// target), NS targets in and out of the origin, CNAMEs and TXT.
    fn zone_rdata() -> impl Strategy<Value = RecordData> {
        prop_oneof![
            (1u8..4).prop_map(|i| RecordData::A(Ipv4Addr::new(192, 0, 2, i))),
            pooled(3).prop_map(RecordData::Ns),
            prop::sample::select(vec!["ns1.other.example", "ns.b.other.example"])
                .prop_map(|t| RecordData::Ns(t.parse().unwrap())),
            pooled(3).prop_map(RecordData::Cname),
            Just(RecordData::Txt("v=spf1 -all".into())),
        ]
    }

    proptest! {
        #[test]
        fn replies_match_the_owned_lookup_builder(
            records in prop::collection::vec((pooled(3), zone_rdata()), 0..20),
            soa in any::<bool>(),
            relative_bug in any::<bool>(),
            queries in prop::collection::vec(pooled(4), 1..12),
        ) {
            let mut zone = Zone::new(n("gov.zz"));
            if soa {
                zone.set_soa(Soa::new(n("ns1.gov.zz"), n("hostmaster.gov.zz")));
            }
            for (owner, data) in records {
                zone.add(owner, data);
            }
            let behavior = if relative_bug {
                ServerBehavior::RelativeNameBug
            } else {
                ServerBehavior::Responsive
            };
            let server = AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), behavior)
                .with_zone(zone.clone());
            // Every owner, every drawn name, and one name out of the zone.
            let names = zone
                .iter()
                .map(|set| set.name().clone())
                .chain(queries)
                .chain([n("www.other.example")]);
            for name in names {
                for rtype in RecordType::all() {
                    let q = Message::query(7, name.clone(), rtype);
                    let want = reference_zone_response(&server, &q, relative_bug);
                    prop_assert_eq!(server.handle(&q), Some(want), "{} {}", name, rtype);
                }
            }
        }
    }

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn gov_zone() -> Zone {
        let mut z = Zone::new(n("gov.zz"));
        z.set_soa(Soa::new(n("ns1.gov.zz"), n("hostmaster.gov.zz")));
        z.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        z.add_a(n("ns1.gov.zz"), Ipv4Addr::new(192, 0, 2, 1));
        z.add_ns(n("portal.gov.zz"), n("ns1.portal.gov.zz"));
        z.add_glue(n("ns1.portal.gov.zz"), Ipv4Addr::new(198, 51, 100, 1));
        z
    }

    fn responsive() -> AuthoritativeServer {
        AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), ServerBehavior::Responsive)
            .with_zone(gov_zone())
    }

    #[test]
    fn answers_apex_ns_with_glue() {
        let r = responsive().handle(&Message::query(1, n("gov.zz"), RecordType::Ns)).unwrap();
        assert!(r.is_authoritative_answer());
        assert_eq!(r.answer_ns_targets(), vec![&n("ns1.gov.zz")]);
        assert_eq!(r.additional.len(), 1);
    }

    #[test]
    fn referral_below_cut_carries_glue() {
        let r =
            responsive().handle(&Message::query(1, n("portal.gov.zz"), RecordType::Ns)).unwrap();
        assert!(r.is_referral());
        assert_eq!(r.authority_ns_targets(), vec![&n("ns1.portal.gov.zz")]);
        assert_eq!(r.additional[0].data.as_a(), Some(Ipv4Addr::new(198, 51, 100, 1)));
    }

    #[test]
    fn nxdomain_carries_soa() {
        let r = responsive().handle(&Message::query(1, n("absent.gov.zz"), RecordType::A)).unwrap();
        assert_eq!(r.rcode, Rcode::NxDomain);
        assert!(r.aa);
        assert_eq!(r.authority.len(), 1);
        assert_eq!(r.authority[0].rtype(), RecordType::Soa);
    }

    #[test]
    fn off_zone_query_is_refused() {
        let r = responsive().handle(&Message::query(1, n("other.example"), RecordType::A)).unwrap();
        assert_eq!(r.rcode, Rcode::Refused);
    }

    #[test]
    fn unresponsive_times_out() {
        let s = AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 9), ServerBehavior::Unresponsive);
        assert!(s.handle(&Message::query(1, n("gov.zz"), RecordType::Ns)).is_none());
    }

    #[test]
    fn lame_modes() {
        for (mode, want) in [
            (LameMode::Refused, Rcode::Refused),
            (LameMode::ServFail, Rcode::ServFail),
            (LameMode::EmptyNonAuth, Rcode::NoError),
        ] {
            let s =
                AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 9), ServerBehavior::Lame(mode));
            let r = s.handle(&Message::query(1, n("gov.zz"), RecordType::Ns)).unwrap();
            assert_eq!(r.rcode, want);
            assert!(!r.is_authoritative_answer());
        }
        let s = AuthoritativeServer::new(
            Ipv4Addr::new(192, 0, 2, 9),
            ServerBehavior::Lame(LameMode::UpwardReferral),
        );
        let r = s.handle(&Message::query(1, n("gov.zz"), RecordType::Ns)).unwrap();
        assert!(r.is_referral());
        assert_eq!(r.authority[0].name, DomainName::root());
    }

    #[test]
    fn parking_answers_everything_authoritatively() {
        let s = AuthoritativeServer::new(
            Ipv4Addr::new(203, 0, 113, 1),
            ServerBehavior::Parking {
                web_ip: Ipv4Addr::new(203, 0, 113, 80),
                ns_names: vec![n("ns1.parking.example"), n("ns2.parking.example")],
            },
        );
        let a = s.handle(&Message::query(1, n("whatever.gov.zz"), RecordType::A)).unwrap();
        assert!(a.is_authoritative_answer());
        assert_eq!(a.answers[0].data.as_a(), Some(Ipv4Addr::new(203, 0, 113, 80)));
        let ns = s.handle(&Message::query(2, n("whatever.gov.zz"), RecordType::Ns)).unwrap();
        assert_eq!(ns.answer_ns_targets().len(), 2);
    }

    #[test]
    fn relative_bug_truncates_ns_targets() {
        let s =
            AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), ServerBehavior::RelativeNameBug)
                .with_zone(gov_zone());
        let r = s.handle(&Message::query(1, n("gov.zz"), RecordType::Ns)).unwrap();
        assert_eq!(r.answer_ns_targets(), vec![&n("ns1")]);
    }

    #[test]
    fn longest_origin_zone_wins() {
        let mut parent = Zone::new(n("zz"));
        parent.add_ns(n("zz"), n("ns1.zz"));
        parent.add_ns(n("gov.zz"), n("stale.example"));
        let s = AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), ServerBehavior::Responsive)
            .with_zone(parent)
            .with_zone(gov_zone());
        // Authoritative data from the child zone, not a referral from the
        // parent zone, because the server also serves the child.
        let r = s.handle(&Message::query(1, n("gov.zz"), RecordType::Ns)).unwrap();
        assert!(r.is_authoritative_answer());
        assert_eq!(r.answer_ns_targets(), vec![&n("ns1.gov.zz")]);
    }
}
