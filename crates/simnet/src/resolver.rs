use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};

use parking_lot::Mutex;

use govdns_model::{DomainName, Message, Rcode, RecordData, RecordType, ResourceRecord};

use crate::SimNetwork;

const MAX_REFERRALS: usize = 24;
const MAX_GLUELESS_DEPTH: usize = 6;
const MAX_CNAME_CHASE: usize = 4;

/// Negative-caching TTL when an authoritative NODATA/NXDOMAIN reply
/// carries no SOA to derive one from (RFC 2308 uses the SOA minimum).
const DEFAULT_NEGATIVE_TTL_S: u32 = 3600;

/// How long a resolution *failure* (every server timed out or answered
/// uselessly) is negatively cached, seconds. RFC 2308 §7 allows caching
/// server failures for up to five minutes; resolvers in the field use
/// much shorter holds, and this short hold is what puts a floor under
/// time-to-recover once an outage lifts.
const SERVFAIL_NEGATIVE_TTL_S: u32 = 30;

/// Why a resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResolveError {
    /// The name authoritatively does not exist.
    NxDomain(DomainName),
    /// Every candidate server timed out or answered uselessly.
    Unreachable(DomainName),
    /// Referral chain exceeded the loop budget.
    TooManyReferrals(DomainName),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NxDomain(n) => write!(f, "name {n} does not exist"),
            ResolveError::Unreachable(n) => write!(f, "no nameserver reachable for {n}"),
            ResolveError::TooManyReferrals(n) => {
                write!(f, "referral loop while resolving {n}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// A successful resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveResult {
    /// Answer records (possibly empty for NODATA).
    pub records: Vec<ResourceRecord>,
    /// Total time the resolution took, milliseconds of simulated waiting.
    pub elapsed_ms: u32,
    /// Number of queries the resolution spent.
    pub queries: u32,
}

impl ResolveResult {
    /// The IPv4 addresses among the answers.
    pub fn addresses(&self) -> Vec<Ipv4Addr> {
        self.records.iter().filter_map(|r| r.data.as_a()).collect()
    }
}

/// One positive-cache entry: the answer records plus the virtual-clock
/// second past which they may no longer be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Virtual-clock expiry, seconds: the entry is served strictly
    /// before this instant and evicted at or after it (`now + min TTL`
    /// of the records at insert time).
    pub expires_at_s: u64,
    /// The cached answer records (possibly empty for NODATA).
    pub records: Vec<ResourceRecord>,
}

/// The positive-cache keys a resolver inserted or evicted since the
/// previous [`StubResolver::take_cache_changes`], netted per key: a key
/// present now is an insert carrying its current entry, a key gone now
/// is an eviction. Both lists are sorted by key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheChanges {
    /// Keys inserted (or replaced), with their current entries.
    pub inserted: Vec<((DomainName, RecordType), CacheEntry)>,
    /// Keys evicted.
    pub evicted: Vec<(DomainName, RecordType)>,
}

/// The positive cache and the keys it changed since the last take, under
/// one lock.
#[derive(Debug, Default)]
struct PositiveCache {
    entries: HashMap<(DomainName, RecordType), CacheEntry>,
    changed: HashSet<(DomainName, RecordType)>,
}

/// Why a negatively-cached name fails without a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NegativeKind {
    /// An authoritative NXDOMAIN was cached (RFC 2308).
    NxDomain,
    /// A resolution failure (all servers dead or useless) was cached
    /// briefly, the way real resolvers hold SERVFAIL.
    Unreachable,
}

/// An iterative resolver walking the simulated DNS from the root.
///
/// This plays the role of the study's measurement-host resolver: locating
/// the authoritative servers of parent zones and resolving nameserver
/// hostnames to IPv4 addresses. It keeps a positive cache, as the real
/// pipeline relied on its resolver's cache across 147k domains.
///
/// **Virtual clock.** Entries carry an expiry derived from record TTLs
/// (SOA negative-caching minimums for empty answers), measured against a
/// per-resolver virtual clock that starts at zero and only moves when a
/// caller advances it. Measurement campaigns never advance the clock, so
/// nothing expires mid-campaign and campaign outputs are unchanged by
/// the expiry machinery; recovery modeling ticks the clock across an
/// outage window to watch cached answers die and come back.
#[derive(Debug)]
pub struct StubResolver<'net> {
    network: &'net SimNetwork,
    roots: Vec<Ipv4Addr>,
    cache: Mutex<PositiveCache>,
    /// RFC 2308 negative cache, used only when
    /// [`with_negative_cache`](Self::with_negative_cache) opted in:
    /// campaigns re-probe failures (the paper's protocol), the recovery
    /// model caches them.
    neg_cache: Mutex<HashMap<(DomainName, RecordType), (u64, NegativeKind)>>,
    negative_caching: AtomicBool,
    clock_s: AtomicU64,
    next_id: AtomicU16,
}

impl<'net> StubResolver<'net> {
    /// Creates a resolver with the given root-server hints.
    ///
    /// # Panics
    ///
    /// Panics if `roots` is empty.
    pub fn new(network: &'net SimNetwork, roots: Vec<Ipv4Addr>) -> Self {
        assert!(!roots.is_empty(), "a resolver needs at least one root hint");
        StubResolver {
            network,
            roots,
            cache: Mutex::new(PositiveCache::default()),
            neg_cache: Mutex::new(HashMap::new()),
            negative_caching: AtomicBool::new(false),
            clock_s: AtomicU64::new(0),
            next_id: AtomicU16::new(1),
        }
    }

    /// Enables RFC 2308-style negative caching (builder style): cached
    /// NXDOMAINs fail without a query until their SOA-derived TTL
    /// passes, and resolution failures are held for a short SERVFAIL
    /// window. Off by default — the measurement pipeline re-probes
    /// failures by design, so campaigns must not cache them.
    #[must_use]
    pub fn with_negative_cache(self) -> Self {
        self.negative_caching.store(true, Ordering::Relaxed);
        self
    }

    fn fresh_id(&self) -> u16 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The configured root hints.
    pub fn roots(&self) -> &[Ipv4Addr] {
        &self.roots
    }

    /// The virtual clock, seconds.
    pub fn now_s(&self) -> u64 {
        self.clock_s.load(Ordering::Relaxed)
    }

    /// Sets the virtual clock (absolute, seconds).
    pub fn set_clock_s(&self, t: u64) {
        self.clock_s.store(t, Ordering::Relaxed);
    }

    /// Advances the virtual clock by `dt` seconds, returning the new
    /// time.
    pub fn advance_clock_s(&self, dt: u64) -> u64 {
        self.clock_s.fetch_add(dt, Ordering::Relaxed) + dt
    }

    /// Exports the positive cache as a sorted list of entries — the
    /// campaign journal checkpoints this so a resumed run starts with
    /// the same cache warmth (a cache hit costs zero queries, so cache
    /// state is load-bearing for byte-identical resume).
    pub fn export_cache(&self) -> Vec<((DomainName, RecordType), CacheEntry)> {
        let cache = self.cache.lock();
        let mut entries: Vec<_> =
            cache.entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// The cache inserts and evictions since the previous call — what a
    /// journal delta checkpoint records instead of the whole cache.
    /// [`import_cache`](StubResolver::import_cache) is a restored base and
    /// is not reported.
    pub fn take_cache_changes(&self) -> CacheChanges {
        let mut cache = self.cache.lock();
        let PositiveCache { entries, changed } = &mut *cache;
        let mut changes = CacheChanges::default();
        for key in changed.drain() {
            match entries.get(&key) {
                Some(entry) => changes.inserted.push((key, entry.clone())),
                None => changes.evicted.push(key),
            }
        }
        changes.inserted.sort_by(|a, b| a.0.cmp(&b.0));
        changes.evicted.sort();
        changes
    }

    /// Imports cache entries (from [`export_cache`]), replacing any
    /// existing entry under the same key. Entries whose expiry is not
    /// strictly after the resolver's current virtual time are dropped:
    /// a checkpoint restored at time `t` must not revive warmth the
    /// uninterrupted run would already have evicted.
    ///
    /// [`export_cache`]: StubResolver::export_cache
    pub fn import_cache(&self, entries: Vec<((DomainName, RecordType), CacheEntry)>) {
        let now = self.now_s();
        let mut cache = self.cache.lock();
        for (key, entry) in entries {
            if entry.expires_at_s > now {
                cache.entries.insert(key, entry);
            }
        }
    }

    /// Inserts a positive entry expiring `ttl` seconds from now. A zero
    /// TTL is uncacheable and skipped outright, so no run ever exports
    /// an entry another run would have to evict on sight.
    fn cache_insert(&self, key: (DomainName, RecordType), records: Vec<ResourceRecord>, ttl: u32) {
        if ttl == 0 {
            return;
        }
        let expires_at_s = self.now_s().saturating_add(u64::from(ttl));
        let mut cache = self.cache.lock();
        cache.changed.insert(key.clone());
        cache.entries.insert(key, CacheEntry { expires_at_s, records });
    }

    /// Records a negative outcome (when negative caching is on).
    fn neg_insert(&self, key: (DomainName, RecordType), kind: NegativeKind, ttl: u32) {
        if !self.negative_caching.load(Ordering::Relaxed) || ttl == 0 {
            return;
        }
        let expires_at_s = self.now_s().saturating_add(u64::from(ttl));
        self.neg_cache.lock().insert(key, (expires_at_s, kind));
    }

    /// An unexpired negative entry for `key`, if negative caching is on.
    fn neg_lookup(&self, key: &(DomainName, RecordType)) -> Option<NegativeKind> {
        if !self.negative_caching.load(Ordering::Relaxed) {
            return None;
        }
        let now = self.now_s();
        let mut neg = self.neg_cache.lock();
        match neg.get(key) {
            Some(&(expires, kind)) if expires > now => Some(kind),
            Some(_) => {
                neg.remove(key);
                None
            }
            None => None,
        }
    }

    /// Resolves `name`/`rtype` iteratively from the root.
    ///
    /// # Errors
    ///
    /// See [`ResolveError`]. A NODATA outcome is a success with an empty
    /// record list.
    pub fn resolve(
        &self,
        name: &DomainName,
        rtype: RecordType,
    ) -> Result<ResolveResult, ResolveError> {
        self.resolve_inner(name, rtype, 0)
    }

    /// Resolves a hostname to its IPv4 addresses.
    ///
    /// # Errors
    ///
    /// See [`ResolveError`].
    pub fn resolve_a(&self, name: &DomainName) -> Result<Vec<Ipv4Addr>, ResolveError> {
        Ok(self.resolve(name, RecordType::A)?.addresses())
    }

    fn resolve_inner(
        &self,
        name: &DomainName,
        rtype: RecordType,
        depth: usize,
    ) -> Result<ResolveResult, ResolveError> {
        if depth > MAX_GLUELESS_DEPTH {
            return Err(ResolveError::TooManyReferrals(name.clone()));
        }
        let key = (name.clone(), rtype);
        {
            let now = self.now_s();
            let mut cache = self.cache.lock();
            match cache.entries.get(&key) {
                Some(e) if e.expires_at_s > now => {
                    return Ok(ResolveResult {
                        records: e.records.clone(),
                        elapsed_ms: 0,
                        queries: 0,
                    });
                }
                Some(_) => {
                    cache.entries.remove(&key);
                    cache.changed.insert(key.clone());
                }
                None => {}
            }
        }
        match self.neg_lookup(&key) {
            Some(NegativeKind::NxDomain) => return Err(ResolveError::NxDomain(name.clone())),
            Some(NegativeKind::Unreachable) => {
                return Err(ResolveError::Unreachable(name.clone()));
            }
            None => {}
        }

        let mut servers: Vec<Ipv4Addr> = self.roots.clone();
        let mut elapsed_ms = 0u32;
        let mut queries = 0u32;
        let mut chased = 0usize;
        let mut qname = name.clone();
        // Depth of the zone cut the current server set is authoritative
        // for. A referral only counts as progress if it names a strictly
        // deeper cut — a lame server's self-referral must not loop.
        let mut cut_level = 0usize;

        for _ in 0..MAX_REFERRALS {
            let mut progressed = false;
            let mut candidates = std::mem::take(&mut servers);
            candidates.dedup();
            for dst in &candidates {
                let q = Message::query(self.fresh_id(), qname.clone(), rtype);
                let out = self.network.deliver(*dst, &q);
                elapsed_ms = elapsed_ms.saturating_add(out.elapsed_ms());
                queries += 1;
                let Some(reply) = out.reply() else { continue };
                if reply.aa && reply.rcode == Rcode::NxDomain {
                    self.neg_insert(
                        (qname.clone(), rtype),
                        NegativeKind::NxDomain,
                        negative_ttl(reply),
                    );
                    return Err(ResolveError::NxDomain(qname));
                }
                if reply.is_authoritative_answer() {
                    // Chase at most a few CNAME hops.
                    if rtype != RecordType::Cname {
                        if let Some(RecordData::Cname(target)) =
                            reply.answers.first().map(|r| &r.data)
                        {
                            if chased < MAX_CNAME_CHASE {
                                chased += 1;
                                qname = target.clone();
                                servers = self.roots.clone();
                                cut_level = 0;
                                progressed = true;
                                break;
                            }
                        }
                    }
                    let records = reply.answers.clone();
                    // Positive answers live for their smallest record
                    // TTL; an authoritative NODATA lives for the SOA
                    // negative-caching minimum (RFC 2308).
                    let ttl =
                        records.iter().map(|r| r.ttl).min().unwrap_or_else(|| negative_ttl(reply));
                    self.cache_insert((qname.clone(), rtype), records.clone(), ttl);
                    return Ok(ResolveResult { records, elapsed_ms, queries });
                }
                if reply.is_referral() {
                    let Some(cut) = deepest_cut(reply, &qname) else { continue };
                    if cut.level() <= cut_level {
                        // Sideways/upward referral: this server is not
                        // helping; ask the next one.
                        continue;
                    }
                    let next = self.referral_targets(reply, depth, &mut elapsed_ms, &mut queries);
                    if !next.is_empty() {
                        servers = next;
                        cut_level = cut.level();
                        progressed = true;
                        break;
                    }
                }
                // REFUSED/SERVFAIL/non-AA junk: try the next candidate.
            }
            if !progressed {
                self.neg_insert(
                    (qname.clone(), rtype),
                    NegativeKind::Unreachable,
                    SERVFAIL_NEGATIVE_TTL_S,
                );
                return Err(ResolveError::Unreachable(qname));
            }
        }
        Err(ResolveError::TooManyReferrals(qname))
    }

    /// Extracts the next-hop addresses from a referral: glue where present,
    /// glueless resolution otherwise.
    fn referral_targets(
        &self,
        reply: &Message,
        depth: usize,
        elapsed_ms: &mut u32,
        queries: &mut u32,
    ) -> Vec<Ipv4Addr> {
        let mut next = Vec::new();
        for target in reply.authority_ns_targets() {
            let glue: Vec<Ipv4Addr> = reply
                .additional
                .iter()
                .filter(|rr| rr.name == *target)
                .filter_map(|rr| rr.data.as_a())
                .collect();
            if glue.is_empty() {
                if let Ok(r) = self.resolve_inner(target, RecordType::A, depth + 1) {
                    *elapsed_ms = elapsed_ms.saturating_add(r.elapsed_ms);
                    *queries += r.queries;
                    next.extend(r.addresses());
                }
            } else {
                next.extend(glue);
            }
        }
        next
    }
}

/// The RFC 2308 negative TTL of an authoritative reply: the minimum of
/// the authority SOA's record TTL and its `minimum` field, falling back
/// to a conventional hour when the reply carries no SOA.
fn negative_ttl(reply: &Message) -> u32 {
    reply
        .authority
        .iter()
        .find_map(|rr| rr.data.as_soa().map(|soa| rr.ttl.min(soa.minimum)))
        .unwrap_or(DEFAULT_NEGATIVE_TTL_S)
}

/// The deepest authority-section NS owner enclosing `qname` — the zone
/// cut a referral points at.
fn deepest_cut(reply: &Message, qname: &DomainName) -> Option<DomainName> {
    reply
        .authority
        .iter()
        .filter(|rr| rr.rtype() == RecordType::Ns && qname.is_within(&rr.name))
        .map(|rr| rr.name.clone())
        .max_by_key(DomainName::level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuthoritativeServer, LatencyModel, ServerBehavior};
    use govdns_model::Zone;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    /// Builds a three-level hierarchy: root → zz → gov.zz, with a web host
    /// inside gov.zz and a glueless out-of-bailiwick nameserver case.
    fn test_network() -> SimNetwork {
        let mut net = SimNetwork::new(5);

        let mut root = Zone::new(DomainName::root());
        root.add_ns(DomainName::root(), n("a.root.example"));
        root.add_glue(n("a.root.example"), Ipv4Addr::new(10, 0, 0, 1));
        root.add_ns(n("zz"), n("ns1.nic.zz"));
        root.add_glue(n("ns1.nic.zz"), Ipv4Addr::new(10, 1, 0, 1));
        root.add_ns(n("example"), n("ns1.example"));
        root.add_glue(n("ns1.example"), Ipv4Addr::new(10, 3, 0, 1));
        net.add_server(
            AuthoritativeServer::new(Ipv4Addr::new(10, 0, 0, 1), ServerBehavior::Responsive)
                .with_zone(root),
        );

        let mut tld = Zone::new(n("zz"));
        tld.add_ns(n("zz"), n("ns1.nic.zz"));
        tld.add_a(n("ns1.nic.zz"), Ipv4Addr::new(10, 1, 0, 1));
        // Delegation with glue.
        tld.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        tld.add_glue(n("ns1.gov.zz"), Ipv4Addr::new(10, 2, 0, 1));
        // Glueless delegation to an out-of-bailiwick server name.
        tld.add_ns(n("glueless.zz"), n("ns1.example"));
        net.add_server(
            AuthoritativeServer::new(Ipv4Addr::new(10, 1, 0, 1), ServerBehavior::Responsive)
                .with_zone(tld),
        );

        let mut gov = Zone::new(n("gov.zz"));
        gov.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        gov.add_a(n("ns1.gov.zz"), Ipv4Addr::new(10, 2, 0, 1));
        gov.add_a(n("www.gov.zz"), Ipv4Addr::new(10, 2, 0, 80));
        net.add_server(
            AuthoritativeServer::new(Ipv4Addr::new(10, 2, 0, 1), ServerBehavior::Responsive)
                .with_zone(gov),
        );

        let mut example = Zone::new(n("example"));
        example.add_ns(n("example"), n("ns1.example"));
        example.add_a(n("ns1.example"), Ipv4Addr::new(10, 3, 0, 1));
        let mut glueless = Zone::new(n("glueless.zz"));
        glueless.add_ns(n("glueless.zz"), n("ns1.example"));
        glueless.add_a(n("www.glueless.zz"), Ipv4Addr::new(10, 3, 0, 80));
        net.add_server(
            AuthoritativeServer::new(Ipv4Addr::new(10, 3, 0, 1), ServerBehavior::Responsive)
                .with_zone(example)
                .with_zone(glueless),
        );

        net
    }

    fn resolver(net: &SimNetwork) -> StubResolver<'_> {
        StubResolver::new(net, vec![Ipv4Addr::new(10, 0, 0, 1)])
    }

    #[test]
    fn resolves_through_two_referrals() {
        let net = test_network();
        let r = resolver(&net);
        let addrs = r.resolve_a(&n("www.gov.zz")).unwrap();
        assert_eq!(addrs, vec![Ipv4Addr::new(10, 2, 0, 80)]);
    }

    #[test]
    fn glueless_delegation_needs_a_side_resolution() {
        let net = test_network();
        let r = resolver(&net);
        let addrs = r.resolve_a(&n("www.glueless.zz")).unwrap();
        assert_eq!(addrs, vec![Ipv4Addr::new(10, 3, 0, 80)]);
    }

    #[test]
    fn nxdomain_is_reported() {
        let net = test_network();
        let r = resolver(&net);
        assert!(matches!(r.resolve_a(&n("missing.gov.zz")), Err(ResolveError::NxDomain(_))));
    }

    #[test]
    fn cache_short_circuits_repeat_queries() {
        let net = test_network();
        let r = resolver(&net);
        let first = r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        assert!(first.queries > 0);
        let second = r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        assert_eq!(second.queries, 0);
        assert_eq!(second.records, first.records);
    }

    #[test]
    fn exported_cache_restores_warmth_in_a_fresh_resolver() {
        let net = test_network();
        let r = resolver(&net);
        r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        let exported = r.export_cache();
        assert!(!exported.is_empty());
        assert_eq!(exported, r.export_cache(), "export order is stable");

        let fresh = resolver(&net);
        fresh.import_cache(exported);
        let hit = fresh.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        assert_eq!(hit.queries, 0, "imported cache serves without queries");
        assert_eq!(hit.addresses(), vec![Ipv4Addr::new(10, 2, 0, 80)]);
    }

    #[test]
    fn cache_entries_expire_on_the_virtual_clock() {
        let net = test_network();
        let r = resolver(&net);
        let warm = r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        assert!(warm.queries > 0);
        // Zone records carry the 3600 s default TTL; just inside the
        // window the cache still serves, at the boundary it must not.
        r.set_clock_s(3599);
        assert_eq!(r.resolve(&n("www.gov.zz"), RecordType::A).unwrap().queries, 0);
        r.set_clock_s(3600);
        let refreshed = r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        assert!(refreshed.queries > 0, "expired entry must be re-resolved");
        assert_eq!(refreshed.addresses(), vec![Ipv4Addr::new(10, 2, 0, 80)]);
    }

    #[test]
    fn exported_entries_carry_ttl_derived_expiry() {
        let net = test_network();
        let r = resolver(&net);
        r.set_clock_s(100);
        r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        let exported = r.export_cache();
        let (_, entry) = exported
            .iter()
            .find(|((name, rt), _)| *name == n("www.gov.zz") && *rt == RecordType::A)
            .expect("answer cached");
        assert_eq!(entry.expires_at_s, 100 + 3600, "expiry = insert time + min record TTL");
    }

    #[test]
    fn import_drops_entries_already_expired_at_the_restored_clock() {
        let net = test_network();
        let r = resolver(&net);
        r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        let exported = r.export_cache();
        assert!(!exported.is_empty());

        let fresh = resolver(&net);
        fresh.set_clock_s(4000); // past every 3600 s expiry
        fresh.import_cache(exported.clone());
        assert!(fresh.export_cache().is_empty(), "stale warmth must not be revived");
        let miss = fresh.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        assert!(miss.queries > 0);

        let in_window = resolver(&net);
        in_window.set_clock_s(1000);
        in_window.import_cache(exported);
        assert_eq!(in_window.resolve(&n("www.gov.zz"), RecordType::A).unwrap().queries, 0);
    }

    #[test]
    fn cache_change_log_reports_inserts_and_expiry_evictions_but_not_imports() {
        let net = test_network();
        let r = resolver(&net);
        r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        let changes = r.take_cache_changes();
        assert_eq!(changes.inserted, r.export_cache(), "every insert so far, sorted");
        assert!(changes.evicted.is_empty());
        assert_eq!(r.take_cache_changes(), CacheChanges::default(), "a second take is empty");

        // Expire the answer and make its re-resolution fail: the lookup
        // evicts the stale entry and inserts nothing in its place.
        r.set_clock_s(3600);
        net.install_faults(Some(
            crate::FaultPlan::new(1)
                .with_rule(crate::FaultScope::All, crate::FaultProfile::PacketLoss { rate: 1.0 }),
        ));
        assert!(r.resolve(&n("www.gov.zz"), RecordType::A).is_err());
        let changes = r.take_cache_changes();
        assert!(changes.inserted.is_empty());
        assert_eq!(changes.evicted, vec![(n("www.gov.zz"), RecordType::A)]);
        net.install_faults(None);

        // An imported cache is a restored base, not a change.
        let warm = resolver(&net);
        warm.resolve(&n("www.glueless.zz"), RecordType::A).unwrap();
        let fresh = resolver(&net);
        fresh.import_cache(warm.export_cache());
        assert!(!fresh.export_cache().is_empty());
        assert_eq!(fresh.take_cache_changes(), CacheChanges::default());
    }

    #[test]
    fn advance_clock_accumulates() {
        let net = test_network();
        let r = resolver(&net);
        assert_eq!(r.now_s(), 0);
        assert_eq!(r.advance_clock_s(90), 90);
        assert_eq!(r.advance_clock_s(10), 100);
        assert_eq!(r.now_s(), 100);
    }

    #[test]
    fn negative_caching_is_opt_in() {
        let net = test_network();
        // Default: NXDOMAIN is re-queried every time (campaign behavior).
        let r = resolver(&net);
        let q1 = r.resolve(&n("missing.gov.zz"), RecordType::A);
        assert!(matches!(q1, Err(ResolveError::NxDomain(_))));
        let before = net.stats().queries_sent;
        let _ = r.resolve(&n("missing.gov.zz"), RecordType::A);
        assert!(net.stats().queries_sent > before, "no negative cache by default");

        // Opted in: the second lookup is served from the negative cache.
        let nc = StubResolver::new(&net, vec![Ipv4Addr::new(10, 0, 0, 1)]).with_negative_cache();
        let _ = nc.resolve(&n("missing.gov.zz"), RecordType::A);
        let before = net.stats().queries_sent;
        assert!(matches!(
            nc.resolve(&n("missing.gov.zz"), RecordType::A),
            Err(ResolveError::NxDomain(_))
        ));
        assert_eq!(net.stats().queries_sent, before, "cached NXDOMAIN costs no query");

        // The negative entry expires with the SOA minimum (3600 s).
        nc.set_clock_s(3600);
        let _ = nc.resolve(&n("missing.gov.zz"), RecordType::A);
        assert!(net.stats().queries_sent > before, "expired negative entry re-queries");
    }

    #[test]
    fn resolution_failures_are_held_briefly_when_negative_caching() {
        let net = SimNetwork::new(1);
        let r = StubResolver::new(&net, vec![Ipv4Addr::new(10, 9, 9, 9)]).with_negative_cache();
        assert!(matches!(r.resolve_a(&n("www.gov.zz")), Err(ResolveError::Unreachable(_))));
        let before = net.stats().queries_sent;
        assert!(matches!(r.resolve_a(&n("www.gov.zz")), Err(ResolveError::Unreachable(_))));
        assert_eq!(net.stats().queries_sent, before, "failure held in the SERVFAIL window");
        r.set_clock_s(30);
        let _ = r.resolve_a(&n("www.gov.zz"));
        assert!(net.stats().queries_sent > before, "past the hold the failure re-queries");
    }

    #[test]
    fn unreachable_when_all_roots_dead() {
        let net = SimNetwork::new(1);
        let r = StubResolver::new(&net, vec![Ipv4Addr::new(10, 9, 9, 9)]);
        assert!(matches!(r.resolve_a(&n("www.gov.zz")), Err(ResolveError::Unreachable(_))));
    }

    #[test]
    fn elapsed_time_accumulates() {
        let net = test_network();
        let r = resolver(&net);
        let res = r.resolve(&n("www.gov.zz"), RecordType::A).unwrap();
        assert!(res.elapsed_ms >= LatencyModel::default().base_ms * res.queries);
    }
}
