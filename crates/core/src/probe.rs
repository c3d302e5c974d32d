//! Active measurement of one domain (§III-B, Figure 1).
//!
//! For a domain `d`: ① locate the authoritative nameservers of `d`'s
//! parent zone by walking down from the root, querying for `d`'s NS
//! records; ② a referral naming `d` itself (or an in-bailiwick
//! authoritative answer) gives the parent-side NS set `P`; ③ resolve
//! every nameserver in `P` and query each address for `d`'s NS records;
//! ④ authoritative answers give the child-side set `C`; nameservers that
//! appear only in `C` are then resolved and queried as well.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::Mutex;

use govdns_model::{DomainName, FxHashMap, Message, Rcode, RecordType, Soa};
use govdns_simnet::{CacheChanges, CacheEntry, SimNetwork, StubResolver};
use govdns_telemetry::{Counter, Histogram, Registry};
use govdns_trace::{Step, TraceData, WorkerTracer};

use crate::ratelimit::{QueryRound, RateLimiter};

const MAX_WALK_DEPTH: usize = 12;
const MAX_CHILD_HOSTS: usize = 32;

/// How the probe client retries transient-looking failures (timeouts,
/// rejections, truncated answers) before accepting an observation.
///
/// Backoff is exponential with deterministic jitter — the jitter is a
/// stable hash of `(destination, qname, attempt)`, not an RNG draw, so
/// identically-seeded campaigns back off identically. Retries are
/// charged to the [`RateLimiter`]'s per-destination retry budget; when
/// the budget is exhausted the client takes the degraded observation as
/// final rather than hammering a struggling server (§III-D ethics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total delivery attempts per exchange (1 = never retry).
    pub max_attempts: u32,
    /// First-retry backoff, milliseconds (doubles per retry).
    pub base_backoff_ms: u32,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u32,
    /// Retries a single destination may consume across the whole
    /// campaign; `None` is unlimited.
    pub per_destination_budget: Option<u64>,
}

impl RetryPolicy {
    /// No retries: every observation is first-shot, the pre-chaos
    /// behaviour. This is the default.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            per_destination_budget: Some(0),
        }
    }

    /// The adaptive policy chaos campaigns run with: up to 3 attempts,
    /// 200 ms → 2 s exponential backoff, 64 retries per destination.
    pub fn adaptive() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 200,
            max_backoff_ms: 2_000,
            per_destination_budget: Some(64),
        }
    }

    /// Whether the policy ever retries.
    pub fn is_enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff before retry number `retry` (1-based) of an exchange
    /// with `dst` for `qname`, milliseconds, jitter included.
    pub fn backoff_ms(&self, dst: Ipv4Addr, qname: &DomainName, retry: u32) -> u32 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = retry.saturating_sub(1).min(16);
        let base = self.base_backoff_ms.saturating_mul(1 << exp).min(self.max_backoff_ms);
        // Deterministic jitter in [0, base/4]: spread retries without an
        // RNG so identically-seeded runs stay identical. `fold_fnv64`
        // hashes the name's presentation bytes in place — same digest as
        // folding `to_string()`, without allocating it.
        let h = qname.fold_fnv64(0xcbf2_9ce4_8422_2325u64 ^ u64::from(u32::from(dst)));
        let h = (h ^ u64::from(retry)).wrapping_mul(0x100_0000_01b3);
        let jitter = (h % u64::from(base / 4 + 1)) as u32;
        base + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// When a destination's circuit breaker opens and closes.
///
/// Distinct from [`RetryPolicy`]: retries *re-send* an exchange that
/// just failed, breakers *stop sending* to a destination whose recent
/// exchanges all failed. The cooldown is measured in ledger rounds
/// ([`QueryRound::rank`]), not wall-clock time, so breaker behaviour is
/// deterministic and byte-identical across identically-seeded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failed exchanges (after retries) that trip the
    /// breaker. `0` disables breakers entirely — the default.
    pub failure_threshold: u32,
    /// Ledger rounds an open breaker waits before admitting a half-open
    /// trial: a breaker opened in round rank `r` admits its trial once
    /// the current round rank reaches `r + cooldown_rounds`.
    pub cooldown_rounds: u32,
}

impl BreakerPolicy {
    /// Breakers disabled: every destination is always sent to. This is
    /// the default, preserving pre-breaker behaviour.
    pub fn none() -> Self {
        BreakerPolicy { failure_threshold: 0, cooldown_rounds: 0 }
    }

    /// The quarantine policy chaos campaigns run with: trip after 3
    /// consecutive failures, admit a half-open trial one round later.
    pub fn guarded() -> Self {
        BreakerPolicy { failure_threshold: 3, cooldown_rounds: 1 }
    }

    /// Whether breakers are active at all.
    pub fn is_enabled(&self) -> bool {
        self.failure_threshold > 0
    }
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy::none()
    }
}

/// Where a destination's breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Healthy: exchanges flow normally.
    Closed,
    /// Quarantined: exchanges are skipped without sending.
    Open,
    /// Cooldown expired: one trial exchange decides reopen vs. reclose.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable label (journal / report key).
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }

    /// Parses [`as_str`](BreakerPhase::as_str) output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "closed" => Some(BreakerPhase::Closed),
            "open" => Some(BreakerPhase::Open),
            "half_open" => Some(BreakerPhase::HalfOpen),
            _ => None,
        }
    }
}

/// One destination's breaker state, as exported for journaling and the
/// measurement-health report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// The destination address.
    pub addr: Ipv4Addr,
    /// Current phase.
    pub phase: BreakerPhase,
    /// Consecutive failures while closed (resets on success).
    pub consecutive_failures: u32,
    /// Round rank at which the breaker last opened.
    pub opened_rank: u32,
    /// Times the breaker tripped (closed/half-open → open).
    pub trips: u64,
    /// Exchanges skipped while open.
    pub denied: u64,
}

/// How an admission check resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerAdmission {
    /// Closed breaker (or breakers disabled): send normally.
    Allowed,
    /// Open breaker past its cooldown: send one half-open trial.
    Trial,
    /// Open breaker inside its cooldown: do not send.
    Denied,
}

/// A state change produced by recording an exchange result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed → open: the failure threshold was just crossed.
    Tripped,
    /// Half-open → closed: the trial succeeded.
    Reclosed,
    /// Half-open → open: the trial failed.
    Reopened,
}

#[derive(Debug, Clone, Copy)]
struct BreakerSlot {
    phase: BreakerPhase,
    consecutive_failures: u32,
    opened_rank: u32,
    trips: u64,
    denied: u64,
    /// Whether the slot is listed in [`BreakerSlots::changed`].
    marked: bool,
}

impl BreakerSlot {
    fn new() -> Self {
        BreakerSlot {
            phase: BreakerPhase::Closed,
            consecutive_failures: 0,
            opened_rank: 0,
            trips: 0,
            denied: 0,
            marked: false,
        }
    }

    fn snapshot(&self, addr: Ipv4Addr) -> BreakerSnapshot {
        BreakerSnapshot {
            addr,
            phase: self.phase,
            consecutive_failures: self.consecutive_failures,
            opened_rank: self.opened_rank,
            trips: self.trips,
            denied: self.denied,
        }
    }
}

/// Every destination's breaker, plus the slots changed since the last
/// [`BreakerBank::take_changes`] (each listed once).
#[derive(Debug, Default)]
struct BreakerSlots {
    map: HashMap<Ipv4Addr, BreakerSlot>,
    changed: Vec<Ipv4Addr>,
}

impl BreakerSlots {
    /// `dst`'s slot (created closed if absent), marked changed.
    fn touch(&mut self, dst: Ipv4Addr) -> &mut BreakerSlot {
        let slot = self.map.entry(dst).or_insert_with(BreakerSlot::new);
        if !slot.marked {
            slot.marked = true;
            self.changed.push(dst);
        }
        slot
    }
}

/// The campaign-wide bank of per-destination circuit breakers, shared
/// by every probe worker (clones share state).
///
/// Only the NS exchanges of a [`ProbeClient`] walk consult the bank; SOA
/// fetches and stub-resolver side lookups bypass it, mirroring how the
/// retry machinery scopes itself to the NS probing protocol.
#[derive(Debug, Clone)]
pub struct BreakerBank {
    policy: BreakerPolicy,
    slots: Arc<Mutex<BreakerSlots>>,
}

impl BreakerBank {
    /// A bank enforcing `policy` (no-op when the policy is disabled).
    pub fn new(policy: BreakerPolicy) -> Self {
        BreakerBank { policy, slots: Arc::new(Mutex::new(BreakerSlots::default())) }
    }

    /// The enforced policy.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Decides whether an exchange with `dst` may be sent during a
    /// round of rank `rank`, advancing open breakers whose cooldown has
    /// expired into half-open.
    pub fn admit(&self, dst: Ipv4Addr, rank: u32) -> BreakerAdmission {
        if !self.policy.is_enabled() {
            return BreakerAdmission::Allowed;
        }
        let mut slots = self.slots.lock();
        let Some(slot) = slots.map.get(&dst) else { return BreakerAdmission::Allowed };
        match slot.phase {
            BreakerPhase::Closed => BreakerAdmission::Allowed,
            BreakerPhase::HalfOpen => BreakerAdmission::Trial,
            BreakerPhase::Open => {
                let slot = slots.touch(dst);
                if rank >= slot.opened_rank.saturating_add(self.policy.cooldown_rounds) {
                    slot.phase = BreakerPhase::HalfOpen;
                    BreakerAdmission::Trial
                } else {
                    slot.denied += 1;
                    BreakerAdmission::Denied
                }
            }
        }
    }

    /// Records the final outcome of an admitted exchange with `dst`
    /// (`failure` = the class is transient-looking even after retries),
    /// returning any phase transition it caused.
    pub fn on_result(&self, dst: Ipv4Addr, rank: u32, failure: bool) -> Option<BreakerTransition> {
        if !self.policy.is_enabled() {
            return None;
        }
        let mut slots = self.slots.lock();
        let slot = slots.touch(dst);
        match slot.phase {
            BreakerPhase::Closed => {
                if failure {
                    slot.consecutive_failures += 1;
                    if slot.consecutive_failures >= self.policy.failure_threshold {
                        slot.phase = BreakerPhase::Open;
                        slot.opened_rank = rank;
                        slot.trips += 1;
                        return Some(BreakerTransition::Tripped);
                    }
                } else {
                    slot.consecutive_failures = 0;
                }
                None
            }
            BreakerPhase::HalfOpen => {
                if failure {
                    slot.phase = BreakerPhase::Open;
                    slot.opened_rank = rank;
                    slot.trips += 1;
                    Some(BreakerTransition::Reopened)
                } else {
                    // A half-open success fully closes the breaker: the
                    // failure streak starts over from zero.
                    slot.phase = BreakerPhase::Closed;
                    slot.consecutive_failures = 0;
                    Some(BreakerTransition::Reclosed)
                }
            }
            // A straggler result landing while open (another worker's
            // in-flight exchange): the breaker already decided.
            BreakerPhase::Open => None,
        }
    }

    /// Every destination's breaker state, sorted by address (a stable
    /// order for journaling).
    pub fn snapshot(&self) -> Vec<BreakerSnapshot> {
        let slots = self.slots.lock();
        let mut all: Vec<BreakerSnapshot> =
            slots.map.iter().map(|(&addr, s)| s.snapshot(addr)).collect();
        all.sort_by_key(|s| s.addr);
        all
    }

    /// The slots that changed since the previous call (or the last
    /// [`restore`](BreakerBank::restore)), sorted by address — what a
    /// journal delta checkpoint records.
    pub fn take_changes(&self) -> Vec<BreakerSnapshot> {
        let mut slots = self.slots.lock();
        let BreakerSlots { map, changed } = &mut *slots;
        let mut out: Vec<BreakerSnapshot> = changed
            .drain(..)
            .filter_map(|addr| {
                let slot = map.get_mut(&addr)?;
                slot.marked = false;
                Some(slot.snapshot(addr))
            })
            .collect();
        out.sort_by_key(|s| s.addr);
        out
    }

    /// Overwrites the bank with checkpointed state (the resume path),
    /// leaving no pending changes.
    pub fn restore(&self, snapshots: &[BreakerSnapshot]) {
        let mut slots = self.slots.lock();
        *slots = BreakerSlots::default();
        for s in snapshots {
            slots.map.insert(
                s.addr,
                BreakerSlot {
                    phase: s.phase,
                    consecutive_failures: s.consecutive_failures,
                    opened_rank: s.opened_rank,
                    trips: s.trips,
                    denied: s.denied,
                    marked: false,
                },
            );
        }
    }

    /// Destinations that tripped at least once, as `(addr, denied)`
    /// pairs ranked by how much traffic the quarantine suppressed —
    /// what the runner publishes as the "quarantined destinations"
    /// toplist and the health section surfaces.
    pub fn quarantined(&self) -> Vec<(Ipv4Addr, u64)> {
        let slots = self.slots.lock();
        let mut hit: Vec<(Ipv4Addr, u64)> = slots
            .map
            .iter()
            .filter(|(_, s)| s.trips > 0)
            .map(|(&addr, s)| (addr, s.denied))
            .collect();
        hit.sort_by_key(|&(addr, denied)| (std::cmp::Reverse(denied), addr));
        hit
    }
}

/// What one address said when asked for the domain's NS records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseClass {
    /// An authoritative answer carrying these NS targets.
    Authoritative(Vec<DomainName>),
    /// A non-authoritative referral.
    Referral {
        /// The delegation point named in the authority section.
        cut: DomainName,
        /// NS targets of the cut.
        targets: Vec<DomainName>,
        /// Glue addresses from the additional section.
        glue: Vec<(DomainName, Ipv4Addr)>,
    },
    /// A response with no usable NS data (NXDOMAIN / NODATA), with the
    /// rcode.
    Empty(u8),
    /// REFUSED / SERVFAIL / other rejection, with the rcode.
    Rejected(u8),
    /// A truncated response (TC set): the record sections are gone and
    /// the server is asking the client to retry.
    Truncated,
    /// No response at all.
    Timeout,
    /// The exchange was never sent: the destination's circuit breaker
    /// was open. No query was issued and nothing was charged to the
    /// rate limiter — breakers stop *sending*.
    Skipped,
}

impl ResponseClass {
    fn of(reply: Option<&Message>, qname: &DomainName) -> ResponseClass {
        let Some(msg) = reply else { return ResponseClass::Timeout };
        if msg.tc {
            return ResponseClass::Truncated;
        }
        match msg.rcode {
            Rcode::Refused | Rcode::ServFail | Rcode::FormErr | Rcode::NotImp => {
                ResponseClass::Rejected(msg.rcode.code())
            }
            Rcode::NxDomain => ResponseClass::Empty(msg.rcode.code()),
            Rcode::NoError => {
                let answers: Vec<DomainName> = msg
                    .answers
                    .iter()
                    .filter(|r| r.name == *qname)
                    .filter_map(|r| r.data.as_ns().cloned())
                    .collect();
                if msg.aa && !answers.is_empty() {
                    return ResponseClass::Authoritative(answers);
                }
                // A referral: the deepest authority-section NS owner that
                // encloses (or is) the query name. An "upward referral"
                // to the root carries cut = root.
                let mut cut: Option<DomainName> = None;
                for rr in &msg.authority {
                    if rr.rtype() == RecordType::Ns && qname.is_within(&rr.name) {
                        let deeper =
                            cut.as_ref().map(|c| rr.name.level() > c.level()).unwrap_or(true);
                        if deeper {
                            cut = Some(rr.name.clone());
                        }
                    }
                }
                if let Some(cut) = cut {
                    if !msg.aa {
                        let targets: Vec<DomainName> = msg
                            .authority
                            .iter()
                            .filter(|r| r.name == cut)
                            .filter_map(|r| r.data.as_ns().cloned())
                            .collect();
                        let glue: Vec<(DomainName, Ipv4Addr)> = msg
                            .additional
                            .iter()
                            .filter_map(|r| r.data.as_a().map(|a| (r.name.clone(), a)))
                            .collect();
                        return ResponseClass::Referral { cut, targets, glue };
                    }
                }
                ResponseClass::Empty(msg.rcode.code())
            }
        }
    }

    /// NS targets carried, if any.
    pub fn ns_targets(&self) -> &[DomainName] {
        match self {
            ResponseClass::Authoritative(t) => t,
            ResponseClass::Referral { targets, .. } => targets,
            _ => &[],
        }
    }

    /// Whether this is an authoritative answer.
    pub fn is_authoritative(&self) -> bool {
        matches!(self, ResponseClass::Authoritative(_))
    }

    /// Whether any packet came back. A skipped exchange was never sent,
    /// so nothing responded.
    pub fn responded(&self) -> bool {
        !matches!(self, ResponseClass::Timeout | ResponseClass::Skipped)
    }

    /// Whether the failure looks transient — worth a backoff retry.
    /// Timeouts, rejections, and truncation all recover in practice
    /// (flapping hosts, rate limiters, size-limited paths); NXDOMAIN
    /// and NODATA are the zone's actual state and are never retried.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ResponseClass::Timeout | ResponseClass::Rejected(_) | ResponseClass::Truncated
        )
    }

    /// Stable lowercase label for trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ResponseClass::Authoritative(_) => "authoritative",
            ResponseClass::Referral { .. } => "referral",
            ResponseClass::Empty(_) => "empty",
            ResponseClass::Rejected(_) => "rejected",
            ResponseClass::Truncated => "truncated",
            ResponseClass::Timeout => "timeout",
            ResponseClass::Skipped => "skipped",
        }
    }
}

/// One query observation against one address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerObservation {
    /// The address queried.
    pub addr: Ipv4Addr,
    /// What it said.
    pub class: ResponseClass,
    /// Delivery attempts spent obtaining this (final) class; > 1 means
    /// the answer needed backoff retries — a *degraded* exchange.
    pub attempts: u32,
}

/// Everything learned about one nameserver of the probed domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerProbe {
    /// The NS target hostname (as listed in `P` and/or `C`).
    pub host: DomainName,
    /// Whether the hostname appeared in the parent-side set.
    pub in_parent: bool,
    /// Whether the hostname appeared in the child-side set.
    pub in_child: bool,
    /// IPv4 addresses it resolved to (empty: unresolvable).
    pub addrs: Vec<Ipv4Addr>,
    /// Per-address NS-query outcomes.
    pub observations: Vec<ServerObservation>,
    /// Whether the server only started serving the zone in the second
    /// probing round — dead in round 1, alive on re-probe: the paper's
    /// transient failure, recovered.
    pub recovered_in_round2: bool,
}

impl ServerProbe {
    /// Whether the nameserver could not be resolved at all.
    pub fn unresolvable(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Whether at least one address returned an authoritative answer —
    /// i.e. the nameserver actually serves the zone.
    pub fn serves_zone(&self) -> bool {
        self.observations.iter().any(|o| o.class.is_authoritative())
    }

    /// Whether the server serves the zone but only *degraded*: the
    /// authoritative answer needed backoff retries, or only the second
    /// round got it. Clean first-shot answers are not degraded.
    pub fn degraded(&self) -> bool {
        self.serves_zone()
            && (self.recovered_in_round2
                || self.observations.iter().any(|o| o.attempts > 1 && o.class.is_authoritative()))
    }

    /// The paper's notion of a *defective* nameserver for this zone:
    /// unresolvable, silent, or answering without authority.
    pub fn is_defective(&self) -> bool {
        !self.serves_zone()
    }

    /// Whether any address produced any response at all.
    pub fn responded(&self) -> bool {
        self.observations.iter().any(|o| o.class.responded())
    }
}

/// The full probe record for one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainProbe {
    /// The probed domain.
    pub domain: DomainName,
    /// The zone the walk last obtained referrals from (the parent zone),
    /// if the walk got anywhere.
    pub parent_zone: Option<DomainName>,
    /// Addresses of the parent zone's nameservers that were queried.
    pub parent_addrs: Vec<Ipv4Addr>,
    /// Per-address responses from the parent zone's nameservers.
    pub parent_observations: Vec<ServerObservation>,
    /// The parent-side NS set `P`.
    pub parent_ns: Vec<DomainName>,
    /// The child-side NS set `C` (union of authoritative answers).
    pub child_ns: Vec<DomainName>,
    /// Per-nameserver results over `P ∪ C`.
    pub servers: Vec<ServerProbe>,
    /// The zone's SOA, fetched from the first serving nameserver — its
    /// MNAME/RNAME feed provider classification (§IV-B).
    pub soa: Option<Soa>,
    /// Total queries this probe spent (including side resolutions).
    pub queries: u32,
    /// Total simulated waiting, milliseconds.
    pub elapsed_ms: u32,
    /// How many probe rounds this record aggregates.
    pub rounds: u8,
}

impl DomainProbe {
    /// ≥ 1 response (of any kind) from a parent-zone nameserver — the
    /// 147k→115k funnel predicate.
    pub fn parent_responsive(&self) -> bool {
        self.parent_observations.iter().any(|o| o.class.responded())
    }

    /// ≥ 1 non-empty parent response — the 115k→96k funnel predicate.
    pub fn parent_nonempty(&self) -> bool {
        !self.parent_ns.is_empty()
    }

    /// Whether any nameserver authoritatively answered for the domain.
    pub fn has_authoritative_answer(&self) -> bool {
        self.servers.iter().any(ServerProbe::serves_zone)
    }

    /// The *Degraded* outcome class: the domain did answer, but only
    /// after retries or a second probing round — measurably flaky, which
    /// a clean/dead binary classification would hide.
    pub fn degraded(&self) -> bool {
        self.has_authoritative_answer() && self.servers.iter().any(ServerProbe::degraded)
    }

    /// Whether any nameserver was revived by the second round.
    pub fn recovered_in_round2(&self) -> bool {
        self.servers.iter().any(|s| s.recovered_in_round2)
    }

    /// `P ∪ C` as a sorted set.
    pub fn ns_union(&self) -> BTreeSet<DomainName> {
        self.parent_ns.iter().chain(&self.child_ns).cloned().collect()
    }

    /// Every distinct IPv4 address the domain's nameservers resolve to.
    pub fn ns_addrs(&self) -> BTreeSet<Ipv4Addr> {
        self.servers.iter().flat_map(|s| s.addrs.iter().copied()).collect()
    }

    /// Defective-delegation classification over `P ∪ C`:
    /// `(any_defective, fully_defective)`.
    pub fn defective(&self) -> (bool, bool) {
        if self.servers.is_empty() {
            return (false, false);
        }
        let defective = self.servers.iter().filter(|s| s.is_defective()).count();
        (defective > 0, defective == self.servers.len())
    }

    /// The probe's outcome class — the cross-run diffing vocabulary.
    ///
    /// The classes are ordered worst-to-best along the §III-B funnel;
    /// `govdns-diff` reports transitions between them (e.g.
    /// `Authoritative → Degraded`) when comparing two campaigns.
    pub fn class(&self) -> DomainClass {
        if !self.parent_responsive() {
            DomainClass::Unreachable
        } else if !self.parent_nonempty() {
            DomainClass::Removed
        } else if !self.has_authoritative_answer() {
            DomainClass::Stale
        } else if self.degraded() {
            DomainClass::Degraded
        } else {
            DomainClass::Authoritative
        }
    }

    /// Total delivery attempts across every observation of this probe
    /// (parent-side and per-nameserver) — the per-domain effort figure
    /// cross-run diffs report shifts in.
    pub fn attempts_total(&self) -> u64 {
        let parent: u64 = self.parent_observations.iter().map(|o| u64::from(o.attempts)).sum();
        let servers: u64 =
            self.servers.iter().flat_map(|s| &s.observations).map(|o| u64::from(o.attempts)).sum();
        parent + servers
    }
}

/// The per-domain outcome classes a cross-run diff reports transitions
/// between, ordered worst-to-best along the §III-B funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DomainClass {
    /// No parent-zone nameserver responded at all.
    Unreachable,
    /// The parent responded but listed no NS records (delegation gone).
    Removed,
    /// The parent lists nameservers, but none authoritatively answered.
    Stale,
    /// Authoritative answers arrived, but only after retries or the
    /// second probing round.
    Degraded,
    /// Clean first-shot authoritative service.
    Authoritative,
}

impl DomainClass {
    /// Stable wire/report label.
    pub fn as_str(self) -> &'static str {
        match self {
            DomainClass::Unreachable => "unreachable",
            DomainClass::Removed => "removed",
            DomainClass::Stale => "stale",
            DomainClass::Degraded => "degraded",
            DomainClass::Authoritative => "authoritative",
        }
    }

    /// Parses a wire label back into a class.
    pub fn parse(s: &str) -> Option<DomainClass> {
        Some(match s {
            "unreachable" => DomainClass::Unreachable,
            "removed" => DomainClass::Removed,
            "stale" => DomainClass::Stale,
            "degraded" => DomainClass::Degraded,
            "authoritative" => DomainClass::Authoritative,
            _ => return None,
        })
    }

    /// Every class, funnel order — for per-class tally tables.
    pub fn all() -> [DomainClass; 5] {
        [
            DomainClass::Unreachable,
            DomainClass::Removed,
            DomainClass::Stale,
            DomainClass::Degraded,
            DomainClass::Authoritative,
        ]
    }
}

impl std::fmt::Display for DomainClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cached telemetry handles for probing: one counter per
/// [`ResponseClass`] variant, plus the registry for per-domain spans.
#[derive(Debug)]
struct ProbeSink {
    registry: Registry,
    authoritative: Counter,
    referral: Counter,
    empty: Counter,
    rejected: Counter,
    truncated: Counter,
    timeout: Counter,
    skipped: Counter,
    retry_attempts: Counter,
    retry_recovered: Counter,
    retry_exhausted: Counter,
    retry_budget_denied: Counter,
    retry_backoff_ms: Histogram,
    breaker_tripped: Counter,
    breaker_denied: Counter,
    breaker_half_open: Counter,
    breaker_reclosed: Counter,
    breaker_reopened: Counter,
}

impl ProbeSink {
    fn new(registry: &Registry) -> Self {
        ProbeSink {
            registry: registry.clone(),
            authoritative: registry.counter("probe.class.authoritative"),
            referral: registry.counter("probe.class.referral"),
            empty: registry.counter("probe.class.empty"),
            rejected: registry.counter("probe.class.rejected"),
            truncated: registry.counter("probe.class.truncated"),
            timeout: registry.counter("probe.class.timeout"),
            skipped: registry.counter("probe.class.skipped"),
            retry_attempts: registry.counter("probe.retry.attempts"),
            retry_recovered: registry.counter("probe.retry.recovered"),
            retry_exhausted: registry.counter("probe.retry.exhausted"),
            retry_budget_denied: registry.counter("probe.retry.budget_denied"),
            retry_backoff_ms: registry.histogram_latency_ms("probe.retry.backoff_ms"),
            breaker_tripped: registry.counter("probe.breaker.tripped"),
            breaker_denied: registry.counter("probe.breaker.denied"),
            breaker_half_open: registry.counter("probe.breaker.half_open_trials"),
            breaker_reclosed: registry.counter("probe.breaker.reclosed"),
            breaker_reopened: registry.counter("probe.breaker.reopened"),
        }
    }

    fn tally(&self, class: &ResponseClass) {
        match class {
            ResponseClass::Authoritative(_) => self.authoritative.inc(),
            ResponseClass::Referral { .. } => self.referral.inc(),
            ResponseClass::Empty(_) => self.empty.inc(),
            ResponseClass::Rejected(_) => self.rejected.inc(),
            ResponseClass::Truncated => self.truncated.inc(),
            ResponseClass::Timeout => self.timeout.inc(),
            ResponseClass::Skipped => self.skipped.inc(),
        }
    }

    fn tally_transition(&self, transition: BreakerTransition) {
        match transition {
            BreakerTransition::Tripped => self.breaker_tripped.inc(),
            BreakerTransition::Reclosed => self.breaker_reclosed.inc(),
            BreakerTransition::Reopened => self.breaker_reopened.inc(),
        }
    }
}

/// The active-measurement client: walks the hierarchy and probes domains.
///
/// One client per worker thread (the telemetry round context makes it
/// deliberately `!Sync`).
#[derive(Debug)]
pub struct ProbeClient<'n> {
    network: &'n SimNetwork,
    resolver: StubResolver<'n>,
    limiter: RateLimiter,
    telemetry: Option<ProbeSink>,
    /// The ledger round the client is currently probing in.
    round: Cell<QueryRound>,
    retry: RetryPolicy,
    breakers: Option<BreakerBank>,
    /// The attempt ledger of the domain being probed: cumulative delivery
    /// attempts per destination. Every NS exchange asks about the probed
    /// domain, so the destination alone keys it. [`probe`](Self::probe)
    /// clears it and [`retry_child_side`](Self::retry_child_side)
    /// continues it, so a round-2 re-probe carries on round 1's count
    /// instead of restarting it — that continuation is what lets a
    /// flapping server's `recover_after` threshold be crossed. A client
    /// probes each domain once, so clearing loses nothing.
    attempts: RefCell<Vec<(Ipv4Addr, u32)>>,
    /// The flight recorder's per-worker event ring, when tracing is on.
    /// `RefCell` because every emission mutates the ring but probing
    /// methods take `&self`; the client is already `!Sync` by design.
    tracer: RefCell<Option<WorkerTracer>>,
}

impl<'n> ProbeClient<'n> {
    /// Creates a client with its own resolver cache and rate limiter.
    pub fn new(network: &'n SimNetwork, roots: Vec<Ipv4Addr>, limiter: RateLimiter) -> Self {
        ProbeClient {
            network,
            resolver: StubResolver::new(network, roots),
            limiter,
            telemetry: None,
            round: Cell::new(QueryRound::Round1),
            retry: RetryPolicy::none(),
            breakers: None,
            attempts: RefCell::new(Vec::new()),
            tracer: RefCell::new(None),
        }
    }

    /// Attaches a per-worker flight recorder: every delivery attempt and
    /// every decision about it (fault verdicts, limiter charges, breaker
    /// admissions, backoffs) is recorded as a trace event. The runner
    /// brackets each domain with [`ProbeClient::trace_begin`] /
    /// [`ProbeClient::trace_end`].
    #[must_use]
    pub fn with_tracer(self, tracer: WorkerTracer) -> Self {
        *self.tracer.borrow_mut() = Some(tracer);
        self
    }

    /// Starts the trace scope for campaign domain `index`; events
    /// emitted until [`ProbeClient::trace_end`] belong to this domain.
    pub fn trace_begin(&self, index: u64, domain: &DomainName) {
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            t.begin(index, domain);
        }
    }

    /// Ends the current trace scope, submitting the domain's events (or
    /// an unsampled placeholder) to the shared sink.
    pub fn trace_end(&self) {
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            t.end();
        }
    }

    /// Emits a trace event at the worker's current step. The closure
    /// only runs when a tracer is attached *and* this domain is sampled,
    /// so disabled runs never build event payloads.
    fn trace(&self, f: impl FnOnce() -> TraceData) {
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            if t.recording() {
                let data = f();
                t.emit(data);
            }
        }
    }

    /// Emits a trace event pinned to `step` regardless of the current
    /// walk position (side resolutions, SOA fetches).
    fn trace_at(&self, step: Step, f: impl FnOnce() -> TraceData) {
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            if t.recording() {
                let data = f();
                t.emit_at(step, data);
            }
        }
    }

    /// Moves the worker's trace cursor to `step`.
    fn trace_step(&self, step: Step) {
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            t.set_step(step);
        }
    }

    /// Dumps the flight recorder's last-N events under `trigger`.
    fn trace_dump(&self, trigger: &str) {
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            t.dump(trigger);
        }
    }

    /// Dumps at most once per trigger per domain — for triggers that
    /// fire on many exchanges of an already-degraded domain.
    fn trace_dump_once(&self, trigger: &str) {
        if let Some(t) = self.tracer.borrow_mut().as_mut() {
            t.dump_once(trigger);
        }
    }

    /// Sets the retry policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a (shared) circuit-breaker bank: every probing exchange
    /// first asks the destination's breaker for admission, and skipped
    /// exchanges are recorded as [`ResponseClass::Skipped`] without
    /// sending anything or charging the rate limiter.
    #[must_use]
    pub fn with_breakers(mut self, bank: BreakerBank) -> Self {
        self.breakers = Some(bank).filter(|b| b.policy().is_enabled());
        self
    }

    /// Imports resolver-cache entries (a journal checkpoint's warmth);
    /// entries already expired at the resolver's virtual time are
    /// dropped — see [`StubResolver::import_cache`]. Set the clock
    /// ([`set_clock_s`](Self::set_clock_s)) *before* importing.
    pub fn import_cache(&self, entries: Vec<((DomainName, RecordType), CacheEntry)>) {
        self.resolver.import_cache(entries);
    }

    /// Exports the resolver cache in deterministic order; see
    /// [`StubResolver::export_cache`].
    #[must_use]
    pub fn export_cache(&self) -> Vec<((DomainName, RecordType), CacheEntry)> {
        self.resolver.export_cache()
    }

    /// The resolver-cache inserts and evictions since the previous call;
    /// see [`StubResolver::take_cache_changes`].
    #[must_use]
    pub fn take_cache_changes(&self) -> CacheChanges {
        self.resolver.take_cache_changes()
    }

    /// The resolver's virtual clock, seconds (checkpointed alongside the
    /// cache so expiry survives resume).
    #[must_use]
    pub fn clock_s(&self) -> u64 {
        self.resolver.now_s()
    }

    /// Sets the resolver's virtual clock (absolute, seconds).
    pub fn set_clock_s(&self, t: u64) {
        self.resolver.set_clock_s(t);
    }

    /// Starts tallying per-class response counters
    /// (`probe.class.{authoritative,referral,empty,rejected,timeout}`)
    /// and per-domain `probe.domain` spans into `registry`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(ProbeSink::new(registry));
        self
    }

    /// The client's resolver (shared cache).
    pub fn resolver(&self) -> &StubResolver<'n> {
        &self.resolver
    }

    /// Probes one domain per the Figure-1 procedure.
    pub fn probe(&self, domain: &DomainName) -> DomainProbe {
        let span = self.telemetry.as_ref().map(|t| t.registry.span("probe.domain"));
        self.round.set(QueryRound::Round1);
        self.attempts.borrow_mut().clear();
        let mut probe = DomainProbe {
            domain: domain.clone(),
            parent_zone: None,
            parent_addrs: Vec::new(),
            parent_observations: Vec::new(),
            parent_ns: Vec::new(),
            child_ns: Vec::new(),
            servers: Vec::new(),
            soa: None,
            queries: 0,
            elapsed_ms: 0,
            rounds: 1,
        };
        self.walk_to_parent(domain, &mut probe);
        self.query_child_side(domain, &mut probe);
        self.fetch_soa(domain, &mut probe);
        if let Some(span) = span {
            span.finish();
        }
        probe
    }

    /// Fetches the zone's SOA from the first serving nameserver.
    fn fetch_soa(&self, domain: &DomainName, probe: &mut DomainProbe) {
        let Some(addr) =
            probe.servers.iter().find(|s| s.serves_zone()).and_then(|s| s.addrs.first().copied())
        else {
            return;
        };
        self.trace_step(Step::DirectProbe);
        self.limiter.acquire_for(QueryRound::Soa, Some(addr));
        self.trace(|| TraceData::Charge { round: "soa".into(), dst: Some(addr) });
        let q = Message::query((probe.queries % 0xFFFF) as u16, domain.clone(), RecordType::Soa);
        self.trace(|| TraceData::Send { dst: addr, attempt: 0 });
        let (out, delivery) = self.network.deliver_attempt_traced(addr, &q, 0);
        probe.queries += 1;
        probe.elapsed_ms = probe.elapsed_ms.saturating_add(out.elapsed_ms());
        if let Some(verdict) = delivery.verdict() {
            self.trace(|| TraceData::Fault {
                dst: addr,
                attempt: 0,
                verdict: verdict.into(),
                extra_ms: u64::from(delivery.fault.extra_delay_ms),
            });
        }
        self.trace(|| TraceData::Response {
            dst: addr,
            attempt: 0,
            class: if out.reply().is_some() { "answer".into() } else { "timeout".into() },
            ms: u64::from(out.elapsed_ms()),
        });
        if let Some(reply) = out.reply() {
            if reply.is_authoritative_answer() {
                probe.soa = reply.answers.iter().find_map(|rr| rr.data.as_soa().cloned());
            }
        }
    }

    /// Re-runs the child-side queries (the paper's second round for
    /// transient failures) and merges the results into `probe`.
    pub fn retry_child_side(&self, probe: &mut DomainProbe) {
        self.round.set(QueryRound::Round2);
        let domain = probe.domain.clone();
        let mut fresh = DomainProbe {
            domain: domain.clone(),
            parent_zone: probe.parent_zone.clone(),
            parent_addrs: probe.parent_addrs.clone(),
            // Keep the first round's parent responses: their glue is what
            // resolves in-bailiwick targets of a dead child zone.
            parent_observations: probe.parent_observations.clone(),
            parent_ns: probe.parent_ns.clone(),
            child_ns: Vec::new(),
            servers: Vec::new(),
            soa: None,
            queries: 0,
            elapsed_ms: 0,
            rounds: 0,
        };
        self.query_child_side(&domain, &mut fresh);
        for s in fresh.servers {
            match probe.servers.iter_mut().find(|p| p.host == s.host) {
                Some(existing) => {
                    if s.serves_zone() && !existing.serves_zone() {
                        let in_parent = existing.in_parent;
                        *existing = s;
                        existing.in_parent = in_parent;
                        // Dead in round 1, serving in round 2: the
                        // transient failure the re-probe exists to catch.
                        existing.recovered_in_round2 = true;
                    }
                }
                None => probe.servers.push(s),
            }
        }
        for c in fresh.child_ns {
            if !probe.child_ns.contains(&c) {
                probe.child_ns.push(c);
            }
        }
        for s in &mut probe.servers {
            s.in_child = probe.child_ns.contains(&s.host);
        }
        probe.queries += fresh.queries;
        probe.elapsed_ms = probe.elapsed_ms.saturating_add(fresh.elapsed_ms);
        probe.rounds += 1;
        self.round.set(QueryRound::Round1);
    }

    /// One exchange with `dst`, the only way the walk sends an NS query:
    /// gated by the destination's circuit breaker (if a bank is
    /// attached), charged to the rate limiter, and retried under the
    /// client's [`RetryPolicy`]. A denied admission short-circuits to
    /// [`ResponseClass::Skipped`] with zero attempts — nothing is sent
    /// and the rate limiter is not charged.
    fn send(
        &self,
        dst: Ipv4Addr,
        qname: &DomainName,
        probe: &mut DomainProbe,
    ) -> (ResponseClass, u32) {
        let rank = self.round.get().rank();
        if let Some(bank) = &self.breakers {
            match bank.admit(dst, rank) {
                BreakerAdmission::Denied => {
                    let class = ResponseClass::Skipped;
                    if let Some(sink) = &self.telemetry {
                        sink.tally(&class);
                        sink.breaker_denied.inc();
                    }
                    self.trace(|| TraceData::BreakerDenied { dst });
                    return (class, 0);
                }
                BreakerAdmission::Trial => {
                    if let Some(sink) = &self.telemetry {
                        sink.breaker_half_open.inc();
                    }
                    self.trace(|| TraceData::BreakerTrial { dst });
                }
                BreakerAdmission::Allowed => {}
            }
        }
        self.limiter.acquire_for(self.round.get(), Some(dst));
        self.trace(|| TraceData::Charge {
            round: self.round.get().as_str().into(),
            dst: Some(dst),
        });
        let (class, attempts) = self.exchange_loop(dst, qname, probe);
        self.breaker_settle(dst, rank, &class);
        (class, attempts)
    }

    /// Records an admitted exchange's final class with the breaker bank
    /// and emits any transition it caused (telemetry, trace event, and
    /// the trip's flight-recorder dump).
    fn breaker_settle(&self, dst: Ipv4Addr, rank: u32, class: &ResponseClass) {
        let Some(bank) = &self.breakers else { return };
        if let Some(transition) = bank.on_result(dst, rank, class.is_retryable()) {
            if let Some(sink) = &self.telemetry {
                sink.tally_transition(transition);
            }
            let label = match transition {
                BreakerTransition::Tripped => "tripped",
                BreakerTransition::Reclosed => "reclosed",
                BreakerTransition::Reopened => "reopened",
            };
            self.trace(|| TraceData::Breaker { dst, transition: label.into() });
            if matches!(transition, BreakerTransition::Tripped) {
                self.trace_dump("breaker_trip");
            }
        }
    }

    /// Takes the next cumulative attempt number for `dst` within the
    /// probed domain. Carried across rounds, this is what the fault plan
    /// sees — it is how a flapping server's recovery threshold is
    /// eventually crossed. A domain has a handful of destinations, so a
    /// scan beats hashing.
    fn take_attempt(&self, dst: Ipv4Addr) -> u32 {
        let mut ledger = self.attempts.borrow_mut();
        match ledger.iter_mut().find(|(addr, _)| *addr == dst) {
            Some((_, count)) => {
                let now = *count;
                *count += 1;
                now
            }
            None => {
                ledger.push((dst, 1));
                0
            }
        }
    }

    /// The retry loop of one charged exchange: delivers, and retries
    /// transient failures within the retry budget.
    fn exchange_loop(
        &self,
        dst: Ipv4Addr,
        qname: &DomainName,
        probe: &mut DomainProbe,
    ) -> (ResponseClass, u32) {
        let mut attempts_here = 0u32;
        // Built once on the first delivery and reused across retries:
        // the message id is observable nowhere in an outcome, so
        // re-sending the same bytes is indistinguishable from
        // re-encoding a fresh message per attempt.
        let query = Message::query((probe.queries % 0xFFFF) as u16, qname.clone(), RecordType::Ns);
        loop {
            let attempt = self.take_attempt(dst);
            self.trace(|| TraceData::Send { dst, attempt });
            let (out, delivery) = self.network.deliver_attempt_traced(dst, &query, attempt);
            probe.queries += 1;
            probe.elapsed_ms = probe.elapsed_ms.saturating_add(out.elapsed_ms());
            let class = ResponseClass::of(out.reply(), qname);
            attempts_here += 1;
            if let Some(sink) = &self.telemetry {
                sink.tally(&class);
            }
            if let Some(verdict) = delivery.verdict() {
                self.trace(|| TraceData::Fault {
                    dst,
                    attempt,
                    verdict: verdict.into(),
                    extra_ms: u64::from(delivery.fault.extra_delay_ms),
                });
            }
            self.trace(|| TraceData::Response {
                dst,
                attempt,
                class: class.label().into(),
                ms: u64::from(out.elapsed_ms()),
            });
            if delivery.fault.refuse {
                self.trace_dump_once("refused_burst");
            }
            if !class.is_retryable() {
                if attempts_here > 1 {
                    if let Some(sink) = &self.telemetry {
                        sink.retry_recovered.inc();
                    }
                }
                return (class, attempts_here);
            }
            if attempts_here >= self.retry.max_attempts {
                if attempts_here > 1 {
                    if let Some(sink) = &self.telemetry {
                        sink.retry_exhausted.inc();
                    }
                    self.trace_dump_once("retry_exhausted");
                }
                return (class, attempts_here);
            }
            if !self.limiter.try_acquire_retry(dst, self.retry.per_destination_budget) {
                if let Some(sink) = &self.telemetry {
                    sink.retry_budget_denied.inc();
                }
                self.trace(|| TraceData::RetryDenied { dst });
                return (class, attempts_here);
            }
            let backoff = self.retry.backoff_ms(dst, qname, attempts_here);
            probe.elapsed_ms = probe.elapsed_ms.saturating_add(backoff);
            if let Some(sink) = &self.telemetry {
                sink.retry_attempts.inc();
                sink.retry_backoff_ms.record(f64::from(backoff));
            }
            self.trace(|| TraceData::Backoff {
                dst,
                attempt: attempts_here,
                ms: u64::from(backoff),
            });
        }
    }

    /// Resolves a hostname, charging the probe for the side queries.
    fn side_resolve(&self, host: &DomainName, probe: &mut DomainProbe) -> Vec<Ipv4Addr> {
        self.limiter.acquire_for(QueryRound::Side, None);
        self.trace_at(Step::AddrResolve, || TraceData::Charge { round: "side".into(), dst: None });
        let addrs = match self.resolver.resolve(host, RecordType::A) {
            Ok(res) => {
                // Book the resolver's extra queries beyond the one
                // already acquired (a cache hit costs zero, which the
                // upfront acquire conservatively over-counts).
                self.limiter.account(QueryRound::Side, u64::from(res.queries).saturating_sub(1));
                probe.queries += res.queries;
                probe.elapsed_ms = probe.elapsed_ms.saturating_add(res.elapsed_ms);
                res.addresses()
            }
            Err(_) => Vec::new(),
        };
        self.trace_at(Step::AddrResolve, || TraceData::Resolve {
            host: host.to_string(),
            addrs: addrs.clone(),
        });
        addrs
    }

    /// Walks from the root toward the domain, recording the parent-zone
    /// level: its addresses, responses, and the parent-side NS set.
    fn walk_to_parent(&self, domain: &DomainName, probe: &mut DomainProbe) {
        self.trace_step(Step::ParentNs);
        let mut level: Vec<Ipv4Addr> = self.resolver.roots().to_vec();
        let mut level_zone = DomainName::root();

        for _ in 0..MAX_WALK_DEPTH {
            let mut next: Option<(DomainName, Vec<Ipv4Addr>)> = None;
            let mut observations: Vec<ServerObservation> = Vec::new();
            let mut p: Vec<DomainName> = Vec::new();
            let mut done = false;

            for &addr in &level {
                let (class, attempts) = self.send(addr, domain, probe);
                match &class {
                    ResponseClass::Authoritative(targets) => {
                        for t in targets {
                            if !p.contains(t) {
                                p.push(t.clone());
                            }
                        }
                        done = true;
                    }
                    ResponseClass::Referral { cut, targets, glue } => {
                        if cut == domain {
                            for t in targets {
                                if !p.contains(t) {
                                    p.push(t.clone());
                                }
                            }
                            done = true;
                        } else if cut.is_subdomain_of(&level_zone)
                            && domain.is_subdomain_of(cut)
                            && next.is_none()
                        {
                            let mut addrs = Vec::new();
                            for t in targets {
                                let glued: Vec<Ipv4Addr> =
                                    glue.iter().filter(|(n, _)| n == t).map(|&(_, a)| a).collect();
                                if glued.is_empty() {
                                    addrs.extend(self.side_resolve(t, probe));
                                } else {
                                    addrs.extend(glued);
                                }
                            }
                            addrs.dedup();
                            self.trace_at(Step::Referral, || TraceData::Referral {
                                cut: cut.to_string(),
                                targets: targets.len() as u64,
                            });
                            next = Some((cut.clone(), addrs));
                        }
                        // Upward or sideways referrals: useless, move on.
                    }
                    _ => {}
                }
                observations.push(ServerObservation { addr, class, attempts });
            }

            if done || next.is_none() {
                probe.parent_zone = Some(level_zone);
                probe.parent_addrs = level;
                probe.parent_observations = observations;
                probe.parent_ns = p;
                return;
            }
            let (zone, addrs) = next.expect("just checked");
            if addrs.is_empty() {
                // Glueless, unresolvable delegation: the parent zone is
                // unreachable — record the silence.
                probe.parent_zone = Some(zone);
                return;
            }
            level_zone = zone;
            level = addrs;
        }
    }

    /// Step ③–④ plus the final per-address sweep: query every identified
    /// nameserver for the domain's NS records.
    fn query_child_side(&self, domain: &DomainName, probe: &mut DomainProbe) {
        self.trace_step(Step::ChildNs);
        let mut pending: Vec<DomainName> = Vec::new();
        for h in &probe.parent_ns {
            if !pending.contains(h) {
                pending.push(h.clone());
            }
        }
        let mut seen: BTreeSet<DomainName> = pending.iter().cloned().collect();
        let mut processed = 0usize;

        // Glue from the parent's referrals resolves in-bailiwick targets
        // below the cut — the only source of addresses for them when the
        // child zone itself is dead.
        let mut glue_map: FxHashMap<DomainName, Vec<Ipv4Addr>> = FxHashMap::default();
        for obs in &probe.parent_observations {
            if let ResponseClass::Referral { glue, .. } = &obs.class {
                for (host, addr) in glue {
                    let slot = glue_map.entry(host.clone()).or_default();
                    if !slot.contains(addr) {
                        slot.push(*addr);
                    }
                }
            }
        }

        while let Some(host) = pending.first().cloned() {
            pending.remove(0);
            processed += 1;
            if processed > MAX_CHILD_HOSTS {
                break;
            }
            let addrs = match glue_map.get(&host) {
                Some(glued) => glued.clone(),
                None => self.side_resolve(&host, probe),
            };
            let mut observations = Vec::with_capacity(addrs.len());
            for &addr in &addrs {
                let (class, attempts) = self.send(addr, domain, probe);
                if let ResponseClass::Authoritative(targets) = &class {
                    for t in targets {
                        if !probe.child_ns.contains(t) {
                            probe.child_ns.push(t.clone());
                        }
                        if seen.insert(t.clone()) {
                            pending.push(t.clone());
                        }
                    }
                }
                observations.push(ServerObservation { addr, class, attempts });
            }
            probe.servers.push(ServerProbe {
                in_parent: probe.parent_ns.contains(&host),
                in_child: false, // fixed below
                host,
                addrs,
                observations,
                recovered_in_round2: false,
            });
        }
        for s in &mut probe.servers {
            s.in_child = probe.child_ns.contains(&s.host);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_model::{DomainName as DN, Soa, Zone};
    use govdns_simnet::{AuthoritativeServer, ServerBehavior};

    fn n(s: &str) -> DN {
        s.parse().unwrap()
    }

    /// root → zz → gov.zz, with one healthy child (a.gov.zz), a second
    /// one on the same server (b.gov.zz), one stale child (stale.gov.zz,
    /// dead NS), one centrally hosted child (central.gov.zz, served by
    /// the gov.zz servers themselves), and a deeper tree under
    /// inter.gov.zz.
    fn network() -> (SimNetwork, Vec<Ipv4Addr>) {
        let mut net = SimNetwork::new(3);
        let root_ip = Ipv4Addr::new(10, 0, 0, 1);
        let tld_ip = Ipv4Addr::new(10, 1, 0, 1);
        let gov_ip = Ipv4Addr::new(10, 2, 0, 1);
        let a_ip = Ipv4Addr::new(10, 3, 0, 1);
        let inter_ip = Ipv4Addr::new(10, 4, 0, 1);

        let mut root = Zone::new(DN::root());
        root.add_ns(DN::root(), n("ns1.rootns.net"));
        root.add_a(n("ns1.rootns.net"), root_ip);
        root.add_ns(n("zz"), n("ns1.nic.zz"));
        root.add_glue(n("ns1.nic.zz"), tld_ip);
        net.add_server(
            AuthoritativeServer::new(root_ip, ServerBehavior::Responsive).with_zone(root),
        );

        let mut tld = Zone::new(n("zz"));
        tld.add_ns(n("zz"), n("ns1.nic.zz"));
        tld.add_a(n("ns1.nic.zz"), tld_ip);
        tld.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        tld.add_glue(n("ns1.gov.zz"), gov_ip);
        net.add_server(AuthoritativeServer::new(tld_ip, ServerBehavior::Responsive).with_zone(tld));

        let mut gov = Zone::new(n("gov.zz"));
        gov.set_soa(Soa::new(n("ns1.gov.zz"), n("hostmaster.gov.zz")));
        gov.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        gov.add_a(n("ns1.gov.zz"), gov_ip);
        // Healthy delegation.
        gov.add_ns(n("a.gov.zz"), n("ns1.a.gov.zz"));
        gov.add_ns(n("a.gov.zz"), n("ns2.a.gov.zz"));
        gov.add_glue(n("ns1.a.gov.zz"), a_ip);
        gov.add_glue(n("ns2.a.gov.zz"), a_ip);
        gov.add_ns(n("b.gov.zz"), n("ns1.b.gov.zz"));
        gov.add_glue(n("ns1.b.gov.zz"), a_ip);
        // Stale delegation: glue points nowhere.
        gov.add_ns(n("stale.gov.zz"), n("ns1.stale.gov.zz"));
        gov.add_glue(n("ns1.stale.gov.zz"), Ipv4Addr::new(10, 9, 9, 9));
        // Centrally hosted child (same servers as the parent).
        gov.add_ns(n("central.gov.zz"), n("ns1.gov.zz"));
        // Dead intermediate with a child below it.
        gov.add_ns(n("inter.gov.zz"), n("ns1.inter.gov.zz"));
        gov.add_glue(n("ns1.inter.gov.zz"), inter_ip);

        let mut central = Zone::new(n("central.gov.zz"));
        central.add_ns(n("central.gov.zz"), n("ns1.gov.zz"));
        let gov_server = AuthoritativeServer::new(gov_ip, ServerBehavior::Responsive)
            .with_zone(gov)
            .with_zone(central);
        net.add_server(gov_server);

        let mut a = Zone::new(n("a.gov.zz"));
        a.add_ns(n("a.gov.zz"), n("ns1.a.gov.zz"));
        a.add_ns(n("a.gov.zz"), n("ns2.a.gov.zz"));
        a.add_a(n("ns1.a.gov.zz"), a_ip);
        a.add_a(n("ns2.a.gov.zz"), a_ip);
        let mut b = Zone::new(n("b.gov.zz"));
        b.add_ns(n("b.gov.zz"), n("ns1.b.gov.zz"));
        b.add_a(n("ns1.b.gov.zz"), a_ip);
        net.add_server(
            AuthoritativeServer::new(a_ip, ServerBehavior::Responsive).with_zone(a).with_zone(b),
        );

        // inter_ip is intentionally unrouted: the intermediate is dead.
        let _ = inter_ip;

        (net, vec![root_ip])
    }

    fn client(net: &SimNetwork, roots: Vec<Ipv4Addr>) -> ProbeClient<'_> {
        ProbeClient::new(net, roots, RateLimiter::default())
    }

    #[test]
    fn healthy_domain_full_walk() {
        let (net, roots) = network();
        let c = client(&net, roots);
        let p = c.probe(&n("a.gov.zz"));
        assert_eq!(p.parent_zone, Some(n("gov.zz")));
        assert!(p.parent_responsive());
        assert_eq!(p.parent_ns.len(), 2);
        assert_eq!(p.child_ns.len(), 2);
        assert!(p.has_authoritative_answer());
        assert_eq!(p.defective(), (false, false));
        assert_eq!(p.ns_union().len(), 2);
        assert_eq!(p.ns_addrs().len(), 1, "both NS share one address");
    }

    #[test]
    fn removed_domain_gets_empty_parent_response() {
        let (net, roots) = network();
        let c = client(&net, roots);
        let p = c.probe(&n("removed.gov.zz"));
        assert!(p.parent_responsive());
        assert!(!p.parent_nonempty());
        assert!(!p.has_authoritative_answer());
    }

    #[test]
    fn stale_domain_is_fully_defective() {
        let (net, roots) = network();
        let c = client(&net, roots);
        let p = c.probe(&n("stale.gov.zz"));
        assert!(p.parent_nonempty());
        assert!(!p.has_authoritative_answer());
        assert_eq!(p.defective(), (true, true));
        assert_eq!(p.servers.len(), 1);
        assert!(!p.servers[0].responded());
    }

    #[test]
    fn central_hosting_answers_at_the_parent_step() {
        let (net, roots) = network();
        let c = client(&net, roots);
        let p = c.probe(&n("central.gov.zz"));
        // The gov.zz server is authoritative for the child, so the walk
        // records an in-bailiwick authoritative answer as P.
        assert!(p.parent_nonempty());
        assert_eq!(p.parent_ns, vec![n("ns1.gov.zz")]);
        assert!(p.has_authoritative_answer());
    }

    #[test]
    fn dead_subtree_child_has_unreachable_parent() {
        let (net, roots) = network();
        let c = client(&net, roots);
        let p = c.probe(&n("x.inter.gov.zz"));
        assert_eq!(p.parent_zone, Some(n("inter.gov.zz")));
        assert!(!p.parent_responsive(), "obs: {:?}", p.parent_observations);
        assert!(!p.parent_nonempty());
    }

    #[test]
    fn retry_merges_rounds() {
        let (net, roots) = network();
        let c = client(&net, roots);
        let mut p = c.probe(&n("stale.gov.zz"));
        let queries_before = p.queries;
        c.retry_child_side(&mut p);
        assert_eq!(p.rounds, 2);
        assert!(p.queries > queries_before);
        assert!(!p.has_authoritative_answer(), "retry cannot revive a dead zone");
    }

    #[test]
    fn telemetry_tallies_classes_and_rounds() {
        let (net, roots) = network();
        let registry = Registry::new();
        let limiter = RateLimiter::with_telemetry(200, None, &registry);
        let c = ProbeClient::new(&net, roots, limiter.clone()).with_telemetry(&registry);
        let mut p = c.probe(&n("stale.gov.zz"));
        c.retry_child_side(&mut p);
        let snap = registry.snapshot();
        assert!(snap.counters["probe.class.referral"] > 0);
        assert!(snap.counters["probe.class.timeout"] > 0);
        assert_eq!(snap.stages["probe.domain"].count, 1);
        let ledger = limiter.ledger();
        assert!(ledger.per_round["round1"] > 0);
        assert!(ledger.per_round["round2"] > 0, "retry must book into round 2");
        assert_eq!(ledger.total, limiter.issued());
        assert_eq!(snap.counters["ratelimit.issued"], limiter.issued());
    }

    use govdns_simnet::{FaultPlan, FaultProfile, FaultScope};

    fn flap(addr: Ipv4Addr, seed: u64, rate: f64, recover_after: u32) -> FaultPlan {
        FaultPlan::new(seed)
            .with_rule(FaultScope::Server(addr), FaultProfile::Flap { rate, recover_after })
    }

    #[test]
    fn retries_punch_through_transient_flaps() {
        let (net, roots) = network();
        let a_ip = Ipv4Addr::new(10, 3, 0, 1);
        // Two attempts swallowed, the third answers: adaptive retry
        // (3 attempts) resolves this within round 1.
        net.install_faults(Some(flap(a_ip, 1, 1.0, 2)));
        let registry = Registry::new();
        let c = ProbeClient::new(&net, roots, RateLimiter::with_telemetry(10_000, None, &registry))
            .with_telemetry(&registry)
            .with_retry(RetryPolicy::adaptive());
        let p = c.probe(&n("a.gov.zz"));
        assert!(p.has_authoritative_answer(), "obs: {:?}", p.servers);
        assert_eq!(p.rounds, 1);
        assert!(
            p.servers.iter().any(|s| s.observations.iter().any(|o| o.attempts > 1)),
            "no retried observation recorded"
        );
        assert!(p.degraded(), "a retried answer is a degraded answer");
        let snap = registry.snapshot();
        assert!(snap.counters["probe.retry.attempts"] >= 2);
        assert!(snap.counters["probe.retry.recovered"] >= 1);
    }

    #[test]
    fn flapping_child_recovers_in_round_two_as_degraded() {
        let (net, roots) = network();
        let a_ip = Ipv4Addr::new(10, 3, 0, 1);
        // recover_after = 8 outlasts round 1 entirely (3 attempts per
        // server object, both landing on the same (addr, qname) pair),
        // so only the second round crosses the recovery threshold.
        net.install_faults(Some(flap(a_ip, 5, 1.0, 8)));
        let c = client(&net, roots).with_retry(RetryPolicy::adaptive());
        let mut p = c.probe(&n("a.gov.zz"));
        assert!(p.parent_nonempty());
        assert!(!p.has_authoritative_answer(), "round 1 should fail: {:?}", p.servers);
        c.retry_child_side(&mut p);
        assert!(p.has_authoritative_answer(), "round 2 should recover: {:?}", p.servers);
        assert!(p.recovered_in_round2());
        assert!(p.degraded());
        assert_eq!(p.rounds, 2);
    }

    #[test]
    fn each_domain_starts_its_own_attempt_count() {
        let (net, roots) = network();
        let a_ip = Ipv4Addr::new(10, 3, 0, 1);
        // Attempt 0 of every (server, domain) pair times out, attempt 1
        // answers. One attempt per exchange, so the count is visible in
        // which exchange answers.
        net.install_faults(Some(flap(a_ip, 3, 1.0, 1)));
        let c = client(&net, roots);
        let classes = |p: &DomainProbe| -> Vec<&'static str> {
            p.servers.iter().flat_map(|s| &s.observations).map(|o| o.class.label()).collect()
        };
        // a.gov.zz: ns1 and ns2 share the address, so ns1's exchange is
        // attempt 0 and ns2's is attempt 1.
        let a = c.probe(&n("a.gov.zz"));
        assert_eq!(classes(&a), ["timeout", "authoritative"]);
        // b.gov.zz, same server: its own count starts at 0 again.
        let mut b = c.probe(&n("b.gov.zz"));
        assert_eq!(classes(&b), ["timeout"]);
        assert!(b.parent_nonempty() && !b.has_authoritative_answer());
        // Round 2 continues round 1's count: attempt 1 answers.
        c.retry_child_side(&mut b);
        assert_eq!(classes(&b), ["authoritative"]);
        assert!(b.recovered_in_round2());
    }

    /// Property over fault seeds: a healthy domain behind a flapping
    /// server always comes back within two rounds (and is marked
    /// degraded exactly when the flap actually fired), while a
    /// permanently lame delegation is never revived.
    #[test]
    fn fault_seeds_recover_flaps_but_never_the_dead() {
        for seed in 0..16u64 {
            let (net, roots) = network();
            let a_ip = Ipv4Addr::new(10, 3, 0, 1);
            net.install_faults(Some(flap(a_ip, seed, 0.5, 8)));
            let c = client(&net, roots).with_retry(RetryPolicy::adaptive());
            let mut p = c.probe(&n("a.gov.zz"));
            if !p.has_authoritative_answer() {
                c.retry_child_side(&mut p);
            }
            let flapped = net.fault_stats().flap_timeouts > 0;
            assert!(p.has_authoritative_answer(), "seed {seed}: flap never recovered");
            assert_eq!(
                p.degraded(),
                flapped,
                "seed {seed}: degraded must mirror whether the flap fired"
            );

            // Same fault plan over the whole network: the dead zone
            // stays dead no matter the seed.
            let (net, roots) = network();
            net.install_faults(Some(
                FaultPlan::new(seed)
                    .with_rule(FaultScope::All, FaultProfile::Flap { rate: 0.4, recover_after: 3 }),
            ));
            let c = client(&net, roots).with_retry(RetryPolicy::adaptive());
            let mut p = c.probe(&n("stale.gov.zz"));
            if p.parent_nonempty() && !p.has_authoritative_answer() {
                c.retry_child_side(&mut p);
            }
            assert!(!p.has_authoritative_answer(), "seed {seed} revived a dead zone");
        }
    }

    #[test]
    fn response_class_distinctions() {
        let (net, roots) = network();
        let c = client(&net, roots);
        let p = c.probe(&n("a.gov.zz"));
        // Parent observations are referrals, not answers.
        assert!(p
            .parent_observations
            .iter()
            .any(|o| matches!(o.class, ResponseClass::Referral { .. })));
        // Server observations are authoritative.
        assert!(p
            .servers
            .iter()
            .all(|s| s.observations.iter().all(|o| o.class.is_authoritative())));
    }

    #[test]
    fn breaker_state_machine_walks_closed_open_half_open() {
        let dst = Ipv4Addr::new(10, 8, 0, 1);
        let bank = BreakerBank::new(BreakerPolicy { failure_threshold: 2, cooldown_rounds: 1 });

        // Unknown destination: always admitted.
        assert_eq!(bank.admit(dst, 1), BreakerAdmission::Allowed);
        // One failure is below threshold; the second trips it.
        assert_eq!(bank.on_result(dst, 1, true), None);
        assert_eq!(bank.admit(dst, 1), BreakerAdmission::Allowed);
        assert_eq!(bank.on_result(dst, 1, true), Some(BreakerTransition::Tripped));

        // Open within the cooldown round: denied, and the denial is counted.
        assert_eq!(bank.admit(dst, 1), BreakerAdmission::Denied);
        assert_eq!(bank.admit(dst, 1), BreakerAdmission::Denied);
        let snap = &bank.snapshot()[0];
        assert_eq!(snap.phase, BreakerPhase::Open);
        assert_eq!(snap.denied, 2);
        assert_eq!(snap.trips, 1);

        // Cooldown expired (rank 2 ≥ opened_rank 1 + 1): half-open trial.
        assert_eq!(bank.admit(dst, 2), BreakerAdmission::Trial);
        // Failed trial reopens; the next trial must wait a fresh cooldown.
        assert_eq!(bank.on_result(dst, 2, true), Some(BreakerTransition::Reopened));
        assert_eq!(bank.admit(dst, 2), BreakerAdmission::Denied);
        assert_eq!(bank.admit(dst, 3), BreakerAdmission::Trial);
        // Successful trial fully closes: the failure streak restarts.
        assert_eq!(bank.on_result(dst, 3, false), Some(BreakerTransition::Reclosed));
        assert_eq!(bank.admit(dst, 3), BreakerAdmission::Allowed);
        assert_eq!(
            bank.on_result(dst, 3, true),
            None,
            "one failure after reclose is below threshold"
        );
        let snap = &bank.snapshot()[0];
        assert_eq!(snap.phase, BreakerPhase::Closed);
        assert_eq!(snap.trips, 2);
    }

    #[test]
    fn breaker_success_resets_the_failure_streak() {
        let dst = Ipv4Addr::new(10, 8, 0, 2);
        let bank = BreakerBank::new(BreakerPolicy::guarded());
        for _ in 0..2 {
            assert_eq!(bank.on_result(dst, 1, true), None);
        }
        assert_eq!(bank.on_result(dst, 1, false), None);
        // Two more failures after the reset: still below the threshold of 3.
        assert_eq!(bank.on_result(dst, 1, true), None);
        assert_eq!(bank.on_result(dst, 1, true), None);
        assert_eq!(bank.snapshot()[0].phase, BreakerPhase::Closed);
        assert_eq!(bank.on_result(dst, 1, true), Some(BreakerTransition::Tripped));
    }

    #[test]
    fn breaker_changes_are_the_touched_slots_once() {
        let bank = BreakerBank::new(BreakerPolicy { failure_threshold: 1, cooldown_rounds: 1 });
        let (open, closed) = (Ipv4Addr::new(10, 8, 2, 1), Ipv4Addr::new(10, 8, 2, 2));
        assert_eq!(bank.on_result(open, 1, true), Some(BreakerTransition::Tripped));
        assert_eq!(bank.on_result(closed, 1, false), None);
        assert_eq!(bank.take_changes(), bank.snapshot(), "both slots, sorted");
        assert!(bank.take_changes().is_empty(), "a second take is empty");

        // A denial counts on the open slot only.
        assert_eq!(bank.admit(open, 1), BreakerAdmission::Denied);
        assert_eq!(bank.admit(closed, 1), BreakerAdmission::Allowed);
        assert_eq!(bank.take_changes(), vec![bank.snapshot()[0]]);

        // Restoring is the new base: it leaves nothing pending.
        assert_eq!(bank.admit(open, 1), BreakerAdmission::Denied);
        bank.restore(&bank.snapshot());
        assert!(bank.take_changes().is_empty());
    }

    #[test]
    fn breaker_snapshot_round_trips_through_restore() {
        let bank = BreakerBank::new(BreakerPolicy::guarded());
        for i in 0..3u8 {
            let dst = Ipv4Addr::new(10, 8, 1, i);
            for _ in 0..3 {
                bank.on_result(dst, 1, true);
            }
            bank.admit(dst, 1);
        }
        let snap = bank.snapshot();
        let fresh = BreakerBank::new(BreakerPolicy::guarded());
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.quarantined(), bank.quarantined());
        assert_eq!(fresh.admit(Ipv4Addr::new(10, 8, 1, 0), 1), BreakerAdmission::Denied);
    }

    #[test]
    fn disabled_bank_is_a_no_op() {
        let dst = Ipv4Addr::new(10, 8, 0, 3);
        let bank = BreakerBank::new(BreakerPolicy::none());
        for _ in 0..10 {
            assert_eq!(bank.on_result(dst, 1, true), None);
        }
        assert_eq!(bank.admit(dst, 1), BreakerAdmission::Allowed);
        assert!(bank.snapshot().is_empty());
    }

    #[test]
    fn breaker_quarantines_a_dead_server_and_reclosing_trial_recovers_it() {
        let (net, roots) = network();
        let a_ip = Ipv4Addr::new(10, 3, 0, 1);
        // Attempt 0 (round 1's tripping exchange) is swallowed; the
        // denied exchange never bumps the attempt counter, so round 2's
        // half-open trial is attempt 1 — past the recovery threshold.
        net.install_faults(Some(flap(a_ip, 1, 1.0, 1)));
        let registry = Registry::new();
        let bank = BreakerBank::new(BreakerPolicy { failure_threshold: 1, cooldown_rounds: 1 });
        let c = ProbeClient::new(&net, roots, RateLimiter::with_telemetry(10_000, None, &registry))
            .with_telemetry(&registry)
            .with_breakers(bank.clone());
        let mut p = c.probe(&n("a.gov.zz"));
        assert!(!p.has_authoritative_answer(), "round 1 should fail: {:?}", p.servers);
        // Both NS targets share a_ip: the first exchange trips the
        // breaker, the second is denied without sending.
        assert!(
            p.servers.iter().any(|s| s
                .observations
                .iter()
                .any(|o| { o.class == ResponseClass::Skipped && o.attempts == 0 })),
            "denied exchange must surface as a zero-attempt Skipped observation: {:?}",
            p.servers
        );
        let phase_of = |bank: &BreakerBank, addr: Ipv4Addr| {
            bank.snapshot().iter().find(|s| s.addr == addr).map(|s| s.phase)
        };
        assert_eq!(phase_of(&bank, a_ip), Some(BreakerPhase::Open));

        // Round 2 (rank 2) is past the cooldown: the half-open trial
        // goes through, succeeds, and recloses the breaker.
        c.retry_child_side(&mut p);
        assert!(p.has_authoritative_answer(), "round 2 trial should recover: {:?}", p.servers);
        assert!(p.recovered_in_round2());
        assert_eq!(phase_of(&bank, a_ip), Some(BreakerPhase::Closed));
        assert!(bank.quarantined().is_empty() || bank.quarantined()[0].0 == a_ip);

        let snap = registry.snapshot();
        assert_eq!(snap.counters["probe.breaker.tripped"], 1);
        assert!(snap.counters["probe.breaker.denied"] >= 1);
        assert_eq!(snap.counters["probe.class.skipped"], snap.counters["probe.breaker.denied"]);
        assert_eq!(snap.counters["probe.breaker.half_open_trials"], 1);
        assert_eq!(snap.counters["probe.breaker.reclosed"], 1);
        assert_eq!(snap.counters["probe.breaker.reopened"], 0);
    }

    #[test]
    fn denied_exchanges_charge_nothing_to_the_limiter() {
        let (net, roots) = network();
        let a_ip = Ipv4Addr::new(10, 3, 0, 1);
        net.install_faults(Some(flap(a_ip, 1, 1.0, 99)));
        let limiter = RateLimiter::default();
        let bank = BreakerBank::new(BreakerPolicy { failure_threshold: 1, cooldown_rounds: 9 });
        let c = ProbeClient::new(&net, roots, limiter.clone()).with_breakers(bank.clone());
        let p = c.probe(&n("a.gov.zz"));
        let skipped: u64 = p
            .servers
            .iter()
            .flat_map(|s| &s.observations)
            .filter(|o| o.class == ResponseClass::Skipped)
            .count() as u64;
        assert!(skipped >= 1, "expected at least one denied exchange: {:?}", p.servers);
        let denied: u64 = bank.snapshot().iter().map(|s| s.denied).sum();
        assert_eq!(denied, skipped);
        // The denied exchanges charged neither the limiter nor the
        // wire: without retries, a_ip's ledger charge equals the
        // attempts the network actually saw for it.
        let charged = limiter
            .export_state()
            .per_destination
            .iter()
            .find(|(addr, _)| *addr == a_ip)
            .map_or(0, |&(_, count)| count);
        let delivered = net
            .per_destination_snapshot()
            .iter()
            .find(|(addr, _)| *addr == a_ip)
            .map_or(0, |&(_, count)| count);
        assert!(charged > 0, "the tripping exchange itself is charged");
        assert_eq!(charged, delivered);
    }
}
