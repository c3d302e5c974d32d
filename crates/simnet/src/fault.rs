//! Deterministic fault injection — the chaos layer of the simulated
//! internet.
//!
//! A real measurement campaign does not run against a network that is
//! merely *dead or alive*: nameservers flap, rate limiters emit REFUSED
//! bursts under query pressure, middleboxes truncate answers, and links
//! spike. The paper's Figure-1 protocol re-probes "transient-looking
//! failures" in a second round precisely because of this adversity. A
//! [`FaultPlan`] injects those behaviours into [`SimNetwork`] delivery
//! without touching the servers themselves, so the pipeline's retry and
//! round-2 machinery can be exercised — and regression-tested — under
//! realistic degradation.
//!
//! **Determinism.** Every fault decision is a pure function of the plan
//! seed, the rule, the destination address, a stable hash of the query
//! name, and the *attempt number* the client reports. No shared RNG is
//! consulted, so outcomes are independent of thread interleaving: two
//! campaigns with the same world seed, the same plan, and one worker
//! produce byte-identical datasets (the chaos CI gate diffs exactly
//! this).
//!
//! [`SimNetwork`]: crate::SimNetwork

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use govdns_model::DomainName;

use crate::addr::mix;
use crate::{prefix24, Prefix24};

/// The kind of fault that fired on a delivery, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A flapping server swallowed the query (transient timeout).
    Flap,
    /// The packet was lost on a lossy prefix.
    Loss,
    /// A rate limiter refused the query (REFUSED burst).
    Refused,
    /// The response came back truncated.
    Truncated,
    /// The exchange was delayed by a latency spike.
    Delayed,
    /// The destination is blackholed by a counterfactual outage
    /// scenario: every query to it is swallowed, unconditionally and
    /// forever (no recovery across attempts or rounds).
    Outage,
}

/// What the fault layer decided for one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Swallow the query: the client observes a timeout.
    pub drop: Option<FaultKind>,
    /// Replace the server's answer with REFUSED.
    pub refuse: bool,
    /// Strip the response sections and set the `tc` bit.
    pub truncate: bool,
    /// Extra round-trip delay, milliseconds (latency spikes compose).
    pub extra_delay_ms: u32,
}

impl FaultDecision {
    /// Whether any fault fired at all.
    pub fn is_clean(&self) -> bool {
        self.drop.is_none() && !self.refuse && !self.truncate && self.extra_delay_ms == 0
    }
}

/// Which deliveries a [`FaultRule`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Every destination.
    All,
    /// One server address.
    Server(Ipv4Addr),
    /// Every address in one /24.
    Prefix(Prefix24),
}

impl FaultScope {
    fn matches(self, dst: Ipv4Addr) -> bool {
        match self {
            FaultScope::All => true,
            FaultScope::Server(a) => a == dst,
            FaultScope::Prefix(p) => prefix24(dst) == p,
        }
    }
}

/// One composable fault behaviour.
///
/// Rates are probabilities in `[0, 1]`, resolved deterministically per
/// `(destination, query name)` pair — a "20 % flap rate" means a fifth
/// of the pairs flap on *every* run with the same seed, not that each
/// packet flips a coin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultProfile {
    /// Per-server flapping: an affected `(server, qname)` pair times out
    /// until the client has burned `recover_after` attempts on it, then
    /// the server answers normally — the transient failure the paper's
    /// second round exists to recover.
    Flap {
        /// Share of `(destination, qname)` pairs that flap.
        rate: f64,
        /// Attempts (across rounds) before the pair recovers.
        recover_after: u32,
    },
    /// Packet loss: each attempt is lost independently, so retries can
    /// punch through.
    PacketLoss {
        /// Per-attempt loss probability.
        rate: f64,
    },
    /// REFUSED bursts under QPS pressure: once a destination has
    /// absorbed `after_queries` queries, an affected pair is refused
    /// until `recover_after` attempts have backed off.
    RefusedBurst {
        /// Queries a destination absorbs before its limiter engages.
        after_queries: u64,
        /// Share of pairs refused once the limiter is engaged.
        rate: f64,
        /// Attempts before the limiter forgives the pair.
        recover_after: u32,
    },
    /// Truncated answers: affected pairs get their response sections
    /// stripped and the `tc` bit set until `recover_after` attempts.
    Truncation {
        /// Share of pairs truncated.
        rate: f64,
        /// Attempts before the path delivers a full answer.
        recover_after: u32,
    },
    /// Latency spikes: affected attempts take `extra_ms` longer.
    LatencySpike {
        /// Per-attempt spike probability.
        rate: f64,
        /// Added delay, milliseconds.
        extra_ms: u32,
    },
}

/// A scoped fault behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Which deliveries the profile applies to.
    pub scope: FaultScope,
    /// The behaviour.
    pub profile: FaultProfile,
}

/// Aggregate injected-fault counters, mirrored into telemetry as
/// `fault.*` when the network has a registry attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Queries swallowed by flapping servers.
    pub flap_timeouts: u64,
    /// Queries lost to injected packet loss.
    pub losses: u64,
    /// Queries answered REFUSED by the injected rate limiter.
    pub refused: u64,
    /// Responses truncated.
    pub truncated: u64,
    /// Deliveries delayed by a latency spike.
    pub delayed: u64,
    /// Queries swallowed by a blackholed (counterfactual-outage)
    /// destination.
    pub outages: u64,
}

impl FaultStats {
    /// Total outcome-changing faults (delays excluded).
    pub fn injected(&self) -> u64 {
        self.flap_timeouts + self.losses + self.refused + self.truncated + self.outages
    }
}

/// A seeded, composable set of fault rules the network consults on
/// every delivery.
///
/// ```
/// use govdns_simnet::{FaultPlan, FaultProfile, FaultScope};
///
/// let plan = FaultPlan::new(7)
///     .with_rule(FaultScope::All, FaultProfile::Flap { rate: 0.2, recover_after: 2 })
///     .with_rule(FaultScope::All, FaultProfile::LatencySpike { rate: 0.1, extra_ms: 400 });
/// let qname: govdns_model::DomainName = "portal.gov.zz".parse()?;
/// let first = plan.decide("192.0.2.1".parse().unwrap(), &qname, 0, 0);
/// let again = plan.decide("192.0.2.1".parse().unwrap(), &qname, 0, 0);
/// assert_eq!(first, again, "decisions are deterministic");
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    /// Counterfactual-outage layer: addresses that are hard-failed.
    ///
    /// Checked *before* the probabilistic rules, and independent of
    /// them: adding a blackhole set never changes the rule indices,
    /// salts, or decisions for destinations outside the set.
    blackhole_addrs: BTreeSet<Ipv4Addr>,
    /// Counterfactual-outage layer: whole /24s that are hard-failed.
    blackhole_prefixes: BTreeSet<Prefix24>,
    /// Partial-outage layer: addresses degraded (not erased) by a
    /// counterfactual scenario. Each delivery attempt to a degraded
    /// destination is dropped with probability `degrade_ppm / 1e6`,
    /// decided by the same pure-hash scheme as the probabilistic rules
    /// but under a salt domain no rule uses — so, like the blackhole
    /// layer, degrading a set never perturbs a decision outside it.
    degraded_addrs: BTreeSet<Ipv4Addr>,
    /// Partial-outage layer: whole /24s degraded.
    degraded_prefixes: BTreeSet<Prefix24>,
    /// Per-attempt drop probability for degraded destinations, in
    /// parts-per-million (an integer so the plan stays `Eq`-comparable
    /// and byte-stable in config echoes). `0` disables the layer.
    degrade_ppm: u32,
}

/// Salt-domain tag for the degrade layer's hash draws. Rule draws salt
/// with `[rule_idx, 0x1..=0x5, ...]`; the degrade layer uses an index no
/// rule can occupy so its draws can never collide with a rule's.
const DEGRADE_SALT_IDX: u64 = u64::MAX;
const DEGRADE_SALT_DOMAIN: u64 = 0x6;

impl FaultPlan {
    /// An empty plan (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            blackhole_addrs: BTreeSet::new(),
            blackhole_prefixes: BTreeSet::new(),
            degraded_addrs: BTreeSet::new(),
            degraded_prefixes: BTreeSet::new(),
            degrade_ppm: 0,
        }
    }

    /// Adds a rule (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the profile's rate is outside `[0, 1]`.
    #[must_use]
    pub fn with_rule(mut self, scope: FaultScope, profile: FaultProfile) -> Self {
        self.push_rule(FaultRule { scope, profile });
        self
    }

    /// Adds a rule.
    ///
    /// # Panics
    ///
    /// Panics if the profile's rate is outside `[0, 1]`.
    pub fn push_rule(&mut self, rule: FaultRule) {
        let rate = match rule.profile {
            FaultProfile::Flap { rate, .. }
            | FaultProfile::PacketLoss { rate }
            | FaultProfile::RefusedBurst { rate, .. }
            | FaultProfile::Truncation { rate, .. }
            | FaultProfile::LatencySpike { rate, .. } => rate,
        };
        assert!((0.0..=1.0).contains(&rate), "fault rate {rate} outside [0,1]");
        self.rules.push(rule);
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Blackholes additional addresses (builder style). Queries to a
    /// blackholed destination are unconditionally swallowed with
    /// [`FaultKind::Outage`], bypassing every probabilistic rule.
    #[must_use]
    pub fn with_blackholed_addrs<I: IntoIterator<Item = Ipv4Addr>>(mut self, addrs: I) -> Self {
        self.blackhole_addrs.extend(addrs);
        self
    }

    /// Blackholes additional /24 prefixes (builder style) — the anycast
    /// model: killing a prefix takes out every address announced from
    /// it, including sibling anycast sites.
    #[must_use]
    pub fn with_blackholed_prefixes<I: IntoIterator<Item = Prefix24>>(mut self, ps: I) -> Self {
        self.blackhole_prefixes.extend(ps);
        self
    }

    /// Degrades additional addresses (builder style): each delivery
    /// attempt to a degraded destination is independently dropped with
    /// probability [`degrade_ppm`](Self::with_degrade_ppm)` / 1e6`
    /// (counted as [`FaultKind::Outage`]); attempts that survive the
    /// dial see exactly the decision the base plan would have made.
    #[must_use]
    pub fn with_degraded_addrs<I: IntoIterator<Item = Ipv4Addr>>(mut self, addrs: I) -> Self {
        self.degraded_addrs.extend(addrs);
        self
    }

    /// Degrades additional /24 prefixes (builder style).
    #[must_use]
    pub fn with_degraded_prefixes<I: IntoIterator<Item = Prefix24>>(mut self, ps: I) -> Self {
        self.degraded_prefixes.extend(ps);
        self
    }

    /// Sets the degraded-destination drop probability, parts-per-million
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `ppm` exceeds 1 000 000.
    #[must_use]
    pub fn with_degrade_ppm(mut self, ppm: u32) -> Self {
        assert!(ppm <= 1_000_000, "degrade rate {ppm} ppm outside [0, 1e6]");
        self.degrade_ppm = ppm;
        self
    }

    /// The degraded addresses, sorted.
    pub fn degraded_addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.degraded_addrs.iter().copied()
    }

    /// The degraded /24s, sorted.
    pub fn degraded_prefixes(&self) -> impl Iterator<Item = Prefix24> + '_ {
        self.degraded_prefixes.iter().copied()
    }

    /// The degraded-destination drop probability, parts-per-million.
    pub fn degrade_ppm(&self) -> u32 {
        self.degrade_ppm
    }

    /// Whether the partial-outage layer applies to `dst` (with a nonzero
    /// drop rate).
    pub fn is_degraded(&self, dst: Ipv4Addr) -> bool {
        self.degrade_ppm > 0
            && (self.degraded_addrs.contains(&dst)
                || self.degraded_prefixes.contains(&prefix24(dst)))
    }

    /// Whether the outage layer swallows queries to `dst`.
    pub fn is_blackholed(&self, dst: Ipv4Addr) -> bool {
        self.blackhole_addrs.contains(&dst) || self.blackhole_prefixes.contains(&prefix24(dst))
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
            && self.blackhole_addrs.is_empty()
            && self.blackhole_prefixes.is_empty()
            && !(self.degrade_ppm > 0
                && !(self.degraded_addrs.is_empty() && self.degraded_prefixes.is_empty()))
    }

    /// Decides the fate of one delivery attempt.
    ///
    /// `attempt` is the client's cumulative attempt count for this
    /// `(dst, qname)` pair (0 for the first try; retries and round-2
    /// re-probes keep counting). `dst_queries_so_far` is how many
    /// queries the destination had already absorbed, which only the
    /// QPS-pressure profile consults.
    pub fn decide(
        &self,
        dst: Ipv4Addr,
        qname: &DomainName,
        attempt: u32,
        dst_queries_so_far: u64,
    ) -> FaultDecision {
        self.decide_hashed(dst, qname.fnv64(), attempt, dst_queries_so_far)
    }

    /// [`decide`](Self::decide) with the query name pre-hashed
    /// ([`DomainName::fnv64`]) — the hot-path form: the network computes
    /// the name hash once per delivery and reuses it for both the fault
    /// and the loss decision.
    pub fn decide_hashed(
        &self,
        dst: Ipv4Addr,
        qhash: u64,
        attempt: u32,
        dst_queries_so_far: u64,
    ) -> FaultDecision {
        let mut decision = FaultDecision::default();
        if self.is_blackholed(dst) {
            decision.drop = Some(FaultKind::Outage);
            return decision;
        }
        // The partial-outage dial: a degraded destination loses this
        // attempt with probability `degrade_ppm / 1e6`, decided under a
        // salt domain no rule shares. An attempt that survives the dial
        // falls through to the rules with untouched salts, so the
        // surviving decision stream is bit-identical to the base plan's.
        if self.is_degraded(dst) {
            let rate = f64::from(self.degrade_ppm) / 1e6;
            let salt = [
                DEGRADE_SALT_IDX,
                DEGRADE_SALT_DOMAIN,
                u64::from(u32::from(dst)),
                qhash,
                u64::from(attempt),
            ];
            if self.hits(rate, salt) {
                decision.drop = Some(FaultKind::Outage);
                return decision;
            }
        }
        if self.rules.is_empty() {
            return decision;
        }
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.scope.matches(dst) {
                continue;
            }
            let idx = idx as u64;
            match rule.profile {
                FaultProfile::Flap { rate, recover_after } => {
                    if attempt < recover_after
                        && self.hits(rate, [idx, 0x1, u64::from(u32::from(dst)), qhash, 0])
                    {
                        decision.drop = decision.drop.or(Some(FaultKind::Flap));
                    }
                }
                FaultProfile::PacketLoss { rate } => {
                    let salt = [idx, 0x2, u64::from(u32::from(dst)), qhash, u64::from(attempt)];
                    if self.hits(rate, salt) {
                        decision.drop = decision.drop.or(Some(FaultKind::Loss));
                    }
                }
                FaultProfile::RefusedBurst { after_queries, rate, recover_after } => {
                    if dst_queries_so_far >= after_queries
                        && attempt < recover_after
                        && self.hits(rate, [idx, 0x3, u64::from(u32::from(dst)), qhash, 0])
                    {
                        decision.refuse = true;
                    }
                }
                FaultProfile::Truncation { rate, recover_after } => {
                    if attempt < recover_after
                        && self.hits(rate, [idx, 0x4, u64::from(u32::from(dst)), qhash, 0])
                    {
                        decision.truncate = true;
                    }
                }
                FaultProfile::LatencySpike { rate, extra_ms } => {
                    let salt = [idx, 0x5, u64::from(u32::from(dst)), qhash, u64::from(attempt)];
                    if self.hits(rate, salt) {
                        decision.extra_delay_ms = decision.extra_delay_ms.saturating_add(extra_ms);
                    }
                }
            }
        }
        decision
    }

    /// Whether a rate-gated event fires for this salt tuple.
    fn hits(&self, rate: f64, salt: [u64; 5]) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mut h = self.seed;
        for s in salt {
            h = mix(h ^ s);
        }
        // Map the top 53 bits onto [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }
}

/// Named chaos presets — the knob [`RunnerConfig`]-level callers select
/// instead of hand-assembling rules.
///
/// [`RunnerConfig`]: ../govdns_core/struct.RunnerConfig.html
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosProfile {
    /// Flapping servers plus mild latency spikes: every fault is
    /// transient and recoverable by retries or the second round.
    Flaky,
    /// A congested path: packet loss, truncation, heavy latency spikes.
    Congested,
    /// Everything at once, including REFUSED bursts under pressure.
    Hostile,
}

impl ChaosProfile {
    /// Materializes the preset into a seeded plan.
    pub fn plan(self, seed: u64) -> FaultPlan {
        let base = FaultPlan::new(seed);
        match self {
            ChaosProfile::Flaky => base
                .with_rule(FaultScope::All, FaultProfile::Flap { rate: 0.15, recover_after: 3 })
                .with_rule(
                    FaultScope::All,
                    FaultProfile::LatencySpike { rate: 0.05, extra_ms: 250 },
                ),
            ChaosProfile::Congested => base
                .with_rule(FaultScope::All, FaultProfile::PacketLoss { rate: 0.10 })
                .with_rule(
                    FaultScope::All,
                    FaultProfile::Truncation { rate: 0.05, recover_after: 2 },
                )
                .with_rule(
                    FaultScope::All,
                    FaultProfile::LatencySpike { rate: 0.15, extra_ms: 800 },
                ),
            ChaosProfile::Hostile => base
                .with_rule(FaultScope::All, FaultProfile::Flap { rate: 0.12, recover_after: 3 })
                .with_rule(FaultScope::All, FaultProfile::PacketLoss { rate: 0.08 })
                .with_rule(
                    FaultScope::All,
                    FaultProfile::RefusedBurst { after_queries: 50, rate: 0.10, recover_after: 2 },
                )
                .with_rule(
                    FaultScope::All,
                    FaultProfile::Truncation { rate: 0.04, recover_after: 2 },
                )
                .with_rule(
                    FaultScope::All,
                    FaultProfile::LatencySpike { rate: 0.10, extra_ms: 500 },
                ),
        }
    }

    /// Parses a profile name (`flaky` / `congested` / `hostile`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "flaky" => Some(ChaosProfile::Flaky),
            "congested" => Some(ChaosProfile::Congested),
            "hostile" => Some(ChaosProfile::Hostile),
            _ => None,
        }
    }
}

impl std::fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ChaosProfile::Flaky => "flaky",
            ChaosProfile::Congested => "congested",
            ChaosProfile::Hostile => "hostile",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn dst(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, last)
    }

    #[test]
    fn empty_plan_is_clean() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_empty());
        assert!(plan.decide(dst(1), &n("a.gov.zz"), 0, 0).is_clean());
    }

    #[test]
    fn decide_hashed_matches_decide() {
        let plan = ChaosProfile::Hostile.plan(9);
        for i in 0..50u8 {
            let name = n(&format!("d{i}.gov.zz"));
            assert_eq!(
                plan.decide(dst(i), &name, u32::from(i % 4), 100),
                plan.decide_hashed(dst(i), name.fnv64(), u32::from(i % 4), 100),
            );
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = ChaosProfile::Hostile.plan(42);
        for i in 0..50u8 {
            let name = n(&format!("d{i}.gov.zz"));
            let a = plan.decide(dst(i), &name, 0, 100);
            let b = plan.decide(dst(i), &name, 0, 100);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = ChaosProfile::Flaky.plan(1);
        let b = ChaosProfile::Flaky.plan(2);
        let differs = (0..200u8).any(|i| {
            let name = n(&format!("d{i}.gov.zz"));
            a.decide(dst(i), &name, 0, 0) != b.decide(dst(i), &name, 0, 0)
        });
        assert!(differs, "200 pairs decided identically under different seeds");
    }

    #[test]
    fn flap_recovers_after_attempts() {
        let plan = FaultPlan::new(3)
            .with_rule(FaultScope::All, FaultProfile::Flap { rate: 1.0, recover_after: 2 });
        let name = n("a.gov.zz");
        assert_eq!(plan.decide(dst(1), &name, 0, 0).drop, Some(FaultKind::Flap));
        assert_eq!(plan.decide(dst(1), &name, 1, 0).drop, Some(FaultKind::Flap));
        assert!(plan.decide(dst(1), &name, 2, 0).is_clean(), "third attempt recovers");
    }

    #[test]
    fn refused_burst_needs_pressure() {
        let plan = FaultPlan::new(3).with_rule(
            FaultScope::All,
            FaultProfile::RefusedBurst { after_queries: 10, rate: 1.0, recover_after: 1 },
        );
        let name = n("a.gov.zz");
        assert!(!plan.decide(dst(1), &name, 0, 9).refuse, "below threshold");
        assert!(plan.decide(dst(1), &name, 0, 10).refuse, "limiter engaged");
        assert!(!plan.decide(dst(1), &name, 1, 10).refuse, "backoff forgiven");
    }

    #[test]
    fn scopes_restrict_targets() {
        let plan = FaultPlan::new(5)
            .with_rule(
                FaultScope::Server(dst(1)),
                FaultProfile::Flap { rate: 1.0, recover_after: 9 },
            )
            .with_rule(
                FaultScope::Prefix(prefix24(Ipv4Addr::new(198, 51, 100, 0))),
                FaultProfile::PacketLoss { rate: 1.0 },
            );
        let name = n("a.gov.zz");
        assert_eq!(plan.decide(dst(1), &name, 0, 0).drop, Some(FaultKind::Flap));
        assert!(plan.decide(dst(2), &name, 0, 0).is_clean(), "other server untouched");
        assert_eq!(
            plan.decide(Ipv4Addr::new(198, 51, 100, 7), &name, 0, 0).drop,
            Some(FaultKind::Loss)
        );
    }

    #[test]
    fn latency_spikes_compose() {
        let plan = FaultPlan::new(5)
            .with_rule(FaultScope::All, FaultProfile::LatencySpike { rate: 1.0, extra_ms: 100 })
            .with_rule(FaultScope::All, FaultProfile::LatencySpike { rate: 1.0, extra_ms: 50 });
        let d = plan.decide(dst(1), &n("a.gov.zz"), 0, 0);
        assert_eq!(d.extra_delay_ms, 150);
        assert!(d.drop.is_none());
    }

    #[test]
    fn rates_land_in_the_right_ballpark() {
        let plan =
            FaultPlan::new(11).with_rule(FaultScope::All, FaultProfile::PacketLoss { rate: 0.3 });
        let name = n("a.gov.zz");
        let hits = (0..1000u32)
            .filter(|&i| !plan.decide(Ipv4Addr::from(i * 3 + 1), &name, 0, 0).is_clean())
            .count();
        assert!((200..400).contains(&hits), "0.3 loss hit {hits}/1000");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_bad_rate() {
        let _ =
            FaultPlan::new(1).with_rule(FaultScope::All, FaultProfile::PacketLoss { rate: 1.5 });
    }

    #[test]
    fn blackholed_addr_always_times_out() {
        let plan = FaultPlan::new(1).with_blackholed_addrs([dst(9)]);
        assert!(!plan.is_empty(), "a blackhole set alone makes the plan non-empty");
        let name = n("a.gov.zz");
        for attempt in 0..5 {
            assert_eq!(plan.decide(dst(9), &name, attempt, 1_000).drop, Some(FaultKind::Outage));
        }
        assert!(plan.decide(dst(10), &name, 0, 0).is_clean(), "other server untouched");
    }

    #[test]
    fn blackholed_prefix_takes_out_siblings() {
        let p = prefix24(Ipv4Addr::new(198, 51, 100, 0));
        let plan = FaultPlan::new(1).with_blackholed_prefixes([p]);
        let name = n("a.gov.zz");
        for host in [1u8, 7, 254] {
            let addr = Ipv4Addr::new(198, 51, 100, host);
            assert!(plan.is_blackholed(addr));
            assert_eq!(plan.decide(addr, &name, 0, 0).drop, Some(FaultKind::Outage));
        }
        assert!(plan.decide(Ipv4Addr::new(198, 51, 101, 1), &name, 0, 0).is_clean());
    }

    #[test]
    fn blackhole_layer_does_not_perturb_rule_decisions() {
        let base = ChaosProfile::Hostile.plan(13);
        let layered = base.clone().with_blackholed_addrs([dst(200)]);
        for i in 0..100u8 {
            if dst(i) == dst(200) {
                continue;
            }
            let name = n(&format!("d{i}.gov.zz"));
            assert_eq!(
                base.decide(dst(i), &name, u32::from(i % 4), 60),
                layered.decide(dst(i), &name, u32::from(i % 4), 60),
                "decision changed outside the blackhole set"
            );
        }
    }

    #[test]
    fn degraded_addr_drops_some_attempts_and_only_those() {
        let plan = FaultPlan::new(21).with_degraded_addrs([dst(9)]).with_degrade_ppm(500_000);
        assert!(!plan.is_empty(), "a degraded set with a nonzero rate is a real fault");
        let name = n("a.gov.zz");
        let dropped = (0..64u32)
            .filter(|&a| plan.decide(dst(9), &name, a, 0).drop == Some(FaultKind::Outage))
            .count();
        assert!((10..55).contains(&dropped), "0.5 drop rate hit {dropped}/64 attempts");
        for a in 0..8 {
            assert!(plan.decide(dst(10), &name, a, 0).is_clean(), "other server untouched");
        }
    }

    #[test]
    fn degrade_rate_zero_is_inert() {
        let plan = FaultPlan::new(21).with_degraded_addrs([dst(9)]);
        assert!(plan.is_empty(), "a degraded set without a rate injects nothing");
        assert!(!plan.is_degraded(dst(9)));
        assert!(plan.decide(dst(9), &n("a.gov.zz"), 0, 0).is_clean());
    }

    #[test]
    fn degraded_prefix_covers_the_whole_slash24() {
        let p = prefix24(Ipv4Addr::new(198, 51, 100, 0));
        let plan = FaultPlan::new(4).with_degraded_prefixes([p]).with_degrade_ppm(1_000_000);
        let name = n("a.gov.zz");
        for host in [0u8, 9, 255] {
            let addr = Ipv4Addr::new(198, 51, 100, host);
            assert!(plan.is_degraded(addr));
            assert_eq!(plan.decide(addr, &name, 0, 0).drop, Some(FaultKind::Outage));
        }
        assert!(plan.decide(Ipv4Addr::new(198, 51, 101, 1), &name, 0, 0).is_clean());
    }

    #[test]
    fn degrade_layer_does_not_perturb_rule_decisions() {
        let base = ChaosProfile::Hostile.plan(13);
        let layered = base.clone().with_degraded_addrs([dst(200)]).with_degrade_ppm(400_000);
        for i in 0..100u8 {
            let name = n(&format!("d{i}.gov.zz"));
            let b = base.decide(dst(i), &name, u32::from(i % 4), 60);
            let l = layered.decide(dst(i), &name, u32::from(i % 4), 60);
            if dst(i) == dst(200) {
                // Inside the blast set the attempt either loses the dial
                // (outage) or sees the base decision unchanged.
                assert!(l.drop == Some(FaultKind::Outage) || l == b);
            } else {
                assert_eq!(b, l, "decision changed outside the degraded set");
            }
        }
    }

    #[test]
    fn blackhole_preempts_degrade() {
        let plan = FaultPlan::new(6)
            .with_blackholed_addrs([dst(3)])
            .with_degraded_addrs([dst(3)])
            .with_degrade_ppm(1);
        // Even at a 1-ppm dial the blackhole swallows every attempt.
        for a in 0..16 {
            assert_eq!(plan.decide(dst(3), &n("a.gov.zz"), a, 0).drop, Some(FaultKind::Outage));
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1e6]")]
    fn rejects_bad_degrade_rate() {
        let _ = FaultPlan::new(1).with_degrade_ppm(1_000_001);
    }

    #[test]
    fn outage_wins_over_rules() {
        let plan = FaultPlan::new(3)
            .with_rule(FaultScope::All, FaultProfile::Truncation { rate: 1.0, recover_after: 9 })
            .with_blackholed_addrs([dst(4)]);
        let d = plan.decide(dst(4), &n("a.gov.zz"), 0, 0);
        assert_eq!(d.drop, Some(FaultKind::Outage));
        assert!(!d.truncate, "blackhole preempts rule evaluation");
    }

    #[test]
    fn profile_names_roundtrip() {
        for p in [ChaosProfile::Flaky, ChaosProfile::Congested, ChaosProfile::Hostile] {
            assert_eq!(ChaosProfile::parse(&p.to_string()), Some(p));
            assert!(!p.plan(1).is_empty());
        }
        assert_eq!(ChaosProfile::parse("calm"), None);
    }
}
