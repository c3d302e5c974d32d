//! Query pacing — the ethics machinery of §III-D.
//!
//! The real campaign ran from one static address with a research PTR
//! record and limited its query rate. In the simulation queries are
//! instantaneous, so the limiter *accounts* instead of sleeping: it
//! tracks the total query count and computes how long the campaign would
//! take at the configured rate, which the report surfaces.
//!
//! Beyond the total, the limiter keeps a per-round and per-destination
//! **query ledger** — the accounting a reviewer would ask for when
//! judging whether the campaign stayed within its self-imposed load
//! bounds. [`RateLimiter::ledger`] freezes it into a
//! [`QueryLedger`](govdns_telemetry::QueryLedger).

use std::net::Ipv4Addr;
use std::sync::Arc;

use govdns_simnet::ShardedCounts;
use govdns_telemetry::{Counter, QueryLedger, Registry, Stripes};

/// The phase of the campaign a query belongs to, for ledger accounting.
///
/// The paper's probing runs in two passes (round 1, then a round-2
/// retry for domains that looked dead), plus SOA consistency checks and
/// side lookups done through the stub resolver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryRound {
    /// First-pass delegation walk and child-side probing.
    Round1,
    /// Second-pass retry of unresponsive domains.
    Round2,
    /// SOA serial fetches for the consistency analysis.
    Soa,
    /// Stub-resolver side lookups (out-of-zone NS targets).
    Side,
    /// Adaptive backoff retries of faulted exchanges.
    Retry,
}

impl QueryRound {
    /// Stable label used as the ledger key.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryRound::Round1 => "round1",
            QueryRound::Round2 => "round2",
            QueryRound::Soa => "soa",
            QueryRound::Side => "side",
            QueryRound::Retry => "retry",
        }
    }

    /// The round's position in the campaign's probing schedule: 1 for
    /// first-pass traffic (round 1, side lookups, their retries), 2 for
    /// everything that runs after the first pass (round 2, SOA checks).
    ///
    /// Circuit-breaker cooldowns are measured in this rank — "wait one
    /// round" means a breaker opened during the first pass admits its
    /// half-open trial in round 2 — which keeps breaker behaviour a
    /// pure function of campaign structure rather than wall-clock time.
    pub fn rank(self) -> u32 {
        match self {
            QueryRound::Round1 | QueryRound::Side | QueryRound::Retry => 1,
            QueryRound::Round2 | QueryRound::Soa => 2,
        }
    }

    /// Every round, in ledger-index order (the order
    /// [`LimiterState::per_round`] uses).
    pub const ALL: [QueryRound; 5] = [
        QueryRound::Round1,
        QueryRound::Round2,
        QueryRound::Soa,
        QueryRound::Side,
        QueryRound::Retry,
    ];

    /// The round's [`Inner::counts`] cell; cell 0 is the total.
    fn cell(self) -> usize {
        match self {
            QueryRound::Round1 => 1,
            QueryRound::Round2 => 2,
            QueryRound::Soa => 3,
            QueryRound::Side => 4,
            QueryRound::Retry => 5,
        }
    }
}

/// A frozen copy of a limiter's complete ledger state, exported by
/// [`RateLimiter::export_state`] for campaign-journal checkpoints and
/// replayed by [`RateLimiter::restore_state`] on resume.
///
/// Both per-destination maps are kept as sorted vectors so the
/// serialized form is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LimiterState {
    /// Total queries issued.
    pub issued: u64,
    /// Per-round totals, indexed like [`QueryRound::ALL`].
    pub per_round: [u64; 5],
    /// Per-destination query counts, sorted by address.
    pub per_destination: Vec<(Ipv4Addr, u64)>,
    /// Per-destination backoff-retry charges, sorted by address.
    pub per_destination_retries: Vec<(Ipv4Addr, u64)>,
}

/// The [`Inner::counts`] cell of the total.
const ISSUED: usize = 0;

/// A shared query-budget meter with per-round and per-destination
/// ledger accounting.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Queries issued: the total in cell 0, then one cell per round
    /// (see [`QueryRound::cell`]), in per-thread stripes.
    counts: Stripes,
    max_qps: u32,
    /// Per-destination soft cap for ledger reporting; `None` means
    /// uncapped — an explicit state, not a zero sentinel a default could
    /// silently select.
    destination_cap: Option<u64>,
    per_destination: ShardedCounts,
    /// Backoff retries already charged to each destination, for the
    /// per-destination retry budget.
    per_destination_retries: ShardedCounts,
    /// Mirror of `issued` in the telemetry registry, when attached.
    counter: Option<Counter>,
}

impl RateLimiter {
    /// Creates a limiter capped at `max_qps` queries per second.
    ///
    /// # Panics
    ///
    /// Panics if `max_qps` is zero.
    pub fn new(max_qps: u32) -> Self {
        RateLimiter::build(max_qps, None, None)
    }

    /// Creates a limiter that mirrors its total into `registry` as the
    /// `ratelimit.issued` counter and reports destinations exceeding
    /// `destination_cap` queries in the ledger (`None` = uncapped).
    ///
    /// # Panics
    ///
    /// Panics if `max_qps` is zero.
    pub fn with_telemetry(max_qps: u32, destination_cap: Option<u64>, registry: &Registry) -> Self {
        RateLimiter::build(max_qps, destination_cap, Some(registry.counter("ratelimit.issued")))
    }

    fn build(max_qps: u32, destination_cap: Option<u64>, counter: Option<Counter>) -> Self {
        assert!(max_qps > 0, "rate limit must be positive");
        RateLimiter {
            inner: Arc::new(Inner {
                counts: Stripes::new(1 + QueryRound::ALL.len()),
                max_qps,
                destination_cap,
                per_destination: ShardedCounts::new(),
                per_destination_retries: ShardedCounts::new(),
                counter,
            }),
        }
    }

    /// Accounts for one query about to be sent (booked as round 1).
    pub fn acquire(&self) {
        self.acquire_for(QueryRound::Round1, None);
    }

    /// Accounts for one query in `round`, optionally attributed to a
    /// destination for the per-destination cap ledger.
    pub fn acquire_for(&self, round: QueryRound, dst: Option<Ipv4Addr>) {
        self.account(round, 1);
        if let Some(dst) = dst {
            self.inner.per_destination.update(dst, |n| *n += 1);
        }
    }

    /// Tries to charge one backoff retry against `dst`'s retry budget.
    ///
    /// Returns `false` — and books nothing — when the destination has
    /// already burned `budget` retries; the probe client must then stop
    /// retrying and take the degraded observation as final. A `budget`
    /// of `None` is unlimited. Approved retries are booked into the
    /// [`QueryRound::Retry`] ledger slot and the per-destination ledger.
    pub fn try_acquire_retry(&self, dst: Ipv4Addr, budget: Option<u64>) -> bool {
        // Charge atomically under the shard lock, unless the budget is
        // already spent. A denied charge still creates the entry at zero.
        let charged = self.inner.per_destination_retries.update(dst, |spent| {
            let allowed = budget.is_none_or(|b| *spent < b);
            *spent += u64::from(allowed);
            allowed
        });
        if !charged {
            return false;
        }
        self.acquire_for(QueryRound::Retry, Some(dst));
        true
    }

    /// Backoff retries charged to `dst` so far.
    pub fn retries_charged(&self, dst: Ipv4Addr) -> u64 {
        self.inner.per_destination_retries.get(dst)
    }

    /// Books `n` queries issued on the limiter's behalf by a component
    /// that does its own sending (the stub resolver reports how many
    /// lookups a resolution cost after the fact).
    pub fn account(&self, round: QueryRound, n: u64) {
        if n == 0 {
            return;
        }
        let counts = self.inner.counts.local();
        counts.add(ISSUED, n);
        counts.add(round.cell(), n);
        if let Some(c) = &self.inner.counter {
            c.add(n);
        }
    }

    /// Total queries issued so far.
    pub fn issued(&self) -> u64 {
        self.inner.counts.sum(ISSUED)
    }

    /// Queries issued so far in `round`.
    pub fn issued_in(&self, round: QueryRound) -> u64 {
        self.inner.counts.sum(round.cell())
    }

    /// The configured cap.
    pub fn max_qps(&self) -> u32 {
        self.inner.max_qps
    }

    /// The per-destination soft cap (`None` = uncapped).
    pub fn destination_cap(&self) -> Option<u64> {
        self.inner.destination_cap
    }

    /// Exports the full ledger state for a campaign-journal checkpoint:
    /// totals, per-round splits, and both per-destination maps, with the
    /// maps in sorted order so the serialized checkpoint is byte-stable.
    pub fn export_state(&self) -> LimiterState {
        LimiterState {
            issued: self.issued(),
            per_round: QueryRound::ALL.map(|r| self.issued_in(r)),
            per_destination: self.inner.per_destination.snapshot_sorted(),
            per_destination_retries: self.inner.per_destination_retries.snapshot_sorted(),
        }
    }

    /// What a journal delta checkpoint records: the totals and per-round
    /// splits in full, and only the per-destination entries that moved
    /// since the previous call (or the last
    /// [`restore_state`](RateLimiter::restore_state)), at their current
    /// values and sorted by address.
    pub fn take_changes(&self) -> LimiterState {
        LimiterState {
            issued: self.issued(),
            per_round: QueryRound::ALL.map(|r| self.issued_in(r)),
            per_destination: self.inner.per_destination.take_changes(),
            per_destination_retries: self.inner.per_destination_retries.take_changes(),
        }
    }

    /// Overwrites the ledger with a checkpointed [`LimiterState`] — the
    /// resume path. Restoring also advances the mirrored
    /// `ratelimit.issued` telemetry counter by the restored total, so
    /// the counter keeps equalling [`issued`](RateLimiter::issued) on a
    /// resumed run. The retry map is what prevents double-charging: a
    /// destination that burned its [`QueryRound::Retry`] budget before
    /// the crash stays burned after resume.
    pub fn restore_state(&self, state: &LimiterState) {
        let previously_issued = self.issued();
        self.inner.counts.restore(ISSUED, state.issued);
        for (round, &value) in QueryRound::ALL.iter().zip(&state.per_round) {
            self.inner.counts.restore(round.cell(), value);
        }
        self.inner.per_destination.restore(state.per_destination.iter().copied());
        self.inner.per_destination_retries.restore(state.per_destination_retries.iter().copied());
        if let Some(c) = &self.inner.counter {
            c.add(state.issued.saturating_sub(previously_issued));
        }
    }

    /// Wall-clock seconds the campaign would need at the configured rate.
    pub fn paced_duration_secs(&self) -> u64 {
        self.issued().div_ceil(u64::from(self.inner.max_qps))
    }

    /// Freezes the ledger: totals, per-round splits, and the
    /// per-destination cap accounting for the ethics section.
    pub fn ledger(&self) -> QueryLedger {
        let cap = self.inner.destination_cap;
        // One pass over the sharded ledger: busiest destination, distinct
        // destination count, and how many are at the soft cap.
        let (busiest, distinct, at_cap) = self.inner.per_destination.fold(
            (0u64, 0u64, 0u64),
            |(busiest, distinct, at_cap), _addr, count| {
                (
                    busiest.max(count),
                    distinct + 1,
                    at_cap + u64::from(cap.is_some_and(|cap| count >= cap)),
                )
            },
        );
        QueryLedger {
            total: self.issued(),
            per_round: QueryRound::ALL
                .iter()
                .map(|&r| (r.as_str().to_owned(), self.issued_in(r)))
                .filter(|&(_, n)| n > 0)
                .collect(),
            max_qps: self.inner.max_qps,
            // The serialized ledger keeps the 0-as-uncapped convention.
            destination_cap: cap.unwrap_or(0),
            distinct_destinations: distinct,
            busiest_destination_queries: busiest,
            destinations_at_cap: at_cap,
        }
    }
}

impl Default for RateLimiter {
    /// 200 queries per second — modest for a research scanner.
    fn default() -> Self {
        RateLimiter::new(200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_paces() {
        let rl = RateLimiter::new(100);
        for _ in 0..250 {
            rl.acquire();
        }
        assert_eq!(rl.issued(), 250);
        assert_eq!(rl.paced_duration_secs(), 3);
        assert_eq!(rl.max_qps(), 100);
    }

    #[test]
    fn clones_share_the_budget() {
        let rl = RateLimiter::new(10);
        let rl2 = rl.clone();
        rl.acquire();
        rl2.acquire();
        assert_eq!(rl.issued(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_rate() {
        RateLimiter::new(0);
    }

    #[test]
    fn ledger_splits_rounds_and_destinations() {
        let rl = RateLimiter::with_telemetry(100, Some(3), &Registry::new());
        let a = Ipv4Addr::new(192, 0, 2, 1);
        let b = Ipv4Addr::new(192, 0, 2, 2);
        for _ in 0..4 {
            rl.acquire_for(QueryRound::Round1, Some(a));
        }
        rl.acquire_for(QueryRound::Round2, Some(b));
        rl.acquire_for(QueryRound::Soa, None);
        rl.account(QueryRound::Side, 2);

        let ledger = rl.ledger();
        assert_eq!(ledger.total, 8);
        assert_eq!(ledger.per_round["round1"], 4);
        assert_eq!(ledger.per_round["round2"], 1);
        assert_eq!(ledger.per_round["soa"], 1);
        assert_eq!(ledger.per_round["side"], 2);
        assert_eq!(ledger.distinct_destinations, 2);
        assert_eq!(ledger.busiest_destination_queries, 4);
        assert_eq!(ledger.destinations_at_cap, 1);
        assert!(!ledger.within_cap());
    }

    #[test]
    fn telemetry_counter_mirrors_issued() {
        let registry = Registry::new();
        let rl = RateLimiter::with_telemetry(50, None, &registry);
        rl.acquire();
        rl.account(QueryRound::Side, 3);
        assert_eq!(rl.issued(), 4);
        assert_eq!(registry.snapshot().counters["ratelimit.issued"], 4);
        assert!(rl.ledger().within_cap());
    }

    #[test]
    fn retry_budget_denies_after_exhaustion() {
        let rl = RateLimiter::new(100);
        let a = Ipv4Addr::new(192, 0, 2, 1);
        let b = Ipv4Addr::new(192, 0, 2, 2);
        assert!(rl.try_acquire_retry(a, Some(2)));
        assert!(rl.try_acquire_retry(a, Some(2)));
        assert!(!rl.try_acquire_retry(a, Some(2)), "budget of 2 exhausted");
        assert!(rl.try_acquire_retry(b, Some(2)), "budgets are per-destination");
        assert_eq!(rl.retries_charged(a), 2);
        assert_eq!(rl.issued_in(QueryRound::Retry), 3);
        assert_eq!(rl.ledger().per_round["retry"], 3);
        // Denied retries are not booked anywhere.
        assert_eq!(rl.issued(), 3);
    }

    #[test]
    fn unlimited_retry_budget_never_denies() {
        let rl = RateLimiter::new(100);
        let a = Ipv4Addr::new(192, 0, 2, 1);
        for _ in 0..50 {
            assert!(rl.try_acquire_retry(a, None));
        }
        assert_eq!(rl.retries_charged(a), 50);
    }

    #[test]
    fn state_round_trips_and_mirrors_the_counter() {
        let registry = Registry::new();
        let rl = RateLimiter::with_telemetry(100, Some(3), &registry);
        let a = Ipv4Addr::new(192, 0, 2, 1);
        let b = Ipv4Addr::new(192, 0, 2, 2);
        for _ in 0..4 {
            rl.acquire_for(QueryRound::Round1, Some(a));
        }
        rl.acquire_for(QueryRound::Round2, Some(b));
        assert!(rl.try_acquire_retry(a, Some(2)));
        let state = rl.export_state();
        assert_eq!(state.issued, 6);
        assert_eq!(state.per_round, [4, 1, 0, 0, 1]);
        assert_eq!(state.per_destination, vec![(a, 5), (b, 1)]);
        assert_eq!(state.per_destination_retries, vec![(a, 1)]);

        // Restore into a fresh limiter: ledger, retry budget, and the
        // telemetry mirror all line up with the original.
        let registry2 = Registry::new();
        let fresh = RateLimiter::with_telemetry(100, Some(3), &registry2);
        fresh.restore_state(&state);
        assert_eq!(fresh.export_state(), state);
        assert_eq!(fresh.ledger(), rl.ledger());
        assert_eq!(registry2.snapshot().counters["ratelimit.issued"], fresh.issued());
        assert_eq!(fresh.retries_charged(a), 1);
        assert!(fresh.try_acquire_retry(a, Some(2)));
        assert!(!fresh.try_acquire_retry(a, Some(2)), "restored charges count against the budget");
    }

    #[test]
    fn sharded_export_is_sorted_and_round_trips_across_many_destinations() {
        // Enough destinations to populate every shard: export order must
        // stay globally sorted by address (the byte-stability contract
        // journal checkpoints rely on), and a restore must land every
        // entry back in the shard lookups expect it in.
        let rl = RateLimiter::new(100);
        for i in 0..200u32 {
            let dst = Ipv4Addr::from(0xc633_6400 | (i % 100)); // 198.51.100.x
            rl.acquire_for(QueryRound::Round1, Some(dst));
            if i % 3 == 0 {
                assert!(rl.try_acquire_retry(dst, None));
            }
        }
        let state = rl.export_state();
        assert!(
            state.per_destination.windows(2).all(|w| w[0].0 < w[1].0),
            "per-destination export must be strictly sorted by address"
        );
        assert!(state.per_destination_retries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(state.per_destination.iter().map(|&(_, c)| c).sum::<u64>(), 200 + 67);

        let fresh = RateLimiter::new(100);
        fresh.restore_state(&state);
        assert_eq!(fresh.export_state(), state);
        for &(dst, charged) in &state.per_destination_retries {
            assert_eq!(fresh.retries_charged(dst), charged);
        }
    }

    #[test]
    fn take_changes_reports_the_moved_entries_once() {
        let rl = RateLimiter::new(100);
        let (a, b, c) = (
            Ipv4Addr::new(192, 0, 2, 9),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 51, 100, 3),
        );
        rl.acquire_for(QueryRound::Round1, Some(a));
        rl.acquire_for(QueryRound::Round1, Some(b));
        rl.acquire_for(QueryRound::Soa, None);
        assert!(rl.try_acquire_retry(a, Some(1)));
        assert!(!rl.try_acquire_retry(c, Some(0)), "a zero budget denies");
        let changes = rl.take_changes();
        assert_eq!(changes.issued, 4);
        assert_eq!(changes.per_round, [2, 0, 1, 0, 1]);
        assert_eq!(changes.per_destination, vec![(b, 1), (a, 2)], "sorted, absolute values");
        // A denied charge still created the entry the full export carries.
        assert_eq!(changes.per_destination_retries, vec![(a, 1), (c, 0)]);
        assert_eq!(changes.per_destination_retries, rl.export_state().per_destination_retries);

        let again = rl.take_changes();
        assert!(again.per_destination.is_empty() && again.per_destination_retries.is_empty());
        assert_eq!((again.issued, again.per_round), (changes.issued, changes.per_round));
        rl.acquire_for(QueryRound::Round2, Some(b));
        assert_eq!(rl.take_changes().per_destination, vec![(b, 2)]);

        // Restoring is the new base: it leaves nothing pending.
        rl.acquire_for(QueryRound::Round1, Some(c));
        rl.restore_state(&rl.export_state());
        let after = rl.take_changes();
        assert!(after.per_destination.is_empty() && after.per_destination_retries.is_empty());
    }

    #[test]
    fn empty_rounds_are_omitted_from_ledger() {
        let rl = RateLimiter::new(10);
        rl.acquire();
        let ledger = rl.ledger();
        assert_eq!(ledger.per_round.len(), 1);
        assert!(ledger.per_round.contains_key("round1"));
    }
}
