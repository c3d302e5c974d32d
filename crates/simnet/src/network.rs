use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::RwLock;

use govdns_model::{wire, Message, Rcode};
use govdns_telemetry::{Counter, Histogram, Registry, Stripes};

use crate::addr::{mix, ShardedCounts};
use crate::{AuthoritativeServer, FaultDecision, FaultKind, FaultPlan, FaultStats, LatencyModel};

/// Cached telemetry handles for the per-query hot path: interned once
/// at attach time so `deliver` touches per-thread stripes only.
#[derive(Debug)]
struct NetSink {
    queries: Counter,
    replies: Counter,
    timeouts: Counter,
    lost: Counter,
    rtt_ms: Histogram,
    query_bytes: Histogram,
    response_bytes: Histogram,
    fault_flap: Counter,
    fault_loss: Counter,
    fault_refused: Counter,
    fault_truncated: Counter,
    fault_delayed: Counter,
    fault_outages: Counter,
}

impl NetSink {
    fn new(registry: &Registry) -> Self {
        NetSink {
            queries: registry.counter("net.queries"),
            replies: registry.counter("net.replies"),
            timeouts: registry.counter("net.timeouts"),
            lost: registry.counter("net.lost"),
            rtt_ms: registry.histogram_latency_ms("net.rtt_ms"),
            query_bytes: registry.histogram_bytes("net.query_bytes"),
            response_bytes: registry.histogram_bytes("net.response_bytes"),
            fault_flap: registry.counter("fault.flap_timeouts"),
            fault_loss: registry.counter("fault.losses"),
            fault_refused: registry.counter("fault.refused"),
            fault_truncated: registry.counter("fault.truncated"),
            fault_delayed: registry.counter("fault.delayed"),
            fault_outages: registry.counter("fault.outages"),
        }
    }

    fn count_fault(&self, kind: FaultKind) {
        match kind {
            FaultKind::Flap => self.fault_flap.inc(),
            FaultKind::Loss => self.fault_loss.inc(),
            FaultKind::Refused => self.fault_refused.inc(),
            FaultKind::Truncated => self.fault_truncated.inc(),
            FaultKind::Delayed => self.fault_delayed.inc(),
            FaultKind::Outage => self.fault_outages.inc(),
        }
    }
}

/// The result of sending one query into the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// A response arrived after `rtt_ms`.
    Reply {
        /// The response message.
        msg: Message,
        /// Observed round-trip time, milliseconds.
        rtt_ms: u32,
    },
    /// No response; the querier gave up after `waited_ms`.
    Timeout {
        /// Time wasted waiting, milliseconds.
        waited_ms: u32,
    },
}

impl DeliveryOutcome {
    /// The response, if one arrived.
    pub fn reply(&self) -> Option<&Message> {
        match self {
            DeliveryOutcome::Reply { msg, .. } => Some(msg),
            DeliveryOutcome::Timeout { .. } => None,
        }
    }

    /// Time the exchange cost the querier, milliseconds.
    pub fn elapsed_ms(&self) -> u32 {
        match self {
            DeliveryOutcome::Reply { rtt_ms, .. } => *rtt_ms,
            DeliveryOutcome::Timeout { waited_ms } => *waited_ms,
        }
    }
}

/// What the chaos and loss layers decided about one delivery attempt —
/// the per-query verdict a flight recorder wants alongside the
/// [`DeliveryOutcome`]. Returned by
/// [`SimNetwork::deliver_attempt_traced`]; plain data, no accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryTrace {
    /// The fault plan's verdict (all-clean when no plan is installed).
    pub fault: FaultDecision,
    /// Whether baseline (world-level) packet loss swallowed the query.
    pub lost: bool,
}

impl DeliveryTrace {
    /// A stable label for the verdict that changed this delivery, if
    /// any: the drop kind, `refused`, `truncated`, `delayed`, or
    /// `baseline_loss`. Precedence mirrors the delivery path.
    pub fn verdict(&self) -> Option<&'static str> {
        if let Some(kind) = self.fault.drop {
            return Some(match kind {
                FaultKind::Flap => "flap",
                FaultKind::Loss => "loss",
                FaultKind::Refused => "refused",
                FaultKind::Truncated => "truncated",
                FaultKind::Delayed => "delayed",
                FaultKind::Outage => "outage",
            });
        }
        if self.lost {
            return Some("baseline_loss");
        }
        if self.fault.refuse {
            return Some("refused");
        }
        if self.fault.truncate {
            return Some("truncated");
        }
        if self.fault.extra_delay_ms > 0 {
            return Some("delayed");
        }
        None
    }
}

/// Aggregate traffic counters, kept in wire-format bytes so the simulated
/// measurement campaign's footprint is comparable to a real one (the
/// paper's ethics section is about exactly this load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Queries sent into the network.
    pub queries_sent: u64,
    /// Responses received.
    pub responses_received: u64,
    /// Exchanges that ended in a timeout.
    pub timeouts: u64,
    /// Query bytes on the wire.
    pub bytes_sent: u64,
    /// Response bytes on the wire.
    pub bytes_received: u64,
    /// Sum of round-trip/wait times, milliseconds.
    pub total_wait_ms: u64,
}

/// [`TrafficStats`] and [`FaultStats`] in per-thread stripes (see
/// [`Stripes`]): every worker adds to cache lines of its own instead of
/// passing shared ones between cores on every query, and a snapshot
/// sums the stripes. Cross-field consistency is only needed at snapshot
/// time, after the probing workers have drained — which is when
/// `stats()` is read.
#[derive(Debug)]
struct Accounting {
    cells: Stripes,
}

/// Cells of [`Accounting`]: the [`TrafficStats`] fields in order, then
/// one per [`FaultKind`] from `FAULTS` on, in [`FaultStats`] order.
const QUERIES_SENT: usize = 0;
const RESPONSES_RECEIVED: usize = 1;
const TIMEOUTS: usize = 2;
const BYTES_SENT: usize = 3;
const BYTES_RECEIVED: usize = 4;
const TOTAL_WAIT_MS: usize = 5;
const FAULTS: usize = 6;

fn fault_cell(kind: FaultKind) -> usize {
    FAULTS
        + match kind {
            FaultKind::Flap => 0,
            FaultKind::Loss => 1,
            FaultKind::Refused => 2,
            FaultKind::Truncated => 3,
            FaultKind::Delayed => 4,
            FaultKind::Outage => 5,
        }
}

impl Default for Accounting {
    fn default() -> Self {
        Accounting { cells: Stripes::new(FAULTS + 6) }
    }
}

impl Accounting {
    fn traffic(&self) -> TrafficStats {
        let c = |cell| self.cells.sum(cell);
        TrafficStats {
            queries_sent: c(QUERIES_SENT),
            responses_received: c(RESPONSES_RECEIVED),
            timeouts: c(TIMEOUTS),
            bytes_sent: c(BYTES_SENT),
            bytes_received: c(BYTES_RECEIVED),
            total_wait_ms: c(TOTAL_WAIT_MS),
        }
    }

    fn faults(&self) -> FaultStats {
        let c = |kind| self.cells.sum(fault_cell(kind));
        FaultStats {
            flap_timeouts: c(FaultKind::Flap),
            losses: c(FaultKind::Loss),
            refused: c(FaultKind::Refused),
            truncated: c(FaultKind::Truncated),
            delayed: c(FaultKind::Delayed),
            outages: c(FaultKind::Outage),
        }
    }

    fn restore(&self, t: TrafficStats, f: FaultStats) {
        let values = [
            t.queries_sent,
            t.responses_received,
            t.timeouts,
            t.bytes_sent,
            t.bytes_received,
            t.total_wait_ms,
            f.flap_timeouts,
            f.losses,
            f.refused,
            f.truncated,
            f.delayed,
            f.outages,
        ];
        for (cell, value) in values.into_iter().enumerate() {
            self.cells.restore(cell, value);
        }
    }
}

/// The simulated internet: a routing table from IPv4 addresses to
/// authoritative servers, plus latency, loss, and traffic accounting.
///
/// `SimNetwork` is `Sync`; the measurement runner queries it from many
/// threads at once, as the real campaign parallelized its lookups. The
/// per-query hot path is deliberately lock-light: traffic and fault
/// counters are per-thread stripes, per-destination ordinals live in a
/// sharded table, the telemetry/fault plans are read through one brief
/// `RwLock` access each, and packet loss is a pure hash — no global
/// mutex or shared RNG is touched between deliveries.
#[derive(Debug)]
pub struct SimNetwork {
    servers: HashMap<Ipv4Addr, AuthoritativeServer>,
    loss_rate: f64,
    /// Seed for the deterministic loss hash (see `loss_hits`).
    seed: u64,
    accounting: Accounting,
    per_destination: ShardedCounts,
    telemetry: RwLock<Option<Arc<NetSink>>>,
    faults: RwLock<Option<Arc<FaultPlan>>>,
}

impl SimNetwork {
    /// Creates an empty network with no loss and wide-area latency.
    pub fn new(seed: u64) -> Self {
        SimNetwork {
            servers: HashMap::new(),
            loss_rate: 0.0,
            seed,
            accounting: Accounting::default(),
            per_destination: ShardedCounts::new(),
            telemetry: RwLock::new(None),
            faults: RwLock::new(None),
        }
    }

    /// Starts mirroring per-query traffic into `registry`: counters
    /// `net.{queries,replies,timeouts,lost}`, the `net.rtt_ms` latency
    /// histogram, and `net.{query,response}_bytes` size histograms.
    ///
    /// Takes `&self` because the runner only ever holds a shared
    /// reference to the network. Recording never touches simulated
    /// outcomes, so attaching telemetry cannot perturb them.
    pub fn attach_telemetry(&self, registry: &Registry) {
        *self.telemetry.write() = Some(Arc::new(NetSink::new(registry)));
    }

    /// Installs a fault plan; every subsequent delivery consults it.
    /// `None` (or an empty plan) restores clean delivery.
    ///
    /// Takes `&self` for the same reason as [`attach_telemetry`]: by the
    /// time the runner decides to inject chaos it only holds a shared
    /// reference. Fault decisions are pure hashes, so a plan cannot
    /// perturb the baseline loss stream — and because deliveries only
    /// hold the plan lock long enough to clone an `Arc`, installing a
    /// plan never stalls in-flight traffic.
    ///
    /// [`attach_telemetry`]: SimNetwork::attach_telemetry
    pub fn install_faults(&self, plan: Option<FaultPlan>) {
        *self.faults.write() = plan.filter(|p| !p.is_empty()).map(Arc::new);
    }

    /// Sets a fault plan (builder style); see [`install_faults`].
    ///
    /// [`install_faults`]: SimNetwork::install_faults
    #[must_use]
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.install_faults(Some(plan));
        self
    }

    /// A snapshot of the injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.accounting.faults()
    }

    /// Sets the packet-loss probability per exchange, in `[0, 1]`.
    ///
    /// Loss is decided by a deterministic hash of
    /// `(seed, destination, qname, attempt)` — the same construction
    /// fault-plan packet loss uses — so each retry of an exchange is an
    /// independent draw, and the verdict for a given attempt does not
    /// depend on how many workers are probing or how their queries
    /// interleave.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    pub fn with_loss_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate {rate} outside [0,1]");
        self.loss_rate = rate;
        self
    }

    /// Registers a server at its address.
    ///
    /// # Panics
    ///
    /// Panics if the address is already taken — address plans are
    /// generated, so a collision is a construction bug.
    pub fn add_server(&mut self, server: AuthoritativeServer) {
        let addr = server.addr();
        let prev = self.servers.insert(addr, server);
        assert!(prev.is_none(), "duplicate server at {addr}");
    }

    /// The server bound to `addr`, if any.
    pub fn server(&self, addr: Ipv4Addr) -> Option<&AuthoritativeServer> {
        self.servers.get(&addr)
    }

    /// Number of registered servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Iterates over all registered servers.
    pub fn servers(&self) -> impl Iterator<Item = &AuthoritativeServer> {
        self.servers.values()
    }

    /// Whether baseline packet loss drops this attempt: a pure
    /// SplitMix64 fold over `(seed, dst, qname-hash, attempt)`, mapped
    /// onto `[0, 1)` exactly like fault-plan rates.
    fn loss_hits(&self, dst: Ipv4Addr, qhash: u64, attempt: u32) -> bool {
        if self.loss_rate <= 0.0 {
            return false;
        }
        if self.loss_rate >= 1.0 {
            return true;
        }
        let mut h = self.seed;
        for s in [0x6c6f_7373, u64::from(u32::from(dst)), qhash, u64::from(attempt)] {
            h = mix(h ^ s);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.loss_rate
    }

    /// Sends `query` to `dst` and waits for the outcome.
    ///
    /// Unrouted addresses and [`ServerBehavior::Unresponsive`] servers both
    /// produce a timeout — from the vantage point they are
    /// indistinguishable, which is exactly the ambiguity the paper's
    /// second-round retries exist to resolve.
    ///
    /// [`ServerBehavior::Unresponsive`]: crate::ServerBehavior::Unresponsive
    pub fn deliver(&self, dst: Ipv4Addr, query: &Message) -> DeliveryOutcome {
        self.deliver_attempt(dst, query, 0)
    }

    /// [`deliver`], with the client's cumulative attempt number for this
    /// `(dst, qname)` pair so the installed [`FaultPlan`] (if any) can
    /// model transient faults that recover under retry pressure.
    ///
    /// [`deliver`]: SimNetwork::deliver
    pub fn deliver_attempt(&self, dst: Ipv4Addr, query: &Message, attempt: u32) -> DeliveryOutcome {
        self.deliver_attempt_traced(dst, query, attempt).0
    }

    /// [`deliver_attempt`], additionally reporting what the fault and
    /// loss layers decided — the flight recorder's view of the attempt.
    /// This *is* the delivery path (`deliver_attempt` delegates here),
    /// so tracing can never observe different accounting than an
    /// untraced run.
    ///
    /// [`deliver_attempt`]: SimNetwork::deliver_attempt
    pub fn deliver_attempt_traced(
        &self,
        dst: Ipv4Addr,
        query: &Message,
        attempt: u32,
    ) -> (DeliveryOutcome, DeliveryTrace) {
        let qbytes = wire::encoded_len(query) as u64;
        let account = self.accounting.cells.local();
        account.add(QUERIES_SENT, 1);
        account.add(BYTES_SENT, qbytes);
        // Post-increment: how many queries the destination had absorbed
        // before this one.
        let dst_queries_so_far = self.per_destination.update(dst, |n| {
            *n += 1;
            *n - 1
        });
        // One name hash per delivery, shared by the loss and fault
        // decisions; one brief read-lock each to clone the Arc handles,
        // so neither `install_faults` nor `attach_telemetry` can stall
        // behind an in-flight delivery (or vice versa).
        let qhash = query.question.name.fnv64();
        let lost = self.loss_hits(dst, qhash, attempt);
        let plan = self.faults.read().clone();
        let fault = match &plan {
            Some(plan) => plan.decide_hashed(dst, qhash, attempt, dst_queries_so_far),
            None => Default::default(),
        };
        let sink = self.telemetry.read().clone();
        let count_fault = |kind: FaultKind| {
            account.add(fault_cell(kind), 1);
            if let Some(sink) = &sink {
                sink.count_fault(kind);
            }
        };
        if fault.extra_delay_ms > 0 {
            count_fault(FaultKind::Delayed);
        }
        let reply = if lost || fault.drop.is_some() {
            if let Some(kind) = fault.drop {
                count_fault(kind);
            }
            None
        } else if fault.refuse && self.servers.contains_key(&dst) {
            count_fault(FaultKind::Refused);
            Some(query.response().with_rcode(Rcode::Refused))
        } else {
            let mut msg = self.servers.get(&dst).and_then(|s| s.handle(query));
            if fault.truncate {
                if let Some(msg) = &mut msg {
                    count_fault(FaultKind::Truncated);
                    msg.truncate();
                }
            }
            msg
        };
        if let Some(sink) = &sink {
            sink.queries.inc();
            sink.query_bytes.record(qbytes as f64);
            if lost {
                sink.lost.inc();
            }
        }
        let outcome = match reply {
            Some(msg) => {
                let rtt_ms =
                    LatencyModel::default().rtt_ms(dst).saturating_add(fault.extra_delay_ms);
                let rbytes = wire::encoded_len(&msg) as u64;
                if let Some(sink) = &sink {
                    sink.replies.inc();
                    sink.rtt_ms.record(f64::from(rtt_ms));
                    sink.response_bytes.record(rbytes as f64);
                }
                account.add(RESPONSES_RECEIVED, 1);
                account.add(BYTES_RECEIVED, rbytes);
                account.add(TOTAL_WAIT_MS, u64::from(rtt_ms));
                DeliveryOutcome::Reply { msg, rtt_ms }
            }
            None => {
                let waited_ms =
                    LatencyModel::default().timeout_ms.saturating_add(fault.extra_delay_ms);
                if let Some(sink) = &sink {
                    sink.timeouts.inc();
                    sink.rtt_ms.record(f64::from(waited_ms));
                }
                account.add(TIMEOUTS, 1);
                account.add(TOTAL_WAIT_MS, u64::from(waited_ms));
                DeliveryOutcome::Timeout { waited_ms }
            }
        };
        (outcome, DeliveryTrace { fault, lost })
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.accounting.traffic()
    }

    /// Every destination's cumulative query count, sorted by address —
    /// the full accounting behind [`busiest_destinations`], exported in
    /// a stable order so a campaign journal can checkpoint it.
    ///
    /// [`busiest_destinations`]: SimNetwork::busiest_destinations
    pub fn per_destination_snapshot(&self) -> Vec<(Ipv4Addr, u64)> {
        self.per_destination.snapshot_sorted()
    }

    /// The per-destination counts that moved since the previous call (or
    /// the last [`restore_accounting`](SimNetwork::restore_accounting)),
    /// sorted by address — what a journal delta checkpoint records.
    pub fn take_per_destination_changes(&self) -> Vec<(Ipv4Addr, u64)> {
        self.per_destination.take_changes()
    }

    /// Overwrites the traffic, fault, and per-destination accounting
    /// with a checkpointed snapshot — the resume path of a journaled
    /// campaign. Overwrite (not add) semantics: the checkpoint already
    /// contains whatever this network accrued before it was taken, so a
    /// resumed run's own pre-probe traffic (seed selection, discovery)
    /// is deliberately replaced, not double-counted.
    ///
    /// Per-destination counts are load-bearing beyond reporting: the
    /// installed [`FaultPlan`]'s `RefusedBurst` rules key off them, so
    /// restoring them is what keeps a resumed run's fault stream
    /// identical to an uninterrupted one.
    pub fn restore_accounting(
        &self,
        stats: TrafficStats,
        faults: FaultStats,
        per_destination: Vec<(Ipv4Addr, u64)>,
    ) {
        self.accounting.restore(stats, faults);
        self.per_destination.restore(per_destination);
    }

    /// The `n` destinations that received the most queries — the load
    /// concentration the campaign's rate limiting exists to bound (§III-D
    /// ethics).
    pub fn busiest_destinations(&self, n: usize) -> Vec<(Ipv4Addr, u64)> {
        let mut all = self.per_destination.snapshot_sorted();
        all.sort_by_key(|&(a, c)| (std::cmp::Reverse(c), a));
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prefix24, FaultProfile, FaultScope, ServerBehavior};
    use govdns_model::{DomainName, RecordType, Zone};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn network_with_one_zone() -> SimNetwork {
        let mut zone = Zone::new(n("gov.zz"));
        zone.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        let mut net = SimNetwork::new(7);
        net.add_server(
            AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), ServerBehavior::Responsive)
                .with_zone(zone),
        );
        net
    }

    #[test]
    fn routes_to_registered_server() {
        let net = network_with_one_zone();
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let out = net.deliver(Ipv4Addr::new(192, 0, 2, 1), &q);
        assert!(out.reply().unwrap().is_authoritative_answer());
        assert!(out.elapsed_ms() >= LatencyModel::default().base_ms);
    }

    #[test]
    fn unrouted_address_times_out() {
        let net = network_with_one_zone();
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let out = net.deliver(Ipv4Addr::new(203, 0, 113, 200), &q);
        assert!(out.reply().is_none());
        assert_eq!(out.elapsed_ms(), LatencyModel::default().timeout_ms);
    }

    #[test]
    fn accounting_tracks_bytes_and_counts() {
        let net = network_with_one_zone();
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        net.deliver(Ipv4Addr::new(192, 0, 2, 1), &q);
        net.deliver(Ipv4Addr::new(203, 0, 113, 200), &q);
        let s = net.stats();
        assert_eq!(s.queries_sent, 2);
        assert_eq!(s.responses_received, 1);
        assert_eq!(s.timeouts, 1);
        assert!(s.bytes_sent > 0 && s.bytes_received > s.bytes_sent / 2);
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut zone = Zone::new(n("gov.zz"));
        zone.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        let mut net = SimNetwork::new(7).with_loss_rate(1.0);
        net.add_server(
            AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), ServerBehavior::Responsive)
                .with_zone(zone),
        );
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        assert!(net.deliver(Ipv4Addr::new(192, 0, 2, 1), &q).reply().is_none());
    }

    #[test]
    fn partial_loss_is_probabilistic() {
        let mut zone = Zone::new(n("gov.zz"));
        zone.add_ns(n("gov.zz"), n("ns1.gov.zz"));
        let mut net = SimNetwork::new(42).with_loss_rate(0.5);
        net.add_server(
            AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), ServerBehavior::Responsive)
                .with_zone(zone),
        );
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        // Each attempt is an independent hash draw; a fixed (dst, qname)
        // pair across varying attempts must land near the rate.
        let replies = (0..200)
            .filter(|&i| net.deliver_attempt(Ipv4Addr::new(192, 0, 2, 1), &q, i).reply().is_some())
            .count();
        assert!((60..140).contains(&replies), "got {replies} replies out of 200");
    }

    #[test]
    fn loss_verdicts_are_per_attempt_and_order_free() {
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let routed = || {
            let mut zone = Zone::new(n("gov.zz"));
            zone.add_ns(n("gov.zz"), n("ns1.gov.zz"));
            let mut net = SimNetwork::new(11).with_loss_rate(0.5);
            net.add_server(
                AuthoritativeServer::new(dst, ServerBehavior::Responsive).with_zone(zone.clone()),
            );
            net
        };
        // Deliver the same 64 attempts forward and backward: the verdict
        // for a given attempt number must not depend on delivery order,
        // because there is no shared RNG consuming draws in sequence.
        let fwd_net = routed();
        let fwd: Vec<bool> =
            (0..64).map(|i| fwd_net.deliver_attempt(dst, &q, i).reply().is_some()).collect();
        let bwd_net = routed();
        let mut bwd: Vec<bool> =
            (0..64).rev().map(|i| bwd_net.deliver_attempt(dst, &q, i).reply().is_some()).collect();
        bwd.reverse();
        assert_eq!(fwd, bwd, "loss verdicts depend only on (seed, dst, qname, attempt)");
        assert!(fwd.iter().any(|&r| r) && fwd.iter().any(|&r| !r), "0.5 loss mixes outcomes");
    }

    #[test]
    #[should_panic(expected = "duplicate server")]
    fn rejects_address_collision() {
        let mut net = SimNetwork::new(1);
        let a = Ipv4Addr::new(192, 0, 2, 1);
        net.add_server(AuthoritativeServer::new(a, ServerBehavior::Unresponsive));
        net.add_server(AuthoritativeServer::new(a, ServerBehavior::Unresponsive));
    }

    #[test]
    fn network_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SimNetwork>();
    }

    #[test]
    fn telemetry_mirrors_traffic_stats() {
        let net = network_with_one_zone();
        let registry = Registry::new();
        net.attach_telemetry(&registry);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        net.deliver(Ipv4Addr::new(192, 0, 2, 1), &q);
        net.deliver(Ipv4Addr::new(203, 0, 113, 200), &q);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.queries"], 2);
        assert_eq!(snap.counters["net.replies"], 1);
        assert_eq!(snap.counters["net.timeouts"], 1);
        assert_eq!(snap.counters["net.lost"], 0);
        assert_eq!(snap.histograms["net.rtt_ms"].count, 2);
        assert_eq!(snap.histograms["net.query_bytes"].count, 2);
        assert_eq!(snap.histograms["net.response_bytes"].count, 1);
        let s = net.stats();
        assert_eq!(snap.counters["net.queries"], s.queries_sent);
        assert_eq!(snap.counters["net.replies"], s.responses_received);
    }

    #[test]
    fn telemetry_does_not_perturb_loss_outcomes() {
        let run = |attach: bool| {
            let mut zone = Zone::new(n("gov.zz"));
            zone.add_ns(n("gov.zz"), n("ns1.gov.zz"));
            let mut net = SimNetwork::new(42).with_loss_rate(0.5);
            net.add_server(
                AuthoritativeServer::new(Ipv4Addr::new(192, 0, 2, 1), ServerBehavior::Responsive)
                    .with_zone(zone),
            );
            if attach {
                net.attach_telemetry(&Registry::new());
            }
            let q = Message::query(1, n("gov.zz"), RecordType::Ns);
            (0..50)
                .map(|i| net.deliver_attempt(Ipv4Addr::new(192, 0, 2, 1), &q, i).reply().is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn injected_flap_times_out_then_recovers() {
        let net = network_with_one_zone().with_faults(
            FaultPlan::new(1)
                .with_rule(FaultScope::All, FaultProfile::Flap { rate: 1.0, recover_after: 2 }),
        );
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        assert!(net.deliver_attempt(dst, &q, 0).reply().is_none());
        assert!(net.deliver_attempt(dst, &q, 1).reply().is_none());
        let recovered = net.deliver_attempt(dst, &q, 2);
        assert!(recovered.reply().unwrap().is_authoritative_answer());
        assert_eq!(net.fault_stats().flap_timeouts, 2);
    }

    #[test]
    fn injected_refusal_needs_a_server_on_path() {
        let net = network_with_one_zone().with_faults(FaultPlan::new(1).with_rule(
            FaultScope::All,
            FaultProfile::RefusedBurst { after_queries: 0, rate: 1.0, recover_after: 99 },
        ));
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let out = net.deliver(Ipv4Addr::new(192, 0, 2, 1), &q);
        assert_eq!(out.reply().unwrap().rcode, govdns_model::Rcode::Refused);
        // An unrouted address still times out: there is no limiter there.
        assert!(net.deliver(Ipv4Addr::new(203, 0, 113, 200), &q).reply().is_none());
        assert_eq!(net.fault_stats().refused, 1);
    }

    #[test]
    fn injected_truncation_strips_sections_and_sets_tc() {
        let net =
            network_with_one_zone().with_faults(FaultPlan::new(1).with_rule(
                FaultScope::All,
                FaultProfile::Truncation { rate: 1.0, recover_after: 1 },
            ));
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let msg = net.deliver_attempt(dst, &q, 0).reply().unwrap().clone();
        assert!(msg.tc && msg.answers.is_empty());
        assert!(!msg.is_authoritative_answer());
        let retry = net.deliver_attempt(dst, &q, 1).reply().unwrap().clone();
        assert!(retry.is_authoritative_answer(), "retry gets the full answer");
    }

    #[test]
    fn fault_counters_mirror_into_telemetry() {
        let net = network_with_one_zone().with_faults(
            FaultPlan::new(1)
                .with_rule(FaultScope::All, FaultProfile::Flap { rate: 1.0, recover_after: 1 })
                .with_rule(
                    FaultScope::All,
                    FaultProfile::LatencySpike { rate: 1.0, extra_ms: 500 },
                ),
        );
        let registry = Registry::new();
        net.attach_telemetry(&registry);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let out = net.deliver(Ipv4Addr::new(192, 0, 2, 1), &q);
        assert!(out.reply().is_none());
        assert!(
            out.elapsed_ms() >= LatencyModel::default().timeout_ms + 500,
            "spike delays the wait"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["fault.flap_timeouts"], 1);
        assert_eq!(snap.counters["fault.delayed"], 1);
        assert_eq!(snap.counters["fault.refused"], 0);
        assert_eq!(net.fault_stats().flap_timeouts, 1);
    }

    #[test]
    fn blackholed_destination_times_out_and_counts_outages() {
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        let net =
            network_with_one_zone().with_faults(FaultPlan::new(1).with_blackholed_addrs([dst]));
        let registry = Registry::new();
        net.attach_telemetry(&registry);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        for attempt in 0..3 {
            let (out, trace) = net.deliver_attempt_traced(dst, &q, attempt);
            assert!(out.reply().is_none(), "outage never recovers");
            assert_eq!(trace.verdict(), Some("outage"));
        }
        assert_eq!(net.fault_stats().outages, 3);
        assert_eq!(registry.snapshot().counters["fault.outages"], 3);
    }

    #[test]
    fn blackhole_only_plan_survives_install_filter() {
        let net = network_with_one_zone();
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        // A plan with no rules but a blackhole set is not "empty": the
        // install filter must keep it.
        net.install_faults(Some(FaultPlan::new(1).with_blackholed_prefixes([prefix24(dst)])));
        assert!(net.deliver(dst, &q).reply().is_none());
        net.install_faults(None);
        assert!(net.deliver(dst, &q).reply().is_some());
    }

    #[test]
    fn install_faults_swaps_plans_at_runtime() {
        let net = network_with_one_zone();
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        assert!(net.deliver(dst, &q).reply().is_some());
        net.install_faults(Some(
            FaultPlan::new(1)
                .with_rule(FaultScope::Server(dst), FaultProfile::PacketLoss { rate: 1.0 }),
        ));
        assert!(net.deliver(dst, &q).reply().is_none());
        net.install_faults(None);
        assert!(net.deliver(dst, &q).reply().is_some());
    }

    #[test]
    fn accounting_snapshot_round_trips_through_restore() {
        let net = network_with_one_zone();
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let a = Ipv4Addr::new(192, 0, 2, 1);
        for _ in 0..3 {
            net.deliver(a, &q);
        }
        net.deliver(Ipv4Addr::new(203, 0, 113, 5), &q);
        let (stats, faults, per_dst) =
            (net.stats(), net.fault_stats(), net.per_destination_snapshot());
        assert_eq!(per_dst.iter().find(|&&(d, _)| d == a).unwrap().1, 3);

        // A fresh network with its own pre-restore traffic: restore
        // overwrites, so the checkpointed state wins exactly.
        let other = network_with_one_zone();
        other.deliver(a, &q);
        other.restore_accounting(stats, faults, per_dst.clone());
        assert_eq!(other.stats(), stats);
        assert_eq!(other.per_destination_snapshot(), per_dst);
        assert_eq!(other.busiest_destinations(1), vec![(a, 3)]);
    }

    #[test]
    fn per_destination_changes_are_the_moved_entries_once() {
        let net = network_with_one_zone();
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let (a, b, c) = (
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(203, 0, 113, 5),
            Ipv4Addr::new(10, 0, 0, 9),
        );
        for dst in [b, a, b, c] {
            net.deliver(dst, &q);
        }
        assert_eq!(net.take_per_destination_changes(), vec![(c, 1), (a, 1), (b, 2)]);
        assert!(net.take_per_destination_changes().is_empty(), "a second take is empty");
        net.deliver(c, &q);
        assert_eq!(net.take_per_destination_changes(), vec![(c, 2)], "absolute, not a diff");

        // Restoring is the new base: it leaves nothing pending.
        net.deliver(a, &q);
        net.restore_accounting(net.stats(), net.fault_stats(), net.per_destination_snapshot());
        assert!(net.take_per_destination_changes().is_empty());
    }

    #[test]
    fn busiest_destinations_orders_and_breaks_ties() {
        let net = network_with_one_zone();
        let q = Message::query(1, n("gov.zz"), RecordType::Ns);
        let a = Ipv4Addr::new(192, 0, 2, 1);
        let b = Ipv4Addr::new(203, 0, 113, 5);
        let c = Ipv4Addr::new(198, 51, 100, 9);
        // a: 3 queries, b: 1, c: 1 — b and c tie, lower address first.
        for _ in 0..3 {
            net.deliver(a, &q);
        }
        net.deliver(b, &q);
        net.deliver(c, &q);

        let top = net.busiest_destinations(3);
        assert_eq!(top, vec![(a, 3), (c, 1), (b, 1)]);

        // n larger than the number of destinations truncates gracefully.
        assert_eq!(net.busiest_destinations(10).len(), 3);
        // n smaller keeps only the busiest.
        assert_eq!(net.busiest_destinations(1), vec![(a, 3)]);
        assert!(net.busiest_destinations(0).is_empty());
    }
}
