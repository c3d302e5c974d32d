//! The trace event vocabulary.
//!
//! One [`TraceEvent`] records one decision the pipeline made about one
//! query — an attempt hitting the wire, the fault layer's verdict, a
//! limiter charge, a breaker denial, a backoff, a response
//! classification. Events carry a per-domain sequence number and the
//! Figure-1 protocol [`Step`] they belong to; the domain itself lives on
//! the enclosing [`DomainBlock`], because a whole domain is always
//! probed by one worker and traced as one unit.

use std::net::Ipv4Addr;

/// Which step of the paper's Figure-1 probing protocol an event belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Walking the delegation tree down to the parent zone.
    ParentNs,
    /// A referral descending the tree (or terminating the walk).
    Referral,
    /// Querying the child-side nameservers for their NS view.
    ChildNs,
    /// Resolving a nameserver host name to addresses (side query).
    AddrResolve,
    /// Direct per-address probing (the SOA check).
    DirectProbe,
}

impl Step {
    /// Stable wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            Step::ParentNs => "parent_ns",
            Step::Referral => "referral",
            Step::ChildNs => "child_ns",
            Step::AddrResolve => "addr_resolve",
            Step::DirectProbe => "direct_probe",
        }
    }

    /// Parses a wire label back into a step.
    pub fn parse(s: &str) -> Option<Step> {
        Some(match s {
            "parent_ns" => Step::ParentNs,
            "referral" => Step::Referral,
            "child_ns" => Step::ChildNs,
            "addr_resolve" => Step::AddrResolve,
            "direct_probe" => Step::DirectProbe,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Step {
    /// Writes the wire label.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The payload of one trace event.
///
/// Fields deliberately exclude anything that depends on worker
/// interleaving or per-worker cache state (resolver cache hit counts,
/// global destination ordinals, wall-clock time), so that identically
/// seeded campaigns emit byte-identical traces at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceData {
    /// A query attempt hit the wire. The qname is the enclosing block's
    /// domain; `attempt` is the cumulative ordinal for this
    /// `(dst, qname)` pair.
    Send {
        /// Destination server address.
        dst: Ipv4Addr,
        /// Cumulative attempt ordinal for this `(dst, qname)` pair.
        attempt: u32,
    },
    /// The fault layer's verdict for an attempt (emitted only when a
    /// rule fired).
    Fault {
        /// Destination server address.
        dst: Ipv4Addr,
        /// Attempt ordinal the verdict applied to.
        attempt: u32,
        /// Which rule fired: `flap`, `loss`, `refused`, `truncated`,
        /// `delayed`, or `baseline_loss` for world-level packet loss.
        verdict: String,
        /// Extra delay injected by latency spikes, milliseconds.
        extra_ms: u64,
    },
    /// How an attempt resolved.
    Response {
        /// Destination server address.
        dst: Ipv4Addr,
        /// Attempt ordinal.
        attempt: u32,
        /// Response classification label (`authoritative`, `referral`,
        /// `timeout`, `rejected`, `truncated`, ...).
        class: String,
        /// Round-trip (or timeout wait) in simulated milliseconds.
        ms: u64,
    },
    /// The delegation walk took (or terminated on) a referral.
    Referral {
        /// The zone cut the referral pointed at.
        cut: String,
        /// How many nameserver targets it carried.
        targets: u64,
    },
    /// A nameserver host name was resolved to addresses.
    Resolve {
        /// The nameserver host name.
        host: String,
        /// Addresses the resolver produced (empty on failure).
        addrs: Vec<Ipv4Addr>,
    },
    /// The rate limiter booked a query.
    Charge {
        /// Ledger round label (`round1`, `round2`, `soa`, `side`).
        round: String,
        /// Destination charged, when the round is destination-scoped.
        dst: Option<Ipv4Addr>,
    },
    /// The per-destination retry budget denied a retry.
    RetryDenied {
        /// Destination whose budget ran dry.
        dst: Ipv4Addr,
    },
    /// The client backed off before a retry.
    Backoff {
        /// Destination being retried.
        dst: Ipv4Addr,
        /// The attempt ordinal about to be issued.
        attempt: u32,
        /// Backoff duration, milliseconds (deterministic jitter).
        ms: u64,
    },
    /// An open circuit breaker denied the query outright.
    BreakerDenied {
        /// Quarantined destination.
        dst: Ipv4Addr,
    },
    /// A half-open breaker admitted a trial query.
    BreakerTrial {
        /// Destination on trial.
        dst: Ipv4Addr,
    },
    /// A breaker changed state after a result.
    Breaker {
        /// Destination whose breaker moved.
        dst: Ipv4Addr,
        /// Transition label (`tripped`, `reclosed`, `reopened`).
        transition: String,
    },
    /// Free-form annotation (stage markers inside a domain, panics).
    Note {
        /// The annotation.
        text: String,
    },
}

/// One recorded event: per-domain sequence number, protocol step, and
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sequence number within the domain (0-based, gap-free until the
    /// ring overflows).
    pub seq: u32,
    /// Protocol step the event belongs to.
    pub step: Step,
    /// The payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// The destination address the event concerns, if any.
    pub fn dst(&self) -> Option<Ipv4Addr> {
        match &self.data {
            TraceData::Send { dst, .. }
            | TraceData::Fault { dst, .. }
            | TraceData::Response { dst, .. }
            | TraceData::RetryDenied { dst }
            | TraceData::Backoff { dst, .. }
            | TraceData::BreakerDenied { dst }
            | TraceData::BreakerTrial { dst }
            | TraceData::Breaker { dst, .. } => Some(*dst),
            TraceData::Charge { dst, .. } => *dst,
            _ => None,
        }
    }

    /// The response class label, for `Response` events.
    pub fn class(&self) -> Option<&str> {
        match &self.data {
            TraceData::Response { class, .. } => Some(class),
            _ => None,
        }
    }

    /// One human-readable timeline line for this event.
    pub fn render(&self) -> String {
        let mut line = Line(String::with_capacity(80));
        line.text("#");
        if self.seq < 100 {
            line.text(if self.seq < 10 { "00" } else { "0" });
        }
        line.num(self.seq.into()).text(" [").text(self.step.as_str()).text("] ");
        match &self.data {
            TraceData::Send { dst, attempt } => {
                line.text("send dst=").addr(*dst).text(" attempt=").num((*attempt).into())
            }
            TraceData::Fault { dst, attempt, verdict, extra_ms } => {
                line.text("fault verdict=").text(verdict).text(" dst=").addr(*dst);
                line.text(" attempt=").num((*attempt).into());
                if *extra_ms > 0 {
                    line.text(" extra_ms=").num(*extra_ms);
                }
                &mut line
            }
            TraceData::Response { dst, attempt, class, ms } => {
                line.text("response class=").text(class).text(" dst=").addr(*dst);
                line.text(" attempt=").num((*attempt).into()).text(" ms=").num(*ms)
            }
            TraceData::Referral { cut, targets } => {
                line.text("referral cut=").text(cut).text(" targets=").num(*targets)
            }
            TraceData::Resolve { host, addrs } => {
                line.text("resolve host=").text(host).text(" addrs=[");
                for (i, a) in addrs.iter().enumerate() {
                    line.text(if i > 0 { "," } else { "" }).addr(*a);
                }
                line.text("]")
            }
            TraceData::Charge { round, dst } => {
                line.text("charge round=").text(round);
                match dst {
                    Some(dst) => line.text(" dst=").addr(*dst),
                    None => &mut line,
                }
            }
            TraceData::RetryDenied { dst } => line.text("retry_denied dst=").addr(*dst),
            TraceData::Backoff { dst, attempt, ms } => {
                line.text("backoff dst=").addr(*dst).text(" attempt=").num((*attempt).into());
                line.text(" ms=").num(*ms)
            }
            TraceData::BreakerDenied { dst } => line.text("breaker_denied dst=").addr(*dst),
            TraceData::BreakerTrial { dst } => line.text("breaker_trial dst=").addr(*dst),
            TraceData::Breaker { dst, transition } => {
                line.text("breaker ").text(transition).text(" dst=").addr(*dst)
            }
            TraceData::Note { text } => line.text("note ").text(text),
        };
        // Evidence keeps every line it renders: hold no spare capacity.
        line.0.shrink_to_fit();
        line.0
    }
}

/// A timeline line being written piece by piece, without `format!`:
/// smell evidence renders one line per citation, and the formatting
/// machinery was most of its cost.
struct Line(String);

impl Line {
    fn text(&mut self, s: &str) -> &mut Self {
        self.0.push_str(s);
        self
    }

    fn num(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.0.extend(digits[start..].iter().map(|&d| char::from(d)));
        self
    }

    fn addr(&mut self, a: Ipv4Addr) -> &mut Self {
        let [a, b, c, d] = a.octets();
        self.num(a.into()).text(".").num(b.into()).text(".").num(c.into()).text(".").num(d.into())
    }
}

/// All trace events of one probed domain, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainBlock {
    /// Campaign domain index — equal to the journal's probe record
    /// index, which is what ties a trace block to the write-ahead log.
    pub index: u64,
    /// The probed domain.
    pub domain: String,
    /// Events the bounded ring had to discard before the block closed
    /// (0 unless a pathological domain overflowed the flight recorder).
    pub dropped: u32,
    /// The recorded events.
    pub events: Vec<TraceEvent>,
}

impl DomainBlock {
    /// The per-domain causal timeline, one rendered line per event.
    pub fn timeline(&self) -> Vec<String> {
        self.events.iter().map(TraceEvent::render).collect()
    }

    /// Resolves a sequence number back to its recorded event — the
    /// evidence-citation hook: a verdict that cites `(domain, seq)` is
    /// checkable by looking the event up again in the trace file.
    /// Sequence numbers are gap-free until the ring overflows, but a
    /// dropped prefix means `seq` may be absent, so this searches rather
    /// than indexes.
    pub fn event(&self, seq: u32) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.seq == seq)
    }
}

/// A snapshot the flight recorder took when a trigger fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// What fired: `breaker_trip`, `retry_exhausted`, `refused_burst`,
    /// or `analysis_panic:<stage>`.
    pub trigger: String,
    /// Campaign domain index, when the trigger fired inside a probe.
    pub index: Option<u64>,
    /// The domain being probed, when inside a probe.
    pub domain: Option<String>,
    /// Dump ordinal within the domain (a domain can trip twice).
    pub ord: u32,
    /// The last-N events the recorder held at trigger time.
    pub events: Vec<TraceEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_labels_roundtrip() {
        for s in
            [Step::ParentNs, Step::Referral, Step::ChildNs, Step::AddrResolve, Step::DirectProbe]
        {
            assert_eq!(Step::parse(s.as_str()), Some(s));
        }
        assert_eq!(Step::parse("warp"), None);
    }

    #[test]
    fn render_is_stable() {
        let e = TraceEvent {
            seq: 3,
            step: Step::ParentNs,
            data: TraceData::Send { dst: "192.0.2.1".parse().unwrap(), attempt: 0 },
        };
        assert_eq!(e.render(), "#003 [parent_ns] send dst=192.0.2.1 attempt=0");
        assert_eq!(e.dst(), Some("192.0.2.1".parse().unwrap()));
        assert_eq!(e.class(), None);
    }
}
