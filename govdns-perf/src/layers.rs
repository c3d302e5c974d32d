//! Substrate replays: the campaign's own work, replayed call by call
//! through one layer's public function so that layer is timed alone.
//! Each call is timed separately; the clock read adds a few tens of
//! nanoseconds to every sample.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use govdns_core::seed::SeedDomain;
use govdns_core::{Campaign, DomainProbe};
use govdns_model::{Message, RecordType};
use govdns_simnet::{SimNetwork, StubResolver};

/// Microseconds of `PdnsDb::search_subtree` per seed, the wildcard
/// search discovery runs once per seed.
pub fn pdns_search_us(campaign: &Campaign<'_>, seeds: &[SeedDomain]) -> Vec<f64> {
    seeds
        .iter()
        .map(|s| {
            let start = Instant::now();
            black_box(campaign.pdns.search_subtree(black_box(&s.name)).count());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// The exchanges of a campaign replayed through the network.
#[derive(Debug, Default)]
pub struct Exchanges {
    /// Nanoseconds per `SimNetwork::deliver_attempt`.
    pub deliver_ns: Vec<f64>,
    /// Nanoseconds per `AuthoritativeServer::handle`, for destinations
    /// that route to a server.
    pub handle_ns: Vec<f64>,
    /// Deliveries that timed out.
    pub timeouts: u64,
}

/// Every address a probe sent its NS query to: the parent zone's
/// servers, then each nameserver's addresses.
fn exchange_addrs(p: &DomainProbe) -> Vec<Ipv4Addr> {
    p.parent_observations
        .iter()
        .map(|o| o.addr)
        .chain(p.servers.iter().flat_map(|s| s.observations.iter().map(|o| o.addr)))
        .collect()
}

/// Replays each probe's NS exchanges, rebuilt from its parent and
/// child-server addresses, through `SimNetwork::deliver_attempt` and,
/// if `handle`, through the destination's `AuthoritativeServer::handle`.
/// Whatever fault plan is installed on `network` applies.
pub fn replay_exchanges(network: &SimNetwork, probes: &[DomainProbe], handle: bool) -> Exchanges {
    let mut out = Exchanges::default();
    for (i, p) in probes.iter().enumerate() {
        let query = Message::query((i % 0xFFFF) as u16, p.domain.clone(), RecordType::Ns);
        for addr in exchange_addrs(p) {
            let start = Instant::now();
            let outcome = network.deliver_attempt(addr, black_box(&query), 0);
            out.deliver_ns.push(start.elapsed().as_nanos() as f64);
            if outcome.reply().is_none() {
                out.timeouts += 1;
            }
            if let Some(server) = network.server(addr).filter(|_| handle) {
                let start = Instant::now();
                black_box(server.handle(black_box(&query)));
                out.handle_ns.push(start.elapsed().as_nanos() as f64);
            }
        }
    }
    out
}

/// `StubResolver::resolve` of every nameserver host the campaign
/// probed, in campaign order, against one warm cache: microseconds per
/// resolve, and network queries per resolve.
pub fn replay_resolver(campaign: &Campaign<'_>, probes: &[DomainProbe]) -> (Vec<f64>, f64) {
    let network = campaign.network;
    let resolver = StubResolver::new(network, campaign.roots.to_vec());
    let before = network.stats().queries_sent;
    let mut us = Vec::new();
    for host in probes.iter().flat_map(|p| p.servers.iter().map(|s| &s.host)) {
        let start = Instant::now();
        let _ = black_box(resolver.resolve(black_box(host), RecordType::A));
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let queries = network.stats().queries_sent - before;
    let per = if us.is_empty() { 0.0 } else { queries as f64 / us.len() as f64 };
    (us, per)
}
