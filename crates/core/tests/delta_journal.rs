//! Delta checkpoints replay to exactly the state full snapshots record.
//!
//! Each case drives a real rate limiter, network, breaker bank and one
//! stub resolver per simulated worker (1–4) through a random interleaving
//! of ledger, traffic, cache and breaker mutations, probe appends and
//! state captures. The same run is written twice: as a delta journal
//! (one full base checkpoint, then deltas) and as a journal of full
//! snapshots only. At drawn crash points both journals are cut after the
//! same record, sometimes with a torn frame behind it, and must replay
//! to the same probes and the same checkpoint. The run then resumes in
//! place from that checkpoint, as the runner does, and carries on.

use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use govdns_core::journal::{Checkpoint, Delta, JournalHeader, JournalReplay, JournalWriter};
use govdns_core::{
    BreakerAdmission, BreakerBank, BreakerPolicy, DomainProbe, QueryRound, RateLimiter,
};
use govdns_model::{DomainName, Message, RecordType, Zone};
use govdns_simnet::{
    AuthoritativeServer, FaultStats, ServerBehavior, SimNetwork, StubResolver, TrafficStats,
};

const ROOT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const TLD: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const HOSTS: u8 = 12;

fn n(s: &str) -> DomainName {
    s.parse().unwrap()
}

/// Hosts `h{i}.zz`; the ones past `HOSTS` do not exist (NXDOMAIN, no
/// cache insert).
fn host(i: u16) -> DomainName {
    n(&format!("h{}.zz", i % (u16::from(HOSTS) + 4)))
}

/// Destinations the ledger and breakers book against: the two real
/// servers plus unrouted addresses.
fn dst(i: u16) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, 0, (i % 24) as u8)
}

/// A root and one TLD zone holding every host's address.
fn network() -> SimNetwork {
    let mut net = SimNetwork::new(3);
    let mut root = Zone::new(DomainName::root());
    root.add_ns(DomainName::root(), n("a.root.zz"));
    root.add_glue(n("a.root.zz"), ROOT);
    root.add_ns(n("zz"), n("ns.zz"));
    root.add_glue(n("ns.zz"), TLD);
    net.add_server(AuthoritativeServer::new(ROOT, ServerBehavior::Responsive).with_zone(root));
    let mut tld = Zone::new(n("zz"));
    tld.add_ns(n("zz"), n("ns.zz"));
    tld.add_a(n("ns.zz"), TLD);
    for i in 0..HOSTS {
        tld.add_a(host(u16::from(i)), Ipv4Addr::new(10, 1, 1, i));
    }
    net.add_server(AuthoritativeServer::new(TLD, ServerBehavior::Responsive).with_zone(tld));
    net
}

fn probe(index: u64) -> DomainProbe {
    DomainProbe {
        domain: n(&format!("d{index}.zz")),
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
    }
}

/// The mutable state of one simulated process.
struct Process<'n> {
    net: &'n SimNetwork,
    limiter: RateLimiter,
    bank: BreakerBank,
    resolvers: Vec<StubResolver<'n>>,
}

impl<'n> Process<'n> {
    /// A fresh process: empty ledger, accounting, breakers and caches,
    /// then `restored` (a replayed checkpoint) restored into them.
    fn start(net: &'n SimNetwork, workers: usize, restored: Option<&Checkpoint>) -> Self {
        let p = Process {
            net,
            limiter: RateLimiter::new(100),
            bank: BreakerBank::new(BreakerPolicy { failure_threshold: 2, cooldown_rounds: 1 }),
            resolvers: (0..workers).map(|_| StubResolver::new(net, vec![ROOT])).collect(),
        };
        net.restore_accounting(TrafficStats::default(), FaultStats::default(), Vec::new());
        if let Some(cp) = restored {
            p.limiter.restore_state(&cp.limiter);
            net.restore_accounting(cp.traffic, cp.faults, cp.net_per_destination.clone());
            p.bank.restore(&cp.breakers);
            for r in &p.resolvers {
                r.set_clock_s(cp.clock_s);
                r.import_cache(cp.cache.clone());
            }
        }
        p
    }

    fn snapshot(&self, done: u64, worker: usize) -> Checkpoint {
        Checkpoint {
            probes_done: done,
            limiter: self.limiter.export_state(),
            traffic: self.net.stats(),
            faults: self.net.fault_stats(),
            net_per_destination: self.net.per_destination_snapshot(),
            cache: self.resolvers[worker].export_cache(),
            clock_s: self.resolvers[worker].now_s(),
            breakers: self.bank.snapshot(),
        }
    }

    fn delta(&self, done: u64, worker: usize) -> Delta {
        Delta {
            probes_done: done,
            worker: worker as u64,
            limiter: self.limiter.take_changes(),
            traffic: self.net.stats(),
            faults: self.net.fault_stats(),
            net_per_destination: self.net.take_per_destination_changes(),
            cache: self.resolvers[worker].take_cache_changes(),
            clock_s: self.resolvers[worker].now_s(),
            breakers: self.bank.take_changes(),
        }
    }

    /// The full base a new chain starts from; leaves nothing pending.
    fn base(&self, done: u64) -> Checkpoint {
        let cp = self.snapshot(done, 0);
        self.delta(done, 0);
        cp
    }
}

/// The same run as a delta journal and as a full-snapshot journal.
struct Journals {
    paths: [PathBuf; 2],
    writers: [Option<JournalWriter>; 2],
}

impl Journals {
    fn create(dir: &Path, header: &JournalHeader) -> Self {
        let paths = [dir.join("delta.journal"), dir.join("full.journal")];
        let writers = [
            Some(JournalWriter::create(&paths[0], header)),
            Some(JournalWriter::create(&paths[1], header)),
        ];
        Journals { paths, writers }
    }

    fn each(&mut self, mut f: impl FnMut(usize, &mut JournalWriter)) {
        for (i, w) in self.writers.iter_mut().enumerate() {
            f(i, w.as_mut().expect("journal open"));
        }
    }

    fn capture(&mut self, p: &Process<'_>, done: u64, worker: usize) {
        let full = p.snapshot(done, worker);
        let delta = p.delta(done, worker);
        self.each(|i, w| if i == 0 { w.delta(&delta) } else { w.checkpoint(&full) });
    }

    /// Closes both journals, keeps their first `keep` records (and maybe
    /// a torn frame), and replays them; both replays must agree.
    fn crash(&mut self, keep: usize, torn: bool) -> JournalReplay {
        self.writers = [None, None];
        let replays = self.paths.clone().map(|path| {
            let bytes = std::fs::read(&path).unwrap();
            // Every record is a frame line followed by a payload line.
            let mut cut: Vec<u8> =
                bytes.split_inclusive(|&b| b == b'\n').take(2 * keep).flatten().copied().collect();
            if torn {
                cut.extend_from_slice(b"J1 0123456789abcdef 00000040\n{\"kind\":\"delta\",\"pro");
            }
            std::fs::write(&path, &cut).unwrap();
            JournalReplay::try_load(&path).expect("a cut journal still loads")
        });
        let [delta, full] = replays;
        assert_eq!(delta.probes, full.probes);
        assert_eq!(delta.checkpoint, full.checkpoint, "delta replay diverged from full snapshots");
        assert_eq!((delta.resumes, delta.records), (full.resumes, full.records));
        delta
    }

    /// Reopens both journals after their intact prefixes.
    fn reopen(&mut self) {
        for (w, path) in self.writers.iter_mut().zip(&self.paths) {
            let replay = JournalReplay::try_load(path).unwrap();
            let intact = std::fs::metadata(path).unwrap().len() - replay.dropped_bytes;
            *w = Some(JournalWriter::append_to(path, intact));
        }
    }
}

fn scratch_dir(case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("govdns-delta-journal-{}", std::process::id()))
        .join(case.to_string());
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #[test]
    fn delta_replay_equals_full_snapshot_replay_at_random_crash_points(
        workers in 1usize..5,
        ops in prop::collection::vec((0u8..9, any::<u16>(), any::<u16>()), 0..90),
        case in any::<u64>(),
    ) {
        let net = network();
        let header = JournalHeader { names_fingerprint: 1, domains: 0, config_echo: String::new() };
        let dir = scratch_dir(case);
        let mut journals = Journals::create(&dir, &header);
        let mut p = Process::start(&net, workers, None);
        let base = p.base(0);
        journals.each(|_, w| w.checkpoint(&base));
        let mut probes = 0u64;
        let query = Message::query(1, n("zz"), RecordType::Ns);

        for &(op, x, y) in &ops {
            let worker = usize::from(x) % workers;
            match op {
                0 => {
                    journals.each(|_, w| w.probe(probes, &probe(probes)));
                    probes += 1;
                }
                1 => p.limiter.acquire_for(QueryRound::ALL[usize::from(x) % 5], Some(dst(y))),
                2 => {
                    p.limiter.try_acquire_retry(dst(y), Some(u64::from(x % 3)));
                }
                3 => {
                    let to = if y % 3 == 0 { TLD } else { dst(y) };
                    net.deliver(to, &query);
                }
                4 => {
                    let _ = p.resolvers[worker].resolve_a(&host(y));
                }
                5 => {
                    p.resolvers[worker].advance_clock_s(u64::from(y % 8) * 600);
                }
                6 => {
                    // Few destinations, so breakers trip, deny and recover.
                    let (to, rank) = (dst(y % 4), 1 + u32::from(x % 3));
                    if p.bank.admit(to, rank) != BreakerAdmission::Denied {
                        p.bank.on_result(to, rank, x % 3 != 0);
                    }
                }
                // Workers capture out of `done` order: lag behind the count.
                7 => journals.capture(&p, probes.saturating_sub(u64::from(y % 3)), worker),
                _ => {
                    // Crash, keeping at least the header, then resume in place.
                    let records = JournalReplay::try_load(&journals.paths[0]).unwrap().records;
                    let keep = 1 + usize::from(x) % records as usize;
                    let replay = journals.crash(keep, y % 2 == 0);
                    journals.reopen();
                    p = Process::start(&net, workers, replay.checkpoint.as_ref());
                    probes = replay.checkpoint.as_ref().map_or(0, |cp| cp.probes_done);
                    journals.each(|_, w| w.resumed(probes));
                    // A fresh chain when nothing was restored. Sometimes
                    // the restored checkpoint itself starts one, as when
                    // resuming to a new path: its cache as restored,
                    // before each worker's import dropped expired entries.
                    let base = match &replay.checkpoint {
                        None => Some(p.base(probes)),
                        Some(cp) => (y % 4 == 1).then(|| cp.clone()),
                    };
                    if let Some(base) = base {
                        journals.each(|_, w| w.checkpoint(&base));
                    }
                }
            }
        }
        let records = JournalReplay::try_load(&journals.paths[0]).unwrap().records as usize;
        journals.crash(records, false);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
