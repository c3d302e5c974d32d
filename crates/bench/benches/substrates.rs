//! Substrate microbenches: wire codec (encode, size, decode), one
//! telemetry-attached network delivery, zone lookup (answer and NXDOMAIN),
//! PDNS wildcard search, iterative resolution, zone files, PDNS TSV, and
//! the trace read-back (one domain record, one whole file).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use govdns_bench::fixture;
use govdns_core::{run_campaign, Campaign, RunnerConfig};
use govdns_model::{wire, DomainName, Message, Rcode, RecordType};
use govdns_simnet::{ServerBehavior, SimNetwork, StubResolver};
use govdns_telemetry::Registry;
use govdns_trace::{read_trace, TraceRecord, TraceSpec};
use govdns_world::{WorldConfig, WorldGenerator};

fn substrates(c: &mut Criterion) {
    let f = fixture();

    // Wire codec round-trip on a realistic referral-sized response.
    let sample_domain: DomainName =
        f.dataset.discovered[f.dataset.discovered.len() / 2].name.clone();
    let q = Message::query(1, sample_domain.clone(), RecordType::Ns);
    // Grab a real response, and the server that sent it, from the network.
    let (answering, reply) = f
        .world
        .network
        .servers()
        .find_map(|s| {
            let r = f.world.network.deliver(s.addr(), &q).reply()?.clone();
            (!r.answers.is_empty() || !r.authority.is_empty()).then_some((s.addr(), r))
        })
        .expect("some server answers the sample domain");
    let encoded = wire::encode(&reply);
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(wire::encode(black_box(&reply)))));
    group.bench_function("encoded_len", |b| {
        b.iter(|| black_box(wire::encoded_len(black_box(&reply))))
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(wire::decode(black_box(&encoded)).expect("valid wire data")))
    });
    group.finish();

    // One delivery of that query, accounting and telemetry included, on
    // a copy of the network with a registry attached.
    let mut network = SimNetwork::new(7);
    for server in f.world.network.servers() {
        network.add_server(server.clone());
    }
    network.attach_telemetry(&Registry::new());
    c.bench_function("simnet_deliver", |b| {
        b.iter(|| black_box(network.deliver(black_box(answering), black_box(&q))))
    });

    // Authoritative zone lookup through a loaded server.
    let busiest =
        f.world.network.servers().max_by_key(|s| s.zones().len()).expect("network has servers");
    let busy_q = Message::query(2, sample_domain.clone(), RecordType::Ns);
    c.bench_function("server_handle_query", |b| {
        b.iter(|| black_box(busiest.handle(black_box(&busy_q))))
    });

    // The NXDOMAIN path: the largest zone asked for a name it does not hold.
    let (nx_server, nx_q) = f
        .world
        .network
        .servers()
        .filter(|s| *s.behavior() == ServerBehavior::Responsive)
        .flat_map(|s| s.zones().iter().map(move |z| (s, z)))
        .max_by_key(|(_, z)| z.rrset_count())
        .map(|(s, z)| {
            let absent = z.origin().prepend("no-such-name").expect("a valid child name");
            (s, Message::query(3, absent, RecordType::A))
        })
        .expect("responsive servers host zones");
    assert_eq!(nx_server.handle(&nx_q).map(|r| r.rcode), Some(Rcode::NxDomain));
    c.bench_function("server_handle_nxdomain", |b| {
        b.iter(|| black_box(nx_server.handle(black_box(&nx_q))))
    });

    // PDNS left-hand wildcard search over the biggest seed.
    let biggest_seed = f
        .dataset
        .seeds
        .iter()
        .max_by_key(|s| f.world.pdns.search_subtree(&s.name).count())
        .expect("seeds exist");
    c.bench_function("pdns_wildcard_search", |b| {
        b.iter(|| black_box(f.world.pdns.search_subtree(black_box(&biggest_seed.name)).count()))
    });

    // Full iterative resolution from the root (cold cache each iter).
    c.bench_function("resolver_iterative_walk", |b| {
        b.iter(|| {
            let resolver = StubResolver::new(&f.world.network, f.world.roots.clone());
            black_box(resolver.resolve(black_box(&sample_domain), RecordType::Ns).ok())
        })
    });

    // Zone master-file parse + serialize on a realistic government zone.
    let zone_text = {
        let zone = f
            .world
            .network
            .servers()
            .flat_map(|s| s.zones().iter())
            .max_by_key(|z| z.rrset_count())
            .expect("zones exist");
        govdns_model::zonefile::serialize(zone)
    };
    let mut group = c.benchmark_group("zonefile");
    group.throughput(Throughput::Bytes(zone_text.len() as u64));
    group.bench_function("parse", |b| {
        b.iter(|| black_box(govdns_model::zonefile::parse(black_box(&zone_text)).unwrap()))
    });
    group.finish();

    // Passive-DNS TSV export/import throughput.
    let tsv = govdns_pdns::export::to_tsv(&f.world.pdns);
    let mut group = c.benchmark_group("pdns_tsv");
    group.throughput(Throughput::Bytes(tsv.len() as u64));
    group.sample_size(10);
    group.bench_function("export", |b| {
        b.iter(|| black_box(govdns_pdns::export::to_tsv(black_box(&f.world.pdns)).len()))
    });
    group.bench_function("import", |b| {
        b.iter(|| black_box(govdns_pdns::export::from_tsv(black_box(&tsv)).unwrap().len()))
    });
    group.finish();

    // Trace read-back: the file of a small fully traced campaign, and
    // one of its domain records.
    let world = WorldGenerator::new(WorldConfig::small(2022).with_scale(0.005)).generate();
    let matchers = world.catalog.matchers();
    let path = std::env::temp_dir().join(format!("govdns-substrates-{}.trace", std::process::id()));
    let config = RunnerConfig { trace: Some(TraceSpec::new(&path)), ..RunnerConfig::default() };
    run_campaign(&Campaign::new(&world, &matchers), config);
    let log = read_trace(&path).expect("the campaign wrote its trace");
    let block = TraceRecord::Domain(log.domains[log.domains.len() / 2].clone()).encode();
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function("decode_domain", |b| {
        b.iter(|| black_box(TraceRecord::decode(black_box(&block)).unwrap()))
    });
    group.throughput(Throughput::Bytes(file_bytes));
    group.bench_function("read", |b| {
        b.iter(|| black_box(read_trace(black_box(&path)).unwrap().domains.len()))
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = substrates
}
criterion_main!(benches);
