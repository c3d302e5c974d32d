//! Pipeline-stage benches: world generation, seed selection, discovery,
//! and per-domain probing. The end-to-end campaign lives in the
//! `campaign` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use govdns_bench::fixture;
use govdns_core::discovery::{self, DiscoveryConfig};
use govdns_core::{seed, ProbeClient, RateLimiter};
use govdns_world::{WorldConfig, WorldGenerator};

fn pipeline(c: &mut Criterion) {
    let f = fixture();
    let campaign = f.campaign();

    c.bench_function("world_generation_0p5pct", |b| {
        b.iter(|| {
            let w = WorldGenerator::new(WorldConfig::small(9).with_scale(0.005)).generate();
            black_box(w.network.server_count())
        })
    });

    c.bench_function("seed_selection_193_countries", |b| {
        b.iter(|| black_box(seed::select_seeds(black_box(&campaign)).len()))
    });

    c.bench_function("discovery_wildcard_expansion", |b| {
        b.iter(|| {
            let d = discovery::discover(
                black_box(&campaign),
                black_box(&f.dataset.seeds),
                DiscoveryConfig::paper(f.world.collection_date),
            );
            black_box(d.len())
        })
    });

    // Per-domain probe throughput over a mixed sample.
    let sample: Vec<_> =
        f.dataset.discovered.iter().map(|d| d.name.clone()).step_by(37).take(64).collect();
    let mut group = c.benchmark_group("probe");
    group.throughput(Throughput::Elements(sample.len() as u64));
    group.bench_function(BenchmarkId::new("figure1_walk", sample.len()), |b| {
        let client =
            ProbeClient::new(&f.world.network, f.world.roots.clone(), RateLimiter::default());
        b.iter(|| {
            let mut answered = 0usize;
            for name in &sample {
                let probe = client.probe(black_box(name));
                answered += usize::from(probe.has_authoritative_answer());
            }
            black_box(answered)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = pipeline
}
criterion_main!(benches);
