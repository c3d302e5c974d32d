//! End-to-end campaign throughput across worker counts — the regression
//! gate for the de-serialized query hot path.
//!
//! Each bench runs the whole campaign over the same 1%-scale world at 1,
//! 2, 4, and 8 workers. Only world generation and the provider matchers
//! are built once, outside the timed loop; every iteration re-runs seed
//! selection and discovery (single-threaded, the same cost at every
//! worker count) before the probing rounds, so the worker-count ratios
//! understate the probe walk's own scaling. With per-query accounting
//! on atomics and sharded tables, adding workers must scale throughput;
//! a global lock on the hot path flattens (or inverts) the curve, which
//! is exactly what `ci.sh`'s ratio guard on `BENCH_campaign.json`
//! detects. Probes per second is `domains / (ns_per_iter / 1e9)`.
//!
//! `traced_8` re-runs the 8-worker configuration with the flight
//! recorder on (full sampling, trace file to a temp path): `ci.sh`'s
//! guard on `BENCH_trace.json` requires traced throughput to stay
//! within 0.90x of untraced, keeping event emission off the lock path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use govdns_core::{run_campaign, Campaign, RunnerConfig};
use govdns_trace::TraceSpec;
use govdns_world::{WorldConfig, WorldGenerator};

fn campaign_throughput(c: &mut Criterion) {
    let world = WorldGenerator::new(WorldConfig::small(77).with_scale(0.01)).generate();
    let matchers = world.catalog.matchers();
    let domains = {
        let campaign = Campaign::new(&world, &matchers);
        let ds = run_campaign(&campaign, RunnerConfig::default());
        ds.probes.len() as u64
    };

    let mut group = c.benchmark_group("campaign");
    group.sample_size(5);
    group.throughput(Throughput::Elements(domains));
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                let campaign = Campaign::new(&world, &matchers);
                let ds =
                    run_campaign(&campaign, RunnerConfig { workers, ..RunnerConfig::default() });
                black_box(ds.probes.len())
            })
        });
    }
    let trace_path =
        std::env::temp_dir().join(format!("govdns-bench-trace-{}.trace", std::process::id()));
    group.bench_function("traced_8", |b| {
        b.iter(|| {
            let campaign = Campaign::new(&world, &matchers);
            let ds = run_campaign(
                &campaign,
                RunnerConfig {
                    workers: 8,
                    trace: Some(TraceSpec::new(&trace_path)),
                    ..RunnerConfig::default()
                },
            );
            black_box(ds.probes.len())
        })
    });
    let _ = std::fs::remove_file(&trace_path);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = campaign_throughput
}
criterion_main!(benches);
