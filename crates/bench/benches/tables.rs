//! One bench per table of the paper's evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use govdns_bench::fixture;
use govdns_core::analysis::concentration::ConcentrationAnalysis;
use govdns_core::analysis::diversity::DiversityTable;
use govdns_core::analysis::providers::ProviderAnalysis;
use govdns_core::analysis::smells::SmellAnalysis;

fn tables(c: &mut Criterion) {
    let f = fixture();
    let campaign = f.campaign();

    c.bench_function("table1_diversity", |b| {
        b.iter(|| {
            let t = DiversityTable::compute(black_box(&f.dataset), black_box(&campaign));
            black_box(t.total().multi_asn_pct)
        })
    });

    // Tables II and III share the per-year classification pass; measure
    // the pass and each rendering separately.
    c.bench_function("table2_3_provider_classification", |b| {
        b.iter(|| {
            let t = ProviderAnalysis::compute(black_box(&f.longitudinal), black_box(&campaign));
            black_box(t.years.len())
        })
    });

    // The probed attribution's two readers: the §IV-A concentration text
    // and the smell engine, each classifying the probes' hosts.
    c.bench_function("probed_attribution_concentration_smells", |b| {
        b.iter(|| {
            let ds = black_box(&f.dataset);
            let concentration = ConcentrationAnalysis::compute(ds, black_box(&campaign));
            let smells = SmellAnalysis::compute(ds, black_box(&campaign));
            black_box(concentration.seeds.len() + smells.verdicts.len())
        })
    });

    let providers = ProviderAnalysis::compute(&f.longitudinal, &campaign);
    c.bench_function("table2_major_providers_render", |b| {
        b.iter(|| black_box(providers.table2().to_text().len()))
    });
    c.bench_function("table3_top_providers_render", |b| {
        b.iter(|| {
            black_box(
                providers.table3(2011).to_text().len() + providers.table3(2020).to_text().len(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = tables
}
criterion_main!(benches);
