//! One bench per figure of the paper's evaluation: each timed body
//! regenerates the figure's rows/series from the fixture's data.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use govdns_bench::fixture;
use govdns_core::analysis::consistency::ConsistencyAnalysis;
use govdns_core::analysis::delegation::DelegationAnalysis;
use govdns_core::analysis::longitudinal::Longitudinal;
use govdns_core::analysis::replication::{
    ActiveReplication, DomainsPerCountry, PrivateShare, SingleNsChurn, YearlyTotals,
};
use govdns_core::report::LevelMix;
use govdns_core::stats::ns_daily_mode;
use govdns_model::DateRange;

fn figures(c: &mut Criterion) {
    let f = fixture();
    let campaign = f.campaign();

    c.bench_function("fig02_03_yearly_totals", |b| {
        b.iter(|| {
            let t = YearlyTotals::compute(black_box(&f.longitudinal));
            black_box(t.domains(2020))
        })
    });

    // The raw-PDNS variant is the one the report renders as Figs 2-3.
    c.bench_function("fig02_03_yearly_totals_raw", |b| {
        b.iter(|| {
            let t = YearlyTotals::compute_raw(black_box(&campaign), black_box(&f.dataset.seeds));
            black_box(t.domains(2020))
        })
    });

    // The longitudinal reconstruction with its year index, which every
    // PDNS-history figure and Tables II-III read.
    c.bench_function("longitudinal_build", |b| {
        b.iter(|| {
            let lon = Longitudinal::build(black_box(&campaign), black_box(&f.dataset.seeds));
            black_box(lon.histories().len())
        })
    });

    c.bench_function("fig04_domains_per_country", |b| {
        b.iter(|| {
            let t = DomainsPerCountry::compute(black_box(&f.longitudinal), 2020);
            black_box(t.rows.len())
        })
    });

    c.bench_function("fig05_ns_daily_mode", |b| {
        // The per-domain mode computation underlying Fig 5/6/7, which the
        // year index runs once per history and active year.
        let history = f
            .longitudinal
            .histories()
            .iter()
            .max_by_key(|h| h.ns_entries.len())
            .expect("non-empty longitudinal index");
        let spans: Vec<DateRange> = history.ns_entries.iter().map(|e| e.span()).collect();
        b.iter(|| black_box(ns_daily_mode(black_box(&spans), DateRange::year(black_box(2019)))))
    });

    c.bench_function("fig06_d1ns_churn", |b| {
        b.iter(|| {
            let t = SingleNsChurn::compute(black_box(&f.longitudinal));
            black_box(t.churn.len())
        })
    });

    c.bench_function("fig07_private_share", |b| {
        b.iter(|| {
            let t = PrivateShare::compute(black_box(&f.longitudinal));
            black_box(t.rows.len())
        })
    });

    c.bench_function("fig08_09_active_replication", |b| {
        b.iter(|| {
            let t = ActiveReplication::compute(black_box(&f.dataset));
            black_box((t.d1ns_total, t.multi_ns_share))
        })
    });

    c.bench_function("fig10_12_delegation_analysis", |b| {
        b.iter(|| {
            let t = DelegationAnalysis::compute(black_box(&f.dataset), black_box(&campaign));
            black_box((t.any_defective, t.available.len()))
        })
    });

    c.bench_function("fig13_14_consistency_analysis", |b| {
        b.iter(|| {
            let t = ConsistencyAnalysis::compute(black_box(&f.dataset), black_box(&campaign));
            black_box((t.comparable, t.equal_pct))
        })
    });

    c.bench_function("levels_section3", |b| {
        b.iter(|| black_box(LevelMix::compute(black_box(&f.dataset))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = figures
}
criterion_main!(benches);
