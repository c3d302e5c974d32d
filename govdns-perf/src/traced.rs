//! The traced runner: one campaign at one worker, through the public
//! calls `run_campaign_with` and `Report::generate_with` make, in the
//! same order and with the same rate limiter, retry policy, breaker
//! bank, second-round rule, journal cadence and trace stage markers —
//! plus a span at every layer boundary. Its outcome must match the
//! untraced runs', which shows it measures the same program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use govdns_core::analysis::concentration::ConcentrationAnalysis;
use govdns_core::analysis::consistency::ConsistencyAnalysis;
use govdns_core::analysis::delegation::DelegationAnalysis;
use govdns_core::analysis::diversity::DiversityTable;
use govdns_core::analysis::longitudinal::Longitudinal;
use govdns_core::analysis::providers::ProviderAnalysis;
use govdns_core::analysis::remedies::RemediationSummary;
use govdns_core::analysis::replication::{
    ActiveReplication, DomainsPerCountry, PrivateShare, SingleNsChurn, YearlyTotals,
};
use govdns_core::analysis::smells::SmellAnalysis;
use govdns_core::discovery::{self, DiscoveryConfig};
use govdns_core::journal::fnv64;
use govdns_core::report::{AnalysisFailure, LevelMix, MeasurementHealth, Report};
use govdns_core::{
    seed, BreakerBank, Campaign, Checkpoint, JournalHeader, JournalWriter, MeasurementDataset,
    ProbeClient, RateLimiter, RunnerConfig,
};
use govdns_telemetry::Registry;
use govdns_trace::{read_trace, Tracer};

use crate::spans::Spans;

/// Runs one campaign at one worker the way `run_campaign_with` does,
/// recording spans: `seed`, `discovery`, `round1` (with `probe.domain`,
/// `round2` and the journal's `journal.append` / `journal.capture` /
/// `journal.checkpoint` per domain inside it), the trace's
/// `trace.open` / `trace.finish`, and `runner.setup` / `runner.collect`
/// around the runner's own bookkeeping.
///
/// # Panics
///
/// Panics on a scenario, resume or early-stop config (the benchmark's
/// workloads use none), or if a journal or trace file cannot be created.
pub fn traced_campaign(
    campaign: &Campaign<'_>,
    config: &RunnerConfig,
    spans: &mut Spans,
) -> MeasurementDataset {
    assert!(
        config.scenario.is_none() && config.resume_from.is_none() && config.stop_after.is_none(),
        "the traced runner mirrors fresh, scenario-free campaigns only"
    );
    let registry = spans.time("runner.setup", None, || {
        let registry = Registry::new();
        campaign.network.attach_telemetry(&registry);
        registry
    });
    let seeds = spans.time("seed", None, || seed::select_seeds(campaign));
    let discovered = spans.time("discovery", None, || {
        discovery::discover(campaign, &seeds, DiscoveryConfig::paper(campaign.collection_date))
    });
    let total = discovered.len();
    let (limiter, bank) = spans.time("runner.setup", None, || {
        // Chaos starts at the probing stage, as in the runner.
        if let Some(chaos) = config.chaos {
            campaign.network.install_faults(Some(chaos.profile.plan(chaos.seed)));
        }
        let limiter =
            RateLimiter::with_telemetry(config.max_qps, config.destination_cap, &registry);
        (limiter, BreakerBank::new(config.breaker))
    });
    let mut journal = config.journal.as_ref().map(|spec| {
        spans.time("journal.open", None, || {
            let mut names = String::new();
            for d in &discovered {
                names.push_str(&d.name.to_string());
                names.push('\n');
            }
            let header = JournalHeader {
                names_fingerprint: fnv64(names.as_bytes()),
                domains: total as u64,
                config_echo: "traced runner".to_owned(),
            };
            JournalWriter::create(&spec.path, &header).with_flush_threshold(spec.flush_threshold)
        })
    });
    let checkpoint_every = config.journal.as_ref().map_or(0, |s| s.checkpoint_every.max(1));
    let tracer = config.trace.as_ref().map(|spec| {
        spans.time("trace.open", None, || Tracer::create(spec, total as u64, 0).expect("trace I/O"))
    });

    let round1 = spans.begin("round1", None);
    if let Some(t) = &tracer {
        t.stage("round1", "begin");
    }
    let mut client = ProbeClient::new(campaign.network, campaign.roots.to_vec(), limiter.clone())
        .with_telemetry(&registry)
        .with_retry(config.retry)
        .with_breakers(bank.clone());
    if let Some(t) = &tracer {
        client = client.with_tracer(t.worker());
    }
    let capture = |done: u64, client: &ProbeClient<'_>| Checkpoint {
        probes_done: done,
        limiter: limiter.export_state(),
        traffic: campaign.network.stats(),
        faults: campaign.network.fault_stats(),
        net_per_destination: campaign.network.per_destination_snapshot(),
        cache: client.export_cache(),
        clock_s: client.clock_s(),
        breakers: bank.snapshot(),
    };
    let mut probes = Vec::with_capacity(total);
    let mut retried = 0usize;
    for (i, d) in discovered.iter().enumerate() {
        let index = i as u64;
        client.trace_begin(index, &d.name);
        let mut probe = spans.time("probe.domain", Some(index), || client.probe(&d.name));
        if config.second_round && probe.parent_nonempty() && !probe.has_authoritative_answer() {
            spans.time("round2", Some(index), || client.retry_child_side(&mut probe));
            retried += 1;
        }
        client.trace_end();
        if let Some(w) = journal.as_mut() {
            spans.time("journal.append", Some(index), || w.probe(index, &probe));
            let done = i + 1;
            if done.is_multiple_of(checkpoint_every) {
                let cp =
                    spans.time("journal.capture", Some(index), || capture(done as u64, &client));
                spans.time("journal.checkpoint", Some(index), || w.checkpoint(&cp));
            }
        }
        probes.push(probe);
    }
    let exit_cache = journal.is_some().then(|| (client.export_cache(), client.clock_s()));
    drop(client);
    spans.end(round1);

    if let Some(t) = &tracer {
        spans.time("trace.finish", None, || {
            t.stage("round1", "end");
            t.finish();
        });
    }
    if let (Some(mut w), Some((cache, clock_s))) = (journal, exit_cache) {
        spans.time("journal.checkpoint", None, || {
            w.checkpoint(&Checkpoint {
                probes_done: total as u64,
                limiter: limiter.export_state(),
                traffic: campaign.network.stats(),
                faults: campaign.network.fault_stats(),
                net_per_destination: campaign.network.per_destination_snapshot(),
                cache,
                clock_s,
                breakers: bank.snapshot(),
            });
            w.complete(total as u64);
        });
    }
    spans.time("runner.collect", None, || {
        registry.set_ledger(limiter.ledger());
        MeasurementDataset {
            seeds,
            discovered,
            probes,
            traffic: campaign.network.stats(),
            faults: campaign.network.fault_stats(),
            collection_date: campaign.collection_date,
            retried,
            telemetry: registry.snapshot(),
        }
    })
}

/// Runs every stage of `Report::from_dataset` under its own
/// `analysis.<stage>` span inside an `analysis` span. Given the
/// campaign's trace file it goes on as `Report::generate_with` does
/// after its campaign: the busiest-server count, then `trace.read` and
/// `analysis.evidence`.
pub fn traced_analysis(
    campaign: &Campaign<'_>,
    dataset: MeasurementDataset,
    trace: Option<&Path>,
    spans: &mut Spans,
) -> Report {
    let analysis = spans.begin("analysis", None);
    let mut report = analyze(campaign, dataset, spans);
    spans.end(analysis);
    if let Some(path) = trace {
        report.busiest_server_queries =
            campaign.network.busiest_destinations(1).first().map_or(0, |&(_, c)| c);
        if let Ok(log) = spans.time("trace.read", None, || read_trace(path)) {
            spans.time("analysis.evidence", None, || report.smells.attach_evidence(&log));
        }
    }
    report
}

/// One stage under `catch_unwind`, as the library isolates it.
fn guarded<T: Default>(
    spans: &mut Spans,
    failures: &mut Vec<AnalysisFailure>,
    span: &'static str,
    body: impl FnOnce() -> T,
) -> T {
    let id = spans.begin(span, None);
    let result = catch_unwind(AssertUnwindSafe(body));
    spans.end(id);
    result.unwrap_or_else(|_| {
        let stage = span.trim_start_matches("analysis.").to_owned();
        failures.push(AnalysisFailure { stage, message: "panicked".to_owned() });
        T::default()
    })
}

/// A stage that needs the longitudinal reconstruction: skipped, and
/// marked failed, when that failed.
fn on_history<T: Default>(
    spans: &mut Spans,
    failures: &mut Vec<AnalysisFailure>,
    lon: Option<&Longitudinal>,
    span: &'static str,
    body: impl FnOnce(&Longitudinal) -> T,
) -> T {
    match lon {
        Some(lon) => guarded(spans, failures, span, || body(lon)),
        None => {
            let stage = span.trim_start_matches("analysis.").to_owned();
            failures.push(AnalysisFailure { stage, message: "skipped".to_owned() });
            T::default()
        }
    }
}

fn analyze(campaign: &Campaign<'_>, dataset: MeasurementDataset, spans: &mut Spans) -> Report {
    let mut failures = Vec::new();
    let f = &mut failures;
    let lon = guarded(spans, f, "analysis.longitudinal", || {
        Some(Longitudinal::build(campaign, &dataset.seeds))
    });
    let lon = lon.as_ref();
    let per_country_2020 =
        on_history(spans, f, lon, "analysis.per_country", |l| DomainsPerCountry::compute(l, 2020));
    let churn = on_history(spans, f, lon, "analysis.churn", SingleNsChurn::compute);
    let private_share = on_history(spans, f, lon, "analysis.private_share", PrivateShare::compute);
    let providers =
        on_history(spans, f, lon, "analysis.providers", |l| ProviderAnalysis::compute(l, campaign));
    let yearly = guarded(spans, f, "analysis.yearly", || {
        YearlyTotals::compute_raw(campaign, &dataset.seeds)
    });
    let active_replication =
        guarded(spans, f, "analysis.replication", || ActiveReplication::compute(&dataset));
    let diversity =
        guarded(spans, f, "analysis.diversity", || DiversityTable::compute(&dataset, campaign));
    let delegation = guarded(spans, f, "analysis.delegation", || {
        DelegationAnalysis::compute(&dataset, campaign)
    });
    let consistency = guarded(spans, f, "analysis.consistency", || {
        ConsistencyAnalysis::compute(&dataset, campaign)
    });
    let concentration = guarded(spans, f, "analysis.concentration", || {
        ConcentrationAnalysis::compute(&dataset, campaign)
    });
    let remedies =
        guarded(spans, f, "analysis.remedies", || RemediationSummary::compute(&dataset, campaign));
    let smells =
        guarded(spans, f, "analysis.smells", || SmellAnalysis::compute(&dataset, campaign));
    let mut report = Report {
        funnel: dataset.funnel(),
        levels: LevelMix::compute(&dataset),
        yearly,
        per_country_2020,
        churn,
        private_share,
        active_replication,
        diversity,
        providers,
        delegation,
        consistency,
        concentration,
        remedies,
        smells,
        health: MeasurementHealth::compute(&dataset),
        busiest_server_queries: 0,
        analysis_failures: failures,
        dataset,
    };
    report.health.smell_verdicts = report.smells.verdicts.len();
    report.health.smell_domains = report.smells.domains_affected;
    report
}
