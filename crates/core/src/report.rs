//! One-call reproduction of every table and figure in the paper's
//! evaluation, plus the §III funnel and traffic/ethics accounting.
//!
//! Analyses are *panic-isolated*: each stage runs under `catch_unwind`
//! with its own `analysis.<stage>` span, so one analysis blowing up
//! degrades the report to a partial one — the failed stage renders as
//! an `analysis.failed` entry while every other section survives.
//!
//! The stages only read the dataset and the campaign, so they run on two
//! lanes, each in stage order: the first six (the longitudinal
//! reconstruction with its year index, the four stages that read that
//! index, and yearly) on the calling thread, the last seven on a named
//! scoped thread. The second lane's failures are appended to the
//! first's, so the report and its failures are the same whichever lane
//! finishes first, and a yearly failure keeps its place between the
//! providers' and the replication's. Failpoints are read on the calling
//! thread before the lanes start.

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::analysis::attribution::{ProbedAttribution, ProbedHosts};
use crate::analysis::concentration::ConcentrationAnalysis;
use crate::analysis::consistency::ConsistencyAnalysis;
use crate::analysis::delegation::DelegationAnalysis;
use crate::analysis::diversity::DiversityTable;
use crate::analysis::longitudinal::Longitudinal;
use crate::analysis::providers::ProviderAnalysis;
use crate::analysis::remedies::RemediationSummary;
use crate::analysis::replication::{
    ActiveReplication, DomainsPerCountry, PrivateShare, SingleNsChurn, YearlyTotals,
};
use crate::analysis::smells::{SmellAnalysis, SmellKind};
use crate::{
    run_campaign_with, Campaign, CampaignTelemetry, Funnel, MeasurementDataset, RunnerConfig,
};

/// Level mix of the studied domains (§III-B).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelMix {
    /// Second-level share (%).
    pub second: f64,
    /// Third-level share (%).
    pub third: f64,
    /// Fourth-level share (%).
    pub fourth: f64,
    /// Fifth-level-and-deeper share (%).
    pub fifth_plus: f64,
}

impl LevelMix {
    /// Computes the mix over discovered domains.
    pub fn compute(ds: &MeasurementDataset) -> Self {
        let total = ds.discovered.len();
        let mut counts = [0usize; 4];
        for d in &ds.discovered {
            let idx = match d.name.level() {
                0..=2 => 0,
                3 => 1,
                4 => 2,
                _ => 3,
            };
            counts[idx] += 1;
        }
        LevelMix {
            second: crate::stats::pct(counts[0], total),
            third: crate::stats::pct(counts[1], total),
            fourth: crate::stats::pct(counts[2], total),
            fifth_plus: crate::stats::pct(counts[3], total),
        }
    }
}

/// How trustworthy the measurement itself was: the share of answers
/// that needed retries or a second round, the retry-budget spend, and
/// the injected-fault tally (zero on a clean network). Chaos runs use
/// this section to check the probing machinery absorbed the faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasurementHealth {
    /// Responsive domains whose answers needed retries or round 2.
    pub degraded_domains: usize,
    /// Same, as a share of responsive domains.
    pub degraded_pct: f64,
    /// Domains first answered authoritatively in the second round.
    pub recovered_in_round2: usize,
    /// Backoff retries issued (`probe.retry.attempts`).
    pub retry_attempts: u64,
    /// Exchanges rescued by a retry (`probe.retry.recovered`).
    pub retry_recovered: u64,
    /// Exchanges that failed every attempt (`probe.retry.exhausted`).
    pub retry_exhausted: u64,
    /// Retries denied by the per-destination budget.
    pub retry_budget_denied: u64,
    /// Injected faults that changed an outcome (delays excluded).
    pub faults_injected: u64,
    /// Injected fault breakdown, from the network's own ledger.
    pub faults: govdns_simnet::FaultStats,
    /// Circuit-breaker trips (`probe.breaker.tripped`).
    pub breaker_tripped: u64,
    /// Exchanges skipped because a breaker was open
    /// (`probe.breaker.denied`).
    pub breaker_denied: u64,
    /// Breakers closed again by a successful half-open trial
    /// (`probe.breaker.reclosed`).
    pub breaker_reclosed: u64,
    /// Breakers re-opened by a failed half-open trial
    /// (`probe.breaker.reopened`).
    pub breaker_reopened: u64,
    /// Destinations a breaker quarantined at least once, with the
    /// number of exchanges denied while quarantined — from the
    /// `quarantined destinations` toplist. Empty when breakers were
    /// disabled or nothing tripped.
    pub quarantined: Vec<(String, u64)>,
    /// Countries ranked by degraded-domain count:
    /// `(country, responsive, degraded)`, worst first.
    pub flaky_countries: Vec<(govdns_world::CountryCode, usize, usize)>,
    /// Exemplar causal timelines for degraded domains, reconstructed
    /// from the flight recorder's trace file (empty when tracing was
    /// off or no degraded domain was sampled).
    pub exemplars: Vec<String>,
    /// Operational smell verdicts emitted by the smell pass (§V).
    pub smell_verdicts: usize,
    /// Distinct domains with at least one smell verdict.
    pub smell_domains: usize,
}

impl MeasurementHealth {
    /// Computes the health view over a finished dataset.
    pub fn compute(ds: &MeasurementDataset) -> Self {
        let mut responsive = 0usize;
        let mut per_country: std::collections::BTreeMap<govdns_world::CountryCode, (usize, usize)> =
            std::collections::BTreeMap::new();
        for (i, probe) in ds.probes.iter().enumerate() {
            if !probe.parent_nonempty() {
                continue;
            }
            responsive += 1;
            let slot = per_country.entry(ds.country_of(i)).or_insert((0, 0));
            slot.0 += 1;
            if probe.degraded() {
                slot.1 += 1;
            }
        }
        let degraded_domains = ds.degraded_count();
        let mut flaky_countries: Vec<(govdns_world::CountryCode, usize, usize)> = per_country
            .into_iter()
            .filter(|&(_, (_, degraded))| degraded > 0)
            .map(|(c, (total, degraded))| (c, total, degraded))
            .collect();
        flaky_countries.sort_by_key(|&(c, _, degraded)| (std::cmp::Reverse(degraded), c));
        flaky_countries.truncate(10);
        let counter = |name: &str| ds.telemetry.counters.get(name).copied().unwrap_or(0);
        MeasurementHealth {
            degraded_domains,
            degraded_pct: crate::stats::pct(degraded_domains, responsive),
            recovered_in_round2: ds.recovered_in_round2_count(),
            retry_attempts: counter("probe.retry.attempts"),
            retry_recovered: counter("probe.retry.recovered"),
            retry_exhausted: counter("probe.retry.exhausted"),
            retry_budget_denied: counter("probe.retry.budget_denied"),
            faults_injected: ds.faults.injected(),
            faults: ds.faults,
            breaker_tripped: counter("probe.breaker.tripped"),
            breaker_denied: counter("probe.breaker.denied"),
            breaker_reclosed: counter("probe.breaker.reclosed"),
            breaker_reopened: counter("probe.breaker.reopened"),
            quarantined: ds
                .telemetry
                .toplists
                .get("quarantined destinations")
                .cloned()
                .unwrap_or_default(),
            flaky_countries,
            exemplars: Vec::new(),
            smell_verdicts: 0,
            smell_domains: 0,
        }
    }

    /// Renders the health view as a `metric,value` table.
    pub fn table(&self) -> crate::tables::TextTable {
        let mut t = crate::tables::TextTable::new(["metric", "value"]);
        let mut row = |name: &str, value: String| t.push_row([name.to_owned(), value]);
        row("degraded_domains", self.degraded_domains.to_string());
        row("degraded_pct", format!("{:.1}", self.degraded_pct));
        row("recovered_in_round2", self.recovered_in_round2.to_string());
        row("retry_attempts", self.retry_attempts.to_string());
        row("retry_recovered", self.retry_recovered.to_string());
        row("retry_exhausted", self.retry_exhausted.to_string());
        row("retry_budget_denied", self.retry_budget_denied.to_string());
        row("faults_injected", self.faults_injected.to_string());
        row("fault_flap_timeouts", self.faults.flap_timeouts.to_string());
        row("fault_losses", self.faults.losses.to_string());
        row("fault_refused", self.faults.refused.to_string());
        row("fault_truncated", self.faults.truncated.to_string());
        row("fault_delayed", self.faults.delayed.to_string());
        row("fault_outages", self.faults.outages.to_string());
        row("breaker_tripped", self.breaker_tripped.to_string());
        row("breaker_denied", self.breaker_denied.to_string());
        row("breaker_reclosed", self.breaker_reclosed.to_string());
        row("breaker_reopened", self.breaker_reopened.to_string());
        row("quarantined_destinations", self.quarantined.len().to_string());
        row("smell_verdicts", self.smell_verdicts.to_string());
        row("smell_domains", self.smell_domains.to_string());
        t
    }
}

/// Forcing analysis stages to fail, for exercising the partial-report
/// path without a genuinely buggy analysis.
///
/// Two triggers: [`arm`] marks a stage for the *current thread* (safe
/// under parallel tests), and the `GOVDNS_FAIL_ANALYSIS` environment
/// variable marks one process-wide (the CLI/CI hook).
pub mod failpoint {
    use std::cell::RefCell;

    thread_local! {
        static ARMED: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// Arms the failpoint: the named analysis stage panics on this
    /// thread until [`disarm`] is called.
    pub fn arm(stage: &str) {
        ARMED.with(|a| *a.borrow_mut() = Some(stage.to_owned()));
    }

    /// Disarms the thread-local failpoint.
    pub fn disarm() {
        ARMED.with(|a| *a.borrow_mut() = None);
    }

    /// The stages armed for the calling thread: its [`arm`]ed one and
    /// the process-wide one.
    pub(crate) fn armed() -> Vec<String> {
        let local = ARMED.with(|a| a.borrow().clone());
        local.into_iter().chain(std::env::var("GOVDNS_FAIL_ANALYSIS").ok()).collect()
    }
}

/// One analysis stage that panicked during report generation: the
/// partial report carries these instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisFailure {
    /// Stage name (matches the `analysis.<stage>` span).
    pub stage: String,
    /// The panic payload, stringified.
    pub message: String,
}

/// Picks up to three degraded domains and renders their causal
/// timelines from the trace file — the `MeasurementHealth` exemplars.
/// Long timelines keep only their last ten events (the decision that
/// classified the domain is at the end).
fn trace_exemplars(dataset: &MeasurementDataset, log: &govdns_trace::TraceLog) -> Vec<String> {
    const EXEMPLARS: usize = 3;
    const TAIL_EVENTS: usize = 10;
    let blocks = log.blocks_by_name();
    let mut out = Vec::new();
    for (i, probe) in dataset.probes.iter().enumerate() {
        if out.len() >= EXEMPLARS {
            break;
        }
        if !probe.degraded() {
            continue;
        }
        let name = dataset.discovered[i].name.to_string();
        let Some(block) = blocks.get(name.as_str()) else { continue };
        let lines = block.timeline();
        let skip = lines.len().saturating_sub(TAIL_EVENTS);
        let mut s = format!("{name} ({} events):", block.events.len());
        if skip > 0 {
            let _ = write!(s, "\n  … {skip} earlier events elided");
        }
        for line in &lines[skip..] {
            let _ = write!(s, "\n  {line}");
        }
        out.push(s);
    }
    out
}

/// What each analysis stage's guard needs: the registry for its span,
/// and the armed failpoints. These are read once on the calling thread,
/// because [`failpoint::arm`] is thread-local and half the stages run on
/// a lane of their own.
#[derive(Clone, Copy)]
struct Guard<'a> {
    registry: Option<&'a govdns_telemetry::Registry>,
    armed: &'a [String],
}

/// Runs one analysis stage under `catch_unwind`, recording a span for
/// it; a panic yields the stage's `Default` value plus a failure entry.
fn guarded<T: Default>(
    guard: Guard<'_>,
    failures: &mut Vec<AnalysisFailure>,
    stage: &str,
    body: impl FnOnce() -> T,
) -> T {
    let span = guard.registry.map(|r| r.span(&format!("analysis.{stage}")));
    let armed = guard.armed.iter().any(|a| a == stage);
    let result = catch_unwind(AssertUnwindSafe(|| {
        assert!(!armed, "forced failure (failpoint) in analysis stage {stage}");
        body()
    }));
    if let Some(span) = span {
        span.finish();
    }
    match result {
        Ok(value) => value,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            failures.push(AnalysisFailure { stage: stage.to_owned(), message });
            T::default()
        }
    }
}

/// The sections that depend on the longitudinal reconstruction, and the
/// failures among those five stages, in stage order.
struct LongitudinalSections {
    per_country_2020: DomainsPerCountry,
    churn: SingleNsChurn,
    private_share: PrivateShare,
    providers: ProviderAnalysis,
    failures: Vec<AnalysisFailure>,
}

/// Runs the longitudinal reconstruction and the four stages that feed
/// on it. If the reconstruction fails they are skipped (marked failed),
/// not run against fabricated history.
fn longitudinal_sections(
    guard: Guard<'_>,
    campaign: &Campaign<'_>,
    dataset: &MeasurementDataset,
) -> LongitudinalSections {
    let mut failures = Vec::new();
    let f = &mut failures;
    let lon =
        guarded(guard, f, "longitudinal", || Some(Longitudinal::build(campaign, &dataset.seeds)));
    fn skipped<T: Default>(failures: &mut Vec<AnalysisFailure>, stage: &str) -> T {
        failures.push(AnalysisFailure {
            stage: stage.to_owned(),
            message: "skipped: longitudinal reconstruction failed".to_owned(),
        });
        T::default()
    }
    let per_country_2020 = match &lon {
        Some(lon) => guarded(guard, f, "per_country", || DomainsPerCountry::compute(lon, 2020)),
        None => skipped(f, "per_country"),
    };
    let churn = match &lon {
        Some(lon) => guarded(guard, f, "churn", || SingleNsChurn::compute(lon)),
        None => skipped(f, "churn"),
    };
    let private_share = match &lon {
        Some(lon) => guarded(guard, f, "private_share", || PrivateShare::compute(lon)),
        None => skipped(f, "private_share"),
    };
    let providers = match &lon {
        Some(lon) => guarded(guard, f, "providers", || ProviderAnalysis::compute(lon, campaign)),
        None => skipped(f, "providers"),
    };
    LongitudinalSections { per_country_2020, churn, private_share, providers, failures }
}

/// Everything the paper's evaluation section reports, regenerated.
#[derive(Debug, Clone)]
pub struct Report {
    /// The measurement dataset the analyses ran on.
    pub dataset: MeasurementDataset,
    /// §III-B funnel.
    pub funnel: Funnel,
    /// §III-B level mix.
    pub levels: LevelMix,
    /// Figs 2–3.
    pub yearly: YearlyTotals,
    /// Fig 4.
    pub per_country_2020: DomainsPerCountry,
    /// Fig 6.
    pub churn: SingleNsChurn,
    /// Fig 7.
    pub private_share: PrivateShare,
    /// Figs 8–9 and §IV-A headlines.
    pub active_replication: ActiveReplication,
    /// Table I.
    pub diversity: DiversityTable,
    /// Tables II–III.
    pub providers: ProviderAnalysis,
    /// Figs 10–12.
    pub delegation: DelegationAnalysis,
    /// Figs 13–14.
    pub consistency: ConsistencyAnalysis,
    /// §IV-A text: per-`d_gov` provider concentration.
    pub concentration: ConcentrationAnalysis,
    /// §V-B: the aggregate remediation workload.
    pub remedies: RemediationSummary,
    /// §V: operational smell verdicts with proposed refactorings
    /// (evidence chains attach when a trace log is available).
    pub smells: SmellAnalysis,
    /// Chaos hardening: retry spend, fault tally, degraded share.
    pub health: MeasurementHealth,
    /// Ethics accounting: queries received by the single busiest server.
    pub busiest_server_queries: u64,
    /// Analysis stages that panicked: their sections hold `Default`
    /// placeholder values and the report renders as partial.
    pub analysis_failures: Vec<AnalysisFailure>,
}

impl Report {
    /// Runs the full pipeline and all analyses.
    pub fn generate(campaign: &Campaign<'_>, config: RunnerConfig) -> Self {
        Report::generate_with(campaign, config, &CampaignTelemetry::default())
    }

    /// Runs the full pipeline and all analyses, recording telemetry
    /// into `ctl` — including a wall-clock span for the analysis stage
    /// itself and, when the campaign was traced, for its read-back:
    /// `trace.read` (decoding the trace file) and `analysis.evidence`
    /// (exemplars and smell evidence). The final snapshot (pipeline +
    /// analysis) is embedded in the report's dataset.
    pub fn generate_with(
        campaign: &Campaign<'_>,
        config: RunnerConfig,
        ctl: &CampaignTelemetry,
    ) -> Self {
        let dataset = run_campaign_with(campaign, config, ctl);
        let analysis_span = ctl.registry().span("analysis");
        let mut report =
            Report::from_dataset_guarded(campaign, dataset, Some(ctl.registry()), true);
        analysis_span.finish();
        report.busiest_server_queries =
            campaign.network.busiest_destinations(1).first().map(|&(_, c)| c).unwrap_or(0);
        if let Some(tracer) = ctl.tracer() {
            // A panicked analysis gets the flight recorder's last-seen
            // events appended to the trace file, tagged with its stage.
            for failure in &report.analysis_failures {
                tracer.analysis_dump(&failure.stage);
            }
            // Reading the file back (rather than holding blocks in
            // memory) keeps the runner's memory bounded and exercises
            // the same reader the inspection CLI uses.
            let read = ctl.registry().span("trace.read");
            let log = govdns_trace::read_trace(&tracer.spec().path);
            read.finish();
            if let Ok(log) = log {
                let evidence = ctl.registry().span("analysis.evidence");
                report.health.exemplars = trace_exemplars(&report.dataset, &log);
                report.smells.attach_evidence(&log);
                evidence.finish();
            }
        }
        let registry = ctl.registry();
        registry.counter("smell.detectors_run").add(SmellKind::all().len() as u64);
        registry.counter("smell.verdicts.total").add(report.smells.verdicts.len() as u64);
        for (kind, count) in &report.smells.by_kind {
            registry.counter(&format!("smell.verdicts.{kind}")).add(*count as u64);
        }
        registry.counter("smell.evidence.cited").add(report.smells.evidence_cited);
        // Re-freeze so the embedded snapshot covers the analysis span.
        report.dataset.telemetry = ctl.registry().snapshot();
        report
    }

    /// Runs the analyses over an existing dataset (reuse between
    /// experiments).
    pub fn from_dataset(campaign: &Campaign<'_>, dataset: MeasurementDataset) -> Self {
        Report::from_dataset_guarded(campaign, dataset, None, true)
    }

    /// The domains worth archiving when this run failed — the corpus
    /// capture hook. Domains cited by flight-recorder dumps come first
    /// (they are where an incident actually fired), then sampled
    /// degraded domains, deduplicated, at most `cap` names. Only
    /// domains with a block in `log` are returned: a corpus case must
    /// carry the recorded event stream it will later be replayed
    /// against.
    pub fn offending_domains(&self, log: &govdns_trace::TraceLog, cap: usize) -> Vec<String> {
        let blocks = log.blocks_by_name();
        let mut out: Vec<String> = Vec::new();
        let mut push = |name: &str| {
            if out.len() < cap && blocks.contains_key(name) && !out.iter().any(|n| n == name) {
                out.push(name.to_owned());
            }
        };
        for dump in &log.dumps {
            if let Some(domain) = &dump.domain {
                push(domain);
            }
        }
        for (i, probe) in self.dataset.probes.iter().enumerate() {
            if probe.degraded() {
                push(&self.dataset.discovered[i].name.to_string());
            }
        }
        out
    }

    /// The panic-isolated analysis pass: every stage runs under its own
    /// guard, so a panicking analysis degrades its section to `Default`
    /// and records an [`AnalysisFailure`] instead of tearing down the
    /// whole report. With a registry, each stage gets an
    /// `analysis.<stage>` span. With `split`, the last seven stages run
    /// on a second lane; the report is the same either way.
    fn from_dataset_guarded(
        campaign: &Campaign<'_>,
        dataset: MeasurementDataset,
        registry: Option<&govdns_telemetry::Registry>,
        split: bool,
    ) -> Self {
        let armed = failpoint::armed();
        let g = Guard { registry, armed: &armed };
        let ds = &dataset;
        // The last seven stages, in stage order, and their failures.
        let rest = || {
            let mut f = Vec::new();
            // Concentration and smells read one provider attribution of the
            // probes: whichever of them runs first builds it.
            let hosts = OnceCell::new();
            let attribution = OnceCell::new();
            let providers = || {
                attribution.get_or_init(|| {
                    let hosts = hosts.get_or_init(|| ProbedHosts::classify(ds, campaign.matchers));
                    ProbedAttribution::build(ds, hosts)
                })
            };
            let sections = (
                guarded(g, &mut f, "replication", || ActiveReplication::compute(ds)),
                guarded(g, &mut f, "diversity", || DiversityTable::compute(ds, campaign)),
                guarded(g, &mut f, "delegation", || DelegationAnalysis::compute(ds, campaign)),
                guarded(g, &mut f, "consistency", || ConsistencyAnalysis::compute(ds, campaign)),
                guarded(g, &mut f, "concentration", || {
                    ConcentrationAnalysis::from_attribution(providers())
                }),
                guarded(g, &mut f, "remedies", || RemediationSummary::compute(ds, campaign)),
                guarded(g, &mut f, "smells", || SmellAnalysis::from_attribution(ds, providers())),
            );
            (sections, f)
        };
        let (mut lon, yearly, (sections, mut rest_failures)) = std::thread::scope(|scope| {
            // The first six stages (the longitudinal chain and yearly)
            // take about as long as the last seven, so those get a lane
            // of their own. With the year index and the matcher index,
            // traced at 5% scale on a 2-vCPU VM (median of seven runs),
            // the first six sum to about 0.18 s and the last seven to
            // 0.16 s; yearly (0.07 s) on the second lane would tip the
            // balance to 0.11 s against 0.23 s. The chain
            // stays on the calling thread: run on the spawned one, the
            // analysis cost 25% more CPU than sequentially instead of 9%,
            // probably because the chain's allocations then went to a
            // fresh malloc arena.
            let lane = split
                .then(|| {
                    std::thread::Builder::new()
                        .name("analysis-1".to_owned())
                        .spawn_scoped(scope, rest)
                        .ok()
                })
                .flatten();
            let mut lon = longitudinal_sections(g, campaign, ds);
            let yearly = guarded(g, &mut lon.failures, "yearly", || {
                YearlyTotals::compute_raw(campaign, &ds.seeds)
            });
            let rest = match lane {
                Some(lane) => lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
                None => rest(),
            };
            (lon, yearly, rest)
        });
        let (
            active_replication,
            diversity,
            delegation,
            consistency,
            concentration,
            remedies,
            smells,
        ) = sections;
        lon.failures.append(&mut rest_failures);
        let mut report = Report {
            funnel: dataset.funnel(),
            levels: LevelMix::compute(&dataset),
            yearly,
            per_country_2020: lon.per_country_2020,
            churn: lon.churn,
            private_share: lon.private_share,
            active_replication,
            diversity,
            providers: lon.providers,
            delegation,
            consistency,
            concentration,
            remedies,
            smells,
            health: MeasurementHealth::compute(&dataset),
            busiest_server_queries: 0,
            analysis_failures: lon.failures,
            dataset,
        };
        report.health.smell_verdicts = report.smells.verdicts.len();
        report.health.smell_domains = report.smells.domains_affected;
        report
    }

    /// Writes every table and figure as CSV into `dir` (created if
    /// absent), plus the one-row-per-domain dataset summary.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn write_csv_bundle(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let write = |name: &str, csv: String| std::fs::write(dir.join(name), csv);
        // Files produced by a panicked stage are *omitted* (their data
        // is a `Default` placeholder); `analysis_failed.csv` below names
        // the missing stages.
        let failed = |stage: &str| self.analysis_failures.iter().any(|f| f.stage == stage);
        let staged = |stage: &str, name: &str, csv: &dyn Fn() -> String| -> std::io::Result<()> {
            if failed(stage) {
                Ok(())
            } else {
                std::fs::write(dir.join(name), csv())
            }
        };
        staged("yearly", "fig02_03_yearly.csv", &|| self.yearly.table().to_csv())?;
        staged("per_country", "fig04_domains_per_country.csv", &|| {
            self.per_country_2020.table().to_csv()
        })?;
        staged("churn", "fig06_d1ns_churn.csv", &|| self.churn.table().to_csv())?;
        staged("private_share", "fig07_private_share.csv", &|| {
            self.private_share.table().to_csv()
        })?;
        staged("replication", "fig08_d1ns_stale.csv", &|| {
            self.active_replication.stale_table().to_csv()
        })?;
        staged("replication", "fig09_ns_cdf.csv", &|| {
            self.active_replication.cdf_table().to_csv()
        })?;
        staged("diversity", "table1_diversity.csv", &|| self.diversity.table().to_csv())?;
        staged("providers", "table2_major_providers.csv", &|| self.providers.table2().to_csv())?;
        staged("providers", "table3_top_providers_2011.csv", &|| {
            self.providers.table3(2011).to_csv()
        })?;
        staged("providers", "table3_top_providers_2020.csv", &|| {
            self.providers.table3(2020).to_csv()
        })?;
        staged("delegation", "fig10_defective_by_country.csv", &|| {
            self.delegation.per_country_table().to_csv()
        })?;
        staged("delegation", "fig11_available_dns.csv", &|| {
            self.delegation.available_table().to_csv()
        })?;
        staged("delegation", "fig12_costs.csv", &|| self.delegation.cost_table().to_csv())?;
        staged("consistency", "fig13_consistency.csv", &|| {
            self.consistency.summary_table().to_csv()
        })?;
        staged("consistency", "fig14_disagreement.csv", &|| {
            self.consistency.per_country_table().to_csv()
        })?;
        staged("concentration", "concentration.csv", &|| self.concentration.table(30).to_csv())?;
        staged("smells", "smells.csv", &|| self.smells.to_csv())?;
        write("dataset_summary.csv", self.dataset.to_summary_csv())?;
        write("telemetry_scalars.csv", self.dataset.telemetry.scalars_csv())?;
        write("telemetry_stages.csv", self.dataset.telemetry.stages_csv())?;
        write("telemetry_histograms.csv", self.dataset.telemetry.histograms_csv())?;
        write("telemetry_toplists.csv", self.dataset.telemetry.toplists_csv())?;
        write("telemetry_ledger.csv", self.dataset.telemetry.ledger_csv())?;
        write("telemetry.prom", self.dataset.telemetry.render_prometheus())?;
        write("measurement_health.csv", self.health.table().to_csv())?;
        if !self.analysis_failures.is_empty() {
            let mut t = crate::tables::TextTable::new(["stage", "message"]);
            for failure in &self.analysis_failures {
                t.push_row([failure.stage.clone(), failure.message.clone()]);
            }
            write("analysis_failed.csv", t.to_csv())?;
        }
        Ok(())
    }

    /// Renders the full report as plain text — the same rows and series
    /// the paper's tables and figures carry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let failed = |stage: &str| self.analysis_failures.iter().any(|f| f.stage == stage);
        let mut section = |title: &str, body: String| {
            let _ = writeln!(out, "== {title} ==\n{body}");
        };
        // Sections tied to an analysis stage wrap their body in
        // `stage_body!`, which renders a placeholder — *without
        // evaluating the body* — when that stage panicked.
        macro_rules! stage_body {
            ($stage:literal, $body:expr) => {
                if failed($stage) {
                    format!(
                        "(unavailable — analysis stage `{}` panicked; see `analysis.failed`)\n",
                        $stage
                    )
                } else {
                    $body
                }
            };
        }

        section(
            "collection funnel (§III-B)",
            format!(
                "queried: {}\nparent-responsive: {}\nparent-nonempty: {}\nchild-responsive: {}\nsecond-round probes: {}\nqueries: {} ({} bytes out, {} bytes in)\n",
                self.funnel.queried,
                self.funnel.parent_responsive,
                self.funnel.parent_nonempty,
                self.funnel.child_responsive,
                self.dataset.retried,
                self.dataset.traffic.queries_sent,
                self.dataset.traffic.bytes_sent,
                self.dataset.traffic.bytes_received,
            ),
        );
        if self.busiest_server_queries > 0 {
            section(
                "ethics accounting (§III-D)",
                format!(
                    "busiest single server received {} queries of {} total ({:.2}%)
",
                    self.busiest_server_queries,
                    self.dataset.traffic.queries_sent,
                    100.0 * self.busiest_server_queries as f64
                        / self.dataset.traffic.queries_sent.max(1) as f64,
                ),
            );
        }
        section(
            "domain levels (§III-B)",
            format!(
                "second: {:.1}%  third: {:.1}%  fourth: {:.1}%  fifth+: {:.1}%\n",
                self.levels.second, self.levels.third, self.levels.fourth, self.levels.fifth_plus
            ),
        );
        section(
            "Fig 2/3 — PDNS domains, countries, nameservers per year",
            stage_body!("yearly", self.yearly.table().to_text()),
        );
        section(
            "Fig 4 — domains per country, 2020 (top 20)",
            stage_body!("per_country", {
                let mut t = crate::tables::TextTable::new(["country", "domains"]);
                for (c, n) in self.per_country_2020.rows.iter().take(20) {
                    t.push_row([c.to_string(), n.to_string()]);
                }
                t.to_text()
            }),
        );
        section(
            "Fig 6 — single-NS cohort churn",
            stage_body!("churn", self.churn.table().to_text()),
        );
        section(
            "Fig 7 — private ADNS share per year",
            stage_body!("private_share", self.private_share.table().to_text()),
        );
        section(
            "Fig 8 — stale single-NS domains by d_gov",
            stage_body!(
                "replication",
                format!(
                    "overall: {} d1NS, {:.1}% without any authoritative response\n{}",
                    self.active_replication.d1ns_total,
                    self.active_replication.d1ns_stale_share,
                    self.active_replication.stale_table().to_text()
                )
            ),
        );
        section(
            "Fig 9 — nameservers per domain (CDF)",
            stage_body!(
                "replication",
                format!(
                    "≥2 NS: {:.1}%  |  countries with no under-replicated domain: {}  |  countries ≥ 10% single-NS: {}\n{}",
                    self.active_replication.multi_ns_share,
                    self.active_replication.all_replicated_countries,
                    self.active_replication.high_d1ns_countries.len(),
                    self.active_replication.cdf_table().to_text()
                )
            ),
        );
        section(
            "Table I — diversity of nameserver placement",
            stage_body!(
                "diversity",
                format!(
                    "{}\nsecond-level multi-/24: {:.1}%  deeper: {:.1}%\n",
                    self.diversity.table().to_text(),
                    self.diversity.second_level_multi_24_pct,
                    self.diversity.deeper_multi_24_pct
                )
            ),
        );
        section(
            "Table II — major providers, 2011 vs 2020",
            stage_body!("providers", self.providers.table2().to_text()),
        );
        section(
            "Table III — top providers by countries, 2011",
            stage_body!("providers", self.providers.table3(2011).to_text()),
        );
        section(
            "Table III — top providers by countries, 2020",
            stage_body!("providers", self.providers.table3(2020).to_text()),
        );
        section(
            "centralization headline",
            stage_body!(
                "providers",
                format!(
                    "countries on the most widespread provider: {} (2011) → {} (2020)\n",
                    self.providers.top_provider_countries(2011),
                    self.providers.top_provider_countries(2020)
                )
            ),
        );
        section(
            "Fig 10 — defective delegations",
            stage_body!(
                "delegation",
                format!(
                    "any: {} ({:.1}%)  partial(parent): {} ({:.1}%)  full: {}\n{}",
                    self.delegation.any_defective,
                    self.delegation.any_defective_pct(),
                    self.delegation.partial_parent,
                    self.delegation.partial_parent_pct(),
                    self.delegation.fully_defective,
                    self.delegation.per_country_table().to_text()
                )
            ),
        );
        section(
            "Fig 11 — registrable dangling NS domains",
            stage_body!(
                "delegation",
                format!(
                    "available d_ns: {}  affected domains: {}  countries: {}  fully stale: {}\n{}",
                    self.delegation.available.len(),
                    self.delegation.affected_domains,
                    self.delegation.affected_countries,
                    self.delegation.affected_fully_stale,
                    self.delegation.available_table().to_text()
                )
            ),
        );
        section(
            "Fig 12 — registration cost of available d_ns",
            stage_body!("delegation", self.delegation.cost_table().to_text()),
        );
        section(
            "Fig 13 — parent/child consistency",
            stage_body!(
                "consistency",
                format!(
                    "{}\nP=C second-level: {:.1}%  deeper: {:.1}%  |  P≠C with partial lame: {:.1}%\n",
                    self.consistency.summary_table().to_text(),
                    self.consistency.equal_pct_second_level,
                    self.consistency.equal_pct_deeper,
                    self.consistency.disagree_with_lame_pct
                )
            ),
        );
        section(
            "Fig 14 — disagreement by country",
            stage_body!("consistency", self.consistency.per_country_table().to_text()),
        );
        section(
            "§IV-A (text) — provider concentration per d_gov",
            stage_body!("concentration", self.concentration.table(12).to_text()),
        );
        section(
            "§IV-D — inconsistency-only hijack surface",
            stage_body!(
                "consistency",
                format!(
                    "registrable d_ns: {}  affected domains: {}  countries: {}  min price: {}\n",
                    self.consistency.parked.len(),
                    self.consistency.parked_affected_domains,
                    self.consistency.parked_affected_countries,
                    self.consistency
                        .parked_min_price
                        .map_or("-".to_owned(), |p| format!("{p:.2} USD")),
                )
            ),
        );
        if !self.dataset.telemetry.counters.is_empty() || !self.dataset.telemetry.stages.is_empty()
        {
            section("pipeline telemetry", self.dataset.telemetry.render_text());
        }
        section(
            "§V-B — remediation workload",
            stage_body!(
                "remedies",
                format!(
                    "domains needing action: {} of {}\nstale delegations to remove: {}\nNS records to fix or drop: {}\nparent syncs (CSYNC/EPP): {}\nhijack exposures to close: {}\nplacement advisories: {}\nflakiness follow-ups: {}\nquarantine follow-ups: {}\n",
                    self.remedies.needing_action,
                    self.remedies.domains,
                    self.remedies.removals,
                    self.remedies.ns_fixes,
                    self.remedies.synchronizations,
                    self.remedies.hijack_exposures,
                    self.remedies.placement_advice,
                    self.remedies.flakiness_followups,
                    self.remedies.quarantine_followups,
                )
            ),
        );
        section(
            "§V — operational smells (trace-cited)",
            stage_body!(
                "smells",
                format!(
                    "verdicts: {} across {} domains  |  evidence events cited: {}\n{}worst verdicts:\n{}",
                    self.smells.verdicts.len(),
                    self.smells.domains_affected,
                    self.smells.evidence_cited,
                    self.smells.table().to_text(),
                    self.smells.verdict_table(10).to_text(),
                )
            ),
        );
        {
            let mut body = self.health.table().to_text();
            if !self.health.quarantined.is_empty() {
                let mut t = crate::tables::TextTable::new(["destination", "denied"]);
                for (dst, denied) in &self.health.quarantined {
                    t.push_row([dst.clone(), denied.to_string()]);
                }
                let _ = write!(body, "quarantined destinations:\n{}", t.to_text());
            }
            if !self.health.flaky_countries.is_empty() {
                let mut t = crate::tables::TextTable::new(["country", "responsive", "degraded"]);
                for &(c, total, degraded) in &self.health.flaky_countries {
                    t.push_row([c.to_string(), total.to_string(), degraded.to_string()]);
                }
                let _ = write!(body, "flakiest countries:\n{}", t.to_text());
            }
            if !self.health.exemplars.is_empty() {
                let _ = writeln!(body, "exemplar degraded-domain timelines (flight recorder):");
                for exemplar in &self.health.exemplars {
                    let _ = writeln!(body, "{exemplar}");
                }
            }
            section("measurement health (§III-B re-probes, chaos)", body);
        }
        if !self.analysis_failures.is_empty() {
            let mut body = String::new();
            let _ = writeln!(
                body,
                "PARTIAL REPORT: {} analysis stage(s) did not complete.",
                self.analysis_failures.len()
            );
            for failure in &self.analysis_failures {
                let _ = writeln!(body, "  {}: {}", failure.stage, failure.message);
            }
            section("analysis.failed", body);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govdns_world::{WorldConfig, WorldGenerator};

    #[test]
    fn the_second_lane_does_not_change_the_report() {
        let world = WorldGenerator::new(WorldConfig::small(44).with_scale(0.004)).generate();
        let matchers = world.catalog.matchers();
        let campaign = Campaign::new(&world, &matchers);
        let dataset = crate::run_campaign(&campaign, RunnerConfig::default());
        let report = |split| Report::from_dataset_guarded(&campaign, dataset.clone(), None, split);
        // One stage of each lane, the longitudinal chain's head and its
        // last dependant, and yearly, whose failure sits between the lanes'.
        for armed in
            [None, Some("longitudinal"), Some("providers"), Some("yearly"), Some("diversity")]
        {
            if let Some(stage) = armed {
                failpoint::arm(stage);
            }
            let (inline, split) = (report(false), report(true));
            failpoint::disarm();
            assert_eq!(inline.analysis_failures, split.analysis_failures, "armed {armed:?}");
            assert_eq!(inline.analysis_failures.is_empty(), armed.is_none(), "armed {armed:?}");
            assert!(
                format!("{inline:?}") == format!("{split:?}"),
                "armed {armed:?}: reports differ"
            );
        }
    }
}
