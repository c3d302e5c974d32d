//! The traced run: one workload's per-layer ledger.
//!
//! Untraced reference iterations come first (at the workload's worker
//! count, and at one worker for a multi-worker workload); then one
//! iteration through the [`traced`](crate::traced) runner at one
//! worker, whose outcome must equal the references'; then the substrate
//! [`layers`] replays over the traced campaign's exchanges. Layers a
//! workload bypasses report 0.

use std::time::Instant;

use govdns_simnet::ChaosProfile;
use govdns_telemetry::TelemetrySnapshot;

use crate::layers;
use crate::spans::Spans;
use crate::traced::{traced_analysis, traced_campaign};
use crate::workload::{
    chaos_seed, check_journal, check_pins, reset, run_iteration, Digest, Iteration, Setup,
    Workload, ANALYSIS_STAGES,
};
use crate::{stats, Checks, Metric, Outcome, Plan};

/// Timed untraced reference iterations before the traced one.
const REFERENCE_ITERS: usize = 2;

/// How far the summed span self time may sit from the traced wall
/// time before the ledger counts as not adding up, percent.
const COVERAGE_TOLERANCE_PCT: f64 = 5.0;

/// The top-level runner spans whose sum `runner.unattributed_s`
/// subtracts from the iteration wall time.
const RUNNER_STAGES: [&str; 4] = ["seed", "discovery", "round1", "analysis"];

/// The ledger layer a span's self time belongs to.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "seed" => "seed",
        "discovery" => "discovery",
        "probe.domain" | "round2" => "probe",
        s if s.starts_with("journal.") || s.starts_with("trace.") => "sinks",
        s if s == "analysis" || s.starts_with("analysis.") => "analysis",
        _ => "runner",
    }
}

/// The layers of [`layer_of`], in reporting order.
pub const LAYERS: [&str; 6] = ["seed", "discovery", "runner", "probe", "sinks", "analysis"];

/// Runs the workload's traced ledger.
///
/// # Panics
///
/// Panics on an I/O error in the plan's directories.
pub fn run_traced(plan: &Plan) -> Outcome {
    let setup = Setup::new(plan, 1);
    let campaign = setup.campaign();
    let mut checks = Checks::default();
    let workers = plan.workload.workers();

    let warm = run_iteration(&setup, plan, workers);
    warm.digest.check_stages(&mut checks);
    check_pins(plan, &warm.digest, &mut checks);
    let mut refs: Vec<Iteration> = Vec::new();
    for _ in 0..REFERENCE_ITERS.min(plan.min_iters) {
        let it = run_iteration(&setup, plan, workers);
        it.digest.compare(&warm.digest, "untraced reference", &mut checks);
        refs.push(it);
    }
    // Journal and trace files of the latest untraced iteration.
    let (mut journal_per_domain, mut trace_per_domain, mut replay_s) = (0.0, 0.0, 0.0);
    if plan.workload == Workload::Durable {
        let per_domain = |ext: &str| {
            let bytes = std::fs::metadata(plan.work_file("campaign", ext)).map_or(0, |m| m.len());
            bytes as f64 / refs.last().map_or(warm.domains, |r| r.domains).max(1) as f64
        };
        journal_per_domain = per_domain("journal");
        trace_per_domain = per_domain("trace");
        replay_s = check_journal(plan, &mut checks);
    }
    let one = (workers > 1).then(|| run_iteration(&setup, plan, 1));
    if let Some(one) = &one {
        one.digest.compare(&warm.digest, "one-worker reference", &mut checks);
    }

    reset(campaign.network);
    let config = plan.runner_config(1, "traced");
    let trace_file = config.trace.as_ref().map(|t| t.path.clone());
    let mut spans = Spans::default();
    let archived = setup.archived.as_ref();
    let to_analyse = archived.map(|a| a.dataset.clone());
    let start = Instant::now();
    let traced_ds = traced_campaign(&campaign, &config, &mut spans);
    // `durable` analyses its own campaign, `analysis` the archived one.
    let (traced_ds, report) = match (plan.workload, to_analyse) {
        (Workload::Durable, _) => {
            (None, Some(traced_analysis(&campaign, traced_ds, trace_file.as_deref(), &mut spans)))
        }
        (_, Some(dataset)) => {
            (Some(traced_ds), Some(traced_analysis(&campaign, dataset, None, &mut spans)))
        }
        (_, None) => (Some(traced_ds), None),
    };
    let traced_s = start.elapsed().as_secs_f64();
    let digest = match (&report, &trace_file, &traced_ds) {
        (Some(r), Some(trace), _) => Digest::of_durable(r, trace),
        (Some(r), None, _) => Digest::of_analysis(r, &plan.work.join("csv")),
        (None, _, Some(ds)) => Digest::of_dataset(ds, plan.workload == Workload::Chaos),
        (None, _, None) => unreachable!("every workload drives a campaign"),
    };
    let traced_ds =
        traced_ds.or(report.map(|r| r.dataset)).expect("the traced runner ran a campaign");
    digest.compare(&warm.digest, "traced runner", &mut checks);
    digest.check_stages(&mut checks);
    if let Some(a) = archived {
        checks.check(traced_ds.canonical_json() == a.dataset.canonical_json(), || {
            "traced runner: archived campaign not reproduced".to_owned()
        });
    }
    let own = spans.self_secs();
    let coverage_pct = 100.0 * own.iter().sum::<f64>() / traced_s;
    checks.check((coverage_pct - 100.0).abs() <= COVERAGE_TOLERANCE_PCT, || {
        format!("span self times cover {coverage_pct:.2}% of the traced wall time")
    });
    spans
        .write_jsonl(&plan.out.join(format!("spans-{}.jsonl", plan.workload.name())))
        .expect("write the span file");

    let pdns_us = layers::pdns_search_us(&campaign, &traced_ds.seeds);
    reset(campaign.network);
    let clean = layers::replay_exchanges(campaign.network, &traced_ds.probes, true);
    campaign.network.install_faults(Some(ChaosProfile::Congested.plan(chaos_seed(plan.seed))));
    let faulted = layers::replay_exchanges(campaign.network, &traced_ds.probes, false);
    reset(campaign.network);
    let (resolve_us, queries_per_resolve) = layers::replay_resolver(&campaign, &traced_ds.probes);
    let _ = std::fs::remove_dir_all(&plan.work);

    // The runner's own telemetry: the untraced references', or for
    // `analysis` the archived campaign's.
    let (tel, walls): (Vec<&TelemetrySnapshot>, Vec<f64>) = match archived {
        Some(a) => (vec![&a.dataset.telemetry], vec![a.wall_s]),
        None => {
            (refs.iter().map(|r| &r.telemetry).collect(), refs.iter().map(|r| r.wall_s).collect())
        }
    };
    let across = |f: &dyn Fn(&TelemetrySnapshot) -> f64| {
        stats::median(&tel.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    let counter = |name: &str| across(&|t| t.counters.get(name).copied().unwrap_or(0) as f64);
    let gauge = |name: &str| across(&|t| t.gauges.get(name).copied().unwrap_or(0) as f64);
    let stage =
        |t: &TelemetrySnapshot, name: &str| t.stages.get(name).map_or(0.0, |s| s.total_secs);
    let round1 = across(&|t| stage(t, "round1"));
    let unattributed: Vec<f64> = walls
        .iter()
        .zip(&tel)
        .map(|(w, t)| w - RUNNER_STAGES.iter().map(|s| stage(t, s)).sum::<f64>())
        .collect();
    let parallel_efficiency = match &one {
        Some(one) => stage(&one.telemetry, "round1") / (workers as f64 * round1),
        None => 1.0,
    };
    let untraced_s = stats::median(&refs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let overhead_pct = match (plan.workload, &one) {
        (Workload::Analysis, _) => 100.0 * (spans.total_secs("analysis") / untraced_s - 1.0),
        (_, Some(one)) => 100.0 * (traced_s / one.wall_s - 1.0),
        (_, None) => 100.0 * (traced_s / untraced_s - 1.0),
    };

    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str, n: usize| {
        m.push(Metric { name: name.to_owned(), value, unit, n });
    };
    let pct = |samples: &[f64], p: f64| stats::percentile(&stats::sorted(samples), p);
    let spans_of = |name: &str| spans.durations_us(name);
    let (domain_us, round2_us) = (spans_of("probe.domain"), spans_of("round2"));
    let (capture_us, checkpoint_us) = (spans_of("journal.capture"), spans_of("journal.checkpoint"));
    let nt = tel.len();
    let probed = counter("runner.domains_probed");

    put("world.generate_s", setup.generate_s[0], "s", 1);
    put("seed.select_s", spans.total_secs("seed"), "s", 1);
    put("discovery.discover_s", spans.total_secs("discovery"), "s", 1);
    put("pdns.search_subtree_us.p50", pct(&pdns_us, 0.5), "us", pdns_us.len());
    put("pdns.search_subtree_us.p90", pct(&pdns_us, 0.9), "us", pdns_us.len());
    put("probe.domain_us.p50", pct(&domain_us, 0.5), "us", domain_us.len());
    put("probe.domain_us.p99", pct(&domain_us, 0.99), "us", domain_us.len());
    put("probe.round2_us.p50", pct(&round2_us, 0.5), "us", round2_us.len());
    put("probe.retried_domains", traced_ds.retried as f64, "count", 1);
    put(
        "probe.authoritative_per_query",
        stats::ratio(counter("probe.class.authoritative"), counter("net.queries")),
        "ratio",
        nt,
    );
    let attempts = counter("probe.retry.attempts");
    put("probe.retry.attempts_per_domain", stats::ratio(attempts, probed), "ratio", nt);
    put(
        "probe.retry.recovered_ratio",
        stats::ratio(counter("probe.retry.recovered"), attempts),
        "ratio",
        nt,
    );
    put("probe.retry.budget_denied", counter("probe.retry.budget_denied"), "count", nt);
    put("simnet.deliver_ns.p50", pct(&clean.deliver_ns, 0.5), "ns", clean.deliver_ns.len());
    put("simnet.deliver_ns.p99", pct(&clean.deliver_ns, 0.99), "ns", clean.deliver_ns.len());
    put("server.handle_ns.p50", pct(&clean.handle_ns, 0.5), "ns", clean.handle_ns.len());
    put("server.handle_ns.p99", pct(&clean.handle_ns, 0.99), "ns", clean.handle_ns.len());
    put(
        "simnet.timeout_ratio",
        stats::ratio(clean.timeouts as f64, clean.deliver_ns.len() as f64),
        "ratio",
        clean.deliver_ns.len(),
    );
    put(
        "simnet.deliver_faulted_ns.p50",
        pct(&faulted.deliver_ns, 0.5),
        "ns",
        faulted.deliver_ns.len(),
    );
    put("resolver.resolve_us.p50", pct(&resolve_us, 0.5), "us", resolve_us.len());
    put("resolver.resolve_us.p99", pct(&resolve_us, 0.99), "us", resolve_us.len());
    put("resolver.queries_per_resolve", queries_per_resolve, "ratio", resolve_us.len());
    put("runner.round1_s", round1, "s", nt);
    put("runner.parallel_efficiency", parallel_efficiency, "ratio", nt);
    put("runner.worker_busy_spread_pct", gauge("runner.worker_busy_spread_pct"), "%", nt);
    put("runner.chunk_claims", gauge("runner.chunk_claims"), "count", nt);
    put("runner.unattributed_s", stats::median(&unattributed), "s", nt);
    put("runner.sink_wait_ms", gauge("runner.sink_wait_ns") / 1e6, "ms", nt);
    put("runner.sink_queue_depth", gauge("runner.sink_queue_depth"), "count", nt);
    put("journal.bytes_per_domain", journal_per_domain, "B/domain", 1);
    put("journal.checkpoints", checkpoint_us.len() as f64, "count", 1);
    put("journal.capture_us.p50", pct(&capture_us, 0.5), "us", capture_us.len());
    put("journal.checkpoint_us.p50", pct(&checkpoint_us, 0.5), "us", checkpoint_us.len());
    put("journal.replay_s", replay_s, "s", 1);
    put("trace.bytes_per_domain", trace_per_domain, "B/domain", 1);
    put("trace.read_s", spans.total_secs("trace.read"), "s", 1);
    for stage in ANALYSIS_STAGES.into_iter().chain(["analysis.evidence"]) {
        put(&format!("{stage}_s"), spans.total_secs(stage), "s", 1);
    }
    for layer in LAYERS {
        let secs: f64 = spans
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| layer_of(s.name) == layer)
            .fold(0.0, |a, (_, secs)| a + secs);
        put(&format!("self.{layer}_s"), secs, "s", 1);
    }
    put("bench.traced_overhead_pct", overhead_pct, "%", 1);
    put("bench.span_coverage_pct", coverage_pct, "%", spans.spans().len());

    Outcome { workload: plan.workload, metrics: m, extras: Vec::new(), checks }
}
