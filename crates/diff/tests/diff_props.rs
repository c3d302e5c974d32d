//! Property tests for the cross-run diff engine's core contracts:
//! a run diffed against itself is empty no matter how it was
//! parallelised, the diff of two *different* runs is invariant to the
//! worker counts that produced them, and a corpus case survives the
//! full capture → JSON → replay round trip byte-identically.
//!
//! Campaigns are expensive relative to a property-test iteration, so
//! runs are memoized per `(seed, workers)` in a process-wide cache and
//! the input space is kept deliberately small — the point is the
//! invariant over a handful of genuinely distinct campaigns, not
//! thousands of near-identical ones.

use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

use govdns_core::report::{failpoint, Report};
use govdns_core::{BreakerPolicy, CampaignTelemetry, ChaosSpec, RetryPolicy, RunnerConfig};
use govdns_diff::{CorpusCase, DatasetView, ReplaySetup, RunDiff, TraceDiff};
use govdns_simnet::ChaosProfile;
use govdns_trace::{read_trace, TraceLog, TraceSpec, DEFAULT_FLIGHT_CAPACITY};
use govdns_world::{WorldConfig, WorldGenerator};
use proptest::prelude::*;

/// Campaign scale for the memoized runs — a few hundred domains, big
/// enough to exercise every outcome class and chaos verdict.
const SCALE_PPM: u64 = 1_500;

struct RunArtifacts {
    canonical: String,
    log: TraceLog,
}

/// The replay-safe configuration the diff CLI's `run` mode uses: flaky
/// chaos, no breakers, unlimited retry budget (see `govdns diff run`).
fn replay_safe_config(seed: u64, workers: usize, trace: &std::path::Path) -> RunnerConfig {
    RunnerConfig {
        workers,
        retry: RetryPolicy { per_destination_budget: None, ..RetryPolicy::adaptive() },
        chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed }),
        breaker: BreakerPolicy::none(),
        trace: Some(TraceSpec::new(trace).with_seed(seed)),
        ..RunnerConfig::default()
    }
}

/// Runs (or recalls) the campaign for `(seed, workers)` and returns its
/// comparable artifacts: canonical dataset JSON and the decoded trace.
fn run(seed: u64, workers: usize) -> (String, TraceLog) {
    static CACHE: OnceLock<Mutex<HashMap<(u64, usize), RunArtifacts>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("run cache");
    let entry = cache.entry((seed, workers)).or_insert_with(|| {
        let scale = SCALE_PPM as f64 / 1_000_000.0;
        let world = WorldGenerator::new(WorldConfig::small(seed).with_scale(scale)).generate();
        let matchers = world.catalog.matchers();
        let campaign = govdns_core::Campaign::new(&world, &matchers);
        let trace_path = std::env::temp_dir()
            .join(format!("diff-props-{}-{seed}-{workers}.trace", std::process::id()));
        let config = replay_safe_config(seed, workers, &trace_path);
        let ctl = CampaignTelemetry::new();
        let report = Report::generate_with(&campaign, config, &ctl);
        let log = read_trace(&trace_path).expect("trace file");
        let _ = std::fs::remove_file(&trace_path);
        RunArtifacts { canonical: report.dataset.canonical_json(), log }
    });
    (entry.canonical.clone(), entry.log.clone())
}

fn view(canonical: &str) -> DatasetView {
    DatasetView::from_canonical_json(canonical).expect("canonical dataset parses")
}

proptest! {
    /// The determinism gate: a campaign diffed against a re-run of
    /// itself is empty for any seed at ANY pair of worker counts —
    /// dataset, trace alignment, and the whole `RunDiff`.
    #[test]
    fn self_diff_is_empty_at_any_worker_count(
        seed in 1u64..4,
        wa in prop::sample::select(vec![1usize, 2, 8]),
        wb in prop::sample::select(vec![1usize, 4]),
    ) {
        let (canon_a, log_a) = run(seed, wa);
        let (canon_b, log_b) = run(seed, wb);
        let dataset = view(&canon_a).diff(&view(&canon_b));
        prop_assert!(dataset.is_empty(), "dataset self-diff not empty: {dataset:?}");
        let trace = TraceDiff::compare(&log_a, &log_b);
        prop_assert!(trace.is_empty(), "trace self-diff not empty");
        prop_assert_eq!(trace.identical, trace.aligned);
        let full = RunDiff { dataset, trace: Some(trace), ..RunDiff::default() };
        prop_assert!(full.is_empty());
        prop_assert_eq!(full.differences(), 0);
    }

    /// Cross-seed diffs are a function of the *runs*, not of how they
    /// were parallelised: the first-divergence report (and the entire
    /// diff JSON) is byte-identical whichever worker counts produced
    /// the two sides.
    #[test]
    fn cross_seed_diff_is_worker_invariant(
        seeds in prop::sample::select(vec![(1u64, 2u64), (2, 3), (1, 3)]),
        wa in prop::sample::select(vec![1usize, 2]),
        wb in prop::sample::select(vec![4usize, 8]),
    ) {
        let (sa, sb) = seeds;
        let build = |w_left: usize, w_right: usize| {
            let (canon_a, log_a) = run(sa, w_left);
            let (canon_b, log_b) = run(sb, w_right);
            let dataset = view(&canon_a).diff(&view(&canon_b));
            let trace = TraceDiff::compare(&log_a, &log_b);
            RunDiff { dataset, trace: Some(trace), ..RunDiff::default() }
        };
        let reference = build(1, 1);
        let varied = build(wa, wb);
        prop_assert!(!reference.is_empty(), "different seeds must differ");
        prop_assert_eq!(varied.to_json(), reference.to_json());
    }
}

/// The full corpus pipeline, end to end: arm the analysis failpoint,
/// run a traced campaign, capture the offending domains, round-trip
/// the case through JSON, and replay it byte-identically against a
/// fresh simnet.
#[test]
fn corpus_replay_round_trips_end_to_end() {
    let seed = 5u64;
    let scale = SCALE_PPM as f64 / 1_000_000.0;
    let world = WorldGenerator::new(WorldConfig::small(seed).with_scale(scale)).generate();
    let matchers = world.catalog.matchers();
    let campaign = govdns_core::Campaign::new(&world, &matchers);
    let trace_path =
        std::env::temp_dir().join(format!("diff-props-corpus-{}.trace", std::process::id()));
    let config = replay_safe_config(seed, 4, &trace_path);
    let ctl = CampaignTelemetry::new();

    failpoint::arm("providers");
    let report = Report::generate_with(&campaign, config, &ctl);
    failpoint::disarm();
    assert_eq!(report.analysis_failures.len(), 1, "failpoint must trip exactly one stage");

    let log = read_trace(&trace_path).expect("trace file");
    let _ = std::fs::remove_file(&trace_path);
    let setup = ReplaySetup {
        world_seed: seed,
        scale_ppm: SCALE_PPM,
        chaos: Some((ChaosProfile::Flaky, seed)),
        max_qps: RunnerConfig::default().max_qps,
        retry: RetryPolicy { per_destination_budget: None, ..RetryPolicy::adaptive() },
        second_round: true,
        flight_capacity: DEFAULT_FLIGHT_CAPACITY,
    };
    let case = CorpusCase::capture("props-e2e", "analysis_panic:providers", &setup, &report, &log)
        .expect("capture offending domains");
    assert!(!case.domains.is_empty());

    // JSON round trip is exact, including the byte-stable encoding.
    let json = case.to_json();
    let back = CorpusCase::from_json(&json).expect("corpus case parses");
    assert_eq!(back.to_json(), json);

    // Replaying the parsed case reproduces every recorded block.
    let outcome = back.replay().expect("replay runs");
    assert!(
        outcome.is_clean(),
        "replay must be byte-identical: {} of {} diverged",
        outcome.mismatches.len(),
        outcome.domains
    );
    assert_eq!(outcome.matched, case.domains.len());
}
