//! The benchmark harness at a tiny scale: every metric `BENCHMARK.json`
//! names is emitted and finite, the traced runner measures the same
//! program as `run_campaign`, and the per-iteration reset makes
//! iterations repeat exactly.

use std::path::PathBuf;

use govdns_core::run_campaign;
use govdns_perf::json::{self, Json};
use govdns_perf::spans::Spans;
use govdns_perf::traced::traced_campaign;
use govdns_perf::workload::{self, rows_fingerprint, rows_of, Setup};
use govdns_perf::{ledger, Plan, Workload};

const SCALE: f64 = 0.002;

/// A one-iteration plan at [`SCALE`], in a directory of its own.
fn plan(workload: Workload, test: &str) -> Plan {
    let out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", workload.name()));
    std::fs::create_dir_all(&out).unwrap();
    let mut plan = Plan::new(workload, workload::DEFAULT_SEED, 0.0, out);
    plan.scale = SCALE;
    plan.min_iters = 1;
    plan
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

#[test]
fn every_benchmark_metric_is_emitted_and_finite() {
    let bench = benchmark();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&bench, "workloads"), workloads);
    for w in Workload::ALL {
        let plan = plan(w, "metrics");
        for (outcome, key) in [
            (workload::run_untraced(&plan), "end_to_end"),
            (ledger::run_traced(&plan), "per_layer"),
        ] {
            assert!(outcome.correct(), "{} {key}: {:?}", w.name(), outcome.checks.failures);
            let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, names(&bench, key), "{} {key}", w.name());
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
            let line = json::parse(&outcome.result_line()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
    }
}

#[test]
fn traced_runner_reproduces_run_campaign() {
    for w in [Workload::Probe, Workload::Chaos] {
        let plan = plan(w, "traced");
        let setup = Setup::new(&plan, 1);
        let campaign = setup.campaign();
        workload::reset(campaign.network);
        let untraced = run_campaign(&campaign, plan.runner_config(w.workers(), "campaign"));
        workload::reset(campaign.network);
        let mut spans = Spans::default();
        let traced_ds = traced_campaign(&campaign, &plan.runner_config(1, "traced"), &mut spans);
        assert!(!traced_ds.probes.is_empty());
        assert_eq!(
            rows_fingerprint(&rows_of(&traced_ds)),
            rows_fingerprint(&rows_of(&untraced)),
            "{}",
            w.name()
        );
        if w == Workload::Chaos {
            assert_eq!(traced_ds.canonical_json(), untraced.canonical_json());
        }
        assert_eq!(spans.durations_us("probe.domain").len(), traced_ds.probes.len());
    }
}

#[test]
fn a_reset_world_reproduces_the_first_iteration() {
    let plan = plan(Workload::Chaos, "reset");
    let setup = Setup::new(&plan, 1);
    let first = workload::run_iteration(&setup, &plan, 1);
    let second = workload::run_iteration(&setup, &plan, 1);
    assert!(first.digest.canonical.is_some());
    assert_eq!(first.digest.canonical, second.digest.canonical);
    // Without the reset the previous run's accounting and fault plan
    // leak into the next one.
    let leaked = run_campaign(&setup.campaign(), plan.runner_config(1, "campaign"));
    assert_ne!(Some(leaked.canonical_json()), first.digest.canonical);
}
