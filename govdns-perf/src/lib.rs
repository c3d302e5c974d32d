//! # govdns-perf
//!
//! The campaign benchmark. Four workloads drive the measurement
//! pipeline through its public API, each stressing different layers:
//!
//! - `probe`: `run_campaign` on a clean network, 2 workers — the probe
//!   walk, simnet, resolver and runner do the work;
//! - `chaos`: the same under the Congested fault plan with adaptive
//!   retries, 1 worker — the fault, retry and backoff paths;
//! - `durable`: `Report::generate_with` with a journal and a full trace,
//!   2 workers — sink backpressure, checkpoints, trace read-back and
//!   evidence on top of the probe work;
//! - `analysis`: `Report::from_dataset` on an archived campaign — the
//!   §IV analysis stages alone.
//!
//! An untraced run ([`workload::run_untraced`]) gives the end-to-end
//! metrics. A traced run ([`ledger::run_traced`]) repeats the workload
//! once at one worker through the benchmark's own [`traced`] runner, which
//! makes the same public calls as the library's runner with a span at
//! every layer boundary, and replays the campaign's exchanges through
//! each substrate ([`layers`]) for the per-layer metrics.
//!
//! Every iteration's outputs are checked: against the run's warm-up
//! iteration, against the traced runner, and, for the default seed and
//! scale, against the references pinned in `pinned-seed7.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

pub mod compare;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod workload;

pub use workload::Workload;

/// Fewest timed iterations a run makes, however short its timed phase.
pub const MIN_TIMED_ITERS: usize = 3;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// World seed; the chaos plan seed derives from it.
    pub seed: u64,
    /// World scale (the workload's own unless a test shrinks it).
    pub scale: f64,
    /// Length of the timed phase, seconds: timed iterations repeat until
    /// both this and `min_iters` are reached.
    pub seconds: f64,
    /// Fewest timed iterations.
    pub min_iters: usize,
    /// Where span files go.
    pub out: PathBuf,
    /// Scratch directory for journals, traces and CSV bundles, removed
    /// when the run ends.
    pub work: PathBuf,
}

impl Plan {
    /// A plan at the workload's own scale.
    pub fn new(workload: Workload, seed: u64, seconds: f64, out: PathBuf) -> Plan {
        let work = out.join(format!("work-{}-{}", workload.name(), std::process::id()));
        Plan {
            workload,
            seed,
            scale: workload.scale(),
            seconds,
            min_iters: MIN_TIMED_ITERS,
            out,
            work,
        }
    }

    /// Whether outputs are checked against the pinned references: only
    /// the default seed at the workload's own scale has them.
    pub fn pinned(&self) -> bool {
        self.seed == workload::DEFAULT_SEED && self.scale == self.workload.scale()
    }
}

/// Output checks: how many ran and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks performed.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub n: usize,
}

/// A finished run: its checks, the metrics for the result line, and
/// extra numbers printed for people only.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Output checks.
    pub checks: Checks,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Printed but not part of the result line.
    pub extras: Vec<Metric>,
}

impl Outcome {
    /// Whether every check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// One `workload metric value unit n` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extras) {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                self.workload.name(),
                m.name,
                json::number(m.value),
                m.unit,
                m.n
            ));
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}
