//! The four workloads, the untraced timing loop that gives the
//! end-to-end metrics, and the output digests every iteration is
//! checked by.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

use govdns_core::analysis::smells::SmellAnalysis;
use govdns_core::report::Report;
use govdns_core::{
    run_campaign, Campaign, CampaignTelemetry, ChaosSpec, DomainClass, JournalReplay, JournalSpec,
    MeasurementDataset, RetryPolicy, RunnerConfig,
};
use govdns_simnet::{ChaosProfile, FaultStats, SimNetwork, TrafficStats};
use govdns_telemetry::TelemetrySnapshot;
use govdns_trace::TraceSpec;
use govdns_world::{ProviderMatcher, World, WorldConfig, WorldGenerator};

use crate::{stats, sys, Checks, Metric, Outcome, Plan};

/// World seed used when none is given; the pinned references belong
/// to it.
pub const DEFAULT_SEED: u64 = 7;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The analysis stages `Report::from_dataset` runs, in its order, as
/// the span names the library's own telemetry uses.
pub const ANALYSIS_STAGES: [&str; 13] = [
    "analysis.longitudinal",
    "analysis.per_country",
    "analysis.churn",
    "analysis.private_share",
    "analysis.providers",
    "analysis.yearly",
    "analysis.replication",
    "analysis.diversity",
    "analysis.delegation",
    "analysis.consistency",
    "analysis.concentration",
    "analysis.remedies",
    "analysis.smells",
];

/// The references pinned for [`DEFAULT_SEED`]: `key hex-fnv64` lines.
const PINNED: &str = include_str!("../pinned-seed7.txt");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Clean-network campaign, 2 workers: the probe walk, simnet,
    /// resolver and runner; bypasses analysis, sinks and faults.
    Probe,
    /// Campaign under the Congested fault plan with adaptive retries,
    /// 1 worker (shared retry budgets make outcomes depend on thread
    /// interleaving above one worker, so only here is the check exact).
    Chaos,
    /// Journaled, fully traced report generation, 2 workers: sink
    /// backpressure, checkpoints, trace read-back and evidence.
    Durable,
    /// The §IV analyses over an archived campaign; bypasses probing.
    Analysis,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::Probe, Workload::Chaos, Workload::Durable, Workload::Analysis];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Probe => "probe",
            Workload::Chaos => "chaos",
            Workload::Durable => "durable",
            Workload::Analysis => "analysis",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// World scale (fraction of the paper's 192.6k PDNS domains). The
    /// probe world is the largest working set; the others are sized so
    /// one iteration takes one to three seconds on the reference
    /// machine (`durable`'s journal grows with domains times
    /// checkpoints, so it gets the smallest world).
    pub fn scale(self) -> f64 {
        match self {
            Workload::Probe => 0.2,
            Workload::Chaos => 0.1,
            Workload::Analysis => 0.05,
            Workload::Durable => 0.03,
        }
    }

    /// Probe workers of the timed campaign (for `analysis`, of the
    /// archived one). Never more than the reference machine's 2 cores.
    pub fn workers(self) -> usize {
        match self {
            Workload::Probe | Workload::Durable => 2,
            Workload::Chaos | Workload::Analysis => 1,
        }
    }
}

/// The chaos plan seed for world seed `seed`.
pub fn chaos_seed(seed: u64) -> u64 {
    seed ^ 0xC4A0_5EED
}

impl Plan {
    /// A scratch file: `<work>/<stem>.<ext>`. Untraced iterations
    /// journal and trace to stem `campaign`.
    pub fn work_file(&self, stem: &str, ext: &str) -> PathBuf {
        self.work.join(format!("{stem}.{ext}"))
    }

    /// The runner configuration of the workload's campaign at `workers`,
    /// journaling and tracing (for `durable`) to files named `stem`.
    pub fn runner_config(&self, workers: usize, stem: &str) -> RunnerConfig {
        let mut config = RunnerConfig { workers, ..RunnerConfig::default() };
        match self.workload {
            Workload::Probe | Workload::Analysis => {}
            Workload::Chaos => {
                config.chaos = Some(ChaosSpec {
                    profile: ChaosProfile::Congested,
                    seed: chaos_seed(self.seed),
                });
                config.retry = RetryPolicy::adaptive();
            }
            Workload::Durable => {
                config.journal = Some(JournalSpec::new(self.work_file(stem, "journal")));
                config.trace = Some(TraceSpec::new(self.work_file(stem, "trace")));
            }
        }
        config
    }
}

/// Clears what a campaign leaves on the network: traffic, fault and
/// per-destination accounting, and any installed fault plan. Without
/// it a second chaos iteration starts from the first one's
/// per-destination counts and takes different fault decisions.
pub fn reset(network: &SimNetwork) {
    network.restore_accounting(TrafficStats::default(), FaultStats::default(), Vec::new());
    network.install_faults(None);
}

/// The analysis workload's input: a campaign archived during set-up.
#[derive(Debug)]
pub struct Archived {
    /// The dataset every iteration analyses a clone of.
    pub dataset: MeasurementDataset,
    /// Wall time of the archived campaign, seconds.
    pub wall_s: f64,
}

/// A generated world and, for `analysis`, its archived campaign.
#[derive(Debug)]
pub struct Setup {
    /// The world.
    pub world: World,
    /// Provider classification rules the campaign borrows.
    pub matchers: Vec<ProviderMatcher>,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// World-generation part of each set-up, seconds.
    pub generate_s: Vec<f64>,
    /// The archived campaign (`analysis` only).
    pub archived: Option<Archived>,
}

impl Setup {
    /// Sets the workload up `repeats` times, keeping the last set-up.
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero or the scratch directory cannot be
    /// created.
    pub fn new(plan: &Plan, repeats: usize) -> Setup {
        assert!(repeats > 0, "at least one set-up");
        std::fs::create_dir_all(&plan.work).expect("create the scratch directory");
        let mut setup_s = Vec::new();
        let mut generate_s = Vec::new();
        let mut last: Option<(World, Vec<ProviderMatcher>, Option<Archived>)> = None;
        for _ in 0..repeats {
            // Free the previous world first: two alive at once would
            // double the peak memory the benchmark reports.
            drop(last.take());
            let start = Instant::now();
            let world = WorldGenerator::new(WorldConfig::small(plan.seed).with_scale(plan.scale))
                .generate();
            generate_s.push(start.elapsed().as_secs_f64());
            let matchers = world.catalog.matchers();
            let archived = (plan.workload == Workload::Analysis).then(|| {
                let campaign = Campaign::new(&world, &matchers);
                reset(campaign.network);
                let t = Instant::now();
                let dataset = run_campaign(
                    &campaign,
                    plan.runner_config(Workload::Analysis.workers(), "campaign"),
                );
                Archived { dataset, wall_s: t.elapsed().as_secs_f64() }
            });
            setup_s.push(start.elapsed().as_secs_f64());
            last = Some((world, matchers, archived));
        }
        let (world, matchers, archived) = last.expect("repeats > 0");
        Setup { world, matchers, setup_s, generate_s, archived }
    }

    /// The campaign's view of the world.
    pub fn campaign(&self) -> Campaign<'_> {
        Campaign::new(&self.world, &self.matchers)
    }
}

/// One domain's worker-invariant outcome: the fields a cross-run
/// dataset comparison treats as invariant (query counts are not: they
/// depend on per-worker resolver-cache warmth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Funnel class.
    pub class: DomainClass,
    /// Answered only after retries or a second round.
    pub degraded: bool,
    /// Delivery attempts across every observation.
    pub attempts: u64,
    /// Probe rounds.
    pub rounds: u8,
    /// Nameservers probed.
    pub servers: usize,
}

/// Every domain's [`Row`], by name.
pub fn rows_of(ds: &MeasurementDataset) -> BTreeMap<String, Row> {
    ds.probes
        .iter()
        .map(|p| {
            let row = Row {
                class: p.class(),
                degraded: p.degraded(),
                attempts: p.attempts_total(),
                rounds: p.rounds,
                servers: p.servers.len(),
            };
            (p.domain.to_string(), row)
        })
        .collect()
}

/// FNV-1a, 64 bit: the fingerprint of the pinned references. Local so
/// the pins do not move if the library changes its own hashing.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The fingerprint of a row set.
pub fn rows_fingerprint(rows: &BTreeMap<String, Row>) -> u64 {
    let mut text = String::new();
    for (name, r) in rows {
        text.push_str(&format!(
            "{name} {} {} {} {} {}\n",
            r.class, r.degraded, r.attempts, r.rounds, r.servers
        ));
    }
    fnv64(text.as_bytes())
}

/// The smell verdicts with their evidence chains, as text.
pub fn smell_text(smells: &SmellAnalysis) -> String {
    let mut out = smells.to_csv();
    for v in &smells.verdicts {
        for c in &v.evidence {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                v.domain,
                v.kind.as_str(),
                c.seq,
                c.step,
                c.line
            ));
        }
    }
    out
}

/// What an iteration produced, reduced to what the checks compare.
#[derive(Debug, Default)]
pub struct Digest {
    /// Worker-invariant outcome rows (campaign workloads).
    pub rows: BTreeMap<String, Row>,
    /// The full canonical dataset JSON (`chaos`).
    pub canonical: Option<String>,
    /// Trace-file bytes (`durable`).
    pub trace: Option<Vec<u8>>,
    /// Smell verdicts with evidence (`durable`).
    pub smells: Option<String>,
    /// The CSV bundle without its `telemetry*` files (`analysis`).
    pub csv: BTreeMap<String, Vec<u8>>,
    /// Stages that failed, when the iteration ran the analyses.
    pub failed_stages: Option<Vec<String>>,
}

impl Digest {
    /// Rows (and, if `canonical`, the canonical JSON) of a dataset.
    pub fn of_dataset(ds: &MeasurementDataset, canonical: bool) -> Digest {
        Digest {
            rows: rows_of(ds),
            canonical: canonical.then(|| ds.canonical_json()),
            ..Digest::default()
        }
    }

    /// A `durable` report: rows, the trace file at `trace`, and smells.
    ///
    /// # Panics
    ///
    /// Panics if the trace file cannot be read.
    pub fn of_durable(report: &Report, trace: &std::path::Path) -> Digest {
        Digest {
            rows: rows_of(&report.dataset),
            trace: Some(std::fs::read(trace).expect("read the trace file")),
            smells: Some(smell_text(&report.smells)),
            failed_stages: Some(failed_stages(report)),
            ..Digest::default()
        }
    }

    /// An `analysis` report: its CSV bundle, written to `dir` and read
    /// back, minus the wall-clock `telemetry*` files.
    ///
    /// # Panics
    ///
    /// Panics on an I/O error in `dir`.
    pub fn of_analysis(report: &Report, dir: &std::path::Path) -> Digest {
        let _ = std::fs::remove_dir_all(dir);
        report.write_csv_bundle(dir).expect("write the CSV bundle");
        let mut csv = BTreeMap::new();
        for entry in std::fs::read_dir(dir).expect("list the CSV bundle") {
            let entry = entry.expect("list the CSV bundle");
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with("telemetry") {
                csv.insert(name, std::fs::read(entry.path()).expect("read a CSV file"));
            }
        }
        Digest { csv, failed_stages: Some(failed_stages(report)), ..Digest::default() }
    }

    /// Checks every part this digest shares with `reference`: one check
    /// per domain row, per artifact, and per CSV file.
    pub fn compare(&self, reference: &Digest, what: &str, checks: &mut Checks) {
        let names: BTreeSet<&String> = self.rows.keys().chain(reference.rows.keys()).collect();
        for name in names {
            checks.check(self.rows.get(name) == reference.rows.get(name), || {
                format!("{what}: outcome row of {name} differs")
            });
        }
        fn same<T: PartialEq>(
            a: &Option<T>,
            b: &Option<T>,
            label: &str,
            c: &mut Checks,
            what: &str,
        ) {
            if a.is_some() || b.is_some() {
                c.check(a == b, || format!("{what}: {label} differs"));
            }
        }
        same(&self.canonical, &reference.canonical, "canonical dataset JSON", checks, what);
        same(&self.trace, &reference.trace, "trace file", checks, what);
        same(&self.smells, &reference.smells, "smell verdicts", checks, what);
        let files: BTreeSet<&String> = self.csv.keys().chain(reference.csv.keys()).collect();
        for file in files {
            checks.check(self.csv.get(file) == reference.csv.get(file), || {
                format!("{what}: {file} differs")
            });
        }
    }

    /// One check per analysis stage: it finished without a failure.
    pub fn check_stages(&self, checks: &mut Checks) {
        let Some(failed) = &self.failed_stages else { return };
        for span in ANALYSIS_STAGES {
            let stage = span.trim_start_matches("analysis.");
            checks.check(!failed.iter().any(|f| f == stage), || format!("stage {stage} failed"));
        }
    }

    /// The fingerprints pinned for this workload, `(key, fnv64)`.
    pub fn pins(&self, workload: Workload) -> Vec<(String, u64)> {
        let name = workload.name();
        let mut pins = Vec::new();
        if !self.rows.is_empty() {
            pins.push((format!("{name}.rows"), rows_fingerprint(&self.rows)));
        }
        if let Some(c) = &self.canonical {
            pins.push((format!("{name}.canonical"), fnv64(c.as_bytes())));
        }
        if let Some(t) = &self.trace {
            pins.push((format!("{name}.trace"), fnv64(t)));
        }
        if let Some(s) = &self.smells {
            pins.push((format!("{name}.smells"), fnv64(s.as_bytes())));
        }
        for (file, bytes) in &self.csv {
            pins.push((format!("{name}.csv.{file}"), fnv64(bytes)));
        }
        pins
    }
}

fn failed_stages(report: &Report) -> Vec<String> {
    report.analysis_failures.iter().map(|f| f.stage.clone()).collect()
}

/// Prints the digest's fingerprints to stderr (`pin <key> <hex>`, the
/// format of `pinned-seed7.txt`) and, when the plan has pinned
/// references, checks each against them.
pub fn check_pins(plan: &Plan, digest: &Digest, checks: &mut Checks) {
    let mine = digest.pins(plan.workload);
    for (key, v) in &mine {
        eprintln!("pin {key} {v:016x}");
    }
    if !plan.pinned() {
        return;
    }
    let prefix = format!("{}.", plan.workload.name());
    let pinned: BTreeMap<&str, &str> = PINNED
        .lines()
        .filter_map(|l| l.strip_prefix("pin "))
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| k.starts_with(&prefix))
        .collect();
    for (key, v) in &mine {
        let want = pinned.get(key.as_str()).copied();
        checks.check(want == Some(format!("{v:016x}").as_str()), || {
            format!("{key} is {v:016x}, pinned {want:?}")
        });
    }
    for key in pinned.keys() {
        checks.check(mine.iter().any(|(k, _)| k == key), || format!("pinned {key} not produced"));
    }
}

/// One untraced iteration.
#[derive(Debug)]
pub struct Iteration {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Process CPU time (user + sys, all threads), seconds.
    pub cpu_s: f64,
    /// Domains probed (for `analysis`, analysed).
    pub domains: usize,
    /// The campaign's own `net.queries` counter.
    pub queries: u64,
    /// The campaign's telemetry (for `analysis`, the archived one's).
    pub telemetry: TelemetrySnapshot,
    /// What the checks compare.
    pub digest: Digest,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = sys::cpu_s();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (out, wall, sys::cpu_s() - cpu)
}

fn net_queries(t: &TelemetrySnapshot) -> u64 {
    t.counters.get("net.queries").copied().unwrap_or(0)
}

/// Runs the workload once at `workers` on a reset network. Campaign
/// files go to `<work>/campaign.*`.
///
/// # Panics
///
/// Panics if the analysis workload's set-up archived no campaign, or on
/// an I/O error in the scratch directory.
pub fn run_iteration(setup: &Setup, plan: &Plan, workers: usize) -> Iteration {
    let campaign = setup.campaign();
    reset(campaign.network);
    let config = plan.runner_config(workers, "campaign");
    match plan.workload {
        Workload::Probe | Workload::Chaos => {
            let (ds, wall_s, cpu_s) = timed(|| run_campaign(&campaign, config));
            Iteration {
                wall_s,
                cpu_s,
                domains: ds.probes.len(),
                queries: net_queries(&ds.telemetry),
                digest: Digest::of_dataset(&ds, plan.workload == Workload::Chaos),
                telemetry: ds.telemetry,
            }
        }
        Workload::Durable => {
            let trace = config.trace.as_ref().expect("durable traces").path.clone();
            let (report, wall_s, cpu_s) =
                timed(|| Report::generate_with(&campaign, config, &CampaignTelemetry::new()));
            Iteration {
                wall_s,
                cpu_s,
                domains: report.dataset.probes.len(),
                queries: net_queries(&report.dataset.telemetry),
                digest: Digest::of_durable(&report, &trace),
                telemetry: report.dataset.telemetry,
            }
        }
        Workload::Analysis => {
            let archived = setup.archived.as_ref().expect("analysis set-up archives a campaign");
            let dataset = archived.dataset.clone();
            let (report, wall_s, cpu_s) = timed(|| Report::from_dataset(&campaign, dataset));
            Iteration {
                wall_s,
                cpu_s,
                domains: report.dataset.probes.len(),
                queries: net_queries(&archived.dataset.telemetry),
                digest: Digest::of_analysis(&report, &plan.work.join("csv")),
                telemetry: archived.dataset.telemetry.clone(),
            }
        }
    }
}

/// Checks that the latest untraced `durable` journal replays as
/// complete, and returns how long the replay took, seconds.
pub fn check_journal(plan: &Plan, checks: &mut Checks) -> f64 {
    let start = Instant::now();
    let replay = JournalReplay::load(&plan.work_file("campaign", "journal"));
    let secs = start.elapsed().as_secs_f64();
    checks.check(replay.completed, || "journal does not replay as completed".to_owned());
    secs
}

/// The untraced run: set-up, one warm-up iteration, then timed
/// iterations, each checked against the warm-up (and the warm-up
/// against the pinned references).
pub fn run_untraced(plan: &Plan) -> Outcome {
    let setup = Setup::new(plan, SETUP_REPEATS);
    let mut checks = Checks::default();
    let workers = plan.workload.workers();
    let warm = run_iteration(&setup, plan, workers);
    warm.digest.check_stages(&mut checks);
    check_pins(plan, &warm.digest, &mut checks);
    let (mut walls, mut cpus, mut qpd) = (Vec::new(), Vec::new(), Vec::new());
    let mut domains = 0usize;
    while walls.len() < plan.min_iters || walls.iter().sum::<f64>() < plan.seconds {
        let it = run_iteration(&setup, plan, workers);
        it.digest.compare(&warm.digest, "iteration vs warm-up", &mut checks);
        it.digest.check_stages(&mut checks);
        walls.push(it.wall_s);
        cpus.push(it.cpu_s);
        qpd.push(it.queries as f64 / it.domains.max(1) as f64);
        domains = it.domains;
    }
    // Before the journal replay check, whose decoded records would
    // otherwise set the peak.
    let peak_rss_mb = sys::peak_rss_mb();
    if plan.workload == Workload::Durable {
        check_journal(plan, &mut checks);
    }
    let _ = std::fs::remove_dir_all(&plan.work);

    let n = walls.len();
    let rates: Vec<f64> = walls.iter().map(|w| domains as f64 / w).collect();
    let (q1, _, q3) = stats::quartiles(&rates);
    let fail_frac = stats::ratio(checks.failed as f64, checks.attempted as f64);
    let metric = |name: &str, value: f64, unit: &'static str, n: usize| Metric {
        name: name.to_owned(),
        value,
        unit,
        n,
    };
    Outcome {
        workload: plan.workload,
        metrics: vec![
            metric("setup_s", stats::median(&setup.setup_s), "s", setup.setup_s.len()),
            metric("domains_per_s", domains as f64 / stats::median(&walls), "1/s", n),
            metric("cpu_s", stats::median(&cpus), "s", n),
            metric("queries_per_domain", stats::median(&qpd), "queries/domain", n),
            metric("peak_rss_mb", peak_rss_mb, "MB", 1),
        ],
        extras: vec![
            metric("domains_per_s.iqr", q3 - q1, "1/s", n),
            metric("fail_frac", fail_frac, "ratio", checks.attempted as usize),
        ],
        checks,
    }
}
