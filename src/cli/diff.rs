//! `diff`: record runs, compare them, replay the regression corpus.
//!
//! **`diff run`** runs a replay-safe traced chaos campaign under the
//! worker-count-invariant configuration and archives its comparable
//! artifacts into `--out`: `dataset.json` (canonical dataset),
//! `run.trace`, `telemetry.json`, `remedies.json` and `smells.json`.
//! If an analysis stage fails (e.g. under
//! `GOVDNS_FAIL_ANALYSIS=providers`) and `--corpus-dir` is given, the
//! offending domains are captured into `<corpus-dir>/<case>.json`.
//!
//! **`diff diff A B`** compares two archived runs, as text or `--json`;
//! the output is a deterministic function of the two directories.
//! With `--gate`, differences are a finding.
//!
//! **`diff replay CASE.json...`** re-executes corpus cases against a
//! fresh simnet and byte-compares the replayed trace blocks to the
//! recording; a mismatch is a finding.

use std::path::{Path, PathBuf};

use govdns::diff::{
    counts_from_json, remedies_delta, telemetry_from_json, CorpusCase, DatasetView, RenderOptions,
    ReplaySetup, RunDiff, SmellView, TraceDiff,
};
use govdns::prelude::*;

use super::{
    invariant_config, read_trace_file, unknown, usage, world, write, Args, Error, Outcome,
};

pub(crate) fn run(mut args: Args) -> Result<Outcome, Error> {
    match args.next().as_deref() {
        Some("run") => record(args),
        Some("diff") => compare(args),
        Some("replay") => replay(args),
        _ => Err(usage("diff needs a mode: run, diff or replay")),
    }
}

// ---------------------------------------------------------------- run

fn record(mut args: Args) -> Result<Outcome, Error> {
    let mut seed = 7u64;
    let mut workers = 1usize;
    let mut scale_ppm = 20_000u64;
    let mut out = PathBuf::from("run-archive");
    let mut corpus_dir: Option<PathBuf> = None;
    let mut case: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.value("--seed")?,
            "--workers" => workers = args.value("--workers")?,
            "--scale" => scale_ppm = args.scale_ppm()?,
            "--out" => out = args.value("--out")?,
            "--corpus-dir" => corpus_dir = Some(args.value("--corpus-dir")?),
            "--case" => case = Some(args.value("--case")?),
            other => return Err(unknown(other)),
        }
    }

    std::fs::create_dir_all(&out)
        .map_err(|e| Error::File(format!("cannot create {}: {e}", out.display())))?;
    let world = world(seed, scale_ppm as f64 / 1_000_000.0, 0.0);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);

    // The worker-count-invariant configuration is what makes archived
    // runs comparable at all.
    let trace_path = out.join("run.trace");
    let config = invariant_config(seed, workers, TraceSpec::new(&trace_path).with_seed(seed));
    let setup = ReplaySetup {
        world_seed: seed,
        scale_ppm,
        chaos: Some((ChaosProfile::Flaky, seed)),
        max_qps: config.max_qps,
        retry: config.retry,
        second_round: config.second_round,
        flight_capacity: config
            .trace
            .as_ref()
            .map_or(govdns::trace::DEFAULT_FLIGHT_CAPACITY, |t| t.flight_capacity),
    };
    let ctl = CampaignTelemetry::new();
    let report = Report::generate_with(&campaign, config, &ctl);

    write(&out.join("dataset.json"), report.dataset.canonical_json())?;
    write(&out.join("telemetry.json"), report.dataset.telemetry.to_json())?;
    write(&out.join("remedies.json"), remedies_json(&report))?;
    let smells = SmellReport::from_analysis(&report.smells, seed, scale_ppm);
    write(&out.join("smells.json"), smells.canonical_json())?;

    outln!("archived run: seed {seed}, scale_ppm {scale_ppm}");
    outln!("domains measured:  {}", report.funnel.queried);
    outln!("degraded domains:  {}", report.health.degraded_domains);
    outln!("analysis failures: {}", report.analysis_failures.len());

    if report.analysis_failures.is_empty() {
        return Ok(Outcome::Clean);
    }
    if let Some(dir) = &corpus_dir {
        let trigger: Vec<String> = report
            .analysis_failures
            .iter()
            .map(|f| format!("analysis_panic:{}", f.stage))
            .collect();
        let name = case.unwrap_or_else(|| format!("seed{seed}-fail"));
        let log = read_trace_file(&trace_path)?;
        match CorpusCase::capture(&name, &trigger.join(","), &setup, &report, &log) {
            Ok(case) => {
                let path = case.save(dir).map_err(|e| {
                    Error::File(format!("cannot write corpus case to {}: {e}", dir.display()))
                })?;
                outln!("corpus case captured: {} ({} domains)", path.display(), case.domains.len());
            }
            Err(reason) => outln!("corpus capture skipped: {reason}"),
        }
    }
    Ok(Outcome::Clean)
}

/// `remedies.json`: the report's remediation tallies as a flat,
/// fixed-order count map.
fn remedies_json(report: &Report) -> String {
    let r = &report.remedies;
    format!(
        "{{\"needing_action\":{},\"domains\":{},\"removals\":{},\"ns_fixes\":{},\
         \"synchronizations\":{},\"hijack_exposures\":{},\"placement_advice\":{},\
         \"flakiness_followups\":{},\"quarantine_followups\":{}}}",
        r.needing_action,
        r.domains,
        r.removals,
        r.ns_fixes,
        r.synchronizations,
        r.hijack_exposures,
        r.placement_advice,
        r.flakiness_followups,
        r.quarantine_followups,
    )
}

// --------------------------------------------------------------- diff

fn compare(mut args: Args) -> Result<Outcome, Error> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut opts = RenderOptions::default();
    let mut json = false;
    let mut telemetry = false;
    let mut gate = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--domain" => opts.domain = Some(args.value("--domain")?),
            "--only-changed" => opts.only_changed = true,
            "--json" => json = true,
            "--telemetry" => telemetry = true,
            "--gate" => gate = true,
            flag if flag.starts_with("--") => return Err(unknown(flag)),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err(usage("diff diff needs exactly two run directories"));
    };

    let diff = build_diff(a, b, telemetry).map_err(Error::File)?;
    if json {
        outln!("{}", diff.to_json());
    } else {
        out!("{}", diff.render_text(&opts));
    }
    Ok(Outcome::finding_if(gate && !diff.is_empty()))
}

fn build_diff(a: &Path, b: &Path, telemetry: bool) -> Result<RunDiff, String> {
    let read = |path: PathBuf| -> Result<String, String> {
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let view_a = DatasetView::from_canonical_json(&read(a.join("dataset.json"))?)?;
    let view_b = DatasetView::from_canonical_json(&read(b.join("dataset.json"))?)?;
    let mut diff = RunDiff { dataset: view_a.diff(&view_b), ..RunDiff::default() };

    let remedies_a = a.join("remedies.json");
    let remedies_b = b.join("remedies.json");
    if remedies_a.exists() && remedies_b.exists() {
        diff.remedies = remedies_delta(
            &counts_from_json(&read(remedies_a)?)?,
            &counts_from_json(&read(remedies_b)?)?,
        );
    }

    let smells_a = a.join("smells.json");
    let smells_b = b.join("smells.json");
    if smells_a.exists() && smells_b.exists() {
        let view_a = SmellView::from_canonical_json(&read(smells_a)?)?;
        let view_b = SmellView::from_canonical_json(&read(smells_b)?)?;
        diff.smells = Some(view_a.diff(&view_b));
    }

    let trace_a = a.join("run.trace");
    let trace_b = b.join("run.trace");
    if trace_a.exists() && trace_b.exists() {
        let (log_a, log_b) = govdns::trace::read_trace_pair(&trace_a, &trace_b)
            .map_err(|e| format!("trace files: {e}"))?;
        diff.trace = Some(TraceDiff::compare(&log_a, &log_b));
    }

    if telemetry {
        diff.telemetry = Some(
            telemetry_from_json(&read(a.join("telemetry.json"))?)?
                .delta(&telemetry_from_json(&read(b.join("telemetry.json"))?)?),
        );
    }
    Ok(diff)
}

// ------------------------------------------------------------- replay

fn replay(mut args: Args) -> Result<Outcome, Error> {
    let mut paths: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            flag if flag.starts_with("--") => return Err(unknown(flag)),
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        return Err(usage("diff replay needs at least one corpus case"));
    }
    let mut failed = false;
    for path in &paths {
        let case = CorpusCase::load(path).map_err(Error::File)?;
        outln!(
            "replaying {}: trigger {}, {} domains, world seed {}",
            case.name,
            case.trigger,
            case.domains.len(),
            case.setup.world_seed
        );
        let outcome = case.replay().map_err(Error::File)?;
        if outcome.is_clean() {
            outln!("  byte-identical: {} of {} domains", outcome.matched, outcome.domains);
        } else {
            failed = true;
            outln!(
                "  MISMATCH: {} of {} domains diverged",
                outcome.mismatches.len(),
                outcome.domains
            );
            for m in &outcome.mismatches {
                outln!("  {}: {}", m.domain, m.detail);
            }
        }
    }
    Ok(Outcome::finding_if(failed))
}
