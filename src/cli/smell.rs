//! `smell`: detect, filter and explain delegation smells with
//! trace-cited evidence.
//!
//! **`smell run`** runs a traced chaos campaign under the
//! worker-count-invariant configuration, passes the measured delegation
//! graph through the smell detectors and prints the verdicts. Its stdout
//! never mentions a worker count or a file path: identically seeded runs
//! print byte-identical output, and `--out` writes byte-identical
//! canonical JSON, at any worker count. An empty verdict set is a
//! finding: it means the detectors never saw the graph.
//!
//! **`smell inspect SMELLS.json`** rereads an archived report without
//! re-running the campaign.
//!
//! In both modes `--smell KIND` keeps one smell kind
//! (`cyclic_dependency`, `single_homed_glue`, `stale_parent_ns`,
//! `provider_monoculture`, `lame_delegation`), and `--explain DOMAIN`
//! prints the domain's verdicts with their evidence chains; a domain
//! with none is a finding, so a typo never reads as a clean bill of
//! health.

use std::path::PathBuf;

use govdns::prelude::*;

use super::{
    invariant_config, read_to_string, temp_trace, unknown, usage, world, write, Args, Error,
    Outcome,
};

pub(crate) fn run(mut args: Args) -> Result<Outcome, Error> {
    match args.next().as_deref() {
        Some("run") => campaign(args),
        Some("inspect") => inspect(args),
        _ => Err(usage("smell needs a mode: run or inspect")),
    }
}

/// Flags shared by both modes: filtering and output shape.
#[derive(Default)]
struct View {
    smell: Option<SmellKind>,
    explain: Option<DomainName>,
    json: bool,
}

impl View {
    /// Handles `arg` if it is a shared flag; `false` when it is not.
    fn take(&mut self, arg: &str, args: &mut Args) -> Result<bool, Error> {
        match arg {
            "--smell" => {
                let kinds = "cyclic_dependency, single_homed_glue, stale_parent_ns, \
                             provider_monoculture or lame_delegation";
                self.smell = Some(args.parsed("--smell", kinds, SmellKind::parse)?);
            }
            "--explain" => self.explain = Some(args.value("--explain")?),
            "--json" => self.json = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies the kind filter and prints the report (text or JSON),
    /// then the optional drill-down.
    fn present(&self, report: &SmellReport) -> Outcome {
        let report = match self.smell {
            Some(kind) => report.filtered(kind),
            None => report.clone(),
        };
        if self.json {
            outln!("{}", report.canonical_json());
        } else {
            out!("{}", report.render_text());
        }
        if let Some(domain) = &self.explain {
            match report.explain(domain) {
                Some(text) => {
                    outln!();
                    out!("{text}");
                }
                None => {
                    eprintln!("error: --explain {domain}: no verdicts for this domain");
                    return Outcome::Finding;
                }
            }
        }
        Outcome::Clean
    }
}

// ---------------------------------------------------------------- run

fn campaign(mut args: Args) -> Result<Outcome, Error> {
    let mut seed = 7u64;
    let mut workers = 1usize;
    let mut scale_ppm = 20_000u64;
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut view = View::default();
    while let Some(arg) = args.next() {
        if view.take(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--seed" => seed = args.value("--seed")?,
            "--workers" => workers = args.value("--workers")?,
            "--scale" => scale_ppm = args.scale_ppm()?,
            "--out" => out = Some(args.value("--out")?),
            "--csv" => csv = Some(args.value("--csv")?),
            other => return Err(unknown(other)),
        }
    }

    let world = world(seed, scale_ppm as f64 / 1_000_000.0, 0.0);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);

    // The trace file is what the evidence chains cite; a temp path keeps
    // the stdout path-free and therefore diffable across runs.
    let trace_path = temp_trace("smell");
    let config = invariant_config(seed, workers, TraceSpec::new(&trace_path).with_seed(seed));
    let ctl = CampaignTelemetry::new();
    let report = Report::generate_with(&campaign, config, &ctl);
    let _ = std::fs::remove_file(&trace_path);

    // An empty unfiltered verdict set on a chaos campaign means the
    // detectors never saw the graph (analysis panic, empty world) — fail
    // loudly rather than archive a hollow report.
    if report.smells.verdicts.is_empty() {
        eprintln!(
            "error: smell pass produced no verdicts (analysis failures: {})",
            report.analysis_failures.len()
        );
        return Ok(Outcome::Finding);
    }

    let smells = SmellReport::from_analysis(&report.smells, seed, scale_ppm);
    if let Some(path) = &out {
        write(path, smells.canonical_json())?;
    }
    if let Some(path) = &csv {
        write(path, smells.to_csv())?;
    }
    Ok(view.present(&smells))
}

// ------------------------------------------------------------ inspect

fn inspect(mut args: Args) -> Result<Outcome, Error> {
    let mut path: Option<PathBuf> = None;
    let mut view = View::default();
    while let Some(arg) = args.next() {
        if view.take(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            flag if flag.starts_with("--") => return Err(unknown(flag)),
            _ => path = Some(PathBuf::from(arg)),
        }
    }
    let Some(path) = path else {
        return Err(usage("smell inspect needs a SMELLS.json path"));
    };
    let report = SmellReport::from_canonical_json(&read_to_string(&path)?)
        .map_err(|e| Error::File(format!("{}: {e}", path.display())))?;
    Ok(view.present(&report))
}
