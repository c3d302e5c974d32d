//! `counterfactual`: sweep what-if outage scenarios over a measured
//! baseline and rank the single points of failure.
//!
//! **`counterfactual rank`** prints the ranked SPOF table (or, with
//! `--json`, the canonical JSON); `--out` also writes the canonical JSON
//! and `--csv` the CSV bundle. The JSON is byte-identical across
//! identically seeded runs at any `--workers` value.
//!
//! **`counterfactual run`** additionally lists, per scenario, every
//! domain that went dark. `--scenario` substring-matches scenario ids
//! (`provider:`, `asn:AS64500`, `cctld:zz`, ...); `--journal-dir`
//! write-ahead-journals each scenario campaign and resumes from
//! existing journals.
//!
//! Degraded modes: `--combo` adds compound (two-at-once) scenarios;
//! `--partial K/N` fails only `K` of every `N` anycast sites;
//! `--degrade PPM` swaps the hard blackhole for a probabilistic drop;
//! `--recovery-window` models each outage through a TTL-honoring
//! resolver cache and appends time-to-dark/time-to-recover timelines.
//!
//! A sweep that enumerates no scenarios is a finding: an empty ranked
//! report upstream of a byte-comparison gate would pass it vacuously.

use std::path::PathBuf;

use govdns::counterfactual::{run_sweep, PartialDial, RecoveryConfig, SweepConfig};

use super::{unknown, usage, write, Args, Error, Outcome};

pub(crate) fn run(mut args: Args) -> Result<Outcome, Error> {
    match args.next().as_deref() {
        Some("rank") => sweep(args, false),
        Some("run") => sweep(args, true),
        _ => Err(usage("counterfactual needs a mode: rank or run")),
    }
}

fn sweep(mut args: Args, detail: bool) -> Result<Outcome, Error> {
    let mut config = SweepConfig::default();
    let mut country: Option<String> = None;
    let mut json = false;
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => config.seed = args.value("--seed")?,
            "--scale" => config.scale_ppm = args.scale_ppm()?,
            "--workers" => config.workers = args.value("--workers")?,
            "--max-per-kind" => config.enumeration.max_per_kind = args.value("--max-per-kind")?,
            "--combo" => config.enumeration.compound = true,
            "--partial" => {
                config.partial =
                    Some(args.parsed("--partial", "K/N with K <= N", PartialDial::parse)?);
            }
            "--degrade" => config.degrade_ppm = Some(args.value("--degrade")?),
            "--recovery-window" => {
                let window_s = args.value("--recovery-window")?;
                config.recovery =
                    Some(RecoveryConfig { window_s, ..config.recovery.unwrap_or_default() });
            }
            "--recovery-step" => {
                let step_s = args.value("--recovery-step")?;
                config.recovery =
                    Some(RecoveryConfig { step_s, ..config.recovery.unwrap_or_default() });
            }
            "--scenario" => config.scenario_filter = Some(args.value("--scenario")?),
            "--journal-dir" => config.journal_dir = Some(args.value("--journal-dir")?),
            "--country" => country = Some(args.value("--country")?),
            "--json" => json = true,
            "--out" => out = Some(args.value("--out")?),
            "--csv" => csv = Some(args.value("--csv")?),
            other => return Err(unknown(other)),
        }
    }

    if let Some(dir) = &config.journal_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::File(format!("cannot create {}: {e}", dir.display())))?;
    }
    let mut report = run_sweep(&config);
    if report.entries.is_empty() {
        eprintln!(
            "counterfactual: no scenarios enumerated (seed {}, scale_ppm {}, filter {:?}) — \
             an empty report would make every downstream byte-comparison vacuous",
            config.seed, config.scale_ppm, config.scenario_filter
        );
        return Ok(Outcome::Finding);
    }
    if let Some(cc) = &country {
        report = report.filtered_by_country(cc);
    }

    if json {
        outln!("{}", report.canonical_json());
    } else {
        out!("{}", report.render_text());
        if detail {
            for entry in &report.entries {
                if entry.darkened.is_empty() {
                    continue;
                }
                outln!("\n{} darkens {} domains:", entry.id, entry.domains_darkened);
                for d in &entry.darkened {
                    outln!("  {} ({}) {} -> {}", d.domain, d.country, d.from, d.to);
                }
            }
        }
    }
    if let Some(path) = &out {
        write(path, report.canonical_json())?;
    }
    if let Some(path) = &csv {
        write(path, report.to_csv())?;
    }
    Ok(Outcome::Clean)
}
