//! Crash-safe campaigns: journal every completed probe to a write-ahead
//! log, kill the process mid-campaign, then resume from the journal and
//! finish with a dataset byte-identical to an uninterrupted run.
//!
//! ```sh
//! # Run half the campaign, then die hard (exit 9, no cleanup):
//! cargo run --release --example resume -- --seed 7 --crash-after 200
//!
//! # Resume from the journal and finish:
//! cargo run --release --example resume -- --seed 7 --resume
//!
//! # The printed dataset fingerprint matches a run that never crashed:
//! cargo run --release --example resume -- --seed 7
//! ```
//!
//! Add `--profile hostile --breaker` to do the same through injected
//! faults with destination circuit breakers quarantining dead servers.

use govdns::model::fnv64;
use govdns::prelude::*;

fn main() {
    let mut seed = 7u64;
    let mut scale = 0.02f64;
    let mut profile: Option<ChaosProfile> = None;
    let mut breaker = false;
    let mut journal_path = std::path::PathBuf::from("campaign.journal");
    let mut crash_after: Option<usize> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--scale" => scale = args.next().and_then(|s| s.parse().ok()).expect("--scale F"),
            "--profile" => {
                let name = args.next().expect("--profile NAME");
                profile = Some(
                    ChaosProfile::parse(&name)
                        .unwrap_or_else(|| panic!("unknown profile {name:?}")),
                );
            }
            "--breaker" => breaker = true,
            "--journal" => {
                journal_path = args.next().expect("--journal PATH").into();
            }
            "--crash-after" => {
                crash_after =
                    Some(args.next().and_then(|s| s.parse().ok()).expect("--crash-after N"));
            }
            "--resume" => resume = true,
            other => panic!("unknown argument {other:?}"),
        }
    }

    if resume {
        let replay = JournalReplay::load(&journal_path);
        println!("== journal replay ==");
        println!("records:        {}", replay.records);
        println!("probes replayed: {}", replay.probes.len());
        println!(
            "checkpoint:     {}",
            replay
                .checkpoint
                .as_ref()
                .map_or("none".to_owned(), |c| format!("at probe {}", c.probes_done)),
        );
        println!("dropped bytes:  {} (torn/corrupt tail)", replay.dropped_bytes);
        println!("prior resumes:  {}", replay.resumes);
        println!("completed:      {}", replay.completed);
        println!();
    }

    let world = WorldGenerator::new(WorldConfig::small(seed).with_scale(scale)).generate();
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);

    // One worker keeps the query interleaving deterministic, which is
    // what makes the resumed dataset *byte-identical* to an
    // uninterrupted one.
    let config = RunnerConfig {
        workers: 1,
        retry: if profile.is_some() { RetryPolicy::adaptive() } else { RetryPolicy::default() },
        chaos: profile.map(|p| ChaosSpec { profile: p, seed }),
        breaker: if breaker { BreakerPolicy::guarded() } else { BreakerPolicy::none() },
        journal: Some(JournalSpec {
            checkpoint_every: 16,
            ..JournalSpec::new(journal_path.clone())
        }),
        resume_from: resume.then(|| journal_path.clone()),
        ..RunnerConfig::default()
    };

    // The simulated crash: a hard exit from the progress callback — no
    // unwinding, no flushing beyond what the journal already forced.
    let ctl = match crash_after {
        Some(limit) => CampaignTelemetry::new().with_progress(1, move |e: ProgressEvent| {
            if e.done >= limit {
                eprintln!("crash-after: killing the process at probe {} of {}", e.done, e.total);
                std::process::exit(9);
            }
        }),
        None => CampaignTelemetry::new(),
    };

    let dataset = govdns::core::run_campaign_with(&campaign, config, &ctl);

    println!("== campaign ==");
    println!("probes:          {}", dataset.probes.len());
    println!("queries sent:    {}", dataset.traffic.queries_sent);
    println!("second-round probes: {}", dataset.retried);
    if dataset.faults.injected() > 0 {
        println!("injected faults: {}", dataset.faults.injected());
    }
    let counters = &dataset.telemetry.counters;
    for key in ["journal.replayed_probes", "journal.records_appended", "probe.breaker.tripped"] {
        if let Some(v) = counters.get(key) {
            println!("{key}: {v}");
        }
    }
    // Delta checkpoints keep this flat as the campaign grows; full
    // snapshots made it grow with the state already collected.
    let journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    println!("journal bytes/probe: {}", journal_bytes / dataset.probes.len().max(1) as u64);
    println!();
    let json = dataset.canonical_json();
    println!(
        "dataset fingerprint: {:016x} ({} bytes canonical)",
        fnv64(json.as_bytes()),
        json.len()
    );
}
