//! `chaos` and `resume`: one-worker campaigns whose stdout is a pure
//! function of the seeds, so two runs can be diffed.
//!
//! `chaos` runs the full pipeline against an internet with injected
//! faults (flapping servers, packet loss, REFUSED bursts, truncation,
//! latency spikes) and shows what the adaptive retry policy and the
//! second probe round recover.
//!
//! `resume` journals every completed probe to a write-ahead log, can
//! kill the process mid-campaign (`--crash-after N`, exit 9, no
//! cleanup), and resumes from the journal (`--resume`) to a dataset
//! byte-identical to an uninterrupted run's.

use std::path::PathBuf;

use govdns::model::fnv64;
use govdns::prelude::*;

use super::{unknown, world, Args, Error, Outcome};

const PROFILES: &str = "flaky, congested or hostile";

pub(crate) fn chaos(mut args: Args) -> Result<Outcome, Error> {
    let mut seed = 7u64;
    let mut profile = ChaosProfile::Flaky;
    let mut scale = 0.02f64;
    let mut breaker = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.value("--seed")?,
            "--profile" => profile = args.parsed("--profile", PROFILES, ChaosProfile::parse)?,
            "--scale" => scale = args.scale()?,
            "--breaker" => breaker = true,
            other => return Err(unknown(other)),
        }
    }

    let world = world(seed, scale, 0.0);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);

    // One worker keeps the query interleaving (and hence burst-triggered
    // faults and per-worker caches) deterministic.
    let config = RunnerConfig {
        workers: 1,
        retry: RetryPolicy::adaptive(),
        chaos: Some(ChaosSpec { profile, seed }),
        breaker: if breaker { BreakerPolicy::guarded() } else { BreakerPolicy::none() },
        ..RunnerConfig::default()
    };
    let report = Report::generate(&campaign, config);

    outln!("chaos profile: {profile} (seed {seed}, scale {scale})");
    outln!();
    outln!("== collection funnel ==");
    outln!("queried:            {}", report.funnel.queried);
    outln!("parent-responsive:  {}", report.funnel.parent_responsive);
    outln!("parent-nonempty:    {}", report.funnel.parent_nonempty);
    outln!("child-responsive:   {}", report.funnel.child_responsive);
    outln!("second-round probes: {}", report.dataset.retried);
    outln!();
    outln!("== injected faults ==");
    let f = &report.dataset.faults;
    outln!("flap timeouts: {}", f.flap_timeouts);
    outln!("losses:        {}", f.losses);
    outln!("refused:       {}", f.refused);
    outln!("truncated:     {}", f.truncated);
    outln!("delayed:       {}", f.delayed);
    outln!("outcome-changing total: {}", f.injected());
    outln!();
    outln!("== measurement health ==");
    let h = &report.health;
    outln!("degraded domains:    {} ({:.1}% of responsive)", h.degraded_domains, h.degraded_pct);
    outln!("recovered in round 2: {}", h.recovered_in_round2);
    outln!("retry attempts:      {}", h.retry_attempts);
    outln!("retry recovered:     {}", h.retry_recovered);
    outln!("retry exhausted:     {}", h.retry_exhausted);
    outln!("retry budget denied: {}", h.retry_budget_denied);
    if !h.flaky_countries.is_empty() {
        outln!("flakiest countries (responsive/degraded):");
        for &(c, total, degraded) in &h.flaky_countries {
            outln!("  {c}  {total}/{degraded}");
        }
    }
    if breaker {
        outln!();
        outln!("== circuit breakers ==");
        outln!("tripped:          {}", h.breaker_tripped);
        outln!("exchanges denied: {}", h.breaker_denied);
        outln!("reclosed:         {}", h.breaker_reclosed);
        outln!("reopened:         {}", h.breaker_reopened);
        if !h.quarantined.is_empty() {
            outln!("quarantined destinations (denied exchanges):");
            for (dst, denied) in &h.quarantined {
                outln!("  {dst}  {denied}");
            }
        }
    }
    outln!();
    outln!("== remediation ==");
    outln!("flakiness follow-ups: {}", report.remedies.flakiness_followups);
    outln!("quarantine follow-ups: {}", report.remedies.quarantine_followups);
    outln!();
    print_fingerprint(&report.dataset);
    Ok(Outcome::Clean)
}

pub(crate) fn resume(mut args: Args) -> Result<Outcome, Error> {
    let mut seed = 7u64;
    let mut scale = 0.02f64;
    let mut profile: Option<ChaosProfile> = None;
    let mut breaker = false;
    let mut journal_path = PathBuf::from("campaign.journal");
    let mut crash_after: Option<usize> = None;
    let mut resume = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.value("--seed")?,
            "--scale" => scale = args.scale()?,
            "--profile" => {
                profile = Some(args.parsed("--profile", PROFILES, ChaosProfile::parse)?);
            }
            "--breaker" => breaker = true,
            "--journal" => journal_path = args.value("--journal")?,
            "--crash-after" => crash_after = Some(args.value("--crash-after")?),
            "--resume" => resume = true,
            other => return Err(unknown(other)),
        }
    }

    if resume {
        let replay = JournalReplay::try_load(&journal_path).map_err(Error::File)?;
        outln!("== journal replay ==");
        outln!("records:        {}", replay.records);
        outln!("probes replayed: {}", replay.probes.len());
        outln!(
            "checkpoint:     {}",
            replay
                .checkpoint
                .as_ref()
                .map_or("none".to_owned(), |c| format!("at probe {}", c.probes_done)),
        );
        outln!("dropped bytes:  {} (torn/corrupt tail)", replay.dropped_bytes);
        outln!("prior resumes:  {}", replay.resumes);
        outln!("completed:      {}", replay.completed);
        outln!();
    }

    let world = world(seed, scale, 0.0);
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

    outln!("== campaign ==");
    outln!("probes:          {}", dataset.probes.len());
    outln!("queries sent:    {}", dataset.traffic.queries_sent);
    outln!("second-round probes: {}", dataset.retried);
    if dataset.faults.injected() > 0 {
        outln!("injected faults: {}", dataset.faults.injected());
    }
    let counters = &dataset.telemetry.counters;
    for key in ["journal.replayed_probes", "journal.records_appended", "probe.breaker.tripped"] {
        if let Some(v) = counters.get(key) {
            outln!("{key}: {v}");
        }
    }
    // Delta checkpoints keep this flat as the campaign grows; full
    // snapshots made it grow with the state already collected.
    let journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    outln!("journal bytes/probe: {}", journal_bytes / dataset.probes.len().max(1) as u64);
    outln!();
    print_fingerprint(&dataset);
    Ok(Outcome::Clean)
}

fn print_fingerprint(dataset: &MeasurementDataset) {
    let json = dataset.canonical_json();
    outln!("dataset fingerprint: {:016x} ({} bytes canonical)", fnv64(json.as_bytes()), json.len());
}
