//! Chaos-hardened probing: run the full pipeline against an internet
//! with injected faults (flapping servers, packet loss, REFUSED bursts,
//! truncation, latency spikes) and show what the adaptive retry policy
//! and the second probe round recover.
//!
//! ```sh
//! cargo run --release --example chaos -- --seed 7 [--profile flaky|congested|hostile] [--scale 0.02] [--breaker]
//! ```
//!
//! The output is fully deterministic for a given `(seed, profile,
//! scale)`: the fault plan, the retry schedule, and the resulting
//! dataset are all pure functions of the seeds. Running twice and
//! diffing the output is the CI smoke test for that property.

use govdns::model::fnv64;
use govdns::prelude::*;

fn main() {
    let mut seed = 7u64;
    let mut profile = ChaosProfile::Flaky;
    let mut scale = 0.02f64;
    let mut breaker = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--profile" => {
                let name = args.next().expect("--profile NAME");
                profile = ChaosProfile::parse(&name)
                    .unwrap_or_else(|| panic!("unknown profile {name:?}"));
            }
            "--scale" => scale = args.next().and_then(|s| s.parse().ok()).expect("--scale F"),
            "--breaker" => breaker = true,
            other => panic!("unknown argument {other:?}"),
        }
    }

    let world = WorldGenerator::new(WorldConfig::small(seed).with_scale(scale)).generate();
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

    println!("chaos profile: {profile} (seed {seed}, scale {scale})");
    println!();
    println!("== collection funnel ==");
    println!("queried:            {}", report.funnel.queried);
    println!("parent-responsive:  {}", report.funnel.parent_responsive);
    println!("parent-nonempty:    {}", report.funnel.parent_nonempty);
    println!("child-responsive:   {}", report.funnel.child_responsive);
    println!("second-round probes: {}", report.dataset.retried);
    println!();
    println!("== injected faults ==");
    let f = &report.dataset.faults;
    println!("flap timeouts: {}", f.flap_timeouts);
    println!("losses:        {}", f.losses);
    println!("refused:       {}", f.refused);
    println!("truncated:     {}", f.truncated);
    println!("delayed:       {}", f.delayed);
    println!("outcome-changing total: {}", f.injected());
    println!();
    println!("== measurement health ==");
    let h = &report.health;
    println!("degraded domains:    {} ({:.1}% of responsive)", h.degraded_domains, h.degraded_pct);
    println!("recovered in round 2: {}", h.recovered_in_round2);
    println!("retry attempts:      {}", h.retry_attempts);
    println!("retry recovered:     {}", h.retry_recovered);
    println!("retry exhausted:     {}", h.retry_exhausted);
    println!("retry budget denied: {}", h.retry_budget_denied);
    if !h.flaky_countries.is_empty() {
        println!("flakiest countries (responsive/degraded):");
        for &(c, total, degraded) in &h.flaky_countries {
            println!("  {c}  {total}/{degraded}");
        }
    }
    if breaker {
        println!();
        println!("== circuit breakers ==");
        println!("tripped:          {}", h.breaker_tripped);
        println!("exchanges denied: {}", h.breaker_denied);
        println!("reclosed:         {}", h.breaker_reclosed);
        println!("reopened:         {}", h.breaker_reopened);
        if !h.quarantined.is_empty() {
            println!("quarantined destinations (denied exchanges):");
            for (dst, denied) in &h.quarantined {
                println!("  {dst}  {denied}");
            }
        }
    }
    println!();
    println!("== remediation ==");
    println!("flakiness follow-ups: {}", report.remedies.flakiness_followups);
    println!("quarantine follow-ups: {}", report.remedies.quarantine_followups);
    println!();
    let json = report.dataset.canonical_json();
    println!(
        "dataset fingerprint: {:016x} ({} bytes canonical)",
        fnv64(json.as_bytes()),
        json.len()
    );
}
