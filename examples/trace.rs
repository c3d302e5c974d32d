//! Flight-recorder demo and trace inspection CLI.
//!
//! **Run mode** (default): run a chaos campaign with the flight
//! recorder on, then summarize the trace — per-domain causal timelines,
//! flight dumps, and a fingerprint of the trace file itself:
//!
//! ```sh
//! cargo run --release --example trace -- --seed 7 [--workers 8] [--scale 0.02] \
//!     [--sample-ppm 1000000] [--out run.trace] [--explain DOMAIN] [--prom metrics.prom]
//! ```
//!
//! The stdout of run mode never mentions the worker count or any file
//! path: identically seeded runs print byte-identical output at any
//! worker count, and the trace files they write are byte-identical too.
//! CI runs this twice (1 worker, then 8) and diffs both.
//!
//! **Inspect mode**: reconstruct timelines from an existing trace file,
//! with optional filters:
//!
//! ```sh
//! cargo run --release --example trace -- --inspect run.trace \
//!     [--domain NAME] [--dst ADDR] [--class CLASS]
//! ```

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::ExitCode;

use govdns::core::analysis::remedies::{plan_for, Remedy};
use govdns::core::{BreakerPolicy, DomainProbe};
use govdns::model::fnv64;
use govdns::prelude::*;
use govdns::trace::{DomainBlock, TraceData, TraceEvent};

struct Args {
    seed: u64,
    workers: usize,
    scale: f64,
    sample_ppm: u32,
    out: Option<PathBuf>,
    explain: Option<String>,
    prom: Option<PathBuf>,
    inspect: Option<PathBuf>,
    domain: Option<String>,
    dst: Option<Ipv4Addr>,
    class: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seed: 7,
        workers: 1,
        scale: 0.02,
        sample_ppm: 1_000_000,
        out: None,
        explain: None,
        prom: None,
        inspect: None,
        domain: None,
        dst: None,
        class: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--seed" => parsed.seed = next("--seed").parse().expect("--seed N"),
            "--workers" => parsed.workers = next("--workers").parse().expect("--workers N"),
            "--scale" => parsed.scale = next("--scale").parse().expect("--scale F"),
            "--sample-ppm" => {
                parsed.sample_ppm = next("--sample-ppm").parse().expect("--sample-ppm N");
            }
            "--out" => parsed.out = Some(PathBuf::from(next("--out"))),
            "--explain" => parsed.explain = Some(next("--explain")),
            "--prom" => parsed.prom = Some(PathBuf::from(next("--prom"))),
            "--inspect" => parsed.inspect = Some(PathBuf::from(next("--inspect"))),
            "--domain" => parsed.domain = Some(next("--domain")),
            "--dst" => parsed.dst = Some(next("--dst").parse().expect("--dst IPv4")),
            "--class" => parsed.class = Some(next("--class")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    parsed
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.inspect {
        inspect(path, &args);
        return ExitCode::SUCCESS;
    }
    run(&args)
}

/// Inspect mode: print timelines from an existing trace file.
fn inspect(path: &std::path::Path, args: &Args) {
    let log = read_trace(path).expect("readable trace file");
    if let Some(h) = &log.header {
        println!(
            "trace: {} of {} domains sampled (sample {} ppm, flight capacity {}), complete: {}",
            log.domains.len(),
            h.domains,
            h.sample_ppm,
            h.flight_capacity,
            log.completed,
        );
    }
    if log.dropped_bytes > 0 {
        println!("torn tail: {} bytes dropped", log.dropped_bytes);
    }
    let class_matches = |e: &TraceEvent| match &args.class {
        None => true,
        Some(want) => e.class() == Some(want.as_str()),
    };
    let dst_matches = |e: &TraceEvent| match args.dst {
        None => true,
        Some(want) => e.dst() == Some(want),
    };
    for block in &log.domains {
        if let Some(want) = &args.domain {
            if &block.domain != want {
                continue;
            }
        }
        let events: Vec<&TraceEvent> =
            block.events.iter().filter(|e| class_matches(e) && dst_matches(e)).collect();
        if events.is_empty() {
            continue;
        }
        println!("\n{} (index {}, {} events):", block.domain, block.index, block.events.len());
        for e in events {
            println!("  {}", e.render());
        }
    }
    if !log.dumps.is_empty() {
        println!("\nflight dumps:");
        for d in &log.dumps {
            let domain = d.domain.as_deref().unwrap_or("-");
            println!("  {} domain={} events={}", d.trigger, domain, d.events.len());
        }
    }
}

/// Run mode: a traced chaos campaign plus a deterministic summary.
/// Exits nonzero when `--explain` names a domain the trace never
/// sampled, so scripts can't mistake a typo for a clean explanation.
fn run(args: &Args) -> ExitCode {
    let world =
        WorldGenerator::new(WorldConfig::small(args.seed).with_scale(args.scale)).generate();
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);

    // Flaky profile, no breakers, and an *unlimited* retry budget: the
    // only worker-count-sensitive signals (shared retry budget, REFUSED
    // burst ordinals, breaker races) are off, so the trace file and this
    // output are byte-identical at any worker count.
    let out = args.out.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("govdns-trace-example-{}.trace", std::process::id()))
    });
    let config = RunnerConfig {
        workers: args.workers,
        retry: RetryPolicy { per_destination_budget: None, ..RetryPolicy::adaptive() },
        chaos: Some(ChaosSpec { profile: ChaosProfile::Flaky, seed: args.seed }),
        breaker: BreakerPolicy::none(),
        trace: Some(TraceSpec::new(&out).with_seed(args.seed).with_sample_ppm(args.sample_ppm)),
        ..RunnerConfig::default()
    };
    let ctl = CampaignTelemetry::new();
    let report = Report::generate_with(&campaign, config, &ctl);

    println!("traced chaos campaign: profile flaky, seed {}, scale {}", args.seed, args.scale);
    println!();
    println!("== campaign ==");
    println!("queried:             {}", report.funnel.queried);
    println!("parent-responsive:   {}", report.funnel.parent_responsive);
    println!("second-round probes: {}", report.dataset.retried);
    println!("degraded domains:    {}", report.health.degraded_domains);
    // NOT printed: traffic/fault totals and the dataset fingerprint.
    // Those count the resolver's internal queries too, whose number
    // depends on per-worker cache warmth — they vary with the worker
    // count even though every probe outcome (and the trace) does not.

    let log = read_trace(&out).expect("trace file written by the campaign");
    println!();
    println!("== trace ==");
    let header = log.header.as_ref().expect("trace header");
    println!("domains sampled:     {} of {}", log.domains.len(), header.domains);
    println!("events recorded:     {}", log.events_total());
    println!("complete:            {}", log.completed);
    let mut by_trigger: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &log.dumps {
        *by_trigger.entry(d.trigger.as_str()).or_insert(0) += 1;
    }
    for (trigger, n) in &by_trigger {
        println!("dumps[{trigger}]: {n}");
    }

    // One exemplar causal timeline, reconstructed from the trace file —
    // the first degraded domain that was sampled.
    let degraded = first_degraded(&report.dataset, &log);
    if let Some((block, _)) = &degraded {
        println!();
        println!("== exemplar degraded-domain timeline ==");
        println!("{} ({} events):", block.domain, block.events.len());
        for line in block.timeline() {
            println!("  {line}");
        }
    }

    let mut exit = ExitCode::SUCCESS;
    if let Some(name) = &args.explain {
        let block = log.domain(name);
        let probe = report
            .dataset
            .discovered
            .iter()
            .position(|d| d.name.to_string() == *name)
            .and_then(|i| report.dataset.probes.get(i));
        match (block, probe) {
            (Some(block), Some(probe)) => explain(block, probe, &campaign),
            _ => {
                eprintln!("error: --explain {name}: domain not found in the sampled trace");
                exit = ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.prom {
        std::fs::write(path, report.dataset.telemetry.render_prometheus())
            .expect("write prometheus exposition");
    }

    println!();
    let bytes = std::fs::read(&out).expect("trace file bytes");
    println!("trace fingerprint: {:016x} ({} bytes)", fnv64(&bytes), bytes.len());
    exit
}

/// The first degraded domain (campaign order) that has a trace block.
fn first_degraded<'l>(
    dataset: &MeasurementDataset,
    log: &'l TraceLog,
) -> Option<(&'l DomainBlock, usize)> {
    dataset.probes.iter().enumerate().find_map(|(i, probe)| {
        if !probe.degraded() {
            return None;
        }
        let name = dataset.discovered[i].name.to_string();
        log.domain(&name).map(|block| (block, i))
    })
}

/// Explain a domain's remediation verdict by replaying the trace events
/// that support each remedy.
fn explain(block: &DomainBlock, probe: &DomainProbe, campaign: &Campaign<'_>) {
    println!();
    println!("== explain {} ==", block.domain);
    let plan = plan_for(probe, campaign);
    if plan.is_empty() {
        println!("no remediation needed; full timeline:");
        for line in block.timeline() {
            println!("  {line}");
        }
        return;
    }
    for remedy in &plan.remedies {
        println!("remedy: {remedy:?}");
        let support = supporting(remedy, block);
        if support.is_empty() {
            println!("  (no per-query trace events bear on this remedy)");
        }
        for e in support {
            println!("  {}", e.render());
        }
    }
}

/// The trace events that bear on a remedy: the replayed evidence an
/// operator would check before acting on the verdict.
fn supporting<'b>(remedy: &Remedy, block: &'b DomainBlock) -> Vec<&'b TraceEvent> {
    let pick = |f: &dyn Fn(&TraceEvent) -> bool| -> Vec<&'b TraceEvent> {
        block.events.iter().filter(|e| f(e)).collect()
    };
    match remedy {
        // Flakiness: the faults, backoffs, and denied retries that made
        // the domain answer only degraded.
        Remedy::MonitorFlakiness => pick(&|e| {
            matches!(
                e.data,
                TraceData::Fault { .. } | TraceData::Backoff { .. } | TraceData::RetryDenied { .. }
            )
        }),
        // A dead zone: every exchange that went unanswered.
        Remedy::RemoveDelegation => {
            pick(&|e| matches!(e.class(), Some("timeout" | "rejected" | "skipped")))
        }
        // Quarantine findings: the breaker decisions themselves.
        Remedy::Quarantined(_) => pick(&|e| {
            matches!(
                e.data,
                TraceData::BreakerDenied { .. }
                    | TraceData::BreakerTrial { .. }
                    | TraceData::Breaker { .. }
            )
        }),
        // Per-nameserver fixes: the resolution attempts and failed
        // exchanges involving that host's addresses.
        Remedy::DropNameserver(host) | Remedy::FixNameserverName(host) => {
            let host = host.to_string();
            pick(&|e| match &e.data {
                TraceData::Resolve { host: h, .. } => *h == host,
                _ => e.class().is_some_and(|c| c != "authoritative"),
            })
        }
        // Structural remedies (parent sync, replicas, placement,
        // registry locks, hijack reclaims) come from the probe's final
        // NS sets, not from individual query events.
        _ => Vec::new(),
    }
}
