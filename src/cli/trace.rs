//! `trace`: the flight-recorder CLI.
//!
//! **Run mode** (default) runs a traced chaos campaign and summarizes
//! the trace: sampled domains, flight dumps, an exemplar causal
//! timeline, and a fingerprint of the trace file. Its stdout never
//! mentions the worker count or a file path, so identically seeded runs
//! print byte-identical output at any worker count, and the trace files
//! they write are byte-identical too. `--explain DOMAIN` replays the
//! trace events behind the domain's remediation verdict; it is a
//! finding when the trace never sampled the domain.
//!
//! **Inspect mode** (`--inspect PATH`) reconstructs timelines from an
//! existing trace file, filtered by `--domain`, `--dst` and `--class`.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use govdns::core::analysis::remedies::{plan_for, Remedy};
use govdns::core::DomainProbe;
use govdns::model::fnv64;
use govdns::prelude::*;
use govdns::trace::{DomainBlock, TraceData, TraceEvent};

use super::{
    invariant_config, read_trace_file, temp_trace, unknown, world, write, Args, Error, Outcome,
};

struct Options {
    seed: u64,
    workers: usize,
    scale: f64,
    sample_ppm: u32,
    out: Option<PathBuf>,
    explain: Option<DomainName>,
    prom: Option<PathBuf>,
    inspect: Option<PathBuf>,
    domain: Option<String>,
    dst: Option<Ipv4Addr>,
    class: Option<String>,
}

pub(crate) fn run(mut args: Args) -> Result<Outcome, Error> {
    let mut opts = Options {
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
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = args.value("--seed")?,
            "--workers" => opts.workers = args.value("--workers")?,
            "--scale" => opts.scale = args.scale()?,
            "--sample-ppm" => opts.sample_ppm = args.value("--sample-ppm")?,
            "--out" => opts.out = Some(args.value("--out")?),
            "--explain" => opts.explain = Some(args.value("--explain")?),
            "--prom" => opts.prom = Some(args.value("--prom")?),
            "--inspect" => opts.inspect = Some(args.value("--inspect")?),
            "--domain" => opts.domain = Some(args.value("--domain")?),
            "--dst" => opts.dst = Some(args.value("--dst")?),
            "--class" => opts.class = Some(args.value("--class")?),
            other => return Err(unknown(other)),
        }
    }
    match &opts.inspect {
        Some(path) => inspect(path, &opts),
        None => campaign(&opts),
    }
}

/// Inspect mode: print timelines from an existing trace file.
fn inspect(path: &Path, opts: &Options) -> Result<Outcome, Error> {
    let log = read_trace_file(path)?;
    if let Some(h) = &log.header {
        outln!(
            "trace: {} of {} domains sampled (sample {} ppm, flight capacity {}), complete: {}",
            log.domains.len(),
            h.domains,
            h.sample_ppm,
            h.flight_capacity,
            log.completed,
        );
    }
    if log.dropped_bytes > 0 {
        outln!("torn tail: {} bytes dropped", log.dropped_bytes);
    }
    let class_matches = |e: &TraceEvent| match &opts.class {
        None => true,
        Some(want) => e.class() == Some(want.as_str()),
    };
    let dst_matches = |e: &TraceEvent| match opts.dst {
        None => true,
        Some(want) => e.dst() == Some(want),
    };
    for block in &log.domains {
        if let Some(want) = &opts.domain {
            if &block.domain != want {
                continue;
            }
        }
        let events: Vec<&TraceEvent> =
            block.events.iter().filter(|e| class_matches(e) && dst_matches(e)).collect();
        if events.is_empty() {
            continue;
        }
        outln!("\n{} (index {}, {} events):", block.domain, block.index, block.events.len());
        for e in events {
            outln!("  {}", e.render());
        }
    }
    if !log.dumps.is_empty() {
        outln!("\nflight dumps:");
        for d in &log.dumps {
            let domain = d.domain.as_deref().unwrap_or("-");
            outln!("  {} domain={} events={}", d.trigger, domain, d.events.len());
        }
    }
    Ok(Outcome::Clean)
}

/// Run mode: a traced chaos campaign plus a deterministic summary. The
/// trace goes to `--out`, or to a temp file removed afterwards.
fn campaign(opts: &Options) -> Result<Outcome, Error> {
    let out = opts.out.clone().unwrap_or_else(|| temp_trace("trace"));
    let result = summarize(opts, &out);
    if opts.out.is_none() {
        let _ = std::fs::remove_file(&out);
    }
    result
}

fn summarize(opts: &Options, out: &Path) -> Result<Outcome, Error> {
    let world = world(opts.seed, opts.scale, 0.0);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);

    let trace = TraceSpec::new(out).with_seed(opts.seed).with_sample_ppm(opts.sample_ppm);
    let config = invariant_config(opts.seed, opts.workers, trace);
    let ctl = CampaignTelemetry::new();
    let report = Report::generate_with(&campaign, config, &ctl);

    outln!("traced chaos campaign: profile flaky, seed {}, scale {}", opts.seed, opts.scale);
    outln!();
    outln!("== campaign ==");
    outln!("queried:             {}", report.funnel.queried);
    outln!("parent-responsive:   {}", report.funnel.parent_responsive);
    outln!("second-round probes: {}", report.dataset.retried);
    outln!("degraded domains:    {}", report.health.degraded_domains);
    // NOT printed: traffic/fault totals and the dataset fingerprint.
    // Those count the resolver's internal queries too, whose number
    // depends on per-worker cache warmth — they vary with the worker
    // count even though every probe outcome (and the trace) does not.

    let log = read_trace_file(out)?;
    outln!();
    outln!("== trace ==");
    let header = log
        .header
        .as_ref()
        .ok_or_else(|| Error::File(format!("{}: trace has no header", out.display())))?;
    outln!("domains sampled:     {} of {}", log.domains.len(), header.domains);
    outln!("events recorded:     {}", log.events_total());
    outln!("complete:            {}", log.completed);
    let mut by_trigger: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &log.dumps {
        *by_trigger.entry(d.trigger.as_str()).or_insert(0) += 1;
    }
    for (trigger, n) in &by_trigger {
        outln!("dumps[{trigger}]: {n}");
    }

    // One exemplar causal timeline, reconstructed from the trace file —
    // the first degraded domain that was sampled.
    if let Some(block) = first_degraded(&report.dataset, &log) {
        outln!();
        outln!("== exemplar degraded-domain timeline ==");
        outln!("{} ({} events):", block.domain, block.events.len());
        for line in block.timeline() {
            outln!("  {line}");
        }
    }

    let mut outcome = Outcome::Clean;
    if let Some(name) = &opts.explain {
        // Trace blocks are keyed by the canonical rendering.
        let block = log.domain(&name.to_string());
        let probe = report
            .dataset
            .discovered
            .iter()
            .position(|d| d.name == *name)
            .and_then(|i| report.dataset.probes.get(i));
        match (block, probe) {
            (Some(block), Some(probe)) => explain(block, probe, &campaign),
            _ => {
                // A typo must never read as a clean explanation.
                eprintln!("error: --explain {name}: domain not found in the sampled trace");
                outcome = Outcome::Finding;
            }
        }
    }

    if let Some(path) = &opts.prom {
        write(path, report.dataset.telemetry.render_prometheus())?;
    }

    outln!();
    let bytes = std::fs::read(out)
        .map_err(|e| Error::File(format!("cannot read {}: {e}", out.display())))?;
    outln!("trace fingerprint: {:016x} ({} bytes)", fnv64(&bytes), bytes.len());
    Ok(outcome)
}

/// The first degraded domain (campaign order) that has a trace block.
fn first_degraded<'l>(dataset: &MeasurementDataset, log: &'l TraceLog) -> Option<&'l DomainBlock> {
    dataset.probes.iter().enumerate().find_map(|(i, probe)| {
        if !probe.degraded() {
            return None;
        }
        log.domain(&dataset.discovered[i].name.to_string())
    })
}

/// Explain a domain's remediation verdict by replaying the trace events
/// that support each remedy.
fn explain(block: &DomainBlock, probe: &DomainProbe, campaign: &Campaign<'_>) {
    outln!();
    outln!("== explain {} ==", block.domain);
    let plan = plan_for(probe, campaign);
    if plan.is_empty() {
        outln!("no remediation needed; full timeline:");
        for line in block.timeline() {
            outln!("  {line}");
        }
        return;
    }
    for remedy in &plan.remedies {
        outln!("remedy: {remedy:?}");
        let support = supporting(remedy, block);
        if support.is_empty() {
            outln!("  (no per-query trace events bear on this remedy)");
        }
        for e in support {
            outln!("  {}", e.render());
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
