//! The report commands: `audit`, `hijack`, `country`, `remedies` and
//! `check`. Their options may come before or after the command word.

use govdns::core::analysis::remedies;
use govdns::prelude::*;
use govdns::world::CountryCode;

use super::{read_to_string, unknown, usage, Args, Error, Outcome};

pub(crate) struct Options {
    pub(crate) scale: f64,
    pub(crate) seed: u64,
    pub(crate) loss: f64,
    pub(crate) workers: usize,
    pub(crate) positional: Vec<String>,
}

/// Parses the whole command line: the shared options anywhere, every
/// other token a positional in order.
pub(crate) fn parse_args(argv: &[String]) -> Result<Options, Error> {
    let mut opts = Options { scale: 0.05, seed: 42, loss: 0.0, workers: 8, positional: Vec::new() };
    let mut args = Args::new(argv.to_vec());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => opts.scale = args.scale()?,
            "--seed" => opts.seed = args.value("--seed")?,
            "--loss" => opts.loss = args.value("--loss")?,
            "--workers" => opts.workers = args.value("--workers")?,
            flag if flag.starts_with("--") => return Err(unknown(flag)),
            _ => opts.positional.push(arg),
        }
    }
    Ok(opts)
}

pub(crate) fn run(argv: &[String]) -> Result<Outcome, Error> {
    let opts = parse_args(argv)?;
    match opts.positional.first().map(String::as_str) {
        Some("audit") => audit(&opts),
        Some("hijack") => hijack(&opts),
        Some("country") => country(&opts),
        Some("remedies") => remedies(&opts),
        Some("check") => check(&opts),
        Some(other) => Err(usage(format!("unknown command {other:?}"))),
        None => Err(usage("missing command")),
    }
}

/// The ISO code in positional slot 1, if any.
fn country_code(opts: &Options) -> Result<Option<CountryCode>, Error> {
    opts.positional
        .get(1)
        .map(|code| code.parse().map_err(|_| usage(format!("`{code}` is not an ISO alpha-2 code"))))
        .transpose()
}

fn campaign_report(opts: &Options, campaign: &Campaign<'_>) -> Report {
    Report::generate(campaign, RunnerConfig { workers: opts.workers, ..RunnerConfig::default() })
}

fn world(opts: &Options) -> World {
    WorldGenerator::new(
        WorldConfig::small(opts.seed).with_scale(opts.scale).with_loss_rate(opts.loss),
    )
    .generate()
}

fn build_report(opts: &Options) -> Report {
    eprintln!("generating world (scale {}, seed {}, loss {})...", opts.scale, opts.seed, opts.loss);
    let world = world(opts);
    eprintln!("running campaign...");
    let matchers = world.catalog.matchers();
    campaign_report(opts, &Campaign::new(&world, &matchers))
}

fn audit(opts: &Options) -> Result<Outcome, Error> {
    let report = build_report(opts);
    outln!("{}", report.render());
    Ok(Outcome::Clean)
}

/// A finding when any dangling NS domain is registrable, so scripts can
/// alert on exposure.
fn hijack(opts: &Options) -> Result<Outcome, Error> {
    let report = build_report(opts);
    let d = &report.delegation;
    for a in &d.available {
        outln!(
            "{}\t{:.2} USD\t{} domains\t{} countries",
            a.name,
            a.price_usd,
            a.affected.len(),
            a.countries.len()
        );
    }
    eprintln!(
        "{} registrable d_ns over {} domains in {} countries",
        d.available.len(),
        d.affected_domains,
        d.affected_countries
    );
    Ok(Outcome::finding_if(!d.available.is_empty()))
}

fn country(opts: &Options) -> Result<Outcome, Error> {
    let Some(code) = country_code(opts)? else {
        return Err(usage("country needs an ISO code"));
    };
    let report = build_report(opts);
    let probes: Vec<_> =
        report.dataset.probes_with_country().filter(|&(_, c)| c == code).map(|(p, _)| p).collect();
    let responsive = probes.iter().filter(|p| p.parent_nonempty()).count();
    let defective = probes.iter().filter(|p| p.defective().0).count();
    let single = probes.iter().filter(|p| p.parent_nonempty() && p.ns_union().len() == 1).count();
    outln!("country: {code}");
    outln!("probed: {}  responsive: {responsive}", probes.len());
    outln!("defective delegations: {defective}");
    outln!("single-nameserver domains: {single}");
    Ok(Outcome::Clean)
}

fn remedies(opts: &Options) -> Result<Outcome, Error> {
    let filter = country_code(opts)?;
    let world = world(opts);
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let report = campaign_report(opts, &campaign);
    let mut printed = 0;
    for (probe, country) in report.dataset.probes_with_country() {
        if filter.is_some_and(|c| c != country) || !probe.parent_nonempty() {
            continue;
        }
        let plan = remedies::plan_for(probe, &campaign);
        if plan.is_empty() {
            continue;
        }
        outln!("{} ({country}):", plan.domain);
        for r in &plan.remedies {
            outln!("  - {r:?}");
        }
        printed += 1;
        if printed >= 50 {
            outln!("... (truncated at 50 domains)");
            break;
        }
    }
    eprintln!(
        "{} of {} domains need action",
        report.remedies.needing_action, report.remedies.domains
    );
    Ok(Outcome::Clean)
}

/// A finding when the lint warns.
fn check(opts: &Options) -> Result<Outcome, Error> {
    let Some(path) = opts.positional.get(1) else {
        return Err(usage("check needs a zone-file path"));
    };
    let text = read_to_string(path.as_ref())?;
    let zone =
        govdns::model::zonefile::parse(&text).map_err(|e| Error::File(format!("{path}: {e}")))?;
    outln!("{}: OK — origin {}, {} rrsets", path, zone.origin(), zone.rrset_count());
    // The lint the paper would have loved: single-label NS targets are
    // almost always trailing-dot typos.
    let mut warnings = 0;
    for set in zone.iter() {
        for target in set.ns_targets() {
            if target.level() == 1 {
                outln!(
                    "warning: NS target `{target}` at {} is a single label — \
                     likely a trailing-dot typo",
                    set.name()
                );
                warnings += 1;
            }
        }
    }
    Ok(Outcome::finding_if(warnings > 0))
}
