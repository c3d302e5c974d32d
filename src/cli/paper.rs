//! The report commands: `audit`, `hijack`, `country`, `remedies` and
//! `check`. Their options may come before or after the command word.

use std::path::PathBuf;

use govdns::core::analysis::consistency::{classify, ConsistencyClass};
use govdns::core::analysis::longitudinal::Longitudinal;
use govdns::core::analysis::remedies;
use govdns::core::DomainProbe;
use govdns::prelude::*;
use govdns::world::CountryCode;

use super::{read_to_string, unknown, usage, world, Args, Error, Outcome};

pub(crate) struct Options {
    pub(crate) scale: f64,
    pub(crate) seed: u64,
    pub(crate) loss: f64,
    pub(crate) workers: usize,
    /// `audit --out`: the directory the CSV bundle goes to.
    pub(crate) out: Option<PathBuf>,
    pub(crate) positional: Vec<String>,
}

/// Parses the whole command line: the shared options anywhere, every
/// other token a positional in order.
pub(crate) fn parse_args(argv: &[String]) -> Result<Options, Error> {
    let mut opts =
        Options { scale: 0.05, seed: 42, loss: 0.0, workers: 8, out: None, positional: Vec::new() };
    let mut args = Args::new(argv.to_vec());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => opts.scale = args.scale()?,
            "--seed" => opts.seed = args.value("--seed")?,
            "--loss" => opts.loss = args.value("--loss")?,
            "--workers" => opts.workers = args.value("--workers")?,
            "--out" => opts.out = Some(args.value("--out")?),
            flag if flag.starts_with("--") => return Err(unknown(flag)),
            _ => opts.positional.push(arg),
        }
    }
    Ok(opts)
}

type Command = fn(&Options) -> Result<Outcome, Error>;

/// Checks the whole command line against the command it names, then
/// runs it: a stray positional or an `--out` that only `audit` reads is
/// a usage error before any world is generated.
pub(crate) fn run(argv: &[String]) -> Result<Outcome, Error> {
    let opts = parse_args(argv)?;
    // Each command with the number of positionals it reads, its own
    // name included.
    let (command, positionals): (Command, usize) = match opts.positional.first().map(String::as_str)
    {
        Some("audit") => (audit, 1),
        Some("hijack") => (hijack, 1),
        Some("country") => (country, 2),
        Some("remedies") => (remedies, 2),
        Some("check") => (check, 2),
        Some(other) => return Err(usage(format!("unknown command {other:?}"))),
        None => return Err(usage("missing command")),
    };
    if let Some(stray) = opts.positional.get(positionals) {
        return Err(unknown(stray));
    }
    if opts.out.is_some() && opts.positional[0] != "audit" {
        return Err(usage("--out is an audit option"));
    }
    command(&opts)
}

/// The ISO code in positional slot 1, if any.
fn country_code(opts: &Options) -> Result<Option<CountryCode>, Error> {
    opts.positional
        .get(1)
        .map(|code| code.parse().map_err(|_| usage(format!("`{code}` is not an ISO alpha-2 code"))))
        .transpose()
}

/// Generates the world, runs the campaign and every analysis over it,
/// and hands the world, campaign and report to `view`.
fn with_report<T>(opts: &Options, view: impl FnOnce(&World, &Campaign<'_>, Report) -> T) -> T {
    eprintln!("generating world (scale {}, seed {}, loss {})...", opts.scale, opts.seed, opts.loss);
    let world = world(opts.seed, opts.scale, opts.loss);
    eprintln!("world: {} servers, {} PDNS entries", world.network.server_count(), world.pdns.len());
    eprintln!("running campaign...");
    let matchers = world.catalog.matchers();
    let campaign = Campaign::new(&world, &matchers);
    let report = Report::generate(
        &campaign,
        RunnerConfig { workers: opts.workers, ..RunnerConfig::default() },
    );
    view(&world, &campaign, report)
}

/// The `Error::File` for a failed write under `dir`.
fn cannot_write(dir: &std::path::Path, e: std::io::Error) -> Error {
    Error::File(format!("cannot write {}: {e}", dir.display()))
}

/// The full text report; with `--out`, also every table as CSV.
fn audit(opts: &Options) -> Result<Outcome, Error> {
    // An unwritable `--out` fails now, not after the campaign.
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).map_err(|e| cannot_write(dir, e))?;
    }
    with_report(opts, |_, _, report| {
        outln!("{}", report.render());
        if let Some(dir) = &opts.out {
            report.write_csv_bundle(dir).map_err(|e| cannot_write(dir, e))?;
            eprintln!("CSV tables written to {}", dir.display());
        }
        Ok(Outcome::Clean)
    })
}

/// One tab-separated line per registrable dangling NS domain: name,
/// price, domain and country counts, then the exposed domains. A
/// finding when there is any, so scripts can alert on exposure. The
/// totals, the attack budget and the parked surface go to stderr.
fn hijack(opts: &Options) -> Result<Outcome, Error> {
    with_report(opts, |_, _, report| {
        let d = &report.delegation;
        for a in &d.available {
            outln!(
                "{}\t{:.2} USD\t{} domains\t{} countries\t{}",
                a.name,
                a.price_usd,
                a.affected.len(),
                a.countries.len(),
                joined(&a.affected)
            );
        }
        eprintln!(
            "{} registrable d_ns over {} domains in {} countries ({} already fully dark)",
            d.available.len(),
            d.affected_domains,
            d.affected_countries,
            d.affected_fully_stale
        );
        if let (Some(min), Some(max)) = (d.cost_cdf.min(), d.cost_cdf.max()) {
            let median = d.cost_cdf.quantile(0.5);
            eprintln!("attack budget: min {min:.2} USD, median {median:.2} USD, max {max:.2} USD");
        }
        let c = &report.consistency;
        eprintln!(
            "parked (parent-side only, no defective delegation): {} registrable d_ns over {} \
             domains in {} countries",
            c.parked.len(),
            c.parked_affected_domains,
            c.parked_affected_countries
        );
        for p in &c.parked {
            eprintln!("  {}\t{:.2} USD\t{}", p.name, p.price_usd, joined(&p.affected));
        }
        Ok(Outcome::finding_if(!d.available.is_empty()))
    })
}

fn joined(names: &[DomainName]) -> String {
    names.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}

/// One country's seed, delegation health, most fragile domains and
/// ten-year PDNS history.
fn country(opts: &Options) -> Result<Outcome, Error> {
    let Some(code) = country_code(opts)? else {
        return Err(usage("country needs an ISO code"));
    };
    with_report(opts, |world, campaign, report| {
        let probes: Vec<_> = report
            .dataset
            .probes_with_country()
            .filter(|&(_, c)| c == code)
            .map(|(p, _)| p)
            .collect();
        let count = |keep: &dyn Fn(&DomainProbe) -> bool| probes.iter().filter(|p| keep(p)).count();
        outln!("country: {code}");
        if let Some(country) = world.country(code) {
            outln!("name: {} ({})", country.name, country.sub_region);
        }
        if let Some(seed) = report.dataset.seeds.iter().find(|s| s.country == code) {
            outln!("seed domain: {} ({:?})", seed.name, seed.kind);
        }
        outln!("probed: {}  responsive: {}", probes.len(), count(&|p| p.parent_nonempty()));
        outln!("defective delegations: {}", count(&|p| p.defective().0));
        outln!("fully dead delegations: {}", count(&|p| p.defective().1));
        outln!(
            "single-nameserver domains: {}",
            count(&|p| p.parent_nonempty() && p.ns_union().len() == 1)
        );
        outln!(
            "parent/child disagreements: {}",
            count(&|p| classify(p).is_some_and(|c| c != ConsistencyClass::Equal))
        );

        outln!("most fragile domains:");
        let mut fragile: Vec<_> = probes
            .iter()
            .filter(|p| p.defective().0)
            .map(|p| (p.servers.iter().filter(|s| s.is_defective()).count(), p.servers.len(), p))
            .collect();
        fragile.sort_by_key(|&(dead, total, _)| std::cmp::Reverse(dead * 100 / total.max(1)));
        for (dead, total, p) in fragile.into_iter().take(10) {
            outln!("  {}: {dead}/{total} nameservers defective", p.domain);
        }

        outln!("PDNS history (domains seen per year):");
        let lon = Longitudinal::build(campaign, &report.dataset.seeds);
        for year in Longitudinal::years() {
            outln!("  {year}: {}", lon.active_in_year(year).filter(|h| h.country == code).count());
        }
        Ok(Outcome::Clean)
    })
}

fn remedies(opts: &Options) -> Result<Outcome, Error> {
    let filter = country_code(opts)?;
    with_report(opts, |_, campaign, report| {
        let mut printed = 0;
        for (probe, country) in report.dataset.probes_with_country() {
            if filter.is_some_and(|c| c != country) || !probe.parent_nonempty() {
                continue;
            }
            let plan = remedies::plan_for(probe, campaign);
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
    })
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
