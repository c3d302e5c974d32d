//! Bring-your-own passive DNS: run the longitudinal analyses over a real
//! passive-DNS export (the TSV format documented in
//! `govdns::pdns::export`) instead of the simulated feed.
//!
//! ```sh
//! cargo run --release --example real_pdns my-dnsdb-export.tsv gov.br:br gov.au:au
//! ```
//!
//! Each extra argument names a seed as `<d_gov>:<iso2>`. Without
//! arguments, a small embedded sample demonstrates the flow.

use govdns::core::analysis::longitudinal::Longitudinal;
use govdns::core::analysis::replication::{SingleNsChurn, YearlyTotals};
use govdns::core::seed::{SeedDomain, SeedKind, SeedProvenance};
use govdns::core::Campaign;
use govdns::model::SimDate;
use govdns::pdns::export;
use govdns::world::CountryCode;

const SAMPLE: &str = "\
# embedded demo export
2011-02-01\t2021-01-15\t900\tportal.gov.xx\tNS\tns1.portal.gov.xx
2011-02-01\t2016-06-01\t310\tportal.gov.xx\tNS\tns2.portal.gov.xx
2016-06-02\t2021-01-15\t410\tportal.gov.xx\tNS\tben.ns.cloudflare.com
2012-05-01\t2021-01-15\t700\ttax.gov.xx\tNS\tns-12.awsdns-03.net
2012-05-01\t2021-01-15\t700\ttax.gov.xx\tNS\tns-13.awsdns-44.org
2013-01-01\t2014-02-01\t40\told.gov.xx\tNS\tns1.old.gov.xx
2015-08-01\t2021-01-15\t520\tcensus.gov.xx\tNS\tns1.census.gov.xx
";

fn main() {
    let mut args = std::env::args().skip(1);
    let (text, seeds): (String, Vec<SeedDomain>) = match args.next() {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let seeds: Vec<SeedDomain> = args
                .map(|spec| {
                    let (name, cc) = spec.split_once(':').unwrap_or_else(|| {
                        eprintln!("seed `{spec}` must be <d_gov>:<iso2>");
                        std::process::exit(2);
                    });
                    SeedDomain {
                        country: cc.parse::<CountryCode>().unwrap_or_else(|e| {
                            eprintln!("{e}");
                            std::process::exit(2);
                        }),
                        name: name.parse().unwrap_or_else(|e| {
                            eprintln!("bad seed domain `{name}`: {e}");
                            std::process::exit(2);
                        }),
                        kind: SeedKind::ReservedSuffix,
                        earliest_government_use: None,
                        provenance: SeedProvenance::PortalLink,
                        portal_resolved: true,
                    }
                })
                .collect();
            (text, seeds)
        }
        None => {
            eprintln!("(no file given — using the embedded sample with seed gov.xx)");
            (
                SAMPLE.to_owned(),
                vec![SeedDomain {
                    country: CountryCode::new("xx"),
                    name: "gov.xx".parse().expect("static name"),
                    kind: SeedKind::ReservedSuffix,
                    earliest_government_use: None,
                    provenance: SeedProvenance::PortalLink,
                    portal_resolved: true,
                }],
            )
        }
    };

    let pdns = export::from_tsv(&text).unwrap_or_else(|e| {
        eprintln!("export parse error: {e}");
        std::process::exit(1);
    });
    eprintln!("loaded {} passive-DNS entries", pdns.len());

    // A campaign over the real data: no network, no registrar — only the
    // PDNS-driven analyses run.
    let network = govdns::simnet::SimNetwork::new(0);
    let fixture_roots = vec![std::net::Ipv4Addr::new(127, 0, 0, 1)];
    let unkb = govdns::world::UnKnowledgeBase::new();
    let docs = govdns::world::RegistryDocs::new();
    let webarchive = govdns::world::WebArchive::new();
    let asn_db = govdns::simnet::AsnDb::new();
    let registrar = govdns::world::Registrar::new();
    let countries = govdns::world::countries();
    let campaign = Campaign {
        unkb: &unkb,
        registry_docs: &docs,
        webarchive: &webarchive,
        pdns: &pdns,
        network: &network,
        roots: &fixture_roots,
        asn_db: &asn_db,
        registrar: &registrar,
        matchers: &[],
        countries: &countries,
        collection_date: SimDate::from_ymd(2021, 4, 15),
    };

    let lon = Longitudinal::build(&campaign, &seeds);
    eprintln!("{} domains under the given seeds", lon.histories().len());

    println!("== domains / countries / nameservers per year ==");
    println!("{}", YearlyTotals::compute(&lon).table().to_text());
    println!("== single-NS cohort churn ==");
    println!("{}", SingleNsChurn::compute(&lon).table().to_text());
}
