//! End-to-end checks that generated worlds are internally consistent and
//! calibrated: the probe-facing infrastructure works, the PDNS history has
//! the paper's shape, and injected faults are observable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use govdns_model::{fnv64, zonefile, DateRange, DomainName, RecordType};
use govdns_pdns::{export, filter, SensorConfig};
use govdns_simnet::StubResolver;
use govdns_world::{FaultClass, World, WorldConfig, WorldGenerator};

fn small_world() -> World {
    WorldGenerator::new(WorldConfig::small(7).with_scale(0.02)).generate()
}

#[test]
fn world_has_all_substrates() {
    let w = small_world();
    assert_eq!(w.countries.len(), 193);
    assert_eq!(w.unkb.len(), 193);
    assert!(!w.roots.is_empty());
    assert!(w.network.server_count() > 500, "servers: {}", w.network.server_count());
    assert!(!w.pdns.is_empty());
    assert!(w.registrar.available_count() > 0);
    assert!(w.truth().domains.len() > 500);
}

/// One FNV-1a hash per public surface of a world, in the order servers
/// (by address, with behaviour and zone origins), zones, PDNS, ground
/// truth, registrar, roots.
fn fingerprint(w: &World) -> [u64; 6] {
    let mut servers: Vec<_> = w.network.servers().collect();
    servers.sort_by_key(|s| s.addr());
    let mut server_text = String::new();
    let mut zones = BTreeMap::new();
    for s in &servers {
        write!(server_text, "{} {:?}", s.addr(), s.behavior()).unwrap();
        for z in s.zones() {
            write!(server_text, " {}", z.origin()).unwrap();
            zones.entry(z.origin().clone()).or_insert_with(|| zonefile::serialize(z));
        }
        server_text.push('\n');
    }
    let zone_text: String = zones.into_values().collect();
    let truth_text = format!("{:?}", w.truth().domains);
    let registrar_text: String =
        w.registrar.iter_available().map(|(d, price)| format!("{d} {price}\n")).collect();
    let roots_text = format!("{:?}", w.roots);
    [
        fnv64(server_text.as_bytes()),
        fnv64(zone_text.as_bytes()),
        fnv64(export::to_tsv(&w.pdns).as_bytes()),
        fnv64(truth_text.as_bytes()),
        fnv64(registrar_text.as_bytes()),
        fnv64(roots_text.as_bytes()),
    ]
}

fn fingerprint_of(cfg: WorldConfig) -> [u64; 6] {
    fingerprint(&WorldGenerator::new(cfg).generate())
}

#[test]
fn generation_is_deterministic() {
    let cfg = WorldConfig::small(9).with_scale(0.01);
    assert_eq!(fingerprint_of(cfg), fingerprint_of(cfg));
}

/// Checks a world's fingerprint against pinned hashes; any change to
/// the RNG draw order or to what is generated moves at least one.
fn assert_pinned(cfg: WorldConfig, want: [u64; 6]) {
    const SURFACES: [&str; 6] = ["servers", "zones", "pdns", "truth", "registrar", "roots"];
    let got = fingerprint_of(cfg);
    for ((surface, got), want) in SURFACES.iter().zip(got).zip(want) {
        assert_eq!(got, want, "{surface} fingerprint moved: {got:016x} != {want:016x} ({cfg:?})");
    }
}

#[test]
fn generation_is_pinned() {
    assert_pinned(
        WorldConfig::small(7).with_scale(0.01),
        [
            0x89d6_c35b_090f_f6ec,
            0xe5c8_a767_5d40_de33,
            0x1269_8463_6f9c_1f14,
            0x713c_3dac_57b0_b811,
            0xb0ae_23b3_1c58_2aef,
            0x4888_bf9c_aede_c17e,
        ],
    );
    assert_pinned(
        WorldConfig::small(9).with_scale(0.02),
        [
            0x6990_c1b6_c9a3_dbf7,
            0x5c4f_4b3c_ad1e_dcb1,
            0x8f51_7ff7_c6af_05b9,
            0xa15e_4c33_b5ad_24c9,
            0x1b7d_9bda_aeec_05f2,
            0x6f09_000d_a420_9eca,
        ],
    );
}

/// Realistic sensors draw coverage, lag and lead per record, so this
/// pin also fixes the sensor RNG's order; only the PDNS hash differs
/// from the perfect-sensor world of the same seed.
#[test]
fn generation_is_pinned_with_realistic_sensors() {
    assert_pinned(
        WorldConfig::small(7).with_scale(0.01).with_sensor(SensorConfig::realistic()),
        [
            0x89d6_c35b_090f_f6ec,
            0xe5c8_a767_5d40_de33,
            0x5150_93b7_a49f_17f2,
            0x713c_3dac_57b0_b811,
            0xb0ae_23b3_1c58_2aef,
            0x4888_bf9c_aede_c17e,
        ],
    );
}

/// The `probe` benchmark's world (seed 7, scale 0.2). Release-only in
/// practice: `cargo test --release -p govdns-world --test generation
/// -- --ignored`.
#[test]
#[ignore = "generates a 0.2-scale world; run with --release -- --ignored"]
fn generation_is_pinned_at_benchmark_scale() {
    assert_pinned(
        WorldConfig::small(7).with_scale(0.2),
        [
            0x8e02_c39d_4017_5805,
            0x0e17_84fa_8336_1f8d,
            0x924f_d232_0130_3000,
            0xc370_8505_2eee_f650,
            0x352f_9836_f4fe_8231,
            0x2d25_04c0_a27a_6b7e,
        ],
    );
}

#[test]
fn resolver_can_walk_to_a_healthy_domain() {
    let w = small_world();
    let resolver = StubResolver::new(&w.network, w.roots.clone());
    // Find a clean responsive domain in truth and resolve its www.
    let healthy = w
        .truth()
        .domains
        .iter()
        .find(|d| d.alive_2021 && d.faults.is_clean() && !d.child_ns.is_empty())
        .expect("some healthy domain exists");
    let www = healthy.timeline.name.prepend("www").unwrap();
    let addrs = resolver
        .resolve_a(&www)
        .unwrap_or_else(|e| panic!("resolving {www} failed: {e} (ns: {:?})", healthy.child_ns));
    assert!(!addrs.is_empty());
}

#[test]
fn ns_queries_reach_authoritative_servers() {
    let w = small_world();
    let resolver = StubResolver::new(&w.network, w.roots.clone());
    let mut checked = 0;
    for d in w.truth().domains.iter().filter(|d| d.alive_2021 && d.faults.is_clean()) {
        if checked >= 25 {
            break;
        }
        let res = resolver
            .resolve(&d.timeline.name, RecordType::Ns)
            .unwrap_or_else(|e| panic!("NS lookup for {} failed: {e}", d.timeline.name));
        let mut got: Vec<String> =
            res.records.iter().filter_map(|r| r.data.as_ns().map(|n| n.to_string())).collect();
        got.sort();
        let mut want: Vec<String> = d.child_ns.iter().map(|n| n.to_string()).collect();
        want.sort();
        assert_eq!(got, want, "NS mismatch for {}", d.timeline.name);
        checked += 1;
    }
    assert!(checked >= 10, "too few healthy domains checked: {checked}");
}

#[test]
fn fully_stale_domains_have_silent_nameservers() {
    let w = small_world();
    let resolver = StubResolver::new(&w.network, w.roots.clone());
    let mut checked = 0;
    for d in
        w.truth().domains.iter().filter(|d| {
            d.alive_2021 && d.faults.has(FaultClass::FullyStale) && !d.parent_ns.is_empty()
        })
    {
        if checked >= 10 {
            break;
        }
        // Every NS either fails to resolve or does not answer for the zone.
        for host in &d.parent_ns {
            if let Ok(addrs) = resolver.resolve_a(host) {
                for ip in addrs {
                    let q =
                        govdns_model::Message::query(1, d.timeline.name.clone(), RecordType::Ns);
                    let out = w.network.deliver(ip, &q);
                    if let Some(reply) = out.reply() {
                        assert!(
                            !reply.is_authoritative_answer(),
                            "{host} should not answer for stale {}",
                            d.timeline.name
                        );
                    }
                }
            }
        }
        checked += 1;
    }
    assert!(checked > 0, "no fully-stale domains generated");
}

#[test]
fn pdns_history_has_the_papers_shape() {
    let w = small_world();
    // Count domains with stable NS records per year: growth ~1.7x
    // 2011→2020 with a 2019→2020 dip.
    let mut per_year = Vec::new();
    for year in [2011, 2015, 2019, 2020] {
        let window = DateRange::year(year);
        let mut names = std::collections::BTreeSet::new();
        for e in filter::stable(w.pdns.iter()) {
            if e.rtype() == RecordType::Ns && e.active_in(&window) {
                names.insert(e.name.clone());
            }
        }
        per_year.push((year, names.len()));
    }
    let count = |y: i32| per_year.iter().find(|&&(yy, _)| yy == y).unwrap().1 as f64;
    let growth = count(2020) / count(2011);
    assert!((1.4..2.1).contains(&growth), "2011→2020 growth {growth} ({per_year:?})");
    assert!(count(2019) > count(2020), "2019→2020 dip missing ({per_year:?})");
    assert!(count(2015) > count(2011) && count(2015) < count(2019));
}

#[test]
fn single_ns_domains_exist_and_skew_private() {
    let w = small_world();
    let window = DateRange::year(2020);
    // Apply the pipeline's stability notion: transients living under 7
    // days never count as deployments.
    let stable_days = |d: &govdns_world::DomainTruth| {
        d.timeline
            .epochs
            .iter()
            .filter_map(|e| e.span.intersect(&window))
            .map(|s| s.len_days())
            .sum::<i64>()
            >= 7
    };
    let singles: Vec<_> = w
        .truth()
        .domains
        .iter()
        .filter(|d| stable_days(d) && d.timeline.mostly_single_ns_in(&window))
        .collect();
    assert!(!singles.is_empty(), "no single-NS domains in 2020");
    let private = singles
        .iter()
        .filter(|d| {
            d.timeline
                .at(govdns_model::SimDate::from_ymd(2020, 6, 1))
                .is_some_and(|e| e.style.is_private())
        })
        .count();
    let share = private as f64 / singles.len() as f64;
    assert!(share > 0.55, "d1NS private share {share}");
}

#[test]
fn dangling_ns_domains_are_registrable() {
    let w = small_world();
    let dangling: Vec<_> = w
        .truth()
        .domains
        .iter()
        .filter(|d| d.faults.has(FaultClass::DanglingRegistrable))
        .collect();
    assert!(!dangling.is_empty(), "no dangling injections");
    for d in &dangling {
        let has_available = d.parent_ns.iter().any(|h| {
            let reg: DomainName = h.suffix(2);
            w.registrar.is_available(&reg)
        });
        assert!(has_available, "{} has no registrable NS domain", d.timeline.name);
    }
}

#[test]
fn seed_quirks_are_present() {
    let w = small_world();
    // Exactly 193 portal entries; some unresolvable; one squatted (its
    // registered domain is a .com outside any gov suffix).
    let squatted: Vec<_> =
        w.unkb.iter().filter(|e| e.portal_fqdn.suffix(1).to_string() == "com").collect();
    assert_eq!(squatted.len(), 1, "exactly one squatted portal");
    // Registry docs confirm gov suffixes except the three special cases.
    let au: DomainName = "gov.au".parse().unwrap();
    assert_eq!(w.registry_docs.suffix_reserved_for_government(&au), Some(true));
    let la: DomainName = "gov.la".parse().unwrap();
    assert_eq!(w.registry_docs.suffix_reserved_for_government(&la), None);
    // Norway-style registered domain exists with web-archive history.
    let no: DomainName = "regjeringen.no".parse().unwrap();
    assert!(w.webarchive.earliest_government_use(&no).is_some());
}

#[test]
fn parked_dangling_surface_exists() {
    let w = small_world();
    let parked: Vec<_> =
        w.truth().domains.iter().filter(|d| d.faults.has(FaultClass::ParkedDangling)).collect();
    assert!(!parked.is_empty(), "no parked-dangling injections");
    for d in &parked {
        // The parent-only host's registered domain is premium-available.
        let extra: Vec<_> = d.parent_ns.iter().filter(|h| !d.child_ns.contains(h)).collect();
        assert!(!extra.is_empty());
        assert!(extra
            .iter()
            .any(|h| w.registrar.price_of(&h.suffix(2)).is_some_and(|p| p >= 300.0)));
    }
}

#[test]
fn provider_market_tracks_yearly_targets() {
    // The yearly rebalancing should keep each named provider's customer
    // count near its interpolated target — that is what makes Tables
    // II-III reproducible.
    let w = WorldGenerator::new(WorldConfig::small(11).with_scale(0.05)).generate();
    let catalog = &w.catalog;
    for label in ["AWS DNS", "cloudflare.com", "domaincontrol.com"] {
        let provider = catalog.named().find(|p| p.label == label).unwrap();
        for year in [2014, 2017, 2020] {
            let target = provider.target_count(year) * 0.05;
            let window = DateRange::year(year);
            let have = w
                .truth()
                .domains
                .iter()
                .filter(|d| {
                    d.timeline.epochs.iter().any(|e| {
                        e.span.overlaps(&window) && e.style.providers().contains(&provider.id)
                    })
                })
                .count() as f64;
            // Within a factor-two band (migration timing and churn add
            // slack); the growth ordering is the real claim.
            assert!(
                have >= target * 0.5 - 2.0 && have <= target * 2.0 + 4.0,
                "{label} {year}: have {have}, target {target:.1}"
            );
        }
        let c2014 = provider.target_count(2014);
        let c2020 = provider.target_count(2020);
        assert!(c2020 > c2014, "{label} must grow over the decade");
    }
}

#[test]
fn everydns_customers_disappear_by_2020() {
    let w = WorldGenerator::new(WorldConfig::small(11).with_scale(0.05)).generate();
    let everydns = w.catalog.named().find(|p| p.label == "everydns.net").unwrap();
    let users_at = |date: govdns_model::SimDate| {
        w.truth()
            .domains
            .iter()
            .filter(|d| {
                d.timeline.at(date).is_some_and(|e| e.style.providers().contains(&everydns.id))
            })
            .count()
    };
    assert!(
        users_at(govdns_model::SimDate::from_ymd(2012, 6, 1)) > 0,
        "everydns should have customers early"
    );
    assert_eq!(
        users_at(govdns_model::SimDate::from_ymd(2020, 12, 15)),
        0,
        "everydns died before the end of 2020"
    );
}

#[test]
fn registrar_never_offers_live_provider_domains() {
    // A typo'd NS name inside a provider's own domain must not put that
    // provider's registered domain on the market.
    let w = WorldGenerator::new(WorldConfig::small(20220627).with_scale(0.05)).generate();
    for p in w.catalog.iter() {
        for dom in p.style.registered_domains() {
            assert!(
                !w.registrar.is_available(&dom),
                "{dom} belongs to {} but is marked available",
                p.label
            );
        }
    }
    // The same holds for every in-use nameserver's registered domain
    // among healthy domains.
    for d in w.truth().domains.iter().filter(|d| d.faults.is_clean()) {
        for h in &d.child_ns {
            if h.level() >= 2 {
                assert!(
                    !w.registrar.is_available(&h.suffix(2)),
                    "{} is in use by {} but marked available",
                    h.suffix(2),
                    d.timeline.name
                );
            }
        }
    }
}
