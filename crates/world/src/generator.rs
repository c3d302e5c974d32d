use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use govdns_model::{DateRange, DomainName, RecordData, SimDate, Soa};
use govdns_pdns::{SensorConfig, SensorNetwork};

use crate::addressing::{AddressPlan, AsnAlloc};
use crate::calibration::{self, DiversityTarget};
use crate::country::{Country, CountryCode, EgovTier};
use crate::deployment::{DeploymentStyle, DiversityPolicy};
use crate::provider::{ProviderCatalog, ProviderId};
use crate::timeline::{DomainTimeline, Epoch};
use crate::unkb::{PortalEntry, RegistryDocs, UnKnowledgeBase};
use crate::webarchive::WebArchive;
use crate::world::World;

mod snapshot;

/// Configuration of a generated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Seed for all generation randomness; equal seeds and configs yield
    /// identical worlds.
    pub seed: u64,
    /// Fraction of paper scale (1.0 ≈ 192.6k PDNS domains in 2020).
    pub scale: f64,
    /// Packet-loss probability on the simulated network.
    pub loss_rate: f64,
    /// Sensor-coverage model for the passive-DNS feed.
    pub sensor: SensorConfig,
}

impl WorldConfig {
    /// A small world for tests and examples: 5% of paper scale, perfect
    /// sensors, lossless network.
    pub fn small(seed: u64) -> Self {
        WorldConfig { seed, scale: 0.05, loss_rate: 0.0, sensor: SensorConfig::perfect() }
    }

    /// The paper-scale world: ~192.6k PDNS domains in 2020 and ~147k
    /// probed domains. Generation takes about ten seconds and 3 GiB of
    /// memory on a 2-vCPU VM; EXPERIMENTS.md uses 10% scale, whose rates
    /// are identical.
    pub fn paper(seed: u64) -> Self {
        WorldConfig { seed, scale: 1.0, loss_rate: 0.0, sensor: SensorConfig::realistic() }
    }

    /// Sets the scale (builder style).
    ///
    /// # Panics
    ///
    /// Panics on non-positive or absurd (> 2.0) scales.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 2.0, "scale {scale} outside (0, 2]");
        self.scale = scale;
        self
    }

    /// Sets the network loss rate (builder style).
    #[must_use]
    pub fn with_loss_rate(mut self, rate: f64) -> Self {
        self.loss_rate = rate;
        self
    }

    /// Sets the sensor model (builder style).
    #[must_use]
    pub fn with_sensor(mut self, sensor: SensorConfig) -> Self {
        self.sensor = sensor;
        self
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig::small(0x60_7D_85)
    }
}

/// Builds [`World`]s from a [`WorldConfig`].
#[derive(Debug, Clone)]
pub struct WorldGenerator {
    cfg: WorldConfig,
}

impl WorldGenerator {
    /// Creates a generator.
    pub fn new(cfg: WorldConfig) -> Self {
        WorldGenerator { cfg }
    }

    /// Generates the world. Deterministic in the config.
    pub fn generate(&self) -> World {
        Build::run(self.cfg)
    }
}

/// The date of the active measurement campaign (April 2021, as in §III-B).
pub(crate) const COLLECTION_DATE: (i32, u32, u32) = (2021, 4, 15);

/// Words agencies are named after.
const AGENCY_WORDS: [&str; 40] = [
    "health",
    "edu",
    "tax",
    "customs",
    "justice",
    "police",
    "treasury",
    "senate",
    "court",
    "labor",
    "agri",
    "mines",
    "energy",
    "water",
    "roads",
    "rail",
    "ports",
    "stats",
    "census",
    "meteo",
    "parks",
    "culture",
    "sport",
    "tourism",
    "trade",
    "digital",
    "archives",
    "library",
    "pension",
    "social",
    "housing",
    "land",
    "forest",
    "fish",
    "post",
    "elections",
    "budget",
    "audit",
    "defense",
    "foreign",
];

const REGION_WORDS: [&str; 8] =
    ["north", "south", "east", "west", "central", "coast", "highland", "valley"];

/// What role a generated domain plays in the April-2021 snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Category {
    /// The seed `d_gov` zone itself.
    DGov,
    /// A living intermediate zone with delegations of its own.
    Intermediate,
    /// A responsive leaf domain.
    Responsive,
    /// Delegation removed from the parent (parent answers NXDOMAIN).
    Removed,
    /// An intermediate whose zone died: still delegated, all NS dead.
    DeadIntermediate,
    /// A child of a dead intermediate (probe gets no parent response).
    DeadChild,
    /// Died before the discovery window or lived only days (filtered out
    /// before querying).
    Historical,
}

/// One deployment change point.
#[derive(Debug, Clone)]
pub(crate) struct EpochSpec {
    pub start: SimDate,
    pub style: DeploymentStyle,
    pub hosts: Vec<DomainName>,
}

/// A generated domain, before snapshot materialization.
#[derive(Debug, Clone)]
pub(crate) struct DomainRec {
    pub name: DomainName,
    pub country_idx: usize,
    pub created: SimDate,
    /// Set when the zone stops existing (removed / historical).
    pub died: Option<SimDate>,
    /// Sensors stop seeing records at this date even if the zone formally
    /// exists (dead-subtree children).
    pub pdns_end_cap: Option<SimDate>,
    pub single: bool,
    pub category: Category,
    /// Origin of the zone holding this domain's delegation.
    pub parent_zone: DomainName,
    pub epochs: Vec<EpochSpec>,
}

impl DomainRec {
    /// The NS hosts configured at the end of the domain's life.
    pub fn final_hosts(&self) -> &[DomainName] {
        self.epochs.last().map(|e| e.hosts.as_slice()).unwrap_or(&[])
    }

    pub fn final_style(&self) -> DeploymentStyle {
        self.epochs.last().map(|e| e.style).unwrap_or(DeploymentStyle::Private)
    }
}

pub(crate) struct Build {
    pub cfg: WorldConfig,
    pub rng: SmallRng,
    pub countries: Vec<Country>,
    pub catalog: ProviderCatalog,
    pub plan: AddressPlan,
    /// Two AS handles per country (gov infra, local ISP).
    pub country_asns: Vec<(AsnAlloc, AsnAlloc)>,
    /// Per country: its local providers, in catalog order.
    pub locals: Vec<Vec<ProviderId>>,
    /// Per provider: the SOA RNAME it stamps on customer zones, or
    /// `None` when customers keep their own `hostmaster.<zone>`.
    pub soa_rnames: Vec<Option<DomainName>>,
    /// Concrete addresses for each provider pool pair.
    pub provider_pair_ips: Vec<Vec<(Ipv4Addr, Ipv4Addr)>>,
    pub d_gov: BTreeMap<CountryCode, DomainName>,
    pub unkb: UnKnowledgeBase,
    pub registry_docs: RegistryDocs,
    pub webarchive: WebArchive,
    /// The squatted portal FQDN (hosted on a parking service).
    pub squatted_portal: Option<DomainName>,
    pub domains: Vec<DomainRec>,
    pub collection: SimDate,
}

impl Build {
    pub fn run(cfg: WorldConfig) -> World {
        let countries = crate::countries_data::countries();

        // Per-country diversity profiles (Table I calibration), sharpened
        // into sampling space.
        let profiles: Vec<DiversityTarget> = countries
            .iter()
            .map(|c| {
                sharpen(
                    calibration::DIVERSITY_TARGETS
                        .iter()
                        .find(|t| t.country.eq_ignore_ascii_case(c.code.as_str()))
                        .copied()
                        .unwrap_or(calibration::DEFAULT_DIVERSITY),
                )
            })
            .collect();

        let mut policy_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x11);
        let catalog = ProviderCatalog::build(&countries, |country, _| {
            let profile = countries
                .iter()
                .position(|c| c.code == country.code)
                .map(|i| profiles[i])
                .unwrap_or(calibration::DEFAULT_DIVERSITY);
            sample_policy(&mut policy_rng, profile)
        });

        let mut plan = AddressPlan::new();
        let provider_asns: Vec<(AsnAlloc, AsnAlloc)> =
            catalog.iter().map(|_| (plan.allocate_asn(), plan.allocate_asn())).collect();
        let country_asns: Vec<(AsnAlloc, AsnAlloc)> =
            countries.iter().map(|_| (plan.allocate_asn(), plan.allocate_asn())).collect();
        let provider_pair_ips: Vec<Vec<(Ipv4Addr, Ipv4Addr)>> = catalog
            .iter()
            .map(|p| {
                let (a, b) = provider_asns[p.id];
                (0..p.pool.len()).map(|_| plan.pair_ips(a, b, p.diversity)).collect()
            })
            .collect();
        let locals: Vec<Vec<ProviderId>> = countries
            .iter()
            .map(|c| {
                let ids: Vec<ProviderId> = catalog.locals_of(c.code).map(|p| p.id).collect();
                assert!(!ids.is_empty(), "every country has local providers");
                ids
            })
            .collect();
        let soa_rnames: Vec<Option<DomainName>> = catalog
            .iter()
            .map(|p| p.soa_rname.clone().or_else(|| p.primary_ns_domain()).map(|d| hostmaster(&d)))
            .collect();

        let collection = SimDate::from_ymd(COLLECTION_DATE.0, COLLECTION_DATE.1, COLLECTION_DATE.2);

        let mut build = Build {
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x22),
            countries,
            catalog,
            plan,
            country_asns,
            locals,
            soa_rnames,
            provider_pair_ips,
            d_gov: BTreeMap::new(),
            unkb: UnKnowledgeBase::new(),
            registry_docs: RegistryDocs::new(),
            webarchive: WebArchive::new(),
            squatted_portal: None,
            domains: Vec::new(),
            collection,
        };
        build.seeds_and_knowledge_base();
        build.populate();
        build.assign_market();
        let pdns = build.feed_pdns();
        snapshot::materialize(build, pdns, &profiles)
    }

    /// Phase B: `d_gov` per country, UN Knowledge Base with its quirks,
    /// registry documentation, Web Archive entries.
    fn seeds_and_knowledge_base(&mut self) {
        use calibration::seeds;

        // Countries with special seed handling.
        let special: BTreeMap<&str, &str> = [
            ("la", "laogov.gov.la"),
            ("tl", "timor-leste.gov.tl"),
            ("jm", "jis.gov.jm"),
            ("no", "regjeringen.no"),
        ]
        .into_iter()
        .collect();

        // Deterministically choose the quirky countries among Minimal-tier
        // members that are not already special.
        let mut minimal: Vec<usize> = self
            .countries
            .iter()
            .enumerate()
            .filter(|(_, c)| c.tier == EgovTier::Minimal && !special.contains_key(c.code.as_str()))
            .map(|(i, _)| i)
            .collect();
        let mut quirk_rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0x33);
        minimal.shuffle(&mut quirk_rng);
        let unresolvable: Vec<usize> =
            minimal.iter().copied().take(seeds::UNRESOLVABLE_LINKS as usize).collect();
        let msq_fix: Vec<usize> =
            unresolvable.iter().copied().take(seeds::MSQ_MISMATCHES as usize).collect();
        let squatted_idx = minimal[seeds::UNRESOLVABLE_LINKS as usize];

        for (i, country) in self.countries.iter().enumerate() {
            let cc = country.code.as_str();
            let d_gov: DomainName = special
                .get(cc)
                .map(|d| d.parse().expect("static special domains parse"))
                .unwrap_or_else(|| format!("gov.{cc}").parse().expect("gov.cc parses"));
            self.d_gov.insert(country.code, d_gov.clone());

            // Registry documentation: gov suffixes are documented as
            // reserved, except the three unverifiable special cases.
            if !special.contains_key(cc) {
                self.registry_docs.document(d_gov.clone(), true);
            } else if cc != "no" {
                // laogov/timor-leste/jis: the enclosing gov.cc suffix has
                // no documentation at all (None), which is what forces the
                // registered-domain fallback.
            }
            // Web Archive history for registered-domain seeds.
            if special.contains_key(cc) {
                let year = 2003 + (i as i32 % 6);
                self.webarchive.record(d_gov.clone(), SimDate::from_ymd(year, 6, 1));
            }

            // The portal FQDN.
            let portal: DomainName = if unresolvable.contains(&i) {
                // A link that does not resolve (stale/typo'd FQDN).
                format!("old-portal.{d_gov}").parse().expect("portal name parses")
            } else if i == squatted_idx {
                let squatted: DomainName =
                    format!("{cc}-gov.com").parse().expect("squatted name parses");
                self.squatted_portal = Some(squatted.clone());
                squatted
            } else if !special.contains_key(cc) && quirk_rng.gen_bool(0.4) {
                format!("www.portal.{d_gov}").parse().expect("portal name parses")
            } else {
                format!("www.{d_gov}").parse().expect("portal name parses")
            };

            // MSQ data: present for ~70% of countries, and always (and
            // correct) for the two MSQ-mismatch cases, the squatted case,
            // and the Norway-style case. The other nine unresolvable-link
            // countries filed no questionnaire domain — that is what
            // leaves the paper stuck with the broken links.
            let needs_msq = msq_fix.contains(&i)
                || i == squatted_idx
                || cc == "no"
                || (!unresolvable.contains(&i) && quirk_rng.gen_bool(0.7));
            let msq_fqdn =
                needs_msq.then(|| format!("www.{d_gov}").parse().expect("msq name parses"));

            self.unkb.insert(PortalEntry { country: country.code, portal_fqdn: portal, msq_fqdn });
        }
        assert_eq!(self.unkb.len(), seeds::COUNTRIES as usize);
    }

    /// Target responsive-domain count for a country (paper scale before
    /// the scale factor).
    fn responsive_target(&mut self, tier: EgovTier) -> f64 {
        match tier {
            EgovTier::Top10(n) => f64::from(n) / calibration::MULTI_NS_SHARE_ACTIVE,
            EgovTier::High => self.rng.gen_range(400.0..1000.0),
            EgovTier::Medium => self.rng.gen_range(80.0..300.0),
            EgovTier::Low => self.rng.gen_range(15.0..80.0),
            EgovTier::Minimal => self.rng.gen_range(2.0..10.0),
        }
    }

    /// Per-country single-NS propensity. 92+ countries get zero; a dozen
    /// get the ≥10% rates the paper names (Indonesia, Kyrgyzstan, Mexico
    /// among them); the rest sit at a few percent.
    fn d1ns_rate(&mut self, country: &Country) -> f64 {
        match country.code.as_str() {
            "mx" => 0.10,
            "id" => 0.12,
            "kg" => 0.16,
            "bo" | "bg" | "bf" | "ae" => 0.25, // tiny denominators, a few d1NS each
            _ => match country.tier {
                EgovTier::Top10(_) => self.rng.gen_range(0.01..0.03),
                EgovTier::High => {
                    if self.rng.gen_bool(0.25) {
                        0.0
                    } else {
                        self.rng.gen_range(0.02..0.06)
                    }
                }
                EgovTier::Medium => {
                    if self.rng.gen_bool(0.4) {
                        0.0
                    } else if self.rng.gen_bool(0.12) {
                        self.rng.gen_range(0.10..0.16)
                    } else {
                        self.rng.gen_range(0.02..0.07)
                    }
                }
                // Low/Minimal e-governments mostly predate the single-NS
                // pattern entirely (the paper's 92 no-d1NS countries).
                EgovTier::Low => {
                    if self.rng.gen_bool(0.7) {
                        0.0
                    } else if self.rng.gen_bool(0.15) {
                        self.rng.gen_range(0.10..0.15)
                    } else {
                        self.rng.gen_range(0.03..0.08)
                    }
                }
                EgovTier::Minimal => 0.0,
            },
        }
    }

    /// Phase C: the 2011→2021 population simulation per country.
    fn populate(&mut self) {
        let shape = yearly_shape();
        let countries = self.countries.clone();
        for (ci, country) in countries.iter().enumerate() {
            let responsive = self.responsive_target(country.tier);
            let a_c = (responsive * self.cfg.scale).max(1.0);
            let d1ns_rate = self.d1ns_rate(country);
            self.populate_country(ci, country, a_c, d1ns_rate, &shape);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn populate_country(
        &mut self,
        ci: usize,
        country: &Country,
        a_c: f64,
        d1ns_rate: f64,
        shape: &[f64; 10],
    ) {
        let d_gov = self.d_gov[&country.code].clone();
        let cc = country.code.as_str().to_owned();
        let mut counter: u64 = 0;
        let mut next_label = |rng: &mut SmallRng, words: &[&str]| {
            counter += 1;
            format!("{}{}", words[rng.gen_range(0..words.len())], counter)
        };

        // The d_gov apex is itself a studied (second-level-ish) domain.
        let dgov_rec = DomainRec {
            name: d_gov.clone(),
            country_idx: ci,
            created: SimDate::from_ymd(2009, 1, 1) + self.rng.gen_range(0..400),
            died: None,
            pdns_end_cap: None,
            single: false,
            category: Category::DGov,
            parent_zone: d_gov.parent().expect("d_gov is never the root"),
            epochs: Vec::new(),
        };
        self.domains.push(dgov_rec);

        // Living intermediates (4th-level parents). Brazil's state zones
        // dominate the 4th level.
        let inter_frac = match cc.as_str() {
            "br" => 0.06,
            _ => 0.02,
        };
        let n_inter = ((a_c * inter_frac).round() as usize).max(if cc == "br" { 3 } else { 1 });
        let mut intermediates = Vec::new();
        for _ in 0..n_inter {
            let label = next_label(&mut self.rng, &REGION_WORDS);
            let name: DomainName =
                format!("{label}.{d_gov}").parse().expect("generated names parse");
            intermediates.push(name.clone());
            self.domains.push(DomainRec {
                name,
                country_idx: ci,
                created: SimDate::from_ymd(2010, 1, 1) + self.rng.gen_range(0..700),
                died: None,
                pdns_end_cap: None,
                single: false,
                category: Category::Intermediate,
                parent_zone: d_gov.clone(),
                epochs: Vec::new(),
            });
        }

        // Doomed intermediates: delegated but dead by collection time;
        // their children are the "no parent response" population.
        let n_doomed = ((a_c * 0.015).round() as usize).max(1);
        let mut doomed = Vec::new();
        for _ in 0..n_doomed {
            let label = next_label(&mut self.rng, &REGION_WORDS);
            let name: DomainName =
                format!("{label}.{d_gov}").parse().expect("generated names parse");
            let death = SimDate::from_ymd(2020, 3, 1) + self.rng.gen_range(0..300);
            doomed.push((name.clone(), death));
            self.domains.push(DomainRec {
                name,
                country_idx: ci,
                created: SimDate::from_ymd(2013, 1, 1) + self.rng.gen_range(0..1100),
                died: None, // still delegated: the records are stale, not gone
                pdns_end_cap: Some(death),
                single: false,
                category: Category::DeadIntermediate,
                parent_zone: d_gov.clone(),
                epochs: Vec::new(),
            });
        }

        // Forward simulation of the persistent leaf population.
        // Persistent pool target ≈ 1.33 × responsive (see DESIGN.md):
        // responsive + removed (~0.18) + dead-subtree children (~0.15).
        let persistent_2020 = a_c * 1.33;
        let fourth_frac: f64 = match cc.as_str() {
            "br" => 0.52,
            "cn" => 0.02,
            _ => 0.03,
        };
        let mut alive: Vec<usize> = Vec::new(); // indexes into self.domains
        for (yi, year) in (calibration::FIRST_YEAR..=calibration::LAST_YEAR).enumerate() {
            // China's 2019 bump + 2020 consolidation dip.
            let mut sh = shape[yi];
            if cc == "cn" {
                if year == 2019 {
                    sh = 1.16;
                } else if year == 2020 {
                    sh = 1.0;
                }
            }
            let target = (persistent_2020 * sh).round() as usize;
            // Deaths at the start of the year.
            let mut survivors = Vec::with_capacity(alive.len());
            for &di in &alive {
                let single = self.domains[di].single;
                let death_p = if single {
                    1.0 - calibration::D1NS_SURVIVAL_RATE
                } else {
                    1.0 - calibration::MULTI_NS_SURVIVAL_RATE
                };
                if self.rng.gen_bool(death_p) {
                    let day = SimDate::from_ymd(year, 1, 1) + self.rng.gen_range(0..360);
                    self.domains[di].died = Some(day);
                    self.domains[di].category = Category::Historical;
                } else {
                    survivors.push(di);
                }
            }
            alive = survivors;
            // Births to reach the year's target.
            let births = target.saturating_sub(alive.len());
            // The factor maps the per-country rate onto the PDNS share
            // trajectory the paper reports: ~4.2% of domains in 2011
            // easing to ~3.1% by 2020 (the cohort grows slower than the
            // population).
            let year_single_adjust = 0.80 - 0.012 * f64::from(year - calibration::FIRST_YEAR);
            let p_single = (d1ns_rate * 2.2 * year_single_adjust).clamp(0.0, 0.9);
            for _ in 0..births {
                let single = self.rng.gen_bool(p_single);
                let is_dead_child = !doomed.is_empty() && self.rng.gen_bool(0.113);
                let is_fourth =
                    !is_dead_child && !intermediates.is_empty() && self.rng.gen_bool(fourth_frac);
                let (parent_zone, pdns_end_cap) = if is_dead_child {
                    let (name, death) = doomed[self.rng.gen_range(0..doomed.len())].clone();
                    (name, Some(death))
                } else if is_fourth {
                    (intermediates[self.rng.gen_range(0..intermediates.len())].clone(), None)
                } else {
                    (d_gov.clone(), None)
                };
                let label = next_label(&mut self.rng, &AGENCY_WORDS);
                let name: DomainName =
                    format!("{label}.{parent_zone}").parse().expect("generated names parse");
                let created = SimDate::from_ymd(year, 1, 1) + self.rng.gen_range(0..360);
                self.domains.push(DomainRec {
                    name,
                    country_idx: ci,
                    created,
                    died: None,
                    pdns_end_cap,
                    single,
                    category: if is_dead_child {
                        Category::DeadChild
                    } else {
                        Category::Responsive
                    },
                    parent_zone,
                    epochs: Vec::new(),
                });
                alive.push(self.domains.len() - 1);
            }
        }

        // Of the surviving regular leaves, remove a share from their
        // parent zones (the 115k→96k funnel step).
        let regular_alive: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&di| self.domains[di].category == Category::Responsive)
            .collect();
        let n_removed = (regular_alive.len() as f64 * 0.1525).round() as usize;
        let mut shuffled = regular_alive;
        shuffled.shuffle(&mut self.rng);
        for &di in shuffled.iter().take(n_removed) {
            let day = SimDate::from_ymd(2020, 3, 1) + self.rng.gen_range(0..330);
            self.domains[di].died = Some(day);
            self.domains[di].category = Category::Removed;
        }

        // Transient/disposable records: short-lived, partly hex-named —
        // present in PDNS yearly counts, filtered before querying.
        for (yi, year) in (calibration::FIRST_YEAR..=calibration::LAST_YEAR).enumerate() {
            let n_transient = (a_c * 0.45 * shape[yi]).round() as usize;
            for t in 0..n_transient {
                let label = if t % 2 == 0 {
                    format!("x{:08x}", self.rng.gen::<u32>())
                } else {
                    next_label(&mut self.rng, &AGENCY_WORDS)
                };
                let name: DomainName =
                    format!("{label}.{d_gov}").parse().expect("generated names parse");
                let start = SimDate::from_ymd(year, 1, 1) + self.rng.gen_range(0..358);
                let end = start + self.rng.gen_range(0..=5);
                self.domains.push(DomainRec {
                    name,
                    country_idx: ci,
                    created: start,
                    died: Some(end),
                    pdns_end_cap: None,
                    single: true,
                    category: Category::Historical,
                    parent_zone: d_gov.clone(),
                    epochs: Vec::new(),
                });
            }
        }
    }

    /// Phase D: deployment styles and NS hosts, with a yearly market
    /// rebalancing pass that tracks each provider's target trajectory.
    fn assign_market(&mut self) {
        // 1. Decide private vs provider-hosted once per domain.
        let mut provider_domains: Vec<usize> = Vec::new();
        for di in 0..self.domains.len() {
            let rec = &self.domains[di];
            let private_p = if rec.single {
                calibration::D1NS_PRIVATE_SHARE
            } else {
                match rec.category {
                    Category::DGov => 0.95,
                    Category::Intermediate => 0.8,
                    // Dead intermediates must run on hosts nobody shares,
                    // so that killing them silences only their subtree.
                    Category::DeadIntermediate => 1.0,
                    _ => calibration::OVERALL_PRIVATE_SHARE - 0.02,
                }
            };
            // Transients never enter the provider market: they are
            // filtered out of every analysis, and letting them consume
            // provider quota would dilute the calibrated market shares.
            let transient =
                self.domains[di].died.is_some_and(|d| d - self.domains[di].created < 30);
            if self.rng.gen_bool(private_p) {
                let hosts = self.private_hosts(di);
                let rec = &mut self.domains[di];
                rec.epochs.push(EpochSpec {
                    start: rec.created,
                    style: DeploymentStyle::Private,
                    hosts,
                });
            } else if transient {
                let local = self.pick_local(self.domains[di].country_idx);
                let created = self.domains[di].created;
                self.push_provider_epoch(di, created, local);
            } else {
                provider_domains.push(di);
            }
        }

        // 2. Yearly rebalancing of provider-hosted domains.
        let named_ids: Vec<ProviderId> = self.catalog.named().map(|p| p.id).collect();
        let mut assignment: BTreeMap<usize, ProviderId> = BTreeMap::new();
        let mut counts: BTreeMap<ProviderId, usize> = BTreeMap::new();
        // Domains grouped by creation year for incremental assignment.
        let mut by_year: BTreeMap<i32, Vec<usize>> = BTreeMap::new();
        for &di in &provider_domains {
            by_year.entry(self.domains[di].created.year().clamp(2011, 2020)).or_default().push(di);
        }

        for year in calibration::FIRST_YEAR..=calibration::LAST_YEAR {
            // New domains start on a local provider of their country.
            for &di in by_year.get(&year).map(Vec::as_slice).unwrap_or(&[]) {
                let local = self.pick_local(self.domains[di].country_idx);
                assignment.insert(di, local);
                *counts.entry(local).or_default() += 1;
                self.push_provider_epoch(di, self.domains[di].created, local);
            }
            // Drop assignments of domains that died before this year.
            let jan1 = SimDate::from_ymd(year, 1, 1);
            assignment.retain(|&di, pid| {
                let dead = self.domains[di].died.is_some_and(|d| d < jan1);
                if dead {
                    *counts.get_mut(pid).expect("counted on insert") -= 1;
                }
                !dead
            });
            // Rebalance named providers toward their year targets.
            for &pid in &named_ids {
                let target =
                    (self.catalog.get(pid).target_count(year) * self.cfg.scale).round() as i64;
                let have = *counts.get(&pid).unwrap_or(&0) as i64;
                // A dead provider (target 0) loses every customer; live
                // ones keep one customer of slack to avoid churn noise.
                let slack = i64::from(target > 0);
                if target > have {
                    self.recruit(&mut assignment, &mut counts, pid, (target - have) as usize, year);
                } else if have > target + slack {
                    self.shed(
                        &mut assignment,
                        &mut counts,
                        pid,
                        (have - target - slack) as usize,
                        year,
                    );
                }
            }
        }
    }

    /// Moves `want` local-hosted domains (in eligible countries) onto
    /// provider `pid`.
    fn recruit(
        &mut self,
        assignment: &mut BTreeMap<usize, ProviderId>,
        counts: &mut BTreeMap<ProviderId, usize>,
        pid: ProviderId,
        want: usize,
        year: i32,
    ) {
        let provider = self.catalog.get(pid);
        let eligible: Vec<bool> =
            self.countries.iter().map(|c| provider.eligible_in(c, year)).collect();
        let mut picked: Vec<usize> = assignment
            .iter()
            .filter(|(&di, &cur)| {
                self.catalog.get(cur).is_local && eligible[self.domains[di].country_idx]
            })
            .map(|(&di, _)| di)
            .collect();
        picked.shuffle(&mut self.rng);
        for di in picked.into_iter().take(want) {
            let old = assignment.insert(di, pid).expect("candidate was assigned");
            *counts.get_mut(&old).expect("old provider counted") -= 1;
            *counts.entry(pid).or_default() += 1;
            let when = self.migration_date(di, year);
            self.push_provider_epoch(di, when, pid);
        }
    }

    /// Moves `excess` customers of `pid` back onto local providers.
    fn shed(
        &mut self,
        assignment: &mut BTreeMap<usize, ProviderId>,
        counts: &mut BTreeMap<ProviderId, usize>,
        pid: ProviderId,
        excess: usize,
        year: i32,
    ) {
        let customers: Vec<usize> =
            assignment.iter().filter(|(_, &cur)| cur == pid).map(|(&di, _)| di).collect();
        let mut picked = customers;
        picked.shuffle(&mut self.rng);
        for di in picked.into_iter().take(excess) {
            let local = self.pick_local(self.domains[di].country_idx);
            assignment.insert(di, local);
            *counts.get_mut(&pid).expect("shedding counted provider") -= 1;
            *counts.entry(local).or_default() += 1;
            let when = self.migration_date(di, year);
            self.push_provider_epoch(di, when, local);
        }
    }

    fn migration_date(&mut self, di: usize, year: i32) -> SimDate {
        let start = SimDate::from_ymd(year, 1, 1) + self.rng.gen_range(5..360);
        let after_created = self.domains[di].created + 1;
        let last = self.domains[di].epochs.last().map(|e| e.start + 1).unwrap_or(after_created);
        start.max(after_created).max(last)
    }

    fn pick_local(&mut self, country_idx: usize) -> ProviderId {
        let locals = &self.locals[country_idx];
        locals[self.rng.gen_range(0..locals.len())]
    }

    /// Appends a provider epoch (choosing concrete hosts, d1P vs dual, and
    /// NS count) at `start`.
    fn push_provider_epoch(&mut self, di: usize, start: SimDate, pid: ProviderId) {
        let provider = self.catalog.get(pid);
        let single_domain = self.domains[di].single;
        let dual = !single_domain && !self.rng.gen_bool(provider.d1p_rate);
        let pair_idx = self.rng.gen_range(0..provider.pool.len());
        let mut hosts: Vec<DomainName> = Vec::new();
        let pair = provider.pool.pair(pair_idx);
        if single_domain {
            hosts.push(pair.0.clone());
        } else {
            hosts.push(pair.0.clone());
            hosts.push(pair.1.clone());
            // Amazon-style providers hand out four nameservers.
            let four = matches!(provider.style, crate::provider::NamingStyle::AwsDns)
                || (!provider.is_local && self.rng.gen_bool(0.15));
            if four {
                let second = provider.pool.pair(pair_idx + 1);
                if second.0 != pair.0 {
                    hosts.push(second.0.clone());
                    hosts.push(second.1.clone());
                }
            }
        }
        let style = if dual {
            // Second provider: a local of the same country.
            let other = self.pick_local(self.domains[di].country_idx);
            if other != pid {
                let other_host =
                    self.catalog.get(other).pool.pair(self.rng.gen_range(0..8)).0.clone();
                hosts.pop();
                hosts.push(other_host);
                DeploymentStyle::DualProvider(pid, other)
            } else {
                DeploymentStyle::SingleProvider(pid)
            }
        } else {
            DeploymentStyle::SingleProvider(pid)
        };
        hosts.dedup();
        let rec = &mut self.domains[di];
        // Guard chronology (migration dates are already pushed past the
        // previous epoch start, but clamp defensively).
        if let Some(last) = rec.epochs.last() {
            if start <= last.span_start() {
                return;
            }
        }
        rec.epochs.push(EpochSpec { start, style, hosts });
    }

    /// Hosts for a private deployment: the domain's own `ns1`/`ns2`, or
    /// the country's shared central pairs.
    fn private_hosts(&mut self, di: usize) -> Vec<DomainName> {
        let (country_idx, name, single, category) = {
            let rec = &self.domains[di];
            (rec.country_idx, rec.name.clone(), rec.single, rec.category)
        };
        let code = self.countries[country_idx].code;
        let d_gov = self.d_gov[&code].clone();
        let central = if category == Category::DeadIntermediate {
            false
        } else {
            self.rng.gen_bool(0.45) || category == Category::DGov
        };
        let mk = |s: String| s.parse::<DomainName>().expect("generated host parses");
        if single {
            if central {
                vec![mk(format!("ns1.{d_gov}"))]
            } else {
                vec![mk(format!("ns1.{name}"))]
            }
        } else if central {
            // The apex rides on pair 0 (the well-placed one); other
            // centrally hosted zones land on any of the three pairs.
            let k = if category == Category::DGov { 0 } else { self.rng.gen_range(0..3) * 2 };
            vec![mk(format!("ns{}.{d_gov}", k + 1)), mk(format!("ns{}.{d_gov}", k + 2))]
        } else {
            let mut hosts = vec![mk(format!("ns1.{name}")), mk(format!("ns2.{name}"))];
            if self.rng.gen_bool(0.12) {
                hosts.push(mk(format!("ns3.{name}")));
            }
            hosts
        }
    }

    /// The SOA RNAME of `owner`'s zone under `style`: the first
    /// provider's branded mailbox, else the zone's own `hostmaster`.
    fn soa_rname(&self, style: DeploymentStyle, owner: &DomainName) -> DomainName {
        style
            .providers()
            .first()
            .and_then(|&pid| self.soa_rnames[pid].clone())
            .unwrap_or_else(|| hostmaster(owner))
    }

    /// Phase E: feed the sensor network and return the PDNS database.
    /// Each domain's records stream into one run, so its PDNS slot is
    /// found once rather than once per record.
    fn feed_pdns(&self) -> govdns_pdns::PdnsDb {
        let mut sensors = SensorNetwork::new(self.cfg.sensor, self.cfg.seed ^ 0x44);
        let horizon_start = SimDate::from_ymd(2010, 6, 1);
        for rec in &self.domains {
            let end_of_life = rec
                .died
                .unwrap_or(self.collection)
                .min(rec.pdns_end_cap.unwrap_or(self.collection));
            let spans = rec.epochs.iter().enumerate().filter_map(|(i, epoch)| {
                let next_start =
                    rec.epochs.get(i + 1).map(|e| e.start + (-1)).unwrap_or(end_of_life);
                let start = epoch.start.max(horizon_start);
                let end = next_start.min(end_of_life);
                (start <= end).then(|| (epoch, DateRange::new(start, end)))
            });
            let records = spans.flat_map(|(epoch, span)| {
                let ns = epoch.hosts.iter().map(move |host| (RecordData::Ns(host.clone()), span));
                // Sensors also observe the zone's SOA — the paper's
                // MNAME/RNAME classification evidence.
                let soa = epoch.hosts.first().map(|primary| {
                    let soa = Soa::new(primary.clone(), self.soa_rname(epoch.style, &rec.name));
                    (RecordData::Soa(soa), span)
                });
                ns.chain(soa)
            });
            sensors.report_all(&rec.name, records);
        }
        sensors.into_db()
    }
}

impl EpochSpec {
    fn span_start(&self) -> SimDate {
        self.start
    }
}

/// Materializes a rec's epochs into a public timeline, moving its
/// names rather than copying them.
pub(crate) fn materialize_timeline(
    rec: DomainRec,
    collection: SimDate,
    code: CountryCode,
) -> DomainTimeline {
    let mut t = DomainTimeline::new(rec.name, code);
    let end_of_life = rec.died.unwrap_or(collection);
    let mut epochs = rec.epochs.into_iter().peekable();
    while let Some(e) = epochs.next() {
        let next = epochs.peek().map(|n| n.start + (-1)).unwrap_or(end_of_life);
        if next < e.start {
            continue;
        }
        t.push(Epoch { span: DateRange::new(e.start, next), style: e.style, ns_hosts: e.hosts });
    }
    t
}

/// The `hostmaster` mailbox under `domain`, as an SOA RNAME.
fn hostmaster(domain: &DomainName) -> DomainName {
    domain.prepend("hostmaster").expect("generated rname is a valid name")
}

/// Fig 2's yearly totals, normalized so 2020 = 1.
fn yearly_shape() -> [f64; 10] {
    let last = f64::from(calibration::DOMAINS_PER_YEAR[9]);
    let mut shape = [0.0; 10];
    for (i, &count) in calibration::DOMAINS_PER_YEAR.iter().enumerate() {
        shape[i] = f64::from(count) / last;
    }
    shape
}

/// Maps a measured-diversity target onto the *sampling* profile that
/// reproduces it. Downstream inflation (extra hosts, dual providers,
/// inconsistency injections, global provider farms) systematically raises
/// observed diversity above the sampled pair policies, so the sampler
/// under-shoots by a fitted margin.
pub(crate) fn sharpen(t: DiversityTarget) -> DiversityTarget {
    DiversityTarget {
        multi_ip: (1.0 - (1.0 - t.multi_ip) * 1.55).clamp(0.0, 1.0),
        multi_24: (1.0 - (1.0 - t.multi_24) * 1.55).clamp(0.0, 1.0),
        multi_asn: (t.multi_asn - 0.07).max(0.0),
        ..t
    }
}

/// Draws one placement policy from a country's diversity profile.
fn sample_policy(rng: &mut SmallRng, profile: DiversityTarget) -> DiversityPolicy {
    let r: f64 = rng.gen();
    if r < profile.multi_asn {
        DiversityPolicy::MultiAsn
    } else if r < profile.multi_24 {
        DiversityPolicy::MultiSlash24
    } else if r < profile.multi_ip {
        DiversityPolicy::SameSlash24
    } else {
        DiversityPolicy::SameIp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_is_normalized_and_dips() {
        let s = yearly_shape();
        assert!((s[9] - 1.0).abs() < 1e-9);
        assert!(s[0] < 0.62);
        assert!(s[8] > s[9], "2019 should exceed 2020");
    }

    #[test]
    fn policy_sampling_respects_profile() {
        let mut rng = SmallRng::seed_from_u64(3);
        let profile = DiversityTarget {
            country: "xx",
            domains: 0,
            multi_ip: 0.4,
            multi_24: 0.3,
            multi_asn: 0.1,
        };
        let mut same_ip = 0;
        let mut multi_asn = 0;
        for _ in 0..2000 {
            match sample_policy(&mut rng, profile) {
                DiversityPolicy::SameIp => same_ip += 1,
                DiversityPolicy::MultiAsn => multi_asn += 1,
                _ => {}
            }
        }
        // SameIp should be ~60%, MultiAsn ~10%.
        assert!((1000..1400).contains(&same_ip), "same_ip {same_ip}");
        assert!((120..290).contains(&multi_asn), "multi_asn {multi_asn}");
    }
}
