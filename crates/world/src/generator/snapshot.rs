//! Phase F of world generation: inject the calibrated misconfigurations
//! and materialize the April-2021 snapshot as zones and servers.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use govdns_model::{DomainName, Soa, Zone};
use govdns_pdns::PdnsDb;
use govdns_simnet::{AuthoritativeServer, ServerBehavior, SimNetwork};

use crate::calibration::{self, DiversityTarget};
use crate::faults::{FaultClass, FaultPlan, InconsistencyKind};
use crate::registrar::{sample_price, Registrar};
use crate::world::{DomainTruth, World, WorldTruth};

use super::{materialize_timeline, Build, Category};

/// Per-domain snapshot outcome.
#[derive(Debug, Clone, Default)]
struct PlanOut {
    faults: FaultPlan,
    /// NS targets in the parent zone (empty: removed).
    p: Vec<DomainName>,
    /// NS targets in the child zone (empty: zone gone).
    c: Vec<DomainName>,
    /// Hosts that must not serve this zone (lame for it).
    lame: HashSet<DomainName>,
    alive: bool,
}

pub(super) fn materialize(build: Build, pdns: PdnsDb, profiles: &[DiversityTarget]) -> World {
    let mut m = Materializer {
        rng: SmallRng::seed_from_u64(build.cfg.seed ^ 0x55),
        outs: vec![PlanOut::default(); build.domains.len()],
        host_ips: HashMap::new(),
        dead_hosts: HashSet::new(),
        relative_bug_ips: HashSet::new(),
        parking_ip: Ipv4Addr::UNSPECIFIED,
        registrar: Registrar::new(),
        central_hosts: Vec::new(),
        b: build,
        profiles: profiles.to_vec(),
    };
    m.allocate_provider_host_ips();
    m.allocate_country_infra();
    m.allocate_domain_host_ips();
    m.plan_faults();
    m.inject_dangling_clusters();
    m.inject_parked_dangling();
    m.build_world(pdns)
}

struct Materializer {
    b: Build,
    rng: SmallRng,
    profiles: Vec<DiversityTarget>,
    outs: Vec<PlanOut>,
    host_ips: HashMap<DomainName, Ipv4Addr>,
    /// Hosts that resolve but have no server listening (stale).
    dead_hosts: HashSet<DomainName>,
    /// Addresses whose servers exhibit the relative-label bug.
    relative_bug_ips: HashSet<Ipv4Addr>,
    parking_ip: Ipv4Addr,
    registrar: Registrar,
    /// Per country: the shared central pairs `ns1..ns6.d_gov`.
    central_hosts: Vec<Vec<DomainName>>,
}

impl Materializer {
    /// Pins every provider pool host to its pre-allocated address
    /// (first occurrence wins, so shared hostnames stay consistent).
    fn allocate_provider_host_ips(&mut self) {
        for provider in self.b.catalog.iter() {
            let ips = &self.b.provider_pair_ips[provider.id];
            for (i, (a, b)) in provider.pool.iter().enumerate() {
                let (ip_a, ip_b) = ips[i];
                self.host_ips.entry(a.clone()).or_insert(ip_a);
                self.host_ips.entry(b.clone()).or_insert(ip_b);
            }
        }
    }

    /// Root servers, gTLD servers, ccTLD servers, central government
    /// pairs, and the parking service.
    fn allocate_country_infra(&mut self) {
        // The parking service lives in its own AS.
        let parking_asn = self.b.plan.allocate_asn();
        self.parking_ip = self.b.plan.fresh_host(parking_asn);
        for k in 1..=2 {
            let host: DomainName =
                format!("ns{k}.parkingdns.com").parse().expect("static host parses");
            self.host_ips.insert(host, self.parking_ip);
        }

        for ci in 0..self.b.countries.len() {
            let code = self.b.countries[ci].code;
            let cc = code.as_str().to_owned();
            let (gov_asn, isp_asn) = self.b.country_asns[ci];
            // NIC servers for the ccTLD.
            for k in 1..=2 {
                let host: DomainName = format!("ns{k}.nic.{cc}").parse().expect("nic host parses");
                let ip = self.b.plan.fresh_host(isp_asn);
                self.host_ips.insert(host, ip);
            }
            // Central pairs under d_gov, placed per the country profile.
            let d_gov = self.b.d_gov[&code].clone();
            let profile = self.profiles[ci];
            let mut hosts = Vec::new();
            for pair in 0..3 {
                // Pair 0 serves the national apex itself; apex zones are
                // conspicuously well-run (the paper finds *more* /24
                // diversity at the second level, not less), so place it
                // across prefixes regardless of the country's habits.
                let policy = if pair == 0 {
                    if self.rng.gen_bool(0.35) {
                        crate::deployment::DiversityPolicy::MultiAsn
                    } else {
                        crate::deployment::DiversityPolicy::MultiSlash24
                    }
                } else {
                    sample_policy(&mut self.rng, profile)
                };
                let (ip1, ip2) = self.b.plan.pair_ips(gov_asn, isp_asn, policy);
                let h1: DomainName =
                    format!("ns{}.{d_gov}", pair * 2 + 1).parse().expect("central host parses");
                let h2: DomainName =
                    format!("ns{}.{d_gov}", pair * 2 + 2).parse().expect("central host parses");
                self.host_ips.insert(h1.clone(), ip1);
                self.host_ips.insert(h2.clone(), ip2);
                hosts.push(h1);
                hosts.push(h2);
            }
            self.central_hosts.push(hosts);
        }
    }

    /// Assigns addresses to private per-domain hosts.
    fn allocate_domain_host_ips(&mut self) {
        for di in 0..self.b.domains.len() {
            let (ci, hosts) = {
                let rec = &self.b.domains[di];
                (rec.country_idx, rec.final_hosts().to_vec())
            };
            let unassigned: Vec<DomainName> =
                hosts.into_iter().filter(|h| !self.host_ips.contains_key(h)).collect();
            if unassigned.is_empty() {
                continue;
            }
            let (gov_asn, isp_asn) = self.b.country_asns[ci];
            let profile = self.profiles[ci];
            let policy = sample_policy(&mut self.rng, profile);
            if unassigned.len() >= 2 {
                let (ip1, ip2) = self.b.plan.pair_ips(gov_asn, isp_asn, policy);
                self.host_ips.insert(unassigned[0].clone(), ip1);
                self.host_ips.insert(unassigned[1].clone(), ip2);
                for extra in &unassigned[2..] {
                    // Extra hosts follow the pair's placement: a shared-
                    // address deployment stays shared.
                    let ip = if policy == crate::deployment::DiversityPolicy::SameIp {
                        ip1
                    } else {
                        self.b.plan.fresh_host(gov_asn)
                    };
                    self.host_ips.insert(extra.clone(), ip);
                }
            } else {
                let ip = self.b.plan.fresh_host(gov_asn);
                self.host_ips.insert(unassigned[0].clone(), ip);
            }
        }
    }

    /// Draws the fault plan for every domain and computes P/C.
    fn plan_faults(&mut self) {
        use calibration::consistency::breakdown as cb;
        for di in 0..self.b.domains.len() {
            let (category, single, hosts, name) = {
                let rec = &self.b.domains[di];
                (rec.category, rec.single, rec.final_hosts().to_vec(), rec.name.clone())
            };
            let mut out = PlanOut { alive: true, ..PlanOut::default() };
            match category {
                Category::Historical => {
                    out.alive = false;
                    self.outs[di] = out;
                    continue;
                }
                Category::Removed => {
                    out.alive = false;
                    out.faults.push(FaultClass::RemovedFromParent);
                    self.outs[di] = out;
                    continue;
                }
                Category::DeadChild => {
                    out.p = hosts.clone();
                    out.faults.push(FaultClass::ParentUnreachable);
                    self.kill_hosts(&hosts, &name);
                    self.outs[di] = out;
                    continue;
                }
                Category::DeadIntermediate => {
                    out.p = hosts.clone();
                    out.faults.push(FaultClass::FullyStale);
                    self.kill_hosts(&hosts, &name);
                    self.outs[di] = out;
                    continue;
                }
                Category::DGov | Category::Intermediate | Category::Responsive => {}
            }

            out.p = hosts.clone();
            out.c = hosts.clone();

            // Fully stale: the dominant fate of single-NS domains.
            // Slightly under the published 60.1% because typo'd and
            // dangling injections add further stale singles downstream.
            let stale_p = if single { calibration::D1NS_STALE_RATE - 0.02 } else { 0.035 };
            if self.rng.gen_bool(stale_p) && category == Category::Responsive {
                out.faults.push(FaultClass::FullyStale);
                out.c.clear();
                self.kill_hosts(&hosts, &name);
                self.outs[di] = out;
                continue;
            }

            // Partial lame.
            if hosts.len() >= 2 && self.rng.gen_bool(0.19) {
                let lame_count = if hosts.len() >= 3 && self.rng.gen_bool(0.3) { 2 } else { 1 };
                let mut victims = hosts.clone();
                victims.shuffle(&mut self.rng);
                for v in victims.into_iter().take(lame_count) {
                    out.lame.insert(v);
                }
                out.faults.push(FaultClass::PartialLame { lame_count: lame_count as u8 });
            }

            // Typo'd nameserver name: the registered-domain-merging
            // zone-file slip (`pns12cloudns.net`).
            if hosts.len() >= 2 && self.rng.gen_bool(0.005) {
                if let Some(typo) = typo_of(&hosts[0]) {
                    out.p[0] = typo.clone();
                    out.c[0] = typo.clone();
                    out.faults.push(FaultClass::TypoNs);
                    // The merged name is a *new registered domain* only
                    // when the merge happened at the registered-domain
                    // boundary (pns12.cloudns.net → pns12cloudns.net).
                    // Deeper merges (ada.ns.cloudflare.com →
                    // adans.cloudflare.com) stay inside a domain someone
                    // already owns — never mark those available.
                    if typo.level() == 2 && self.rng.gen_bool(0.3) {
                        let reg = typo.suffix(2);
                        if !self.registrar.is_available(&reg) {
                            let price = sample_price(&mut self.rng);
                            self.registrar.mark_available(reg, price);
                        }
                    }
                }
            }

            // Parent/child inconsistency. Centrally hosted domains share
            // servers with their parent zone, so a probe can never observe
            // a parent-side difference there — skip them and rescale the
            // rest so the aggregate rate stays calibrated.
            let code = self.b.countries[self.b.domains[di].country_idx].code;
            let d_gov = self.b.d_gov[&code].clone();
            let central_hosted = !hosts.is_empty()
                && hosts.iter().all(|h| h.is_within(&d_gov) && !h.is_subdomain_of(&name));
            let second_level = matches!(category, Category::DGov);
            let scale = if central_hosted {
                0.0
            } else if second_level {
                (1.0 - calibration::consistency::EQUAL_RATE_SECOND_LEVEL)
                    / (1.0 - calibration::consistency::EQUAL_RATE)
            } else {
                1.18 // deeper levels disagree more; also offsets the
                     // centrally-hosted exclusion above
            };
            let roll: f64 = self.rng.gen();
            let mut acc = 0.0;
            let mut kind = None;
            for (k, p) in [
                (InconsistencyKind::PSubsetC, cb::P_SUBSET_C),
                (InconsistencyKind::CSubsetP, cb::C_SUBSET_P),
                (InconsistencyKind::PartialOverlap, cb::PARTIAL_OVERLAP),
                (InconsistencyKind::DisjointIpOverlap, cb::DISJOINT_IP_OVERLAP),
                (InconsistencyKind::DisjointNoIp, cb::DISJOINT_NO_IP),
            ] {
                acc += p * scale;
                if roll < acc {
                    kind = Some(k);
                    break;
                }
            }
            if let Some(kind) = kind {
                if self.apply_inconsistency(di, kind, &mut out, &name) {
                    out.faults.push(FaultClass::Inconsistent(kind));
                }
            }

            // Relative-label truncation: private, multi-NS, otherwise
            // clean *leaf* deployments only — it needs dedicated servers,
            // and putting it on a d_gov or intermediate zone would mangle
            // every referral beneath it.
            if out.faults.is_clean()
                && !single
                && category == Category::Responsive
                && self.b.domains[di].final_style().is_private()
                && self.rng.gen_bool(0.012)
            {
                let dedicated = hosts.iter().all(|h| h.is_within(&name));
                if dedicated {
                    out.faults.push(FaultClass::RelativeLabelBug);
                    for h in &hosts {
                        if let Some(ip) = self.host_ips.get(h) {
                            self.relative_bug_ips.insert(*ip);
                        }
                    }
                }
            }

            self.outs[di] = out;
        }
    }

    /// Applies one inconsistency kind, mutating P/C. Returns false if the
    /// kind is not applicable to this deployment.
    fn apply_inconsistency(
        &mut self,
        di: usize,
        kind: InconsistencyKind,
        out: &mut PlanOut,
        name: &DomainName,
    ) -> bool {
        match kind {
            InconsistencyKind::PSubsetC => {
                // The child grew a nameserver the parent never learned of.
                let extra = self.extra_host(di, name, 1);
                out.c.push(extra);
                true
            }
            InconsistencyKind::CSubsetP => {
                // The parent still lists a nameserver the child dropped.
                let extra = self.extra_host(di, name, 2);
                // In 60% of cases the leftover is also dead *for this
                // zone* — this drives the "40.9% of P≠C also partially
                // defective" statistic. The lame set is per-domain:
                // shared provider hosts keep serving their other zones.
                if self.rng.gen_bool(0.6) {
                    out.lame.insert(extra.clone());
                }
                out.p.push(extra);
                true
            }
            InconsistencyKind::PartialOverlap => {
                if out.p.len() < 2 {
                    return false;
                }
                let extra_p = self.extra_host(di, name, 3);
                let extra_c = self.extra_host(di, name, 4);
                if extra_p == extra_c {
                    return false;
                }
                let last = out.p.len() - 1;
                out.p[last] = extra_p;
                out.c[last] = extra_c;
                true
            }
            InconsistencyKind::DisjointIpOverlap => {
                // The parent carries alias names gluing to the same
                // addresses the child's real nameservers use.
                let mut aliases = Vec::new();
                for (k, host) in out.c.iter().enumerate() {
                    let Some(&ip) = self.host_ips.get(host) else { return false };
                    let alias: DomainName =
                        format!("dns{}.{name}", k + 1).parse().expect("alias host parses");
                    self.host_ips.insert(alias.clone(), ip);
                    aliases.push(alias);
                }
                if aliases.is_empty() {
                    return false;
                }
                out.p = aliases;
                true
            }
            InconsistencyKind::DisjointNoIp => {
                // The parent still points at the previous provider, which
                // keeps serving the zone.
                let prev = self.previous_provider_hosts(di);
                if prev.is_empty() || prev.iter().any(|h| out.c.contains(h)) {
                    return false;
                }
                out.p = prev;
                true
            }
        }
    }

    /// A plausible additional host for this domain's deployment: another
    /// pool host for provider-hosted domains, another `ns<k>` name for
    /// private ones.
    fn extra_host(&mut self, di: usize, name: &DomainName, salt: usize) -> DomainName {
        let style = self.b.domains[di].final_style();
        match style.providers().first() {
            Some(&pid) => {
                let provider = self.b.catalog.get(pid);
                let idx = (self.rng.gen_range(0..provider.pool.len()) + salt) % provider.pool.len();
                provider.pool.pair(idx).0.clone()
            }
            None => {
                let host: DomainName =
                    format!("ns{}.{name}", 7 + salt).parse().expect("extra host parses");
                if !self.host_ips.contains_key(&host) {
                    let (gov_asn, _) = self.b.country_asns[self.b.domains[di].country_idx];
                    let ip = self.b.plan.fresh_host(gov_asn);
                    self.host_ips.insert(host.clone(), ip);
                }
                host
            }
        }
    }

    /// Hosts of a different provider, as if the domain had migrated away
    /// and the parent was never updated.
    fn previous_provider_hosts(&mut self, di: usize) -> Vec<DomainName> {
        let locals = &self.b.locals[self.b.domains[di].country_idx];
        let pid = locals[self.rng.gen_range(0..locals.len())];
        let provider = self.b.catalog.get(pid);
        let pair = provider.pool.pair(self.rng.gen_range(0..provider.pool.len()));
        vec![pair.0.clone(), pair.1.clone()]
    }

    /// Makes the domain's *dedicated* hosts dead (resolvable via glue,
    /// but timing out). Shared hosts — provider farms or a country's
    /// central pairs — stay up for their other zones; they simply do not
    /// serve this one, which is just as defective from the outside.
    fn kill_hosts(&mut self, hosts: &[DomainName], owner: &DomainName) {
        for h in hosts {
            if h.is_within(owner) && self.host_ips.contains_key(h) {
                self.dead_hosts.insert(h.clone());
            }
        }
    }

    /// The dangling-NS clusters of §IV-C: expired provider domains still
    /// referenced by government delegations, registrable at retail prices.
    fn inject_dangling_clusters(&mut self) {
        let scale = self.b.cfg.scale;
        let n_countries = ((f64::from(calibration::delegation::AFFECTED_COUNTRIES)
            * scale.powf(0.6))
        .round() as usize)
            .max(1);
        let n_dns = ((f64::from(calibration::delegation::AVAILABLE_NS_DOMAINS) * scale).round()
            as usize)
            .max(2);
        // Countries weighted toward those with the most responsive
        // domains (the paper names Turkey, Brazil, Mexico).
        let mut by_count: BTreeMap<usize, usize> = BTreeMap::new();
        for (di, rec) in self.b.domains.iter().enumerate() {
            if rec.category == Category::Responsive && self.outs[di].alive {
                *by_count.entry(rec.country_idx).or_default() += 1;
            }
        }
        let mut ranked: Vec<(usize, usize)> = by_count.iter().map(|(&ci, &n)| (ci, n)).collect();
        ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let chosen: Vec<usize> = ranked.iter().take(n_countries).map(|&(ci, _)| ci).collect();
        if chosen.is_empty() {
            return;
        }

        // Victims per country: responsive, not already fully stale.
        let mut victims_by_country: HashMap<usize, Vec<usize>> = HashMap::new();
        for (di, rec) in self.b.domains.iter().enumerate() {
            if rec.category == Category::Responsive
                && !self.outs[di].c.is_empty()
                && chosen.contains(&rec.country_idx)
            {
                victims_by_country.entry(rec.country_idx).or_default().push(di);
            }
        }

        let mut cross_country_budget = 2usize;
        for k in 0..n_dns {
            let ci = chosen[k % chosen.len()];
            let dead_domain: DomainName = format!(
                "{}dns{}.{}",
                super::AGENCY_WORDS[self.rng.gen_range(0..super::AGENCY_WORDS.len())],
                k,
                if k % 2 == 0 { "com" } else { "net" }
            )
            .parse()
            .expect("dead provider domain parses");
            let price = sample_price(&mut self.rng);
            self.registrar.mark_available(dead_domain.clone(), price);

            // 1–3 affected domains, usually in one country; two d_ns span
            // two countries (as observed).
            let mut victim_countries = vec![ci];
            if cross_country_budget > 0 && self.rng.gen_bool(0.08) && chosen.len() > 1 {
                victim_countries.push(chosen[(k + 1) % chosen.len()]);
                cross_country_budget -= 1;
            }
            let n_victims = 1 + self.rng.gen_range(0..3).min(1); // avg ≈ 1.4
            for (vi, &vc) in victim_countries.iter().enumerate() {
                let Some(pool) = victims_by_country.get_mut(&vc) else { continue };
                for _ in 0..n_victims.max(vi) {
                    let Some(di) = pool.pop() else { break };
                    self.attach_dangling(di, &dead_domain);
                }
            }
        }
    }

    fn attach_dangling(&mut self, di: usize, dead_domain: &DomainName) {
        let h1: DomainName = format!("ns1.{dead_domain}").parse().expect("dangling host parses");
        let h2: DomainName = format!("ns2.{dead_domain}").parse().expect("dangling host parses");
        let fully = self.rng.gen_bool(0.56);
        let out = &mut self.outs[di];
        if fully {
            // The whole delegation points into the dead provider.
            out.p = vec![h1, h2];
            out.c.clear();
            out.faults.push(FaultClass::DanglingRegistrable);
            out.faults.push(FaultClass::FullyStale);
        } else {
            if out.p.is_empty() {
                return;
            }
            out.p[0] = h1.clone();
            if !out.c.is_empty() {
                out.c[0] = h1;
            }
            out.faults.push(FaultClass::DanglingRegistrable);
        }
    }

    /// The §IV-D inconsistency-only hijack surface: parent-only NS names
    /// under expired domains that now answer from a parking service.
    fn inject_parked_dangling(&mut self) {
        let scale = self.b.cfg.scale;
        let n_dns = ((f64::from(calibration::consistency::AVAILABLE_NS_DOMAINS) * scale.powf(0.6))
            .round() as usize)
            .max(1);
        let n_countries = ((f64::from(calibration::consistency::AFFECTED_COUNTRIES)
            * scale.powf(0.6))
        .round() as usize)
            .max(1);

        // Candidates: responsive, currently consistent, multi-NS, and not
        // centrally hosted — a central server answers authoritatively for
        // the child at the parent step, masking parent-only records, so a
        // parked host injected there would be unobservable.
        let mut candidates: Vec<usize> = (0..self.b.domains.len())
            .filter(|&di| {
                let rec = &self.b.domains[di];
                if rec.category != Category::Responsive
                    || !self.outs[di].alive
                    || self.outs[di].c.is_empty()
                    || !self.outs[di].faults.is_clean()
                    || self.outs[di].p.len() < 2
                {
                    return false;
                }
                let code = self.b.countries[rec.country_idx].code;
                let d_gov = &self.b.d_gov[&code];
                let central_hosted = self.outs[di]
                    .p
                    .iter()
                    .all(|h| h.is_within(d_gov) && !h.is_subdomain_of(&rec.name));
                !central_hosted
            })
            .collect();
        candidates.shuffle(&mut self.rng);
        let mut countries_used: Vec<usize> = Vec::new();
        let mut cursor = 0usize;
        for k in 0..n_dns {
            let parked: DomainName =
                format!("park{}dns.com", k + 1).parse().expect("parked domain parses");
            let price = (calibration::consistency::COST_MIN_USD
                + self.rng.gen_range(0.0..4_700.0) * 1.0)
                .max(calibration::consistency::COST_MIN_USD);
            self.registrar.mark_available(parked.clone(), (price * 100.0).round() / 100.0);
            let host: DomainName = format!("ns1.{parked}").parse().expect("parked host parses");
            self.host_ips.insert(host.clone(), self.parking_ip);

            // The first parked name is the district-government cluster;
            // the rest get ~2 victims each.
            let victims =
                if k == 0 { ((12.0 * scale.powf(0.6)).round() as usize).clamp(1, 12) } else { 2 };
            for _ in 0..victims {
                let Some(&di) = candidates.get(cursor) else { return };
                cursor += 1;
                let ci = self.b.domains[di].country_idx;
                if !countries_used.contains(&ci) {
                    if countries_used.len() >= n_countries {
                        continue;
                    }
                    countries_used.push(ci);
                }
                let out = &mut self.outs[di];
                out.p.push(host.clone());
                out.faults.push(FaultClass::ParkedDangling);
                out.faults.push(FaultClass::Inconsistent(InconsistencyKind::CSubsetP));
            }
        }
    }

    /// Builds every zone and server, wires the network, and assembles the
    /// final [`World`].
    fn build_world(mut self, pdns: PdnsDb) -> World {
        let collection = self.b.collection;
        let mut zones: BTreeMap<DomainName, Zone> = BTreeMap::new();

        // Root zone and root servers.
        let root_asn = self.b.plan.allocate_asn();
        let root_hosts: Vec<(DomainName, Ipv4Addr)> = (0..2)
            .map(|k| {
                let host: DomainName =
                    format!("ns{}.rootns.net", k + 1).parse().expect("root host parses");
                let ip = self.b.plan.fresh_host(root_asn);
                self.host_ips.insert(host.clone(), ip);
                (host, ip)
            })
            .collect();
        let mut root_zone = Zone::new(DomainName::root());
        for (host, ip) in &root_hosts {
            root_zone.add_ns(DomainName::root(), host.clone());
            root_zone.add_a(host.clone(), *ip);
        }

        // gTLD zones.
        let gtld_asn = self.b.plan.allocate_asn();
        let gtlds = ["com", "net", "org", "info"];
        let mut gtld_ips: HashMap<&str, Ipv4Addr> = HashMap::new();
        for tld in gtlds {
            let origin: DomainName = tld.parse().expect("gtld parses");
            let host: DomainName = format!("ns1.nic.{tld}").parse().expect("gtld host parses");
            let ip = self.b.plan.fresh_host(gtld_asn);
            self.host_ips.insert(host.clone(), ip);
            gtld_ips.insert(tld, ip);
            root_zone.add_ns(origin.clone(), host.clone());
            root_zone.add_glue(host.clone(), ip);
            let mut z = Zone::new(origin.clone());
            z.add_ns(origin.clone(), host.clone());
            z.add_a(host, ip);
            z.set_soa(Soa::new(
                format!("ns1.nic.{tld}").parse().expect("host parses"),
                format!("hostmaster.nic.{tld}").parse().expect("rname parses"),
            ));
            zones.insert(origin, z);
        }

        // Host A records land in their TLD zone when that TLD is a gTLD
        // (provider farms, parking hosts); ccTLD hosts are added below.
        // Hosts are bucketed by TLD once, so no TLD rescans every host.
        let mut hosts_by_tld: HashMap<DomainName, Vec<(&DomainName, Ipv4Addr)>> = HashMap::new();
        for (host, &ip) in &self.host_ips {
            hosts_by_tld.entry(host.suffix(1)).or_default().push((host, ip));
        }
        for (tld, zone) in zones.iter_mut() {
            for &(host, ip) in hosts_by_tld.get(tld).into_iter().flatten() {
                zone.add_a(host.clone(), ip);
            }
        }

        // The squatted portal domain points at the parking service.
        if let Some(squatted) = self.b.squatted_portal.clone() {
            if let Some(zone) = zones.get_mut(&squatted.suffix(1)) {
                zone.add_a(squatted.clone(), self.parking_ip);
                if let Ok(www) = squatted.prepend("www") {
                    zone.add_a(www, self.parking_ip);
                }
            }
        }

        // ccTLD zones.
        for ci in 0..self.b.countries.len() {
            let code = self.b.countries[ci].code;
            let cc = code.as_str().to_owned();
            let origin: DomainName = cc.parse().expect("cctld parses");
            let mut z = Zone::new(origin.clone());
            for k in 1..=2 {
                let host: DomainName = format!("ns{k}.nic.{cc}").parse().expect("nic host parses");
                let ip = self.host_ips[&host];
                z.add_ns(origin.clone(), host.clone());
                z.add_a(host.clone(), ip);
                root_zone.add_ns(origin.clone(), host.clone());
                root_zone.add_glue(host, ip);
            }
            z.set_soa(Soa::new(
                format!("ns1.nic.{cc}").parse().expect("host parses"),
                format!("hostmaster.nic.{cc}").parse().expect("rname parses"),
            ));
            // Local provider farm addresses live in the ccTLD zone.
            let d_gov = &self.b.d_gov[&code];
            for &(host, ip) in hosts_by_tld.get(&origin).into_iter().flatten() {
                if !host.is_within(d_gov) {
                    z.add_a(host.clone(), ip);
                }
            }
            zones.insert(origin, z);
        }
        zones.insert(DomainName::root(), root_zone);

        // Zones for every living domain (d_gov, intermediates, leaves).
        for di in 0..self.b.domains.len() {
            let rec = &self.b.domains[di];
            let out = &self.outs[di];
            if out.c.is_empty() {
                continue;
            }
            let name = rec.name.clone();
            let mut z = Zone::new(name.clone());
            for host in &out.c {
                z.add_ns(name.clone(), host.clone());
            }
            z.set_soa(Soa::new(out.c[0].clone(), self.b.soa_rname(rec.final_style(), &name)));
            if let Ok(www) = name.prepend("www") {
                let (gov_asn, _) = self.b.country_asns[rec.country_idx];
                z.add_a(www, self.b.plan.fresh_host(gov_asn));
            }
            // Authoritative A records for in-zone hosts (own ns1/ns2 and
            // alias names).
            for host in out.c.iter().chain(&out.p) {
                if host.is_subdomain_of(&name) {
                    if let Some(&ip) = self.host_ips.get(host) {
                        z.add_a(host.clone(), ip);
                    }
                }
            }
            zones.insert(name, z);
        }

        // Portal websites: every resolvable Knowledge Base link gets an A
        // record in its enclosing zone (the 11 unresolvable-link quirks
        // keep their dead FQDNs; the squatted portal already points at
        // the parking service through its gTLD zone).
        let country_idx: HashMap<crate::country::CountryCode, usize> =
            self.b.countries.iter().enumerate().map(|(i, c)| (c.code, i)).collect();
        let portal_entries: Vec<(crate::country::CountryCode, DomainName)> =
            self.b.unkb.iter().map(|e| (e.country, e.portal_fqdn.clone())).collect();
        for (country, portal) in portal_entries {
            let dead_link = portal.labels().first().is_some_and(|l| l.as_str() == "old-portal");
            let squatted = self.b.squatted_portal.as_ref() == Some(&portal);
            if dead_link || squatted {
                continue;
            }
            let Some(owner_zone) = portal.ancestors().skip(1).find(|anc| zones.contains_key(anc))
            else {
                continue;
            };
            let ci = country_idx[&country];
            let (gov_asn, _) = self.b.country_asns[ci];
            let zone = zones.get_mut(&owner_zone).expect("just found");
            if zone.rrset(&portal, govdns_model::RecordType::A).is_none() {
                let ip = self.b.plan.fresh_host(gov_asn);
                zone.add_a(portal, ip);
            }
        }

        // Delegations: every living domain's P goes into its parent zone.
        // Registered-domain seeds like laogov.gov.la have no gov.la zone;
        // their cut lives directly in the ccTLD zone (gov.la is an empty
        // non-terminal there), so walk up to the closest existing zone.
        for di in 0..self.b.domains.len() {
            let rec = &self.b.domains[di];
            let out = &self.outs[di];
            if out.p.is_empty() {
                continue;
            }
            let parent_origin = rec.parent_zone.ancestors().find(|anc| zones.contains_key(anc));
            let Some(parent) = parent_origin.and_then(|o| zones.get_mut(&o)) else {
                continue;
            };
            for host in &out.p {
                parent.add_ns(rec.name.clone(), host.clone());
                // Glue for in-bailiwick targets.
                if host.is_within(parent.origin()) {
                    if let Some(&ip) = self.host_ips.get(host) {
                        parent.add_glue(host.clone(), ip);
                    }
                }
            }
        }

        // Wrap zones in Arcs and attach them to servers.
        let arcs: BTreeMap<DomainName, Arc<Zone>> =
            zones.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        let mut servers: HashMap<Ipv4Addr, AuthoritativeServer> = HashMap::new();
        let serve = |servers: &mut HashMap<Ipv4Addr, AuthoritativeServer>,
                     ip: Ipv4Addr,
                     behavior: ServerBehavior,
                     zone: Option<&Arc<Zone>>| {
            let entry = servers.entry(ip).or_insert_with(|| AuthoritativeServer::new(ip, behavior));
            if let Some(z) = zone {
                entry.add_zone(Arc::clone(z));
            }
        };

        // Infrastructure servers.
        for (_, ip) in &root_hosts {
            serve(&mut servers, *ip, ServerBehavior::Responsive, arcs.get(&DomainName::root()));
        }
        for tld in gtlds {
            let origin: DomainName = tld.parse().expect("gtld parses");
            serve(&mut servers, gtld_ips[tld], ServerBehavior::Responsive, arcs.get(&origin));
        }
        for ci in 0..self.b.countries.len() {
            let cc = self.b.countries[ci].code.as_str().to_owned();
            let origin: DomainName = cc.parse().expect("cctld parses");
            for k in 1..=2 {
                let host: DomainName = format!("ns{k}.nic.{cc}").parse().expect("nic host parses");
                serve(
                    &mut servers,
                    self.host_ips[&host],
                    ServerBehavior::Responsive,
                    arcs.get(&origin),
                );
            }
        }
        // The parking service.
        serve(
            &mut servers,
            self.parking_ip,
            ServerBehavior::Parking {
                web_ip: self.parking_ip,
                ns_names: vec![
                    "ns1.parkingdns.com".parse().expect("host parses"),
                    "ns2.parkingdns.com".parse().expect("host parses"),
                ],
            },
            None,
        );

        // Every provider host gets a server (so lame hosts answer REFUSED
        // rather than vanishing).
        for provider in self.b.catalog.iter() {
            for (a, b) in provider.pool.iter() {
                for host in [a, b] {
                    if let Some(&ip) = self.host_ips.get(host) {
                        serve(&mut servers, ip, ServerBehavior::Responsive, None);
                    }
                }
            }
        }

        // Domain zones onto their serving hosts.
        for di in 0..self.b.domains.len() {
            let rec = &self.b.domains[di];
            let out = &self.outs[di];
            if out.c.is_empty() {
                continue;
            }
            let zone = arcs.get(&rec.name).expect("zone built for living domain");
            let mut serving: Vec<&DomainName> = out.c.iter().collect();
            for h in &out.p {
                if !out.c.contains(h) {
                    serving.push(h);
                }
            }
            for host in serving {
                if out.lame.contains(host) || self.dead_hosts.contains(host) {
                    continue;
                }
                // Parked hosts answer for everything already.
                let Some(&ip) = self.host_ips.get(host) else { continue };
                if ip == self.parking_ip {
                    continue;
                }
                let behavior = if self.relative_bug_ips.contains(&ip) {
                    ServerBehavior::RelativeNameBug
                } else {
                    ServerBehavior::Responsive
                };
                serve(&mut servers, ip, behavior, Some(zone));
            }
        }

        // Central government servers also serve the d_gov zone (they are
        // its apex hosts) — covered above because d_gov's C is central
        // pair 0, but the other central hosts exist too.
        let mut dgov_rec: Vec<Option<usize>> = vec![None; self.b.countries.len()];
        for (di, rec) in self.b.domains.iter().enumerate() {
            if rec.category == Category::DGov {
                dgov_rec[rec.country_idx].get_or_insert(di);
            }
        }
        let no_lame = HashSet::new();
        for (ci, dgov_di) in dgov_rec.into_iter().enumerate() {
            let zone = arcs.get(&self.b.d_gov[&self.b.countries[ci].code]);
            let dgov_lame = dgov_di.map_or(&no_lame, |di| &self.outs[di].lame);
            for host in &self.central_hosts[ci] {
                if self.dead_hosts.contains(host) || dgov_lame.contains(host) {
                    continue;
                }
                let ip = self.host_ips[host];
                serve(&mut servers, ip, ServerBehavior::Responsive, zone);
            }
        }

        // Assemble the network.
        let mut network =
            SimNetwork::new(self.b.cfg.seed ^ 0x66).with_loss_rate(self.b.cfg.loss_rate);
        for (_, server) in servers {
            network.add_server(server);
        }
        let roots: Vec<Ipv4Addr> = root_hosts.iter().map(|&(_, ip)| ip).collect();

        // Ground truth: the plan is moved into it, not copied.
        let domains = std::mem::take(&mut self.b.domains);
        let outs = std::mem::take(&mut self.outs);
        let truth = WorldTruth {
            d_gov: std::mem::take(&mut self.b.d_gov),
            domains: domains
                .into_iter()
                .zip(outs)
                .map(|(rec, out)| {
                    let code = self.b.countries[rec.country_idx].code;
                    DomainTruth {
                        timeline: materialize_timeline(rec, collection, code),
                        faults: out.faults,
                        parent_ns: out.p,
                        child_ns: out.c,
                        alive_2021: out.alive,
                    }
                })
                .collect(),
        };

        World {
            countries: self.b.countries,
            catalog: self.b.catalog,
            network,
            roots,
            pdns,
            asn_db: self.b.plan.into_asn_db(),
            registrar: self.registrar,
            webarchive: self.b.webarchive,
            unkb: self.b.unkb,
            registry_docs: self.b.registry_docs,
            collection_date: collection,
            truth,
        }
    }
}

/// Merges a hostname's first two labels — the trailing-dot typo that
/// turns `pns12.cloudns.net` into `pns12cloudns.net`.
fn typo_of(host: &DomainName) -> Option<DomainName> {
    let labels = host.labels();
    if labels.len() < 3 {
        return None;
    }
    let merged = format!("{}{}", labels[0], labels[1]);
    let rest: Vec<String> = labels[2..].iter().map(|l| l.as_str().to_owned()).collect();
    format!("{merged}.{}", rest.join(".")).parse().ok()
}

use super::sample_policy;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typo_merges_first_two_labels() {
        let host: DomainName = "pns12.cloudns.net".parse().unwrap();
        assert_eq!(typo_of(&host).unwrap().to_string(), "pns12cloudns.net");
        let short: DomainName = "cloudns.net".parse().unwrap();
        assert!(typo_of(&short).is_none());
    }
}
