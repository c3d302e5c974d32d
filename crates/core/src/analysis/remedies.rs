//! §V-B — potential remedies, made executable: given a probed domain,
//! derive the concrete remediation actions its operator (or the parent
//! zone's) should take, in the spirit of the tooling the paper surveys
//! (zonemaster-style checks, CSYNC child-to-parent synchronization, EPP
//! updates, registry locks).

use govdns_model::DomainName;

use crate::analysis::consistency::{classify, ConsistencyClass};
use crate::probe::DomainProbe;
use crate::{Campaign, MeasurementDataset};

/// One remediation action.
#[derive(Debug, Clone, PartialEq)]
pub enum Remedy {
    /// Remove a stale delegation from the parent zone (the whole domain
    /// no longer answers).
    RemoveDelegation,
    /// Drop one defective NS record from both parent and child.
    DropNameserver(DomainName),
    /// Fix a typo'd or unresolvable NS target.
    FixNameserverName(DomainName),
    /// Synchronize the parent's NS RRset to the child's (the CSYNC /
    /// EPP-update path). Carries the records to add and to remove on the
    /// parent side.
    SynchronizeParent {
        /// Records the parent is missing.
        add: Vec<DomainName>,
        /// Records the parent should drop.
        remove: Vec<DomainName>,
    },
    /// Re-register or renounce an expired nameserver domain immediately —
    /// it is open for hijack at the given price.
    ReclaimDanglingDomain {
        /// The registrable domain.
        name: DomainName,
        /// What an attacker would pay.
        price_usd: f64,
    },
    /// Investigate intermittent failures: the domain answered, but only
    /// after backoff retries or a second probing round (flapping server,
    /// aggressive rate limiter, or a lossy/truncating path).
    MonitorFlakiness,
    /// Re-probe these nameservers: a destination circuit breaker denied
    /// their exchanges (the host was failing hard enough to quarantine),
    /// so nothing definitive was measured about them.
    Quarantined(Vec<DomainName>),
    /// Add at least one more nameserver (single-NS deployment).
    AddReplica,
    /// Place nameservers in more than one /24 or AS.
    DiversifyPlacement,
    /// Request a registry lock: the domain's NS set is both valuable and
    /// churning.
    RegistryLock,
}

/// The remediation plan for one domain.
#[derive(Debug, Clone, PartialEq)]
pub struct RemediationPlan {
    /// The domain.
    pub domain: DomainName,
    /// Actions, most urgent first.
    pub remedies: Vec<Remedy>,
}

impl RemediationPlan {
    /// Whether nothing needs doing.
    pub fn is_empty(&self) -> bool {
        self.remedies.is_empty()
    }

    /// Whether any remedy addresses an active hijack exposure.
    pub fn has_hijack_exposure(&self) -> bool {
        self.remedies.iter().any(|r| matches!(r, Remedy::ReclaimDanglingDomain { .. }))
    }
}

/// Derives the remediation plan for one probed domain.
pub fn plan_for(probe: &DomainProbe, campaign: &Campaign<'_>) -> RemediationPlan {
    let mut remedies = Vec::new();

    // Hijack exposures first: any referenced NS domain that is open for
    // registration.
    for server in &probe.servers {
        if server.host.level() < 2 {
            continue;
        }
        let d_ns = server.host.suffix(2);
        if let Some(price) = campaign.registrar.price_of(&d_ns) {
            let remedy = Remedy::ReclaimDanglingDomain { name: d_ns, price_usd: price };
            if !remedies.contains(&remedy) {
                remedies.push(remedy);
            }
        }
    }

    // Quarantined nameservers, *before* the dead-zone conclusion: a
    // breaker-denied exchange measured nothing, so a zone that looks
    // dead only because its servers were quarantined needs a re-probe,
    // not a delegation removal.
    let quarantined: Vec<DomainName> = probe
        .servers
        .iter()
        .filter(|s| s.observations.iter().any(|o| o.class == crate::ResponseClass::Skipped))
        .map(|s| s.host.clone())
        .collect();
    if !quarantined.is_empty() {
        remedies.push(Remedy::Quarantined(quarantined.clone()));
    }

    // A completely dead zone: the delegation itself is the problem.
    if probe.parent_nonempty() && !probe.has_authoritative_answer() {
        if quarantined.is_empty() {
            remedies.push(Remedy::RemoveDelegation);
        }
        return RemediationPlan { domain: probe.domain.clone(), remedies };
    }

    // Per-nameserver defects.
    for server in &probe.servers {
        if !server.is_defective() {
            continue;
        }
        if server.unresolvable() {
            remedies.push(Remedy::FixNameserverName(server.host.clone()));
        } else {
            remedies.push(Remedy::DropNameserver(server.host.clone()));
        }
    }

    // Parent/child divergence: emit the CSYNC-shaped delta.
    if let Some(class) = classify(probe) {
        if class != ConsistencyClass::Equal {
            let add: Vec<DomainName> =
                probe.child_ns.iter().filter(|h| !probe.parent_ns.contains(h)).cloned().collect();
            let remove: Vec<DomainName> =
                probe.parent_ns.iter().filter(|h| !probe.child_ns.contains(h)).cloned().collect();
            remedies.push(Remedy::SynchronizeParent { add, remove });
        }
    }

    // Degraded availability: answered, but not cleanly.
    if probe.degraded() {
        remedies.push(Remedy::MonitorFlakiness);
    }

    // Replication and placement advice.
    let union = probe.ns_union();
    if union.len() == 1 && probe.has_authoritative_answer() {
        remedies.push(Remedy::AddReplica);
    }
    if union.len() >= 2 {
        let addrs = probe.ns_addrs();
        let prefixes: std::collections::BTreeSet<_> =
            addrs.iter().map(|&a| govdns_simnet::prefix24(a)).collect();
        if addrs.len() <= 1 || prefixes.len() <= 1 {
            remedies.push(Remedy::DiversifyPlacement);
        }
    }

    // Registry lock for domains that already show churn (a second round
    // was needed or the parent disagrees with the child).
    if probe.rounds > 1 && !remedies.is_empty() {
        remedies.push(Remedy::RegistryLock);
    }

    RemediationPlan { domain: probe.domain.clone(), remedies }
}

/// Aggregate remediation statistics over a dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RemediationSummary {
    /// Domains examined (with a live delegation).
    pub domains: usize,
    /// Domains needing at least one action.
    pub needing_action: usize,
    /// Stale delegations to remove.
    pub removals: usize,
    /// Nameserver records to drop or fix.
    pub ns_fixes: usize,
    /// Parent synchronizations (the CSYNC path).
    pub synchronizations: usize,
    /// Domains with an open hijack exposure.
    pub hijack_exposures: usize,
    /// Under-replicated or under-diversified deployments.
    pub placement_advice: usize,
    /// Domains flagged for flakiness follow-up (degraded answers).
    pub flakiness_followups: usize,
    /// Domains with breaker-quarantined nameservers needing a re-probe.
    pub quarantine_followups: usize,
}

impl RemediationSummary {
    /// Plans every responsive domain and tallies the actions.
    pub fn compute(ds: &MeasurementDataset, campaign: &Campaign<'_>) -> Self {
        let mut s = RemediationSummary::default();
        for probe in &ds.probes {
            if !probe.parent_nonempty() {
                continue;
            }
            s.domains += 1;
            let plan = plan_for(probe, campaign);
            if plan.is_empty() {
                continue;
            }
            s.needing_action += 1;
            if plan.has_hijack_exposure() {
                s.hijack_exposures += 1;
            }
            for r in &plan.remedies {
                match r {
                    Remedy::RemoveDelegation => s.removals += 1,
                    Remedy::DropNameserver(_) | Remedy::FixNameserverName(_) => s.ns_fixes += 1,
                    Remedy::SynchronizeParent { .. } => s.synchronizations += 1,
                    Remedy::AddReplica | Remedy::DiversifyPlacement => s.placement_advice += 1,
                    Remedy::MonitorFlakiness => s.flakiness_followups += 1,
                    Remedy::Quarantined(_) => s.quarantine_followups += 1,
                    Remedy::ReclaimDanglingDomain { .. } | Remedy::RegistryLock => {}
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testutil::{dataset, n, CampaignFixture, ProbeBuilder};

    #[test]
    fn healthy_domain_needs_nothing() {
        let probe = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "ns2.x"])
            .child(&["ns1.x", "ns2.x"])
            .serving("ns1.x", [192, 0, 2, 1])
            .serving("ns2.x", [198, 51, 100, 1])
            .build();
        let fixture = CampaignFixture::default();
        let plan = plan_for(&probe, &fixture.campaign());
        assert!(plan.is_empty(), "unexpected remedies: {:?}", plan.remedies);
    }

    #[test]
    fn stale_zone_gets_a_removal() {
        let probe =
            ProbeBuilder::new("a.gov.zz").parent(&["ns1.x"]).dead("ns1.x", [192, 0, 2, 1]).build();
        let fixture = CampaignFixture::default();
        let plan = plan_for(&probe, &fixture.campaign());
        assert_eq!(plan.remedies, vec![Remedy::RemoveDelegation]);
    }

    #[test]
    fn typo_and_lame_are_distinguished() {
        let probe = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "pns12cloudns.net", "ns3.x"])
            .child(&["ns1.x", "pns12cloudns.net", "ns3.x"])
            .serving("ns1.x", [192, 0, 2, 1])
            .unresolvable("pns12cloudns.net")
            .lame("ns3.x", [192, 0, 2, 3])
            .build();
        let fixture = CampaignFixture::default();
        let plan = plan_for(&probe, &fixture.campaign());
        assert!(plan.remedies.contains(&Remedy::FixNameserverName(n("pns12cloudns.net"))));
        assert!(plan.remedies.contains(&Remedy::DropNameserver(n("ns3.x"))));
    }

    #[test]
    fn divergence_emits_csync_delta() {
        let probe = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "ns9.x"])
            .child(&["ns1.x", "ns2.x"])
            .serving("ns1.x", [192, 0, 2, 1])
            .serving("ns2.x", [198, 51, 100, 1])
            .serving("ns9.x", [203, 0, 113, 1])
            .build();
        let fixture = CampaignFixture::default();
        let plan = plan_for(&probe, &fixture.campaign());
        assert!(plan.remedies.contains(&Remedy::SynchronizeParent {
            add: vec![n("ns2.x")],
            remove: vec![n("ns9.x")],
        }));
    }

    #[test]
    fn dangling_domain_is_flagged_for_reclaim() {
        let mut fixture = CampaignFixture::default();
        fixture.registrar.mark_available(n("deaddns.net"), 11.99);
        let probe = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.deaddns.net", "ns2.x"])
            .child(&["ns1.deaddns.net", "ns2.x"])
            .serving("ns2.x", [192, 0, 2, 1])
            .unresolvable("ns1.deaddns.net")
            .build();
        let plan = plan_for(&probe, &fixture.campaign());
        assert!(plan.has_hijack_exposure());
        assert!(plan
            .remedies
            .contains(&Remedy::ReclaimDanglingDomain { name: n("deaddns.net"), price_usd: 11.99 }));
    }

    #[test]
    fn single_ns_and_single_prefix_get_placement_advice() {
        let fixture = CampaignFixture::default();
        let single = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x"])
            .child(&["ns1.x"])
            .serving("ns1.x", [192, 0, 2, 1])
            .build();
        let plan = plan_for(&single, &fixture.campaign());
        assert!(plan.remedies.contains(&Remedy::AddReplica));

        let cramped = ProbeBuilder::new("b.gov.zz")
            .parent(&["ns1.x", "ns2.x"])
            .child(&["ns1.x", "ns2.x"])
            .serving("ns1.x", [192, 0, 2, 1])
            .serving("ns2.x", [192, 0, 2, 2])
            .build();
        let plan = plan_for(&cramped, &fixture.campaign());
        assert!(plan.remedies.contains(&Remedy::DiversifyPlacement));
    }

    #[test]
    fn degraded_domain_gets_a_flakiness_followup() {
        let fixture = CampaignFixture::default();
        let probe = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "ns2.x"])
            .child(&["ns1.x", "ns2.x"])
            .degraded_serving("ns1.x", [192, 0, 2, 1])
            .serving("ns2.x", [198, 51, 100, 1])
            .build();
        let plan = plan_for(&probe, &fixture.campaign());
        assert_eq!(plan.remedies, vec![Remedy::MonitorFlakiness]);

        let ds = dataset(vec![(probe, "zz")]);
        let s = RemediationSummary::compute(&ds, &fixture.campaign());
        assert_eq!(s.flakiness_followups, 1);
        assert_eq!(s.needing_action, 1);
    }

    #[test]
    fn quarantined_server_needs_a_reprobe_not_a_removal() {
        let fixture = CampaignFixture::default();
        // Both servers quarantined: the zone *looks* dead, but nothing
        // was actually measured — no RemoveDelegation.
        let probe = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "ns2.x"])
            .quarantined("ns1.x", [192, 0, 2, 1])
            .quarantined("ns2.x", [192, 0, 2, 2])
            .build();
        let plan = plan_for(&probe, &fixture.campaign());
        assert_eq!(plan.remedies, vec![Remedy::Quarantined(vec![n("ns1.x"), n("ns2.x")])]);

        let ds = dataset(vec![(probe, "zz")]);
        let s = RemediationSummary::compute(&ds, &fixture.campaign());
        assert_eq!(s.quarantine_followups, 1);
        assert_eq!(s.removals, 0);
    }

    #[test]
    fn genuinely_dead_zone_still_gets_a_removal() {
        let fixture = CampaignFixture::default();
        let probe =
            ProbeBuilder::new("a.gov.zz").parent(&["ns1.x"]).dead("ns1.x", [192, 0, 2, 1]).build();
        let plan = plan_for(&probe, &fixture.campaign());
        assert_eq!(plan.remedies, vec![Remedy::RemoveDelegation]);
    }

    #[test]
    fn partially_quarantined_zone_keeps_its_other_findings() {
        let fixture = CampaignFixture::default();
        // One healthy server, one quarantined: the quarantine remedy
        // rides along with whatever else the plan finds.
        let probe = ProbeBuilder::new("a.gov.zz")
            .parent(&["ns1.x", "ns2.x"])
            .child(&["ns1.x", "ns2.x"])
            .serving("ns1.x", [192, 0, 2, 1])
            .quarantined("ns2.x", [198, 51, 100, 1])
            .build();
        let plan = plan_for(&probe, &fixture.campaign());
        assert!(plan.remedies.contains(&Remedy::Quarantined(vec![n("ns2.x")])));
        // The quarantined server never answered, so it also reads as
        // defective — that is fine; the quarantine entry explains why.
        assert!(plan.remedies.contains(&Remedy::DropNameserver(n("ns2.x"))));
    }

    #[test]
    fn summary_tallies_actions() {
        let mut fixture = CampaignFixture::default();
        fixture.registrar.mark_available(n("deaddns.net"), 5.0);
        let ds = dataset(vec![
            (
                ProbeBuilder::new("ok.gov.zz")
                    .parent(&["ns1.x", "ns2.x"])
                    .child(&["ns1.x", "ns2.x"])
                    .serving("ns1.x", [192, 0, 2, 1])
                    .serving("ns2.x", [198, 51, 100, 1])
                    .build(),
                "zz",
            ),
            (
                ProbeBuilder::new("stale.gov.zz")
                    .parent(&["ns1.stale.gov.zz"])
                    .dead("ns1.stale.gov.zz", [192, 0, 2, 9])
                    .build(),
                "zz",
            ),
            (
                ProbeBuilder::new("risky.gov.zz")
                    .parent(&["ns1.deaddns.net", "ns2.x"])
                    .child(&["ns1.deaddns.net", "ns2.x"])
                    .serving("ns2.x", [198, 51, 100, 2])
                    .unresolvable("ns1.deaddns.net")
                    .build(),
                "zz",
            ),
        ]);
        let s = RemediationSummary::compute(&ds, &fixture.campaign());
        assert_eq!(s.domains, 3);
        assert_eq!(s.needing_action, 2);
        assert_eq!(s.removals, 1);
        assert_eq!(s.hijack_exposures, 1);
        assert!(s.ns_fixes >= 1);
    }
}
