/// The Sommese et al. parent/child disagreement categories the paper
/// classifies inconsistent domains into (§IV-D, Fig 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InconsistencyKind {
    /// The parent's NS set is a strict subset of the child's.
    PSubsetC,
    /// The child's NS set is a strict subset of the parent's.
    CSubsetP,
    /// The sets intersect without either containing the other.
    PartialOverlap,
    /// Disjoint NS sets whose addresses nevertheless overlap (alias
    /// hostnames for the same servers).
    DisjointIpOverlap,
    /// Disjoint NS sets with disjoint addresses.
    DisjointNoIp,
}

/// A misconfiguration injected into a domain's April-2021 state.
///
/// Each variant corresponds to a phenomenon the paper measures; the
/// generator injects them at calibrated rates and the pipeline must
/// rediscover them from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The domain's parent zone itself is dead: every nameserver of the
    /// parent times out, so the probe gets no parent response at all
    /// (the 147k→115k funnel step).
    ParentUnreachable,
    /// The delegation was removed: the parent answers, but with
    /// NXDOMAIN/NODATA (the 115k→96k funnel step).
    RemovedFromParent,
    /// The parent still delegates, but no nameserver answers for the
    /// zone — a *fully* defective delegation / stale record.
    FullyStale,
    /// Some (not all) of the domain's nameservers do not answer for the
    /// zone — a *partially* defective delegation.
    PartialLame {
        /// How many of the NS targets are defective.
        lame_count: u8,
    },
    /// One NS name in the parent is a typo of the real one
    /// (`pns12cloudns.net` for `pns12.cloudns.net`) and does not resolve.
    TypoNs,
    /// An NS target's registered domain has expired and is open for
    /// registration — the domain-hijack scenario.
    DanglingRegistrable,
    /// The parent-only NS of an inconsistent delegation now points into a
    /// parking service (answers everything) whose registered domain is
    /// obtainable — the §IV-D inconsistency-only hijack scenario.
    ParkedDangling,
    /// Parent and child NS sets disagree in the given way.
    Inconsistent(InconsistencyKind),
    /// The child's servers return NS targets truncated to one label (the
    /// trailing-dot zone-file typo).
    RelativeLabelBug,
}

/// The set of faults assigned to one domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    classes: Vec<FaultClass>,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn clean() -> Self {
        FaultPlan::default()
    }

    /// A plan with one fault.
    pub fn of(class: FaultClass) -> Self {
        FaultPlan { classes: vec![class] }
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn and(mut self, class: FaultClass) -> Self {
        self.push(class);
        self
    }

    /// Adds a fault.
    pub fn push(&mut self, class: FaultClass) {
        if !self.classes.contains(&class) {
            self.classes.push(class);
        }
    }

    /// The faults.
    pub fn classes(&self) -> &[FaultClass] {
        &self.classes
    }

    /// Whether the plan contains `class`.
    pub fn has(&self, class: FaultClass) -> bool {
        self.classes.contains(&class)
    }

    /// Whether the plan is fault-free.
    pub fn is_clean(&self) -> bool {
        self.classes.is_empty()
    }

    /// The inconsistency kind, if any.
    pub fn inconsistency(&self) -> Option<InconsistencyKind> {
        self.classes.iter().find_map(|c| match c {
            FaultClass::Inconsistent(k) => Some(*k),
            _ => None,
        })
    }

    /// Whether the probe should receive an authoritative answer from at
    /// least one of the domain's nameservers.
    pub fn expect_some_authoritative_answer(&self) -> bool {
        !self.classes.iter().any(|c| {
            matches!(
                c,
                FaultClass::ParentUnreachable
                    | FaultClass::RemovedFromParent
                    | FaultClass::FullyStale
            )
        })
    }

    /// Whether the plan implies at least one defective (unresponsive or
    /// lame) nameserver.
    pub fn expect_defective_delegation(&self) -> bool {
        self.classes.iter().any(|c| {
            matches!(
                c,
                FaultClass::FullyStale
                    | FaultClass::PartialLame { .. }
                    | FaultClass::TypoNs
                    | FaultClass::DanglingRegistrable
            )
        })
    }
}

impl FromIterator<FaultClass> for FaultPlan {
    fn from_iter<T: IntoIterator<Item = FaultClass>>(iter: T) -> Self {
        let mut plan = FaultPlan::clean();
        for c in iter {
            plan.push(c);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_expects_answers() {
        let plan = FaultPlan::clean();
        assert!(plan.is_clean());
        assert!(plan.expect_some_authoritative_answer());
        assert!(!plan.expect_defective_delegation());
    }

    #[test]
    fn stale_plans_expect_silence() {
        for c in
            [FaultClass::ParentUnreachable, FaultClass::RemovedFromParent, FaultClass::FullyStale]
        {
            assert!(!FaultPlan::of(c).expect_some_authoritative_answer());
        }
    }

    #[test]
    fn partial_lame_is_defective_but_answerable() {
        let plan = FaultPlan::of(FaultClass::PartialLame { lame_count: 1 });
        assert!(plan.expect_some_authoritative_answer());
        assert!(plan.expect_defective_delegation());
    }

    #[test]
    fn deduplicates_and_queries() {
        let plan = FaultPlan::of(FaultClass::TypoNs)
            .and(FaultClass::TypoNs)
            .and(FaultClass::Inconsistent(InconsistencyKind::CSubsetP));
        assert_eq!(plan.classes().len(), 2);
        assert!(plan.has(FaultClass::TypoNs));
        assert_eq!(plan.inconsistency(), Some(InconsistencyKind::CSubsetP));
    }

    #[test]
    fn collects_from_iterator() {
        let plan: FaultPlan =
            [FaultClass::RelativeLabelBug, FaultClass::TypoNs].into_iter().collect();
        assert_eq!(plan.classes().len(), 2);
    }
}
