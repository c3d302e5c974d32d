use govdns_model::DomainName;

use crate::ProviderId;

/// How a domain's authoritative service is operated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeploymentStyle {
    /// Nameservers hosted inside the domain's own `d_gov` (the paper's
    /// "private ADNS deployment").
    Private,
    /// All nameservers from one third-party provider (a `d_1P` domain).
    SingleProvider(ProviderId),
    /// Nameservers split across two providers.
    DualProvider(ProviderId, ProviderId),
}

impl DeploymentStyle {
    /// Whether this is a private deployment.
    pub fn is_private(self) -> bool {
        matches!(self, DeploymentStyle::Private)
    }

    /// The providers involved (empty for private deployments).
    pub fn providers(self) -> Vec<ProviderId> {
        match self {
            DeploymentStyle::Private => Vec::new(),
            DeploymentStyle::SingleProvider(p) => vec![p],
            DeploymentStyle::DualProvider(a, b) => vec![a, b],
        }
    }
}

/// Topological placement of a nameserver pair — the knob Table I's
/// diversity columns are calibrated through.
///
/// The policy describes what an outside observer would find when resolving
/// the pair's hostnames: one shared address, distinct addresses in one
/// /24, distinct /24s within one AS, or distinct ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiversityPolicy {
    /// Both hostnames resolve to the same IPv4 address (the pattern the
    /// paper traces to one `d_gov` — Thailand's shared pairs).
    SameIp,
    /// Distinct addresses inside one /24.
    SameSlash24,
    /// Distinct /24s inside one autonomous system.
    MultiSlash24,
    /// Distinct autonomous systems.
    MultiAsn,
}

impl DiversityPolicy {
    /// Whether pairs under this policy have more than one address.
    pub fn multi_ip(self) -> bool {
        !matches!(self, DiversityPolicy::SameIp)
    }

    /// Whether pairs under this policy span more than one /24.
    pub fn multi_24(self) -> bool {
        matches!(self, DiversityPolicy::MultiSlash24 | DiversityPolicy::MultiAsn)
    }

    /// Whether pairs under this policy span more than one AS.
    pub fn multi_asn(self) -> bool {
        matches!(self, DiversityPolicy::MultiAsn)
    }
}

/// A provider's pool of nameserver host pairs.
///
/// Real providers hand each customer a pair (or quad) from a finite pool,
/// so distinct domains share nameservers — which is why the paper can
/// check most nameservers more than once. The pool indexes pairs; the
/// generator assigns each pair concrete addresses once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsPool {
    pairs: Vec<(DomainName, DomainName)>,
}

impl NsPool {
    /// Builds a pool from pre-generated pairs.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    pub fn new(pairs: Vec<(DomainName, DomainName)>) -> Self {
        assert!(!pairs.is_empty(), "a nameserver pool needs at least one pair");
        NsPool { pairs }
    }

    /// The pair for customer-slot `idx` (wraps around the pool).
    pub fn pair(&self, idx: usize) -> &(DomainName, DomainName) {
        &self.pairs[idx % self.pairs.len()]
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the pool is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(DomainName, DomainName)> {
        self.pairs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn style_predicates() {
        assert!(DeploymentStyle::Private.is_private());
        assert_eq!(DeploymentStyle::SingleProvider(3).providers(), vec![3]);
        assert_eq!(DeploymentStyle::DualProvider(1, 2).providers(), vec![1, 2]);
    }

    #[test]
    fn diversity_policy_is_monotone() {
        // multi_asn ⇒ multi_24 ⇒ multi_ip.
        for p in [
            DiversityPolicy::SameIp,
            DiversityPolicy::SameSlash24,
            DiversityPolicy::MultiSlash24,
            DiversityPolicy::MultiAsn,
        ] {
            if p.multi_asn() {
                assert!(p.multi_24());
            }
            if p.multi_24() {
                assert!(p.multi_ip());
            }
        }
        assert!(!DiversityPolicy::SameIp.multi_ip());
        assert!(DiversityPolicy::SameSlash24.multi_ip());
        assert!(!DiversityPolicy::SameSlash24.multi_24());
    }

    #[test]
    fn pool_wraps() {
        let pool = NsPool::new(vec![
            ("ns1.p.example".parse().unwrap(), "ns2.p.example".parse().unwrap()),
            ("ns3.p.example".parse().unwrap(), "ns4.p.example".parse().unwrap()),
        ]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.pair(0), pool.pair(2));
        assert_ne!(pool.pair(0), pool.pair(1));
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn empty_pool_rejected() {
        NsPool::new(Vec::new());
    }
}
