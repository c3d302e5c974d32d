use std::collections::BTreeMap;

use govdns_model::DomainName;

use crate::country::CountryCode;

/// One country's entry in the UN E-Government Knowledge Base: the link to
/// its national portal, plus (when filed) the domain reported in the
/// member-states questionnaire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortalEntry {
    /// The country.
    pub country: CountryCode,
    /// FQDN in the national-portal link on the Knowledge Base website.
    pub portal_fqdn: DomainName,
    /// Domain reported in the member-states questionnaire, if any.
    pub msq_fqdn: Option<DomainName>,
}

/// The UN E-Government Knowledge Base stand-in: per-country portal links
/// with the paper's documented quirks (unresolvable links, MSQ
/// mismatches, one squatted portal).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnKnowledgeBase {
    entries: BTreeMap<CountryCode, PortalEntry>,
}

impl UnKnowledgeBase {
    /// Creates an empty knowledge base.
    pub fn new() -> Self {
        UnKnowledgeBase::default()
    }

    /// Adds (or replaces) a country's entry.
    pub fn insert(&mut self, entry: PortalEntry) {
        self.entries.insert(entry.country, entry);
    }

    /// The entry for `country`, if present.
    pub fn entry(&self, country: CountryCode) -> Option<&PortalEntry> {
        self.entries.get(&country)
    }

    /// All entries, in country order.
    pub fn iter(&self) -> impl Iterator<Item = &PortalEntry> {
        self.entries.values()
    }

    /// Number of member states listed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the knowledge base is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// ccTLD registry documentation — the stand-in for the manual search of
/// IANA's root database and each registry's policy pages that the paper
/// performs to verify a suffix is reserved for government use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryDocs {
    reserved: BTreeMap<DomainName, bool>,
}

impl RegistryDocs {
    /// Creates empty documentation.
    pub fn new() -> Self {
        RegistryDocs::default()
    }

    /// Records that `suffix` is documented as reserved (or explicitly not
    /// reserved) for government use.
    pub fn document(&mut self, suffix: DomainName, reserved_for_government: bool) {
        self.reserved.insert(suffix, reserved_for_government);
    }

    /// Whether documentation confirms `suffix` is government-reserved.
    /// `None` means no documentation could be found — the paper's
    /// laogov/timor-leste/jis cases, which fall back to the registered
    /// domain.
    pub fn suffix_reserved_for_government(&self, suffix: &DomainName) -> Option<bool> {
        self.reserved.get(suffix).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kb_roundtrip() {
        let mut kb = UnKnowledgeBase::new();
        kb.insert(PortalEntry {
            country: CountryCode::new("au"),
            portal_fqdn: "www.australia.gov.au".parse().unwrap(),
            msq_fqdn: None,
        });
        kb.insert(PortalEntry {
            country: CountryCode::new("no"),
            portal_fqdn: "www.regjeringen.no".parse().unwrap(),
            msq_fqdn: Some("www.regjeringen.no".parse().unwrap()),
        });
        assert_eq!(kb.len(), 2);
        assert_eq!(
            kb.entry(CountryCode::new("au")).unwrap().portal_fqdn.to_string(),
            "www.australia.gov.au"
        );
        assert!(kb.entry(CountryCode::new("br")).is_none());
        assert_eq!(kb.iter().count(), 2);
    }

    #[test]
    fn registry_docs_three_states() {
        let mut docs = RegistryDocs::new();
        docs.document("gov.au".parse().unwrap(), true);
        docs.document("com.au".parse().unwrap(), false);
        assert_eq!(docs.suffix_reserved_for_government(&"gov.au".parse().unwrap()), Some(true));
        assert_eq!(docs.suffix_reserved_for_government(&"com.au".parse().unwrap()), Some(false));
        assert_eq!(docs.suffix_reserved_for_government(&"gov.la".parse().unwrap()), None);
    }
}
