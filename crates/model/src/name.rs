use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::ModelError;

/// Maximum number of octets in a wire-format domain name (RFC 1035 §3.1).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum number of labels a name can carry (each label ≥ 1 octet + length).
pub const MAX_LABELS: usize = 127;
const MAX_LABEL_LEN: usize = 63;

/// One label of a domain name, lowercase-normalized.
///
/// Labels compare case-insensitively because they are normalized at
/// construction. The study's pipeline also encounters *relative-label*
/// misconfigurations (a bare `ns` leaking out of a zone file); those are
/// representable as a one-label [`DomainName`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(String);

impl Label {
    /// Creates a label, validating length and character set.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyLabel`], [`ModelError::LabelTooLong`], or
    /// [`ModelError::InvalidCharacter`] on invalid input.
    pub fn new(s: &str) -> Result<Self, ModelError> {
        if s.is_empty() {
            return Err(ModelError::EmptyLabel);
        }
        if s.len() > MAX_LABEL_LEN {
            return Err(ModelError::LabelTooLong(s.to_owned()));
        }
        for c in s.chars() {
            if !(c.is_ascii_alphanumeric() || c == '-' || c == '_') {
                return Err(ModelError::InvalidCharacter(c));
            }
        }
        Ok(Label(s.to_ascii_lowercase()))
    }

    /// The label text (always lowercase).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length in octets.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the label is empty (never true for a constructed label).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A validated, case-normalized, absolute domain name.
///
/// Labels are stored in presentation order (`www`, `gov`, `example` for
/// `www.gov.example`). The root name has zero labels and displays as `.`.
///
/// `DomainName` is the key type of the whole workspace: zones, the
/// passive-DNS database, and every analysis index by it, so it implements
/// the full set of ordering and hashing traits.
///
/// The labels are shared: a clone bumps a reference count rather than
/// copying every label, so messages, record sets and index keys can hold
/// the same name for free. Names are immutable; every operation that
/// changes the label list builds a new name.
///
/// ```
/// use govdns_model::DomainName;
/// let name: DomainName = "WWW.Portal.GOV.example".parse()?;
/// assert_eq!(name.to_string(), "www.portal.gov.example");
/// assert_eq!(name.level(), 4);
/// assert!(name.is_subdomain_of(&"gov.example".parse()?));
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainName {
    labels: Arc<[Label]>,
}

impl DomainName {
    /// The root name (`.`).
    pub fn root() -> Self {
        DomainName { labels: Arc::from([]) }
    }

    /// Builds a name from labels in presentation order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NameTooLong`] if the resulting wire length
    /// exceeds 255 octets.
    pub fn from_labels<I>(labels: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = Label>,
    {
        let name = DomainName { labels: labels.into_iter().collect() };
        name.check_len()?;
        Ok(name)
    }

    fn check_len(&self) -> Result<(), ModelError> {
        let wire_len = self.wire_len();
        if wire_len > MAX_NAME_LEN {
            return Err(ModelError::NameTooLong(wire_len));
        }
        if self.labels.len() > MAX_LABELS {
            return Err(ModelError::NameTooLong(wire_len));
        }
        Ok(())
    }

    /// Length of the uncompressed wire encoding (labels + length octets +
    /// terminal root octet).
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// The labels in presentation order (leftmost first).
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of labels; the root has level 0, `com` level 1,
    /// `example.com` level 2, and so on. The paper reports the mix of
    /// second-, third-, and fourth-level domains using this notion.
    pub fn level(&self) -> usize {
        self.labels.len()
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// The immediate parent (one label removed), or `None` for the root.
    ///
    /// ```
    /// use govdns_model::DomainName;
    /// let n: DomainName = "a.b.c".parse()?;
    /// assert_eq!(n.parent().unwrap().to_string(), "b.c");
    /// # Ok::<(), govdns_model::ModelError>(())
    /// ```
    pub fn parent(&self) -> Option<DomainName> {
        if self.labels.is_empty() {
            None
        } else {
            Some(DomainName { labels: Arc::from(&self.labels[1..]) })
        }
    }

    /// Whether `self` is a strict subdomain of `other` (equal names are not
    /// subdomains of each other).
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        self.labels.len() > other.labels.len() && self.ends_with(other)
    }

    /// Whether `self` equals `other` or lies underneath it.
    pub fn is_within(&self, other: &DomainName) -> bool {
        self == other || self.is_subdomain_of(other)
    }

    /// Whether the trailing labels of `self` match `suffix` exactly.
    pub fn ends_with(&self, suffix: &DomainName) -> bool {
        if suffix.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - suffix.labels.len();
        self.labels[skip..] == suffix.labels[..]
    }

    /// Prefixes a label, producing the child name.
    ///
    /// # Errors
    ///
    /// Returns an error if the label is invalid or the result is too long.
    pub fn prepend(&self, label: &str) -> Result<DomainName, ModelError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(Label::new(label)?);
        labels.extend(self.labels.iter().cloned());
        DomainName::from_labels(labels)
    }

    /// The name truncated to its trailing `n` labels. If `n` is not smaller
    /// than the level, returns a clone.
    ///
    /// `("www.a.gov.example", 2)` yields `gov.example`; this is how the
    /// pipeline extracts registered domains and suffixes from portal FQDNs.
    pub fn suffix(&self, n: usize) -> DomainName {
        if n >= self.labels.len() {
            return self.clone();
        }
        DomainName { labels: Arc::from(&self.labels[self.labels.len() - n..]) }
    }

    /// Strips `suffix` from the end, returning the leading labels as a new
    /// (relative, but represented absolute) name, or `None` if `self` does
    /// not end with `suffix`.
    pub fn strip_suffix(&self, suffix: &DomainName) -> Option<DomainName> {
        if !self.ends_with(suffix) {
            return None;
        }
        let keep = self.labels.len() - suffix.labels.len();
        Some(DomainName { labels: Arc::from(&self.labels[..keep]) })
    }

    /// Iterates over `self` and every ancestor up to and including the root,
    /// starting with `self`.
    pub fn ancestors(&self) -> Ancestors<'_> {
        Ancestors { name: self, next_level: Some(self.labels.len()) }
    }

    /// FNV-1a (64-bit) over the presentation form, without allocating.
    ///
    /// Byte-identical to hashing `self.to_string()` (labels joined by
    /// `.`, the root hashing as `"."`), which is the stream every
    /// qname-keyed hash in the workspace was historically computed
    /// over — fault plans, loss decisions, and retry-backoff jitter all
    /// key off this value, so it is part of the determinism contract.
    ///
    /// ```
    /// use govdns_model::DomainName;
    /// let name: DomainName = "portal.gov.example".parse()?;
    /// let mut reference: u64 = 0xcbf2_9ce4_8422_2325;
    /// for b in name.to_string().bytes() {
    ///     reference = (reference ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    /// }
    /// assert_eq!(name.fnv64(), reference);
    /// # Ok::<(), govdns_model::ModelError>(())
    /// ```
    pub fn fnv64(&self) -> u64 {
        self.fold_fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds the name's presentation bytes into an in-progress FNV-1a
    /// state `h` — the continuation form of [`fnv64`](Self::fnv64) for
    /// callers that seed the hash with other material (e.g. a
    /// destination address) before the name.
    pub fn fold_fnv64(&self, mut h: u64) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        if self.labels.is_empty() {
            // The root displays as ".".
            return (h ^ u64::from(b'.')).wrapping_mul(PRIME);
        }
        for (i, label) in self.labels.iter().enumerate() {
            if i > 0 {
                h = (h ^ u64::from(b'.')).wrapping_mul(PRIME);
            }
            for &b in label.as_str().as_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        h
    }
}

/// Iterator over a name and its ancestors; see [`DomainName::ancestors`].
#[derive(Debug)]
pub struct Ancestors<'a> {
    name: &'a DomainName,
    next_level: Option<usize>,
}

impl Iterator for Ancestors<'_> {
    type Item = DomainName;

    fn next(&mut self) -> Option<DomainName> {
        let level = self.next_level?;
        self.next_level = level.checked_sub(1);
        Some(self.name.suffix(level))
    }
}

/// Lets maps and sets keyed by [`DomainName`] be searched by a borrowed
/// label slice — `map.get(&name.labels()[i..])` looks up an ancestor
/// without building it.
///
/// `Borrow` requires that `Hash`, `Eq` and `Ord` agree between the two
/// forms. They do: `DomainName` derives all three over its only field,
/// an `Arc<[Label]>`, and `Arc<T>` delegates each of them to `T`. So a
/// name hashes, compares and sorts exactly as its label slice does.
impl Borrow<[Label]> for DomainName {
    fn borrow(&self) -> &[Label] {
        &self.labels
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(l.as_str())?;
        }
        Ok(())
    }
}

impl FromStr for DomainName {
    type Err = ModelError;

    /// Parses a presentation-format name. A single trailing dot is accepted
    /// (absolute form); `.` parses as the root.
    fn from_str(s: &str) -> Result<Self, ModelError> {
        if s == "." || s.is_empty() {
            return Ok(DomainName::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        let labels = s.split('.').map(Label::new).collect::<Result<Vec<_>, _>>()?;
        DomainName::from_labels(labels)
    }
}

impl Default for DomainName {
    fn default() -> Self {
        DomainName::root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        assert_eq!(n("www.gov.example").to_string(), "www.gov.example");
        assert_eq!(n("www.gov.example.").to_string(), "www.gov.example");
        assert_eq!(DomainName::root().to_string(), ".");
    }

    #[test]
    fn normalizes_case() {
        assert_eq!(n("WWW.Example.COM"), n("www.example.com"));
    }

    #[test]
    fn rejects_bad_labels() {
        assert!("a..b".parse::<DomainName>().is_err());
        assert!("a b.c".parse::<DomainName>().is_err());
        assert!("a.b!".parse::<DomainName>().is_err());
        let long = "x".repeat(64);
        assert!(long.parse::<DomainName>().is_err());
    }

    #[test]
    fn rejects_overlong_names() {
        let label = "a".repeat(63);
        let s = vec![label; 5].join(".");
        assert!(s.parse::<DomainName>().is_err());
    }

    #[test]
    fn accepts_underscore_and_hyphen() {
        assert!("_dmarc.gov-portal.example".parse::<DomainName>().is_ok());
    }

    #[test]
    fn level_counts_labels() {
        assert_eq!(n("gov.br").level(), 2);
        assert_eq!(n("x.gov.br").level(), 3);
        assert_eq!(DomainName::root().level(), 0);
    }

    #[test]
    fn parent_walks_up() {
        assert_eq!(n("a.b.c").parent(), Some(n("b.c")));
        assert_eq!(n("c").parent(), Some(DomainName::root()));
        assert_eq!(DomainName::root().parent(), None);
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("www.gov.au").is_subdomain_of(&n("gov.au")));
        assert!(!n("gov.au").is_subdomain_of(&n("gov.au")));
        assert!(n("gov.au").is_within(&n("gov.au")));
        assert!(!n("notgov.au").is_subdomain_of(&n("gov.au")));
        assert!(n("a.b").is_subdomain_of(&DomainName::root()));
    }

    #[test]
    fn ends_with_requires_label_boundary() {
        // `xgov.au` must not match suffix `gov.au`.
        assert!(!n("xgov.au").ends_with(&n("gov.au")));
        assert!(n("x.gov.au").ends_with(&n("gov.au")));
    }

    #[test]
    fn suffix_and_strip() {
        let full = n("www.portal.gov.example");
        assert_eq!(full.suffix(2), n("gov.example"));
        assert_eq!(full.suffix(9), full);
        assert_eq!(full.strip_suffix(&n("gov.example")), Some(n("www.portal")));
        assert_eq!(full.strip_suffix(&n("gov.other")), None);
    }

    #[test]
    fn prepend_builds_children() {
        assert_eq!(n("gov.example").prepend("www").unwrap(), n("www.gov.example"));
        assert!(n("gov.example").prepend("bad label").is_err());
    }

    #[test]
    fn ancestors_walks_to_root() {
        let all: Vec<String> = n("a.b.c").ancestors().map(|d| d.to_string()).collect();
        assert_eq!(all, vec!["a.b.c", "b.c", "c", "."]);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = vec![n("b.c"), n("a.c"), n("c")];
        v.sort();
        assert_eq!(v, vec![n("a.c"), n("b.c"), n("c")]);
    }

    #[test]
    fn fnv64_matches_the_allocating_reference() {
        let reference = |name: &DomainName| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.to_string().bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            h
        };
        for s in ["gov.zz", "www.portal.gov.example", "a", "_dmarc.x.y", "."] {
            let name = n(s);
            assert_eq!(name.fnv64(), reference(&name), "{s}");
        }
        assert_eq!(DomainName::root().fnv64(), reference(&DomainName::root()));
    }

    #[test]
    fn fold_fnv64_continues_an_external_state() {
        // Seeding with arbitrary state must equal hashing the same bytes
        // by hand from that state — the backoff-jitter use case.
        let name = n("ns1.gov.zz");
        let seed = 0xdead_beef_u64;
        let mut h = seed;
        for b in name.to_string().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(name.fold_fnv64(seed), h);
    }

    #[test]
    fn wire_len_matches_rfc() {
        assert_eq!(DomainName::root().wire_len(), 1);
        assert_eq!(n("ab.c").wire_len(), 1 + 2 + 1 + 1 + 1);
    }
}
