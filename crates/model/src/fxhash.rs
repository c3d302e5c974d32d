//! A fast, deterministic hasher for in-memory maps.
//!
//! The std `HashMap` defaults to SipHash-1-3 with a random key: a
//! defence against adversarial keys that costs a dozen rounds per
//! label of every [`DomainName`](crate::DomainName) looked up. The maps
//! on the query path (zone owners, a server's zone origins, the
//! resolver cache) are keyed by names the process generated or loaded
//! itself, so they use [`FxHasher`] instead: the rustc "Fx"
//! construction, one rotate, xor and multiply per 8-byte word.
//!
//! Only for maps whose iteration order reaches no output: a caller that
//! iterates sorts first. It is not a fingerprint — [`fnv64`](crate::fnv64)
//! stays the one on-disk hash.
//!
//! A name and its label slice feed a hasher the same calls, so a map
//! keyed by names answers lookups by `&[Label]` suffixes without
//! building a name:
//!
//! ```
//! use govdns_model::{DomainName, FxHashMap};
//! let mut zones: FxHashMap<DomainName, u32> = FxHashMap::default();
//! zones.insert("gov.example".parse()?, 7);
//! let q: DomainName = "www.portal.gov.example".parse()?;
//! assert_eq!(zones.get(&q.labels()[2..]), Some(&7));
//! # Ok::<(), govdns_model::ModelError>(())
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (rustc's `FxHasher`, 64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A word-at-a-time, unkeyed hasher for in-memory maps whose order
/// reaches no output; not a fingerprint.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state, rotated: the multiply mixes best into the high bits,
    /// and the table indexes buckets by the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for std collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` under [`FxHasher`]; create with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under [`FxHasher`]; create with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainName, Label};
    use std::hash::{BuildHasher, Hash};

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn a_name_and_its_labels_hash_alike() {
        let name = n("ns1.deep.portal.gov.example");
        for i in 0..=name.level() {
            let suffix = name.suffix(name.level() - i);
            let labels: &[Label] = &name.labels()[i..];
            assert_eq!(hash_of(&suffix), hash_of(labels), "suffix {suffix}");
        }
    }

    #[test]
    fn label_suffix_lookups_find_name_keys() {
        let mut map: FxHashMap<DomainName, usize> = FxHashMap::default();
        let keys = ["example", "gov.example", "portal.gov.example", "a.b.c.d.e.f.g.h.example"];
        for (i, k) in keys.iter().enumerate() {
            map.insert(n(k), i);
        }
        let q = n("www.portal.gov.example");
        let found: Vec<Option<&usize>> =
            (0..=q.level()).map(|i| map.get(&q.labels()[i..])).collect();
        assert_eq!(found, vec![None, Some(&2), Some(&1), Some(&0), None]);
        let deep = n("x.a.b.c.d.e.f.g.h.example");
        assert_eq!(map.get(&deep.labels()[1..]), Some(&3));
        assert_eq!(map.get(&deep.labels()[2..]), None);
    }
}
