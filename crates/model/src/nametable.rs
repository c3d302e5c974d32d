//! Dense integer ids for domain names.
//!
//! An analysis that groups millions of records by name pays for every
//! key compare with a walk over two names' labels. A [`NameTable`] hands
//! each distinct name one [`NameId`], dense from 0, so such a grouping
//! becomes a `Vec` indexed by id and each compare an integer compare.
//!
//! Ids are in-memory only: they depend on the order names were interned
//! in, so nothing written to a file may carry one. Render the name
//! instead, with [`NameTable::name`].
//!
//! ```
//! use govdns_model::{DomainName, NameTable};
//! let mut table = NameTable::new();
//! let a = table.intern(&"ns1.gov.example".parse()?);
//! let b = table.intern(&"NS1.gov.example.".parse()?);
//! assert_eq!(a, b);
//! assert_eq!(a.index(), 0);
//! assert_eq!(table.name(a).to_string(), "ns1.gov.example");
//! assert_eq!(table.len(), 1);
//! # Ok::<(), govdns_model::ModelError>(())
//! ```

use std::hash::{BuildHasher, Hash, Hasher};

use crate::{DomainName, FxBuildHasher, FxHashMap};

/// One name's id: dense from 0, in interning order in a [`NameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
    /// The id at `index` of a dense numbering kept outside a table, such
    /// as a store that numbers its keys as it creates them.
    pub fn new(index: u32) -> Self {
        NameId(index)
    }

    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns names to dense [`NameId`]s and maps them back.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    ids: FxHashMap<Key, NameId>,
    names: Vec<DomainName>,
}

/// A name with its hash computed once. The map hashes only the stored
/// `u64`, so growing it does not walk every name's labels again, and a
/// probe compares labels only on equal hashes. Rehashing bare names on
/// growth was most of the cost of interning a generated world's names.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Key {
    hash: u64,
    name: DomainName,
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// `name`'s id, handing out the next one if `name` is new.
    ///
    /// # Panics
    ///
    /// Panics if the table already holds `u32::MAX` names.
    pub fn intern(&mut self, name: &DomainName) -> NameId {
        let key = Key { hash: FxBuildHasher::default().hash_one(name), name: name.clone() };
        let names = &mut self.names;
        *self.ids.entry(key).or_insert_with(|| {
            let id = NameId(u32::try_from(names.len()).expect("fewer than 2^32 names"));
            names.push(name.clone());
            id
        })
    }

    /// The name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from another table and is out of range.
    pub fn name(&self, id: NameId) -> &DomainName {
        &self.names[id.index()]
    }

    /// Number of distinct names, which bounds every id.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ids_are_dense_idempotent_and_round_trip(
            labels in prop::collection::vec("[a-d][a-d-]{0,2}", 0..60),
        ) {
            let mut table = NameTable::new();
            let names: Vec<DomainName> =
                labels.iter().map(|l| format!("{l}.gov.zz").parse().unwrap()).collect();
            let ids: Vec<NameId> = names.iter().map(|name| table.intern(name)).collect();
            let distinct: std::collections::BTreeSet<&DomainName> = names.iter().collect();
            prop_assert_eq!(table.len(), distinct.len());
            prop_assert_eq!(table.is_empty(), names.is_empty());
            // Dense: the first sight of each name takes the next id.
            let mut next = 0;
            for (name, &id) in names.iter().zip(&ids) {
                if id.index() == next {
                    next += 1;
                }
                prop_assert!(id.index() < next);
                prop_assert_eq!(table.name(id), name);
                // Interning again hands back the same id and adds nothing.
                prop_assert_eq!(table.intern(name), id);
            }
            prop_assert_eq!(next, table.len());
            prop_assert_eq!(table.len(), distinct.len());
        }
    }
}
