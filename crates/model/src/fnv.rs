//! FNV-1a, 64-bit: the workspace's one byte-string fingerprint.
//!
//! Journal and trace frames use it as their record checksum, the
//! examples print it as a run fingerprint, and tests pin generated
//! artifacts by it. [`DomainName::fnv64`](crate::DomainName::fnv64) is
//! the same hash over a name's presentation bytes, computed without
//! allocating.

/// FNV-1a, 64-bit, over raw bytes.
///
/// ```
/// assert_eq!(govdns_model::fnv64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(govdns_model::fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
