use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use parking_lot::Mutex;

/// A /24 IPv4 prefix, the granularity the paper uses for its first
/// topological-diversity cut (Table I's |24ns| column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix24(u32);

impl Prefix24 {
    /// The prefix containing `addr`.
    pub fn of(addr: Ipv4Addr) -> Self {
        Prefix24(u32::from(addr) >> 8)
    }

    /// The network address of the prefix (`x.y.z.0`).
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.0 << 8)
    }

    /// The `i`-th host address in the prefix (`i` in `1..=254`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or 255 (network/broadcast).
    pub fn host(self, i: u8) -> Ipv4Addr {
        assert!((1..=254).contains(&i), "host index {i} out of range");
        Ipv4Addr::from((self.0 << 8) | u32::from(i))
    }
}

impl fmt::Display for Prefix24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/24", self.network())
    }
}

/// Convenience wrapper for [`Prefix24::of`].
pub fn prefix24(addr: Ipv4Addr) -> Prefix24 {
    Prefix24::of(addr)
}

/// Number of shards every per-destination table in the workspace splits
/// into — a power of two so the shard index is a mask, sized so eight
/// probe workers rarely collide on the same shard lock.
pub const DST_SHARDS: usize = 16;

/// Stable shard index for a destination address, in `0..DST_SHARDS`.
///
/// A pure SplitMix64 finalizer over the address: every table sharded by
/// destination (the network's per-destination query ordinals, the rate
/// limiter's ledger maps) uses this same function, so a given address
/// always lives in exactly one shard and per-destination ordinals stay
/// exact under concurrency.
pub fn dst_shard(addr: Ipv4Addr) -> usize {
    (mix(u64::from(u32::from(addr))) as usize) & (DST_SHARDS - 1)
}

/// A per-destination `u64` table sharded [`DST_SHARDS`] ways by
/// [`dst_shard`]: the network's query ordinals and the rate limiter's
/// ledger maps. Every address lives in exactly one shard, so its value
/// sequence is exactly what a single global table would hold, while
/// workers touching different destinations rarely share a lock.
///
/// Each shard also lists the addresses whose value moved since the last
/// [`take_changes`](ShardedCounts::take_changes), marked under the shard
/// lock the update already holds — a journal delta checkpoint records
/// only those entries.
#[derive(Debug)]
pub struct ShardedCounts {
    shards: [Mutex<CountShard>; DST_SHARDS],
}

#[derive(Debug, Default)]
struct CountShard {
    /// Each address's value, and whether it is already in `moved`.
    counts: HashMap<Ipv4Addr, (u64, bool)>,
    moved: Vec<Ipv4Addr>,
}

impl Default for ShardedCounts {
    fn default() -> Self {
        ShardedCounts { shards: std::array::from_fn(|_| Mutex::new(CountShard::default())) }
    }
}

impl ShardedCounts {
    /// An empty table.
    pub fn new() -> Self {
        ShardedCounts::default()
    }

    /// Applies `f` to `dst`'s value (created at zero if absent) and marks
    /// the entry moved.
    pub fn update<R>(&self, dst: Ipv4Addr, f: impl FnOnce(&mut u64) -> R) -> R {
        let mut shard = self.shards[dst_shard(dst)].lock();
        let CountShard { counts, moved } = &mut *shard;
        let (value, marked) = counts.entry(dst).or_insert((0, false));
        if !*marked {
            *marked = true;
            moved.push(dst);
        }
        f(value)
    }

    /// `dst`'s value (zero if absent).
    pub fn get(&self, dst: Ipv4Addr) -> u64 {
        self.shards[dst_shard(dst)].lock().counts.get(&dst).map_or(0, |&(v, _)| v)
    }

    /// Every entry, sorted by address — the byte-stable export order
    /// journal checkpoints rely on.
    pub fn snapshot_sorted(&self) -> Vec<(Ipv4Addr, u64)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().counts.iter().map(|(&a, &(v, _))| (a, v)));
        }
        all.sort_unstable_by_key(|&(a, _)| a);
        all
    }

    /// The entries that moved since the previous call (or the last
    /// [`restore`](ShardedCounts::restore)), at their current values and
    /// sorted by address; clears the pending set.
    pub fn take_changes(&self) -> Vec<(Ipv4Addr, u64)> {
        let mut changed = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            let CountShard { counts, moved } = &mut *shard;
            for addr in moved.drain(..) {
                if let Some((value, marked)) = counts.get_mut(&addr) {
                    *marked = false;
                    changed.push((addr, *value));
                }
            }
        }
        changed.sort_unstable_by_key(|&(a, _)| a);
        changed
    }

    /// Overwrites the whole table, leaving no pending changes.
    pub fn restore(&self, entries: impl IntoIterator<Item = (Ipv4Addr, u64)>) {
        for shard in &self.shards {
            *shard.lock() = CountShard::default();
        }
        for (addr, value) in entries {
            self.shards[dst_shard(addr)].lock().counts.insert(addr, (value, false));
        }
    }

    /// Folds `f` over every `(addr, value)` entry, shard by shard.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, Ipv4Addr, u64) -> A) -> A {
        let mut acc = init;
        for shard in &self.shards {
            for (&addr, &(value, _)) in &shard.lock().counts {
                acc = f(acc, addr, value);
            }
        }
        acc
    }
}

/// SplitMix64 finalizer — the deterministic mixer behind fault
/// decisions, hash-based packet loss, and destination sharding.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_first_three_octets() {
        let a = prefix24(Ipv4Addr::new(198, 51, 100, 1));
        let b = prefix24(Ipv4Addr::new(198, 51, 100, 254));
        let c = prefix24(Ipv4Addr::new(198, 51, 101, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn network_and_host() {
        let p = prefix24(Ipv4Addr::new(10, 2, 3, 99));
        assert_eq!(p.network(), Ipv4Addr::new(10, 2, 3, 0));
        assert_eq!(p.host(7), Ipv4Addr::new(10, 2, 3, 7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_broadcast_host() {
        prefix24(Ipv4Addr::new(10, 0, 0, 0)).host(255);
    }

    #[test]
    fn display_is_cidr() {
        assert_eq!(prefix24(Ipv4Addr::new(203, 0, 113, 9)).to_string(), "203.0.113.0/24");
    }

    #[test]
    fn dst_shard_is_stable_and_in_range() {
        for i in 0..1000u32 {
            let addr = Ipv4Addr::from(i.wrapping_mul(2_654_435_761));
            let s = dst_shard(addr);
            assert!(s < DST_SHARDS);
            assert_eq!(s, dst_shard(addr), "same address, same shard");
        }
    }

    #[test]
    fn dst_shard_spreads_addresses() {
        let mut seen = [false; DST_SHARDS];
        for i in 0..256u32 {
            seen[dst_shard(Ipv4Addr::from(0x0a00_0000 | i))] = true;
        }
        let hit = seen.iter().filter(|&&s| s).count();
        assert!(hit >= DST_SHARDS / 2, "256 addresses hit only {hit} shards");
    }
}
