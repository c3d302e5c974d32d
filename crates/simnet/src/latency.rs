use std::net::Ipv4Addr;

/// A deterministic per-destination latency model.
///
/// Latency is `base + spread(dst)` where the spread is a stable hash of the
/// destination address — so repeated queries to the same server observe the
/// same round-trip time, while the population of servers spans a realistic
/// span. The measurement pipeline sums these to report per-domain probe
/// cost; the paper notes defective delegations inflate resolution latency,
/// and this model makes that observable in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Minimum round-trip time, milliseconds.
    pub base_ms: u32,
    /// Maximum extra per-destination delay, milliseconds.
    pub spread_ms: u32,
    /// Time a querier waits before declaring a timeout, milliseconds.
    pub timeout_ms: u32,
}

impl LatencyModel {
    /// A model with typical wide-area parameters (10–250 ms RTT, 3 s
    /// timeout).
    pub fn wide_area() -> Self {
        LatencyModel { base_ms: 10, spread_ms: 240, timeout_ms: 3000 }
    }

    /// Round-trip time to `dst`, milliseconds. Deterministic per address.
    pub fn rtt_ms(&self, dst: Ipv4Addr) -> u32 {
        if self.spread_ms == 0 {
            return self.base_ms;
        }
        self.base_ms + ((crate::addr::mix(u64::from(u32::from(dst))) as u32) % self.spread_ms)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::wide_area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_destination() {
        let m = LatencyModel::wide_area();
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        assert_eq!(m.rtt_ms(dst), m.rtt_ms(dst));
    }

    #[test]
    fn stays_within_bounds() {
        let m = LatencyModel::wide_area();
        for i in 0..1000u32 {
            let rtt = m.rtt_ms(Ipv4Addr::from(i * 7919));
            assert!(rtt >= m.base_ms && rtt < m.base_ms + m.spread_ms);
        }
    }

    #[test]
    fn varies_across_destinations() {
        let m = LatencyModel::wide_area();
        let a = m.rtt_ms(Ipv4Addr::new(192, 0, 2, 1));
        let b = m.rtt_ms(Ipv4Addr::new(198, 51, 100, 1));
        let c = m.rtt_ms(Ipv4Addr::new(203, 0, 113, 1));
        assert!(a != b || b != c, "spread should differentiate destinations");
    }

    #[test]
    fn zero_spread_is_constant() {
        let m = LatencyModel { base_ms: 5, spread_ms: 0, timeout_ms: 100 };
        assert_eq!(m.rtt_ms(Ipv4Addr::new(1, 2, 3, 4)), 5);
    }
}
