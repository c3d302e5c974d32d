use std::collections::BTreeMap;

use rand::Rng;

use govdns_model::DomainName;

use crate::calibration::delegation as cal;

/// A registration price in US dollars.
pub type PriceUsd = f64;

/// The registrar storefront — the stand-in for the paper's GoDaddy
/// availability-and-price checks on dangling nameserver domains.
///
/// Domains explicitly marked available carry a price; everything else is
/// considered registered.
///
/// ```
/// use govdns_world::Registrar;
/// let mut r = Registrar::new();
/// r.mark_available("deadprov1.net".parse()?, 11.99);
/// assert_eq!(r.price_of(&"deadprov1.net".parse()?), Some(11.99));
/// assert!(r.price_of(&"cloudflare.com".parse()?).is_none());
/// # Ok::<(), govdns_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registrar {
    available: BTreeMap<DomainName, PriceUsd>,
}

impl Registrar {
    /// Creates a registrar where every domain is registered.
    pub fn new() -> Self {
        Registrar::default()
    }

    /// Marks a registered domain as available at `price`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive price.
    pub fn mark_available(&mut self, domain: DomainName, price: PriceUsd) {
        assert!(price > 0.0, "price {price} must be positive");
        self.available.insert(domain, price);
    }

    /// Whether `domain` can be registered right now.
    pub fn is_available(&self, domain: &DomainName) -> bool {
        self.available.contains_key(domain)
    }

    /// The registration price, if the domain is available.
    pub fn price_of(&self, domain: &DomainName) -> Option<PriceUsd> {
        self.available.get(domain).copied()
    }

    /// All available domains with their prices.
    pub fn iter_available(&self) -> impl Iterator<Item = (&DomainName, PriceUsd)> {
        self.available.iter().map(|(d, &p)| (d, p))
    }

    /// Number of available domains.
    pub fn available_count(&self) -> usize {
        self.available.len()
    }
}

/// Samples a registration price from the heavy-tailed distribution the
/// paper reports (Fig 12): min 0.01, median ≈ 11.99, occasional premium
/// names up to 20,000 USD.
pub fn sample_price<R: Rng>(rng: &mut R) -> PriceUsd {
    let roll: f64 = rng.gen();
    let price = if roll < 0.04 {
        // Clearance-bin names.
        rng.gen_range(cal::COST_MIN_USD..1.0)
    } else if roll < 0.88 {
        // The bulk around the 11.99 median: lognormal-ish around ln(12).
        let z: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
        (cal::COST_MEDIAN_USD * (z * 0.9).exp()).clamp(1.0, 99.0)
    } else if roll < 0.985 {
        // Aftermarket names.
        rng.gen_range(100.0..2_000.0)
    } else {
        // Premium names up to the observed 20k maximum.
        rng.gen_range(2_000.0..=cal::COST_MAX_USD)
    };
    (price * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn availability_and_prices() {
        let mut r = Registrar::new();
        r.mark_available("deadprov1.net".parse().unwrap(), 11.99);
        r.mark_available("pns12cloudns.net".parse().unwrap(), 8.5);
        assert!(r.is_available(&"deadprov1.net".parse().unwrap()));
        assert!(!r.is_available(&"gov.br".parse().unwrap()));
        assert_eq!(r.available_count(), 2);
        assert_eq!(r.iter_available().count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_free_domains() {
        Registrar::new().mark_available("x.net".parse().unwrap(), 0.0);
    }

    #[test]
    fn price_distribution_matches_figure_12() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut prices: Vec<f64> = (0..4000).map(|_| sample_price(&mut rng)).collect();
        prices.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = prices[prices.len() / 2];
        assert!((6.0..25.0).contains(&median), "median {median}");
        assert!(prices[0] >= cal::COST_MIN_USD);
        assert!(*prices.last().unwrap() <= cal::COST_MAX_USD);
        assert!(*prices.last().unwrap() > 2_000.0, "tail should reach premium range");
        let cheap = prices.iter().filter(|p| **p < 1.0).count();
        assert!(cheap > 0, "clearance bin should exist");
    }
}
