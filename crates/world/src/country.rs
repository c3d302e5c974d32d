use std::fmt;
use std::str::FromStr;

use govdns_model::DomainName;

/// ISO 3166-1 alpha-2 country code, lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Builds a code from two ASCII letters.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not exactly two ASCII letters; codes come from the
    /// static country table, so anything else is a table bug.
    pub fn new(s: &str) -> Self {
        let b = s.as_bytes();
        assert!(b.len() == 2 && b.iter().all(u8::is_ascii_alphabetic), "bad country code `{s}`");
        CountryCode([b[0].to_ascii_lowercase(), b[1].to_ascii_lowercase()])
    }

    /// The two-letter code as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("constructed from ASCII")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CountryCode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        let b = s.as_bytes();
        if b.len() == 2 && b.iter().all(u8::is_ascii_alphabetic) {
            Ok(CountryCode::new(s))
        } else {
            Err(format!("invalid country code `{s}`"))
        }
    }
}

/// UN M49 sub-regions (the grouping Tables II–III report coverage over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum SubRegion {
    NorthernAfrica,
    EasternAfrica,
    MiddleAfrica,
    SouthernAfrica,
    WesternAfrica,
    Caribbean,
    CentralAmerica,
    SouthAmerica,
    NorthernAmerica,
    CentralAsia,
    EasternAsia,
    SouthEasternAsia,
    SouthernAsia,
    WesternAsia,
    EasternEurope,
    NorthernEurope,
    SouthernEurope,
    WesternEurope,
    AustraliaNewZealand,
    Melanesia,
    Micronesia,
    Polynesia,
}

impl SubRegion {
    /// All 22 sub-regions.
    pub fn all() -> &'static [SubRegion] {
        use SubRegion::*;
        &[
            NorthernAfrica,
            EasternAfrica,
            MiddleAfrica,
            SouthernAfrica,
            WesternAfrica,
            Caribbean,
            CentralAmerica,
            SouthAmerica,
            NorthernAmerica,
            CentralAsia,
            EasternAsia,
            SouthEasternAsia,
            SouthernAsia,
            WesternAsia,
            EasternEurope,
            NorthernEurope,
            SouthernEurope,
            WesternEurope,
            AustraliaNewZealand,
            Melanesia,
            Micronesia,
            Polynesia,
        ]
    }
}

impl fmt::Display for SubRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubRegion::NorthernAfrica => "Northern Africa",
            SubRegion::EasternAfrica => "Eastern Africa",
            SubRegion::MiddleAfrica => "Middle Africa",
            SubRegion::SouthernAfrica => "Southern Africa",
            SubRegion::WesternAfrica => "Western Africa",
            SubRegion::Caribbean => "Caribbean",
            SubRegion::CentralAmerica => "Central America",
            SubRegion::SouthAmerica => "South America",
            SubRegion::NorthernAmerica => "Northern America",
            SubRegion::CentralAsia => "Central Asia",
            SubRegion::EasternAsia => "Eastern Asia",
            SubRegion::SouthEasternAsia => "South-eastern Asia",
            SubRegion::SouthernAsia => "Southern Asia",
            SubRegion::WesternAsia => "Western Asia",
            SubRegion::EasternEurope => "Eastern Europe",
            SubRegion::NorthernEurope => "Northern Europe",
            SubRegion::SouthernEurope => "Southern Europe",
            SubRegion::WesternEurope => "Western Europe",
            SubRegion::AustraliaNewZealand => "Australia and New Zealand",
            SubRegion::Melanesia => "Melanesia",
            SubRegion::Micronesia => "Micronesia",
            SubRegion::Polynesia => "Polynesia",
        };
        f.write_str(s)
    }
}

/// How many government domains a country contributes, shaping the heavy
/// tail of Fig 4. `Top10` countries carry explicit paper-scale counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EgovTier {
    /// One of the ten countries with the most PDNS records; carries its
    /// Table I domain count at paper scale.
    Top10(u32),
    /// A developed e-government outside the top ten (~400–1500 domains).
    High,
    /// A mid-size e-government (~100–400 domains).
    Medium,
    /// A small e-government (~15–100 domains).
    Low,
    /// A minimal web presence (fewer than 15 domains, sometimes none
    /// responsive — the Bolivia/Bulgaria/Burkina Faso/UAE cases).
    Minimal,
}

/// One UN member country in the synthetic world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Country {
    /// ISO alpha-2 code.
    pub code: CountryCode,
    /// English short name.
    pub name: &'static str,
    /// UN sub-region.
    pub sub_region: SubRegion,
    /// Size tier.
    pub tier: EgovTier,
}

impl Country {
    /// The country's ccTLD as a domain name (`zz` for code `zz`).
    pub fn cctld(&self) -> DomainName {
        self.code.as_str().parse().expect("two letters form a valid label")
    }

    /// Whether this country is one of the ten with the most records
    /// (treated as its own sub-region group in Tables II–III).
    pub fn is_top10(&self) -> bool {
        matches!(self.tier, EgovTier::Top10(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_normalizes_case() {
        assert_eq!(CountryCode::new("BR").as_str(), "br");
        assert_eq!("Cn".parse::<CountryCode>().unwrap().as_str(), "cn");
        assert!("B1".parse::<CountryCode>().is_err());
        assert!("BRA".parse::<CountryCode>().is_err());
    }

    #[test]
    fn twenty_two_sub_regions() {
        assert_eq!(SubRegion::all().len(), 22);
        let mut set = std::collections::BTreeSet::new();
        for s in SubRegion::all() {
            set.insert(*s);
        }
        assert_eq!(set.len(), 22);
    }

    #[test]
    fn country_helpers() {
        let c = Country {
            code: CountryCode::new("br"),
            name: "Brazil",
            sub_region: SubRegion::SouthAmerica,
            tier: EgovTier::Top10(7_271),
        };
        assert_eq!(c.cctld().to_string(), "br");
        assert!(c.is_top10());
    }
}
