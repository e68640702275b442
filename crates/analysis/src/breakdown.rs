//! Per-country class-share stacks (Figures 7, 14, 15, 16).

use crate::classes::{Classification, ProviderClass};
use crate::ctx::AnalysisCtx;
use serde::Serialize;
use webdep_webgen::provider::TldKind;
use webdep_webgen::{Layer, COUNTRIES};

/// One country's stacked shares, category order fixed per figure.
#[derive(Debug, Clone, Serialize)]
pub struct CountryStack {
    /// Country code.
    pub code: &'static str,
    /// The country's measured centralization (stacks are sorted by it).
    pub s: f64,
    /// Share per category, matching the breakdown's `categories`.
    pub shares: Vec<f64>,
}

/// A full breakdown figure: categories plus per-country stacks sorted by
/// descending centralization (the paper's x-axis order).
#[derive(Debug, Clone, Serialize)]
pub struct Breakdown {
    /// Category labels, stack order.
    pub categories: Vec<String>,
    /// Country stacks sorted by descending `s`.
    pub stacks: Vec<CountryStack>,
}

/// Provider-class breakdown for hosting or DNS (Figures 7 and 14):
/// Cloudflare and Amazon split out of XL-GP, then the class ladder.
pub fn provider_breakdown(
    ctx: &AnalysisCtx<'_>,
    layer: Layer,
    classes: &Classification,
) -> Breakdown {
    assert!(
        matches!(layer, Layer::Hosting | Layer::Dns),
        "provider breakdown applies to hosting/DNS"
    );
    let cf = ctx.world.universe.provider_by_name("Cloudflare");
    let amazon = ctx.world.universe.provider_by_name("Amazon");
    let categories = vec![
        "Cloudflare".to_string(),
        "Amazon".to_string(),
        "L-GP".to_string(),
        "L-GP (R)".to_string(),
        "M-GP".to_string(),
        "S-GP".to_string(),
        "L-RP".to_string(),
        "S-RP".to_string(),
        "XS-RP".to_string(),
    ];
    let stacks = build_stacks(ctx, layer, categories.len(), |owner| {
        if Some(owner) == cf {
            return 0;
        }
        if Some(owner) == amazon {
            return 1;
        }
        match classes.class(owner) {
            ProviderClass::XlGp | ProviderClass::LGp => 2,
            ProviderClass::LGpR => 3,
            ProviderClass::MGp => 4,
            ProviderClass::SGp => 5,
            ProviderClass::LRp => 6,
            ProviderClass::SRp => 7,
            ProviderClass::XsRp => 8,
        }
    });
    Breakdown { categories, stacks }
}

/// CA breakdown (Figure 15): the seven large global CAs by name, then the
/// class ladder.
pub fn ca_breakdown(ctx: &AnalysisCtx<'_>, classes: &Classification) -> Breakdown {
    let big = [
        "Let's Encrypt",
        "DigiCert",
        "Sectigo",
        "Google Trust Services",
        "Amazon Trust Services",
        "GlobalSign",
        "GoDaddy",
    ];
    let big_ids: Vec<Option<u32>> = big
        .iter()
        .map(|n| ctx.world.universe.ca_by_name(n))
        .collect();
    let mut categories: Vec<String> = big.iter().map(|s| s.to_string()).collect();
    categories.extend(["M-GP", "L-RP", "S-RP", "XS-RP"].map(String::from));
    let stacks = build_stacks(ctx, Layer::Ca, categories.len(), |owner| {
        if let Some(pos) = big_ids.iter().position(|&id| id == Some(owner)) {
            return pos;
        }
        match classes.class(owner) {
            ProviderClass::XlGp | ProviderClass::LGp | ProviderClass::MGp | ProviderClass::SGp => 7,
            ProviderClass::LGpR | ProviderClass::LRp => 8,
            ProviderClass::SRp => 9,
            ProviderClass::XsRp => 10,
        }
    });
    Breakdown { categories, stacks }
}

/// TLD breakdown (Figure 16): com / global TLDs / local ccTLD / external
/// ccTLDs.
pub fn tld_breakdown(ctx: &AnalysisCtx<'_>) -> Breakdown {
    let categories = vec![
        "com".to_string(),
        "Global TLDs".to_string(),
        "Local ccTLD".to_string(),
        "External ccTLDs".to_string(),
    ];
    let mut stacks = Vec::new();
    for (ci, country) in COUNTRIES.iter().enumerate() {
        let counts = ctx.country_counts(ci, Layer::Tld);
        let total = ctx.country_total(ci, Layer::Tld);
        if total == 0 {
            continue;
        }
        let mut shares = vec![0.0; 4];
        for &(owner, c) in counts.iter() {
            let tld = ctx.world.universe.tld(owner);
            let cat = match &tld.kind {
                TldKind::Com => 0,
                TldKind::Global => 1,
                TldKind::Cc(cc) if cc == country.code => 2,
                TldKind::Cc(_) => 3,
            };
            shares[cat] += c as f64 / total as f64;
        }
        let dist = ctx.country_dist(ci, Layer::Tld).expect("non-empty");
        stacks.push(CountryStack {
            code: country.code,
            s: webdep_core::centralization::centralization_score(dist),
            shares,
        });
    }
    stacks.sort_by(|a, b| b.s.partial_cmp(&a.s).expect("finite"));
    Breakdown { categories, stacks }
}

fn build_stacks<F: Fn(u32) -> usize>(
    ctx: &AnalysisCtx<'_>,
    layer: Layer,
    n_categories: usize,
    category_of: F,
) -> Vec<CountryStack> {
    let mut stacks = Vec::new();
    for (ci, country) in COUNTRIES.iter().enumerate() {
        let counts = ctx.country_counts(ci, layer);
        let total = ctx.country_total(ci, layer);
        if total == 0 {
            continue;
        }
        let mut shares = vec![0.0; n_categories];
        for &(owner, c) in counts.iter() {
            shares[category_of(owner)] += c as f64 / total as f64;
        }
        let dist = ctx.country_dist(ci, layer).expect("non-empty");
        stacks.push(CountryStack {
            code: country.code,
            s: webdep_core::centralization::centralization_score(dist),
            shares,
        });
    }
    stacks.sort_by(|a, b| b.s.partial_cmp(&a.s).expect("finite"));
    stacks
}

impl Breakdown {
    /// A country's stack.
    pub fn stack(&self, code: &str) -> Option<&CountryStack> {
        self.stacks.iter().find(|s| s.code == code)
    }

    /// Share of a category in a country.
    pub fn share(&self, code: &str, category: &str) -> Option<f64> {
        let idx = self.categories.iter().position(|c| c == category)?;
        Some(self.stack(code)?.shares[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::classify;
    use crate::ctx::testutil::ctx;

    #[test]
    fn hosting_stack_shares_sum_to_one() {
        let c = ctx();
        let classes = classify(&c, Layer::Hosting);
        let b = provider_breakdown(&c, Layer::Hosting, &classes);
        assert_eq!(b.stacks.len(), 150);
        for s in &b.stacks {
            let sum: f64 = s.shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", s.code);
        }
        // Sorted by descending centralization.
        assert!(b.stacks.windows(2).all(|w| w[0].s >= w[1].s));
    }

    #[test]
    fn cloudflare_drives_centralized_countries() {
        let c = ctx();
        let classes = classify(&c, Layer::Hosting);
        let b = provider_breakdown(&c, Layer::Hosting, &classes);
        // The most centralized country's Cloudflare share dwarfs the least
        // centralized one's.
        let top_cf = b.stacks.first().unwrap().shares[0];
        let bottom_cf = b.stacks.last().unwrap().shares[0];
        assert!(top_cf > bottom_cf + 0.2, "{top_cf} vs {bottom_cf}");
        // Iran leans on regional classes (hatched bars in the paper).
        let ir = b.stack("IR").unwrap();
        let regional: f64 = ir.shares[6..].iter().sum();
        assert!(regional > 0.4, "IR regional share {regional}");
    }

    #[test]
    fn ca_breakdown_dominated_by_large_globals() {
        let c = ctx();
        let classes = classify(&c, Layer::Ca);
        let b = ca_breakdown(&c, &classes);
        for s in &b.stacks {
            let big7: f64 = s.shares[..7].iter().sum();
            assert!(big7 > 0.60, "{}: big-7 share {big7}", s.code);
            let sum: f64 = s.shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // Poland's regional CA usage shows up outside the big seven.
        let pl = b.stack("PL").unwrap();
        let non_big: f64 = pl.shares[7..].iter().sum();
        assert!(non_big > 0.05, "PL regional CA share {non_big}");
    }

    #[test]
    fn tld_breakdown_categories() {
        let c = ctx();
        let b = tld_breakdown(&c);
        let us = b.stack("US").unwrap();
        assert!(us.shares[0] > 0.6, "US .com {}", us.shares[0]);
        let de = b.stack("DE").unwrap();
        assert!(de.shares[2] > 0.3, "DE local ccTLD {}", de.shares[2]);
        let kg = b.stack("KG").unwrap();
        assert!(kg.shares[3] > 0.1, "KG external ccTLD {}", kg.shares[3]);
        for s in &b.stacks {
            let sum: f64 = s.shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn share_accessor() {
        let c = ctx();
        let b = tld_breakdown(&c);
        assert!(b.share("US", "com").unwrap() > 0.5);
        assert!(b.share("US", "nope").is_none());
        assert!(b.share("XX", "com").is_none());
    }
}
