//! Appendix B deep-dive: TLD dependence patterns beyond the score table —
//! external-ccTLD adoption (.ru / .fr / .de), ccTLDs outranking local
//! ones, and the two insularity regimes (infrastructure-rich countries
//! insular everywhere vs the Global South insular only at the TLD layer).

use crate::ctx::AnalysisCtx;
use crate::insularity::country_insularity;
use serde::Serialize;
use webdep_webgen::provider::TldKind;
use webdep_webgen::{Layer, COUNTRIES};

/// One country's use of a foreign ccTLD.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExternalCcUse {
    /// The country using the TLD.
    pub country: &'static str,
    /// Share of its top sites under the foreign ccTLD.
    pub share: f64,
    /// Whether the foreign ccTLD outranks the country's own.
    pub outranks_local: bool,
}

/// Countries using `tld_country`'s ccTLD for at least `min_share` of their
/// top sites, sorted by share (Appendix B: `.fr` in 14 countries, `.ru`
/// across the CIS, `.de` in the German-speaking countries).
pub fn external_cc_adoption(
    ctx: &AnalysisCtx<'_>,
    tld_country: &str,
    min_share: f64,
) -> Vec<ExternalCcUse> {
    let Some(foreign_tld) = ctx
        .world
        .universe
        .tld_by_label(&tld_country.to_ascii_lowercase())
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (ci, country) in COUNTRIES.iter().enumerate() {
        if country.code == tld_country {
            continue;
        }
        let counts = ctx.country_counts(ci, Layer::Tld);
        let total = ctx.country_total(ci, Layer::Tld);
        if total == 0 {
            continue;
        }
        let share_of = |tld: u32| {
            counts
                .iter()
                .find(|&&(o, _)| o == tld)
                .map(|&(_, c)| c as f64 / total as f64)
                .unwrap_or(0.0)
        };
        let share = share_of(foreign_tld);
        if share >= min_share {
            let local_share = ctx
                .world
                .universe
                .tld_by_label(&country.code.to_ascii_lowercase())
                .map(&share_of)
                .unwrap_or(0.0);
            out.push(ExternalCcUse {
                country: country.code,
                share,
                outranks_local: share > local_share,
            });
        }
    }
    out.sort_by(|a, b| b.share.partial_cmp(&a.share).expect("finite"));
    out
}

/// The Appendix B insularity-regime classification of a country.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InsularityRegime {
    /// Insular across infrastructure layers *and* the TLD layer (Europe,
    /// East Asia, North America pattern).
    InfrastructureAndTld,
    /// Insular at the TLD layer only — local providers don't exist, but a
    /// ccTLD does (the Global South pattern).
    TldOnly,
    /// Not insular anywhere.
    Neither,
}

/// Classifies every country into an insularity regime using simple share
/// thresholds (hosting ≥ `infra_floor`, TLD ≥ `tld_floor`).
pub fn insularity_regimes(
    ctx: &AnalysisCtx<'_>,
    infra_floor: f64,
    tld_floor: f64,
) -> Vec<(&'static str, InsularityRegime)> {
    COUNTRIES
        .iter()
        .enumerate()
        .map(|(ci, country)| {
            let host = country_insularity(ctx, ci, Layer::Hosting).unwrap_or(0.0);
            let tld = country_insularity(ctx, ci, Layer::Tld).unwrap_or(0.0);
            let regime = if host >= infra_floor && tld >= tld_floor {
                InsularityRegime::InfrastructureAndTld
            } else if tld >= tld_floor {
                InsularityRegime::TldOnly
            } else {
                InsularityRegime::Neither
            };
            (country.code, regime)
        })
        .collect()
}

/// Share of a country's sites on global (non-cc, non-com) TLDs — the
/// Figure 16 "Global TLDs" column, exposed for the Appendix B observation
/// that external-ccTLD use correlates with lower TLD centralization.
pub fn global_tld_share(ctx: &AnalysisCtx<'_>, country_idx: usize) -> f64 {
    let counts = ctx.country_counts(country_idx, Layer::Tld);
    let total = ctx.country_total(country_idx, Layer::Tld);
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&(o, _)| ctx.world.universe.tld(o).kind == TldKind::Global)
        .map(|&(_, c)| c as f64)
        .sum::<f64>()
        / total as f64
}

/// External-ccTLD share (foreign country ccTLDs only) for a country.
pub fn external_cc_share(ctx: &AnalysisCtx<'_>, country_idx: usize) -> f64 {
    let code = COUNTRIES[country_idx].code;
    let counts = ctx.country_counts(country_idx, Layer::Tld);
    let total = ctx.country_total(country_idx, Layer::Tld);
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&(o, _)| match &ctx.world.universe.tld(o).kind {
            TldKind::Cc(cc) => cc != code,
            _ => false,
        })
        .map(|&(_, c)| c as f64)
        .sum::<f64>()
        / total as f64
}

/// Appendix B's closing correlation: external-ccTLD use vs TLD-layer
/// centralization (the paper: "strongly correlated with lower
/// centralization", Figure 16 caption).
pub fn external_cc_vs_centralization(ctx: &AnalysisCtx<'_>) -> Option<webdep_stats::Correlation> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for ci in 0..COUNTRIES.len() {
        let Some(dist) = ctx.country_dist(ci, Layer::Tld) else {
            continue;
        };
        xs.push(external_cc_share(ctx, ci));
        ys.push(webdep_core::centralization::centralization_score(dist));
    }
    webdep_stats::pearson(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn ru_cctld_used_across_the_cis() {
        let c = ctx();
        let uses = external_cc_adoption(&c, "RU", 0.05);
        let countries: Vec<&str> = uses.iter().map(|u| u.country).collect();
        for cc in ["KG", "TJ", "TM", "KZ", "BY"] {
            assert!(countries.contains(&cc), "{cc} missing: {countries:?}");
        }
    }

    #[test]
    fn fr_cctld_outranks_local_in_francophone_countries() {
        let c = ctx();
        let uses = external_cc_adoption(&c, "FR", 0.05);
        assert!(!uses.is_empty());
        // The DOM heavy users should outrank their own ccTLD (the paper
        // lists 14 countries where .fr beats the local ccTLD).
        let outranking = uses.iter().filter(|u| u.outranks_local).count();
        assert!(
            outranking >= 3,
            "outranking: {outranking} of {}",
            uses.len()
        );
    }

    #[test]
    fn de_cctld_in_german_speaking_countries() {
        let c = ctx();
        let uses = external_cc_adoption(&c, "DE", 0.04);
        let countries: Vec<&str> = uses.iter().map(|u| u.country).collect();
        assert!(countries.contains(&"AT"), "{countries:?}");
    }

    #[test]
    fn regimes_split_as_in_the_paper() {
        let c = ctx();
        let regimes = insularity_regimes(&c, 0.20, 0.15);
        let of = |code: &str| {
            regimes
                .iter()
                .find(|(cc, _)| *cc == code)
                .map(|&(_, r)| r)
                .unwrap()
        };
        // Czechia: local providers + heavy .cz.
        assert_eq!(of("CZ"), InsularityRegime::InfrastructureAndTld);
        // A Global-South ccTLD-headed country without local providers
        // lands TldOnly or Neither; Brazil is ccTLD-headed with thin local
        // hosting.
        assert_ne!(of("BR"), InsularityRegime::InfrastructureAndTld);
        // Somalia: no local infrastructure, .com-headed.
        assert_eq!(of("SO"), InsularityRegime::Neither);
    }

    #[test]
    fn external_cc_anti_correlates_with_tld_centralization() {
        let c = ctx();
        let corr = external_cc_vs_centralization(&c).unwrap();
        assert!(corr.rho < -0.3, "rho = {}", corr.rho);
    }

    #[test]
    fn share_helpers_bounded() {
        let c = ctx();
        for ci in [0usize, 75, 149] {
            let g = global_tld_share(&c, ci);
            let e = external_cc_share(&c, ci);
            assert!((0.0..=1.0).contains(&g));
            assert!((0.0..=1.0).contains(&e));
        }
    }
}
