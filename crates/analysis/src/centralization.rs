//! Per-country centralization tables (Tables 5–8; Figures 5, 17–19) and
//! the §5.1 coverage observations.

use crate::ctx::AnalysisCtx;
use serde::Serialize;
use webdep_core::centralization::centralization_score;
use webdep_stats::describe::{median_index, Summary};
use webdep_webgen::{Layer, COUNTRIES};

/// One row of a layer's centralization table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CountryScore {
    /// Rank, 1 = most centralized.
    pub rank: usize,
    /// Country code.
    pub code: &'static str,
    /// Continent code (AF/AS/EU/NA/OC/SA).
    pub continent: &'static str,
    /// UN subregion.
    pub subregion: &'static str,
    /// Measured centralization score.
    pub s: f64,
    /// The paper's reported score for the same country and layer.
    pub paper_s: f64,
    /// Distinct providers observed.
    pub num_providers: usize,
    /// Top provider's market share.
    pub top_share: f64,
    /// Providers needed to cover 90% of websites.
    pub providers_for_90pct: usize,
    /// Fraction of the country's toplist observed at this layer.
    pub coverage: f64,
}

/// A full layer table plus summary statistics.
///
/// Under fault injection whole layers can go dark: `rows` then shrinks to
/// the countries still observed, and `summary`/`median_country` are `None`
/// when nothing was. Coverage fields report how much of the toplists the
/// remaining scores actually rest on.
#[derive(Debug, Clone, Serialize)]
pub struct LayerTable {
    /// The layer measured.
    pub layer_name: &'static str,
    /// Rows sorted most-centralized first (observed countries only).
    pub rows: Vec<CountryScore>,
    /// Mean / variance / extremes of the measured scores (`None` when no
    /// country measured at all).
    pub summary: Option<Summary>,
    /// Country code at the median of the score distribution.
    pub median_country: Option<&'static str>,
    /// Centralization of the global top list (the Figure 12 marker).
    pub global_top_score: Option<f64>,
    /// Site-weighted coverage: observed toplist entries over expected,
    /// across all 150 countries (unmeasured countries drag this down).
    pub mean_coverage: f64,
}

/// Builds the layer's table from measured data.
pub fn layer_table(ctx: &AnalysisCtx<'_>, layer: Layer) -> LayerTable {
    // Countries are independent: fan the per-country scoring across cores.
    // `par_map_indices` returns results in country order, so the table is
    // identical to the sequential one.
    let mut rows: Vec<CountryScore> = webdep_stats::par_map_indices(
        COUNTRIES.len(),
        webdep_stats::par::default_threads(),
        |ci| {
            let country = &COUNTRIES[ci];
            let dist = ctx.country_dist(ci, layer)?;
            Some(CountryScore {
                rank: 0,
                code: country.code,
                continent: country.continent.code(),
                subregion: country.subregion,
                s: centralization_score(dist),
                paper_s: country.paper_score(layer),
                num_providers: dist.num_providers(),
                top_share: dist.top_share(),
                providers_for_90pct: dist.providers_to_cover(0.90),
                coverage: ctx.country_coverage(ci, layer),
            })
        },
    )
    .into_iter()
    .flatten()
    .collect();
    rows.sort_by(|a, b| b.s.partial_cmp(&a.s).expect("scores are finite"));
    for (i, r) in rows.iter_mut().enumerate() {
        r.rank = i + 1;
    }
    let scores: Vec<f64> = rows.iter().map(|r| r.s).collect();
    let summary = Summary::of(&scores);
    let median_country = median_index(&scores).map(|i| rows[i].code);

    let global_top_score = global_top_score(ctx, layer);

    let (observed, expected) = (0..COUNTRIES.len()).fold((0u64, 0u64), |(o, e), ci| {
        (
            o + ctx.country_total(ci, layer),
            e + ctx.toplist_len(ci) as u64,
        )
    });
    let mean_coverage = if expected == 0 {
        0.0
    } else {
        observed as f64 / expected as f64
    };

    LayerTable {
        layer_name: layer.name(),
        rows,
        summary,
        median_country,
        global_top_score,
        mean_coverage,
    }
}

/// Centralization of the global top list at a layer (Figure 12's marker).
pub fn global_top_score(ctx: &AnalysisCtx<'_>, layer: Layer) -> Option<f64> {
    let dist = ctx.global_dist(layer)?;
    Some(centralization_score(dist))
}

impl LayerTable {
    /// Row for a country code.
    pub fn row(&self, code: &str) -> Option<&CountryScore> {
        self.rows.iter().find(|r| r.code == code)
    }

    /// Pearson correlation between measured and paper-reported scores — the
    /// headline calibration check.
    pub fn paper_correlation(&self) -> Option<webdep_stats::Correlation> {
        let measured: Vec<f64> = self.rows.iter().map(|r| r.s).collect();
        let paper: Vec<f64> = self.rows.iter().map(|r| r.paper_s).collect();
        webdep_stats::pearson(&measured, &paper)
    }

    /// The maximum `providers_for_90pct` across countries (the paper: "90%
    /// of websites are hosted by fewer than 206 providers in every
    /// country").
    pub fn max_providers_for_90pct(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.providers_for_90pct)
            .max()
            .unwrap_or(0)
    }

    /// Mean measured score over a subregion.
    pub fn subregion_mean(&self, subregion: &str) -> Option<f64> {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.subregion == subregion)
            .map(|r| r.s)
            .collect();
        webdep_stats::describe::mean(&vals)
    }

    /// Mean measured score over a continent code.
    pub fn continent_mean(&self, continent: &str) -> Option<f64> {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.continent == continent)
            .map(|r| r.s)
            .collect();
        webdep_stats::describe::mean(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::testutil::ctx;

    #[test]
    fn hosting_table_matches_paper_shape() {
        let c = ctx();
        let t = layer_table(&c, Layer::Hosting);
        assert_eq!(t.rows.len(), 150);
        // Calibration: measured strongly correlates with the paper column.
        let corr = t.paper_correlation().unwrap();
        assert!(corr.rho > 0.95, "rho = {}", corr.rho);
        // Most/least centralized anchors.
        let th = t.row("TH").unwrap();
        let ir = t.row("IR").unwrap();
        assert!(th.rank <= 10, "TH rank {}", th.rank);
        assert!(ir.rank >= 140, "IR rank {}", ir.rank);
        assert!(th.top_share > 0.45);
    }

    #[test]
    fn dns_and_ca_tables() {
        let c = ctx();
        let dns = layer_table(&c, Layer::Dns);
        assert!(dns.paper_correlation().unwrap().rho > 0.9);
        let ca = layer_table(&c, Layer::Ca);
        // CA scores cluster tightly (paper: var = 0.0007) — allow tiny-
        // scale slack but require the variance to be far below hosting's.
        let hosting = layer_table(&c, Layer::Hosting);
        assert!(ca.summary.as_ref().unwrap().var < hosting.summary.as_ref().unwrap().var * 2.0);
        // Every country uses at most 45 CAs.
        assert!(ca.rows.iter().all(|r| r.num_providers <= 45));
    }

    #[test]
    fn tld_is_most_centralized_layer() {
        let c = ctx();
        let tld = layer_table(&c, Layer::Tld);
        let hosting = layer_table(&c, Layer::Hosting);
        let (tld_mean, host_mean) = (
            tld.summary.as_ref().unwrap().mean,
            hosting.summary.as_ref().unwrap().mean,
        );
        assert!(
            tld_mean > host_mean,
            "tld {tld_mean} vs hosting {host_mean}"
        );
        let us = tld.row("US").unwrap();
        assert!(
            us.rank <= 6,
            "US should top the TLD table, rank {}",
            us.rank
        );
    }

    #[test]
    fn global_top_marker_near_hosting_mean() {
        let c = ctx();
        let t = layer_table(&c, Layer::Hosting);
        let marker = t.global_top_score.unwrap();
        let mean = t.summary.as_ref().unwrap().mean;
        assert!(
            (marker - mean).abs() < 0.08,
            "marker {marker} vs mean {mean}"
        );
        // ... but NOT representative for TLDs (paper, Figure 12).
        let tld = layer_table(&c, Layer::Tld);
        let tld_marker = tld.global_top_score.unwrap();
        let tld_mean = tld.summary.as_ref().unwrap().mean;
        assert!(
            (tld_marker - tld_mean).abs() > 0.05,
            "TLD marker {tld_marker} should sit away from mean {tld_mean}"
        );
    }

    #[test]
    fn coverage_bounded() {
        let c = ctx();
        let t = layer_table(&c, Layer::Hosting);
        // Paper: fewer than 206 providers cover 90% everywhere (10k sites).
        // Tiny worlds have fewer providers; the bound still holds.
        assert!(t.max_providers_for_90pct() < 206);
    }

    #[test]
    fn clean_measurement_has_full_coverage() {
        let c = ctx();
        for layer in webdep_webgen::Layer::ALL {
            let t = layer_table(&c, layer);
            assert!(
                t.mean_coverage > 0.99,
                "{}: coverage {}",
                layer.name(),
                t.mean_coverage
            );
            assert!(t.rows.iter().all(|r| r.coverage > 0.9), "{}", layer.name());
        }
    }

    #[test]
    fn subregion_and_continent_means() {
        let c = ctx();
        let t = layer_table(&c, Layer::Hosting);
        let se_asia = t.subregion_mean("South-eastern Asia").unwrap();
        let europe = t.continent_mean("EU").unwrap();
        assert!(
            se_asia > europe,
            "SE Asia ({se_asia}) must exceed Europe ({europe})"
        );
        assert!(t.subregion_mean("Atlantis").is_none());
    }
}
