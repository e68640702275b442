//! The centralization score `S` (paper §3.2, Appendix A).
//!
//! `S` is the Earth Mover's Distance from the observed provider distribution
//! to a fully decentralized reference in which every website has its own
//! provider, with ground distance `d_ij = (a_i - 1) / C`. The paper derives
//! the closed form
//!
//! ```text
//! S = sum_i (a_i / C)^2 - 1/C
//! ```
//!
//! `sum_i (a_i/C)^2` is the Herfindahl–Hirschman Index (HHI) of the market,
//! so `S = HHI - 1/C`: the paper's score is an EMD instantiation that equals
//! HHI up to a constant that vanishes as the number of websites grows.

use crate::dist::CountDist;
use serde::{Deserialize, Serialize};

/// Computes the centralization score `S` of an observed distribution.
///
/// Bounds: `0 <= S <= 1 - 1/C`, where the lower bound is attained exactly
/// when every website has its own provider and the upper bound when a single
/// provider serves all `C` websites.
///
/// ```
/// use webdep_core::{CountDist, centralization_score};
/// let d = CountDist::from_counts(vec![1, 1, 1, 1]).unwrap();
/// assert!(centralization_score(&d).abs() < 1e-12); // fully decentralized
/// ```
pub fn centralization_score(dist: &CountDist) -> f64 {
    let c = dist.total() as f64;
    hhi(dist) - 1.0 / c
}

/// [`centralization_score`] on raw counts, for callers that do not need to
/// keep a [`CountDist`] around. Zeros are ignored; returns `None` for an
/// empty distribution.
///
/// This is the fused kernel the analysis cube runs over contiguous count
/// rows: one pass accumulating the total and the sum of squared counts,
/// no sort and no allocation. `S = Σa² / C² − 1/C` is algebraically the
/// sorted-share formulation with one division hoisted out of the loop, so
/// the result is exact for any counts a `CountDist` could hold (integer
/// squares and sums stay below 2⁵³).
pub fn centralization_score_counts_ref(counts: &[u64]) -> Option<f64> {
    let mut total: u64 = 0;
    let mut sum_sq: f64 = 0.0;
    for &a in counts {
        if a == 0 {
            continue;
        }
        total += a;
        let af = a as f64;
        sum_sq += af * af;
    }
    if total == 0 {
        return None;
    }
    let c = total as f64;
    Some(sum_sq / (c * c) - 1.0 / c)
}

/// Herfindahl–Hirschman Index: the sum of squared market shares.
///
/// Used in US antitrust practice; the paper notes `S = HHI - 1/C`.
pub fn hhi(dist: &CountDist) -> f64 {
    let c = dist.total() as f64;
    dist.counts()
        .iter()
        .map(|&a| {
            let s = a as f64 / c;
            s * s
        })
        .sum()
}

/// Maximum attainable score for a dataset of `total` websites
/// (one provider serving everything): `1 - 1/C`.
pub fn max_score(total: u64) -> f64 {
    assert!(total > 0, "total must be positive");
    1.0 - 1.0 / total as f64
}

/// US DoJ Horizontal Merger Guidelines interpretation bands for HHI, which
/// the paper offers as context for reading `S` values (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConcentrationBand {
    /// HHI below 0.10: an unconcentrated ("competitive") market.
    Competitive,
    /// HHI in `[0.10, 0.18]`: moderately concentrated.
    ModeratelyConcentrated,
    /// HHI above 0.18: highly concentrated.
    HighlyConcentrated,
}

impl ConcentrationBand {
    /// Classifies an HHI (or `S`) value into a DoJ band.
    pub fn classify(value: f64) -> Self {
        if value < 0.10 {
            ConcentrationBand::Competitive
        } else if value <= 0.18 {
            ConcentrationBand::ModeratelyConcentrated
        } else {
            ConcentrationBand::HighlyConcentrated
        }
    }

    /// Human-readable label matching the guidelines' wording.
    pub fn label(&self) -> &'static str {
        match self {
            ConcentrationBand::Competitive => "competitive",
            ConcentrationBand::ModeratelyConcentrated => "moderately concentrated",
            ConcentrationBand::HighlyConcentrated => "highly concentrated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(counts: &[u64]) -> CountDist {
        CountDist::from_counts(counts.to_vec()).unwrap()
    }

    #[test]
    fn fully_decentralized_scores_zero() {
        let dist = d(&[1; 100]);
        assert!(centralization_score(&dist).abs() < 1e-12);
    }

    #[test]
    fn monopoly_scores_max() {
        let dist = d(&[100]);
        let s = centralization_score(&dist);
        assert!((s - max_score(100)).abs() < 1e-12);
        assert!((s - 0.99).abs() < 1e-12);
    }

    #[test]
    fn score_increases_with_concentration() {
        // Same total, increasingly concentrated.
        let less = d(&[25, 25, 25, 25]);
        let more = d(&[70, 10, 10, 10]);
        let most = d(&[97, 1, 1, 1]);
        let (s1, s2, s3) = (
            centralization_score(&less),
            centralization_score(&more),
            centralization_score(&most),
        );
        assert!(s1 < s2 && s2 < s3, "{s1} {s2} {s3}");
    }

    #[test]
    fn hhi_relation_holds() {
        let dist = d(&[42, 17, 9, 3, 3, 1]);
        let c = dist.total() as f64;
        assert!((centralization_score(&dist) - (hhi(&dist) - 1.0 / c)).abs() < 1e-15);
    }

    #[test]
    fn paper_example_azerbaijan_vs_hong_kong() {
        // §3.1: AZ and HK both have 59% of sites in their top five providers,
        // but AZ's steeper head (42% vs 33% top-1) must yield a higher S.
        // We synthesize 100-site distributions matching the quoted shares.
        let az = d(&[42, 5, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2]);
        let hk = d(&[33, 12, 6, 4, 4, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 2, 2, 1, 1]);
        assert!(centralization_score(&az) > centralization_score(&hk));
    }

    #[test]
    fn counts_helper_matches() {
        let counts = [10u64, 0, 5, 5];
        let via_helper = centralization_score_counts_ref(&counts).unwrap();
        let via_dist = centralization_score(&d(&counts));
        assert!((via_helper - via_dist).abs() < 1e-15);
        assert!(centralization_score_counts_ref(&[]).is_none());
        assert!(centralization_score_counts_ref(&[0, 0]).is_none());
    }

    #[test]
    fn fused_kernel_matches_sorted_shares_on_large_rows() {
        // The fused kernel iterates in storage order; the CountDist path
        // sums sorted shares. Both must agree to float precision on a
        // realistic long-tailed row.
        let counts: Vec<u64> = (1..=400u64).map(|i| (4000 / i).max(1)).collect();
        let fused = centralization_score_counts_ref(&counts).unwrap();
        let via_dist = centralization_score(&d(&counts));
        assert!((fused - via_dist).abs() < 1e-12, "{fused} vs {via_dist}");
    }

    #[test]
    fn doj_bands() {
        assert_eq!(
            ConcentrationBand::classify(0.05),
            ConcentrationBand::Competitive
        );
        assert_eq!(
            ConcentrationBand::classify(0.10),
            ConcentrationBand::ModeratelyConcentrated
        );
        assert_eq!(
            ConcentrationBand::classify(0.18),
            ConcentrationBand::ModeratelyConcentrated
        );
        assert_eq!(
            ConcentrationBand::classify(0.181),
            ConcentrationBand::HighlyConcentrated
        );
        assert_eq!(ConcentrationBand::classify(0.05).label(), "competitive");
    }

    #[test]
    #[should_panic(expected = "total must be positive")]
    fn max_score_requires_positive_total() {
        let _ = max_score(0);
    }
}
