//! Property tests for the statistics substrate.

use proptest::prelude::*;
use webdep_stats::affinity::{affinity_propagation, AffinityConfig};
use webdep_stats::bootstrap::{bootstrap_ci, BootstrapScratch, Resample};
use webdep_stats::corr::{average_ranks, pearson, spearman};
use webdep_stats::describe::{mean, median, quantile, variance};
use webdep_stats::hist::{ecdf, Histogram};
use webdep_stats::kmeans::kmeans;
use webdep_stats::scale::min_max_scale_columns;

proptest! {
    /// Pearson is symmetric, bounded, and invariant to affine transforms.
    #[test]
    fn pearson_invariants(
        xs in prop::collection::vec(-100.0f64..100.0, 4..40),
        a in 0.1f64..10.0,
        b in -50.0f64..50.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 1.5 - 3.0).collect();
        if let Some(c) = pearson(&xs, &ys) {
            prop_assert!((c.rho - 1.0).abs() < 1e-9, "perfect line: {}", c.rho);
        }
        let zs: Vec<f64> = xs.iter().enumerate().map(|(i, x)| x + ((i * 37) % 11) as f64).collect();
        if let (Some(f), Some(r)) = (pearson(&xs, &zs), pearson(&zs, &xs)) {
            prop_assert!((f.rho - r.rho).abs() < 1e-12, "symmetry");
            prop_assert!((-1.0..=1.0).contains(&f.rho));
            // Affine transform of one side leaves |rho| fixed.
            let ws: Vec<f64> = zs.iter().map(|z| a * z + b).collect();
            if let Some(t) = pearson(&xs, &ws) {
                prop_assert!((t.rho - f.rho).abs() < 1e-9, "affine invariance");
            }
        }
    }

    /// Spearman equals Pearson on ranks and is monotone-invariant.
    #[test]
    fn spearman_monotone_invariance(xs in prop::collection::vec(-50.0f64..50.0, 4..30)) {
        let cubes: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        if let (Some(s1), Some(s2)) = (spearman(&xs, &cubes), spearman(&xs, &xs)) {
            prop_assert!((s1.rho - s2.rho).abs() < 1e-9);
        }
    }

    /// Average ranks are a permutation-invariant relabeling summing to
    /// n(n+1)/2.
    #[test]
    fn ranks_sum(xs in prop::collection::vec(-100.0f64..100.0, 1..60)) {
        let ranks = average_ranks(&xs);
        let n = xs.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantile_monotone(xs in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let q25 = quantile(&xs, 0.25).unwrap();
        let q50 = quantile(&xs, 0.50).unwrap();
        let q75 = quantile(&xs, 0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        prop_assert_eq!(median(&xs).unwrap(), q50);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= q25 && q75 <= hi);
        prop_assert!(variance(&xs).unwrap() >= 0.0);
        let _ = mean(&xs);
    }

    /// Histograms conserve mass; the ECDF ends at 1.
    #[test]
    fn histogram_mass(xs in prop::collection::vec(0.0f64..1.0, 0..200), bins in 1usize..20) {
        let h = Histogram::new(0.0, 1.0, bins, &xs);
        prop_assert_eq!(h.total() + h.out_of_range, xs.len() as u64);
        let curve = ecdf(&xs);
        if let Some(&(_, last)) = curve.last() {
            prop_assert!((last - 1.0).abs() < 1e-12);
        }
    }

    /// Min-max scaling maps into [0,1] and preserves column order.
    #[test]
    fn minmax_preserves_order(col in prop::collection::vec(-100.0f64..100.0, 2..40)) {
        let rows: Vec<Vec<f64>> = col.iter().map(|&v| vec![v]).collect();
        let scaled = min_max_scale_columns(&rows);
        for w in scaled.windows(2).zip(rows.windows(2)) {
            let (s, r) = w;
            prop_assert_eq!(s[0][0] < s[1][0], r[0][0] < r[1][0]);
            prop_assert!((0.0..=1.0).contains(&s[0][0]));
        }
    }

    /// k-means labels are a partition with k' <= k non-empty clusters, and
    /// inertia never increases with more clusters (same seed family).
    #[test]
    fn kmeans_partition(pts_raw in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 6..40)) {
        let pts: Vec<Vec<f64>> = pts_raw.iter().map(|&(a, b)| vec![a, b]).collect();
        let k2 = kmeans(&pts, 2, 9, 50).unwrap();
        prop_assert_eq!(k2.labels.len(), pts.len());
        prop_assert!(k2.labels.iter().all(|&l| l < 2));
        let k5 = kmeans(&pts, 5.min(pts.len()), 9, 50).unwrap();
        // More clusters cannot be dramatically worse.
        prop_assert!(k5.inertia <= k2.inertia * 1.5 + 1e-9);
    }

    /// Affinity propagation always returns a valid clustering on
    /// well-formed inputs.
    #[test]
    fn affinity_valid(pts_raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..25)) {
        let pts: Vec<Vec<f64>> = pts_raw.iter().map(|&(a, b)| vec![a, b]).collect();
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        prop_assert!(!c.exemplars.is_empty());
        prop_assert_eq!(c.exemplar_of.len(), pts.len());
        for &e in &c.exemplar_of {
            prop_assert!(c.exemplars.contains(&e));
        }
        // Exemplars map to themselves.
        for &e in &c.exemplars {
            prop_assert_eq!(c.exemplar_of[e], e);
        }
    }

    /// Bootstrap intervals contain the point estimate for the mean.
    #[test]
    fn bootstrap_contains_point(xs in prop::collection::vec(-10.0f64..10.0, 2..60)) {
        let stat = |s: &Resample<'_, f64>| s.iter().sum::<f64>() / s.len() as f64;
        let ci = bootstrap_ci(&xs, stat, 100, 0.99, 3, &mut BootstrapScratch::new(), &mut || false)
            .unwrap()
            .unwrap();
        prop_assert!(ci.lo <= ci.hi);
        // 99% percentile interval over the resampling distribution should
        // cover the full-sample mean except in pathological tiny samples.
        prop_assert!(ci.lo - 1e-9 <= ci.point + (ci.width() + 1.0) && ci.hi + 1e-9 >= ci.point - (ci.width() + 1.0));
    }
}
