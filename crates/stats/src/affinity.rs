//! Affinity propagation clustering (Frey & Dueck, *Science* 2007).
//!
//! The paper clusters providers by (min-max scaled) usage and endemicity
//! ratio using affinity propagation (§5.2), which selects exemplars by
//! passing "responsibility" and "availability" messages between points. It
//! does not require choosing the number of clusters up front — the
//! *preference* (self-similarity) controls cluster granularity.
//!
//! This implementation uses the standard negative squared Euclidean
//! similarity, median preference by default, damped message updates, and
//! stops when the exemplar set is stable for `convergence_iter` sweeps.
//!
//! The sweeps run serially over cache tiles: both phases read the
//! matrices as contiguous runs instead of stride-`n` gathers, yet perform
//! the same floating-point operations in the same per-element order as
//! the textbook row/column loops, so the [`Clustering`] is bit-identical
//! to theirs (the test module keeps those loops as its oracle).

use serde::{Deserialize, Serialize};

/// Configuration for [`affinity_propagation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AffinityConfig {
    /// Damping factor in `[0.5, 1.0)`; larger is more stable but slower.
    pub damping: f64,
    /// Maximum message-passing sweeps.
    pub max_iter: usize,
    /// Stop after the exemplar set is unchanged for this many sweeps.
    pub convergence_iter: usize,
    /// Self-similarity (preference). `None` uses the median pairwise
    /// similarity, the classic default that yields a moderate number of
    /// clusters.
    pub preference: Option<f64>,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig {
            damping: 0.7,
            max_iter: 400,
            convergence_iter: 20,
            preference: None,
        }
    }
}

/// Rows per cache tile. One tile of `s` touches `TILE_ROWS` distinct
/// cache lines per matrix column step, which stays inside L1; the tiled
/// sweeps turn both phases' stride-`n` gathers into streaming passes.
const TILE_ROWS: usize = 64;

/// One message-passing sweep over `n` points with damping `lam`: updates
/// the responsibilities `r` (row-major) from the availabilities `a_t`
/// (column-major) and the similarities `s`, then `a_t` from the new `r`.
type Sweep = fn(r: &mut [f64], a_t: &mut [f64], s: &[f64], n: usize, lam: f64);

/// Result of a clustering run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    /// For each input point, the index of its exemplar point.
    pub exemplar_of: Vec<usize>,
    /// The distinct exemplar indices (cluster centers), ascending.
    pub exemplars: Vec<usize>,
    /// Sweeps executed before convergence (or `max_iter`).
    pub iterations: usize,
    /// Whether the exemplar set converged before `max_iter`.
    pub converged: bool,
}

impl Clustering {
    /// Number of clusters found.
    pub fn num_clusters(&self) -> usize {
        self.exemplars.len()
    }

    /// Cluster label (0-based, dense) per point.
    pub fn labels(&self) -> Vec<usize> {
        self.exemplar_of
            .iter()
            .map(|e| {
                self.exemplars
                    .binary_search(e)
                    .expect("exemplar_of entries are exemplars")
            })
            .collect()
    }

    /// Members of each cluster, indexed like [`Clustering::exemplars`].
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.exemplars.len()];
        for (i, label) in self.labels().into_iter().enumerate() {
            out[label].push(i);
        }
        out
    }
}

/// Negative squared Euclidean distance, the standard AP similarity.
fn similarity(a: &[f64], b: &[f64]) -> f64 {
    -a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
}

/// Clusters `points` (row-major feature vectors) with affinity propagation.
///
/// Returns `None` for empty input. A single point trivially clusters with
/// itself. Memory is `O(n^2)`; intended for up to a few thousand points
/// (cluster the provider universe, not the website universe).
pub fn affinity_propagation(points: &[Vec<f64>], config: &AffinityConfig) -> Option<Clustering> {
    propagate(points, config, tiled_sweep)
}

/// [`affinity_propagation`] with the sweep as a parameter, so the tests
/// can run the textbook loops through the same driver.
fn propagate(points: &[Vec<f64>], config: &AffinityConfig, sweep: Sweep) -> Option<Clustering> {
    let n = points.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(Clustering {
            exemplar_of: vec![0],
            exemplars: vec![0],
            iterations: 0,
            converged: true,
        });
    }
    assert!(
        (0.5..1.0).contains(&config.damping),
        "damping must be in [0.5, 1.0)"
    );
    // All-identical input is degenerate for message passing (every pairwise
    // similarity ties); it is trivially one cluster.
    if points.iter().all(|p| p == &points[0]) {
        return Some(Clustering {
            exemplar_of: vec![0; n],
            exemplars: vec![0],
            iterations: 0,
            converged: true,
        });
    }

    // Similarity matrix.
    let mut s = vec![0.0f64; n * n];
    let mut off_diag: Vec<f64> = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for k in 0..n {
            if i != k {
                let v = similarity(&points[i], &points[k]);
                s[i * n + k] = v;
                off_diag.push(v);
            }
        }
    }
    let preference = config.preference.unwrap_or_else(|| {
        off_diag.sort_by(|a, b| a.partial_cmp(b).expect("similarities are finite"));
        let m = off_diag.len();
        if m == 0 {
            0.0
        } else {
            (off_diag[(m - 1) / 2] + off_diag[m / 2]) / 2.0
        }
    });
    for k in 0..n {
        s[k * n + k] = preference;
    }
    // Tiny deterministic jitter to break symmetric ties (standard trick;
    // keeps e.g. two identical points from oscillating).
    for (idx, v) in s.iter_mut().enumerate() {
        let noise = ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64;
        *v += noise * 1e-12;
    }

    // `r` is row-major (r(i,k) = r[i*n+k]); availabilities are stored
    // column-major (a(i,k) = a_t[k*n+i]) so BOTH phases update contiguous
    // blocks: the responsibility phase walks rows of `r`, the availability
    // phase columns of `a` (= rows of `a_t`). The diagonal lands at index
    // `k*n+k` in either layout.
    let mut r = vec![0.0f64; n * n];
    let mut a_t = vec![0.0f64; n * n];
    let mut stable_sweeps = 0;
    let mut last_exemplars: Vec<usize> = Vec::new();
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..config.max_iter {
        iterations = it + 1;
        sweep(&mut r, &mut a_t, &s, n, config.damping);
        // Current exemplars.
        let exemplars: Vec<usize> = (0..n)
            .filter(|&k| r[k * n + k] + a_t[k * n + k] > 0.0)
            .collect();
        if !exemplars.is_empty() && exemplars == last_exemplars {
            stable_sweeps += 1;
            if stable_sweeps >= config.convergence_iter {
                converged = true;
                break;
            }
        } else {
            stable_sweeps = 0;
            last_exemplars = exemplars;
        }
    }

    let mut exemplars: Vec<usize> = (0..n)
        .filter(|&k| r[k * n + k] + a_t[k * n + k] > 0.0)
        .collect();
    if exemplars.is_empty() {
        // Degenerate run (e.g. max_iter too small): fall back to the point
        // with the best self-evidence so every caller gets a valid result.
        let best = (0..n)
            .max_by(|&x, &y| {
                (r[x * n + x] + a_t[x * n + x])
                    .partial_cmp(&(r[y * n + y] + a_t[y * n + y]))
                    .expect("messages are finite")
            })
            .expect("n > 0");
        exemplars.push(best);
    }
    // Assign each point to the most similar exemplar; exemplars to themselves.
    let exemplar_of: Vec<usize> = (0..n)
        .map(|i| {
            if exemplars.binary_search(&i).is_ok() {
                return i;
            }
            *exemplars
                .iter()
                .max_by(|&&x, &&y| {
                    s[i * n + x]
                        .partial_cmp(&s[i * n + y])
                        .expect("similarities are finite")
                })
                .expect("at least one exemplar")
        })
        .collect();

    Some(Clustering {
        exemplar_of,
        exemplars,
        iterations,
        converged,
    })
}

/// The cache-tiled [`Sweep`].
///
/// Responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k')).
/// For each (row-tile, k-tile) pair the tile of `a_t` is first transposed
/// into a row-major scratch (contiguous reads from `a_t`, L1-resident
/// writes), then each row's k-run is scanned as two zipped contiguous
/// slices. Per row, k still advances 0..n in order, so best/second/best_k
/// evolve exactly as in the row loop and the damped update computes the
/// same floats.
///
/// Availabilities: the positive-sum pass streams `r` row-slabs instead of
/// gathering stride-n columns, accumulating every column of the tile at
/// once; the diagonal term each column skips is handled by splitting that
/// one row's run, never by a branch in the inner loop. Each column's sum
/// still accumulates over i = 0..n in order, so the float result is
/// identical. The same pass transposes the slab into `rt` so the update
/// pass reads each column contiguously; the i == k slot is the only one
/// with a different formula, so the update runs branch-free over the
/// whole column and then redoes that one slot from its saved old value.
fn tiled_sweep(r: &mut [f64], a_t: &mut [f64], s: &[f64], n: usize, lam: f64) {
    for (t, tile) in r.chunks_mut(TILE_ROWS * n).enumerate() {
        let i0 = t * TILE_ROWS;
        let rows = tile.len() / n;
        let mut best = vec![f64::NEG_INFINITY; rows];
        let mut second = vec![f64::NEG_INFINITY; rows];
        let mut best_k = vec![usize::MAX; rows];
        let mut a_tile = vec![0.0f64; rows * TILE_ROWS];
        let mut v_run = [0.0f64; TILE_ROWS];
        for k0 in (0..n).step_by(TILE_ROWS) {
            let kt = TILE_ROWS.min(n - k0);
            for dk in 0..kt {
                let a_run = &a_t[(k0 + dk) * n + i0..(k0 + dk) * n + i0 + rows];
                for (j, &av) in a_run.iter().enumerate() {
                    a_tile[j * TILE_ROWS + dk] = av;
                }
            }
            for j in 0..rows {
                let s_run = &s[(i0 + j) * n + k0..(i0 + j) * n + k0 + kt];
                let a_run = &a_tile[j * TILE_ROWS..j * TILE_ROWS + kt];
                // Branch-free sum and max over the run, then a serial
                // top-2 refinement only when the run can actually change
                // best/second. Skipping a run whose max is <= second is
                // exact: the row loop would have left (best, second,
                // best_k) untouched for every such element.
                for ((vd, &av), &sv) in v_run[..kt].iter_mut().zip(a_run).zip(s_run) {
                    *vd = av + sv;
                }
                let run_max = v_run[..kt].iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
                if run_max <= second[j] {
                    continue;
                }
                let (mut b1, mut b2, mut bk) = (best[j], second[j], best_k[j]);
                for (dk, &v) in v_run[..kt].iter().enumerate() {
                    if v > b1 {
                        b2 = b1;
                        b1 = v;
                        bk = k0 + dk;
                    } else if v > b2 {
                        b2 = v;
                    }
                }
                best[j] = b1;
                second[j] = b2;
                best_k[j] = bk;
            }
        }
        for (j, r_row) in tile.chunks_mut(n).enumerate() {
            let s_row = &s[(i0 + j) * n..(i0 + j + 1) * n];
            let (b1, b2, bk) = (best[j], second[j], best_k[j]);
            // The best_k element is the only one whose subtrahend differs;
            // compute the whole row against `best` without a branch, then
            // redo that one slot from its saved old value against `second`.
            let old_rbk = r_row[bk];
            for (rv, &sv) in r_row.iter_mut().zip(s_row) {
                *rv = lam * *rv + (1.0 - lam) * (sv - b1);
            }
            r_row[bk] = lam * old_rbk + (1.0 - lam) * (s_row[bk] - b2);
        }
    }
    let r = &*r;
    for (t, tile) in a_t.chunks_mut(TILE_ROWS * n).enumerate() {
        let k0 = t * TILE_ROWS;
        let cols = tile.len() / n;
        let mut pos = vec![0.0f64; cols];
        let mut rt = vec![0.0f64; cols * n];
        for i in 0..n {
            let r_row = &r[i * n + k0..i * n + k0 + cols];
            for (j, &rv) in r_row.iter().enumerate() {
                rt[j * n + i] = rv;
            }
            if i >= k0 && i < k0 + cols {
                let d = i - k0;
                for (pj, &rv) in pos[..d].iter_mut().zip(&r_row[..d]) {
                    *pj += rv.max(0.0);
                }
                for (pj, &rv) in pos[d + 1..].iter_mut().zip(&r_row[d + 1..]) {
                    *pj += rv.max(0.0);
                }
            } else {
                for (pj, &rv) in pos.iter_mut().zip(r_row) {
                    *pj += rv.max(0.0);
                }
            }
        }
        for (j, a_col) in tile.chunks_mut(n).enumerate() {
            let k = k0 + j;
            let rkk = r[k * n + k];
            let pos_sum = pos[j];
            let rt_col = &rt[j * n..(j + 1) * n];
            let old_ak = a_col[k];
            for (av, &rv) in a_col.iter_mut().zip(rt_col) {
                let new_a = (rkk + (pos_sum - rv.max(0.0))).min(0.0);
                *av = lam * *av + (1.0 - lam) * new_a;
            }
            a_col[k] = lam * old_ak + (1.0 - lam) * pos_sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_points() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..8 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0 + 0.013 * i as f64]);
        }
        for i in 0..8 {
            pts.push(vec![1.0 + 0.01 * i as f64, 1.0 - 0.008 * i as f64]);
        }
        pts
    }

    /// The textbook row/column loops the tiled sweep must reproduce
    /// bit-for-bit: each row of `r` scans k = 0..n for the top two
    /// a(i,k') + s(i,k'), each column of `a_t` sums r(i,k)⁺ over i = 0..n.
    fn untiled_sweep(r: &mut [f64], a_t: &mut [f64], s: &[f64], n: usize, lam: f64) {
        for (i, r_row) in r.chunks_mut(n).enumerate() {
            let mut best = f64::NEG_INFINITY;
            let mut second = f64::NEG_INFINITY;
            let mut best_k = usize::MAX;
            for k in 0..n {
                let v = a_t[k * n + i] + s[i * n + k];
                if v > best {
                    second = best;
                    best = v;
                    best_k = k;
                } else if v > second {
                    second = v;
                }
            }
            for (k, rv) in r_row.iter_mut().enumerate() {
                let max_other = if k == best_k { second } else { best };
                let new_r = s[i * n + k] - max_other;
                *rv = lam * *rv + (1.0 - lam) * new_r;
            }
        }
        for (k, a_col) in a_t.chunks_mut(n).enumerate() {
            let mut pos_sum = 0.0;
            for i in 0..n {
                if i != k {
                    pos_sum += r[i * n + k].max(0.0);
                }
            }
            let rkk = r[k * n + k];
            for (i, av) in a_col.iter_mut().enumerate() {
                let new_a = if i == k {
                    pos_sum
                } else {
                    let without_i = pos_sum - r[i * n + k].max(0.0);
                    (rkk + without_i).min(0.0)
                };
                *av = lam * *av + (1.0 - lam) * new_a;
            }
        }
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blob_points();
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        assert!(c.converged, "should converge on well-separated blobs");
        assert_eq!(c.num_clusters(), 2, "exemplars: {:?}", c.exemplars);
        let labels = c.labels();
        // All of the first blob shares a label; all of the second shares the
        // other.
        assert!(labels[..8].iter().all(|&l| l == labels[0]));
        assert!(labels[8..].iter().all(|&l| l == labels[8]));
        assert_ne!(labels[0], labels[8]);
    }

    #[test]
    fn single_point() {
        let c = affinity_propagation(&[vec![1.0, 2.0]], &AffinityConfig::default()).unwrap();
        assert_eq!(c.exemplars, vec![0]);
        assert_eq!(c.exemplar_of, vec![0]);
        assert!(c.converged);
    }

    #[test]
    fn empty_input() {
        assert!(affinity_propagation(&[], &AffinityConfig::default()).is_none());
    }

    #[test]
    fn identical_points_form_one_cluster() {
        let pts = vec![vec![0.5, 0.5]; 6];
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        assert_eq!(c.num_clusters(), 1, "{:?}", c.exemplars);
    }

    #[test]
    fn low_preference_fewer_clusters() {
        let pts = two_blob_points();
        let tight = affinity_propagation(
            &pts,
            &AffinityConfig {
                preference: Some(-100.0),
                ..AffinityConfig::default()
            },
        )
        .unwrap();
        let loose = affinity_propagation(
            &pts,
            &AffinityConfig {
                preference: Some(-0.0001),
                ..AffinityConfig::default()
            },
        )
        .unwrap();
        assert!(tight.num_clusters() <= loose.num_clusters());
        assert!(loose.num_clusters() >= 2);
    }

    #[test]
    fn members_partition_points() {
        let pts = two_blob_points();
        let c = affinity_propagation(&pts, &AffinityConfig::default()).unwrap();
        let members = c.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, pts.len());
        // Each exemplar belongs to its own cluster.
        for (label, &ex) in c.exemplars.iter().enumerate() {
            assert!(members[label].contains(&ex));
        }
    }

    /// Deterministic pseudo-random points (no RNG dependency in tests):
    /// xorshift over the index, mapped into [0, 1)³.
    fn synthetic_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 11) as f64 / (1u64 << 53) as f64
                };
                vec![next(), next(), next()]
            })
            .collect()
    }

    #[test]
    fn tiled_sweeps_match_baseline_exactly() {
        // The cache-tiled sweeps must reproduce the textbook loops
        // bit-for-bit at every point count — including sizes straddling a
        // tile boundary.
        for n in [2usize, 17, 63, 64, 65, 150, 400] {
            let pts = synthetic_points(n);
            let config = AffinityConfig::default();
            let baseline = propagate(&pts, &config, untiled_sweep).unwrap();
            let tiled = affinity_propagation(&pts, &config).unwrap();
            assert_eq!(baseline, tiled, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_validated() {
        let _ = affinity_propagation(
            &[vec![0.0], vec![1.0]],
            &AffinityConfig {
                damping: 1.5,
                ..AffinityConfig::default()
            },
        );
    }
}
