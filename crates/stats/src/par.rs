//! Minimal scoped-thread parallel map.
//!
//! The analysis layer fans the same pure computation over many independent
//! inputs (150 countries × 5 layers of centralization scores). This module
//! provides just enough parallelism for that: a work-stealing-ish map over
//! an index range using `std::thread::scope`, an atomic cursor instead of
//! static chunking (so a slow item does not idle the other threads), and
//! results returned in index order so callers stay deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on threads when the caller does not choose one.
const MAX_DEFAULT_THREADS: usize = 8;

/// A sensible default thread count: available parallelism, capped.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_DEFAULT_THREADS)
}

/// Applies `f` to every index in `0..n` using up to `threads` scoped
/// threads, returning results in index order.
///
/// `f` must be pure with respect to ordering: results are identical to
/// `(0..n).map(f).collect()` no matter how the work interleaves. With
/// `threads <= 1` (or a single index) the map runs inline.
pub fn par_map_indices<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    // Workers pull the next index from a shared cursor, collect (index,
    // result) pairs locally, and the results are scattered back into input
    // order at the end. No unsafe, no per-item locking.
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });

    let pairs = collected.into_inner().unwrap();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in pairs {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7, 8] {
            assert_eq!(
                par_map_indices(items.len(), threads, |i| items[i] * items[i]),
                seq
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(par_map_indices(0, 4, |i| i).is_empty());
        assert_eq!(par_map_indices(1, 4, |i| i + 6), vec![6]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map_indices(3, 64, |i| (i + 1) * 10), vec![10, 20, 30]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items at the front are much slower; the atomic cursor should let
        // other threads drain the rest rather than idling.
        let out = par_map_indices(64, 4, |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<usize>>());
    }
}
