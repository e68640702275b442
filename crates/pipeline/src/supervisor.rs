//! Worker supervision: heartbeats, the watchdog, work requeueing with a
//! poison policy, and the seeded chaos schedules that exercise them.
//!
//! The measurement run is a long batch job where partial failure is the
//! norm. The supervision layer guarantees that no single site — and no
//! single worker — can take the run down:
//!
//! * every site is measured under `catch_unwind`, so a panic becomes a
//!   [`FailureCause::Internal`](crate::dataset::FailureCause::Internal)
//!   observation instead of a process abort;
//! * workers publish **heartbeats** (an atomic last-progress stamp per
//!   worker); the supervisor declares a worker *lost* when its thread dies
//!   with a batch in flight, or *hung* when its heartbeat goes stale past
//!   the configured deadline;
//! * a lost worker's in-flight batch is **requeued** with a poison count,
//!   so another worker retries it — but a batch that has already killed
//!   [`SupervisorConfig::poison_threshold`] workers is recorded as failed
//!   ([`FailureCause::Internal`](crate::dataset::FailureCause::Internal))
//!   rather than retried forever;
//! * replacement workers are respawned up to
//!   [`SupervisorConfig::max_respawns`].
//!
//! [`ChaosPlan`] extends the seeded [`webdep_netsim::FaultPlan`]
//! discipline from servers to the measuring workers themselves: panic and
//! worker-kill decisions are pure functions of `(seed, site, attempt)`,
//! never of wall-clock or thread identity, so chaos runs are reproducible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Supervision tuning knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Watchdog budget per site: a worker whose heartbeat is older than
    /// this while it holds an in-flight batch is declared hung and its
    /// batch requeued. Must comfortably exceed the worst-case single-site
    /// wall-clock (resolver + scanner deadlines).
    pub site_deadline: Duration,
    /// Batches that kill this many workers are recorded as failed instead
    /// of being requeued again.
    pub poison_threshold: u32,
    /// Replacement workers the supervisor may spawn over the whole run.
    pub max_respawns: usize,
    /// Supervisor polling interval.
    pub tick: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            site_deadline: Duration::from_secs(30),
            poison_threshold: 2,
            max_respawns: 8,
            tick: Duration::from_millis(2),
        }
    }
}

/// A contiguous slice of site indices owned by one worker, with the
/// number of workers it has killed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// First site index not yet completed.
    pub lo: usize,
    /// One past the last site index.
    pub hi: usize,
    /// Workers this batch has killed (the retry/poison count).
    pub poison: u32,
}

impl Batch {
    /// A fresh, unpoisoned batch covering `lo..hi`.
    pub fn new(lo: usize, hi: usize) -> Self {
        Batch { lo, hi, poison: 0 }
    }

    /// Whether no sites remain.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// Per-worker state shared between a worker thread and the supervisor.
#[derive(Debug, Default)]
pub struct WorkerSlot {
    /// Milliseconds since the run epoch at the worker's last progress
    /// step (written by the worker before each site).
    pub heartbeat: AtomicU64,
    /// Set by the supervisor; the worker abandons its work and exits at
    /// the next check.
    pub canceled: AtomicBool,
    /// The batch the worker currently holds. The worker advances `lo` as
    /// sites complete; the supervisor `take`s it on loss to requeue the
    /// remainder.
    pub in_flight: Mutex<Option<Batch>>,
}

impl WorkerSlot {
    /// Whether the supervisor has canceled this worker.
    pub fn is_canceled(&self) -> bool {
        self.canceled.load(Ordering::Relaxed)
    }
}

/// The shared work source: an atomic cursor handing out fresh batches
/// plus a requeue list fed by the supervisor.
#[derive(Debug)]
pub struct WorkQueue {
    cursor: AtomicU64,
    n: usize,
    batch: usize,
    requeued: Mutex<Vec<Batch>>,
}

impl WorkQueue {
    /// A queue over `n` sites handing out `batch`-sized fresh batches.
    pub fn new(n: usize, batch: usize) -> Self {
        WorkQueue {
            cursor: AtomicU64::new(0),
            n,
            batch: batch.max(1),
            requeued: Mutex::new(Vec::new()),
        }
    }

    /// Claims the next fresh batch from the cursor, if any remain.
    pub fn claim_fresh(&self) -> Option<Batch> {
        let lo = (self.cursor.fetch_add(self.batch as u64, Ordering::Relaxed) as usize).min(self.n);
        let hi = (lo + self.batch).min(self.n);
        (lo < hi).then(|| Batch::new(lo, hi))
    }

    /// Claims a requeued batch (takes priority over fresh work so a dead
    /// worker's sites are retried promptly).
    pub fn claim_requeued(&self) -> Option<Batch> {
        self.requeued
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
    }

    /// Returns a lost worker's in-flight remainder for another worker.
    pub fn requeue(&self, batch: Batch) {
        self.requeued
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(batch);
    }

    /// Drains everything still claimable — used by the supervisor when no
    /// workers remain to fail the leftover sites deterministically.
    pub fn drain(&self) -> Vec<Batch> {
        let mut out = Vec::new();
        while let Some(b) = self.claim_requeued() {
            out.push(b);
        }
        while let Some(b) = self.claim_fresh() {
            out.push(b);
        }
        out
    }
}

/// Supervision accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Site measurements that panicked and were isolated into
    /// `FailureCause::Internal` observations.
    pub panics_isolated: u64,
    /// Workers declared lost (thread died or heartbeat went stale with a
    /// batch in flight).
    pub workers_lost: u64,
    /// Replacement workers spawned.
    pub workers_respawned: u64,
    /// In-flight batches requeued after a worker loss.
    pub batches_requeued: u64,
    /// Sites recorded as failed because their batch hit the poison
    /// threshold (or no workers remained).
    pub sites_poisoned: u64,
    /// Sites restored from a store or journal instead of being
    /// remeasured.
    pub sites_resumed: u64,
}

const CHAOS_KILL_SALT: u64 = 0x6b69_6c6c_7730_726b;
const CHAOS_PANIC_SALT: u64 = 0x7061_6e69_6373_6974;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded, deterministic schedule of worker-level failures, extending
/// the [`webdep_netsim::FaultPlan`] discipline (pure, seeded decisions)
/// from the measured infrastructure to the measuring workers.
///
/// Every decision is a pure function of `(seed, site, attempt)` — the
/// attempt count being the batch's poison counter — so chaos runs are
/// reproducible for a fixed configuration. (Unlike server faults, *which*
/// sites share a batch depends on scheduling, so chaos datasets are only
/// pinned for a fixed worker count and scheduling mode.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the rate-based schedules.
    pub seed: u64,
    /// Probability a worker dies upon starting any given `(site, attempt)`.
    pub kill_rate: f64,
    /// Probability that measuring a site panics (pure per site).
    pub panic_rate: f64,
    /// Sites that kill their worker on the first attempt only.
    pub kill_sites: Vec<usize>,
    /// Sites that kill their worker on *every* attempt — guaranteed to
    /// end poisoned.
    pub poison_sites: Vec<usize>,
    /// Sites whose measurement panics.
    pub panic_sites: Vec<usize>,
    /// Sites that hang their worker (first attempt only) until the
    /// watchdog cancels it.
    pub hang_sites: Vec<usize>,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Rate-based worker kills only.
    pub fn kills_only(seed: u64, kill_rate: f64) -> Self {
        ChaosPlan {
            seed,
            kill_rate,
            ..ChaosPlan::default()
        }
    }

    /// Rate-based site panics only.
    pub fn panics_only(seed: u64, panic_rate: f64) -> Self {
        ChaosPlan {
            seed,
            panic_rate,
            ..ChaosPlan::default()
        }
    }

    /// Kill the worker on the first attempt of each listed site.
    pub fn kill_at(sites: &[usize]) -> Self {
        ChaosPlan {
            kill_sites: sites.to_vec(),
            ..ChaosPlan::default()
        }
    }

    /// Kill the worker on every attempt of each listed site (the site is
    /// guaranteed to end poisoned).
    pub fn poison_at(sites: &[usize]) -> Self {
        ChaosPlan {
            poison_sites: sites.to_vec(),
            ..ChaosPlan::default()
        }
    }

    /// Panic while measuring each listed site.
    pub fn panic_at(sites: &[usize]) -> Self {
        ChaosPlan {
            panic_sites: sites.to_vec(),
            ..ChaosPlan::default()
        }
    }

    /// Hang the worker on the first attempt of each listed site.
    pub fn hang_at(sites: &[usize]) -> Self {
        ChaosPlan {
            hang_sites: sites.to_vec(),
            ..ChaosPlan::default()
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.kill_rate > 0.0
            || self.panic_rate > 0.0
            || !self.kill_sites.is_empty()
            || !self.poison_sites.is_empty()
            || !self.panic_sites.is_empty()
            || !self.hang_sites.is_empty()
    }

    /// Whether the worker starting `site` on this `attempt` (the batch's
    /// poison count) dies. Pure in `(seed, site, attempt)`.
    pub fn kills(&self, site: usize, attempt: u32) -> bool {
        if self.poison_sites.contains(&site) {
            return true;
        }
        if attempt == 0 && self.kill_sites.contains(&site) {
            return true;
        }
        self.kill_rate > 0.0
            && unit_f64(splitmix64(
                self.seed ^ CHAOS_KILL_SALT ^ (site as u64) ^ ((attempt as u64) << 48),
            )) < self.kill_rate
    }

    /// Whether measuring `site` panics. Pure in `(seed, site)`.
    pub fn panics(&self, site: usize) -> bool {
        if self.panic_sites.contains(&site) {
            return true;
        }
        self.panic_rate > 0.0
            && unit_f64(splitmix64(self.seed ^ CHAOS_PANIC_SALT ^ (site as u64))) < self.panic_rate
    }

    /// Whether the worker starting `site` on this `attempt` hangs until
    /// the watchdog cancels it (first attempt only, so the retry succeeds).
    pub fn hangs(&self, site: usize, attempt: u32) -> bool {
        attempt == 0 && self.hang_sites.contains(&site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_injects_nothing() {
        let plan = ChaosPlan::none();
        assert!(!plan.is_active());
        for i in 0..512 {
            for a in 0..3 {
                assert!(!plan.kills(i, a));
                assert!(!plan.hangs(i, a));
            }
            assert!(!plan.panics(i));
        }
    }

    #[test]
    fn chaos_decisions_are_pure_and_rate_respecting() {
        let plan = ChaosPlan {
            seed: 11,
            kill_rate: 0.3,
            panic_rate: 0.2,
            ..ChaosPlan::default()
        };
        let kills: Vec<bool> = (0..4000).map(|i| plan.kills(i, 0)).collect();
        let again: Vec<bool> = (0..4000).map(|i| plan.kills(i, 0)).collect();
        assert_eq!(kills, again, "kill schedule must be pure");
        let rate = kills.iter().filter(|&&k| k).count() as f64 / kills.len() as f64;
        assert!((rate - 0.3).abs() < 0.05, "kill rate {rate}");
        // A retry rolls independently of the first attempt.
        assert_ne!(
            kills,
            (0..4000).map(|i| plan.kills(i, 1)).collect::<Vec<_>>()
        );
        let panics = (0..4000).filter(|&i| plan.panics(i)).count() as f64 / 4000.0;
        assert!((panics - 0.2).abs() < 0.05, "panic rate {panics}");
    }

    #[test]
    fn targeted_schedules_fire_exactly_where_told() {
        let plan = ChaosPlan::kill_at(&[3, 9]);
        assert!(plan.is_active());
        assert!(plan.kills(3, 0) && plan.kills(9, 0));
        assert!(!plan.kills(3, 1), "targeted kills fire on attempt 0 only");
        assert!(!plan.kills(4, 0));

        let poison = ChaosPlan::poison_at(&[7]);
        assert!(poison.kills(7, 0) && poison.kills(7, 1) && poison.kills(7, 5));

        let hang = ChaosPlan::hang_at(&[2]);
        assert!(hang.hangs(2, 0) && !hang.hangs(2, 1));
    }

    #[test]
    fn work_queue_hands_out_requeued_batches_first() {
        let q = WorkQueue::new(40, 16);
        let b1 = q.claim_fresh().unwrap();
        assert_eq!((b1.lo, b1.hi), (0, 16));
        q.requeue(Batch {
            lo: 5,
            hi: 16,
            poison: 1,
        });
        let r = q.claim_requeued().unwrap();
        assert_eq!((r.lo, r.hi, r.poison), (5, 16, 1));
        assert_eq!(q.claim_requeued(), None);
        let b2 = q.claim_fresh().unwrap();
        let b3 = q.claim_fresh().unwrap();
        assert_eq!((b2.lo, b2.hi), (16, 32));
        assert_eq!((b3.lo, b3.hi), (32, 40));
        assert_eq!(q.claim_fresh(), None);
    }

    #[test]
    fn drain_collects_all_remaining_work() {
        let q = WorkQueue::new(20, 8);
        let _ = q.claim_fresh();
        q.requeue(Batch {
            lo: 2,
            hi: 8,
            poison: 1,
        });
        let drained = q.drain();
        let sites: usize = drained.iter().map(|b| b.hi - b.lo).sum();
        assert_eq!(sites, 6 + 12, "requeued remainder + unclaimed cursor work");
        assert!(q.claim_fresh().is_none() && q.claim_requeued().is_none());
    }
}
