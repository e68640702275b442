//! The measurement run: parallel resolve + scan + enrich, under
//! supervision.
//!
//! Two scheduler/caching knobs govern how the run scales:
//!
//! * [`Scheduling::Dynamic`] (the default) feeds workers from a shared
//!   atomic cursor in small batches, so a worker that lands on slow sites
//!   does not leave the rest of its statically assigned shard idle.
//!   [`Scheduling::Static`] keeps the original contiguous-shard split.
//! * `shared_cache` layers one process-wide [`SharedDnsCache`] under every
//!   worker's private resolver cache, so the delegation tier (root, TLD
//!   referrals) is walked roughly once per run instead of once per worker.
//!
//! Both knobs change only *when and where* work happens, never the result:
//! `measure` returns a byte-identical dataset for any worker count,
//! scheduling mode, and cache setting.
//!
//! On top of the scheduler sits the supervision layer (see
//! [`crate::supervisor`]): every site is measured under `catch_unwind`
//! (a panic becomes a [`FailureCause::Internal`] observation, never a
//! process abort), workers publish heartbeats and hand each completed
//! observation to a shared collector immediately, and the supervisor
//! requeues a lost worker's in-flight batch and respawns replacements.
//! Because per-site measurement is deterministic, a requeued batch
//! re-measures to identical bytes — worker loss costs wall-clock, not
//! correctness. [`measure_streamed`] can additionally checkpoint every
//! completed observation to an append-only journal of one-row chunks
//! ([`crate::journal`]), and [`resume_streamed`] continues a crashed run,
//! provably reassembling a byte-identical store.

use crate::dataset::{FailureCause, LayerError, MeasuredDataset, SiteObservation};
use crate::journal::{self, JournalWriter};
use crate::store::{ChunkStoreWriter, DEFAULT_CHUNK_SITES};
use crate::supervisor::{
    Batch, ChaosPlan, SupervisionStats, SupervisorConfig, WorkQueue, WorkerSlot,
};
use std::any::Any;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use webdep_dns::resolver::{IterativeResolver, ResolveError, ResolverConfig};
use webdep_dns::shared_cache::SharedDnsCache;
use webdep_dns::DomainName;
use webdep_geodb::{AnycastSet, AsOrgDb, CaOwnerDb, GeoDb, PrefixTable};
use webdep_tls::scanner::{Scanner, ScannerConfig};
use webdep_webgen::{Continent, DeployedWorld, World};

/// How sites are handed to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Pre-split the site list into one contiguous shard per worker.
    Static,
    /// Workers pull fixed-size batches from a shared atomic cursor.
    #[default]
    Dynamic,
}

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Worker threads (each gets its own resolver cache and scanner).
    pub workers: usize,
    /// Vantage continent for the primary measurement (the paper measures
    /// from Stanford: North America).
    pub vantage: Continent,
    /// Resolver tuning.
    pub resolver: ResolverConfig,
    /// Scanner tuning.
    pub scanner: ScannerConfig,
    /// Work distribution strategy.
    pub scheduling: Scheduling,
    /// Share one delegation/answer cache across all workers.
    pub shared_cache: bool,
    /// Supervision tuning: watchdog deadline, poison threshold, respawn
    /// budget.
    pub supervisor: SupervisorConfig,
    /// Seeded chaos schedule (worker kills / panics / hangs) for
    /// resilience tests and benches; `None` injects nothing.
    pub chaos: Option<ChaosPlan>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 8,
            vantage: Continent::NorthAmerica,
            resolver: ResolverConfig::default(),
            scanner: ScannerConfig::default(),
            scheduling: Scheduling::Dynamic,
            shared_cache: true,
            supervisor: SupervisorConfig::default(),
            chaos: None,
        }
    }
}

/// Sites per pull from the dynamic work queue: small enough to balance
/// slow sites across workers, large enough that the cursor is cold.
const DYNAMIC_BATCH: usize = 16;

/// Throughput and cache accounting for one [`measure_with_stats`] run.
#[derive(Debug, Clone)]
pub struct MeasureStats {
    /// Wall-clock duration of the parallel section.
    pub wall: Duration,
    /// Sites measured per wall-clock second.
    pub sites_per_sec: f64,
    /// DNS queries that actually hit the simulated wire (all workers).
    pub wire_queries: u64,
    /// Answers served from workers' private resolver caches.
    pub local_cache_hits: u64,
    /// Answers/delegations served from the shared cache tier.
    pub shared_cache_hits: u64,
    /// Per-worker busy time (from spawn to last site finished), including
    /// workers that were lost mid-run.
    pub worker_busy: Vec<Duration>,
    /// Largest fraction of the wall clock any worker spent idle, i.e. done
    /// but waiting for stragglers. Static sharding drives this up; the
    /// dynamic queue keeps it near zero.
    pub peak_idle_fraction: f64,
    /// DNS replies discarded as undecodable (truncated/corrupt datagrams),
    /// summed over all workers.
    pub malformed_datagrams: u64,
    /// DNS replies discarded for a transaction-id mismatch (garbled or
    /// stale datagrams), summed over all workers.
    pub mismatched_ids: u64,
    /// TLS server flights discarded as malformed, summed over all workers.
    pub malformed_flights: u64,
    /// Supervision accounting: panics isolated, workers lost/respawned,
    /// batches requeued, sites poisoned or resumed.
    pub supervision: SupervisionStats,
}

/// What one worker brings home (observations are handed to the shared
/// collector per site; only accounting comes back through the handle).
struct WorkerReport {
    busy: Duration,
    wire_queries: u64,
    local_cache_hits: u64,
    shared_cache_hits: u64,
    malformed_datagrams: u64,
    mismatched_ids: u64,
    malformed_flights: u64,
    panics_isolated: u64,
}

/// Where committed observations land; workers share it behind a mutex.
///
/// The resident sink is the in-memory path: one slot per site, assembled
/// into a [`MeasuredDataset`] when the run ends. The streaming sink
/// instead hands each observation to the chunked columnar store
/// ([`crate::store`]) and *drops it* — peak memory is bounded by the
/// scheduler's batch spread, not the world size, which is what lets
/// million-site runs fit in a laptop's RAM. Only a streaming run can carry
/// a crash journal, which records each observation in the same breath as
/// the store, so a worker loss can never lose a committed site.
pub(crate) enum Sink {
    /// One in-memory slot per site.
    Resident(Vec<Option<SiteObservation>>),
    /// Observations flow into the chunk store (and the journal, when
    /// enabled); only a done-bitmap stays resident.
    Streaming {
        done: Vec<bool>,
        store: ChunkStoreWriter,
        /// Boxed: the writer carries its reused record encoder.
        journal: Option<Box<JournalWriter>>,
        /// The first store or journal error; writing stops there, while
        /// measuring runs on so the run still completes.
        error: Option<io::Error>,
    },
}

impl Sink {
    /// A streaming sink over `store` with the `done` sites already in it.
    pub(crate) fn streaming(
        done: Vec<bool>,
        store: ChunkStoreWriter,
        journal: Option<JournalWriter>,
    ) -> Self {
        Sink::Streaming {
            done,
            store,
            journal: journal.map(Box::new),
            error: None,
        }
    }

    fn is_done(&self, site: usize) -> bool {
        match self {
            Sink::Resident(slots) => slots[site].is_some(),
            Sink::Streaming { done, .. } => done[site],
        }
    }

    /// Commits one observation if the site is still unclaimed. Duplicate
    /// commits (a requeued batch re-measuring a site its dead worker had
    /// already committed is impossible, but a worker declared hung while
    /// actually alive can race its replacement) are idempotent: first
    /// write wins, and determinism makes both writes byte-identical.
    fn commit(&mut self, site: usize, obs: SiteObservation) -> bool {
        if self.is_done(site) {
            return false;
        }
        match self {
            Sink::Resident(slots) => slots[site] = Some(obs),
            Sink::Streaming {
                done,
                store,
                journal,
                error,
            } => {
                done[site] = true;
                if error.is_none() {
                    let written = match journal {
                        Some(j) => j.append(site, &obs),
                        None => Ok(()),
                    }
                    .and_then(|()| store.commit(site, &obs));
                    if let Err(e) = written {
                        *error = Some(e);
                    }
                }
            }
        }
        true
    }
}

/// Measures every site of `world` against its deployment, returning the
/// enriched dataset.
///
/// Only the active-measurement outputs come from the network; `language`
/// is copied from the site record (the LangDetect substitute) and toplist
/// membership from the CrUX stand-in.
pub fn measure(world: &World, dep: &DeployedWorld, config: &PipelineConfig) -> MeasuredDataset {
    measure_with_stats(world, dep, config).0
}

/// Like [`measure`], but also reports throughput, cache, and supervision
/// accounting.
pub fn measure_with_stats(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
) -> (MeasuredDataset, MeasureStats) {
    let sink = Sink::Resident((0..world.sites.len()).map(|_| None).collect());
    let (sink, stats) = run_supervised(world, dep, config, sink, 0);
    (assemble_resident(world, sink), stats)
}

/// Like [`measure_with_stats`], but observations stream into a chunked
/// columnar store ([`crate::store`]) at `store_dir` instead of
/// accumulating in memory: each completed site is committed to its chunk
/// and dropped, so peak RSS is bounded by the scheduler's batch spread,
/// not the world size. The store is certified byte-identical to the
/// resident path's dataset (same determinism contract), and
/// `journal_path` optionally checkpoints the run for [`resume_streamed`].
pub fn measure_streamed(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    store_dir: &Path,
    journal_path: Option<&Path>,
) -> io::Result<MeasureStats> {
    let n = world.sites.len();
    let store = ChunkStoreWriter::create(store_dir, &world.label, n, DEFAULT_CHUNK_SITES)?;
    let journal = journal_path
        .map(|p| JournalWriter::create(p, &world.label, n))
        .transpose()?;
    let sink = Sink::streaming(vec![false; n], store, journal);
    let (sink, stats) = run_supervised(world, dep, config, sink, 0);
    finish_streaming(world, sink, stats)
}

/// Continues a crashed [`measure_streamed`] run.
///
/// Three tiers of recovery compose here: chunks already durable on disk
/// keep their sites wholesale (no re-measurement, no journal needed);
/// sites journaled but caught in a torn or never-flushed chunk are
/// re-committed into the writer, healing the chunk to identical bytes;
/// everything else is re-measured. The finished store is byte-identical
/// to an uninterrupted run's.
pub fn resume_streamed(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    store_dir: &Path,
    journal_path: &Path,
) -> io::Result<MeasureStats> {
    let n = world.sites.len();
    let loaded = journal::open(journal_path, &world.label, n)?;
    let mut store = ChunkStoreWriter::resume(store_dir, &world.label, n, DEFAULT_CHUNK_SITES)?;
    let mut done: Vec<bool> = (0..n).map(|i| store.site_durable(i)).collect();
    for (i, obs) in &loaded.records {
        if !done[*i] {
            store.commit(*i, obs)?;
            done[*i] = true;
        }
    }
    let resumed = done.iter().filter(|&&d| d).count();
    let writer = JournalWriter::append_loaded(journal_path, &loaded)?;
    let sink = Sink::streaming(done, store, Some(writer));
    let (sink, stats) = run_supervised(world, dep, config, sink, resumed);
    finish_streaming(world, sink, stats)
}

/// Shared tail of the streaming entry points: make the journal durable,
/// surface the first error, fill any never-measured site with the same
/// deterministic internal failure the resident assembly uses, and
/// finalize the store.
pub(crate) fn finish_streaming(
    world: &World,
    sink: Sink,
    stats: MeasureStats,
) -> io::Result<MeasureStats> {
    let Sink::Streaming {
        done,
        mut store,
        journal,
        error,
    } = sink
    else {
        unreachable!("streaming entry points build a streaming sink")
    };
    if let Some(e) = error {
        return Err(e);
    }
    if let Some(mut j) = journal {
        j.sync()?;
    }
    for (i, was_done) in done.iter().enumerate() {
        if !was_done {
            let site = &world.sites[i];
            let obs = SiteObservation::internal_failure(
                &site.domain,
                &site.language,
                "internal: site never measured",
            );
            store.commit(i, &obs)?;
        }
    }
    store.finish()?;
    Ok(stats)
}

/// The supervised run underneath every public entry point.
///
/// The scope's main thread doubles as the supervisor: it scans worker
/// heartbeats and join handles every `tick`, requeues (or poisons) the
/// in-flight batch of a lost worker, respawns replacements up to the
/// budget, and fails leftover sites deterministically if the run would
/// otherwise deadlock with no workers left.
pub(crate) fn run_supervised(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    sink: Sink,
    resumed: usize,
) -> (Sink, MeasureStats) {
    let n = world.sites.len();
    let workers = config.workers.max(1);
    let sup_cfg = config.supervisor.clone();
    let chaos = config.chaos.clone().unwrap_or_default();
    let deadline_ms = sup_cfg.site_deadline.as_millis() as u64;

    let done_at_start: Vec<bool> = (0..n).map(|i| sink.is_done(i)).collect();
    let completed = AtomicUsize::new(resumed);
    let collector = Mutex::new(sink);

    let shared = config.shared_cache.then(|| Arc::new(SharedDnsCache::new()));
    // Static mode assigns one contiguous shard per initial worker up
    // front, so the queue's fresh cursor is left empty; requeues flow
    // through it in both modes.
    let queue = match config.scheduling {
        Scheduling::Dynamic => WorkQueue::new(n, DYNAMIC_BATCH),
        Scheduling::Static => WorkQueue::new(0, DYNAMIC_BATCH),
    };
    let static_chunk = n.div_ceil(workers);

    let epoch = Instant::now();
    let mut sup_stats = SupervisionStats {
        sites_resumed: resumed as u64,
        ..SupervisionStats::default()
    };

    let reports: Vec<WorkerReport> = crossbeam::thread::scope(|scope| {
        let queue = &queue;
        let collector = &collector;
        let completed = &completed;
        let done_at_start: &[bool] = &done_at_start;
        let chaos = &chaos;

        let spawn_worker = |initial: Option<Batch>, slot: Arc<WorkerSlot>| {
            let cfg = config.clone();
            let shared = shared.clone();
            scope.spawn(move |_| {
                worker_main(
                    world,
                    dep,
                    &cfg,
                    shared,
                    chaos,
                    queue,
                    collector,
                    completed,
                    done_at_start,
                    &slot,
                    epoch,
                    n,
                    initial,
                )
            })
        };

        let mut worker_slots: Vec<Arc<WorkerSlot>> = Vec::new();
        let mut handles = Vec::new();
        let mut lost: Vec<bool> = Vec::new();
        let mut reports: Vec<WorkerReport> = Vec::new();
        for wi in 0..workers {
            let initial = match config.scheduling {
                Scheduling::Static => {
                    let lo = (wi * static_chunk).min(n);
                    let hi = (lo + static_chunk).min(n);
                    (lo < hi).then(|| Batch::new(lo, hi))
                }
                Scheduling::Dynamic => None,
            };
            let slot = Arc::new(WorkerSlot::default());
            slot.heartbeat
                .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
            worker_slots.push(Arc::clone(&slot));
            lost.push(false);
            handles.push(Some(spawn_worker(initial, slot)));
        }

        let mut respawns = 0usize;
        while completed.load(Ordering::Acquire) < n {
            let now_ms = epoch.elapsed().as_millis() as u64;
            let mut to_spawn = 0usize;
            for w in 0..handles.len() {
                if lost[w] {
                    continue;
                }
                let Some(handle) = &handles[w] else { continue };
                let slot = &worker_slots[w];
                let finished = handle.is_finished();
                let in_flight = *slot.in_flight.lock().unwrap_or_else(|e| e.into_inner());
                // A finished worker with nothing in flight exited cleanly;
                // an unfinished one with nothing in flight is between
                // batches. Neither is a loss.
                if in_flight.is_none() {
                    continue;
                }
                let stale =
                    now_ms.saturating_sub(slot.heartbeat.load(Ordering::Relaxed)) > deadline_ms;
                if !finished && !stale {
                    continue;
                }
                // Worker lost: thread died, or hung past the deadline.
                lost[w] = true;
                slot.canceled.store(true, Ordering::Relaxed);
                sup_stats.workers_lost += 1;
                let taken = slot
                    .in_flight
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take();
                if let Some(b) = taken.filter(|b| !b.is_empty()) {
                    if b.poison + 1 >= sup_cfg.poison_threshold {
                        let detail = format!(
                            "internal: site batch abandoned after killing {} workers",
                            b.poison + 1
                        );
                        sup_stats.sites_poisoned +=
                            fail_batch(world, collector, completed, done_at_start, &b, &detail);
                    } else {
                        queue.requeue(Batch {
                            poison: b.poison + 1,
                            ..b
                        });
                        sup_stats.batches_requeued += 1;
                    }
                }
                if finished {
                    if let Ok(r) = handles[w].take().expect("checked above").join() {
                        reports.push(r);
                    }
                }
                to_spawn += 1;
            }
            for _ in 0..to_spawn {
                if respawns >= sup_cfg.max_respawns {
                    break;
                }
                respawns += 1;
                sup_stats.workers_respawned += 1;
                let slot = Arc::new(WorkerSlot::default());
                slot.heartbeat
                    .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                worker_slots.push(Arc::clone(&slot));
                lost.push(false);
                handles.push(Some(spawn_worker(None, slot)));
            }
            // Deadlock guard: every worker is lost and the respawn budget
            // is spent, so nothing can drain the queue — fail the
            // remaining sites deterministically instead of spinning.
            let any_live = (0..handles.len())
                .any(|w| !lost[w] && handles[w].as_ref().is_some_and(|h| !h.is_finished()));
            if !any_live
                && respawns >= sup_cfg.max_respawns
                && completed.load(Ordering::Acquire) < n
            {
                for b in queue.drain() {
                    sup_stats.sites_poisoned += fail_batch(
                        world,
                        collector,
                        completed,
                        done_at_start,
                        &b,
                        "internal: no workers remaining",
                    );
                }
                break;
            }
            std::thread::sleep(sup_cfg.tick);
        }

        for slot in &worker_slots {
            slot.canceled.store(true, Ordering::Relaxed);
        }
        for handle in handles.iter_mut() {
            if let Some(h) = handle.take() {
                if let Ok(r) = h.join() {
                    reports.push(r);
                }
            }
        }
        reports
    })
    .unwrap_or_default();
    let wall = epoch.elapsed();

    let worker_busy: Vec<Duration> = reports.iter().map(|r| r.busy).collect();
    let wire_queries = reports.iter().map(|r| r.wire_queries).sum();
    let local_cache_hits = reports.iter().map(|r| r.local_cache_hits).sum();
    let shared_cache_hits = reports.iter().map(|r| r.shared_cache_hits).sum();
    let malformed_datagrams = reports.iter().map(|r| r.malformed_datagrams).sum();
    let mismatched_ids = reports.iter().map(|r| r.mismatched_ids).sum();
    let malformed_flights = reports.iter().map(|r| r.malformed_flights).sum();
    sup_stats.panics_isolated = reports.iter().map(|r| r.panics_isolated).sum();

    let peak_idle_fraction = worker_busy
        .iter()
        .map(|b| 1.0 - b.as_secs_f64() / wall.as_secs_f64().max(f64::MIN_POSITIVE))
        .fold(0.0f64, f64::max)
        .clamp(0.0, 1.0);
    let stats = MeasureStats {
        wall,
        sites_per_sec: n as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
        wire_queries,
        local_cache_hits,
        shared_cache_hits,
        worker_busy,
        peak_idle_fraction,
        malformed_datagrams,
        mismatched_ids,
        malformed_flights,
        supervision: sup_stats,
    };
    // One fold into the process-wide telemetry per run — the hot loop
    // itself stays free of shared counters.
    crate::metrics::record_run(n, &stats);
    let sink = collector.into_inner().unwrap_or_else(|e| e.into_inner());
    (sink, stats)
}

/// Assembles the resident sink's slots into the final dataset. Every site
/// is accounted for: committed by a worker or failed by the supervisor's
/// poison/deadlock paths — and any slot still empty becomes a
/// deterministic internal failure.
fn assemble_resident(world: &World, sink: Sink) -> MeasuredDataset {
    let Sink::Resident(slots) = sink else {
        unreachable!("resident entry points build a resident sink")
    };
    let observations: Vec<SiteObservation> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or_else(|| {
                let site = &world.sites[i];
                SiteObservation::internal_failure(
                    &site.domain,
                    &site.language,
                    "internal: site never measured",
                )
            })
        })
        .collect();
    MeasuredDataset {
        observations,
        toplists: world.toplists.clone(),
        global_top: world.global_top.clone(),
        label: world.label.clone(),
    }
}

/// Records every not-yet-done site of a batch as an internal failure
/// (poison policy / no-workers-left path). Returns how many sites this
/// actually failed (already-committed sites are left untouched).
fn fail_batch(
    world: &World,
    collector: &Mutex<Sink>,
    completed: &AtomicUsize,
    done_at_start: &[bool],
    batch: &Batch,
    detail: &str,
) -> u64 {
    let mut failed = 0;
    let mut coll = collector.lock().unwrap_or_else(|e| e.into_inner());
    for (i, &done) in done_at_start
        .iter()
        .enumerate()
        .take(batch.hi)
        .skip(batch.lo)
    {
        if done {
            continue;
        }
        let site = &world.sites[i];
        let obs = SiteObservation::internal_failure(&site.domain, &site.language, detail);
        if coll.commit(i, obs) {
            completed.fetch_add(1, Ordering::AcqRel);
            failed += 1;
        }
    }
    failed
}

/// Renders a caught panic payload for the `Internal` failure detail.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// One worker thread: claim batches, measure each site under
/// `catch_unwind`, commit per site, publish heartbeats.
///
/// A worker never exits while work could still appear: a requeued batch
/// from a lost sibling may arrive after the fresh cursor runs dry, so
/// idle workers poll until the run completes or they are canceled.
#[allow(clippy::too_many_arguments)]
fn worker_main(
    world: &World,
    dep: &DeployedWorld,
    cfg: &PipelineConfig,
    shared: Option<Arc<SharedDnsCache>>,
    chaos: &ChaosPlan,
    queue: &WorkQueue,
    collector: &Mutex<Sink>,
    completed: &AtomicUsize,
    done_at_start: &[bool],
    slot: &WorkerSlot,
    epoch: Instant,
    n: usize,
    mut initial: Option<Batch>,
) -> WorkerReport {
    let worker_start = Instant::now();
    let resolver_ep = dep.vantage(cfg.vantage);
    let scanner_ep = dep.vantage(cfg.vantage);
    let mut resolver = match shared {
        Some(cache) => IterativeResolver::with_shared_cache(
            resolver_ep,
            dep.roots.clone(),
            cfg.resolver.clone(),
            cache,
        ),
        None => IterativeResolver::new(resolver_ep, dep.roots.clone(), cfg.resolver.clone()),
    };
    let mut scanner = Scanner::new(scanner_ep, cfg.scanner.clone());
    let mut panics_isolated = 0u64;

    let report = |resolver: &IterativeResolver, scanner: &Scanner, panics: u64| {
        let rstats = resolver.stats();
        WorkerReport {
            busy: worker_start.elapsed(),
            wire_queries: rstats.wire_queries,
            local_cache_hits: rstats.local_cache_hits,
            shared_cache_hits: rstats.shared_cache_hits,
            malformed_datagrams: rstats.malformed_datagrams,
            mismatched_ids: rstats.mismatched_ids,
            malformed_flights: scanner.malformed_flights,
            panics_isolated: panics,
        }
    };

    'outer: loop {
        if slot.is_canceled() || completed.load(Ordering::Acquire) >= n {
            break;
        }
        let batch = initial
            .take()
            .or_else(|| queue.claim_requeued())
            .or_else(|| queue.claim_fresh());
        let Some(batch) = batch else {
            // Nothing claimable right now, but a requeue may still arrive.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if batch.is_empty() {
            continue;
        }
        slot.heartbeat
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        *slot.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = Some(batch);
        for (i, &done) in done_at_start
            .iter()
            .enumerate()
            .take(batch.hi)
            .skip(batch.lo)
        {
            if slot.is_canceled() {
                break 'outer;
            }
            slot.heartbeat
                .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
            if !done {
                if chaos.kills(i, batch.poison) {
                    // Simulated worker death: exit with the remainder of
                    // the batch still in flight for the supervisor to find.
                    return report(&resolver, &scanner, panics_isolated);
                }
                if chaos.hangs(i, batch.poison) {
                    // Simulated hang: stop heartbeating until the watchdog
                    // cancels us, then exit like a death.
                    while !slot.is_canceled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    break 'outer;
                }
                let site = &world.sites[i];
                let measured = catch_unwind(AssertUnwindSafe(|| {
                    if chaos.panics(i) {
                        panic!("chaos: injected panic for site {i}");
                    }
                    let mut obs = SiteObservation::blank(&site.domain, &site.language);
                    measure_one(
                        &mut obs,
                        &mut resolver,
                        &mut scanner,
                        &dep.pfx2as,
                        &dep.asorg,
                        &dep.geodb,
                        &dep.anycast,
                        &dep.caodb,
                    );
                    obs
                }));
                let obs = match measured {
                    Ok(obs) => obs,
                    Err(payload) => {
                        panics_isolated += 1;
                        SiteObservation::internal_failure(
                            &site.domain,
                            &site.language,
                            &format!("panic: {}", panic_message(payload.as_ref())),
                        )
                    }
                };
                let committed = collector
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .commit(i, obs);
                if committed {
                    completed.fetch_add(1, Ordering::AcqRel);
                }
            }
            // Advance past the committed site so a later loss requeues
            // only the remainder.
            if let Some(b) = slot
                .in_flight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_mut()
            {
                b.lo = i + 1;
            }
        }
        *slot.in_flight.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
    report(&resolver, &scanner, panics_isolated)
}

/// Maps a resolver error onto the normalized failure taxonomy; `prefix`
/// labels which lookup failed in the human-readable detail ("A", "NS").
fn resolve_failure(prefix: &str, e: &ResolveError) -> LayerError {
    let cause = match e {
        ResolveError::Timeout => FailureCause::Timeout,
        ResolveError::Network(_) => FailureCause::Unreachable,
        ResolveError::NxDomain(_) => FailureCause::NxDomain,
        ResolveError::NoData(_) => FailureCause::NoRecords,
        ResolveError::DepthExceeded => FailureCause::Malformed,
        ResolveError::ServFail => FailureCause::Refused,
    };
    LayerError::new(cause, format!("{prefix}: {e}"))
}

/// Maps a TLS scan error onto the normalized failure taxonomy.
fn scan_failure(e: &webdep_tls::ScanError) -> LayerError {
    use webdep_tls::ScanError;
    let cause = match e {
        ScanError::Timeout => FailureCause::Timeout,
        ScanError::Network(_) => FailureCause::Unreachable,
        ScanError::Alert(_) => FailureCause::Refused,
        ScanError::BadResponse => FailureCause::Malformed,
    };
    LayerError::new(cause, format!("TLS: {e}"))
}

/// Runs the whole pipeline for a single observation.
///
/// Every layer runs to completion and records its *own* failure — a DNS
/// timeout no longer masks a TLS refusal the way the old first-error-wins
/// summary did. The CA layer is `Skipped` (not failed) when hosting left
/// no IP to scan. The derived `error` summary is recomputed at the end.
#[allow(clippy::too_many_arguments)]
fn measure_one(
    obs: &mut SiteObservation,
    resolver: &mut IterativeResolver,
    scanner: &mut Scanner,
    pfx2as: &PrefixTable<u32>,
    asorg: &AsOrgDb,
    geodb: &GeoDb,
    anycast: &AnycastSet,
    caodb: &CaOwnerDb,
) {
    let Ok(name) = DomainName::parse(&obs.domain) else {
        obs.hosting_error = Some(LayerError::new(
            FailureCause::Malformed,
            "unparseable domain",
        ));
        obs.dns_error = Some(LayerError::new(FailureCause::Skipped, "domain unparseable"));
        obs.ca_error = Some(LayerError::new(FailureCause::Skipped, "domain unparseable"));
        obs.derive_error_summary();
        return;
    };

    // Hosting: A record -> serving IP -> AS -> org; geo + anycast.
    match resolver.resolve_a(&name) {
        Ok(addrs) if !addrs.is_empty() => {
            let ip = addrs[0];
            obs.hosting_ip = Some(ip);
            if let Some((&asn, _)) = pfx2as.lookup(ip) {
                obs.hosting_asn = Some(asn);
                if let Some(org) = asorg.org_of_asn(asn) {
                    obs.hosting_org = Some(org.org_id);
                    obs.hosting_org_country = Some(org.country.clone());
                }
            }
            obs.hosting_ip_country = geodb.country_of(ip).map(str::to_string);
            obs.hosting_anycast = anycast.contains(ip);
        }
        Ok(_) => {
            obs.hosting_error = Some(LayerError::new(FailureCause::NoRecords, "empty A answer"))
        }
        Err(e) => obs.hosting_error = Some(resolve_failure("A", &e)),
    }

    // DNS: NS names -> first NS address -> AS -> org.
    match resolver.resolve_ns(&name) {
        Ok(ns_names) if !ns_names.is_empty() => {
            obs.ns_names = ns_names.iter().map(|n| n.to_string()).collect();
            let mut resolved = None;
            for ns in &ns_names {
                match resolver.resolve_a(ns) {
                    Ok(addrs) if !addrs.is_empty() => {
                        resolved = Some(addrs[0]);
                        break;
                    }
                    _ => continue,
                }
            }
            if let Some(ip) = resolved {
                obs.dns_ip = Some(ip);
                if let Some((&asn, _)) = pfx2as.lookup(ip) {
                    obs.dns_asn = Some(asn);
                    if let Some(org) = asorg.org_of_asn(asn) {
                        obs.dns_org = Some(org.org_id);
                        obs.dns_org_country = Some(org.country.clone());
                    }
                }
                obs.dns_ip_country = geodb.country_of(ip).map(str::to_string);
                obs.dns_anycast = anycast.contains(ip);
            } else {
                obs.dns_error = Some(LayerError::new(
                    FailureCause::NoRecords,
                    "no nameserver address",
                ));
            }
        }
        Ok(_) => obs.dns_error = Some(LayerError::new(FailureCause::NoRecords, "empty NS answer")),
        // A zone with no visible NS records is a data gap, not a failure.
        Err(ResolveError::NoData(_)) => {}
        Err(e) => obs.dns_error = Some(resolve_failure("NS", &e)),
    }

    // TLS: leaf certificate -> issuer -> CA owner.
    match obs.hosting_ip {
        None => {
            obs.ca_error = Some(LayerError::new(
                FailureCause::Skipped,
                "no serving IP to scan",
            ))
        }
        Some(ip) => match scanner.scan(ip, &obs.domain) {
            Ok(chain) => match chain.leaf() {
                Some(leaf) => {
                    if let Some(owner) = caodb.owner_of_issuer(leaf.issuer_id) {
                        obs.ca_owner = Some(owner.owner_id);
                        obs.ca_owner_country = Some(owner.country.clone());
                    } else {
                        obs.ca_error = Some(LayerError::new(
                            FailureCause::UnknownIssuer,
                            "unknown issuer",
                        ));
                    }
                }
                None => {
                    obs.ca_error = Some(LayerError::new(
                        FailureCause::Malformed,
                        "empty certificate chain",
                    ))
                }
            },
            Err(e) => obs.ca_error = Some(scan_failure(&e)),
        },
    }

    obs.derive_error_summary();
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdep_webgen::{DeployConfig, WorldConfig};

    #[test]
    fn measures_tiny_world_accurately() {
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let ds = measure(
            &world,
            &dep,
            &PipelineConfig {
                workers: 4,
                ..Default::default()
            },
        );
        assert_eq!(ds.observations.len(), world.sites.len());
        let rate = ds.success_rate();
        assert!(rate > 0.99, "success rate {rate}");

        // Measurement must agree with ground truth on org / CA / DNS ids.
        let mut checked = 0;
        for (i, site) in world.sites.iter().enumerate().step_by(53) {
            let obs = &ds.observations[i];
            assert_eq!(obs.hosting_org, Some(site.hosting), "{}", site.domain);
            assert_eq!(obs.dns_org, Some(site.dns), "{}", site.domain);
            assert_eq!(obs.ca_owner, Some(site.ca), "{}", site.domain);
            assert_eq!(
                obs.tld,
                world.universe.tld(site.tld).label,
                "{}",
                site.domain
            );
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn anycast_flag_set_for_cloudflare_sites() {
        let world = World::generate(WorldConfig::tiny());
        let dep = DeployedWorld::deploy(&world, DeployConfig::default());
        let ds = measure(&world, &dep, &PipelineConfig::default());
        let cf = world.universe.provider_by_name("Cloudflare").unwrap();
        let cf_obs: Vec<&SiteObservation> = ds
            .observations
            .iter()
            .zip(&world.sites)
            .filter(|(_, s)| s.hosting == cf)
            .map(|(o, _)| o)
            .collect();
        assert!(!cf_obs.is_empty());
        assert!(cf_obs.iter().all(|o| o.hosting_anycast));
    }
}
