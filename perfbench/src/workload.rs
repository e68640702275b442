//! The workloads and their untraced end-to-end run.
//!
//! Every workload runs the system's whole loop, because that is how it is
//! used: a fresh checkpointed campaign up to the first answered query, an
//! open-loop query load against the published snapshot, then live epochs
//! published under a query stream. The timed phase runs that loop several
//! times over (rounds), so each metric's samples spread over the whole run
//! and a slow stretch of a shared host moves one sample of several rather
//! than all of them. The workloads differ in their inputs — world size,
//! warm working set, how long the reference load runs, churn — which
//! decide the layers the time goes to:
//!
//! * `query` — the 28.6K-site `tiny` world, the largest warm catalog and
//!   the longest reference load: serving (http, cache, routes) and
//!   bootstrap dominate.
//! * `evolve` — a 57K-site world whose one-worker campaigns last several
//!   seconds, and epochs at 5% churn under a query stream: measurement
//!   (dns, tls, netsim, geodb, pipeline store and journal), delta
//!   measurement, snapshot rebuild and cache purges beside reads.

use crate::client::{self, LoadSpec, Mix, Outcome};
use crate::util::{self, median, quantile, Rng};
use crate::Report;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webdep_analysis::AnalysisCtx;
use webdep_core::centralization_score;
use webdep_pipeline::{measure_delta, measure_streamed, ChunkStore, MeasureStats, PipelineConfig};
use webdep_serve::http::{parse_head, Limits, ParseOutcome};
use webdep_serve::routes::{self, Budget};
use webdep_serve::{start, CubeSnapshot, ResponseCache, ServeConfig, ServerHandle};
use webdep_webgen::{
    provider_site_counts, DeployConfig, DeployedWorld, EvolutionPlan, Layer, World, WorldConfig,
    COUNTRIES,
};

/// p99 latency limit a ladder rung must meet to count towards `max_rps`.
const LIMIT_P99: Duration = Duration::from_millis(50);
/// A rung whose generator sent its requests later than this at p99 ran
/// behind its own schedule: it is invalid, neither a pass nor a miss.
const GEN_LATE_LIMIT: Duration = Duration::from_millis(10);
/// World generate + deploy repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 3;
/// Re-runs of a rung the generator could not keep up with.
const RUNG_RETRIES: usize = 2;

/// One workload's inputs. The serving load is the same for every
/// workload; what differs is the world, the warm working set, how long
/// the reference load runs, and the epochs.
pub struct Params {
    pub name: &'static str,
    /// World preset; the seed is mixed in.
    pub world: fn() -> WorldConfig,
    /// Warm catalog size (fits the server's default response cache).
    pub warm_keys: usize,
    /// Rounds of the whole loop in the timed phase.
    pub rounds: usize,
    /// Share of `--seconds` spent at the reference rate, split evenly
    /// over the rounds.
    pub ref_share: f64,
    /// Live epochs each round publishes from its campaign, and their churn.
    pub epochs: usize,
    pub churn: f64,
}

/// Threads the timed phases run on: one pipeline worker, one server
/// worker and one generator connection. On a shared two-vCPU host the
/// second core comes and goes — two threads of fixed work took 1× or 2×
/// the time of one from one second to the next — so with a thread per core
/// every timed figure follows the neighbours' load on that core.
pub const THREADS: usize = 1;
/// Share of requests that are cold.
pub const COLD_SHARE: f64 = 0.20;
/// Reference rate for the warm/cold latency metrics, req/s. The one server
/// worker is then about a fifth busy, so most cold requests find it idle
/// and `cold_p50_us` is their service time, not a queue that grows faster
/// than the host slows.
pub const REF_RATE: f64 = 500.0;
/// Rate of the query stream while epochs are measured and published,
/// req/s: reads beside the writes that keep the server and generator
/// threads off the epoch's core most of the time, so `epoch_s` does not
/// depend on whether the host's second core is there.
const MIXED_RATE: f64 = 200.0;
/// First ladder rate, req/s: twice the reference rate, which one server
/// worker still serves on every workload.
const LADDER_BASE: f64 = 2.0 * REF_RATE;
/// Rungs: enough to climb past one server worker's capacity on every
/// workload (×1.1 per rung reaches ×5).
const LADDER_RUNGS: usize = 18;
/// Length of one rung: five latency limits, so a growing backlog shows in
/// the rung's p99.
const RUNG: Duration = Duration::from_millis(250);

/// Adjacent ladder rungs differ by this factor (within a tenth).
const LADDER_STEP: f64 = 1.1;

impl Params {
    pub fn named(name: &str) -> Option<Params> {
        match name {
            "query" => Some(Params {
                name: "query",
                world: WorldConfig::tiny,
                warm_keys: 512,
                rounds: 5,
                ref_share: 0.5,
                epochs: 4,
                churn: 0.02,
            }),
            "evolve" => Some(Params {
                name: "evolve",
                world: || WorldConfig {
                    sites_per_country: 600,
                    global_pool_size: 1_800,
                    ..WorldConfig::small()
                },
                warm_keys: 256,
                // Campaigns here last about three seconds and move by a
                // third within a run: six of them give the median.
                rounds: 6,
                ref_share: 0.3,
                epochs: 3,
                churn: 0.05,
            }),
            _ => None,
        }
    }

    pub fn world_config(&self, seed: u64) -> WorldConfig {
        WorldConfig {
            seed: Rng::new(seed).next_u64(),
            ..(self.world)()
        }
    }

    pub fn plan(&self, seed: u64) -> EvolutionPlan {
        EvolutionPlan::continuous(self.epochs, self.churn, Rng::new(seed ^ 0xE70).next_u64())
    }

    /// The seeded request mix: a warm catalog drawn from every cacheable
    /// route shape, and cold CI queries over every country.
    pub fn mix(&self, seed: u64) -> Mix {
        let mut candidates = Vec::new();
        for c in COUNTRIES.iter() {
            for layer in ["hosting", "dns", "ca", "tld"] {
                candidates.push(format!("/v1/score/{}?layer={layer}", c.code));
                candidates.push(format!("/v1/shares/{}?layer={layer}&top=10", c.code));
                candidates.push(format!("/v1/insularity/{}?layer={layer}", c.code));
            }
        }
        let mut rng = Rng::new(seed ^ 0x3A11);
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.below(i + 1));
        }
        candidates.truncate(self.warm_keys.saturating_sub(4));
        for fixed in [
            "/v1/meta",
            "/v1/coverage",
            "/v1/taxonomy",
            "/v1/top?layer=hosting&n=10",
        ] {
            candidates.push(fixed.to_string());
        }
        Mix {
            warm: candidates,
            cold_share: COLD_SHARE,
            cold_countries: COUNTRIES.iter().map(|c| c.code).collect(),
        }
    }
}

pub fn pipeline(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..Default::default()
    }
}

pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..Default::default()
    }
}

/// A generated, deployed world with its pinned pool census (every epoch
/// deploys against the base census, which `measure_delta` requires).
pub struct Deployed {
    pub world: Arc<World>,
    pub census: Arc<Vec<u64>>,
    pub dep: DeployedWorld,
}

pub fn deploy_pinned(world: &World, census: &Arc<Vec<u64>>) -> DeployedWorld {
    DeployedWorld::deploy(
        world,
        DeployConfig {
            pool_sites: Some(Arc::clone(census)),
            ..DeployConfig::default()
        },
    )
}

/// Generates and deploys the workload's world; returns it with the
/// generate and deploy times.
pub fn generate(p: &Params, seed: u64) -> (Deployed, Duration, Duration) {
    let t = Instant::now();
    let world = World::generate(p.world_config(seed));
    let gen = t.elapsed();
    let census = Arc::new(provider_site_counts(&world));
    let t = Instant::now();
    let dep = deploy_pinned(&world, &census);
    let deploy = t.elapsed();
    (
        Deployed {
            world: Arc::new(world),
            census,
            dep,
        },
        gen,
        deploy,
    )
}

/// Byte-level store equality: manifest and every chunk file.
pub fn stores_identical(a: &Path, b: &Path) -> bool {
    let Ok(store) = ChunkStore::open(a) else {
        return false;
    };
    std::iter::once("manifest.json".to_string())
        .chain((0..store.num_chunks()).map(|c| format!("chunk-{c:06}.col")))
        .all(
            |f| match (std::fs::read(a.join(&f)), std::fs::read(b.join(&f))) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            },
        )
}

/// The body `routes::handle` renders for `target` on `snap` with an empty
/// cache — the in-process oracle for served bodies.
pub fn direct_body(target: &str, snap: &CubeSnapshot) -> Option<Vec<u8>> {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
    let ParseOutcome::Complete { request, .. } = parse_head(raw.as_bytes(), &Limits::default())
    else {
        return None;
    };
    let routed = routes::handle(&request, snap, &ResponseCache::new(16), Budget::unlimited());
    (routed.status == 200).then(|| routed.body.to_vec())
}

/// The ladder's verdict on one rung.
#[derive(Debug, PartialEq)]
enum Verdict {
    Pass,
    Miss,
    Invalid,
}

fn judge(rate: f64, out: &Outcome) -> Verdict {
    let late_p99 = quantile(&out.late_us, 0.99);
    if late_p99 > util::us(GEN_LATE_LIMIT) {
        return Verdict::Invalid;
    }
    let p99 = quantile(&out.all_with_failures(), 0.99);
    // Little's law: a queue meeting the limit holds at most rate × limit.
    let backlog_ok = out.backlog_end as f64 <= (rate * LIMIT_P99.as_secs_f64()).max(2.0);
    if out.failed == 0 && p99 <= util::us(LIMIT_P99) && backlog_ok {
        Verdict::Pass
    } else {
        Verdict::Miss
    }
}

/// One fresh checkpointed campaign, timed from measurement start to the
/// first query answered from its published snapshot. The first campaign
/// of a run starts the server with its snapshot; later ones publish.
struct Campaign {
    wall: Duration,
    dir: PathBuf,
    journal: PathBuf,
    stats: MeasureStats,
}

impl Campaign {
    fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_file(&self.journal);
    }
}

fn campaign(
    base: &Deployed,
    config: &PipelineConfig,
    epoch: u64,
    work: &Path,
    server: &mut Option<ServerHandle>,
    probe: &str,
    report: &mut Report,
) -> std::io::Result<(Campaign, Arc<CubeSnapshot>)> {
    let dir = work.join(format!("campaign-{epoch}"));
    let journal = work.join(format!("campaign-{epoch}.journal"));
    let t = Instant::now();
    let stats = measure_streamed(&base.world, &base.dep, config, &dir, Some(&journal))?;
    let snap = Arc::new(CubeSnapshot::from_store(
        epoch,
        Arc::clone(&base.world),
        &dir,
    )?);
    if let Err(why) = snap.validate(None, None) {
        return Err(std::io::Error::other(format!(
            "campaign snapshot failed validation: {why}"
        )));
    }
    let addr = match server {
        Some(s) => {
            s.publish(Arc::clone(&snap));
            s.addr()
        }
        None => server
            .insert(start(serve_config(THREADS), Arc::clone(&snap))?)
            .addr(),
    };
    let first = client::get(addr, probe)?;
    let wall = t.elapsed();
    report.check(
        first.status == 200 && first.header_epoch == Some(epoch),
        format!("campaign {epoch}: first {probe} answered from its snapshot"),
    );
    Ok((
        Campaign {
            wall,
            dir,
            journal,
            stats,
        },
        snap,
    ))
}

/// Checks a load's sampled bodies against `routes::handle` on the snapshot
/// they were served from, and its epochs.
fn check_served(name: &str, out: &Outcome, snap: &CubeSnapshot, report: &mut Report) {
    let mut seen = HashSet::new();
    for (target, epoch, body) in &out.samples {
        if !seen.insert(target) {
            continue;
        }
        report.check(
            *epoch == snap.epoch && direct_body(target, snap).as_deref() == Some(&body[..]),
            format!("served {target} equals routes::handle on the same snapshot"),
        );
    }
    report.check(!seen.is_empty(), format!("{name} sampled served bodies"));
    check_epochs(name, out, report);
}

fn check_epochs(name: &str, out: &Outcome, report: &mut Report) {
    report.check(
        out.mixed_epoch == 0,
        format!("{name}: zero mixed-epoch responses"),
    );
    report.check(
        out.epoch_regressions == 0,
        format!("{name}: epochs monotone per connection"),
    );
}

/// Highest ladder rate that meets the latency limit without a growing
/// backlog, req/s; 0 when even the first rung fails.
fn ladder(p: &Params, addr: SocketAddr, mix: &Mix, rng: &mut Rng, report: &mut Report) -> f64 {
    let mut max_rps = 0.0;
    let mut rate = LADDER_BASE;
    for _ in 0..LADDER_RUNGS {
        for attempt in 0..=RUNG_RETRIES {
            std::thread::sleep(Duration::from_millis(30));
            let out = client::run(&LoadSpec {
                addr,
                conns: THREADS,
                rate,
                duration: RUNG,
                drain: Duration::from_millis(500),
                mix,
                seed: rng.next_u64(),
                sample_every: 0,
                stop: None,
            });
            // Misses above capacity are the ladder's measurement, not errors.
            report.attempted += out.attempted;
            let verdict = judge(rate, &out);
            eprintln!(
                "[{}] rung {:.0} req/s, attempt {}: {:?} (p99 {:.0} us, failed {}, backlog end {} max {}, late p99 {:.0} us)",
                p.name,
                rate,
                attempt + 1,
                verdict,
                quantile(&out.all_with_failures(), 0.99),
                out.failed,
                out.backlog_end,
                out.backlog_max,
                quantile(&out.late_us, 0.99)
            );
            match verdict {
                Verdict::Pass => break,
                // A rung fails only when it fails again: a capacity limit
                // repeats, a passing host stall does not. A rung where the
                // generator fell behind says nothing either way and is run
                // again; one that stays invalid ends the ladder too.
                _ if attempt == RUNG_RETRIES => return max_rps,
                Verdict::Miss if attempt > 0 => return max_rps,
                _ => {}
            }
        }
        max_rps = rate;
        rate *= LADDER_STEP;
    }
    max_rps
}

/// One round's live epochs: the plan's epochs from the round's campaign,
/// each measured, rebuilt and published under a fixed-rate query stream.
struct Epochs {
    /// From the delta in hand to the validated publish, per epoch, s.
    walls: Vec<f64>,
    /// Evolving and deploying each epoch's world: input generation.
    setup: Duration,
    /// Latency of the stream's requests due while an epoch was measured
    /// and published, µs (failures count as infinite).
    mixed: Vec<f64>,
    /// The last epoch's world, deployment and store.
    world: Arc<World>,
    dep: Option<DeployedWorld>,
    dir: PathBuf,
}

#[allow(clippy::too_many_arguments)]
fn live_epochs(
    p: &Params,
    plan: &EvolutionPlan,
    base: &Deployed,
    from: (&Path, &Arc<CubeSnapshot>),
    server: &ServerHandle,
    mix: &Mix,
    seed: u64,
    dirs: &Path,
    report: &mut Report,
) -> Epochs {
    let config = pipeline(THREADS);
    let stop = AtomicBool::new(false);
    let mut walls = Vec::with_capacity(p.epochs);
    let mut windows = Vec::with_capacity(p.epochs);
    let mut setup = Duration::ZERO;
    let mut publish_errors = Vec::new();
    let mut prev_dir = from.0.to_path_buf();
    let mut prev_snap = Arc::clone(from.1);
    let mut world = Arc::clone(&base.world);
    let mut last_dep = None;
    let addr = server.addr();
    let stream = std::thread::scope(|s| {
        let gen = s.spawn(|| {
            client::run(&LoadSpec {
                addr,
                conns: THREADS,
                rate: MIXED_RATE,
                duration: Duration::from_secs(3600),
                drain: Duration::from_secs(5),
                mix,
                seed,
                sample_every: 0,
                stop: Some(&stop),
            })
        });
        std::thread::sleep(Duration::from_millis(100));
        for e in 0..p.epochs {
            let t = Instant::now();
            let (next, delta) = plan.evolve_epoch(&world, e);
            let next = Arc::new(next);
            let dep = deploy_pinned(&next, &base.census);
            setup += t.elapsed();
            let dir = dirs.join(format!("epoch-{}", e + 1));
            let t = Instant::now();
            let built = measure_delta(&next, &dep, &config, &delta, &prev_dir, &dir, None)
                .and_then(|_| {
                    CubeSnapshot::from_delta(
                        prev_snap.epoch + 1,
                        Arc::clone(&next),
                        &prev_snap,
                        &delta,
                        &dir,
                    )
                });
            match built {
                Ok(snap) => {
                    let snap = Arc::new(snap);
                    match server.publish_validated(Arc::clone(&snap), Some(&delta)) {
                        Ok(_) => prev_snap = snap,
                        Err(why) => publish_errors.push(format!("epoch {}: {why}", snap.epoch)),
                    }
                }
                Err(err) => publish_errors.push(format!("epoch {}: {err}", prev_snap.epoch + 1)),
            }
            let end = Instant::now();
            walls.push((end - t).as_secs_f64());
            windows.push((t, end));
            prev_dir = dir;
            world = next;
            last_dep = Some(dep);
        }
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Release);
        gen.join().expect("mixed generator")
    });
    report.ops(stream.attempted, stream.failed, "mixed-phase requests");
    for e in &publish_errors {
        report.check(false, e.clone());
    }
    report.check(publish_errors.is_empty(), "every epoch published");
    check_epochs("mixed", &stream, report);
    report.check(
        stream.max_epoch == from.1.epoch + p.epochs as u64,
        "the mixed stream saw the last epoch",
    );
    // Mixed latency counts the requests due while an epoch was measured
    // and published, not those due while the next world was generated.
    let mixed = stream.within(&windows);
    eprintln!(
        "[{}] epochs {:?} s (set-up {:.2} s); mixed stream {} requests ({} in epochs), p50 {:.0} p99 {:.0} us, late p99 {:.0} us",
        p.name,
        walls,
        setup.as_secs_f64(),
        stream.attempted,
        mixed.len() as u64 - stream.failed,
        median(&mixed),
        quantile(&mixed, 0.99),
        quantile(&stream.late_us, 0.99),
    );
    Epochs {
        walls,
        setup,
        mixed,
        world,
        dep: last_dep,
        dir: prev_dir,
    }
}

/// The untraced run: every end-to-end metric, plus the correctness checks.
pub fn run(
    p: &Params,
    seed: u64,
    seconds: f64,
    nproc: usize,
    work: &Path,
    report: &mut Report,
) -> std::io::Result<()> {
    // ---------------------------------------------------------------- set-up
    let mut setup_reps = Vec::with_capacity(SETUP_REPS);
    let mut base = None;
    for _ in 0..SETUP_REPS {
        // Free the previous world before building the next.
        drop(base.take());
        let (d, gen, deploy) = generate(p, seed);
        setup_reps.push((gen + deploy).as_secs_f64());
        base = Some(d);
    }
    let base = base.expect("at least one set-up");
    let sites = base.world.sites.len();
    let plan = p.plan(seed);
    let mix = p.mix(seed);
    let mut rng = Rng::new(seed ^ 0xC4EC);
    let probe = format!(
        "/v1/score/{}?layer=hosting",
        COUNTRIES[rng.below(COUNTRIES.len())].code
    );
    eprintln!(
        "[{}] seed {seed}: {sites} sites, set-up reps {:?} s",
        p.name, setup_reps
    );

    // ---------------------------------------------------------- timed phase
    let rss_reset = util::reset_peak_rss();
    let steal0 = util::steal_ticks();
    let timed = Instant::now();
    let config = pipeline(THREADS);
    let ref_slice = Duration::from_secs_f64(seconds * p.ref_share / p.rounds as f64);
    let check_sample: Vec<(usize, Layer)> = (0..2 * Layer::ALL.len())
        .map(|i| (rng.below(COUNTRIES.len()), Layer::ALL[i % Layer::ALL.len()]))
        .collect();
    let mut server = None;
    let mut walls = Vec::with_capacity(p.rounds);
    let mut round_setup = Vec::with_capacity(p.rounds);
    let mut epoch_s = Vec::with_capacity(p.rounds * p.epochs);
    let (mut warm_us, mut cold_us, mut mixed) = (Vec::new(), Vec::new(), Vec::new());
    let mut campaign_bodies = Vec::new();
    let mut max_rps = f64::NAN;
    let mut first: Option<Campaign> = None;
    let mut last: Option<Campaign> = None;
    let mut chain = None;
    let mut epoch = 1;
    for round in 0..p.rounds {
        let (c, snap) = campaign(&base, &config, epoch, work, &mut server, &probe, report)?;
        let server = server
            .as_ref()
            .expect("the first campaign starts the server");
        let addr = server.addr();
        eprintln!(
            "[{}] round {}: campaign of {sites} sites in {:.3} s (measure {:.3} s, {} wire queries)",
            p.name,
            round + 1,
            c.wall.as_secs_f64(),
            c.stats.wall.as_secs_f64(),
            c.stats.wire_queries
        );
        walls.push(c.wall.as_secs_f64());
        report.check(
            c.stats.supervision.sites_poisoned == 0,
            "campaign measured every site",
        );
        if let Some(f) = &first {
            report.check(
                stores_identical(&f.dir, &c.dir),
                "repeated campaigns wrote identical stores",
            );
        } else {
            // Served answers for the one-shot comparison after the run.
            for &(ci, layer) in &check_sample {
                let target = format!("/v1/score/{}?layer={}", COUNTRIES[ci].code, layer.name());
                campaign_bodies.push((ci, layer, client::get(addr, &target)?.body));
            }
        }

        // Cache warm-up is set-up: the warm class is defined as
        // cache-resident, and the campaign's publish purged the cache.
        let t = Instant::now();
        for target in &mix.warm {
            let resp = client::get(addr, target)?;
            report.check(resp.status == 200, format!("warm-up {target} answered 200"));
        }
        let warmup = t.elapsed();

        // Reference rate: warm and cold latency.
        let out = client::run(&LoadSpec {
            addr,
            conns: THREADS,
            rate: REF_RATE,
            duration: ref_slice,
            drain: Duration::from_secs(5),
            mix: &mix,
            seed: rng.next_u64(),
            sample_every: 61,
            stop: None,
        });
        report.ops(out.attempted, out.failed, "reference-rate requests");
        eprintln!(
            "[{}] reference {} req/s: {} requests, warm p50 {:.0} p99 {:.0} us, cold p50 {:.0} p99 {:.0} us, late p99 {:.0} us",
            p.name,
            REF_RATE,
            out.attempted,
            median(&out.warm_us),
            quantile(&out.warm_us, 0.99),
            median(&out.cold_us),
            quantile(&out.cold_us, 0.99),
            quantile(&out.late_us, 0.99)
        );
        check_served("reference", &out, &snap, report);
        warm_us.extend_from_slice(&out.warm_us);
        cold_us.extend_from_slice(&out.cold_us);

        // The ladder runs once, on the last round's still-warm cache.
        if round + 1 == p.rounds {
            max_rps = ladder(p, addr, &mix, &mut rng, report);
            std::thread::sleep(Duration::from_millis(30));
        }

        // Live epochs from this campaign. Evolving and deploying each
        // epoch's world is input generation (set-up); the epoch proper runs
        // from the delta in hand to the validated publish.
        let dirs = work.join(format!("round-{}", round + 1));
        let ep = live_epochs(
            p,
            &plan,
            &base,
            (&c.dir, &snap),
            server,
            &mix,
            rng.next_u64(),
            &dirs,
            report,
        );
        epoch = snap.epoch + p.epochs as u64 + 1;
        epoch_s.extend_from_slice(&ep.walls);
        mixed.extend_from_slice(&ep.mixed);
        round_setup.push((warmup + ep.setup).as_secs_f64());

        // Keep the first campaign's store (the identity reference), the
        // last one's (fsck) and the last round's epochs (from-scratch check).
        if first.is_none() {
            first = Some(c);
        } else if let Some(prev) = last.replace(c) {
            prev.remove();
        }
        if let Some((old_dirs, _)) = chain.replace((dirs, ep)) {
            let _ = std::fs::remove_dir_all(old_dirs);
        }
    }
    let peak_rss = util::peak_rss_mb();
    // Steal is the host's, not the program's: reported for reading the
    // run's noise, never as a metric. Ticks are 10 ms (USER_HZ = 100).
    let steal = match (steal0, util::steal_ticks()) {
        (Some(a), Some(b)) => {
            (b - a) as f64 * 0.01 / (nproc as f64 * timed.elapsed().as_secs_f64())
        }
        _ => f64::NAN,
    };
    let server = server.expect("the first campaign starts the server");
    let cache = server.cache_stats();
    server.shutdown();
    eprintln!(
        "[{}] peak RSS {:.1} MB{}; server cache: {} hits, {} misses, {} evictions, {} purged",
        p.name,
        peak_rss,
        if rss_reset {
            ""
        } else {
            " (process peak: VmHWM reset refused)"
        },
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.stale_purged
    );

    // ---------------------------------------------------------------- checks
    let first = first.expect("at least one round");
    let last = last.as_ref().unwrap_or(&first);
    let fsck = ChunkStore::fsck(&last.dir, Some(&last.journal), false)?;
    report.check(fsck.clean(), "campaign store is fsck-clean");
    let ds = ChunkStore::open(&first.dir)?.load_dataset(&base.world)?;
    let ctx = AnalysisCtx::new(&base.world, &ds);
    for (ci, layer, body) in &campaign_bodies {
        report.check(
            score_matches(&ctx, *ci, *layer, body),
            format!(
                "served /v1/score/{}?layer={} equals the one-shot analysis",
                COUNTRIES[*ci].code,
                layer.name()
            ),
        );
    }
    drop(ctx);
    drop(ds);
    if let Some((_, ep)) = &chain {
        if let Some(dep) = &ep.dep {
            // Untimed, so on every core: worker count does not change a store.
            let scratch = work.join("from-scratch");
            measure_streamed(&ep.world, dep, &pipeline(nproc), &scratch, None)?;
            report.check(
                stores_identical(&ep.dir, &scratch),
                "last epoch's store is identical to a from-scratch measurement",
            );
        }
    }

    // --------------------------------------------------------------- metrics
    let setup_s = median(&setup_reps) + median(&round_setup);
    report.metric("setup_s", setup_s, "s");
    report.metric("sites_per_s", sites as f64 / median(&walls), "sites/s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("warm_p50_us", median(&warm_us), "us");
    report.metric("warm_p99_us", quantile(&warm_us, 0.99), "us");
    report.metric("cold_p50_us", median(&cold_us), "us");
    report.metric("cold_p99_us", quantile(&cold_us, 0.99), "us");
    report.metric("max_rps", max_rps, "req/s");
    report.metric("epoch_s", median(&epoch_s), "s");
    report.metric("mixed_p50_us", median(&mixed), "us");
    report.metric("mixed_p99_us", quantile(&mixed, 0.99), "us");
    report.metric("host.steal_frac", steal, "ratio");
    Ok(())
}

/// Whether a served `/v1/score` body carries exactly the one-shot
/// analysis's 𝒮 and bootstrap interval (default replicates, seed, level).
fn score_matches(ctx: &AnalysisCtx<'_>, ci: usize, layer: Layer, body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Ok(v) = serde_json::from_str::<serde_json::Value>(text) else {
        return false;
    };
    let s = ctx
        .country_dist(ci, layer)
        .map(|d| centralization_score(&d));
    let ci_expect = ctx.score_ci(
        ci,
        layer,
        routes::DEFAULT_REPLICATES,
        routes::DEFAULT_LEVEL,
        routes::DEFAULT_SEED,
    );
    let served_ci = &v["ci"];
    v["s"].as_f64() == s
        && match ci_expect {
            Some(b) => {
                served_ci["point"].as_f64() == Some(b.point)
                    && served_ci["lo"].as_f64() == Some(b.lo)
                    && served_ci["hi"].as_f64() == Some(b.hi)
            }
            None => served_ci["point"].as_f64().is_none(),
        }
}
