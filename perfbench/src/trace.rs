//! The traced run: per-layer metrics.
//!
//! Spans are taken from the benchmark's own files, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! The measurement layers are replayed site by site on one thread, in the
//! order the pipeline's worker calls them (`dns` A → NS → NS address,
//! `geodb` attribution, `tls` scan, then the journal append and the chunk
//! commit), and every replayed observation is compared with the row the
//! untraced pipeline stored for that site — the replay must do the same
//! work, not merely similar work. One thread also makes the counts exact:
//! wire queries, datagrams, bytes and allocations repeat to the unit.
//!
//! Serving is replayed the same way in-process (`http::parse_head`,
//! `SnapshotCell::load_cached`, `routes::handle`, `http::render_response`)
//! beside a short live load, whose client-seen latency minus the replayed
//! stages is what the server spends outside them (accept, hand-off, queue
//! wait, socket I/O).

use crate::alloc::thread_allocs;
use crate::client::{self, LoadSpec};
use crate::util::{median, quantile, Rng};
use crate::workload::{self, Params};
use crate::Report;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webdep_analysis::CubeBuilder;
use webdep_dns::resolver::{IterativeResolver, ResolveError};
use webdep_dns::{DomainName, SharedDnsCache};
use webdep_pipeline::{
    measure_delta, measure_streamed, ChunkStore, ChunkStoreWriter, FailureCause, JournalWriter,
    LayerError, SiteObservation, DEFAULT_CHUNK_SITES,
};
use webdep_serve::http::{parse_head, render_response, Limits, ParseOutcome, Request};
use webdep_serve::routes::{self, Budget};
use webdep_serve::{start, CubeSnapshot, ResponseCache, SnapshotCell};
use webdep_tls::{ScanError, Scanner};
use webdep_webgen::{DeployedWorld, Layer, World, COUNTRIES};

/// Busy time per measurement-layer call, summed over a replay.
#[derive(Default)]
struct Spans {
    resolve_a: Duration,
    resolve_ns: Duration,
    ns_addr: Duration,
    scan: Duration,
    attrib: Duration,
    journal: Duration,
    commit: Duration,
    scans: u64,
    scan_failed: u64,
}

impl Spans {
    fn attributed(&self) -> Duration {
        self.resolve_a
            + self.resolve_ns
            + self.ns_addr
            + self.scan
            + self.attrib
            + self.journal
            + self.commit
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

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

fn scan_failure(e: &ScanError) -> LayerError {
    let cause = match e {
        ScanError::Timeout => FailureCause::Timeout,
        ScanError::Network(_) => FailureCause::Unreachable,
        ScanError::Alert(_) => FailureCause::Refused,
        ScanError::BadResponse => FailureCause::Malformed,
    };
    LayerError::new(cause, format!("TLS: {e}"))
}

/// Attribution lookups for one serving IP: prefix → AS → organization,
/// plus geolocation and anycast.
type Attribution = (
    Option<u32>,
    Option<u32>,
    Option<String>,
    Option<String>,
    bool,
);

fn attribute(dep: &DeployedWorld, ip: std::net::Ipv4Addr) -> Attribution {
    let mut asn = None;
    let mut org = None;
    let mut org_country = None;
    if let Some((&a, _)) = dep.pfx2as.lookup(ip) {
        asn = Some(a);
        if let Some(rec) = dep.asorg.org_of_asn(a) {
            org = Some(rec.org_id);
            org_country = Some(rec.country.clone());
        }
    }
    let ip_country = dep.geodb.country_of(ip).map(str::to_string);
    (asn, org, org_country, ip_country, dep.anycast.contains(ip))
}

/// One site through dns → geodb → tls, exactly as the pipeline's worker
/// measures it, with each layer call inside its span.
fn measure_site(
    obs: &mut SiteObservation,
    resolver: &mut IterativeResolver,
    scanner: &mut Scanner,
    dep: &DeployedWorld,
    spans: &mut Spans,
) {
    let parsed = timed(&mut spans.resolve_a, || DomainName::parse(&obs.domain));
    let Ok(name) = parsed else {
        obs.hosting_error = Some(LayerError::new(
            FailureCause::Malformed,
            "unparseable domain",
        ));
        obs.dns_error = Some(LayerError::new(FailureCause::Skipped, "domain unparseable"));
        obs.ca_error = Some(LayerError::new(FailureCause::Skipped, "domain unparseable"));
        obs.derive_error_summary();
        return;
    };

    match timed(&mut spans.resolve_a, || resolver.resolve_a(&name)) {
        Ok(addrs) if !addrs.is_empty() => {
            let ip = addrs[0];
            obs.hosting_ip = Some(ip);
            let (asn, org, org_country, ip_country, anycast) =
                timed(&mut spans.attrib, || attribute(dep, ip));
            obs.hosting_asn = asn;
            obs.hosting_org = org;
            obs.hosting_org_country = org_country;
            obs.hosting_ip_country = ip_country;
            obs.hosting_anycast = anycast;
        }
        Ok(_) => {
            obs.hosting_error = Some(LayerError::new(FailureCause::NoRecords, "empty A answer"))
        }
        Err(e) => obs.hosting_error = Some(resolve_failure("A", &e)),
    }

    match timed(&mut spans.resolve_ns, || resolver.resolve_ns(&name)) {
        Ok(ns_names) if !ns_names.is_empty() => {
            obs.ns_names = ns_names.iter().map(|n| n.to_string()).collect();
            let resolved = timed(&mut spans.ns_addr, || {
                ns_names.iter().find_map(|ns| match resolver.resolve_a(ns) {
                    Ok(addrs) if !addrs.is_empty() => Some(addrs[0]),
                    _ => None,
                })
            });
            if let Some(ip) = resolved {
                obs.dns_ip = Some(ip);
                let (asn, org, org_country, ip_country, anycast) =
                    timed(&mut spans.attrib, || attribute(dep, ip));
                obs.dns_asn = asn;
                obs.dns_org = org;
                obs.dns_org_country = org_country;
                obs.dns_ip_country = ip_country;
                obs.dns_anycast = anycast;
            } else {
                obs.dns_error = Some(LayerError::new(
                    FailureCause::NoRecords,
                    "no nameserver address",
                ));
            }
        }
        Ok(_) => obs.dns_error = Some(LayerError::new(FailureCause::NoRecords, "empty NS answer")),
        Err(ResolveError::NoData(_)) => {}
        Err(e) => obs.dns_error = Some(resolve_failure("NS", &e)),
    }

    match obs.hosting_ip {
        None => {
            obs.ca_error = Some(LayerError::new(
                FailureCause::Skipped,
                "no serving IP to scan",
            ))
        }
        Some(ip) => {
            spans.scans += 1;
            match timed(&mut spans.scan, || scanner.scan(ip, &obs.domain)) {
                Ok(chain) => match chain.leaf() {
                    Some(leaf) => {
                        let owner = timed(&mut spans.attrib, || {
                            dep.caodb
                                .owner_of_issuer(leaf.issuer_id)
                                .map(|o| (o.owner_id, o.country.clone()))
                        });
                        match owner {
                            Some((id, country)) => {
                                obs.ca_owner = Some(id);
                                obs.ca_owner_country = Some(country);
                            }
                            None => {
                                obs.ca_error = Some(LayerError::new(
                                    FailureCause::UnknownIssuer,
                                    "unknown issuer",
                                ))
                            }
                        }
                    }
                    None => {
                        obs.ca_error = Some(LayerError::new(
                            FailureCause::Malformed,
                            "empty certificate chain",
                        ))
                    }
                },
                Err(e) => {
                    spans.scan_failed += 1;
                    obs.ca_error = Some(scan_failure(&e));
                }
            }
        }
    }
    obs.derive_error_summary();
}

/// What the measurement replay saw.
struct Replay {
    spans: Spans,
    /// Wall time of the replay loop, verification excluded.
    wall: Duration,
    finish: Duration,
    mismatches: usize,
    wire_queries: u64,
    cache_hits: u64,
    malformed: u64,
    datagrams: u64,
    dropped: u64,
    allocs: u64,
    store_bytes: u64,
    journal_bytes: u64,
}

/// Replays the 1-worker campaign over `world` on this thread, into a
/// second store at `dir`, checking each observation against `reference`.
fn replay_campaign(
    world: &World,
    dep: &DeployedWorld,
    reference: &ChunkStore,
    dir: &Path,
    journal_path: &Path,
) -> std::io::Result<Replay> {
    let n = world.sites.len();
    let cfg = workload::pipeline(1);
    let mut resolver = IterativeResolver::with_shared_cache(
        dep.vantage(cfg.vantage),
        dep.roots.clone(),
        cfg.resolver.clone(),
        Arc::new(SharedDnsCache::new()),
    );
    let mut scanner = Scanner::new(dep.vantage(cfg.vantage), cfg.scanner.clone());
    let mut writer = ChunkStoreWriter::create(dir, &world.label, n, DEFAULT_CHUNK_SITES)?;
    let mut journal = JournalWriter::create(journal_path, &world.label, n)?;
    let mut spans = Spans::default();
    let mut pending: Vec<SiteObservation> = Vec::with_capacity(DEFAULT_CHUNK_SITES);
    let mut mismatches = 0;
    let mut verify = Duration::ZERO;
    let mut verify_allocs = 0;
    let net0 = dep.network.stats();
    let allocs0 = thread_allocs();
    let t0 = Instant::now();
    for (i, site) in world.sites.iter().enumerate() {
        let mut obs = SiteObservation::blank(&site.domain, &site.language);
        measure_site(&mut obs, &mut resolver, &mut scanner, dep, &mut spans);
        timed(&mut spans.journal, || journal.append(i, &obs))?;
        timed(&mut spans.commit, || writer.commit(i, &obs))?;
        pending.push(obs);
        if pending.len() == DEFAULT_CHUNK_SITES || i + 1 == n {
            let a = thread_allocs();
            let t = Instant::now();
            let chunk = reference.read_chunk(i / DEFAULT_CHUNK_SITES)?;
            for (r, obs) in pending.drain(..).enumerate() {
                if chunk.observation(r) != obs {
                    mismatches += 1;
                }
            }
            drop(chunk);
            verify += t.elapsed();
            verify_allocs += thread_allocs() - a;
        }
    }
    timed(&mut spans.journal, || journal.sync())?;
    let allocs = thread_allocs() - allocs0 - verify_allocs;
    let wall = t0.elapsed() - verify;
    let net = dep.network.stats();
    let store_bytes = writer.bytes_written();
    let t = Instant::now();
    writer.finish()?;
    let finish = t.elapsed();
    let rs = resolver.stats();
    Ok(Replay {
        wall,
        finish,
        mismatches,
        wire_queries: rs.wire_queries,
        cache_hits: rs.local_cache_hits + rs.shared_cache_hits,
        malformed: rs.malformed_datagrams + rs.mismatched_ids,
        datagrams: net.sent - net0.sent,
        dropped: net.dropped - net0.dropped,
        allocs,
        store_bytes,
        journal_bytes: std::fs::metadata(journal_path)?.len(),
        spans,
    })
}

fn request_of(target: &str) -> Option<(Vec<u8>, Request)> {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes();
    match parse_head(&raw, &Limits::default()) {
        ParseOutcome::Complete { request, .. } => Some((raw, request)),
        _ => None,
    }
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

fn us_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e6 / n.max(1) as f64
}

fn ms_of(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run.
pub fn run(
    p: &Params,
    seed: u64,
    seconds: f64,
    nproc: usize,
    work: &Path,
    report: &mut Report,
) -> std::io::Result<()> {
    // ------------------------------------------------------------- webgen
    let (base, gen, deploy) = workload::generate(p, seed);
    report.metric("webgen.generate_s", gen.as_secs_f64(), "s");
    report.metric("webgen.deploy_s", deploy.as_secs_f64(), "s");
    let world = &base.world;
    let n = world.sites.len();

    // ----------------------------------------------------- pipeline (untraced)
    let dir_p = work.join("pipeline-nproc");
    let stats_p = measure_streamed(world, &base.dep, &workload::pipeline(nproc), &dir_p, None)?;
    report.metric("pipeline.idle_frac", stats_p.peak_idle_fraction, "ratio");
    let dir_a = work.join("pipeline-1");
    let journal_a = work.join("pipeline-1.journal");
    let t = Instant::now();
    let stats_1 = measure_streamed(
        world,
        &base.dep,
        &workload::pipeline(1),
        &dir_a,
        Some(&journal_a),
    )?;
    let untraced_wall = t.elapsed();
    // One worker, as in the untraced run's campaigns behind `sites_per_s`.
    report.metric("pipeline.measure_s", stats_1.wall.as_secs_f64(), "s");
    report.check(
        workload::stores_identical(&dir_p, &dir_a),
        "nproc-worker and 1-worker stores are identical",
    );

    // ------------------------------------------------ measurement replay
    let reference = ChunkStore::open(&dir_a)?;
    let dir_b = work.join("replay");
    let replay = replay_campaign(
        world,
        &base.dep,
        &reference,
        &dir_b,
        &work.join("replay.journal"),
    )?;
    report.check(
        replay.mismatches == 0,
        format!(
            "replayed observations equal the stored rows ({} of {n} differ)",
            replay.mismatches
        ),
    );
    report.check(
        replay.wire_queries == stats_1.wire_queries,
        format!(
            "replay sent the 1-worker pipeline's wire queries ({} vs {})",
            replay.wire_queries, stats_1.wire_queries
        ),
    );
    report.check(
        workload::stores_identical(&dir_a, &dir_b),
        "replayed store is identical to the pipeline's",
    );
    let s = &replay.spans;
    report.metric("dns.resolve_a_us", us_per(s.resolve_a, n), "us");
    report.metric("dns.resolve_ns_us", us_per(s.resolve_ns, n), "us");
    report.metric("dns.ns_addr_us", us_per(s.ns_addr, n), "us");
    report.metric(
        "dns.wire_queries_per_site",
        replay.wire_queries as f64 / n as f64,
        "count",
    );
    report.metric(
        "dns.cache_hit_ratio",
        replay.cache_hits as f64 / (replay.cache_hits + replay.wire_queries).max(1) as f64,
        "ratio",
    );
    report.metric("dns.malformed", replay.malformed as f64, "count");
    report.metric(
        "netsim.datagrams_per_site",
        replay.datagrams as f64 / n as f64,
        "count",
    );
    report.metric("netsim.dropped", replay.dropped as f64, "count");
    report.metric("tls.scan_us", us_per(s.scan, s.scans as usize), "us");
    report.metric("tls.scan_failed", s.scan_failed as f64, "count");
    report.metric("geodb.attrib_us", us_per(s.attrib, n), "us");
    report.metric("pipeline.store.commit_us", us_per(s.commit, n), "us");
    report.metric("pipeline.store.finish_ms", ms_of(replay.finish), "ms");
    report.metric(
        "pipeline.store.bytes_per_site",
        replay.store_bytes as f64 / n as f64,
        "bytes",
    );
    report.metric("pipeline.journal.append_us", us_per(s.journal, n), "us");
    report.metric(
        "pipeline.journal.bytes_per_site",
        replay.journal_bytes as f64 / n as f64,
        "bytes",
    );
    report.metric("alloc.per_site", replay.allocs as f64 / n as f64, "count");
    let unattributed = 1.0 - s.attributed().as_secs_f64() / replay.wall.as_secs_f64();
    report.metric("trace.unattributed_frac", unattributed, "ratio");
    report.metric(
        "trace.overhead_ratio",
        replay.wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        "ratio",
    );
    eprintln!(
        "[{}] replay: {n} sites in {:.3} s traced vs {:.3} s untraced (1 worker); {:.1}% unattributed",
        p.name,
        replay.wall.as_secs_f64(),
        untraced_wall.as_secs_f64(),
        unattributed * 100.0
    );

    // ---------------------------------------------------- analysis fold
    let ids = world
        .universe
        .tlds
        .iter()
        .map(|t| (t.label.clone(), t.id))
        .collect();
    let mut read = Duration::ZERO;
    let mut fold = Duration::ZERO;
    let mut builder = timed(&mut fold, || CubeBuilder::new(n));
    for c in 0..reference.num_chunks() {
        let chunk = timed(&mut read, || reference.read_chunk(c))?;
        timed(&mut fold, || builder.fold_chunk(&chunk, &ids));
    }
    let cube = timed(&mut fold, || {
        builder.finish(world, &world.toplists, &world.global_top)
    });
    drop(black_box(cube));
    report.metric(
        "pipeline.store.read_chunk_ms",
        ms_of(read) / reference.num_chunks() as f64,
        "ms",
    );
    report.metric("analysis.fold_ms", ms_of(fold), "ms");

    // ------------------------------------------------------ snapshot
    let t = Instant::now();
    let snap1 = Arc::new(CubeSnapshot::from_store(1, Arc::clone(world), &dir_a)?);
    report.metric("serve.snapshot.build_ms", ms_of(t.elapsed()), "ms");
    let t = Instant::now();
    let valid = snap1.validate(None, None);
    report.metric("serve.snapshot.validate_ms", ms_of(t.elapsed()), "ms");
    report.check(valid.is_ok(), "campaign snapshot validates");
    let cell = SnapshotCell::new(Arc::clone(&snap1));
    let mut cached = None;
    const LOADS: usize = 200_000;
    let t = Instant::now();
    for _ in 0..LOADS {
        black_box(cell.load_cached(&mut cached));
    }
    report.metric("serve.snapshot.load_ns", ns_per(t.elapsed(), LOADS), "ns");

    // ------------------------------------------- serving, in-process replay
    let mix = p.mix(seed);
    let mut rng = Rng::new(seed ^ 0x7EACE);
    let salt = rng.next_u64();
    let warm: Vec<(Vec<u8>, Request)> = mix.warm.iter().filter_map(|t| request_of(t)).collect();
    let cold_mix = client::Mix {
        cold_share: 1.0,
        ..mix.clone()
    };
    let cold: Vec<(Vec<u8>, Request)> = (0..200)
        .filter_map(|i| request_of(&cold_mix.draw(&mut rng, salt, i).1))
        .collect();
    report.check(
        warm.len() == mix.warm.len() && cold.len() == 200,
        "every replayed request parses",
    );
    let cache = ResponseCache::new(workload::serve_config(workload::THREADS).cache_capacity);
    for (_, req) in &warm {
        routes::handle(req, &snap1, &cache, Budget::unlimited());
    }
    const REPS: usize = 50;
    let t = Instant::now();
    for _ in 0..REPS {
        for (raw, _) in &warm {
            black_box(parse_head(black_box(raw), &Limits::default()));
        }
    }
    let parse_ns = ns_per(t.elapsed(), REPS * warm.len());
    report.metric("serve.http.parse_ns", parse_ns, "ns");
    let t = Instant::now();
    for _ in 0..REPS {
        for (_, req) in &warm {
            black_box(routes::handle(req, &snap1, &cache, Budget::unlimited()));
        }
    }
    let hit_us = us_per(t.elapsed(), REPS * warm.len());
    report.metric("serve.routes.hit_us", hit_us, "us");
    let bodies: Vec<Arc<Vec<u8>>> = warm
        .iter()
        .map(|(_, req)| routes::handle(req, &snap1, &cache, Budget::unlimited()).body)
        .collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for body in &bodies {
            black_box(render_response(200, body, Some(1), true));
        }
    }
    let render_ns = ns_per(t.elapsed(), REPS * bodies.len());
    report.metric("serve.http.render_ns", render_ns, "ns");
    // Cache probes with keys shaped like the router's canonical keys.
    let keys: Vec<String> = COUNTRIES
        .iter()
        .flat_map(|c| {
            Layer::ALL
                .iter()
                .map(move |l| format!("score/{}/{}/r200/s42/l0.95", c.code, l.name()))
        })
        .collect();
    let probe = ResponseCache::new(workload::serve_config(workload::THREADS).cache_capacity);
    for k in &keys {
        probe.insert(1, k, Arc::clone(&bodies[0]));
    }
    let t = Instant::now();
    for _ in 0..REPS {
        for k in &keys {
            black_box(probe.get(1, k));
        }
    }
    report.metric(
        "serve.cache.get_ns",
        ns_per(t.elapsed(), REPS * keys.len()),
        "ns",
    );
    let t = Instant::now();
    let mut cold_bytes = 0usize;
    for (_, req) in &cold {
        cold_bytes += routes::handle(req, &snap1, &cache, Budget::unlimited())
            .body
            .len();
    }
    report.metric(
        "serve.routes.miss_us",
        us_per(t.elapsed(), cold.len()),
        "us",
    );
    let ctx = snap1.ctx();
    let mut ci_rng = Rng::new(seed ^ 0xC1);
    let t = Instant::now();
    for _ in 0..cold.len() {
        let ci = ci_rng.below(COUNTRIES.len());
        let layer = Layer::ALL[ci_rng.below(Layer::ALL.len())];
        black_box(ctx.score_ci(
            ci,
            layer,
            routes::DEFAULT_REPLICATES,
            routes::DEFAULT_LEVEL,
            ci_rng.next_u64(),
        ));
    }
    report.metric(
        "analysis.score_ci_us",
        us_per(t.elapsed(), cold.len()),
        "us",
    );
    let warm_bytes: usize = bodies
        .iter()
        .map(|b| render_response(200, b, Some(1), true).len())
        .sum();
    let per_warm = warm_bytes as f64 / bodies.len() as f64;
    let per_cold = cold_bytes as f64 / cold.len() as f64;
    report.metric(
        "serve.bytes_per_response",
        per_warm * (1.0 - mix.cold_share) + per_cold * mix.cold_share,
        "bytes",
    );
    // Allocations per request: the whole in-process path of one request.
    let serve_one = |raw: &[u8], cache: &ResponseCache, cached: &mut Option<Arc<CubeSnapshot>>| {
        if let ParseOutcome::Complete { request, .. } = parse_head(raw, &Limits::default()) {
            let snap = cell.load_cached(cached);
            let routed = routes::handle(&request, &snap, cache, Budget::unlimited());
            black_box(render_response(
                routed.status,
                &routed.body,
                Some(snap.epoch),
                true,
            ));
        }
    };
    let a = thread_allocs();
    for (raw, _) in &warm {
        serve_one(raw, &cache, &mut cached);
    }
    report.metric(
        "alloc.per_warm_request",
        (thread_allocs() - a) as f64 / warm.len() as f64,
        "count",
    );
    let fresh = ResponseCache::new(workload::serve_config(workload::THREADS).cache_capacity);
    let a = thread_allocs();
    for (raw, _) in &cold {
        serve_one(raw, &fresh, &mut cached);
    }
    report.metric(
        "alloc.per_cold_request",
        (thread_allocs() - a) as f64 / cold.len() as f64,
        "count",
    );
    drop(ctx);
    drop(cached);
    drop(cell);

    // ------------------------------------------------ live serving
    let server = start(
        workload::serve_config(workload::THREADS),
        Arc::clone(&snap1),
    )?;
    let addr = server.addr();
    for target in &mix.warm {
        client::get(addr, target)?;
    }
    let stats0 = server.cache_stats();
    let stop = AtomicBool::new(false);
    let depth_max = AtomicU64::new(0);
    let live = std::thread::scope(|sc| {
        sc.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let d = server.metrics().queue_depth.get() as u64;
                depth_max.fetch_max(d, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let out = client::run(&LoadSpec {
            addr,
            conns: workload::THREADS,
            rate: workload::REF_RATE,
            duration: Duration::from_secs_f64((seconds * 0.2).max(1.0)),
            drain: Duration::from_secs(5),
            mix: &mix,
            seed: rng.next_u64(),
            sample_every: 0,
            stop: None,
        });
        stop.store(true, Ordering::Release);
        out
    });
    report.ops(live.attempted, live.failed, "live requests");
    let stats1 = server.cache_stats();
    let lookups = (stats1.hits + stats1.misses) - (stats0.hits + stats0.misses);
    report.metric(
        "serve.cache.hit_ratio",
        (stats1.hits - stats0.hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let m = server.metrics();
    report.metric(
        "serve.shed",
        (m.shed_queue.get() + m.shed_load.get()) as f64,
        "count",
    );
    report.metric(
        "serve.deadline_aborts",
        m.deadline_aborts.get() as f64,
        "count",
    );
    report.metric(
        "serve.queue_depth_max",
        depth_max.load(Ordering::Relaxed) as f64,
        "count",
    );
    report.metric("gen.late_us_p99", quantile(&live.late_us, 0.99), "us");
    // In-process stages of one warm request, per request: parse, load,
    // cache-hit dispatch, render.
    let inside_us = parse_ns / 1e3 + hit_us + render_ns / 1e3;
    report.metric("serve.outside_us", median(&live.warm_us) - inside_us, "us");

    // ------------------------------------------------ one delta epoch
    let plan = p.plan(seed);
    let (next, delta) = plan.evolve_epoch(world, 0);
    let next = Arc::new(next);
    let dep_next = workload::deploy_pinned(&next, &base.census);
    let dir_e = work.join("epoch-1");
    let t = Instant::now();
    let dstats = measure_delta(
        &next,
        &dep_next,
        &workload::pipeline(1),
        &delta,
        &dir_a,
        &dir_e,
        None,
    )?;
    report.metric("pipeline.delta.measure_ms", ms_of(t.elapsed()), "ms");
    report.metric(
        "pipeline.delta.remeasured_frac",
        dstats.sites_remeasured as f64 / dstats.sites_total as f64,
        "ratio",
    );
    report.metric(
        "pipeline.delta.adopted_frac",
        dstats.chunks_adopted as f64 / dstats.chunks_total as f64,
        "ratio",
    );
    let t = Instant::now();
    let snap2 = Arc::new(CubeSnapshot::from_delta(
        2,
        Arc::clone(&next),
        &snap1,
        &delta,
        &dir_e,
    )?);
    report.metric("serve.snapshot.from_delta_ms", ms_of(t.elapsed()), "ms");
    report.check(
        snap2.validate(Some(&snap1), Some(&delta)).is_ok(),
        "delta snapshot validates",
    );
    let purged0 = server.cache_stats().stale_purged;
    let t = Instant::now();
    let epoch = server.publish(Arc::clone(&snap2));
    report.metric("serve.snapshot.publish_us", us_per(t.elapsed(), 1), "us");
    report.metric(
        "serve.cache.purged",
        (server.cache_stats().stale_purged - purged0) as f64,
        "count",
    );
    report.check(epoch == 2, "delta epoch published");
    server.shutdown();
    Ok(())
}
