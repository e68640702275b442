//! The supervision/resilience bench behind `BENCH_resilience.json`.
//!
//! Three questions, answered on one reduced world. Every run streams into
//! a chunk store and is reloaded for comparison:
//!
//! 1. What does journaling cost? The same streamed run without and with
//!    the crash journal (one-row chunk frames), best of `REPS` each:
//!    wall overhead and journal size. The overhead is reported against
//!    the +20% target as information, not gated.
//! 2. What does a worker death cost? Seeded [`ChaosPlan`] kills at N
//!    evenly spaced sites; the snapshot records time-to-complete, the
//!    supervision counters, and — the headline — how many observations
//!    were lost or changed versus the undisturbed baseline (must be 0:
//!    requeued batches re-measure to identical bytes).
//! 3. What does crash-resume cost? The journal's first half of records is
//!    kept and the run resumed into a fresh store directory; the snapshot
//!    records the resume wall against the clean wall and certifies
//!    byte-identity.

use serde::Serialize;
use std::path::Path;
use std::time::{Duration, Instant};
use webdep_pipeline::journal::{self, JournalWriter};
use webdep_pipeline::{
    measure_streamed, resume_streamed, ChaosPlan, ChunkStore, MeasureStats, MeasuredDataset,
    PipelineConfig, SupervisorConfig,
};
use webdep_webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

/// Clean and journaled runs each; the snapshot keeps the fastest, which
/// is the least disturbed by other load on the host.
const REPS: usize = 3;
/// The journal overhead the design aims to stay under (+20%).
const JOURNAL_OVERHEAD_TARGET: f64 = 0.2;

/// Worker deaths injected per degraded run.
const DEATH_COUNTS: [usize; 3] = [1, 2, 4];

/// The clean reference pair: the same streamed run without and with
/// journaling, fastest of `REPS` each.
#[derive(Serialize)]
pub struct CleanRuns {
    /// Wall-clock of the plain run (ms).
    pub wall_ms: u64,
    /// Wall-clock with the journal enabled (ms).
    pub journaled_wall_ms: u64,
    /// `journaled_wall_ms / wall_ms - 1`, the checkpointing tax.
    pub journal_overhead: f64,
    /// Size of the completed journal file (bytes).
    pub journal_bytes: u64,
}

/// One chaos run with a fixed number of injected worker deaths.
#[derive(Serialize)]
pub struct DeathRun {
    /// Worker deaths scheduled (at evenly spaced sites, first attempt
    /// only, so each fires exactly once).
    pub deaths_injected: usize,
    /// Workers the supervisor actually declared lost.
    pub workers_lost: u64,
    /// Replacement workers spawned.
    pub workers_respawned: u64,
    /// In-flight batches requeued.
    pub batches_requeued: u64,
    /// Sites failed by the poison policy (must stay 0 here).
    pub sites_poisoned: u64,
    /// Observations that differ from the undisturbed baseline (must be 0).
    pub observations_lost: u64,
    /// Wall-clock of the degraded run (ms).
    pub wall_ms: u64,
    /// `wall_ms` relative to the clean run.
    pub slowdown: f64,
    /// Whether the reloaded store serialized byte-identical to the
    /// baseline.
    pub byte_identical: bool,
}

/// The kill-at-50%-and-resume cycle.
#[derive(Serialize)]
pub struct ResumeRun {
    /// Journal records restored instead of re-measured.
    pub resumed_records: u64,
    /// `resumed_records` over the site count.
    pub resumed_fraction: f64,
    /// Wall-clock of the resumed (second) half (ms).
    pub wall_ms: u64,
    /// Resume wall over the clean full-run wall — roughly the fraction of
    /// work the crash did *not* save, plus journal-replay overhead.
    pub overhead_vs_clean: f64,
    /// Whether the resumed store serialized byte-identical to the
    /// uninterrupted baseline.
    pub byte_identical: bool,
}

/// The whole `BENCH_resilience.json` payload.
#[derive(Serialize)]
pub struct ResilienceSnapshot {
    /// The machine the snapshot was recorded on.
    pub host: crate::Host,
    /// Sites in the bench world.
    pub sites: u64,
    /// Pipeline workers.
    pub workers: u64,
    /// The clean / journaled reference runs.
    pub baseline: CleanRuns,
    /// One run per injected death count.
    pub deaths: Vec<DeathRun>,
    /// The crash-resume cycle.
    pub resume: ResumeRun,
    /// Peak RSS (`VmHWM`) of the bench process when the snapshot was
    /// assembled (bytes; `None`/JSON `null` off-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// World for the resilience runs: same reduced scale as the fault sweep,
/// so several full measurements stay tractable.
fn bench_world_config() -> WorldConfig {
    WorldConfig {
        seed: 42,
        sites_per_country: 60,
        global_pool_size: 300,
        tail_scale: 0.04,
        pool_target: 40,
    }
}

fn pipeline_config(workers: usize, chaos: Option<ChaosPlan>) -> PipelineConfig {
    PipelineConfig {
        workers,
        chaos,
        supervisor: SupervisorConfig {
            // Enough respawn budget for the deepest death schedule.
            max_respawns: DEATH_COUNTS[DEATH_COUNTS.len() - 1] * 2,
            ..SupervisorConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Evenly spaced kill sites, far enough apart that each lands in its own
/// batch and kills exactly one worker (first attempt only).
fn kill_sites(n_sites: usize, deaths: usize) -> Vec<usize> {
    (1..=deaths).map(|k| k * n_sites / (deaths + 1)).collect()
}

fn dataset_bytes(ds: &MeasuredDataset) -> Vec<u8> {
    serde_json::to_string(&ds.observations)
        .expect("observations serialize")
        .into_bytes()
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("webdep-resilience-{name}-{}", std::process::id()))
}

/// Reloads the finished store at `dir` as a dataset.
fn reload(world: &World, dir: &Path) -> MeasuredDataset {
    ChunkStore::open(dir)
        .and_then(|store| store.load_dataset(world))
        .expect("reload store")
}

/// One streamed run into the store at `dir`: its wall clock (store finish
/// and final journal sync included), its stats and the reloaded dataset.
fn streamed(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    dir: &Path,
    journal: Option<&Path>,
) -> (Duration, MeasureStats, MeasuredDataset) {
    let t0 = Instant::now();
    let stats = measure_streamed(world, dep, config, dir, journal).expect("streamed run");
    (t0.elapsed(), stats, reload(world, dir))
}

/// Runs the resilience bench and assembles the snapshot.
///
/// `progress` receives one line per completed stage (the bench binary
/// wires it to stderr; tests pass a sink).
pub fn resilience_snapshot(workers: usize, progress: impl FnMut(&str)) -> ResilienceSnapshot {
    resilience_snapshot_with(bench_world_config(), workers, progress)
}

/// [`resilience_snapshot`] over an explicit world config (tests shrink it).
pub fn resilience_snapshot_with(
    world_cfg: WorldConfig,
    workers: usize,
    mut progress: impl FnMut(&str),
) -> ResilienceSnapshot {
    let world = World::generate(world_cfg);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();
    let (store, journal_file) = (scratch("store"), scratch("journal"));
    let cfg = pipeline_config(workers, None);

    // Clean and journaled runs alternate, so both see the same host.
    let (mut clean_wall, mut journaled_wall) = (Duration::MAX, Duration::MAX);
    let mut baseline_ds = None;
    for _ in 0..REPS {
        let (wall, _, ds) = streamed(&world, &dep, &cfg, &store, None);
        clean_wall = clean_wall.min(wall);
        let (wall, _, journaled) = streamed(&world, &dep, &cfg, &store, Some(&journal_file));
        journaled_wall = journaled_wall.min(wall);
        assert_eq!(journaled, ds, "journaling changed the dataset");
        baseline_ds.get_or_insert(ds);
    }
    let baseline_ds = baseline_ds.expect("REPS > 0");
    let baseline_bytes = dataset_bytes(&baseline_ds);
    let journal_bytes = std::fs::metadata(&journal_file)
        .map(|m| m.len())
        .unwrap_or(0);
    let journal_overhead = journaled_wall.as_secs_f64() / clean_wall.as_secs_f64() - 1.0;
    progress(&format!(
        "clean: {n} sites in {} ms; journaled: {} ms, journal {} KiB ({:.0} B/site)",
        clean_wall.as_millis(),
        journaled_wall.as_millis(),
        journal_bytes / 1024,
        journal_bytes as f64 / n as f64
    ));
    progress(&format!(
        "info: journal overhead {:+.1}% (target <= {:+.0}%, not gated)",
        100.0 * journal_overhead,
        100.0 * JOURNAL_OVERHEAD_TARGET
    ));

    let deaths = DEATH_COUNTS
        .iter()
        .map(|&d| {
            let plan = ChaosPlan::kill_at(&kill_sites(n, d));
            let config = pipeline_config(workers, Some(plan));
            let (wall, stats, ds) = streamed(&world, &dep, &config, &store, None);
            let observations_lost = baseline_ds
                .observations
                .iter()
                .zip(&ds.observations)
                .filter(|(a, b)| a != b)
                .count() as u64;
            let run = DeathRun {
                deaths_injected: d,
                workers_lost: stats.supervision.workers_lost,
                workers_respawned: stats.supervision.workers_respawned,
                batches_requeued: stats.supervision.batches_requeued,
                sites_poisoned: stats.supervision.sites_poisoned,
                observations_lost,
                wall_ms: wall.as_millis() as u64,
                slowdown: round3(wall.as_secs_f64() / clean_wall.as_secs_f64()),
                byte_identical: dataset_bytes(&ds) == baseline_bytes,
            };
            progress(&format!(
                "deaths={d}: lost {}, requeued {}, obs lost {}, {} ms (x{:.2}), identical {}",
                run.workers_lost,
                run.batches_requeued,
                run.observations_lost,
                run.wall_ms,
                run.slowdown,
                run.byte_identical
            ));
            run
        })
        .collect();

    // Crash-resume: keep the first half of the journal's records, exactly
    // what a process killed mid-run leaves behind, and lose the store.
    let keep = n / 2;
    let cut_path = scratch("resume");
    let loaded = journal::open(&journal_file, &world.label, n).expect("load journal");
    let mut cut = JournalWriter::create(&cut_path, &world.label, n).expect("create cut journal");
    for (i, obs) in &loaded.records[..keep] {
        cut.append(*i, obs).expect("write cut journal");
    }
    drop(cut);
    let _ = std::fs::remove_dir_all(&store);

    let t0 = Instant::now();
    let resumed_stats = resume_streamed(&world, &dep, &cfg, &store, &cut_path).expect("resume");
    let resume_wall = t0.elapsed();
    let resume = ResumeRun {
        resumed_records: resumed_stats.supervision.sites_resumed,
        resumed_fraction: round3(keep as f64 / n as f64),
        wall_ms: resume_wall.as_millis() as u64,
        overhead_vs_clean: round3(resume_wall.as_secs_f64() / clean_wall.as_secs_f64()),
        byte_identical: dataset_bytes(&reload(&world, &store)) == baseline_bytes,
    };
    progress(&format!(
        "resume from {}/{}: {} ms ({:.0}% of clean), identical {}",
        resume.resumed_records,
        n,
        resume.wall_ms,
        100.0 * resume.overhead_vs_clean,
        resume.byte_identical
    ));
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&cut_path);
    let _ = std::fs::remove_file(&journal_file);

    ResilienceSnapshot {
        host: crate::host(),
        sites: n as u64,
        workers: workers as u64,
        baseline: CleanRuns {
            wall_ms: clean_wall.as_millis() as u64,
            journaled_wall_ms: journaled_wall.as_millis() as u64,
            journal_overhead: round3(journal_overhead),
            journal_bytes,
        },
        deaths,
        resume,
        peak_rss_bytes: crate::peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full snapshot machinery on a micro world: every chaos run must
    /// lose zero observations and the resume must be byte-identical.
    #[test]
    fn resilience_snapshot_certifies_no_loss() {
        let cfg = WorldConfig {
            seed: 42,
            sites_per_country: 20,
            global_pool_size: 80,
            tail_scale: 0.04,
            pool_target: 40,
        };
        let snap = resilience_snapshot_with(cfg, 4, |_| {});
        assert_eq!(snap.deaths.len(), DEATH_COUNTS.len());
        for run in &snap.deaths {
            assert!(
                run.workers_lost >= 1,
                "deaths={} lost none",
                run.deaths_injected
            );
            assert_eq!(run.observations_lost, 0, "deaths={}", run.deaths_injected);
            assert_eq!(run.sites_poisoned, 0, "deaths={}", run.deaths_injected);
            assert!(run.byte_identical, "deaths={}", run.deaths_injected);
        }
        assert!(snap.resume.byte_identical);
        assert!(snap.resume.resumed_records > 0);
        assert!(snap.baseline.journal_bytes > 0);
    }

    #[test]
    fn kill_sites_are_spread_and_in_range() {
        let sites = kill_sites(9000, 4);
        assert_eq!(sites.len(), 4);
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
        assert!(sites.iter().all(|&s| s > 0 && s < 9000));
    }
}
