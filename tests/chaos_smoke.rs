//! Tier-1 chaos smoke (see DESIGN.md "Supervision, checkpointing & resume"):
//! the smallest end-to-end proof that supervision works. One injected worker
//! death must cost zero observations, and a run killed halfway through must
//! resume from its journal into a byte-identical store.
//!
//! The heavier matrix (panic isolation, poison, watchdog, three-point
//! resume, torn tails) lives in `crates/pipeline/tests/supervision.rs`.

use webdep::pipeline::journal::{self, JournalWriter};
use webdep::pipeline::{
    measure, measure_streamed, resume_streamed, ChaosPlan, ChunkStore, PipelineConfig,
};
use webdep::webgen::{DeployConfig, DeployedWorld, World, WorldConfig};

#[test]
fn chaos_smoke_worker_death_and_crash_resume() {
    let mut wc = WorldConfig::tiny();
    wc.sites_per_country = 30;
    wc.global_pool_size = 100;
    let world = World::generate(wc);
    let dep = DeployedWorld::deploy(&world, DeployConfig::default());
    let n = world.sites.len();

    let config = PipelineConfig {
        workers: 4,
        ..Default::default()
    };
    let clean = measure(&world, &dep, &config);

    // One worker killed mid-run: its in-flight batch is requeued and the
    // store comes out byte-identical to the undisturbed run.
    let chaos = PipelineConfig {
        chaos: Some(ChaosPlan::kill_at(&[n / 2])),
        ..config.clone()
    };
    let scratch = |name: &str| {
        std::env::temp_dir().join(format!("webdep-chaos-smoke-{name}-{}", std::process::id()))
    };
    let (store, path) = (scratch("store"), scratch("journal"));
    let stats = measure_streamed(&world, &dep, &chaos, &store, Some(&path)).unwrap();
    assert_eq!(stats.supervision.workers_lost, 1);
    assert_eq!(stats.supervision.batches_requeued, 1);
    let reload = || ChunkStore::open(&store).and_then(|s| s.load_dataset(&world));
    assert_eq!(
        clean,
        reload().unwrap(),
        "a worker death changed the dataset"
    );

    // Keep the first half of the journal's records — what a killed process
    // leaves behind — and resume into a fresh store: only the missing half
    // is re-measured.
    let loaded = journal::open(&path, &world.label, n).unwrap();
    let mut cut = JournalWriter::create(&path, &world.label, n).unwrap();
    for (i, obs) in &loaded.records[..n / 2] {
        cut.append(*i, obs).unwrap();
    }
    drop(cut);
    std::fs::remove_dir_all(&store).unwrap();
    let rstats = resume_streamed(&world, &dep, &config, &store, &path).unwrap();
    assert_eq!(rstats.supervision.sites_resumed, (n / 2) as u64);
    assert_eq!(clean, reload().unwrap(), "crash-resume changed the dataset");
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&path);
}
