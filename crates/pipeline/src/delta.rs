//! Incremental epoch measurement: re-measure only what changed.
//!
//! A continuous measurement loop evolves the world each epoch
//! ([`webdep_webgen::EvolutionPlan`]) and hands [`measure_delta`] the
//! previous epoch's chunk store plus the [`WorldDelta`] naming the dirty
//! site set. Clean sites never touch the network again:
//!
//! * a chunk with no dirty site and an unchanged row count is **adopted**
//!   wholesale — hard-linked (copy fallback) from the previous store and
//!   checksum-verified, zero decode and zero re-encode;
//! * a chunk containing dirty rows (or the previous store's short final
//!   chunk, whose row count grows with the site table) is decoded once
//!   and its *clean* rows are **spliced** into the new chunk column to
//!   column (`ChunkStoreWriter::splice`) — no row becomes a
//!   `SiteObservation` again, and each of the chunk's strings is hashed at
//!   most once — while its dirty rows go to the measurement workers; the
//!   decoded chunk is dropped as soon as its rows are in;
//! * every dirty site is re-measured under the same supervised runner as
//!   [`crate::run::measure_streamed`].
//!
//! Because per-site measurement is deterministic and chunk bytes are a
//! pure function of their rows, the finished store is **byte-identical**
//! to a from-scratch `measure_streamed` of the evolved world — provided
//! the evolved world is deployed with the base epoch's pinned pool census
//! ([`webdep_webgen::DeployConfig::pool_sites`]), which keeps unchanged
//! sites' serving IPs fixed while customer counts churn. The identity
//! holds across worker counts (`tests/delta.rs`), the same contract as
//! crash-resume.
//!
//! At real churn rates the adoption lane rarely fires: with 5% of sites
//! dirty, a 4,096-row chunk is clean with probability 0.95^4096 ≈ 0, so
//! every chunk is spliced, re-encoded and fsynced each epoch. That is why
//! the splice and the encoder are built to cost little per row: an
//! epoch's store work is O(sites), next to O(churn) re-measurement.

use crate::journal::JournalWriter;
use crate::run::{finish_streaming, run_supervised, MeasureStats, PipelineConfig, Sink};
use crate::store::{ChunkStore, ChunkStoreWriter};
use std::io;
use std::path::Path;
use webdep_webgen::{DeployedWorld, World, WorldDelta};

/// Accounting for one [`measure_delta`] run.
#[derive(Debug)]
pub struct DeltaStats {
    /// Sites in the evolved epoch.
    pub sites_total: usize,
    /// Dirty sites actually re-measured.
    pub sites_remeasured: usize,
    /// Clean chunks reused wholesale (hard-link or copy, no re-encode).
    pub chunks_adopted: usize,
    /// Total chunks in the new store.
    pub chunks_total: usize,
    /// Clean rows spliced out of partially dirty chunks.
    pub rows_recommitted: usize,
    /// Stats from the supervised run over the dirty remainder.
    pub measure: MeasureStats,
}

/// Materializes the epoch-N+1 store at `store_dir` from the epoch-N store
/// at `prev_store_dir` plus the dirty set in `delta`, re-measuring only
/// dirty sites against `dep`.
///
/// `world` must be the evolved world (`delta.to_label`), deployed with the
/// base epoch's pinned pool census for the byte-identity contract to hold;
/// `journal_path` optionally checkpoints the dirty-site re-measurement
/// exactly as in [`crate::run::measure_streamed`].
pub fn measure_delta(
    world: &World,
    dep: &DeployedWorld,
    config: &PipelineConfig,
    delta: &WorldDelta,
    prev_store_dir: &Path,
    store_dir: &Path,
    journal_path: Option<&Path>,
) -> io::Result<DeltaStats> {
    let n = world.sites.len();
    if world.label != delta.to_label || n != delta.to_sites {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "world '{}' ({} sites) is not the delta's target '{}' ({} sites)",
                world.label, n, delta.to_label, delta.to_sites
            ),
        ));
    }
    let prev = ChunkStore::open(prev_store_dir)?;
    if prev.label != delta.from_label || prev.sites != delta.from_sites {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "previous store '{}' ({} sites) is not the delta's source '{}' ({} sites)",
                prev.label, prev.sites, delta.from_label, delta.from_sites
            ),
        ));
    }

    // Same chunk geometry as the previous epoch, so clean chunks align.
    let k = prev.chunk_sites;
    let mut store = ChunkStoreWriter::create(store_dir, &world.label, n, k)?;
    let dirty = delta.dirty();
    let mut done = vec![false; n];
    let mut chunks_adopted = 0usize;
    let mut rows_recommitted = 0usize;
    for c in 0..prev.num_chunks() {
        let lo = c * k;
        let prev_rows = prev.chunk_rows(c);
        let new_rows = (n - lo).min(k);
        let chunk_dirty = dirty[lo..lo + prev_rows].iter().any(|&d| d);
        if prev_rows == new_rows && !chunk_dirty {
            store.adopt_chunk(&prev, c)?;
            chunks_adopted += 1;
            for d in done[lo..lo + new_rows].iter_mut() {
                *d = true;
            }
        } else {
            // The previous epoch's rows are the ground truth for this
            // chunk's clean sites, spliced in column to column; dirty rows
            // (and the appended tail) are left for the workers.
            let chunk = prev.read_chunk(c)?;
            rows_recommitted += store.splice(&chunk, |r| !dirty[lo + r])?;
            for (d, &is_dirty) in done[lo..lo + prev_rows].iter_mut().zip(&dirty[lo..]) {
                *d = !is_dirty;
            }
        }
    }

    let resumed = done.iter().filter(|&&d| d).count();
    let journal = journal_path
        .map(|p| JournalWriter::create(p, &world.label, n))
        .transpose()?;
    let sink = Sink::streaming(done, store, journal);
    let (sink, stats) = run_supervised(world, dep, config, sink, resumed);
    let measure = finish_streaming(world, sink, stats)?;
    Ok(DeltaStats {
        sites_total: n,
        sites_remeasured: n - resumed,
        chunks_adopted,
        chunks_total: n.div_ceil(k),
        rows_recommitted,
        measure,
    })
}
