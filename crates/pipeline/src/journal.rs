//! The run journal: an append-only log of completed site observations,
//! and the loader that makes crash-resume possible.
//!
//! Format (little-endian):
//!
//! ```text
//! header  magic "WDJOURNL" · version u32 · sites u64 · label_len u32 · label (UTF-8)
//! frame*  len u32 · !len u32 · payload (len bytes)
//! ```
//!
//! Every payload is a **one-row chunk** in the store's own encoding
//! ([`crate::store`]): the bytes a one-site-per-chunk store would hold for
//! that site, FNV-1a checksum included. The store, resume, fsck and heal
//! therefore share one encoder and one decoder. Frames are appended in
//! completion order (worker-interleaved, *not* site order); the loader
//! scatters them back by the site index each chunk header carries.
//!
//! The writer buffers and fsyncs every [`FSYNC_BATCH`] records, so a crash
//! loses at most one batch of durability plus possibly a torn final frame.
//! The loader tolerates exactly that:
//!
//! * a partial frame header, or a declared length that runs past the end
//!   of the file, is a **torn tail**, and so is a last frame whose payload
//!   fails to decode: the frame is dropped;
//! * so is a frame that fails its length check or does not decode where
//!   the file's trailing run of zero bytes has already begun: a power
//!   loss can leave the blocks written after the last fsync zero-filled,
//!   and those bytes were never promised to be durable;
//! * any other length whose check (`!len`) does not match, or any other
//!   undecodable payload, is **corruption** and fails the load — a crash
//!   truncates or zero-fills the tail, it never rewrites a frame in the
//!   middle — as does a record naming a site outside the run.
//!
//! Resuming over a torn tail truncates the file back to the end of its
//! last whole frame before appending. Duplicate records of one site keep
//! the first.
//!
//! Because per-site measurement is deterministic (see the determinism
//! contract in [`crate::run`]), a resumed run re-measures only the
//! missing sites and provably reassembles a byte-identical store.

use crate::dataset::SiteObservation;
use crate::store::{decode_chunk, encode_chunk};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Journal file magic.
pub const MAGIC: [u8; 8] = *b"WDJOURNL";
/// Journal format version (version 1 was line-delimited JSON).
pub const VERSION: u32 = 2;
/// Records between explicit flush+fsync batches.
pub const FSYNC_BATCH: usize = 64;
/// Bytes before each frame's payload: the length and its check.
const FRAME_HEAD: usize = 8;

/// Buffered, fsync-batched appender for the run journal.
///
/// Writes are buffered in userspace and pushed to stable storage every
/// [`FSYNC_BATCH`] records (and on [`JournalWriter::sync`] / drop),
/// trading at most one batch of durability for not paying an fsync per
/// site.
pub struct JournalWriter {
    out: BufWriter<File>,
    pending: usize,
}

impl JournalWriter {
    /// Creates (truncating) a journal for a run over `sites` sites of the
    /// world labeled `label`, writing and syncing the header immediately.
    pub fn create(path: &Path, label: &str, sites: usize) -> io::Result<Self> {
        let mut w = JournalWriter {
            out: BufWriter::new(File::create(path)?),
            pending: 0,
        };
        w.out.write_all(&MAGIC)?;
        w.out.write_all(&VERSION.to_le_bytes())?;
        w.out.write_all(&(sites as u64).to_le_bytes())?;
        w.out.write_all(&(label.len() as u32).to_le_bytes())?;
        w.out.write_all(label.as_bytes())?;
        w.out.flush()?;
        w.out.get_ref().sync_data()?;
        Ok(w)
    }

    /// Reopens the journal [`open`] loaded from `path` for appending. A
    /// torn tail is cut back to the last whole frame first: appending
    /// after it would bury the torn bytes mid-file, where they read as
    /// corruption.
    pub fn append_loaded(path: &Path, loaded: &Journal) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        if loaded.torn_tail {
            file.set_len(loaded.valid_len)?;
            file.sync_data()?;
        }
        Ok(JournalWriter {
            out: BufWriter::new(file),
            pending: 0,
        })
    }

    /// Appends one completed record; flushes and fsyncs every
    /// [`FSYNC_BATCH`] records.
    pub fn append(&mut self, site: usize, obs: &SiteObservation) -> io::Result<()> {
        let payload = encode_chunk(site, site, std::slice::from_ref(obs));
        let len = u32::try_from(payload.len()).map_err(|_| bad("record exceeds 4 GiB"))?;
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(&(!len).to_le_bytes())?;
        self.out.write_all(&payload)?;
        self.pending += 1;
        if self.pending >= FSYNC_BATCH {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffered records and fsyncs file data.
    pub fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        // Telemetry at batch granularity: one fsync event plus however
        // many records it made durable (never per-record atomics).
        let m = crate::metrics::metrics();
        m.journal_fsyncs.inc();
        m.journal_records.add(self.pending as u64);
        self.pending = 0;
        Ok(())
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // Best-effort final durability; errors here have no channel.
        let _ = self.sync();
    }
}

/// A loaded journal's recovered records.
#[derive(Debug)]
pub struct Journal {
    /// Recovered `(site_index, observation)` records, deduplicated
    /// keep-first, in file order.
    pub records: Vec<(usize, SiteObservation)>,
    /// Whole frames read, duplicates included.
    pub frames: usize,
    /// Whether a torn final frame was dropped.
    pub torn_tail: bool,
    /// Byte length of the file up to the end of its last whole frame.
    pub valid_len: u64,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parses the header, returning its label, site count and length.
fn parse_header(bytes: &[u8]) -> Result<(&str, u64, usize), String> {
    let field = |at: usize, n: usize| bytes.get(at..at + n).ok_or("header truncated");
    if field(0, 8)? != MAGIC {
        return Err("not a run journal (bad magic)".into());
    }
    let version = u32::from_le_bytes(field(8, 4)?.try_into().unwrap());
    if version != VERSION {
        return Err(format!("unsupported journal version {version}"));
    }
    let sites = u64::from_le_bytes(field(12, 8)?.try_into().unwrap());
    let label_len = u32::from_le_bytes(field(20, 4)?.try_into().unwrap()) as usize;
    let label = std::str::from_utf8(field(24, label_len)?).map_err(|e| e.to_string())?;
    Ok((label, sites, 24 + label_len))
}

/// Decodes one frame payload: a one-row chunk whose index is its site.
fn decode_record(payload: &[u8]) -> Result<(usize, SiteObservation), String> {
    let chunk = decode_chunk(payload, None)?;
    if chunk.rows != 1 || chunk.index != chunk.lo {
        return Err(format!(
            "not a one-row record (index {}, lo {}, rows {})",
            chunk.index, chunk.lo, chunk.rows
        ));
    }
    Ok((chunk.lo, chunk.observation(0)))
}

/// Loads the journal at `path` for a run over `sites` sites of the world
/// labeled `label` — the one place a journal is checked against its run.
///
/// Tolerates exactly the crash artifact the writer can produce, a torn
/// final frame, which is dropped (see the module docs for what counts as
/// torn and what as corruption).
pub fn open(path: &Path, label: &str, sites: usize) -> io::Result<Journal> {
    let bytes = std::fs::read(path)?;
    let (head_label, head_sites, mut pos) =
        parse_header(&bytes).map_err(|e| bad(format!("bad journal header: {e}")))?;
    if head_label != label || head_sites != sites as u64 {
        return Err(bad(format!(
            "journal is for '{head_label}' ({head_sites} sites), not '{label}' ({sites} sites)"
        )));
    }
    // Where the trailing run of zero bytes begins (the file's length if
    // it ends in a nonzero byte): a frame that fails from there on is a
    // zero-filled tail, not corruption.
    let zeros_from = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    let mut records = Vec::new();
    let mut seen = vec![false; sites];
    let mut torn_tail = false;
    let mut frame = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let corrupt = |why: String| {
            bad(format!(
                "corrupt journal frame {frame} at byte {pos}: {why}"
            ))
        };
        if rest.len() < FRAME_HEAD {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let check = u32::from_le_bytes(rest[4..FRAME_HEAD].try_into().unwrap());
        if check != !len {
            if pos + FRAME_HEAD > zeros_from {
                torn_tail = true;
                break;
            }
            return Err(corrupt(format!("length {len} fails its check")));
        }
        let end = FRAME_HEAD + len as usize;
        let Some(payload) = rest.get(FRAME_HEAD..end) else {
            torn_tail = true;
            break;
        };
        match decode_record(payload) {
            Ok((site, _)) if site >= sites => {
                return Err(corrupt(format!(
                    "site index {site} out of bounds (< {sites})"
                )));
            }
            Ok((site, obs)) => {
                if !seen[site] {
                    seen[site] = true;
                    records.push((site, obs));
                }
            }
            Err(_) if end == rest.len() || pos + end > zeros_from => {
                torn_tail = true;
                break;
            }
            Err(e) => return Err(corrupt(e)),
        }
        pos += end;
        frame += 1;
    }
    Ok(Journal {
        records,
        frames: frame,
        torn_tail,
        valid_len: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FailureCause, LayerError};
    use std::fs;
    use std::net::Ipv4Addr;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("webdep-journal-{name}-{}", std::process::id()))
    }

    fn sample_obs(i: usize) -> SiteObservation {
        let mut o = SiteObservation::blank(&format!("site{i}.example.com"), "en");
        o.hosting_ip = Some(Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8));
        o.hosting_asn = Some(64512 + i as u32);
        o.hosting_org = Some(7);
        o.hosting_org_country = Some("US".into());
        o.hosting_anycast = i.is_multiple_of(2);
        o.ns_names = vec![format!("ns1.host{i}.net"), format!("ns2.host{i}.net")];
        if i.is_multiple_of(3) {
            o.dns_error = Some(LayerError::new(
                FailureCause::Timeout,
                "NS: query timed out",
            ));
        }
        o.derive_error_summary();
        o
    }

    /// Writes a journal over `sites` sites holding `order`'s records and
    /// returns the byte offset at which each frame starts, plus the end.
    fn write(path: &Path, sites: usize, order: &[usize]) -> Vec<usize> {
        let mut w = JournalWriter::create(path, "t", sites).unwrap();
        let mut starts = Vec::new();
        for &i in order {
            w.sync().unwrap();
            starts.push(fs::metadata(path).unwrap().len() as usize);
            w.append(i, &sample_obs(i)).unwrap();
        }
        drop(w);
        starts.push(fs::metadata(path).unwrap().len() as usize);
        starts
    }

    fn sites(j: &Journal) -> Vec<usize> {
        j.records.iter().map(|(i, _)| *i).collect()
    }

    #[test]
    fn roundtrip_is_exact() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, "tiny-v1", 10).unwrap();
        let original: Vec<SiteObservation> = (0..10).map(sample_obs).collect();
        // Append out of site order, as workers do.
        for &i in &[3usize, 0, 7, 1, 9, 2] {
            w.append(i, &original[i]).unwrap();
        }
        drop(w);

        let j = open(&path, "tiny-v1", 10).unwrap();
        assert!(!j.torn_tail);
        assert_eq!(j.valid_len, fs::metadata(&path).unwrap().len());
        assert_eq!(sites(&j), [3, 0, 7, 1, 9, 2], "records keep file order");
        for (i, obs) in &j.records {
            assert_eq!(obs, &original[*i], "site {i} must roundtrip exactly");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_last_frame_keeps_every_earlier_record() {
        let path = tmp("torn");
        let starts = write(&path, 4, &[2, 0, 1]);
        let bytes = fs::read(&path).unwrap();
        let (last, end) = (starts[2], starts[3]);
        let torn = |damaged: &[u8]| {
            fs::write(&path, damaged).unwrap();
            let j = open(&path, "t", 4).unwrap();
            assert!(j.torn_tail && j.valid_len == last as u64);
            assert_eq!(sites(&j), [2, 0]);
        };
        // Every cut inside the last frame, header or payload.
        for cut in last + 1..end {
            torn(&bytes[..cut]);
        }
        // A flipped payload bit in the last frame.
        let mut flipped = bytes.clone();
        flipped[last + FRAME_HEAD + 30] ^= 0x10;
        torn(&flipped);
        // The largest length with a valid check: nothing is allocated for
        // it, the frame simply runs past the end of the file.
        let mut inflated = bytes.clone();
        inflated[last..last + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        inflated[last + 4..last + 8].copy_from_slice(&(!u32::MAX).to_le_bytes());
        torn(&inflated);
        // Zero-filled blocks after the last fsync, starting inside the last
        // frame's header or payload.
        for cut in [last + 2, last + FRAME_HEAD + 10] {
            let mut zeroed = bytes[..cut].to_vec();
            zeroed.resize(end + 4096, 0);
            torn(&zeroed);
        }
        // ... or right after the last whole frame, which is then kept.
        let mut zeroed = bytes.clone();
        zeroed.resize(end + 16, 0);
        fs::write(&path, &zeroed).unwrap();
        let j = open(&path, "t", 4).unwrap();
        assert!(j.torn_tail && j.valid_len == end as u64);
        assert_eq!((sites(&j), j.frames), (vec![2, 0, 1], 3));

        // Resume cuts the torn bytes off, then appends after the last
        // whole frame.
        fs::write(&path, &bytes[..end - 5]).unwrap();
        let j = open(&path, "t", 4).unwrap();
        let mut w = JournalWriter::append_loaded(&path, &j).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), last as u64);
        w.append(1, &sample_obs(1)).unwrap();
        w.append(3, &sample_obs(3)).unwrap();
        drop(w);
        assert_eq!(&fs::read(&path).unwrap()[..end], &bytes[..]);
        let j = open(&path, "t", 4).unwrap();
        assert!(!j.torn_tail);
        assert_eq!(sites(&j), [2, 0, 1, 3]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_bits_before_the_last_frame_are_corruption() {
        let path = tmp("flip");
        let starts = write(&path, 4, &[2, 0, 1]);
        let bytes = fs::read(&path).unwrap();
        let middle = starts[1];
        let corrupt = |at: usize, why: &str| {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            // A zero-filled tail after it does not excuse it.
            for zeros in [0, 64] {
                flipped.resize(bytes.len() + zeros, 0);
                fs::write(&path, &flipped).unwrap();
                let e = open(&path, "t", 4).unwrap_err().to_string();
                assert!(e.contains("frame 1") && e.contains(why), "{e}");
            }
        };
        // In the payload, the chunk checksum catches it.
        corrupt(middle + FRAME_HEAD + 30, "checksum");
        // In the length, the check catches it before the length is used,
        // so it is never mistaken for a torn tail.
        corrupt(middle + 1, "fails its check");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_validation_rejects_mismatches() {
        let path = tmp("header");
        {
            let _w = JournalWriter::create(&path, "world-a", 5).unwrap();
        }
        let e = open(&path, "world-b", 5).unwrap_err();
        assert!(e.to_string().contains("not 'world-b'"), "{e}");
        assert!(open(&path, "world-a", 6).is_err());
        let j = open(&path, "world-a", 5).unwrap();
        assert!(j.records.is_empty() && !j.torn_tail);

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(open(&path, "world-a", 5).is_err(), "bad magic must fail");
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(open(&path, "world-a", 5).is_err(), "torn header must fail");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicates_keep_first_and_bounds_are_checked() {
        let path = tmp("dups");
        let mut w = JournalWriter::create(&path, "t", 3).unwrap();
        let first = sample_obs(1);
        let mut second = first.clone();
        second.hosting_asn = Some(99);
        w.append(1, &first).unwrap();
        w.append(1, &second).unwrap();
        drop(w);
        let j = open(&path, "t", 3).unwrap();
        assert_eq!((j.records.len(), j.frames), (1, 2));
        assert_eq!(j.records[0].1.hosting_asn, first.hosting_asn);

        // A well-formed record for a site outside the run is corruption,
        // in the middle of the file and at its end alike.
        let mut w = JournalWriter::append_loaded(&path, &j).unwrap();
        w.append(7, &sample_obs(7)).unwrap();
        drop(w);
        let e = open(&path, "t", 3).unwrap_err();
        assert!(e.to_string().contains("out of bounds"), "{e}");
        let mut w = JournalWriter::append_loaded(&path, &j).unwrap();
        w.append(2, &sample_obs(2)).unwrap();
        drop(w);
        assert!(open(&path, "t", 3).is_err());
        fs::remove_file(&path).unwrap();
    }
}
