//! The chunked, columnar on-disk dataset: `MeasuredDataset` without the
//! resident `Vec<SiteObservation>`.
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   manifest.json        {"magic":"webdep-chunk-store","version":1,
//!                         "label":…,"sites":N,"chunk_sites":K}
//!   chunk-000000.col     sites [0, K)
//!   chunk-000001.col     sites [K, 2K)
//!   …                    (final chunk holds the remainder)
//! ```
//!
//! Each chunk file is self-contained and columnar (little-endian):
//!
//! ```text
//! magic "WDCHUNK1" · chunk_index u32 · lo u32 · rows u32
//! string table: count u32, then len u32 + UTF-8 bytes per string
//! columns, each over all rows of the chunk:
//!   domain/tld/language        rows × u32 string id
//!   hosting_ip                 presence bitmap + u32 per present row
//!   hosting_asn/org            presence bitmap + u32 per present row
//!   hosting_{org,ip}_country   presence bitmap + string id per present row
//!   hosting_anycast            bitmap
//!   ns_names                   rows × u16 count, then the string ids
//!   dns_* columns              same shapes as hosting
//!   ca_owner / ca_owner_country  presence bitmap + values
//!   hosting/dns/ca_error       presence bitmap + (cause u8, detail id u32)
//!   error summary              presence bitmap + string id per present row
//! checksum u64 (FNV-1a over everything above)
//! ```
//!
//! Each chunk has its own string table. A chunk's rows arrive in commit
//! order and are held as compact columns whose strings are ids into a
//! table that hashes each string once (`ChunkRows`). The flush then
//! numbers the strings by **first occurrence in site order**, visiting each
//! row's strings in field order — domain, tld, language, hosting
//! countries, NS names, DNS and CA countries, error details, error — so
//! the encoded bytes are a pure function of the chunk's observations, not
//! of the order sites committed in. Combined with the pipeline's
//! determinism contract, the whole store is byte-identical across worker
//! counts, scheduling modes, and crash-resume (tested in
//! `tests/determinism.rs` and `tests/supervision.rs`; the bytes themselves
//! are pinned by a golden test). A decoded chunk's rows can be spliced
//! into a writer column to column (`ChunkStoreWriter::splice`), which is
//! how an epoch carries its clean rows over without materializing them.
//!
//! The run journal ([`crate::journal`]) logs each completed site as a
//! one-row chunk in this same encoding, so one encoder and one decoder
//! serve the store, resume, fsck and heal. Durability mirrors the
//! journal's: a chunk file is written and fsynced once, when its last site
//! commits; the checksum turns a torn write into [`ChunkState::Corrupt`],
//! which resume heals by re-encoding the chunk from journal records. The
//! writer holds only *partial* chunks in memory (bounded by the
//! scheduler's batch spread), which is what makes million-site runs
//! memory-bounded end to end.

use crate::dataset::{FailureCause, LayerError, MeasuredDataset, SiteObservation};
use serde_json::Value;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Manifest magic string.
pub const STORE_MAGIC: &str = "webdep-chunk-store";
/// Store format version.
pub const STORE_VERSION: u64 = 1;
/// Sites per chunk unless the caller chooses otherwise: small enough that
/// partial chunks stay cheap, large enough that a million-site store is a
/// few hundred files.
pub const DEFAULT_CHUNK_SITES: usize = 4096;
/// Chunk file magic.
const CHUNK_MAGIC: [u8; 8] = *b"WDCHUNK1";

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Writes the manifest atomically: temp file, data fsync, rename over the
/// live name, directory fsync. A crash at any point leaves either the old
/// complete manifest or the new one — never a torn file that takes the
/// whole store down with it.
fn write_manifest(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<()> {
    let manifest = Value::Object(vec![
        ("magic".into(), Value::String(STORE_MAGIC.into())),
        ("version".into(), Value::U64(STORE_VERSION)),
        ("label".into(), Value::String(label.into())),
        ("sites".into(), Value::U64(sites as u64)),
        ("chunk_sites".into(), Value::U64(chunk_sites as u64)),
    ]);
    let tmp = dir.join("manifest.json.tmp");
    let mut f = File::create(&tmp)?;
    writeln!(f, "{manifest}")?;
    f.sync_data()?;
    std::fs::rename(&tmp, manifest_path(dir))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Whether the on-disk manifest is unparseable (torn write or external
/// damage) as opposed to merely describing a different store.
fn manifest_is_torn(dir: &Path) -> io::Result<bool> {
    let bytes = std::fs::read(manifest_path(dir))?;
    let text = String::from_utf8_lossy(&bytes);
    Ok(serde_json::from_str::<Value>(text.trim()).is_err())
}

fn chunk_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("chunk-{index:06}.col"))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a 64 over a byte slice — the chunk integrity checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn cause_index(c: FailureCause) -> u8 {
    FailureCause::ALL
        .iter()
        .position(|&x| x == c)
        .expect("cause in ALL") as u8
}

fn cause_from_index(i: u8) -> Result<FailureCause, String> {
    FailureCause::ALL
        .get(i as usize)
        .copied()
        .ok_or_else(|| format!("unknown failure cause index {i}"))
}

// ---------------------------------------------------------------------------
// Encoding

/// A chunk's string table while its rows arrive: each distinct string once,
/// in first-add order, found again by one hash of its bytes. The strings
/// live back to back in one buffer, so adding a string never allocates
/// per string. The hash is unkeyed: strings crafted to share slots can
/// make adds probe linearly, but a table holds one chunk's strings, so
/// the worst case is quadratic in the chunk size, never in the world.
struct StrTable {
    bytes: Vec<u8>,
    /// End offset in `bytes` of each string, by id.
    ends: Vec<usize>,
    /// Hash of each string, by id, kept for growing the slots.
    hashes: Vec<u64>,
    /// Open-addressing slots (a power of two): 0 is empty, else id + 1.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits index the slots.
    shift: u32,
}

/// A fast multiplicative hash over 8-byte words; its high bits pick the
/// slot. Collisions only cost a probe, and the ids never depend on it.
fn str_hash(b: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let n = b.len();
    let mut h = (n as u64).wrapping_mul(K);
    let mut mix = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap()) as u64;
    if n >= 8 {
        // Whole words, then the last eight bytes (overlapping).
        for w in b[..n - 1].chunks_exact(8) {
            mix(u64::from_le_bytes(w.try_into().unwrap()));
        }
        mix(u64::from_le_bytes(b[n - 8..].try_into().unwrap()));
    } else if n >= 4 {
        mix(u32_at(0) << 32 | u32_at(n - 4));
    } else if n > 0 {
        mix(b[0] as u64 | (b[n / 2] as u64) << 8 | (b[n - 1] as u64) << 16);
    }
    h
}

impl StrTable {
    /// A table with slots for about `strings` strings before it grows.
    fn new(strings: usize) -> Self {
        let slots = (2 * strings).next_power_of_two().max(8);
        StrTable {
            bytes: Vec::new(),
            ends: Vec::with_capacity(strings),
            hashes: Vec::with_capacity(strings),
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.bytes[start..self.ends[id]]
    }

    /// The id of `s`, added if new.
    fn add(&mut self, s: &str) -> u32 {
        let h = str_hash(s.as_bytes());
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        while let Some(id) = self.slots[i].checked_sub(1) {
            if self.hashes[id as usize] == h && self.get(id) == s.as_bytes() {
                return id;
            }
            i = (i + 1) & mask;
        }
        let id = u32::try_from(self.len()).expect("string table overflow");
        self.bytes.extend_from_slice(s.as_bytes());
        self.ends.push(self.bytes.len());
        self.hashes.push(h);
        self.slots[i] = id + 1;
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut i = (h >> self.shift) as usize;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32 + 1;
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.hashes.clear();
        self.slots.fill(0);
    }

    fn opt(&mut self, s: &Option<String>) -> Option<u32> {
        s.as_deref().map(|s| self.add(s))
    }
}

/// One layer's values for one row; hosting and DNS share the shape.
#[derive(Clone, Copy)]
struct LayerRow {
    ip: Option<Ipv4Addr>,
    asn: Option<u32>,
    org: Option<u32>,
    org_country: Option<u32>,
    ip_country: Option<u32>,
    anycast: bool,
}

/// One layer's columns.
struct LayerCols {
    ip: Vec<Option<Ipv4Addr>>,
    asn: Vec<Option<u32>>,
    org: Vec<Option<u32>>,
    org_country: Vec<Option<u32>>,
    ip_country: Vec<Option<u32>>,
    anycast: Vec<bool>,
}

impl LayerCols {
    fn new(rows: usize) -> Self {
        LayerCols {
            ip: vec![None; rows],
            asn: vec![None; rows],
            org: vec![None; rows],
            org_country: vec![None; rows],
            ip_country: vec![None; rows],
            anycast: vec![false; rows],
        }
    }

    fn set(&mut self, r: usize, v: LayerRow) {
        self.ip[r] = v.ip;
        self.asn[r] = v.asn;
        self.org[r] = v.org;
        self.org_country[r] = v.org_country;
        self.ip_country[r] = v.ip_country;
        self.anycast[r] = v.anycast;
    }
}

/// The rows of one chunk as they arrive, in any order: the chunk's columns,
/// with every string an id into one table that grows as rows come in.
/// [`ChunkRows::encode`] renumbers the strings by first occurrence in site
/// order, so the bytes are a pure function of the rows, not of the order
/// they came in.
pub(crate) struct ChunkRows {
    strings: StrTable,
    domain: Vec<u32>,
    tld: Vec<u32>,
    language: Vec<u32>,
    hosting: LayerCols,
    /// Row `r`'s nameserver ids are `ns[ns_at[r]..][..ns_len[r]]`.
    ns_at: Vec<usize>,
    ns_len: Vec<usize>,
    ns: Vec<u32>,
    dns: LayerCols,
    ca_owner: Vec<Option<u32>>,
    ca_owner_country: Vec<Option<u32>>,
    /// Hosting, DNS and CA layer errors: cause and detail id.
    errors: [Vec<Option<(FailureCause, u32)>>; 3],
    error: Vec<Option<u32>>,
    filled: Vec<bool>,
    missing: usize,
    /// Encode scratch: final id per table id (`u32::MAX` = not yet seen).
    remap: Vec<u32>,
}

impl ChunkRows {
    /// An empty chunk of `rows` rows.
    pub(crate) fn new(rows: usize) -> Self {
        ChunkRows {
            strings: StrTable::new(rows + 16),
            domain: vec![0; rows],
            tld: vec![0; rows],
            language: vec![0; rows],
            hosting: LayerCols::new(rows),
            ns_at: vec![0; rows],
            ns_len: vec![0; rows],
            ns: Vec::new(),
            dns: LayerCols::new(rows),
            ca_owner: vec![None; rows],
            ca_owner_country: vec![None; rows],
            errors: std::array::from_fn(|_| vec![None; rows]),
            error: vec![None; rows],
            filled: vec![false; rows],
            missing: rows,
            remap: Vec::new(),
        }
    }

    /// Empties the chunk for reuse, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.strings.clear();
        self.ns.clear();
        self.filled.fill(false);
        self.missing = self.filled.len();
    }

    /// Marks row `r` set; `false` if it already was.
    fn claim(&mut self, r: usize) -> bool {
        if std::mem::replace(&mut self.filled[r], true) {
            return false;
        }
        self.missing -= 1;
        true
    }

    /// Sets row `r` from an observation; `false` if it is already set.
    pub(crate) fn add(&mut self, r: usize, obs: &SiteObservation) -> bool {
        if !self.claim(r) {
            return false;
        }
        let t = &mut self.strings;
        self.domain[r] = t.add(&obs.domain);
        self.tld[r] = t.add(&obs.tld);
        self.language[r] = t.add(&obs.language);
        self.hosting.set(
            r,
            LayerRow {
                ip: obs.hosting_ip,
                asn: obs.hosting_asn,
                org: obs.hosting_org,
                org_country: t.opt(&obs.hosting_org_country),
                ip_country: t.opt(&obs.hosting_ip_country),
                anycast: obs.hosting_anycast,
            },
        );
        self.ns_at[r] = self.ns.len();
        self.ns_len[r] = obs.ns_names.len();
        self.ns.extend(obs.ns_names.iter().map(|n| t.add(n)));
        self.dns.set(
            r,
            LayerRow {
                ip: obs.dns_ip,
                asn: obs.dns_asn,
                org: obs.dns_org,
                org_country: t.opt(&obs.dns_org_country),
                ip_country: t.opt(&obs.dns_ip_country),
                anycast: obs.dns_anycast,
            },
        );
        self.ca_owner[r] = obs.ca_owner;
        self.ca_owner_country[r] = t.opt(&obs.ca_owner_country);
        for (col, e) in
            self.errors
                .iter_mut()
                .zip([&obs.hosting_error, &obs.dns_error, &obs.ca_error])
        {
            col[r] = e.as_ref().map(|e| (e.cause, t.add(&e.detail)));
        }
        self.error[r] = t.opt(&obs.error);
        true
    }

    /// Sets row `r` to row `s` of a decoded chunk, column by column, with
    /// no [`SiteObservation`] in between. `memo` maps `src`'s string ids
    /// to this table's (`u32::MAX` = not yet added); one memo per source
    /// chunk adds each of its strings at most once. `false` if row `r` is
    /// already set.
    fn splice(&mut self, r: usize, src: &DecodedChunk, s: usize, memo: &mut [u32]) -> bool {
        if !self.claim(r) {
            return false;
        }
        let t = &mut self.strings;
        let mut id = |i: u32| {
            let m = &mut memo[i as usize];
            if *m == u32::MAX {
                *m = t.add(src.str_of(i));
            }
            *m
        };
        self.domain[r] = id(src.domain[s]);
        self.tld[r] = id(src.tld[s]);
        self.language[r] = id(src.language[s]);
        self.hosting.set(
            r,
            LayerRow {
                ip: src.hosting_ip[s],
                asn: src.hosting_asn[s],
                org: src.hosting_org[s],
                org_country: src.hosting_org_country[s].map(&mut id),
                ip_country: src.hosting_ip_country[s].map(&mut id),
                anycast: src.hosting_anycast[s],
            },
        );
        let ns = &src.ns_ids[src.ns_off[s] as usize..src.ns_off[s + 1] as usize];
        self.ns_at[r] = self.ns.len();
        self.ns_len[r] = ns.len();
        self.ns.extend(ns.iter().map(|&i| id(i)));
        self.dns.set(
            r,
            LayerRow {
                ip: src.dns_ip[s],
                asn: src.dns_asn[s],
                org: src.dns_org[s],
                org_country: src.dns_org_country[s].map(&mut id),
                ip_country: src.dns_ip_country[s].map(&mut id),
                anycast: src.dns_anycast[s],
            },
        );
        self.ca_owner[r] = src.ca_owner[s];
        self.ca_owner_country[r] = src.ca_owner_country[s].map(&mut id);
        for (col, from) in
            self.errors
                .iter_mut()
                .zip([&src.hosting_error, &src.dns_error, &src.ca_error])
        {
            col[r] = from[s].map(|(cause, detail)| (cause, id(detail)));
        }
        self.error[r] = src.error[s].map(&mut id);
        true
    }

    /// Whether every row is set.
    pub(crate) fn is_full(&self) -> bool {
        self.missing == 0
    }

    fn ns_of(&self, r: usize) -> &[u32] {
        &self.ns[self.ns_at[r]..self.ns_at[r] + self.ns_len[r]]
    }

    /// Appends the chunk's file bytes to `out`. Every row must be set.
    ///
    /// String ids are assigned by first occurrence in site order, visiting
    /// each row's strings in field order: domain, tld, language, hosting
    /// countries, NS names, DNS and CA countries, error details, error.
    /// The table is written in that same pass, with no hashing.
    pub(crate) fn encode(&mut self, chunk_index: usize, lo: usize, out: &mut Vec<u8>) {
        assert!(self.is_full(), "encoding an incomplete chunk");
        let start = out.len();
        let mut e = Enc { buf: out };
        e.buf.extend_from_slice(&CHUNK_MAGIC);
        e.u32(chunk_index as u32);
        e.u32(lo as u32);
        e.u32(self.filled.len() as u32);
        let count_at = e.buf.len();
        e.u32(0);

        let mut remap = std::mem::take(&mut self.remap);
        remap.clear();
        remap.resize(self.strings.len(), u32::MAX);
        let mut next = 0u32;
        let mut visit = |id: u32| {
            let slot = &mut remap[id as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
                let s = self.strings.get(id);
                e.u32(s.len() as u32);
                e.buf.extend_from_slice(s);
            }
        };
        let (h, d) = (&self.hosting, &self.dns);
        for r in 0..self.filled.len() {
            visit(self.domain[r]);
            visit(self.tld[r]);
            visit(self.language[r]);
            h.org_country[r]
                .into_iter()
                .chain(h.ip_country[r])
                .chain(self.ns_of(r).iter().copied())
                .chain(d.org_country[r])
                .chain(d.ip_country[r])
                .chain(self.ca_owner_country[r])
                .chain(self.errors.iter().filter_map(|col| col[r].map(|(_, d)| d)))
                .chain(self.error[r])
                .for_each(&mut visit);
        }
        e.buf[count_at..count_at + 4].copy_from_slice(&next.to_le_bytes());

        let id = |i: u32| remap[i as usize];
        for col in [&self.domain, &self.tld, &self.language] {
            for &s in col {
                e.u32(id(s));
            }
        }
        e.layer(h, &id);
        for &n in &self.ns_len {
            e.u16(n as u16);
        }
        for r in 0..self.filled.len() {
            for &n in self.ns_of(r) {
                e.u32(id(n));
            }
        }
        e.layer(d, &id);
        e.opt(&self.ca_owner, Enc::u32);
        e.opt(&self.ca_owner_country, |e, v| e.u32(id(v)));
        for col in &self.errors {
            e.opt(col, |e, (cause, detail)| {
                e.u8(cause_index(cause));
                e.u32(id(detail));
            });
        }
        e.opt(&self.error, |e, v| e.u32(id(v)));

        let sum = fnv1a(&e.buf[start..]);
        e.u64(sum);
        self.remap = remap;
    }
}

struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LSB-first presence bitmap over a column.
    fn bitmap<T>(&mut self, col: &[T], present: impl Fn(&T) -> bool) {
        for bits in col.chunks(8) {
            let byte = bits
                .iter()
                .enumerate()
                .fold(0u8, |b, (i, v)| b | (present(v) as u8) << i);
            self.u8(byte);
        }
    }

    /// An `Option` column: presence bitmap, then one value per present row.
    fn opt<T: Copy>(&mut self, col: &[Option<T>], mut emit: impl FnMut(&mut Self, T)) {
        self.bitmap(col, Option::is_some);
        for &v in col.iter().flatten() {
            emit(self, v);
        }
    }

    /// One layer's columns: ip, asn, org, org and ip countries, anycast.
    fn layer(&mut self, l: &LayerCols, id: &impl Fn(u32) -> u32) {
        self.opt(&l.ip, |e, ip| e.u32(u32::from(ip)));
        self.opt(&l.asn, Enc::u32);
        self.opt(&l.org, Enc::u32);
        self.opt(&l.org_country, |e, v| e.u32(id(v)));
        self.opt(&l.ip_country, |e, v| e.u32(id(v)));
        self.bitmap(&l.anycast, |&a| a);
    }
}

/// Encodes one complete chunk (rows in site order) to its file bytes.
pub(crate) fn encode_chunk(chunk_index: usize, lo: usize, rows: &[SiteObservation]) -> Vec<u8> {
    let mut chunk = ChunkRows::new(rows.len());
    for (r, obs) in rows.iter().enumerate() {
        chunk.add(r, obs);
    }
    let mut out = Vec::new();
    chunk.encode(chunk_index, lo, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Decoding

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or("chunk truncated")?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn bitmap(&mut self, rows: usize) -> Result<Vec<bool>, String> {
        let bytes = self.take(rows.div_ceil(8))?;
        Ok((0..rows).map(|r| bit(bytes, r)).collect())
    }
}

/// Bit `r` of an LSB-first bitmap.
fn bit(bytes: &[u8], r: usize) -> bool {
    bytes[r / 8] & (1 << (r % 8)) != 0
}

/// One decoded chunk: columnar access plus per-row observation
/// reconstruction. String-valued columns hold ids into [`DecodedChunk::str_of`].
pub struct DecodedChunk {
    /// Chunk index from the header.
    pub(crate) index: usize,
    /// First site index the chunk covers.
    pub lo: usize,
    /// Rows in the chunk (`lo..lo + rows` in site order).
    pub rows: usize,
    /// The string table back to back; string `i` ends at `ends[i]`.
    text: String,
    ends: Vec<usize>,
    domain: Vec<u32>,
    /// TLD string id per row.
    pub tld: Vec<u32>,
    language: Vec<u32>,
    hosting_ip: Vec<Option<Ipv4Addr>>,
    hosting_asn: Vec<Option<u32>>,
    /// Hosting org world id per row (`None` = layer failed).
    pub hosting_org: Vec<Option<u32>>,
    hosting_org_country: Vec<Option<u32>>,
    hosting_ip_country: Vec<Option<u32>>,
    hosting_anycast: Vec<bool>,
    ns_off: Vec<u32>,
    ns_ids: Vec<u32>,
    dns_ip: Vec<Option<Ipv4Addr>>,
    dns_asn: Vec<Option<u32>>,
    /// DNS org world id per row.
    pub dns_org: Vec<Option<u32>>,
    dns_org_country: Vec<Option<u32>>,
    dns_ip_country: Vec<Option<u32>>,
    dns_anycast: Vec<bool>,
    /// CA owner world id per row.
    pub ca_owner: Vec<Option<u32>>,
    ca_owner_country: Vec<Option<u32>>,
    hosting_error: Vec<Option<(FailureCause, u32)>>,
    dns_error: Vec<Option<(FailureCause, u32)>>,
    ca_error: Vec<Option<(FailureCause, u32)>>,
    error: Vec<Option<u32>>,
}

impl DecodedChunk {
    /// The string behind a chunk-local id.
    pub fn str_of(&self, id: u32) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    /// Per-row layer failure causes `(hosting, dns, ca)` without
    /// materializing a full observation — the streaming taxonomy fold
    /// (`webdep serve --store`) reads only these columns.
    pub fn failure_causes(&self, r: usize) -> [Option<FailureCause>; 3] {
        [
            self.hosting_error[r].map(|(c, _)| c),
            self.dns_error[r].map(|(c, _)| c),
            self.ca_error[r].map(|(c, _)| c),
        ]
    }

    /// Reconstructs row `r` as a full [`SiteObservation`] — the exact
    /// observation that was committed (round-trip tested).
    pub fn observation(&self, r: usize) -> SiteObservation {
        let s = |id: u32| self.str_of(id).to_string();
        let os = |v: &Option<u32>| v.map(s);
        let err = |v: &Option<(FailureCause, u32)>| {
            v.map(|(cause, detail)| LayerError::new(cause, s(detail)))
        };
        SiteObservation {
            domain: s(self.domain[r]),
            tld: s(self.tld[r]),
            language: s(self.language[r]),
            hosting_ip: self.hosting_ip[r],
            hosting_asn: self.hosting_asn[r],
            hosting_org: self.hosting_org[r],
            hosting_org_country: os(&self.hosting_org_country[r]),
            hosting_ip_country: os(&self.hosting_ip_country[r]),
            hosting_anycast: self.hosting_anycast[r],
            ns_names: self.ns_ids[self.ns_off[r] as usize..self.ns_off[r + 1] as usize]
                .iter()
                .map(|&i| s(i))
                .collect(),
            dns_ip: self.dns_ip[r],
            dns_asn: self.dns_asn[r],
            dns_org: self.dns_org[r],
            dns_org_country: os(&self.dns_org_country[r]),
            dns_ip_country: os(&self.dns_ip_country[r]),
            dns_anycast: self.dns_anycast[r],
            ca_owner: self.ca_owner[r],
            ca_owner_country: os(&self.ca_owner_country[r]),
            hosting_error: err(&self.hosting_error[r]),
            dns_error: err(&self.dns_error[r]),
            ca_error: err(&self.ca_error[r]),
            error: os(&self.error[r]),
        }
    }
}

/// Decodes one chunk file. `expect` is the `(index, lo, rows)` header a
/// store's manifest fixes; a journal frame's header names its own site.
/// Total: every count read from the input is bounded by the bytes left to
/// back it before anything is allocated, so crafted bytes fail with an
/// error, never an abort.
pub(crate) fn decode_chunk(
    bytes: &[u8],
    expect: Option<(usize, usize, usize)>,
) -> Result<DecodedChunk, String> {
    if bytes.len() < CHUNK_MAGIC.len() + 8 {
        return Err("chunk too short".into());
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv1a(body) != sum {
        return Err("chunk checksum mismatch".into());
    }
    let mut d = Dec { buf: body, pos: 0 };
    if d.take(8)? != CHUNK_MAGIC {
        return Err("bad chunk magic".into());
    }
    let index = d.u32()? as usize;
    let lo = d.u32()? as usize;
    let rows = d.u32()? as usize;
    if let Some((i, l, r)) = expect.filter(|&e| e != (index, lo, rows)) {
        return Err(format!(
            "chunk header (index {index}, lo {lo}, rows {rows}) does not match \
             manifest (index {i}, lo {l}, rows {r})"
        ));
    }
    // Every row carries at least its three u32 string ids.
    if rows > d.remaining() / 12 {
        return Err(format!("row count {rows} exceeds the chunk's bytes"));
    }
    let n_strings = d.u32()? as usize;
    // Every string carries at least its u32 length.
    let mut ends = Vec::with_capacity(n_strings.min(d.remaining() / 4));
    let mut text = String::new();
    for _ in 0..n_strings {
        let len = d.u32()? as usize;
        text.push_str(std::str::from_utf8(d.take(len)?).map_err(|e| e.to_string())?);
        ends.push(text.len());
    }
    let sid = |id: u32| -> Result<u32, String> {
        if (id as usize) < n_strings {
            Ok(id)
        } else {
            Err(format!("string id {id} out of range (< {n_strings})"))
        }
    };

    let str_col = |d: &mut Dec| -> Result<Vec<u32>, String> {
        let mut col = Vec::with_capacity(rows);
        for _ in 0..rows {
            col.push(sid(d.u32()?)?);
        }
        Ok(col)
    };
    let domain = str_col(&mut d)?;
    let tld = str_col(&mut d)?;
    let language = str_col(&mut d)?;

    fn opt_col<T, F: FnMut(&mut Dec) -> Result<T, String>>(
        d: &mut Dec,
        rows: usize,
        mut read: F,
    ) -> Result<Vec<Option<T>>, String> {
        let present = d.take(rows.div_ceil(8))?;
        let mut col = Vec::with_capacity(rows);
        for r in 0..rows {
            col.push(if bit(present, r) {
                Some(read(d)?)
            } else {
                None
            });
        }
        Ok(col)
    }
    let read_ip = |d: &mut Dec| Ok(Ipv4Addr::from(d.u32()?));
    let read_u32 = |d: &mut Dec| d.u32();
    let read_sid = |d: &mut Dec| sid(d.u32()?);
    let read_err = |d: &mut Dec| -> Result<(FailureCause, u32), String> {
        let cause = cause_from_index(d.u8()?)?;
        Ok((cause, sid(d.u32()?)?))
    };

    let hosting_ip = opt_col(&mut d, rows, read_ip)?;
    let hosting_asn = opt_col(&mut d, rows, read_u32)?;
    let hosting_org = opt_col(&mut d, rows, read_u32)?;
    let hosting_org_country = opt_col(&mut d, rows, read_sid)?;
    let hosting_ip_country = opt_col(&mut d, rows, read_sid)?;
    let hosting_anycast = d.bitmap(rows)?;

    let mut ns_off = Vec::with_capacity(rows + 1);
    ns_off.push(0u32);
    let mut total_ns = 0u32;
    for _ in 0..rows {
        total_ns = total_ns
            .checked_add(d.u16()? as u32)
            .ok_or("nameserver count overflows")?;
        ns_off.push(total_ns);
    }
    let ns_ids: Vec<u32> = (0..total_ns)
        .map(|_| sid(d.u32()?))
        .collect::<Result<_, _>>()?;

    let dns_ip = opt_col(&mut d, rows, read_ip)?;
    let dns_asn = opt_col(&mut d, rows, read_u32)?;
    let dns_org = opt_col(&mut d, rows, read_u32)?;
    let dns_org_country = opt_col(&mut d, rows, read_sid)?;
    let dns_ip_country = opt_col(&mut d, rows, read_sid)?;
    let dns_anycast = d.bitmap(rows)?;

    let ca_owner = opt_col(&mut d, rows, read_u32)?;
    let ca_owner_country = opt_col(&mut d, rows, read_sid)?;

    let hosting_error = opt_col(&mut d, rows, read_err)?;
    let dns_error = opt_col(&mut d, rows, read_err)?;
    let ca_error = opt_col(&mut d, rows, read_err)?;
    let error = opt_col(&mut d, rows, read_sid)?;

    if d.pos != body.len() {
        return Err(format!(
            "trailing bytes in chunk: {} of {}",
            body.len() - d.pos,
            body.len()
        ));
    }
    Ok(DecodedChunk {
        index,
        lo,
        rows,
        text,
        ends,
        domain,
        tld,
        language,
        hosting_ip,
        hosting_asn,
        hosting_org,
        hosting_org_country,
        hosting_ip_country,
        hosting_anycast,
        ns_off,
        ns_ids,
        dns_ip,
        dns_asn,
        dns_org,
        dns_org_country,
        dns_ip_country,
        dns_anycast,
        ca_owner,
        ca_owner_country,
        hosting_error,
        dns_error,
        ca_error,
        error,
    })
}

// ---------------------------------------------------------------------------
// Writer

/// Streaming chunk-store writer: sites commit in any order; a chunk file
/// is encoded, written, and fsynced the moment its last site lands.
pub struct ChunkStoreWriter {
    dir: PathBuf,
    sites: usize,
    chunk_sites: usize,
    pending: HashMap<usize, ChunkRows>,
    written: Vec<bool>,
    bytes_written: u64,
    /// Encode buffer, reused across flushes.
    buf: Vec<u8>,
}

impl ChunkStoreWriter {
    /// Creates (or resets) a store directory for a run over `sites` sites,
    /// writing and syncing the manifest and deleting any stale chunk files.
    pub fn create(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<Self> {
        assert!(chunk_sites > 0, "chunk_sites must be positive");
        std::fs::create_dir_all(dir)?;
        let chunks = sites.div_ceil(chunk_sites);
        // Stale chunks from a previous run must not masquerade as data.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("chunk-") && name.ends_with(".col") {
                std::fs::remove_file(entry.path())?;
            }
        }
        write_manifest(dir, label, sites, chunk_sites)?;
        Ok(ChunkStoreWriter {
            dir: dir.to_path_buf(),
            sites,
            chunk_sites,
            pending: HashMap::new(),
            written: vec![false; chunks],
            bytes_written: 0,
            buf: Vec::new(),
        })
    }

    /// Reopens an existing store for resume: the manifest must match, valid
    /// chunk files are kept (their sites need no re-measurement), and
    /// corrupt ones — the torn-write crash artifact — are deleted so they
    /// can be healed from the journal. Falls back to [`Self::create`] when
    /// no manifest exists (a crash before the store was set up), and
    /// rewrites an unparseable manifest in place from the caller's run
    /// metadata — crucially *not* via [`Self::create`], which would wipe
    /// the surviving chunk files the resume is here to keep.
    pub fn resume(dir: &Path, label: &str, sites: usize, chunk_sites: usize) -> io::Result<Self> {
        if !manifest_path(dir).exists() {
            return Self::create(dir, label, sites, chunk_sites);
        }
        let store = match ChunkStore::open(dir) {
            Ok(store) => store,
            Err(e) => {
                if manifest_is_torn(dir)? {
                    write_manifest(dir, label, sites, chunk_sites)?;
                    ChunkStore::open(dir)?
                } else {
                    return Err(e);
                }
            }
        };
        if store.label != label || store.sites != sites || store.chunk_sites != chunk_sites {
            return Err(bad(format!(
                "store is for '{}' ({} sites, chunk {}), not '{}' ({} sites, chunk {})",
                store.label, store.sites, store.chunk_sites, label, sites, chunk_sites
            )));
        }
        let chunks = store.num_chunks();
        let mut written = vec![false; chunks];
        for (c, w) in written.iter_mut().enumerate() {
            match store.chunk_state(c) {
                ChunkState::Valid => *w = true,
                ChunkState::Missing => {}
                ChunkState::Corrupt(_) => std::fs::remove_file(chunk_path(dir, c))?,
            }
        }
        Ok(ChunkStoreWriter {
            dir: dir.to_path_buf(),
            sites,
            chunk_sites,
            pending: HashMap::new(),
            written,
            bytes_written: 0,
            buf: Vec::new(),
        })
    }

    fn chunk_of(&self, site: usize) -> usize {
        site / self.chunk_sites
    }

    fn chunk_lo(&self, chunk: usize) -> usize {
        chunk * self.chunk_sites
    }

    fn chunk_rows(&self, chunk: usize) -> usize {
        (self.sites - self.chunk_lo(chunk)).min(self.chunk_sites)
    }

    /// Whether a chunk has been durably written.
    pub fn chunk_written(&self, chunk: usize) -> bool {
        self.written[chunk]
    }

    /// Whether a site's chunk has been durably written.
    pub fn site_durable(&self, site: usize) -> bool {
        self.written[self.chunk_of(site)]
    }

    /// Total chunk-file bytes written by this writer.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Commits one observation. Returns `Ok(false)` when the site was
    /// already committed (or its chunk already on disk) — idempotent, like
    /// the collector's first-write-wins rule. Flushes the chunk when it
    /// completes.
    pub fn commit(&mut self, site: usize, obs: &SiteObservation) -> io::Result<bool> {
        assert!(site < self.sites, "site {site} out of range");
        let c = self.chunk_of(site);
        if self.written[c] {
            return Ok(false);
        }
        let lo = self.chunk_lo(c);
        if !self.pending_chunk(c).add(site - lo, obs) {
            return Ok(false);
        }
        self.flush_if_full(c)?;
        Ok(true)
    }

    /// Commits the rows `r` of `src` — a decoded chunk of another store
    /// over the same sites, such as the previous epoch's — for which
    /// `keep(r)` holds, column to column: no row becomes a
    /// [`SiteObservation`], and each of `src`'s strings is hashed at most
    /// once. `src` must lie within one chunk of this store. Returns the
    /// rows committed; rows already committed are skipped, as in
    /// [`Self::commit`].
    pub(crate) fn splice(
        &mut self,
        src: &DecodedChunk,
        keep: impl Fn(usize) -> bool,
    ) -> io::Result<usize> {
        let (c, end) = (self.chunk_of(src.lo), src.lo + src.rows);
        let lo = self.chunk_lo(c);
        if src.rows == 0 || end > self.sites || end > lo + self.chunk_rows(c) {
            return Err(bad(format!(
                "rows {}..{end} do not lie within one chunk",
                src.lo
            )));
        }
        if self.written[c] {
            return Ok(0);
        }
        let mut memo = vec![u32::MAX; src.ends.len()];
        let chunk = self.pending_chunk(c);
        let mut spliced = 0;
        for s in (0..src.rows).filter(|&s| keep(s)) {
            if chunk.splice(src.lo + s - lo, src, s, &mut memo) {
                spliced += 1;
            }
        }
        self.flush_if_full(c)?;
        Ok(spliced)
    }

    fn pending_chunk(&mut self, c: usize) -> &mut ChunkRows {
        let rows = self.chunk_rows(c);
        self.pending
            .entry(c)
            .or_insert_with(|| ChunkRows::new(rows))
    }

    /// Encodes, writes and fsyncs chunk `c` once its last row is in.
    fn flush_if_full(&mut self, c: usize) -> io::Result<()> {
        if !self.pending.get(&c).is_some_and(ChunkRows::is_full) {
            return Ok(());
        }
        let mut chunk = self.pending.remove(&c).expect("pending chunk");
        self.buf.clear();
        chunk.encode(c, self.chunk_lo(c), &mut self.buf);
        let mut f = File::create(chunk_path(&self.dir, c))?;
        f.write_all(&self.buf)?;
        f.sync_data()?;
        self.bytes_written += self.buf.len() as u64;
        self.written[c] = true;
        Ok(())
    }

    /// Adopts chunk `c` wholesale from a previous epoch's store: the file
    /// is hard-linked (copy fallback) into this store and verified through
    /// the normal decode path — header and checksum — before the chunk is
    /// marked durable. Valid only when the source chunk covers the same
    /// site range with the same row count; this is the delta path's
    /// clean-chunk fast lane, and the reason unchanged chunks cost zero
    /// re-encoding. Adopted files share their inode with the source store,
    /// which every in-place rewrite below (see [`ChunkStore::compact`])
    /// must respect by going through temp file + rename.
    pub fn adopt_chunk(&mut self, src: &ChunkStore, c: usize) -> io::Result<()> {
        assert!(c < self.written.len(), "chunk {c} out of range");
        if self.written[c] {
            return Err(bad(format!("chunk {c} already written")));
        }
        if self.pending.contains_key(&c) {
            return Err(bad(format!("chunk {c} already has committed sites")));
        }
        if src.chunk_sites != self.chunk_sites || src.chunk_rows(c) != self.chunk_rows(c) {
            return Err(bad(format!(
                "chunk {c} geometry mismatch: source {}-site chunks ({} rows) vs \
                 target {}-site chunks ({} rows)",
                src.chunk_sites,
                src.chunk_rows(c),
                self.chunk_sites,
                self.chunk_rows(c)
            )));
        }
        let from = chunk_path(&src.dir, c);
        let to = chunk_path(&self.dir, c);
        // `create` wiped the directory, but an interrupted earlier adoption
        // retried on the same writer may have left the file behind.
        if to.exists() {
            std::fs::remove_file(&to)?;
        }
        if std::fs::hard_link(&from, &to).is_err() {
            std::fs::copy(&from, &to)?;
        }
        let mut bytes = Vec::new();
        File::open(&to)?.read_to_end(&mut bytes)?;
        decode_chunk(&bytes, Some((c, self.chunk_lo(c), self.chunk_rows(c))))
            .map_err(|e| bad(format!("adopted chunk {c}: {e}")))?;
        self.bytes_written += bytes.len() as u64;
        self.written[c] = true;
        Ok(())
    }

    /// Finalizes the store: every chunk must be on disk (an incomplete
    /// chunk means sites went unmeasured — an error, not a shrug), then the
    /// directory entry list is fsynced.
    pub fn finish(self) -> io::Result<()> {
        if let Some(missing) = self.written.iter().position(|&w| !w) {
            return Err(bad(format!(
                "store incomplete: chunk {missing} never finished ({} sites pending)",
                self.pending.values().map(|p| p.missing).sum::<usize>()
            )));
        }
        // Make the directory entries themselves durable.
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader

/// Validation result for one chunk file.
#[derive(Debug)]
pub enum ChunkState {
    /// Present and checksum-clean.
    Valid,
    /// File absent.
    Missing,
    /// Present but unreadable/torn; the message says why.
    Corrupt(String),
}

/// Outcome of [`ChunkStore::compact`].
#[derive(Debug)]
pub struct CompactStats {
    /// Chunk-shaped files removed because the manifest does not claim them.
    pub orphans_removed: usize,
    /// Chunk count before compaction.
    pub chunks_before: usize,
    /// Chunk count after compaction.
    pub chunks_after: usize,
    /// Whether the rows were rewritten into a new chunk geometry.
    pub rechunked: bool,
}

/// Machine-readable outcome of [`ChunkStore::fsck`]: what was found, and
/// (under `repair`) what was done about it.
#[derive(Debug)]
pub struct FsckReport {
    /// World label from the manifest.
    pub label: String,
    /// Site count from the manifest.
    pub sites: usize,
    /// Chunks the manifest implies.
    pub chunks: usize,
    /// Chunks present and checksum-clean.
    pub valid: usize,
    /// Chunk indices whose files were absent.
    pub missing: Vec<usize>,
    /// Corrupt chunk indices with the decode failure for each.
    pub corrupt: Vec<(usize, String)>,
    /// Corrupt chunk files moved aside to `quarantine/` (repair only).
    pub quarantined: usize,
    /// Chunks re-encoded byte-identically from journal records (repair
    /// only).
    pub healed: usize,
    /// Chunks that needed healing but the journal could not cover.
    pub unhealed: Vec<usize>,
}

impl FsckReport {
    /// Whether the store needed nothing: every chunk present and clean.
    pub fn clean(&self) -> bool {
        self.valid == self.chunks
    }

    /// Whether the store is fully intact *after* this pass (either it was
    /// clean, or repair healed every damaged chunk).
    pub fn intact(&self) -> bool {
        self.valid + self.healed == self.chunks
    }

    /// JSON rendering for the CLI and the chaos harness.
    pub fn to_value(&self) -> Value {
        let idxs = |v: &[usize]| Value::Array(v.iter().map(|&i| Value::U64(i as u64)).collect());
        Value::Object(vec![
            ("label".into(), Value::String(self.label.clone())),
            ("sites".into(), Value::U64(self.sites as u64)),
            ("chunks".into(), Value::U64(self.chunks as u64)),
            ("valid".into(), Value::U64(self.valid as u64)),
            ("missing".into(), idxs(&self.missing)),
            (
                "corrupt".into(),
                Value::Array(
                    self.corrupt
                        .iter()
                        .map(|(i, why)| {
                            Value::Object(vec![
                                ("chunk".into(), Value::U64(*i as u64)),
                                ("error".into(), Value::String(why.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("quarantined".into(), Value::U64(self.quarantined as u64)),
            ("healed".into(), Value::U64(self.healed as u64)),
            ("unhealed".into(), idxs(&self.unhealed)),
            ("intact".into(), Value::Bool(self.intact())),
        ])
    }
}

/// Read side of a chunk store.
pub struct ChunkStore {
    dir: PathBuf,
    /// World label from the manifest.
    pub label: String,
    /// Site count from the manifest.
    pub sites: usize,
    /// Chunk size from the manifest.
    pub chunk_sites: usize,
}

impl ChunkStore {
    /// Opens a store directory, validating the manifest.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut text = String::new();
        File::open(manifest_path(dir))?.read_to_string(&mut text)?;
        let m: Value = serde_json::from_str(text.trim())
            .map_err(|e| bad(format!("bad store manifest: {e}")))?;
        if m["magic"] != STORE_MAGIC {
            return Err(bad("not a chunk store (bad magic)"));
        }
        if m["version"].as_u64() != Some(STORE_VERSION) {
            return Err(bad(format!("unsupported store version {}", m["version"])));
        }
        let label = m["label"]
            .as_str()
            .ok_or_else(|| bad("manifest missing label"))?
            .to_string();
        let sites = m["sites"]
            .as_u64()
            .ok_or_else(|| bad("manifest missing sites"))? as usize;
        let chunk_sites = m["chunk_sites"]
            .as_u64()
            .filter(|&k| k > 0)
            .ok_or_else(|| bad("manifest missing chunk_sites"))? as usize;
        Ok(ChunkStore {
            dir: dir.to_path_buf(),
            label,
            sites,
            chunk_sites,
        })
    }

    /// Number of chunks the manifest implies.
    pub fn num_chunks(&self) -> usize {
        self.sites.div_ceil(self.chunk_sites)
    }

    /// Rows in chunk `c`.
    pub fn chunk_rows(&self, c: usize) -> usize {
        (self.sites - c * self.chunk_sites).min(self.chunk_sites)
    }

    /// Validates chunk `c` without keeping its data.
    pub fn chunk_state(&self, c: usize) -> ChunkState {
        match self.read_chunk(c) {
            Ok(_) => ChunkState::Valid,
            Err(e) if e.kind() == io::ErrorKind::NotFound => ChunkState::Missing,
            Err(e) => ChunkState::Corrupt(e.to_string()),
        }
    }

    /// Reads and decodes chunk `c`.
    pub fn read_chunk(&self, c: usize) -> io::Result<DecodedChunk> {
        let mut bytes = Vec::new();
        File::open(chunk_path(&self.dir, c))?.read_to_end(&mut bytes)?;
        decode_chunk(&bytes, Some((c, c * self.chunk_sites, self.chunk_rows(c))))
            .map_err(|e| bad(format!("chunk {c}: {e}")))
    }

    /// Compacts the store: removes orphaned chunk files — indices past the
    /// manifest's chunk count, unparseable `chunk-*.col` names, and
    /// `.col.tmp` leftovers from an aborted run — and, when `chunk_sites`
    /// differs from the current geometry, merges the rows into chunks of
    /// the new size. Delta runs hard-link chunk files into *other* epoch
    /// stores, so every rewrite goes through a temp file + rename and never
    /// truncates a shared inode. `load_dataset` output is byte-identical
    /// before and after; the rewrite is not crash-atomic, but a crash
    /// mid-compact leaves header/manifest mismatches that
    /// [`ChunkStore::chunk_state`] reports as corrupt rather than silently
    /// serving stale rows.
    pub fn compact(&mut self, chunk_sites: usize) -> io::Result<CompactStats> {
        assert!(chunk_sites > 0, "chunk_sites must be positive");
        let chunks_before = self.num_chunks();
        let rechunked = chunk_sites != self.chunk_sites;
        if rechunked {
            // Stream rows old-geometry → new-geometry through temp files.
            let new_chunks = self.sites.div_ceil(chunk_sites);
            let mut tmp_paths = Vec::with_capacity(new_chunks);
            let mut rows: Vec<SiteObservation> = Vec::new();
            let mut next_new = 0usize;
            for c in 0..chunks_before {
                let chunk = self.read_chunk(c)?;
                for r in 0..chunk.rows {
                    rows.push(chunk.observation(r));
                }
                while rows.len() >= chunk_sites || (c + 1 == chunks_before && !rows.is_empty()) {
                    let take = rows.len().min(chunk_sites);
                    let batch: Vec<SiteObservation> = rows.drain(..take).collect();
                    let bytes = encode_chunk(next_new, next_new * chunk_sites, &batch);
                    let tmp = self.dir.join(format!("chunk-{next_new:06}.col.tmp"));
                    let mut f = File::create(&tmp)?;
                    f.write_all(&bytes)?;
                    f.sync_data()?;
                    tmp_paths.push(tmp);
                    next_new += 1;
                }
            }
            // New manifest first (atomic replace), then the chunk renames:
            // a crash in between leaves old-geometry files whose headers
            // no longer match the manifest — detectably corrupt.
            write_manifest(&self.dir, &self.label, self.sites, chunk_sites)?;
            for (i, tmp) in tmp_paths.iter().enumerate() {
                std::fs::rename(tmp, chunk_path(&self.dir, i))?;
            }
            self.chunk_sites = chunk_sites;
        }
        // Orphan sweep: anything chunk-shaped the manifest does not claim.
        let keep = self.num_chunks();
        let mut orphans_removed = 0usize;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let orphan = if let Some(stem) = name.strip_prefix("chunk-") {
                if let Some(digits) = stem.strip_suffix(".col") {
                    match digits.parse::<usize>() {
                        Ok(idx) => idx >= keep,
                        Err(_) => true,
                    }
                } else {
                    stem.ends_with(".col.tmp")
                }
            } else {
                false
            };
            if orphan {
                std::fs::remove_file(entry.path())?;
                orphans_removed += 1;
            }
        }
        File::open(&self.dir)?.sync_all()?;
        Ok(CompactStats {
            orphans_removed,
            chunks_before,
            chunks_after: keep,
            rechunked,
        })
    }

    /// Materializes the full [`MeasuredDataset`] — the dual-feasible-size
    /// path used to certify streaming/resident equivalence. Toplists come
    /// from the world, exactly as the resident pipeline copies them.
    pub fn load_dataset(&self, world: &webdep_webgen::World) -> io::Result<MeasuredDataset> {
        if world.label != self.label || world.sites.len() != self.sites {
            return Err(bad(format!(
                "store is for '{}' ({} sites), not '{}' ({} sites)",
                self.label,
                self.sites,
                world.label,
                world.sites.len()
            )));
        }
        let mut observations = Vec::with_capacity(self.sites);
        for c in 0..self.num_chunks() {
            let chunk = self.read_chunk(c)?;
            for r in 0..chunk.rows {
                observations.push(chunk.observation(r));
            }
        }
        Ok(MeasuredDataset {
            observations,
            toplists: world.toplists.clone(),
            global_top: world.global_top.clone(),
            label: world.label.clone(),
        })
    }

    /// Verifies every chunk of the store at `dir` — checksum, header, and
    /// full column decode — and reports what it finds. With `repair`,
    /// corrupt chunk files are moved aside to `quarantine/` (never
    /// deleted: the damaged bytes stay available for post-mortem) and
    /// missing or quarantined chunks are re-encoded from `journal`
    /// records where the journal covers all their rows. Chunk bytes are a
    /// pure function of the rows, so a healed chunk is byte-identical to
    /// the one the original run wrote; each is decode-verified before the
    /// atomic rename into place.
    pub fn fsck(dir: &Path, journal: Option<&Path>, repair: bool) -> io::Result<FsckReport> {
        let store = ChunkStore::open(dir)?;
        let mut report = FsckReport {
            label: store.label.clone(),
            sites: store.sites,
            chunks: store.num_chunks(),
            valid: 0,
            missing: Vec::new(),
            corrupt: Vec::new(),
            quarantined: 0,
            healed: 0,
            unhealed: Vec::new(),
        };
        let mut need_heal = Vec::new();
        for c in 0..store.num_chunks() {
            match store.chunk_state(c) {
                ChunkState::Valid => report.valid += 1,
                ChunkState::Missing => {
                    report.missing.push(c);
                    if repair {
                        need_heal.push(c);
                    }
                }
                ChunkState::Corrupt(why) => {
                    report.corrupt.push((c, why));
                    if repair {
                        let qdir = dir.join("quarantine");
                        std::fs::create_dir_all(&qdir)?;
                        let dst = qdir.join(format!("chunk-{c:06}.col"));
                        if dst.exists() {
                            std::fs::remove_file(&dst)?;
                        }
                        std::fs::rename(chunk_path(dir, c), dst)?;
                        report.quarantined += 1;
                        need_heal.push(c);
                    }
                }
            }
        }
        if !need_heal.is_empty() {
            let mut slots: Vec<Option<SiteObservation>> = vec![None; store.sites];
            if let Some(path) = journal {
                // Records are already deduplicated, keep-first.
                for (i, obs) in crate::journal::open(path, &store.label, store.sites)?.records {
                    slots[i] = Some(obs);
                }
            }
            for c in need_heal {
                let lo = c * store.chunk_sites;
                let rows = store.chunk_rows(c);
                let covered: Option<Vec<SiteObservation>> =
                    slots[lo..lo + rows].iter().cloned().collect();
                let Some(batch) = covered else {
                    report.unhealed.push(c);
                    continue;
                };
                let bytes = encode_chunk(c, lo, &batch);
                decode_chunk(&bytes, Some((c, lo, rows)))
                    .map_err(|e| bad(format!("healed chunk {c} failed verification: {e}")))?;
                let tmp = dir.join(format!("chunk-{c:06}.col.tmp"));
                let mut f = File::create(&tmp)?;
                f.write_all(&bytes)?;
                f.sync_data()?;
                std::fs::rename(&tmp, chunk_path(dir, c))?;
                report.healed += 1;
            }
            File::open(dir)?.sync_all()?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FailureCause, LayerError};
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("webdep-store-{name}-{}", std::process::id()))
    }

    fn sample_obs(i: usize) -> SiteObservation {
        let mut o = SiteObservation::blank(&format!("site{i}.example.com"), "en");
        if !i.is_multiple_of(7) {
            o.hosting_ip = Some(Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8));
            o.hosting_asn = Some(64512 + (i % 37) as u32);
            o.hosting_org = Some((i % 11) as u32);
            o.hosting_org_country = Some(if i.is_multiple_of(2) { "US" } else { "DE" }.into());
            o.hosting_ip_country = Some("NL".into());
            o.hosting_anycast = i.is_multiple_of(3);
            o.ns_names = vec![
                format!("ns1.prov{}.net", i % 5),
                format!("ns2.prov{}.net", i % 5),
            ];
            o.dns_ip = Some(Ipv4Addr::new(192, 0, 2, (i % 256) as u8));
            o.dns_org = Some((i % 9) as u32);
            o.ca_owner = Some((i % 4) as u32);
            o.ca_owner_country = Some("US".into());
        } else {
            o.hosting_error = Some(LayerError::new(FailureCause::Timeout, "A: query timed out"));
            o.ca_error = Some(LayerError::new(
                FailureCause::Skipped,
                "no serving IP to scan",
            ));
        }
        o.derive_error_summary();
        o
    }

    fn write_store(dir: &Path, n: usize, chunk: usize) -> Vec<SiteObservation> {
        let all: Vec<SiteObservation> = (0..n).map(sample_obs).collect();
        let mut w = ChunkStoreWriter::create(dir, "t-v1", n, chunk).unwrap();
        // Commit in a scrambled order to prove site-order encoding.
        let mut order: Vec<usize> = (0..n).collect();
        order.reverse();
        order.swap(0, n / 2);
        for &i in &order {
            assert!(w.commit(i, &all[i]).unwrap());
        }
        assert!(
            !w.commit(0, &all[0]).unwrap(),
            "duplicate commit is a no-op"
        );
        w.finish().unwrap();
        all
    }

    #[test]
    fn roundtrip_is_exact_and_commit_order_free() {
        let dir = tmp("roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let n = 100;
        let all = write_store(&dir, n, 16);

        let store = ChunkStore::open(&dir).unwrap();
        assert_eq!(store.sites, n);
        assert_eq!(store.num_chunks(), 7);
        assert_eq!(store.chunk_rows(6), 4);
        let mut seen = 0;
        for c in 0..store.num_chunks() {
            let chunk = store.read_chunk(c).unwrap();
            for r in 0..chunk.rows {
                let obs = chunk.observation(r);
                assert_eq!(obs, all[chunk.lo + r], "site {}", chunk.lo + r);
                // Byte-level: same serialized form as the original.
                assert_eq!(
                    serde_json::to_string(&obs).unwrap(),
                    serde_json::to_string(&all[chunk.lo + r]).unwrap()
                );
                seen += 1;
            }
        }
        assert_eq!(seen, n);

        // Chunk bytes are a pure function of the rows: commit in site
        // order into a second store and compare files.
        let dir2 = tmp("roundtrip2");
        let _ = fs::remove_dir_all(&dir2);
        let mut w = ChunkStoreWriter::create(&dir2, "t-v1", n, 16).unwrap();
        for (i, obs) in all.iter().enumerate() {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        for c in 0..7 {
            assert_eq!(
                fs::read(dir.join(format!("chunk-{c:06}.col"))).unwrap(),
                fs::read(dir2.join(format!("chunk-{c:06}.col"))).unwrap(),
                "chunk {c} bytes differ by commit order"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn torn_chunk_detected_and_resume_heals() {
        let dir = tmp("torn");
        let _ = fs::remove_dir_all(&dir);
        let n = 40;
        let all = write_store(&dir, n, 16);

        // Tear the final chunk mid-write.
        let victim = dir.join("chunk-000002.col");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 11]).unwrap();
        let store = ChunkStore::open(&dir).unwrap();
        assert!(matches!(store.chunk_state(0), ChunkState::Valid));
        assert!(matches!(store.chunk_state(2), ChunkState::Corrupt(_)));

        // Resume keeps the valid chunks and deletes the torn one…
        let mut w = ChunkStoreWriter::resume(&dir, "t-v1", n, 16).unwrap();
        assert!(w.chunk_written(0) && w.chunk_written(1) && !w.chunk_written(2));
        assert!(!victim.exists(), "torn chunk deleted for healing");
        assert!(w.site_durable(0) && !w.site_durable(33));
        // …and re-committing the tail heals it to identical bytes.
        for (i, obs) in all.iter().enumerate().skip(32) {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(
            fs::read(&victim).unwrap(),
            bytes,
            "healed chunk is byte-identical"
        );

        // A mismatched manifest refuses to resume.
        assert!(ChunkStoreWriter::resume(&dir, "other", n, 16).is_err());
        assert!(ChunkStoreWriter::resume(&dir, "t-v1", n + 1, 16).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    fn read_all(store: &ChunkStore) -> Vec<SiteObservation> {
        let mut out = Vec::new();
        for c in 0..store.num_chunks() {
            let chunk = store.read_chunk(c).unwrap();
            for r in 0..chunk.rows {
                out.push(chunk.observation(r));
            }
        }
        out
    }

    #[test]
    fn adopt_chunk_links_verified_bytes() {
        let dir = tmp("adopt-src");
        let dir2 = tmp("adopt-dst");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
        let n = 100;
        write_store(&dir, n, 16);
        let src = ChunkStore::open(&dir).unwrap();

        let mut w = ChunkStoreWriter::create(&dir2, "t-v1", n, 16).unwrap();
        for c in 0..src.num_chunks() {
            w.adopt_chunk(&src, c).unwrap();
            assert!(w.chunk_written(c));
            // Double adoption is an error, not silent corruption.
            assert!(w.adopt_chunk(&src, c).is_err());
        }
        w.finish().unwrap();
        for c in 0..src.num_chunks() {
            assert_eq!(
                fs::read(dir.join(format!("chunk-{c:06}.col"))).unwrap(),
                fs::read(dir2.join(format!("chunk-{c:06}.col"))).unwrap(),
                "adopted chunk {c} differs"
            );
        }

        // A geometry mismatch is refused before any bytes move.
        let dir3 = tmp("adopt-badgeo");
        let _ = fs::remove_dir_all(&dir3);
        let mut w = ChunkStoreWriter::create(&dir3, "t-v1", n, 32).unwrap();
        assert!(w.adopt_chunk(&src, 0).is_err());
        // A corrupt source chunk is caught by the read-back verification.
        let victim = dir.join("chunk-000001.col");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
        let mut w = ChunkStoreWriter::create(&dir3, "t-v1", n, 16).unwrap();
        assert!(w.adopt_chunk(&src, 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
        fs::remove_dir_all(&dir3).unwrap();
    }

    #[test]
    fn compact_rechunks_and_removes_orphans() {
        let dir = tmp("compact");
        let _ = fs::remove_dir_all(&dir);
        let n = 100;
        let all = write_store(&dir, n, 16);
        // Orphans an aborted delta run could leave behind.
        fs::write(dir.join("chunk-000042.col"), b"stale").unwrap();
        fs::write(dir.join("chunk-000003.col.tmp"), b"half").unwrap();

        let mut store = ChunkStore::open(&dir).unwrap();
        let stats = store.compact(64).unwrap();
        assert_eq!(stats.chunks_before, 7);
        assert_eq!(stats.chunks_after, 2);
        // 5 superseded old-geometry chunks + the 2 stray files.
        assert_eq!(stats.orphans_removed, 7);
        assert!(stats.rechunked);

        // Reopen from disk: same rows, new geometry, no strays.
        let reopened = ChunkStore::open(&dir).unwrap();
        assert_eq!(reopened.chunk_sites, 64);
        assert_eq!(reopened.num_chunks(), 2);
        assert_eq!(read_all(&reopened), all);
        let mut files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            ["chunk-000000.col", "chunk-000001.col", "manifest.json"]
        );

        // Compacted bytes equal a from-scratch store at the same geometry:
        // chunk bytes stay a pure function of the rows.
        let dir2 = tmp("compact-fresh");
        let _ = fs::remove_dir_all(&dir2);
        let mut w = ChunkStoreWriter::create(&dir2, "t-v1", n, 64).unwrap();
        for (i, obs) in all.iter().enumerate() {
            w.commit(i, obs).unwrap();
        }
        w.finish().unwrap();
        for c in 0..2 {
            assert_eq!(
                fs::read(dir.join(format!("chunk-{c:06}.col"))).unwrap(),
                fs::read(dir2.join(format!("chunk-{c:06}.col"))).unwrap(),
            );
        }

        // Idempotent at the same geometry: nothing to do, nothing removed.
        let stats = store.compact(64).unwrap();
        assert!(!stats.rechunked);
        assert_eq!(stats.orphans_removed, 0);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn compact_never_truncates_hard_linked_sources() {
        let src_dir = tmp("compact-hl-src");
        let dst_dir = tmp("compact-hl-dst");
        let _ = fs::remove_dir_all(&src_dir);
        let _ = fs::remove_dir_all(&dst_dir);
        let n = 48;
        let all = write_store(&src_dir, n, 16);
        // A delta-built sibling store sharing inodes with the source.
        let src = ChunkStore::open(&src_dir).unwrap();
        let mut w = ChunkStoreWriter::create(&dst_dir, "t-v1", n, 16).unwrap();
        for c in 0..src.num_chunks() {
            w.adopt_chunk(&src, c).unwrap();
        }
        w.finish().unwrap();
        let src_bytes: Vec<Vec<u8>> = (0..3)
            .map(|c| fs::read(src_dir.join(format!("chunk-{c:06}.col"))).unwrap())
            .collect();

        let mut dst = ChunkStore::open(&dst_dir).unwrap();
        dst.compact(32).unwrap();
        assert_eq!(read_all(&dst), all);
        // The shared inodes were never rewritten in place.
        for (c, bytes) in src_bytes.iter().enumerate() {
            assert_eq!(
                &fs::read(src_dir.join(format!("chunk-{c:06}.col"))).unwrap(),
                bytes,
                "source chunk {c} was clobbered through a shared inode"
            );
        }
        assert_eq!(read_all(&ChunkStore::open(&src_dir).unwrap()), all);
        fs::remove_dir_all(&src_dir).unwrap();
        fs::remove_dir_all(&dst_dir).unwrap();
    }

    /// Counts read from the input are bounded by the bytes behind them: a
    /// checksum-valid chunk claiming `u32::MAX` strings or rows is an
    /// error, not an allocation of that size.
    #[test]
    fn crafted_counts_fail_without_allocating() {
        // After the magic: index, lo, rows, n_strings, one string length.
        for fields in [[0, 0, 0, u32::MAX, 0], [0, 0, u32::MAX, 0, 0]] {
            let mut bytes = CHUNK_MAGIC.to_vec();
            for f in fields {
                bytes.extend_from_slice(&f.to_le_bytes());
            }
            let sum = fnv1a(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
            assert_eq!(bytes.len(), 36);
            assert!(decode_chunk(&bytes, None).is_err());
        }
    }

    /// The chunk and journal-frame bytes of a fixed seeded set, pinned as
    /// `(length, FNV-1a)`: the encoding is a format, so any change to the
    /// encoder must leave these bytes exactly as they are.
    #[test]
    fn golden_chunk_and_frame_bytes() {
        let n = 37;
        let all = crate::testkit::seeded_set(0x5EED_C0DE, n);
        // The set exercises every column shape the format has.
        let some = |f: &dyn Fn(&SiteObservation) -> bool| all.iter().any(f);
        let both = |f: &dyn Fn(&SiteObservation) -> bool| some(f) && some(&|o| !f(o));
        assert!(both(&|o| o.hosting_ip.is_some()) && both(&|o| o.dns_ip.is_some()));
        assert!(both(&|o| o.hosting_asn.is_some()) && both(&|o| o.dns_asn.is_some()));
        assert!(both(&|o| o.hosting_org.is_some()) && both(&|o| o.dns_org.is_some()));
        assert!(both(&|o| o.hosting_org_country.is_some()));
        assert!(both(&|o| o.hosting_ip_country.is_some()));
        assert!(both(&|o| o.dns_org_country.is_some()));
        assert!(both(&|o| o.dns_ip_country.is_some()));
        assert!(both(&|o| o.hosting_anycast) && both(&|o| o.dns_anycast));
        assert!(both(&|o| o.ca_owner.is_some()) && both(&|o| o.ca_owner_country.is_some()));
        assert!(both(&|o| o.hosting_error.is_some()) && both(&|o| o.dns_error.is_some()));
        assert!(both(&|o| o.ca_error.is_some()) && both(&|o| o.error.is_some()));
        for ns in [0, 1, 3] {
            assert!(some(&|o| o.ns_names.len() == ns), "{ns} NS names");
        }
        for cause in FailureCause::ALL {
            let has = |e: &Option<LayerError>| e.as_ref().is_some_and(|e| e.cause == cause);
            assert!(some(&|o| has(&o.hosting_error)
                || has(&o.dns_error)
                || has(&o.ca_error)));
        }

        // Chunks of 16 rows: two full ones and a short final one.
        let pinned: [(usize, u64); 3] = [
            (1348, 0xC335_6E07_2799_FA4C),
            (1351, 0xF5D8_F5A1_9E1C_3D9B),
            (561, 0xBBC3_6AB9_D38B_324A),
        ];
        let dir = tmp("golden");
        let _ = fs::remove_dir_all(&dir);
        let mut w = ChunkStoreWriter::create(&dir, "golden", n, 16).unwrap();
        for i in (0..n).rev() {
            w.commit(i, &all[i]).unwrap();
        }
        w.finish().unwrap();
        for (c, &(len, sum)) in pinned.iter().enumerate() {
            let lo = c * 16;
            let bytes = encode_chunk(c, lo, &all[lo..(lo + 16).min(n)]);
            assert_eq!((bytes.len(), fnv1a(&bytes)), (len, sum), "chunk {c}");
            let file = fs::read(dir.join(format!("chunk-{c:06}.col"))).unwrap();
            assert_eq!(file, bytes, "the writer's chunk {c}");
        }

        // A journal of two frames, header included.
        let jpath = dir.join("golden.journal");
        let mut jw = crate::journal::JournalWriter::create(&jpath, "golden", n).unwrap();
        jw.append(5, &all[5]).unwrap();
        jw.append(36, &all[36]).unwrap();
        drop(jw);
        let bytes = fs::read(&jpath).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (453, 0xF780_55B6_E150_4264),
            "journal"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Splicing a decoded chunk's clean rows and committing the dirty ones
    /// writes exactly the bytes of the naive path, which materializes every
    /// clean row as an observation and encodes the lot.
    #[test]
    fn splice_matches_the_materializing_oracle() {
        let k = 16;
        type Mask = fn(usize, usize) -> bool;
        let masks: [(&str, Mask); 5] = [
            ("none", |_, _| false),
            ("all", |_, _| true),
            ("first row", |r, _| r == 0),
            ("last row", |r, rows| r + 1 == rows),
            ("every other row", |r, _| r % 2 == 1),
        ];
        for seed in 0..4u64 {
            // 40 sites grow to 48, so the short final chunk grows 8 -> 16.
            let prev = crate::testkit::seeded_set(seed, 40);
            let next = crate::testkit::seeded_set(seed ^ 0xD127, 48);
            let src_dir = tmp(&format!("splice-src-{seed}"));
            let dir = tmp(&format!("splice-{seed}"));
            let _ = fs::remove_dir_all(&src_dir);
            let mut w = ChunkStoreWriter::create(&src_dir, "t-v1", 40, k).unwrap();
            for (i, obs) in prev.iter().enumerate() {
                w.commit(i, obs).unwrap();
            }
            w.finish().unwrap();
            let src = ChunkStore::open(&src_dir).unwrap();
            for c in 0..src.num_chunks() {
                let chunk = src.read_chunk(c).unwrap();
                let lo = c * k;
                for (name, dirty) in masks {
                    let dirty = |r: usize| dirty(r, chunk.rows);
                    let case = format!("seed {seed}, chunk {c}, dirty {name}");
                    let oracle: Vec<SiteObservation> = (0..k)
                        .map(|r| match r < chunk.rows && !dirty(r) {
                            true => chunk.observation(r),
                            false => next[lo + r].clone(),
                        })
                        .collect();

                    let mut w = ChunkStoreWriter::create(&dir, "t-v2", 48, k).unwrap();
                    let commit_dirty = |w: &mut ChunkStoreWriter| {
                        for r in (0..k).filter(|&r| r >= chunk.rows || dirty(r)) {
                            assert!(w.commit(lo + r, &next[lo + r]).unwrap(), "{case}");
                        }
                    };
                    // Splicing first, as `measure_delta` does, and last.
                    if seed % 2 == 1 {
                        commit_dirty(&mut w);
                    }
                    let clean = (0..chunk.rows).filter(|&r| !dirty(r)).count();
                    assert_eq!(w.splice(&chunk, |r| !dirty(r)).unwrap(), clean, "{case}");
                    assert_eq!(w.splice(&chunk, |r| !dirty(r)).unwrap(), 0, "{case}");
                    if seed % 2 == 0 {
                        commit_dirty(&mut w);
                    }
                    assert!(w.chunk_written(c), "{case}");
                    let bytes = fs::read(dir.join(format!("chunk-{c:06}.col"))).unwrap();
                    assert_eq!(bytes, encode_chunk(c, lo, &oracle), "{case}");
                }
            }
            // A chunk that does not fit the target's geometry or site
            // count is refused.
            let mut w = ChunkStoreWriter::create(&dir, "t-v2", 48, 8).unwrap();
            assert!(w.splice(&src.read_chunk(0).unwrap(), |_| true).is_err());
            let mut w = ChunkStoreWriter::create(&dir, "t-v2", 36, k).unwrap();
            assert!(w.splice(&src.read_chunk(2).unwrap(), |_| true).is_err());
            fs::remove_dir_all(&src_dir).unwrap();
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn finish_rejects_incomplete_store() {
        let dir = tmp("incomplete");
        let _ = fs::remove_dir_all(&dir);
        let mut w = ChunkStoreWriter::create(&dir, "t-v1", 10, 4).unwrap();
        w.commit(0, &sample_obs(0)).unwrap();
        assert!(w.finish().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_recovers_on_resume() {
        let dir = tmp("torn-manifest");
        let _ = fs::remove_dir_all(&dir);
        let n = 40;
        let all = write_store(&dir, n, 16);
        let mpath = dir.join("manifest.json");
        let mbytes = fs::read(&mpath).unwrap();

        // Truncate the manifest mid-byte — the torn-write artifact the
        // atomic replacement protects against, planted by hand.
        fs::write(&mpath, &mbytes[..mbytes.len() / 2]).unwrap();
        assert!(ChunkStore::open(&dir).is_err());

        // Resume rewrites the manifest in place from the run metadata and
        // keeps every surviving chunk — no re-measurement needed.
        let w = ChunkStoreWriter::resume(&dir, "t-v1", n, 16).unwrap();
        assert!((0..3).all(|c| w.chunk_written(c)), "valid chunks kept");
        w.finish().unwrap();
        assert_eq!(
            fs::read(&mpath).unwrap(),
            mbytes,
            "healed manifest is byte-identical"
        );
        assert_eq!(read_all(&ChunkStore::open(&dir).unwrap()), all);

        // With the manifest torn there is nothing trustworthy to compare
        // against, so the caller's run metadata is authoritative — the
        // same trust `create` extends. A *valid* manifest for a different
        // run still refuses (covered in torn_chunk_detected_and_resume_heals).
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_quarantines_and_heals_byte_identically() {
        let dir = tmp("fsck");
        let _ = fs::remove_dir_all(&dir);
        let n = 72;
        let all = write_store(&dir, n, 16);
        let jpath = dir.join("run.journal");
        let mut jw = crate::journal::JournalWriter::create(&jpath, "t-v1", n).unwrap();
        for (i, obs) in all.iter().enumerate() {
            jw.append(i, obs).unwrap();
        }
        jw.sync().unwrap();
        let orig2 = fs::read(dir.join("chunk-000002.col")).unwrap();
        let orig4 = fs::read(dir.join("chunk-000004.col")).unwrap();

        // Garble one chunk mid-file, delete another outright.
        let mut garbled = orig2.clone();
        garbled[40] ^= 0xFF;
        fs::write(dir.join("chunk-000002.col"), &garbled).unwrap();
        fs::remove_file(dir.join("chunk-000004.col")).unwrap();

        // Report-only pass: finds both, changes nothing.
        let report = ChunkStore::fsck(&dir, None, false).unwrap();
        assert!(!report.clean() && !report.intact());
        assert_eq!(report.valid, 3);
        assert_eq!(report.missing, vec![4]);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, 2);
        assert_eq!((report.quarantined, report.healed), (0, 0));
        assert_eq!(
            fs::read(dir.join("chunk-000002.col")).unwrap(),
            garbled,
            "report-only fsck must not touch the store"
        );

        // Repair: the corrupt file moves to quarantine for post-mortem and
        // both chunks are re-encoded from the journal, byte-identically.
        let report = ChunkStore::fsck(&dir, Some(&jpath), true).unwrap();
        assert!(report.intact() && !report.clean());
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.healed, 2);
        assert!(report.unhealed.is_empty());
        assert_eq!(fs::read(dir.join("chunk-000002.col")).unwrap(), orig2);
        assert_eq!(fs::read(dir.join("chunk-000004.col")).unwrap(), orig4);
        assert_eq!(
            fs::read(dir.join("quarantine/chunk-000002.col")).unwrap(),
            garbled
        );
        assert_eq!(read_all(&ChunkStore::open(&dir).unwrap()), all);
        let clean = ChunkStore::fsck(&dir, None, false).unwrap();
        assert!(clean.clean());
        assert!(clean.to_value()["intact"] == Value::Bool(true));

        // Without a journal a missing chunk is reported unhealed — fsck
        // never invents data.
        fs::remove_file(dir.join("chunk-000000.col")).unwrap();
        let report = ChunkStore::fsck(&dir, None, true).unwrap();
        assert!(!report.intact());
        assert_eq!(report.unhealed, vec![0]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
