//! Seeded, std-only test inputs for the store boundary: a SplitMix64
//! stream and observations drawn from small string pools, so strings
//! repeat within and across fields and every optional column is both
//! present and absent.

use crate::dataset::{FailureCause, LayerError, SiteObservation};
use std::net::Ipv4Addr;

/// SplitMix64: a tiny deterministic stream, so a failing case is named by
/// its seed alone.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant here).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub(crate) fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn opt_u32(&mut self) -> Option<u32> {
        self.coin().then(|| self.next_u64() as u32)
    }

    /// A country code, or `None`; `"de"` repeats a TLD and a language.
    fn opt_country(&mut self) -> Option<String> {
        const COUNTRIES: [&str; 4] = ["US", "DE", "NL", "de"];
        self.coin()
            .then(|| COUNTRIES[self.below(COUNTRIES.len())].to_string())
    }
}

/// Error details; `"US"` repeats a country code.
const DETAILS: [&str; 4] = [
    "A: query timed out",
    "NS: SERVFAIL",
    "no serving IP to scan",
    "US",
];

/// Observation `i` of a seeded set. Rows `0..9` carry every
/// [`FailureCause`] once, on the layer `i % 3`.
pub(crate) fn seeded_obs(rng: &mut Rng, i: usize) -> SiteObservation {
    const TLDS: [&str; 3] = ["com", "de", "org"];
    const LANGS: [&str; 3] = ["en", "de", "fr"];
    let domain = format!("site{i}.{}", TLDS[rng.below(TLDS.len())]);
    let mut o = SiteObservation::blank(&domain, LANGS[rng.below(LANGS.len())]);
    o.hosting_ip = rng.opt_u32().map(Ipv4Addr::from);
    o.hosting_asn = rng.opt_u32();
    o.hosting_org = rng.opt_u32();
    o.hosting_org_country = rng.opt_country();
    o.hosting_ip_country = rng.opt_country();
    o.hosting_anycast = rng.coin();
    let ns = [0, 1, 3][rng.below(3)];
    o.ns_names = (0..ns)
        .map(|k| format!("ns{}.prov{}.net", k + 1, rng.below(4)))
        .collect();
    o.dns_ip = rng.opt_u32().map(Ipv4Addr::from);
    o.dns_asn = rng.opt_u32();
    o.dns_org = rng.opt_u32();
    o.dns_org_country = rng.opt_country();
    o.dns_ip_country = rng.opt_country();
    o.dns_anycast = rng.coin();
    o.ca_owner = rng.opt_u32();
    o.ca_owner_country = rng.opt_country();
    fn layer_error(rng: &mut Rng) -> Option<LayerError> {
        rng.coin().then(|| {
            let cause = FailureCause::ALL[rng.below(FailureCause::ALL.len())];
            LayerError::new(cause, DETAILS[rng.below(DETAILS.len())])
        })
    }
    o.hosting_error = layer_error(rng);
    o.dns_error = layer_error(rng);
    o.ca_error = layer_error(rng);
    if let Some(&cause) = FailureCause::ALL.get(i) {
        let forced = Some(LayerError::new(cause, DETAILS[i % DETAILS.len()]));
        match i % 3 {
            0 => o.hosting_error = forced,
            1 => o.dns_error = forced,
            _ => o.ca_error = forced,
        }
    }
    match rng.below(3) {
        0 => o.error = None,
        1 => o.derive_error_summary(),
        _ => o.error = Some(DETAILS[rng.below(DETAILS.len())].to_string()),
    }
    o
}

/// `n` seeded observations, sites `0..n`.
pub(crate) fn seeded_set(seed: u64, n: usize) -> Vec<SiteObservation> {
    let mut rng = Rng::new(seed);
    (0..n).map(|i| seeded_obs(&mut rng, i)).collect()
}

/// Seeded mutation of valid chunk and journal encodings: whatever the
/// bytes, decoding fails with an error or succeeds, never panics, and a
/// change the checksum was not re-sealed over is never taken for a valid
/// chunk. A failing case names its seed and mutation list.
#[cfg(test)]
mod mutation {
    use super::*;
    use crate::journal::{self, JournalWriter};
    use crate::store::{decode_chunk, encode_chunk, ChunkStore, ChunkStoreWriter};
    use std::fs;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::{Path, PathBuf};

    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        /// Flip one bit.
        Flip { at: usize, bit: u8 },
        /// Keep only the first `len` bytes.
        Truncate { len: usize },
        /// Overwrite the `u32` at `at`, a count or length when `at` is a
        /// field offset, with `value`.
        Inflate { at: usize, value: u32 },
        /// Keep the first `at` bytes, then append the other encoding from
        /// its byte `from` on.
        Splice { at: usize, from: usize },
    }

    /// Offsets of a chunk header's counts: rows, string count, and the
    /// first string's length.
    const CHUNK_COUNTS: [usize; 3] = [16, 20, 24];
    /// The same in a journal frame, behind its length (offset 0).
    const FRAME_COUNTS: [usize; 4] = [0, 24, 28, 32];

    fn pick(rng: &mut Rng, counts: &[usize], len: usize, other: usize) -> Mutation {
        let at = rng.below(len.max(1));
        match rng.below(4) {
            0 => Mutation::Flip {
                at,
                bit: rng.below(8) as u8,
            },
            1 => Mutation::Truncate { len: at },
            2 => Mutation::Inflate {
                at: match rng.coin() {
                    true => counts[rng.below(counts.len())],
                    false => at & !3,
                },
                value: [u32::MAX, u32::MAX / 2, 1 << 20, len as u32 + 1][rng.below(4)],
            },
            _ => Mutation::Splice {
                at,
                from: rng.below(other.max(1)),
            },
        }
    }

    fn apply(bytes: &mut Vec<u8>, m: Mutation, other: &[u8]) {
        match m {
            Mutation::Flip { at, bit } => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << bit;
                }
            }
            Mutation::Truncate { len } => bytes.truncate(len),
            Mutation::Inflate { at, value } => {
                if let Some(w) = bytes.get_mut(at..at + 4) {
                    w.copy_from_slice(&value.to_le_bytes());
                }
            }
            Mutation::Splice { at, from } => {
                bytes.truncate(at);
                bytes.extend_from_slice(other.get(from..).unwrap_or_default());
            }
        }
    }

    /// Recomputes a chunk's trailing FNV-1a checksum over its body.
    fn reseal(bytes: &mut [u8]) {
        if bytes.len() >= 8 {
            let (body, sum) = bytes.split_at_mut(bytes.len() - 8);
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for &b in body.iter() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            sum.copy_from_slice(&h.to_le_bytes());
        }
    }

    /// Runs `f`, turning a panic into a failure that names the case.
    fn no_panic<T>(case: &str, f: impl FnOnce() -> T) -> T {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => v,
            Err(_) => panic!("{case}: panicked (see the message above)"),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("webdep-mutation-{name}-{}", std::process::id()))
    }

    /// Encodings to mutate: chunks of 1, 5 and 16 rows.
    fn encodings(seed: u64) -> Vec<(Vec<u8>, usize)> {
        let all = seeded_set(seed, 16);
        [1, 5, 16]
            .into_iter()
            .map(|rows| (encode_chunk(0, 0, &all[..rows]), rows))
            .collect()
    }

    /// A one-chunk store holding `bytes` as its chunk.
    fn fsck_valid(dir: &Path, rows: usize, bytes: &[u8]) -> bool {
        let w = ChunkStoreWriter::create(dir, "m", rows, rows).unwrap();
        drop(w);
        fs::write(dir.join("chunk-000000.col"), bytes).unwrap();
        ChunkStore::fsck(dir, None, false).unwrap().valid == 1
    }

    #[test]
    fn mutated_chunks_decode_totally() {
        let dir = tmp("chunks");
        // Sealed cases by outcome: the harness must reach both.
        let (mut decoded_ok, mut decoded_err) = (0, 0);
        for seed in 0..8u64 {
            let mut rng = Rng::new(seed);
            let sources = encodings(seed);
            for case in 0..400 {
                let (orig, rows) = &sources[rng.below(sources.len())];
                let (other, _) = &sources[rng.below(sources.len())];
                let sealed = rng.coin();
                let muts: Vec<Mutation> = (0..1 + rng.below(3))
                    .map(|_| pick(&mut rng, &CHUNK_COUNTS, orig.len(), other.len()))
                    .collect();
                let mut bytes = orig.clone();
                for &m in &muts {
                    apply(&mut bytes, m, other);
                }
                if sealed {
                    reseal(&mut bytes);
                }
                let case = format!("seed {seed} case {case} (sealed {sealed}): {muts:?}");
                for expect in [None, Some((0, 0, *rows))] {
                    let decoded = no_panic(&case, || decode_chunk(&bytes, expect));
                    if sealed && expect.is_none() {
                        match decoded.is_ok() {
                            true => decoded_ok += 1,
                            false => decoded_err += 1,
                        }
                    }
                    if let Ok(chunk) = decoded {
                        no_panic(&case, || {
                            (0..chunk.rows).for_each(|r| {
                                chunk.observation(r);
                                chunk.failure_causes(r);
                            })
                        });
                    }
                }
                let changed = bytes != *orig && bytes != *other;
                if !sealed && changed {
                    assert!(!fsck_valid(&dir, *rows, &bytes), "{case}: fsck said valid");
                }
            }
        }
        assert!(
            decoded_ok > 50 && decoded_err > 50,
            "{decoded_ok} ok, {decoded_err} err"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A journal of three frames whose middle or last one is mutated:
    /// loading errors out or drops the frame as a torn tail, never panics.
    #[test]
    fn mutated_journal_frames_load_totally() {
        let path = tmp("journal");
        for seed in 0..8u64 {
            let mut rng = Rng::new(seed);
            let all = seeded_set(seed, 4);
            let frames: Vec<Vec<u8>> = (0..3).map(|i| frame(&path, i, &all[i])).collect();
            let head = {
                drop(JournalWriter::create(&path, "m", 4).unwrap());
                fs::read(&path).unwrap()
            };
            for case in 0..200 {
                let victim = 1 + rng.below(2);
                let orig = &frames[victim];
                let other = &frames[rng.below(3)];
                let sealed = rng.coin();
                let muts: Vec<Mutation> = (0..1 + rng.below(3))
                    .map(|_| pick(&mut rng, &FRAME_COUNTS, orig.len(), other.len()))
                    .collect();
                let mut bad = orig.clone();
                for &m in &muts {
                    apply(&mut bad, m, other);
                }
                if sealed && bad.len() >= 8 {
                    // Re-seal the payload's checksum and the frame head.
                    reseal(&mut bad[8..]);
                    let len = (bad.len() - 8) as u32;
                    bad[..4].copy_from_slice(&len.to_le_bytes());
                    bad[4..8].copy_from_slice(&(!len).to_le_bytes());
                }
                let mut file = head.clone();
                for (i, f) in frames.iter().enumerate() {
                    file.extend_from_slice(if i == victim { &bad } else { f });
                }
                fs::write(&path, &file).unwrap();
                let case =
                    format!("seed {seed} case {case} (frame {victim}, sealed {sealed}): {muts:?}");
                if let Ok(j) = no_panic(&case, || journal::open(&path, "m", 4)) {
                    assert!(j.valid_len <= file.len() as u64, "{case}");
                    assert!(j.records.iter().all(|(i, _)| *i < 4), "{case}");
                }
            }
        }
        let _ = fs::remove_file(&path);
    }

    /// The bytes one `append` adds for `obs` as site `site`: frame head
    /// and one-row chunk.
    fn frame(path: &Path, site: usize, obs: &SiteObservation) -> Vec<u8> {
        let mut w = JournalWriter::create(path, "m", 4).unwrap();
        w.sync().unwrap();
        let head = fs::metadata(path).unwrap().len() as usize;
        w.append(site, obs).unwrap();
        drop(w);
        fs::read(path).unwrap().split_off(head)
    }
}
