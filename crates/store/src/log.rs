//! The segmented append-only log.
//!
//! One log is a directory of files sharing a prefix:
//!
//! ```text
//! <prefix>-000000.seg     sealed: records + index footer, never written again
//! <prefix>-000001.seg
//! <prefix>-000002.log     active: records only, appended in place
//! ```
//!
//! Appends go to the single active `.log` file; once it holds
//! `records_per_segment` records it is **sealed** — the index footer is
//! appended, the file is synced and renamed to `.seg` — and a fresh active
//! file is started. Replay reads sealed segments through their footer
//! (falling back to a scan when the footer does not validate) and scans the
//! active file, truncating any torn or corrupt tail back to the last valid
//! record; a corrupt record inside a sealed segment is treated as that
//! tail, so replay always returns a prefix. The log's generic currency is `(kind, payload)` records; what the
//! payloads mean is the caller's business.

use crate::record::{
    decode_footer, encode_footer, encode_record, scan_records, Record, RECORD_HEADER_LEN,
};
use crate::{FsyncPolicy, StoreError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Number of records per sealed segment used by [`crate::NodeStore`].
pub const DEFAULT_RECORDS_PER_SEGMENT: u32 = 256;

/// A segmented append-only record log rooted in one directory.
pub struct SegmentedLog {
    dir: PathBuf,
    prefix: String,
    records_per_segment: u32,
    policy: FsyncPolicy,
    /// The active `.log` file, its sequence number and its record offsets.
    active: File,
    active_seq: u64,
    active_len: u64,
    active_offsets: Vec<u64>,
    /// Appends since the last fsync (the `EveryN` counter).
    unsynced: u32,
    /// Total payload bytes appended in this session (the disk-full budget
    /// counts these, mirroring a filesystem quota).
    appended_bytes: u64,
    /// Remaining byte budget when a disk-full fault is injected.
    byte_budget: Option<u64>,
    /// Set after the first failed append: the log stays readable but
    /// rejects further writes.
    failed: bool,
}

impl SegmentedLog {
    /// Opens (or creates) the log under `dir` with the given file `prefix`,
    /// replaying every existing record. Sealed segments are read through
    /// their footer; the active file's torn or corrupt tail, if any, is
    /// truncated to the last valid record so subsequent appends extend a
    /// clean prefix. A sealed segment with a corrupt record mid-file ends
    /// the replay the same way: its valid records become the active file
    /// and every later segment is removed, so what replays is always a
    /// prefix of what was appended. `byte_budget` caps total appended
    /// payload bytes (disk-full injection).
    pub fn open(
        dir: &Path,
        prefix: &str,
        records_per_segment: u32,
        policy: FsyncPolicy,
        byte_budget: Option<u64>,
    ) -> Result<(Self, Vec<Record>), StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut sealed: Vec<(u64, PathBuf)> = Vec::new();
        let mut actives: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_prefix(&format!("{prefix}-")) else {
                continue;
            };
            if let Some(seq) = stem.strip_suffix(".seg").and_then(|s| s.parse().ok()) {
                sealed.push((seq, path));
            } else if let Some(seq) = stem.strip_suffix(".log").and_then(|s| s.parse().ok()) {
                actives.push((seq, path));
            }
        }
        actives.sort();
        // At most one active file exists in a clean history; a crash between
        // sealing and starting the next segment can leave several, so all
        // but the newest are replayed as if sealed (never appended to again).
        let newest = actives.pop();
        sealed.extend(actives);
        sealed.sort();

        // Replay must yield a prefix: the first closed segment that comes
        // back short (a corrupt record mid-segment) ends it. That segment
        // becomes the active file — the scan below cuts it back to its valid
        // records — and every later file is removed, so the next append
        // extends the prefix instead of leaving a hole before later records.
        let mut records = Vec::new();
        let mut active = newest;
        for (k, (seq, path)) in sealed.iter().enumerate() {
            if let Some(segment) = read_sealed(path, records_per_segment)? {
                records.extend(segment);
                continue;
            }
            for (_, later) in sealed[k + 1..].iter().chain(&active) {
                std::fs::remove_file(later)?;
            }
            let reopened = segment_path(dir, prefix, *seq, false);
            std::fs::rename(path, &reopened)?;
            active = Some((*seq, reopened));
            break;
        }
        let (active_seq, active_path) = active.unwrap_or_else(|| {
            let seq = sealed.last().map(|(s, _)| s + 1).unwrap_or(0);
            (seq, segment_path(dir, prefix, seq, false))
        });

        // Scan the active file and cut back any invalid tail.
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&active_path)?;
        let mut bytes = Vec::new();
        active.read_to_end(&mut bytes)?;
        let (active_records, valid_len) = scan_records(&bytes);
        if (valid_len as u64) < bytes.len() as u64 {
            active.set_len(valid_len as u64)?;
            active.sync_data()?;
        }
        active.seek(SeekFrom::Start(valid_len as u64))?;
        let mut active_offsets = Vec::with_capacity(active_records.len());
        let mut off = 0u64;
        for (_, payload) in &active_records {
            active_offsets.push(off);
            off += (RECORD_HEADER_LEN + payload.len()) as u64;
        }
        records.extend(active_records);

        Ok((
            SegmentedLog {
                dir: dir.to_path_buf(),
                prefix: prefix.to_string(),
                records_per_segment: records_per_segment.max(1),
                policy,
                active,
                active_seq,
                active_len: valid_len as u64,
                active_offsets,
                unsynced: 0,
                appended_bytes: 0,
                byte_budget,
                failed: false,
            },
            records,
        ))
    }

    /// Appends one record, sealing the active segment when it is full and
    /// syncing according to the fsync policy. After the first error the log
    /// is failed: reads stay valid, every further append returns
    /// [`StoreError::Failed`].
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        if self.failed {
            return Err(StoreError::Failed);
        }
        if let Some(budget) = self.byte_budget {
            if self.appended_bytes + payload.len() as u64 > budget {
                self.failed = true;
                return Err(StoreError::DiskFull);
            }
        }
        let encoded = encode_record(kind, payload);
        if let Err(e) = self.active.write_all(&encoded) {
            self.failed = true;
            return Err(e.into());
        }
        self.active_offsets.push(self.active_len);
        self.active_len += encoded.len() as u64;
        self.appended_bytes += payload.len() as u64;
        self.unsynced += 1;

        match self.policy {
            FsyncPolicy::Always => {
                self.active.sync_data()?;
                self.unsynced = 0;
            }
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.active.sync_data()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::OsDefault => {}
        }

        if self.active_offsets.len() as u32 >= self.records_per_segment {
            self.seal_active()?;
        }
        Ok(())
    }

    /// Seals the active file — footer, sync, rename to `.seg` — and starts
    /// the next active segment.
    fn seal_active(&mut self) -> Result<(), StoreError> {
        let footer = encode_footer(&self.active_offsets);
        self.active.write_all(&footer)?;
        self.active.sync_data()?;
        let from = segment_path(&self.dir, &self.prefix, self.active_seq, false);
        let to = segment_path(&self.dir, &self.prefix, self.active_seq, true);
        std::fs::rename(&from, &to)?;

        self.active_seq += 1;
        let next = segment_path(&self.dir, &self.prefix, self.active_seq, false);
        self.active = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&next)?;
        self.active_len = 0;
        self.active_offsets.clear();
        self.unsynced = 0;
        Ok(())
    }

    /// Forces buffered appends to disk regardless of policy.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced > 0 {
            self.active.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Number of records in the (unsealed) active segment.
    pub fn active_records(&self) -> usize {
        self.active_offsets.len()
    }

    /// True once an append has failed (I/O error or exhausted disk budget).
    pub fn is_failed(&self) -> bool {
        self.failed
    }
}

/// Reads a sealed segment, or `None` when it comes back short: fewer
/// records than its footer lists, or — when the footer does not validate —
/// fewer than `records_per_segment`. The footer is the fast path; a segment
/// whose footer is bad is scanned record by record instead, so footer
/// corruption alone degrades to a slower read, never to data loss.
fn read_sealed(path: &Path, records_per_segment: u32) -> Result<Option<Vec<Record>>, StoreError> {
    let bytes = std::fs::read(path)?;
    let (records, complete) = match decode_footer(&bytes) {
        Some((offsets, region)) => {
            let (records, valid) = scan_records(&bytes[..region]);
            let complete = records.len() == offsets.len() && valid == region;
            (records, complete)
        }
        None => {
            let records = scan_records(&bytes).0;
            let complete = records.len() >= records_per_segment.max(1) as usize;
            (records, complete)
        }
    };
    Ok(complete.then_some(records))
}

/// `<dir>/<prefix>-<seq:06>.{log,seg}`.
fn segment_path(dir: &Path, prefix: &str, seq: u64, sealed: bool) -> PathBuf {
    let ext = if sealed { "seg" } else { "log" };
    dir.join(format!("{prefix}-{seq:06}.{ext}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tempdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fireledger-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path, per_seg: u32) -> (SegmentedLog, Vec<Record>) {
        SegmentedLog::open(dir, "blocks", per_seg, FsyncPolicy::OsDefault, None).unwrap()
    }

    #[test]
    fn appends_survive_reopen_across_segment_boundaries() {
        let dir = tempdir("reopen");
        let (mut log, recovered) = open(&dir, 4);
        assert!(recovered.is_empty());
        for i in 0..10u8 {
            log.append(0x01, &[i, i, i]).unwrap();
        }
        drop(log);
        // 10 records at 4/segment: 2 sealed segments + 2 in the active file.
        let sealed = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "seg")
            })
            .count();
        assert_eq!(sealed, 2);
        let (_, recovered) = open(&dir, 4);
        assert_eq!(recovered.len(), 10);
        for (i, (kind, payload)) in recovered.iter().enumerate() {
            assert_eq!(*kind, 0x01);
            assert_eq!(payload, &vec![i as u8; 3]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_active_tail_is_truncated_and_log_stays_appendable() {
        let dir = tempdir("torn");
        let (mut log, _) = open(&dir, 100);
        for i in 0..5u8 {
            log.append(0x01, &[i; 8]).unwrap();
        }
        drop(log);
        // Tear the last record: chop 4 bytes off the active file.
        let active = segment_path(&dir, "blocks", 0, false);
        let len = std::fs::metadata(&active).unwrap().len();
        let file = OpenOptions::new().write(true).open(&active).unwrap();
        file.set_len(len - 4).unwrap();
        drop(file);

        let (mut log, recovered) = open(&dir, 100);
        assert_eq!(recovered.len(), 4, "torn record must be dropped");
        log.append(0x01, &[9; 8]).unwrap();
        drop(log);
        let (_, recovered) = open(&dir, 100);
        assert_eq!(recovered.len(), 5);
        assert_eq!(recovered[4].1, vec![9; 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_sealed_footer_falls_back_to_scan() {
        let dir = tempdir("footer");
        let (mut log, _) = open(&dir, 3);
        for i in 0..3u8 {
            log.append(0x01, &[i; 4]).unwrap();
        }
        drop(log);
        let sealed = segment_path(&dir, "blocks", 0, true);
        let mut bytes = std::fs::read(&sealed).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF; // corrupt the footer crc
        std::fs::write(&sealed, &bytes).unwrap();
        let (_, recovered) = open(&dir, 3);
        assert_eq!(recovered.len(), 3, "records must survive footer loss");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_mid_sealed_segment_ends_the_replayed_prefix() {
        let dir = tempdir("midseg");
        let (mut log, _) = open(&dir, 4);
        // 14 records at 4/segment: sealed segments 0..=2 plus 2 active.
        for i in 0..14u8 {
            log.append(0x01, &[i; 8]).unwrap();
        }
        drop(log);
        // Flip a payload byte of segment 1's second record (record 5).
        let seg1 = segment_path(&dir, "blocks", 1, true);
        let mut bytes = std::fs::read(&seg1).unwrap();
        bytes[(RECORD_HEADER_LEN + 8) + RECORD_HEADER_LEN + 2] ^= 0x01;
        std::fs::write(&seg1, &bytes).unwrap();

        let (mut log, recovered) = open(&dir, 4);
        let payloads: Vec<Vec<u8>> = recovered.into_iter().map(|(_, p)| p).collect();
        let prefix: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 8]).collect();
        assert_eq!(payloads, prefix, "replay must stop at the corrupt record");
        log.append(0x01, &[99; 8]).unwrap();
        drop(log);
        let (_, again) = open(&dir, 4);
        let payloads: Vec<Vec<u8>> = again.into_iter().map(|(_, p)| p).collect();
        let mut expected = prefix;
        expected.push(vec![99; 8]);
        assert_eq!(payloads, expected, "the next append extends the prefix");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_full_budget_fails_appends_but_keeps_reads() {
        let dir = tempdir("full");
        let (mut log, _) =
            SegmentedLog::open(&dir, "blocks", 100, FsyncPolicy::Always, Some(20)).unwrap();
        log.append(0x01, &[1; 10]).unwrap();
        log.append(0x01, &[2; 10]).unwrap();
        let err = log.append(0x01, &[3; 10]).unwrap_err();
        assert!(matches!(err, StoreError::DiskFull));
        assert!(log.is_failed());
        assert!(matches!(
            log.append(0x01, &[4; 1]).unwrap_err(),
            StoreError::Failed
        ));
        drop(log);
        let (_, recovered) = open(&dir, 100);
        assert_eq!(recovered.len(), 2, "the persisted prefix stays readable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn property_any_garbage_tail_recovers_exactly_the_prefix() {
        // A DetRng-style LCG keeps the test dependency-free and repeatable.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for case in 0..50 {
            let dir = tempdir(&format!("prop{case}"));
            let (mut log, _) = open(&dir, 7);
            let prefix_len = (rng() % 20) as usize;
            for i in 0..prefix_len {
                let payload: Vec<u8> = (0..(rng() % 64) as usize).map(|j| (i + j) as u8).collect();
                log.append(0x01, &payload).unwrap();
            }
            drop(log);
            // Arbitrary garbage tail appended to the active file.
            let active_path = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|x| x == "log"))
                .unwrap();
            let garbage: Vec<u8> = (0..(rng() % 200) as usize)
                .map(|_| (rng() & 0xFF) as u8)
                .collect();
            let mut f = OpenOptions::new().append(true).open(&active_path).unwrap();
            f.write_all(&garbage).unwrap();
            drop(f);

            let (mut log, recovered) = open(&dir, 7);
            // Exactly the prefix: garbage may accidentally start with the
            // record magic + a valid crc only with ~2^-32 probability.
            assert_eq!(recovered.len(), prefix_len, "case {case}");
            // Re-append after recovery stays readable.
            log.append(0x02, b"after").unwrap();
            drop(log);
            let (_, again) = open(&dir, 7);
            assert_eq!(again.len(), prefix_len + 1, "case {case} re-append");
            assert_eq!(again[prefix_len], (0x02, b"after".to_vec()));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
