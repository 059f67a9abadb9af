//! `seal-store` — content-addressed on-disk artifact cache.
//!
//! One store is one directory holding a single append-only binary file,
//! `seal-store.v1.bin`: a 16-byte header (magic + format version) followed
//! by self-describing records
//!
//! ```text
//! [kind: u8][key: 16 bytes][payload len: u32 LE][fnv64 checksum: u64 LE][payload]
//! ```
//!
//! Keys are 128-bit content hashes ([`hash::ContentHash`]); the `kind`
//! byte namespaces artifact families (specs, detection shards, lowered
//! modules) so equal hashes in different families cannot alias. The layout
//! is fixed little-endian fields with records contiguous, so a payload can
//! be read at its offset without parsing anything around it.
//!
//! **The store keeps an index, not the file.** `open` walks the record
//! headers only, skipping every payload, and keeps `(kind, key)` →
//! `(offset, len, checksum)`. [`Store::get`] reads exactly one payload
//! with a positioned read and checks it against its checksum then, so
//! open time and memory follow the number of records, not the bytes on
//! disk. The only payloads held in memory are puts not yet flushed.
//!
//! **Corruption is data, not a fault.** A wrong-version header drops the
//! whole file; a torn record header or a length running past the end of
//! the file ends the walk there. Either counts one `cache.invalidations`,
//! and the next flush truncates the unusable tail before appending. A
//! flipped payload bit is caught when that record is read: the lookup
//! misses and counts one invalidation, costing a recompute of that one
//! record — never wrong output, never an error, never a panic.
//! [`Store::verify`] checksums every indexed record up front, for
//! `seal stats`. Writers buffer puts in memory and [`Store::flush`]
//! appends them (sorted, so the file bytes are deterministic regardless of
//! thread interleaving) and indexes the new records.
//!
//! Reads and writes are safe from parallel workers: lookups share a read
//! lock on the file handle and index, puts go through a mutex, flushes
//! take the index's write lock only to publish new records, and the
//! hit/miss counters are atomics.

pub mod codec;
pub mod hash;

pub use codec::{CodecError, Dec, Enc};
pub use hash::{fnv64, ContentHash, Hasher128};

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// File magic: the first 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"SEALSTOR";
/// On-disk format version. Bump on any layout or record-encoding change;
/// an old file under a new binary is dropped wholesale (one invalidation).
pub const FORMAT_VERSION: u32 = 1;
/// Store file name inside the cache directory.
pub const STORE_FILE: &str = "seal-store.v1.bin";

const HEADER_LEN: usize = 16;
const REC_HEADER_LEN: usize = 1 + 16 + 4 + 8;

/// How a run uses the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache at all (the store is inert).
    Off,
    /// Serve hits, never write (`ro`).
    ReadOnly,
    /// Serve hits and persist new artifacts (`rw`).
    ReadWrite,
}

impl CacheMode {
    /// Parses the CLI/env spelling (`off`, `ro`, `rw`).
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "off" => Some(CacheMode::Off),
            "ro" => Some(CacheMode::ReadOnly),
            "rw" => Some(CacheMode::ReadWrite),
            _ => None,
        }
    }

    /// Whether lookups are served.
    pub fn reads(&self) -> bool {
        !matches!(self, CacheMode::Off)
    }

    /// Whether puts are persisted.
    pub fn writes(&self) -> bool {
        matches!(self, CacheMode::ReadWrite)
    }
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheMode::Off => "off",
            CacheMode::ReadOnly => "ro",
            CacheMode::ReadWrite => "rw",
        })
    }
}

/// A store-level I/O failure (unreadable directory, failed append). Cache
/// *content* problems never surface here — they degrade to misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The path involved.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache store {}: {}", self.path, self.message)
    }
}

impl std::error::Error for StoreError {}

/// Counters for one store lifetime (mirrored into the obs metrics registry
/// as `cache.hits` / `cache.misses` / `cache.bytes_read` /
/// `cache.invalidations`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Payload bytes served by hits.
    pub bytes_read: u64,
    /// Records dropped as unusable (corrupt tail, bad checksum, version
    /// mismatch, undecodable payload reported by the caller).
    pub invalidations: u64,
    /// Distinct keys indexed on disk: those found at open plus those
    /// flushed since.
    pub disk_entries: u64,
    /// Puts buffered but not yet flushed.
    pub pending_puts: u64,
}

impl StoreStats {
    /// Hit rate over all lookups (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Key = (u8, ContentHash);

/// Where one record's payload sits in the store file.
#[derive(Debug, Clone, Copy)]
struct Loc {
    off: u64,
    len: u32,
    /// The record's stored checksum, checked on every read.
    sum: u64,
}

/// The read side of the store: a handle on the file and the index into
/// it. [`Store::flush_atomic`] swaps both at once when it renames a new
/// file into place.
#[derive(Default)]
struct Disk {
    file: Option<File>,
    /// `(kind, key)` → payload location. Later records win, so re-putting
    /// a key is an update.
    index: HashMap<Key, Loc>,
}

impl Disk {
    /// Reads one payload and checks it: `None` on an I/O error, a short
    /// read (the file shrank under us) or a checksum mismatch.
    fn read(&self, loc: Loc) -> Option<Vec<u8>> {
        let file = self.file.as_ref()?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact_at(&mut buf, loc.off).ok()?;
        (fnv64(&buf) == loc.sum).then_some(buf)
    }
}

fn file_header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

fn record_header((kind, key): Key, len: u32, sum: u64) -> [u8; REC_HEADER_LEN] {
    let mut h = [0u8; REC_HEADER_LEN];
    h[0] = kind;
    h[1..17].copy_from_slice(key.as_bytes());
    h[17..21].copy_from_slice(&len.to_le_bytes());
    h[21..29].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Creates (or empties) `path` for writing, with a handle that can also
/// serve reads once the file is in place.
fn create_rw(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

/// Walks the header and record headers of `file`, skipping payloads.
/// Returns the index and the length of the well-formed prefix, and
/// whether the walk stopped early at something unusable.
fn walk(file: &File) -> (HashMap<Key, Loc>, u64, bool) {
    let mut index = HashMap::new();
    let file_len = file.metadata().map(|m| m.len()).unwrap_or(0);
    if file_len == 0 {
        return (index, 0, false); // Fresh cache: nothing to walk.
    }
    let mut r = BufReader::new(file);
    let mut header = [0u8; HEADER_LEN];
    if r.read_exact(&mut header).is_err() || header[..12] != file_header()[..12] {
        // Wrong magic or version: the whole file is unusable under this
        // binary. One invalidation, start over.
        return (index, 0, true);
    }
    let mut pos = HEADER_LEN as u64;
    let mut rec = [0u8; REC_HEADER_LEN];
    while pos < file_len {
        // A torn record header (partial append / truncation) or a length
        // running past the end of the file ends the walk.
        if r.read_exact(&mut rec).is_err() {
            return (index, pos, true);
        }
        let len = u32::from_le_bytes(rec[17..21].try_into().unwrap());
        let off = pos + REC_HEADER_LEN as u64;
        if off + len as u64 > file_len || r.seek_relative(len as i64).is_err() {
            return (index, pos, true);
        }
        let key = ContentHash(rec[1..17].try_into().unwrap());
        let sum = u64::from_le_bytes(rec[21..29].try_into().unwrap());
        index.insert((rec[0], key), Loc { off, len, sum });
        pos = off + len as u64;
    }
    (index, pos, false)
}

/// The content-addressed artifact store. Cheap to share behind an [`Arc`];
/// all methods take `&self`.
pub struct Store {
    mode: CacheMode,
    path: Option<PathBuf>,
    /// Length of the valid prefix on disk; anything past it is corrupt and
    /// will be truncated away by the next flush. Its lock serializes
    /// [`Store::flush`] and [`Store::flush_atomic`]: both mutate the file
    /// *and* this watermark as one logical step, and interleaving them
    /// could append behind a watermark the atomic rewrite is about to
    /// move. Lock order: `flush_lock`, then `pending`, then `disk` — never
    /// the other way around.
    flush_lock: Mutex<u64>,
    disk: RwLock<Disk>,
    /// Puts not yet on disk.
    pending: Mutex<HashMap<Key, Arc<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
    invalidations: AtomicU64,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("mode", &self.mode)
            .field("path", &self.path)
            .field("disk_entries", &self.disk.read().unwrap().index.len())
            .finish()
    }
}

impl Store {
    /// An inert store: every lookup misses, every put is dropped.
    pub fn disabled() -> Store {
        Store {
            mode: CacheMode::Off,
            path: None,
            disk: RwLock::new(Disk::default()),
            pending: Mutex::new(HashMap::new()),
            flush_lock: Mutex::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Opens (or initializes) the store under `dir`.
    ///
    /// `ReadWrite` creates the directory; `ReadOnly` treats a missing
    /// directory or file as an empty cache. A present-but-corrupt file is
    /// *never* an error: the well-formed prefix is indexed, an unusable
    /// tail counts one invalidation and is dropped.
    pub fn open(dir: &Path, mode: CacheMode) -> Result<Store, StoreError> {
        if !mode.reads() {
            return Ok(Store::disabled());
        }
        if mode.writes() {
            std::fs::create_dir_all(dir).map_err(|e| StoreError {
                path: dir.display().to_string(),
                message: format!("cannot create cache directory: {e}"),
            })?;
        }
        let path = dir.join(STORE_FILE);
        let mut store = Store::disabled();
        store.mode = mode;
        store.path = Some(path.clone());
        // Missing file: an empty cache. Any other open failure (perm
        // denied, I/O error) also degrades to empty — a cache must
        // never turn a readable workload into a failure.
        if let Ok(file) = File::open(&path) {
            let (index, valid_len, torn) = walk(&file);
            store.flush_lock = Mutex::new(valid_len);
            store.disk = RwLock::new(Disk {
                file: Some(file),
                index,
            });
            if torn {
                store.note_invalidation();
            }
        }
        Ok(store)
    }

    /// The mode this store was opened with.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Whether lookups can ever hit (i.e. the mode is not `Off`).
    pub fn is_enabled(&self) -> bool {
        self.mode.reads()
    }

    /// Looks up one artifact. Counts a hit or a miss (and `bytes_read` on
    /// hits) both locally and in the obs metrics registry. A record that
    /// fails its checksum (or can no longer be read) is a miss plus one
    /// invalidation.
    pub fn get(&self, kind: u8, key: &ContentHash) -> Option<Vec<u8>> {
        if !self.mode.reads() {
            return None;
        }
        let k = (kind, *key);
        // `flush` holds `pending` until the index has the flushed
        // records, so a put that is no longer pending is already indexed.
        let pending = self.pending.lock().unwrap().get(&k).cloned();
        let found = match pending {
            Some(p) => Some(p.as_ref().clone()),
            None => {
                let disk = self.disk.read().unwrap();
                let loc = disk.index.get(&k).copied();
                let read = loc.and_then(|loc| disk.read(loc));
                drop(disk);
                if loc.is_some() && read.is_none() {
                    self.note_invalidation();
                }
                read
            }
        };
        match found {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                seal_obs::metrics::counter_add("cache.hits", 1);
                seal_obs::metrics::counter_add("cache.bytes_read", payload.len() as u64);
                Some(payload)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                seal_obs::metrics::counter_add("cache.misses", 1);
                None
            }
        }
    }

    /// Buffers one artifact for the next [`Store::flush`]. A no-op unless
    /// the mode writes. Immediately visible to subsequent `get`s.
    pub fn put(&self, kind: u8, key: ContentHash, payload: Vec<u8>) {
        if !self.mode.writes() {
            return;
        }
        self.pending
            .lock()
            .unwrap()
            .insert((kind, key), Arc::new(payload));
    }

    /// Records that a cached artifact existed but could not be used (its
    /// payload failed to decode). The caller falls back to recomputing.
    pub fn note_invalidation(&self) {
        self.note_invalidations(1);
    }

    fn note_invalidations(&self, n: u64) {
        if n > 0 {
            self.invalidations.fetch_add(n, Ordering::Relaxed);
            seal_obs::metrics::counter_add("cache.invalidations", n);
        }
    }

    /// Checksums every indexed record against the file and returns how
    /// many fail, counting each as an invalidation. This reads every
    /// payload once, so only `seal stats` calls it; lookups check their
    /// own record anyway.
    pub fn verify(&self) -> u64 {
        let disk = self.disk.read().unwrap();
        let bad = disk
            .index
            .values()
            .filter(|&&loc| disk.read(loc).is_none())
            .count() as u64;
        drop(disk);
        self.note_invalidations(bad);
        bad
    }

    fn io_err(path: &Path) -> impl Fn(std::io::Error) -> StoreError + '_ {
        move |e| StoreError {
            path: path.display().to_string(),
            message: format!("cannot write store file: {e}"),
        }
    }

    /// Appends all pending puts to the store file, truncating any corrupt
    /// tail first, then indexes the new records so later lookups read them
    /// back from the file. Entries are written sorted by `(kind, key)`, so
    /// the resulting bytes are independent of put order (and thread
    /// count). On an I/O error the puts stay pending.
    pub fn flush(&self) -> Result<(), StoreError> {
        if !self.mode.writes() {
            return Ok(());
        }
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut valid_len = self.flush_lock.lock().unwrap();
        let mut pending = self.pending.lock().unwrap();
        if pending.is_empty() {
            return Ok(());
        }
        let mut entries: Vec<_> = pending.iter().collect();
        entries.sort_unstable_by_key(|&(&k, _)| k);

        // A fresh file (or one whose header was unusable) is rewritten
        // from its header; otherwise records go after the valid prefix.
        let fresh = *valid_len < HEADER_LEN as u64;
        let mut bytes = Vec::new();
        if fresh {
            bytes.extend_from_slice(&file_header());
        }
        let base = if fresh { 0 } else { *valid_len };
        let mut locs = Vec::with_capacity(entries.len());
        for &(&k, payload) in &entries {
            let (len, sum) = (payload.len() as u32, fnv64(payload));
            bytes.extend_from_slice(&record_header(k, len, sum));
            let off = base + bytes.len() as u64;
            locs.push((k, Loc { off, len, sum }));
            bytes.extend_from_slice(payload);
        }

        let io_err = Self::io_err(path);
        let new_file = if fresh {
            let f = create_rw(path).map_err(&io_err)?;
            (&f).write_all(&bytes).map_err(&io_err)?;
            Some(f)
        } else {
            let f = OpenOptions::new().write(true).open(path).map_err(&io_err)?;
            // Drop the corrupt tail (if any) before appending.
            f.set_len(*valid_len).map_err(&io_err)?;
            f.write_all_at(&bytes, *valid_len).map_err(&io_err)?;
            None
        };
        *valid_len = base + bytes.len() as u64;

        let mut disk = self.disk.write().unwrap();
        if new_file.is_some() {
            disk.file = new_file;
        }
        disk.index.extend(locs);
        drop(disk);
        pending.clear();
        Ok(())
    }

    /// Rewrites the *entire* store — every indexed record plus everything
    /// pending — into a temp file and installs it with a `rename`, so a
    /// crash mid-write leaves either the old complete file or the new
    /// complete file, never a torn one. Records stream one at a time,
    /// sorted by `(kind, key)` with pending puts winning, so the resulting
    /// bytes are deterministic. A disk record that fails its checksum is
    /// dropped (one invalidation) rather than copied under a checksum of
    /// corrupt bytes. This is the daemon's shutdown path (`seal serve` on
    /// EOF or `{"cmd":"shutdown"}`); the incremental [`Store::flush`]
    /// remains the cheap per-command path.
    pub fn flush_atomic(&self) -> Result<(), StoreError> {
        if !self.mode.writes() {
            return Ok(());
        }
        let Some(path) = &self.path else {
            return Ok(());
        };
        let io_err = Self::io_err(path);
        let mut valid_len = self.flush_lock.lock().unwrap();
        let mut pending = self.pending.lock().unwrap();
        let disk = self.disk.read().unwrap();
        let mut keys: Vec<Key> = disk.index.keys().chain(pending.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();

        let tmp = path.with_extension("bin.tmp");
        let f = create_rw(&tmp).map_err(&io_err)?;
        let mut w = BufWriter::new(&f);
        w.write_all(&file_header()).map_err(&io_err)?;
        let mut pos = HEADER_LEN as u64;
        let mut index = HashMap::with_capacity(keys.len());
        let mut dropped = 0;
        for k in keys {
            let (payload, sum): (Cow<[u8]>, u64) = match pending.get(&k) {
                Some(p) => (Cow::Borrowed(p), fnv64(p)),
                None => {
                    let loc = disk.index[&k];
                    match disk.read(loc) {
                        Some(p) => (Cow::Owned(p), loc.sum),
                        None => {
                            dropped += 1;
                            continue;
                        }
                    }
                }
            };
            let len = payload.len() as u32;
            w.write_all(&record_header(k, len, sum))
                .and_then(|_| w.write_all(&payload))
                .map_err(&io_err)?;
            pos += REC_HEADER_LEN as u64;
            index.insert(k, Loc { off: pos, len, sum });
            pos += len as u64;
        }
        w.flush().map_err(&io_err)?;
        drop(w);
        f.sync_all().map_err(&io_err)?;
        drop(disk);
        std::fs::rename(&tmp, path).map_err(&io_err)?;
        *valid_len = pos;
        *self.disk.write().unwrap() = Disk {
            file: Some(f),
            index,
        };
        pending.clear();
        drop(pending);
        self.note_invalidations(dropped);
        Ok(())
    }

    /// Counter snapshot for this store lifetime.
    pub fn stats(&self) -> StoreStats {
        // One lock per statement: holding `disk` while taking `pending`
        // would invert the order `flush` takes them in.
        let pending_puts = self.pending.lock().unwrap().len() as u64;
        let disk_entries = self.disk.read().unwrap().index.len() as u64;
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            disk_entries,
            pending_puts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seal-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn key(b: u8) -> ContentHash {
        ContentHash([b; 16])
    }

    #[test]
    fn put_flush_reopen_get_round_trips() {
        let dir = tmpdir("roundtrip");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"alpha".to_vec());
        s.put(2, key(1), b"beta".to_vec()); // same key, different kind
                                            // Visible before flush.
        assert_eq!(s.get(1, &key(1)).unwrap(), b"alpha");
        s.flush().unwrap();
        // And still after flush (read back from the file).
        assert_eq!(s.get(2, &key(1)).unwrap(), b"beta");

        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s2.get(1, &key(1)).unwrap(), b"alpha");
        assert_eq!(s2.get(2, &key(1)).unwrap(), b"beta");
        assert!(s2.get(1, &key(9)).is_none());
        let st = s2.stats();
        assert_eq!((st.hits, st.misses, st.disk_entries), (2, 1, 2));
        assert_eq!(st.bytes_read, 9);
        assert!((st.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn re_put_same_key_updates_on_reopen() {
        let dir = tmpdir("update");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"old".to_vec());
        s.flush().unwrap();
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"new".to_vec());
        s.flush().unwrap();
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.get(1, &key(1)).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let dir = tmpdir("truncate");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"first-record".to_vec());
        s.put(1, key(2), b"second-record".to_vec());
        s.flush().unwrap();
        let file = dir.join(STORE_FILE);
        let bytes = std::fs::read(&file).unwrap();
        // Chop mid-way through the last record's payload.
        std::fs::write(&file, &bytes[..bytes.len() - 5]).unwrap();

        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        let st = s.stats();
        assert_eq!(st.invalidations, 1);
        assert_eq!(st.disk_entries, 1);
        assert!(s.get(1, &key(1)).is_some());
        assert!(s.get(1, &key(2)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_drops_the_poisoned_tail_without_panicking() {
        let dir = tmpdir("bitflip");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"aaaaaaaaaaaaaaaa".to_vec());
        s.put(1, key(2), b"bbbbbbbbbbbbbbbb".to_vec());
        s.flush().unwrap();
        let file = dir.join(STORE_FILE);
        let mut bytes = std::fs::read(&file).unwrap();
        // Flip a bit in every position in turn; open must never panic, and
        // any payload it still serves for our keys must be the exact bytes
        // originally stored under them (the checksum + key address make a
        // silently-altered payload impossible).
        let expect: [(&ContentHash, &[u8]); 2] = [
            (&key(1), b"aaaaaaaaaaaaaaaa"),
            (&key(2), b"bbbbbbbbbbbbbbbb"),
        ];
        for pos in 0..bytes.len() {
            bytes[pos] ^= 0x10;
            std::fs::write(&file, &bytes).unwrap();
            let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
            for (k, want) in expect {
                if let Some(p) = s.get(1, k) {
                    assert_eq!(p, want, "flip at byte {pos} altered a served payload");
                }
            }
            bytes[pos] ^= 0x10;
        }
        std::fs::write(&file, &bytes).unwrap();
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.stats().disk_entries, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Interleave incremental and atomic flushes (plus puts) from several
    /// threads. The flush lock must keep every append behind a consistent
    /// `valid_len` watermark, so the final file reopens cleanly — zero
    /// invalidations — with every payload byte-exact.
    #[test]
    fn concurrent_flush_and_flush_atomic_leave_a_clean_reloadable_file() {
        let dir = tmpdir("concflush");
        let s = std::sync::Arc::new(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let threads = 8;
        let rounds = 25usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..rounds {
                        let b = ((t * rounds + i) % 251) as u8;
                        s.put(1, key(b), vec![b; 16 + b as usize]);
                        if (t + i) % 3 == 0 {
                            s.flush_atomic().unwrap();
                        } else {
                            s.flush().unwrap();
                        }
                    }
                });
            }
        });
        s.flush_atomic().unwrap();

        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        let st = s2.stats();
        assert_eq!(st.invalidations, 0, "interleaved flushes tore the file");
        for t in 0..threads {
            for i in 0..rounds {
                let b = ((t * rounds + i) % 251) as u8;
                assert_eq!(s2.get(1, &key(b)).unwrap(), vec![b; 16 + b as usize]);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `seal serve` answers `stats` while other connections put and flush.
    /// `stats` must take its locks in an order no flush can invert, so a
    /// deadlock here fails the test by timeout instead of hanging it.
    #[test]
    fn stats_runs_concurrently_with_puts_and_flushes() {
        use std::sync::mpsc;
        use std::time::Duration;
        let dir = tmpdir("statsconc");
        let s = Arc::new(Store::open(&dir, CacheMode::ReadWrite).unwrap());
        let (done, finished) = mpsc::channel();
        let workers = 3;
        for t in 0..workers {
            let (s, done) = (Arc::clone(&s), done.clone());
            std::thread::spawn(move || {
                for i in 0..2000usize {
                    let b = ((t * 7 + i) % 251) as u8;
                    s.put(1, key(b), vec![b; 8]);
                    if i % 50 == 0 {
                        s.flush_atomic().unwrap();
                    } else {
                        s.flush().unwrap();
                    }
                }
                done.send(()).unwrap();
            });
        }
        let (s2, done2) = (Arc::clone(&s), done.clone());
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                let st = s2.stats();
                assert!(st.disk_entries <= 251);
            }
            done2.send(()).unwrap();
        });
        drop(done);
        for _ in 0..=workers {
            finished
                .recv_timeout(Duration::from_secs(60))
                .expect("stats deadlocked against a concurrent flush");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_version_is_one_invalidation_and_an_empty_cache() {
        let dir = tmpdir("version");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"payload".to_vec());
        s.flush().unwrap();
        let file = dir.join(STORE_FILE);
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[8] = 0xFF; // version field
        std::fs::write(&file, &bytes).unwrap();

        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        assert_eq!(s.stats().invalidations, 1);
        assert_eq!(s.stats().disk_entries, 0);
        assert!(s.get(1, &key(1)).is_none());
        // A flush after the wipe rewrites a clean file.
        s.put(1, key(3), b"fresh".to_vec());
        s.flush().unwrap();
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.stats().invalidations, 0);
        assert_eq!(s.get(1, &key(3)).unwrap(), b"fresh");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_never_writes_and_off_is_inert() {
        let dir = tmpdir("modes");
        let ro = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        ro.put(1, key(1), b"x".to_vec());
        ro.flush().unwrap();
        assert!(!dir.join(STORE_FILE).exists());

        let off = Store::open(&dir, CacheMode::Off).unwrap();
        off.put(1, key(1), b"x".to_vec());
        assert!(off.get(1, &key(1)).is_none());
        assert_eq!(off.stats(), StoreStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_is_idempotent_and_deterministic() {
        let dir = tmpdir("idem");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(3, key(9), b"z".to_vec());
        s.put(1, key(1), b"a".to_vec());
        s.flush().unwrap();
        let once = std::fs::read(dir.join(STORE_FILE)).unwrap();
        s.flush().unwrap(); // nothing pending: must not duplicate records
        let twice = std::fs::read(dir.join(STORE_FILE)).unwrap();
        assert_eq!(once, twice);

        // Same puts in the opposite order produce the same bytes.
        let dir2 = tmpdir("idem2");
        let s2 = Store::open(&dir2, CacheMode::ReadWrite).unwrap();
        s2.put(1, key(1), b"a".to_vec());
        s2.put(3, key(9), b"z".to_vec());
        s2.flush().unwrap();
        assert_eq!(once, std::fs::read(dir2.join(STORE_FILE)).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn flush_atomic_round_trips_and_composes_with_flush() {
        let dir = tmpdir("atomic");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"alpha".to_vec());
        s.flush().unwrap(); // one incremental append first
        s.put(1, key(2), b"beta".to_vec());
        s.flush_atomic().unwrap();
        // No temp file left behind; both records survive a reopen.
        assert!(!dir.join("seal-store.v1.bin.tmp").exists());
        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s2.stats().invalidations, 0);
        assert_eq!(s2.get(1, &key(1)).unwrap(), b"alpha");
        assert_eq!(s2.get(1, &key(2)).unwrap(), b"beta");

        // An incremental flush *after* the rewrite must append past the
        // new image, not truncate it back to the pre-rewrite watermark.
        s.put(1, key(3), b"gamma".to_vec());
        s.flush().unwrap();
        let s3 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s3.stats().invalidations, 0);
        assert_eq!(s3.stats().disk_entries, 3);
        assert_eq!(s3.get(1, &key(3)).unwrap(), b"gamma");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_atomic_is_deterministic_and_idempotent() {
        let dir = tmpdir("atomic-det");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(3, key(9), b"z".to_vec());
        s.put(1, key(1), b"a".to_vec());
        s.flush_atomic().unwrap();
        let once = std::fs::read(dir.join(STORE_FILE)).unwrap();
        s.flush_atomic().unwrap(); // nothing new: byte-identical image
        assert_eq!(once, std::fs::read(dir.join(STORE_FILE)).unwrap());

        let dir2 = tmpdir("atomic-det2");
        let s2 = Store::open(&dir2, CacheMode::ReadWrite).unwrap();
        s2.put(1, key(1), b"a".to_vec());
        s2.put(3, key(9), b"z".to_vec());
        s2.flush_atomic().unwrap();
        assert_eq!(once, std::fs::read(dir2.join(STORE_FILE)).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn two_incremental_flushes_keep_earlier_appends() {
        let dir = tmpdir("twoflush");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"first".to_vec());
        s.flush().unwrap();
        s.put(1, key(2), b"second".to_vec());
        s.flush().unwrap();
        let s2 = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s2.stats().disk_entries, 2);
        assert_eq!(s2.get(1, &key(1)).unwrap(), b"first");
        assert_eq!(s2.get(1, &key(2)).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Byte offset of the first occurrence of `needle` in the store file.
    fn offset_of(file: &Path, needle: &[u8]) -> usize {
        let bytes = std::fs::read(file).unwrap();
        bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap()
    }

    /// XORs one byte of `file` in place, through a handle of its own.
    fn flip_byte(file: &Path, at: usize) {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(file)
            .unwrap();
        let mut b = [0u8];
        f.read_exact_at(&mut b, at as u64).unwrap();
        f.write_all_at(&[b[0] ^ 0x01], at as u64).unwrap();
    }

    fn three_records(dir: &Path) {
        let s = Store::open(dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"first-payload".to_vec());
        s.put(1, key(2), b"middle-payload".to_vec());
        s.put(1, key(3), b"last-payload".to_vec());
        s.flush().unwrap();
    }

    #[test]
    fn a_bad_checksum_costs_only_its_own_record() {
        let dir = tmpdir("midflip");
        three_records(&dir);
        let file = dir.join(STORE_FILE);
        flip_byte(&file, offset_of(&file, b"middle-payload") + 3);

        // Open reads headers only: nothing is wrong with them.
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.stats().invalidations, 0);
        assert_eq!(s.stats().disk_entries, 3);
        assert!(s.get(1, &key(2)).is_none());
        assert_eq!(s.stats().invalidations, 1);
        assert_eq!(s.stats().misses, 1);
        // The records before and after it are still served byte-exact.
        assert_eq!(s.get(1, &key(1)).unwrap(), b"first-payload");
        assert_eq!(s.get(1, &key(3)).unwrap(), b"last-payload");
        assert_eq!(s.stats().invalidations, 1);

        // `verify` finds the same record without a lookup.
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.verify(), 1);
        assert_eq!(s.stats().invalidations, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flushed_records_are_read_back_from_the_file() {
        let dir = tmpdir("readback");
        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(1), b"flushed-payload".to_vec());
        s.flush().unwrap();
        assert_eq!((s.stats().disk_entries, s.stats().pending_puts), (1, 0));
        assert_eq!(s.get(1, &key(1)).unwrap(), b"flushed-payload");

        // No copy stays in memory: corrupting the file is seen at once.
        let file = dir.join(STORE_FILE);
        flip_byte(&file, offset_of(&file, b"flushed-payload"));
        assert!(s.get(1, &key(1)).is_none());
        assert_eq!(s.stats().invalidations, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_atomic_drops_a_corrupt_record_instead_of_copying_it() {
        let dir = tmpdir("atomic-corrupt");
        three_records(&dir);
        let file = dir.join(STORE_FILE);
        flip_byte(&file, offset_of(&file, b"middle-payload"));

        let s = Store::open(&dir, CacheMode::ReadWrite).unwrap();
        s.put(1, key(4), b"pending-payload".to_vec());
        s.flush_atomic().unwrap();
        assert_eq!(s.stats().invalidations, 1);
        assert_eq!(s.get(1, &key(4)).unwrap(), b"pending-payload");

        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        assert_eq!(s.verify(), 0);
        assert_eq!(s.stats().disk_entries, 3);
        assert!(s.get(1, &key(2)).is_none());
        assert_eq!(s.get(1, &key(1)).unwrap(), b"first-payload");
        assert_eq!(s.get(1, &key(3)).unwrap(), b"last-payload");
        assert_eq!(s.get(1, &key(4)).unwrap(), b"pending-payload");
        assert_eq!(s.stats().invalidations, 0, "the corrupt key came back");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_file_truncated_under_an_open_store_is_a_miss() {
        let dir = tmpdir("shrink");
        three_records(&dir);
        let s = Store::open(&dir, CacheMode::ReadOnly).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(STORE_FILE))
            .unwrap()
            .set_len(HEADER_LEN as u64 + 4)
            .unwrap();
        assert!(s.get(1, &key(3)).is_none());
        assert_eq!(s.stats().invalidations, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_mode_parsing() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse("ro"), Some(CacheMode::ReadOnly));
        assert_eq!(CacheMode::parse("rw"), Some(CacheMode::ReadWrite));
        assert_eq!(CacheMode::parse("RW"), None);
        assert_eq!(CacheMode::parse(""), None);
        assert_eq!(CacheMode::ReadWrite.to_string(), "rw");
    }
}
