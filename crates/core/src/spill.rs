//! Disk spill for the bounded-memory scale tier.
//!
//! When the working set of a scaled run approaches a `--max-rss-mb`
//! budget, per-shard inputs — compiled target chunks (the modules PDGs
//! are built from) and inferred specification sets — are serialized with
//! the PR-7 binary codecs ([`seal_ir::codec`], [`seal_spec::binary`]) to
//! files in a spill directory and dropped from memory, then reloaded
//! *sequentially* during detection so at most one chunk is resident at a
//! time.
//!
//! Spill files are integrity-checked on the way back in: a magic tag, a
//! length, and an FNV-64 content checksum frame every payload. Any
//! mismatch — truncation, bit flips, garbage — surfaces as a typed
//! [`SealError::Store`] so the caller can degrade to recomputing the
//! chunk from its seed instead of trusting bad bytes (never a panic, and
//! never silently wrong reports).
//!
//! Session counters are mirrored into the metrics registry as
//! `spill.writes` / `spill.reads` / `spill.bytes_written` /
//! `spill.bytes_read` (nondeterministic class: whether a budget trips
//! depends on host RSS, not on the input).

use crate::error::SealError;
use seal_ir::Module;
use seal_spec::Specification;
use seal_store::fnv64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame magic for spill files (version-tagged like the store's).
const SPILL_MAGIC: &[u8; 8] = b"SEALSPL1";

/// Fraction of the RSS budget at which spilling engages: leaving headroom
/// means the budget caps the peak instead of chasing it.
const SPILL_HEADROOM_PCT: u64 = 80;

fn store_err(path: &Path, message: impl Into<String>) -> SealError {
    SealError::Store(seal_store::StoreError {
        path: path.display().to_string(),
        message: message.into(),
    })
}

/// A KiB-valued field of `/proc/self/status` (`"VmRSS"` for the current
/// resident set, `"VmHWM"` for its peak), or `None` when the platform has
/// no procfs.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// An RSS budget that decides *when* to spill.
///
/// `None` never spills; `Some(0)` always spills (the pure-streaming
/// discipline, and the deterministic setting for tests and benches);
/// `Some(mb)` spills once `VmRSS` crosses [`SPILL_HEADROOM_PCT`]% of the
/// budget — and keeps spilling while it stays there. On platforms without
/// procfs a finite budget conservatively spills (bounded memory is the
/// contract; slower is acceptable, unbounded is not).
#[derive(Debug, Clone, Copy)]
pub struct SpillBudget {
    max_rss_kb: Option<u64>,
}

impl SpillBudget {
    /// A budget from a `--max-rss-mb` style knob.
    pub fn from_mb(mb: Option<u64>) -> SpillBudget {
        SpillBudget {
            max_rss_kb: mb.map(|m| m * 1024),
        }
    }

    /// A budget that never spills.
    pub fn unlimited() -> SpillBudget {
        SpillBudget { max_rss_kb: None }
    }

    /// Whether a finite budget was configured.
    pub fn is_bounded(&self) -> bool {
        self.max_rss_kb.is_some()
    }

    /// Whether the next sizable allocation should go to disk instead.
    pub fn should_spill(&self) -> bool {
        match self.max_rss_kb {
            None => false,
            Some(0) => true,
            Some(kb) => match proc_status_kb("VmRSS") {
                Some(now) => now * 100 >= kb * SPILL_HEADROOM_PCT,
                None => true,
            },
        }
    }
}

/// Handle to one spilled payload.
#[derive(Debug, Clone)]
pub struct SpillHandle {
    path: PathBuf,
    /// Payload bytes (excluding the frame header).
    bytes: u64,
}

impl SpillHandle {
    /// The spill file's path (tests corrupt it through this).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Session counters for one spill directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Payloads written.
    pub writes: u64,
    /// Payloads read back successfully.
    pub reads: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Payload bytes read back.
    pub bytes_read: u64,
}

/// A directory of integrity-framed spill files.
///
/// Thread-safe for reads; writes take `&mut self` (the scale pipeline
/// spills from its sequential fold, so this costs nothing).
#[derive(Debug)]
pub struct SpillDir {
    dir: PathBuf,
    seq: u64,
    writes: AtomicU64,
    reads: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl SpillDir {
    /// Creates (or reuses) `dir` as a spill directory.
    pub fn create(dir: &Path) -> Result<SpillDir, SealError> {
        std::fs::create_dir_all(dir).map_err(|e| store_err(dir, format!("create: {e}")))?;
        Ok(SpillDir {
            dir: dir.to_path_buf(),
            seq: 0,
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// The directory spill files live in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Counters so far.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Writes one framed payload; `label` becomes part of the file name.
    pub fn write(&mut self, label: &str, payload: &[u8]) -> Result<SpillHandle, SealError> {
        let path = self.dir.join(format!("{:06}-{label}.spill", self.seq));
        self.seq += 1;
        let mut framed = Vec::with_capacity(payload.len() + 24);
        framed.extend_from_slice(SPILL_MAGIC);
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&fnv64(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        std::fs::write(&path, &framed).map_err(|e| store_err(&path, format!("write: {e}")))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        seal_obs::metrics::counter_add_nd("spill.writes", 1);
        seal_obs::metrics::counter_add_nd("spill.bytes_written", payload.len() as u64);
        Ok(SpillHandle {
            path,
            bytes: payload.len() as u64,
        })
    }

    /// Reads a payload back, verifying magic, length, and checksum.
    pub fn read(&self, h: &SpillHandle) -> Result<Vec<u8>, SealError> {
        let framed =
            std::fs::read(&h.path).map_err(|e| store_err(&h.path, format!("read: {e}")))?;
        if framed.len() < 24 || &framed[..8] != SPILL_MAGIC {
            return Err(store_err(
                &h.path,
                "spill file truncated or not a spill file",
            ));
        }
        let len = u64::from_le_bytes(framed[8..16].try_into().unwrap());
        let sum = u64::from_le_bytes(framed[16..24].try_into().unwrap());
        let payload = &framed[24..];
        if payload.len() as u64 != len || len != h.bytes {
            return Err(store_err(
                &h.path,
                format!(
                    "spill length mismatch: framed {len}, have {}",
                    payload.len()
                ),
            ));
        }
        if fnv64(payload) != sum {
            return Err(store_err(&h.path, "spill checksum mismatch"));
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        seal_obs::metrics::counter_add_nd("spill.reads", 1);
        seal_obs::metrics::counter_add_nd("spill.bytes_read", payload.len() as u64);
        Ok(payload.to_vec())
    }

    /// Spills a compiled module (a detection shard's PDG input).
    pub fn spill_module(&mut self, label: &str, m: &Module) -> Result<SpillHandle, SealError> {
        self.write(label, &seal_ir::codec::encode_module(m))
    }

    /// Loads a spilled module; decode failures are store errors too (the
    /// bytes round-tripped the frame but do not parse — same degradation
    /// path as a failed checksum).
    pub fn load_module(&self, h: &SpillHandle) -> Result<Module, SealError> {
        let bytes = self.read(h)?;
        seal_ir::codec::decode_module(&bytes)
            .map_err(|e| store_err(&h.path, format!("module decode: {e:?}")))
    }

    /// Spills a specification set.
    pub fn spill_specs(
        &mut self,
        label: &str,
        specs: &[Specification],
    ) -> Result<SpillHandle, SealError> {
        self.write(label, &seal_spec::binary::encode_specs(specs))
    }

    /// Loads a spilled specification set.
    pub fn load_specs(&self, h: &SpillHandle) -> Result<Vec<Specification>, SealError> {
        let bytes = self.read(h)?;
        seal_spec::binary::decode_specs(&bytes)
            .map_err(|e| store_err(&h.path, format!("specs decode: {e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Stage;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("seal-spill-{tag}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_payloads() {
        let dir = tmp("roundtrip");
        let mut s = SpillDir::create(&dir).unwrap();
        let h = s.write("chunk", b"hello spill").unwrap();
        assert_eq!(s.read(&h).unwrap(), b"hello spill");
        let st = s.stats();
        assert_eq!((st.writes, st.reads), (1, 1));
        assert_eq!(st.bytes_written, 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_a_typed_store_error() {
        let dir = tmp("corrupt");
        let mut s = SpillDir::create(&dir).unwrap();
        let h = s.write("chunk", b"payload-bytes-here").unwrap();

        // Bit flip inside the payload.
        let mut bytes = std::fs::read(h.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(h.path(), &bytes).unwrap();
        let err = s.read(&h).unwrap_err();
        assert_eq!(err.stage(), Stage::Store);

        // Truncation.
        std::fs::write(h.path(), &bytes[..10]).unwrap();
        assert_eq!(s.read(&h).unwrap_err().stage(), Stage::Store);

        // Garbage.
        std::fs::write(h.path(), b"GARBAGE-NOT-A-SPILL").unwrap();
        assert_eq!(s.read(&h).unwrap_err().stage(), Stage::Store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn specs_round_trip_through_codec() {
        let dir = tmp("specs");
        let mut s = SpillDir::create(&dir).unwrap();
        let h = s.spill_specs("segment", &[]).unwrap();
        assert!(s.load_specs(&h).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_semantics() {
        assert!(!SpillBudget::unlimited().should_spill());
        assert!(!SpillBudget::from_mb(None).is_bounded());
        // Zero budget is the always-spill discipline.
        assert!(SpillBudget::from_mb(Some(0)).should_spill());
        // A huge budget does not trip on a test process.
        assert!(!SpillBudget::from_mb(Some(1 << 20)).should_spill());
        // proc_status_kb works on Linux CI (tolerate absence elsewhere).
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(proc_status_kb("VmRSS").unwrap() > 0);
            assert!(proc_status_kb("VmHWM").unwrap() > 0);
            assert!(proc_status_kb("VmNoSuchField").is_none());
        }
    }
}
