//! A timing [`Vfs`] over the real filesystem.
//!
//! [`TimingVfs`] wraps [`RealVfs`] and is handed to
//! `ArtifactStore::open_with`, so store I/O is counted and timed from
//! outside the persistence crate: operations, their wall time and the
//! bytes written, per operation kind.

use std::io::Result as IoResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bmf_persist::vfs::{RealVfs, Vfs};

/// Operation kinds counted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Whole-file write.
    Write,
    /// Append.
    Append,
    /// Rename.
    Rename,
    /// File content fsync.
    SyncFile,
    /// Directory metadata fsync.
    SyncDir,
    /// Everything else: read, remove, exists, len, list, mkdir.
    Other,
}

const KINDS: usize = 6;

/// Totals for one operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Operations.
    pub ops: u64,
    /// Wall time, nanoseconds.
    pub ns: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// Totals for every operation kind, indexed by [`IoOp`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals(pub [OpTotals; KINDS]);

impl IoTotals {
    /// Totals of one kind.
    pub fn of(&self, op: IoOp) -> OpTotals {
        self.0[op as usize]
    }

    /// Operations of every kind.
    pub fn ops(&self) -> u64 {
        self.0.iter().map(|t| t.ops).sum()
    }

    /// Bytes written by every kind.
    pub fn bytes(&self) -> u64 {
        self.0.iter().map(|t| t.bytes).sum()
    }

    /// Difference `self - earlier`.
    pub fn since(&self, earlier: &IoTotals) -> IoTotals {
        let mut out = IoTotals::default();
        for (k, slot) in out.0.iter_mut().enumerate() {
            slot.ops = self.0[k].ops - earlier.0[k].ops;
            slot.ns = self.0[k].ns - earlier.0[k].ns;
            slot.bytes = self.0[k].bytes - earlier.0[k].bytes;
        }
        out
    }
}

/// [`RealVfs`] with per-kind counters.
#[derive(Debug, Default)]
pub struct TimingVfs {
    ops: [AtomicU64; KINDS],
    ns: [AtomicU64; KINDS],
    bytes: [AtomicU64; KINDS],
}

impl TimingVfs {
    /// A fresh adapter with zeroed counters.
    pub fn new() -> Self {
        TimingVfs::default()
    }

    /// Current totals.
    pub fn totals(&self) -> IoTotals {
        let mut out = IoTotals::default();
        for (k, slot) in out.0.iter_mut().enumerate() {
            // Relaxed: statistics only, no data is published through them.
            slot.ops = self.ops[k].load(Ordering::Relaxed);
            slot.ns = self.ns[k].load(Ordering::Relaxed);
            slot.bytes = self.bytes[k].load(Ordering::Relaxed);
        }
        out
    }

    fn timed<T>(&self, op: IoOp, bytes: usize, f: impl FnOnce() -> IoResult<T>) -> IoResult<T> {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let k = op as usize;
        self.ops[k].fetch_add(1, Ordering::Relaxed);
        self.ns[k].fetch_add(ns, Ordering::Relaxed);
        self.bytes[k].fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &str) -> IoResult<Vec<u8>> {
        self.timed(IoOp::Other, 0, || RealVfs.read(path))
    }

    fn write(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        self.timed(IoOp::Write, bytes.len(), || RealVfs.write(path, bytes))
    }

    fn append(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        self.timed(IoOp::Append, bytes.len(), || RealVfs.append(path, bytes))
    }

    fn rename(&self, from: &str, to: &str) -> IoResult<()> {
        self.timed(IoOp::Rename, 0, || RealVfs.rename(from, to))
    }

    fn remove(&self, path: &str) -> IoResult<()> {
        self.timed(IoOp::Other, 0, || RealVfs.remove(path))
    }

    fn exists(&self, path: &str) -> IoResult<bool> {
        self.timed(IoOp::Other, 0, || RealVfs.exists(path))
    }

    fn len(&self, path: &str) -> IoResult<u64> {
        self.timed(IoOp::Other, 0, || RealVfs.len(path))
    }

    fn list(&self, dir: &str) -> IoResult<Vec<String>> {
        self.timed(IoOp::Other, 0, || RealVfs.list(dir))
    }

    fn create_dir_all(&self, path: &str) -> IoResult<()> {
        self.timed(IoOp::Other, 0, || RealVfs.create_dir_all(path))
    }

    fn sync_file(&self, path: &str) -> IoResult<()> {
        self.timed(IoOp::SyncFile, 0, || RealVfs.sync_file(path))
    }

    fn sync_dir(&self, dir: &str) -> IoResult<()> {
        self.timed(IoOp::SyncDir, 0, || RealVfs.sync_dir(dir))
    }
}
