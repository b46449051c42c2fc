//! Content-addressed, crash-consistent artifact store with service
//! warm-start.
//!
//! An [`ArtifactStore`] is a plain directory. Each artifact lives in a
//! file named by its content fingerprint — `<16-hex-digits>.bmfsnap` —
//! so equal snapshots land in the same file and the store deduplicates
//! by construction. An append-only `index.tsv` records, one line per
//! [`put`](ArtifactStore::put), the sequence number, artifact id, job
//! id (tab-separated, with tabs/newlines/backslashes in job ids
//! escaped), and a per-line FNV-1a checksum over the first three
//! fields, preserving publication order for
//! [`warm_start`](ArtifactStore::warm_start).
//!
//! # Crash consistency
//!
//! Every byte moves through a [`Vfs`] handle, and every mutation
//! follows a write-ahead discipline whose fsync ordering is part of the
//! protocol (and exhaustively tested by crashing at every single VFS
//! operation index — see `tests/crash_points.rs`):
//!
//! 1. the artifact blob is written to a deterministic `.tmp` name,
//!    fsynced, renamed into place, and the directory fsynced;
//! 2. the full index line (checksum included) is written to an
//!    `index.intent` file and fsynced — the write-ahead intent;
//! 3. the line is appended to `index.tsv` and fsynced — **this is the
//!    commit point**;
//! 4. the intent file is removed.
//!
//! [`open`](ArtifactStore::open) runs recovery before anything else:
//! leftover `.tmp` files are swept, a torn index tail (the only kind of
//! index damage a crash can cause — the per-line checksum makes a torn
//! prefix unmistakable) is truncated away, and a leftover intent is
//! resolved — rolled forward when its blob is durable, rolled back
//! otherwise. [`compact`](ArtifactStore::compact) rewrites the index
//! through the same tmp → fsync → rename → dir-fsync corridor, so a
//! crash at *any* point leaves either the old or the new index, never a
//! mix; blob garbage-collection runs strictly after the rewrite is
//! durable, so an interrupted GC leaves only fsck-detectable orphans.
//!
//! Nothing in the layout depends on time, randomness, or iteration
//! order: the same sequence of `put` calls produces byte-identical
//! files and an identical index, wherever and whenever it runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use bmf_core::service::FitService;
use bmf_core::snapshot::ModelSnapshot;
use bmf_stat::backoff::Backoff;
use bmf_stat::fnv::fnv1a;
use bmf_stat::rng::derive_seed;

use crate::artifact::{artifact_fingerprint, decode_snapshot, encode_snapshot};
use crate::vfs::{RealVfs, Vfs};
use crate::{PersistError, Result};

/// Parsed blob files (id + file name, sorted) alongside foreign file
/// names fsck should report; see [`ArtifactStore::list_blobs`].
pub(crate) type BlobListing = (Vec<(ArtifactId, String)>, Vec<String>);

/// File extension of stored artifacts.
pub const ARTIFACT_EXT: &str = "bmfsnap";

/// Name of the append-only index file inside a store directory.
pub const INDEX_FILE: &str = "index.tsv";

/// Name of the write-ahead intent file inside a store directory.
pub const INTENT_FILE: &str = "index.intent";

/// A content address: the FNV-1a fingerprint from an artifact header,
/// rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactId(u64);

impl ArtifactId {
    /// Wraps a raw fingerprint.
    pub fn new(fingerprint: u64) -> Self {
        ArtifactId(fingerprint)
    }

    /// The raw fingerprint value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for ArtifactId {
    type Err = PersistError;

    fn from_str(s: &str) -> Result<Self> {
        if s.len() != 16 {
            return Err(PersistError::Corrupt {
                offset: 0,
                detail: format!("artifact id `{s}` is not 16 hex digits"),
            });
        }
        u64::from_str_radix(s, 16)
            .map(ArtifactId)
            .map_err(|_| PersistError::Corrupt {
                offset: 0,
                detail: format!("artifact id `{s}` is not 16 hex digits"),
            })
    }
}

/// One line of the store index: the `seq`-th `put` published artifact
/// `id` under `job_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Zero-based publication sequence number.
    pub seq: u64,
    /// Content address of the published artifact.
    pub id: ArtifactId,
    /// Job id the snapshot was published under.
    pub job_id: String,
}

/// Aggregate store shape, as reported by
/// [`stats`](ArtifactStore::stats) and carried in every fsck report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of artifact blobs on disk.
    pub blobs: usize,
    /// Total bytes across all artifact blobs.
    pub blob_bytes: u64,
    /// Number of index entries (publications).
    pub index_entries: usize,
    /// Blobs no index entry references (e.g. left by an interrupted
    /// compaction GC); fsck repair removes them.
    pub orphan_blobs: usize,
}

/// What [`compact`](ArtifactStore::compact) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Index entries surviving compaction (one per live job id).
    pub entries_kept: usize,
    /// Superseded publications dropped from the index.
    pub entries_dropped: usize,
    /// Unreferenced blobs garbage-collected.
    pub blobs_removed: usize,
}

/// What [`warm_start_with_retry`](ArtifactStore::warm_start_with_retry)
/// did, including the deterministic retry accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStartReport {
    /// Snapshots imported into the service.
    pub imported: usize,
    /// Transient I/O failures retried away.
    pub retries: u64,
    /// Total virtual backoff delay accrued, in nanoseconds.
    pub backoff_ns: u64,
}

/// A content-addressed directory of snapshot artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root` on the real
    /// filesystem, running crash recovery first.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created or
    /// recovery I/O fails; [`PersistError::Corrupt`] when the index is
    /// damaged beyond what a crash can explain (anything but a torn
    /// tail).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(root, Arc::new(RealVfs))
    }

    /// Opens a store over an explicit [`Vfs`] backend (the chaos
    /// harness injects faults here), running crash recovery first.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Result<Self> {
        let store = ArtifactStore {
            root: root.into(),
            vfs,
        };
        let root_s = store.root_str();
        store
            .vfs
            .create_dir_all(&root_s)
            .map_err(|e| io_err(&root_s, &e))?;
        store.recover()?;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Publishes a snapshot: encodes it, writes the artifact under its
    /// content address (skipped when the identical content is already
    /// stored), and commits an index line through the write-ahead
    /// intent protocol. Returns the artifact id.
    ///
    /// # Errors
    ///
    /// [`PersistError::Model`] when the snapshot fails validation,
    /// [`PersistError::Io`] on filesystem failures. After an I/O error
    /// the store on disk is still valid: re-opening it runs recovery,
    /// which rolls the interrupted publication forward or back.
    pub fn put(&self, snapshot: &ModelSnapshot) -> Result<ArtifactId> {
        let bytes = encode_snapshot(snapshot)?;
        let id = ArtifactId(artifact_fingerprint(&bytes)?);
        let blob = self.blob_path(id);
        let root = self.root_str();
        if !self.vfs.exists(&blob).map_err(|e| io_err(&blob, &e))? {
            // Deterministic temp name: content-addressed, so two
            // writers racing on the same id write identical bytes.
            let tmp = format!("{blob}.tmp");
            self.vfs.write(&tmp, &bytes).map_err(|e| io_err(&tmp, &e))?;
            self.vfs.sync_file(&tmp).map_err(|e| io_err(&tmp, &e))?;
            self.vfs
                .rename(&tmp, &blob)
                .map_err(|e| io_err(&blob, &e))?;
            self.vfs.sync_dir(&root).map_err(|e| io_err(&root, &e))?;
        }
        let seq = self.index()?.len() as u64;
        let line = format_index_line(seq, id, &snapshot.job_id);
        // Write-ahead intent: the exact line, durable before the index
        // append, so recovery can finish (or cleanly abandon) the
        // publication from either side of the commit point.
        let intent = self.rpath(INTENT_FILE);
        self.vfs
            .write(&intent, line.as_bytes())
            .map_err(|e| io_err(&intent, &e))?;
        self.vfs
            .sync_file(&intent)
            .map_err(|e| io_err(&intent, &e))?;
        self.vfs.sync_dir(&root).map_err(|e| io_err(&root, &e))?;
        // Commit point: the synced index append.
        let index = self.rpath(INDEX_FILE);
        self.vfs
            .append(&index, line.as_bytes())
            .map_err(|e| io_err(&index, &e))?;
        self.vfs.sync_file(&index).map_err(|e| io_err(&index, &e))?;
        self.vfs.sync_dir(&root).map_err(|e| io_err(&root, &e))?;
        self.vfs.remove(&intent).map_err(|e| io_err(&intent, &e))?;
        Ok(id)
    }

    /// Loads and fully verifies the artifact stored under `id`:
    /// magic, version, payload length, content fingerprint, the
    /// fingerprint-vs-requested-id match, and the model-level screens.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the artifact file is missing or
    /// unreadable; [`PersistError::FingerprintMismatch`] when the file's
    /// content does not hash to `id`; the [`decode_snapshot`] conditions
    /// otherwise.
    pub fn get(&self, id: ArtifactId) -> Result<ModelSnapshot> {
        let path = self.blob_path(id);
        let bytes = self.vfs.read(&path).map_err(|e| io_err(&path, &e))?;
        let actual = artifact_fingerprint(&bytes)?;
        if actual != id.value() {
            return Err(PersistError::FingerprintMismatch {
                expected: id.value(),
                actual,
            });
        }
        decode_snapshot(&bytes)
    }

    /// `true` when an artifact file for `id` exists (without verifying
    /// its content — [`get`](Self::get) does that).
    pub fn contains(&self, id: ArtifactId) -> bool {
        self.vfs.exists(&self.blob_path(id)).unwrap_or(false)
    }

    /// The path an artifact with this id is (or would be) stored at.
    pub fn artifact_path(&self, id: ArtifactId) -> PathBuf {
        self.root.join(format!("{id}.{ARTIFACT_EXT}"))
    }

    /// Reads the index: every publication, in sequence order. An absent
    /// index file is an empty store.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the index exists but cannot be read;
    /// [`PersistError::Corrupt`] for malformed index lines (recovery at
    /// [`open`](Self::open) repairs torn tails, so a corrupt line here
    /// means damage a crash cannot explain).
    pub fn index(&self) -> Result<Vec<IndexEntry>> {
        let path = self.rpath(INDEX_FILE);
        let raw = match self.vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&path, &e)),
        };
        let text = String::from_utf8(raw).map_err(|e| PersistError::Corrupt {
            offset: e.utf8_error().valid_up_to(),
            detail: "index is not valid UTF-8".into(),
        })?;
        let mut entries = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let entry = parse_index_line(entries.len(), line)?;
            if entry.seq != entries.len() as u64 {
                return Err(PersistError::Corrupt {
                    offset: entries.len(),
                    detail: format!(
                        "index line {}: sequence number {} out of order",
                        entries.len(),
                        entry.seq
                    ),
                });
            }
            entries.push(entry);
        }
        Ok(entries)
    }

    /// Aggregate store shape: blob count and bytes, index entries, and
    /// orphan blobs (referenced by no entry).
    ///
    /// # Errors
    ///
    /// Propagates [`index`](Self::index) and listing failures.
    pub fn stats(&self) -> Result<StoreStats> {
        let entries = self.index()?;
        let referenced: BTreeSet<u64> = entries.iter().map(|e| e.id.value()).collect();
        let (blobs, _foreign) = self.list_blobs()?;
        let mut stats = StoreStats {
            index_entries: entries.len(),
            ..StoreStats::default()
        };
        for (id, name) in &blobs {
            let path = self.rpath(name);
            stats.blobs += 1;
            stats.blob_bytes += self.vfs.len(&path).map_err(|e| io_err(&path, &e))?;
            if !referenced.contains(&id.value()) {
                stats.orphan_blobs += 1;
            }
        }
        Ok(stats)
    }

    /// Compacts the store: keeps only the newest publication per job
    /// id, renumbers sequence numbers from zero, rewrites the index
    /// crash-safely (tmp → fsync → rename → dir-fsync), and then
    /// garbage-collects unreferenced blobs.
    ///
    /// A crash at *any* point leaves a valid store: before the rename
    /// commits, the old index is intact; after it, the new one is, and
    /// an interrupted GC leaves only orphan blobs that
    /// [`repair`](Self::repair) (or the next compaction) removes.
    ///
    /// # Errors
    ///
    /// Propagates index and filesystem failures.
    pub fn compact(&self) -> Result<CompactReport> {
        let entries = self.index()?;
        let mut newest: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            newest.insert(e.job_id.as_str(), i);
        }
        let mut kept = Vec::with_capacity(newest.len());
        for (i, e) in entries.iter().enumerate() {
            if newest.get(e.job_id.as_str()) == Some(&i) {
                kept.push(IndexEntry {
                    seq: kept.len() as u64,
                    id: e.id,
                    job_id: e.job_id.clone(),
                });
            }
        }
        let dropped = entries.len() - kept.len();
        self.rewrite_index(&kept)?;
        // GC strictly after the new index is durable: a crash here
        // leaves orphans, never a dangling entry.
        let referenced: BTreeSet<u64> = kept.iter().map(|e| e.id.value()).collect();
        let (blobs, _foreign) = self.list_blobs()?;
        let mut removed = 0;
        for (id, _name) in &blobs {
            if !referenced.contains(&id.value()) {
                self.remove_blob(*id)?;
                removed += 1;
            }
        }
        let root = self.root_str();
        self.vfs.sync_dir(&root).map_err(|e| io_err(&root, &e))?;
        Ok(CompactReport {
            entries_kept: kept.len(),
            entries_dropped: dropped,
            blobs_removed: removed,
        })
    }

    /// Warm-starts a service from the store: loads every indexed
    /// artifact in publication order and imports it, so the newest
    /// publication of a job id wins, exactly as it would have in the
    /// exporting service's registry. Returns the number of imports.
    ///
    /// # Errors
    ///
    /// Propagates [`get`](Self::get) and
    /// [`FitService::import_snapshot`] failures.
    pub fn warm_start(&self, service: &FitService) -> Result<usize> {
        let mut imported = 0;
        for entry in self.index()? {
            let snapshot = self.get(entry.id)?;
            service
                .import_snapshot(snapshot)
                .map_err(PersistError::Model)?;
            imported += 1;
        }
        Ok(imported)
    }

    /// [`warm_start`](Self::warm_start) with seeded
    /// retry-and-exponential-backoff around every store read: transient
    /// [`PersistError::Io`] failures (the kind a fault-injecting
    /// [`Vfs`] produces) are retried on a [`Backoff`] schedule, with
    /// jitter drawn deterministically from `seed` (one derived stream
    /// per index entry), and the accrued *virtual* backoff reported — no
    /// real time passes.
    ///
    /// # Errors
    ///
    /// The final [`PersistError::Io`] once an entry exhausts its
    /// retries; non-transient failures (corruption, fingerprint or
    /// model errors) are never retried and surface immediately.
    pub fn warm_start_with_retry(
        &self,
        service: &FitService,
        seed: u64,
    ) -> Result<WarmStartReport> {
        let mut report = WarmStartReport::default();
        // The index read gets its own retry stream, labelled past any
        // possible entry sequence number.
        let entries = retrying(derive_seed(seed, u64::MAX), &mut report, || self.index())?;
        for entry in entries {
            let snapshot = retrying(derive_seed(seed, entry.seq), &mut report, || {
                self.get(entry.id)
            })?;
            service
                .import_snapshot(snapshot)
                .map_err(PersistError::Model)?;
            report.imported += 1;
        }
        Ok(report)
    }

    /// Publishes every model a service currently holds, in sorted
    /// job-id order (the [`FitService::job_ids`] order), and returns
    /// the artifact ids in that same order.
    ///
    /// # Errors
    ///
    /// Propagates [`FitService::export_model`] and
    /// [`put`](Self::put) failures.
    pub fn export_service(&self, service: &FitService) -> Result<Vec<ArtifactId>> {
        let job_ids = service.job_ids();
        let mut ids = Vec::with_capacity(job_ids.len());
        for job_id in job_ids {
            let snapshot = service.export_model(&job_id).map_err(PersistError::Model)?;
            ids.push(self.put(&snapshot)?);
        }
        Ok(ids)
    }

    // ---- internals -----------------------------------------------------

    pub(crate) fn vfs(&self) -> &dyn Vfs {
        self.vfs.as_ref()
    }

    pub(crate) fn root_str(&self) -> String {
        self.root.display().to_string()
    }

    pub(crate) fn rpath(&self, name: &str) -> String {
        format!("{}/{name}", self.root.display())
    }

    pub(crate) fn blob_path(&self, id: ArtifactId) -> String {
        self.rpath(&format!("{id}.{ARTIFACT_EXT}"))
    }

    /// Blob file names (sorted) with their parsed ids; non-artifact
    /// names are returned separately so fsck can report them.
    pub(crate) fn list_blobs(&self) -> Result<BlobListing> {
        let root = self.root_str();
        let names = self.vfs.list(&root).map_err(|e| io_err(&root, &e))?;
        let mut blobs = Vec::new();
        let mut foreign = Vec::new();
        for name in names {
            if name == INDEX_FILE || name == INTENT_FILE {
                continue;
            }
            match name
                .strip_suffix(&format!(".{ARTIFACT_EXT}"))
                .and_then(|stem| ArtifactId::from_str(stem).ok())
            {
                Some(id) => blobs.push((id, name)),
                None => foreign.push(name),
            }
        }
        Ok((blobs, foreign))
    }

    /// Rewrites the whole index crash-safely: tmp write → fsync →
    /// rename over `index.tsv` → directory fsync. Entries are written
    /// as given; callers renumber `seq` first.
    pub(crate) fn rewrite_index(&self, entries: &[IndexEntry]) -> Result<()> {
        let index = self.rpath(INDEX_FILE);
        let tmp = format!("{index}.tmp");
        let root = self.root_str();
        let mut text = String::new();
        for e in entries {
            text.push_str(&format_index_line(e.seq, e.id, &e.job_id));
        }
        self.vfs
            .write(&tmp, text.as_bytes())
            .map_err(|e| io_err(&tmp, &e))?;
        self.vfs.sync_file(&tmp).map_err(|e| io_err(&tmp, &e))?;
        self.vfs
            .rename(&tmp, &index)
            .map_err(|e| io_err(&index, &e))?;
        self.vfs.sync_dir(&root).map_err(|e| io_err(&root, &e))?;
        Ok(())
    }

    /// Removes the blob for `id` (fsck repair / compaction GC).
    pub(crate) fn remove_blob(&self, id: ArtifactId) -> Result<()> {
        let path = self.blob_path(id);
        self.vfs.remove(&path).map_err(|e| io_err(&path, &e))
    }

    /// Crash recovery, run by [`open_with`](Self::open_with): sweeps
    /// `.tmp` files, truncates a torn index tail, and resolves a
    /// leftover write-ahead intent. Idempotent, and itself crash-safe —
    /// re-opening after a crash mid-recovery just recovers again.
    fn recover(&self) -> Result<()> {
        let root = self.root_str();
        let names = self.vfs.list(&root).map_err(|e| io_err(&root, &e))?;
        for name in &names {
            if name.ends_with(".tmp") {
                let p = self.rpath(name);
                self.vfs.remove(&p).map_err(|e| io_err(&p, &e))?;
            }
        }
        let entries = self.repair_index_tail()?;
        self.resolve_intent(&entries)?;
        // One directory sync covers every removal above.
        self.vfs.sync_dir(&root).map_err(|e| io_err(&root, &e))?;
        Ok(())
    }

    /// Validates the index, truncating a torn tail (the only damage an
    /// append-crash can cause). Returns the valid entries.
    fn repair_index_tail(&self) -> Result<Vec<IndexEntry>> {
        let index = self.rpath(INDEX_FILE);
        let raw = match self.vfs.read(&index) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&index, &e)),
        };
        let mut entries: Vec<IndexEntry> = Vec::new();
        let mut pos = 0usize;
        let mut torn_at = None;
        while pos < raw.len() {
            let (line_bytes, next, terminated) = match raw[pos..].iter().position(|&b| b == b'\n') {
                Some(i) => (&raw[pos..pos + i], pos + i + 1, true),
                None => (&raw[pos..], raw.len(), false),
            };
            let parsed = std::str::from_utf8(line_bytes)
                .ok()
                .and_then(|s| parse_index_line(entries.len(), s).ok())
                .filter(|e| e.seq == entries.len() as u64);
            match parsed {
                Some(e) if terminated => {
                    entries.push(e);
                    pos = next;
                }
                Some(e) => {
                    // Valid but unterminated: the tear landed exactly on
                    // the newline. Keep the entry, rewrite below.
                    entries.push(e);
                    torn_at = Some(raw.len());
                    pos = next;
                }
                None if !terminated => {
                    // An unterminated invalid fragment at EOF: a torn
                    // append. Drop it.
                    torn_at = Some(pos);
                    pos = next;
                }
                None => {
                    // A *terminated* invalid line cannot come from a
                    // crash (appends tear only the tail): real damage.
                    return Err(PersistError::Corrupt {
                        offset: entries.len(),
                        detail: format!(
                            "index line {} is invalid mid-file; \
                             not crash damage — refusing to repair",
                            entries.len()
                        ),
                    });
                }
            }
        }
        if torn_at.is_some() {
            self.rewrite_index(&entries)?;
        }
        Ok(entries)
    }

    /// Resolves a leftover write-ahead intent against the (repaired)
    /// index: already committed → drop it; blob durable → roll the
    /// publication forward; blob lost → roll back.
    fn resolve_intent(&self, entries: &[IndexEntry]) -> Result<()> {
        let intent = self.rpath(INTENT_FILE);
        let raw = match self.vfs.read(&intent) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(io_err(&intent, &e)),
        };
        let parsed = std::str::from_utf8(&raw)
            .ok()
            .map(|s| s.trim_end_matches('\n'))
            .and_then(|s| parse_index_line(0, s).ok());
        if let Some(e) = parsed {
            let committed = entries
                .last()
                .is_some_and(|last| last.id == e.id && last.job_id == e.job_id);
            if !committed && self.contains(e.id) {
                // The blob survived but the index append never
                // committed: finish the publication (roll forward)
                // with a recomputed sequence number.
                let seq = entries.len() as u64;
                let line = format_index_line(seq, e.id, &e.job_id);
                let index = self.rpath(INDEX_FILE);
                let root = self.root_str();
                self.vfs
                    .append(&index, line.as_bytes())
                    .map_err(|er| io_err(&index, &er))?;
                self.vfs
                    .sync_file(&index)
                    .map_err(|er| io_err(&index, &er))?;
                self.vfs.sync_dir(&root).map_err(|er| io_err(&root, &er))?;
            }
            // committed, or the blob is gone: nothing to replay.
        }
        // A torn intent (checksum fails) is an abandoned write: drop it.
        self.vfs.remove(&intent).map_err(|e| io_err(&intent, &e))?;
        Ok(())
    }
}

/// Runs `op`, retrying transient [`PersistError::Io`] failures on a
/// [`Backoff`] schedule seeded by `seed`, with virtual-time backoff;
/// accounting lands in `report`.
fn retrying<T>(
    seed: u64,
    report: &mut WarmStartReport,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut backoff = Backoff::new(seed);
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e @ PersistError::Io { .. }) => match backoff.next_delay_ns() {
                Some(delay) => {
                    report.retries += 1;
                    report.backoff_ns += delay;
                }
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

fn io_err(path: &str, e: &std::io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_string(),
        detail: e.to_string(),
    }
}

/// Formats one index line, newline-terminated:
/// `seq \t id \t escaped-job \t fnv1a-checksum-of-first-three-fields`.
/// The checksum makes any torn prefix of the line unambiguous.
pub(crate) fn format_index_line(seq: u64, id: ArtifactId, job_id: &str) -> String {
    let body = format!("{seq}\t{id}\t{}", escape_job_id(job_id));
    format!("{body}\t{:016x}\n", fnv1a(0, body.as_bytes()))
}

pub(crate) fn parse_index_line(lineno: usize, line: &str) -> Result<IndexEntry> {
    let corrupt = |detail: String| PersistError::Corrupt {
        offset: lineno,
        detail,
    };
    let Some((body, check)) = line.rsplit_once('\t') else {
        return Err(corrupt(format!(
            "index line {lineno} has no checksum field"
        )));
    };
    let check = u64::from_str_radix(check, 16)
        .map_err(|_| corrupt(format!("index line {lineno}: bad checksum `{check}`")))?;
    let actual = fnv1a(0, body.as_bytes());
    if check != actual {
        return Err(corrupt(format!(
            "index line {lineno}: checksum mismatch \
             (line says {check:016x}, fields hash to {actual:016x})"
        )));
    }
    let mut fields = body.splitn(3, '\t');
    let (Some(seq), Some(id), Some(job)) = (fields.next(), fields.next(), fields.next()) else {
        return Err(corrupt(format!(
            "index line {lineno} has fewer than 4 tab-separated fields"
        )));
    };
    let seq: u64 = seq
        .parse()
        .map_err(|_| corrupt(format!("index line {lineno}: bad sequence number `{seq}`")))?;
    let id = ArtifactId::from_str(id)
        .map_err(|_| corrupt(format!("index line {lineno}: bad artifact id `{id}`")))?;
    let job_id = unescape_job_id(job)
        .ok_or_else(|| corrupt(format!("index line {lineno}: bad job-id escape")))?;
    Ok(IndexEntry { seq, id, job_id })
}

/// Escapes a job id for one tab-separated index field.
fn escape_job_id(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_job_id`]; `None` for a dangling or unknown escape.
fn unescape_job_id(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn artifact_id_formats_and_parses() {
        let id = ArtifactId::new(0x00ab_cdef_0123_4567);
        assert_eq!(id.to_string(), "00abcdef01234567");
        assert_eq!(ArtifactId::from_str("00abcdef01234567").unwrap(), id);
        assert!(ArtifactId::from_str("xyz").is_err());
        assert!(ArtifactId::from_str("abc").is_err());
        assert!(ArtifactId::from_str("00abcdef012345670").is_err());
    }

    #[test]
    fn job_id_escaping_round_trips() {
        for raw in ["plain", "tab\tnl\nbs\\cr\r", "", "trailing\\"] {
            let escaped = escape_job_id(raw);
            assert!(!escaped.contains('\t'));
            assert!(!escaped.contains('\n'));
            assert_eq!(unescape_job_id(&escaped).as_deref(), Some(raw));
        }
        assert_eq!(unescape_job_id("dangling\\"), None);
        assert_eq!(unescape_job_id("bad\\x"), None);
    }

    #[test]
    fn index_lines_round_trip_and_reject_garbage() {
        let id = ArtifactId::new(0x00ab_cdef_0123_4567);
        let line = format_index_line(0, id, "job\twith tab");
        assert!(line.ends_with('\n'));
        let e = parse_index_line(0, line.trim_end()).unwrap();
        assert_eq!(e.seq, 0);
        assert_eq!(e.id, id);
        assert_eq!(e.job_id, "job\twith tab");
        // No checksum field at all.
        assert!(parse_index_line(1, "no tabs at all").is_err());
        // Checksum over damaged fields does not match.
        let tampered = line.trim_end().replacen('0', "1", 1);
        assert!(parse_index_line(2, &tampered).is_err());
        // A torn prefix of a valid line never parses.
        let full = line.trim_end();
        for cut in 0..full.len() {
            assert!(
                parse_index_line(0, &full[..cut]).is_err(),
                "torn prefix of length {cut} parsed as valid"
            );
        }
    }

    #[test]
    fn checksummed_line_catches_what_splitn_could_not() {
        // The v1 format's failure mode: a torn line that still had two
        // tabs parsed as a valid entry with a truncated job id. The
        // checksum closes that hole (previous test), and a *complete*
        // hand-assembled line with a wrong checksum is also rejected.
        let id = ArtifactId::new(7);
        let body = format!("0\t{id}\tjob");
        let bad = format!("{body}\t{:016x}", fnv1a(0, b"something else"));
        assert!(parse_index_line(0, &bad).is_err());
    }

    #[test]
    fn open_with_mem_vfs_round_trips_and_recovers_nothing() {
        let vfs = std::sync::Arc::new(MemVfs::new());
        let store = ArtifactStore::open_with("mem/store", vfs.clone()).unwrap();
        assert!(store.index().unwrap().is_empty());
        assert_eq!(store.stats().unwrap(), StoreStats::default());
        // Re-open is idempotent.
        let again = ArtifactStore::open_with("mem/store", vfs).unwrap();
        assert!(again.index().unwrap().is_empty());
    }
}
