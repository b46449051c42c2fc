//! Store integrity checking and repair.
//!
//! [`ArtifactStore::check`] walks a store and reports every structural
//! issue without touching a byte; [`ArtifactStore::repair`] removes what
//! cannot be salvaged and rewrites the index crash-safely, leaving a
//! store that checks clean. Both are deterministic: issues are discovered and
//! reported in sorted order, so the same store state yields the same
//! report, byte for byte, anywhere.
//!
//! The issues fsck can see are exactly the residues crash recovery and
//! compaction are allowed to leave behind (plus external damage):
//!
//! * **orphan blobs** — artifacts no index entry references, e.g. from
//!   a compaction GC interrupted after the index rewrite committed;
//! * **dangling entries** — index lines whose artifact file is gone
//!   (external deletion; the put protocol never commits an entry before
//!   its blob is durable);
//! * **corrupt blobs** — artifact files whose content no longer matches
//!   their name or fails structural verification (bit rot, tampering);
//! * **foreign files** — names in the store directory that are neither
//!   the index, the intent file, nor a well-formed artifact. Reported,
//!   never removed: fsck does not own them.

use std::collections::BTreeSet;

use crate::store::{ArtifactId, ArtifactStore, IndexEntry, StoreStats};
use crate::Result;

/// One structural problem found by [`ArtifactStore::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreIssue {
    /// An artifact file no index entry references.
    OrphanBlob {
        /// Content address of the unreferenced artifact.
        id: ArtifactId,
        /// Its size in bytes.
        bytes: u64,
    },
    /// An index entry whose artifact file is missing.
    DanglingEntry {
        /// Sequence number of the dangling publication.
        seq: u64,
        /// Content address the entry points at.
        id: ArtifactId,
        /// Job id it was published under.
        job_id: String,
    },
    /// An artifact file that fails content verification.
    CorruptBlob {
        /// Content address the file is stored under.
        id: ArtifactId,
        /// What went wrong, rendered.
        detail: String,
    },
    /// A file in the store directory fsck does not recognise. Reported
    /// only; repair never touches it.
    ForeignFile {
        /// The unrecognised file name.
        name: String,
    },
}

/// The result of a read-only integrity pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCheck {
    /// Every issue found, in deterministic order: orphans (by id), then
    /// dangling entries (by seq), then corrupt blobs (by id), then
    /// foreign files (by name).
    pub issues: Vec<StoreIssue>,
    /// Aggregate store shape at check time.
    pub stats: StoreStats,
}

impl StoreCheck {
    /// `true` when the store has no structural issues at all.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// What [`ArtifactStore::repair`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The issues found before repairing (the
    /// [`check`](ArtifactStore::check) view).
    pub found: Vec<StoreIssue>,
    /// Orphan and corrupt blobs removed.
    pub removed_blobs: usize,
    /// Dangling (or corrupt-target) index entries dropped.
    pub dropped_entries: usize,
    /// Aggregate store shape *after* repair.
    pub stats: StoreStats,
}

impl ArtifactStore {
    /// Checks the store without modifying it; see the
    /// [module docs](self).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`](crate::PersistError::Io) when listing or
    /// reading fails; index corruption surfaces as
    /// [`PersistError::Corrupt`](crate::PersistError::Corrupt) (recovery
    /// at open repairs crash damage, so that means external damage).
    pub fn check(&self) -> Result<StoreCheck> {
        let entries = self.index()?;
        let (blobs, foreign) = self.list_blobs()?;
        let referenced: BTreeSet<u64> = entries.iter().map(|e| e.id.value()).collect();
        let present: BTreeSet<u64> = blobs.iter().map(|(id, _)| id.value()).collect();

        let mut stats = StoreStats {
            index_entries: entries.len(),
            ..StoreStats::default()
        };
        let mut orphans = Vec::new();
        let mut corrupt = Vec::new();
        for (id, name) in &blobs {
            let path = self.rpath(name);
            let bytes = self.vfs().len(&path).map_err(|e| crate::PersistError::Io {
                path: path.clone(),
                detail: e.to_string(),
            })?;
            stats.blobs += 1;
            stats.blob_bytes += bytes;
            if !referenced.contains(&id.value()) {
                stats.orphan_blobs += 1;
                orphans.push(StoreIssue::OrphanBlob { id: *id, bytes });
            }
            if let Err(e) = self.get(*id) {
                corrupt.push(StoreIssue::CorruptBlob {
                    id: *id,
                    detail: e.to_string(),
                });
            }
        }
        let dangling: Vec<StoreIssue> = entries
            .iter()
            .filter(|e| !present.contains(&e.id.value()))
            .map(|e| StoreIssue::DanglingEntry {
                seq: e.seq,
                id: e.id,
                job_id: e.job_id.clone(),
            })
            .collect();

        let mut issues = orphans;
        issues.extend(dangling);
        issues.extend(corrupt);
        issues.extend(
            foreign
                .into_iter()
                .map(|name| StoreIssue::ForeignFile { name }),
        );
        Ok(StoreCheck { issues, stats })
    }

    /// Repairs the store in place: removes orphan and corrupt blobs,
    /// drops index entries whose artifact is missing or corrupt, and
    /// rewrites the index through the crash-safe corridor (a crash
    /// mid-repair leaves a valid store; re-open and repair again).
    /// Foreign files are reported but never touched.
    ///
    /// # Errors
    ///
    /// As [`check`](Self::check), plus write failures during the repair
    /// itself.
    pub fn repair(&self) -> Result<RepairReport> {
        let found = self.check()?;
        let mut removed_blobs = 0;
        let mut bad_blobs: BTreeSet<u64> = BTreeSet::new();
        for issue in &found.issues {
            match issue {
                StoreIssue::OrphanBlob { id, .. } | StoreIssue::CorruptBlob { id, .. }
                    if bad_blobs.insert(id.value()) =>
                {
                    self.remove_blob(*id)?;
                    removed_blobs += 1;
                }
                _ => {}
            }
        }
        // Keep only entries whose artifact is present and verified; then
        // renumber and rewrite through the crash-safe corridor.
        let entries = self.index()?;
        let mut kept: Vec<IndexEntry> = Vec::new();
        let mut dropped = 0usize;
        for e in entries {
            let gone = bad_blobs.contains(&e.id.value()) || !self.contains(e.id);
            if gone {
                dropped += 1;
            } else {
                kept.push(IndexEntry {
                    seq: kept.len() as u64,
                    id: e.id,
                    job_id: e.job_id,
                });
            }
        }
        if dropped > 0 || removed_blobs > 0 {
            self.rewrite_index(&kept)?;
        }
        let stats = self.stats()?;
        Ok(RepairReport {
            found: found.issues,
            removed_blobs,
            dropped_entries: dropped,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{MemVfs, Vfs};
    use std::sync::Arc;

    #[test]
    fn empty_store_checks_clean() {
        let vfs = Arc::new(MemVfs::new());
        let store = ArtifactStore::open_with("m/s", vfs).unwrap();
        let report = store.check().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.stats, StoreStats::default());
    }

    #[test]
    fn foreign_files_are_reported_never_removed() {
        let vfs = Arc::new(MemVfs::new());
        let store = ArtifactStore::open_with("m/s", Arc::clone(&vfs) as _).unwrap();
        vfs.write("m/s/notes.txt", b"human file").unwrap();
        let report = store.check().unwrap();
        assert_eq!(
            report.issues,
            vec![StoreIssue::ForeignFile {
                name: "notes.txt".into()
            }]
        );
        let repaired = store.repair().unwrap();
        assert_eq!(repaired.removed_blobs, 0);
        assert_eq!(repaired.dropped_entries, 0);
        assert_eq!(vfs.read("m/s/notes.txt").unwrap(), b"human file");
    }
}
