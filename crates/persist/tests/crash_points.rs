//! Crash-point exhaustion for the store's write-ahead protocol.
//!
//! A scripted workload — open, three puts (one superseding an earlier
//! job), compaction, warm-start — runs over a [`FaultVfs`] that crashes
//! at operation index `c`, for **every** `c` in the script. After each
//! crash the surviving [`MemVfs`] disk is re-opened (recovery runs),
//! and the store must be valid: every acknowledged publication still
//! resolves (modulo supersession by a newer publication of the same
//! job), fsck reports clean after repair, and the entire post-recovery
//! disk state is byte-deterministic — the same crash index always
//! yields the same bytes.

use std::sync::Arc;

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::model::PerformanceModel;
use bmf_core::service::{FitService, ServiceConfig};
use bmf_core::snapshot::ModelSnapshot;
use bmf_persist::store::{ArtifactId, ArtifactStore};
use bmf_persist::vfs::{FaultPlan, FaultVfs, MemVfs, Vfs};

const ROOT: &str = "store";

fn snap(job: &str, salt: f64) -> ModelSnapshot {
    let basis = OrthonormalBasis::linear(3);
    let coeffs: Vec<f64> = (0..basis.len())
        .map(|i| ((i as f64 + salt) * 0.37).sin())
        .collect();
    let model = PerformanceModel::new(basis, coeffs).unwrap();
    ModelSnapshot::from_model(job, model)
}

/// The publication script: job `alpha` is published twice (the second
/// supersedes), `beta` once, then the store is compacted and a service
/// warm-started. Returns which puts were acknowledged (returned `Ok`)
/// and whether compaction was.
fn scripted_run(vfs: Arc<dyn Vfs>) -> (Vec<(ModelSnapshot, ArtifactId)>, bool) {
    let attempts = [snap("alpha", 0.0), snap("beta", 5.0), snap("alpha", 9.0)];
    let mut acked = Vec::new();
    let Ok(store) = ArtifactStore::open_with(ROOT, vfs) else {
        return (acked, false);
    };
    for s in attempts {
        if let Ok(id) = store.put(&s) {
            acked.push((s, id));
        }
    }
    let compacted = store.compact().is_ok();
    let service = FitService::new(ServiceConfig::default()).unwrap();
    let _ = store.warm_start(&service);
    (acked, compacted)
}

/// Byte dump of the whole disk, for determinism comparison.
/// Every file on a disk with its bytes, in path order.
type DiskDigest = Vec<(String, Vec<u8>)>;

fn disk_digest(disk: &MemVfs) -> DiskDigest {
    disk.paths()
        .into_iter()
        .map(|p| {
            let bytes = disk.read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

/// Runs the script crashing at op `c`; returns the acknowledged puts,
/// whether compaction acked, and the post-recovery disk digest.
fn crash_scenario(c: u64) -> (Vec<(ModelSnapshot, ArtifactId)>, bool, DiskDigest) {
    let disk = Arc::new(MemVfs::new());
    let faulty = Arc::new(FaultVfs::new(
        Arc::clone(&disk),
        FaultPlan {
            seed: 0xC4A5,
            crash_at_op: Some(c),
            ..FaultPlan::default()
        },
    ));
    let (acked, compacted) = scripted_run(faulty as Arc<dyn Vfs>);

    // Reboot: recovery runs inside open_with, on the raw disk.
    let store = ArtifactStore::open_with(ROOT, Arc::clone(&disk) as Arc<dyn Vfs>)
        .unwrap_or_else(|e| panic!("crash at op {c}: store did not re-open: {e}"));
    let index = store
        .index()
        .unwrap_or_else(|e| panic!("crash at op {c}: index invalid after recovery: {e}"));

    // No lost committed artifact: the newest index entry of every job
    // with an acknowledged put must resolve to one of that job's
    // published snapshots, at or after the last acknowledged one.
    // (Supersession is legitimate: a later put of the same job — even
    // one that crashed *after* its commit point and so never returned —
    // may be rolled forward by recovery.)
    let attempts = [snap("alpha", 0.0), snap("beta", 5.0), snap("alpha", 9.0)];
    for job in ["alpha", "beta"] {
        let Some(last_acked) = acked.iter().rposition(|(s, _)| s.job_id == job) else {
            continue;
        };
        let newest = index
            .iter()
            .rev()
            .find(|e| e.job_id == job)
            .unwrap_or_else(|| panic!("crash at op {c}: acked job `{job}` missing from index"));
        let got = store
            .get(newest.id)
            .unwrap_or_else(|e| panic!("crash at op {c}: acked job `{job}` unreadable: {e}"));
        let acked_snap = &acked[last_acked].0;
        let acked_pos = attempts
            .iter()
            .position(|s| s == acked_snap)
            .expect("acked snapshot must be one of the attempts");
        let allowed: Vec<&ModelSnapshot> = attempts
            .iter()
            .enumerate()
            .filter(|(i, s)| s.job_id == job && *i >= acked_pos)
            .map(|(_, s)| s)
            .collect();
        assert!(
            allowed.iter().any(|s| **s == got),
            "crash at op {c}: job `{job}` resolves to a snapshot never published"
        );
    }

    if compacted {
        // Compaction acknowledged: exactly one entry per job survives.
        assert_eq!(
            index.len(),
            2,
            "crash at op {c}: compacted index not deduplicated"
        );
    }

    // fsck: repair whatever residue the crash left, then demand clean.
    let before = store.check().unwrap();
    if !before.is_clean() {
        store.repair().unwrap();
    }
    let after = store.check().unwrap();
    assert!(
        after.is_clean(),
        "crash at op {c}: store not clean after repair: {:?}",
        after.issues
    );

    // The newest snapshot per acked job survives even repair.
    for job in ["alpha", "beta"] {
        if acked.iter().any(|(s, _)| s.job_id == job) {
            let newest = store
                .index()
                .unwrap()
                .into_iter()
                .rev()
                .find(|e| e.job_id == job)
                .unwrap_or_else(|| panic!("crash at op {c}: repair dropped acked job `{job}`"));
            store
                .get(newest.id)
                .unwrap_or_else(|e| panic!("crash at op {c}: post-repair get failed: {e}"));
        }
    }

    (acked, compacted, disk_digest(&disk))
}

#[test]
fn every_crash_point_recovers_to_a_valid_store() {
    // Dry run with no crash to count the script's op budget.
    let disk = Arc::new(MemVfs::new());
    let faulty = Arc::new(FaultVfs::new(Arc::clone(&disk), FaultPlan::default()));
    let counter = Arc::clone(&faulty);
    let (acked, compacted) = scripted_run(faulty as Arc<dyn Vfs>);
    assert_eq!(acked.len(), 3, "fault-free run must ack every put");
    assert!(compacted, "fault-free run must ack compaction");
    let total = counter.ops();
    assert!(
        total > 40,
        "script too short ({total} ops) to exercise the protocol"
    );

    for c in 0..total {
        let (_, _, digest_a) = crash_scenario(c);
        let (_, _, digest_b) = crash_scenario(c);
        assert_eq!(
            digest_a, digest_b,
            "crash at op {c}: post-recovery disk state not deterministic"
        );
    }
}

#[test]
fn fault_free_run_ends_clean_and_deduplicated() {
    let disk = Arc::new(MemVfs::new());
    let (acked, compacted) = scripted_run(Arc::clone(&disk) as Arc<dyn Vfs>);
    assert_eq!(acked.len(), 3);
    assert!(compacted);
    let store = ArtifactStore::open_with(ROOT, Arc::clone(&disk) as Arc<dyn Vfs>).unwrap();
    let check = store.check().unwrap();
    assert!(check.is_clean(), "{:?}", check.issues);
    let stats = check.stats;
    assert_eq!(stats.index_entries, 2);
    assert_eq!(stats.blobs, 2);
    assert_eq!(stats.orphan_blobs, 0);
    // The superseding alpha snapshot is the one served.
    let newest = store
        .index()
        .unwrap()
        .into_iter()
        .rev()
        .find(|e| e.job_id == "alpha")
        .unwrap();
    assert_eq!(store.get(newest.id).unwrap(), snap("alpha", 9.0));
}
