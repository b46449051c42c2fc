//! Fault injection for the persistence layer: every truncation, every
//! single-bit flip, and every kind of on-disk tampering must yield a
//! structured [`PersistError`] — never a panic, never a silently wrong
//! snapshot.

use std::path::PathBuf;

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::hyper::CvOutcome;
use bmf_core::model::PerformanceModel;
use bmf_core::prior::PriorKind;
use bmf_core::snapshot::ModelSnapshot;
use bmf_persist::artifact::{decode_snapshot, encode_snapshot, HEADER_LEN};
use bmf_persist::store::ArtifactStore;
use bmf_persist::PersistError;
use bmf_stat::faults::FaultInjector;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("corruption")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A snapshot exercising every payload section: multi-degree terms,
/// selection records on both branches, a degraded resilience report.
fn snapshot() -> ModelSnapshot {
    let basis = OrthonormalBasis::total_degree(3, 2, 64);
    let coeffs: Vec<f64> = (0..basis.len()).map(|i| (i as f64 * 0.3).sin()).collect();
    let model = PerformanceModel::new(basis, coeffs).unwrap();
    let mut snap = ModelSnapshot::from_model("corrupt-me", model);
    snap.prior_kind = PriorKind::NonZeroMean;
    snap.selection.zero_mean = Some(CvOutcome {
        best_hyper: 1.0,
        best_error: 0.5,
        errors: vec![(0.5, 0.6), (1.0, 0.5)],
    });
    snap.selection.nonzero_mean = Some(CvOutcome {
        best_hyper: 0.5,
        best_error: 0.25,
        errors: vec![(0.5, 0.25), (1.0, 0.3)],
    });
    snap.resilience.degraded_solves = 1;
    snap.resilience.max_rung = 2;
    snap
}

#[test]
fn every_truncation_is_a_structured_error() {
    let bytes = encode_snapshot(&snapshot()).unwrap();
    for cut in 0..bytes.len() {
        match decode_snapshot(&bytes[..cut]) {
            Err(
                PersistError::Corrupt { .. }
                | PersistError::FingerprintMismatch { .. }
                | PersistError::UnsupportedVersion { .. },
            ) => {}
            Err(other) => panic!("prefix {cut}: unexpected error kind {other}"),
            Ok(_) => panic!("prefix {cut}: truncated artifact decoded successfully"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    let bytes = encode_snapshot(&snapshot()).unwrap();
    let original = decode_snapshot(&bytes).unwrap();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut tampered = bytes.clone();
            tampered[byte] ^= 1 << bit;
            match decode_snapshot(&tampered) {
                Err(_) => {}
                Ok(decoded) => panic!(
                    "flip of byte {byte} bit {bit} decoded silently \
                     (equal to original: {})",
                    decoded == original
                ),
            }
        }
    }
}

#[test]
fn payload_damage_is_a_fingerprint_mismatch() {
    let bytes = encode_snapshot(&snapshot()).unwrap();
    let mut tampered = bytes;
    tampered[HEADER_LEN + 2] ^= 0x10;
    assert!(matches!(
        decode_snapshot(&tampered),
        Err(PersistError::FingerprintMismatch { .. })
    ));
}

#[test]
fn store_detects_on_disk_tampering() {
    let store = ArtifactStore::open(scratch("tamper")).unwrap();
    let snap = snapshot();
    let id = store.put(&snap).unwrap();
    let path = store.artifact_path(id);
    let mut inject = FaultInjector::new(0xC0_44_0E);

    // Flip one seeded bit on disk.
    let mut bytes = std::fs::read(&path).unwrap();
    inject.flip_bit(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    assert!(store.get(id).is_err());

    // Truncate the file on disk at a seeded cut.
    inject.truncate_bytes(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    assert!(store.get(id).is_err());

    // Replace with a valid artifact of *different* content: the id
    // check must catch the swap even though the file is self-consistent.
    let mut other = snapshot();
    other.job_id = "impostor".to_string();
    let other_bytes = encode_snapshot(&other).unwrap();
    std::fs::write(&path, &other_bytes).unwrap();
    assert!(matches!(
        store.get(id),
        Err(PersistError::FingerprintMismatch { .. })
    ));
}

#[test]
fn seeded_byte_corruption_never_decodes() {
    // The exhaustive loops above cover single-bit damage; this sweep
    // drives the shared `FaultInjector` byte helpers (the same ones the
    // chaos harness uses) across seeds, piling up arbitrary byte edits
    // until the artifact is unrecognisable — every step must stay a
    // structured error.
    let bytes = encode_snapshot(&snapshot()).unwrap();
    for seed in 0..64 {
        let mut inject = FaultInjector::new(seed);
        let mut tampered = bytes.clone();
        for _ in 0..4 {
            inject.corrupt_byte(&mut tampered);
            match decode_snapshot(&tampered) {
                Ok(_) => panic!("seed {seed}: corrupted artifact decoded"),
                Err(
                    PersistError::Corrupt { .. }
                    | PersistError::FingerprintMismatch { .. }
                    | PersistError::UnsupportedVersion { .. },
                ) => {}
                Err(other) => panic!("seed {seed}: unexpected error kind {other}"),
            }
        }
    }
}

#[test]
fn corrupt_index_lines_are_structured_errors() {
    let store = ArtifactStore::open(scratch("index")).unwrap();
    store.put(&snapshot()).unwrap();
    let index_path = store.root().join("index.tsv");
    let mut text = std::fs::read_to_string(&index_path).unwrap();
    text.push_str("not a real line\n");
    std::fs::write(&index_path, text).unwrap();
    assert!(matches!(store.index(), Err(PersistError::Corrupt { .. })));
}

#[test]
fn errors_route_through_the_bmf_ladder() {
    let bytes = encode_snapshot(&snapshot()).unwrap();
    let err = decode_snapshot(&bytes[..10]).unwrap_err();
    let routed = bmf_core::BmfError::from(err);
    assert!(matches!(routed, bmf_core::BmfError::Snapshot { .. }));
    assert!(routed.to_string().contains("invalid model snapshot"));
}
