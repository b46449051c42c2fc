//! The versioned snapshot artifact format.
//!
//! An artifact is a 28-byte header followed by the canonical payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "BMFSNAP\0"
//!      8     4  format version (little-endian u32, currently 1)
//!     12     8  payload length in bytes (little-endian u64)
//!     20     8  FNV-1a fingerprint of the payload (little-endian u64)
//!     28     –  payload (canonical snapshot encoding, see below)
//! ```
//!
//! The payload encodes, in order: job id, basis (variable count, then
//! each term as its sorted `(variable, degree)` pairs), coefficient
//! bits, [`FitOptions`], prior kind, hyper-parameter, cross-validation
//! error, the full [`SelectionOutcome`], and the
//! [`ResilienceReport`]. Every
//! integer is little-endian, every f64 is its exact bit pattern, and
//! enums are single-byte tags — so encoding is injective on snapshot
//! values and `encode(decode(bytes)) == bytes` for every valid
//! artifact.
//!
//! The header fingerprint doubles as the artifact's *content address*
//! in [`ArtifactStore`](crate::store::ArtifactStore): equal snapshots
//! produce equal bytes produce equal ids.
//!
//! # Versioning policy
//!
//! The version is bumped whenever the payload layout changes; readers
//! reject any version they were not built for with
//! [`PersistError::UnsupportedVersion`] rather than guessing. Within a
//! version the encoding is frozen — adding a field is a version bump,
//! never an in-place extension.
//!
//! [`FitOptions`]: bmf_core::options::FitOptions
//! [`SelectionOutcome`]: bmf_core::select::SelectionOutcome

use bmf_basis::basis::OrthonormalBasis;
use bmf_basis::multi_index::MultiIndex;
use bmf_core::fusion::ResilienceReport;
use bmf_core::hyper::CvOutcome;
use bmf_core::map_estimate::SolverKind;
use bmf_core::model::PerformanceModel;
use bmf_core::options::FitOptions;
use bmf_core::prior::PriorKind;
use bmf_core::select::{PriorSelection, SelectionOutcome};
use bmf_core::snapshot::ModelSnapshot;
use bmf_stat::fnv::fnv1a;

use crate::codec::{Decoder, Encoder};
use crate::{PersistError, Result};

/// Leading magic bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"BMFSNAP\0";

/// The artifact format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header size: magic, version, payload length, fingerprint.
pub const HEADER_LEN: usize = 28;

/// Encodes a snapshot into artifact bytes (header + canonical payload).
///
/// The snapshot is [`validate`](ModelSnapshot::validate)d first, so
/// contaminated models (NaN coefficients, invalid options) can never
/// reach disk.
///
/// # Errors
///
/// Returns [`PersistError::Model`] when the snapshot fails validation.
pub fn encode_snapshot(snapshot: &ModelSnapshot) -> Result<Vec<u8>> {
    snapshot.validate()?;
    Ok(encode_unchecked(snapshot))
}

/// Decodes artifact bytes back into a snapshot, verifying magic,
/// version, payload length, and content fingerprint before any field is
/// parsed, and re-screening the decoded snapshot before returning it.
///
/// # Errors
///
/// * [`PersistError::Corrupt`] for truncation, bad magic, malformed
///   fields, or trailing bytes — with the byte offset.
/// * [`PersistError::UnsupportedVersion`] for an unknown format version.
/// * [`PersistError::FingerprintMismatch`] when the payload does not
///   hash to the header fingerprint (bit rot, tampering).
/// * [`PersistError::Model`] when the decoded snapshot fails the
///   model-level screens.
pub fn decode_snapshot(bytes: &[u8]) -> Result<ModelSnapshot> {
    decode_inner(bytes)
}

/// Reads and verifies an artifact's content fingerprint — its identity
/// in the store — without decoding the payload fields.
///
/// # Errors
///
/// As [`decode_snapshot`], minus the payload-field and model-level
/// conditions.
pub fn artifact_fingerprint(bytes: &[u8]) -> Result<u64> {
    let mut d = Decoder::new(bytes);
    verify_header(&mut d)
}

/// Verifies the header against the remaining bytes and returns the
/// (checked) content fingerprint, leaving `d` positioned at the start
/// of the payload.
fn verify_header(d: &mut Decoder<'_>) -> Result<u64> {
    let magic = d.take(MAGIC.len(), "artifact magic")?;
    if magic != MAGIC {
        return Err(PersistError::Corrupt {
            offset: 0,
            detail: format!("bad magic {magic:02x?}, expected {MAGIC:02x?}"),
        });
    }
    let version_at = d.offset();
    let version = d.take_u32("format version")?;
    if version != FORMAT_VERSION {
        // Rejected before a single payload byte is parsed: the error
        // names the offending version and where it sits in the file.
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
            offset: version_at,
        });
    }
    let len_at = d.offset();
    let raw_len = d.take_u64("payload length")?;
    let payload_len = usize::try_from(raw_len).map_err(|_| PersistError::Corrupt {
        offset: len_at,
        detail: format!("payload length {raw_len} does not fit in usize"),
    })?;
    let expected = d.take_u64("payload fingerprint")?;
    if d.remaining() != payload_len {
        return Err(PersistError::Corrupt {
            offset: len_at,
            detail: format!(
                "header claims {payload_len} payload bytes, {} present",
                d.remaining()
            ),
        });
    }
    let actual = fnv1a(0, d.rest());
    if actual != expected {
        return Err(PersistError::FingerprintMismatch { expected, actual });
    }
    Ok(expected)
}

/// Encodes a pre-validated snapshot (header + payload).
fn encode_unchecked(snapshot: &ModelSnapshot) -> Vec<u8> {
    let payload = encode_payload(snapshot);
    let fingerprint = fnv1a(0, &payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn encode_payload(snapshot: &ModelSnapshot) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(&snapshot.job_id);

    let basis = snapshot.model.basis();
    e.put_usize(basis.num_vars());
    e.put_usize(basis.len());
    for term in basis.terms() {
        e.put_usize(term.pairs().len());
        for &(var, deg) in term.pairs() {
            e.put_usize(var);
            e.put_u32(deg);
        }
    }

    let coeffs = snapshot.model.coeffs();
    e.put_usize(coeffs.len());
    for &c in coeffs {
        e.put_f64(c);
    }

    encode_options(&mut e, &snapshot.options);
    e.put_u8(prior_kind_tag(snapshot.prior_kind));
    e.put_f64(snapshot.hyper);
    e.put_f64(snapshot.cv_error);
    encode_selection(&mut e, &snapshot.selection);

    let r = &snapshot.resilience;
    e.put_u32(r.rung);
    e.put_f64(r.ridge);
    e.put_f64(r.rcond);
    e.put_usize(r.degraded_solves);
    e.put_u32(r.max_rung);

    e.finish()
}

fn encode_options(e: &mut Encoder, opts: &FitOptions) {
    match opts.selection {
        PriorSelection::Fixed(kind) => {
            e.put_u8(0);
            e.put_u8(prior_kind_tag(kind));
        }
        PriorSelection::Auto => e.put_u8(1),
    }
    e.put_u8(match opts.solver {
        SolverKind::Direct => 0,
        SolverKind::Fast => 1,
    });
    e.put_usize(opts.folds);
    e.put_usize(opts.grid.len());
    for &g in &opts.grid {
        e.put_f64(g);
    }
    e.put_u64(opts.seed);
    e.put_usize(opts.threads);
    e.put_f64(opts.hyper);
}

fn encode_selection(e: &mut Encoder, sel: &SelectionOutcome) {
    e.put_u8(prior_kind_tag(sel.kind));
    e.put_f64(sel.hyper);
    e.put_f64(sel.cv_error);
    encode_cv_option(e, &sel.zero_mean);
    encode_cv_option(e, &sel.nonzero_mean);
}

fn encode_cv_option(e: &mut Encoder, cv: &Option<CvOutcome>) {
    match cv {
        None => e.put_u8(0),
        Some(cv) => {
            e.put_u8(1);
            e.put_f64(cv.best_hyper);
            e.put_f64(cv.best_error);
            e.put_usize(cv.errors.len());
            for &(h, err) in &cv.errors {
                e.put_f64(h);
                e.put_f64(err);
            }
        }
    }
}

fn prior_kind_tag(kind: PriorKind) -> u8 {
    match kind {
        PriorKind::ZeroMean => 0,
        PriorKind::NonZeroMean => 1,
    }
}

fn decode_inner(bytes: &[u8]) -> Result<ModelSnapshot> {
    let mut d = Decoder::new(bytes);
    verify_header(&mut d)?;

    let job_id = d.take_str("job id")?.to_string();

    let num_vars = take_usize(&mut d, "basis variable count")?;
    let num_terms = d.take_count("basis terms", 8)?;
    let mut terms = Vec::with_capacity(num_terms);
    for _ in 0..num_terms {
        terms.push(decode_term(&mut d, num_vars)?);
    }

    let num_coeffs = d.take_count("coefficients", 8)?;
    let mut coeffs = Vec::with_capacity(num_coeffs);
    for _ in 0..num_coeffs {
        coeffs.push(d.take_f64("coefficient")?);
    }

    let options = decode_options(&mut d)?;
    let prior_kind = decode_prior_kind(&mut d, "prior kind")?;
    let hyper = d.take_f64("hyper-parameter")?;
    let cv_error = d.take_f64("cross-validation error")?;
    let selection = decode_selection(&mut d)?;

    let resilience = ResilienceReport {
        rung: d.take_u32("resilience rung")?,
        ridge: d.take_f64("resilience ridge")?,
        rcond: d.take_f64("resilience rcond")?,
        degraded_solves: take_usize(&mut d, "resilience degraded solves")?,
        max_rung: d.take_u32("resilience max rung")?,
    };
    d.expect_end("snapshot payload")?;

    // Every term variable was bounds-checked against `num_vars` in
    // decode_term, so the panicking precondition of from_terms holds.
    let basis = OrthonormalBasis::from_terms(num_vars, terms);
    let model = PerformanceModel::new(basis, coeffs).map_err(PersistError::Model)?;
    let snapshot = ModelSnapshot {
        job_id,
        model,
        options,
        prior_kind,
        hyper,
        cv_error,
        selection,
        resilience,
    };
    snapshot.validate()?;
    Ok(snapshot)
}

/// Decodes one basis term, rejecting out-of-range variables, zero
/// degrees, and non-canonical (unsorted or duplicated) pair order — the
/// canonical form is what the encoder writes, and accepting only it
/// keeps decode→encode byte-exact.
fn decode_term(d: &mut Decoder<'_>, num_vars: usize) -> Result<MultiIndex> {
    let num_pairs = d.take_count("term pairs", 12)?;
    let mut pairs = Vec::with_capacity(num_pairs);
    let mut last_var: Option<usize> = None;
    for _ in 0..num_pairs {
        let at = d.offset();
        let var = take_usize(d, "term variable")?;
        let deg = d.take_u32("term degree")?;
        if var >= num_vars {
            return Err(PersistError::Corrupt {
                offset: at,
                detail: format!("term variable {var} out of range for {num_vars} variables"),
            });
        }
        if deg == 0 {
            return Err(PersistError::Corrupt {
                offset: at,
                detail: format!("term stores a zero degree for variable {var}"),
            });
        }
        if last_var.is_some_and(|prev| prev >= var) {
            return Err(PersistError::Corrupt {
                offset: at,
                detail: format!("term pairs are not sorted/unique at variable {var}"),
            });
        }
        last_var = Some(var);
        pairs.push((var, deg));
    }
    Ok(MultiIndex::from_pairs(&pairs))
}

fn decode_options(d: &mut Decoder<'_>) -> Result<FitOptions> {
    let at = d.offset();
    let selection = match d.take_u8("prior selection tag")? {
        0 => PriorSelection::Fixed(decode_prior_kind(d, "fixed prior kind")?),
        1 => PriorSelection::Auto,
        tag => {
            return Err(PersistError::Corrupt {
                offset: at,
                detail: format!("unknown prior selection tag {tag}"),
            })
        }
    };
    let at = d.offset();
    let solver = match d.take_u8("solver tag")? {
        0 => SolverKind::Direct,
        1 => SolverKind::Fast,
        tag => {
            return Err(PersistError::Corrupt {
                offset: at,
                detail: format!("unknown solver tag {tag}"),
            })
        }
    };
    let folds = take_usize(d, "fold count")?;
    let num_grid = d.take_count("hyper-parameter grid", 8)?;
    let mut grid = Vec::with_capacity(num_grid);
    for _ in 0..num_grid {
        grid.push(d.take_f64("grid value")?);
    }
    let seed = d.take_u64("seed")?;
    let threads = take_usize(d, "thread count")?;
    let hyper = d.take_f64("fixed hyper-parameter")?;
    Ok(FitOptions {
        selection,
        solver,
        folds,
        grid,
        seed,
        threads,
        hyper,
    })
}

fn decode_selection(d: &mut Decoder<'_>) -> Result<SelectionOutcome> {
    Ok(SelectionOutcome {
        kind: decode_prior_kind(d, "selection prior kind")?,
        hyper: d.take_f64("selection hyper-parameter")?,
        cv_error: d.take_f64("selection cv error")?,
        zero_mean: decode_cv_option(d, "zero-mean cv record")?,
        nonzero_mean: decode_cv_option(d, "nonzero-mean cv record")?,
    })
}

fn decode_cv_option(d: &mut Decoder<'_>, what: &str) -> Result<Option<CvOutcome>> {
    let at = d.offset();
    match d.take_u8(what)? {
        0 => Ok(None),
        1 => {
            let best_hyper = d.take_f64("cv best hyper")?;
            let best_error = d.take_f64("cv best error")?;
            let n = d.take_count("cv grid errors", 16)?;
            let mut errors = Vec::with_capacity(n);
            for _ in 0..n {
                let h = d.take_f64("cv grid hyper")?;
                let e = d.take_f64("cv grid error")?;
                errors.push((h, e));
            }
            Ok(Some(CvOutcome {
                best_hyper,
                best_error,
                errors,
            }))
        }
        tag => Err(PersistError::Corrupt {
            offset: at,
            detail: format!("unknown option tag {tag} for {what}"),
        }),
    }
}

fn decode_prior_kind(d: &mut Decoder<'_>, what: &str) -> Result<PriorKind> {
    let at = d.offset();
    match d.take_u8(what)? {
        0 => Ok(PriorKind::ZeroMean),
        1 => Ok(PriorKind::NonZeroMean),
        tag => Err(PersistError::Corrupt {
            offset: at,
            detail: format!("unknown prior kind tag {tag} for {what}"),
        }),
    }
}

fn take_usize(d: &mut Decoder<'_>, what: &str) -> Result<usize> {
    let at = d.offset();
    let raw = d.take_u64(what)?;
    usize::try_from(raw).map_err(|_| PersistError::Corrupt {
        offset: at,
        detail: format!("{what} {raw} does not fit in usize"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_snapshot() -> ModelSnapshot {
        let basis = OrthonormalBasis::total_degree(3, 2, 64);
        let coeffs: Vec<f64> = (0..basis.len()).map(|i| 0.25 * i as f64 - 0.5).collect();
        let model = PerformanceModel::new(basis, coeffs).unwrap();
        let mut snap = ModelSnapshot::from_model("bandgap/psrr", model);
        snap.options = FitOptions::new().folds(3).seed(11).threads(2);
        snap.prior_kind = PriorKind::NonZeroMean;
        snap.hyper = 0.125;
        snap.cv_error = 0.031_25;
        snap.selection = SelectionOutcome {
            kind: PriorKind::NonZeroMean,
            hyper: 0.125,
            cv_error: 0.031_25,
            zero_mean: Some(CvOutcome {
                best_hyper: 1.0,
                best_error: 0.05,
                errors: vec![(0.5, 0.06), (1.0, 0.05)],
            }),
            nonzero_mean: Some(CvOutcome {
                best_hyper: 0.125,
                best_error: 0.031_25,
                errors: vec![(0.125, 0.031_25), (0.25, 0.04)],
            }),
        };
        snap.resilience = ResilienceReport {
            rung: 1,
            ridge: 1e-9,
            rcond: 1e-12,
            degraded_solves: 2,
            max_rung: 1,
        };
        snap
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let snap = rich_snapshot();
        let bytes = encode_snapshot(&snap).unwrap();
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(encode_snapshot(&back).unwrap(), bytes);
    }

    #[test]
    fn fingerprint_is_stable_and_content_addressed() {
        let snap = rich_snapshot();
        let a = encode_snapshot(&snap).unwrap();
        // An independently built, equal snapshot encodes to the same bytes.
        let b = encode_snapshot(&rich_snapshot()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            artifact_fingerprint(&a).unwrap(),
            artifact_fingerprint(&b).unwrap()
        );
        let mut other = rich_snapshot();
        other.hyper = 0.25;
        let c = encode_snapshot(&other).unwrap();
        assert_ne!(
            artifact_fingerprint(&a).unwrap(),
            artifact_fingerprint(&c).unwrap()
        );
    }

    #[test]
    fn bad_magic_is_corrupt_at_offset_zero() {
        let mut bytes = encode_snapshot(&rich_snapshot()).unwrap();
        bytes[0] ^= 0xff;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(PersistError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = encode_snapshot(&rich_snapshot()).unwrap();
        bytes[8] = 9;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: 9,
                supported: FORMAT_VERSION,
                offset: 8,
            })
        ));
    }

    /// ROADMAP item 4's version-bump exercise: a well-formed artifact
    /// from a hypothetical future v2 writer — whatever its payload
    /// holds, even garbage that would crash a v1 parser — is rejected
    /// at the header with the structured version error and the byte
    /// offset of the version field. No payload byte is ever parsed.
    #[test]
    fn future_v2_artifact_is_rejected_before_any_parse() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        // A payload of garbage with a deliberately lying length field
        // and fingerprint: if any of those checks ran, the error would
        // be Corrupt/FingerprintMismatch, not UnsupportedVersion.
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&0xdead_beef_u64.to_le_bytes());
        bytes.extend_from_slice(&[0xff; 16]);
        for api in [
            decode_snapshot(&bytes).map(|_| 0),
            artifact_fingerprint(&bytes),
        ] {
            assert!(matches!(
                api,
                Err(PersistError::UnsupportedVersion {
                    found: 2,
                    supported: FORMAT_VERSION,
                    offset: 8,
                })
            ));
        }
    }

    #[test]
    fn payload_bit_flip_is_a_fingerprint_mismatch() {
        let mut bytes = encode_snapshot(&rich_snapshot()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(PersistError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_corrupt() {
        let bytes = encode_snapshot(&rich_snapshot()).unwrap();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_snapshot(&bytes[..cut]),
                    Err(PersistError::Corrupt { .. })
                ),
                "prefix of {cut} bytes must be corrupt"
            );
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(matches!(
            decode_snapshot(&extended),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn contaminated_snapshot_never_encodes() {
        let mut snap = rich_snapshot();
        snap.hyper = f64::NAN;
        assert!(matches!(
            encode_snapshot(&snap),
            Err(PersistError::Model(_))
        ));
    }

    #[test]
    fn header_layout_is_frozen() {
        let bytes = encode_snapshot(&rich_snapshot()).unwrap();
        assert_eq!(&bytes[..8], b"BMFSNAP\0");
        assert_eq!(bytes[8..12], 1u32.to_le_bytes());
        let mut len = [0u8; 8];
        len.copy_from_slice(&bytes[12..20]);
        assert_eq!(u64::from_le_bytes(len) as usize, bytes.len() - HEADER_LEN);
    }
}
