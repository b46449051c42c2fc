use std::error::Error;
use std::fmt;

use bmf_linalg::LinalgError;

/// Errors produced by the BMF fitting pipeline.
///
/// The enum is `#[non_exhaustive]`: downstream `match` expressions must
/// carry a wildcard arm so new variants can be added without a breaking
/// release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BmfError {
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// Sample points/values disagree in count, or a point has the wrong
    /// dimension.
    SampleShape {
        /// Description of the mismatch.
        detail: String,
    },
    /// The prior length does not match the basis size.
    PriorShape {
        /// Number of basis terms.
        basis_terms: usize,
        /// Number of prior entries supplied.
        prior_entries: usize,
    },
    /// Not enough samples for the requested operation (e.g. fewer samples
    /// than missing-prior coefficients, or none that leave-one-out can
    /// hold out).
    NotEnoughSamples {
        /// Samples available.
        available: usize,
        /// Samples required.
        required: usize,
        /// What needed them.
        context: &'static str,
    },
    /// A configuration value is invalid. `parameter` names the offending
    /// knob (e.g. `"grid"`, `"folds"`, `"hyper"`) so callers can react
    /// programmatically instead of parsing the message.
    Config {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// What is wrong with it.
        detail: String,
    },
    /// An input contained NaN or ±∞ where finite data is required. Raised
    /// by the boundary screening at every public fitting entry point, so
    /// contaminated measurements fail fast with a named input instead of
    /// propagating into the solvers.
    NonFiniteInput {
        /// Which input contained the non-finite value.
        what: &'static str,
    },
    /// An internal invariant was violated — a bug in this crate, not in
    /// the caller's inputs. Returned instead of panicking so the
    /// panic-free contract holds even for library defects.
    Internal {
        /// Description of the violated invariant.
        detail: &'static str,
    },
    /// A model snapshot failed validation: inconsistent provenance, an
    /// empty job id, or a decoded artifact whose contents do not form a
    /// servable model. Raised by
    /// [`ModelSnapshot::validate`](crate::snapshot::ModelSnapshot::validate)
    /// and by the persistence layer when routing corruption through this
    /// ladder.
    Snapshot {
        /// What is wrong with the snapshot.
        detail: String,
    },
    /// The service shed the request at admission because the named queue
    /// is at capacity. Overload is a property of the *system*, not the
    /// request: the caller may retry after a drain. `class` names the
    /// queue ("fit", "append") so shed accounting can be per-class.
    Overloaded {
        /// Which bounded queue rejected the request.
        class: &'static str,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request's virtual-time deadline passed before the service
    /// drained it. The work was never started: expiry is decided at drain
    /// time, before batching, so expired members cannot perturb the
    /// surviving cohort.
    DeadlineExceeded {
        /// The request's deadline, in virtual nanoseconds.
        deadline_ns: u64,
        /// The drain's virtual now when the request expired.
        now_ns: u64,
    },
    /// A service lookup named a key that is not (or no longer) registered
    /// — a prediction against an evicted model, or a fit referencing an
    /// unregistered point set. `what` names the registry ("model",
    /// "point set") so callers can distinguish a cold cache from a typo.
    NotFound {
        /// Which registry missed.
        what: &'static str,
        /// The key that was looked up.
        key: String,
    },
}

impl BmfError {
    /// Convenience constructor for [`BmfError::Config`].
    pub(crate) fn config(parameter: &'static str, detail: impl Into<String>) -> Self {
        BmfError::Config {
            parameter,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for BmfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmfError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            BmfError::SampleShape { detail } => {
                write!(
                    f,
                    "sample shape mismatch between `points` and `values`: {detail}"
                )
            }
            BmfError::PriorShape {
                basis_terms,
                prior_entries,
            } => write!(
                f,
                "`prior` has {prior_entries} entries but `basis` has {basis_terms} terms"
            ),
            BmfError::NotEnoughSamples {
                available,
                required,
                context,
            } => write!(
                f,
                "{context} needs at least {required} samples, got {available}"
            ),
            BmfError::Config { parameter, detail } => {
                write!(f, "invalid value for `{parameter}`: {detail}")
            }
            BmfError::NonFiniteInput { what } => {
                write!(f, "non-finite value (NaN or infinity) in {what}")
            }
            BmfError::Internal { detail } => {
                write!(f, "internal invariant violated (library bug): {detail}")
            }
            BmfError::Snapshot { detail } => {
                write!(f, "invalid model snapshot: {detail}")
            }
            BmfError::Overloaded { class, capacity } => {
                write!(
                    f,
                    "service overloaded: `{class}` queue is at capacity ({capacity})"
                )
            }
            BmfError::DeadlineExceeded {
                deadline_ns,
                now_ns,
            } => write!(
                f,
                "deadline exceeded: due at {deadline_ns} ns, drained at {now_ns} ns"
            ),
            BmfError::NotFound { what, key } => {
                write!(f, "no {what} named `{key}` is registered")
            }
        }
    }
}

impl Error for BmfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BmfError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for BmfError {
    fn from(e: LinalgError) -> Self {
        BmfError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BmfError::from(LinalgError::Singular { pivot: 3 });
        assert!(e.to_string().contains("singular"));
        assert!(e.source().is_some());
        let e2 = BmfError::PriorShape {
            basis_terms: 10,
            prior_entries: 8,
        };
        assert!(e2.to_string().contains("10"));
        assert!(e2.source().is_none());
    }

    #[test]
    fn config_error_names_the_parameter() {
        let e = BmfError::config("grid", "must be non-empty");
        assert!(e.to_string().contains("`grid`"));
        assert!(e.to_string().contains("must be non-empty"));
        assert!(matches!(
            e,
            BmfError::Config {
                parameter: "grid",
                ..
            }
        ));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<BmfError>();
    }

    #[test]
    fn not_found_names_registry_and_key() {
        let e = BmfError::NotFound {
            what: "model",
            key: "ro/power".into(),
        };
        assert!(e.to_string().contains("model"));
        assert!(e.to_string().contains("`ro/power`"));
        assert!(e.source().is_none());
    }

    #[test]
    fn snapshot_error_carries_detail() {
        let e = BmfError::Snapshot {
            detail: "truncated artifact".into(),
        };
        assert!(e.to_string().contains("invalid model snapshot"));
        assert!(e.to_string().contains("truncated artifact"));
        assert!(e.source().is_none());
    }

    #[test]
    fn overloaded_names_queue_class_and_capacity() {
        let e = BmfError::Overloaded {
            class: "fit",
            capacity: 64,
        };
        assert!(e.to_string().contains("`fit`"));
        assert!(e.to_string().contains("64"));
        assert!(e.source().is_none());
    }

    #[test]
    fn deadline_exceeded_reports_both_clocks() {
        let e = BmfError::DeadlineExceeded {
            deadline_ns: 1_000,
            now_ns: 2_500,
        };
        assert!(e.to_string().contains("1000"));
        assert!(e.to_string().contains("2500"));
        assert!(e.source().is_none());
    }

    #[test]
    fn non_finite_input_names_the_input() {
        let e = BmfError::NonFiniteInput {
            what: "sample points",
        };
        assert!(e.to_string().contains("sample points"));
        assert!(e.to_string().contains("non-finite"));
    }
}
