//! `no-lossy-cast-in-kernels`: inside `bmf_linalg`'s numerical kernels an
//! `as` cast between float and integer types silently truncates (float →
//! int) or loses precision above 2⁵³ (usize → f64), and `as f32` drops
//! half the mantissa. The kernels back the paper's MAP estimator
//! (eq. 28–35) and Woodbury fast solver (eq. 53–58), where such losses
//! corrupt the bit-reproducibility guarantee. Outside kernels (summary
//! statistics, diagnostics) the conversion is usually benign and the rule
//! stays silent.

use super::{each_nontest_ident, finding_at, Rule};
use crate::findings::Finding;
use crate::Analysis;

/// See the module docs.
pub struct NoLossyCastInKernels;

const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64",
    "i128",
];

/// Function-name shapes that identify a `bmf_linalg` kernel: the
/// zero-allocation `_into`/`_in_place` entry points plus the named
/// BLAS-style primitives.
const KERNEL_PREFIXES: &[&str] = &[
    "matvec", "gram", "matmul", "outer_", "cholesky", "lu_", "solve", "forward_", "back_",
];

fn is_kernel_fn(name: &str) -> bool {
    name.ends_with("_into")
        || name.ends_with("_in_place")
        || KERNEL_PREFIXES.iter().any(|p| name.starts_with(p))
}

impl Rule for NoLossyCastInKernels {
    fn id(&self) -> &'static str {
        "no-lossy-cast-in-kernels"
    }

    fn describe(&self) -> &'static str {
        "float<->int `as` casts inside bmf_linalg kernel functions"
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        let linalg = analysis
            .files
            .iter()
            .filter(|f| f.source.path.starts_with("crates/linalg/src/"));
        for file in linalg {
            for ci in each_nontest_ident(file, "as") {
                let target = file.text(ci + 1);
                if !NUMERIC_TYPES.contains(&target) {
                    continue;
                }
                let Some(tok) = file.tok(ci) else {
                    continue;
                };
                let Some(f) = analysis.enclosing_fn(file, tok.start) else {
                    continue;
                };
                if !is_kernel_fn(&f.name) {
                    continue;
                }
                out.push(finding_at(
                    self.id(),
                    file,
                    tok,
                    format!(
                        "numeric `as {target}` cast inside kernel `{}`; use an exact \
                         conversion (`From`/`try_into`) or hoist the cast out of the kernel",
                        f.name
                    ),
                ));
            }
        }
    }
}
