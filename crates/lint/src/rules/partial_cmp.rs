//! `no-partial-cmp-unwrap`: `.partial_cmp(..).unwrap()` (or `.expect(..)`)
//! panics on the first NaN, and NaN is exactly what adversarial inputs
//! feed the fitting stack (see the fault-injection suite). Sorting floats
//! should use `f64::total_cmp`, which is total, deterministic, and
//! panic-free.

use super::{each_nontest_ident, files_in, finding_at, Rule, DETERMINISM_CRATES};
use crate::findings::Finding;
use crate::scan::FileModel;
use crate::Analysis;

/// See the module docs.
pub struct NoPartialCmpUnwrap;

impl Rule for NoPartialCmpUnwrap {
    fn id(&self) -> &'static str {
        "no-partial-cmp-unwrap"
    }

    fn describe(&self) -> &'static str {
        "`.partial_cmp(..).unwrap()/.expect(..)`; use `f64::total_cmp` instead"
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        for file in files_in(analysis, DETERMINISM_CRATES) {
            check_file(self.id(), file, out);
        }
    }
}

fn check_file(id: &'static str, file: &FileModel, out: &mut Vec<Finding>) {
    for ci in each_nontest_ident(file, "partial_cmp") {
        if ci == 0 || file.text(ci - 1) != "." || file.text(ci + 1) != "(" {
            continue;
        }
        // Walk over the balanced argument list.
        let mut depth = 0i32;
        let mut cur = ci + 1;
        while cur < file.code.len() {
            match file.text(cur) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            cur += 1;
        }
        let dot = cur + 1;
        let method = file.text(dot + 1);
        if file.text(dot) == "."
            && (method == "unwrap" || method == "expect")
            && file.text(dot + 2) == "("
        {
            if let Some(tok) = file.tok(ci) {
                out.push(finding_at(
                    id,
                    file,
                    tok,
                    format!(
                        "`.partial_cmp(..).{method}(..)` panics on NaN; \
                         use `f64::total_cmp` for a total, panic-free order"
                    ),
                ));
            }
        }
    }
}
