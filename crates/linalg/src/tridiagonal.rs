//! Symmetric tridiagonal kernels: the Householder reduction
//! `S = H T Hᵀ` (with [`crate::Qr`]'s reflectors), after which a family
//! of shifted systems `(S + ηI) x = b` costs O(n) per shift through
//! [`ldl_shifted_into`] / [`ldl_solve_in_place`]; and the implicit-QL
//! eigenvalues of `T` with each eigenvector's first component
//! ([`eigen_first`], what Golub–Welsch quadrature needs). The reduction
//! and the shifted solve allocate nothing once their buffers have
//! capacity.

use crate::qr::householder_in_place;
use crate::view::resize;
use crate::{LinalgError, Matrix, Result};

fn check_lengths(
    op: &'static str,
    ok: bool,
    lhs: (usize, usize),
    rhs: (usize, usize),
) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(LinalgError::DimensionMismatch { op, lhs, rhs })
    }
}

/// Reduces the exactly symmetric `s` to tridiagonal form `S = H T Hᵀ`:
/// `d` receives `T`'s diagonal (length n), `e` its off-diagonal
/// (length n − 1), and `s`'s rows with `tau` the reflectors of `H`
/// ([`crate::Reflectors`] with offset 1). `w` is scratch.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] when `s` is not square.
pub fn tridiagonalize_in_place(
    s: &mut Matrix,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    tau: &mut Vec<f64>,
    w: &mut Vec<f64>,
) -> Result<()> {
    let (n, c) = s.shape();
    if n != c {
        return Err(LinalgError::NotSquare { rows: n, cols: c });
    }
    resize(d, n);
    resize(e, n.saturating_sub(1));
    resize(tau, n.saturating_sub(2));
    resize(w, n);
    for k in 0..n.saturating_sub(2) {
        let (done, trailing) = s.as_mut_slice().split_at_mut((k + 1) * n);
        let v = &mut done[k * n + k + 1..];
        let t = householder_in_place(v);
        tau[k] = t;
        e[k] = v[0];
        if crate::fp::is_exact_zero(t) {
            continue;
        }
        // v = [1; tail] acts on the trailing block A (rows and columns
        // k+1..). With p = τ A v (accumulated over A's rows, A being
        // symmetric) and q = p − (τ/2)(pᵀv) v, A becomes A − v qᵀ − q vᵀ.
        // The head slot keeps 1 from here on; reflector readers skip it.
        v[0] = 1.0;
        let v = &*v;
        let q = &mut w[..n - k - 1];
        q.fill(0.0);
        for (vi, row) in v.iter().zip(trailing.chunks_exact(n)) {
            for (qj, a) in q.iter_mut().zip(&row[k + 1..]) {
                *qj += vi * a;
            }
        }
        let mut pv = 0.0;
        for (qj, vj) in q.iter_mut().zip(v) {
            *qj *= t;
            pv += *qj * vj;
        }
        let half = 0.5 * t * pv;
        for (qj, vj) in q.iter_mut().zip(v) {
            *qj -= half * vj;
        }
        for ((vi, qi), row) in v.iter().zip(q.iter()).zip(trailing.chunks_exact_mut(n)) {
            for ((a, qj), vj) in row[k + 1..].iter_mut().zip(q.iter()).zip(v) {
                *a -= vi * qj + qi * vj;
            }
        }
    }
    for (i, di) in d.iter_mut().enumerate() {
        *di = s[(i, i)];
    }
    if n >= 2 {
        e[n - 2] = s[(n - 2, n - 1)];
    }
    Ok(())
}

/// Factors `T + shift·I = L D Lᵀ` for the tridiagonal `T = (d, e)` into
/// `piv` (`D`) and `l` (`L`'s subdiagonal).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] on inconsistent lengths.
/// * [`LinalgError::NotPositiveDefinite`] when a pivot is not positive
///   and finite.
/// * [`LinalgError::Unsolvable`] when `min/max` of the pivots is at most
///   `rcond_floor`, the pivot-ratio gate of the degradation ladder's LU
///   rung: the system is singular to working precision.
pub fn ldl_shifted_into(
    d: &[f64],
    e: &[f64],
    shift: f64,
    rcond_floor: f64,
    piv: &mut [f64],
    l: &mut [f64],
) -> Result<()> {
    let n = d.len();
    let ok = piv.len() == n && e.len() == n.saturating_sub(1) && l.len() == e.len();
    check_lengths("tridiagonal ldl", ok, (n, e.len()), (piv.len(), l.len()))?;
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for i in 0..n {
        let p = if i == 0 {
            d[0] + shift
        } else {
            l[i - 1] = e[i - 1] / piv[i - 1];
            d[i] + shift - l[i - 1] * e[i - 1]
        };
        if !(p > 0.0 && p.is_finite()) {
            return Err(LinalgError::NotPositiveDefinite { pivot: i, value: p });
        }
        piv[i] = p;
        (lo, hi) = (lo.min(p), hi.max(p));
    }
    if lo <= rcond_floor * hi {
        let op = "tridiagonal ldl (pivot ratio)";
        return Err(LinalgError::Unsolvable { op, rcond: lo / hi });
    }
    Ok(())
}

/// Solves `L D Lᵀ x = b` in place for the factor of [`ldl_shifted_into`].
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] on inconsistent lengths.
pub fn ldl_solve_in_place(piv: &[f64], l: &[f64], x: &mut [f64]) -> Result<()> {
    let n = piv.len();
    let ok = x.len() == n && l.len() == n.saturating_sub(1);
    check_lengths("tridiagonal ldl solve", ok, (n, l.len()), (x.len(), 1))?;
    for i in 1..n {
        x[i] -= l[i - 1] * x[i - 1];
    }
    for i in (0..n).rev() {
        x[i] /= piv[i];
        if i + 1 < n {
            x[i] -= l[i] * x[i + 1];
        }
    }
    Ok(())
}

/// Eigenvalues of the tridiagonal `T = (d, e)` by implicit QL with
/// Wilkinson shifts, each paired with the first component of its
/// eigenvector: `(values, first)`, unordered.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] when `e.len() + 1 != d.len()`.
/// * [`LinalgError::Unsolvable`] when an eigenvalue takes more than 60
///   iterations.
pub fn eigen_first(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
    let n = d.len();
    check_lengths(
        "tridiagonal eigen",
        e.len() == n.saturating_sub(1),
        (n, n),
        (e.len(), 1),
    )?;
    let mut d = d.to_vec();
    // e[i] couples i and i + 1; the trailing zero closes the last block.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();
    // Row 0 of the accumulated rotations: eigenvector first components.
    let mut z: Vec<f64> = (0..n).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
    for l in 0..n {
        let mut iter = 0;
        loop {
            let mut m = l;
            while m + 1 < n && e[m].abs() > f64::EPSILON * (d[m].abs() + d[m + 1].abs()) {
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 60 {
                let op = "tridiagonal eigen";
                return Err(LinalgError::Unsolvable { op, rcond: 0.0 });
            }
            let g0 = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut g = d[m] - d[l] + e[l] / (g0 + g0.hypot(1.0).copysign(g0));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            for i in (l..m).rev() {
                let (f, b) = (s * e[i], c * e[i]);
                let r = f.hypot(g);
                e[i + 1] = r;
                if crate::fp::is_exact_zero(r) {
                    // Underflow: the block splits at i + 1; restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                let r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                let z1 = z[i + 1];
                z[i + 1] = s * z[i] + c * z1;
                z[i] = c * z[i] - s * z1;
            }
            if !deflated {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }
    Ok((d, z))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| b.total_cmp(a));
        v
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let (values, first) = eigen_first(&[3.0, 1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert_eq!(sorted(values), vec![3.0, 2.0, 1.0]);
        assert_eq!(first, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1, eigenvectors (1, ±1)/√2.
        let (values, first) = eigen_first(&[2.0, 2.0], &[1.0]).unwrap();
        let values = sorted(values);
        assert!((values[0] - 3.0).abs() < 1e-12);
        assert!((values[1] - 1.0).abs() < 1e-12);
        for z in first {
            assert!((z * z - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_and_det_invariants() {
        // A dense symmetric matrix, reduced and then diagonalized.
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.2], &[0.5, -0.2, 2.0]]).unwrap();
        let mut s = a.clone();
        let (mut d, mut e, mut tau, mut w) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        tridiagonalize_in_place(&mut s, &mut d, &mut e, &mut tau, &mut w).unwrap();
        let (values, _) = eigen_first(&d, &e).unwrap();
        let trace: f64 = (0..3).map(|i| a[(i, i)]).sum();
        assert!((values.iter().sum::<f64>() - trace).abs() < 1e-10);
        let det = a.lu().unwrap().det();
        let prod: f64 = values.iter().product();
        assert!((prod - det).abs() < 1e-9 * det.abs().max(1.0));
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        assert!(eigen_first(&[1.0, 2.0], &[]).is_err());
        assert!(ldl_shifted_into(&[1.0], &[], 1.0, 0.0, &mut [0.0; 2], &mut []).is_err());
        assert!(ldl_solve_in_place(&[1.0], &[], &mut [0.0; 2]).is_err());
    }
}
