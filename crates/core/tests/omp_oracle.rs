//! OMP oracle: `fit_omp_design`, which grows its active-set QR by one
//! column per greedy step, against the reference below, which refits the
//! whole active set from scratch at every step (a fresh Householder QR,
//! `Qᵀf` over every reflector, and full matrix–vector products). The two
//! must agree bit for bit on the coefficients, the selected terms and the
//! validation error.
//!
//! The generated cases reach every exit of the greedy loop — the
//! `max_terms` cap, the validation-patience stop, the
//! `min_relative_residual` exit and the dropped numerically dependent
//! column — plus `validation_fraction = 0`, columns of zero norm over the
//! training rows and K = 4…8 samples. The test counts each and fails if
//! one is never reached.
//!
//! A second test reaches each path of the f32 screen of the correlation
//! pass (`omp.rs`'s `Screen`): exact ties (duplicated and negated
//! columns), near-ties inside the screen's rounding bound, and the
//! full-f64 fallback for values outside the screen's window (the spike
//! of 1e-305, and entries just outside the window's edges), with entries
//! just inside the edges screened. It counts the path of each case's
//! first greedy step, read off the problem, and fails if one is never
//! reached. The screen has no size gate.

use bmf_core::least_squares::solve_least_squares;
use bmf_core::omp::{fit_omp_design, OmpConfig, OmpFit};
use bmf_core::{BmfError, Result};
use bmf_linalg::{Matrix, Vector};
use bmf_stat::prop::check;
use bmf_stat::rng::{seeded, Rng};

/// How the reference's greedy loop ended.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// The active set reached `cap`.
    Cap,
    /// No unselected column with a nonzero norm was left.
    NoCandidate,
    /// The new column was numerically dependent and was dropped.
    Singular,
    /// The validation error stalled for `patience` steps.
    Patience,
    /// The relative training residual fell below `min_relative_residual`.
    MinResidual,
}

/// The reference: `fit_omp_design` as it was written before the active
/// set's factor grew in place, kept line for line except that the
/// non-finite screens are left out (every case is finite), the config
/// error is built from its fields, and the `exit` assignments and the
/// zero-norm flag are added.
fn reference_omp(g: &Matrix, f: &Vector, config: &OmpConfig) -> Result<(OmpFit, Exit, bool)> {
    let (k, m) = g.shape();
    if f.len() != k {
        return Err(BmfError::SampleShape {
            detail: format!("{k} design rows vs {} values", f.len()),
        });
    }
    if k < 4 {
        return Err(BmfError::NotEnoughSamples {
            available: k,
            required: 4,
            context: "OMP",
        });
    }
    if !(0.0..0.9).contains(&config.validation_fraction) {
        return Err(BmfError::Config {
            parameter: "validation_fraction",
            detail: format!("must be in [0, 0.9), got {}", config.validation_fraction),
        });
    }

    // Train/validation split.
    let mut order: Vec<usize> = (0..k).collect();
    seeded(config.seed).shuffle(&mut order);
    let n_val = ((k as f64 * config.validation_fraction) as usize).min(k - 2);
    let (val_idx, train_idx) = order.split_at(n_val);
    let g_train = select_rows(g, train_idx);
    let g_val = select_rows(g, val_idx);
    let f_train = Vector::from_fn(train_idx.len(), |i| f[train_idx[i]]);
    let f_val = Vector::from_fn(val_idx.len(), |i| f[val_idx[i]]);

    // Column norms over the training rows, for correlation normalization.
    let col_norms: Vec<f64> = (0..m)
        .map(|j| {
            (0..g_train.nrows())
                .map(|i| g_train[(i, j)] * g_train[(i, j)])
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    let zero_norm = col_norms.iter().any(|&n| bmf_linalg::is_exact_zero(n));

    let cap = config
        .max_terms
        .unwrap_or(usize::MAX)
        .min(g_train.nrows().saturating_sub(1))
        .min(m)
        .max(1);

    let f_norm = f_train.norm2().max(f64::MIN_POSITIVE);
    // Clone: the greedy loop shrinks the residual in place while the
    // original responses stay available for the refits below.
    let mut residual = f_train.clone();
    let mut active: Vec<usize> = Vec::new();
    let mut in_active = vec![false; m];
    let mut best: Option<(f64, usize)> = None; // (val error, #terms)
    let mut stall = 0usize;
    let mut exit = Exit::Cap;

    while active.len() < cap {
        // Most correlated unselected column.
        let corr = g_train.matvec_transpose(&residual)?;
        let mut best_j = None;
        let mut best_c = 0.0;
        for j in 0..m {
            if in_active[j] || bmf_linalg::is_exact_zero(col_norms[j]) {
                continue;
            }
            let c = (corr[j] / col_norms[j]).abs();
            if c > best_c {
                best_c = c;
                best_j = Some(j);
            }
        }
        let Some(j) = best_j else {
            exit = Exit::NoCandidate;
            break;
        };
        active.push(j);
        in_active[j] = true;

        // Orthogonal refit of the active set.
        let ga = g_train.select_columns(&active);
        let coef = match solve_least_squares(&ga, &f_train) {
            Ok(c) => c,
            Err(_) => {
                // Numerically dependent column: drop it and stop growing.
                in_active[j] = false;
                active.pop();
                exit = Exit::Singular;
                break;
            }
        };
        residual = f_train.sub(&ga.matvec(&coef)?)?;

        // Validation error with the current active set.
        let val_err = if val_idx.is_empty() {
            residual.norm2() / f_norm
        } else {
            let pred = g_val.select_columns(&active).matvec(&coef)?;
            pred.sub(&f_val)?.norm2() / f_val.norm2().max(f64::MIN_POSITIVE)
        };
        match best {
            Some((e, _)) if val_err >= e => {
                stall += 1;
                if stall >= config.patience {
                    exit = Exit::Patience;
                    break;
                }
            }
            _ => {
                best = Some((val_err, active.len()));
                stall = 0;
            }
        }
        if residual.norm2() / f_norm < config.min_relative_residual {
            exit = Exit::MinResidual;
            break;
        }
    }

    let (validation_error, n_terms) = best.unwrap_or((f64::INFINITY, active.len().max(1)));
    active.truncate(n_terms);

    // Final refit on ALL samples with the chosen active set.
    let ga_full = g.select_columns(&active);
    let coef = solve_least_squares(&ga_full, f)?;
    let mut coeffs = vec![0.0; m];
    for (idx, &j) in active.iter().enumerate() {
        coeffs[j] = coef[idx];
    }
    Ok((
        OmpFit {
            coeffs,
            selected: active,
            validation_error,
        },
        exit,
        zero_norm,
    ))
}

fn select_rows(g: &Matrix, rows: &[usize]) -> Matrix {
    Matrix::from_fn(rows.len(), g.ncols(), |i, j| g[(rows[i], j)])
}

/// One generated problem.
struct Case {
    g: Matrix,
    f: Vector,
    config: OmpConfig,
}

/// A random OMP problem. A quarter of the cases carry a spike column (a
/// power-of-two multiple of one unit vector, at column 0) and, at column
/// 1, the spike plus 1e-305 on one other row. A dominant response entry
/// on the spike's row makes the spike the first pick; its reflector is
/// exact, so the residual vanishes exactly on that row and column 1 is
/// left with a correlation of order 1e-305: it is picked once the other
/// columns are spent, and its pivot, below the triangular solve's
/// threshold, makes the refit fail. The other cases draw K (a third at
/// 4…8), M, exact sparse or noisy responses, a zeroed column, a
/// `max_terms` cap and a short patience.
fn case(rng: &mut Rng) -> Case {
    let spike = rng.gen_bool(0.25);
    let k = if spike {
        20 + rng.gen_index(41)
    } else if rng.gen_bool(0.4) {
        4 + rng.gen_index(5)
    } else {
        9 + rng.gen_index(52)
    };
    let m = if spike {
        3 + rng.gen_index(4)
    } else {
        1 + rng.gen_index(40)
    };
    let mut g = Matrix::from_fn(k, m, |_, _| rng.gen_range(-2.0..2.0));
    let exact = !spike && rng.gen_bool(0.3);
    let mut truth = vec![0.0; m];
    for _ in 0..1 + rng.gen_index(3) {
        truth[rng.gen_index(m)] = rng.gen_range(-3.0..3.0);
    }
    let mut f = g.matvec(&Vector::from(truth)).expect("shapes");
    if !exact {
        for i in 0..k {
            f[i] += rng.gen_range(-0.5..0.5);
        }
    }
    if spike {
        let row = rng.gen_index(k);
        let other = (row + 1 + rng.gen_index(k - 1)) % k;
        let s = [-2.0, -0.5, 0.5, 1.0, 4.0][rng.gen_index(5)];
        for i in 0..k {
            let v = if i == row { s } else { 0.0 };
            g[(i, 0)] = v;
            g[(i, 1)] = if i == other { 1e-305 } else { v };
        }
        f[row] += 1e3;
    } else if rng.gen_bool(0.25) {
        let j = rng.gen_index(m);
        for i in 0..k {
            g[(i, j)] = 0.0;
        }
    }
    let config = OmpConfig {
        max_terms: (!spike && rng.gen_bool(0.3)).then(|| 1 + rng.gen_index(6)),
        validation_fraction: if rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen_range(0.05..0.5)
        },
        patience: if spike || rng.gen_bool(0.3) {
            usize::MAX
        } else {
            1 + rng.gen_index(4)
        },
        min_relative_residual: 1e-10,
        seed: rng.next_u64(),
    };
    Case { g, f, config }
}

#[test]
fn grown_factor_matches_the_refitting_reference_bit_for_bit() {
    let mut exits = [0usize; 5];
    let (mut zero_norm, mut no_holdout, mut small_k, mut cases) = (0, 0, 0, 0);
    check("omp ≡ refitting reference", 400, |rng| {
        let Case { g, f, config } = case(rng);
        let got = fit_omp_design(&g, &f, &config);
        let want = reference_omp(&g, &f, &config);
        let (want, exit, zeroed) = match (got.as_ref(), want) {
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
                return;
            }
            (Ok(_), Ok(w)) => w,
            (a, b) => panic!("one side failed: {a:?} vs {:?}", b.map(|w| w.1)),
        };
        let got = got.expect("checked above");
        assert_eq!(got.selected, want.selected, "selected terms ({exit:?})");
        assert_eq!(
            got.validation_error.to_bits(),
            want.validation_error.to_bits(),
            "validation error ({exit:?})"
        );
        for (j, (a, b)) in got.coeffs.iter().zip(&want.coeffs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "coefficient {j} ({exit:?})");
        }
        exits[exit as usize] += 1;
        zero_norm += usize::from(zeroed);
        no_holdout += usize::from(config.validation_fraction == 0.0);
        small_k += usize::from(g.nrows() <= 8);
        cases += 1;
    });
    eprintln!(
        "omp oracle: {cases} fits; exits cap/no-candidate/singular/patience/min-residual = \
         {exits:?}; zero-norm {zero_norm}, no holdout {no_holdout}, K ≤ 8 {small_k}"
    );
    for (exit, name) in [
        (Exit::Cap, "cap"),
        (Exit::Singular, "dropped dependent column"),
        (Exit::Patience, "patience"),
        (Exit::MinResidual, "min_relative_residual"),
    ] {
        assert!(exits[exit as usize] > 0, "no case reached the {name} exit");
    }
    assert!(zero_norm > 0 && no_holdout > 0 && small_k > 0);
}

/// The screen's window (`omp.rs`): nonzero training values lie in
/// `[2⁻⁵⁰, 2⁵⁰]`; the largest residual entry lies in `[2⁻⁹⁰⁰, 2⁹⁰⁰]`, and
/// every nonzero entry is at least `2⁻⁵⁰` times the power of two at or
/// below it.
const WINDOW_MIN: f64 = 1.0 / (1u64 << 50) as f64;
const WINDOW_MAX: f64 = (1u64 << 50) as f64;

/// The power of two at or below `x > 0`.
fn pow2_floor(x: f64) -> f64 {
    f64::from_bits(x.to_bits() & (0x7ff << 52))
}

/// The screen path of a problem's first greedy step, whose residual is
/// the training response.
struct FirstStep {
    /// Two or more columns share the highest score, bit for bit.
    tie: bool,
    /// The runner-up scores below the best by at most `1e-7·‖r‖`. The
    /// screen keeps every column within at least `3·γ₄(2⁻²⁴)·‖r‖ ≈
    /// 7e-7·‖r‖` of the best at any K (2 training rows or more), so it
    /// keeps both columns and the f64 scores decide.
    near_tie: bool,
    /// A training value lies outside the window: no step is screened.
    off_values: bool,
    /// The first residual lies outside the window: the step runs the
    /// full f64 pass.
    off_residual: bool,
    /// Screened, with a training value or a scaled residual entry on an
    /// edge of the window.
    on_edge: bool,
}

fn first_step(g: &Matrix, f: &Vector, config: &OmpConfig) -> FirstStep {
    let k = g.nrows();
    let mut order: Vec<usize> = (0..k).collect();
    seeded(config.seed).shuffle(&mut order);
    let n_val = ((k as f64 * config.validation_fraction) as usize).min(k - 2);
    let train = &order[n_val..];
    let g_train = select_rows(g, train);
    let r = Vector::from_fn(train.len(), |i| f[train[i]]);
    let corr = g_train.matvec_transpose(&r).expect("shapes");
    let mut scores: Vec<f64> = (0..g.ncols())
        .filter_map(|j| {
            let norm = (0..train.len())
                .map(|i| g_train[(i, j)] * g_train[(i, j)])
                .sum::<f64>()
                .sqrt();
            (norm > 0.0).then(|| (corr[j] / norm).abs())
        })
        .collect();
    scores.sort_by(|a, b| b.total_cmp(a));
    let (best, second) = (scores[0], scores.get(1).copied().unwrap_or(0.0));

    let values = g_train.as_slice().iter().filter(|x| **x != 0.0);
    let off_values = values
        .clone()
        .any(|x| !(WINDOW_MIN..=WINDOW_MAX).contains(&x.abs()));
    let values_on_edge = values
        .clone()
        .any(|x| x.abs() == WINDOW_MIN || x.abs() == WINDOW_MAX);
    let top = r.as_slice().iter().fold(0.0, |t: f64, x| t.max(x.abs()));
    let scaled = r
        .as_slice()
        .iter()
        .filter(|x| **x != 0.0)
        .map(|x| x.abs() / pow2_floor(top));
    let off_residual = !(2f64.powi(-900)..=2f64.powi(900)).contains(&top)
        || scaled.clone().any(|y| y < WINDOW_MIN);
    let residual_on_edge = scaled.clone().any(|y| y == WINDOW_MIN);
    FirstStep {
        tie: best > 0.0 && best.to_bits() == second.to_bits(),
        near_tie: best > second && best - second <= 1e-7 * r.norm2(),
        off_values,
        off_residual,
        on_edge: !off_values && !off_residual && (values_on_edge || residual_on_edge),
    }
}

/// A problem aimed at one screen path: the first case generator's (a
/// quarter of it the spike, whose 1e-305 entry is outside the window),
/// a column tied with the response's direction by an exact or negated
/// copy, a near copy perturbed by 1e-12 to 1e-6, or entries on and just
/// past the window's edges, in the values or in the response. The
/// copies' columns sit on either side of the original.
fn screen_case(rng: &mut Rng) -> Case {
    let kind = rng.gen_index(4);
    if kind == 0 {
        return case(rng);
    }
    let k = 12 + rng.gen_index(40);
    let m = 8 + rng.gen_index(100);
    let mut g = Matrix::from_fn(k, m, |_, _| rng.gen_range(-2.0..2.0));
    let a = rng.gen_index(m);
    let b = (a + 1 + rng.gen_index(m - 1)) % m;
    let mut f = Vector::from_fn(k, |i| 3.0 * g[(i, a)] + rng.gen_range(-0.3..0.3));
    match kind {
        1 => {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            for i in 0..k {
                g[(i, b)] = sign * g[(i, a)];
            }
        }
        2 => {
            let delta = [1e-12, 1e-9, 1e-7, 1e-6][rng.gen_index(4)];
            for i in 0..k {
                g[(i, b)] = g[(i, a)] + delta * rng.gen_range(-1.0..1.0);
            }
        }
        _ => {
            let below = |x: f64| f64::from_bits(x.to_bits() - 1);
            let above = |x: f64| f64::from_bits(x.to_bits() + 1);
            let inside = rng.gen_bool(0.5);
            let i = rng.gen_index(k);
            let j = rng.gen_index(m);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            match rng.gen_index(3) {
                0 => {
                    g[(i, j)] = sign
                        * if inside {
                            WINDOW_MIN
                        } else {
                            below(WINDOW_MIN)
                        }
                }
                1 => {
                    g[(i, j)] = sign
                        * if inside {
                            WINDOW_MAX
                        } else {
                            above(WINDOW_MAX)
                        }
                }
                _ => {
                    let top = f.as_slice().iter().fold(0.0, |t: f64, x| t.max(x.abs()));
                    let edge = pow2_floor(top) * WINDOW_MIN;
                    f[i] = sign * if inside { edge } else { below(edge) };
                }
            }
        }
    }
    let config = OmpConfig {
        max_terms: rng.gen_bool(0.3).then(|| 1 + rng.gen_index(6)),
        validation_fraction: if rng.gen_bool(0.25) {
            0.0
        } else {
            rng.gen_range(0.05..0.5)
        },
        patience: if rng.gen_bool(0.5) {
            usize::MAX
        } else {
            1 + rng.gen_index(4)
        },
        min_relative_residual: 1e-10,
        seed: rng.next_u64(),
    };
    Case { g, f, config }
}

#[test]
fn screened_picks_match_the_refitting_reference_bit_for_bit() {
    let mut counts = [0usize; 5];
    let mut cases = 0;
    check("omp screen ≡ refitting reference", 300, |rng| {
        let Case { g, f, config } = screen_case(rng);
        let got = fit_omp_design(&g, &f, &config);
        let want = reference_omp(&g, &f, &config);
        let (want, exit) = match (got.as_ref(), want) {
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
                return;
            }
            (Ok(_), Ok((w, exit, _))) => (w, exit),
            (a, b) => panic!("one side failed: {a:?} vs {:?}", b.map(|w| w.1)),
        };
        let got = got.expect("checked above");
        assert_eq!(got.selected, want.selected, "selected terms ({exit:?})");
        assert_eq!(
            got.validation_error.to_bits(),
            want.validation_error.to_bits(),
            "validation error ({exit:?})"
        );
        for (j, (a, b)) in got.coeffs.iter().zip(&want.coeffs).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "coefficient {j} ({exit:?})");
        }
        let step = first_step(&g, &f, &config);
        for (n, hit) in counts.iter_mut().zip([
            step.tie,
            step.near_tie,
            step.off_values,
            step.off_residual,
            step.on_edge,
        ]) {
            *n += usize::from(hit);
        }
        cases += 1;
    });
    eprintln!(
        "omp screen oracle: {cases} fits; first steps tie/near-tie/values off/residual off/on edge \
         = {counts:?}"
    );
    for (n, name) in counts.iter().zip([
        "an exact tie",
        "a near-tie",
        "a training value outside the window",
        "a residual outside the window",
        "an entry on the window's edge",
    ]) {
        assert!(*n > 0, "no first step had {name}");
    }
}
