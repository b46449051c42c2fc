// Negative fixture: the kernels and everything they reach touch
// caller-provided storage only; allocating constructors live in a
// builder outside the kernels' reach, where they are allowed.

pub fn scale_into(out: &mut [f64], xs: &[f64]) {
    for (o, x) in out.iter_mut().zip(xs) {
        *o = *x * 2.0;
    }
}

pub fn axpy_into(y: &mut [f64], a: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

pub fn workspace(n: usize) -> Vec<f64> {
    vec![0.0; n]
}
