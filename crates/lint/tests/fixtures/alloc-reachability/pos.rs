// Positive fixture (linted as crates/core/src/fixture.rs): a `vec!`
// written inside a `_into` kernel is reported at the allocation, and a
// kernel that allocates nothing itself but calls a helper building a
// fresh Vec on every invocation is reported at its `fn` line with the
// call chain.

pub fn accumulate_into(out: &mut [f64], xs: &[f64]) {
    let tmp = vec![0.0; xs.len()];
    for (o, (t, x)) in out.iter_mut().zip(tmp.iter().zip(xs)) {
        *o = *t + *x;
    }
}

pub fn scale_into(out: &mut [f64], xs: &[f64]) {
    let w = weights(xs.len());
    for (o, (x, wi)) in out.iter_mut().zip(xs.iter().zip(w.iter())) {
        *o = *x * *wi;
    }
}

fn weights(n: usize) -> Vec<f64> {
    vec![1.0; n]
}
