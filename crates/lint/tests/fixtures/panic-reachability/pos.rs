// Positive fixture (linted as crates/core/src/fixture.rs). Every panic
// construct is reported where it is written, whatever the visibility of
// the fn holding it; the public entry point `fit` is panic-free in its
// own body but reaches the helper's unwrap two calls down, so it is
// reported at its `fn` line with the call chain.

pub fn fit(xs: &[f64]) -> f64 {
    prepare(xs)
}

fn prepare(xs: &[f64]) -> f64 {
    head(xs)
}

fn head(xs: &[f64]) -> f64 {
    xs.first().copied().unwrap()
}

pub fn checked(flag: bool) -> u32 {
    if flag {
        panic!("boom");
    }
    0
}

pub struct Report {
    value: Option<u32>,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value.unwrap())
    }
}

pub struct Guard {
    armed: Option<u32>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.armed.take().expect("guard armed");
    }
}

pub(crate) fn unused_helper(x: Option<u32>) -> u32 {
    x.unwrap()
}
