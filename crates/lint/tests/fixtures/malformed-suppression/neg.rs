// Negative fixture: a well-formed suppression — known rule plus the
// mandatory reason — silences the finding it covers and raises nothing
// itself.

pub fn checked(x: Option<u32>) -> u32 {
    // bmf-lint: allow(panic-reachability) -- fixture demonstrates the syntax
    x.unwrap()
}
