// Positive fixture: a suppression without its mandatory reason, one
// naming a rule that does not exist, and a well-formed one that covers
// no finding (nothing on its line or the next can panic).

// bmf-lint: allow(panic-reachability)
pub fn missing_reason() {}

// bmf-lint: allow(not-a-rule) -- the rule name is wrong
pub fn unknown_rule() {}

pub fn nothing_to_allow(x: u32) -> u32 {
    // bmf-lint: allow(panic-reachability) -- dead: the next line cannot panic
    x.saturating_add(1)
}
