// Fixture: suppression-hygiene failures.

pub fn no_reason(x: Option<u32>) -> u32 {
    // outran-lint: allow(d5)
    x.unwrap() // line 5: D5 still fires — reasonless directive is void (plus L100 on line 4)
}

pub fn unknown_rule(x: Option<u32>) -> u32 {
    // outran-lint: allow(d99) -- this rule does not exist; line 9: L101
    x.unwrap_or(0)
}

pub fn stale(x: u32) -> u32 {
    // outran-lint: allow(d5) -- nothing to suppress here; line 14: L102
    x + 1
}

pub fn retired_rules(x: u32) -> u32 {
    // outran-lint: allow(s2) -- retired with the call-graph pass; line 19: L101
    // outran-lint: allow(d10) -- retired for the pool-miss test; line 20: L101
    x
}
