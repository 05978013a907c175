//! Fixture: malformed allow-comments are diagnostics themselves.

pub fn f(x: f64) -> bool {
    // ppn-check: allow(float-eq)
    let a = x == 1.5;
    // ppn-check: allow(not-a-rule) some reason
    a
}
