//! Fixture: a well-formed allow-comment suppresses exactly its finding.

pub fn f(x: f64) -> bool {
    // ppn-check: allow(float-eq) exact sentinel: the caller passes 1.5 verbatim
    x == 1.5
}
