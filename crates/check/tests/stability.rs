//! Property tests: diagnostic output is a pure, order-independent function
//! of the file set — permuting the scan order never changes the rendered
//! report, which is what makes the gate's output diffable across machines
//! and file systems.

use ppn_check::{lint_file, Diagnostic, Role, SourceFile};
use proptest::prelude::*;

/// A small pool of synthetic sources with a known mix of findings.
fn pool() -> Vec<SourceFile> {
    let sources: [(&str, &str, &str); 5] = [
        (
            "crates/core/src/a.rs",
            "ppn-core",
            "/// Doc.\npub fn a(x: &[f64]) -> bool { x[0] != 1.0 }\n",
        ),
        (
            "crates/market/src/b.rs",
            "ppn-market",
            "/// Doc.\npub fn b(x: f64) -> bool { x == 0.5 }\n",
        ),
        (
            "crates/baselines/src/c.rs",
            "ppn-baselines",
            "pub fn c() { let v = vec![1]; drop(v); }\n",
        ),
        (
            "crates/tensor/src/d.rs",
            "ppn-tensor",
            "/// Doc.\npub fn d() { panic!(\"boom\") }\n",
        ),
        (
            "crates/obs/src/e.rs",
            "ppn-obs",
            "use std::collections::HashMap;\npub fn e() -> String {\n    let m: HashMap<u32, u32> = HashMap::new();\n    let mut s = String::new();\n    for (k, v) in m.iter() { s.push_str(&format!(\"{k}{v}\")); }\n    s\n}\n",
        ),
    ];
    sources
        .into_iter()
        .map(|(path, krate, src)| SourceFile::scan(path, krate, Role::Lib, src))
        .collect()
}

/// Mimics `run`'s aggregation over an arbitrary file order.
fn lint_in_order(files: &[SourceFile], order: &[usize]) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = order.iter().flat_map(|&i| lint_file(&files[i])).collect();
    out.sort();
    out
}

proptest! {
    #[test]
    fn diagnostics_stable_under_file_order_permutation(
        swaps in proptest::collection::vec((0usize..5, 0usize..5), 0..16),
    ) {
        let files = pool();
        let mut order: Vec<usize> = vec![0, 1, 2, 3, 4];
        for (a, b) in swaps {
            order.swap(a, b);
        }
        let baseline = lint_in_order(&files, &[0, 1, 2, 3, 4]);
        let permuted = lint_in_order(&files, &order);
        prop_assert_eq!(&baseline, &permuted);
        // Rendered output is byte-identical too (what CI diffs against).
        let render = |ds: &[Diagnostic]| {
            ds.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        };
        prop_assert_eq!(render(&baseline), render(&permuted));
        // And the pool exercises the engine: it must find the seeded bugs.
        prop_assert_eq!(baseline.iter().filter(|d| d.rule == "float-eq").count(), 2);
        prop_assert!(baseline.iter().any(|d| d.rule == "hash-iter"));
    }

    #[test]
    fn scanner_never_panics_on_arbitrary_text(
        codes in proptest::collection::vec(0u32..0x300, 0..400),
    ) {
        // Arbitrary text skewed toward the ASCII range where the scanner's
        // state machine (strings, comments, char literals) actually branches.
        let src: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let f = SourceFile::scan("crates/core/src/fuzz.rs", "ppn-core", Role::Lib, &src);
        let _ = lint_file(&f);
    }

    #[test]
    fn block_tracker_roundtrips_generated_soup(
        // Each atom appends one construct; balanced braces are emitted in
        // matched pairs by construction, so the true depth at EOF is zero.
        atoms in proptest::collection::vec(0u8..6, 0..60),
    ) {
        let mut src = String::new();
        let mut pending = 0usize;
        for (i, atom) in atoms.iter().enumerate() {
            match atom {
                // A balanced block with a statement inside.
                0 => { src.push_str("fn f() {\n    let x = 1;\n"); pending += 1; }
                // A string literal stuffed with braces — must not count.
                1 => src.push_str(&format!("let s{i} = \"}}}}{{{{\";\n")),
                // A raw string with braces and quotes.
                2 => src.push_str(&format!("let r{i} = r#\"{{\" }}\"#;\n")),
                // Line comment with braces.
                3 => src.push_str("// closing }} and opening {{\n"),
                // Block comment spanning lines, braces inside.
                4 => src.push_str("/* {{{\n   }}} */\n"),
                // Close one pending block if any.
                5 => {
                    if pending > 0 { src.push_str("}\n"); pending -= 1; }
                }
                _ => unreachable!(),
            }
        }
        for _ in 0..pending {
            src.push_str("}\n");
        }
        let f = SourceFile::scan("crates/core/src/soup.rs", "ppn-core", Role::Lib, &src);
        // Depth returns to zero at EOF: every brace the tracker counted was
        // a real code brace, and they balance by construction.
        prop_assert_eq!(f.depths.last().map_or(0, |d| d.1), 0, "src:\n{}", src);
        // Per-line depths chain: each line starts where the previous ended.
        for w in f.depths.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }
        // And the first line starts at depth zero.
        prop_assert_eq!(f.depths.first().map_or(0, |d| d.0), 0);
    }
}
