#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # ppn-check
//!
//! A tidy-style workspace lint engine for the numerical contracts the PPN
//! reproduction depends on that rustc and clippy cannot express: no exact
//! float equality (including against zero), deterministic (sorted) output
//! from hash containers, hardened crate lint headers, and
//! `contract(simplex)`/`contract(finite)` tags backed by `debug_assert`
//! invariants from `ppn_core::contracts`. Panic-freedom and documented
//! public APIs are compiler lints declared in each crate root instead.
//!
//! ## Running
//!
//! ```text
//! cargo run -p ppn-check -- --all        # lint the whole workspace
//! cargo run -p ppn-check -- --list      # print the rule table
//! cargo test -p ppn-check              # fixtures + the workspace gate
//! ```
//!
//! Diagnostics are rustc-style `path:line: error[rule-id]: message` lines,
//! sorted by path/line/rule so output is stable across runs and file-system
//! orderings.
//!
//! ## Allowing a finding
//!
//! Add `// ppn-check: allow(rule-id) reason` on the offending line or the
//! line directly above. The reason is mandatory — an allow-comment without
//! one is itself a diagnostic (`allow-syntax`).
//!
//! ## What gets scanned
//!
//! First-party crates only. A crate is first-party when its package name
//! starts with `ppn` — the vendored dependency shims (`rand`, `serde*`,
//! `proptest`, `criterion`, `parking_lot`) keep their upstream names in
//! their manifests and are exempted via that manifest allowlist, not by
//! path, so moving or adding shims never silently widens the lint surface.
//!
//! ## Rule kinds
//!
//! Two kinds of rules run on every pass. *File rules*
//! ([`rules::registry`]) see one [`SourceFile`] at a time. *Workspace
//! rules* ([`workspace::registry`]) see the whole [`Workspace`] — every
//! scanned file plus the checked-in side artifacts (`env_manifest.toml`,
//! `README.md`, `results/api_surface.txt`) — which is what makes
//! cross-file properties like lock-order cycles checkable. Allow-comments
//! apply identically to both kinds when a finding lands on a source line.

pub mod rules;
pub mod scanner;
pub mod workspace;

pub use rules::{Diagnostic, Rule};
pub use scanner::{Role, SourceFile};
pub use workspace::{Workspace, WorkspaceRule};

use std::path::{Path, PathBuf};

/// Rule id used for malformed allow-comments.
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// A workspace member discovered from the manifests.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (`name = "..."`).
    pub name: String,
    /// Crate directory (contains `Cargo.toml` and `src/`).
    pub dir: PathBuf,
}

impl CrateInfo {
    /// First-party crates are linted; vendored shims are exempt.
    pub fn is_first_party(&self) -> bool {
        self.name.starts_with("ppn")
    }
}

/// Reads `name = "..."` out of a crate manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Discovers workspace members: the root package plus every `crates/*`
/// directory with a `Cargo.toml`. Shim crates are included with their
/// upstream names so callers can observe (and test) the exemption.
pub fn discover(root: &Path) -> std::io::Result<Vec<CrateInfo>> {
    let mut out = Vec::new();
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    if let Some(name) = package_name(&root_manifest) {
        out.push(CrateInfo { name, dir: root.to_path_buf() });
    }
    let crates_dir = root.join("crates");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    entries.sort();
    for dir in entries {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))?;
        if let Some(name) = package_name(&manifest) {
            out.push(CrateInfo { name, dir });
        }
    }
    Ok(out)
}

/// Collects the `.rs` files of a crate's `src/` tree (recursively), with
/// the [`Role`] each file compiles under.
pub fn crate_sources(info: &CrateInfo) -> std::io::Result<Vec<(PathBuf, Role)>> {
    let src = info.dir.join("src");
    let mut files = Vec::new();
    if src.is_dir() {
        walk(&src, &mut files)?;
    }
    files.sort();
    Ok(files
        .into_iter()
        .map(|p| {
            let is_bin = p.file_name().is_some_and(|f| f == "main.rs")
                || p.parent().and_then(Path::file_name).is_some_and(|d| d == "bin");
            (p, if is_bin { Role::Bin } else { Role::Lib })
        })
        .collect())
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Which engine a rule runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Per-file rule: `fn(&SourceFile) -> Vec<Diagnostic>`.
    File,
    /// Workspace rule: `fn(&Workspace) -> Vec<Diagnostic>`.
    Workspace,
}

impl RuleKind {
    /// Lowercase label used in `--all` timing lines and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            RuleKind::File => "file",
            RuleKind::Workspace => "workspace",
        }
    }
}

/// Wall-time spent in one rule across the whole run.
#[derive(Debug, Clone)]
pub struct RuleTiming {
    /// Rule identifier.
    pub id: &'static str,
    /// File or workspace rule.
    pub kind: RuleKind,
    /// Microseconds spent in the rule's checker (all files summed for file
    /// rules; one invocation for workspace rules).
    pub micros: u128,
}

/// Outcome of a workspace run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Surviving diagnostics, sorted by path/line/rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files: usize,
    /// Number of crates skipped as vendored shims.
    pub shims_skipped: usize,
    /// Per-rule wall time, in registry order (file rules, then workspace).
    pub timings: Vec<RuleTiming>,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Machine-readable rendering for `--json` and the CI artifact. Built
    /// by hand (no serde): the shape is small, flat, and fully escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files\": {},\n", self.files));
        out.push_str(&format!("  \"shims_skipped\": {},\n", self.shims_skipped));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"timings\": [");
        for (i, t) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": \"{}\", \"kind\": \"{}\", \"micros\": {}}}",
                t.id,
                t.kind.label(),
                t.micros
            ));
        }
        out.push_str(if self.timings.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&d.path),
                d.line,
                d.rule,
                json_escape(&d.message)
            ));
        }
        out.push_str(if self.diagnostics.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push('}');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Every rule id an allow-comment may legally name: the file rules plus the
/// workspace rules.
pub fn known_rules() -> Vec<&'static str> {
    rules::registry()
        .iter()
        .map(|r| r.id)
        .chain(workspace::registry().iter().map(|r| r.id))
        .collect()
}

/// Emits `allow-syntax` diagnostics for malformed allow-comments in one
/// file: unknown rule ids and missing justifications.
fn allow_syntax_diags(file: &SourceFile, known: &[&'static str]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if let Some((rule, reason)) = parse_allow(&line.comment) {
            if !known.contains(&rule.as_str()) {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: i + 1,
                    rule: ALLOW_SYNTAX,
                    message: format!("allow-comment names unknown rule `{rule}`"),
                });
            } else if reason.is_empty() {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: i + 1,
                    rule: ALLOW_SYNTAX,
                    message: format!("allow({rule}) without a justification"),
                });
            }
        }
    }
    out
}

/// Lints one already-scanned file: runs every file rule, then applies
/// allow-comments (same line or the line directly above), emitting
/// `allow-syntax` diagnostics for malformed or reason-less allows.
/// Workspace rules do not run here — use [`run`] for the full pass.
pub fn lint_file(file: &SourceFile) -> Vec<Diagnostic> {
    // Malformed allow-comments are findings in their own right.
    let mut out = allow_syntax_diags(file, &known_rules());
    for d in rules::check_file(file) {
        if !is_allowed(file, &d) {
            out.push(d);
        }
    }
    out
}

/// True when the diagnostic's line (or a pure-comment line directly above)
/// carries a well-formed allow-comment for its rule. An allow trailing code
/// covers only its own line, so `x.unwrap(); // …allow…` never leaks onto
/// the statement below.
fn is_allowed(file: &SourceFile, d: &Diagnostic) -> bool {
    let line0 = d.line - 1;
    let matches = |i: usize| {
        file.lines
            .get(i)
            .and_then(|l| parse_allow(&l.comment))
            .is_some_and(|(rule, reason)| rule == d.rule && !reason.is_empty())
    };
    if matches(line0) {
        return true;
    }
    line0 > 0
        && file.lines.get(line0 - 1).is_some_and(|l| l.code.trim().is_empty())
        && matches(line0 - 1)
}

/// Parses `ppn-check: allow(rule-id) reason` out of comment text.
fn parse_allow(comment: &str) -> Option<(String, String)> {
    let rest = comment.trim().strip_prefix("ppn-check: allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let reason = rest[close + 1..].trim().to_string();
    Some((rule, reason))
}

/// Scans the workspace at `root` into a [`Workspace`]: every first-party
/// source file plus the side artifacts the workspace passes reconcile
/// against. Returns the workspace and the number of shim crates skipped.
pub fn load_workspace(root: &Path) -> std::io::Result<(Workspace, usize)> {
    let mut shims = 0;
    let mut files = Vec::new();
    for info in &discover(root)? {
        if !info.is_first_party() {
            shims += 1;
            continue;
        }
        for (path, role) in crate_sources(info)? {
            let text = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            files.push(SourceFile::scan(&rel, &info.name, role, &text));
        }
    }
    let read = |p: &str| std::fs::read_to_string(root.join(p)).ok();
    let ws = Workspace {
        files,
        env_manifest: read(workspace::env_registry::MANIFEST_PATH),
        readme: read("README.md"),
        api_golden: read(workspace::api_surface::GOLDEN_PATH),
    };
    Ok((ws, shims))
}

/// Scans and lints the whole workspace rooted at `root`: file rules, then
/// workspace rules, with per-rule wall time recorded and allow-comments
/// applied to every diagnostic that lands on a scanned source line.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let (ws, shims_skipped) = load_workspace(root)?;
    let mut report = Report { files: ws.files.len(), shims_skipped, ..Report::default() };
    let known = known_rules();
    let mut raw: Vec<Diagnostic> = Vec::new();
    for file in &ws.files {
        raw.extend(allow_syntax_diags(file, &known));
    }
    for rule in rules::registry() {
        // ppn-check: allow(no-wallclock) per-rule timing is observability on the linter itself, not numerics
        let t0 = std::time::Instant::now();
        for file in &ws.files {
            raw.extend((rule.check)(file));
        }
        report.timings.push(RuleTiming {
            id: rule.id,
            kind: RuleKind::File,
            micros: t0.elapsed().as_micros(),
        });
    }
    for rule in workspace::registry() {
        // ppn-check: allow(no-wallclock) per-rule timing is observability on the linter itself, not numerics
        let t0 = std::time::Instant::now();
        raw.extend((rule.check)(&ws));
        report.timings.push(RuleTiming {
            id: rule.id,
            kind: RuleKind::Workspace,
            micros: t0.elapsed().as_micros(),
        });
    }
    // Allow-comments suppress any diagnostic anchored on a scanned line,
    // workspace findings included; findings on side artifacts (manifest,
    // golden file) have no allow escape by design.
    let by_path: std::collections::BTreeMap<&str, &SourceFile> =
        ws.files.iter().map(|f| (f.path.as_str(), f)).collect();
    for d in raw {
        let allowed = by_path.get(d.path.as_str()).is_some_and(|f| is_allowed(f, &d));
        if !allowed {
            report.diagnostics.push(d);
        }
    }
    report.diagnostics.sort();
    Ok(report)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the lint root.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_package_section_only() {
        let manifest = "[workspace]\nmembers = [\"x\"]\n\n[package]\nname = \"ppn-core\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("ppn-core"));
        let shim = "[package]\nname = \"rand\"\nversion = \"0.8.5\"\n";
        assert_eq!(package_name(shim).as_deref(), Some("rand"));
        assert_eq!(package_name("[workspace]\n"), None);
    }

    #[test]
    fn allow_parsing_requires_reason() {
        assert_eq!(
            parse_allow(" ppn-check: allow(float-eq) exact sentinel set above"),
            Some(("float-eq".into(), "exact sentinel set above".into()))
        );
        assert_eq!(
            parse_allow(" ppn-check: allow(float-eq)"),
            Some(("float-eq".into(), "".into()))
        );
        assert_eq!(parse_allow(" just a comment"), None);
    }

    #[test]
    fn allow_comment_suppresses_on_same_and_previous_line() {
        let src = "\
pub fn a(x: f64, y: f64, z: f64) -> bool {
    // ppn-check: allow(float-eq) exact sentinel: written verbatim by the caller
    let a = x == 1.0;
    let b = y == 1.0; // ppn-check: allow(float-eq) documented sentinel
    let c = z == 1.0;
    a && b && c
}";
        let f = SourceFile::scan("crates/core/src/a.rs", "ppn-core", Role::Lib, src);
        let ds = lint_file(&f);
        let eqs: Vec<_> = ds.iter().filter(|d| d.rule == "float-eq").collect();
        assert_eq!(eqs.len(), 1, "{ds:?}");
        assert_eq!(eqs[0].line, 5);
    }

    #[test]
    fn reasonless_allow_is_a_diagnostic_and_does_not_suppress() {
        let src = "// ppn-check: allow(float-eq)\npub fn a(x: f64) -> bool { x == 1.0 }";
        let f = SourceFile::scan("crates/core/src/a.rs", "ppn-core", Role::Lib, src);
        let ds = lint_file(&f);
        assert!(ds.iter().any(|d| d.rule == ALLOW_SYNTAX));
        assert!(ds.iter().any(|d| d.rule == "float-eq"));
    }
}
