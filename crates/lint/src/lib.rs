//! `ruche-lint` — a dependency-free, token/line-level workspace linter
//! enforcing the repo's determinism and soundness invariants
//! (`cargo run -p ruche-lint`).
//!
//! `cargo clippy` checks general Rust hygiene; this linter checks the
//! *project-specific* contracts that keep artifacts byte-identical and the
//! concurrent step sound — things no generic linter knows about:
//!
//! * no `.unwrap()` in the simulator core ([`rules`]: `no-unwrap`);
//! * no wall-clock reads outside the bench binaries (`wall-clock`);
//! * every hash-container import justifies why its iteration order cannot
//!   leak into an artifact (`hash-order`);
//! * every `unsafe` carries its `// SAFETY:` proof obligation
//!   (`safety-comment`);
//! * every `#[deprecated]` shim is pinned to its replacement by
//!   `tests/deprecated_shims.rs` (`deprecated-shims`);
//! * the public API of the core crates is documented (`pub-doc`).
//!
//! Findings can be suppressed per site with a justified marker:
//! `// lint:allow(<rule>): <reason>` within three lines above the match —
//! the reason is mandatory, an unexplained allow does not count.
//!
//! The scanner ([`scan`]) strips comments and string/char literals and
//! tracks `#[cfg(test)]` regions, so rules match real code tokens only.
//! Everything is plain `std`; the linter must stay runnable in the
//! offline CI container and cheap enough to run on every change.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl Finding {
    /// Builds a finding; normalizes the path separator.
    pub fn new(rule: &'static str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.replace('\\', "/"),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of linting a set of files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// No findings?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report as JSON (machine-readable CI output). Schema:
    /// `{"files_scanned": N, "findings": [{"rule", "file", "line",
    /// "message"}]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(f.rule),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push('\n');
            s.push_str("  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lints one file's contents as if it lived at workspace-relative `rel`.
/// The entry point the fixture tests use; [`lint_workspace`] calls it per
/// file. Does not apply the crate-level `deprecated-shims` rule (that one
/// needs the sibling test file; see [`rules::deprecated_shims`]).
pub fn lint_source(rel: &str, contents: &str) -> Vec<Finding> {
    rules::lint_lines(rel, &scan::scan(contents))
}

/// The workspace root, derived from this crate's manifest dir at compile
/// time (`crates/lint` → two levels up). Valid wherever the repo checkout
/// runs, which is all the linter supports.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Lints the whole workspace under `root`: every `.rs` file in
/// `crates/*/src` and the root package's `src/`, skipping `vendor/`
/// (third-party stubs are not held to project rules). Findings come back
/// sorted by (file, line, rule) so output is stable.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut src_dirs: Vec<(PathBuf, PathBuf)> = Vec::new(); // (crate dir, src dir)
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            src_dirs.push((dir, src));
        }
    }
    // The root facade package.
    if root.join("src").is_dir() {
        src_dirs.push((root.to_path_buf(), root.join("src")));
    }

    for (crate_dir, src) in src_dirs {
        let shims = std::fs::read_to_string(crate_dir.join("tests/deprecated_shims.rs")).ok();
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let contents = std::fs::read_to_string(&path)?;
            let lines = scan::scan(&contents);
            report.findings.extend(rules::lint_lines(&rel, &lines));
            rules::deprecated_shims(&rel, &lines, shims.as_deref(), &mut report.findings);
            report.files_scanned += 1;
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_when_empty_and_nonempty() {
        let mut r = Report {
            findings: vec![],
            files_scanned: 3,
        };
        assert!(r.to_json().contains("\"findings\": []"));
        r.findings
            .push(Finding::new("no-unwrap", "a/b.rs", 7, "msg \"quoted\""));
        let j = r.to_json();
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"line\": 7"));
    }

    #[test]
    fn workspace_root_contains_the_cargo_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }
}
